"""Bipartite graph views, pruning, structure search, canonical forms."""

import dataclasses
import itertools
import random

import pytest

from eicp.covers import demand_relabeling
from eicp.errors import ConsistencyError, GuardExceededError
from eicp.experiments import random_single_unicast, regular_tree_instance
from eicp.gf import FieldOrder
from eicp.graphs import (
    BICLIQUE,
    REGULAR_TREE,
    SideInfoBipartiteGraph,
    StructureWitness,
    build_problem_graph,
    build_side_info_graph,
    canonical_form,
    find_covered_pairs,
    is_connected,
    prune_degree_one,
    search_bicliques,
    search_regular_trees,
    tree_witness_edges,
    verify_structure,
)
from eicp.graphs import (
    _clique_witness,
    _covering_user,
    _find_tree,
    _lone_messages,
    _mask,
    _max_clique,
    _member_pool,
    _members,
    _mutually_known,
)
from eicp.model import EicpInstance, _renamed


def _random_graph(rng, n, m):
    adjacency = tuple(
        tuple(sorted(x for x in range(1, m + 1) if rng.random() < 0.5))
        for _ in range(n)
    )
    return SideInfoBipartiteGraph(n, m, adjacency)


def test_side_info_graph_shape(mixed4):
    g = build_side_info_graph(mixed4)
    assert g.num_users == 4 and g.num_messages == 4
    assert sum(g.message_degree(m) for m in range(1, 5)) == 7
    assert g.message_degree(-1) == g.message_degree(0) == g.message_degree(5) == 0


def test_side_info_graph_ignores_demands(mixed4):
    other = dataclasses.replace(mixed4, demands=(4, 4, 2, 1))
    assert build_side_info_graph(mixed4) == build_side_info_graph(other)


def test_problem_graph_orientation(mixed4):
    pg = build_problem_graph(mixed4)
    for i in range(1, 5):
        assert frozenset(pg.user_out(i)) == mixed4.knows(i)
    assert pg.user_in(1) == (2,)
    assert pg.message_out(2) == (1,)
    assert pg.message_in(2) == (2, 3)


def test_problem_graph_undemanded_message():
    inst = EicpInstance(FieldOrder(2), 3, 3,
                        side_info=((2, 3), (3,), (1,)),
                        demands=(1, 1, 3))
    pg = build_problem_graph(inst)
    assert pg.message_out(2) == ()
    assert pg.message_out(1) == (1, 2)
    assert pg.message_in(1) == (3,)


def test_is_connected_examples(mixed4):
    assert is_connected(build_side_info_graph(mixed4))
    split = EicpInstance(FieldOrder(2), 3, 3,
                         side_info=((), (1,), (2, 3)),
                         demands=(1, 2, 1))
    assert not is_connected(build_side_info_graph(split))
    # A lone vertex is connected, nothing at all is not.
    assert is_connected(SideInfoBipartiteGraph(0, 1, ()))
    assert not is_connected(SideInfoBipartiteGraph(0, 0, ()))
    assert not is_connected(SideInfoBipartiteGraph(0, 2, ()))
    assert is_connected(SideInfoBipartiteGraph(1, 0, ((),)))
    assert not is_connected(SideInfoBipartiteGraph(1, 1, ((),)))
    # An unheld message, then an isolated user among connected ones.
    assert not is_connected(SideInfoBipartiteGraph(2, 3, ((1, 2), (2,))))
    assert not is_connected(SideInfoBipartiteGraph(3, 2, ((1, 2), (), (2,))))
    assert is_connected(SideInfoBipartiteGraph(3, 3, ((1,), (2, 3), (1, 2))))
    # Pruning drops the unheld message 3 and the degree-one message 1.
    pruned = prune_degree_one(SideInfoBipartiteGraph(2, 3, ((1, 2), (2,))))
    assert pruned.x_prime == (2,) and is_connected(pruned)


def test_prune_degree_one(mixed4):
    g = build_side_info_graph(mixed4)
    pruned = prune_degree_one(g)
    assert pruned.x_prime == (1, 2, 4)
    assert pruned.base is g
    assert all(g.message_degree(m) >= 2 for m in pruned.x_prime)
    assert 3 not in set(itertools.chain.from_iterable(pruned.adjacency))


def test_prune_identity_when_all_degrees_high():
    inst = EicpInstance(FieldOrder(2), 3, 3,
                        side_info=((2, 3), (1, 3), (1, 2)),
                        demands=(1, 2, 3))
    g = build_side_info_graph(inst)
    pruned = prune_degree_one(g)
    assert pruned.x_prime == (1, 2, 3)
    assert pruned.adjacency == g.adjacency


def test_prune_preserves_connectivity_on_connected_graphs():
    rng = random.Random(11)
    checked = 0
    for n, m in itertools.product((2, 3, 4), repeat=2):
        for _ in range(40):
            g = _random_graph(rng, n, m)
            if not is_connected(g):
                continue
            pruned = prune_degree_one(g)
            if pruned.x_prime:
                assert is_connected(pruned)
            checked += 1
    assert checked > 50


def test_verify_structure_tree():
    inst = regular_tree_instance(4)
    w = StructureWitness(kind="regular_tree", msg_seq=(1, 2, 3, 4))
    assert verify_structure(build_side_info_graph(inst), w)
    broken = EicpInstance(FieldOrder(2), 4, 4,
                          side_info=((2, 3), (3,), (1,), (1,)),
                          demands=(1, 2, 3, 4))
    assert not verify_structure(build_side_info_graph(broken), w)
    # User 5 holds every member, yet a tree is never covered.
    helped = SideInfoBipartiteGraph(5, 4, inst.side_info + ((1, 2, 3, 4),))
    assert verify_structure(helped, w)
    assert not verify_structure(
        helped, StructureWitness("regular_tree", (1, 2, 3, 4), covering_user=5))


def test_verify_structure_rejects_a_member_without_a_user():
    # Message 4 has no user to demand it, so it can be no member.
    g = SideInfoBipartiteGraph(3, 4, ((2, 4), (1, 4), (1, 2, 4)))
    assert verify_structure(g, StructureWitness("covered_pair", (1, 2), covering_user=3))
    for w in (StructureWitness("biclique", (1, 4)),
              StructureWitness("single_edge", (4,), covering_user=3),
              # A repeated member, and one that is no index at all.
              StructureWitness("covered_pair", (1, 1), covering_user=3),
              StructureWitness("covered_pair", (0, 1), covering_user=3)):
        assert not verify_structure(g, w)


def test_verify_structure_biclique(seven_user):
    g = build_side_info_graph(seven_user)
    good = StructureWitness(kind="biclique", msg_seq=(1, 2, 3, 4), covering_user=5)
    assert verify_structure(g, good)
    assert verify_structure(g, StructureWitness("covered_pair", (6, 7), covering_user=5))
    assert verify_structure(g, StructureWitness("single_edge", (7,), covering_user=6))
    for bad in (
        StructureWitness("biclique", (1, 5), covering_user=6),
        # User 6 holds none of 1-4.
        StructureWitness("biclique", (1, 2, 3, 4), covering_user=6),
        # User 1 holds none of 5, 6 and 7.
        StructureWitness("covered_pair", (6, 7), covering_user=1),
        StructureWitness("single_edge", (5,), covering_user=1),
    ):
        assert not verify_structure(g, bad)


def test_tree_witness_edges_count():
    for n in (3, 4, 5):
        inst = regular_tree_instance(n)
        w = StructureWitness(kind="regular_tree", msg_seq=tuple(range(1, n + 1)))
        edges = tree_witness_edges(w)
        assert len(edges) == 2 * n - 1
        assert verify_structure(build_side_info_graph(inst), w)


def test_search_regular_trees_finds_t44():
    inst = regular_tree_instance(4)
    g = build_side_info_graph(inst)
    found = search_regular_trees(g)
    assert len(found) == 1
    assert found[0].kind == "regular_tree"
    assert len(found[0].msg_seq) == 4
    assert verify_structure(g, found[0])


def test_find_tree_matches_brute_force():
    # The first permutation that embeds, in lexicographic order, is the tree
    # the mask walk must return, both when the tree takes the whole pool
    # (each exact-cover block) and when it takes part of it (greedy packing).
    def first_tree(g, pool, n):
        return next((w for seq in itertools.permutations(pool, n)
                     if verify_structure(g, w := StructureWitness(REGULAR_TREE, seq))), None)

    blocks = trees = 0
    for n in range(3, 7):
        for d in (0.3, 0.5, 0.7):
            for seed in range(4):
                g, _ = demand_relabeling(random_single_unicast(n, 2, d, seed))
                pool = tuple(range(1, n + 1))
                assert _member_pool(g) == _mask(pool)
                for size in range(3, n + 1):
                    assert _find_tree(g, _mask(pool), size) == first_tree(g, pool, size)
                    for block in itertools.combinations(pool, size):
                        w = _find_tree(g, _mask(block), size)
                        assert w == first_tree(g, block, size)
                        blocks += 1
                        trees += w is not None
    assert blocks == 768
    assert trees >= 150


def test_mask_rules_match_the_set_definitions():
    # Seeded graphs with helpers (more users than messages) and with more
    # messages than users, against the set-based rules written out here.
    def covers(adj, c, members):
        return c not in members and set(members) <= set(adj[c - 1])

    def covering_user(adj, members):
        return next((c for c in range(1, len(adj) + 1) if covers(adj, c, members)), None)

    def mutually_known(adj, members):
        return all(b in adj[a - 1] and a in adj[b - 1]
                   for a, b in itertools.combinations(members, 2))

    def first_largest_clique(adj, pool):
        return next((c for size in range(len(pool), 0, -1)
                     for c in itertools.combinations(pool, size) if mutually_known(adj, c)), ())

    def connected(adj, messages):
        # Breadth-first search over the explicit user -- message edges.
        nodes = [("u", u) for u in range(1, len(adj) + 1)] + [("m", m) for m in messages]
        edges = {node: [] for node in nodes}
        for u, held in enumerate(adj, 1):
            for m in held:
                if m in messages:
                    edges["u", u].append(("m", m))
                    edges["m", m].append(("u", u))
        if not nodes:
            return False
        seen, frontier = {nodes[0]}, [nodes[0]]
        while frontier:
            frontier = [v for node in frontier for v in edges[node] if v not in seen]
            seen.update(frontier)
        return len(seen) == len(nodes)

    rng = random.Random(18)
    shapes = helpers = wide = 0
    for users, messages in itertools.product(range(1, 8), repeat=2):
        for d in (0.2, 0.5, 0.8):
            for _ in range(3):
                adj = tuple(tuple(m for m in range(1, messages + 1) if rng.random() < d)
                            for _ in range(users))
                g = SideInfoBipartiteGraph(users, messages, adj)
                assert is_connected(g) == connected(adj, tuple(range(1, messages + 1)))
                pruned = prune_degree_one(g)
                assert is_connected(pruned) == connected(adj, pruned.x_prime)
                pool = _members(_member_pool(g))
                for size in range(len(pool) + 1):
                    for members in itertools.combinations(pool, size):
                        mask = _mask(members)
                        known = mutually_known(adj, members)
                        assert _covering_user(g, mask) == covering_user(adj, members)
                        assert _mutually_known(g, mask) == known
                        assert _members(_max_clique(g, mask)) == first_largest_clique(adj, members)
                        if size >= 2:
                            for c in range(1, users + 1):
                                w = StructureWitness(BICLIQUE, members, covering_user=c)
                                assert verify_structure(g, w) == (known and covers(adj, c, members))
                shapes += 1
                helpers += users > messages
                wide += messages > users
    assert shapes == 441 and helpers == wide == 189


def test_search_trees_two_components():
    side = ((2, 3), (1, 3), (1,), (5, 6), (4, 6), (4,))
    inst = EicpInstance(FieldOrder(2), 6, 6, side_info=side,
                        demands=(1, 2, 3, 4, 5, 6))
    g = build_side_info_graph(inst)
    found = search_regular_trees(g)
    pools = {frozenset(w.msg_seq) for w in found}
    assert pools == {frozenset({1, 2, 3}), frozenset({4, 5, 6})}
    for w in found:
        assert verify_structure(g, w)


def test_search_bicliques(seven_user):
    g = build_side_info_graph(seven_user)
    found = search_bicliques(g)
    assert {w.msg_seq for w in found} == {(1, 2, 3, 4), (5, 6, 7)}
    by_seq = {w.msg_seq: w for w in found}
    assert by_seq[(1, 2, 3, 4)].covered
    assert by_seq[(1, 2, 3, 4)].covering_user == 5
    assert not by_seq[(5, 6, 7)].covered
    for w in found:
        assert verify_structure(g, w)


def test_search_bicliques_rejects_a_message_without_an_outside_holder():
    # Messages 1 and 2 form a covered pair; no user holds message 3.
    g = SideInfoBipartiteGraph(3, 3, ((2,), (1,), (1, 2)))
    with pytest.raises(ConsistencyError, match="message 3 has no outside holder"):
        search_bicliques(g)


def test_find_covered_pairs(seven_user):
    g = build_side_info_graph(seven_user)
    pairs = find_covered_pairs(g)
    seqs = {w.msg_seq for w in pairs}
    assert (1, 2) in seqs and (5, 6) in seqs
    assert all(w.covered and w.covering_user is not None for w in pairs)
    for w in pairs:
        assert verify_structure(g, w)


def test_single_edge_witness(seven_user):
    # A lone message is the one-member clique, sent by its covering user.
    g = build_side_info_graph(seven_user)
    w = _clique_witness(g, 1 << 7)
    assert w.kind == "single_edge" and w.covering_user == 5
    assert verify_structure(g, w)
    assert _lone_messages(g, 1 << 7) == [w]
    lonely = SideInfoBipartiteGraph(2, 2, ((2,), (1,)))
    assert _lone_messages(lonely, 0b110) == [
        StructureWitness("single_edge", (1,), covering_user=2),
        StructureWitness("single_edge", (2,), covering_user=1)]
    held_by_none = SideInfoBipartiteGraph(2, 2, ((2,), (2,)))
    w = _clique_witness(held_by_none, 1 << 1)
    assert w.kind == "single_edge" and not w.covered
    assert not verify_structure(held_by_none, w)
    with pytest.raises(ConsistencyError, match="message 1 has no outside holder"):
        _lone_messages(held_by_none, 1 << 1)


def test_canonical_form_permutation_invariant():
    rng = random.Random(23)
    for _ in range(80):
        n = rng.randint(2, 4)
        m = rng.randint(2, 4)
        g = _random_graph(rng, n, m)
        perm_u = list(range(n))
        perm_m = list(range(1, m + 1))
        rng.shuffle(perm_u)
        rng.shuffle(perm_m)
        renamed = _renamed(g.adjacency, (0, *perm_m))
        shuffled = SideInfoBipartiteGraph(n, m, tuple(renamed[u] for u in perm_u))
        assert canonical_form(g) == canonical_form(shuffled)


def test_canonical_form_separates_shapes():
    a = SideInfoBipartiteGraph(3, 3, ((2,), (3,), (1,)))
    b = SideInfoBipartiteGraph(3, 3, ((2, 3), (3,), (1,)))
    assert canonical_form(a) != canonical_form(b)


def test_canonical_form_guard():
    # Nine users would mean 9! orderings; the guard trips before the first.
    g = SideInfoBipartiteGraph(9, 2, ((1,), (2,)) * 4 + ((1, 2),))
    with pytest.raises(GuardExceededError, match="at most 8 users and messages"):
        canonical_form(g)


def test_tree_witness_edges_pinned():
    expected = {
        3: [(1, 2), (1, 3), (2, 1), (2, 3), (3, 1)],
        4: [(1, 2), (1, 3), (2, 3), (2, 4), (3, 1), (3, 4), (4, 1)],
        5: [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (3, 5), (4, 1), (4, 5),
            (5, 1)],
        6: [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (3, 5), (4, 5), (4, 6),
            (5, 1), (5, 6), (6, 1)],
    }
    for n, edges in expected.items():
        seq = tuple(range(1, n + 1))
        assert sorted(tree_witness_edges(StructureWitness("regular_tree", seq))) == edges
        # The covering user is keyword-only, so a stale positional call fails.
        with pytest.raises(TypeError):
            StructureWitness("regular_tree", seq, seq)
        # The edges follow the slots, whatever messages fill them.
        relabeled = tuple(10 * m for m in reversed(seq))
        w = StructureWitness("regular_tree", relabeled)
        assert tree_witness_edges(w) == {
            (relabeled[u - 1], relabeled[m - 1]) for u, m in edges
        }
