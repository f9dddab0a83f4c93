"""Bipartite graph views, pruning, structure search, canonical forms."""

import dataclasses
import itertools
import random

from eicp.experiments import regular_tree_instance
from eicp.gf import FieldOrder
from eicp.graphs import (
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
    single_edge_witness,
    tree_witness_edges,
    uniq_demanded,
    verify_structure,
)
from eicp.model import EicpInstance, enumerate_demands


def _random_graph(rng, n, m):
    adjacency = tuple(
        tuple(sorted(x for x in range(1, m + 1) if rng.random() < 0.5))
        for _ in range(n)
    )
    return SideInfoBipartiteGraph(n, m, adjacency)


def test_side_info_graph_shape(mixed4):
    g = build_side_info_graph(mixed4)
    assert g.num_users == 4 and g.num_messages == 4
    assert g.user_knows(2) == frozenset({1, 2, 3})
    assert sum(g.message_degree(m) for m in range(1, 5)) == 7
    assert g.message_holders(4) == (3, 4)


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


def test_uniq_demanded(mixed4):
    assert uniq_demanded(mixed4.demands) == 4
    assert uniq_demanded((1, 1, 1)) == 1
    assert uniq_demanded((2, 4, 1, 3), message_subset={1, 2, 4}) == 3
    assert uniq_demanded((2, 4, 1, 3), message_subset=set()) == 0


def test_verify_structure_tree():
    inst = regular_tree_instance(4)
    w = StructureWitness(kind="regular_tree", user_seq=(1, 2, 3, 4),
                         msg_seq=(1, 2, 3, 4))
    assert verify_structure(build_side_info_graph(inst), w)
    broken = EicpInstance(FieldOrder(2), 4, 4,
                          side_info=((2, 3), (3,), (1,), (1,)),
                          demands=(1, 2, 3, 4))
    assert not verify_structure(build_side_info_graph(broken), w)


def test_verify_structure_rejects_mismatched_slots():
    inst = regular_tree_instance(4)
    g = build_side_info_graph(inst)
    w = StructureWitness(kind="regular_tree", user_seq=(2, 1, 3, 4),
                         msg_seq=(1, 2, 3, 4))
    assert not verify_structure(g, w)


def test_verify_structure_biclique(seven_user):
    g = build_side_info_graph(seven_user)
    good = StructureWitness(kind="biclique", user_seq=(1, 2, 3, 4),
                            msg_seq=(1, 2, 3, 4), covering_user=5,
                            covered=True)
    assert verify_structure(g, good)
    bad = StructureWitness(kind="biclique", user_seq=(1, 5), msg_seq=(1, 5),
                           covering_user=6, covered=True)
    assert not verify_structure(g, bad)


def test_tree_witness_edges_count():
    for n in (3, 4, 5):
        inst = regular_tree_instance(n)
        w = StructureWitness(kind="regular_tree",
                             user_seq=tuple(range(1, n + 1)),
                             msg_seq=tuple(range(1, n + 1)))
        edges = tree_witness_edges(w)
        assert len(edges) == 2 * n - 1
        assert verify_structure(build_side_info_graph(inst), w)


def test_search_regular_trees_finds_t44():
    inst = regular_tree_instance(4)
    g = build_side_info_graph(inst)
    found = search_regular_trees(g, frozenset(range(1, 5)))
    assert len(found) == 1
    assert found[0].kind == "regular_tree"
    assert len(found[0].msg_seq) == 4
    assert verify_structure(g, found[0])


def test_search_regular_trees_empty_pool():
    inst = regular_tree_instance(4)
    g = build_side_info_graph(inst)
    assert search_regular_trees(g, frozenset()) == []


def test_search_trees_two_components():
    side = ((2, 3), (1, 3), (1,), (5, 6), (4, 6), (4,))
    inst = EicpInstance(FieldOrder(2), 6, 6, side_info=side,
                        demands=(1, 2, 3, 4, 5, 6))
    g = build_side_info_graph(inst)
    found = search_regular_trees(g, frozenset(range(1, 7)))
    pools = {frozenset(w.msg_seq) for w in found}
    assert pools == {frozenset({1, 2, 3}), frozenset({4, 5, 6})}
    for w in found:
        assert verify_structure(g, w)


def test_search_bicliques(seven_user):
    g = build_side_info_graph(seven_user)
    found = search_bicliques(g, frozenset(range(1, 8)))
    assert {w.msg_seq for w in found} == {(1, 2, 3, 4), (5, 6, 7)}
    by_seq = {w.msg_seq: w for w in found}
    assert by_seq[(1, 2, 3, 4)].covered
    assert by_seq[(1, 2, 3, 4)].covering_user == 5
    assert not by_seq[(5, 6, 7)].covered
    for w in found:
        assert verify_structure(g, w)


def test_find_covered_pairs(seven_user):
    g = build_side_info_graph(seven_user)
    pairs = find_covered_pairs(g, frozenset(range(1, 8)))
    seqs = {w.msg_seq for w in pairs}
    assert (1, 2) in seqs and (5, 6) in seqs
    assert all(w.covered and w.covering_user is not None for w in pairs)
    for w in pairs:
        assert verify_structure(g, w)


def test_single_edge_witness(seven_user):
    g = build_side_info_graph(seven_user)
    w = single_edge_witness(g, 7)
    assert w is not None and w.covering_user == 5
    assert verify_structure(g, w)
    lonely = SideInfoBipartiteGraph(2, 2, ((2,), (1,)))
    assert single_edge_witness(lonely, 1) == StructureWitness(
        "single_edge", (1,), (1,), 2, True)
    held_by_none = SideInfoBipartiteGraph(2, 2, ((2,), (2,)))
    assert single_edge_witness(held_by_none, 1) is None


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
        shuffled = SideInfoBipartiteGraph(n, m, tuple(
            tuple(sorted(perm_m[x - 1] for x in g.adjacency[perm_u[i]]))
            for i in range(n)
        ))
        assert canonical_form(g) == canonical_form(shuffled)


def test_canonical_form_separates_shapes():
    a = SideInfoBipartiteGraph(3, 3, ((2,), (3,), (1,)))
    b = SideInfoBipartiteGraph(3, 3, ((2, 3), (3,), (1,)))
    assert canonical_form(a) != canonical_form(b)


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
        assert sorted(tree_witness_edges(StructureWitness("regular_tree", seq, seq))) == edges
        # The edges follow the slots, whatever messages fill them.
        relabeled = tuple(10 * m for m in reversed(seq))
        w = StructureWitness("regular_tree", relabeled, relabeled)
        assert tree_witness_edges(w) == {
            (relabeled[u - 1], relabeled[m - 1]) for u, m in edges
        }
