"""Exact solver: candidate sets, two search stages, oracle cross-check."""

import gc
import hashlib
import itertools
import math
import random

import pytest

import eicp.codes
import eicp.minrank
from eicp.codes import (
    Transmission,
    checked_code,
    decodable_from,
    message_support,
    side_info_basis,
    unit_vector,
    verify_code,
)
from eicp.covers import biclique_cover, tree_cover
from eicp.experiments import random_single_unicast, regular_tree_instance
from eicp.errors import (
    ConsistencyError,
    GenerationError,
    GuardExceededError,
    InvalidCodeError,
    OracleExhaustedError,
)
from eicp.gf import (
    EchelonBasis, FieldOrder, GfVector, basis_insert, in_span, packed_space, rank, reduce,
)
from eicp.graphs import REGULAR_TREE, build_problem_graph
from eicp.minrank import (
    ACYCLIC_EXACT_USERS_LIMIT,
    ACYCLIC_SETS_KEPT,
    acyclic_sets,
    build_candidates,
    complexity_report,
    extract_code,
    graph_candidate_supports,
    minrank_bnb,
    minrank_oracle,
)
from eicp.minrank import _Budget, _column_search, _greedy_acyclic_set, _transmission_pool
from eicp.model import EicpInstance, gen_random, validate

from conftest import all_fixture_instances, random_corpus


def _small_random_instances(count, seed=0, max_side=5):
    out = []
    s = seed
    while len(out) < count:
        n = 2 + s % 4
        m = 2 + (s // 4) % 4
        density = (0.3, 0.5, 0.7)[s % 3]
        try:
            inst = gen_random(n, m, 2, density, s)
        except Exception:
            s += 1
            continue
        out.append(inst)
        s += 1
    return out


def test_candidate_sizes(mixed4, dense4):
    mixed_sizes = [len(c.vectors) for c in build_candidates(mixed4)]
    assert mixed_sizes == [2, 2, 2, 1]
    assert sum(mixed_sizes) == 7
    dense_sizes = [len(c.vectors) for c in build_candidates(dense4)]
    assert dense_sizes == [3, 3, 1, 1]


def test_candidate_rows_are_demand_plus_side(mixed4):
    for cs in build_candidates(mixed4):
        d = mixed4.demand(cs.user)
        allowed = mixed4.knows(cs.user) | {d}
        for v in cs.vectors:
            assert v.coords[d - 1] == 1
            assert message_support(v) <= allowed
            supp = message_support(v)
            assert any(
                j != cs.user and supp <= mixed4.knows(j)
                for j in mixed4.users
            )


def test_candidates_empty_side_info():
    inst = EicpInstance(FieldOrder(2), 3, 3,
                        side_info=((), (1, 3), (1, 2)),
                        demands=(1, 2, 3))
    cs = build_candidates(inst, users=(1,))[0]
    assert cs.vectors == (unit_vector(2, 3, 1),)


def test_bnb_example_artifacts(mixed4):
    # mixed4: stage one beats the four distinct demands and records its
    # witness on the way. gen_random(4, 4, 2, .5, 0): nothing beats the three
    # distinct demands, so the witness is the demand unit rows; no user
    # demands message 4, so each user keeps only its demand's unit row.
    cases = [
        (mixed4, ((1, 1, 0, 0), (0, 0, 0, 1), (1, 1, 0, 0), (0, 0, 1, 0)),
         [(2, (1, 1, 0, 0)), (3, (0, 0, 0, 1)), (2, (0, 0, 1, 0))],
         {"nodes_explored": 8, "candidates_total": 7, "product_size": 8,
          "incumbent_initial": 4, "lower_bound": 2, "messages_projected": 0}),
        (gen_random(4, 4, 2, 0.5, 0),
         ((1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0), (0, 1, 0, 0)),
         [(3, (1, 0, 0, 0)), (1, (0, 0, 1, 0)), (2, (0, 1, 0, 0))],
         {"nodes_explored": 1, "candidates_total": 4, "product_size": 1,
          "incumbent_initial": 3, "lower_bound": 2, "messages_projected": 1}),
    ]
    for inst, rows, transmissions, stats in cases:
        r = minrank_bnb(inst)
        assert r.kappa == 3
        assert r.users == (1, 2, 3, 4)
        assert tuple(v.coords for v in r.witness) == rows
        assert [(t.user, t.coeffs.coords) for t in r.code.transmissions] == transmissions
        assert {k: r.stats[k] for k in stats} == stats
        assert r.stats["row_rank_bound"] == 3
        assert verify_code(r.code, inst).overall


def test_bnb_deterministic(mixed4, dense4):
    for inst in (mixed4, dense4):
        a = minrank_bnb(inst)
        b = minrank_bnb(inst)
        assert a.kappa == b.kappa
        assert a.witness == b.witness
        assert a.code == b.code
        assert a.stats == b.stats


def test_bnb_user_subset(dense4):
    r = minrank_bnb(dense4, users=(2, 3))
    assert r.users == (2, 3)
    assert r.kappa == 2
    assert len(r.witness) == 2


def test_bnb_node_limit_guard(dense4):
    with pytest.raises(GuardExceededError,
                       match=r"more than 2 nodes; raise node_limit \(--node-limit\) to"):
        minrank_bnb(dense4, node_limit=2)


@pytest.mark.parametrize("limit, message", [
    (2.5, "node limit must be an integer, got 2.5"),
    (True, "node limit must be an integer, got True"),
    ("5", "node limit must be an integer, got '5'"),
    (0, "node limit must be at least 1, got 0"),
    (-5, "node limit must be at least 1, got -5"),
], ids=["float", "bool", "str", "zero", "negative"])
def test_bnb_rejects_a_bad_node_limit(dense4, limit, message):
    with pytest.raises(ValueError) as info:
        minrank_bnb(dense4, node_limit=limit)
    assert str(info.value) == message


def test_row_stage_matches_product_enumeration():
    # Stage one equals the unpruned minimum over all row assignments. When it
    # stands, its witness is the first assignment reaching that minimum, with
    # users taken fewest candidates first and in ascending order on ties.
    # Users 1 and 2 of `twins` share side information and demand, so their
    # candidate sets are identical.
    twins = EicpInstance(FieldOrder(2), 4, 3, side_info=((2, 3), (2, 3), (1, 3), (1, 2)),
                         demands=(1, 1, 2, 3))
    odd_q = [gen_random(n, n, 3, d, s)
             for n in (3, 4, 5) for d in (0.3, 0.5, 0.7) for s in range(4)]
    improved = 0
    for inst in _small_random_instances(25, seed=100) + odd_q + [twins]:
        order = sorted(build_candidates(inst), key=lambda cs: len(cs.vectors))
        if math.prod(len(cs.vectors) for cs in order) > 7000:
            continue
        assignments = list(itertools.product(*[cs.vectors for cs in order]))
        ranks = [rank(choice) for choice in assignments]
        best = min(ranks)
        r = minrank_bnb(inst)
        assert r.stats["row_rank_bound"] == best
        if r.kappa < best:
            continue
        first = dict(zip((cs.user for cs in order), assignments[ranks.index(best)]))
        assert r.witness == tuple(first[i] for i in r.users)
        improved += best < r.stats["incumbent_initial"]
    assert improved >= 10
    r = minrank_bnb(twins)
    assert (r.kappa, r.stats["row_rank_bound"], r.stats["incumbent_initial"]) == (2, 2, 3)


def test_stage_one_witness_is_first_in_its_span():
    # Where stage one stands, each witness row is its user's first candidate
    # inside the span of the witness rows, checked on the reference kernel.
    # The candidates are read off the full pool: a row in the span of rows
    # with zeros on the undemanded messages has zeros there too, so it is a
    # candidate of the projected pool the solver searched. 12 of the 41
    # solves have a projected product above what the enumeration test above
    # reaches.
    instances = _seeded_corpus(2, range(6, 10), 3) + _seeded_corpus(3, (5, 6), 3)
    instances += [regular_tree_instance(n, q) for q in (2, 3) for n in range(4, 9)]
    stands = beyond_enumeration = 0
    for inst in instances:
        r = minrank_bnb(inst)
        if r.kappa < r.stats["row_rank_bound"]:
            continue
        stands += 1
        beyond_enumeration += r.stats["product_size"] > 7000
        span = EchelonBasis.empty(inst.q, inst.num_messages)
        for row in r.witness:
            span = basis_insert(span, row)[0]
        for cs, row in zip(build_candidates(inst, r.users), r.witness):
            assert next(v for v in cs.vectors if in_span(span, v)) == row
    assert (stands, beyond_enumeration) == (41, 12)


def test_stage_one_solves_its_former_guard_trips():
    # Both q = 3 draws tripped the default rank-search guard before stage one
    # cut dominated siblings, and gen_random(12, 12, 2, .4, 2) took 861 k
    # stage-one nodes.
    for seed in (0, 2):
        r = minrank_bnb(random_single_unicast(7, 3, 0.7, seed))
        assert r.kappa == r.stats["lower_bound"] == 3
    r = minrank_bnb(gen_random(12, 12, 2, 0.4, 2))
    assert r.kappa == 7
    assert r.stats["nodes_explored"] < 100_000


@pytest.mark.parametrize("args, kappa, pool", [
    ((8, 8, 2, 0.5, 3), 6, 24),
    ((6, 6, 5, 0.5, 4), 4, 161),
], ids=["gr(8,8,2,.5,3)", "gr(6,6,5,.5,4)"])
def test_projection_solves_former_frontier_rows(args, kappa, pool):
    # On the full pools, of 93 and 806 columns, stage two took 713 k and
    # 412 k nodes to refute kappa - 1 = LB. Over the demanded messages it
    # takes 3.7 k and 12.8 k. The oracle cannot reach the second row.
    inst = gen_random(*args)
    r = minrank_bnb(inst, node_limit=20_000)
    assert r.kappa == r.stats["row_rank_bound"] == r.stats["lower_bound"] + 1 == kappa
    assert r.stats["messages_projected"] > 0
    assert r.stats["column_pool_size"] == pool
    assert verify_code(r.code, inst).overall


def test_bnb_matches_oracle_on_random_batch():
    for inst in _small_random_instances(40, seed=7):
        r = minrank_bnb(inst)
        o = minrank_oracle(inst)
        assert r.kappa == o.kappa
        assert verify_code(r.code, inst).overall
        assert verify_code(o.code, inst).overall
        assert r.kappa <= len(set(inst.demands))


def test_projected_solves_match_the_oracle_on_the_full_pool():
    # gen_random(n, n + e, ...) leaves messages undemanded, more of them in a
    # users-subset solve, so the branch and bound searches a projected pool
    # while the oracle searches the full one on the original instance.
    draws = [(q, n, e, d, s)
             for q, sizes, seeds in ((2, (3, 4, 5), 3), (3, (3, 4), 3), (5, (3,), 6))
             for n in sizes for e in (0, 1, 2) for d in (0.3, 0.5, 0.7) for s in range(seeds)]
    projected = shrunk = 0
    for q, n, e, d, s in draws:
        inst = gen_random(n, n + e, q, d, s)
        full_pool = len(_transmission_pool(inst, set(inst.messages)))
        for users in (None, inst.users[::2]):
            r = minrank_bnb(inst, users=users)
            o = minrank_oracle(inst, users=users)
            assert r.kappa == o.kappa, (q, n, e, d, s, users)
            report = verify_code(r.code, inst)
            assert not report.support_violations
            assert all(u.decodable for u in report.per_user if u.user in r.users)
            assert o.stats["pool_size"] == full_pool
            assert r.stats["column_pool_size"] <= full_pool
            projected += r.stats["messages_projected"] > 0
            shrunk += 0 < r.stats["column_pool_size"] < full_pool
    assert (len(draws), projected, shrunk) == (189, 358, 153)


def _twinned(inst, user):
    """`inst` plus one more user with the side information and demand of `user`.

    The twin decodes what `user` decodes and can send what `user` sends, so
    kappa, LB, the row rank and the pool stay; but two users share a demand,
    so the instance is not single unicast and the tree cover is not
    consulted.
    """
    return EicpInstance(inst.q, inst.num_users + 1, inst.num_messages,
                        inst.side_info + (inst.side_info[user - 1],),
                        inst.demands + (inst.demand(user),))


def test_two_stage_improvement_on_chain():
    # On the chain itself the tree cover closes the gap; with a twin user
    # stage two has to find the 3-column code.
    r = minrank_bnb(_twinned(regular_tree_instance(4), 1))
    assert r.stats["row_rank_bound"] == 4
    assert r.kappa == 3
    assert r.stats["column_nodes_explored"] > 0
    assert r.code.length == 3


def test_code_search_guard_trips_where_the_cover_does_not_close():
    # Stage one takes one node on both; the twinned chain's stage two takes 23.
    with pytest.raises(GuardExceededError, match=r"^code search visited more than 3 nodes"):
        minrank_bnb(_twinned(regular_tree_instance(4), 1), node_limit=3)
    r = minrank_bnb(regular_tree_instance(4), node_limit=3)
    assert (r.kappa, r.stats["column_nodes_explored"], r.stats["code_source"]) == (
        3, 0, "tree cover")


def _cover_bound_corpus():
    """The path patterns at n = 3-7 over q = 2, 3 and 5, then 18 single-unicast draws."""
    return ([regular_tree_instance(n, q) for q in (2, 3, 5) for n in range(3, 8)]
            + [random_single_unicast(n, 2, d, s)
               for n in (4, 5, 6) for d in (0.3, 0.5, 0.7) for s in range(2)])


def test_tree_cover_bound_matches_the_oracle():
    # The cover's code stands exactly when it is optimal and shorter than the
    # row rank: then stage two searches below it and finds nothing. On
    # regular_tree_instance(7, 5) the oracle examines 728 k subsets (under
    # 1 s, its verdicts kept per basis state for the call), and LB certifies
    # that solve too: the MAIS bound below and the checked code above.
    covered = 0
    for inst in _cover_bound_corpus():
        r = minrank_bnb(inst)
        if inst.q == 5 and inst.num_users == 7:
            assert r.kappa == r.stats["lower_bound"]
        assert r.kappa == minrank_oracle(inst).kappa
        assert verify_code(r.code, inst).overall
        length = tree_cover(inst).code.length
        by_cover = length == r.kappa < r.stats["row_rank_bound"]
        assert (r.stats["code_source"] == "tree cover") == by_cover
        covered += by_cover
    assert covered == 12


def test_covers_beat_the_row_rank_only_through_long_path_patterns():
    # Every user decodes from one transmission of a bi-clique plan, a
    # transmittable row of its own, so those rows stack to rank at most the
    # plan's length: the row rank never exceeds it. In a tree plan the same
    # holds outside path patterns of four or more messages, whose users can
    # take their unit rows, so the row rank is at most the length plus the
    # number of such patterns (minrank_bnb skips the cover on that count).
    long_patterns = 0
    for inst in _cover_bound_corpus():
        row_rank = minrank_bnb(inst).stats["row_rank_bound"]
        assert biclique_cover(inst).code.length >= row_rank
        tree = tree_cover(inst)
        long = sum(w.kind == REGULAR_TREE and w.size >= 4 for w in tree.structures)
        assert tree.code.length + long >= row_rank
        long_patterns += long
    assert long_patterns == 12


# Odd-q solves where stage two beats the row rank, as (instance, users);
# the users subsets are every other user, from the first or the second.
# The regular trees carry a twin user, so the tree cover does not close them.
ODD_Q_GAP_SOLVES = [
    (gen_random(5, 5, 3, 0.7, 5), None),
    (gen_random(6, 6, 3, 0.3, 1), slice(1, None, 2)),
    (gen_random(6, 6, 3, 0.7, 2), None),
    (gen_random(6, 6, 3, 0.7, 2), slice(None, None, 2)),
    (gen_random(6, 6, 3, 0.3, 9), slice(None, None, 2)),
    (random_single_unicast(6, 3, 0.3, 4), slice(None, None, 2)),
    (_twinned(regular_tree_instance(4, 3), 1), None),
    (_twinned(regular_tree_instance(5, 3), 1), None),
    (gen_random(5, 5, 5, 0.7, 5), None),
    (gen_random(6, 6, 5, 0.3, 9), slice(None, None, 2)),
    (random_single_unicast(6, 5, 0.3, 4), slice(None, None, 2)),
    (_twinned(regular_tree_instance(4, 5), 1), None),
    (_twinned(regular_tree_instance(5, 5), 1), None),
]


def test_odd_q_stage_two_matches_oracle():
    gaps = 0
    for inst, part in ODD_Q_GAP_SOLVES:
        users = None if part is None else inst.users[part]
        r = minrank_bnb(inst, users=users)
        assert r.kappa == minrank_oracle(inst, users=users).kappa
        report = verify_code(r.code, inst)
        assert not report.support_violations
        assert all(u.decodable for u in report.per_user if u.user in r.users)
        gaps += r.kappa < r.stats["row_rank_bound"]
    assert gaps >= 8


def test_stage_two_exhausts_a_q5_pool_within_100k_nodes():
    # LB = 3 is one short of the row rank 4, which equals kappa: stage two
    # must rule out every 3-column span of the 161-column pool. A walk over
    # every basis of each span needs 360 k nodes; one over each span once
    # needs about 53 k. Every message is demanded, so the pool is the full one.
    inst = random_single_unicast(5, 5, 0.5, 3)
    r = minrank_bnb(inst, node_limit=100_000)
    assert r.stats["messages_projected"] == 0
    assert (r.kappa, r.stats["lower_bound"], r.stats["column_pool_size"]) == (4, 3, 161)
    assert verify_code(r.code, inst).overall


# kappa, witness rows and transmissions recorded from the search on the
# reference GF kernel; the packed kernel must replay the same answers. Stage
# two returns the first minimal serving subset in search order. The node
# counts are those of the search that visits each span once, over the pool
# of the demanded messages: the three gen_random solves leave two undemanded.
PINNED_SEARCHES = [
    # q = 2 gap: stage two beats the row rank 3.
    (gen_random(6, 6, 2, 0.5, 1), None, 2,
     ((1, 1, 0, 0, 1, 0), (1, 0, 0, 0, 0, 1), (0, 1, 0, 0, 1, 1),
      (0, 1, 0, 0, 1, 1), (1, 1, 0, 0, 1, 0), (1, 0, 0, 0, 0, 1)),
     [(1, (1, 0, 0, 0, 0, 1)), (6, (1, 1, 0, 0, 1, 0))],
     {"nodes_explored": 18, "candidates_total": 26,
      "candidates_per_user": {1: 6, 2: 2, 3: 3, 4: 3, 5: 6, 6: 6},
      "product_size": 3888, "incumbent_initial": 4, "lower_bound": 2,
      "row_rank_bound": 3, "column_nodes_explored": 16, "column_pool_size": 13,
      "messages_projected": 2, "code_source": "stage two"}),
    # The same instance with a users subset.
    (gen_random(6, 6, 2, 0.5, 1), (1, 2, 3, 5), 2,
     ((1, 1, 0, 0, 1, 0), (1, 0, 0, 0, 0, 1), (0, 1, 0, 0, 1, 1), (1, 1, 0, 0, 1, 0)),
     [(1, (1, 0, 0, 0, 0, 1)), (6, (1, 1, 0, 0, 1, 0))],
     {"nodes_explored": 14, "candidates_total": 17,
      "candidates_per_user": {1: 6, 2: 2, 3: 3, 5: 6},
      "product_size": 216, "incumbent_initial": 4, "lower_bound": 2,
      "row_rank_bound": 3, "column_nodes_explored": 16, "column_pool_size": 13,
      "messages_projected": 2, "code_source": "stage two"}),
    # q = 3 gap.
    (gen_random(5, 5, 3, 0.7, 5), None, 2,
     ((1, 0, 1, 0, 0), (1, 0, 1, 0, 0), (1, 0, 1, 0, 0), (2, 0, 0, 0, 1), (1, 0, 0, 0, 2)),
     [(2, (0, 0, 1, 0, 1)), (4, (1, 0, 1, 0, 0))],
     {"nodes_explored": 1, "candidates_total": 13,
      "candidates_per_user": {1: 3, 2: 3, 3: 3, 4: 3, 5: 1},
      "product_size": 81, "incumbent_initial": 3, "lower_bound": 2,
      "row_rank_bound": 3, "column_nodes_explored": 9, "column_pool_size": 7,
      "messages_projected": 2, "code_source": "stage two"}),
    # q = 5, stage one stands after 280 column nodes.
    (gen_random(4, 4, 5, 0.5, 3), None, 3,
     ((0, 1, 1, 0), (0, 0, 0, 1), (0, 1, 1, 0), (1, 0, 0, 0)),
     [(2, (0, 1, 1, 0)), (3, (0, 0, 0, 1)), (1, (1, 0, 0, 0))],
     {"nodes_explored": 10, "candidates_total": 48,
      "candidates_per_user": {1: 9, 2: 5, 3: 9, 4: 25},
      "product_size": 10125, "incumbent_initial": 4, "lower_bound": 2,
      "row_rank_bound": 3, "column_nodes_explored": 280, "column_pool_size": 40,
      "messages_projected": 0, "code_source": "stage one"}),
    # q = 5 gap: the chain with a twin of user 1, so the tree cover does not
    # close it. The code is the one pinned on the chain itself, and user 5's
    # row is user 1's.
    (_twinned(regular_tree_instance(4, 5), 1), None, 3,
     ((1, 0, 4, 0), (0, 1, 0, 0), (4, 0, 1, 0), (1, 0, 0, 1), (1, 0, 4, 0)),
     [(1, (0, 1, 0, 0)), (2, (0, 0, 1, 1)), (3, (1, 0, 0, 1))],
     {"nodes_explored": 1, "candidates_total": 17,
      "candidates_per_user": {1: 1, 2: 5, 3: 5, 4: 5, 5: 1},
      "product_size": 125, "incumbent_initial": 4, "lower_bound": 3,
      "row_rank_bound": 4, "column_nodes_explored": 68, "column_pool_size": 16,
      "messages_projected": 0, "code_source": "stage two"}),
]


@pytest.mark.parametrize("inst, users, kappa, rows, transmissions, stats", PINNED_SEARCHES)
def test_bnb_search_pinned(inst, users, kappa, rows, transmissions, stats):
    r = minrank_bnb(inst, users=users)
    assert r.kappa == kappa
    assert tuple(v.coords for v in r.witness) == rows
    assert [(t.user, t.coeffs.coords) for t in r.code.transmissions] == transmissions
    assert r.stats == stats


def _solver_outputs():
    """The answer of each solve, with and without a users subset; no node counts."""
    instances = all_fixture_instances()
    instances += [gen_random(n, n, q, d, s)
                  for q, sizes in ((2, range(4, 8)), (3, range(4, 6)), (5, range(3, 5)))
                  for n in sizes for d in (0.3, 0.5, 0.7) for s in range(3)]
    instances += [regular_tree_instance(n, q) for q in (2, 3) for n in range(3, 8)]
    for k, inst in enumerate(instances):
        for users in (None, tuple(inst.users)[::2]):
            r = minrank_bnb(inst, users=users)
            # The best-code record: a code between the two bounds, from stage
            # one exactly when nothing beat the row rank, and stage two
            # skipped only once a code reached LB.
            low, rank = r.stats["lower_bound"], r.stats["row_rank_bound"]
            assert low <= r.kappa <= rank
            assert (r.stats["code_source"] == "stage one") == (r.kappa == rank)
            assert r.stats["column_pool_size"] or r.kappa == low
            assert r.code.length == r.kappa
            sends = [(t.user, t.coeffs.coords) for t in r.code.transmissions]
            yield (f"{k} {r.kappa} {r.users} {tuple(v.coords for v in r.witness)} {sends} "
                   f"{r.stats['lower_bound']} {r.stats['row_rank_bound']}")


def test_solver_output_pinned():
    # Kappa, witness rows, code and the two bounds of 170 solves at q = 2, 3
    # and 5. Node counts are left out: pruning that keeps the answers keeps
    # this digest. Searching the pool of the demanded messages moved the
    # witness and code of two users-subset solves, never a kappa or a bound.
    # Taking the tree cover's code moved those of the eight full-user solves
    # of regular_tree_instance(4..7) at q = 2 and 3, again never a kappa or
    # a bound.
    outputs = list(_solver_outputs())
    assert len(outputs) == 170
    digest = hashlib.sha256("\n".join(outputs).encode()).hexdigest()
    assert digest == "0239c64f878c24ec4851be5ebf18633d68b408f93a3c3afcdaa16d870e2fc637"


@pytest.mark.parametrize("inst", [random_single_unicast(8, 2, 0.5, 9),
                                  _twinned(regular_tree_instance(6, 5), 1)])
def test_search_loops_stay_off_the_reference_kernel(inst, monkeypatch):
    # Only the code extraction and the checker may use the reference kernel:
    # codes.checked_code decodes each user once and decode_coeffs recovers
    # each witness row, each from at most kappa <= n columns plus the user's
    # side-info units, so n users and m messages bound the calls whatever
    # the number of search nodes. On both instances stage two beats the row
    # rank (kappa 5 < 6), so the witness rows come from decode_coeffs; on
    # the first the acyclic bound, 4, is below kappa too. The second is the
    # chain with a twin user, which the tree cover does not close. Both
    # demand every message, so the search runs on the full pool.
    calls = {"basis_insert": 0, "in_span": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for module in (eicp.minrank, eicp.codes):
        for name in calls:
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    r = minrank_bnb(inst)
    n, m = inst.num_users, inst.num_messages
    assert r.kappa < r.stats["row_rank_bound"]
    assert r.stats["messages_projected"] == 0
    assert r.stats["column_nodes_explored"] >= 2000
    assert 0 < calls["basis_insert"] <= 2 * n * (n + m)
    assert 0 < calls["in_span"] <= n


def test_witness_rows_decode_for_their_users():
    for inst in all_fixture_instances() + [regular_tree_instance(4), regular_tree_instance(5)]:
        r = minrank_bnb(inst)
        for user, row in zip(r.users, r.witness):
            d = inst.demand(user)
            assert row.coords[d - 1] == 1
            assert message_support(row) <= inst.knows(user) | {d}
        assert len(r.witness) == len(r.users)


def test_oracle_certifies_lower_bound(mixed4):
    with pytest.raises(OracleExhaustedError) as e:
        minrank_oracle(mixed4, l_max=2)
    assert e.value.l_max == 2


def test_oracle_budget_guard(mixed4):
    with pytest.raises(GuardExceededError, match="subsets"):
        minrank_oracle(mixed4, budget=3)


@pytest.mark.parametrize("limits,message", [
    ({"budget": True}, "oracle budget must be an integer, got True"),
    ({"budget": 2.5}, "oracle budget must be an integer, got 2.5"),
    ({"budget": "5"}, "oracle budget must be an integer, got '5'"),
    ({"budget": 0}, "oracle budget must be at least 1, got 0"),
    ({"budget": -1}, "oracle budget must be at least 1, got -1"),
    ({"l_max": True}, "l_max must be an integer, got True"),
    ({"l_max": 2.5}, "l_max must be an integer, got 2.5"),
], ids=["budget-bool", "budget-float", "budget-str", "budget-zero", "budget-negative",
        "l_max-bool", "l_max-float"])
def test_oracle_rejects_a_bad_limit(mixed4, limits, message):
    with pytest.raises(ValueError) as info:
        minrank_oracle(mixed4, **limits)
    assert str(info.value) == message


@pytest.mark.parametrize("solve", [minrank_bnb, minrank_oracle, acyclic_sets],
                         ids=["bnb", "oracle", "acyclic_sets"])
@pytest.mark.parametrize("users, message", [
    ((1.0,), "user must be an integer, got 1.0"),
    ((True,), "user must be an integer, got True"),
    ((2, "1"), "user must be an integer, got '1'"),
], ids=["float", "bool", "str"])
def test_a_non_integer_user_is_rejected(mixed4, solve, users, message):
    # 1.0 and True compare equal to user 1, so only the type check catches them.
    with pytest.raises(ValueError) as info:
        solve(mixed4, users=users)
    assert str(info.value) == message


def _oracle_instances():
    return (all_fixture_instances() + _seeded_corpus(2, range(3, 7), 2)
            + _seeded_corpus(3, range(3, 6), 2) + _seeded_corpus(5, range(3, 5), 2)
            + [regular_tree_instance(n, q) for q in (2, 3) for n in range(3, 7)])


def _oracle_failure(inst, **limits):
    try:
        minrank_oracle(inst, **limits)
    except (GuardExceededError, OracleExhaustedError) as e:
        return f"{type(e).__name__}: {e}"
    raise AssertionError(f"the oracle answered under {limits}")


def _oracle_outputs():
    """Each oracle solve, with and without a users subset, and on every
    seventh instance the budget and l_max edges around it."""
    for k, inst in enumerate(_oracle_instances()):
        for users in (None, inst.users[::2]):
            r = minrank_oracle(inst, users=users)
            sends = [(t.user, t.coeffs.coords) for t in r.code.transmissions]
            yield f"{k} {r.kappa} {r.users} {sends} {r.stats}"
            examined = r.stats["subsets_examined"]
            if k % 7 or users is not None or examined < 2:
                continue
            yield _oracle_failure(inst, budget=examined - 1)
            again = minrank_oracle(inst, budget=examined)
            yield f"{again.kappa} {again.code.transmissions == r.code.transmissions}"
            yield _oracle_failure(inst, l_max=r.kappa - 1)


def test_oracle_output_pinned():
    # Kappa, users, code and stats of 130 oracle solves at q = 2, 3 and 5,
    # plus the budget trip one subset short of each of ten answers, the
    # answer at exactly its budget and the exhaustion one length short.
    outputs = list(_oracle_outputs())
    assert len(outputs) == 130 + 3 * 10
    digest = hashlib.sha256("\n".join(outputs).encode()).hexdigest()
    assert digest == "9680727f1da40aef722a35df04569c5bf15a0e88207b605b87b639a56199f191"


def test_oracle_examines_every_subset_up_to_the_first_serving_one():
    # Counted without reading the walk: itertools.combinations lists the full
    # pool's subsets by length, codes.decodable_from judges each, and the
    # oracle examines exactly the subsets up to the first serving one and
    # sends exactly its columns.
    draws = 0
    for q, n, seeds in ((2, 5, range(6)), (2, 6, range(3)), (3, 4, range(4)),
                        (3, 5, range(2)), (5, 4, range(3))):
        for seed in seeds:
            try:
                inst = gen_random(n, n, q, (0.3, 0.5)[seed % 2], seed)
            except GenerationError:
                continue
            pool = [(GfVector(q, coords), j) for coords, j in _transmission_pool(
                inst, set(inst.messages))]
            for users in (None, inst.users[::2]):
                r = minrank_oracle(inst, users=users)
                subsets = (s for length in range(1, r.kappa + 1)
                           for s in itertools.combinations(pool, length))
                for position, subset in enumerate(subsets, 1):
                    if all(decodable_from(inst, [v for v, _j in subset], i) for i in r.users):
                        break
                else:
                    raise AssertionError(f"no subset of at most {r.kappa} columns serves")
                assert r.stats["subsets_examined"] == position
                assert [(t.user, t.coeffs) for t in r.code.transmissions] == [
                    (j, v) for v, j in subset]
                draws += 1
    assert draws == 36


def test_oracle_judges_each_projected_column_once_per_node(seven_user, monkeypatch):
    # A node judges each distinct projected column once per unserved user, so
    # basis_insert and in_span run well below once per examined subset.
    calls = {"basis_insert": 0, "in_span": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(eicp.minrank, name, counting(name, getattr(eicp.minrank, name)))
    examined = minrank_oracle(seven_user).stats["subsets_examined"]
    assert examined == 2744
    assert 0 < calls["in_span"] <= calls["basis_insert"] <= examined // 2


@pytest.mark.parametrize("q, n, seed, every, pinned", [
    (2, 6, 5, 1, (8204, 4237, 3893, 344)),
    (2, 6, 5, 2, (1004, 641, 620, 21)),
    (3, 6, 0, 1, (5937, 854, 747, 107)),
    (5, 5, 1, 1, (3415, 519, 500, 19)),
], ids=["q2", "q2-users", "q3", "q5"])
def test_oracle_judges_each_projected_column_once_per_state(q, n, seed, every, pinned,
                                                            monkeypatch):
    # A user's basis state meets each projected column once in the whole
    # call: basis_insert judges the pair, and in_span follows only where the
    # basis grew. A projected column is tagged with the side-info basis that
    # projected it, one per user, and a state is keyed by its basis's rows.
    # The last pin counts the columns that do not grow the basis: the memo's
    # self-loops, which test_searches_leave_no_cyclic_garbage runs too.
    owner, judged, counts = {}, [], {"in_span": 0, "self_loops": 0}

    def projecting(side, v):
        col = reduce(side, v)
        owner[id(col)] = (col, side)  # both kept alive, so their ids stay theirs
        return col

    def judging(basis, col):
        judged.append((id(owner[id(col)][1]), basis.rows, col.coords))
        grown, grew = basis_insert(basis, col)
        counts["self_loops"] += not grew
        return grown, grew

    def spanning(basis, v):
        counts["in_span"] += 1
        return in_span(basis, v)

    monkeypatch.setattr(eicp.minrank, "reduce", projecting)
    monkeypatch.setattr(eicp.minrank, "basis_insert", judging)
    monkeypatch.setattr(eicp.minrank, "in_span", spanning)
    inst = gen_random(n, n, q, 0.5, seed)
    r = minrank_oracle(inst, users=inst.users[::every])
    assert len(set(judged)) == len(judged)
    assert (r.stats["subsets_examined"], len(judged), counts["in_span"],
            counts["self_loops"]) == pinned


def test_projection_rule_matches_the_decoding_definition():
    # Both column searches rest on the projection identity of the minrank
    # module docstring: user i decodes from columns C iff its demand's unit
    # vector lies in the span of C projected off i's side information.
    # codes.decodable_from is the definition: C plus the side-info units.
    rng = random.Random(20)
    outcomes = []
    for q in (2, 3, 5):
        for seed in range(12):
            try:
                inst = gen_random(3 + seed % 3, 3 + seed % 4, q,
                                  (0.3, 0.5, 0.7)[seed % 3], seed)
            except GenerationError:
                continue
            pool = [GfVector(q, coords) for coords, _sender in _transmission_pool(
                inst, set(inst.messages))]
            for _ in range(8):
                cols = rng.sample(pool, rng.randint(0, min(4, len(pool))))
                for i in inst.users:
                    side = side_info_basis(inst, i)
                    basis = EchelonBasis.empty(q, inst.num_messages)
                    for c in cols:
                        basis, _ = basis_insert(basis, reduce(side, c))
                    projected = in_span(basis, unit_vector(q, inst.num_messages, inst.demand(i)))
                    assert projected == decodable_from(inst, cols, i)
                    outcomes.append(projected)
    assert len(outcomes) >= 500 and outcomes.count(True) >= 100 and outcomes.count(False) >= 100


def test_transmission_pool_is_scalar_free():
    inst = gen_random(4, 4, 3, 0.6, 2)
    pool = [(GfVector(3, coords), j) for coords, j in _transmission_pool(inst, set(inst.messages))]
    for (v, sender) in pool:
        assert not v.is_zero()
        assert message_support(v) <= inst.knows(sender)
        holders = [j for j in inst.users
                   if message_support(v) <= inst.knows(j)]
        assert sender == min(holders)
    for (a, _), (b, _) in itertools.combinations(pool, 2):
        scaled = {tuple((c * s) % 3 for c in a.coords) for s in (1, 2)}
        assert tuple(b.coords) not in scaled


def test_projected_pool_is_the_full_pool_on_the_kept_messages():
    # The pool over a message set is the full pool's columns supported on
    # it, each with the same smallest sender, in the same order.
    for inst in (gen_random(4, 4, 3, 0.6, 2), gen_random(5, 6, 2, 0.5, 1)):
        full = _transmission_pool(inst, set(inst.messages))
        for kept in ({1, 2}, {inst.demand(i) for i in inst.users}, {2, 3, 4}):
            expected = [(c, j) for c, j in full
                        if message_support(GfVector(inst.q, c)) <= kept]
            assert _transmission_pool(inst, kept) == expected


def test_candidates_equal_direct_enumeration():
    # Rows read off the transmission pool against the definition: e_d plus
    # every side-info combination whose support some other user holds.
    checked = 0
    for q in (2, 3, 5):
        for seed in range(12):
            try:
                inst = gen_random(3 + seed % 3, 3 + seed % 4, q,
                                  (0.3, 0.5, 0.7)[seed % 3], seed)
            except GenerationError:
                continue
            for users in (None, inst.users[::2]):
                sets = build_candidates(inst, users)
                assert [cs.user for cs in sets] == list(users or inst.users)
                for cs in sets:
                    i = cs.user
                    side = sorted(inst.knows(i))
                    expected = []
                    for combo in itertools.product(range(q), repeat=len(side)):
                        coords = [0] * inst.num_messages
                        coords[inst.demand(i) - 1] = 1
                        for c, k in zip(combo, side):
                            coords[k - 1] = c
                        supp = {k for k in inst.messages if coords[k - 1]}
                        if any(j != i and supp <= inst.knows(j) for j in inst.users):
                            expected.append(tuple(coords))
                    expected.sort(key=lambda c: (sum(1 for x in c if x), c))
                    assert [v.coords for v in cs.vectors] == expected
                    checked += 1
    assert checked >= 150


def test_solver_searches_the_rows_build_candidates_lists(monkeypatch):
    # Stage one's rows are read off the packed pool and scaled by the packed
    # kernel. Unpacked, each user's rows are build_candidates' rows over the
    # same (projected) pool, row for row, and so are the reference coords
    # they are carried with. The pool itself is ordered by (support size,
    # coords) with no direction twice.
    searched = []
    row_search = eicp.minrank._row_search

    def recording(order, space, *args):
        searched.append({user: ([c for c, _row in rows],
                                [tuple(row >> space.width * k & space.lane for k in range(space.dim))
                                 for _c, row in rows])
                         for user, rows in order})
        return row_search(order, space, *args)

    monkeypatch.setattr(eicp.minrank, "_row_search", recording)
    solves = projected = rows = scaled = 0
    for q in (2, 3, 5):
        for seed in range(12):
            try:
                inst = gen_random(3 + seed % 3, 3 + seed % 4, q, (0.3, 0.5, 0.7)[seed % 3], seed)
            except GenerationError:
                continue
            for users in (None, inst.users[::2]):
                r = minrank_bnb(inst, users=users)
                pool = _transmission_pool(inst, {inst.demand(i) for i in r.users})
                keys = [(len(message_support(GfVector(q, c))), c) for c, _sender in pool]
                assert keys == sorted(set(keys))
                expected = {cs.user: [v.coords for v in cs.vectors]
                            for cs in build_candidates(inst, r.users, pool)}
                assert searched.pop() == {u: (e, e) for u, e in expected.items()}
                assert r.stats["candidates_per_user"] == {u: len(e) for u, e in expected.items()}
                solves += 1
                projected += r.stats["messages_projected"] > 0
                rows += sum(map(len, expected.values()))
                directions = {c for c, _sender in pool}
                scaled += sum(c not in directions for e in expected.values() for c in e)
    assert not searched
    assert (solves, projected, rows, scaled) == (72, 66, 2119, 1068)


def test_checker_rejection_raises_consistency_error(mixed4, dense4, monkeypatch):
    monkeypatch.setattr(eicp.codes, "decodable_from", lambda inst, columns, user: False)
    with pytest.raises(ConsistencyError, match="the oracle accepted a code the checker rejects"):
        minrank_oracle(mixed4)
    # Stage two improves row rank 4 to kappa 3 here, so the rejected code
    # comes from the branch and bound, and the error must say so.
    with pytest.raises(ConsistencyError, match="checker rejects") as info:
        minrank_bnb(gen_random(6, 6, 3, .5, 0))
    assert "stage two" in str(info.value) and "oracle" not in str(info.value)
    # Stage one's extracted code passes the same check.
    with pytest.raises(ConsistencyError, match="stage one accepted a code the checker rejects"):
        minrank_bnb(mixed4)
    # A user subset is re-checked the same way.
    with pytest.raises(ConsistencyError, match="the oracle accepted a code the checker rejects"):
        minrank_oracle(dense4, users=(2, 3))


def test_graph_supports_match_candidates():
    # Over F_2 the candidate supports are the sets that hold the demand and
    # lie inside one of the largest supports the problem graph gives.
    for inst in _small_random_instances(30, seed=55):
        pg = build_problem_graph(inst)
        for cs in build_candidates(inst):
            d = inst.demand(cs.user)
            inside = {frozenset({d, *extra})
                      for top in graph_candidate_supports(pg, cs.user)
                      for r in range(len(top))
                      for extra in itertools.combinations(top - {d}, r)}
            assert {message_support(v) for v in cs.vectors} == inside


def test_complexity_report_numbers(mixed4, dense4):
    got = complexity_report(dense4)
    assert got["sum_side_info"] == 7
    assert got["sum_side_info_sq"] == 13
    assert got["old_matrices"] == 8192
    assert got["old_matrix_demand_pairs"] == 1048576
    assert got["old_rank_computations"] == 8192 + 1048576
    assert got["new_assignment_space"] == 128
    got = complexity_report(mixed4)
    assert got["old_matrices"] == 32768
    assert got["old_matrix_demand_pairs"] == 4194304
    assert got["old_rank_computations"] == 4227072
    assert got["new_assignment_space"] == 128


def test_extract_code_picks_smallest_sender(mixed4):
    witness = tuple(GfVector(2, c) for c in [(1, 1, 0, 0), (0, 0, 0, 1),
                                             (1, 1, 0, 0), (0, 0, 1, 0)])
    code = extract_code(mixed4, witness, (1, 2, 3, 4))
    assert [(t.user, t.coeffs.coords) for t in code.transmissions] == [
        (2, (1, 1, 0, 0)), (3, (0, 0, 0, 1)), (2, (0, 0, 1, 0))]


def test_extract_code_rejects_untransmittable_row(mixed4):
    # row 2's support {1, 2, 3} is held only by its own user
    witness = tuple(GfVector(2, c) for c in [(1, 1, 0, 0), (1, 1, 1, 0),
                                             (1, 0, 0, 0), (0, 0, 1, 0)])
    with pytest.raises(InvalidCodeError, match="no other user can transmit"):
        extract_code(mixed4, witness, (1, 2, 3, 4))


def test_kappa_monotone_in_side_information():
    # enlarging one user's side information never lengthens the optimum
    rng = random.Random(77)
    checked = 0
    for inst in _small_random_instances(150, seed=300):
        i = rng.choice(inst.users)
        missing = [m for m in range(1, inst.num_messages + 1)
                   if m not in inst.knows(i) and m != inst.demand(i)]
        if not missing:
            continue
        extra = rng.choice(missing)
        side = list(inst.side_info)
        side[i - 1] = tuple(sorted(set(side[i - 1]) | {extra}))
        bigger = EicpInstance(inst.q, inst.num_users, inst.num_messages,
                              side_info=tuple(side), demands=inst.demands)
        if len(set().union(*map(set, side))) < inst.num_messages:
            continue
        if validate(bigger):
            continue
        assert minrank_bnb(bigger).kappa <= minrank_bnb(inst).kappa
        checked += 1
    assert checked >= 20


# ---------- the acyclic-set lower bound ----------

def _has_cycle(inst, members):
    # Reachability by closure, independent of the sink peeling under test.
    reach = {u: {v for v in members if v != u and inst.demand(v) in inst.knows(u)}
             for u in members}
    for k in members:
        for u in members:
            if k in reach[u]:
                reach[u] |= reach[k]
    return any(u in reach[u] for u in members)


def _qualifies(inst, members):
    return (len({inst.demand(u) for u in members}) == len(members)
            and not _has_cycle(inst, members))


def _seeded_corpus(q, sizes, seeds):
    out = []
    for n in sizes:
        for density in (0.3, 0.5, 0.7):
            for seed in range(seeds):
                try:
                    out.append(gen_random(n, n, q, density, seed))
                except GenerationError:
                    continue
    return out


def _lower_bound_corpus():
    # The criterion-03 corpus plus seeded q = 3 and q = 5 instances.
    return (random_corpus(200) + all_fixture_instances()
            + _seeded_corpus(3, (3, 4), 12) + _seeded_corpus(5, (3, 4), 8))


def test_acyclic_sets_are_the_largest_qualifying_sets():
    checked = 0
    for inst in _lower_bound_corpus()[::3]:
        for users in (inst.users, inst.users[1::2] or inst.users):
            qualifying = [c for r in range(len(users), 0, -1)
                          for c in itertools.combinations(users, r) if _qualifies(inst, c)]
            size = len(qualifying[0])
            largest = sorted((c for c in qualifying if len(c) == size),
                             key=lambda c: sum(1 << users.index(u) for u in c))
            first_per_demands = {}
            for c in largest:
                first_per_demands.setdefault(frozenset(map(inst.demand, c)), c)
            kept = list(first_per_demands.values())[:ACYCLIC_SETS_KEPT]
            assert acyclic_sets(inst, users) == kept
            greedy = _greedy_acyclic_set(inst, users)
            assert _qualifies(inst, greedy) and len(greedy) <= size
            checked += 1
    assert checked >= 150


def test_lower_bound_never_exceeds_the_oracle():
    tight = checked = 0
    for inst in _lower_bound_corpus():
        for users in (None, inst.users[::2]):
            bound = minrank_bnb(inst, users=users).stats["lower_bound"]
            kappa = minrank_oracle(inst, users=users).kappa
            assert 1 <= bound <= kappa
            tight += bound == kappa
            checked += 1
    assert checked >= 700 and tight < checked


@pytest.mark.parametrize("n", [17, 20, 24])
def test_greedy_acyclic_set_above_the_exact_limit(n):
    for q, density, seed in itertools.product((2, 3), (0.2, 0.4, 0.6), range(3)):
        inst = gen_random(n, n, q, density, seed)
        users = inst.users[seed:]
        assert len(users) > ACYCLIC_EXACT_USERS_LIMIT
        sets = acyclic_sets(inst, users)
        assert len(sets) == 1 and set(sets[0]) <= set(users)
        assert _qualifies(inst, sets[0])


def test_greedy_bound_closes_a_solve_above_the_exact_limit():
    # 15 users, 8 distinct demands, and a greedy set of 8: the root bound
    # equals the uncoded length, so neither stage visits a node. A one-user
    # bound leaves stage one more than 100,000 nodes short of an answer.
    inst = gen_random(15, 15, 2, 0.15, 0)
    assert inst.num_users > ACYCLIC_EXACT_USERS_LIMIT
    r = minrank_bnb(inst, node_limit=1000)
    assert r.kappa == r.stats["lower_bound"] == 8
    assert r.stats["nodes_explored"] == r.stats["column_nodes_explored"] == 0
    assert verify_code(r.code, inst).overall


def test_unit_bound_gives_the_same_answers_with_no_fewer_nodes(monkeypatch):
    # With a bound of 1 nothing is pruned by it; the real bound may only cut
    # nodes, never change what either stage returns.
    cases = [(inst, users) for inst, users, *_ in PINNED_SEARCHES]
    cases += [(inst, users) for inst in _seeded_corpus(2, (5, 6), 4) + _seeded_corpus(3, (5,), 4)
              for users in (None, inst.users[1::2])]
    real = [minrank_bnb(inst, users=users) for inst, users in cases]
    monkeypatch.setattr(eicp.minrank, "acyclic_sets", lambda inst, users: [users[:1]])
    for (inst, users), r in zip(cases, real):
        unit = minrank_bnb(inst, users=users)
        assert unit.stats["lower_bound"] == 1
        assert (r.kappa, r.witness, r.code) == (unit.kappa, unit.witness, unit.code)
        assert r.stats["nodes_explored"] <= unit.stats["nodes_explored"]
        assert r.stats["column_nodes_explored"] <= unit.stats["column_nodes_explored"]


def test_searches_leave_no_cyclic_garbage(mixed4):
    # The self-recursive search closures (both stages' walks, the matching
    # behind random_single_unicast's fallback draws, the tree walk and the
    # exact cover's dynamic program) are dropped on every exit, a guard trip
    # included, and neither the oracle's walk nor its memo refers to anything
    # that refers back to it (a state is an int, so a column that does not
    # grow the basis maps it to itself without a cycle), so no solve, trip,
    # draw or cover waits for a full collection to be freed. The handlers
    # bind no name: an exception held in the test's own frame would be a
    # cycle of the test's making.
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for n in range(3, 8):
            for seed in range(3):
                minrank_bnb(gen_random(n, n, 2, 0.5, seed))
        for n in range(3, 6):
            for seed in range(3):
                minrank_oracle(gen_random(n, n, 2, 0.5, seed))
        # both meet columns that do not grow the basis: the memo's self-loops
        minrank_oracle(gen_random(6, 6, 3, 0.5, 0))
        inst = gen_random(6, 6, 2, 0.5, 5)
        minrank_oracle(inst, users=inst.users[::2])
        for seed in range(5):
            try:
                minrank_bnb(gen_random(7, 7, 2, 0.5, seed), node_limit=3)
            except GuardExceededError:
                pass
        for limits in ({"budget": 3}, {"l_max": 2}):
            try:
                minrank_oracle(mixed4, **limits)
            except (GuardExceededError, OracleExhaustedError):
                pass
        for n in (9, 10):
            for seed in range(4):
                random_single_unicast(n, 2, 0.7, seed)
        for n in (6, 8):
            for seed in range(2):
                inst = random_single_unicast(n, 2, 0.5, seed)
                for cover in (tree_cover, biclique_cover):
                    for exact in (False, True):
                        cover(inst, exact=exact)
        gc.collect()
        garbage = len(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert garbage == 0


def test_column_search_answer_does_not_depend_on_the_incumbent():
    # The tree cover may lower stage two's starting incumbent. That is safe
    # because, from any incumbent above kappa, stage two returns the first
    # minimal serving subset in search order; from kappa itself it finds
    # nothing. The highest incumbents let a subset serve everyone above the
    # leaf level, in the walk's interior, before the search closes on kappa.
    instances = [inst for q in (2, 3, 5) for inst in _seeded_corpus(q, (3, 4, 5), 2)]
    searches = 0
    for inst in instances:
        users = tuple(inst.users)
        demanded = {inst.demand(i) for i in users}
        pool = _transmission_pool(inst, demanded)
        space = packed_space(inst.q, inst.num_messages)
        columns = [space.pack(coords) for coords, _sender in pool]
        sets = acyclic_sets(inst, users)
        masks = [space.mask(inst.demand(u) - 1 for u in s) for s in sets]
        kappa = minrank_bnb(inst).kappa

        def search(incumbent):
            budget = _Budget(10 ** 6, "column search")
            found = _column_search(inst, users, columns, incumbent, space, masks, len(sets[0]),
                                   budget)
            return found and tuple(pool[k] for k in found)

        assert search(kappa) is None
        answers = {search(incumbent) for incumbent in range(kappa + 1, len(demanded) + 4)}
        searches += len(demanded) + 3 - kappa
        assert len(answers) == 1
        found = answers.pop()
        assert len(found) == kappa
        checked_code(inst, users, (Transmission(sender, GfVector(inst.q, coords))
                                   for coords, sender in found), "test")
    assert (len(instances), searches) == (54, 183)
