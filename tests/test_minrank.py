"""Exact solver: candidate sets, two search stages, oracle cross-check."""

import itertools
import random
from types import SimpleNamespace

import pytest

import eicp.codes
import eicp.minrank
from eicp.codes import message_support, unit_vector, verify_code
from eicp.experiments import regular_tree_instance
from eicp.errors import (
    ConsistencyError,
    GenerationError,
    GuardExceededError,
    InvalidCodeError,
    OracleExhaustedError,
)
from eicp.gf import FieldOrder, GfMatrix, rank
from eicp.graphs import build_problem_graph
from eicp.minrank import (
    build_candidates,
    complexity_report,
    extract_code,
    graph_candidate_supports,
    minrank_bnb,
    minrank_oracle,
)
from eicp.minrank import _transmission_pool
from eicp.model import EicpInstance, gen_random, validate

from conftest import all_fixture_instances


def _tree(n):
    side = tuple((j + 1, j + 2) for j in range(1, n - 1)) + ((1, n), (1,))
    return EicpInstance(FieldOrder(2), n, n, side_info=side,
                        demands=tuple(range(1, n + 1)))


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
    # distinct demands, so the witness is the demand unit rows.
    cases = [
        (mixed4, ((1, 1, 0, 0), (0, 0, 0, 1), (1, 1, 0, 0), (0, 0, 1, 0)),
         [(2, (1, 1, 0, 0)), (3, (0, 0, 0, 1)), (2, (0, 0, 1, 0))],
         {"nodes_explored": 13, "candidates_total": 7, "product_size": 8,
          "incumbent_initial": 4}),
        (gen_random(4, 4, 2, 0.5, 0),
         ((1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0), (0, 1, 0, 0)),
         [(3, (1, 0, 0, 0)), (1, (0, 0, 1, 0)), (2, (0, 1, 0, 0))],
         {"nodes_explored": 7, "candidates_total": 7, "product_size": 8,
          "incumbent_initial": 3}),
    ]
    for inst, rows, transmissions, stats in cases:
        r = minrank_bnb(inst)
        assert r.kappa == 3
        assert r.users == (1, 2, 3, 4)
        assert r.witness.rows == rows
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
    assert r.witness.num_rows == 2


def test_bnb_node_limit_guard(dense4):
    with pytest.raises(GuardExceededError, match="raise EICP_GUARD_NODES"):
        minrank_bnb(dense4, node_limit=2)


def test_bnb_env_node_limit(monkeypatch, dense4):
    monkeypatch.setenv("EICP_GUARD_NODES", "2")
    with pytest.raises(GuardExceededError):
        minrank_bnb(dense4)
    monkeypatch.setenv("EICP_GUARD_NODES", "not a number")
    with pytest.raises(GuardExceededError, match="integer"):
        minrank_bnb(dense4)
    monkeypatch.delenv("EICP_GUARD_NODES")
    assert minrank_bnb(dense4).kappa == 3


def test_row_stage_matches_product_enumeration():
    # stage one equals the unpruned minimum over all row assignments
    for inst in _small_random_instances(25, seed=100):
        sets = build_candidates(inst)
        product = 1
        for cs in sets:
            product *= len(cs.vectors)
        if product > 20000:
            continue
        best = min(
            rank(GfMatrix.from_rows(
                inst.q, [v.coords for v in choice],
                num_cols=inst.num_messages))
            for choice in itertools.product(*[cs.vectors for cs in sets])
        )
        assert minrank_bnb(inst).stats["row_rank_bound"] == best


def test_bnb_matches_oracle_on_random_batch():
    for inst in _small_random_instances(40, seed=7):
        r = minrank_bnb(inst)
        o = minrank_oracle(inst)
        assert r.kappa == o.kappa
        assert verify_code(r.code, inst).overall
        assert verify_code(o.code, inst).overall
        assert r.kappa <= len(set(inst.demands))


def test_two_stage_improvement_on_chain():
    r = minrank_bnb(_tree(4))
    assert r.stats["row_rank_bound"] == 4
    assert r.kappa == 3
    assert r.stats["column_nodes_explored"] > 0
    assert r.code.length == 3


# kappa, witness rows, transmissions and stats recorded from the search on
# the reference GF kernel; the packed kernel must replay the same search.
PINNED_SEARCHES = [
    # q = 2 gap: stage two beats the row rank 3.
    (gen_random(6, 6, 2, 0.5, 1), None, 2,
     ((1, 1, 0, 0, 1, 0), (1, 0, 0, 0, 0, 1), (0, 1, 0, 0, 1, 1),
      (0, 1, 0, 0, 1, 1), (1, 1, 0, 0, 1, 0), (1, 0, 0, 0, 0, 1)),
     [(1, (1, 0, 0, 0, 0, 1)), (6, (1, 1, 0, 0, 1, 0))],
     {"nodes_explored": 666, "candidates_total": 70,
      "candidates_per_user": {1: 12, 2: 8, 3: 5, 4: 5, 5: 20, 6: 20},
      "product_size": 960000, "incumbent_initial": 4, "row_rank_bound": 3,
      "column_nodes_explored": 765, "column_pool_size": 51}),
    # The same instance with a users subset.
    (gen_random(6, 6, 2, 0.5, 1), (1, 2, 3, 5), 2,
     ((1, 1, 0, 0, 1, 0), (1, 0, 0, 0, 0, 1), (0, 1, 0, 0, 1, 1), (1, 1, 0, 0, 1, 0)),
     [(1, (1, 0, 0, 0, 0, 1)), (6, (1, 1, 0, 0, 1, 0))],
     {"nodes_explored": 905, "candidates_total": 45,
      "candidates_per_user": {1: 12, 2: 8, 3: 5, 5: 20},
      "product_size": 9600, "incumbent_initial": 4, "row_rank_bound": 3,
      "column_nodes_explored": 765, "column_pool_size": 51}),
    # q = 3 gap.
    (gen_random(5, 5, 3, 0.7, 5), None, 2,
     ((2, 0, 1, 0, 0), (1, 0, 2, 0, 0), (1, 0, 2, 0, 0), (1, 0, 0, 0, 1), (1, 0, 0, 0, 1)),
     [(2, (0, 0, 1, 0, 1)), (4, (1, 0, 2, 0, 0))],
     {"nodes_explored": 4485, "candidates_total": 75,
      "candidates_per_user": {1: 3, 2: 9, 3: 27, 4: 27, 5: 9},
      "product_size": 177147, "incumbent_initial": 3, "row_rank_bound": 3,
      "column_nodes_explored": 567, "column_pool_size": 67}),
    # q = 5, stage one stands after 820 column nodes.
    (gen_random(4, 4, 5, 0.5, 3), None, 3,
     ((0, 1, 1, 0), (0, 0, 0, 1), (0, 1, 1, 0), (1, 0, 0, 0)),
     [(2, (0, 1, 1, 0)), (3, (0, 0, 0, 1)), (1, (1, 0, 0, 0))],
     {"nodes_explored": 1205, "candidates_total": 48,
      "candidates_per_user": {1: 9, 2: 5, 3: 9, 4: 25},
      "product_size": 10125, "incumbent_initial": 4, "row_rank_bound": 3,
      "column_nodes_explored": 820, "column_pool_size": 40}),
    # q = 5 gap.
    (regular_tree_instance(4, 5), None, 3,
     ((1, 0, 1, 0), (0, 1, 0, 0), (1, 0, 1, 0), (4, 0, 0, 1)),
     [(1, (0, 1, 0, 0)), (2, (0, 0, 1, 1)), (3, (1, 0, 0, 4))],
     {"nodes_explored": 156, "candidates_total": 16,
      "candidates_per_user": {1: 1, 2: 5, 3: 5, 4: 5},
      "product_size": 125, "incumbent_initial": 4, "row_rank_bound": 4,
      "column_nodes_explored": 355, "column_pool_size": 16}),
]


@pytest.mark.parametrize("inst, users, kappa, rows, transmissions, stats", PINNED_SEARCHES)
def test_bnb_search_pinned(inst, users, kappa, rows, transmissions, stats):
    r = minrank_bnb(inst, users=users)
    assert r.kappa == kappa
    assert r.witness.rows == rows
    assert [(t.user, t.coeffs.coords) for t in r.code.transmissions] == transmissions
    assert r.stats == stats


@pytest.mark.parametrize("inst", [regular_tree_instance(7), regular_tree_instance(5, 5)])
def test_search_loops_stay_off_the_reference_kernel(inst, monkeypatch):
    # Only the code extraction and the checker may use the reference kernel:
    # verify_code decodes each user twice from at most kappa <= n columns plus
    # its side-info units, so n users and m messages bound the calls whatever
    # the number of search nodes.
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
    assert r.stats["column_nodes_explored"] >= 2000
    assert 0 < calls["basis_insert"] <= 2 * n * (n + m)
    assert 0 < calls["in_span"] <= 2 * n


def test_witness_rows_decode_for_their_users():
    for inst in all_fixture_instances() + [_tree(4), _tree(5)]:
        r = minrank_bnb(inst)
        for user, row in zip(r.users, r.witness.row_vectors()):
            d = inst.demand(user)
            assert row.coords[d - 1] == 1
            assert message_support(row) <= inst.knows(user) | {d}
        assert r.witness.num_rows == len(r.users)


def test_oracle_certifies_lower_bound(mixed4):
    with pytest.raises(OracleExhaustedError) as e:
        minrank_oracle(mixed4, l_max=2)
    assert e.value.l_max == 2
    assert e.value.exhausted_length == 3


def test_oracle_budget_guard(mixed4):
    with pytest.raises(GuardExceededError, match="subsets"):
        minrank_oracle(mixed4, budget=3)


def test_transmission_pool_is_scalar_free():
    inst = gen_random(4, 4, 3, 0.6, 2)
    pool = _transmission_pool(inst)
    for (v, sender) in pool:
        assert not v.is_zero()
        assert message_support(v) <= inst.knows(sender)
        holders = [j for j in inst.users
                   if message_support(v) <= inst.knows(j)]
        assert sender == min(holders)
    for (a, _), (b, _) in itertools.combinations(pool, 2):
        scaled = {tuple((c * s) % 3 for c in a.coords) for s in (1, 2)}
        assert tuple(b.coords) not in scaled


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


def test_checker_rejection_raises_consistency_error(mixed4, dense4, monkeypatch):
    monkeypatch.setattr(eicp.minrank, "verify_code",
                        lambda code, inst: SimpleNamespace(overall=False))
    with pytest.raises(ConsistencyError, match="the oracle accepted a code the checker rejects"):
        minrank_oracle(mixed4)
    # Stage two improves row rank 4 to kappa 3 here, so the rejected code
    # comes from the branch and bound, and the error must say so.
    with pytest.raises(ConsistencyError, match="checker rejects") as info:
        minrank_bnb(gen_random(6, 6, 3, .5, 0))
    assert "stage two" in str(info.value) and "oracle" not in str(info.value)
    # A user subset is re-checked per user instead of by the full checker.
    monkeypatch.setattr(eicp.minrank, "decodable_from", lambda inst, cols, i: False)
    with pytest.raises(ConsistencyError, match="checker rejects"):
        minrank_oracle(dense4, users=(2, 3))


def test_graph_supports_match_candidates():
    for inst in _small_random_instances(30, seed=55):
        pg = build_problem_graph(inst)
        sets = build_candidates(inst)
        for cs in sets:
            expected = {message_support(v) for v in cs.vectors}
            assert graph_candidate_supports(pg, cs.user) == expected


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
    witness = GfMatrix.from_rows(2, [(1, 1, 0, 0), (0, 0, 0, 1),
                                     (1, 1, 0, 0), (0, 0, 1, 0)], num_cols=4)
    code = extract_code(mixed4, witness, (1, 2, 3, 4))
    assert [(t.user, t.coeffs.coords) for t in code.transmissions] == [
        (2, (1, 1, 0, 0)), (3, (0, 0, 0, 1)), (2, (0, 0, 1, 0))]


def test_extract_code_rejects_untransmittable_row(mixed4):
    # row 2's support {1, 2, 3} is held only by its own user
    witness = GfMatrix.from_rows(2, [(1, 1, 0, 0), (1, 1, 1, 0),
                                     (1, 0, 0, 0), (0, 0, 1, 0)], num_cols=4)
    with pytest.raises(InvalidCodeError, match="no other user can transmit"):
        extract_code(mixed4, witness, (1, 2, 3, 4))


@pytest.mark.filterwarnings("ignore::eicp.model.MessageCountWarning")
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
