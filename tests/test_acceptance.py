"""End-to-end acceptance gate.

Each test exercises one headline guarantee of the package on fixed fixtures,
exhaustive small families, or seeded random corpora, asserts the exact
expected integers, and enforces its own wall-clock budget. A one-line result
per criterion is echoed after the run (see conftest).
"""

import itertools
import random
import time

import pytest

from eicp.codes import (
    EmbeddedIndexCode,
    Transmission,
    message_support,
    parse_code,
    uncoded_scheme,
    verify_code,
)
from eicp.covers import biclique_cover, tree_cover
from eicp.errors import GenerationError, OracleExhaustedError
from eicp.gf import EchelonBasis, FieldOrder, GfMatrix, GfVector, basis_insert, rank
from eicp.minrank import build_candidates, minrank_bnb, minrank_oracle
from eicp.model import EicpInstance, gen_random, validate
from eicp.experiments import (
    biclique_instance,
    compare_schemes,
    experiment_fig5,
    experiment_theorem2,
    random_single_unicast,
    regular_tree_instance,
)

from conftest import all_fixture_instances, load_instance, random_corpus, record_criterion

# The nine distinct stacked matrices of the dense4 fixture, written as row
# tuples (r1..r4); the identity is the ninth.
DENSE4_STACKS = [
    ((1, 1, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
    ((1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
    ((1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
    ((1, 0, 1, 0), (1, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
    ((1, 0, 1, 0), (0, 1, 1, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
    ((1, 0, 1, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
    ((1, 0, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
    ((1, 0, 0, 0), (0, 1, 1, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
]
IDENTITY_STACK = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def test_criterion_01_first_example(mixed4, mixed4_code_text):
    start = time.monotonic()
    result = minrank_bnb(mixed4)
    assert result.kappa == 3
    shipped = parse_code(mixed4_code_text, mixed4)
    report = verify_code(shipped, mixed4)
    assert report.overall and report.length == 3
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    record_criterion(
        "test_criterion_01_first_example",
        f"criterion 01 PASS: kappa=3, shipped length-3 code verifies "
        f"({elapsed:.2f}s)")


def test_criterion_02_second_example(dense4):
    start = time.monotonic()
    sets = build_candidates(dense4)
    sizes = [len(c.vectors) for c in sets]
    assert sizes == [3, 3, 1, 1]
    stacks = {
        tuple(v.coords for v in choice)
        for choice in itertools.product(*[c.vectors for c in sets])
    }
    assert len(stacks) == 9
    non_identity = {frozenset(s) for s in stacks if s != IDENTITY_STACK}
    assert IDENTITY_STACK in stacks
    assert non_identity == {frozenset(s) for s in DENSE4_STACKS}
    solver = minrank_bnb(dense4)
    oracle = minrank_oracle(dense4)
    assert solver.kappa == 3 and oracle.kappa == 3
    from eicp.minrank import complexity_report
    report = complexity_report(dense4)
    assert report["old_matrices"] == 8192
    assert report["old_matrix_demand_pairs"] == 1048576
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    record_criterion(
        "test_criterion_02_second_example",
        f"criterion 02 PASS: sizes [3,3,1,1], 9 distinct stacks, 8 match the "
        f"frozen table, kappa=3 both routes, counts 8192/1048576 "
        f"({elapsed:.2f}s)")


def test_criterion_03_solver_equals_exhaustive_search():
    start = time.monotonic()
    corpus = random_corpus(200) + all_fixture_instances()
    assert len(corpus) >= 204
    mismatches = 0
    for inst in corpus:
        if minrank_bnb(inst).kappa != minrank_oracle(inst).kappa:
            mismatches += 1
    assert mismatches == 0
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    record_criterion(
        "test_criterion_03_solver_equals_exhaustive_search",
        f"criterion 03 PASS: {len(corpus)} instances, solver == exhaustive "
        f"search on all ({elapsed:.1f}s)")


def test_criterion_04_chain_family():
    start = time.monotonic()
    for n in (3, 4, 5, 6):
        inst = regular_tree_instance(n)
        assert minrank_bnb(inst).kappa == n - 1
        plan = tree_cover(inst)
        assert plan.counts["length"] == n - 1
        assert verify_code(plan.code, inst).overall
        with pytest.raises(OracleExhaustedError):
            minrank_oracle(inst, l_max=n - 2)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    record_criterion(
        "test_criterion_04_chain_family",
        f"criterion 04 PASS: chains n=3..6 all solve at n-1, cover matches, "
        f"n-2 certified infeasible ({elapsed:.1f}s)")


def test_criterion_05_mutual_knowledge_family():
    start = time.monotonic()
    for n in (3, 4, 5):
        for covered, expected in ((True, 1), (False, 2)):
            inst = biclique_instance(n, covered)
            members = tuple(range(1, n + 1))
            result = minrank_bnb(inst, users=members)
            assert result.kappa == expected
            report = verify_code(result.code, inst)
            assert report.support_violations == ()
            by_user = {u.user: u.decodable for u in report.per_user}
            assert all(by_user[i] for i in members)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    record_criterion(
        "test_criterion_05_mutual_knowledge_family",
        f"criterion 05 PASS: cliques n=3..5 need 1 symbol covered, 2 "
        f"uncovered, codes serve all members ({elapsed:.1f}s)")


def test_criterion_06_cover_count_identities():
    start = time.monotonic()
    plans = []
    instances = [regular_tree_instance(n) for n in (3, 4, 5, 6)]
    instances += [biclique_instance(n, c)
                  for n in (3, 4, 5) for c in (True, False)]
    instances += [load_instance(name) for name in
                  ("mixed4.json", "dense4.json", "seven_user.json")]
    for seed in range(80):
        try:
            instances.append(random_single_unicast(4, 2, 0.5, seed))
        except GenerationError:
            pass
    for inst in instances:
        for exact in (False, True):
            plans.append(tree_cover(inst, exact=exact))
            plans.append(biclique_cover(inst, exact=exact))
    failures = 0
    for plan in plans:
        c = plan.counts
        if plan.scheme == "tree":
            if c["length"] != c["messages"] - c["structures"] + c["single_edges"]:
                failures += 1
        else:
            k = c["structures"]
            if c["length"] != k + c["uncovered"] or not k <= c["length"] <= 2 * k:
                failures += 1
        if plan.code.length != c["length"]:
            failures += 1
    assert failures == 0
    assert len(plans) >= 150
    elapsed = time.monotonic() - start
    record_criterion(
        "test_criterion_06_cover_count_identities",
        f"criterion 06 PASS: {len(plans)} cover plans, zero identity "
        f"violations ({elapsed:.1f}s)")


def test_criterion_07_third_example(seven_user):
    start = time.monotonic()
    got = compare_schemes(seven_user)
    assert got == {"tree_length": 4, "biclique_length": 3, "kappa": 3}
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    record_criterion(
        "test_criterion_07_third_example",
        f"criterion 07 PASS: tree 4, clique 3, optimum 3 ({elapsed:.2f}s)")


def test_criterion_08_three_user_classification():
    start = time.monotonic()
    report = experiment_fig5()
    assert report.verdict == "pass"
    assert len(report.rows) == 8
    connected = [r for r in report.rows if r[3]]
    assert len(connected) == 2
    for row in report.rows:
        _, _, _, is_conn, options, min_kappa = row
        if is_conn:
            assert options > 0 and min_kappa < 3
        elif options > 0:
            assert min_kappa == 3
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    record_criterion(
        "test_criterion_08_three_user_classification",
        f"criterion 08 PASS: 8 classes, 2 connected, shorter-than-plain "
        f"codes exactly on the connected ones ({elapsed:.1f}s)")


def test_criterion_09_pruning_bound_scan():
    start = time.monotonic()
    report = experiment_theorem2()
    assert report.verdict == "pass"
    violation_col = report.columns.index("violations")
    corollary_col = report.columns.index("corollary_instances")
    assert all(row[violation_col] == 0 for row in report.rows)
    assert sum(row[corollary_col] for row in report.rows) > 0
    assert report.details["instances_checked"] > 0
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    record_criterion(
        "test_criterion_09_pruning_bound_scan",
        f"criterion 09 PASS: {report.details['instances_checked']} hypothesis "
        f"instances, zero bound violations ({elapsed:.1f}s)")


def test_criterion_10_singleton_holdings():
    start = time.monotonic()
    rng = random.Random(2024)
    for _ in range(50):
        n = rng.randint(3, 6)
        held = list(range(1, n + 1))
        rng.shuffle(held)
        demands = tuple(
            rng.choice([m for m in range(1, n + 1) if m != held[i]])
            for i in range(n)
        )
        inst = EicpInstance(FieldOrder(2), n, n,
                            side_info=tuple((h,) for h in held),
                            demands=demands)
        assert validate(inst) == []
        assert minrank_bnb(inst).kappa == len(set(demands))
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    record_criterion(
        "test_criterion_10_singleton_holdings",
        f"criterion 10 PASS: 50 singleton-holding instances, optimum equals "
        f"distinct demands every time ({elapsed:.1f}s)")


def _rank_agreement_trials(count):
    rng = random.Random(404)
    failures = 0
    for _ in range(count):
        q = rng.choice((2, 3, 5))
        n = rng.randint(1, 6)
        m = rng.randint(1, 6)
        rows = [tuple(rng.randrange(q) for _ in range(m)) for _ in range(n)]
        mat = GfMatrix.from_rows(q, rows, num_cols=m)
        basis = EchelonBasis.empty(q, m)
        for row in rows:
            basis, _ = basis_insert(basis, GfVector(q, row))
        if rank(mat) != basis.rank:
            failures += 1
    return failures


def _augmentation_pairs(count):
    rng = random.Random(505)
    pairs = 0
    failures = 0
    seed = 0
    while pairs < count:
        seed += 1
        try:
            inst = gen_random(2 + seed % 4, 2 + (seed // 3) % 4, 2, 0.4, seed)
        except GenerationError:
            continue
        i = rng.choice(inst.users)
        missing = [m for m in range(1, inst.num_messages + 1)
                   if m not in inst.knows(i) and m != inst.demand(i)]
        if not missing:
            continue
        side = list(inst.side_info)
        side[i - 1] = tuple(sorted(set(side[i - 1]) | {rng.choice(missing)}))
        bigger = EicpInstance(inst.q, inst.num_users, inst.num_messages,
                              side_info=tuple(side), demands=inst.demands)
        if validate(bigger):
            continue
        if minrank_bnb(bigger).kappa > minrank_bnb(inst).kappa:
            failures += 1
        pairs += 1
    return failures


def test_criterion_11_property_suites():
    start = time.monotonic()
    assert _rank_agreement_trials(1000) == 0

    rng = random.Random(606)
    invariance_checks = 0
    for _ in range(30):
        q = rng.choice((2, 3, 5))
        inst = None
        while inst is None:
            try:
                inst = gen_random(rng.randint(3, 5), rng.randint(3, 5), q,
                                  0.5, rng.randrange(10**6))
            except GenerationError:
                pass
        code = uncoded_scheme(inst)
        from eicp.codes import can_decode
        baseline = {i: can_decode(code, inst, i) for i in inst.users}

        scaled = EmbeddedIndexCode(inst, tuple(
            Transmission(t.user, t.coeffs.scale(rng.randrange(1, q)))
            for t in code.transmissions))
        order = list(code.transmissions)
        rng.shuffle(order)
        shuffled = EmbeddedIndexCode(inst, tuple(order))
        variants = [scaled, shuffled]
        if code.length >= 2:
            extra_vec = code.transmissions[0].coeffs + code.transmissions[1].coeffs
            if not extra_vec.is_zero():
                sender = next(
                    (j for j in inst.users
                     if message_support(extra_vec) <= inst.knows(j)),
                    code.transmissions[0].user)
                variants.append(EmbeddedIndexCode(
                    inst, code.transmissions + (Transmission(sender, extra_vec),)))
        for variant in variants:
            for i in inst.users:
                assert can_decode(variant, inst, i) == baseline[i]
                invariance_checks += 1

        # own-column independence: dropping a user's own transmissions
        # never changes its verdict on a support-clean code
        report = verify_code(code, inst)
        assert report.support_violations == ()
        for u in report.per_user:
            assert u.decodable == u.decodable_using_own

    assert invariance_checks >= 300
    assert _augmentation_pairs(100) == 0
    elapsed = time.monotonic() - start
    record_criterion(
        "test_criterion_11_property_suites",
        f"criterion 11 PASS: 1000 rank agreements, {invariance_checks} "
        f"decode-invariance checks, 100 growth pairs, zero failures "
        f"({elapsed:.1f}s)")
