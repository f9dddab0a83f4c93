"""Experiment drivers: instance families and the three study reports."""

import hashlib
import itertools

import pytest

from eicp.graphs import (
    SideInfoBipartiteGraph,
    build_side_info_graph,
    canonical_form,
    is_connected,
)
from eicp.model import serialize_instance, validate
from eicp.experiments import (
    ExperimentReport,
    _canonical_family_reps,
    _family_valid,
    _mask_family_to_sets,
    biclique_instance,
    experiment_fig5,
    experiment_lemma_sweep,
    experiment_theorem2,
    random_single_unicast,
    regular_tree_instance,
)


def test_regular_tree_instance_shape():
    for n in (3, 4, 5):
        inst = regular_tree_instance(n)
        assert inst.num_users == inst.num_messages == n
        assert validate(inst) == []
        assert sum(len(k) for k in inst.side_info) == 2 * n - 1
        assert is_connected(build_side_info_graph(inst))
        assert inst.demands == tuple(range(1, n + 1))


def test_biclique_instance_shape():
    unc = biclique_instance(3, covered=False)
    assert unc.num_users == 3
    assert all(len(k) == 2 for k in unc.side_info)
    cov = biclique_instance(3, covered=True)
    assert cov.num_users == 4
    assert cov.knows(4) == frozenset({1, 2, 3})
    assert validate(unc) == [] and validate(cov) == []
    with pytest.raises(ValueError):
        biclique_instance(1, covered=False)


def test_random_single_unicast_contract():
    # No try of the dense n = 9 and 10 draws finds an avoiding permutation in
    # its 50 shuffles, so they return the first matched permutation.
    draws = [(4, 0.5, seed) for seed in range(20)]
    draws += [(n, 0.7, seed) for n in (9, 10) for seed in range(4)]
    for n, density, seed in draws:
        inst = random_single_unicast(n, 2, density, seed)
        assert validate(inst) == []
        assert sorted(inst.demands) == list(range(1, n + 1))
    assert (random_single_unicast(4, 2, 0.5, 3)
            == random_single_unicast(4, 2, 0.5, 3))


def test_random_single_unicast_draws_pinned():
    # n = 8-12, d = .3/.5, seeds 0-3 hold the draws of the covers benchmark
    # workload, whose cover lengths the benchmark pins.
    text = "\n".join(serialize_instance(random_single_unicast(n, 2, d, s))
                     for n in range(8, 13) for d in (0.3, 0.5) for s in range(4))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "d13d849b005c20460e45284118b0587affb3e5148647cd8db82b9b3774923911"


def test_fig5_report():
    report = experiment_fig5()
    assert report.verdict == "pass"
    assert report.details == {"classes": 8, "connected_classes": 2}
    assert len(report.rows) == 8
    connected_rows = [r for r in report.rows if r[3]]
    assert len(connected_rows) == 2
    for row in connected_rows:
        assert row[5] == 2  # a shorter-than-plain code exists
    for row in report.rows:
        if not row[3] and row[5] != "-":
            assert row[5] == 3
    assert experiment_fig5().rows == report.rows


def test_lemma_sweep_report():
    report = experiment_lemma_sweep()
    assert report.verdict == "pass"
    assert all(r[-1] == "pass" for r in report.rows)
    families = [(r[0], r[1], r[2]) for r in report.rows]
    assert families == [("path", n, "-") for n in range(3, 7)] + [
        ("clique", n, covered) for n in range(3, 6) for covered in (False, True)]


def test_theorem2_report_small():
    report = experiment_theorem2()
    assert report.verdict == "pass"
    assert report.details["instances_checked"] > 0
    assert [(r[0], r[1]) for r in report.rows] == [
        (n, m) for n in range(2, 5) for m in range(2, 5)]


def test_report_serialization():
    report = ExperimentReport(
        "demo", ("a", "b"), ((1, "x"), (2, "y")), "pass", {"k": 3})
    obj = report.to_json_obj()
    assert obj["rows"] == [[1, "x"], [2, "y"]]
    assert obj["details"] == {"k": 3}


def test_regular_tree_instance_side_info_pinned():
    # User j holds j+1 and j+2; user n-1 wraps onto 1 and holds n; user n holds 1.
    expected = {
        3: ((2, 3), (1, 3), (1,)),
        4: ((2, 3), (3, 4), (1, 4), (1,)),
        5: ((2, 3), (3, 4), (4, 5), (1, 5), (1,)),
        6: ((2, 3), (3, 4), (4, 5), (5, 6), (1, 6), (1,)),
        7: ((2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 7), (1,)),
        8: ((2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (1, 8), (1,)),
        9: ((2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9), (1, 9), (1,)),
    }
    for n, side in expected.items():
        assert regular_tree_instance(n).side_info == side


def test_family_reps_match_the_full_product_dedupe():
    # Reference: every ordered family in product order, kept when its
    # canonical form is new.
    for n, m in itertools.product(range(1, 4), range(1, 5)):
        reps = {}
        for masks in itertools.product(range((1 << m) - 1), repeat=n):
            if _family_valid(masks, m):
                family = _mask_family_to_sets(masks, m)
                reps.setdefault(canonical_form(SideInfoBipartiteGraph(n, m, family)), family)
        assert _canonical_family_reps(n, m) == list(reps.values())


def test_canonical_keys_of_every_visited_family_pinned():
    # The key bytes of every valid family _canonical_family_reps walks at
    # 2-4 users and messages; the keys are self-delimiting (users, messages,
    # then one byte per message), so they are hashed back to back.
    keys = [canonical_form(SideInfoBipartiteGraph(n, m, _mask_family_to_sets(masks, m)))
            for n, m in itertools.product(range(2, 5), repeat=2)
            for masks in itertools.combinations_with_replacement(range((1 << m) - 1), n)
            if _family_valid(masks, m)]
    assert len(keys) == 1821
    digest = hashlib.sha256(b"".join(keys)).hexdigest()
    assert digest == "34b5d2c379ac4733acef9eefce962683e26760ca3874af7cb25ee596a51ddf29"
