"""Experiment drivers: instance families, the three study reports and scheme comparison."""

import dataclasses
import hashlib
import itertools
import json
import random

import pytest

from eicp import cli, experiments
from eicp.gf import FieldOrder
from eicp.graphs import (
    SideInfoBipartiteGraph,
    _members,
    build_side_info_graph,
    canonical_form,
    is_connected,
)
from eicp.minrank import minrank_bnb
from eicp.model import EicpInstance, _renamed, enumerate_demands, serialize_instance, validate
from eicp.experiments import (
    ExperimentReport,
    _canonical_family_reps,
    _family_valid,
    _orbit_kappa,
    biclique_instance,
    compare_schemes,
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
    assert report.rows == (
        (1, "-/1/2,3", 3, False, 2, 3),
        (2, "-/1,2/1,3", 4, False, 1, 3),
        (3, "1/1/2,3", 4, False, 2, 3),
        (4, "1/1,2/2,3", 5, True, 1, 2),
        (5, "1/2/1,3", 4, False, 1, 3),
        (6, "1/2/3", 3, False, 2, 3),
        (7, "1/2,3/2,3", 5, False, 0, "-"),
        (8, "1,2/1,3/2,3", 6, True, 1, 2),
    )


def test_lemma_sweep_report():
    report = experiment_lemma_sweep()
    assert report.verdict == "pass"
    assert all(r[-1] == "pass" for r in report.rows)
    families = [(r[0], r[1], r[2]) for r in report.rows]
    assert families == [("path", n, "-") for n in range(3, 7)] + [
        ("clique", n, covered) for n in range(3, 6) for covered in (False, True)]


def test_contradicting_solves_fail_every_study(monkeypatch, capsys):
    # Every solve answers the plain scheme's length, the number of distinct
    # demands of the users it serves, which contradicts each study's claim.
    def plain(inst, *args, **kwargs):
        result = minrank_bnb(inst, *args, **kwargs)
        return dataclasses.replace(result, kappa=len({inst.demand(u) for u in result.users}))

    monkeypatch.setattr(experiments, "minrank_bnb", plain)
    assert experiment_fig5().verdict == "fail"
    assert experiment_lemma_sweep().verdict == "fail"
    report = experiment_theorem2()
    assert report.verdict == "fail"
    # users, messages, classes, hypothesis, corollary, violations, disconnected better
    assert [row[5] for row in report.rows] == [row[3] for row in report.rows]
    assert cli.main(["experiment", "fig5"]) == 3


@pytest.fixture(scope="module")
def theorem2_run():
    """One run of experiment_theorem2 and the number of minrank_bnb calls it made."""
    calls = 0

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return minrank_bnb(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "minrank_bnb", counted)
        report = experiment_theorem2()
    return report, calls


def test_theorem2_report_small(theorem2_run):
    report, _ = theorem2_run
    assert report.verdict == "pass"
    assert report.details == {"instances_checked": 146}
    # users, messages, classes, hypothesis, corollary, violations, disconnected better
    assert report.rows == (
        (2, 2, 1, 0, 0, 0, 0),
        (2, 3, 1, 0, 0, 0, 0),
        (2, 4, 2, 0, 0, 0, 0),
        (3, 2, 2, 0, 0, 0, 0),
        (3, 3, 8, 2, 1, 0, 0),
        (3, 4, 19, 6, 0, 0, 0),
        (4, 2, 4, 0, 0, 0, 0),
        (4, 3, 25, 13, 7, 0, 4),
        (4, 4, 114, 125, 24, 0, 52),
    )


def test_theorem2_solves_once_per_demand_orbit(theorem2_run):
    # The study reads 1,982 demand vectors; 866 orbits remain under the
    # renamings of messages that fix each family. More calls mean the memo
    # is gone. Fewer mean a larger group: the renamings that fix only the
    # set of side-information sets still keep kappa (model._renamed) and
    # make 849 calls, so this pin holds the group to the family's
    # automorphisms; test_equal_orbit_keys_mean_equal_kappa checks soundness.
    _, calls = theorem2_run
    assert calls == 866


def _orbit_solves(pairs):
    """Check _orbit_kappa against a direct solve on each (class, demands) pair; count its solves.

    A class rep is a (graph, autos) pair of _canonical_family_reps.
    """
    calls = 0

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return minrank_bnb(*args, **kwargs)

    kappa_of = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "minrank_bnb", counted)
        for (graph, autos), demands in pairs:
            family = graph.adjacency
            if family not in kappa_of:
                kappa_of[family] = _orbit_kappa(graph, autos)
            inst = EicpInstance(FieldOrder(2), len(family), graph.num_messages, family, demands)
            assert kappa_of[family](demands) == minrank_bnb(inst).kappa, (family, demands)
    return calls


def test_equal_orbit_keys_mean_equal_kappa():
    # Every demand vector of every family at 2-3 users and messages (a
    # superset of theorem2's scope there), and 100 seeded vectors of the
    # 2,072 at 4 users and 4 messages. Both scopes must merge some vectors.
    merged = 0
    for n, m in itertools.product((2, 3), repeat=2):
        pairs = [(rep, demands) for rep in _canonical_family_reps(n, m)
                 for demands in enumerate_demands(rep[0].adjacency, m)]
        merged += len(pairs) - _orbit_solves(pairs)
    assert merged > 0
    everything = [(rep, demands) for rep in _canonical_family_reps(4, 4)
                  for demands in enumerate_demands(rep[0].adjacency, 4)]
    assert len(everything) == 2072
    sample = random.Random(0).sample(everything, 100)
    assert _orbit_solves(sample) < len(sample)


def test_report_serialization():
    report = ExperimentReport(
        "demo", ("a", "b"), ((1, "x"), (2, "y")), "pass", {"k": 3})
    obj = json.loads(json.dumps(dataclasses.asdict(report)))
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
        pool = (1 << m + 1) - 2
        for masks in itertools.product(range(0, pool, 2), repeat=n):
            if _family_valid(masks, pool):
                family = tuple(map(_members, masks))
                reps.setdefault(canonical_form(SideInfoBipartiteGraph(n, m, family)), family)
        assert [g.adjacency for g, _autos in _canonical_family_reps(n, m)] == list(reps.values())


def test_family_reps_match_the_canonical_form_dedupe_the_studies_walk():
    # Every (n, m) the studies walk: the sorted families, kept when their
    # canonical form is new (1,821 canonical_form calls), give the same reps
    # in the same order as orbit marking, which computes no key.
    calls = 0
    for n, m in itertools.product(range(2, 5), repeat=2):
        reps = {}
        pool = (1 << m + 1) - 2
        for masks in itertools.combinations_with_replacement(range(0, pool, 2), n):
            if _family_valid(masks, pool):
                family = tuple(map(_members, masks))
                calls += 1
                reps.setdefault(canonical_form(SideInfoBipartiteGraph(n, m, family)), family)
        assert [g.adjacency for g, _autos in _canonical_family_reps(n, m)] == list(reps.values())
    assert calls == 1821


def test_family_rep_automorphisms_are_the_renamings_that_fix_it():
    # Brute force: of all m! renamings through model._renamed, those mapping
    # the family onto itself as a multiset of side-information sets, in
    # permutation order, each with its renamed family.
    autos_seen = 0
    for n, m in itertools.product(range(1, 5), repeat=2):
        for graph, autos in _canonical_family_reps(n, m):
            family = graph.adjacency
            expected = []
            for perm in itertools.permutations(range(1, m + 1)):
                image = (0,) + perm
                renamed = _renamed(family, image)
                if sorted(renamed) == sorted(family):
                    expected.append((renamed, image))
            assert autos == expected, (n, m, family)
            autos_seen += len(autos)
    assert autos_seen > 0


def test_canonical_keys_of_every_visited_family_pinned():
    # The key bytes of every valid family _canonical_family_reps walks at
    # 2-4 users and messages; the keys are self-delimiting (users, messages,
    # then one byte per message), so they are hashed back to back.
    keys = [canonical_form(SideInfoBipartiteGraph(n, m, tuple(map(_members, masks))))
            for n, m in itertools.product(range(2, 5), repeat=2)
            for pool in [(1 << m + 1) - 2]
            for masks in itertools.combinations_with_replacement(range(0, pool, 2), n)
            if _family_valid(masks, pool)]
    assert len(keys) == 1821
    digest = hashlib.sha256(b"".join(keys)).hexdigest()
    assert digest == "34b5d2c379ac4733acef9eefce962683e26760ca3874af7cb25ee596a51ddf29"


def test_compare_schemes(seven_user):
    got = compare_schemes(seven_user)
    assert got == {"tree_length": 4, "biclique_length": 3, "kappa": 3}
    got = compare_schemes(regular_tree_instance(4))
    assert got == {"tree_length": 3, "biclique_length": 4, "kappa": 3}
