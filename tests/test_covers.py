"""Structure covers: both schemes, their cost identities, and scheme comparison."""

import dataclasses
from types import SimpleNamespace

import pytest

import eicp.covers
from eicp.codes import verify_code
from eicp.errors import ConsistencyError, NotSingleUnicastError
from eicp.covers import (
    CoverPlan,
    biclique_cover,
    compare_schemes,
    demand_relabeling,
    tree_cover,
)
from eicp.gf import FieldOrder
from eicp.minrank import minrank_bnb
from eicp.experiments import biclique_instance, random_single_unicast, regular_tree_instance
from eicp.model import EicpInstance, gen_random


def test_demand_relabeling(mixed4, dense4):
    graph, demander = demand_relabeling(mixed4)
    assert demander == {2: 1, 4: 2, 1: 3, 3: 4}
    # slot m carries the side information of the user demanding m
    assert graph.adjacency[0] == (2, 4)
    assert graph.adjacency[1] == (1,)
    graph, demander = demand_relabeling(dense4)
    assert demander == {m: m for m in range(1, 5)}


def test_demand_relabeling_rejects_repeat_demands():
    inst = EicpInstance(FieldOrder(2), 3, 3,
                        side_info=((2,), (3,), (1, 2)),
                        demands=(1, 1, 3))
    with pytest.raises(NotSingleUnicastError, match="one demander per message"):
        demand_relabeling(inst)


def test_tree_cover_on_regular_trees():
    for n in (3, 4, 5, 6):
        inst = regular_tree_instance(n)
        plan = tree_cover(inst)
        assert plan.counts["length"] == n - 1
        assert plan.counts["messages"] == n
        assert verify_code(plan.code, inst).overall
        if n >= 4:
            # small chains decompose into a pair and a single instead
            assert {w.kind for w in plan.structures} == {"regular_tree"}


def test_tree_cover_seven_user(seven_user):
    plan = tree_cover(seven_user)
    assert plan.counts == {"messages": 7, "structures": 4,
                           "length": 4, "single_edges": 1}
    got = [(w.kind, w.msg_seq, w.covering_user) for w in plan.structures]
    assert got == [("covered_pair", (1, 2), 3), ("covered_pair", (3, 4), 1),
                   ("covered_pair", (5, 6), 7), ("single_edge", (7,), 5)]
    assert plan.flags == {"task_based": True, "all_covered": True}


def test_greedy_tree_cover_structures_pinned():
    # Ascending sizes: random_single_unicast(7, 2, .35, 44) holds a 5-tree,
    # but the greedy pass takes the 4-tree inside it first.
    cases = [(regular_tree_instance(3),
              [("covered_pair", (1, 3), 2), ("single_edge", (2,), 1)])]
    cases += [(regular_tree_instance(n),
               [("regular_tree", tuple(range(1, n + 1)), None)])
              for n in (4, 5, 6, 7)]
    cases.append((random_single_unicast(7, 2, 0.35, 44),
                  [("regular_tree", (1, 6, 2, 5), None), ("single_edge", (3,), 2),
                   ("single_edge", (4,), 2), ("single_edge", (7,), 2)]))
    for inst, expected in cases:
        got = [(w.kind, w.msg_seq, w.covering_user) for w in tree_cover(inst).structures]
        assert got == expected


def _plan_obj(scheme, counts, flags, structures, transmissions):
    """A plan's to_json_obj() from (kind, messages, covering_user) and (user, coeffs)."""
    return {
        "scheme": scheme,
        "length": counts["length"],
        "counts": counts,
        "flags": flags,
        "structures": [
            {"kind": kind, "users": list(msgs), "messages": list(msgs),
             "covered": cov is not None, **({} if cov is None else {"covering_user": cov})}
            for kind, msgs, cov in structures
        ],
        "transmissions": [{"user": u, "coeffs": list(c)} for u, c in transmissions],
    }


def test_exact_cover_plans_pinned(seven_user):
    # The exact search takes its pair and clique blocks from the graph
    # module's structure rules; these plans must not move.
    rsu8 = random_single_unicast(8, 2, 0.5, 0)
    cases = [
        (tree_cover, seven_user, _plan_obj(
            "tree", {"messages": 7, "structures": 3, "length": 4, "single_edges": 0},
            {"task_based": True, "all_covered": False},
            [("covered_pair", (1, 2), 3), ("covered_pair", (3, 4), 1),
             ("regular_tree", (5, 6, 7), None)],
            [(3, (1, 1, 0, 0, 0, 0, 0)), (1, (0, 0, 1, 1, 0, 0, 0)),
             (5, (0, 0, 0, 0, 0, 1, 1)), (6, (0, 0, 0, 0, 1, 0, 1))])),
        (biclique_cover, seven_user, _plan_obj(
            "biclique", {"messages": 7, "structures": 3, "length": 3, "uncovered": 0},
            {"task_based": True, "all_covered": True},
            [("biclique", (1, 2, 3, 4), 5), ("single_edge", (5,), 6),
             ("covered_pair", (6, 7), 5)],
            [(5, (1, 1, 1, 1, 0, 0, 0)), (6, (0, 0, 0, 0, 1, 0, 0)),
             (5, (0, 0, 0, 0, 0, 1, 1))])),
        (tree_cover, rsu8, _plan_obj(
            "tree", {"messages": 8, "structures": 3, "length": 6, "single_edges": 1},
            {"task_based": False, "all_covered": False},
            [("covered_pair", (1, 5), 3), ("regular_tree", (8, 6, 4, 2, 3), None),
             ("single_edge", (7,), 4)],
            [(2, (1, 0, 0, 0, 1, 0, 0, 0)), (7, (0, 0, 0, 1, 0, 1, 0, 0)),
             (6, (0, 1, 0, 1, 0, 0, 0, 0)), (4, (0, 1, 1, 0, 0, 0, 0, 0)),
             (1, (0, 0, 1, 0, 0, 0, 0, 1)), (4, (0, 0, 0, 0, 0, 0, 1, 0))])),
        (biclique_cover, rsu8, _plan_obj(
            "biclique", {"messages": 8, "structures": 6, "length": 6, "uncovered": 0},
            {"task_based": True, "all_covered": True},
            [("single_edge", (1,), 3), ("covered_pair", (2, 4), 6),
             ("single_edge", (3,), 2), ("covered_pair", (5, 6), 8),
             ("single_edge", (7,), 4), ("single_edge", (8,), 2)],
            [(2, (1, 0, 0, 0, 0, 0, 0, 0)), (6, (0, 1, 0, 1, 0, 0, 0, 0)),
             (1, (0, 0, 1, 0, 0, 0, 0, 0)), (7, (0, 0, 0, 0, 1, 1, 0, 0)),
             (4, (0, 0, 0, 0, 0, 0, 1, 0)), (1, (0, 0, 0, 0, 0, 0, 0, 1))])),
    ]
    for build, inst, expected in cases:
        assert build(inst, exact=True).to_json_obj() == expected


def test_rejected_plan_raises_consistency_error(monkeypatch):
    monkeypatch.setattr(eicp.covers, "verify_code",
                        lambda code, inst: SimpleNamespace(overall=False))
    inst = regular_tree_instance(5)
    for build in (tree_cover, biclique_cover):
        with pytest.raises(ConsistencyError, match="unusable code"):
            build(inst)


def test_plan_counts_name_the_broken_identity(seven_user):
    tree = tree_cover(seven_user)
    biclique = biclique_cover(seven_user)
    cases = [
        (tree, "length", 1, "length matches the code"),
        (tree, "structures", 1, "structures matches the witnesses"),
        (tree, "single_edges", 1, "single_edges matches the witnesses"),
        (tree, "messages", 1, "length meets the cost identity"),
        (biclique, "uncovered", 1, "uncovered matches the witnesses"),
    ]
    for plan, key, delta, identity in cases:
        counts = dict(plan.counts, **{key: plan.counts[key] + delta})
        with pytest.raises(ConsistencyError, match=identity):
            dataclasses.replace(plan, counts=counts)


def test_biclique_cover_seven_user(seven_user):
    plan = biclique_cover(seven_user)
    assert plan.counts == {"messages": 7, "structures": 2,
                           "length": 3, "uncovered": 1}
    exact = biclique_cover(seven_user, exact=True)
    assert exact.counts["length"] == 3
    assert exact.counts["uncovered"] == 0


def test_biclique_cover_covered_vs_uncovered():
    for n in (3, 4, 5):
        cov = biclique_instance(n, covered=True)
        plan = biclique_cover(cov)
        main = next(w for w in plan.structures if len(w.msg_seq) == n)
        assert main.covered and main.covering_user == n + 1
        assert plan.counts["length"] == 2  # clique symbol plus the helper's demand
        assert verify_code(plan.code, cov).overall
        unc = biclique_instance(n, covered=False)
        plan = biclique_cover(unc)
        (main,) = plan.structures
        assert not main.covered
        assert plan.counts["length"] == 2
        assert verify_code(plan.code, unc).overall


def test_tree_cover_beats_biclique_on_chains():
    inst = regular_tree_instance(4)
    assert tree_cover(inst).counts["length"] == 3
    assert biclique_cover(inst).counts["length"] == 4


def test_cover_length_identities_hold_corpuswide():
    # the identities are asserted inside CoverPlan; build plans broadly
    instances = [regular_tree_instance(n) for n in (3, 4, 5, 6)]
    instances += [biclique_instance(n, c) for n in (3, 4) for c in (True, False)]
    for seed in range(60):
        inst = gen_random(3 + seed % 3, 3 + seed % 3, 2, 0.5, seed)
        if len(set(inst.demands)) != inst.num_messages:
            continue
        instances.append(inst)
    built = 0
    for inst in instances:
        for plan in (tree_cover(inst), biclique_cover(inst),
                     tree_cover(inst, exact=True),
                     biclique_cover(inst, exact=True)):
            c = plan.counts
            assert c["length"] == plan.code.length
            if plan.scheme == "tree":
                assert c["length"] == (c["messages"] - c["structures"]
                                       + c["single_edges"])
            else:
                assert c["length"] == c["structures"] + c["uncovered"]
            assert verify_code(plan.code, inst).overall
            built += 1
    assert built >= 60


def test_exact_cover_never_longer_than_greedy():
    for seed in range(25):
        inst = gen_random(4, 4, 2, 0.5, seed)
        if len(set(inst.demands)) != 4:
            continue
        assert (tree_cover(inst, exact=True).counts["length"]
                <= tree_cover(inst).counts["length"])
        assert (biclique_cover(inst, exact=True).counts["length"]
                <= biclique_cover(inst).counts["length"])


def test_task_based_flag():
    t5 = tree_cover(regular_tree_instance(5))
    assert not t5.flags["task_based"]  # someone chains three symbols
    pairs_only = tree_cover(biclique_instance(3, covered=True))
    assert pairs_only.flags["task_based"]


def test_plan_json_shape(seven_user):
    obj = tree_cover(seven_user).to_json_obj()
    assert obj["scheme"] == "tree"
    assert obj["length"] == 4
    assert len(obj["structures"]) == 4
    assert all(set(t) == {"user", "coeffs"} for t in obj["transmissions"])


def test_single_uniprior_cover_matches_optimum():
    # distinct singleton holdings: covers and the solver all land on uniq(d)
    inst = EicpInstance(FieldOrder(2), 4, 4,
                        side_info=((2,), (3,), (4,), (1,)),
                        demands=(1, 2, 3, 4))
    t = tree_cover(inst)
    b = biclique_cover(inst)
    kappa = minrank_bnb(inst).kappa
    assert kappa == 4  # singleton holdings leave nothing to combine
    assert t.counts["length"] == 4
    assert b.counts["length"] == 4


def test_compare_schemes(seven_user):
    got = compare_schemes(seven_user)
    assert got == {"tree_length": 4, "biclique_length": 3, "kappa": 3}
    got = compare_schemes(regular_tree_instance(4))
    assert got == {"tree_length": 3, "biclique_length": 4, "kappa": 3}


def test_greedy_tree_cover_transmissions_pinned():
    # (sender, support) of each transmission; every coefficient is 1 at q = 2.
    chain = {n: [(j, (j + 1, j + 2)) for j in range(1, n - 1)] + [(n - 1, (1, n))]
             for n in range(4, 10)}
    assert chain[4] == [(1, (2, 3)), (2, (3, 4)), (3, (1, 4))]
    expected = {3: [(2, (1, 3)), (1, (2,))], **chain}
    for n, sends in expected.items():
        got = [(t.user, t.coeffs.coords) for t in tree_cover(regular_tree_instance(n)).code.transmissions]
        assert got == [(u, tuple(int(m in supp) for m in range(1, n + 1))) for u, supp in sends]
