"""Structure covers: both schemes and their cost identities."""

import dataclasses
import hashlib
import itertools
import json

import pytest

import eicp.codes
import eicp.covers
from eicp.codes import EmbeddedIndexCode, verify_code
from eicp.errors import ConsistencyError, GuardExceededError, NotSingleUnicastError
from eicp.covers import (
    EXACT_COVER_LIMIT,
    _cost,
    _floor,
    _size_cost,
    biclique_cover,
    demand_relabeling,
    tree_cover,
)
from eicp.gf import FieldOrder
from eicp.graphs import (
    BICLIQUE,
    COVERED_PAIR,
    REGULAR_TREE,
    SINGLE_EDGE,
    StructureWitness,
    find_covered_pairs,
    search_bicliques,
    search_regular_trees,
    verify_structure,
)
from eicp.minrank import minrank_bnb
from eicp.experiments import biclique_instance, random_single_unicast, regular_tree_instance
from eicp.model import EicpInstance, gen_random

from conftest import all_fixture_instances


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
    """A plan's to_json_obj() from (kind, messages, users, covering_user) and (user, coeffs).

    users None stands for users equal to the messages, as under identity demands.
    """
    return {
        "scheme": scheme,
        "length": counts["length"],
        "counts": counts,
        "flags": flags,
        "structures": [
            {"kind": kind, "users": list(msgs if users is None else users),
             "messages": list(msgs), "covered": cov is not None,
             **({} if cov is None else {"covering_user": cov})}
            for kind, msgs, users, cov in structures
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
            [("covered_pair", (1, 2), None, 3), ("covered_pair", (3, 4), None, 1),
             ("regular_tree", (5, 6, 7), None, None)],
            [(3, (1, 1, 0, 0, 0, 0, 0)), (1, (0, 0, 1, 1, 0, 0, 0)),
             (5, (0, 0, 0, 0, 0, 1, 1)), (6, (0, 0, 0, 0, 1, 0, 1))])),
        (biclique_cover, seven_user, _plan_obj(
            "biclique", {"messages": 7, "structures": 3, "length": 3, "uncovered": 0},
            {"task_based": True, "all_covered": True},
            [("biclique", (1, 2, 3, 4), None, 5), ("single_edge", (5,), None, 6),
             ("covered_pair", (6, 7), None, 5)],
            [(5, (1, 1, 1, 1, 0, 0, 0)), (6, (0, 0, 0, 0, 1, 0, 0)),
             (5, (0, 0, 0, 0, 0, 1, 1))])),
        (tree_cover, rsu8, _plan_obj(
            "tree", {"messages": 8, "structures": 3, "length": 6, "single_edges": 1},
            {"task_based": False, "all_covered": False},
            [("covered_pair", (1, 5), (3, 5), 2),
             ("regular_tree", (8, 6, 4, 2, 3), (7, 6, 4, 1, 2), None),
             ("single_edge", (7,), (8,), 4)],
            [(2, (1, 0, 0, 0, 1, 0, 0, 0)), (7, (0, 0, 0, 1, 0, 1, 0, 0)),
             (6, (0, 1, 0, 1, 0, 0, 0, 0)), (4, (0, 1, 1, 0, 0, 0, 0, 0)),
             (1, (0, 0, 1, 0, 0, 0, 0, 1)), (4, (0, 0, 0, 0, 0, 0, 1, 0))])),
        (biclique_cover, rsu8, _plan_obj(
            "biclique", {"messages": 8, "structures": 6, "length": 6, "uncovered": 0},
            {"task_based": True, "all_covered": True},
            [("single_edge", (1,), (3,), 2), ("covered_pair", (2, 4), (1, 4), 6),
             ("single_edge", (3,), (2,), 1), ("covered_pair", (5, 6), (5, 6), 7),
             ("single_edge", (7,), (8,), 4), ("single_edge", (8,), (7,), 1)],
            [(2, (1, 0, 0, 0, 0, 0, 0, 0)), (6, (0, 1, 0, 1, 0, 0, 0, 0)),
             (1, (0, 0, 1, 0, 0, 0, 0, 0)), (7, (0, 0, 0, 0, 1, 1, 0, 0)),
             (4, (0, 0, 0, 0, 0, 0, 1, 0)), (1, (0, 0, 0, 0, 0, 0, 0, 1))])),
    ]
    for build, inst, expected in cases:
        assert build(inst, exact=True).to_json_obj() == expected


def test_rejected_plan_raises_consistency_error(monkeypatch):
    monkeypatch.setattr(eicp.codes, "decodable_from", lambda inst, columns, user: False)
    inst = regular_tree_instance(5)
    for build, scheme in ((tree_cover, "tree"), (biclique_cover, "biclique")):
        with pytest.raises(ConsistencyError, match=f"the {scheme} cover accepted a code "
                                                   "the checker rejects"):
            build(inst)


def test_plan_code_must_meet_the_cost_model(seven_user):
    for build in (tree_cover, biclique_cover):
        plan = build(seven_user)
        short = EmbeddedIndexCode(seven_user, plan.code.transmissions[:-1])
        length = plan.code.length
        with pytest.raises(ConsistencyError,
                           match=f"{plan.scheme} plan sends {length - 1} transmissions "
                                 f"where its structures cost {length}"):
            dataclasses.replace(plan, code=short)


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


def _block_cost(graph, scheme, block):
    """Cheapest _cost of a witness verify_structure accepts on `block`, or None.

    Tried naively: every ordering for a tree, and each covering user or none
    for a single edge, pair or clique.
    """
    covers = [None, *range(1, graph.num_users + 1)]
    if len(block) == 1:
        tried = [StructureWitness(SINGLE_EDGE, block, covering_user=u) for u in covers]
    elif scheme == "tree" and len(block) > 2:
        tried = [StructureWitness(REGULAR_TREE, seq) for seq in itertools.permutations(block)]
    else:
        kinds = (COVERED_PAIR,) if scheme == "tree" else (COVERED_PAIR, BICLIQUE)
        tried = [StructureWitness(k, block, covering_user=u) for k in kinds for u in covers]
    return min((_cost(scheme, w) for w in tried if verify_structure(graph, w)), default=None)


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        yield [(first,), *part]
        for i, block in enumerate(part):
            yield [*part[:i], (first, *block), *part[i + 1:]]


def _brute_force_cover(inst, scheme):
    """Least (length, extra) over every set partition of admissible blocks.

    A block's admissible costs are ordered in both coordinates at once, so
    summing each block's cheapest one gives the partition's least cost.
    """
    graph, _ = demand_relabeling(inst)
    costs = {}
    best = None
    for part in _set_partitions(list(inst.messages)):
        total = (0, 0)
        for block in part:
            block = tuple(sorted(block))
            if block not in costs:
                costs[block] = _block_cost(graph, scheme, block)
            if costs[block] is None:
                break
            total = (total[0] + costs[block][0], total[1] + costs[block][1])
        else:
            best = total if best is None else min(best, total)
    return best


def test_exact_cover_reaches_the_brute_force_optimum():
    instances = all_fixture_instances()
    instances += [regular_tree_instance(n) for n in range(3, 8)]
    instances += [biclique_instance(n, c) for n in range(2, 6) for c in (True, False)]
    instances += [random_single_unicast(n, 2, d, s)
                  for n in range(3, 7) for d in (0.3, 0.5, 0.7, 0.9) for s in range(2)]
    for inst in instances:
        n = inst.num_messages
        for scheme, build in (("tree", tree_cover), ("biclique", biclique_cover)):
            plan = build(inst, exact=True)
            extra = sum(_cost(scheme, w)[1] for w in plan.structures)
            best = _brute_force_cover(inst, scheme)
            assert (plan.code.length, extra) == best
            if scheme == "tree":
                # The floor the exact tree search prunes with: no partition
                # is cheaper, and one sends at least ceil(n / 2).
                assert best[0] >= _floor(n)
        assert _floor(n) == -(-n // 2)


def test_exact_cover_guard_names_the_message_limit():
    inst = regular_tree_instance(EXACT_COVER_LIMIT + 1)
    for build in (tree_cover, biclique_cover):
        with pytest.raises(GuardExceededError,
                           match=f"at most {EXACT_COVER_LIMIT} messages"):
            build(inst, exact=True)


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


def test_greedy_tree_cover_transmissions_pinned():
    # (sender, support) of each transmission; every coefficient is 1 at q = 2.
    chain = {n: [(j, (j + 1, j + 2)) for j in range(1, n - 1)] + [(n - 1, (1, n))]
             for n in range(4, 10)}
    assert chain[4] == [(1, (2, 3)), (2, (3, 4)), (3, (1, 4))]
    expected = {3: [(2, (1, 3)), (1, (2,))], **chain}
    for n, sends in expected.items():
        got = [(t.user, t.coeffs.coords) for t in tree_cover(regular_tree_instance(n)).code.transmissions]
        assert got == [(u, tuple(int(m in supp) for m in range(1, n + 1))) for u, supp in sends]


def _cover_layer_instances():
    instances = all_fixture_instances()
    instances += [regular_tree_instance(n) for n in range(3, 10)]
    instances += [biclique_instance(n, c) for n in range(2, 6) for c in (True, False)]
    instances += [random_single_unicast(n, 2, d, s)
                  for n in range(3, 9) for d in (0.3, 0.5, 0.7) for s in range(3)]
    return instances


def _cover_layer_outputs():
    """Structure searches with their verdicts, then the four plans of each instance."""
    for k, inst in enumerate(_cover_layer_instances()):
        graph, demander = demand_relabeling(inst)
        for search in (find_covered_pairs, search_regular_trees, search_bicliques):
            for w in search(graph):
                yield f"{k} {json.dumps(w.to_json_obj(demander))} {verify_structure(graph, w)}"
        for build in (tree_cover, biclique_cover):
            for exact in (False, True):
                plan = build(inst, exact=exact)
                yield (f"{k} {json.dumps(plan.to_json_obj())} "
                       f"{list(plan.counts.items())} {list(plan.flags.items())}")


def test_cover_layer_output_pinned():
    # Structures, verdicts and plans (counts and flags in key order) of the
    # fixtures, both families and a random_single_unicast slice.
    outputs = list(_cover_layer_outputs())
    assert len(outputs) == 808
    digest = hashlib.sha256("\n".join(outputs).encode()).hexdigest()
    assert digest == "6101609a1fcc3af4837460dcb32b65d48157bc8809030d097a33db37101818f9"


def test_tree_cover_plans_pinned_past_n8():
    # Greedy and exact tree plans at n = 10 and 12, dense draws included,
    # where the cover layer pin above stops at n = 8.
    plans = [json.dumps(tree_cover(random_single_unicast(n, 2, d, 0), exact=exact).to_json_obj())
             for n in (10, 12) for d in (0.3, 0.5, 0.9) for exact in (False, True)]
    digest = hashlib.sha256("\n".join(plans).encode()).hexdigest()
    assert digest == "026bd8cd5e8b33b8604c97ff9e06126ad2e1d3acd32a2f55d7fbd4c5540d923f"


def test_biclique_plans_pinned_past_n8():
    # search_bicliques and the greedy and exact biclique plans at n = 10 and
    # 12, as the tree plans are pinned above.
    outputs = []
    for n in (10, 12):
        for d in (0.3, 0.5, 0.9):
            inst = random_single_unicast(n, 2, d, 0)
            graph, demander = demand_relabeling(inst)
            outputs.append(json.dumps([w.to_json_obj(demander) for w in search_bicliques(graph)]))
            outputs += [json.dumps(biclique_cover(inst, exact=exact).to_json_obj())
                        for exact in (False, True)]
    digest = hashlib.sha256("\n".join(outputs).encode()).hexdigest()
    assert digest == "16859b832a750b64af0623ab2af8274effc5bf360b8962dad3f526840151bc29"


def test_exact_plans_pinned_where_the_bound_prunes():
    # Exact tree and clique plans at n = 11 and 12, two seeds and four
    # densities, where _exact_cover skips the most block sizes.
    plans = []
    for n in (11, 12):
        for d in (0.3, 0.5, 0.7, 0.9):
            for s in (0, 1):
                inst = random_single_unicast(n, 2, d, s)
                plans += [json.dumps(build(inst, exact=True).to_json_obj())
                          for build in (tree_cover, biclique_cover)]
    digest = hashlib.sha256("\n".join(plans).encode()).hexdigest()
    assert digest == "eecc02c8a114641f2045954f5189bf6ae362e874f313f01abfea1dcfe082a723"


def test_exact_tree_cover_skips_blocks_that_cannot_win(monkeypatch):
    # Walking every block of every state looks for 4,017 trees here; the
    # size bound leaves 549.
    calls = []
    find_tree = eicp.covers._find_tree
    monkeypatch.setattr(eicp.covers, "_find_tree",
                        lambda *args: calls.append(args) or find_tree(*args))
    tree_cover(random_single_unicast(12, 2, 0.5, 0), exact=True)
    assert 0 < len(calls) <= 600


def test_block_cost_follows_from_its_size():
    # _exact_cover prices a block by _size_cost before it looks for the
    # block's witness, so every witness it can offer must cost just that:
    # under the tree scheme a lone message (1, 1) and k >= 2 messages
    # (k - 1, 0); under the clique scheme a covered block (1, 0). Only a
    # greedy clique cover holds uncovered cliques, at (2, 1).
    for inst in _cover_layer_instances():
        for exact in (False, True):
            for w in tree_cover(inst, exact=exact).structures:
                assert _cost("tree", w) == ((1, 1) if w.size == 1 else (w.size - 1, 0))
                assert _cost("tree", w)[0] == _size_cost("tree", w.size)
            for w in biclique_cover(inst, exact=exact).structures:
                assert w.covered or not exact
                assert _cost("biclique", w) == ((1, 0) if w.covered else (2, 1))
                if w.covered:
                    assert _cost("biclique", w)[0] == _size_cost("biclique", w.size)
