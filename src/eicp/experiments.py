"""Reproducible studies tying the solver, the covers, and the graph theory together.

Each experiment returns an ExperimentReport: a small table plus a verdict
string. A verdict of "pass" means every checked claim held; experiments never
silently drop a failing case. A study's verdict and details are read off its
rows. compare_schemes, which sets both greedy cover lengths beside the
optimum, lives here rather than in covers, because it calls the solver.

Messages are renamed in one place in the package, model._renamed.
itertools.permutations is called only by graphs.canonical_form, which
orders users, and by _canonical_family_reps, whose one walk over the
message renamings, through model._renamed, both marks each class and
yields the automorphisms _orbit_kappa reads.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
from dataclasses import dataclass

from .covers import biclique_cover, tree_cover
from .errors import ConsistencyError, GenerationError, OracleExhaustedError
from .graphs import (
    SideInfoBipartiteGraph,
    _members,
    is_connected,
    path_pattern_edges,
    prune_degree_one,
)
from .minrank import minrank_bnb, minrank_oracle
from .model import EicpInstance, _renamed, _repair_family, enumerate_demands, require_valid

# Draws each random generator makes before it gives up.
GENERATION_TRIES = 200


@dataclass(frozen=True)
class ExperimentReport:
    """A study's table, its verdict and details; `eicp experiment --json` writes these fields."""

    name: str
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    verdict: str
    details: dict


# ---------- fixture builders ----------

def regular_tree_instance(n: int, q: int = 2) -> EicpInstance:
    """The path-pattern instance on n users and n messages, demands on the diagonal.

    User j holds the messages of the slots that pattern slot j holds
    (graphs.path_pattern_edges). The shortest code for it has n - 1 symbols.
    """
    if n < 3:
        raise ValueError("the path pattern needs at least 3 users")
    side: list[list[int]] = [[] for _ in range(n)]
    for slot, held in path_pattern_edges(n):
        side[slot].append(held + 1)
    inst = EicpInstance(q, n, n, tuple(side), tuple(range(1, n + 1)))
    require_valid(inst)
    return inst


def biclique_instance(n: int, covered: bool) -> EicpInstance:
    """Mutual-knowledge clique on messages 1..n over F_2, demands on the diagonal.

    Uncovered: n users, user i holds everything but message i. Covered: one
    extra user holds all of 1..n (and demands a fresh message n+1 that only
    user 1 holds), so the clique members can be served by a single symbol.
    """
    if n < 2:
        raise ValueError("a mutual-knowledge clique needs at least 2 members")
    members = [tuple(m for m in range(1, n + 1) if m != i) for i in range(1, n + 1)]
    if not covered:
        side = tuple(members)
        demands = tuple(range(1, n + 1))
        inst = EicpInstance(2, n, n, side, demands)
    else:
        side = [members[0] + (n + 1,)] + members[1:] + [tuple(range(1, n + 1))]
        demands = tuple(range(1, n + 2))
        inst = EicpInstance(2, n + 1, n + 1, tuple(side), demands)
    require_valid(inst)
    return inst


def random_single_unicast(n: int, q: int, density: float, seed: int) -> EicpInstance:
    """Random valid instance with n users, n messages, and a permutation demand.

    Each draw tries 50 random demand permutations. If every draw fails, the
    first draw that has a matched permutation (_matched_demands) is
    returned instead.
    """
    rng = random.Random(seed)
    inst = None
    for _ in range(GENERATION_TRIES):
        side = [
            {m for m in range(1, n + 1) if rng.random() < density}
            for _ in range(n)
        ]
        try:
            _repair_family(rng, side, n)
        except GenerationError:
            continue
        # A repaired family with a demand permutation avoiding every user's
        # holdings meets every rule of validate().
        if (perm := _demand_permutation(rng, side, n)) is not None:
            inst = _permutation_instance(q, side, perm)
            break
        if inst is None and (perm := _matched_demands(side, n)) is not None:
            inst = _permutation_instance(q, side, perm)
    if inst is None:
        raise GenerationError(
            f"no valid permutation-demand instance after {GENERATION_TRIES} tries")
    require_valid(inst)
    return inst


def _permutation_instance(q: int, side, perm) -> EicpInstance:
    n = len(side)
    return EicpInstance(q, n, n, tuple(tuple(sorted(k)) for k in side), tuple(perm))


def _demand_permutation(rng: random.Random, side, n: int):
    perm = list(range(1, n + 1))
    for _ in range(50):
        rng.shuffle(perm)
        if all(perm[i] not in side[i] for i in range(n)):
            return list(perm)
    return None


def _matched_demands(side, n: int) -> list[int] | None:
    """A demand permutation avoiding every user's holdings, or None if there is none.

    Bipartite matching by augmenting paths, users in order, messages
    ascending; it draws no random numbers.
    """
    demander: dict[int, int] = {}

    def augment(user: int, seen: set[int]) -> bool:
        for m in range(1, n + 1):
            if m in side[user] or m in seen:
                continue
            seen.add(m)
            if m not in demander or augment(demander[m], seen):
                demander[m] = user
                return True
        return False

    matched = all(augment(user, set()) for user in range(n))
    del augment  # it refers to itself: free it at return, not at a full collection
    if not matched:
        return None
    perm = [0] * n
    for m, user in demander.items():
        perm[user] = m
    return perm


# ---------- experiments ----------

def _family_valid(masks: tuple[int, ...], pool: int) -> bool:
    """Whether every message of the `pool` mask is held by some user and by not every user."""
    return (functools.reduce(operator.or_, masks) == pool
            and not functools.reduce(operator.and_, masks))


def _orbit_kappa(graph: SideInfoBipartiteGraph, autos):
    """kappa(demands) over F_2 for `graph`'s family, solving one demand vector per orbit.

    `autos` lists the automorphisms, the renamings of the messages
    (model._renamed) that map the family onto itself, each as its (renamed
    family, image) pair (_canonical_family_reps). The returned function keys
    each demand vector by the least, over them, of the sorted distinct
    (renamed side information, renamed demand) pairs of its users, and calls
    minrank_bnb only on a key it has not met; its memo lives as long as the
    function, one family.

    Why one solve per key is exact. kappa reads a demand vector only as its
    pair set P and does not change under a renaming (model._renamed). Equal
    keys are equal images sigma(P) == tau(P') of two pair sets, so
    P' == tau^-1 sigma(P), and the two vectors have equal kappa.
    """
    solved: dict[tuple, int] = {}

    def kappa(demands) -> int:
        key = min(tuple(sorted({(k, image[d]) for k, d in zip(renamed, demands)}))
                  for renamed, image in autos)
        if key not in solved:
            inst = EicpInstance(2, graph.num_users, graph.num_messages, graph.adjacency, demands)
            solved[key] = minrank_bnb(inst).kappa
        return solved[key]

    return kappa


def experiment_fig5() -> ExperimentReport:
    """All 3-user, 3-message side-information families over F_2, up to relabeling.

    For each class the study takes every permutation demand each user can
    legally make (three distinct demands, so the plain scheme needs three
    symbols) and asks whether any of them admits a shorter code. The claim
    under test: that happens exactly for the connected classes. Its kappas
    come from _orbit_kappa, one solve per demand orbit, as in theorem2.
    """
    classes = sorted(_canonical_family_reps(3, 3), key=lambda rep: rep[0].adjacency)
    rows = []
    for idx, (graph, autos) in enumerate(classes, start=1):
        family = graph.adjacency
        kappa_of = _orbit_kappa(graph, autos)
        kappas = [kappa_of(demands) for demands in enumerate_demands(family, 3)
                  if len(set(demands)) == 3]
        rows.append((
            idx,
            "/".join(",".join(str(m) for m in k) or "-" for k in family),
            sum(len(k) for k in family),
            is_connected(graph),
            len(kappas),
            min(kappas, default="-"),
        ))
    connected = sum(row[3] for row in rows)
    # A class with no demand option must be disconnected; one with options
    # beats the plain three symbols exactly when it is connected.
    return ExperimentReport(
        "fig5",
        ("class", "side_info", "edges", "connected", "demand_options", "min_kappa"),
        tuple(rows),
        "pass" if len(rows) == 8 and connected == 2 and all(
            conn == (options > 0 and kappa < 3) for *_, conn, options, kappa in rows)
        else "fail",
        {"classes": len(rows), "connected_classes": connected},
    )


def _canonical_family_reps(num_users: int, num_messages: int):
    """The lexicographically first valid family of each isomorphism class, with its automorphisms.

    Each class comes as (graph, autos): autos lists the renamings of the
    messages (model._renamed) that map the family onto itself, each as its
    (renamed family, image) pair, for _orbit_kappa.

    A class is closed under user reordering, so its first family is sorted,
    and the sorted families alone meet every class in the same order. They
    are walked in order; the first one not yet marked is the next class's
    family, and its images under every renaming, sorted, are marked: those
    are exactly the sorted families of its class (isomorph rejection by orbit
    marking), so no canonical key is computed. graphs.canonical_form is the
    key they are tested against.
    """
    reps, marked = [], set()
    pool = (1 << num_messages + 1) - 2
    images = [(0,) + perm for perm in itertools.permutations(range(1, num_messages + 1))]
    # Masks in graphs' form, bit m for message m; no user holds the whole pool.
    for masks in itertools.combinations_with_replacement(range(0, pool, 2), num_users):
        if masks in marked or not _family_valid(masks, pool):
            continue
        family = tuple(map(_members, masks))
        renamings = [(_renamed(family, image), image) for image in images]
        keys = [tuple(sorted(sum(1 << m for m in k) for k in renamed)) for renamed, _ in renamings]
        marked.update(keys)
        autos = [pair for pair, key in zip(renamings, keys) if key == masks]
        reps.append((SideInfoBipartiteGraph(num_users, num_messages, family), autos))
    return reps


def experiment_theorem2() -> ExperimentReport:
    """Exhaustive check of the pruning bound on every small instance class.

    The scope is every class of 2-4 users and 2-4 messages over F_2.

    Hypothesis: the side-information graph is connected and, after dropping
    messages held by fewer than two users, every surviving message is still
    demanded by someone. Claim: the optimum then beats the number of distinct
    demands. Disconnected instances are tallied but nothing is asserted about
    them. The corollary column counts instances where nothing was dropped and
    all messages are demanded, whose optimum must then beat the message count.

    Each family's demand vectors are solved once per orbit under the
    relabelings of messages that fix the family (_orbit_kappa): 866 solves
    stand for the 1,982 vectors the study reads.
    """
    rows = []
    for n in range(2, 5):
        for m in range(2, 5):
            classes = _canonical_family_reps(n, m)
            hypothesis_count = 0
            corollary_count = 0
            violations = 0
            disconnected_better = 0
            for graph, autos in classes:
                connected = is_connected(graph)
                pruned = prune_degree_one(graph)
                x_prime = set(pruned.x_prime)
                kappa_of = _orbit_kappa(graph, autos)
                for demands in enumerate_demands(graph.adjacency, m):
                    uniq = len(set(demands))
                    hyp = connected and x_prime and x_prime <= set(demands)
                    if not hyp and connected:
                        continue
                    kappa = kappa_of(demands)
                    if hyp:
                        hypothesis_count += 1
                        if kappa >= uniq:
                            violations += 1
                        # The corollary needs no check of its own: there uniq == m.
                        corollary_count += len(x_prime) == m and uniq == m
                    elif kappa < uniq:
                        disconnected_better += 1
            rows.append((
                n, m, len(classes), hypothesis_count, corollary_count,
                violations, disconnected_better,
            ))
    return ExperimentReport(
        "theorem2",
        ("users", "messages", "classes", "hypothesis_instances",
         "corollary_instances", "violations", "disconnected_better"),
        tuple(rows),
        "fail" if any(row[5] for row in rows) else "pass",
        {"instances_checked": sum(row[3] for row in rows)},
    )


def experiment_lemma_sweep() -> ExperimentReport:
    """Optimal lengths of the two structure families, cross-checked three ways.

    The scope is path patterns on 3-6 users and cliques on 3-5 members, each
    uncovered and covered, over F_2.

    Path patterns on n users must cost exactly n - 1: the cover scheme
    reaches it, the search confirms it, and the brute-force oracle certifies
    that n - 2 symbols are impossible. Clique instances must cost 1 when a
    covering user exists and 2 otherwise, measured on the clique members.
    """
    rows = []
    for n in range(3, 7):
        inst = regular_tree_instance(n)
        kappa = minrank_bnb(inst).kappa
        plan = tree_cover(inst)
        try:
            minrank_oracle(inst, l_max=n - 2)
            shorter_exists = True
        except OracleExhaustedError:
            shorter_exists = False
        row_ok = kappa == n - 1 and plan.code.length == n - 1 and not shorter_exists
        rows.append(("path", n, "-", kappa, plan.code.length,
                     "pass" if row_ok else "fail"))
    for n in range(3, 6):
        for covered in (False, True):
            inst = biclique_instance(n, covered)
            members = tuple(range(1, n + 1))  # the clique itself, never the cover user
            sub = minrank_bnb(inst, users=members)
            sub_oracle = minrank_oracle(inst, users=members)
            expected = 1 if covered else 2
            plan = biclique_cover(inst)
            full = minrank_bnb(inst).kappa
            row_ok = (
                sub.kappa == expected
                and sub_oracle.kappa == expected
                and full == 2
                and plan.code.length == 2
            )
            rows.append(("clique", n, covered, sub.kappa, plan.code.length,
                         "pass" if row_ok else "fail"))
    return ExperimentReport(
        "lemma-sweep",
        ("family", "size", "covered", "kappa", "cover_length", "status"),
        tuple(rows),
        "pass" if all(row[-1] == "pass" for row in rows) else "fail",
        {},
    )


def compare_schemes(inst: EicpInstance) -> dict:
    """Lengths of both greedy cover schemes next to the exact optimum.

    Both covers are working codes, so the optimum can never exceed either
    length; that is checked (ConsistencyError), not assumed.
    """
    tree = tree_cover(inst).code.length
    biclique = biclique_cover(inst).code.length
    kappa = minrank_bnb(inst).kappa
    if kappa > min(tree, biclique):
        raise ConsistencyError("the optimum exceeds a cover scheme's length")
    return {"tree_length": tree, "biclique_length": biclique, "kappa": kappa}
