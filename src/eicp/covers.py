"""Achievable schemes built from side-information structures.

Both schemes need one demand per message (a single unicast instance). Users
are relabeled by the message they demand, so structure witnesses can use one
index sequence for users and messages; senders, and the users a plan
reports, are mapped back to the actual user indices. Message sets are
bitmasks, the one member-set form of graphs.

Costs come from one model, _cost, which charges each structure its
transmissions and marks the ones the scheme counts as extra. Every block but
an uncovered clique costs what its size fixes in _size_cost:
  path-pattern cover:   a size-n structure costs n - 1 transmissions and a
                        lone message costs 1 (extra), so length = N - K + K_e
                        with K_e lone messages among K structures (the
                        pattern's edges are graphs.path_pattern_edges);
  mutual-knowledge cover: a clique costs 1, or 2 (extra) uncovered; lone
                        messages are always coverable, so length = K + K_u.

The exact search (_exact_cover) offers only covered cliques. An uncovered
clique of k members costs (2, 1); for any member m, the other k - 1 members,
covered by m, plus m alone cost (2, 0), so an uncovered clique never wins.
Under the tree scheme it skips each block size that, with the floor for the
messages it leaves, costs more than the best partition found, before it
looks for a witness; under the clique scheme that bound never fires.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations

from .codes import EmbeddedIndexCode, Transmission, checked_code, transmissions_json
from .errors import ConsistencyError, GuardExceededError, NotSingleUnicastError
from .gf import GfVector
from .graphs import (
    BICLIQUE,
    REGULAR_TREE,
    SINGLE_EDGE,
    SideInfoBipartiteGraph,
    StructureWitness,
    _clique_witness,
    _find_tree,
    _lone_messages,
    _mask,
    _member_pool,
    _members,
    _pack,
    find_covered_pairs,
    path_pattern_edges,
    search_bicliques,
    verify_structure,
)
from .model import EicpInstance, classify, require_valid

TREE_SCHEME = "tree"
BICLIQUE_SCHEME = "biclique"
EXACT_COVER_LIMIT = 12


def _cost(scheme: str, w: StructureWitness) -> tuple[int, int]:
    """(transmissions, extra) of one structure under the scheme.

    extra is 1 on the K_e or K_u structures of the module docstring.
    """
    if w.kind == BICLIQUE and not w.covered:
        return 2, 1
    return _size_cost(scheme, w.size), int(scheme == TREE_SCHEME and w.kind == SINGLE_EDGE)


def _length(scheme: str, structures) -> int:
    """Transmissions the scheme sends for `structures`."""
    return sum(_cost(scheme, w)[0] for w in structures)


def _size_cost(scheme: str, size: int) -> int:
    """Transmissions of a block of `size` messages, uncovered cliques aside.

    Under the tree scheme a lone message costs 1 and a block of k >= 2
    messages k - 1 (a covered pair when k = 2); under the clique scheme a
    lone message or covered clique costs 1.
    """
    return max(1, size - 1) if scheme == TREE_SCHEME else 1


def _floor(left: int) -> int:
    """Fewest transmissions any exact tree-cover partition of `left` messages sends.

    No tree block beats the covered pair's one transmission per two messages.
    """
    return (left + 1) // 2


@dataclass(frozen=True)
class CoverPlan:
    """A structure partition plus the code it induces.

    The structures index the graph of demand_relabeling, and demander is its
    slot -> user map. counts and flags are read off the structures and the
    code. Construction checks that the code is as long as the cost model
    says (ConsistencyError), so a plan can never misreport its own length.
    """

    scheme: str
    structures: tuple[StructureWitness, ...]
    code: EmbeddedIndexCode
    demander: dict[int, int]

    def __post_init__(self):
        cost = _length(self.scheme, self.structures)
        if self.code.length != cost:
            raise ConsistencyError(
                f"{self.scheme} plan sends {self.code.length} transmissions "
                f"where its structures cost {cost}"
            )

    @property
    def counts(self) -> dict:
        key = "single_edges" if self.scheme == TREE_SCHEME else "uncovered"
        return {
            "messages": self.code.instance.num_messages,
            "structures": len(self.structures),
            "length": self.code.length,
            key: sum(_cost(self.scheme, w)[1] for w in self.structures),
        }

    @property
    def flags(self) -> dict:
        return {
            "task_based": all(_usage_bound(w) <= 2 for w in self.structures),
            "all_covered": all(w.covered for w in self.structures),
        }

    def to_json_obj(self) -> dict:
        return {
            "scheme": self.scheme,
            "length": self.code.length,
            "counts": self.counts,
            "flags": self.flags,
            "structures": [w.to_json_obj(self.demander) for w in self.structures],
            "transmissions": transmissions_json(self.code),
        }


def demand_relabeling(inst: EicpInstance) -> tuple[SideInfoBipartiteGraph, dict[int, int]]:
    """Graph whose user slot m is the demander of message m, plus slot -> user map."""
    require_valid(inst)
    cls = classify(inst)
    if not cls.single_unicast:
        raise NotSingleUnicastError(
            "cover schemes need exactly one demander per message "
            f"(got {inst.num_users} users, {inst.num_messages} messages, "
            f"{len(set(inst.demands))} distinct demands)"
        )
    demander = {inst.demand(i): i for i in inst.users}
    adjacency = tuple(inst.side_info[demander[m] - 1] for m in inst.messages)
    graph = SideInfoBipartiteGraph(inst.num_users, inst.num_messages, adjacency)
    return graph, demander


def _combination(inst: EicpInstance, messages) -> GfVector:
    coords = [0] * inst.num_messages
    for m in messages:
        coords[m - 1] = 1
    return GfVector(inst.q, tuple(coords))


def _tree_transmissions(inst, demander, w: StructureWitness) -> list[Transmission]:
    # Each slot holding two pattern messages sends their sum; the last slot
    # holds one and only listens. n - 1 symbols inside their senders' side info.
    seq = w.msg_seq
    held: list[list[int]] = [[] for _ in seq]
    for slot, msg_slot in path_pattern_edges(len(seq)):
        held[slot].append(seq[msg_slot])
    return [Transmission(demander[seq[slot]], _combination(inst, msgs))
            for slot, msgs in enumerate(held) if len(msgs) == 2]


def _structure_transmissions(inst, demander, w: StructureWitness) -> list[Transmission]:
    if w.covered:
        return [Transmission(demander[w.covering_user], _combination(inst, w.msg_seq))]
    if w.kind == REGULAR_TREE:
        return _tree_transmissions(inst, demander, w)
    # verify_structure passed, so an uncovered structure that is no tree is a biclique.
    first, second = w.msg_seq[0], w.msg_seq[1]
    return [
        Transmission(demander[first], _combination(inst, w.msg_seq[1:])),
        Transmission(demander[second], _combination(inst, (first,))),
    ]


def _usage_bound(w: StructureWitness) -> int:
    """Most transmissions any member combines to decode under the scheme."""
    if w.kind == REGULAR_TREE:
        # The first slot chains backwards until it hits a message it holds.
        return max(1, w.size - 2)
    return 1


def _finish_plan(inst, graph, demander, scheme: str,
                 structures: list[StructureWitness]) -> CoverPlan:
    for w in structures:
        if not verify_structure(graph, w):
            raise ConsistencyError(f"structure {w} does not embed")
    if sorted(m for w in structures for m in w.msg_seq) != list(inst.messages):
        raise ConsistencyError("structures do not partition the messages")
    transmissions = []
    for w in structures:
        transmissions.extend(_structure_transmissions(inst, demander, w))
    code = checked_code(inst, inst.users, transmissions, f"the {scheme} cover")
    return CoverPlan(scheme, tuple(structures), code, demander)


def tree_cover(inst: EicpInstance, exact: bool = False) -> CoverPlan:
    """Partition the messages into path patterns, covered pairs, and lone messages.

    The default greedy pass (_greedy_tree_structures) takes covered pairs
    first (they deliver two messages per transmission), then path patterns
    of ascending size, then lone messages. exact=True searches every
    partition and minimizes the transmission count outright.
    """
    graph, demander = demand_relabeling(inst)
    if exact:
        structures = _exact_cover(inst, graph, TREE_SCHEME)
    else:
        structures = _greedy_tree_structures(graph)
    return _finish_plan(inst, graph, demander, TREE_SCHEME, structures)


def _greedy_tree_structures(graph: SideInfoBipartiteGraph) -> list[StructureWitness]:
    """The greedy tree cover's partition of the messages of `graph` (tree_cover)."""
    pairs = [(_mask(w.msg_seq), w) for w in find_covered_pairs(graph)]
    # The first pair inside what is left is the lexicographically first
    # covered pair there, as pairs is in lexicographic order.
    structures, left = _pack(_member_pool(graph), lambda pool: next(
        (w for pair, w in pairs if pair & pool == pair), None))
    for n in range(3, left.bit_count() + 1):
        trees, left = _pack(left, lambda pool: _find_tree(graph, pool, n))
        structures += trees
    return structures + _lone_messages(graph, left)


def tree_cover_bound(inst: EicpInstance, below: int) -> CoverPlan | None:
    """The greedy tree cover's plan if it sends fewer than `below` transmissions, else None.

    The length is read off the greedy structures first, so the plan's code
    is built and checked only when it is short enough.
    """
    graph, demander = demand_relabeling(inst)
    structures = _greedy_tree_structures(graph)
    if _length(TREE_SCHEME, structures) >= below:
        return None
    return _finish_plan(inst, graph, demander, TREE_SCHEME, structures)


def biclique_cover(inst: EicpInstance, exact: bool = False) -> CoverPlan:
    """Partition the messages into mutual-knowledge cliques and lone messages.

    Greedy takes the largest clique available each round; covered structures
    cost one transmission, uncovered ones two. exact=True minimizes the total
    cost over all partitions.
    """
    graph, demander = demand_relabeling(inst)
    if exact:
        structures = _exact_cover(inst, graph, BICLIQUE_SCHEME)
    else:
        structures = search_bicliques(graph)
    return _finish_plan(inst, graph, demander, BICLIQUE_SCHEME, structures)


# ---------- exact partition search ----------

def _exact_cover(inst, graph, scheme: str) -> list[StructureWitness]:
    """Minimum-cost partition by dynamic programming over message subsets.

    States are bitmasks of still-uncovered messages; the block holding the
    lowest uncovered message is that message joined to each subset of the
    rest, so each partition is visited once. Ties break on (length,
    extra-cost structures, block list); that key is unique per partition, so
    the answer does not depend on the order of the walk.

    A block's cost depends on its size alone (_size_cost). Each state walks
    its blocks by size, smallest first. Under the tree scheme no partition
    of r messages costs less than _floor(r) = ceil(r / 2), the covered
    pair's one transmission per two messages, so the walk skips a size
    whose cost plus the floor for the messages it leaves is strictly above
    the best found so far. Every partition through such a block is longer
    than that best, so it loses on the key's first entry; ties are still
    examined, and the answer is the one the full walk finds. The lone block
    comes first and is never skipped, so every message's lone witness is
    still looked up.

    Under the clique scheme every block costs 1 and the floor of r > 0
    messages would be 1, so the bound never fires there. A block that leaves
    messages is bounded by 1 + 1, and every answer found before the block of
    the whole state (the largest, walked last) leaves messages, so it costs
    at least 2; the whole block's bound, 1 + 0, is above no answer.
    """
    n = inst.num_messages
    if n > EXACT_COVER_LIMIT:
        raise GuardExceededError(
            f"exact cover search supports at most {EXACT_COVER_LIMIT} messages"
        )

    @cache
    def structure(block: int) -> tuple[int, int, tuple[int, ...], StructureWitness] | None:
        """(cost, extra, key, witness) of the scheme's witness on `block`, or None."""
        size = block.bit_count()
        if size == 1:
            w = _lone_messages(graph, block)[0]
        elif scheme == TREE_SCHEME and size > 2:
            w = _find_tree(graph, block, size)
        else:
            # A two-member tree block is a covered pair; both schemes offer
            # only covered cliques (module docstring).
            w = _clique_witness(graph, block)
            w = w if w is not None and w.covered else None
        return None if w is None else (*_cost(scheme, w), tuple(sorted(w.msg_seq)), w)

    holds, held_by = graph.held_masks
    # The messages that may share a block with message m: a clique lies
    # within each member's mutual neighbours, a tree block need not.
    partners = [-1 if scheme == TREE_SCHEME else holds[m] & held_by[m]
                for m in range(n + 1)]

    @cache
    def solve(mask: int) -> tuple[int, int, tuple]:
        if not mask:
            return 0, 0, ()
        low = mask & -mask
        rest_mask = mask ^ low
        left = rest_mask.bit_count()
        others = [1 << m for m in _members(rest_mask & partners[low.bit_length() - 1])]
        answer = None
        for k in range(len(others) + 1):
            # Every size-(k + 1) tree block loses when its cost plus the
            # floor for the messages it leaves is already above the best found.
            if scheme == TREE_SCHEME and answer is not None and (
                    _size_cost(scheme, k + 1) + _floor(left - k) > answer[0]):
                continue
            for sub in map(sum, combinations(others, k)):
                found = structure(low | sub)
                if found is None:
                    continue
                cost, extra, key, w = found
                rest = solve(rest_mask ^ sub)
                # The new block holds the lowest message, so its key sorts first.
                cand = (cost + rest[0], extra + rest[1], ((key, w),) + rest[2])
                if answer is None or cand < answer:
                    answer = cand
        return answer

    blocks = solve(_member_pool(graph))[2]
    del solve  # it refers to itself: drop its caches now, not at a full collection
    return [w for _key, w in blocks]

