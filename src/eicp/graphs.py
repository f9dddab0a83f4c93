"""Bipartite views of an instance and the structure machinery built on them.

Two graphs matter. The side-information graph joins user i to every message
it holds; it is undirected and drives connectivity arguments and the cover
schemes. The problem graph adds direction: side-info edges point user ->
message, and each demanded message points at its demander.

Structure search and verification use the standard relabeling for instances
where every message is demanded by exactly one user: user i is the demander
of message i. Under that convention a structure's member users are exactly
the demanders of its member messages, while covering users and transmitters
may be any other user, including pure helpers with indices above the message
count.

Side information is read only as the held_masks bitmasks, and a member set
is one int mask, bit m for message m; member tuples appear only in the
StructureWitness values callers see.

The path pattern (the regular tree of the tree cover scheme) is defined
once, by path_pattern_edges; every other module reads it from there.
_find_tree spells out which of its edges close at each slot.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

from .errors import ConsistencyError, GuardExceededError
from .model import EicpInstance

CANONICAL_SIZE_LIMIT = 8

SINGLE_EDGE = "single_edge"
COVERED_PAIR = "covered_pair"
REGULAR_TREE = "regular_tree"
BICLIQUE = "biclique"


def _mask(items) -> int:
    """Bit i for each i in `items`; a repeated item carries, so the mask has fewer bits."""
    return sum(1 << i for i in items)


def _members(mask: int) -> tuple[int, ...]:
    """The set bits of `mask`, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


@dataclass(frozen=True)
class SideInfoBipartiteGraph:
    """Undirected bipartite graph: user i -- message m for every m in adjacency[i-1]."""

    num_users: int
    num_messages: int
    adjacency: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.adjacency) != self.num_users:
            raise ValueError("adjacency must have one entry per user")
        object.__setattr__(
            self, "adjacency", tuple(tuple(sorted(set(k))) for k in self.adjacency)
        )
        for k in self.adjacency:
            if k and not (1 <= k[0] and k[-1] <= self.num_messages):
                raise ValueError("message index out of range in adjacency")

    @cached_property
    def held_masks(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(holds, held_by): the side information as bitmasks, both 1-based.

        Bit m of holds[u] is set when user u holds message m, and bit u of
        held_by[m] when the same edge is there; entry 0 of each is 0.
        """
        holds = (0,) + tuple(_mask(k) for k in self.adjacency)
        held_by = [0] * (self.num_messages + 1)
        for u, k in enumerate(self.adjacency, 1):
            for m in k:
                held_by[m] |= 1 << u
        return holds, tuple(held_by)

    def message_degree(self, message: int) -> int:
        return self.held_masks[1][message].bit_count() if 1 <= message <= self.num_messages else 0


@dataclass(frozen=True)
class BipartiteProblemGraph:
    """Directed view: user -> held message, demanded message -> demanding user."""

    num_users: int
    num_messages: int
    side_adjacency: tuple[tuple[int, ...], ...]
    demands: tuple[int, ...]

    def user_out(self, user: int) -> tuple[int, ...]:
        return self.side_adjacency[user - 1]

    def user_in(self, user: int) -> tuple[int, ...]:
        return (self.demands[user - 1],)

    def message_out(self, message: int) -> tuple[int, ...]:
        return tuple(i for i in range(1, self.num_users + 1) if self.demands[i - 1] == message)

    def message_in(self, message: int) -> tuple[int, ...]:
        return tuple(
            i for i in range(1, self.num_users + 1) if message in self.side_adjacency[i - 1]
        )


@dataclass(frozen=True)
class PrunedGraph:
    """Side-info graph restricted to messages of degree >= 2 (all users kept)."""

    base: SideInfoBipartiteGraph
    x_prime: tuple[int, ...]
    adjacency: tuple[tuple[int, ...], ...]


def build_side_info_graph(inst: EicpInstance) -> SideInfoBipartiteGraph:
    return SideInfoBipartiteGraph(inst.num_users, inst.num_messages, inst.side_info)


def build_problem_graph(inst: EicpInstance) -> BipartiteProblemGraph:
    return BipartiteProblemGraph(
        inst.num_users, inst.num_messages, inst.side_info, inst.demands
    )


def _connected(g: SideInfoBipartiteGraph, messages: int) -> bool:
    """Whether all users and the messages of mask `messages` form one component.

    User 1's held messages grow to a fixpoint: each pass absorbs the messages
    of every user left that holds one already reached.
    """
    held = [messages & k for k in g.held_masks[0][1:]]
    if not held:
        return messages.bit_count() == 1
    reached, rest = held[0], held[1:]
    while rest:
        outside = []
        for k in rest:
            if reached & k:
                reached |= k
            else:
                outside.append(k)
        if len(outside) == len(rest):
            return False
        rest = outside
    return reached == messages


def is_connected(g: SideInfoBipartiteGraph | PrunedGraph) -> bool:
    """Connectivity over ALL vertices (isolated users or messages disconnect)."""
    if isinstance(g, PrunedGraph):
        return _connected(g.base, _mask(g.x_prime))
    return _connected(g, (1 << g.num_messages + 1) - 2)


def prune_degree_one(g: SideInfoBipartiteGraph) -> PrunedGraph:
    """Drop degree <= 1 messages. Message degrees never change, so one pass suffices."""
    x_prime = tuple(
        m for m in range(1, g.num_messages + 1) if g.message_degree(m) >= 2
    )
    keep = _mask(x_prime)
    adjacency = tuple(_members(k & keep) for k in g.held_masks[0][1:])
    return PrunedGraph(g, x_prime, adjacency)


@dataclass(frozen=True)
class StructureWitness:
    """An embedded structure on msg_seq, in slot order; user m demands message m.

    It is covered exactly when it names a covering user (keyword-only).
    """

    kind: str
    msg_seq: tuple[int, ...]
    covering_user: int | None = field(default=None, kw_only=True)

    @property
    def covered(self) -> bool:
        return self.covering_user is not None

    @property
    def size(self) -> int:
        return len(self.msg_seq)

    def to_json_obj(self, demander: dict[int, int]) -> dict:
        """The structure with its slots named as users through `demander`, slot -> user."""
        obj = {
            "kind": self.kind,
            "users": [demander[m] for m in self.msg_seq],
            "messages": list(self.msg_seq),
            "covered": self.covered,
        }
        if self.covering_user is not None:
            obj["covering_user"] = demander[self.covering_user]
        return obj


def path_pattern_edges(n: int) -> list[tuple[int, int]]:
    """The 2n - 1 (slot, message-slot) edges of the size-n path pattern, 0-based.

    Slot j holds message slots j + 1 and j + 2, read mod n, so the last two
    slots wrap onto slot 0 and the last slot holds slot 0 only.
    """
    return [(j, (j + k) % n) for j in range(n) for k in (1, 2) if j + k <= n]


def tree_witness_edges(w: StructureWitness) -> set[tuple[int, int]]:
    """The 2n-1 (user, message) edges a regular-tree witness asserts."""
    seq = w.msg_seq
    return {(seq[slot], seq[held]) for slot, held in path_pattern_edges(w.size)}


def _covering_user(g: SideInfoBipartiteGraph, members: int, among: int = -1) -> int | None:
    """The covering rule: the smallest user of `among` outside `members` holding them all."""
    users = among & ((1 << g.num_users + 1) - 2) & ~members
    for m in _members(members):
        users &= g.held_masks[1][m]
    return (users & -users).bit_length() - 1 if users else None


def _mutually_known(g: SideInfoBipartiteGraph, members: int) -> bool:
    """Whether each member user holds every other member's message."""
    holds = g.held_masks[0]
    return all((holds[m] | 1 << m) & members == members for m in _members(members))


def verify_structure(g: SideInfoBipartiteGraph, w: StructureWitness) -> bool:
    """True iff the witness is well formed and every edge it asserts exists in g.

    Members are distinct, each both a user and a message; a covering user
    meets the covering rule.
    """
    n = w.size
    limit = min(g.num_users, g.num_messages)
    # Members out of range are left out and repeats carry: both leave < n bits.
    members = _mask(m for m in w.msg_seq if 1 <= m <= limit)
    if members.bit_count() != n:
        return False
    cov = w.covering_user
    if cov is not None and not (1 <= cov <= g.num_users
                                and _covering_user(g, members, 1 << cov) == cov):
        return False
    if w.kind == SINGLE_EDGE:
        return n == 1 and w.covered
    if w.kind == COVERED_PAIR:
        return n == 2 and w.covered and _mutually_known(g, members)
    if w.kind == BICLIQUE:
        return n >= 2 and _mutually_known(g, members)
    if w.kind == REGULAR_TREE:
        holds = g.held_masks[0]
        return (n >= 3 and not w.covered
                and all(holds[u] >> m & 1 for u, m in tree_witness_edges(w)))
    return False


def _pack(remaining: int, find) -> tuple[list[StructureWitness], int]:
    """Greedy message-disjoint packing: (taken structures, mask of messages left).

    Takes `find(remaining)` until it returns None, dropping each taken
    structure's messages from `remaining`. Removing messages never creates a
    structure, so the first None is final.
    """
    taken: list[StructureWitness] = []
    while (w := find(remaining)) is not None:
        taken.append(w)
        remaining &= ~_mask(w.msg_seq)
    return taken, remaining


def _find_tree(g: SideInfoBipartiteGraph, pool: int, n: int) -> StructureWitness | None:
    """Regular tree on the lexicographically first size-n sequence from `pool`, or None.

    `pool` is a message mask and n >= 3. The walk fills the slots of
    path_pattern_edges(n) in order, and a slot's candidates are the free
    pool members that close every pattern edge ending at it: any member at
    slot 0, a member s_0 holds at slot 1, and at slot j >= 2 a member both
    s_{j-1} and s_{j-2} hold; at slots n - 2 and n - 1 the member must also
    hold s_0. Candidates are bits of one mask, visited in ascending order,
    so the first sequence found is the lexicographically first.

    Two cuts drop only branches that hold no tree:
      - After slot j <= n - 3 is filled, slots n - 2 and n - 1 are both
        still empty and each needs its own free member holding s_0, so
        fewer than two such members end the branch.
      - When n is the pool size (every exact-cover block), each member fills
        a slot. Every slot but the last holds two other slots, and every
        slot but slot 1 is held by two, so the pool has no tree when two of
        its members each hold fewer than two others, or when two are each
        held by fewer than two others.
    """
    if pool.bit_count() < n:
        return None
    holds, held_by = g.held_masks
    if n == pool.bit_count():
        short_out = short_in = 0
        for m in _members(pool):
            others = pool ^ (1 << m)
            short_out += (holds[m] & others).bit_count() < 2
            short_in += (held_by[m] & others).bit_count() < 2
        if short_out > 1 or short_in > 1:
            return None
    seq = [0] * n
    last, reserve = n - 1, n - 3

    def extend(slot: int, free: int, cands: int, back: int, closers: int) -> bool:
        # back is holds[s_{slot-1}] (every bit at slot 0); closers is
        # held_by[s_0], the members that may fill slots n - 2 and n - 1,
        # and `reserve` is the last slot filled while both are still empty.
        while cands:
            low = cands & -cands
            cands ^= low
            m = low.bit_length() - 1
            seq[slot] = m
            if slot == last:
                return True
            if not slot:
                closers = held_by[m]
            rest = free ^ low
            if slot <= reserve and (rest & closers).bit_count() < 2:
                continue
            nxt = rest & back & holds[m]
            if slot >= reserve:
                nxt &= closers
            if nxt and extend(slot + 1, rest, nxt, holds[m], closers):
                return True
        return False

    found = extend(0, pool, pool, -1, 0)
    del extend  # it refers to itself: free it at return, not at a full collection
    return StructureWitness(REGULAR_TREE, tuple(seq)) if found else None


def _member_pool(g: SideInfoBipartiteGraph) -> int:
    """The mask of the messages that have a member user (their demander)."""
    return (1 << min(g.num_users, g.num_messages) + 1) - 2


def _clique_witness(g: SideInfoBipartiteGraph, members: int) -> StructureWitness | None:
    """Mutual-knowledge witness on the `members` mask, or None if two miss each other.

    One member is a single edge, sent plainly by its covering user; two
    members with a covering user form a covered pair; any other clique is a
    biclique. Each is covered when some outside user holds all of it.
    """
    if not _mutually_known(g, members):
        return None
    cov = _covering_user(g, members)
    size = members.bit_count()
    kind = (SINGLE_EDGE if size == 1
            else COVERED_PAIR if size == 2 and cov is not None else BICLIQUE)
    return StructureWitness(kind, _members(members), covering_user=cov)


def search_regular_trees(g: SideInfoBipartiteGraph) -> list[StructureWitness]:
    """Greedy message-disjoint packing of regular trees on the member messages, largest first."""
    remaining = _member_pool(g)
    found: list[StructureWitness] = []
    for n in range(remaining.bit_count(), 2, -1):
        trees, remaining = _pack(remaining, lambda pool: _find_tree(g, pool, n))
        found += trees
    return found


def find_covered_pairs(g: SideInfoBipartiteGraph) -> list[StructureWitness]:
    """Every covered pair of member messages, lexicographic, smallest cover user."""
    out = []
    for pair in itertools.combinations(_members(_member_pool(g)), 2):
        w = _clique_witness(g, _mask(pair))
        if w is not None and w.kind == COVERED_PAIR:
            out.append(w)
    return out


def _max_clique(g: SideInfoBipartiteGraph, pool: int) -> int:
    """Exact maximum clique in `pool`, lexicographically smallest among the largest.

    Candidates are walked in ascending bit order; m's neighbours are
    holds[m] & held_by[m], the members it holds that also hold it.
    """
    holds, held_by = g.held_masks
    best = best_size = 0

    def grow(clique: int, size: int, cands: int):
        nonlocal best, best_size
        if not cands:
            if size > best_size:
                best, best_size = clique, size
            return
        while cands and size + cands.bit_count() > best_size:
            low = cands & -cands
            cands ^= low
            m = low.bit_length() - 1
            grow(clique | low, size + 1, cands & holds[m] & held_by[m])

    grow(0, 0, pool)
    del grow  # it refers to itself: free it at return, not at a full collection
    return best


def _lone_messages(g: SideInfoBipartiteGraph, left: int) -> list[StructureWitness]:
    """A single edge per message of mask `left`; ConsistencyError if one has no outside holder."""
    found = []
    for m in _members(left):
        w = _clique_witness(g, 1 << m)
        if not w.covered:
            raise ConsistencyError(f"message {m} has no outside holder")
        found.append(w)
    return found


def search_bicliques(g: SideInfoBipartiteGraph) -> list[StructureWitness]:
    """Greedy packing of the member messages by mutual-knowledge cliques, largest first.

    Leftover messages come out as single edges; a message no other user holds
    is a ConsistencyError (cannot happen on valid instances).
    """
    def find(pool: int) -> StructureWitness | None:
        clique = _max_clique(g, pool)
        return _clique_witness(g, clique) if clique.bit_count() >= 2 else None

    found, left = _pack(_member_pool(g), find)
    return found + _lone_messages(g, left)


def canonical_form(g: SideInfoBipartiteGraph) -> bytes:
    """Isomorphism-class key under independent user and message relabelings.

    For each user ordering, a message becomes the bitmask of its holders and
    the multiset of masks is sorted, which fully absorbs the message
    permutation; minimizing over user orderings makes the key exact. An
    ordering weighs each user by 1 << its position, and a message's mask
    sums the weights of the holders in its held_by column.
    """
    if g.num_users > CANONICAL_SIZE_LIMIT or g.num_messages > CANONICAL_SIZE_LIMIT:
        raise GuardExceededError(
            f"canonical_form supports at most {CANONICAL_SIZE_LIMIT} users and messages"
        )
    holders = [_members(col >> 1) for col in g.held_masks[1][1:]]
    best = min(
        sorted([sum([weight[u] for u in col]) for col in holders])
        for weight in itertools.permutations([1 << p for p in range(g.num_users)])
    )
    return bytes([g.num_users, g.num_messages, *best])
