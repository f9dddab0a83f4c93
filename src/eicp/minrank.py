"""Exact optimal scalar linear code length via two independent routes.

Route one (minrank_bnb) runs four fixed steps around one record of the
best code found so far: its length, its source and the code. The acyclic
sets give the lower bound LB, stage one sets the record, the tree cover may
shorten it, and stage two closes what is left of the gap to LB. Each
paragraph below justifies one step.

The acyclic sets. A set S of covered users with distinct demands whose "u
holds v's demand" digraph is acyclic forces rank |S| on the coordinates of
S's demands, in every code serving S and in every full stack of rows
(acyclic_sets; the MAIS bound of Bar-Yossef, Birk, Jayram and Kol). The
largest such |S| is the lower bound LB, so a record of length LB is
optimal. Each search stops once its incumbent reaches LB, and cuts a node
once its partial stack or column set, with its rank on some S's demand
coordinates, already forces the incumbent's length.

Stage one minimizes the rank of a stacked matrix with one row per user,
where row i is the demand's unit vector plus a combination of user i's
side-info messages, restricted to rows some other user could actually
transmit. Any maximal independent subset of such rows is itself a working
code, so this rank, the row rank, is an achievable length, and it starts
the record. Its code is read off the rows only if no later step shortens
the record. The row rank can overshoot: the shortest codes sometimes
consist of columns that are not decodable rows for any single user (a user
may need to sum several transmissions, as in the chain schemes of the
covering module).

The tree cover. Any code the checker accepts bounds kappa from above, so
on a single-unicast instance with every user served and the row rank above
LB, the greedy tree cover (covers.tree_cover_bound) is consulted. Its
length is read off its structures, and its code is built and checked, and
replaces the record, only when that length is below the row rank. The
bi-clique cover is never consulted: in its plans every user decodes its
demand from one transmission, which is then one of that user's candidate
rows, so those rows stack to rank at most the plan's length, and the row
rank never exceeds it. The same holds for the tree cover's covered pairs,
lone messages and three-message path patterns; each user of a longer
pattern can take its demand's unit row, so the row rank is at most the
cover's length plus its patterns of four or more messages. A partition of
N messages sends N minus its structures other than lone messages, and with
one pattern of four or more messages, every other such structure holding
two or more, it sends at least ceil(N / 2) + 1. So the cover is consulted
only when the row rank is above that too.

Stage two is a branch and bound over transmittable column subsets. It runs
only while the record's length is above LB, searches strictly below that
length, and a subset it finds replaces the record. It returns the first
minimal serving subset in search order from any incumbent above kappa
(_column_search), so a tree cover changes the answer only where its length
is kappa: whenever kappa is below the cover's length, stage two gives the
answer it gives from the row rank.

Route two (minrank_oracle) exhaustively searches codes of increasing length
and reports the first feasible length. It examines every column subset of
each length, with no pruning at all, on the reference kernel. Its walk
judges each distinct projected column (below) once per user and basis for
the whole call, and reads the verdict back wherever that basis meets that
projection again: a memo, not a cut, since a verdict depends only on the
basis and the projected column. The two routes must agree; the workbench
treats disagreement as a defect, never as data.

Both column searches test decodability by one projection identity. With P_i
the map that zeroes the coordinates of the messages user i holds,
span(C + E_K_i) = span(P_i C) + span(E_K_i), and P_i e_d_i = e_d_i since d_i
is not in K_i; so user i decodes its demand from columns C iff e_d_i lies in
span(P_i C). The oracle projects a column v once per call, as
reduce(side_info_basis(inst, i), v), and stage two as a packed `v & keep_i`.
codes.checked_code, which re-checks every code either route returns, keeps
the definition.

The same identity lets the branch and bound drop every message no served
user demands. Let Q zero those coordinates. Q commutes with each P_i and
fixes each e_d_i, so e_d_i in span(P_i C) gives e_d_i = Q e_d_i in
span(P_i QC): a code C yields the code QC, no longer than C (a column may
vanish). A support only shrinks under Q, so the user sending a column of C
can send its image. So the pool of transmittable columns supported on the
demanded messages, a subset of the full pool with the same smallest sender
for each column, holds a shortest code: kappa is unchanged. acyclic_sets
reads only demands, so LB is unchanged. Q maps each user's candidate rows
to candidate rows over the demanded messages, and each stack to one of no
larger rank, so the stage-one optimum is unchanged too. Nothing is
re-embedded: the projected pool's columns are vectors of the original
instance with zeros on the dropped coordinates. The oracle keeps the full
pool, so it stays the check on this argument.

Both routes accept an optional `users` subset and then answer for the
sub-problem in which only those users must decode while every user of the
instance may still transmit.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass, field

from .codes import (
    EmbeddedIndexCode,
    Transmission,
    checked_code,
    decode_coeffs,
    message_support,
    side_info_basis,
    unit_vector,
)
from .errors import (
    ConsistencyError,
    GuardExceededError,
    InvalidCodeError,
    OracleExhaustedError,
)
from .gf import (
    EchelonBasis,
    GfVector,
    basis_insert,
    in_span,
    inverse_table,
    packed_space,
    reduce,
)
from .covers import tree_cover_bound
from .graphs import BipartiteProblemGraph
from .model import EicpInstance, classify, require_valid

CANDIDATES_PER_USER_LIMIT = 2 ** 20
# acyclic_sets is exact up to this many covered users and greedy above it.
ACYCLIC_EXACT_USERS_LIMIT = 14
# At most this many largest acyclic sets, with distinct demand sets, feed the
# per-node bounds.
ACYCLIC_SETS_KEPT = 5
DEFAULT_NODE_LIMIT = 10 ** 6
DEFAULT_ORACLE_BUDGET = 10 ** 7


@dataclass(frozen=True)
class CandidateSet:
    """All rows user `user` may contribute, ordered by (support size, coords)."""

    user: int
    vectors: tuple[GfVector, ...]


@dataclass(frozen=True)
class MinrankResult:
    """Answer plus artifacts. `witness` is a tuple of GfVector rows, one per
    user of `users`, in the same ascending order.

    The branch-and-bound route fills both `witness` and `code`; each witness
    row is a combination its user can decode (the demand's unit vector plus a
    side-info combination) lying in the span of the code's columns. The
    exhaustive-search route fills only `code` (it never forms per-user rows).
    """

    kappa: int
    users: tuple[int, ...]
    witness: tuple[GfVector, ...] | None
    code: EmbeddedIndexCode | None
    stats: dict = field(default_factory=dict)


def _resolve_users(inst: EicpInstance, users) -> tuple[int, ...]:
    if users is None:
        return tuple(inst.users)
    users = tuple(sorted({_checked_int(u, "user", None) for u in users}))
    if not users:
        raise ValueError("users subset must be non-empty")
    for u in users:
        if u not in inst.users:
            raise ValueError(f"user {u} is not a user of the instance")
    return users


def build_candidates(inst: EicpInstance, users=None,
                     pool: list[tuple[tuple[int, ...], int]] | None = None) -> list[CandidateSet]:
    """Candidate rows per user: demand unit plus side-info combination, transmittable.

    A row is transmittable when its support sits inside some other user's
    side information. The rows are read off the transmission pool (built
    here over every message unless passed in; minrank_bnb searches the pool
    over the demanded messages): user i's rows are the pool directions v with
    v[d_i] != 0 and support inside K_i + {d_i}, scaled so that v[d_i] = 1.
    Such a direction's sender holds d_i, so it is never i itself. The unit
    vector of the demand always survives (someone else holds the demand on a
    valid instance), so no candidate set is empty. These are the rows stage
    one searches (_candidate_rows), each wrapped as a GfVector.
    """
    users = _resolve_users(inst, users)
    if pool is None:
        pool = _transmission_pool(inst, set(inst.messages))
    space = packed_space(inst.q, inst.num_messages)
    columns = [space.pack(coords) for coords, _sender in pool]
    return [CandidateSet(i, tuple(GfVector(inst.q, coords) for coords, _row in rows))
            for i, rows in _candidate_rows(inst, users, pool, columns, space)]


def _candidate_rows(inst: EicpInstance, users, pool, columns: list[int], space):
    """Each user's candidate rows (build_candidates), as (user, [(coords, packed row), ...]).

    User i's rows are read off the packed pool `columns`: a column whose lane
    d_i is nonzero and that is zero outside K_i + {d_i}, scaled by
    space.multiples to a 1 on lane d_i. They are ordered by (support size,
    coords), the coords being the scaled reference coordinates.
    """
    q, inv = inst.q, inverse_table(inst.q)
    for i in users:
        d = inst.demand(i)
        shift = space.width * (d - 1)
        outside = space.mask(m - 1 for m in inst.messages if m != d and m not in inst.knows(i))
        rows = []
        for (coords, _sender), col in zip(pool, columns):
            if (lead := col >> shift & space.lane) and not col & outside:
                scale = inv[lead]
                rows.append((coords if scale == 1 else tuple(scale * c % q for c in coords),
                             space.multiples(col)[scale - 1]))
        yield i, sorted(rows, key=_support_order)


def _checked_int(value, name: str, minimum: int | None = 1) -> int:
    """`value`, an integer limit of at least `minimum` (any integer if None).

    A bool, a non-integer or a value below `minimum` is an input error (ValueError).
    """
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value}")
    return value


class _Budget:
    """The one node counter and guard of every search here.

    `spend` counts a node and raises GuardExceededError with `message`, fixed
    when the budget is built, once the count passes `limit`.
    """

    __slots__ = ("used", "limit", "message")

    def __init__(self, limit: int, message: str):
        self.used = 0
        self.limit = limit
        self.message = message

    def spend(self) -> None:
        self.used += 1
        if self.used > self.limit:
            raise GuardExceededError(self.message)


def _row_search(order: list, space, masks: list[int],
                lower_bound: int, budget: _Budget) -> tuple[int, dict[int, GfVector]]:
    """Smallest stacked rank, and the rows of the first leaf reaching it.

    The starting incumbent is the rank of the first leaf, which stacks each
    user's first candidate (its demand's unit vector). Depth-first in
    search order over each user's packed rows, `order` listing the (user,
    rows) pairs of _candidate_rows. A node with partial stack A is cut once
    rank(A) + LB - rank(A & mask) reaches the incumbent for one of the
    acyclic sets' demand `masks`, LB being `lower_bound`, each set's size: every completion stacks all of a set's rows, whose rank on its
    demand coordinates is LB. The same test, repeated as the incumbent falls,
    stops the walk once the incumbent is down to LB. The stack and its
    projection on each set are packed bases.

    Two sibling cuts drop leaves that an earlier leaf dominates. A row r
    already in span(A) ends its siblings: a later sibling's leaf spans at
    least what r's leaf with the same completion spans. A row that grows A
    is skipped when its new entry matches an earlier sibling's: the entry is
    the row's residue against A scaled to a leading 1, one per span A + r,
    so both subtrees reach the same spans. Only a strictly better leaf is
    recorded, so neither cut, nor the bound, can drop the first leaf in
    search order with the final rank.

    That leaf is recorded as its stack alone. Its rows are each user's first
    candidate, in candidate order, inside its span: an earlier candidate
    inside it would make an earlier leaf of no larger rank. They are returned
    by user, each built as a GfVector from its reference coords.
    """
    insert, reduce = space.insert, space.reduce
    packed = [[row for _coords, row in rows] for _user, rows in order]
    best = ()
    for rows in packed:
        best = insert(best, rows[0])[0]
    incumbent = len(best)
    last = len(order) - 1

    def walk(depth: int, basis: tuple, projections: list) -> None:
        nonlocal incumbent, best
        bound = len(basis) + lower_bound - min(map(len, projections))
        if bound >= incumbent:
            return
        grown = set()  # the new entries of the siblings so far that grew the stack
        for row in packed[depth]:
            budget.spend()
            stack, grew = insert(basis, row)
            if grew:
                if len(stack) >= incumbent or stack[-1] in grown:
                    continue
                grown.add(stack[-1])
            if depth == last:
                # A full stack holds every set's rows, so the bound is its rank.
                incumbent, best = len(stack), stack
            else:
                walk(depth + 1, stack,
                     [insert(p, row & mask)[0] for p, mask in zip(projections, masks)])
            if not grew or bound >= incumbent:
                return

    try:
        walk(0, (), [()] * len(masks))
    finally:
        del walk  # it refers to itself: free it on every exit, not at a full collection
    return incumbent, {user: GfVector(space.q, next(c for c, row in rows if not reduce(best, row)))
                       for user, rows in order}


def extract_code(inst: EicpInstance, witness: tuple[GfVector, ...], users) -> EmbeddedIndexCode:
    """Turn witness rows, one per user of `users` in ascending order, into
    transmissions: the first-seen independent rows.

    The transmitter of a row is the smallest user, other than the row's
    owner, whose side information contains the row's support. The result is
    re-checked by codes.checked_code before it is returned.
    """
    users = _resolve_users(inst, users)
    if len(witness) != len(users):
        raise InvalidCodeError("witness has one row per covered user")
    basis = EchelonBasis.empty(inst.q, inst.num_messages)
    transmissions = []
    for owner, row in zip(users, witness):
        basis, grew = basis_insert(basis, row)
        if not grew:
            continue
        supp = message_support(row)
        sender = next(
            (j for j in inst.users if j != owner and supp <= inst.knows(j)), None
        )
        if sender is None:
            raise InvalidCodeError(
                f"row for user {owner} has support {sorted(supp)} "
                "no other user can transmit"
            )
        transmissions.append(Transmission(sender, row))
    return checked_code(inst, users, transmissions, "the branch and bound's stage one")


def _column_search(inst: EicpInstance, users, columns: list[int], incumbent: int, space,
                   masks: list[int], lower_bound: int, budget: _Budget):
    """Pool indices of the smallest serving column subset strictly below `incumbent`, or None.

    Depth-first over the scalar-normalized transmittable columns, packed in
    pool order in `columns`, extending only with columns independent of those
    already chosen (a dependent column never enlarges any user's decoding
    span, so minimal serving subsets are independent). Decodability is the projection
    identity of the module docstring, P_i c being `c & keep_i`, with keep_i
    the mask of the messages user i does not hold. `pending` carries, for
    each user still unserved, that mask, the packed basis of its projected
    columns and the residue of its demand unit against that basis; a user is
    dropped the moment the residue is zero.

    A node C that does not serve every user is cut once
    |C| + max(1, LB - rank(C & mask)) reaches the best size for one of the
    acyclic sets' demand `masks`, LB being `lower_bound`, each set's size: a
    code serving a set has rank LB on its demand coordinates. The same test,
    repeated as the best size falls, skips the siblings of a serving subset
    and stops the walk once the best size is down to LB. So a serving subset
    is only ever reached when strictly smaller than the best, and the answer
    is the first minimal serving subset in search order (the walk lists
    subsets in lexicographic order of their pool indices).

    Each span is visited once. The walk carries span(C) as its q^|C| packed
    elements and accepts column c at pool index i only if no element c + s,
    s in span(C), is a multiple of a pool column with an index below i; the
    multiples of every pool column are keyed to its index once per call. So
    C is the pool-order greedy basis of its span: a pool column x with a
    smaller index than c_j in span(c_1..c_j) but not in span(c_1..c_j-1)
    would have been taken before c_j. A dependent c fails the same test
    when C is not empty, since c + span(C) = span(C) holds c_1. The rule
    keeps the answer: the greedy basis of a span is lexicographically no
    later than any other basis of it inside the pool and equally small, so
    the first minimal serving subset is the greedy basis of its own span,
    and every prefix of a greedy basis passes the rule.

    A child with |C| + 2 >= best size is a leaf: one short of the best size,
    it is cut unless it serves everyone. Leaves skip the rule (a serving
    leaf that is not canonical has a canonical equivalent earlier in search
    order, which would already have lowered the best size) and are not
    scanned: with i the first pending user, B_i its projected basis and r_i
    its residue, a last column c serves i iff P_i c = a r_i + b for some
    a != 0 and b in span(B_i) = P_i span(C), and such a c is independent of
    C. So the node probes the (q - 1) q^|B_i| targets, at most
    (q - 1) q^(kappa - 2) for a best size kappa, in an index of the pool by
    `col & keep_i`, built the first time user i leads such a node, and tests
    the hits from the node's next pool index on, in ascending order, against
    the other pending users: the first hit serving them all is the leaf a
    scan of the pool would find first.

    A node, counted against `budget`, is a tested column: a child checked
    by the rule or a hit of the last-column lookup. Probes are not counted.
    """
    insert, reduce, add, multiples = space.insert, space.reduce, space.add, space.multiples
    start_pending = [
        (space.mask(m - 1 for m in inst.messages if m not in inst.knows(i)), (),
         space.pack(unit_vector(inst.q, inst.num_messages, inst.demand(i)).coords))
        for i in users
    ]
    best: tuple | None = None
    best_size = incumbent
    # Both indexes are built on first use: small searches never need them.
    first_index: dict[int, int] = {}  # nonzero multiple of a pool column -> its pool index
    projected: dict[int, dict] = {}  # keep mask -> col & keep -> ascending pool indices

    def last_column(pos: int, span: list, pending: list) -> int | None:
        keep, _basis, residue = pending[0]
        index = projected.get(keep)
        if index is None:
            index = projected[keep] = {}
            for idx, col in enumerate(columns):
                index.setdefault(col & keep, []).append(idx)
        projections = {s & keep for s in span}
        hits = []
        for a in multiples(residue):
            for b in projections:
                found = index.get(add(a, b))
                if found:
                    hits += found[bisect_left(found, pos):]
        hits.sort()
        for idx in hits:
            budget.spend()
            col = columns[idx]
            for keep, basis, residue in pending[1:]:
                basis, grew = insert(basis, col & keep)
                if not grew or reduce(basis[-1:], residue):
                    break
            else:
                return idx
        return None

    def walk(pos: int, chosen: list, span: list, projections: list, pending: list) -> None:
        nonlocal best, best_size
        bound = len(chosen) + max(1, lower_bound - min(map(len, projections)))
        for idx in range(pos, len(columns)):
            if bound >= best_size:
                return
            if len(chosen) + 2 >= best_size:
                last = last_column(idx, span, pending)
                if last is not None:
                    best, best_size = (*chosen, last), len(chosen) + 1
                return
            col = columns[idx]
            budget.spend()
            if chosen:
                if not first_index:
                    # pool directions are distinct, so no two columns share a multiple
                    first_index.update((m, i) for i, c in enumerate(columns) for m in multiples(c))
                if any(first_index.get(add(col, s), idx) < idx for s in span):
                    continue
            new_pending = []
            for keep, basis, residue in pending:
                basis, grew = insert(basis, col & keep)
                if grew:
                    residue = reduce(basis[-1:], residue)
                    if not residue:
                        continue
                new_pending.append((keep, basis, residue))
            chosen.append(idx)
            if not new_pending:
                # |chosen| <= bound < best_size: strictly smaller than the best.
                best, best_size = tuple(chosen), len(chosen)
            else:
                walk(idx + 1, chosen, span + [add(m, s) for m in multiples(col) for s in span],
                     [insert(p, col & mask)[0] for p, mask in zip(projections, masks)],
                     new_pending)
            chosen.pop()

    try:
        walk(0, [], [0], [()] * len(masks), start_pending)
    finally:
        del walk  # it refers to itself: free it on every exit, not at a full collection
    return best


def _decode_row(code: EmbeddedIndexCode, inst: EicpInstance, user: int) -> GfVector:
    """The combination of code columns user `user` decodes its demand from.

    Equals the demand's unit vector plus a side-info combination, by the
    decoding identity.
    """
    _combo, correction = decode_coeffs(code, inst, user)
    coords = list(unit_vector(inst.q, inst.num_messages, inst.demand(user)).coords)
    for c, k in zip(correction.coords, sorted(inst.knows(user))):
        coords[k - 1] = (coords[k - 1] + c) % inst.q
    return GfVector(inst.q, tuple(coords))


def acyclic_sets(inst: EicpInstance, users=None) -> list[tuple[int, ...]]:
    """Largest sets of covered users with distinct demands and no knowledge cycle.

    The digraph on a set S has an edge u -> v when u holds v's demand. If it
    is acyclic and the demands are distinct, every code serving S has rank
    |S| on the coordinates of S's demands (the maximum acyclic induced
    subgraph bound of Bar-Yossef, Birk, Jayram and Kol; an embedded code is
    also a centralized one), so |S| is a lower bound on the optimal length.

    Up to ACYCLIC_EXACT_USERS_LIMIT covered users the sets are exact: a set
    qualifies iff some member is a sink (holds no other member's demand) and
    the set without it qualifies, tested over all subsets in increasing
    bitmask order. The bound reads only a set's demands, so of the largest
    sets the first with each demand set is kept, at most ACYCLIC_SETS_KEPT of
    them, in that order. Above the limit one greedy set is returned instead.
    """
    users = _resolve_users(inst, users)
    if len(users) > ACYCLIC_EXACT_USERS_LIMIT:
        return [_greedy_acyclic_set(inst, users)]
    demand_bit = [1 << inst.demand(u) for u in users]
    # holds[a]: bitmask of the positions whose demand users[a] holds
    holds = [sum(1 << b for b, v in enumerate(users) if inst.demand(v) in inst.knows(u))
             for u in users]
    full = 1 << len(users)
    demands = [0] * full  # demand bits of each qualifying set, 0 for the others
    best_size, best = 0, {}  # demand bits -> first largest set with them
    for mask in range(1, full):
        low = mask & -mask
        rest = mask ^ low
        bit = demand_bit[low.bit_length() - 1]
        if (rest and not demands[rest]) or demands[rest] & bit:
            continue
        sinks = mask
        while sinks:
            sink = sinks & -sinks
            if not holds[sink.bit_length() - 1] & mask:
                break
            sinks ^= sink
        if not sinks or (mask != sink and not demands[mask ^ sink]):
            continue
        demands[mask] = demands[rest] | bit
        size = mask.bit_count()
        if size > best_size:
            best_size, best = size, {}
        if size == best_size and len(best) < ACYCLIC_SETS_KEPT:
            best.setdefault(demands[mask], mask)
    return [tuple(u for b, u in enumerate(users) if mask >> b & 1) for mask in best.values()]


def _greedy_acyclic_set(inst: EicpInstance, users) -> tuple[int, ...]:
    """One acyclic set with distinct demands, built sink first.

    Each step takes the remaining user holding the fewest remaining demands
    (the smallest such user on ties) and drops the users whose demand it
    holds or shares, so no pick holds the demand of a later one: each pick
    is a sink of the set made of itself and the picks after it.
    """
    remaining = list(users)
    picked = []
    while remaining:
        demands = {inst.demand(v) for v in remaining}
        u = min(remaining, key=lambda v: (len(inst.knows(v) & demands), v))
        picked.append(u)
        gone = inst.knows(u) | {inst.demand(u)}
        remaining = [v for v in remaining if inst.demand(v) not in gone]
    return tuple(sorted(picked))


def minrank_bnb(inst: EicpInstance, users=None,
                node_limit: int | None = None) -> MinrankResult:
    """Exact optimal code length by two-stage branch and bound.

    The steps and the record of the best code are those of the module
    docstring, which holds their proofs. Stage one seeds its incumbent with
    the uncoded scheme, at the number of distinct demands, users enter its
    search with the smallest candidate sets first (ties in ascending user
    order), and two sibling cuts drop leaves that an earlier leaf dominates
    (_row_search). Stage two visits each span once, through its pool-order
    greedy basis, and finds a last column by lookup instead of scanning the
    pool (_column_search).

    Both stages read one transmission pool, over the messages the served
    users demand (the projection of the module docstring), enumerated once
    per call as reference coords. The packed kernel begins there: each pool
    column is packed once into one `gf.packed_space`, stage one's candidate
    rows are read off the packed columns (_candidate_rows), stage two
    searches the packed columns themselves, and both cut with one packed
    demand mask per acyclic set. GfVector is built only for what leaves the
    solver, the witness rows and the code's columns; the reference kernel
    extracts and checks the answer from them, on the original instance.

    The returned artifacts are deterministic. When stage one's code stands,
    the witness is the first row assignment in search order that attains the
    optimum (_row_search), and the code is read off its independent rows.
    Otherwise the record's code is the code, the first minimal serving
    subset in search order or the tree cover plan's code, and each witness
    row is recomputed from its user's decoding recipe.

    `stats` holds the node counts of the two stages (`nodes_explored`, rows
    tried, and `column_nodes_explored`, columns tested), the candidate
    counts, the uncoded length `incumbent_initial`, `lower_bound` (LB),
    `row_rank_bound` (the stage-one optimum), `column_pool_size` (0 when
    stage two did not run), `messages_projected`, the number of messages no
    served user demands, 0 when none, and `code_source`, the record's
    source: which of "stage one", "tree cover" and "stage two" gave the code. The node counts, the
    candidate counts and `column_pool_size` are those of the projected pool.
    """
    require_valid(inst)
    users = _resolve_users(inst, users)
    limit = DEFAULT_NODE_LIMIT if node_limit is None else _checked_int(node_limit, "node limit")
    demanded = {inst.demand(i) for i in users}
    pool = _transmission_pool(inst, demanded)
    space = packed_space(inst.q, inst.num_messages)
    columns = [space.pack(coords) for coords, _sender in pool]
    candidates = list(_candidate_rows(inst, users, pool, columns, space))
    order = sorted(candidates, key=lambda c: len(c[1]))
    sets = acyclic_sets(inst, users)
    lower_bound = len(sets[0])
    masks = [space.mask(inst.demand(u) - 1 for u in s) for s in sets]
    budget, column_budget = (
        _Budget(limit, f"{search} visited more than {limit} nodes; "
                       "raise node_limit (--node-limit) to keep going")
        for search in ("rank search", "code search"))
    row_rank, choice = _row_search(order, space, masks, lower_bound, budget)
    # The best code so far: its length, its source and the code, which stays
    # None while stage one's stands and is then read off stage one's rows.
    best = (row_rank, "stage one", None)

    # Only a cover with a path pattern of four or more messages can beat the
    # row rank, and such a cover is at least ceil(N / 2) + 1 long.
    if (row_rank > max(lower_bound, (inst.num_messages + 1) // 2 + 1)
            and len(users) == inst.num_users and classify(inst).single_unicast
            and (plan := tree_cover_bound(inst, row_rank)) is not None):
        best = (plan.code.length, "tree cover", plan.code)

    pool_size = 0
    if best[0] > lower_bound:
        pool_size = len(pool)
        found = _column_search(inst, users, columns, best[0], space, masks, lower_bound,
                               column_budget)
        if found is not None:
            sent = (Transmission(pool[k][1], GfVector(inst.q, pool[k][0])) for k in found)
            best = (len(found), "stage two",
                    checked_code(inst, users, sent, "the branch and bound's stage two"))

    kappa, code_source, code = best
    witness = tuple(choice[i] if code is None else _decode_row(code, inst, i) for i in users)
    if code is None:
        code = extract_code(inst, witness, users)
    if code.length != kappa:
        raise ConsistencyError("extracted code length differs from the optimum")
    stats = {
        "nodes_explored": budget.used,
        "candidates_total": sum(len(rows) for _user, rows in candidates),
        "candidates_per_user": {user: len(rows) for user, rows in candidates},
        "product_size": math.prod(len(rows) for _user, rows in candidates),
        "incumbent_initial": len(demanded),
        "lower_bound": lower_bound,
        "row_rank_bound": row_rank,
        "column_nodes_explored": column_budget.used,
        "column_pool_size": pool_size,
        "messages_projected": inst.num_messages - len(demanded),
        "code_source": code_source,
    }
    return MinrankResult(kappa, users, witness, code, stats)


def _transmission_pool(inst: EicpInstance, messages: set[int]) -> list[tuple[tuple, int]]:
    """Every transmittable column supported on `messages`, up to scalar, with its smallest sender.

    Scaling a column never changes what any user can decode, so one
    representative per direction (leading coefficient 1) is exhaustive.
    Sender j combines the messages of K_j inside `messages`, so the pool
    over every message is the full pool and the pool over the demanded
    messages is the projected one of the module docstring. Each column is
    its reference coords, with no GfVector, in (support size, coords) order.
    """
    q = inst.q
    m = inst.num_messages
    inv = inverse_table(q)
    seen: dict[tuple[int, ...], int] = {}
    for j in inst.users:
        side = sorted(inst.knows(j) & messages)
        total = q ** len(side)
        if total > CANDIDATES_PER_USER_LIMIT:
            raise GuardExceededError(
                f"user {j} has {total} transmittable combinations "
                f"(limit {CANDIDATES_PER_USER_LIMIT})"
            )
        for combo in itertools.product(range(q), repeat=len(side)):
            lead = next((c for c in combo if c), 0)
            if not lead:
                continue
            scale = inv[lead]
            coords = [0] * m
            for c, k in zip(combo, side):
                coords[k - 1] = scale * c % q
            seen.setdefault(tuple(coords), j)
    return sorted(seen.items(), key=_support_order)


def _support_order(entry) -> tuple:
    """The sort key of a (coords, ...) pool entry or candidate row: (support size, coords)."""
    return len(entry[0]) - entry[0].count(0), entry[0]


def minrank_oracle(inst: EicpInstance, l_max: int | None = None, users=None,
                   budget: int = DEFAULT_ORACLE_BUDGET) -> MinrankResult:
    """Shortest feasible code by brute force over transmittable column subsets.

    Independent of the branch-and-bound route: no per-user rows, no pruning
    by rank and no packed kernel, just level-by-level feasibility. Each
    length's subsets are walked depth first in itertools.combinations order,
    and every one of them is examined, at most `budget` in all. Decodability
    is the projection identity of the module docstring: each user enters the
    walk at basis state 0, the empty basis, with its demand's unit vector,
    every pool column projected once by reduce(side_info_basis(inst, i), v),
    each projection's id (one id per distinct projected `coords` in the
    call) and its memo tables for the call (see _verdict). A prefix's bases
    are built once for all the subsets that extend it, and each user judges
    a projection id once per basis state in the whole call, at whichever
    node first meets the pair. The winning subset is rebuilt as a code and
    re-verified through the code checker before it is returned. Exhausting
    l_max without an answer raises OracleExhaustedError; with the default
    l_max the plain per-demand scheme guarantees an answer. A bool or
    non-integer l_max or budget, or a budget below 1, is a ValueError.
    """
    require_valid(inst)
    users = _resolve_users(inst, users)
    examined = _Budget(_checked_int(budget, "oracle budget"),
                       f"exhaustive code search examined more than {budget} subsets")
    if l_max is None:
        l_max = len({inst.demand(i) for i in users})
    else:
        _checked_int(l_max, "l_max", minimum=None)
    pool = _transmission_pool(inst, set(inst.messages))
    vectors = [GfVector(inst.q, coords) for coords, _sender in pool]
    empty = EchelonBasis.empty(inst.q, inst.num_messages)
    id_of: dict[tuple[int, ...], int] = {}  # projected coords -> id, shared by equal projections
    start = []
    for i in users:
        side = side_info_basis(inst, i)
        cols = [reduce(side, v) for v in vectors]
        start.append((0, (unit_vector(inst.q, inst.num_messages, inst.demand(i)), cols,
                          [id_of.setdefault(col.coords, len(id_of)) for col in cols],
                          [empty], {empty.rows: 0}, [{}])))

    for length in range(1, l_max + 1):
        found = _first_serving_subset(len(vectors), start, 0, length, examined)
        if found is None:
            continue
        code = checked_code(inst, users, (Transmission(pool[k][1], vectors[k]) for k in found),
                            "the oracle")
        stats = {
            "subsets_examined": examined.used,
            "pool_size": len(pool),
            "l_max": l_max,
        }
        return MinrankResult(length, users, None, code, stats)
    raise OracleExhaustedError(l_max)


def _first_serving_subset(size, pending, first, length, budget):
    """The pool indices of the first `length`-subset of first..size-1 serving every user.

    Subsets are visited in itertools.combinations order, each spent from
    `budget` before it is tested; None if none serves. `pending` lists each
    user the chosen prefix does not serve yet as (state, tables): the id of
    the basis of its projected prefix columns, and the user's tables for the
    call (see _verdict). A user the prefix serves is dropped: spans only
    grow, so every extension serves it too. The list's order is free (a
    subset serves iff it serves every listed user), so a leaf moves the user
    that rejected it to the front.
    """
    if length == 1:
        for idx in range(first, size):
            budget.spend()
            for k, entry in enumerate(pending):
                if not _verdict(entry, idx)[1]:
                    # the next leaf asks this user first
                    if k:
                        pending.insert(0, pending.pop(k))
                    break
            else:
                return (idx,)
        return None
    for idx in range(first, size - length + 1):
        grown = []
        for entry in pending:
            state, served = _verdict(entry, idx)
            if not served:
                grown.append((state, entry[1]))
        found = _first_serving_subset(size, grown, idx + 1, length - 1, budget)
        if found is not None:
            return (idx, *found)
    return None


def _verdict(entry, idx):
    """The pending user `entry`'s state after pool column `idx`, and whether it serves.

    A user's tables hold its demand, projected columns and projection ids,
    then its memo for the call: the list of the bases it has reached, the
    dict from a basis's `rows` to its state id (its index in that list) and
    one verdict dict per state, mapping a projection id to (next state,
    served). basis_insert and in_span judge the first time a state meets a
    projection id, at whatever node; every later meeting reads the memo.
    That is exact: `rows` fixes the basis (each row's pivot is its first
    nonzero), equal ids are equal projected columns, and the verdict depends
    on nothing else. States are ints, so a column that does not grow the
    basis maps its state to itself without a reference cycle.
    """
    state, (demand, cols, ids, bases, state_of, verdicts) = entry
    verdict = verdicts[state].get(ids[idx])
    if verdict is None:
        grown, grew = basis_insert(bases[state], cols[idx])
        after = state_of.setdefault(grown.rows, len(bases))
        if after == len(bases):
            bases.append(grown)
            verdicts.append({})
        verdict = verdicts[state][ids[idx]] = (after, grew and in_span(grown, demand))
    return verdict


def complexity_report(inst: EicpInstance, users=None,
                      candidate_sizes: dict[int, int] | None = None) -> dict:
    """Search-space sizes as exact integers; formulas only, nothing is enumerated.

    The historical whole-matrix formulation enumerates q^(sum |K_i|^2)
    stacked fitting matrices, pairs each with q^(sum |K_i|) interference
    choices, and spends a rank computation on each matrix and each pair. The
    per-user candidate formulation caps the assignment space at q^(sum |K_i|)
    before filtering; `filtered_product` is the space actually searched.
    """
    users = _resolve_users(inst, users)
    q = int(inst.q)
    sizes = [len(inst.knows(i)) for i in users]
    sum_k = sum(sizes)
    sum_k_sq = sum(s * s for s in sizes)
    report = {
        "q": q,
        "users": list(users),
        "sum_side_info": sum_k,
        "sum_side_info_sq": sum_k_sq,
        "old_matrices": q ** sum_k_sq,
        "old_matrix_demand_pairs": q ** (sum_k_sq + sum_k),
        "old_rank_computations": q ** sum_k_sq * (q ** sum_k + 1),
        "new_assignment_space": q ** sum_k,
    }
    if candidate_sizes is not None:
        report["filtered_candidates_per_user"] = dict(candidate_sizes)
        report["filtered_product"] = math.prod(candidate_sizes[i] for i in users)
    return report


def graph_candidate_supports(pg: BipartiteProblemGraph, user: int) -> set[frozenset[int]]:
    """The largest candidate supports, read off the directed problem graph alone.

    For each other user j with an edge to the demand d, the demand plus the
    messages both the user and j hold: the largest support j can send that
    the user can decode from. Over F_2, build_candidates' supports are
    exactly the sets that hold d and lie inside one of these.
    """
    d = pg.user_in(user)[0]
    side = set(pg.user_out(user))
    return {frozenset({d} | (side & set(pg.user_out(j))))
            for j in range(1, pg.num_users + 1)
            if j != user and d in pg.user_out(j)}
