"""Exact optimal scalar linear code length via two independent routes.

Route one (minrank_bnb) works in two stages. The first minimizes the rank of
a stacked matrix with one row per user, where row i is the demand's unit
vector plus a combination of user i's side-info messages, restricted to rows
some other user could actually transmit. Any maximal independent subset of
such rows is itself a working code, so this rank is always an achievable
length, but it can overshoot: the shortest codes sometimes consist of columns
that are not decodable rows for any single user (a user may need to sum
several transmissions, as in the chain schemes of the covering module). The
second stage closes that gap with a branch-and-bound over transmittable
column subsets, pruned by the stage-one bound, and keeps whichever answer is
smaller.

Route two (minrank_oracle) exhaustively searches codes of increasing length
with no pruning at all and reports the first feasible length. The two routes
must agree; the workbench treats disagreement as a defect, never as data.

Both routes accept an optional `users` subset and then answer for the
sub-problem in which only those users must decode while every user of the
instance may still transmit.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field

from .codes import (
    EmbeddedIndexCode,
    Transmission,
    decodable_from,
    decode_coeffs,
    message_support,
    support_violations,
    unit_vector,
    verify_code,
)
from .errors import (
    ConsistencyError,
    GuardExceededError,
    InvalidCodeError,
    OracleExhaustedError,
)
from .gf import EchelonBasis, GfMatrix, GfVector, basis_insert, in_span, inverse_table, packed_space
from .graphs import BipartiteProblemGraph
from .model import EicpInstance, require_valid

CANDIDATES_PER_USER_LIMIT = 2 ** 20
DEFAULT_NODE_LIMIT = 10 ** 6
DEFAULT_ORACLE_BUDGET = 10 ** 7
NODE_LIMIT_ENV = "EICP_GUARD_NODES"


@dataclass(frozen=True)
class CandidateSet:
    """All rows user `user` may contribute, ordered by (support size, coords)."""

    user: int
    vectors: tuple[GfVector, ...]


@dataclass(frozen=True)
class MinrankResult:
    """Answer plus artifacts. `witness` rows follow `users` in ascending order.

    The branch-and-bound route fills both `witness` and `code`; each witness
    row is a combination its user can decode (the demand's unit vector plus a
    side-info combination) lying in the span of the code's columns. The
    exhaustive-search route fills only `code` (it never forms per-user rows).
    """

    kappa: int
    users: tuple[int, ...]
    witness: GfMatrix | None
    code: EmbeddedIndexCode | None
    stats: dict = field(default_factory=dict)


def _resolve_users(inst: EicpInstance, users) -> tuple[int, ...]:
    if users is None:
        return tuple(inst.users)
    users = tuple(sorted(set(users)))
    if not users:
        raise ValueError("users subset must be non-empty")
    for u in users:
        if u not in inst.users:
            raise ValueError(f"user {u} is not a user of the instance")
    return users


def build_candidates(inst: EicpInstance, users=None,
                     pool: list[tuple[GfVector, int]] | None = None) -> list[CandidateSet]:
    """Candidate rows per user: demand unit plus side-info combination, transmittable.

    A row is transmittable when its support sits inside some other user's
    side information. The rows are read off the transmission pool (built
    here unless passed in): user i's rows are the pool directions v with
    v[d_i] != 0 and support inside K_i + {d_i}, scaled so that v[d_i] = 1.
    Such a direction's sender holds d_i, so it is never i itself. The unit
    vector of the demand always survives (someone else holds the demand on a
    valid instance), so no candidate set is empty.
    """
    users = _resolve_users(inst, users)
    if pool is None:
        pool = _transmission_pool(inst)
    q = inst.q
    inv = inverse_table(q)
    supports = [message_support(vec) for vec, _sender in pool]
    out = []
    for i in users:
        d = inst.demand(i)
        allowed = inst.knows(i) | {d}
        vectors = []
        for (vec, _sender), supp in zip(pool, supports):
            lead = vec.coords[d - 1]
            if lead and supp <= allowed:
                scale = inv[lead]
                vectors.append(GfVector(q, tuple(scale * c % q for c in vec.coords)))
        vectors.sort(key=lambda v: (len(message_support(v)), v.coords))
        out.append(CandidateSet(i, tuple(vectors)))
    return out


def _node_limit(node_limit: int | None) -> int:
    if node_limit is not None:
        return node_limit
    env = os.environ.get(NODE_LIMIT_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise GuardExceededError(f"{NODE_LIMIT_ENV} must be an integer, got {env!r}")
    return DEFAULT_NODE_LIMIT


def _search_order(candidate_sets: list[CandidateSet]) -> list[CandidateSet]:
    """Fewest candidates first; users with identical candidate tuples adjacent.

    Within a run of identical candidate sets the search may force choices to
    be nondecreasing: swapping two such users' rows permutes the stacked
    matrix, which never changes its rank.
    """
    first_seen: dict[tuple, int] = {}
    for pos, cs in enumerate(candidate_sets):
        key = tuple(v.coords for v in cs.vectors)
        first_seen.setdefault(key, pos)
    return sorted(
        candidate_sets,
        key=lambda cs: (
            len(cs.vectors),
            first_seen[tuple(v.coords for v in cs.vectors)],
            cs.user,
        ),
    )


class _Budget:
    __slots__ = ("used", "limit", "label")

    def __init__(self, limit: int, label: str = "rank search"):
        self.used = 0
        self.limit = limit
        self.label = label

    def spend(self) -> None:
        self.used += 1
        if self.used > self.limit:
            raise GuardExceededError(
                f"{self.label} visited more than {self.limit} nodes; "
                f"raise {NODE_LIMIT_ENV} to keep going"
            )


def _row_search(order: list[CandidateSet], incumbent: int,
                budget: _Budget) -> tuple[int, dict[int, GfVector] | None]:
    """Smallest stacked rank below `incumbent`, and the rows of a leaf reaching it.

    Depth-first in search order; a subtree is cut once its partial stack
    reaches the incumbent, and the walk stops as soon as the incumbent is
    down to 1. Every leaf that improves the incumbent records its rows,
    so the rows returned are those of the first leaf in search order with
    the final rank; they are None when no leaf beat the starting incumbent.
    The candidate rows are packed once and the stack is a packed basis.
    """
    keys = [tuple(v.coords for v in cs.vectors) for cs in order]
    same_group = [d > 0 and keys[d] == keys[d - 1] for d in range(len(order))]
    first = order[0].vectors[0]
    space = packed_space(first.q, len(first))
    insert = space.insert
    packed = [[space.pack(coords) for coords in key] for key in keys]
    chosen: list[int] = []
    best: dict[int, GfVector] | None = None

    def walk(depth: int, basis: tuple, prev_choice: int) -> None:
        nonlocal incumbent, best
        if len(basis) >= incumbent:
            return
        if depth == len(order):
            incumbent = len(basis)
            best = {cs.user: cs.vectors[idx] for cs, idx in zip(order, chosen)}
            return
        rows = packed[depth]
        for idx in range(prev_choice if same_group[depth] else 0, len(rows)):
            budget.spend()
            chosen.append(idx)
            walk(depth + 1, insert(basis, rows[idx])[0], idx)
            chosen.pop()
            if incumbent <= 1:
                return

    walk(0, (), 0)
    return incumbent, best


def extract_code(inst: EicpInstance, witness: GfMatrix, users) -> EmbeddedIndexCode:
    """Turn a stacked witness into transmissions: first-seen independent rows.

    The transmitter of a row is the smallest user, other than the row's
    owner, whose side information contains the row's support. Every covered
    user can decode from the result; this is checked before returning.
    """
    users = _resolve_users(inst, users)
    if witness.num_rows != len(users):
        raise InvalidCodeError("witness has one row per covered user")
    basis = EchelonBasis.empty(inst.q, inst.num_messages)
    transmissions = []
    for owner, row in zip(users, witness.row_vectors()):
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
    code = EmbeddedIndexCode(inst, tuple(transmissions))
    columns = [t.coeffs for t in code.transmissions]
    if not all(decodable_from(inst, columns, i) for i in users):
        raise ConsistencyError("extracted code fails a covered user")
    return code


def _side_unit_bases(inst: EicpInstance, users) -> dict[int, EchelonBasis]:
    """Per-user echelon basis of the side-info unit vectors."""
    out: dict[int, EchelonBasis] = {}
    for i in users:
        basis = EchelonBasis.empty(inst.q, inst.num_messages)
        for k in sorted(inst.knows(i)):
            basis, _ = basis_insert(basis, unit_vector(inst.q, inst.num_messages, k))
        out[i] = basis
    return out


def _column_search(inst: EicpInstance, users, pool, incumbent: int,
                   budget: _Budget):
    """Smallest serving column subset strictly below `incumbent`, or None.

    Depth-first over the scalar-normalized transmittable columns in pool
    order, extending only with columns independent of those already chosen
    (a dependent column never enlarges any user's decoding span, so minimal
    serving subsets are independent). Decodability is tested by projection:
    with P_i the map zeroing K_i's coordinates, span(C + E_K_i) is
    span(P_i C) + span(E_K_i), so user i decodes from the chosen columns C
    iff P_i e_d_i lies in span(P_i C), and P_i e_d_i = e_d_i since d_i is not
    in K_i. `pending` carries, for each user still unserved, its mask, the
    packed basis of its projected columns and the residue of its demand unit
    against that basis; a user is dropped the moment the residue is zero.
    """
    space = packed_space(inst.q, inst.num_messages)
    insert, reduce = space.insert, space.reduce
    columns = [space.pack(vec.coords) for vec, _sender in pool]
    start_pending = [
        (space.mask(m - 1 for m in inst.messages if m not in inst.knows(i)), (),
         space.pack(unit_vector(inst.q, inst.num_messages, inst.demand(i)).coords))
        for i in users
    ]
    best: tuple | None = None
    best_size = incumbent

    def walk(pos: int, chosen: list, chosen_basis: tuple, pending: list) -> None:
        nonlocal best, best_size
        if not pending:
            best = tuple(chosen)
            best_size = len(chosen)
            return
        if len(chosen) + 1 >= best_size:
            return
        for idx in range(pos, len(columns)):
            col = columns[idx]
            budget.spend()
            new_basis, grew = insert(chosen_basis, col)
            if not grew:
                continue
            new_pending = []
            for keep, basis, residue in pending:
                basis, grew = insert(basis, col & keep)
                if grew:
                    residue = reduce(basis[-1:], residue)
                    if not residue:
                        continue
                new_pending.append((keep, basis, residue))
            chosen.append(pool[idx])
            walk(idx + 1, chosen, new_basis, new_pending)
            chosen.pop()

    walk(0, [], (), start_pending)
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


def minrank_bnb(inst: EicpInstance, users=None,
                node_limit: int | None = None) -> MinrankResult:
    """Exact optimal code length by two-stage branch and bound.

    Stage one minimizes the stacked-matrix rank. The uncoded scheme seeds the
    incumbent at the number of distinct demands, users enter the search with
    the smallest candidate sets first, and a subtree is cut as soon as its
    partial stack already reaches the incumbent.

    Stage two searches transmittable column subsets strictly smaller than the
    stage-one rank; it usually finds nothing, but on chain-like instances the
    shortest code's columns are not decodable rows for any single user and
    only this stage sees them. Both stages read one transmission pool, built
    once per call, and search on the packed kernel `gf.packed_space`; the
    reference kernel only extracts and checks the answer.

    The returned artifacts are deterministic. When stage one stands, the
    witness is the first row assignment in search order that attains the
    optimum, and the code is read off its independent rows. Stage one records
    that assignment as it goes. When nothing beats the uncoded scheme, the
    witness is the first leaf: each user's first candidate is the unit vector
    of its demand, and their stack has the distinct-demand rank. When stage
    two improves on stage one, the winning columns become the code and each
    witness row is recomputed from its user's decoding recipe.
    """
    require_valid(inst)
    users = _resolve_users(inst, users)
    limit = _node_limit(node_limit)
    pool = _transmission_pool(inst)
    candidate_sets = build_candidates(inst, users, pool)
    order = _search_order(candidate_sets)

    start_incumbent = len({inst.demand(i) for i in users})
    product = 1
    for cs in candidate_sets:
        product *= len(cs.vectors)

    q = inst.q
    dim = inst.num_messages
    budget = _Budget(limit)
    row_rank, choice = _row_search(order, start_incumbent, budget)

    column_budget = _Budget(limit, "code search")
    improvement = None
    pool_size = 0
    if row_rank > 1:
        pool_size = len(pool)
        improvement = _column_search(inst, users, pool, row_rank, column_budget)

    if improvement is None:
        kappa = row_rank
        if choice is None:
            choice = {cs.user: cs.vectors[0] for cs in order}
        witness = GfMatrix.from_rows(q, [choice[i].coords for i in users], num_cols=dim)
        code = extract_code(inst, witness, users)
    else:
        kappa = len(improvement)
        code = EmbeddedIndexCode(
            inst, tuple(Transmission(sender, vec) for vec, sender in improvement)
        )
        _recheck_through_code_path(inst, users, code, "the branch and bound's stage two")
        rows = [_decode_row(code, inst, i).coords for i in users]
        witness = GfMatrix.from_rows(q, rows, num_cols=dim)
    if code.length != kappa:
        raise ConsistencyError("extracted code length differs from the optimum")
    stats = {
        "nodes_explored": budget.used,
        "candidates_total": sum(len(cs.vectors) for cs in candidate_sets),
        "candidates_per_user": {cs.user: len(cs.vectors) for cs in candidate_sets},
        "product_size": product,
        "incumbent_initial": start_incumbent,
        "row_rank_bound": row_rank,
        "column_nodes_explored": column_budget.used,
        "column_pool_size": pool_size,
    }
    return MinrankResult(kappa, users, witness, code, stats)


def _transmission_pool(inst: EicpInstance) -> list[tuple[GfVector, int]]:
    """Every transmittable column up to scalar, with its smallest sender.

    Scaling a column never changes what any user can decode, so one
    representative per direction (leading coefficient 1) is exhaustive.
    """
    q = inst.q
    m = inst.num_messages
    inv = inverse_table(q)
    seen: dict[tuple[int, ...], int] = {}
    for j in inst.users:
        side = sorted(inst.knows(j))
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
    pool = [(GfVector(q, coords), sender) for coords, sender in seen.items()]
    pool.sort(key=lambda p: (len(message_support(p[0])), p[0].coords))
    return pool


def minrank_oracle(inst: EicpInstance, l_max: int | None = None, users=None,
                   budget: int = DEFAULT_ORACLE_BUDGET) -> MinrankResult:
    """Shortest feasible code by brute force over transmittable column subsets.

    Independent of the branch-and-bound route: no per-user rows, no pruning
    by rank, just level-by-level feasibility. The winning subset is rebuilt
    as a code and re-verified through the code checker before it is returned.
    Exhausting l_max without an answer raises OracleExhaustedError; with the
    default l_max the plain per-demand scheme guarantees an answer.
    """
    require_valid(inst)
    users = _resolve_users(inst, users)
    if l_max is None:
        l_max = len({inst.demand(i) for i in users})
    pool = _transmission_pool(inst)

    # Per-user bases of the side-info unit vectors, shared across subsets.
    unit_bases = _side_unit_bases(inst, users)
    demand_units = {i: unit_vector(inst.q, inst.num_messages, inst.demand(i)) for i in users}

    examined = 0
    for length in range(1, l_max + 1):
        for subset in itertools.combinations(pool, length):
            examined += 1
            if examined > budget:
                raise GuardExceededError(
                    f"exhaustive code search examined more than {budget} subsets"
                )
            if not _subset_serves(inst, users, unit_bases, demand_units, subset):
                continue
            code = EmbeddedIndexCode(
                inst, tuple(Transmission(sender, vec) for vec, sender in subset)
            )
            _recheck_through_code_path(inst, users, code, "the oracle")
            stats = {
                "subsets_examined": examined,
                "pool_size": len(pool),
                "l_max": l_max,
            }
            return MinrankResult(length, users, None, code, stats)
    raise OracleExhaustedError(l_max)


def _subset_serves(inst, users, unit_bases, demand_units, subset) -> bool:
    for i in users:
        basis = unit_bases[i]
        for vec, _sender in subset:
            basis, _ = basis_insert(basis, vec)
        if not in_span(basis, demand_units[i]):
            return False
    return True


def _recheck_through_code_path(inst, users, code, route: str) -> None:
    """Dual-route confirmation, via the code checker, of a code `route` built."""
    if len(users) == inst.num_users:
        ok = verify_code(code, inst).overall
    else:
        columns = [t.coeffs for t in code.transmissions]
        ok = not support_violations(code) and all(
            decodable_from(inst, columns, i) for i in users
        )
    if not ok:
        raise ConsistencyError(f"{route} accepted a code the checker rejects")


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
        product = 1
        for i in users:
            product *= candidate_sizes[i]
        report["filtered_candidates_per_user"] = dict(candidate_sizes)
        report["filtered_product"] = product
    return report


def graph_candidate_supports(pg: BipartiteProblemGraph, user: int,
                             limit: int = CANDIDATES_PER_USER_LIMIT) -> set[frozenset[int]]:
    """Candidate supports read off the directed problem graph alone.

    A support is the demanded message plus any subset of messages the user
    both holds and shares with a transmitter that also holds the demand. Over
    F_2 these are exactly the supports of build_candidates.
    """
    d = pg.user_in(user)[0]
    side = set(pg.user_out(user))
    out: set[frozenset[int]] = set()
    for j in range(1, pg.num_users + 1):
        if j == user:
            continue
        held = set(pg.user_out(j))
        if d not in held:
            continue
        shared = sorted(side & held)
        if 2 ** len(shared) > limit:
            raise GuardExceededError(
                f"support enumeration for users {user},{j} exceeds {limit}"
            )
        for r in range(len(shared) + 1):
            for combo in itertools.combinations(shared, r):
                out.add(frozenset({d, *combo}))
    return out
