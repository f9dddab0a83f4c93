"""Exact arithmetic and linear algebra over prime fields F_q, 2 <= q <= 251.

Two representations live here, with one echelon rule for their bases: rows
in insertion order, each with a leading 1 on its pivot (its first nonzero
coordinate) and zero on the pivots of the rows before it, so reducing a
vector against the rows in order clears every pivot.

The reference one (GfVector, GfMatrix, EchelonBasis, basis_insert, reduce,
in_span, and rank, a separate full elimination) is immutable and
deterministic. It is the API and the independent check route (the oracle,
the code checker, the decoder, the covers). It validates where a value
enters: GfVector and GfMatrix check q and reduce their entries, and
EchelonBasis.empty checks q. A basis basis_insert grows inherits its field,
and an EchelonBasis built directly trusts its q as it trusts its rows and
pivots.

The packed one (packed_space) holds each vector in one Python int and does
no validation per operation. It is the kernel of the two search loops of
the branch and bound, which pack their rows once per call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from operator import itemgetter

from .errors import FieldError

MAX_FIELD_ORDER = 251

_PRIMES = frozenset(
    p for p in range(2, MAX_FIELD_ORDER + 1)
    if all(p % d for d in range(2, int(p ** 0.5) + 1))
)


class FieldOrder(int):
    """A validated prime field order. Behaves as a plain int.

    A FieldOrder passed in is returned as is: it was validated when made.
    """

    def __new__(cls, q) -> "FieldOrder":
        if type(q) is cls:
            return q
        q = int(q)
        if q > MAX_FIELD_ORDER:
            raise FieldError(f"field order {q} exceeds the supported maximum {MAX_FIELD_ORDER}")
        if q not in _PRIMES:
            raise FieldError(f"field order must be prime, got {q}")
        return super().__new__(cls, q)

    def __repr__(self) -> str:
        return f"FieldOrder({int(self)})"


def field_inv(a: int, q: int) -> int:
    """Multiplicative inverse of a in F_q. Raises ZeroDivisionError for a == 0 mod q."""
    q = FieldOrder(q)
    a %= q
    if a == 0:
        raise ZeroDivisionError(f"0 has no multiplicative inverse in F_{int(q)}")
    return inverse_table(q)[a]


@cache
def inverse_table(q: int) -> tuple[int, ...]:
    """inv[a] = a^-1 in F_q (Fermat), inv[0] a placeholder; built once per field."""
    if type(q) is not int:
        # cache keys a FieldOrder apart from the int it equals: share one table
        return inverse_table(int(q))
    return (0,) + tuple(pow(a, q - 2, q) for a in range(1, q))


@dataclass(frozen=True)
class GfVector:
    """Immutable vector over F_q; coords are canonical representatives in [0, q)."""

    q: FieldOrder
    coords: tuple[int, ...]

    def __post_init__(self):
        q = FieldOrder(self.q)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "coords", tuple([int(c) % q for c in self.coords]))

    def __len__(self) -> int:
        return len(self.coords)

    def __add__(self, other: "GfVector") -> "GfVector":
        if self.q != other.q or len(self.coords) != len(other.coords):
            raise ValueError("vectors live in different spaces")
        return GfVector(self.q, tuple((a + b) % self.q for a, b in zip(self.coords, other.coords)))

    def scale(self, a: int) -> "GfVector":
        return GfVector(self.q, tuple(a * c for c in self.coords))  # reduced mod q on creation

    def is_zero(self) -> bool:
        return not any(self.coords)


@dataclass(frozen=True)
class GfMatrix:
    """Immutable row-major matrix over F_q. num_cols is explicit so empty matrices keep shape."""

    q: FieldOrder
    rows: tuple[tuple[int, ...], ...]
    num_cols: int

    def __post_init__(self):
        q = FieldOrder(self.q)
        object.__setattr__(self, "q", q)
        rows = tuple(tuple(int(c) % q for c in row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        for row in rows:
            if len(row) != self.num_cols:
                raise ValueError(f"row of length {len(row)} in a {self.num_cols}-column matrix")

    @classmethod
    def from_rows(cls, q: int, rows, num_cols: int | None = None) -> "GfMatrix":
        rows = tuple(tuple(r) for r in rows)
        if num_cols is None:
            if not rows:
                raise ValueError("num_cols is required for a matrix with no rows")
            num_cols = len(rows[0])
        return cls(q, rows, num_cols)

    @classmethod
    def identity(cls, q: int, n: int) -> "GfMatrix":
        return cls(q, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)), n)

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.rows)

    def transpose(self) -> "GfMatrix":
        return GfMatrix(self.q, tuple(self.column(j) for j in range(self.num_cols)), self.num_rows)

    def row_vectors(self) -> list[GfVector]:
        return [GfVector(self.q, row) for row in self.rows]


def rank(m: GfMatrix) -> int:
    """Rank over F_q by forward elimination with normalized pivots.

    Pivot choice: first nonzero entry left-to-right, top-to-bottom.
    """
    q = m.q
    work = [list(row) for row in m.rows]
    n_rows, n_cols = len(work), m.num_cols
    r = 0
    for col in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if work[i][col]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = field_inv(work[r][col], q)
        work[r] = [(inv * c) % q for c in work[r]]
        prow = work[r]
        for i in range(r + 1, n_rows):
            f = work[i][col]
            if f:
                work[i] = [(c - f * p) % q for c, p in zip(work[i], prow)]
        r += 1
        if r == n_rows:
            break
    return r


def _reduce_against(basis: "EchelonBasis", v: GfVector) -> list[int]:
    # v minus multiples of the rows, in insertion order, zero on every pivot:
    # each row is zero on the pivots before it, so no step refills one.
    if v.q != basis.q or len(v.coords) != basis.dim:
        raise ValueError("vector does not match basis field or dimension")
    q = basis.q
    vec = list(v.coords)
    for row, p in zip(basis.rows, basis.pivots):
        f = vec[p]
        if f:
            vec = [(c - f * r) % q for c, r in zip(vec, row)]
    return vec


@dataclass(frozen=True)
class EchelonBasis:
    """Echelon basis of a subspace of F_q^dim, rows in insertion order.

    Row i carries a leading 1 on pivots[i], its first nonzero coordinate, and
    is zero on pivots[0..i-1]; it may be nonzero on the pivots of later rows.
    So the rows depend on the insertion order; the span and the rank do not.
    """

    q: FieldOrder
    dim: int
    rows: tuple[tuple[int, ...], ...] = field(default=())
    pivots: tuple[int, ...] = field(default=())

    @classmethod
    def empty(cls, q: int, dim: int) -> "EchelonBasis":
        return cls(FieldOrder(q), dim)

    @property
    def rank(self) -> int:
        return len(self.rows)


def basis_insert(basis: EchelonBasis, v: GfVector) -> tuple[EchelonBasis, bool]:
    """Insert v; returns (new_basis, grew). grew is False iff v was already in the span."""
    residue = _reduce_against(basis, v)
    for pivot, lead in enumerate(residue):
        if lead:
            break
    else:
        return basis, False
    q = basis.q
    if lead == 1:
        row = tuple(residue)
    else:
        inv = inverse_table(q)[lead]
        row = tuple([(inv * c) % q for c in residue])
    return EchelonBasis(q, basis.dim, basis.rows + (row,), basis.pivots + (pivot,)), True


def reduce(basis: EchelonBasis, v: GfVector) -> GfVector:
    """The residue of v, as PackedSpace.reduce: zero on every pivot, zero iff v is in the span."""
    return GfVector(basis.q, tuple(_reduce_against(basis, v)))


def in_span(basis: EchelonBasis, v: GfVector) -> bool:
    """True iff v lies in the span of the basis."""
    return not any(_reduce_against(basis, v))


class PackedSpace:
    """F_q^dim with every vector packed into one int: the search-loop kernel.

    Coordinate k (0-based) occupies `width` bits from bit k * width. A basis
    is a tuple of entries kept by the echelon rule above, so
    reduce(basis + (e,), v) equals reduce((e,), reduce(basis, v)). Subclasses
    fix the entry layout and the lanewise sum `add(u, v)` of two packed
    vectors.
    """

    width = 1

    def __init__(self, q: int, dim: int):
        self.q = int(FieldOrder(q))
        self.dim = dim
        self.lane = (1 << self.width) - 1

    def pack(self, coords) -> int:
        if len(coords) != self.dim:
            raise ValueError(f"{len(coords)} coordinates for a {self.dim}-dimensional space")
        return sum(int(c) % self.q << (self.width * k) for k, c in enumerate(coords))

    def mask(self, coords) -> int:
        """Mask covering the 0-based coordinates `coords`; `v & mask` keeps only them."""
        return sum(self.lane << (self.width * k) for k in coords)

    def insert(self, basis: tuple, v: int) -> tuple[tuple, bool]:
        """(basis with v appended if independent, grew), as basis_insert."""
        w = self.reduce(basis, v)
        if not w:
            return basis, False
        return basis + (self.entry(w),), True

    def multiples(self, v: int) -> list[int]:
        """[v, 2v, ..., (q - 1)v], as GfVector.scale: for a nonzero v, its nonzero multiples."""
        add = self.add
        out = [v]
        for _ in range(self.q - 2):
            out.append(add(out[-1], v))
        return out


class _XorSpace(PackedSpace):
    """q = 2: bit k is coordinate k and addition is XOR.

    An entry is (pivot bit, row), the pivot being the row's lowest set bit.
    """

    def add(self, u: int, v: int) -> int:
        return u ^ v

    def reduce(self, basis: tuple, v: int) -> int:
        for pivot, row in basis:
            if v & pivot:
                v ^= row
        return v

    def entry(self, w: int) -> tuple:
        return w & -w, w


@cache
def _neg_pickers(q: int) -> tuple:
    # _neg_pickers(q)[a] picks negs out of the multiples (0, w, 2w, ...) of a
    # row w whose pivot lane holds a: negs[f] = -f * a^-1 * w.
    inv = inverse_table(q)
    return (None,) + tuple(
        itemgetter(*[(q - f) * inv[a] % q for f in range(q)]) for a in range(1, q)
    )


class _LaneSpace(PackedSpace):
    """Odd q: W-bit lanes, W the bit length of 2q - 2 plus a guard bit.

    Two lanes below q sum to at most 2q - 2, which fits below the guard bit,
    so integer addition adds lanewise with no carry between lanes. Adding
    2^(W-1) - q to every lane then sets the guard bit exactly of the lanes
    that reached q, and q is subtracted from those. An entry is (pivot shift,
    negs), negs[f] being -f times the row scaled to a 1 on its pivot lane.
    """

    def __init__(self, q: int, dim: int):
        self.width = (2 * q - 2).bit_length() + 1
        super().__init__(q, dim)
        self._guard = self.width - 1
        self._high = sum(1 << (self._guard + self.width * k) for k in range(dim))
        self._offset = sum(((1 << self._guard) - q) << (self.width * k) for k in range(dim))
        self._negs = _neg_pickers(self.q)

    def add(self, u: int, v: int) -> int:
        s = u + v
        return s - (((s + self._offset) & self._high) >> self._guard) * self.q

    def reduce(self, basis: tuple, v: int) -> int:
        lane, offset, high, guard, q = self.lane, self._offset, self._high, self._guard, self.q
        for shift, negs in basis:
            f = (v >> shift) & lane
            if f:
                s = v + negs[f]
                v = s - (((s + offset) & high) >> guard) * q
        return v

    def entry(self, w: int) -> tuple:
        shift = ((w & -w).bit_length() - 1) // self.width * self.width
        return shift, self._negs[(w >> shift) & self.lane]([0, *self.multiples(w)])


def packed_space(q: int, dim: int) -> PackedSpace:
    """The packed kernel for F_q^dim: XOR bits at q = 2, guarded lanes otherwise."""
    return _XorSpace(q, dim) if q == 2 else _LaneSpace(q, dim)
