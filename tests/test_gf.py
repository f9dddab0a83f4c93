"""Field arithmetic, rank, and echelon-basis behavior."""

import random

import pytest

from eicp.errors import FieldError
from eicp.gf import (
    EchelonBasis,
    FieldOrder,
    GfMatrix,
    GfVector,
    basis_insert,
    field_inv,
    in_span,
    inverse_table,
    packed_space,
    rank,
    reduce,
)


def test_field_order_accepts_primes():
    for q in (2, 3, 5, 7, 11, 251):
        assert FieldOrder(q) == q


def test_field_order_rejects_composites_and_out_of_range():
    for bad in (0, 1, 4, 6, 9, 252, 1024):
        with pytest.raises(FieldError):
            FieldOrder(bad)


def test_field_order_passes_a_field_order_through():
    q = FieldOrder(7)
    assert FieldOrder(q) is q
    assert EchelonBasis.empty(q, 3).q is q
    assert GfVector(q, (1, 2)).q is q


def test_basis_checks_its_field_once():
    # EchelonBasis.empty is the checked constructor; a grown basis keeps the
    # field object of the basis it grew from.
    with pytest.raises(FieldError, match="prime"):
        EchelonBasis.empty(4, 2)
    b = EchelonBasis.empty(5, 3)
    grown, grew = basis_insert(b, GfVector(5, (0, 2, 1)))
    assert grew and grown.q is b.q


def test_field_inv_examples():
    assert field_inv(1, 2) == 1
    assert field_inv(2, 5) == 3
    with pytest.raises(ZeroDivisionError):
        field_inv(0, 7)


def test_field_inv_is_total_on_nonzero_elements():
    for q in (2, 3, 5, 7, 13):
        for a in range(1, q):
            assert (a * field_inv(a, q)) % q == 1


def test_vector_coords_reduced_mod_q():
    v = GfVector(3, (4, -1, 3))
    assert v.coords == (1, 2, 0)


def test_vector_add_scale():
    a = GfVector(5, (1, 2, 3))
    b = GfVector(5, (4, 4, 4))
    assert (a + b).coords == (0, 1, 2)
    assert a.scale(2).coords == (2, 4, 1)
    assert GfVector(5, (0, 0, 0)).is_zero()
    assert not a.is_zero()


def test_rank_identity():
    assert rank(GfMatrix.identity(2, 4)) == 4


def test_rank_repeated_row():
    m = GfMatrix.from_rows(2, [(1, 1, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    assert rank(m) == 3


def test_rank_zero_matrix():
    m = GfMatrix.from_rows(3, [(0,) * 5] * 3)
    assert rank(m) == 0


def test_rank_equals_transpose_rank_random():
    rng = random.Random(11)
    for _ in range(200):
        q = rng.choice((2, 3, 5))
        r = rng.randint(1, 6)
        c = rng.randint(1, 6)
        m = GfMatrix.from_rows(
            q, [tuple(rng.randrange(q) for _ in range(c)) for _ in range(r)]
        )
        assert rank(m) == rank(m.transpose())


def test_rank_invariant_under_row_scaling():
    rng = random.Random(12)
    for _ in range(200):
        q = rng.choice((3, 5, 7))
        rows = [tuple(rng.randrange(q) for _ in range(5)) for _ in range(4)]
        m = GfMatrix.from_rows(q, rows)
        i = rng.randrange(4)
        a = rng.randrange(1, q)
        scaled = list(rows)
        scaled[i] = tuple((a * x) % q for x in rows[i])
        assert rank(m) == rank(GfMatrix.from_rows(q, scaled))


def test_basis_insert_tracks_rank_of_stacked_matrix():
    rng = random.Random(13)
    for _ in range(200):
        q = rng.choice((2, 3))
        dim = rng.randint(1, 6)
        vecs = [
            GfVector(q, tuple(rng.randrange(q) for _ in range(dim)))
            for _ in range(rng.randint(0, 8))
        ]
        basis = EchelonBasis.empty(q, dim)
        for v in vecs:
            basis, _ = basis_insert(basis, v)
        stacked = GfMatrix.from_rows(q, [v.coords for v in vecs], num_cols=dim)
        assert basis.rank == rank(stacked)


def test_basis_insert_idempotent_on_span():
    rng = random.Random(14)
    for _ in range(100):
        q = 2
        v = GfVector(q, tuple(rng.randrange(q) for _ in range(5)))
        basis = EchelonBasis.empty(q, 5)
        basis, first = basis_insert(basis, v)
        again, second = basis_insert(basis, v)
        assert not second
        assert again.rank == basis.rank


def test_basis_insert_dependency_example():
    q = 2
    basis = EchelonBasis.empty(q, 4)
    basis, grew = basis_insert(basis, GfVector(q, (1, 1, 0, 0)))
    assert grew and basis.rank == 1
    basis, grew = basis_insert(basis, GfVector(q, (1, 0, 0, 0)))
    assert grew and basis.rank == 2
    basis, grew = basis_insert(basis, GfVector(q, (0, 1, 0, 0)))
    assert not grew and basis.rank == 2


def test_basis_insert_appends_the_normalized_residue():
    # Earlier rows are neither cleared on the new pivot nor re-sorted.
    basis = EchelonBasis.empty(3, 3)
    for v in ((0, 2, 1), (1, 1, 0)):
        basis, _ = basis_insert(basis, GfVector(3, v))
    assert basis.pivots == (1, 0)
    assert basis.rows == ((0, 1, 2), (1, 0, 1))
    assert reduce(basis, GfVector(3, (2, 2, 0))).coords == (0, 0, 0)
    assert reduce(basis, GfVector(3, (0, 0, 1))).coords == (0, 0, 1)


def test_basis_insert_first_stacked_fixture():
    rows = [(1, 1, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    basis = EchelonBasis.empty(2, 4)
    for r in rows:
        basis, _ = basis_insert(basis, GfVector(2, r))
    assert basis.rank == 3
    assert basis.rank == rank(GfMatrix.from_rows(2, rows))


def test_in_span_examples():
    q = 2
    basis = EchelonBasis.empty(q, 4)
    for v in ((1, 0, 0, 0), (0, 1, 0, 0)):
        basis, _ = basis_insert(basis, GfVector(q, v))
    assert in_span(basis, GfVector(q, (0, 0, 0, 0)))
    assert in_span(basis, GfVector(q, (1, 1, 0, 0)))
    assert not in_span(basis, GfVector(q, (0, 0, 1, 0)))


def test_matrix_requires_consistent_shapes():
    with pytest.raises(ValueError):
        GfMatrix.from_rows(2, [(1, 0), (1, 0, 1)])


def test_vector_field_mismatch_rejected():
    a = GfVector(2, (1, 0))
    b = GfVector(3, (1, 0))
    with pytest.raises(ValueError):
        _ = a + b


def _differential_stack(rng, q, dim):
    """Rows mixing random vectors, zero vectors, repeats and in-span combinations;
    every third stack starts with a full-rank block."""
    stack = []
    if rng.random() < 1 / 3:
        rows = [[int(i == j) for j in range(dim)] for i in range(dim)]
        for _ in range(3 * dim):
            i, j = rng.sample(range(dim), 2) if dim > 1 else (0, 0)
            if i != j:
                a = rng.randrange(q)
                rows[i] = [(x + a * y) % q for x, y in zip(rows[i], rows[j])]
        rng.shuffle(rows)
        stack.extend(tuple(r) for r in rows)
    for _ in range(rng.randint(1, 12)):
        kind = rng.random()
        if kind < 0.1 or not stack and kind < 0.4:
            stack.append((0,) * dim)
        elif kind < 0.25 and stack:
            stack.append(rng.choice(stack))
        elif kind < 0.4 and stack:
            a, b = rng.choice(stack), rng.choice(stack)
            f, g = rng.randrange(q), rng.randrange(q)
            stack.append(tuple((f * x + g * y) % q for x, y in zip(a, b)))
        else:
            density = rng.choice((0.2, 0.5, 1.0))
            stack.append(tuple(rng.randrange(q) if rng.random() < density else 0
                               for _ in range(dim)))
    return stack


@pytest.mark.parametrize("q", (2, 3, 5, 7, 251))
def test_packed_space_agrees_with_reference_kernel(q):
    rng = random.Random(1000 + q)
    for trial in range(120):
        dim = 1 + trial % 12
        space = packed_space(q, dim)
        stack = _differential_stack(rng, q, dim)
        ref, packed = EchelonBasis.empty(q, dim), ()
        for coords in stack:
            v, w = GfVector(q, coords), space.pack(coords)
            assert (space.reduce(packed, w) == 0) == in_span(ref, v)
            before = packed
            ref, grew = basis_insert(ref, v)
            packed, packed_grew = space.insert(packed, w)
            assert packed_grew == grew and len(packed) == ref.rank
            if grew:
                # The residue update of the column search: reducing against a
                # grown basis is reducing the old residue against its last entry.
                probe = space.pack([rng.randrange(q) for _ in range(dim)])
                assert (space.reduce(packed, probe)
                        == space.reduce(packed[-1:], space.reduce(before, probe)))
        assert len(packed) == rank(GfMatrix.from_rows(q, stack, num_cols=dim))
        # The echelon rule: a leading 1 on each pivot, zero on earlier pivots.
        for i, (row, p) in enumerate(zip(ref.rows, ref.pivots)):
            assert row[p] == 1 and not any(row[:p])
            assert not any(row[e] for e in ref.pivots[:i])
        for _ in range(4):
            coords = tuple(rng.randrange(q) for _ in range(dim))
            residue = space.reduce(packed, space.pack(coords))
            assert (residue == 0) == in_span(ref, GfVector(q, coords))
            assert residue == space.pack(reduce(ref, GfVector(q, coords)).coords)
        keep = {k for k in range(dim) if rng.random() < 0.5}
        coords = tuple(rng.randrange(q) for _ in range(dim))
        masked = tuple(c if k in keep else 0 for k, c in enumerate(coords))
        assert space.pack(coords) & space.mask(keep) == space.pack(masked)


@pytest.mark.parametrize("q", (2, 3, 5, 7))
def test_packed_add_agrees_with_vector_add(q):
    rng = random.Random(2000 + q)
    for trial in range(60):
        dim = 1 + trial % 12
        space = packed_space(q, dim)
        pairs = [([q - 1] * dim, [q - 1] * dim), ([0] * dim, [q - 1] * dim)]
        pairs += [([rng.randrange(q) for _ in range(dim)], [rng.randrange(q) for _ in range(dim)])
                  for _ in range(4)]
        for u, v in pairs:
            total = GfVector(q, u) + GfVector(q, v)
            assert space.add(space.pack(u), space.pack(v)) == space.pack(total.coords)


@pytest.mark.parametrize("q", (2, 3, 5, 7))
def test_packed_multiples_agree_with_vector_scale(q):
    rng = random.Random(4000 + q)
    for trial in range(60):
        dim = 1 + trial % 12
        space = packed_space(q, dim)
        vectors = [[q - 1] * dim, [1] + [0] * (dim - 1)]
        vectors += [[rng.randrange(q) for _ in range(dim)] for _ in range(4)]
        for coords in vectors:
            v = GfVector(q, coords)
            assert space.multiples(space.pack(coords)) == [
                space.pack(v.scale(a).coords) for a in range(1, q)]


@pytest.mark.parametrize("q", (2, 3, 5, 7))
def test_reductions_against_a_sub_basis_carry_over(q):
    # The echelon rule on the reference kernel, for a basis b grown from s by
    # basis_insert: the rows of s come first in b, and a vector reduced
    # against s is zero on their pivots, so reduce(b, reduce(s, v)) is
    # reduce(b, v).
    rng = random.Random(3000 + q)
    for trial in range(80):
        dim = 1 + trial % 10
        stack = _differential_stack(rng, q, dim)
        cut = rng.randrange(len(stack) + 1)
        s = EchelonBasis.empty(q, dim)
        for coords in stack[:cut]:
            s, _ = basis_insert(s, GfVector(q, coords))
        b = s
        for coords in stack[cut:]:
            b, _ = basis_insert(b, GfVector(q, coords))
        assert b.rows[:s.rank] == s.rows
        probes = [GfVector(q, coords) for coords in stack]
        probes += [GfVector(q, [rng.randrange(q) for _ in range(dim)]) for _ in range(4)]
        for v in probes:
            assert reduce(b, reduce(s, v)) == reduce(b, v)
            assert basis_insert(b, reduce(s, v)) == basis_insert(b, v)
            assert in_span(b, reduce(b, v)) == in_span(b, v)
            assert in_span(b, reduce(s, v)) == in_span(b, v)


def test_packed_lanes_hold_the_largest_sums():
    # At q = 251, reducing (1, 250, ..., 250) by the all-ones row adds 250 to
    # every lane: lane 0 reaches q and the others 2q - 2 = 500.
    q, dim = 251, 12
    space = packed_space(q, dim)
    basis, grew = space.insert((), space.pack([1] * dim))
    assert grew
    v = space.pack([1] + [q - 1] * (dim - 1))
    assert space.reduce(basis, v) == space.pack([0] + [q - 2] * (dim - 1))
    assert space.reduce(basis, space.pack([q - 1] * dim)) == 0


def test_field_tables_are_built_once_per_field():
    for q in (2, 3, 5, 251):
        inv = inverse_table(q)
        assert all(a * inv[a] % q == 1 for a in range(1, q))
        assert inverse_table(FieldOrder(q)) is inv
    assert packed_space(251, 12)._negs is packed_space(251, 3)._negs
