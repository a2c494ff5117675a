import random
from fractions import Fraction

import numpy as np
import pytest

from curvemap import QQ, PrimeField
from curvemap import linalg
from curvemap.linalg import (
    Echelon,
    from_np,
    modulus,
    np_kernel,
    np_matmul_mod,
    np_multiples,
    np_rank,
    np_rref,
    np_solve,
    np_vandermonde,
    rank,
    solve,
    to_np,
)

PRIMES = (2147483647, 2147483629, 1073741827)
# Primes for the blocked kernels: the smallest ones make zero pivots and rank
# drops common, the largest sit next to the 2**31 bound of the residues.
BLOCKED_PRIMES = (2, 3, 65521, 1073741827, 2147483629, 2147483647)


def random_matrix(rng, rows, cols, bound=10**6):
    return [[rng.randrange(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def test_np_rref_idempotent_and_pivot_columns_are_unit():
    p = PRIMES[0]
    rng = random.Random("rref")
    m = random_matrix(rng, 6, 9)
    # mod p on int64 residues, and exactly (p None) on Fraction objects
    for a, q in ((np.array(m, dtype=np.int64) % p, p), (to_np(m, QQ), None)):
        r, piv = np_rref(a.copy(), q)
        r2, piv2 = np_rref(r.copy(), q)
        assert np.array_equal(r, r2) and piv == piv2
        for i, c in enumerate(piv):
            col = r[:, c]
            assert col[i] == 1 and np.count_nonzero(col) == 1


def test_rank_agrees_across_primes_and_with_rationals():
    # integer matrices small enough that no tested prime divides a pivot
    rng = random.Random("rank")
    for _ in range(10):
        m = random_matrix(rng, 5, 7, bound=50)
        ranks = {p: len(np_rref(np.array(m, dtype=np.int64) % p, p)[1]) for p in PRIMES}
        _, piv = np_rref(to_np([[Fraction(v) for v in row] for row in m], QQ), None)
        assert set(ranks.values()) == {len(piv)}


def test_np_kernel_annihilates_and_has_complementary_dimension():
    p = PRIMES[1]
    F = PrimeField(p)
    rng = random.Random("kernel")
    a = np.array(random_matrix(rng, 4, 8), dtype=np.int64) % p
    k = np_kernel(a, p)
    assert k.shape[0] == 8 - rank([list(map(int, row)) for row in a], F)
    assert not np_matmul_mod(a, k.T % p, p).any()


def test_np_solve_roundtrip_and_inconsistency():
    p = PRIMES[2]
    rng = random.Random("solve")
    a = np.array(random_matrix(rng, 5, 3), dtype=np.int64) % p
    x = np.array([rng.randrange(p) for _ in range(3)], dtype=np.int64)
    b = np_matmul_mod(a, x, p)
    got = np_solve(a, b, p)
    assert got is not None
    assert np.array_equal(np_matmul_mod(a, got, p), b)
    # perturb b off the column space: a has rank 3 of 5 rows generically
    bad = b.copy()
    bad[0] = (bad[0] + 1) % p
    if len(np_rref(np.hstack([a, bad.reshape(-1, 1)]), p)[1]) > 3:
        assert np_solve(a, bad, p) is None


def test_np_matmul_mod_matches_python_bigints():
    p = PRIMES[0]
    rng = random.Random("matmul")
    a = np.array(random_matrix(rng, 3, 4), dtype=np.int64) % p
    b = np.array(random_matrix(rng, 4, 2), dtype=np.int64) % p
    want = [
        [sum(int(a[i, k]) * int(b[k, j]) for k in range(4)) % p for j in range(2)]
        for i in range(3)
    ]
    assert np_matmul_mod(a, b, p).tolist() == want
    # contractions on both sides of 64 terms, where the right factor stops
    # being whole, and 300 rows of a, several chunks of the product
    rng = np.random.default_rng(11)
    shapes = [(7, 6, 7), (5, 64, 3), (5, 65, 3), (4, 255, 2), (3, 1000, 2), (300, 50, 40), (0, 5, 3)]
    for p in BLOCKED_PRIMES:
        for m, k, n in shapes:
            # residues near p make the largest limbs
            a = p - 1 - rng.integers(0, min(p, 1000), (m, k))
            b = p - 1 - rng.integers(0, min(p, 1000), (k, n))
            want = (a.astype(object) @ b.astype(object)) % p
            assert np.array_equal(np_matmul_mod(a, b, p), want.astype(np.int64)), (p, m, k, n)
        # a matrix times a vector, as in the evaluation of phi
        a, v = rng.integers(0, p, (6, 3)), rng.integers(0, p, 3)
        assert np_matmul_mod(a, v, p).tolist() == [
            sum(int(x) * int(y) for x, y in zip(row, v)) % p for row in a
        ]


def rational_rref(rows):
    red, piv = np_rref(to_np(rows, QQ), None)
    return from_np(red, QQ), piv


def rational_kernel(rows):
    return from_np(np_kernel(to_np(rows, QQ), None), QQ)


def test_generic_rref_solve_kernel_over_rationals():
    rows = [[Fraction(1), Fraction(2), Fraction(3)], [Fraction(2), Fraction(4), Fraction(7)]]
    red, piv = rational_rref(rows)
    assert piv == [0, 2]
    assert red[0][:3] == [Fraction(1), Fraction(2), Fraction(0)]
    ker = rational_kernel(rows)
    assert len(ker) == 1
    v = ker[0]
    for row in rows:
        assert sum(a * b for a, b in zip(row, v)) == 0
    x = solve(rows, [Fraction(6), Fraction(13)], QQ)
    assert x is not None
    assert [sum(a * b for a, b in zip(row, x)) for row in rows] == [6, 13]
    assert solve([[Fraction(1)], [Fraction(2)]], [Fraction(1), Fraction(3)], QQ) is None


def test_echelon_incremental_matches_batch_rank(field):
    rng = random.Random("echelon")
    rows = [[field.conv(v) for v in row] for row in random_matrix(rng, 8, 6)]
    ech = Echelon(6, field)
    added = ech.add_rows(rows)
    assert ech.rank == added == rank(rows, field)
    for row in rows:
        assert ech.add_rows([row]) == 0
    combo = [field.add(a, b) for a, b in zip(rows[0], rows[1])]
    assert ech.add_rows([combo]) == 0


def test_echelon_add_rows_leaves_its_argument_unchanged():
    rng = random.Random("echelon-copy")
    block = to_np([[Fraction(v, 3) for v in row] for row in random_matrix(rng, 4, 5, 9)], QQ)
    before = block.copy()
    ech = Echelon(5, QQ)
    ech.add_rows(block[:2])
    # the second block is forward-reduced against the rows already held
    ech.add_rows(block)
    assert (block == before).all()
    assert ech.rank == rank(before.tolist(), QQ)
    assert ech.pivots == sorted(ech.pivots)


def test_echelon_scale_keeps_pivots_and_rank(any_field):
    p = modulus(any_field)
    rng = random.Random("echelon-scale")
    rows = [[any_field.conv(v) for v in row] for row in random_matrix(rng, 5, 7, 9)]
    ech = Echelon(7, any_field)
    ech.add_rows(rows[:3])
    ech.add_rows(rows[3:])
    held, pivots, rank_before = ech.rows.copy(), list(ech.pivots), ech.rank
    values = to_np([any_field.conv(v) for v in (2, -1, 3, 5, -7, 11, 1)], any_field)[0]
    ech.scale(values)
    assert ech.pivots == pivots and ech.rank == rank_before
    assert [int(np.flatnonzero(r)[0]) for r in ech.rows] == pivots
    want = held * values if p is None else held * values % p
    assert (ech.rows == want).all()
    # products of residues, not reduced mod p, are read mod p: all are held
    assert ech.add_rows(held * values) == 0
    with pytest.raises(ValueError):
        ech.scale(to_np([any_field.conv(v) for v in (1, 1, 0, 1, 1, 1, 1)], any_field)[0])


def test_echelon_sorts_a_later_lower_pivot_before_a_product(field):
    # the second block leads left of the first; the held rows stay sorted
    # by pivot, so the forward reduction runs in pivot order
    ech = Echelon(3, field)
    ech.add_rows([[0, 1, 1]])
    ech.add_rows([[1, 1, 0]])
    assert ech.pivots == [0, 1]
    assert [int(np.flatnonzero(r)[0]) for r in ech.rows] == [0, 1]
    # after the pointwise product by (2, 3, 6), the product of the second
    # block is in the span, and (0, 0, 1) is not
    ech.scale(to_np([2, 3, 6], field)[0])
    assert ech.pivots == [0, 1]
    assert ech.add_rows(to_np([[2, 3, 0]], field)) == 0
    assert ech.rank == 2
    assert ech.add_rows(to_np([[0, 0, 1]], field)) == 1


def convolve(row, h):
    """The coefficients of the product of two forms, given by their coefficients."""
    out = [0] * (len(row) + len(h) - 1)
    for a, c in enumerate(row):
        for b, v in enumerate(h):
            out[a + b] += c * v
    return out


def test_np_multiples_are_shifts_by_monomials():
    rng = random.Random("multiples")
    for p in (PRIMES[0], None):
        rows = to_np(random_matrix(rng, 3, 4), PrimeField(p) if p else QQ)
        s = 3
        out = np_multiples(rows, s)
        assert out.shape == (3, s + 1, 4 + s)
        for k in range(s + 1):
            # x^(s-k) y^k as a coefficient row: a single one at position k
            mono = [0] * (s + 1)
            mono[k] = 1
            for i in range(3):
                assert out[i, k].tolist() == convolve(rows[i].tolist(), mono)


def test_to_np_rejects_nothing_and_keeps_shape():
    a = to_np([[1, 2], [3, 4]], PrimeField(PRIMES[0]))
    assert a.dtype == np.int64 and a.shape == (2, 2)
    b = to_np([Fraction(1, 2), 3], QQ)
    assert b.dtype == object and b.shape == (1, 2)
    assert from_np(b, QQ) == [[Fraction(1, 2), Fraction(3)]]


def random_rational_matrix(rng, rows, cols):
    """Small integers and fractions, with zero rows, zero columns and low rank."""
    m = [
        [Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 7))) for _ in range(cols)]
        for _ in range(rows)
    ]
    if rows > 2 and rng.random() < 0.5:
        # a combination of two rows, so the rank drops
        a, b = Fraction(rng.randint(-3, 3)), Fraction(rng.randint(1, 4), 5)
        m[-1] = [a * x + b * y for x, y in zip(m[0], m[1])]
    if rng.random() < 0.3:
        m[rng.randrange(rows)] = [Fraction(0)] * cols
    if rng.random() < 0.3:
        c = rng.randrange(cols)
        for row in m:
            row[c] = Fraction(0)
    return m


def test_rational_back_end_agrees_with_sympy():
    # sympy is an independent oracle for exact elimination over QQ
    sympy = pytest.importorskip("sympy")
    rng = random.Random("sympy")
    for _ in range(40):
        rows, cols = rng.randint(1, 6), rng.randint(1, 7)
        m = random_rational_matrix(rng, rows, cols)
        red, piv = rational_rref(m)
        want, want_piv = sympy.Matrix(m).rref()
        assert piv == list(want_piv)
        assert red == [[Fraction(int(v.p), int(v.q)) for v in want.row(i)] for i in range(rows)]
        assert all(type(v) is Fraction for row in red for v in row)
        ker = rational_kernel(m)
        assert len(ker) == cols - len(want_piv)
        for v in ker:
            assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in m)
        rhs = [Fraction(rng.randint(-5, 5)) for _ in range(rows)]
        x = solve(m, rhs, QQ)
        aug = sympy.Matrix([row + [b] for row, b in zip(m, rhs)])
        consistent = aug.rank() == sympy.Matrix(m).rank()
        assert (x is not None) == consistent
        if x is not None:
            assert [sum(a * b for a, b in zip(row, x)) for row in m] == rhs


def test_np_vandermonde_holds_the_powers_of_each_point():
    p = PRIMES[0]
    points = np.array([0, 1, 5, p - 1], dtype=np.int64)
    v = np_vandermonde(points, 4, p)
    assert v.tolist() == [[pow(int(t), k, p) for t in points] for k in range(5)]
    q = to_np([Fraction(1, 2), -3], QQ)[0]
    want = [[1, 1], [Fraction(1, 2), -3], [Fraction(1, 4), 9]]
    assert np_vandermonde(q, 2, None).tolist() == want


def low_rank(rng, rows, cols, rank, p):
    """A random rows x cols matrix mod p of rank at most `rank`."""
    left = rng.integers(0, p, (rows, rank))
    right = rng.integers(0, p, (rank, cols))
    return np_matmul_mod(left, right, p)


def blocked_shapes(rng, p):
    """Matrices on both sides of the row threshold of the blocked np_rref."""
    edge = 2 * linalg._BLOCK
    yield low_rank(rng, 350, 181, 55, p)  # the largest dense-prime call
    yield low_rank(rng, 90, 300, 70, p)  # wide
    yield rng.integers(0, p, (edge - 1, 40))  # just below the threshold
    yield rng.integers(0, p, (edge, 40))  # just at it
    yield rng.integers(0, p, (edge + 1, edge + 1))  # square, full rank
    yield rng.integers(0, p, (120, 100))  # tall, full column rank
    zero_cols = rng.integers(0, p, (100, 60))
    zero_cols[:, ::3] = 0
    yield zero_cols
    repeated = rng.integers(0, p, (100, 50))
    repeated[50:] = repeated[:50]
    yield repeated
    yield np.zeros((edge + 5, 20), dtype=np.int64)


def test_blocked_rref_matches_the_per_pivot_loop():
    rng = np.random.default_rng(9)
    for p in BLOCKED_PRIMES:
        for a in blocked_shapes(rng, p):
            want, want_piv = linalg._rref_loop(a.copy(), p)
            got, piv = np_rref(a.copy(), p)
            assert piv == want_piv, (p, a.shape)
            assert got.dtype == np.int64 and np.array_equal(got, want), (p, a.shape)
    # over a large prime the tall product keeps the rank of its factors
    a = low_rank(np.random.default_rng(1), 350, 181, 55, 2147483647)
    assert len(np_rref(a, 2147483647)[1]) == 55


def test_np_rank_reduces_its_owned_argument_in_place():
    p = PRIMES[0]
    a = low_rank(np.random.default_rng(2), 80, 30, 12, p)
    before = a.copy()
    assert np_rank(a, p) == 12
    # the rows now hold the reduced echelon form, with the same span
    assert np.array_equal(a, np_rref(before, p)[0])
    assert np_rank(np.vstack([a, before]), p) == 12


def echelon_rows(rng, r, cols, p):
    """r rows mod p in row echelon form, sorted by pivot, not monic, not reduced."""
    pivots = sorted(rng.choice(cols, r, replace=False).tolist())
    h = rng.integers(0, p, (r, cols))
    for t, col in enumerate(pivots):
        h[t, :col] = 0
        h[t, col] = rng.integers(1, p)
    return h, pivots


def test_blocked_forward_reduce_matches_the_per_pivot_loop():
    rng = np.random.default_rng(12)
    edge = 2 * linalg._BLOCK
    for p in BLOCKED_PRIMES:
        for k, r, cols in ((edge - 1, 40, 90), (edge, 40, 90), (150, 120, 200), (edge, 0, 30)):
            h, pivots = echelon_rows(rng, r, cols, p)
            c = rng.integers(0, p, (k, cols))
            c[:, : cols // 3] = 0  # a zero prefix, as in the slices of A
            c[::7] = 0
            if r:
                # rows already in the span of h reduce to zero
                c[1::5] = np_matmul_mod(rng.integers(0, p, (len(c[1::5]), r)), h, p)
            want = c.copy()
            linalg._clear(want, h, pivots, p)
            got = linalg.np_forward_reduce(c.copy(), h, pivots, p)
            assert np.array_equal(got, want), (p, k, r, cols)
            assert not got[:, pivots].any()


def test_np_matmul_mod_is_exact_at_the_longest_contraction():
    # every limb product at its largest, summed as often as the guard allows
    k = linalg._MAX_CONTRACT
    for p in (2147483647, 2147483629):
        a = np.full((1, k), p - 1, dtype=np.int64)
        b = np.full((k, 1), p - 1, dtype=np.int64)
        want = (p - 1) ** 2 * k % p
        assert np_matmul_mod(a, b, p).tolist() == [[want]]
        assert np_matmul_mod(a[0], b[:, 0], p) == want
    with pytest.raises(ValueError):
        np_matmul_mod(np.ones((1, k + 1), dtype=np.int64), np.ones((k + 1, 1), dtype=np.int64), p)
    # mismatched shapes fail like a @ b, even with no rows to multiply
    with pytest.raises(ValueError):
        np_matmul_mod(np.ones((0, 5), dtype=np.int64), np.ones(3, dtype=np.int64), p)
