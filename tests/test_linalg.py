import random
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

import qq_reference
from curvemap import DEFAULT_PRIME, QQ, PrimeField
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


def test_np_matmul_mod_chunks_rows_and_contraction(monkeypatch):
    # a small byte bound splits the rows of a and the contraction into many
    # chunks, some of them whole (at most 64 terms) and some split in limbs;
    # the partial products are summed mod p
    rng = np.random.default_rng(13)
    for budget, m, k, n in ((1 << 12, 40, 300, 9), (1 << 14, 33, 700, 3), (1, 5, 70, 3)):
        monkeypatch.setattr(linalg, "_PRODUCT_BYTES", budget)
        for p in BLOCKED_PRIMES:
            a = p - 1 - rng.integers(0, min(p, 1000), (m, k))
            b = p - 1 - rng.integers(0, min(p, 1000), (k, n))
            want = (a.astype(object) @ b.astype(object)) % p
            assert np.array_equal(np_matmul_mod(a, b, p), want.astype(np.int64)), (p, m, k, n)


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


def test_echelon_add_rows_leaves_its_argument_unchanged(field):
    rng = random.Random("echelon-copy")
    rows = [[field.conv(Fraction(v, 3)) for v in row] for row in random_matrix(rng, 4, 5, 9)]
    block = to_np(rows, field)
    before = block.copy()
    ech = Echelon(5, field)
    ech.add_rows(block[:2])
    # the second block is cleared against the rows already held
    ech.add_rows(block)
    assert (block == before).all()
    assert ech.rank == rank(before.tolist(), field)
    assert ech.pivots == sorted(ech.pivots)


def test_echelon_keeps_its_held_rows_in_echelon_form(field):
    # the held rows are the reduced row echelon form of the span, as np_rref
    # gives it, and new holds the rows of the last block that led at new
    # pivots
    p = modulus(field)
    rng = random.Random("echelon-form")
    rows = [[field.conv(v) for v in row] for row in random_matrix(rng, 9, 8, 9)]
    rows[4] = [field.add(a, b) for a, b in zip(rows[0], rows[2])]
    rows[7] = [field.zero] * 8
    ech = Echelon(8, field)
    for start, end in ((0, 2), (2, 3), (3, 7), (7, 9)):
        before = list(ech.pivots)
        added = ech.add_rows(rows[start:end])
        assert ech.rank == rank(rows[:end], field)
        assert ech.pivots == sorted(ech.pivots)
        held = ech.rows
        assert [int(np.flatnonzero(r)[0]) for r in held] == ech.pivots
        fresh = [c for c in ech.pivots if c not in before]
        assert added == len(fresh) == ech.new.shape[0]
        assert [int(np.flatnonzero(r)[0]) for r in ech.new] == fresh
        want, piv = np_rref(to_np(rows[:end], field), p)
        assert piv == ech.pivots and np.array_equal(held, want[: len(piv)])
        assert np.array_equal(ech.new, held[[piv.index(c) for c in fresh]])
    # products of residues, not reduced mod p, are read mod p: all are held
    assert ech.add_rows(ech.rows * 3 + p) == 0


def test_echelon_sorts_a_later_lower_pivot_before_a_product(field):
    # the second block leads left of the first; the held rows stay sorted
    # by pivot, and mod p the first row is reduced by the second
    p = modulus(field)
    ech = Echelon(3, field)
    ech.add_rows([[0, 1, 1]])
    ech.add_rows([[1, 1, 0]])
    assert ech.pivots == [0, 1]
    assert ech.rows.tolist() == [[1, 0, p - 1], [0, 1, 1]]
    # combinations of the two rows, as products of residues not reduced mod
    # p, are in the span, and (0, 0, 1) is not
    assert ech.add_rows(to_np([[1, 2, 1], [2, 1, -1]], field) * (p - 1)) == 0
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


def rational_shapes(rng):
    """Rational matrices for the one QQ route: small entries with zero rows,
    zero columns and dropped ranks, entries and denominators up to 10^6,
    denominators divisible by DEFAULT_PRIME, and the empty shapes."""
    q = DEFAULT_PRIME
    for _ in range(30):
        yield to_np(random_rational_matrix(rng, rng.randint(1, 6), rng.randint(1, 7)), QQ)
    for rows, cols in ((3, 5), (4, 4), (5, 3), (2, 6), (6, 8)):
        m = [
            [Fraction(rng.randint(-(10**6), 10**6), rng.randint(1, 10**6)) for _ in range(cols)]
            for _ in range(rows)
        ]
        m[-1] = [2 * a - Fraction(3, 7) * b for a, b in zip(m[0], m[1])]
        yield to_np(m, QQ)
    for rows, cols in ((2, 2), (3, 4), (4, 3)):
        m = random_rational_matrix(rng, rows, cols)
        m[0][0] = Fraction(rng.randint(1, 9), q)
        m[-1][-1] = Fraction(5, 2 * q)
        yield to_np(m, QQ)
    for rows, cols in ((0, 4), (0, 1), (3, 0), (0, 0)):
        yield np.zeros((rows, cols), dtype=object)


def test_rational_kernels_agree_with_sympy_on_every_shape():
    # np_rref, np_kernel, np_solve, np_rank and rank over QQ all come from
    # the lifted kernel; sympy's elimination is the exact reference
    rng = random.Random("lifted-shapes")
    for a in rational_shapes(rng):
        want, want_piv = qq_reference.rref(a)
        red, piv = np_rref(a.copy(), None)
        assert piv == want_piv and red.tolist() == want.tolist(), a
        assert np_kernel(a, None).tolist() == qq_reference.kernel(a).tolist(), a
        assert np_rank(a.copy(), None) == rank(a.copy(), QQ) == len(want_piv), a
        rows, cols = a.shape
        # one right-hand side in the column space, one most likely not
        inside = a @ np.array([Fraction(rng.randint(-5, 5)) for _ in range(cols)], dtype=object)
        outside = np.array([Fraction(rng.randint(-5, 5), 3) for _ in range(rows)], dtype=object)
        for b in (inside.reshape(rows), outside):
            x = np_solve(a, b, None)
            ref = qq_reference.solve(a, b)
            assert (x is None) == (ref is None), a
            if x is not None:
                assert x.tolist() == ref.tolist(), a


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
    """Matrices on both sides of the thresholds of the blocked np_rref."""
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
    # short and wide, where the row operations are taken on a panel of the
    # first columns: full rank, low rank, and a panel of low rank
    yield rng.integers(0, p, (20, 300))
    yield low_rank(rng, 30, 200, 12, p)
    short = rng.integers(0, p, (16, 300))
    short[:, :32] = low_rank(rng, 16, 32, 5, p)
    yield short
    yield np.zeros((0, 10), dtype=np.int64)


def test_blocked_rref_matches_the_per_pivot_loop(monkeypatch):
    panels = []
    panel_rref = linalg._panel_rref

    def spy(a, p):
        panels.append(a.shape)
        return panel_rref(a, p)

    monkeypatch.setattr(linalg, "_panel_rref", spy)
    rng = np.random.default_rng(9)
    for p in BLOCKED_PRIMES:
        for a in blocked_shapes(rng, p):
            want, want_piv = linalg._rref_loop(a.copy(), p)
            got, piv = np_rref(a.copy(), p)
            assert piv == want_piv, (p, a.shape)
            assert got.dtype == np.int64 and np.array_equal(got, want), (p, a.shape)
    # the short wide shapes, and blocks of the tall ones, took the panel
    assert {(20, 300), (30, 200), (16, 300)} <= set(panels)
    assert any(rows == linalg._BLOCK for rows, _ in panels)
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


def test_absorbing_by_products_matches_the_per_pivot_loop():
    # an Echelon mod p grown block by block, each absorbed by two products
    # (_absorb), holds the rows and pivots that the per-pivot loop gives on
    # all the rows at once, and new the rows of the last block's pivots
    rng = np.random.default_rng(12)
    edge = 2 * linalg._BLOCK
    for p in BLOCKED_PRIMES:
        for sizes, cols in (
            ((edge - 1, 40), 90),
            ((5, edge, 3, edge + 1), 90),
            ((150, 120), 200),
            ((edge, 0, 7), 30),
        ):
            ech = Echelon(cols, SimpleNamespace(modular=True, p=p))
            seen = np.zeros((0, cols), dtype=np.int64)
            for k in sizes:
                block = rng.integers(0, p, (k, cols))
                block[:, : cols // 3] = 0  # a zero prefix, as in the slices of A
                block[::7] = 0
                if len(seen):
                    # rows already in the span reduce to zero
                    mix = rng.integers(0, p, (len(block[1::5]), len(seen)))
                    block[1::5] = np_matmul_mod(mix, seen, p)
                before = list(ech.pivots)
                added = ech.add_rows(block)
                seen = np.vstack([seen, block])
                want, piv = linalg._rref_loop(seen.copy(), p)
                assert ech.pivots == piv, (p, sizes, cols)
                assert np.array_equal(ech.rows, want[: len(piv)]), (p, sizes, cols)
                fresh = [t for t, c in enumerate(piv) if c not in before]
                assert added == len(fresh)
                assert np.array_equal(ech.new, want[fresh]), (p, sizes, cols)


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
