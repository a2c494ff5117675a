import random
from fractions import Fraction

import numpy as np

from curvemap import QQ, PrimeField
from curvemap.linalg import (
    Echelon,
    kernel_basis,
    np_kernel,
    np_matmul_mod,
    np_rref,
    np_shift_mul,
    np_solve,
    rank,
    rref,
    solve,
    to_np,
)

PRIMES = (2147483647, 2147483629, 1073741827)


def random_matrix(rng, rows, cols, bound=10**6):
    return [[rng.randrange(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def test_np_rref_idempotent_and_pivot_columns_are_unit():
    p = PRIMES[0]
    rng = random.Random("rref")
    a = np.array(random_matrix(rng, 6, 9), dtype=np.int64) % p
    r, piv = np_rref(a.copy(), p)
    r2, piv2 = np_rref(r.copy(), p)
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
        _, piv = rref([[Fraction(v) for v in row] for row in m], QQ)
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


def test_np_shift_mul_is_polynomial_multiplication():
    # rows are dense coefficient slices; multiplying by h must convolve
    p = PRIMES[0]
    rng = random.Random("shift")
    rows = np.array(random_matrix(rng, 3, 5), dtype=np.int64) % p
    h = np.array([2, 0, 7], dtype=np.int64)
    out = np_shift_mul(rows, h, p)
    for i in range(3):
        want = [0] * 7
        for a_i, c in enumerate(map(int, rows[i])):
            for h_i, v in enumerate(map(int, h)):
                want[a_i + h_i] = (want[a_i + h_i] + c * v) % p
        assert out[i].tolist() == want


def test_generic_rref_solve_kernel_over_rationals():
    rows = [[Fraction(1), Fraction(2), Fraction(3)], [Fraction(2), Fraction(4), Fraction(7)]]
    red, piv = rref(rows, QQ)
    assert piv == [0, 2]
    assert red[0][:3] == [Fraction(1), Fraction(2), Fraction(0)]
    ker = kernel_basis(rows, 3, QQ)
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
        assert not ech.add_row(row)
    combo = [field.add(a, b) for a, b in zip(rows[0], rows[1])]
    assert not ech.add_row(combo)


def test_to_np_rejects_nothing_and_keeps_shape():
    a = to_np([[1, 2], [3, 4]])
    assert a.dtype == np.int64 and a.shape == (2, 2)
