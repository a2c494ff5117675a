"""The exact reference over QQ for the tests: sympy's reduced row echelon form.

Over QQ curvemap eliminates no Fraction matrix: its kernels are lifted from
primes and proved by one integer product (linalg._lifted_kernel), and its
reduced forms, ranks and solutions are read off them; the slices of the
Hilbert table of A are ranked mod primes (fiber._slices).  sympy's
DomainMatrix over QQ is an independent exact elimination to compare them
with.  Arrays in and out are object arrays of Fractions, laid out as
linalg's.
"""

from fractions import Fraction

import numpy as np
import pytest


def rref(a: np.ndarray):
    """(R, pivots) of the rational matrix a, as np_rref(a, None) gives them."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    rows, cols = a.shape
    m = [[sympy.QQ(int(v.numerator), int(v.denominator)) for v in row] for row in a.tolist()]
    red, pivots = DomainMatrix(m, (rows, cols), sympy.QQ).rref()
    out = np.zeros((rows, cols), dtype=object)
    for i, row in enumerate(red.to_list()):
        out[i] = [Fraction(int(v.numerator), int(v.denominator)) for v in row]
    return out, list(pivots)


def kernel(a: np.ndarray) -> np.ndarray:
    """The reduced kernel basis of a, as np_kernel(a, None) gives it: the row
    for the free column f is one at f and zero at every other free column."""
    red, pivots = rref(a)
    cols = a.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    k = np.full((len(free), cols), Fraction(0), dtype=object)
    k[np.arange(len(free)), free] = Fraction(1)
    k[:, pivots] = -red[: len(pivots)][:, free].T
    return k


def solve(a: np.ndarray, b: np.ndarray):
    """The solution of a x = b that np_solve(a, b, None) gives, or None:
    zero at every free column."""
    aug = np.concatenate([a, b.reshape(-1, 1)], axis=1)
    red, pivots = rref(aug)
    cols = a.shape[1]
    if pivots and pivots[-1] == cols:
        return None
    x = np.full(cols, Fraction(0), dtype=object)
    x[pivots] = red[: len(pivots), cols]
    return x


def slice_ranks(P, top: int) -> list:
    """[HF_A(1), ..., HF_A(top)] of a map P over QQ: the rank of the
    coefficient matrix of the degree-j products of its generators, each
    multiset of factors once, multiplied and ranked by sympy."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    T = sympy.Symbol("t")
    # g(1, t): products of forms keep their coefficients, and univariate
    # products are far cheaper in sympy than bivariate ones
    gens = [
        sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(g.coeffs)], T)
        for g in P.gens
    ]
    # (product, index of its last factor)
    products = [(sympy.Poly(1, T), 0)]
    ranks = []
    for j in range(1, top + 1):
        products = [(f * gens[i], i) for f, k in products for i in range(k, P.n)]
        width = j * P.d + 1
        rows = [[f.coeff_monomial(T**i) for i in range(width)] for f, _ in products]
        m = DomainMatrix.from_list_sympy(len(rows), width, rows).convert_to(sympy.QQ)
        ranks.append(m.rank())
    return ranks
