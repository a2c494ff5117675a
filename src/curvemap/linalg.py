"""Exact dense linear algebra over the coefficient fields.

Row reduction, kernels, linear solves and the one growing echelon, from one
set of numpy kernels that serve both fields; only the scalars differ.  Over a
prime field a matrix is an int64 array of residues in [0, p), and p < 2**31
keeps every product of two residues inside int64.  Over the rationals it is
an object array of Fractions, and the same code does exact arithmetic on
them.  The kernels take the modulus p, with p None for the rationals;
modulus(field), to_np and from_np are the only code that looks at the field.
The reduced row echelon form is unique, so ranks, pivots, kernel bases and
solutions do not depend on the representation.  Everything is deterministic:
no pivoting heuristics beyond first-nonzero, no floats.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

# Safe contraction length for the 16-bit split matmul below.
_MAX_CONTRACT = 1 << 16

_to_fraction = np.frompyfunc(Fraction, 1, 1)


def modulus(field):
    """The kernels' p for the field: its prime, or None for the rationals."""
    return field.p if field.modular else None


def _dtype(p):
    return object if p is None else np.int64


def _reduce(a, p):
    """a mod p, or a itself in exact arithmetic."""
    return a if p is None else a % p


def _inv(v, p):
    # never `/` on the arrays: int / int would be a float
    return 1 / Fraction(v) if p is None else pow(int(v), -1, p)


# ---------------------------------------------------------------------------
# numpy kernels: int64 residues mod p, or Fraction objects when p is None


def np_rref(a: np.ndarray, p):
    """Reduced row echelon form of a, in place.

    Returns (a, pivots).  Mod p, entries stay in [0, p); intermediate
    products fit in int64 because p < 2**31.
    """
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        v = a[r, c]
        if v != 1:
            a[r] = _reduce(a[r] * _inv(v, p), p)
        sel = np.nonzero(a[:, c])[0]
        sel = sel[sel != r]
        if sel.size:
            a[sel] = _reduce(a[sel] - np.outer(a[sel, c], a[r]), p)
        pivots.append(c)
        r += 1
    return a, pivots


def np_forward_reduce(c: np.ndarray, h: np.ndarray, pivots: list, p) -> np.ndarray:
    """Clear, in place, the columns pivots[t] of c with the echelon rows h.

    h[t] must lead at column pivots[t]; it need not be monic there.
    """
    for t, col in enumerate(pivots):
        nz = np.nonzero(c[:, col])[0]
        if nz.size == 0:
            continue
        f = _reduce(c[nz, col] * _inv(h[t, col], p), p)
        c[nz] = _reduce(c[nz] - np.outer(f, h[t]), p)
    return c


def np_kernel(a: np.ndarray, p) -> np.ndarray:
    """Basis of the right kernel, one vector per row, echelon order."""
    rows, cols = a.shape
    r, piv = np_rref(a.copy(), p)
    pivset = set(piv)
    free = [c for c in range(cols) if c not in pivset]
    k = np.zeros((len(free), cols), dtype=a.dtype)
    if free:
        k[np.arange(len(free)), free] = 1
        if piv:
            k[:, piv] = _reduce(-r[: len(piv)][:, free].T, p)
    return k


def np_solve(a: np.ndarray, b: np.ndarray, p):
    """One solution of a x = b, or None if inconsistent."""
    rows, cols = a.shape
    aug = np.zeros((rows, cols + 1), dtype=a.dtype)
    aug[:, :cols] = _reduce(a, p)
    aug[:, cols] = _reduce(b, p)
    r, piv = np_rref(aug, p)
    if piv and piv[-1] == cols:
        return None
    x = np.zeros(cols, dtype=a.dtype)
    x[piv] = r[: len(piv), cols]
    return x


def np_matmul_mod(a: np.ndarray, b: np.ndarray, p) -> np.ndarray:
    """Exact a @ b, mod p via a 16-bit split that avoids int64 overflow."""
    if p is None:
        return a @ b
    if a.shape[-1] > _MAX_CONTRACT:
        raise ValueError("contraction too long for the split matmul")
    hi = a >> 16
    lo = a & 0xFFFF
    return ((hi @ b) % p * 65536 + (lo @ b) % p) % p


def np_shift_mul(rows: np.ndarray, h: np.ndarray, p) -> np.ndarray:
    """Multiply each row, read as a dense binary-form slice, by the form h.

    rows has width w (degree w-1 slice); the result has width w + len(h) - 1.
    Plain shifted accumulation, one pass per nonzero coefficient of h, each
    reduced mod p.  The lowest lands on zeros, so it is only scaled, and a
    monomial h with coefficient one (x or y) costs a copy.
    """
    n, w = rows.shape
    m = h.shape[0]
    out = np.zeros((n, w + m - 1), dtype=rows.dtype)
    first = True
    for k in range(m):
        c = h[k]
        if c and first:
            out[:, k : k + w] = rows if c == 1 else _reduce(rows * c, p)
            first = False
        elif c:
            out[:, k : k + w] = _reduce(out[:, k : k + w] + rows * c, p)
    return out


def np_multiples(rows: np.ndarray, s: int) -> np.ndarray:
    """Every x^(s-k) y^k multiple of each row, read as a binary-form slice.

    rows has width w; out[i, k] is row i times x^(s-k) y^k, of width w + s.
    """
    m, w = rows.shape
    out = np.zeros((m, s + 1, w + s), dtype=rows.dtype)
    k = np.arange(s + 1)[:, None]
    out[:, k, k + np.arange(w)] = rows[:, None, :]
    return out


def np_vandermonde(points: np.ndarray, degree: int, p) -> np.ndarray:
    """The powers v[k, s] = points[s]**k for k = 0..degree."""
    v = np.empty((degree + 1, points.shape[0]), dtype=points.dtype)
    v[0] = 1
    for k in range(1, degree + 1):
        v[k] = _reduce(v[k - 1] * points, p)
    return v


# ---------------------------------------------------------------------------
# public API: lists of field scalars in and out


def to_np(rows, field) -> np.ndarray:
    """A matrix (or one row) of field scalars as a 2-d array for the kernels."""
    p = modulus(field)
    a = np.array(rows, dtype=_dtype(p))
    if a.ndim == 1:
        a = a.reshape(1, -1)
    return _reduce(a, p)


def from_np(a: np.ndarray, field) -> list:
    """An array back as nested lists of field scalars: ints mod p, or Fractions."""
    return (a if field.modular else _to_fraction(a)).tolist()


def rank(rows, field) -> int:
    return len(np_rref(to_np(rows, field), modulus(field))[1])


def solve(rows, rhs, field):
    """A solution of rows @ x = rhs, or None if the system is inconsistent."""
    if not rows:
        return None
    x = np_solve(to_np(rows, field), to_np(rhs, field)[0], modulus(field))
    return None if x is None else from_np(x, field)


class Echelon:
    """A growing span, held in row echelon form with its rows sorted by pivot.

    The one incremental elimination of the package: each block of rows is
    cleared against the held rows, what is left is row-reduced, and its
    pivots are merged in.  Both graded Hilbert functions (of the ideal in
    syzygy, of the image ring in fiber) grow their slices through it.
    """

    def __init__(self, ncols: int, field):
        self.field = field
        self._p = modulus(field)
        self.rows = np.zeros((0, ncols), dtype=_dtype(self._p))
        self.pivots: list[int] = []
        # the rows the last add_rows inserted, in reduced row echelon form
        self.new = self.rows

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def add_rows(self, rows) -> int:
        """Insert rows of field scalars; returns how many were new.

        rows, a list or an array, is left unchanged: the forward reduction
        works on a copy.
        """
        p = self._p
        block = np.array(rows, dtype=_dtype(p)).reshape(-1, self.rows.shape[1])
        red, piv = np_rref(np_forward_reduce(block, self.rows, self.pivots, p), p)
        self.new = red[: len(piv)]
        merged = self.pivots + piv
        order = np.argsort(merged, kind="stable")
        self.rows = np.vstack([self.rows, self.new])[order]
        self.pivots = [merged[i] for i in order]
        return len(piv)

    def add_row(self, row) -> bool:
        return self.add_rows([row]) == 1

    def mul(self, h: np.ndarray) -> None:
        """Multiply every held row, read as a binary form, by the form h.

        h[0], the x-leading coefficient, must be nonzero: then each row keeps
        its leading column and the rows stay in echelon form.  Times x
        (h = [1, 0]) appends a zero column.
        """
        if not h[0]:
            raise ValueError("the multiplier must not be divisible by y")
        self.rows = np_shift_mul(self.rows, h, self._p)
