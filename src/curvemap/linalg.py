"""Exact dense linear algebra over the coefficient fields.

Row reduction, kernels, and linear solves.  Matrices are lists of rows at the
API boundary; prime-field inputs are routed through vectorized int64 numpy
kernels, rationals through a plain implementation.  Everything is
deterministic: no pivoting heuristics beyond first-nonzero, no floats.
"""

from __future__ import annotations

import numpy as np

from .field import PrimeField

# Safe contraction length for the 16-bit split matmul below.
_MAX_CONTRACT = 1 << 16


# ---------------------------------------------------------------------------
# numpy mod-p kernels


def np_rref(a: np.ndarray, p: int):
    """Reduced row echelon form of an int64 matrix mod p, in place.

    Returns (a, pivots).  Entries stay in [0, p); intermediate products fit
    in int64 because p < 2**31.
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
        v = int(a[r, c])
        if v != 1:
            a[r] = a[r] * pow(v, p - 2, p) % p
        sel = np.nonzero(a[:, c])[0]
        sel = sel[sel != r]
        if sel.size:
            a[sel] = (a[sel] - np.outer(a[sel, c], a[r])) % p
        pivots.append(c)
        r += 1
    return a, pivots


def np_kernel(a: np.ndarray, p: int) -> np.ndarray:
    """Basis of the right kernel mod p, one vector per row, echelon order."""
    rows, cols = a.shape
    r, piv = np_rref(a.copy(), p)
    pivset = set(piv)
    free = [c for c in range(cols) if c not in pivset]
    k = np.zeros((len(free), cols), dtype=np.int64)
    if free:
        k[np.arange(len(free)), free] = 1
        if piv:
            k[:, piv] = (-r[: len(piv)][:, free].T) % p
    return k


def np_solve(a: np.ndarray, b: np.ndarray, p: int):
    """One solution of a x = b mod p, or None if inconsistent."""
    rows, cols = a.shape
    aug = np.zeros((rows, cols + 1), dtype=np.int64)
    aug[:, :cols] = a % p
    aug[:, cols] = b % p
    r, piv = np_rref(aug, p)
    if piv and piv[-1] == cols:
        return None
    x = np.zeros(cols, dtype=np.int64)
    for i, c in enumerate(piv):
        x[c] = r[i, cols]
    return x


def np_matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact (a @ b) mod p via a 16-bit split, avoiding int64 overflow."""
    if a.shape[-1] > _MAX_CONTRACT:
        raise ValueError("contraction too long for the split matmul")
    hi = a >> 16
    lo = a & 0xFFFF
    return ((hi @ b) % p * 65536 + (lo @ b) % p) % p


def np_shift_mul(rows: np.ndarray, h: np.ndarray, p: int) -> np.ndarray:
    """Multiply each row, read as a dense binary-form slice, by the form h.

    rows has width w (degree w-1 slice); the result has width w + len(h) - 1.
    Plain shifted accumulation: len(h) passes, each reduced mod p.
    """
    n, w = rows.shape
    m = h.shape[0]
    out = np.zeros((n, w + m - 1), dtype=np.int64)
    for k in range(m):
        c = int(h[k])
        if c:
            out[:, k : k + w] = (out[:, k : k + w] + rows * c) % p
    return out


# ---------------------------------------------------------------------------
# generic (field-object) kernels, used for rational mode


def _gen_rref(rows, field):
    m = [list(r) for r in rows]
    if not m:
        return m, []
    nrows, ncols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        sel = next((i for i in range(r, nrows) if m[i][c]), None)
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        inv = field.inv(m[r][c])
        if inv != field.one:
            m[r] = [field.mul(inv, v) for v in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                row_r = m[r]
                m[i] = [field.sub(v, field.mul(f, w)) for v, w in zip(m[i], row_r)]
        pivots.append(c)
        r += 1
    return m, pivots


def _gen_kernel(rows, ncols, field):
    r, piv = _gen_rref(rows, field)
    pivset = set(piv)
    free = [c for c in range(ncols) if c not in pivset]
    basis = []
    for f in free:
        v = [field.zero] * ncols
        v[f] = field.one
        for i, c in enumerate(piv):
            v[c] = field.neg(r[i][f])
        basis.append(v)
    return basis


def _gen_solve(rows, rhs, field):
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    ncols = len(rows[0]) if rows else 0
    r, piv = _gen_rref(aug, field)
    if piv and piv[-1] == ncols:
        return None
    x = [field.zero] * ncols
    for i, c in enumerate(piv):
        x[c] = r[i][ncols]
    return x


# ---------------------------------------------------------------------------
# public API


def _is_prime_field(field) -> bool:
    return isinstance(field, PrimeField)


def to_np(rows) -> np.ndarray:
    a = np.array(rows, dtype=np.int64)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    return a


def rref(rows, field):
    """Reduced row echelon form.  Returns (rows, pivot column indices)."""
    if not rows:
        return [], []
    if _is_prime_field(field):
        a, piv = np_rref(to_np(rows) % field.p, field.p)
        return [[int(v) for v in row] for row in a], piv
    return _gen_rref(rows, field)


def rank(rows, field) -> int:
    if not rows:
        return 0
    if _is_prime_field(field):
        return len(np_rref(to_np(rows) % field.p, field.p)[1])
    return len(_gen_rref(rows, field)[1])


def kernel_basis(rows, ncols, field):
    """Vectors spanning the right kernel of the matrix, or [] if trivial."""
    if not rows:
        return [[field.one if i == j else field.zero for i in range(ncols)] for j in range(ncols)]
    if _is_prime_field(field):
        k = np_kernel(to_np(rows) % field.p, field.p)
        return [[int(v) for v in row] for row in k]
    return _gen_kernel(rows, ncols, field)


def solve(rows, rhs, field):
    """A solution of rows @ x = rhs, or None if the system is inconsistent."""
    if not rows:
        return None
    if _is_prime_field(field):
        x = np_solve(to_np(rows), np.array([int(field.conv(v)) for v in rhs], dtype=np.int64), field.p)
        return None if x is None else [int(v) for v in x]
    return _gen_solve(rows, rhs, field)


class Echelon:
    """Incrementally maintained reduced row basis of a growing span."""

    def __init__(self, ncols: int, field):
        self.ncols = ncols
        self.field = field
        self._np = _is_prime_field(field)
        if self._np:
            self._mat = np.zeros((0, ncols), dtype=np.int64)
            self._piv: list[int] = []
        else:
            self._rows: list[list] = []
            self._piv = []

    @property
    def rank(self) -> int:
        return len(self._piv)

    def add_rows(self, rows) -> int:
        """Insert rows; returns how many were independent of the span."""
        before = self.rank
        if self._np:
            block = rows if isinstance(rows, np.ndarray) else to_np(rows)
            if block.size == 0:
                return 0
            stacked = np.vstack([self._mat, block % self.field.p])
            r, piv = np_rref(stacked, self.field.p)
            self._mat = r[: len(piv)]
            self._piv = piv
        else:
            for row in rows:
                self._add_one(list(row))
        return self.rank - before

    def add_row(self, row) -> bool:
        return self.add_rows([row]) == 1

    def _add_one(self, v):
        field = self.field
        for r, c in zip(self._rows, self._piv):
            if v[c]:
                f = v[c]
                v = [field.sub(a, field.mul(f, b)) for a, b in zip(v, r)]
        c = next((i for i, a in enumerate(v) if a), None)
        if c is None:
            return
        inv = field.inv(v[c])
        if inv != field.one:
            v = [field.mul(inv, a) for a in v]
        for i, (r, pc) in enumerate(zip(self._rows, self._piv)):
            if r[c]:
                f = r[c]
                self._rows[i] = [field.sub(a, field.mul(f, b)) for a, b in zip(r, v)]
        at = next((i for i, pc in enumerate(self._piv) if pc > c), len(self._piv))
        self._rows.insert(at, v)
        self._piv.insert(at, c)
