"""Exact dense linear algebra over the coefficient fields.

Row reduction, kernels, linear solves and the one growing echelon, from one
set of numpy kernels that serve both fields; only the scalars differ.  Over a
prime field a matrix is an int64 array of residues in [0, p), and p < 2**31
keeps every product of two residues inside int64.  Over the rationals it is
an object array of Fractions, and the same code does exact arithmetic on
them.  The kernels take the modulus p, with p None for the rationals;
modulus(field), to_np, from_np and the rank helpers, which take a rational
rank mod one prime first, are the only code that looks at the field.
The reduced row echelon form is unique, so ranks, pivots, kernel bases and
solutions do not depend on the representation.  Everything is deterministic:
no pivoting heuristics beyond first-nonzero.

Products mod p run on float64 BLAS, exactly (the delayed reduction of
FFLAS-FFPACK).  The exact-limb rule: a residue a < 2**31 splits into 16-bit
limbs, a = hi * 2**16 + lo.  A limb times a limb is an integer below 2**32,
so a contraction of at most 2**21 terms keeps every partial sum below 2**53,
where float64 is exact whatever the order of summation; a limb times a whole
residue is below 2**47, which allows 2**6 terms.  The limb products are
joined and reduced mod p in int64.  On top of that product, row reduction
absorbs the rows of a large matrix a block at a time into a reduced basis,
and forward reduction clears a panel of pivots at a time; small matrices and
the rationals keep the plain loops, which also serve the blocked forms as
their base case.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

# Longest contraction the 16-bit limb products keep below 2**53; up to
# _WHOLE_CONTRACT terms the right factor need not be split at all.
_MAX_CONTRACT = 1 << 21
_WHOLE_CONTRACT = 1 << 6
# Output entries per exact product, so its float temporaries stay bounded.
_CHUNK = 1 << 12
# Rows absorbed per step of the blocked row reduction; a prime-field matrix
# of fewer than two blocks of rows keeps the per-pivot loop.
_BLOCK = 32

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

    Returns (a, pivots).  Mod p, entries stay in [0, p).  A prime-field
    matrix of at least two blocks of rows is absorbed a block at a time
    (_blocked_rref); anything smaller, and every rational matrix, runs the
    per-pivot loop.  The form is unique, so both give the same array.
    """
    if p is None or a.shape[0] < 2 * _BLOCK:
        return _rref_loop(a, p)
    return _blocked_rref(a, p)


def _rref_loop(a: np.ndarray, p):
    """np_rref by one rank-1 update per pivot; products fit in int64."""
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


def _blocked_rref(a: np.ndarray, p):
    """np_rref mod p, absorbing _BLOCK rows at a time into a reduced basis.

    The held rows are in reduced row echelon form.  One product clears their
    pivots from the next block, the loop reduces what is left of the block
    on its nonzero columns, and one product clears the new pivots from the
    held rows.  A zero column stays zero under row operations, so the loop
    never sees the cleared pivot columns.
    """
    rows, cols = a.shape
    held = np.zeros((0, cols), dtype=a.dtype)
    pivots: list[int] = []
    for start in range(0, rows, _BLOCK):
        if len(pivots) == cols:
            break
        block = a[start : start + _BLOCK]
        if pivots:
            block = _submod(block, np_matmul_mod(block[:, pivots], held, p), p)
        block = block[block.any(axis=1)]
        live = np.flatnonzero(block.any(axis=0))
        if not live.size:
            continue
        red, piv = _rref_loop(block[:, live], p)
        new = np.zeros((len(piv), cols), dtype=a.dtype)
        new[:, live] = red[: len(piv)]
        piv = live[piv].tolist()
        held = _submod(held, np_matmul_mod(held[:, piv], new, p), p)
        held, pivots = _merge(held, pivots, new, piv)
    a[: len(pivots)] = held
    a[len(pivots) :] = 0
    return a, pivots


def _merge(rows: np.ndarray, pivots: list, new: np.ndarray, piv: list):
    """rows and new, echelon rows leading at pivots and piv, sorted by pivot."""
    merged = pivots + piv
    order = np.argsort(merged, kind="stable")
    return np.vstack([rows, new])[order], [merged[i] for i in order]


def np_forward_reduce(c: np.ndarray, h: np.ndarray, pivots: list, p) -> np.ndarray:
    """Clear, in place, the columns pivots[t] of c with the echelon rows h.

    h[t] must lead at column pivots[t]; it need not be monic there.  A
    prime-field c of at least two blocks of rows is cleared a panel of
    pivots at a time (_blocked_forward); anything smaller, and every
    rational c, runs the per-pivot loop.
    """
    if p is None or c.shape[0] < 2 * _BLOCK:
        _clear(c, h, pivots, p)
        return c
    return _blocked_forward(c, h, pivots, p)


def _clear(c: np.ndarray, h: np.ndarray, pivots, p, x=None) -> None:
    """np_forward_reduce by one rank-1 update per pivot.

    With x given, the multiplier of h[t] for each row goes to x[:, t].
    """
    for t, col in enumerate(pivots):
        nz = np.nonzero(c[:, col])[0]
        if nz.size == 0:
            continue
        f = _reduce(c[nz, col] * _inv(h[t, col], p), p)
        if x is not None:
            x[nz, t] = f
        c[nz] = _reduce(c[nz] - np.outer(f, h[t]), p)


def _blocked_forward(c: np.ndarray, h: np.ndarray, pivots: list, p) -> np.ndarray:
    """np_forward_reduce mod p, with one product per panel of _BLOCK pivots.

    Pivots left of the first nonzero column of c are skipped: rows that lead
    further right never fill them.  In each panel the per-pivot loop runs on
    the panel's columns alone and records its multipliers x; then one
    product subtracts x times the panel's rows over the full width, on the
    rows of c and the pivots that x touches.  The multipliers are those of
    the loop over the full width, so c comes out the same.
    """
    piv = np.asarray(pivots, dtype=np.int64)
    live = np.flatnonzero(c.any(axis=0))
    start = int(np.searchsorted(piv, live[0])) if live.size else len(piv)
    for s in range(start, len(piv), _BLOCK):
        rows, cols = h[s : s + _BLOCK], piv[s : s + _BLOCK]
        x = np.zeros((c.shape[0], len(cols)), dtype=np.int64)
        _clear(c[:, cols], rows[:, cols], range(len(cols)), p, x)
        hit = np.flatnonzero(x.any(axis=1))
        keep = np.flatnonzero(x.any(axis=0))
        if keep.size:
            c[hit] = _submod(c[hit], np_matmul_mod(x[np.ix_(hit, keep)], rows[keep], p), p)
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
    """Exact a @ b, mod p as 16-bit limb products on float64 BLAS.

    Shapes follow a @ b.  The rows of a are taken _CHUNK output entries at
    a time, so the float temporaries stay bounded.
    """
    if p is None:
        return a @ b
    k = a.shape[-1]
    if k > _MAX_CONTRACT:
        raise ValueError("contraction too long for exact limb products")
    a2 = a if a.ndim == 2 else a[None]
    b2 = b if b.ndim == 2 else b[:, None]
    if b2.shape[0] != k:
        raise ValueError(f"cannot multiply {a.shape} by {b.shape}")
    limbs = _limbs(b2)
    out = np.empty((a2.shape[0], b2.shape[1]), dtype=np.int64)
    step = max(1, _CHUNK // max(b2.shape[1], k, 1))
    for i in range(0, a2.shape[0], step):
        out[i : i + step] = _mulmod(a2[i : i + step], limbs, p)
    return out.reshape(a.shape[:-1] + b.shape[1:])


def _limbs(b: np.ndarray) -> np.ndarray:
    """The (k, n) residues b as the float64 right factor of _mulmod.

    Up to _WHOLE_CONTRACT rows b stays whole; beyond, its 16-bit limbs
    stand side by side, [hi | lo], a (k, 2n) array.
    """
    if b.shape[0] <= _WHOLE_CONTRACT:
        return b.astype(np.float64)
    return np.concatenate((b >> 16, b & 0xFFFF), axis=1).astype(np.float64)


def _mulmod(a: np.ndarray, limbs: np.ndarray, p) -> np.ndarray:
    """a @ b mod p for residues a, with limbs = _limbs(b): one BLAS product.

    The limbs of a, stacked, meet limbs in one exact float product.  Its
    parts are the digits of a @ b in base 2**16, most significant first,
    and Horner's rule mod p in int64 joins them; no step passes 2**54.
    """
    m, k = a.shape
    split = np.concatenate((a >> 16, a & 0xFFFF)).astype(np.float64)
    prod = (split @ limbs).astype(np.int64)
    hi, lo = prod[:m], prod[m:]
    if k <= _WHOLE_CONTRACT:
        digits = [hi, lo]
    else:
        n = hi.shape[1] // 2
        digits = [hi[:, :n], hi[:, n:] + lo[:, :n], lo[:, n:]]
    out = digits[0] % p
    for digit in digits[1:]:
        out <<= 16
        out += digit
        out %= p
    return out


def _submod(a: np.ndarray, b: np.ndarray, p) -> np.ndarray:
    """a - b mod p for residue arrays a and b."""
    out = a - b
    out[out < 0] += p
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
    """Rank of rows: nested lists of field scalars, or an array the caller owns.

    Over QQ the rank is first taken mod q (rank_mod_q).  It is never above
    the rank over QQ, which is never above min(m, n) for m rows of width n,
    so a rank mod q of min(m, n) is the rank.  Otherwise, and over a prime
    field, np_rank gives it, and an array is row-reduced in place; on the
    mod-q route it is left as it was.
    """
    a = rows if isinstance(rows, np.ndarray) else to_np(rows, field)
    full = min(a.shape)
    if not field.modular and full and rank_mod_q(a, field) == full:
        return full
    return np_rank(a, modulus(field))


def rank_mod_q(rows, field):
    """The rank of rows of rationals mod q = DEFAULT_PRIME, or None when q
    divides a denominator.

    The residues come from RationalField.reduction, so the rank is never
    above the rank over QQ: an independent set of rows mod q is independent
    over QQ.
    """
    reduced = field.reduction(rows)
    if reduced is None:
        return None
    k, residues = reduced
    return np_rank(to_np(residues, k), modulus(k))


def np_rank(a: np.ndarray, p) -> int:
    """Rank of an array of residues (or Fractions) that the caller owns.

    a is row-reduced in place, which keeps its row space; nothing is copied
    or reduced mod p again.  With p None this is the Fraction elimination;
    rank, which tries a rational rank mod q first, may leave its array as
    it was.
    """
    return len(np_rref(a, p)[1])


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
    pivots are merged in.  The Hilbert function of the image ring (fiber)
    grows its slices through it, on their values at points, where a product
    by a generator is a column scaling (scale).
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

        Over a prime field the rows may hold any int64 integers, such as
        products of two residues; they are read mod p.  rows, a list or an
        array, is left unchanged: the forward reduction works on a copy.
        """
        p = self._p
        block = _reduce(np.array(rows, dtype=_dtype(p)), p).reshape(-1, self.rows.shape[1])
        red, piv = np_rref(np_forward_reduce(block, self.rows, self.pivots, p), p)
        self.new = red[: len(piv)]
        self.rows, self.pivots = _merge(self.rows, self.pivots, self.new, piv)
        return len(piv)

    def scale(self, values) -> None:
        """Multiply column s of every held row by values[s].

        Every value must be nonzero: then each row keeps its pivot and the
        rows stay in echelon form.
        """
        if not values.all():
            raise ValueError("a zero value would drop a pivot")
        self.rows = _reduce(self.rows * values, self._p)
