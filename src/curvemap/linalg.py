"""Exact dense linear algebra over the coefficient fields.

Row reduction, kernels, linear solves and the one growing echelon.  Over a
prime field a matrix is an int64 array of residues in [0, p), and p < 2**31
keeps every product of two residues inside int64; the numpy kernels take
the modulus p.  Over the rationals a matrix is an object array of Fractions
(p None), and it is never eliminated as one: its reduced kernel is lifted
from kernels mod primes and proved by one integer product
(_lifted_kernel), and np_rref, np_kernel, np_solve and the ranks read
their answers off that kernel.  In this module modulus(field), to_np,
from_np, the rank helpers, which take a rational rank mod one prime first,
and Echelon, which refuses the rationals, are the only code that looks at
the field.  Outside it fiber, syzygy and param also branch on
field.modular, to take a rational answer mod primes first, and forms to
reduce its products mod p.  The reduced row echelon form is unique, so
ranks, pivots, kernel bases and solutions do not depend on the route.
Everything is deterministic: no pivoting heuristics beyond first-nonzero.

Products mod p run on float64 BLAS, exactly (the delayed reduction of
FFLAS-FFPACK).  The exact-limb rule: a residue a < 2**31 splits into 16-bit
limbs, a = hi * 2**16 + lo.  A limb times a limb is an integer below 2**32,
so a contraction of at most 2**21 terms keeps every partial sum below 2**53,
where float64 is exact whatever the order of summation; a limb times a whole
residue is below 2**47, which allows 2**6 terms.  The limb products are
joined and reduced mod p in int64, and a product is taken in chunks whose
float temporaries stay within a fixed number of bytes.  On top of that
product one kernel, _absorb, grows a span held in reduced row echelon form
by a block of rows: one product clears the held pivots from the block and
one more clears the block's new pivots from the held rows.  Row reduction of
a large matrix and the growing echelon both run on it; small matrices keep
the plain per-pivot loop, which also reduces each block.  The growing
echelon, like every elimination outside the lift, works on int64 residues
mod p only.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import CertificationFailed
from .field import reduction_primes

# Longest contraction the 16-bit limb products keep below 2**53; up to
# _WHOLE_CONTRACT terms the right factor need not be split at all.
_MAX_CONTRACT = 1 << 21
_WHOLE_CONTRACT = 1 << 6
# Bytes of float64 temporaries in one step of an exact product: its rows
# and its contraction are both chunked, so a product against a large held
# echelon never holds the limbs of all of it at once.
_PRODUCT_BYTES = 1 << 24
# Rows absorbed per step of the blocked row reduction; a prime-field matrix
# of fewer than two blocks of rows keeps the per-pivot loop, or takes it on
# a panel when it is wide and has at least _PANEL entries.  Below that the
# panel's product costs more than the loop's updates save.
_BLOCK = 32
_PANEL = 1 << 12

_to_fraction = np.frompyfunc(Fraction, 1, 1)


def modulus(field):
    """The kernels' p for the field: its prime, or None for the rationals."""
    return field.p if field.modular else None


def _dtype(p):
    return object if p is None else np.int64


def _reduce(a, p):
    """a mod p, or a itself in exact arithmetic."""
    return a if p is None else a % p


# ---------------------------------------------------------------------------
# numpy kernels: int64 residues mod p, or Fraction objects when p is None


def np_rref(a: np.ndarray, p):
    """Reduced row echelon form of a, in place.

    Returns (a, pivots).  Mod p, entries stay in [0, p).  A prime-field
    matrix of at least two blocks of rows is absorbed a block at a time
    (_blocked_rref), and a smaller one of at least _PANEL entries and more
    than three times as wide as it is tall takes its row operations on a
    panel (_panel_rref); anything else runs the per-pivot loop.  A rational
    matrix is read off its proved kernel K (_lifted_kernel): the pivots are
    the columns that are not free, and the row of the pivot c holds 1 at c
    and -K[f, c] at each free column f.  The form is unique, so all give
    the same array.
    """
    rows, cols = a.shape
    if p is None:
        k, free = _lifted_kernel(a)
        pivots = sorted(set(range(cols)).difference(free))
        a[...] = 0
        a[np.arange(len(pivots)), pivots] = 1
        a[: len(pivots), free] = -k[:, pivots].T
        return a, pivots
    if rows >= 2 * _BLOCK:
        return _blocked_rref(a, p)
    if cols > 3 * rows and rows * cols >= _PANEL:
        return _panel_rref(a, p)
    return _rref_loop(a, p)


def _rref_loop(a: np.ndarray, p):
    """np_rref mod p by one rank-1 update per pivot; products fit in int64.

    Before column c, the rows from the current pivot row down are zero, so
    the swap, the scaling and the update touch only columns c and after.
    One search of column c finds both the pivot row and the rows to clear,
    and a pivot alone in its column needs no update.
    """
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = a[:, c].nonzero()[0]
        k = int(nz.searchsorted(r))
        if k == nz.size:
            continue
        i = int(nz[k])
        if i != r:
            a[[r, i], c:] = a[[i, r], c:]
        v = a[r, c]
        if v != 1:
            a[r, c:] = a[r, c:] * pow(int(v), -1, p) % p
        if nz.size > 1:
            # rows r..i-1 are zero in column c, so the other rows of nz are
            # every row to clear
            sel = np.concatenate((nz[:k], nz[k + 1 :]))
            block = a[sel, c:]
            a[sel, c:] = (block - block[:, :1] * a[r, c:]) % p
        pivots.append(c)
        r += 1
    return a, pivots


def _panel_rref(a: np.ndarray, p):
    """np_rref mod p of a wide matrix, its row operations taken on a panel.

    The per-pivot loop runs on the first 2m columns of the m rows beside an
    m x m identity, which records the row operations T.  One product gives
    T times the other columns.  The rows that lead in the panel are then
    reduced on it; the others are zero there, and they are absorbed into
    the first (_absorb), which finds the pivots past the panel.
    """
    m, w = a.shape
    k = 2 * m
    aug = np.zeros((m, k + m), dtype=a.dtype)
    aug[:, :k] = a[:, :k]
    aug[np.arange(m), k + np.arange(m)] = 1
    red, piv = _rref_loop(aug, p)
    top = sum(c < k for c in piv)
    rows = np.zeros((m, w), dtype=a.dtype)
    rows[:, :k] = red[:, :k]
    rows[:, k:] = np_matmul_mod(red[:, k:], a[:, k:], p)
    free = np.ones(w, dtype=bool)
    free[piv[:top]] = False
    free = np.flatnonzero(free)
    held, _ = _absorb(piv[:top], free, rows[:top, free], rows[top:], p)
    rank = len(held[0])
    a[:rank] = _expand(*held, w)
    a[rank:] = 0
    return a, held[0]


def _blocked_rref(a: np.ndarray, p):
    """np_rref mod p, absorbing _BLOCK rows at a time into a reduced basis."""
    rows, cols = a.shape
    held = ([], np.arange(cols), np.zeros((0, cols), dtype=a.dtype))
    for start in range(0, rows, _BLOCK):
        if not held[1].size:
            break
        held, _ = _absorb(*held, a[start : start + _BLOCK], p)
    rank = len(held[0])
    a[:rank] = _expand(*held, cols)
    a[rank:] = 0
    return a, held[0]


def _absorb(pivots: list, free: np.ndarray, rest: np.ndarray, block: np.ndarray, p):
    """Absorb the rows of block mod p into a span held in reduced row echelon form.

    The held rows lead at pivots, sorted, and are the identity on those
    columns; rest holds them on the other columns, free.  One product
    clears the held pivots from the block, np_rref reduces what is left on
    its nonzero columns, and one product clears the new pivots from the held
    rows.  A zero column stays zero under row operations, so the reduction
    never sees the cleared pivot columns.  Returns ((pivots, free, rest), new)
    for the grown span, with new = (the new rows on the new free columns,
    their pivots); block is not changed.
    """
    if pivots:
        block = _submod(block[:, free], np_matmul_mod(block[:, pivots], rest, p), p)
    block = block[block.any(axis=1)]
    live = np.flatnonzero(block.any(axis=0))
    if not live.size:
        return (pivots, free, rest), (rest[:0], [])
    red, piv = np_rref(block[:, live], p)
    new = np.zeros((len(piv), free.size), dtype=rest.dtype)
    new[:, live] = red[: len(piv)]
    piv = live[piv]
    keep = np.ones(free.size, dtype=bool)
    keep[piv] = False
    new = new[:, keep]
    rest = _submod(rest[:, keep], np_matmul_mod(rest[:, piv], new, p), p)
    cols = free[piv].tolist()
    rest, merged = _merge(rest, pivots, new, cols)
    return (merged, free[keep], rest), (new, cols)


def _expand(pivots: list, free: np.ndarray, rest: np.ndarray, cols: int) -> np.ndarray:
    """The whole rows of a reduced echelon held as (pivots, free, rest)."""
    out = np.zeros((len(pivots), cols), dtype=rest.dtype)
    out[np.arange(len(pivots)), pivots] = 1
    out[:, free] = rest
    return out


def _merge(rows: np.ndarray, pivots: list, new: np.ndarray, piv: list):
    """rows and new, echelon rows leading at pivots and piv, sorted by pivot."""
    merged = pivots + piv
    order = np.argsort(merged, kind="stable")
    return np.vstack([rows, new])[order], [merged[i] for i in order]


def integer_rows(a: np.ndarray) -> np.ndarray:
    """Rows of rationals as primitive integer rows, each spanning the same line."""
    out = np.zeros(a.shape, dtype=object)
    for i, row in enumerate(a.tolist()):
        den = math.lcm(*(v.denominator for v in row))
        ints = [v.numerator * (den // v.denominator) for v in row]
        g = math.gcd(*ints)
        out[i] = [v // g for v in ints] if g > 1 else ints
    return out


def np_kernel(a: np.ndarray, p) -> np.ndarray:
    """Basis of the right kernel, one vector per row, echelon order.

    The row for the free column f is one at f and zero at every other free
    column and past f.  Over QQ it is the proved lift (_lifted_kernel).
    """
    return _lifted_kernel(a)[0] if p is None else _kernel(*np_rref(a.copy(), p), p)[0]


def _kernel(red: np.ndarray, pivots: list, p):
    """The kernel basis mod p read off a reduced row echelon form, and its free columns."""
    cols = red.shape[1]
    free = np.ones(cols, dtype=bool)
    free[pivots] = False
    free = np.flatnonzero(free)
    k = np.zeros((free.size, cols), dtype=red.dtype)
    k[np.arange(free.size), free] = 1
    k[:, pivots] = -red[: len(pivots)][:, free].T % p
    return k, free.tolist()


def _lifted_kernel(a: np.ndarray):
    """The reduced kernel basis K of a rational matrix, lifted from primes
    and proved, and its free columns.

    Each row of a is scaled to integers (integer_rows), M_int, so no prime
    divides a denominator.  Mod q = DEFAULT_PRIME, then mod each prime
    below it (reduction_primes), the reduced echelon form gives a residue
    kernel, the identity on its free set F.  The rank of every leading block
    of columns of M_int mod a prime is at most its rank over QQ, so no
    prime has fewer free columns than QQ, and one with as many has each at
    or before the QQ one.  So a prime whose F has fewer columns, or as many
    but lexicographically later ones, restarts the combination, a worse one
    is skipped, and residue kernels with the same F are combined by CRT.
    The entries are reconstructed as fractions (Wang 1981, _reconstructed)
    after 1, 2, 3, 4, 6, 9, ... combined primes, each count half again the
    last, and once the modulus passes the bound: a failed attempt costs a
    Euclid per entry as long as the modulus, so one after every prime
    would cost the square of the primes needed.  The candidate is returned
    once two exact checks hold (_proves_kernel): K is the identity on F and
    its row for c in F is zero after c; and M_int @ K_int^T == 0 in Python
    integers, K_int the rows of K scaled to integers.

    They prove that K is the QQ kernel, byte for byte.  Its |F| rows are
    independent kernel vectors, so the QQ nullity is at least |F|, the
    nullity mod a prime, which is never below the QQ nullity.  The row for c
    writes column c as a combination of the columns before it, so each c in
    F is free over QQ, and F is the QQ free set; the kernel vector that is
    one at c and zero on the rest of F is unique.

    Each entry of K is a ratio of two minors of M_int, both at most the
    Hadamard bound H, the product of its column norms, so once the primes
    combined with the QQ free set pass bound = 2 H^2, reconstruction cannot
    fail.  A prime with another F divides the QQ rank profile's nonzero
    minor, so all primes tried pass bound^2 only after the good ones pass
    bound; a faulty residue kernel that outranks every good prime stops
    there.  At either limit with nothing proved, or when the primes run
    out, CertificationFailed is raised.
    """
    m_int = integer_rows(a)
    bound = 2 * math.prod(max(1, v) for v in (m_int * m_int).sum(axis=0).tolist())
    best, tried, limit = None, 1, bound * bound
    for q in reduction_primes():
        tried *= q
        k, free = _kernel(*np_rref(np.array(m_int % q, dtype=np.int64), q), q)
        key = (-len(free), free)
        if best is None or key > best:
            best, residues, modulus, joined, due = key, k.astype(object), q, 1, 1
        elif key == best:
            residues += modulus * ((k - residues) * pow(modulus, -1, q) % q)
            modulus *= q
            joined += 1
        if key == best and (joined == due or modulus > bound):
            due = max(joined + 1, joined * 3 // 2)
            lifted = _reconstructed(residues, modulus)
            if lifted is not None and _proves_kernel(m_int, lifted, free):
                return lifted, free
        if modulus > bound or tried > limit:
            break
    raise CertificationFailed(
        f"no kernel of a {a.shape[0]} x {a.shape[1]} rational matrix was proved "
        f"from primes by its Hadamard bound 2 H^2 < 2^{bound.bit_length()}"
    )


def _reconstructed(residues: np.ndarray, m: int):
    """Each residue u mod m as the fraction a/b = u mod m with |a|, b <= sqrt(m/2).

    Wang's rational reconstruction: the extended Euclidean remainders of
    (m, u) stop at the first r <= sqrt(m/2), and its cofactor s must be at
    most the same bound and prime to r.  Such a fraction is unique, and
    None is returned when an entry has none.  The entries are taken last
    first: the kernel row of a later free column has more pivot entries,
    with larger minors, so a modulus still too small fails there at once.
    """
    bound = math.isqrt(m // 2)
    out = []
    for u in residues.ravel()[::-1]:
        r0, r1, s0, s1 = m, u, 0, 1
        while r1 > bound:
            f = r0 // r1
            r0, r1, s0, s1 = r1, r0 - f * r1, s1, s0 - f * s1
        if abs(s1) > bound or math.gcd(r1, s1) != 1:
            return None
        out.append(Fraction(r1, s1))
    return np.array(out[::-1], dtype=object).reshape(residues.shape)


def _proves_kernel(m_int: np.ndarray, k: np.ndarray, free: list) -> bool:
    """The shape check on k and free, and the product m_int @ k_int^T == 0
    (see _lifted_kernel)."""
    for i, c in enumerate(free):
        if k[i, c] != 1 or k[i, c + 1 :].any() or any(k[i, f] for f in free[:i]):
            return False
    return not (m_int @ integer_rows(k).T).any()


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

    Shapes follow a @ b.  The contraction is taken a chunk of rows of b at
    a time, and each chunk a chunk of rows of a at a time, so that the float
    temporaries of one step (_mulmod) stay within _PRODUCT_BYTES; the
    partial products of the contraction chunks are summed mod p.
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
    m, n = a2.shape[0], b2.shape[1]
    # 16 bytes per entry of the limbs of b and of a, 64 per output entry
    # for the float product and its int64 copy
    kc = max(1, min(k, _PRODUCT_BYTES // (16 * n + 1)))
    mc = max(1, _PRODUCT_BYTES // (16 * kc + 64 * n + 1))
    out = np.zeros((m, n), dtype=np.int64)
    for s in range(0, k, kc):
        limbs = _limbs(b2[s : s + kc])
        for i in range(0, m, mc):
            part = _mulmod(a2[i : i + mc, s : s + kc], limbs, p)
            # out + part mod p, as out - (p - part)
            out[i : i + mc] = _submod(out[i : i + mc], p - part, p) if s else part
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
    # a negative difference shifts right to all ones, which masks to p
    out += (out >> 63) & p
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


def np_mul(a: np.ndarray, b: np.ndarray, p) -> np.ndarray:
    """The pointwise product a * b of residues mod p, broadcast as numpy does."""
    return a * b % p


def np_inverses(a: np.ndarray, p) -> np.ndarray:
    """The pointwise inverses of nonzero residues mod p.

    Mod p by Fermat, a**(p-2), with every square and product of two
    residues inside int64.
    """
    out, base, e = np.ones_like(a), a % p, p - 2
    while e:
        if e & 1:
            out = out * base % p
        base = base * base % p
        e >>= 1
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
    field, np_rank gives it (over QQ from the proved kernel), and an array
    is row-reduced in place; on the mod-q route it is left as it was.
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
    or reduced mod p again.  With p None the rank is the number of columns
    less the proved nullity (_lifted_kernel); rank, which tries a rational
    rank mod q first, may leave its array as it was.
    """
    return len(np_rref(a, p)[1])


def solve(rows, rhs, field):
    """A solution of rows @ x = rhs, or None if the system is inconsistent."""
    if not rows:
        return None
    x = np_solve(to_np(rows, field), to_np(rhs, field)[0], modulus(field))
    return None if x is None else from_np(x, field)


class Echelon:
    """A growing span mod p, held in reduced row echelon form, its rows sorted by pivot.

    The one incremental elimination of the package.  The held rows are the
    identity on their pivot columns, so only their entries on the other
    columns are kept, and each block of rows is absorbed by two products
    (_absorb).  It works mod p only, and refuses a rational field: over QQ
    the Hilbert function of the image ring (fiber), its one user, grows its
    slices through it on their values at points mod primes.
    """

    def __init__(self, ncols: int, field):
        if not field.modular:
            raise ValueError("the echelon works mod p only")
        self.field = field
        self._p = field.p
        self._ncols = ncols
        self.pivots: list[int] = []
        # the columns that are not pivots, and the held rows on them
        self._free = np.arange(ncols)
        self._held = np.zeros((0, ncols), dtype=np.int64)
        # the rows the last add_rows inserted, as held, and their pivots
        self._new = (self._held, [])

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @property
    def rows(self) -> np.ndarray:
        """The held rows, whole, sorted by pivot."""
        return _expand(self.pivots, self._free, self._held, self._ncols)

    @property
    def new(self) -> np.ndarray:
        """The rows the last add_rows inserted, whole, in echelon form as held.

        Together with the rows held before, they span the grown span.
        """
        return _expand(self._new[1], self._free, self._new[0], self._ncols)

    def add_rows(self, rows) -> int:
        """Insert rows of residues; returns how many were new.

        The rows may hold any int64 integers, such as products of two
        residues; they are read mod p.  rows, a list or an array, is left
        unchanged.
        """
        block = np.array(rows, dtype=np.int64).reshape(-1, self._ncols) % self._p
        (self.pivots, self._free, self._held), self._new = _absorb(
            self.pivots, self._free, self._held, block, self._p
        )
        return len(self._new[1])
