"""First syzygies of a parameterization, degree by degree.

The syzygies of (g_1, ..., g_n) in degree t are the kernel of the
coefficient matrix of (h_1, ..., h_n) |-> sum h_i g_i with deg h_i = t.
Collecting kernel vectors that are new modulo multiples of lower-degree
syzygies yields the n x (n-1) Hilbert-Burch matrix: column degrees sum to d,
and the generators are recovered as signed maximal minors up to one unit.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import CertificationFailed, InternalInvariantViolation
from .forms import BinaryForm, form, format_form
from .param import Parameterization


@dataclass(frozen=True)
class SyzygyMatrix:
    """n x (n-1) homogeneous matrix; columns[j][i] is the row-i entry."""

    field: object
    n: int
    col_degrees: tuple
    columns: tuple

    def matrix_strings(self, variables=("x", "y")) -> list:
        return [
            [format_form(self.columns[j][i], variables) for j in range(self.n - 1)]
            for i in range(self.n)
        ]

    def to_json(self, variables=("x", "y")) -> dict:
        return {
            "n": self.n,
            "colDegrees": list(self.col_degrees),
            "matrix": self.matrix_strings(variables),
        }


def _gens_array(P: Parameterization) -> np.ndarray:
    """The generators as rows: residues mod p, or over QQ integers.

    Over QQ all of them are scaled by one factor (linalg.integer_rows of
    their coefficients as one row), which changes no syzygy, rank, reduced
    form or Hilbert function, and hands the kernels integers to lift.
    """
    rows = linalg.to_np([list(g.coeffs) for g in P.gens], P.field)
    if P.field.modular:
        return rows
    return linalg.integer_rows(rows.reshape(1, -1)).reshape(rows.shape)


def _multiplication_matrix(G: np.ndarray, t: int) -> np.ndarray:
    """Coefficient matrix of (h_1, ..., h_n) |-> sum h_i g_i, deg h_i = t.

    G holds the generators as rows; column i*(t+1) + k stands for
    x^(t-k) y^k in the i-th component.
    """
    n, w = G.shape
    return linalg.np_multiples(G, t).reshape(n * (t + 1), w + t).T


def syzygies_in_degree(P: Parameterization, t: int, echelon=None) -> np.ndarray:
    """Basis of the degree-t syzygies, one array row per vector.

    Row entry i*(t+1) + k is the coefficient of x^(t-k) y^k in the i-th
    component; the rows are the reduced kernel basis of M =
    _multiplication_matrix in echelon order: the row for the free column c
    of M is one at c and zero at every other free column and after c.

    Monomial input needs no elimination: the kernel has a closed form
    (_monomial_kernel).  Otherwise echelon, the (p, R, pivots) of the column
    degrees or None, is read off (_read_off) when it is over P's field (p
    None: QQ) and at least t wide, and np_kernel gives the rest: mod p an
    elimination, over QQ the kernel lifted from primes and proved by one
    integer product (see linalg).  The steps are the same for both fields.
    """
    if P.is_monomial:
        return _monomial_kernel(P, t)
    p = linalg.modulus(P.field)
    k = _read_off(echelon, P.n, t) if echelon and echelon[0] == p else None
    return linalg.np_kernel(_multiplication_matrix(_gens_array(P), t), p) if k is None else k


def _by_shift(n: int, t: int) -> np.ndarray:
    """The columns of _multiplication_matrix(G, t) ordered by k, then by i.

    Entry k*n + i is column i*(t+1) + k, the multiple x^(t-k) y^k g_i.
    """
    return np.arange(n * (t + 1)).reshape(n, t + 1).T.ravel()


def _read_off(echelon, n: int, t: int):
    """np_kernel(M_t, p) for M_t = _multiplication_matrix(G, t), read off the
    echelon (p, R, pivots) that _ideal_dims made of the n rows G at a width
    T, or None when T < t.

    R reduces _multiplication_matrix(G, T) in the _by_shift order, mod p or
    exactly for p None.  Its leading w = n (t+1) columns are x^(T-t) times
    those of M_t in that order, so they have the same linear relations:
    each free column c < w of R gives the syzygy e_c - sum_q R[q, c]
    e_(pivot q), and these span the kernel.  np_kernel's row for a free
    column c of M_t is one at c and zero at every other free column and
    after c: with the columns reversed, its basis is the reduced row echelon
    form of the kernel, which is unique over every field, so one np_rref of
    the reversed vectors gives the same array.
    """
    p, red, pivots = echelon
    w = n * (t + 1)
    if red.shape[1] < w:
        return None
    r = bisect_left(pivots, w)
    free = np.ones(w, dtype=bool)
    free[pivots[:r]] = False
    free = np.flatnonzero(free)
    k = np.zeros((free.size, w), dtype=red.dtype)
    k[np.arange(free.size), free] = 1
    k[:, pivots[:r]] = -red[:r, free].T if p is None else -red[:r, free].T % p
    by_gen = np.empty_like(k)
    by_gen[:, _by_shift(n, t)] = k
    return linalg.np_rref(by_gen[:, ::-1].copy(), p)[0][::-1, ::-1].copy()


def _monomial_kernel(P: Parameterization, t: int) -> np.ndarray:
    """np_kernel(M, p) for monomial generators, entry for entry, without elimination.

    Generator i is c_i x^(d-b_i) y^(b_i), b_i its y-order, so column
    i*(t+1) + k of M has the one nonzero c_i, in row b_i + k.  A column is
    a pivot iff no earlier column hits its row, and the reduced echelon row
    of the pivot pi holds c_c / c_pi at every later column c in the same
    row.  So the kernel row of the free column c is e_c - (c_c / c_pi) e_pi,
    and the rows come in free-column order.
    """
    p = linalg.modulus(P.field)
    y = [g.y_order for g in P.gens]
    coef = linalg.to_np([g.coeffs[b] for g, b in zip(P.gens, y)], P.field)[0]
    b = np.array(y)
    hit = b[:, None] + np.arange(t + 1)
    # the first generator whose columns reach each row owns its pivot
    r = np.arange(P.d + t + 1)[:, None]
    owner = ((b <= r) & (r <= b + t)).argmax(axis=1)[hit]
    gen, shift = np.nonzero(owner != np.arange(P.n)[:, None])
    free = gen * (t + 1) + shift
    pg = owner[gen, shift]
    piv = pg * (t + 1) + hit[gen, shift] - b[pg]
    k = np.zeros((free.size, P.n * (t + 1)), dtype=coef.dtype)
    rows = np.arange(free.size)
    k[rows, free] = 1
    if p is None:
        k[rows, piv] = -(coef[gen] / coef[pg])
    else:
        inv = np.array([pow(int(c), -1, p) for c in coef], dtype=np.int64)
        k[rows, piv] = -(coef[gen] * inv[pg]) % p
    return k


def _forest_admission(accepted: list, kv: np.ndarray, t: int, need: int) -> list:
    """hilbert_burch's admission for monomial input: the same rows, by union-find.

    Every row of [multiples; kv] is a binomial syzygy (a closed-form kernel
    row, or a shift of one), with its two nonzeros in coordinates (i, k)
    and (i', k') that hit the same row of M.  Scaling coordinate (i, k) by
    c_i turns it into a multiple of e_u - e_v: a signed incidence vector of
    a graph on the n (t+1) coordinates.  Over every field such vectors have
    rank nodes minus components, so a row is independent of the rows
    before it iff its two ends lie in different components of the graph
    they span, and greedy union-find admission in row order is np_rref's
    row rank profile.  The ends are the first and last nonzeros, read off
    whatever the rows hold, so a corrupted kernel still reaches _certify
    with its values.
    """
    parent = list(range(kv.shape[1]))

    def root(u):
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    for D, vec in accepted:
        nz = np.flatnonzero(vec)
        if not nz.size:
            continue
        # (i, k) in degree D is (i, k + m) in x^(t-D-m) y^m times the column
        u, v = ((e // (D + 1)) * (t + 1) + e % (D + 1) for e in (int(nz[0]), int(nz[-1])))
        for m in range(t - D + 1):
            parent[root(u + m)] = root(v + m)
    nz = kv != 0
    # a zero row has both ends at 0, a loop, and is never admitted
    first = nz.argmax(axis=1).tolist()
    last = (nz * np.arange(1, kv.shape[1] + 1)).argmax(axis=1).tolist()
    new = []
    for j, (u, v) in enumerate(zip(first, last)):
        if len(new) == need:
            break
        ru, rv = root(u), root(v)
        if ru != rv:
            parent[ru] = rv
            new.append(j)
    return new


def _ideal_dims(G: np.ndarray, field, top: int):
    """[dim I_d, ..., dim I_(d+top)] of the ideal of the rows G, and (p, R, pivots).

    One row reduction of _multiplication_matrix(G, top), its columns ordered
    by k, then by i (_by_shift): column k*n + i is x^(top-k) y^k g_i.  The
    first n (t+1) columns, those with k <= t, span x^(top-t) I_(d+t), which
    has the dimension of I_(d+t), so dim I_(d+t) is the number of pivots
    before column n (t+1).  Every kernel of degree t <= top is read off R.
    """
    n = G.shape[0]
    p = linalg.modulus(field)
    red, pivots = linalg.np_rref(_multiplication_matrix(G, top)[:, _by_shift(n, top)], p)
    return np.searchsorted(pivots, n * np.arange(1, top + 2)).tolist(), (p, red, pivots)


def _counts(dims: list, n: int) -> dict:
    """The multiplicity of each column degree t < len(dims), from dims[t] = dim I_(d+t).

    The syzygy module of an m-primary ideal in two variables is free, so
    dim Syz_t = n (t+1) - dim I_(d+t) = sum_j max(0, t - D_j + 1), and its
    second difference counts the columns of degree exactly t.
    """
    # syz[t + 1] = dim Syz_t, with dim Syz_(-1) = 0
    syz = [0] + [n * (t + 1) - v for t, v in enumerate(dims)]
    return {t: c for t in range(1, len(dims)) if (c := syz[t + 1] - 2 * syz[t] + syz[t - 1])}


def _column_degree_counts(P: Parameterization):
    """Multiplicity of each column degree, and the last echelon made, or None.

    The n - 1 column degrees are positive and sum to d, so none passes
    top = d - n + 2, and the largest is at least T = ceil(d / (n-1)).
    Monomial input counts exponent intervals up to top.  Other input, over
    either field, is eliminated up to T (_ideal_dims), which gives dim
    I_(d+t), and so the count of each degree t, exactly for every t <= T.
    Balanced degrees are then all found.  When one column is still missing,
    its degree is d minus the sum of the others.  When m >= 2 are, each has
    degree above T and they sum to the rest, so none passes rest - (m-1)
    (T+1), and one more elimination up to that width finds them all.

    Over QQ, non-monomial input is eliminated mod q first, on the generators
    reduced by RationalField.reduction.  I_(d+t) is spanned by the n (t+1)
    multiples x^(t-k) y^k g_i and lies in the d+t+1 forms of degree d+t, so
    min(n (t+1), d+t+1) bounds it, and a rank mod q is never above the rank
    over QQ: when every dim mod q up to T meets its bound, they are the
    exact dims, and dim Syz_t = max(0, (n-1)(t+1) - d) gives balanced
    degrees, all found at T.  Otherwise, or when q divides a denominator,
    the exact generators take the rule above.  Unlike the bound of the
    Hilbert table of A, which needs the certified e(A), this one holds for
    every input.
    """
    n, d = P.n, P.d
    T = -(-d // (n - 1))
    counts = echelon = None
    if P.is_monomial:
        # the multiples of x^a y^(d-a) in degree d+t occupy [a, a+t] in
        # y-shift; count the union of those intervals over sorted exponents
        a = sorted(d - g.y_order for g in P.gens)
        top = d - n + 2
        dims = [
            t + 1 + sum(min(t + 1, a[i + 1] - a[i]) for i in range(n - 1))
            for t in range(top + 1)
        ]
        counts = _counts(dims, n)
    elif not P.field.modular:
        reduced = P.field.reduction([list(g.coeffs) for g in P.gens])
        if reduced is not None:
            field, rows = reduced
            dims, echelon = _ideal_dims(linalg.to_np(rows, field), field, T)
            if dims == [min(n * (t + 1), d + t + 1) for t in range(T + 1)]:
                counts = _counts(dims, n)
    if counts is None:
        G = _gens_array(P)
        dims, echelon = _ideal_dims(G, P.field, T)
        counts = _counts(dims, n)
        missing = n - 1 - sum(counts.values())
        rest = d - sum(t * c for t, c in counts.items())
        if missing == 1:
            counts[rest] = 1
        elif missing:
            dims, echelon = _ideal_dims(G, P.field, rest - (missing - 1) * (T + 1))
            counts = _counts(dims, n)
    if sum(counts.values()) != n - 1 or sum(t * c for t, c in counts.items()) != d:
        raise InternalInvariantViolation(
            f"column degrees {counts} do not give {n - 1} columns summing to {d}"
        )
    return counts, echelon


def _multiples(accepted: list, t: int, n: int) -> np.ndarray:
    """Every x^(t-D-k) y^k multiple of the accepted columns, flattened in degree t."""
    return np.vstack(
        [
            linalg.np_multiples(vec.reshape(n, D + 1), t - D)
            .transpose(1, 0, 2)
            .reshape(t - D + 1, n * (t + 1))
            for D, vec in accepted
        ]
    )


def _certify(P: Parameterization, cols: list) -> None:
    """Prove that cols, pairs (D, flat coefficients), make a Hilbert-Burch matrix.

    Three checks: every column is a syzygy, the degrees sum to d, and the
    matrix has rank n-1 at some point (1 : s) with s = 1..d+1.  Then
    g^T phi = 0 with phi of rank n-1 gives g = lambda * Delta, Delta the
    signed maximal minors, and deg Delta_i = d with gcd(g) = 1 makes lambda
    a constant.  The d+1 points are distinct because p > d+1, so minors of
    degree d cannot all vanish at every one of them.

    Over QQ the syzygy check is one product in integers, of the generators
    and of each column scaled to integers (linalg.integer_rows).  The rank
    is sought first mod q = DEFAULT_PRIME, on the entries reduced by
    RationalField.reduction: a minor that is nonzero mod q is nonzero over
    QQ.  When q divides a denominator of phi, or no point gives rank n-1
    mod q, the points are tried again over QQ, each rank read off a proved
    kernel (linalg.np_rref).
    """
    field = P.field
    n, d = P.n, P.d
    degrees = [D for D, _ in cols]
    if len(cols) != n - 1 or sum(degrees) != d:
        raise CertificationFailed(
            f"the column degrees {degrees} of phi are not {n - 1} degrees summing to d = {d}"
        )
    # each column times x^(top - D), so all share degree top: its
    # components gain trailing zeros, a syzygy stays a syzygy, and the
    # values at x = 1 stay the same
    top = max(degrees)
    zero = field.zero
    comps = [
        v[i * (D + 1) : (i + 1) * (D + 1)] + [zero] * (top - D) for D, v in cols for i in range(n)
    ]
    flat = linalg.to_np(comps, field).reshape(n - 1, n * (top + 1))
    if not field.modular:
        flat = linalg.integer_rows(flat)
    residue = linalg.np_matmul_mod(
        _multiplication_matrix(_gens_array(P), top), flat.T, linalg.modulus(field)
    )
    bad = np.nonzero(residue.any(axis=0))[0]
    if bad.size:
        j = int(bad[0])
        raise CertificationFailed(
            f"column {j + 1} of phi, of degree {degrees[j]}, is not a syzygy of the generators"
        )
    reduced = None if field.modular else field.reduction(comps)
    for k, rows in ([reduced] if reduced else []) + [(field, comps)]:
        p = linalg.modulus(k)
        entries = linalg.to_np(rows, k)
        for s in range(1, d + 2):
            point = linalg.to_np([s], k)[0]
            vals = linalg.np_matmul_mod(entries, linalg.np_vandermonde(point, top, p), p)
            if len(linalg.np_rref(vals.reshape(n - 1, n), p)[1]) == n - 1:
                return
    raise CertificationFailed(
        f"phi has rank below {n - 1} at every point (1 : s), s = 1..{d + 1}, "
        "so its minors cannot give the generators"
    )


def hilbert_burch(P: Parameterization) -> SyzygyMatrix:
    """The minimal syzygy matrix: n-1 columns, degrees summing to d.

    Column degrees come first, from the Hilbert function of the ideal, read
    off the pivots of one elimination (_column_degree_counts), whose echelon
    form is passed to syzygies_in_degree: one kernel per distinct degree,
    read off it when it is over P's field with no second elimination, or
    else np_kernel, which over QQ lifts it from primes and proves it.  At
    each degree, kernel vectors are admitted only
    when independent of the multiples of the already-accepted columns, in
    kernel basis order, which makes the output deterministic: one
    row-rank-profile elimination of [multiples; kernel vectors] picks them.
    The columns are scaled so their first nonzero coefficient is one.

    Over QQ, admission first takes the rank of [multiples; first need kernel
    vectors] mod q (linalg.rank_mod_q): full row rank mod q is full row rank
    over QQ, and then the row rank profile admits all of that prefix, so the
    first need vectors are the new ones.  Otherwise, or when q divides a
    denominator, the reduced form over QQ (linalg.np_rref, read off a
    proved kernel) admits them.

    Monomial input runs no elimination before _certify: its kernels have a
    closed form (_monomial_kernel), and since every row to admit is then a
    binomial, union-find over the coordinates picks the same rows as the
    row rank profile (_forest_admission).

    The result is certified before it is returned: every column is a
    syzygy, the degrees sum to d and phi has rank n-1 at a point, which
    proves the whole Hilbert-Burch contract (see _certify).  A failed check
    raises CertificationFailed.
    """
    field = P.field
    p = linalg.modulus(field)
    n = P.n
    counts, echelon = _column_degree_counts(P)
    accepted: list = []
    for t in sorted(counts):
        need = counts[t]
        kv = syzygies_in_degree(P, t, echelon)
        if accepted and P.is_monomial:
            new = _forest_admission(accepted, kv, t, need)
        elif accepted:
            old = _multiples(accepted, t, n)
            head = len(old) + need
            if (
                not field.modular
                and linalg.rank_mod_q(np.vstack([old, kv[:need]]), field) == head
            ):
                # independent mod q, so over QQ: the row rank profile
                # admits the first need kernel vectors
                new = list(range(need))
            else:
                # pivot columns of the transpose: the rows independent of all
                # earlier rows, so the same vectors as admitting one at a time
                piv = linalg.np_rref(np.vstack([old, kv]).T.copy(), p)[1]
                new = [c - len(old) for c in piv if c >= len(old)][:need]
        else:
            # a kernel basis is independent, so its first vectors are new
            new = list(range(min(need, len(kv))))
        if len(new) != need:
            raise InternalInvariantViolation(
                f"found {len(new)} of {need} new syzygies in degree {t}"
            )
        accepted += [(t, kv[i]) for i in new]
    cols = []
    for D, vec in accepted:
        vals = linalg.from_np(vec, field)
        c = field.inv(next(v for v in vals if v))
        cols.append((D, [field.mul(c, v) for v in vals]))
    _certify(P, cols)
    # the entries are field scalars already: no form() conversion
    zero = form(field, [])
    columns = tuple(
        tuple(
            BinaryForm(field, tuple(e)) if any(e) else zero
            for e in (v[i * (D + 1) : (i + 1) * (D + 1)] for i in range(n))
        )
        for D, v in cols
    )
    return SyzygyMatrix(field, n, tuple(D for D, _ in cols), columns)


# ---------------------------------------------------------------------------
# determinantal verification


def _det(mat: list, field) -> object:
    """Determinant by elimination over the field."""
    m = [row[:] for row in mat]
    k = len(m)
    det = field.one
    for c in range(k):
        piv = next((r for r in range(c, k) if m[r][c]), None)
        if piv is None:
            return field.zero
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = field.neg(det)
        a = m[c][c]
        det = field.mul(det, a)
        inv = field.inv(a)
        for r in range(c + 1, k):
            if m[r][c]:
                f = field.mul(m[r][c], inv)
                m[r] = [field.sub(v, field.mul(f, w)) for v, w in zip(m[r], m[c])]
    return det


def _proportionality(g: BinaryForm, h: BinaryForm):
    """The scalar c with g = c * h, or None when no such scalar exists."""
    if g.is_zero or h.is_zero or g.degree != h.degree:
        return None
    field = g.field
    idx = h.y_order
    if not g.coeffs[idx]:
        return None
    c = field.div(g.coeffs[idx], h.coeffs[idx])
    return c if g == h.scale(c) else None


def verify_hilbert_burch(P: Parameterization, phi: SyzygyMatrix) -> bool:
    """Check the full Hilbert-Burch contract for phi against P.

    Column degrees sum to d, every column is a syzygy, and the generators
    equal one common unit times the signed maximal minors.  Minors are
    recovered exactly by evaluation at d+1 points and interpolation.
    """
    field = P.field
    n, d = P.n, P.d
    if phi.n != n or len(phi.col_degrees) != n - 1:
        return False
    if sum(phi.col_degrees) != d:
        return False
    for j, D in enumerate(phi.col_degrees):
        col = phi.columns[j]
        if len(col) != n or all(e.is_zero for e in col):
            return False
        if any(not e.is_zero and e.degree != D for e in col):
            return False
        acc = form(field, [])
        for i in range(n):
            if not col[i].is_zero:
                acc = acc.add(P.gens[i].mul(col[i]))
        if not acc.is_zero:
            return False
    minors = _interpolated_minors(phi, d)
    if minors is None or any(m.is_zero for m in minors):
        return False
    unit = _proportionality(P.gens[0], minors[0])
    if unit is None:
        return False
    for i in range(1, n):
        expect = unit if i % 2 == 0 else field.neg(unit)
        if P.gens[i] != minors[i].scale(expect):
            return False
    return True


def _interpolated_minors(phi: SyzygyMatrix, d: int):
    """The n maximal minors (row i deleted) as forms of degree d."""
    field = phi.field
    n = phi.n
    p = linalg.modulus(field)
    # Vandermonde rows at the points t = 0..d: powrows[k][e] = k**e
    powrows = [[field.one] * (d + 1) for _ in range(d + 1)]
    for k in range(d + 1):
        t = field.conv(k)
        row = powrows[k]
        for e in range(1, d + 1):
            row[e] = field.mul(row[e - 1], t)
    powmat = linalg.to_np(powrows, field)
    # entry values at every point
    vals = np.zeros((n, n - 1, d + 1), dtype=powmat.dtype)
    for j in range(n - 1):
        for i in range(n):
            e = phi.columns[j][i]
            if not e.is_zero:
                rev = linalg.to_np(list(reversed(e.coeffs)), field)[0]
                vals[i, j] = linalg.np_matmul_mod(powmat[:, : len(rev)], rev, p)
    minor_vals = np.zeros((n, d + 1), dtype=powmat.dtype)
    for k in range(d + 1):
        mat_k = linalg.from_np(vals[:, :, k], field)
        for i in range(n):
            minor_vals[i, k] = _det(mat_k[:i] + mat_k[i + 1 :], field)
    # interpolate: V c = values with V[k, e] = k**e, c low-to-high
    red, piv = linalg.np_rref(np.concatenate([powmat, minor_vals.T], axis=1), p)
    if piv[: d + 1] != list(range(d + 1)):
        return None
    return [form(field, red[d::-1, d + 1 + i].tolist()) for i in range(n)]
