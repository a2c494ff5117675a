"""First syzygies of a parameterization, degree by degree.

The syzygies of (g_1, ..., g_n) in degree t are the kernel of the
coefficient matrix of (h_1, ..., h_n) |-> sum h_i g_i with deg h_i = t.
Collecting kernel vectors that are new modulo multiples of lower-degree
syzygies yields the n x (n-1) Hilbert-Burch matrix: column degrees sum to d,
and the generators are recovered as signed maximal minors up to one unit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import InternalInvariantViolation
from .forms import BinaryForm, form, format_form
from .param import Parameterization


@dataclass(frozen=True)
class SyzygyMatrix:
    """n x (n-1) homogeneous matrix; columns[j][i] is the row-i entry."""

    field: object
    n: int
    col_degrees: tuple
    columns: tuple

    def entry(self, i: int, j: int) -> BinaryForm:
        return self.columns[j][i]

    def nonzero_entries(self):
        return [e for col in self.columns for e in col if not e.is_zero]

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


def syzygies_in_degree(P: Parameterization, t: int) -> list:
    """Basis of the degree-t syzygies, each a tuple of n forms of degree t."""
    if t < 0:
        return []
    field = P.field
    n, d = P.n, P.d
    ncols = n * (t + 1)
    nrows = t + d + 1
    gens = linalg.to_np([list(g.coeffs) for g in P.gens], field)
    m = np.zeros((nrows, ncols), dtype=gens.dtype)
    rowidx = np.arange(d + 1)[:, None] + np.arange(t + 1)[None, :]
    for i in range(n):
        cols = i * (t + 1) + np.arange(t + 1)
        m[rowidx, cols[None, :]] = gens[i][:, None]
    vectors = linalg.np_kernel(m, linalg.modulus(field)).tolist()
    out = []
    for v in vectors:
        comps = tuple(form(field, v[i * (t + 1) : (i + 1) * (t + 1)]) for i in range(n))
        out.append(comps)
    return out


def _flat(vec, t: int, shift_y: int, field) -> list:
    """Flatten a syzygy vector times x**(t-D-shift_y) * y**shift_y into degree t."""
    row = []
    zero = field.zero
    for h in vec:
        block = [zero] * (t + 1)
        if not h.is_zero:
            for j, c in enumerate(h.coeffs):
                block[shift_y + j] = c
        row.extend(block)
    return row


def _ideal_slice_dim(P: Parameterization, e: int) -> int:
    """dim of the degree-e slice of (g_1, ..., g_n), for e >= d."""
    t = e - P.d
    if P.is_monomial:
        # the multiples of x^a y^(d-a) in degree e occupy [a, a+t] in y-shift;
        # count the union of those intervals over sorted exponents
        a = sorted(P.d - g.y_order for g in P.gens)
        total = t + 1
        for i in range(len(a) - 1):
            total += min(t + 1, a[i + 1] - a[i])
        return total
    rows = []
    zero = P.field.zero
    for g in P.gens:
        base = list(g.coeffs)
        for k in range(t + 1):
            rows.append([zero] * k + base + [zero] * (t - k))
    return linalg.rank(rows, P.field)


def _column_degree_counts(P: Parameterization) -> dict:
    """Multiplicity of each column degree, read off the ideal's Hilbert function.

    The syzygy module of an m-primary ideal in two variables is free, so
    dim Syz_t = sum_j max(0, t - D_j + 1); the second difference of that
    sequence counts the columns of degree exactly t.
    """
    n, d = P.n, P.d
    counts: dict = {}
    found = 0
    weighted = 0
    s_prev2 = s_prev = 0
    t = 0
    while found < n - 1 and t < d:
        t += 1
        s_t = n * (t + 1) - _ideal_slice_dim(P, t + d)
        c_t = (s_t - s_prev) - (s_prev - s_prev2)
        if c_t:
            counts[t] = c_t
            found += c_t
            weighted += t * c_t
        s_prev2, s_prev = s_prev, s_t
    if found != n - 1 or weighted != d:
        raise InternalInvariantViolation(
            f"column degrees {counts} do not give {n - 1} columns summing to {d}"
        )
    return counts


def hilbert_burch(P: Parameterization) -> SyzygyMatrix:
    """The minimal syzygy matrix: n-1 columns, degrees summing to d.

    Column degrees come first, from the Hilbert function of the ideal; then
    one kernel computation per distinct degree.  At each degree, kernel
    vectors are admitted only when independent of the multiples of the
    already-accepted columns, in kernel basis order, which makes the output
    deterministic.
    """
    field = P.field
    n, d = P.n, P.d
    counts = _column_degree_counts(P)
    accepted: list = []
    for t in sorted(counts):
        need = counts[t]
        kv = syzygies_in_degree(P, t)
        ech = linalg.Echelon(n * (t + 1), field)
        old = []
        for D, vec in accepted:
            for k in range(t - D + 1):
                old.append(_flat(vec, t, k, field))
        if old:
            ech.add_rows(old)
        got = 0
        for vec in kv:
            if ech.add_row(_flat(vec, t, 0, field)):
                accepted.append((t, vec))
                got += 1
                if got == need:
                    break
        if got != need:
            raise InternalInvariantViolation(
                f"found {got} of {need} new syzygies in degree {t}"
            )
    degrees = tuple(D for D, _ in accepted)
    columns = []
    for _, vec in accepted:
        lead = next(e for e in vec if not e.is_zero)
        c = field.inv(lead.coeffs[lead.y_order])
        columns.append(tuple(e.scale(c) for e in vec))
    return SyzygyMatrix(field, n, degrees, tuple(columns))


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
