"""Fibers, image membership, and the multiplicities attached to the map.

A scalar point p of P^(n-1) pulls back to the row vector p*phi; the gcd of
its entries cuts out the fiber over p, so p lies on the image exactly when
that gcd is nonconstant.  The degree of a general fiber is the degree r of
the map onto its image.  A sampled fiber degree s is never below r, and
coprime forms f1, f2 of degree s with every generator in k[f1, f2] prove
r >= s (Lueroth), which turns the sample into a certified r.  Then
r * e(A) = d gives the multiplicity e(A) of the homogeneous coordinate ring
A of the image, and with it most of the Hilbert table of A.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb, gcd

import numpy as np

from . import linalg
from .errors import (
    CertificationFailed,
    InternalInvariantViolation,
    SlopeNotStabilized,
    ZeroRow,
)
from .forms import (
    BinaryForm,
    ProjPoint1,
    ProjPointN,
    form,
    format_form,
    gcd_forms,
    monomial,
)
from .ideals import GradedIdeal
from .param import Parameterization
from .syzygy import SyzygyMatrix

OFF_IMAGE_NOTE = (
    "membership is decided for rational points over the configured field; "
    "a point off the image here may still lie on it over the algebraic closure"
)


@dataclass(frozen=True)
class FiberReport:
    point: ProjPointN
    on_image: bool
    fiber_form: BinaryForm
    fiber_degree: int

    def to_json(self, variables=("x", "y")) -> dict:
        out = {
            "point": str(self.point),
            "onImage": self.on_image,
            "fiberForm": format_form(self.fiber_form, variables),
            "fiberDegree": self.fiber_degree,
        }
        if not self.on_image:
            out["note"] = OFF_IMAGE_NOTE
        return out


def apply_map(P: Parameterization, q: ProjPoint1) -> ProjPointN:
    vals = [g.eval_proj(q) for g in P.gens]
    if not any(vals):
        raise InternalInvariantViolation(
            "all generators vanish at a point; the ideal cannot be m-primary"
        )
    return ProjPointN.of(P.field, vals)


def row_combination(phi: SyzygyMatrix, p: ProjPointN) -> list:
    """The n-1 entries of the row vector p * phi."""
    field = phi.field
    out = []
    for col in phi.columns:
        acc = form(field, [])
        for c, e in zip(p.coords, col):
            if c and not e.is_zero:
                acc = acc.add(e.scale(c))
        out.append(acc)
    return out


def row_ideal(phi: SyzygyMatrix, p: ProjPointN) -> GradedIdeal:
    entries = [e for e in row_combination(phi, p) if not e.is_zero]
    if not entries:
        raise ZeroRow(f"p * phi vanishes identically at p = {p}")
    return GradedIdeal.of(phi.field, entries)


def fiber(P: Parameterization, phi: SyzygyMatrix, p: ProjPointN) -> FiberReport:
    entries = [e for e in row_combination(phi, p) if not e.is_zero]
    if not entries:
        raise ZeroRow(f"p * phi vanishes identically at p = {p}")
    g = gcd_forms(entries)
    return FiberReport(p, g.degree >= 1, g, g.degree)


# ---------------------------------------------------------------------------
# Hilbert function of the image ring A = k[(I)_d] and its multiplicity


def _slope(hf: list, d: int):
    """Stabilized slope candidate: three equal consecutive first differences.

    Transient plateaus exist (sumset growth can overshoot before settling),
    so a candidate is only plausible when it divides d.  Given the certified
    e(A), hilbert_table_a accepts only that slope; without it, the r * e = d
    check in map_degree rejects anything that still slips through.
    """
    if len(hf) >= 4:
        e = hf[-1] - hf[-2]
        if e == hf[-2] - hf[-3] == hf[-3] - hf[-4] and 1 <= e <= d and d % e == 0:
            return e
    return None


def _semigroup_gap_count(steps: list) -> int:
    """Number of gaps of the numerical semigroup generated by steps (gcd 1).

    Walks upward until min(steps) consecutive reachable integers appear,
    after which everything is reachable.
    """
    smallest = min(steps)
    if smallest == 1:
        return 0
    reachable = [True]
    gaps = 0
    streak = 1
    i = 0
    while streak < smallest:
        i += 1
        ok = any(i >= s and reachable[i - s] for s in steps)
        reachable.append(ok)
        if ok:
            streak += 1
        else:
            streak = 0
            gaps += 1
    return gaps


def _table_monomial(P: Parameterization, cap: int):
    # y-free exponents; 0 is always present, so the sumsets are nested and
    # only the frontier of new sums needs expanding
    steps = sorted(P.d - g.y_order for g in P.gens)
    g = 0
    for s in steps:
        g = gcd(g, s)
    top = P.d // g
    # |S_j| <= top*j + 1 - deficit always, with equality exactly once the
    # sumset is a full interval flanked by the frozen semigroup gap sets;
    # from that point the growth per step is exactly top
    low = _semigroup_gap_count([s // g for s in steps if s])
    high = _semigroup_gap_count([top - s // g for s in steps if s != P.d])
    deficit = low + high
    seen = {0}
    new = {0}
    hf = [1]
    j = 0
    while True:
        j += 1
        grown = {s + t for s in new for t in steps[1:]} - seen
        seen |= grown
        new = grown
        hf.append(len(seen))
        if len(seen) == top * j + 1 - deficit:
            return top, hf
        if j >= cap:
            raise SlopeNotStabilized(
                f"Hilbert function of the image ring not linear by degree {cap}"
            )


def _slices(P: Parameterization):
    """HF_A(1), HF_A(2), ... by incremental elimination.

    A_(j+1) = h * A_j + sum of g_i * A_j over the other generators, with h a
    generator not divisible by y.  Only the rows new in A_j need the other
    generators: the rest are h-multiples from A_(j-1), whose products are
    already in h * A_j.
    """
    field = P.field
    p = linalg.modulus(field)
    n = P.n
    G = linalg.to_np([list(g.coeffs) for g in P.gens], field)
    R, piv = linalg.np_rref(G.copy(), p)
    R = R[: len(piv)]
    pivots = list(piv)
    W = R.copy()
    hrow = next(i for i in range(n) if G[i, 0])
    h = G[hrow]
    yield R.shape[0]
    while True:
        H = linalg.np_shift_mul(R, h, p)
        C = np.vstack(
            [linalg.np_shift_mul(W, G[i], p) for i in range(n) if i != hrow]
        )
        # H[t] leads at pivots[t] since multiplying by h (nonzero x^d
        # coefficient) preserves leading columns
        Cr, cpiv = linalg.np_rref(linalg.np_forward_reduce(C, H, pivots, p), p)
        N = Cr[: len(cpiv)]
        merged = pivots + cpiv
        order = np.argsort(merged, kind="stable")
        R = np.vstack([H, N])[order]
        pivots = [merged[i] for i in order]
        W = N
        yield R.shape[0]


def _plane_curve(e: int):
    """HF_A(1), HF_A(2), ... of a plane curve of degree e: C(j+2,2) - C(j-e+2,2)."""
    j = 0
    while True:
        j += 1
        yield comb(j + 2, 2) - (comb(j - e + 2, 2) if j >= e else 0)


def hilbert_table_a(P: Parameterization, e=None):
    """(e(A), [HF_A(0), HF_A(1), ...]) up to the degree where the slope locked in.

    The list ends at the first degree where three consecutive first
    differences agree (and, when e is given, equal e); a slope not locked in
    by degree 2d+4 raises SlopeNotStabilized.  Monomial inputs take the
    sumset route.

    e, when given, must be the certified e(A) = d // r, with r from
    certify_map_degree.  It makes most of the table free: n = 3 has the closed
    form of a plane curve of degree e, and otherwise elimination stops at the
    first j >= 1 with HF_A(j) = j*e + 1.  From there the slices stay full by
    theorem: A_j fills k[f1, f2]_(je), and the generators, read as forms of
    degree e in the new variables, generate every form of degree >= 2e - 1,
    so A_(j+1) = A_j * A_1 is full as well.

    e is trusted, not verified: a wrong e gives a wrong table for n = 3, and
    may for n >= 4 once a slice happens to read j*e + 1.  Only the monomial
    route, and a table whose slope never reaches e, turn a wrong e into an
    error.  Without e the whole table is eliminated, which certify_map_degree
    can then check through r * e = d.
    """
    cap = 2 * P.d + 4
    if P.is_monomial:
        got, hf = _table_monomial(P, cap)
        if e is not None and got != e:
            raise CertificationFailed(
                f"the sumset table gives e(A) = {got}, the certified map degree e(A) = {e}"
            )
        return got, hf
    if e is not None and P.n == 3:
        values = _plane_curve(e)
    else:
        values = _slices(P)
    hf = [1]
    full = False
    j = 0
    while True:
        j += 1
        hf.append(j * e + 1 if full else next(values))
        full = e is not None and hf[j] == j * e + 1
        slope = _slope(hf, P.d)
        if slope is not None and e in (None, slope):
            return slope, hf
        if j >= cap:
            raise SlopeNotStabilized(
                f"Hilbert function of the image ring not linear by degree {cap}"
            )


def multiplicity_a(P: Parameterization) -> int:
    """Multiplicity of the coordinate ring of the image curve."""
    return hilbert_table_a(P)[0]


@dataclass(frozen=True)
class DegreeCertificate:
    """The map degree r with its witness.

    pair holds coprime forms f1, f2 of degree r, and new_gens every generator
    written as a form in (f1, f2).
    """

    r: int
    pair: tuple
    new_gens: tuple


def _sampled_fiber_degree(P: Parameterization, phi: SyzygyMatrix, seed, samples) -> int:
    """Least fiber degree over the images of random points; never below r.

    The points (1 : t) are drawn in batches of the samples still missing.
    One Vandermonde product evaluates every generator at a batch, and one
    product per column of phi gives every row p * phi; a point whose row
    vanishes is redrawn, within samples + 16 draws in all.
    """
    if samples < 1:
        raise ValueError("need at least one fiber sample")
    rng = random.Random(f"map-degree:{seed}")
    field = P.field
    p = linalg.modulus(field)
    G = linalg.to_np([list(g.coeffs) for g in P.gens], field)
    cols = [
        linalg.to_np([e.coeffs or [field.zero] * (D + 1) for e in col], field)
        for D, col in zip(phi.col_degrees, phi.columns)
    ]
    best = None
    got = 0
    attempts = 0
    while got < samples:
        room = samples + 16 - attempts
        if room <= 0:
            raise CertificationFailed(
                "fiber sampling kept hitting degenerate points; "
                "retry with a different seed or a larger prime"
            )
        ts = [field.rand(rng) for _ in range(min(samples - got, room))]
        attempts += len(ts)
        points = linalg.to_np(ts, field)[0]
        # vals[i, s] = g_i(1, t_s), the image of the s-th point
        vals = linalg.np_matmul_mod(G, linalg.np_vandermonde(points, P.d, p), p)
        rows = [linalg.from_np(linalg.np_matmul_mod(vals.T, C, p), field) for C in cols]
        for s in range(len(ts)):
            entries = [e for e in (form(field, row[s]) for row in rows) if not e.is_zero]
            if not entries:
                continue
            got += 1
            degree = gcd_forms(entries).degree
            if degree < 1:
                point = ProjPointN.of(field, linalg.from_np(vals[:, s], field))
                raise InternalInvariantViolation(f"image point {point} reported off the image")
            best = degree if best is None else min(best, degree)
    return best


def certify_map_degree(
    P: Parameterization, phi: SyzygyMatrix, seed=0, samples=7, e=None
) -> DegreeCertificate:
    """Degree r of the map onto its image, sampled and then proved (Lueroth).

    Every fiber over an image point has degree >= r, so the least sampled
    degree s bounds r from above, and s = 1 proves r = 1.  For s > 1, take
    coprime f1, f2 of degree s (two row-ideal gcds from extract_reparam_basis):
    if every g_i lies in k[f1, f2], the map factors through the degree-s
    cover (f1 : f2), so r >= s and r = s.  The witness is returned, so the
    reparameterization and the core reuse it.  As further checks s must
    divide every column degree of phi and, when e is given, s * e = d.
    """
    from .reparam import express_in_subring, extract_reparam_basis

    s = _sampled_fiber_degree(P, phi, seed, samples)
    if any(D % s for D in phi.col_degrees) or (e is not None and s * e != P.d):
        raise CertificationFailed(
            f"sampled fiber degree {s} fails certification against "
            f"column degrees {list(phi.col_degrees)} and e(A) = {e} with d = {P.d}; "
            "resample with a different seed or a larger prime"
        )
    field = P.field
    if s == 1:
        # each generator is its own coordinate form in (x, y)
        return DegreeCertificate(1, (monomial(field, 1, 0), monomial(field, 1, 1)), P.gens)
    f1, f2 = extract_reparam_basis(P, phi, s, seed=seed)
    if f1.degree != s or f2.degree != s or gcd_forms([f1, f2]).degree:
        raise CertificationFailed(
            f"the pair ({format_form(f1)}, {format_form(f2)}) is not two coprime "
            f"forms of the sampled fiber degree {s}"
        )
    new_gens = tuple(express_in_subring(g, f1, f2) for g in P.gens)
    if None in new_gens:
        raise CertificationFailed(
            f"not every generator lies in k[{format_form(f1)}, {format_form(f2)}], "
            f"so the sampled fiber degree {s} is not proved to be the map degree; "
            "resample with a different seed or a larger prime"
        )
    return DegreeCertificate(s, (f1, f2), new_gens)


def map_degree(P: Parameterization, phi: SyzygyMatrix, seed=0, samples=7, e=None) -> int:
    """Degree r of the map onto its image; see certify_map_degree."""
    return certify_map_degree(P, phi, seed=seed, samples=samples, e=e).r


def j_multiplicity(P: Parameterization, phi=None, seed=0, samples=7) -> int:
    """j-multiplicity of the ideal: d * r * e(A), always d^2 here."""
    from .syzygy import hilbert_burch

    if phi is None:
        phi = hilbert_burch(P)
    e = multiplicity_a(P)
    r = map_degree(P, phi, seed=seed, samples=samples, e=e)
    j = P.d * r * e
    if j != P.d * P.d:
        raise InternalInvariantViolation(f"j-multiplicity {j} differs from d^2 = {P.d * P.d}")
    return j
