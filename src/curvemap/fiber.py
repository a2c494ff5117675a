"""Fibers, image membership, and the multiplicities attached to the map.

A scalar point p of P^(n-1) pulls back to the row vector p*phi; the gcd of
its entries cuts out the fiber over p, so p lies on the image exactly when
that gcd is nonconstant.  The degree of a general fiber is the degree r of
the map onto its image.  A fiber degree s is never below r, and coprime
forms f1, f2 of degree s with every generator in k[f1, f2] prove r >= s
(Lueroth), which turns the fibers on a fixed walk of points into a proved
r.  Then r * e(A) = d gives the multiplicity e(A) of the homogeneous
coordinate ring A of the image, and with it most of the Hilbert table of A.

One evaluator forms the rows p * phi: _rows multiplies a batch of points by
phi, one product for every column.  fiber at a given point and the map-degree
walk read their fiber forms off it; the walk reads the images of (1 : t),
t = 1, -1, 2, ..., through _image_fibers, and its fibers of degree r span
the pencil that gives the reparameterization pair
(reparam.extract_reparam_basis).  Over QQ the walk forms its rows mod one
prime first, and a fiber gcd of degree 1 there is proved to be the known
root of the row (_proved_fiber).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, islice
from math import comb, gcd

import numpy as np

from . import linalg
from .errors import (
    CertificationFailed,
    InstanceError,
    InternalInvariantViolation,
    SlopeNotStabilized,
    ZeroRow,
)
from .forms import (
    BinaryForm,
    ProjPoint1,
    ProjPointN,
    constant,
    form,
    format_form,
    gcd_forms,
    monomial,
)
from .ideals import GradedIdeal
from .param import Parameterization
from .syzygy import SyzygyMatrix, _gens_array, hilbert_burch

# Largest pass of the Hilbert table of A, in matrix entries: its J*d + 1
# columns times the rows of its echelon at their bound and of its largest
# layer (_table_entries).  A dense n = 4, d = 200 map needs 4.4e7 and took
# 28 s in 580 MB on a 2-CPU x86-64 box; d = 1000 would need 5.8e9, about
# 46 GB of int64.
MAX_TABLE_ENTRIES = 1 << 26

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


def _column_rows(phi: SyzygyMatrix):
    """(rows, spans): the columns of phi side by side, as n lists of
    sum(D+1) coefficients, and the slice of a row that holds each column."""
    field = phi.field
    widths = [D + 1 for D in phi.col_degrees]
    rows = [
        [c for w, col in zip(widths, phi.columns) for c in col[i].coeffs or [field.zero] * w]
        for i in range(phi.n)
    ]
    ends = np.cumsum(widths).tolist()
    return rows, list(zip([0] + ends[:-1], ends))


def _rows(field, C: np.ndarray, spans, vals: np.ndarray):
    """For each column p of the n x m array vals, in turn, the n-1 entries of p * phi.

    C and spans are _column_rows(phi), C as an array over field; one product
    serves every point and every column of phi at once, and the forms of a
    point are made when it is reached.
    """
    for values in linalg.np_matmul_mod(vals.T, C, linalg.modulus(field)):
        row = linalg.from_np(values, field)
        yield [form(field, row[a:b]) for a, b in spans]


def row_combination(phi: SyzygyMatrix, p: ProjPointN) -> list:
    """The n-1 entries of the row vector p * phi."""
    rows, spans = _column_rows(phi)
    vals = linalg.to_np([[c] for c in p.coords], phi.field)
    return next(_rows(phi.field, linalg.to_np(rows, phi.field), spans, vals))


def _row_evaluator(field, gens: list, cols: list, spans):
    """ts -> the rows p * phi at p = g(1 : t), one for each t of the list ts.

    gens are the coefficient rows of the generators and cols, spans are
    _column_rows(phi), all over field.  One Vandermonde product evaluates
    every generator at every t, values[i] = g_i(1, t), and _rows gives
    every row values * phi.
    """
    p = linalg.modulus(field)
    G, C = linalg.to_np(gens, field), linalg.to_np(cols, field)

    def rows(ts):
        points = linalg.to_np(ts, field)[0]
        values = linalg.np_matmul_mod(G, linalg.np_vandermonde(points, G.shape[1] - 1, p), p)
        return _rows(field, C, spans, values)

    return rows


def _fiber_form(row):
    """The gcd of the nonzero entries of a row p * phi, or None when it vanishes."""
    entries = [e for e in row if not e.is_zero]
    return gcd_forms(entries) if entries else None


def _proved_fiber(field, t, row):
    """The fiber form over g(1 : t), proved by the row p * phi mod q, or None.

    The row over QQ vanishes at (1 : t), so its gcd h has degree at least
    1 and t x - y divides it.  Taken primitive in Z[x, y], h divides every
    entry over Z_(q) by Gauss's lemma (the entries have no q in their
    denominators), so h mod q, a nonzero form of degree deg h, divides every
    residue.  The gcd of the nonzero residues therefore has degree at least
    deg h.  Degree 1 proves h = t x - y, made monic as gcd_forms makes it.
    Degree 0 proves that the exact gcd is the constant 1, which
    certify_map_degree reports as an image point off the image.  A row
    that vanishes mod q, or a degree of 2 or more, proves nothing: None.
    """
    entries = [e for e in row if not e.is_zero]
    if not entries:
        return None
    degree = gcd_forms(entries).degree
    if degree == 1:
        return form(field, [t, field.neg(field.one)]).monic()
    return constant(field) if degree == 0 else None


def _walk_point(k: int) -> int:
    """The k-th value of t = 0, 1, -1, 2, -2, ..., the walk of points (1 : t)."""
    return (k + 1) // 2 * (1 if k % 2 else -1)


def _image_fibers(P: Parameterization, phi: SyzygyMatrix, stop: int):
    """(t, fiber form or None) over the images of (1 : t), t = 1, -1, 2, ...

    The first stop points of the walk are evaluated in batches of 2, 4, 8,
    ..., one evaluation of their rows p * phi each (_row_evaluator); the
    fiber form is the gcd of a row's entries, None when the row vanishes.

    Over QQ the generators and phi are reduced once mod q = DEFAULT_PRIME
    (RationalField.reduction), and every row is first formed mod q.  Its
    fiber form is taken from the residues when they prove it
    (_proved_fiber), and otherwise from the exact row at that point alone.
    When q divides a denominator, every row is exact.
    """
    field = P.field
    gens = [list(g.coeffs) for g in P.gens]
    cols, spans = _column_rows(phi)
    exact = _row_evaluator(field, gens, cols, spans)
    reduced = None if field.modular else field.reduction(gens + cols)
    if reduced is not None:
        k, residues = reduced
        mod_q = _row_evaluator(k, residues[: P.n], residues[P.n :], spans)
    start, size = 1, 2
    while start <= stop:
        ts = [field.conv(_walk_point(i)) for i in range(start, min(start + size, stop + 1))]
        start, size = start + size, 2 * size
        if reduced is None:
            for t, row in zip(ts, exact(ts)):
                yield t, _fiber_form(row)
        else:
            for t, row in zip(ts, mod_q([k.conv(t) for t in ts])):
                g = _proved_fiber(field, t, row)
                yield t, _fiber_form(next(exact([t]))) if g is None else g


def _nonzero_entries(phi: SyzygyMatrix, p: ProjPointN) -> list:
    """The nonzero entries of p * phi; ZeroRow when there are none."""
    entries = [e for e in row_combination(phi, p) if not e.is_zero]
    if not entries:
        raise ZeroRow(f"p * phi vanishes identically at p = {p}")
    return entries


def row_ideal(phi: SyzygyMatrix, p: ProjPointN) -> GradedIdeal:
    return GradedIdeal.of(phi.field, _nonzero_entries(phi, p))


def fiber(P: Parameterization, phi: SyzygyMatrix, p: ProjPointN) -> FiberReport:
    g = gcd_forms(_nonzero_entries(phi, p))
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


def _slices(P: Parameterization, e=None):
    """HF_A(1), HF_A(2), ... by elimination on values at points mod primes.

    Over F_p one run of _image_ranks gives them.  Over QQ it runs on the
    integer generators (_gens_array) mod q = DEFAULT_PRIME, then mod the
    next primes of RationalField.residue_fields, all in step, slice by
    slice; a prime is added only while the slice at hand is unproved.  The
    rank of slice j is that of the coefficient matrix M_j of the
    C(j+n-1, n-1) products of j generators, an integer matrix whose rank
    mod p the values at a run's points keep (_ranks_at_points), and a rank
    mod p is never above the rank over QQ.  Each slice keeps the largest
    rank seen and the product of the primes that gave it, and the rank is
    proved once it meets k = min(C(j+n-1, n-1), j*e + 1), e = d when not
    given: A_j is spanned by those products and lies in k[f1, f2]_(je).  It
    is also proved once the product passes the Hadamard bound
    (sqrt(k) N^j)^k, N the largest row 1-norm of the integer generators.
    A higher rank would have a nonzero minor of M_j of size at most k,
    whose entries are at most N^j, and every prime tried would divide it.
    The bound is compared in bits, each prime counting one less than its
    bit length.  When a slice misses mod q, _check_proof sizes the primes
    its bound may need against MAX_TABLE_ENTRIES before another prime ranks
    it.
    """
    G = _gens_array(P)
    if P.field.modular:
        yield from _image_ranks(G, P.field)
        return
    n, d = G.shape[0], G.shape[1] - 1
    # bits of N, the largest row 1-norm
    nbits = max(sum(map(abs, row)) for row in G.tolist()).bit_length()
    fields = P.field.residue_fields()
    runs = []  # (p, the slices of _image_ranks mod p still to read), in step
    for j in count(1):
        k = min(comb(j + n - 1, n - 1), j * (e or d) + 1)
        # (sqrt(k) N^j)^k < 2^need
        need = j * k * nbits + (k * k.bit_length() + 1) // 2
        best = bits = 0
        for i in count():
            proved = best == k or bits >= need
            if i == 1 and not proved:
                _check_proof(n, d, j, need)
            if i == len(runs):
                if proved:
                    break
                field = next(fields)
                ranks = _image_ranks(linalg.to_np(G % field.p, field), field)
                runs.append((field.p, islice(ranks, j - 1, None)))
            p, ranks = runs[i]
            rank = next(ranks, 0)
            if rank > best:
                best, bits = rank, 0
            if rank == best:
                bits += p.bit_length() - 1
        yield best


def _check_proof(n: int, d: int, j: int, need: int) -> None:
    """InstanceError unless the primes that pass 2^need, at about 30 bits
    each, times the entries of the pass that holds slice j, fit
    MAX_TABLE_ENTRIES."""
    J = _first_pass(n, d)
    while J < j:
        J *= 2
    primes = -(-need // 30)
    entries = primes * _table_entries(n, d, J)
    if entries > MAX_TABLE_ENTRIES:
        raise InstanceError(
            f"the Hilbert table of A over QQ would prove slice {j} of {n} forms of "
            f"degree {d} by its Hadamard bound, below 2^{need}: about {primes} primes, each "
            f"on a pass of slices 1..{J}, {entries} matrix entries; the largest "
            f"accepted is {MAX_TABLE_ENTRIES} (curvemap.fiber.MAX_TABLE_ENTRIES)"
        )


def _first_pass(n: int, d: int) -> int:
    """J of the first pass of _image_ranks: the least j <= 2d+4 where the
    C(j+n-1, n-1) products of j generators could fill the j*d + 1 dims of
    their degree, or 4 when none can."""
    return next((j for j in range(1, 2 * d + 5) if comb(j + n - 1, n - 1) >= j * d + 1), 4)


def _image_ranks(G: np.ndarray, field):
    """HF(1), HF(2), ... of the ring the generator rows G span over the prime field.

    Slice j is eliminated on its values at points (1 : t): a nonzero form of
    degree j*d has at most j*d zeros on P^1, so at j*d + 1 distinct points a
    slice and its values have the same rank.  The first pass reads slices
    1..J off J*d + 1 points (_first_pass).  Each later pass doubles J and
    skips the ranks already yielded.  Generators that are all zero, which
    happens only for residues of rational ones, yield nothing.  A pass
    larger than MAX_TABLE_ENTRIES raises InstanceError before anything is
    evaluated.
    """
    n, w = G.shape
    d = w - 1
    hrow = next((i for i in range(n) if G[i].any()), None)
    if hrow is None:
        return
    J = _first_pass(n, d)
    done = 0
    while True:
        entries = _table_entries(n, d, J)
        if entries > MAX_TABLE_ENTRIES:
            raise InstanceError(
                f"the Hilbert table of A would eliminate slices 1..{J} of {n} forms of "
                f"degree {d} on {J * d + 1} points, {entries} matrix entries; the largest "
                f"accepted is {MAX_TABLE_ENTRIES} (curvemap.fiber.MAX_TABLE_ENTRIES)"
            )
        yield from islice(_ranks_at_points(G, field, hrow, J), done, None)
        done, J = J, 2 * J


def _table_entries(n: int, d: int, J: int) -> int:
    """The size of a pass of _ranks_at_points, in matrix entries.

    Its W = J*d + 1 columns times the rows of the echelon, at most
    min(C(J+n-1, n-1), W), plus those of the largest layer added to it, at
    most the C(J+n-2, n-2) monomials of degree J in n-1 generators: a layer
    of products is taken only when it is smaller than the monomial layer.
    """
    W = J * d + 1
    return W * (min(comb(J + n - 1, n - 1), W) + comb(J + n - 2, n - 2))


def _ranks_at_points(G: np.ndarray, field, hrow: int, J: int):
    """HF(1), ..., HF(J) of _image_ranks, on values at J*d + 1 points.

    With h = G[hrow], A_(j+1) is h * A_j plus the monomials of degree j+1
    in the other generators.  Slice j is held padded by h^(J-j), which keeps
    its rank (the points avoid the zeros of h), so the padded slices nest
    and one echelon grows through them with no rescaling of its rows.  Slice
    j+1 adds the monomials of degree exactly j+1, each built once as g_i
    times the monomial of degree j with the last index i removed.  Once that layer would exceed
    (n-1) * |new| rows, new the rows that slice j added to the echelon, the
    products q_i * new, q_i = g_i / h, are added instead, from then on:
    g_i * A_(j-1) lies in A_j, so only the rows new in slice j need the
    products, and the division by h moves them to the padding of slice j+1.
    """
    V = _values_at_points(G, hrow, J * (G.shape[1] - 1) + 1, field)
    p = linalg.modulus(field)
    h, g = V[hrow], np.delete(V, hrow, axis=0)
    q = linalg.np_mul(g, linalg.np_inverses(h, p), p)
    pad = [np.ones_like(h)]
    for _ in range(J - 1):
        pad.append(linalg.np_mul(pad[-1], h, p))
    ech = linalg.Echelon(V.shape[1], field)
    added = ech.add_rows(linalg.np_mul(V, pad[J - 1], p))
    yield ech.rank
    layer, last = g, np.arange(len(g))
    for j in range(1, J):
        # the monomial of degree j with last index l gives len(g) - l of degree j+1
        if layer is not None and (len(g) - last).sum() <= len(g) * added:
            parts = [linalg.np_mul(g[i], layer[last <= i], p) for i in range(len(g))]
            last = np.repeat(np.arange(len(g)), [len(part) for part in parts])
            layer = np.vstack(parts)
            added = ech.add_rows(linalg.np_mul(layer, pad[J - j - 1], p))
        else:
            layer = None
            added = ech.add_rows((q[:, None, :] * ech.new).reshape(-1, V.shape[1]))
        yield ech.rank


def _values_at_points(G: np.ndarray, hrow: int, W: int, field) -> np.ndarray:
    """The values of the generator rows G at the first W points (1 : t),
    t = 0, 1, -1, 2, -2, ..., where G[hrow] does not vanish.

    G[hrow] has at most d zeros, so W + d candidates suffice; a prime field
    with too few elements for W distinct points raises CertificationFailed.
    """
    p = linalg.modulus(field)
    d = G.shape[1] - 1
    ts = linalg.to_np([_walk_point(k) for k in range(min(W + d, p))], field)[0]
    values = linalg.np_matmul_mod(G, linalg.np_vandermonde(ts, d, p), p)
    keep = np.flatnonzero(values[hrow])[:W]
    if len(keep) < W:
        raise CertificationFailed(
            f"the field has too few points to evaluate forms of degree {W - 1} "
            "at distinct points where a generator does not vanish"
        )
    return values[:, keep]


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
    sumset route; otherwise each slice is ranked on its values at points
    (1 : t), enough of them to keep its rank (_image_ranks), and a table
    past MAX_TABLE_ENTRIES raises InstanceError before it is evaluated.

    e, when given, must be the certified e(A) = d // r, with r from
    certify_map_degree.  It makes most of the table free: n = 3 has the closed
    form of a plane curve of degree e, and otherwise elimination stops at the
    first j >= 1 with HF_A(j) = j*e + 1.  From there the slices stay full by
    theorem: A_j fills k[f1, f2]_(je), and the generators, read as forms of
    degree e in the new variables, generate every form of degree >= 2e - 1,
    so A_(j+1) = A_j * A_1 is full as well.

    Over QQ each slice is ranked mod primes (_slices): mod q = DEFAULT_PRIME,
    and mod more primes only while its rank neither meets its bound
    min(C(j+n-1, n-1), j*e + 1) nor is proved by the Hadamard bound of its
    coefficient matrix.  With e given, the bound holds only when e is the
    certified e(A); without it, e = d.  A proof that would need more than
    MAX_TABLE_ENTRIES entries of passes in all raises InstanceError before
    its second prime runs.

    e is trusted, not verified: a wrong e gives a wrong table for n = 3, and
    may for n >= 4 once a slice happens to read j*e + 1, over QQ also when a
    rank mod a prime happens to meet the wrong bound.  Only the monomial
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
    values = _plane_curve(e) if e is not None and P.n == 3 else _slices(P, e)
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

    table holds the products of coprime forms f1, f2 of degree r (the pair),
    and new_gens every generator written as a form in (f1, f2).
    """

    r: int
    table: object
    new_gens: tuple

    @property
    def pair(self) -> tuple:
        return self.table.pair


def _walk_bound(d: int) -> int:
    """d^2 + 1: enough points for the map-degree walk, by certify_map_degree."""
    return d * d + 1


def _lueroth(P: Parameterization, phi: SyzygyMatrix, s: int, fibers: list, e):
    """The certificate r = s on distinct fibers of degree s, or CertificationFailed.

    s must divide every column degree of phi and, when e is given, s * e = d;
    s = 1 then proves r = 1.  For s > 1 the fibers must span a pencil whose
    reduced basis f1, f2 (extract_reparam_basis) is coprime with every g_i in
    k[f1, f2]: the map then factors through the degree-s cover (f1 : f2).
    """
    from .reparam import PowerTable, extract_reparam_basis

    if any(D % s for D in phi.col_degrees) or (e is not None and s * e != P.d):
        raise CertificationFailed(
            f"fiber degree {s} fails certification against "
            f"column degrees {list(phi.col_degrees)} and e(A) = {e} with d = {P.d}"
        )
    if s == 1:
        # each generator is its own coordinate form in (x, y)
        x, y = (monomial(P.field, 1, k) for k in (0, 1))
        return DegreeCertificate(1, PowerTable(x, y), P.gens)
    table = PowerTable(*extract_reparam_basis(fibers))
    f1, f2 = table.pair
    if not table.coprime:
        raise CertificationFailed(
            f"the pair ({format_form(f1)}, {format_form(f2)}) is not two coprime "
            f"forms of the fiber degree {s}"
        )
    new_gens = tuple(table.express(P.gens))
    if None in new_gens:
        raise CertificationFailed(
            f"not every generator lies in k[{format_form(f1)}, {format_form(f2)}], "
            f"so the fiber degree {s} is not proved to be the map degree"
        )
    return DegreeCertificate(s, table, new_gens)


def certify_map_degree(P: Parameterization, phi: SyzygyMatrix, e=None) -> DegreeCertificate:
    """Degree r of the map onto its image, proved on a fixed walk of points.

    The walk reads the fibers over the images of (1 : t), t = 1, -1, 2, -2,
    ... (_image_fibers), and holds the distinct fibers of the least degree s
    seen so far; every fiber over an image point has degree >= r.  Each time
    the held set gains a second or later member, the Lueroth certificate is
    tried on it (_lueroth).  A pass proves r >= s, so r = s; a failure
    proves nothing, and the walk goes on.  The pair is the reduced basis of
    the pencil, so it depends on the map, not on the points.

    The walk gives up after d^2 + 1 points, which suffice.  By Lueroth the
    map is a cover (f1 : f2) of degree r followed by a birational map psi
    onto the image C, of degree e = d/r.  Over a smooth point of C the fiber
    is the pullback of a linear form: degree r, in span(f1, f2).  So a fiber
    of degree above r lies over a singular point (its degree is r times the
    multiplicity there: Cox, Kustin, Polini, Ulrich, Mem. AMS 2013).  A
    general projection maps C birationally onto a plane curve C' of degree
    e, and singular points onto singular points.  At most m parameters of
    psi lie over a point of multiplicity m, m <= m(m-1) for m >= 2, and the
    delta invariants of C', each at least m(m-1)/2, sum to (e-1)(e-2)/2.  So
    at most r(e-1)(e-2) points of the walk lie over singular points.  A
    fiber of degree r holds at most r points, so r + 1 more points give two
    distinct fibers of degree r, which span the pencil and pass.  A correct
    phi has no vanishing row: its minors, the g_i, have no common zero, so
    p * phi = 0 would make the map constant.  In all, r(e-1)(e-2) + r + 1 <=
    r e^2 + 1 <= d^2 + 1 points.  The t of the walk are +-1, +-2, ..., at
    most (d^2 + 2)/2, and distinct mod p: d^2 + 2 < field.MIN_PRIME for
    d <= forms.MAX_DEGREE.  Reaching the bound raises CertificationFailed
    with the last failed attempt: phi, e or the arithmetic is then wrong.
    """
    s = None
    fibers: dict = {}  # a dict keeps the forms distinct and in walking order
    failed = None
    bound = _walk_bound(P.d)
    for t, g in _image_fibers(P, phi, bound):
        if g is None:
            continue
        if g.degree < 1:
            point = apply_map(P, ProjPoint1.of(P.field, P.field.one, t))
            raise InternalInvariantViolation(f"image point {point} reported off the image")
        if s is None or g.degree < s:
            s, fibers = g.degree, {}
        if g.degree == s and g not in fibers:
            fibers[g] = None
            if len(fibers) >= 2:
                try:
                    return _lueroth(P, phi, s, list(fibers), e)
                except CertificationFailed as exc:
                    failed = exc
    raise CertificationFailed(
        f"the walk of d^2 + 1 = {bound} points (1 : t) proved no map degree"
        + (f"; the last attempt: {failed}" if failed else "")
    )


def map_degree(P: Parameterization, phi: SyzygyMatrix, e=None) -> int:
    """Degree r of the map onto its image; see certify_map_degree."""
    return certify_map_degree(P, phi, e=e).r


def j_multiplicity(P: Parameterization, phi=None) -> int:
    """j-multiplicity of the ideal: d * r * e(A), always d^2 here."""
    if phi is None:
        phi = hilbert_burch(P)
    e = multiplicity_a(P)
    r = map_degree(P, phi, e=e)
    j = P.d * r * e
    if j != P.d * P.d:
        raise InternalInvariantViolation(f"j-multiplicity {j} differs from d^2 = {P.d * P.d}")
    return j
