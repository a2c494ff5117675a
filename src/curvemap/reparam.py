"""Reparameterization through row-ideal gcds, and the core of the ideal.

The gcds f1, f2 of the row ideals at two general image points are coprime
forms of degree r with k[(I)_d] contained in k[f1, f2].  Substituting new
variables for f1, f2 rewrites the input as a birational parameterization of
degree d/r, and the core of the ideal has the closed form
(f1, f2)^(2d/r - 1).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import islice

from . import linalg
from .errors import DegreeMismatch, ResamplingExhausted
from .fiber import _image_fibers, map_degree
from .forms import BinaryForm, form, format_form, gcd_forms, monomial
from .ideals import GradedIdeal, ideal_equals, maximal_ideal_power
from .monomial import newton_closure
from .param import Parameterization
from .syzygy import SyzygyMatrix, hilbert_burch

NEW_VARIABLES = ("X", "Y")
# random image points tried for a coprime degree-r gcd pair
PAIR_BUDGET = 32


@dataclass(frozen=True)
class ReparamResult:
    r: int
    f1: BinaryForm
    f2: BinaryForm
    new_param: Parameterization
    rewritten_phi: SyzygyMatrix
    route: str
    verification: dict

    def to_json(self, variables=("x", "y")) -> dict:
        return {
            "r": self.r,
            "f1": format_form(self.f1, variables),
            "f2": format_form(self.f2, variables),
            "newGens": self.new_param.gen_strings(),
            "rewrittenPhi": {
                "colDegrees": list(self.rewritten_phi.col_degrees),
                "matrix": self.rewritten_phi.matrix_strings(NEW_VARIABLES),
                "route": self.route,
            },
            "verification": dict(self.verification),
        }


@dataclass(frozen=True)
class CoreReport:
    r: int
    e: int
    f1: BinaryForm
    f2: BinaryForm
    core: GradedIdeal
    equals_m_power: bool
    integrally_closed: bool
    closure_provenance: str
    canonical: str

    def to_json(self, variables=("x", "y")) -> dict:
        return {
            "r": self.r,
            "e": self.e,
            "f1": format_form(self.f1, variables),
            "f2": format_form(self.f2, variables),
            "coreGens": self.core.gen_strings(variables),
            "equalsMPower": self.equals_m_power,
            "integrallyClosed": {
                "value": self.integrally_closed,
                "provenance": self.closure_provenance,
            },
            "canonical": self.canonical,
        }


def _in_span(pair, h: BinaryForm) -> bool:
    rows = [[f.coeffs[i] for f in pair] for i in range(h.degree + 1)]
    return linalg.solve(rows, list(h.coeffs), h.field) is not None


def _lex_key(h: BinaryForm):
    # coefficients read from the y^r end, so x^r sorts before y^r
    return tuple(reversed(h.coeffs))


def extract_reparam_basis(P: Parameterization, phi: SyzygyMatrix, r: int, seed=0):
    """Two coprime degree-r row-ideal gcds at random image points.

    Resamples until both gcds have degree exactly r and are coprime; monic,
    ordered by coefficient lex.  When x^r and y^r both lie in their span the
    pair is normalized to (x^r, y^r) -- the same ideal, and it keeps the
    downstream core monomial whenever the input is monomial.
    """
    field = P.field
    rng = random.Random(f"reparam:{seed}")
    first = None
    # two points are the least a pair needs
    for _, g in islice(_image_fibers(P, phi, rng, 2), PAIR_BUDGET):
        if g is None or g.degree != r:
            continue
        if first is None:
            first = g
            continue
        if g == first or gcd_forms([first, g]).degree != 0:
            continue
        xr = monomial(field, r, 0)
        yr = monomial(field, r, r)
        pair = [first, g]
        if _in_span(pair, xr) and _in_span(pair, yr):
            pair = [xr, yr]
        pair.sort(key=_lex_key)
        return pair[0], pair[1]
    raise ResamplingExhausted(
        f"no coprime degree-{r} gcd pair within {PAIR_BUDGET} samples; "
        "retry with a different seed or a larger prime"
    )


def _pair_power_products(f1: BinaryForm, f2: BinaryForm, m: int) -> list:
    """[f1^(m-k) * f2^k for k = 0..m]: generators of (f1, f2)^m, a basis of k[f1, f2]_m."""
    field = f1.field
    pow1 = [form(field, [field.one])]
    pow2 = [form(field, [field.one])]
    for _ in range(m):
        pow1.append(pow1[-1].mul(f1))
        pow2.append(pow2[-1].mul(f2))
    return [pow1[m - k].mul(pow2[k]) for k in range(m + 1)]


def express_in_subring(h: BinaryForm, f1: BinaryForm, f2: BinaryForm):
    """Rewrite h as a form in (f1, f2): h = sum c_k f1^(m-k) f2^k.

    Returns the coefficient form (in the new variables) or None when h lies
    outside k[f1, f2] -- a legitimate negative answer for arbitrary h.
    """
    if f1.degree != f2.degree:
        raise DegreeMismatch("f1 and f2 must have one common degree")
    r = f1.degree
    if h.is_zero:
        return form(h.field, [])
    if h.degree % r:
        raise DegreeMismatch(f"degree {h.degree} is not a multiple of r = {r}")
    field = h.field
    basis = _pair_power_products(f1, f2, h.degree // r)
    rows = [[b.coeffs[i] for b in basis] for i in range(h.degree + 1)]
    sol = linalg.solve(rows, list(h.coeffs), field)
    return None if sol is None else form(field, sol)


def reparameterize(P: Parameterization, phi: SyzygyMatrix, cert, seed=0, samples=7) -> ReparamResult:
    """Rewrite the parameterization over k[f1, f2] as a birational one.

    cert is the map-degree certificate from certify_map_degree.  Every
    generator lies in k[f1, f2] (the certificate holds the rewritten
    generators); so does every entry of phi, and that is verified entrywise
    rather than assumed -- on a failure the matrix is recomputed from the new
    generators and the route is recorded.
    """
    field = P.field
    r, (f1, f2), newgens = cert.r, cert.pair, cert.new_gens
    new_param = Parameterization.build(field, newgens, variables=NEW_VARIABLES)
    rewritten = []
    for j, D in enumerate(phi.col_degrees):
        if D % r:
            rewritten = None
            break
        col = []
        for entry in phi.columns[j]:
            c = express_in_subring(entry, f1, f2)
            if c is None:
                rewritten = None
                break
            col.append(c)
        if rewritten is None:
            break
        rewritten.append(tuple(col))
    if rewritten is not None:
        route = "rewritten"
        rphi = SyzygyMatrix(
            field, P.n, tuple(D // r for D in phi.col_degrees), tuple(rewritten)
        )
    else:
        route = "recomputed"
        rphi = hilbert_burch(new_param)
    verification = {
        "regularSequence": gcd_forms([f1, f2]).degree == 0,
        "extension": ideal_equals(
            GradedIdeal.of(field, [c.compose(f1, f2) for c in newgens]),
            GradedIdeal.of(field, P.gens),
        ),
        "newDegreeOne": map_degree(new_param, rphi, seed=seed, samples=samples) == 1,
    }
    return ReparamResult(r, f1, f2, new_param, rphi, route, verification)


def core_ideal(P: Parameterization, cert) -> CoreReport:
    """core(I) = (f1, f2)^(2d/r - 1), with its closure and canonical data.

    cert is the map-degree certificate from certify_map_degree.
    Integral closedness is computed via the Newton polygon when the core is
    monomial; otherwise it is reported as a consequence of r = 1, with the
    provenance recorded either way.
    """
    field = P.field
    d = P.d
    r, (f1, f2) = cert.r, cert.pair
    e = d // r
    core = GradedIdeal.of(field, _pair_power_products(f1, f2, 2 * e - 1))
    equals = ideal_equals(core, maximal_ideal_power(field, 2 * d - 1))
    if core.is_monomial:
        closed = ideal_equals(newton_closure(core), core)
        provenance = "computed-monomial"
    else:
        closed = r == 1
        provenance = "derived-by-theorem"
    canonical = f"f1^2 t (f1,f2)^{e - 1} R((f1,f2)^{e})"
    return CoreReport(r, e, f1, f2, core, equals, closed, provenance, canonical)


def adjoint_of_m_power(field, t: int) -> GradedIdeal:
    """adj(m^t) = m^(t-1); the unit ideal for t = 1."""
    if t < 1:
        raise ValueError("adjoint formula needs t >= 1")
    return maximal_ideal_power(field, t - 1)
