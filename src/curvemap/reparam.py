"""Reparameterization through the pencil of fibers, and the core of the ideal.

Every fiber of degree r over an image point lies in one pencil
span(f1, f2), and f1, f2 are coprime forms of degree r with k[(I)_d]
contained in k[f1, f2].  The pair is the reduced row echelon basis of that
pencil, so it depends only on the map.  Substituting new variables for
f1, f2 rewrites the input as a birational parameterization of degree d/r,
and the core of the ideal has the closed form (f1, f2)^(2d/r - 1).  For a
monomial pair -- every r = 1 map, every monomial map, any pair (x^r, y^r) --
the core is computed on exponent pairs, with no form products or slice ranks.
Every other rewriting in k[f1, f2] reads the certificate's PowerTable, whose
products are built once, and rewrites the forms of one degree in one solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import linalg
from .errors import CertificationFailed, DegreeMismatch
from .fiber import map_degree
from .forms import BinaryForm, constant, form, format_form, format_monomial, gcd_forms
from .ideals import GradedIdeal, ideal_equals, maximal_ideal_power
from .monomial import MonomialIdeal, closure_pairs, exponent_pairs, staircase
from .param import Parameterization
from .syzygy import SyzygyMatrix, hilbert_burch

NEW_VARIABLES = ("X", "Y")


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
    # a MonomialIdeal when f1, f2 are monomials, else the GradedIdeal
    generators: object
    equals_m_power: bool
    integrally_closed: bool
    closure_provenance: str
    canonical: str

    @cached_property
    def core(self) -> GradedIdeal:
        """The core as a GradedIdeal of monic generators, built when first read."""
        gens = self.generators
        return gens.graded() if isinstance(gens, MonomialIdeal) else gens

    def to_json(self, variables=("x", "y")) -> dict:
        fmt = format_monomial if isinstance(self.generators, MonomialIdeal) else format_form
        return {
            "r": self.r,
            "e": self.e,
            "f1": fmt(self.f1, variables),
            "f2": fmt(self.f2, variables),
            "coreGens": self.generators.gen_strings(variables),
            "equalsMPower": self.equals_m_power,
            "integrallyClosed": {
                "value": self.integrally_closed,
                "provenance": self.closure_provenance,
            },
            "canonical": self.canonical,
        }


def extract_reparam_basis(fibers):
    """The reduced row echelon basis (f1, f2) of the span of fibers.

    fibers are forms of one degree r, such as the fibers of degree r that the
    map-degree walk read; their span must be a pencil.  The basis depends
    only on the pencil, not on the forms that span it, and it is (x^r, y^r)
    whenever both lie in the pencil, which keeps the core monomial whenever
    the input is monomial.
    """
    field = fibers[0].field
    p = linalg.modulus(field)
    rows, pivots = linalg.np_rref(linalg.to_np([f.coeffs for f in fibers], field), p)
    if len(pivots) != 2:
        raise CertificationFailed(
            f"the fiber forms of degree {fibers[0].degree} span "
            f"{len(pivots)} dimensions, not a pencil"
        )
    f1, f2 = linalg.from_np(rows[:2], field)
    return form(field, f1), form(field, f2)


class PowerTable:
    """The products f1^(m-k) f2^k of a pair of forms of one degree r, each
    built once, on first use.  A map-degree certificate carries the table of
    its pair, so no command reuses another's."""

    def __init__(self, f1: BinaryForm, f2: BinaryForm):
        if f1.degree != f2.degree:
            raise DegreeMismatch("f1 and f2 must have one common degree")
        self.pair, self.r, self.field = (f1, f2), f1.degree, f1.field
        self._powers = ([constant(self.field), f1], [constant(self.field), f2])
        self._bases: dict = {}

    def __eq__(self, other):
        return isinstance(other, PowerTable) and self.pair == other.pair

    def __hash__(self):
        return hash(self.pair)

    @cached_property
    def coprime(self) -> bool:
        return gcd_forms(self.pair).degree == 0

    def basis(self, m: int) -> list:
        """[f1^(m-k) f2^k for k = 0..m]: generators of (f1, f2)^m, a basis of k[f1, f2]_m."""
        if m not in self._bases:
            for f, chain in zip(self.pair, self._powers):
                while len(chain) <= m:
                    chain.append(chain[-1].mul(f))
            p1, p2 = self._powers
            self._bases[m] = [p1[m - k].mul(p2[k]) for k in range(m + 1)]
        return self._bases[m]

    def compose(self, c: BinaryForm) -> BinaryForm:
        """c(f1, f2), the combination of basis(deg c) with the coefficients of c."""
        if c.is_zero:
            return c
        rows = zip(*(b.coeffs for b in self.basis(c.degree)))
        return form(self.field, [sum(a * b for a, b in zip(c.coeffs, row)) for row in rows])

    def express(self, forms) -> list:
        """Each form written in (f1, f2), or None when it lies outside k[f1, f2].

        One row reduction of the columns [basis(m) | forms of degree m r] per
        m: a form lies in k[f1, f2] when its column is zero on every row whose
        pivot is no basis column, and its other entries are its coordinates.
        """
        field, p = self.field, linalg.modulus(self.field)
        out = [form(field, []) if h.is_zero else None for h in forms]
        for degree in sorted({h.degree for h in forms if not h.is_zero}):
            if degree % self.r:
                raise DegreeMismatch(f"degree {degree} is not a multiple of r = {self.r}")
            basis = self.basis(degree // self.r)
            group = [i for i, h in enumerate(forms) if not h.is_zero and h.degree == degree]
            cols = [b.coeffs for b in basis] + [forms[i].coeffs for i in group]
            a, pivots = linalg.np_rref(linalg.to_np(cols, field).T.copy(), p)
            held = [c for c in pivots if c < len(basis)]
            for j, i in enumerate(group, len(basis)):
                if not a[len(held) :, j].any():
                    sol = dict(zip(held, linalg.from_np(a[: len(held), j], field)))
                    out[i] = form(field, [sol.get(c, field.zero) for c in range(len(basis))])
        return out


def express_in_subring(h: BinaryForm, f1: BinaryForm, f2: BinaryForm):
    """Rewrite h as a form in (f1, f2), h = sum c_k f1^(m-k) f2^k, on a table of its own.

    Returns the coefficient form (in the new variables) or None when h lies
    outside k[f1, f2]; a certificate's PowerTable rewrites many forms at once.
    """
    return PowerTable(f1, f2).express([h])[0]


def reparameterize(P: Parameterization, phi: SyzygyMatrix, cert) -> ReparamResult:
    """Rewrite the parameterization over k[f1, f2] as a birational one.

    cert is the map-degree certificate from certify_map_degree.  Every
    generator lies in k[f1, f2] (the certificate holds the rewritten
    generators); so does every entry of phi, and that is verified entrywise
    rather than assumed -- on a failure the matrix is recomputed from the new
    generators and the route is recorded.
    """
    field = P.field
    r, table, newgens = cert.r, cert.table, cert.new_gens
    new_param = Parameterization.build(field, newgens, variables=NEW_VARIABLES)
    entries = [h for col in phi.columns for h in col]
    coeffs = None if any(D % r for D in phi.col_degrees) else table.express(entries)
    if coeffs is not None and None not in coeffs:
        route = "rewritten"
        rewritten = tuple(tuple(coeffs[j : j + P.n]) for j in range(0, len(coeffs), P.n))
        rphi = SyzygyMatrix(field, P.n, tuple(D // r for D in phi.col_degrees), rewritten)
    else:
        route = "recomputed"
        rphi = hilbert_burch(new_param)
    verification = {
        "regularSequence": table.coprime,
        "extension": ideal_equals(
            GradedIdeal.of(field, [table.compose(c) for c in newgens]),
            GradedIdeal.of(field, P.gens),
        ),
        "newDegreeOne": map_degree(new_param, rphi) == 1,
    }
    return ReparamResult(r, *table.pair, new_param, rphi, route, verification)


def core_ideal(P: Parameterization, cert) -> CoreReport:
    """core(I) = (f1, f2)^(2d/r - 1), with its closure and canonical data.

    cert is the map-degree certificate from certify_map_degree.  When f1, f2
    are monomials (every r = 1 map, every monomial map, any pair (x^r, y^r))
    the core is monomial and is decided on the exponent pairs of its
    generators: its staircase is compared with those of m^(2d-1) and of its
    Newton polygon.  Otherwise the form products f1^(m-k) f2^k are compared
    with m^(2d-1) on slices, and closedness follows from r = 1; the
    provenance records which.
    """
    field = P.field
    d = P.d
    r, (f1, f2) = cert.r, cert.pair
    e = d // r
    m = 2 * e - 1
    if f1.is_monomial and f2.is_monomial:
        (a1, b1), (a2, b2) = exponent_pairs((f1, f2))
        pairs = tuple(((m - k) * a1 + k * a2, (m - k) * b1 + k * b2) for k in range(m + 1))
        least = staircase(pairs)
        generators = MonomialIdeal(field, pairs)
        equals = least == [(i, 2 * d - 1 - i) for i in range(2 * d)]
        closed = least == closure_pairs(pairs)
        provenance = "computed-monomial"
    else:
        generators = GradedIdeal.of(field, cert.table.basis(m))
        equals = ideal_equals(generators, maximal_ideal_power(field, 2 * d - 1))
        closed = r == 1
        provenance = "derived-by-theorem"
    canonical = f"f1^2 t (f1,f2)^{e - 1} R((f1,f2)^{e})"
    return CoreReport(r, e, f1, f2, generators, equals, closed, provenance, canonical)


def adjoint_of_m_power(field, t: int) -> GradedIdeal:
    """adj(m^t) = m^(t-1); the unit ideal for t = 1."""
    if t < 1:
        raise ValueError("adjoint formula needs t >= 1")
    return maximal_ideal_power(field, t - 1)
