"""The rows p * phi and their fiber gcds against sympy, over GF(p) and QQ.

fiber, the map-degree walk and the reparameterization pair all read their
fiber forms off one evaluator of p * phi.  Here every row is rebuilt with
sympy Poly arithmetic, image points are evaluated with plain scalar powers,
and the gcd is sympy's multivariate one, so no code is shared with the
evaluator under test.  The Hilbert table of A over QQ, ranked mod primes,
is checked against sympy ranks of generator products.
"""

import importlib
import random

import pytest

import qq_reference
from curvemap import (
    QQ,
    Analysis,
    ProjPointN,
    certify_map_degree,
    dense_corpus,
    fiber,
    hilbert_burch,
    map_degree,
)
from test_degree_certificate import composed_map
from test_rational_sandwich import quadric_map

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

X, Y = sympy.symbols("x y")
# the package exports the function fiber under the module's name
fiber_module = importlib.import_module("curvemap.fiber")


def domain(field):
    return sympy.GF(field.p) if field.modular else sympy.QQ


def scalar(c):
    return sympy.Rational(c.numerator, c.denominator)


def to_poly(h, field):
    """A binary form as a sympy Poly; coeffs[i] belongs to x^(D-i) y^i."""
    D = len(h.coeffs) - 1
    terms = {(D - i, i): scalar(c) for i, c in enumerate(h.coeffs) if c}
    return sympy.Poly.from_dict(terms or {(0, 0): 0}, X, Y, domain=domain(field))


def oracle_row(phi, coords):
    """The n-1 entries of coords * phi, each a sympy Poly."""
    zero = sympy.Poly(0, X, Y, domain=domain(phi.field))
    return [
        sum((to_poly(e, phi.field) * scalar(c) for c, e in zip(coords, col)), zero)
        for col in phi.columns
    ]


def oracle_gcd(phi, coords):
    """Monic gcd of the nonzero entries of coords * phi, None for a zero row."""
    entries = [e for e in oracle_row(phi, coords) if not e.is_zero]
    if not entries:
        return None
    g = entries[0]
    for e in entries[1:]:
        g = g.gcd(e)
    return g.monic()


def image(P, t):
    """(g_1(1, t), ..., g_n(1, t)) by plain powers of t."""
    field = P.field
    return [field.conv(sum(c * t**i for i, c in enumerate(g.coeffs))) for g in P.gens]


def cases(field):
    rng = random.Random(f"fiber-oracle:{field.modular}")
    out = [(P, None) for P in dense_corpus(field, 4, seed=21, n_range=(2, 4), d_max=6)]
    for n, r, e in [(3, 2, 2), (4, 2, 3), (3, 3, 2)]:
        out.append(composed_map(field, rng, n, r, e))
    return out


def test_fiber_matches_sympy_on_and_off_the_image(any_field):
    field = any_field
    rng = random.Random("fiber-oracle-points")
    off_image = 0
    for P, _ in cases(field):
        phi = hilbert_burch(P)
        points = [image(P, field.rand(rng)) for _ in range(3)]
        points += [[field.rand(rng) for _ in range(P.n)] for _ in range(3)]
        for k, coords in enumerate(points):
            p = ProjPointN.of(field, coords)
            want = oracle_gcd(phi, p.coords)
            rep = fiber(P, phi, p)
            assert to_poly(rep.fiber_form, field) == want, (P, p)
            assert rep.fiber_degree == want.total_degree()
            assert rep.on_image == (want.total_degree() >= 1)
            if k < 3:
                assert rep.on_image, (P, p)
            off_image += not rep.on_image
    assert off_image


def test_sampled_fiber_degree_matches_sympy(any_field):
    # the walk reads t = 1, -1, 2, -2, ...; its fibers and the least of their
    # degrees, r, against sympy gcds at the same points
    field = any_field
    ts = [1, -1, 2, -2, 3, -3, 4]
    for P, _ in cases(field):
        phi = hilbert_burch(P)
        want = [oracle_gcd(phi, image(P, field.conv(t))) for t in ts]
        got = [g for _, g in fiber_module._image_fibers(P, phi, len(ts))]
        assert [to_poly(g, field) for g in got] == want, P
        assert map_degree(P, phi) == min(g.total_degree() for g in want), P


def coefficient_rank(polys, degree, field):
    dom = domain(field)
    rows = [
        [dom.convert(p.coeff_monomial(X ** (degree - i) * Y**i)) for i in range(degree + 1)]
        for p in polys
    ]
    return DomainMatrix(rows, (len(rows), degree + 1), dom).rank()


def test_reparam_pair_lies_in_the_pencil_of_sympy_gcds(any_field):
    field = any_field
    rng = random.Random("fiber-oracle-pencil")
    for P, pair in cases(field):
        if pair is None:
            continue
        phi = hilbert_burch(P)
        r = map_degree(P, phi)
        assert r == pair[0].degree
        pencil = [oracle_gcd(phi, image(P, field.rand(rng))) for _ in range(4)]
        assert {g.total_degree() for g in pencil} == {r}
        assert coefficient_rank(pencil, r, field) == 2
        f1, f2 = certify_map_degree(P, phi).pair
        got = [to_poly(f, field) for f in (f1, f2)]
        assert got[0].gcd(got[1]).total_degree() == 0
        assert coefficient_rank(got, r, field) == 2
        assert coefficient_rank(pencil + got, r, field) == 2, (P, f1, f2)


def test_rational_hilbert_table_matches_sympy_ranks():
    # every reported HF_A(j) is the rank over QQ of the degree-j products of
    # the generators, whether a rank mod q met its bound or more primes
    # proved it; the image of the quadric map lies on g1 g4 = g2 g3
    maps = dense_corpus(QQ, 4, seed=22, n_range=(4, 4), d_max=5)
    maps.append(quadric_map(random.Random("table-oracle-quadric"), 2))
    assert {P.d for P in maps} == {4, 5}
    for P in maps:
        hf = Analysis(P).hf_a
        assert hf[1:] == qq_reference.slice_ranks(P, len(hf) - 1), P
