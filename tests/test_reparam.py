import importlib

import pytest

from curvemap import (
    DegreeMismatch,
    GradedIdeal,
    adjoint_of_m_power,
    certify_map_degree,
    core_ideal,
    express_in_subring,
    extract_reparam_basis,
    format_form,
    gcd_forms,
    hilbert_burch,
    ideal_equals,
    map_degree,
    maximal_ideal_power,
    parse_form,
    power,
    reparameterize,
    slice_rank,
)
from curvemap.reparam import NEW_VARIABLES

# the package exports the function fiber under the module's name
fiber_module = importlib.import_module("curvemap.fiber")


def certified(P):
    """(P, phi, the map-degree certificate), as reparameterize takes them."""
    phi = hilbert_burch(P)
    return P, phi, certify_map_degree(P, phi)


def walked_basis(P, phi, start=0, stop=9):
    """extract_reparam_basis on the distinct fiber forms of least degree at
    the points start..stop-1 of the map-degree walk."""
    fibers = [g for _, g in fiber_module._image_fibers(P, phi, stop)][start:]
    s = min(g.degree for g in fibers)
    return extract_reparam_basis(list(dict.fromkeys(g for g in fibers if g.degree == s)))


def test_extract_basis_monomial_cases_normalize(field, build):
    for texts, r in [
        (("x^4", "x^2*y^2", "y^4"), 2),
        (("x^6", "x^3*y^3", "y^6"), 3),
        (("x^2", "x*y", "y^2"), 1),
    ]:
        P = build(*texts)
        phi = hilbert_burch(P)
        f1, f2 = walked_basis(P, phi)
        assert format_form(f1) == f"x^{r}" if r > 1 else format_form(f1) == "x"
        assert f1.degree == r and f2.degree == r
        assert gcd_forms([f1, f2]).degree == 0


def test_extract_basis_deterministic_and_stable(field, build):
    P = build("x^3 + y^3", "x^2*y", "x*y^2")
    phi = hilbert_burch(P)
    a = walked_basis(P, phi)
    b = walked_basis(P, phi)
    assert [f.coeffs for f in a] == [f.coeffs for f in b]
    c = walked_basis(P, phi, start=4)
    assert [f.coeffs for f in a] == [f.coeffs for f in c]


def test_express_in_subring(field):
    f1 = parse_form(field, "x^2")
    f2 = parse_form(field, "y^2")
    got = express_in_subring(parse_form(field, "x^4"), f1, f2)
    assert format_form(got, NEW_VARIABLES) == "X^2"
    got = express_in_subring(parse_form(field, "x^2*y^2"), f1, f2)
    assert format_form(got, NEW_VARIABLES) == "X*Y"
    got = express_in_subring(parse_form(field, "x^4 + 2*x^2*y^2 + y^4"), f1, f2)
    assert format_form(got, NEW_VARIABLES) == "X^2 + 2*X*Y + Y^2"
    # honest non-membership is a None result
    assert express_in_subring(parse_form(field, "x^3*y"), f1, f2) is None
    with pytest.raises(DegreeMismatch):
        express_in_subring(parse_form(field, "x^3"), f1, f2)
    with pytest.raises(DegreeMismatch):
        express_in_subring(parse_form(field, "x^2"), f1, parse_form(field, "y^3"))


def test_reparameterize_square_example(field, build):
    P = build("x^6", "x^3*y^3", "y^6")
    phi = hilbert_burch(P)
    rp = reparameterize(P, phi, certify_map_degree(P, phi))
    assert rp.r == 3
    assert format_form(rp.f1) == "x^3" and format_form(rp.f2) == "y^3"
    assert [format_form(g, NEW_VARIABLES) for g in rp.new_param.gens] == [
        "X^2",
        "X*Y",
        "Y^2",
    ]
    assert rp.route == "rewritten"
    assert rp.rewritten_phi.col_degrees == (1, 1)
    assert rp.verification == {
        "regularSequence": True,
        "extension": True,
        "newDegreeOne": True,
    }
    assert map_degree(rp.new_param, rp.rewritten_phi) == 1


def test_reparameterize_birational_case_is_linear(field, build):
    P = build("x^3", "x^2*y", "y^3")
    rp = reparameterize(*certified(P))
    assert rp.r == 1
    assert format_form(rp.f1) == "x" and format_form(rp.f2) == "y"
    assert [format_form(g, NEW_VARIABLES) for g in rp.new_param.gens] == [
        "X^3",
        "X^2*Y",
        "Y^3",
    ]


def test_reparam_round_trip_dense(field, build):
    P = build("x^4 + y^4", "x^3*y - x*y^3", "x^2*y^2 + x*y^3")
    rp = reparameterize(*certified(P))
    assert rp.r == 1
    composed = [g.compose(rp.f1, rp.f2) for g in rp.new_param.gens]
    assert ideal_equals(
        GradedIdeal.of(field, composed), GradedIdeal.of(field, list(P.gens))
    )


def test_core_square_example(field, build):
    P = build("x^4", "x^2*y^2", "y^4")
    rep = core_ideal(P, certified(P)[2])
    assert rep.r == 2 and rep.e == 2
    want = power(GradedIdeal.of(field, [parse_form(field, "x^2"), parse_form(field, "y^2")]), 3)
    assert ideal_equals(rep.core, want)
    assert slice_rank(rep.core, 6) == 4
    assert not rep.equals_m_power
    assert not rep.integrally_closed
    assert rep.closure_provenance == "computed-monomial"
    assert rep.canonical == "f1^2 t (f1,f2)^1 R((f1,f2)^2)"


def test_core_birational_example(field, build):
    P = build("x^3", "x^2*y", "y^3")
    rep = core_ideal(P, certified(P)[2])
    assert rep.r == 1 and rep.e == 3
    assert ideal_equals(rep.core, maximal_ideal_power(field, 5))
    assert rep.equals_m_power
    assert rep.integrally_closed


def test_core_degree_one_map(field, build):
    P = build("x", "y")
    rep = core_ideal(P, certified(P)[2])
    assert rep.r == 1 and rep.e == 1
    assert ideal_equals(rep.core, maximal_ideal_power(field, 1))
    assert rep.equals_m_power


def test_core_json_shape(field, build):
    P = build("x^6", "x^3*y^3", "y^6")
    rep = core_ideal(P, certified(P)[2])
    js = rep.to_json()
    assert js["coreGens"] == ["x^9", "x^6*y^3", "x^3*y^6", "y^9"]
    assert js["integrallyClosed"] == {"value": False, "provenance": "computed-monomial"}
    assert js["r"] == 3 and js["e"] == 2


def test_core_closure_provenance_dense_birational(field, build):
    # any birational pair normalizes to (x, y), so the core is monomial
    P = build("x^2 + y^2", "x*y", "x^2 - x*y")
    rep = core_ideal(P, certified(P)[2])
    assert rep.r == 1
    assert rep.integrally_closed
    assert rep.closure_provenance == "computed-monomial"
    assert ideal_equals(rep.core, maximal_ideal_power(field, 3))


def test_core_closure_provenance_dense_nonbirational(field, build):
    # generators living in k[x^2, xy + y^2]: the pair cannot be normalized to
    # monomials, so closedness falls back to the r = 1 criterion
    P = build("x^4", "x^3*y + x^2*y^2", "x^2*y^2 + 2*x*y^3 + y^4")
    rep = core_ideal(P, certified(P)[2])
    assert rep.r == 2
    assert not rep.core.is_monomial
    assert not rep.integrally_closed
    assert rep.closure_provenance == "derived-by-theorem"


def test_adjoint_of_m_power(field):
    adj = adjoint_of_m_power(field, 8)
    assert ideal_equals(adj, maximal_ideal_power(field, 7))
    unit = adjoint_of_m_power(field, 1)
    assert unit.gens[0].degree == 0
    with pytest.raises(ValueError):
        adjoint_of_m_power(field, 0)
