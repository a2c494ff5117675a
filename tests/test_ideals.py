import pytest

from curvemap import (
    GradedIdeal,
    InstanceError,
    Parameterization,
    QQ,
    ZeroIdeal,
    ideal_equals,
    maximal_ideal_power,
    parse_form,
    power,
    slice_rank,
)


def ideal(field, *texts):
    return GradedIdeal.of(field, [parse_form(field, t) for t in texts])


def test_maximal_ideal_power(field):
    m3 = maximal_ideal_power(field, 3)
    assert len(m3.gens) == 4
    assert slice_rank(m3, 3) == 4
    assert slice_rank(m3, 5) == 6  # all of R_5
    assert m3.is_monomial
    m0 = maximal_ideal_power(field, 0)
    assert m0.gens[0].degree == 0


def test_zero_ideal_rejected(field):
    with pytest.raises(ZeroIdeal):
        GradedIdeal.of(field, [])


def test_slice_rank_and_basis(field):
    J = ideal(field, "x^2", "x*y")
    assert slice_rank(J, 2) == 2
    assert slice_rank(J, 3) == 3  # x^3, x^2 y, x y^2
    assert slice_rank(J, 4) == 4  # every degree-4 monomial but y^4


def test_power(field):
    m = maximal_ideal_power(field, 1)
    assert ideal_equals(power(m, 5), maximal_ideal_power(field, 5))
    J = power(ideal(field, "x^2", "y^2"), 3)
    assert sorted(g.degree for g in J.gens) == [6, 6, 6, 6]
    assert slice_rank(J, 6) == 4


def test_ideal_equals_distinguishes_core_from_m_power(field):
    # (x^2, y^2)^3 is strictly inside m^6: slice dimensions 4 vs 7 in degree 6
    J = power(ideal(field, "x^2", "y^2"), 3)
    m6 = maximal_ideal_power(field, 6)
    assert slice_rank(J, 6) == 4 and slice_rank(m6, 6) == 7
    assert not ideal_equals(J, m6)
    assert ideal_equals(J, ideal(field, "y^6", "x^2*y^4", "x^6", "x^4*y^2"))


def test_ideal_equals_handles_different_generating_sets(field):
    a = ideal(field, "x^2", "x*y", "y^2")
    b = ideal(field, "x^2 + x*y", "x*y - y^2", "y^2", "x^2")
    assert ideal_equals(a, b)
    assert not ideal_equals(a, ideal(field, "x^2", "y^2"))
    # mixed generator degrees: x^2*y^2 lies in (x^2), x*y^2 is not in (x^2, y^3)
    assert ideal_equals(ideal(field, "x^2", "x*y^3"), ideal(field, "x^2", "x*y^3 + x^2*y^2"))
    assert not ideal_equals(ideal(field, "x^2", "y^3"), ideal(field, "x^2", "x*y^2", "y^3"))
    assert not ideal_equals(ideal(field, "x^2", "x*y^2", "y^3"), ideal(field, "x^2", "y^3"))


def test_rational_mode(field):
    J = ideal(QQ, "x^2", "x*y", "y^2")
    assert slice_rank(J, 2) == 3
    assert ideal_equals(J, maximal_ideal_power(QQ, 2))
    assert not ideal_equals(J, ideal(QQ, "x^2", "y^2"))


def test_gen_strings(field):
    J = ideal(field, "x^2", "y^2")
    assert J.gen_strings() == ["x^2", "y^2"]
    assert J.gen_strings(("X", "Y")) == ["X^2", "Y^2"]


def test_parameterization_build_validations(field):
    x = parse_form(field, "x")
    with pytest.raises(InstanceError, match="at least two"):
        Parameterization.build(field, [x])
    with pytest.raises(InstanceError, match="linearly dependent"):
        Parameterization.build(field, [x, x])
    with pytest.raises(InstanceError, match="degree mismatch"):
        Parameterization.build(field, [x, parse_form(field, "y^2")])
    with pytest.raises(InstanceError, match="common factor"):
        Parameterization.build(
            field, [parse_form(field, "x^2"), parse_form(field, "x*y")]
        )
    with pytest.raises(InstanceError, match="zero generator"):
        Parameterization.build(field, [x, parse_form(field, "0*x")])
    P = Parameterization.build(field, [x, parse_form(field, "y")])
    assert P.d == 1 and P.n == 2 and P.is_monomial
