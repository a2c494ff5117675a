import pytest

from curvemap import (
    DegreeMismatch,
    InstanceError,
    ProjPoint1,
    ProjPointN,
    QQ,
    ZeroIdeal,
    constant,
    form,
    format_form,
    gcd_forms,
    li_dim,
    monomial,
    parse_form,
)


def x_order(f):
    """Largest k with x**k dividing the form."""
    return f.degree - max(i for i, c in enumerate(f.coeffs) if c)


def test_form_construction_and_degree_bookkeeping(field):
    h = form(field, [1, 0, 3])  # x^2 + 3 y^2
    assert h.degree == 2 and not h.is_zero
    assert x_order(h) == 0 and h.y_order == 0
    assert form(field, []).is_zero
    m = monomial(field, 5, 2, c=4)  # 4 x^3 y^2
    assert m.degree == 5 and m.y_order == 2 and x_order(m) == 3 and m.is_monomial
    assert not h.is_monomial


def test_arithmetic_and_shift(field):
    x_plus_y = form(field, [1, 1])
    sq = x_plus_y.mul(x_plus_y)
    assert list(sq.coeffs) == [1, 2, 1]
    assert sq.sub(sq).is_zero
    assert x_plus_y.scale(field.conv(3)).coeffs[0] == field.conv(3)
    shifted = x_plus_y.shift(1, 2)  # * x y^2
    assert shifted.degree == 4 and shifted.y_order == 2 and x_order(shifted) == 1
    with pytest.raises(DegreeMismatch):
        x_plus_y.add(sq)


def test_monic_normalizes_leading_x_coefficient(field):
    h = form(field, [field.conv(3), field.conv(6)])  # 3x + 6y
    m = h.monic()
    assert list(m.coeffs) == [1, field.conv(2)]
    assert form(field, [0, field.conv(5)]).monic().coeffs[1] == 1


def test_eval_proj_and_compose(field):
    h = parse_form(field, "x^2 - y^2")
    # evaluation is taken at the canonical representative [1 : 2]
    assert h.eval_proj(ProjPoint1.of(field, 1, 2)) == field.conv(-3)
    assert h.eval_proj(ProjPoint1.of(field, 1, 1)) == field.zero
    assert h.eval_proj(ProjPoint1.of(field, 2, 2)) == field.zero
    # substitute x -> x^2, y -> y^2 in X + Y style composition
    g = parse_form(field, "x + y")
    comp = g.compose(parse_form(field, "x^2"), parse_form(field, "y^2"))
    assert format_form(comp) == "x^2 + y^2"
    quad = parse_form(field, "x^2 + 2*x*y + y^2")
    comp2 = quad.compose(parse_form(field, "x^3"), parse_form(field, "y^3"))
    assert format_form(comp2) == "x^6 + 2*x^3*y^3 + y^6"


def test_parse_and_format_roundtrip(field):
    for text in (
        "x",
        "-x",
        "y^3",
        "x^2 - 3*x*y + y^2",
        "2*x^5 - x^2*y^3",
        "x^4 + 715827883*y^4",
    ):
        h = parse_form(field, text)
        assert format_form(h) == text
    assert format_form(constant(field)) == "1"
    assert format_form(parse_form(field, "7"), ("x", "y")) == "7"


def test_parse_accepts_fractions_and_uppercase(field):
    h = parse_form(field, "1/2*x^2 + y^2")
    assert h.coeffs[0] == field.conv(1) * field.inv(field.conv(2)) % field.p
    up = parse_form(field, "X^2 - Y^2")
    assert format_form(up, ("X", "Y")) == "X^2 - Y^2"
    q = parse_form(QQ, "1/3*x - y")
    assert format_form(q) == "1/3*x - y"


def test_parse_rejects_bad_input(field):
    for text in ("", "x + ", "x^2 + y", "x*z", "x^2 ++ y^2", "x^2 + Y^2", "^2"):
        with pytest.raises(InstanceError):
            parse_form(field, text)


def test_gcd_forms(field):
    a = parse_form(field, "x^2 - y^2")
    b = parse_form(field, "x^2 + 2*x*y + y^2")
    g = gcd_forms([a, b])
    assert format_form(g) == "x + y"
    # coprime forms have a constant gcd
    assert gcd_forms([parse_form(field, "x"), parse_form(field, "y")]).degree == 0
    # shared y power survives dehomogenization
    c = parse_form(field, "x^2*y")
    d = parse_form(field, "x*y^2")
    assert format_form(gcd_forms([c, d])) == "x*y"
    assert format_form(gcd_forms([c, form(field, [])])) == "x^2*y"
    with pytest.raises(ZeroIdeal):
        gcd_forms([form(field, [])])


def test_gcd_is_monic(field):
    a = parse_form(field, "2*x^2 - 2*y^2")
    b = parse_form(field, "4*x - 4*y")
    assert format_form(gcd_forms([a, b])) == "x - y"


def test_li_dim(field):
    basis = [parse_form(field, t) for t in ("x^2", "x*y", "y^2")]
    assert li_dim(basis) == 3
    dep = basis + [parse_form(field, "x^2 + x*y")]
    assert li_dim(dep) == 3
    assert li_dim([form(field, [])]) == 0
    with pytest.raises(DegreeMismatch):
        li_dim([parse_form(field, "x"), parse_form(field, "x^2")])


def test_proj_points_canonicalize(field):
    p = ProjPoint1.of(field, 2, 4)
    assert p.u == 1 and p.v == field.conv(2)
    assert str(ProjPoint1.of(field, 0, 7)) == "0:1"
    with pytest.raises(InstanceError):
        ProjPoint1.of(field, 0, 0)
    q = ProjPointN.of(field, [0, 3, 6])
    assert q.coords == (0, 1, field.conv(2))
    with pytest.raises(InstanceError):
        ProjPointN.of(field, [0, 0, 0])
