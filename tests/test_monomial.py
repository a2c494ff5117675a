import random

import pytest

from curvemap import (
    GradedIdeal,
    InstanceError,
    MonomialParam,
    NotMonomial,
    ideal_equals,
    maximal_ideal_power,
    newton_closure,
    oracle_degree,
    oracle_phi,
    parse_form,
    slice_rank,
    verify_hilbert_burch,
)
from curvemap.monomial import closure_pairs, staircase


def test_monomial_param_validation(field):
    with pytest.raises(InstanceError):
        MonomialParam.of(field, 4, (0, 2))  # last exponent must be d
    with pytest.raises(InstanceError):
        MonomialParam.of(field, 4, (1, 4))  # first must be 0
    with pytest.raises(InstanceError):
        MonomialParam.of(field, 4, (0, 2, 2, 4))  # strictly increasing
    with pytest.raises(InstanceError):
        MonomialParam.of(field, 4, (0,))
    M = MonomialParam.of(field, 4, (0, 1, 4))
    assert M.n == 3 and M.gaps == (1, 3)


def test_from_param_requires_monomials(field, build):
    assert not build("x^2 + y^2", "x*y", "y^2").is_monomial
    P = build("x^3", "x*y^2", "y^3")
    assert P.is_monomial
    M = MonomialParam.of(P.field, P.d, sorted(P.d - g.y_order for g in P.gens))
    assert M.exponents == (0, 1, 3)


def test_oracle_phi_is_a_valid_hilbert_burch_matrix(field):
    for exps in [(0, 1, 2), (0, 2, 3), (0, 2, 4), (0, 1, 5, 6, 8), (0, 7)]:
        M = MonomialParam.of(field, exps[-1], exps)
        P = M.parameterization()
        phi = oracle_phi(M)
        assert verify_hilbert_burch(P, phi)
        assert sorted(phi.col_degrees) == sorted(M.gaps)


def test_oracle_degree_is_gcd_of_gaps(field):
    assert oracle_degree(MonomialParam.of(field, 4, (0, 2, 4))) == 2
    assert oracle_degree(MonomialParam.of(field, 3, (0, 2, 3))) == 1
    assert oracle_degree(MonomialParam.of(field, 12, (0, 3, 6, 9, 12))) == 3
    assert oracle_degree(MonomialParam.of(field, 9, (0, 9))) == 9


def ideal(field, *texts):
    return GradedIdeal.of(field, [parse_form(field, t) for t in texts])


def test_newton_closure_fixes_m_powers(field):
    for t in range(1, 7):
        mt = maximal_ideal_power(field, t)
        assert ideal_equals(newton_closure(mt), mt)


def test_newton_closure_known_hulls(field):
    got = newton_closure(ideal(field, "x^6", "x^4*y^2", "x^2*y^4", "y^6"))
    assert ideal_equals(got, maximal_ideal_power(field, 6))
    got2 = newton_closure(ideal(field, "x^2", "y^2"))
    assert ideal_equals(got2, maximal_ideal_power(field, 2))
    # mixed degrees: closure of (x^4, y^2) picks up x^2 y
    got3 = newton_closure(ideal(field, "x^4", "y^2"))
    assert sorted(got3.gen_strings()) == ["x^2*y", "x^4", "y^2"]


def test_newton_closure_keeps_staircase_corners(field):
    # regression: a point further right but strictly lower must survive the
    # dominance prefilter (m^5 once collapsed to (x^5) here)
    m5 = maximal_ideal_power(field, 5)
    assert len(newton_closure(m5).gens) == 6
    J = ideal(field, "x^8", "x^6*y^2", "x^5*y^3", "x*y^7", "y^8")
    got = newton_closure(J)
    assert ideal_equals(got, maximal_ideal_power(field, 8))


def test_newton_closure_contains_input_and_is_idempotent(field):
    rng = random.Random("newton")
    for _ in range(20):
        d = rng.randrange(2, 12)
        n = rng.randrange(2, min(d + 1, 7))
        mid = sorted(rng.sample(range(1, d), n - 2)) if n > 2 else []
        exps = [0] + mid + [d]
        gens = [parse_form(field, f"x^{d - a}*y^{a}" if 0 < a < d else ("x^%d" % d if a == 0 else "y^%d" % d)) for a in exps]
        J = GradedIdeal.of(field, gens)
        closed = newton_closure(J)
        assert ideal_equals(newton_closure(closed), closed)
        for t in range(d, 2 * d + 1):
            assert slice_rank(closed, t) >= slice_rank(J, t)


def test_newton_closure_rejects_dense_input(field, build):
    J = ideal(field, "x^2 + y^2", "x*y")
    with pytest.raises(NotMonomial):
        newton_closure(J)


def test_staircase_and_closure_on_pairs():
    # minimal pairs only: a repeat, a point to the right at the same height
    # and a point above at the same u all drop out
    pairs = [(3, 1), (1, 3), (2, 3), (1, 4), (0, 5), (3, 1), (4, 0)]
    assert staircase(pairs) == [(0, 5), (1, 3), (3, 1), (4, 0)]
    # the closure of (x^4, y^2) picks up x^2 y, that of (x^6, y^3) x^4 y and x^2 y^2
    assert closure_pairs([(4, 0), (0, 2)]) == [(0, 2), (2, 1), (4, 0)]
    assert closure_pairs([(6, 0), (0, 3)]) == [(0, 3), (2, 2), (4, 1), (6, 0)]
    assert closure_pairs(staircase(pairs)) == closure_pairs(pairs)
