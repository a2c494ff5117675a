import importlib
import random
from functools import reduce
from itertools import combinations_with_replacement, islice
from types import SimpleNamespace

import pytest

from curvemap import (
    CertificationFailed,
    ProjPoint1,
    ProjPointN,
    QQ,
    SyzygyMatrix,
    ZeroRow,
    apply_map,
    dense_corpus,
    fiber,
    form,
    gcd_forms,
    hilbert_burch,
    hilbert_table_a,
    j_multiplicity,
    map_degree,
    multiplicity_a,
    parse_form,
    row_ideal,
)
from curvemap.fiber import OFF_IMAGE_NOTE, _sampled_fiber_degree, _slices
from curvemap.linalg import modulus, np_rref, to_np
from test_degree_certificate import composed_map

# the package exports the function fiber under the module's name
fiber_module = importlib.import_module("curvemap.fiber")


def proportional(field, h, text):
    want = parse_form(field, text)
    if h.degree != want.degree:
        return False
    return gcd_forms([h]).monic().coeffs == want.monic().coeffs


def test_apply_map(field, build):
    P = build("x^2", "x*y", "y^2")
    p = apply_map(P, ProjPoint1.of(field, 1, 2))
    assert p.coords == (1, field.conv(2), field.conv(4))


def test_fiber_on_image_nonbirational(field, build):
    P = build("x^4", "x^2*y^2", "y^4")
    phi = hilbert_burch(P)
    p = apply_map(P, ProjPoint1.of(field, 1, 1))
    rep = fiber(P, phi, p)
    assert rep.on_image and rep.fiber_degree == 2
    # the fiber form is defined up to a unit
    assert proportional(field, rep.fiber_form, "y^2 - x^2")
    assert rep.to_json()["fiberForm"] == "x^2 - y^2"


def test_fiber_identity_map(field, build):
    P = build("x", "y")
    phi = hilbert_burch(P)
    rep = fiber(P, phi, ProjPointN.of(field, [2, 3]))
    assert rep.on_image and rep.fiber_degree == 1
    assert proportional(field, rep.fiber_form, "3*x - 2*y")


def test_fiber_off_image(field, build):
    P = build("x^2", "x*y", "y^2")
    phi = hilbert_burch(P)
    rep = fiber(P, phi, ProjPointN.of(field, [0, 1, 0]))
    assert not rep.on_image and rep.fiber_degree == 0
    assert rep.to_json()["note"] == OFF_IMAGE_NOTE


def test_row_ideal_is_m_primary_off_image(field, build):
    P = build("x^2", "x*y", "y^2")
    phi = hilbert_burch(P)
    J = row_ideal(phi, ProjPointN.of(field, [0, 1, 0]))
    assert gcd_forms(J.gens).degree == 0


def test_fiber_rejects_zero_row(field, build):
    # a synthetic matrix with a zero combination row
    P = build("x", "y")
    zero = form(field, [])
    phi = SyzygyMatrix(field, 2, (1,), ((zero, zero),))
    with pytest.raises(ZeroRow):
        fiber(P, phi, ProjPointN.of(field, [1, 1]))


def test_multiplicity_fixed_values(field, build):
    assert multiplicity_a(build("x^2", "x*y", "y^2")) == 2
    assert multiplicity_a(build("x^3", "x^2*y", "y^3")) == 3
    assert multiplicity_a(build("x^4", "x^2*y^2", "y^4")) == 2
    assert multiplicity_a(build("x^6", "x^3*y^3", "y^6")) == 2
    assert multiplicity_a(build("x", "y")) == 1


def test_hilbert_table_transient_plateau_regression(field, build):
    # exponents (0,2,3,7,8): first differences run 4,9,9,9 before settling at
    # 8, so a three-equal-differences window alone would report e = 9 > d
    P = build("x^8", "x^6*y^2", "x^5*y^3", "x*y^7", "y^8")
    e, hf = hilbert_table_a(P)
    assert e == 8
    assert hf == [1, 5, 14, 23, 32]
    phi = hilbert_burch(P)
    assert map_degree(P, phi, e=e) == 1


def test_hilbert_table_agrees_between_prime_and_rational_paths(field, build):
    texts = ("x^3 + y^3", "x^2*y", "x*y^2 - y^3")
    e_p, hf_p = hilbert_table_a(build(*texts))
    e_q, hf_q = hilbert_table_a(build(*texts, f=QQ))
    assert e_p == e_q
    assert hf_p[: min(len(hf_p), len(hf_q))] == hf_q[: min(len(hf_p), len(hf_q))]


def test_map_degree_fixed_values(field, build):
    for texts, want in [
        (("x^2", "x*y", "y^2"), 1),
        (("x^3", "x^2*y", "y^3"), 1),
        (("x^4", "x^2*y^2", "y^4"), 2),
        (("x^6", "x^3*y^3", "y^6"), 3),
        (("x^5", "y^5"), 5),
        (("x", "y"), 1),
    ]:
        P = build(*texts)
        assert map_degree(P, hilbert_burch(P)) == want


def test_map_degree_certifies_against_multiplicity(field, build):
    P = build("x^4", "x^2*y^2", "y^4")
    phi = hilbert_burch(P)
    with pytest.raises(CertificationFailed):
        map_degree(P, phi, e=3)  # r * 3 = 4 has no solution among sampled degrees


def test_j_multiplicity_is_d_squared(field, build):
    assert j_multiplicity(build("x^2", "x*y", "y^2")) == 4
    assert j_multiplicity(build("x^3", "x^2*y", "y^3")) == 9
    assert j_multiplicity(build("x^4", "x^2*y^2", "y^4")) == 16
    assert j_multiplicity(build("x", "y")) == 1


def test_fiber_degree_at_random_image_points_matches_r(field, build):
    P = build("x^6", "x^3*y^3", "y^6")
    phi = hilbert_burch(P)
    rng = random.Random("fiber-sample")
    for _ in range(10):
        q = ProjPoint1.of(field, 1, field.rand(rng))
        rep = fiber(P, phi, apply_map(P, q))
        assert rep.on_image and rep.fiber_degree == 3


# ---------------------------------------------------------------------------
# batched fiber sampling against the point-by-point fiber


def serial_fiber_degree(P, phi, seed, samples):
    """The least fiber(P, phi, apply_map(P, q)) over the seeded points q, one at a time."""
    rng = random.Random(f"map-degree:{seed}")
    field = P.field
    best = None
    got = attempts = 0
    while got < samples:
        attempts += 1
        if attempts > samples + 16:
            raise CertificationFailed("out of attempts")
        q = ProjPoint1.of(field, field.one, field.rand(rng))
        try:
            rep = fiber(P, phi, apply_map(P, q))
        except ZeroRow:
            continue
        got += 1
        best = rep.fiber_degree if best is None else min(best, rep.fiber_degree)
    return best


def test_batched_sampling_matches_fiber_at_the_same_points(field, build):
    rng = random.Random("batched-sampling")
    cases = dense_corpus(field, 12, seed=8, d_max=10)
    cases += dense_corpus(QQ, 4, seed=8, n_range=(2, 4), d_max=5)
    for n, r, e in [(3, 2, 3), (4, 3, 3), (3, 3, 2)]:
        cases.append(composed_map(field, rng, n, r, e)[0])
    cases += [
        build("x^4", "x^2*y^2", "y^4"),
        build("x^6", "x^3*y^3", "y^6"),
        build("x^7", "x^6*y", "x^2*y^5", "y^7"),
    ]
    for P in cases:
        phi = hilbert_burch(P)
        for seed in (0, 1, 5, 123):
            for samples in (1, 3, 7):
                got = _sampled_fiber_degree(P, phi, seed, samples)[0]
                assert got == serial_fiber_degree(P, phi, seed, samples), (P, seed, samples)


def test_batched_sampling_redraws_a_zero_row(field, build):
    # p * phi = (t0 - t) * y at p = (1 : t): the first seeded point gives a
    # zero row and must be redrawn, as the point-by-point loop does
    P = build("x", "y")
    t0 = field.rand(random.Random("map-degree:9"))
    col = (parse_form(field, f"{t0}*y"), parse_form(field, "-y"))
    phi = SyzygyMatrix(field, 2, (1,), (col,))
    with pytest.raises(ZeroRow):
        fiber(P, phi, apply_map(P, ProjPoint1.of(field, 1, t0)))
    assert _sampled_fiber_degree(P, phi, 9, 3)[0] == serial_fiber_degree(P, phi, 9, 3) == 1


def test_batched_sampling_gives_up_after_the_attempt_budget(field, build):
    P = build("x", "y")
    zero = form(field, [])
    phi = SyzygyMatrix(field, 2, (1,), ((zero, zero),))
    with pytest.raises(CertificationFailed, match="degenerate points"):
        _sampled_fiber_degree(P, phi, 0, 7)


def product_slice_dim(P, j):
    """HF_A(j), from one fresh elimination of every j-fold product of generators."""
    prods = [reduce(lambda f, g: f.mul(g), c) for c in combinations_with_replacement(P.gens, j)]
    rows = [list(f.coeffs) for f in prods]
    return len(np_rref(to_np(rows, P.field), modulus(P.field))[1])


def test_incremental_image_slices_match_direct_ranks(field):
    cases = dense_corpus(field, 16, seed=7, d_max=10) + dense_corpus(QQ, 8, seed=7, d_max=6)
    assert {P.n for P in cases if P.field == field} == {P.n for P in cases if P.field == QQ}
    assert {P.n for P in cases} == {2, 3, 4, 5, 6}
    for P in cases:
        # products of Fractions are slow to rank, so QQ stops a degree earlier
        top = 4 if P.field == field else 3
        slices = _slices(P)
        assert [next(slices) for _ in range(top)] == [
            product_slice_dim(P, j) for j in range(1, top + 1)
        ], P


def test_image_slices_past_the_first_pass_are_read_off_more_points(any_field, build, monkeypatch):
    passes = []
    first_pass = fiber_module._ranks_at_points

    def spy(G, field, hrow, J):
        passes.append(J)
        return first_pass(G, field, hrow, J)

    monkeypatch.setattr(fiber_module, "_ranks_at_points", spy)
    # n = 3, d = 3 fills slice J = 3 at C(5, 2) = 3 J + 1; n = 2 never fills, so J = 4
    for gens, J in (
        (("x^3 - 2*x*y^2 + y^3", "x^3 + x^2*y - 3*y^3", "5*x^2*y + x*y^2 - y^3"), 3),
        (("x^3 + 2*y^3", "x^2*y - x*y^2"), 4),
    ):
        P = build(*gens, f=any_field)
        passes.clear()
        got = list(islice(_slices(P), 6))
        assert got == [product_slice_dim(P, j) for j in range(1, 7)], P
        # slices J+1..6 come from a second pass on 2 J d + 1 points
        assert passes == [J, 2 * J]


def test_image_slices_never_repeat_a_point():
    # the first pass reads 4 slices of two cubics off 4 d + 1 = 13 points; F_11 has 11
    tiny = SimpleNamespace(modular=True, p=11)
    G = to_np([[1, 0, 0, 1], [0, 1, 1, 0]], tiny)
    with pytest.raises(CertificationFailed, match="too few points"):
        next(fiber_module._image_ranks(G, tiny))
