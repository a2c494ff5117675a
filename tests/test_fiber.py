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
    certify_map_degree,
    dense_corpus,
    fiber,
    form,
    format_form,
    gcd_forms,
    hilbert_burch,
    hilbert_table_a,
    j_multiplicity,
    map_degree,
    multiplicity_a,
    parse_form,
    row_ideal,
)
from curvemap.field import MIN_PRIME
from curvemap.fiber import OFF_IMAGE_NOTE, _slices
from curvemap.forms import MAX_DEGREE
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


def test_map_degree_certifies_against_multiplicity(field, build, walked):
    P = build("x^4", "x^2*y^2", "y^4")
    phi = hilbert_burch(P)
    # s * 3 = 4 has no solution, so every attempt fails until the bound d^2 + 1
    with pytest.raises(CertificationFailed, match=r"17 points .* e\(A\) = 3 with d = 4"):
        map_degree(P, phi, e=3)
    assert len(walked) == 17


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
# the batched map-degree walk against the point-by-point fiber


def serial_walk(P, phi, stop):
    """(t, fiber form or None) at the points (1 : t), t = 1, -1, 2, -2, ...,
    the first stop of them, one fiber call each; None for a vanishing row."""
    field = P.field
    out = []
    for k in range(1, stop + 1):
        t = field.conv((k + 1) // 2 * (1 if k % 2 else -1))
        try:
            g = fiber(P, phi, apply_map(P, ProjPoint1.of(field, field.one, t))).fiber_form
        except ZeroRow:
            g = None
        out.append((t, g))
    return out


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
    assert {P.field for P in cases} == {field, QQ}
    for P in cases:
        phi = hilbert_burch(P)
        # batches of 2, 4 and 8 points, cut anywhere
        serial = serial_walk(P, phi, 9)
        for stop in (1, 2, 5, 9):
            assert list(fiber_module._image_fibers(P, phi, stop)) == serial[:stop], (P, stop)
        assert map_degree(P, phi) == min(g.degree for _, g in serial), P


def test_walk_evaluates_its_points_in_doubling_batches(field, build, monkeypatch):
    P = build("x^3", "x^2*y + y^3", "x*y^2")
    phi = hilbert_burch(P)
    batches = []
    real = fiber_module._row_evaluator

    def evaluator(*args):
        rows = real(*args)
        return lambda ts: batches.append(len(ts)) or rows(ts)

    monkeypatch.setattr(fiber_module, "_row_evaluator", evaluator)
    assert len(list(fiber_module._image_fibers(P, phi, 12))) == 12
    assert batches == [2, 4, 6]


def test_batched_sampling_redraws_a_zero_row(field, build, walked):
    # p * phi = (t - 1) * (y - t*x) at p = (1 : t : t^2): the first point of
    # the walk gives a zero row, which counts as a point and is passed over
    P = build("x^2", "x*y", "y^2")
    col = tuple(parse_form(field, h) for h in ("-y", "x + y", "-x"))
    phi = SyzygyMatrix(field, 3, (1,), (col,))
    assert serial_walk(P, phi, 1) == [(1, None)]
    with pytest.raises(ZeroRow):
        fiber(P, phi, apply_map(P, ProjPoint1.of(field, 1, 1)))
    assert map_degree(P, phi) == 1
    assert walked == [1, field.conv(-1), 2]


def test_batched_sampling_gives_up_after_the_attempt_budget(field, build, walked):
    # every row of a zero phi vanishes, and each counts against the bound d^2 + 1
    P = build("x^2", "x*y", "y^2")
    zero = form(field, [])
    phi = SyzygyMatrix(field, 3, (1, 1), ((zero,) * 3,) * 2)
    with pytest.raises(CertificationFailed, match=r"d\^2 \+ 1 = 5 points"):
        map_degree(P, phi)
    assert len(walked) == fiber_module._walk_bound(2) == 5


def test_walk_passes_a_node_and_proves_r_on_the_fourth_point(any_field, build, walked):
    # the node (1 : 1 : 0) of this plane cubic lies under t = 1 and t = -1,
    # where the fiber is x^2 - y^2; t = 2 and t = -2 give two fibers of degree 1
    P = build("x^3", "x*y^2", "y^3 - x^2*y", f=any_field)
    phi = hilbert_burch(P)
    assert [g.degree for _, g in serial_walk(P, phi, 4)] == [2, 2, 1, 1]
    cert = certify_map_degree(P, phi)
    assert (cert.r, [format_form(f) for f in cert.pair]) == (1, ["x", "y"])
    assert walked == [any_field.conv(t) for t in (1, -1, 2, -2)]


def test_walk_goes_on_past_fibers_that_span_no_pencil(any_field, build, monkeypatch):
    # two distinct forms of degree 4 that span one dimension come first; the
    # attempt on them fails, and the fibers of degree 2 that follow prove r = 2
    P = build("x^4", "x^2*y^2", "y^4", f=any_field)
    phi = hilbert_burch(P)
    bogus = [parse_form(any_field, h) for h in ("x^4 + y^4", "2*x^4 + 2*y^4")]
    real = fiber_module._image_fibers
    attempts = []
    real_lueroth = fiber_module._lueroth

    def spy(P, phi, stop):
        yield from ((None, g) for g in bogus)
        yield from islice(real(P, phi, stop), stop - len(bogus))

    def lueroth(P, phi, s, fibers, e):
        attempts.append(fibers)
        return real_lueroth(P, phi, s, fibers, e)

    monkeypatch.setattr(fiber_module, "_image_fibers", spy)
    monkeypatch.setattr(fiber_module, "_lueroth", lueroth)
    cert = certify_map_degree(P, phi)
    assert (cert.r, [format_form(f) for f in cert.pair]) == (2, ["x^2", "y^2"])
    assert attempts[0] == bogus and len(attempts) == 2


def test_walk_bound_keeps_its_points_distinct_mod_every_accepted_prime():
    # the walk reads t = +-1, ..., +-(d^2 + 2)/2 at most
    bound = fiber_module._walk_bound(MAX_DEGREE)
    assert bound == MAX_DEGREE**2 + 1
    assert 2 * ((bound + 1) // 2) < MIN_PRIME


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
        # slices J+1..6 come from a second pass on 2 J d + 1 points, over QQ
        # in the run mod each prime
        runs = len(passes) // 2
        assert passes[0] == J and sorted(passes) == [J] * runs + [2 * J] * runs


def test_image_slices_never_repeat_a_point():
    # the first pass reads 4 slices of two cubics off 4 d + 1 = 13 points; F_11 has 11
    tiny = SimpleNamespace(modular=True, p=11)
    G = to_np([[1, 0, 0, 1], [0, 1, 1, 0]], tiny)
    with pytest.raises(CertificationFailed, match="too few points"):
        next(fiber_module._image_ranks(G, tiny))
