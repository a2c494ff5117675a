"""Over QQ, ranks, admission, coprimality and fiber degrees decided mod one prime.

Each answer is first taken mod q = DEFAULT_PRIME, on residues from
RationalField.reduction, and kept only when it is proved: a rank that meets
min(m, n), a full-rank prefix of the kernel, a gcd of degree 0, or a fiber
gcd of degree 1, which is then the known root of the row.  Otherwise the
exact route runs: a rank or an admission over QQ, read off a kernel lifted
from primes (linalg.np_rref), or a gcd by Euclid on Fractions.  Here every
site takes both routes and is
compared with the exact one, which a reduction that always refuses forces:
ranks that drop mod q, denominators divisible by q, generators coprime over
QQ but not mod q, admissions off the kernel prefix, maps with r > 1 and a
fiber gcd that a fault makes constant mod q.
"""

import importlib
import random
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from curvemap import (
    DEFAULT_PRIME,
    QQ,
    Analysis,
    GradedIdeal,
    InstanceError,
    Parameterization,
    ProjPoint1,
    apply_map,
    certify_map_degree,
    cli,
    dense_corpus,
    form,
    hilbert_burch,
    ideal_equals,
    linalg,
    parse_form,
)
from curvemap.forms import constant, gcd_forms, li_dim
from curvemap.ideals import slice_rank
from test_degree_certificate import composed_map

# the package exports the function fiber under the module's name
fiber = importlib.import_module("curvemap.fiber")
forms = importlib.import_module("curvemap.forms")
param = importlib.import_module("curvemap.param")
reparam = importlib.import_module("curvemap.reparam")
Q = DEFAULT_PRIME
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@contextmanager
def exact_route(monkeypatch):
    """Every reduction mod q refused, so every site runs its exact route."""
    with monkeypatch.context() as m:
        m.setattr(type(QQ), "reduction", lambda self, rows: None)
        yield


@pytest.fixture
def fraction_work(monkeypatch):
    """{"rref": shapes of np_rref calls over QQ, "gcd": QQ gcd_forms calls}."""
    log = {"rref": [], "gcd": []}
    real_rref = linalg.np_rref

    def rref(a, p):
        if a.dtype == object:
            log["rref"].append(a.shape)
        return real_rref(a, p)

    real_gcd = forms.gcd_forms

    def gcd(fs):
        fs = list(fs)
        if fs and not fs[0].field.modular:
            log["gcd"].append(len(fs))
        return real_gcd(fs)

    monkeypatch.setattr(linalg, "np_rref", rref)
    for module in (forms, fiber, param, reparam):
        monkeypatch.setattr(module, "gcd_forms", gcd)
    return log


def qq(text):
    return parse_form(QQ, text)


def qq_param(*texts):
    return Parameterization.build(QQ, [qq(t) for t in texts])


# ---------------------------------------------------------------------------
# rank: a rank mod q that meets min(m, n) is the rank


def test_li_dim_whose_rank_drops_mod_q_is_exact(fraction_work):
    # mod q both forms are x, so the rank mod q is 1
    assert li_dim([qq(f"x + {Q}*y"), qq("x")]) == 2
    assert fraction_work["rref"] == [(2, 2)]
    fraction_work["rref"].clear()
    # a rank below min(m, n) over QQ as well
    assert li_dim([qq("x + 2*y"), qq("2*x + 4*y")]) == 1
    assert fraction_work["rref"] == [(2, 2)]
    fraction_work["rref"].clear()
    assert li_dim([qq("x + 2*y"), qq("x"), qq("y")]) == 2
    assert li_dim([qq("x^2 + 2*y^2"), qq("x*y"), qq("-3*y^2")]) == 3
    assert fraction_work["rref"] == []


def test_li_dim_with_a_denominator_divisible_by_q_is_exact(fraction_work):
    assert li_dim([qq(f"1/{Q}*x + y"), qq("x")]) == 2
    assert fraction_work["rref"] == [(2, 2)]


def test_rank_matches_the_exact_elimination(monkeypatch, fraction_work):
    rng = np.random.default_rng(18)
    cases = [[[1, Q], [1, 0]], [[Q, 2 * Q], [1, 2]], [[0, 0, 0]]]
    for m, n in [(3, 5), (6, 4), (5, 5), (8, 3)]:
        for r in range(min(m, n) + 1):
            a = rng.integers(-3, 4, (m, r)) @ rng.integers(-3, 4, (r, n))
            cases.append(a.tolist())
    routes = set()
    for rows in cases:
        with exact_route(monkeypatch):
            want = linalg.rank(rows, QQ)
        before = len(fraction_work["rref"])
        assert linalg.rank(rows, QQ) == want, rows
        routes.add(len(fraction_work["rref"]) > before)
    assert routes == {False, True}


def test_rank_leaves_an_owned_array_as_it_was_mod_q():
    a = linalg.to_np([[1, 2, 3], [0, 1, 5]], QQ)
    before = a.copy()
    assert linalg.rank(a, QQ) == 2
    assert np.array_equal(a, before)
    # a rank below min(m, n) is eliminated exactly, in place
    b = linalg.to_np([[1, 2, 3], [2, 4, 6]], QQ)
    assert linalg.rank(b, QQ) == 1
    assert np.array_equal(b, linalg.np_rref(linalg.to_np([[1, 2, 3], [2, 4, 6]], QQ), None)[0])


def test_ideal_equality_through_q_matches_the_exact_route(monkeypatch, fraction_work):
    # (x + q y) and (x) agree mod q, not over QQ
    assert not ideal_equals(GradedIdeal.of(QQ, [qq(f"x + {Q}*y")]), GradedIdeal.of(QQ, [qq("x")]))
    assert fraction_work["rref"]
    pairs = []
    for P in dense_corpus(QQ, 6, seed=18, n_range=(3, 4), d_max=6):
        g = list(P.gens)
        J = GradedIdeal.of(QQ, g)
        pairs += [
            (J, GradedIdeal.of(QQ, [g[0].add(g[1])] + g[1:])),
            (J, GradedIdeal.of(QQ, g[:-1])),
            (J, GradedIdeal.of(QQ, [h.mul(qq("x")) for h in g] + [h.mul(qq("y")) for h in g])),
        ]
    verdicts = set()
    for J1, J2 in pairs:
        degrees = range(J1.gens[0].degree + 3)
        with exact_route(monkeypatch):
            want = ideal_equals(J1, J2), [slice_rank(J2, t) for t in degrees]
        assert (ideal_equals(J1, J2), [slice_rank(J2, t) for t in degrees]) == want, (J1, J2)
        verdicts.add(want[0])
    assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# coprimality: a gcd of degree 0 mod q proves coprime generators


def test_coprime_over_qq_but_not_mod_q_is_accepted(fraction_work):
    # mod q the generators are x^2 and x*y, with gcd x
    P = qq_param("x^2", f"x*y + {Q}*y^2")
    assert (P.n, P.d) == (2, 2)
    assert fraction_work["gcd"] == [2]


@pytest.mark.parametrize(
    "texts",
    [
        ("x^3 + x^2*y", "x^2*y + x*y^2", "x*y^2 + y^3"),
        ("1/2*x^2 + 1/2*x*y", "x*y + y^2"),
        (f"1/{Q}*x^2 + 1/{Q}*x*y", "x*y + y^2"),
    ],
)
def test_common_factor_message_is_unchanged(texts, fraction_work):
    with pytest.raises(InstanceError) as info:
        qq_param(*texts)
    assert str(info.value) == "generators share the common factor x + y"
    assert fraction_work["gcd"]


@pytest.mark.parametrize("texts", [(f"{Q}*x^2", f"{Q}*y^2"), (f"1/{Q}*x^2", "y^2")])
def test_generators_proving_nothing_mod_q_take_the_exact_gcd(texts, fraction_work):
    # all vanish mod q, or q divides a denominator
    qq_param(*texts)
    assert fraction_work["gcd"]


def test_dense_generators_are_proved_coprime_mod_q(fraction_work):
    cases = dense_corpus(QQ, 10, seed=18, d_max=12)
    assert not fraction_work["gcd"] and not fraction_work["rref"]
    assert {P.n for P in cases} >= {2, 3, 4}


# ---------------------------------------------------------------------------
# fiber degree: a gcd of degree 1 mod q is the known root t x - y


def walk_both_routes(P, phi, monkeypatch, stop=9):
    """The fiber forms at the first stop points of the map-degree walk, the
    same on the route mod q and on the exact route."""
    got = [g for _, g in fiber._image_fibers(P, phi, stop)]
    with exact_route(monkeypatch):
        want = [g for _, g in fiber._image_fibers(P, phi, stop)]
    assert got == want, P
    # the same forms, down to Fraction coefficients
    assert [[type(c) for c in g.coeffs] for g in got] == [
        [type(c) for c in g.coeffs] for g in want
    ]
    return got


def certify_both_routes(P, phi, monkeypatch):
    cert = certify_map_degree(P, phi)
    with exact_route(monkeypatch):
        assert certify_map_degree(P, phi) == cert, P
    return cert


def test_sampled_fibers_match_the_exact_route(monkeypatch):
    cases = dense_corpus(QQ, 8, seed=18, n_range=(3, 5), d_max=8)
    # a coefficient divisible by q
    cases.append(qq_param("x^4", f"x^3*y + {Q}*x*y^3", "y^4 + x^2*y^2"))
    for P in cases:
        phi = hilbert_burch(P)
        assert all(g.degree == 1 for g in walk_both_routes(P, phi, monkeypatch))
        assert certify_both_routes(P, phi, monkeypatch).r == 1


def test_composed_maps_keep_their_exact_fibers_and_pencil(monkeypatch, fraction_work):
    rng = random.Random("modular-composed")
    for n, r, e in [(3, 2, 3), (3, 3, 2), (4, 2, 3)]:
        P = composed_map(QQ, rng, n, r, e)[0]
        phi = hilbert_burch(P)
        fraction_work["gcd"].clear()
        fibers = walk_both_routes(P, phi, monkeypatch)
        assert {g.degree for g in fibers} == {r} and len(set(fibers)) >= 2
        # every fiber of degree r >= 2 mod q is taken from the exact row
        assert fraction_work["gcd"]
        assert certify_both_routes(P, phi, monkeypatch).r == r


def test_denominator_divisible_by_q_samples_exact_fibers(monkeypatch, fraction_work):
    P = qq_param(f"x^3 + 1/{Q}*y^3", "x^2*y", "x*y^2")
    phi = hilbert_burch(P)
    fraction_work["gcd"].clear()
    assert walk_both_routes(P, phi, monkeypatch)[0].degree == 1
    assert fraction_work["gcd"]


def test_proved_fiber_reads_the_known_root_or_proves_nothing(field):
    # field is F_q, q = DEFAULT_PRIME, where the residues live
    def row(*texts):
        return [parse_form(field, t) for t in texts]

    t = QQ.conv(3)
    # entries x (3x - y) and y (3x - y) mod q
    got = fiber._proved_fiber(QQ, t, row("3*x^2 - x*y", "3*x*y - y^2"))
    want = gcd_forms([qq("3*x^2 - x*y"), qq("3*x*y - y^2")])
    assert got == want == form(QQ, [1, QQ.conv(-1) / 3])
    assert fiber._proved_fiber(QQ, t, row("x^2", "y^2")) == constant(QQ)
    # a row that vanishes mod q, or a gcd x (3x - y) of degree 2, proves nothing
    assert fiber._proved_fiber(QQ, t, row("0", "0")) is None
    assert fiber._proved_fiber(QQ, t, row("3*x^3 - x^2*y", "3*x^2*y - x*y^2")) is None
    # the root at t = 0 is y
    assert fiber._proved_fiber(QQ, QQ.zero, row("x*y", "y^2")) == form(QQ, [0, 1])


def test_fiber_gcd_of_degree_zero_mod_q_exits_2(tmp_path, capsys, monkeypatch):
    # a fault in the gcd mod q: every modular fiber gcd is the constant 1
    real = fiber.gcd_forms

    def faulty(fs):
        fs = list(fs)
        return constant(fs[0].field) if fs[0].field.modular else real(fs)

    monkeypatch.setattr(fiber, "gcd_forms", faulty)
    texts = ["3*x^3 - x*y^2", "x^2*y + 2*y^3", "x^3 - 5*x*y^2 + y^3"]
    path = tmp_path / "cubic.txt"
    path.write_text("field: rational\nseed: 4\n" + "\n".join(texts) + "\n")
    assert cli.main(["analyze", str(path), "--deterministic"]) == 2
    err = capsys.readouterr().err
    # the message prints the exact image of the first point of the walk, t = 1
    point = apply_map(qq_param(*texts), ProjPoint1.of(QQ, 1, 1))
    assert err == f"computation failed: image point {point} reported off the image\n"


# ---------------------------------------------------------------------------
# the whole report: no exact elimination and no QQ gcd on birational maps


def rational_workload_files(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    paths = []
    for seed in (1, 2, 3):
        for i, cmd in enumerate(workloads.rational(seed)):
            path = tmp_path / f"rational-{seed}-{i}.txt"
            path.write_text(cmd.inst.text())
            paths.append(path)
    return paths


def test_reports_of_birational_maps_run_no_fraction_route(
    tmp_path, capsys, monkeypatch, fraction_work
):
    cases = dense_corpus(QQ, 12, seed=18, n_range=(3, 6), d_max=10)
    for P in cases:
        report = Analysis(P, seed=1).report()
        assert report["r"] == 1
        assert fraction_work == {"rref": [], "gcd": []}, P
    for path in rational_workload_files(tmp_path, monkeypatch):
        assert cli.main(["analyze", str(path), "--deterministic"]) == 0
        assert '"r": 1' in capsys.readouterr().out
        assert fraction_work == {"rref": [], "gcd": []}, path.read_text()
    # the same spy sees the exact routes of a map with r > 1
    Analysis(qq_param("x^2", "y^2"), seed=1).report()
    assert fraction_work["rref"] and fraction_work["gcd"]


def test_rational_quartic_of_degree_48_analyzes_quickly():
    # about 27 s with Fraction ranks, admission, gcds and fibers, about
    # 0.5 s through q on a 2-CPU x86-64 box
    rng = random.Random("modular-wall-clock")
    rows = [[rng.randint(-9, 9) for _ in range(49)] for _ in range(4)]
    start = time.perf_counter()
    P = Parameterization.build(QQ, [form(QQ, row) for row in rows])
    report = Analysis(P, seed=1).report()
    elapsed = time.perf_counter() - start
    assert (report["r"], report["eA"]) == (1, 48)
    assert elapsed < 5.0, f"{elapsed:.2f} s"
