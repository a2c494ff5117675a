"""The core on exponent pairs against the form route it replaced.

reference_core below is the route core_ideal took for every pair before
monomial pairs moved to exponent pairs: the products f1^(m-k) f2^k, then
GradedIdeal.of, then slice equality with m^(2d-1) and with the Newton
closure.  Every report and every core ideal must match it, in order.

An independent oracle checks the paper's statement about multiplier
ideals: J(I^2) = m^(2d-1) for every monomial map, and the core equals
J(I^2) exactly when the map is birational.  The oracle reads membership in
J(I^2) off the interior of the Newton polyhedron of I^2 (Howald, Trans.
AMS 2001) with its own arithmetic and shares no helper with curvemap.
"""

import random
import sys
from pathlib import Path
from types import FunctionType

import pytest

from curvemap import (
    QQ,
    Analysis,
    GradedIdeal,
    Parameterization,
    certify_map_degree,
    constant,
    core_ideal,
    dense_corpus,
    exhaustive_monomial,
    format_form,
    hilbert_burch,
    ideal_equals,
    maximal_ideal_power,
    monomial,
    newton_closure,
    random_dense,
)
from curvemap import cli, forms, linalg
from curvemap.forms import BinaryForm

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import composed  # noqa: E402

SWEEP_D_MAX = 10


def reference_core(P, cert):
    """(core ideal, to_json() dict) by the form route."""
    field = P.field
    r, (f1, f2) = cert.r, cert.pair
    e = P.d // r
    m = 2 * e - 1
    pow1, pow2 = [constant(field)], [constant(field)]
    for _ in range(m):
        pow1.append(pow1[-1].mul(f1))
        pow2.append(pow2[-1].mul(f2))
    core = GradedIdeal.of(field, [pow1[m - k].mul(pow2[k]) for k in range(m + 1)])
    equals = ideal_equals(core, maximal_ideal_power(field, 2 * P.d - 1))
    if core.is_monomial:
        closed = ideal_equals(newton_closure(core), core)
        provenance = "computed-monomial"
    else:
        closed = r == 1
        provenance = "derived-by-theorem"
    report = {
        "r": r,
        "e": e,
        "f1": format_form(f1),
        "f2": format_form(f2),
        "coreGens": core.gen_strings(),
        "equalsMPower": equals,
        "integrallyClosed": {"value": closed, "provenance": provenance},
        "canonical": f"f1^2 t (f1,f2)^{e - 1} R((f1,f2)^{e})",
    }
    return core, report


def certified(P):
    return certify_map_degree(P, hilbert_burch(P))


def assert_matches_reference(P):
    cert = certified(P)
    rep = core_ideal(P, cert)
    want_core, want = reference_core(P, cert)
    assert rep.to_json() == want, [format_form(g) for g in P.gens]
    assert rep.core.gens == want_core.gens
    return rep


@pytest.fixture(scope="module")
def sweep(field):
    """(exponents, analysis) of every monomial map with d <= SWEEP_D_MAX."""
    return [
        (M.exponents, Analysis(M.parameterization()))
        for M in exhaustive_monomial(field, SWEEP_D_MAX, n_max=SWEEP_D_MAX + 1)
    ]


def test_every_monomial_map_matches_the_form_route(sweep):
    assert len(sweep) == 2**SWEEP_D_MAX - 1
    for exps, a in sweep:
        rep = a.core
        assert rep.closure_provenance == "computed-monomial", exps
        want_core, want = reference_core(a.param, a.certificate)
        assert rep.to_json() == want, exps
        assert rep.to_json(("X", "Y"))["coreGens"] == want_core.gen_strings(("X", "Y"))
        assert rep.core.gens == want_core.gens, exps


@pytest.mark.parametrize("kind", ["prime", "rational"])
def test_dense_corpus_matches_the_form_route(field, kind):
    k = field if kind == "prime" else QQ
    for P in dense_corpus(k, 12, seed=22, d_max=10):
        assert_matches_reference(P)


@pytest.mark.parametrize("kind", ["prime", "rational"])
@pytest.mark.parametrize("r", [2, 3])
def test_dense_maps_in_a_monomial_subring_take_the_exponent_route(field, kind, r):
    # g(x^r, y^r) for dense g: a monomial pair with dense generators
    k = field if kind == "prime" else QQ
    xr, yr = monomial(k, r, 0), monomial(k, r, r)
    rng = random.Random(f"monomial-subring:{kind}:{r}")
    for _ in range(6):
        inner = random_dense(k, rng, n_range=(3, 4), d_max=5)
        P = Parameterization.build(k, [g.compose(xr, yr) for g in inner.gens])
        rep = assert_matches_reference(P)
        assert [format_form(f) for f in (rep.f1, rep.f2)] == [f"x^{r}", f"y^{r}"]
        assert rep.closure_provenance == "computed-monomial"
        assert not rep.integrally_closed and not rep.equals_m_power


def test_composed_instances_keep_the_form_route():
    for seed in (1, 2, 3):
        done = set()
        for cmd in composed(seed):
            if cmd.inst.name in done:
                continue
            done.add(cmd.inst.name)
            P = cli.parse_instance(cmd.inst.text())[2]
            rep = assert_matches_reference(P)
            assert rep.closure_provenance == "derived-by-theorem"
            assert not rep.core.is_monomial


def test_edge_cases(field, build):
    rep = assert_matches_reference(build("x", "y"))
    assert rep.to_json()["coreGens"] == ["x", "y"]
    assert rep.equals_m_power and rep.integrally_closed
    for d in (2, 3, 7):
        rep = assert_matches_reference(build(f"x^{d}", f"y^{d}"))
        assert (rep.r, rep.e) == (d, 1)
        assert rep.to_json()["coreGens"] == [f"x^{d}", f"y^{d}"]
        assert not rep.equals_m_power and not rep.integrally_closed


# ---------------------------------------------------------------------------
# Howald's multiplier ideal, on exponent pairs only


def _least_weights(points):
    """[(t, h)]: the weights (1-t, t), t = num/den in [0, 1], where
    min over points of (1-t)*u + t*v can change slope, with den*min as h."""
    ts = {(0, 1), (1, 1)}
    pts = sorted(set(points))
    for i, (u1, v1) in enumerate(pts):
        for u2, v2 in pts[i + 1 :]:
            # (1-t)u1 + t v1 = (1-t)u2 + t v2
            num, den = u2 - u1, (v1 - u1) - (v2 - u2)
            if den < 0:
                num, den = -num, -den
            if den and 0 <= num <= den:
                ts.add((num, den))
    return [(t, min(u * (t[1] - t[0]) + v * t[0] for u, v in pts)) for t in ts]


def _in_interior(u, v, weights):
    # (u, v) lies in the interior of conv(points) + the positive orthant iff
    # every nonnegative weight puts it strictly above the points' minimum; the
    # gap is convex in t, so the slope changes and the ends suffice
    return all(u * (den - num) + v * num > h for (num, den), h in weights)


def multiplier_ideal_staircase(points, top):
    """Minimal (u, v) with x^u y^v in J(a), where a has exponent pairs points:
    (u + 1, v + 1) must lie in the interior of Newt(a) (Howald)."""
    weights = _least_weights(points)
    out = []
    for u in range(top + 1):
        v = next((v for v in range(top + 1) if _in_interior(u + 1, v + 1, weights)), None)
        if v is not None and (not out or v < out[-1][1]):
            out.append((u, v))
    return out


def _minimal(pairs):
    """The pairs that no other pair is below in both entries, sorted."""
    pairs = set(pairs)
    return sorted(
        p for p in pairs if not any(q != p and q[0] <= p[0] and q[1] <= p[1] for q in pairs)
    )


def test_howald_oracle_on_known_ideals():
    # J(m^t) = m^(t-1); (x^2, y^3) has threshold 5/6 < 1, so J((x^2, y^3))
    # = (x, y), and J((x^2, y^3)^2) is cut out by (u+1)/4 + (v+1)/6 > 1
    for t in range(1, 6):
        assert multiplier_ideal_staircase([(t - i, i) for i in range(t + 1)], 3 * t) == [
            (i, t - 1 - i) for i in range(t)
        ]
    assert multiplier_ideal_staircase([(2, 0), (0, 3)], 8) == [(0, 1), (1, 0)]
    assert multiplier_ideal_staircase([(4, 0), (2, 3), (0, 6)], 12) == [
        (0, 4),
        (1, 3),
        (2, 1),
        (3, 0),
    ]


def test_core_is_the_multiplier_ideal_of_the_square_iff_birational(sweep):
    for exps, a in sweep:
        d = exps[-1]
        # x^a y^(d-a) for each exponent a; I^2 has the pairwise sums
        square = [(a1 + a2, 2 * d - a1 - a2) for a1 in exps for a2 in exps]
        j = multiplier_ideal_staircase(square, 2 * d + 1)
        assert j == [(i, 2 * d - 1 - i) for i in range(2 * d)], exps
        core = _minimal([(g.degree - g.y_order, g.y_order) for g in a.core.core.gens])
        assert (core == j) == (a.r == 1), exps


# ---------------------------------------------------------------------------
# the exponent route makes no form product, no slice rank and no dense text


def _rebind_everywhere(monkeypatch, original, replacement):
    for name, module in list(sys.modules.items()):
        if name == "curvemap" or name.startswith("curvemap."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


@pytest.mark.parametrize(
    "texts",
    [("x^6", "x^3*y^3", "y^6"), ("x^2 + y^2", "x*y", "x^2 - x*y"), ("x^5", "x^2*y^3", "y^5")],
)
def test_exponent_route_touches_no_form_arithmetic(field, build, monkeypatch, texts):
    P = build(*texts)
    cert = certified(P)
    calls = []

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for name in ("mul", "monic"):
        monkeypatch.setattr(BinaryForm, name, spy(name, getattr(BinaryForm, name)))
    _rebind_everywhere(monkeypatch, forms.format_form, spy("format_form", forms.format_form))
    for name, fn in list(vars(linalg).items()):
        if isinstance(fn, FunctionType) and fn.__module__ == linalg.__name__:
            _rebind_everywhere(monkeypatch, fn, spy(f"linalg.{name}", fn))
    rep = core_ideal(P, cert)
    js = rep.to_json()
    assert calls == []
    assert "core" not in vars(rep)
    monkeypatch.undo()

    want_core, want = reference_core(P, cert)
    assert js == want
    assert ideal_equals(rep.core, want_core)
