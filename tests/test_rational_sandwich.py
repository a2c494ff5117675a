"""Over QQ, the Hilbert table of A and the column degrees of phi through one prime.

Each slice rank of the table is first taken mod q = DEFAULT_PRIME and kept
only while it meets its upper bound; from the first miss on the exact
elimination, fraction-free on integer rows, takes over.  The dims of the ideal come from one
elimination mod q, kept only when every one meets its bound, and otherwise
from the exact generators, by the rule of a prime field.  Here both routes
are compared with the exact references fiber._slices and one exact
syzygy._ideal_dims up to top, and each way of falling back is forced: a
slice below its bound over QQ (an image on a quadric, a composed map with
unbalanced column degrees), a map that degenerates only mod q, a
denominator divisible by q and generators whose x^d coefficients all
vanish mod q.
"""

import importlib
import random
import time
from fractions import Fraction

import pytest

from curvemap import (
    DEFAULT_PRIME,
    QQ,
    Analysis,
    CurvemapError,
    Parameterization,
    dense_corpus,
    form,
    hilbert_burch,
    hilbert_table_a,
    map_degree,
    syzygy,
)
from test_degree_certificate import composed_map

# the package exports the function fiber under the module's name
fiber = importlib.import_module("curvemap.fiber")
Q = DEFAULT_PRIME
IDEAL_DIMS = syzygy._ideal_dims


@pytest.fixture
def routes(monkeypatch):
    """Every elimination started, per stage: [field, values it gave]."""
    calls = {"table": [], "ideal": []}
    original = fiber._image_ranks

    def table_spy(G, field):
        record = [field, 0]
        calls["table"].append(record)
        for value in original(G, field):
            record[1] += 1
            yield value

    def ideal_spy(G, field, top):
        dims, echelon = IDEAL_DIMS(G, field, top)
        calls["ideal"].append([field, len(dims)])
        return dims, echelon

    monkeypatch.setattr(fiber, "_image_ranks", table_spy)
    monkeypatch.setattr(syzygy, "_ideal_dims", ideal_spy)
    return calls


def ran_exact(log):
    return any(field == QQ and values for field, values in log)


def ran_mod_q(log):
    return any(field.modular for field, _ in log)


def exact_table(P, e, monkeypatch):
    """hilbert_table_a(P, e) with every slice from fiber._slices."""
    with monkeypatch.context() as m:
        m.setattr(fiber, "_sandwich", lambda P, bounds: fiber._slices(P))
        return hilbert_table_a(P, e=e)


def exact_counts(P):
    """The column degree counts of phi from one exact elimination up to
    top = d - n + 2, past every column degree: the reference."""
    dims, _ = IDEAL_DIMS(syzygy._gens_array(P), QQ, P.d - P.n + 2)
    return syzygy._counts(dims, P.n)


def qq_param(*rows):
    return Parameterization.build(QQ, [form(QQ, [Fraction(c) for c in row]) for row in rows])


def integer_form(rng, d):
    return form(QQ, [Fraction(rng.randint(-9, 9)) for _ in range(d + 1)])


def quadric_map(rng, k):
    """(a c, a c', b c, b c') for random forms of degree k: g1 g4 = g2 g3."""
    while True:
        a, b, c, c2 = (integer_form(rng, k) for _ in range(4))
        try:
            return Parameterization.build(QQ, [a.mul(c), a.mul(c2), b.mul(c), b.mul(c2)])
        except CurvemapError:
            continue


def test_sandwich_matches_exact_route_on_dense_rationals(routes, monkeypatch):
    cases = dense_corpus(QQ, 14, seed=12, n_range=(3, 6), d_max=7)
    assert {P.n for P in cases} >= {3, 4, 5, 6}
    for P in cases:
        e = P.d // map_degree(P, hilbert_burch(P))
        for log in routes.values():
            log.clear()
        table = hilbert_table_a(P, e=e)
        counts, _ = syzygy._column_degree_counts(P)
        # dense maps meet every bound: all of it came mod q
        assert not ran_exact(routes["table"]) and not ran_exact(routes["ideal"]), P
        assert ran_mod_q(routes["table"]) == (P.n >= 4) and ran_mod_q(routes["ideal"]), P
        assert table == exact_table(P, e, monkeypatch), P
        assert counts == exact_counts(P), P


def test_sandwich_matches_exact_route_on_composed_rationals(routes, monkeypatch):
    rng = random.Random("sandwich-composed")
    # n - 1 does not divide e, so the column degrees, r times those of the
    # inner map, are unbalanced: some dim I_(d+t) misses min(n (t+1), d+t+1)
    for n, r, e in [(3, 2, 3), (4, 2, 4), (4, 3, 4), (5, 2, 5)]:
        P, _ = composed_map(QQ, rng, n, r, e)
        routes["ideal"].clear()
        counts, _ = syzygy._column_degree_counts(P)
        assert ran_exact(routes["ideal"]), P
        assert counts == exact_counts(P), P
        assert all(t % r == 0 for t in counts), P
        assert map_degree(P, hilbert_burch(P)) == r
        assert hilbert_table_a(P, e=e) == exact_table(P, e, monkeypatch), P


def test_image_on_a_quadric_falls_back_to_exact(routes, monkeypatch):
    P = quadric_map(random.Random("sandwich-quadric"), 3)
    a = Analysis(P)
    assert (P.n, P.d, a.e) == (4, 6, 6)
    hf = a.hf_a
    assert hf[2] == 9 < 10
    # the modular route ran, missed min(10, 2e + 1) at j = 2, and handed over
    assert ran_mod_q(routes["table"]) and ran_exact(routes["table"])
    assert (a.e, hf) == exact_table(P, a.e, monkeypatch) == hilbert_table_a(P)


def test_map_degenerate_only_mod_q_falls_back_to_exact(routes, monkeypatch):
    rng = random.Random("sandwich-mod-q")
    rows = [[rng.randint(-9, 9) for _ in range(6)] for _ in range(3)]
    rows.append([rows[2][0] + Q] + rows[2][1:])  # g4 = g3 + q x^5
    P = qq_param(*rows)
    a = Analysis(P)
    report = a.report()
    # mod q, g4 = g3: the first slice has rank 3 < 4 in both eliminations
    assert routes["table"][0][0].modular and routes["ideal"][0][0].modular
    assert [field.modular for field, _ in routes["ideal"]] == [True, False]
    assert ran_exact(routes["table"]) and ran_exact(routes["ideal"])
    assert (a.e, report["hfA"]) == exact_table(P, a.e, monkeypatch) == hilbert_table_a(P)
    counts = exact_counts(P)
    assert report["colDegrees"] == [t for t in sorted(counts) for _ in range(counts[t])]


def test_denominator_divisible_by_q_takes_the_exact_route(routes, monkeypatch):
    rng = random.Random("sandwich-denominator")
    rows = [[Fraction(rng.randint(-9, 9)) for _ in range(6)] for _ in range(4)]
    rows[1][3] = Fraction(5, Q)
    P = qq_param(*rows)
    assert QQ.reduction([list(g.coeffs) for g in P.gens]) is None
    a = Analysis(P)
    report = a.report()
    assert not ran_mod_q(routes["table"]) and not ran_mod_q(routes["ideal"])
    assert ran_exact(routes["table"]) and ran_exact(routes["ideal"])
    assert (a.e, report["hfA"]) == exact_table(P, a.e, monkeypatch)
    assert syzygy._column_degree_counts(P)[0] == exact_counts(P)


def test_no_x_power_mod_q_takes_the_exact_route(routes, monkeypatch):
    rng = random.Random("sandwich-leading")
    rows = [[0] + [rng.randint(-9, 9) for _ in range(5)] for _ in range(4)]
    rows[0][0] = 3 * Q  # the only x^5 term, and it vanishes mod q
    P = qq_param(*rows)
    a = Analysis(P)
    hf = a.hf_a
    # mod q every generator is y times a quartic, so slice 2 has at most
    # 9 < min(10, 2e + 1) dims: the second rank mod q misses and hands over
    mod_q = [values for field, values in routes["table"] if field.modular]
    assert mod_q == [2] and hf[2] == 10 and ran_exact(routes["table"])
    assert (a.e, hf) == exact_table(P, a.e, monkeypatch)
    # mod q every generator is divisible by y, so I_(d+t) misses d+t+1
    assert [field.modular for field, _ in routes["ideal"]] == [True, False]
    assert syzygy._column_degree_counts(P)[0] == exact_counts(P)


def test_rational_quartic_of_degree_16_analyzes_quickly():
    # about 42 s by exact elimination of the table, under 0.5 s through q
    rng = random.Random("sandwich-wall-clock")
    P = qq_param(*[[rng.randint(-9, 9) for _ in range(17)] for _ in range(4)])
    start = time.perf_counter()
    report = Analysis(P, seed=1).report()
    elapsed = time.perf_counter() - start
    assert (report["r"], report["eA"]) == (1, 16)
    assert report["hfA"][1:4] == [4, 10, 20]
    assert elapsed < 10.0, f"{elapsed:.1f} s"
