"""Over QQ, the Hilbert table of A through primes and the column degrees of phi through one.

Each slice rank of the table is taken mod q = DEFAULT_PRIME, and mod more
primes only while it neither meets its upper bound nor is proved by the
Hadamard bound of its coefficient matrix (fiber._slices).  The dims of the
ideal come from one elimination mod q, kept only when every one meets its
bound, and otherwise from the exact generators, by the rule of a prime
field.  Here the tables are compared with sympy's slice ranks
(qq_reference.slice_ranks) and the column degrees with one exact
syzygy._ideal_dims up to top, and each way of missing a bound is forced: a
slice below its bound over QQ (an image on a quadric, a composed map with
unbalanced column degrees), a map that degenerates only mod q, a
denominator divisible by q, generators whose x^d coefficients all vanish
mod q, and primes that drop a rank.  A table whose proof would pass the
budget exits 1 before it is run.
"""

import importlib
import random
import time
from fractions import Fraction
from itertools import islice
from math import comb

import pytest

import qq_reference
from curvemap import (
    DEFAULT_PRIME,
    QQ,
    Analysis,
    CurvemapError,
    Parameterization,
    PrimeField,
    cli,
    dense_corpus,
    form,
    format_form,
    hilbert_burch,
    hilbert_table_a,
    map_degree,
    syzygy,
)
from curvemap.field import reduction_primes
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


def primes(log):
    """The primes of the table's runs, in the order they were started."""
    return [field.p for field, _ in log]


def assert_sympy_table(P, table, top=None):
    """The table (e, hf) lists sympy's slice ranks, up to slice top or all."""
    hf = table[1][: None if top is None else top + 1]
    assert hf[0] == 1 and hf[1:] == qq_reference.slice_ranks(P, len(hf) - 1), P


def first_full(table):
    """The first slice j of the table (e, hf) with HF_A(j) = j e + 1: with e
    given, the last one ranked, the rest being full by theorem."""
    e, hf = table
    return next(j for j in range(1, len(hf)) if hf[j] == j * e + 1)


def hadamard_primes(P, j, e):
    """The 31-bit primes whose product passes the Hadamard bound of slice j."""
    G = syzygy._gens_array(P)
    k = min(comb(j + P.n - 1, P.n - 1), j * e + 1)
    norm = max(sum(map(abs, row)) for row in G.tolist())
    need = j * k * norm.bit_length() + (k * k.bit_length() + 1) // 2
    # (sqrt(k) N^j)^k < 2^need, squared
    assert k**k * norm ** (2 * j * k) < 4**need
    return -(-need // 30)


def exact_counts(P):
    """The column degree counts of phi from one exact elimination up to
    top = d - n + 2, past every column degree: the reference."""
    dims, _ = IDEAL_DIMS(syzygy._gens_array(P), QQ, P.d - P.n + 2)
    return syzygy._counts(dims, P.n)


def qq_param(*rows):
    return Parameterization.build(QQ, [form(QQ, [Fraction(c) for c in row]) for row in rows])


def integer_form(rng, d):
    return form(QQ, [Fraction(rng.randint(-9, 9)) for _ in range(d + 1)])


def quadric_map(rng, k, shift=0):
    """(a c, a c', b c, b c') for random forms of degree k: g1 g4 = g2 g3.

    With a nonzero shift, b = a + shift x^k: mod each prime that divides
    shift, b = a, and the map has only the two generators a c and a c'.
    """
    while True:
        a, b, c, c2 = (integer_form(rng, k) for _ in range(4))
        if shift:
            b = a.add(form(QQ, [Fraction(shift)] + [Fraction(0)] * k))
        try:
            return Parameterization.build(QQ, [a.mul(c), a.mul(c2), b.mul(c), b.mul(c2)])
        except CurvemapError:
            continue


def test_sandwich_matches_exact_route_on_dense_rationals(routes):
    cases = dense_corpus(QQ, 14, seed=12, n_range=(3, 6), d_max=7)
    assert {P.n for P in cases} >= {3, 4, 5, 6}
    for P in cases:
        e = P.d // map_degree(P, hilbert_burch(P))
        for log in routes.values():
            log.clear()
        table = hilbert_table_a(P, e=e)
        counts, _ = syzygy._column_degree_counts(P)
        # dense maps meet every bound: q alone ranks every slice; n = 3 has
        # the closed form of a plane curve
        assert primes(routes["table"]) == ([Q] if P.n >= 4 else []), P
        assert not ran_exact(routes["ideal"]) and ran_mod_q(routes["ideal"]), P
        if P.n >= 4:
            assert_sympy_table(P, table, first_full(table))
        assert counts == exact_counts(P), P


def test_sandwich_matches_exact_route_on_composed_rationals(routes):
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
        # with e the slices of A_j in k[f1, f2]_(je) meet their bound, up to
        # the first full one; without it they miss j*d + 1, and more primes
        # prove them, slower as d grows
        table = hilbert_table_a(P, e=e)
        assert table[0] == e, P
        if n > 3:
            assert_sympy_table(P, table, first_full(table))
        if P.d <= 8:
            assert hilbert_table_a(P) == table, P


def test_image_on_a_quadric_is_proved_past_its_hadamard_bound(routes):
    P = quadric_map(random.Random("sandwich-quadric"), 3)
    a = Analysis(P)
    assert (P.n, P.d, a.e) == (4, 6, 6)
    hf = a.hf_a
    assert hf[2] == 9 < 10
    # every slice from 2 on misses min(C(j+3, 3), j e + 1) mod every prime,
    # so the last one read takes the primes of its Hadamard bound
    assert [hf[j] < min(comb(j + 3, 3), 6 * j + 1) for j in range(1, len(hf))] == [
        False
    ] + [True] * (len(hf) - 2)
    assert len(routes["table"]) == hadamard_primes(P, len(hf) - 1, a.e) > 1
    assert_sympy_table(P, (a.e, hf))
    assert (a.e, hf) == hilbert_table_a(P)


@pytest.mark.parametrize("k", [2, 3])
def test_quadric_tables_match_sympy_with_and_without_e(k):
    P = quadric_map(random.Random(f"sandwich-quadric-{k}"), k)
    table = hilbert_table_a(P, e=P.d)
    assert table == hilbert_table_a(P)
    assert_sympy_table(P, table)


def test_primes_that_drop_a_rank_are_outweighed(routes, monkeypatch):
    # mod the two unlucky primes b = a, so slice j has the rank of the j-fold
    # products of a c and a c': j + 1, below every true rank from slice 1 on.
    # Their ranks are never the largest, so they count toward no proof, and
    # the runs are the unlucky two plus the Hadamard count of the last slice
    unlucky = list(islice(reduction_primes(), 1, 3))
    lucky = (p for p in reduction_primes() if p not in unlucky)
    order = [PrimeField(p) for p in unlucky] + [PrimeField(next(lucky)) for _ in range(2000)]
    P = quadric_map(random.Random("sandwich-unlucky"), 3, shift=unlucky[0] * unlucky[1])
    monkeypatch.setattr(type(QQ), "residue_fields", lambda self: iter(order))
    e, hf = hilbert_table_a(P, e=P.d)
    assert (e, hf[:3]) == (6, [1, 4, 9])
    assert primes(routes["table"])[:2] == unlucky
    assert [values for _, values in routes["table"][:2]] == [len(hf) - 1] * 2
    assert len(routes["table"]) == 2 + hadamard_primes(P, len(hf) - 1, e)
    assert_sympy_table(P, (e, hf))


def test_map_degenerate_only_mod_q_falls_back_to_exact(routes):
    rng = random.Random("sandwich-mod-q")
    rows = [[rng.randint(-9, 9) for _ in range(6)] for _ in range(3)]
    rows.append([rows[2][0] + Q] + rows[2][1:])  # g4 = g3 + q x^5
    P = qq_param(*rows)
    a = Analysis(P)
    report = a.report()
    # mod q, g4 = g3: the first slice has rank 3 < 4 in both eliminations;
    # the table takes one more prime, where every slice meets its bound, and
    # the ideal the exact generators
    assert primes(routes["table"]) == list(islice(reduction_primes(), 2))
    assert [field.modular for field, _ in routes["ideal"]] == [True, False]
    assert ran_exact(routes["ideal"])
    assert_sympy_table(P, (a.e, report["hfA"]))
    assert (a.e, report["hfA"]) == hilbert_table_a(P)
    counts = exact_counts(P)
    assert report["colDegrees"] == [t for t in sorted(counts) for _ in range(counts[t])]


def test_denominator_divisible_by_q_takes_the_exact_route(routes):
    rng = random.Random("sandwich-denominator")
    rows = [[Fraction(rng.randint(-9, 9)) for _ in range(6)] for _ in range(4)]
    rows[1][3] = Fraction(5, Q)
    P = qq_param(*rows)
    assert QQ.reduction([list(g.coeffs) for g in P.gens]) is None
    a = Analysis(P)
    report = a.report()
    assert not ran_mod_q(routes["ideal"]) and ran_exact(routes["ideal"])
    # the table scales the generators to integers by one factor, q times
    # the rest: mod q one entry is left, and the next prime meets the bounds
    assert primes(routes["table"]) == list(islice(reduction_primes(), 2))
    assert_sympy_table(P, (a.e, report["hfA"]))
    assert syzygy._column_degree_counts(P)[0] == exact_counts(P)


def test_no_x_power_mod_q_takes_the_exact_route(routes):
    rng = random.Random("sandwich-leading")
    rows = [[0] + [rng.randint(-9, 9) for _ in range(5)] for _ in range(4)]
    rows[0][0] = 3 * Q  # the only x^5 term, and it vanishes mod q
    P = qq_param(*rows)
    a = Analysis(P)
    hf = a.hf_a
    # mod q every generator is y times a quartic, so slice 2 has at most
    # 9 < min(10, 2e + 1) dims: the rank mod q misses, and the next prime
    # meets it
    assert hf[2] == 10 and primes(routes["table"]) == list(islice(reduction_primes(), 2))
    assert_sympy_table(P, (a.e, hf))
    # mod q every generator is divisible by y, so I_(d+t) misses d+t+1
    assert [field.modular for field, _ in routes["ideal"]] == [True, False]
    assert syzygy._column_degree_counts(P)[0] == exact_counts(P)


def test_a_rational_table_past_the_budget_exits_1(tmp_path, capsys):
    # slice 2 of a quadric map misses its bound; each later slice needs
    # more primes, and at degree 40 the proof of slice 6 would take about
    # 230 primes on passes of 318,852 entries, past MAX_TABLE_ENTRIES
    P = quadric_map(random.Random("budget-quadric"), 20)
    path = tmp_path / "quadric.txt"
    path.write_text("field: rational\n" + "\n".join(map(format_form, P.gens)) + "\n")
    capsys.readouterr()
    start = time.process_time()
    assert cli.main(["analyze", str(path)]) == 1
    elapsed = time.process_time() - start
    err = capsys.readouterr().err
    assert "would prove slice 6 of 4 forms of degree 40 by its Hadamard bound" in err, err
    assert "MAX_TABLE_ENTRIES" in err, err
    assert elapsed < 1.0, f"{elapsed:.2f} s"


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
