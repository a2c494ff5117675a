import random
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import qq_reference
from curvemap import (
    DEFAULT_PRIME,
    CertificationFailed,
    CurvemapError,
    Parameterization,
    QQ,
    SyzygyMatrix,
    cli,
    dense_corpus,
    form,
    hilbert_burch,
    parse_form,
    verify_hilbert_burch,
)
from curvemap import linalg, syzygy
from curvemap.corpus import exhaustive_monomial
from curvemap.forms import monomial
from curvemap.linalg import Echelon, modulus, np_kernel, np_rref, to_np
from curvemap.syzygy import syzygies_in_degree
from test_degree_certificate import composed_map, dense_map
from test_rational_phi import rational_map


def frozen_cases():
    return [
        # (generators, column degrees, matrix rows as printed)
        (("x^2", "x*y", "y^2"), (1, 1), [["y", "0"], ["-x", "y"], ["0", "-x"]]),
        (("x^3", "x^2*y", "y^3"), (1, 2), [["y", "0"], ["-x", "y^2"], ["0", "-x^2"]]),
        (
            ("x^4", "x^2*y^2", "y^4"),
            (2, 2),
            [["y^2", "0"], ["-x^2", "y^2"], ["0", "-x^2"]],
        ),
        (("x", "y"), (1,), [["y"], ["-x"]]),
    ]


def test_hilbert_burch_frozen_matrices(field, build):
    for texts, degrees, rows in frozen_cases():
        phi = hilbert_burch(build(*texts))
        assert phi.col_degrees == degrees
        assert phi.matrix_strings() == rows


def test_hilbert_burch_shape_and_conventions(field, build):
    P = build("x^5", "x^3*y^2 + x*y^4", "x*y^4 - y^5", "y^5")
    phi = hilbert_burch(P)
    assert phi.n == P.n and len(phi.columns) == P.n - 1
    assert sum(phi.col_degrees) == P.d
    assert list(phi.col_degrees) == sorted(phi.col_degrees)
    for col, D in zip(phi.columns, phi.col_degrees):
        lead = next(e for e in col if not e.is_zero)
        assert next(c for c in lead.coeffs if c != field.zero) == field.one
        assert all(e.is_zero or e.degree == D for e in col)
    assert verify_hilbert_burch(P, phi)


def test_columns_are_syzygies(field, build):
    P = build("x^4", "x^3*y - y^4", "x*y^3")
    phi = hilbert_burch(P)
    for col in phi.columns:
        acc = form(field, [])
        for g, e in zip(P.gens, col):
            if not e.is_zero:
                acc = acc.add(g.mul(e)) if not acc.is_zero else g.mul(e)
        assert acc.is_zero
    assert verify_hilbert_burch(P, phi)


def test_syzygies_in_degree_dimension(field, build):
    # for (x^2, xy, y^2) the syzygy module is generated in degree 1 only
    P = build("x^2", "x*y", "y^2")
    assert len(syzygies_in_degree(P, 0)) == 0
    assert len(syzygies_in_degree(P, 1)) == 2


def test_verify_rejects_perturbations(field, build):
    P = build("x^3", "x^2*y", "y^3")
    phi = hilbert_burch(P)
    # break one entry: no longer a syzygy
    bad_col = list(phi.columns[0])
    bad_col[0] = parse_form(field, "x")
    broken = SyzygyMatrix(field, phi.n, phi.col_degrees, (tuple(bad_col), phi.columns[1]))
    assert not verify_hilbert_burch(P, broken)
    # a syzygy matrix of the wrong map
    other = hilbert_burch(build("x^3", "x*y^2", "y^3"))
    assert not verify_hilbert_burch(P, other)


def test_verify_rejects_nonminimal_degrees(field, build):
    P = build("x^2", "x*y", "y^2")
    phi = hilbert_burch(P)
    # scale a column by x: columns still syzygies, degrees no longer sum to d
    col = tuple(e.mul(parse_form(field, "x")) for e in phi.columns[0])
    padded = SyzygyMatrix(field, phi.n, (2, 1), (col, phi.columns[1]))
    assert not verify_hilbert_burch(P, padded)


def test_verify_accepts_column_swap(field, build):
    # swapping columns flips every minor sign, absorbed by the global unit
    P = build("x^4", "x^2*y^2", "y^4")
    phi = hilbert_burch(P)
    swapped = SyzygyMatrix(
        field, phi.n, (phi.col_degrees[1], phi.col_degrees[0]), (phi.columns[1], phi.columns[0])
    )
    assert verify_hilbert_burch(P, swapped)


def test_hilbert_burch_over_rationals(build):
    P = build("x^3", "x^2*y", "y^3", f=QQ)
    phi = hilbert_burch(P)
    assert phi.col_degrees == (1, 2)
    assert verify_hilbert_burch(P, phi)


def test_hilbert_burch_dense_random(field):
    rng = random.Random("syzygy-dense")
    for _ in range(5):
        while True:
            gens = [form(field, [rng.randrange(field.p) for _ in range(6)]) for _ in range(4)]
            try:
                P = Parameterization.build(field, gens)
                break
            except Exception:
                continue
        phi = hilbert_burch(P)
        assert sum(phi.col_degrees) == P.d
        assert verify_hilbert_burch(P, phi)


def test_n_equals_two_column_degree_is_d(field, build):
    P = build("x^7", "y^7")
    phi = hilbert_burch(P)
    assert phi.col_degrees == (7,)
    assert verify_hilbert_burch(P, phi)


# ---------------------------------------------------------------------------
# the array-based syzygy layer against direct references


def slice_dim(P, t):
    """dim I_(d+t), from one fresh elimination of every x^(t-k) y^k g_i."""
    zero = P.field.zero
    rows = [[zero] * k + list(g.coeffs) + [zero] * (t - k) for g in P.gens for k in range(t + 1)]
    return len(np_rref(to_np(rows, P.field), modulus(P.field))[1])


def reference_counts(P):
    """The column degree counts of phi, from direct ranks of every slice up to d."""
    n, d = P.n, P.d
    dims = [n] + [slice_dim(P, t) for t in range(1, d + 1)]
    syz = [n * (t + 1) - dims[t] for t in range(d + 1)]
    return {
        t: c
        for t in range(1, d + 1)
        if (c := syz[t] - 2 * syz[t - 1] + (syz[t - 2] if t >= 2 else 0))
    }


def reference_kernel(P, t):
    """The reduced kernel of M by elimination mod p, or by sympy over QQ,
    whatever route syzygies_in_degree takes."""
    m = syzygy._multiplication_matrix(syzygy._gens_array(P), t)
    return np_kernel(m, modulus(P.field)) if P.field.modular else qq_reference.kernel(m)


class SympySpan:
    """Echelon.add_rows over QQ for the reference admission: the rank of
    every row added so far, by sympy (Echelon works mod p only)."""

    def __init__(self):
        self.rows, self.rank = [], 0

    def add_rows(self, rows):
        self.rows += rows
        rank = len(qq_reference.rref(to_np(self.rows, QQ))[1])
        added, self.rank = rank - self.rank, rank
        return added


def reference_hilbert_burch(P):
    """hilbert_burch with column degrees from direct ranks and one-by-one admission.

    Monomial kernels come from elimination (reference_kernel), so the closed
    form and the spanning-forest admission are both checked against it.
    """
    field, n = P.field, P.n
    counts = reference_counts(P)
    kernel = reference_kernel if P.is_monomial else syzygies_in_degree
    accepted = []
    for t in sorted(counts):
        ech = Echelon(n * (t + 1), field) if field.modular else SympySpan()
        for D, vec in accepted:
            comps = [vec[i * (D + 1) : (i + 1) * (D + 1)] for i in range(n)]
            for k in range(t - D + 1):
                ech.add_rows(
                    [[c for comp in comps for c in [0] * k + comp + [0] * (t - D - k)]]
                )
        got = 0
        for vec in kernel(P, t).tolist():
            if got < counts[t] and ech.add_rows([vec]) == 1:
                accepted.append((t, vec))
                got += 1
        assert got == counts[t]
    columns = []
    for D, vec in accepted:
        c = field.inv(field.conv(next(v for v in vec if v)))
        scaled = [field.mul(c, field.conv(v)) for v in vec]
        columns.append(
            tuple(form(field, scaled[i * (D + 1) : (i + 1) * (D + 1)]) for i in range(n))
        )
    return SyzygyMatrix(field, n, tuple(D for D, _ in accepted), tuple(columns))


def test_ideal_dims_match_direct_ranks(field):
    cases = dense_corpus(field, 24, seed=5, d_max=12) + dense_corpus(QQ, 10, seed=5, d_max=7)
    assert {P.n for P in cases if P.field == field} == {P.n for P in cases if P.field == QQ}
    assert {P.n for P in cases} == {2, 3, 4, 5, 6}
    for P in cases:
        top = P.d - P.n + 2
        dims, _ = syzygy._ideal_dims(syzygy._gens_array(P), P.field, top)
        assert dims == [slice_dim(P, t) for t in range(top + 1)], P


def test_column_degrees_of_unbalanced_composed_maps(field):
    # n - 1 does not divide e, so the inner column degrees differ, and
    # composing with a pair of degree r multiplies each of them by r
    rng = random.Random("syzygy-unbalanced")
    for k in (field, QQ):
        for n, r, e, degrees in [(3, 2, 5, {4, 6}), (3, 2, 3, {2, 4}), (4, 2, 4, {2, 4})]:
            P = composed_map(k, rng, n, r, e)[0]
            counts, _ = syzygy._column_degree_counts(P)
            assert set(counts) == degrees, P
            assert counts == reference_counts(P), P


def test_sylvester_case_of_degree_200_is_quick(field):
    # n = 2 is the widest matrix of _ideal_dims, top = d; on a 2-CPU x86-64
    # box a growing echelon of the slices of I took 0.7-0.9 s, one
    # elimination takes about 0.25 s
    rng = random.Random("syzygy-sylvester")
    P = Parameterization.build(
        field, [form(field, [field.rand(rng) for _ in range(201)]) for _ in range(2)]
    )
    start = time.perf_counter()
    phi = hilbert_burch(P)
    elapsed = time.perf_counter() - start
    assert phi.col_degrees == (200,)
    assert elapsed < 2.0, f"{elapsed:.2f} s"


def scaled_monomial_maps(field, rng, count):
    """Monomial maps with random non-unit coefficients, generators in shuffled order."""
    values = [Fraction(-2, 7), Fraction(3), Fraction(-5, 2), Fraction(9, 4), Fraction(-1)]
    maps = []
    for M in rng.sample(exhaustive_monomial(field, 9), count):
        gens = list(M.parameterization().gens)
        rng.shuffle(gens)
        coef = [
            rng.choice(values) if field == QQ else rng.randrange(2, field.p) for _ in gens
        ]
        maps.append(
            Parameterization.build(
                field, [monomial(field, M.d, g.y_order, c) for g, c in zip(gens, coef)]
            )
        )
    return maps


def test_hilbert_burch_matches_one_by_one_admission(field):
    cases = dense_corpus(field, 20, seed=6, d_max=12) + dense_corpus(QQ, 6, seed=6, d_max=6)
    rng = random.Random("syzygy-composed")
    for n, r, e in [(3, 2, 3), (4, 2, 3), (3, 3, 2), (4, 3, 3), (5, 2, 4)]:
        cases.append(composed_map(field, rng, n, r, e)[0])
    # monomial input takes the closed-form kernels and the spanning-forest
    # admission: the whole sweep d <= 8, and scaled maps over both fields
    cases += [M.parameterization() for M in exhaustive_monomial(field, 8)]
    rng = random.Random("syzygy-monomial")
    cases += scaled_monomial_maps(field, rng, 40) + scaled_monomial_maps(QQ, rng, 20)
    for P in cases:
        if P.is_monomial:
            for t in range(P.d + 1):
                k, ref = syzygies_in_degree(P, t), reference_kernel(P, t)
                assert k.dtype == ref.dtype and k.shape == ref.shape, (P, t)
                assert (k == ref).all(), (P, t)
        assert hilbert_burch(P) == reference_hilbert_burch(P), P


def sparse_maps(rng, count):
    """Non-monomial QQ maps with coefficients -1, 0 and 1, most of them 0."""
    maps = []
    while len(maps) < count:
        n = rng.randint(3, 5)
        d = rng.randint(n, 8)
        gens = [form(QQ, [rng.choice([-1, 0, 0, 0, 1]) for _ in range(d + 1)]) for _ in range(n)]
        try:
            P = Parameterization.build(QQ, gens)
        except CurvemapError:
            continue
        if not P.is_monomial and len(syzygy._column_degree_counts(P)[0]) > 1:
            maps.append(P)
    return maps


def test_rational_admission_off_the_kernel_prefix_matches_one_by_one_admission(
    build, monkeypatch
):
    # over QQ the first need kernel vectors are admitted at once when they
    # and the multiples of the accepted columns are independent mod q; a
    # sparse map often admits later ones, and a denominator divisible by q
    # proves nothing, so both go through the exact elimination
    ranks = []
    real = linalg.rank_mod_q

    def spy(rows, field):
        r = real(rows, field)
        ranks.append(None if r is None else r == len(rows))
        return r

    monkeypatch.setattr(linalg, "rank_mod_q", spy)
    q = DEFAULT_PRIME
    cases = sparse_maps(random.Random("syzygy-sparse"), 12)
    cases += [
        build(f"x^5 + 1/{q}*x^2*y^3", "x^4*y", "y^5", f=QQ),
        build("x^5", f"x^4*y + 1/{q}*x*y^4", "y^5 + x^3*y^2", f=QQ),
    ]
    for P in cases:
        assert hilbert_burch(P) == reference_hilbert_burch(P), P
    assert set(ranks) == {True, False, None}


def test_syzygies_in_degree_rows_are_syzygies(field, build):
    P = build("x^4", "x^3*y - y^4", "x*y^3")
    kv = syzygies_in_degree(P, 2)
    assert kv.shape == (9 - slice_dim(P, 2), 9)
    for vec in kv.tolist():
        acc = form(field, [])
        for i, g in enumerate(P.gens):
            acc = acc.add(g.mul(form(field, vec[3 * i : 3 * i + 3])))
        assert acc.is_zero


# ---------------------------------------------------------------------------
# column degrees and kernels read off one truncated echelon form

IDEAL_DIMS = syzygy._ideal_dims


def unbalanced_maps(field, composed=((3, 3), (4, 4), (3, 5), (5, 6))):
    """Maps whose largest column degree is above ceil(d / (n-1)): degrees
    (3, 6), (3, 3, 6), (6, 9) and (3, 3, 6, 6) from the composed (n, e),
    then (1, 1, 10); last the balanced (2, 3) of the spy test below."""
    rng = random.Random("syzygy-widening")
    maps = [composed_map(field, rng, n, 3, e)[0] for n, e in composed]
    for texts in [
        ("x^12", "x^11*y", "x^10*y^2", "y^12 + x*y^11"),
        ("x^5", "x^4*y + y^5", "y^5 + x*y^4"),
    ]:
        maps.append(Parameterization.build(field, [parse_form(field, s) for s in texts]))
    return maps


def full_width_counts(P):
    """The column degree counts from one elimination up to top = d - n + 2."""
    top = P.d - P.n + 2
    return syzygy._counts(IDEAL_DIMS(syzygy._gens_array(P), P.field, top)[0], P.n)


def rule_widths(P, counts):
    """The widths the column-degree rule eliminates at, and the degrees
    (with multiplicity) above the first: T = ceil(d / (n-1)), and one more
    width when two or more degrees pass T."""
    T = -(-P.d // (P.n - 1))
    above = sorted(t for t in counts.elements() if t > T)
    if len(above) < 2:
        return [T], above
    rest = P.d - sum(t for t in counts.elements() if t <= T)
    return [T, rest - (len(above) - 1) * (T + 1)], above


@pytest.fixture
def read_off(monkeypatch):
    """Every width _ideal_dims eliminates at, every _read_off call as (the
    echelon's modulus, t, result), and the modulus and width of every
    np_kernel call: over QQ (modulus None) a kernel lifted from primes."""
    log = {"widths": [], "kernels": [], "np_kernel": []}
    real_read, real_kernel = syzygy._read_off, linalg.np_kernel

    def dims(G, field, top):
        log["widths"].append((modulus(field), top))
        return IDEAL_DIMS(G, field, top)

    def read(echelon, n, t):
        k = real_read(echelon, n, t)
        log["kernels"].append((echelon[0], t, k))
        return k

    def kernel(a, p):
        log["np_kernel"].append((p, a.shape[1]))
        return real_kernel(a, p)

    monkeypatch.setattr(syzygy, "_ideal_dims", dims)
    monkeypatch.setattr(syzygy, "_read_off", read)
    monkeypatch.setattr(linalg, "np_kernel", kernel)
    return log


def assert_read_off_kernels(P, log):
    """Every kernel read off an echelon of P's field equals the reduced
    kernel of its own matrix, by elimination mod p or by sympy over QQ,
    dtype and all; returns them as (modulus, t, kernel)."""
    read = [(p, t, k) for p, t, k in log["kernels"] if k is not None]
    for p, t, k in read:
        assert p == modulus(P.field), (P, t)
        ref = reference_kernel(P, t)
        assert k.dtype == ref.dtype and k.shape == ref.shape, (P, t)
        assert (k == ref).all(), (P, t)
    return read


def test_one_truncated_echelon_gives_phi_over_a_prime_field(field, read_off):
    # every kernel up to T = ceil(d / (n-1)) is read off the echelon of the
    # column degrees; one missing column needs no more elimination, its
    # degree is what the others leave of d, and np_kernel gives its kernel;
    # two or more take one more elimination, wide enough for all of them
    rng = random.Random("syzygy-large")
    cases = [dense_map(field, rng, n, d) for n, d in [(6, 60), (8, 80), (4, 100)]]
    routes = Counter()
    for P in cases + unbalanced_maps(field):
        counts = Counter(full_width_counts(P))
        for log in read_off.values():
            log.clear()
        phi = hilbert_burch(P)
        assert Counter(phi.col_degrees) == counts, P
        assert verify_hilbert_burch(P, phi)
        widths, above = rule_widths(P, counts)
        kernels = [(field.p, P.n * (above[0] + 1))] if len(above) == 1 else []
        if len(above) > 1:
            assert above[-1] <= widths[-1] < P.d - P.n + 2, P
        routes[len(above)] += 1
        assert read_off["widths"] == [(field.p, w) for w in widths], P
        assert read_off["np_kernel"] == kernels, P
        read = assert_read_off_kernels(P, read_off)
        # every degree but the one np_kernel gives is read off the echelon
        past = set(above) if kernels else set()
        want = [(field.p, t) for t in sorted(set(counts) - past)]
        assert [(p, t) for p, t, _ in read] == want, P
    assert routes == {0: 4, 1: 4, 2: 1}, routes


def test_balanced_rational_kernels_are_lifted_not_read_off_mod_q(read_off):
    # dims mod q that all meet their bounds give balanced column degrees,
    # all found at ceil(d / (n-1)); that echelon is not over QQ, so each
    # kernel is lifted from primes (np_kernel over QQ).  An unbalanced map
    # misses a bound, and the exact generators take the rule of a prime
    # field, its kernels read off the exact echelon
    rng = random.Random("syzygy-read-off-qq")
    cases = [rational_map(rng, n, d, 9) for n, d in [(3, 7), (4, 12), (5, 16), (4, 20)]]
    unbalanced = 0
    # the larger composed maps take the same exact route, only slower
    for P in cases + unbalanced_maps(QQ, composed=((3, 3), (4, 4))):
        counts = Counter(full_width_counts(P))
        for log in read_off.values():
            log.clear()
        phi = hilbert_burch(P)
        assert Counter(phi.col_degrees) == counts, P
        first = -(-P.d // (P.n - 1))
        read = assert_read_off_kernels(P, read_off)
        if max(counts) == first:
            assert read_off["widths"] == [(DEFAULT_PRIME, first)], P
            assert not read, P
            want = [(None, P.n * (t + 1)) for t in sorted(counts)]
            assert read_off["np_kernel"] == want, P
        else:
            widths, _ = rule_widths(P, counts)
            exact = [(None, w) for w in widths]
            assert read_off["widths"] == [(DEFAULT_PRIME, first)] + exact, P
            assert read and {p for p, _, _ in read} == {None}, P
            unbalanced += 1
    assert unbalanced == 3


def test_rational_exact_route_takes_the_rule_of_a_prime_field(build, read_off):
    # when a dim mod q misses its bound, or q divides a denominator, the
    # exact generators are eliminated at T, one missing degree is derived
    # and two or more widen once, as over F_p; every kernel up to the last
    # width is read off that exact echelon, and only a degree past it is
    # lifted from primes
    rng = random.Random("syzygy-exact-route")
    # column degrees (3, 3, 6, 6), (6, 9) and (2, 4, 4)
    cases = [composed_map(QQ, rng, n, r, e)[0] for n, r, e in [(5, 3, 6), (3, 3, 5), (4, 2, 5)]]
    cases += sparse_maps(random.Random("syzygy-sparse"), 12)
    q = DEFAULT_PRIME
    cases += [
        build(f"x^5 + 1/{q}*x^2*y^3", "x^4*y", "y^5", f=QQ),
        build("x^5", f"x^4*y + 1/{q}*x*y^4", "y^5 + x^3*y^2", f=QQ),
    ]
    routes = Counter()
    for P in cases:
        counts = Counter(full_width_counts(P))
        for log in read_off.values():
            log.clear()
        phi = hilbert_burch(P)
        assert Counter(phi.col_degrees) == counts, P
        assert verify_hilbert_burch(P, phi), P
        widths, above = rule_widths(P, counts)
        mod_q = [(q, widths[0])] if QQ.reduction([list(g.coeffs) for g in P.gens]) else []
        read = assert_read_off_kernels(P, read_off)
        if mod_q and max(counts) - min(counts) <= 1:
            # balanced: the dims mod q meet every bound, and every kernel is
            # lifted from primes
            assert read_off["widths"] == mod_q and not read, P
            assert read_off["np_kernel"] == [(None, P.n * (t + 1)) for t in sorted(counts)], P
            routes["mod q"] += 1
            continue
        assert read_off["widths"] == mod_q + [(None, w) for w in widths], P
        assert {p for p, _, _ in read} == {None}, P
        assert [t for _, t, _ in read] == [t for t in sorted(counts) if t <= widths[-1]], P
        lifted = [(None, P.n * (t + 1)) for t in sorted(counts) if t > widths[-1]]
        assert read_off["np_kernel"] == lifted, P
        routes[min(len(above), 2), bool(mod_q)] += 1
    assert set(routes) == {"mod q", (0, True), (1, True), (2, True), (0, False)}, routes


# ---------------------------------------------------------------------------
# the certificate on the production path


def test_corrupted_column_exits_2(tmp_path, capsys, monkeypatch):
    path = tmp_path / "twisted-cubic.txt"
    path.write_text("field: prime 2147483647\nx^3\nx^2*y\nx*y^2\ny^3\n")
    real = syzygy.syzygies_in_degree

    def corrupted(P, t, *rest):
        kv = real(P, t, *rest)
        kv[0, -1] = (kv[0, -1] + 1) % P.field.p
        return kv

    monkeypatch.setattr(syzygy, "syzygies_in_degree", corrupted)
    assert cli.main(["analyze", str(path), "--deterministic"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("computation failed:") and "not a syzygy" in err


@pytest.mark.parametrize("fault", ["value", "extra entry"])
def test_corrupted_admitted_column_exits_2(tmp_path, capsys, monkeypatch, fault):
    # column degrees 1 and 4: the degree-4 kernel passes admission against
    # the shifts of the degree-1 column, and its last row is the one admitted
    path = tmp_path / "gap-four.txt"
    path.write_text("field: prime 2147483647\nx^5\nx^4*y\ny^5\n")
    real = syzygy.syzygies_in_degree

    def corrupted(P, t, *rest):
        kv = real(P, t, *rest)
        if t == 4:
            if fault == "value":
                # the ends stay where they were
                last = np.flatnonzero(kv[-1])[-1]
                kv[-1, last] = (kv[-1, last] + 1) % P.field.p
            else:
                # a third nonzero before the first end
                kv[-1, 0] = 1
        return kv

    monkeypatch.setattr(syzygy, "syzygies_in_degree", corrupted)
    assert cli.main(["analyze", str(path), "--deterministic"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("computation failed:") and "not a syzygy" in err


@pytest.mark.parametrize("mode", ["prime 2147483647", "rational"])
def test_corrupted_kernel_of_a_dense_map_exits_2(tmp_path, capsys, monkeypatch, mode):
    # column degrees 2 and 3: the first degree-2 kernel row is admitted, and
    # one more unit in its first entry adds x^2 g_1, which is no syzygy
    path = tmp_path / "not-monomial.txt"
    path.write_text(f"field: {mode}\nx^5\nx^4*y + y^5\ny^5 + x*y^4\n")
    real = syzygy.syzygies_in_degree

    def corrupted(P, t, *rest):
        kv = real(P, t, *rest)
        if t == 2:
            kv[0, 0] = P.field.add(kv[0, 0], P.field.one)
        return kv

    monkeypatch.setattr(syzygy, "syzygies_in_degree", corrupted)
    assert cli.main(["analyze", str(path), "--deterministic"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("computation failed:") and "column 1" in err and "not a syzygy" in err


@pytest.fixture
def elimination_calls(monkeypatch):
    """np_kernel and np_rref calls, each as (name, inside _certify)."""
    log, depth = [], []
    for name in ("np_kernel", "np_rref"):
        real = getattr(linalg, name)

        def spy(*args, _real=real, _name=name):
            log.append((_name, bool(depth)))
            return _real(*args)

        monkeypatch.setattr(linalg, name, spy)
    real_certify = syzygy._certify

    def certify(*args):
        depth.append(1)
        try:
            return real_certify(*args)
        finally:
            depth.pop()

    monkeypatch.setattr(syzygy, "_certify", certify)
    return log


def test_monomial_hilbert_burch_eliminates_only_to_certify(field, build, elimination_calls):
    cases = [build("x^5", "x^4*y", "y^5"), build("x^7", "x^4*y^3", "x^2*y^5", "y^7")]
    cases += [build("x^6", "x^5*y", "x*y^5", "y^6", f=QQ)]
    cases += scaled_monomial_maps(field, random.Random("syzygy-spy"), 10)
    admitted = 0
    for P in cases:
        elimination_calls.clear()
        phi = hilbert_burch(P)
        assert all(name == "np_rref" and inside for name, inside in elimination_calls), P
        # a second column degree goes through admission
        admitted += len(set(phi.col_degrees)) > 1
    assert admitted >= 3
    # on a map that is not monomial the same spy sees eliminations, but no
    # np_kernel: every kernel is read off the echelon of the column degrees
    elimination_calls.clear()
    hilbert_burch(build("x^5", "x^4*y + y^5", "y^5 + x*y^4"))
    assert ("np_kernel", False) not in elimination_calls
    assert ("np_rref", False) in elimination_calls


def test_is_monomial_is_computed_once(build):
    P = build("x^3", "x*y^2", "y^3")
    assert "is_monomial" not in vars(P)
    assert P.is_monomial and vars(P)["is_monomial"] is True
    assert P == build("x^3", "x*y^2", "y^3") and hash(P) == hash(build("x^3", "x*y^2", "y^3"))


def test_rank_deficient_phi_fails_certification(build, monkeypatch):
    # two proportional syzygies of degree 2: each column checks out, the
    # degrees sum to d, but phi has rank 1 everywhere
    P = build("x^4", "x^2*y^2", "y^4")
    real = syzygy.syzygies_in_degree

    def doubled(P, t, *rest):
        kv = real(P, t, *rest)
        kv[1] = kv[0] * 2 % P.field.p
        return kv

    monkeypatch.setattr(syzygy, "syzygies_in_degree", doubled)
    with pytest.raises(CertificationFailed, match="rank below 2"):
        hilbert_burch(P)


def test_wrong_column_degrees_fail_certification(build, monkeypatch):
    P = build("x^2", "x*y", "y^2")
    monkeypatch.setattr(syzygy, "_column_degree_counts", lambda P: ({1: 1, 2: 1}, None))
    with pytest.raises(CertificationFailed, match="summing to d = 2"):
        hilbert_burch(P)
