"""Acceptance gate: ten criteria, each a single test with a pinned tolerance.

Corpora: the exhaustive monomial sweep (d <= 12, up to 8 generators), 500
random monomial cases with d <= 40, and 200 random dense cases with
2 <= n <= 6 and n <= d <= 15, all over the default 31-bit prime field.
Every criterion is exact except the two statistical fiber thresholds (95%)
and the two wall-clock budgets (60 s, 120 s), which are stated inline.
"""

import json
import random
import subprocess
import sys
import time

import pytest

from curvemap import (
    Analysis,
    GradedIdeal,
    Parameterization,
    ProjPoint1,
    ProjPointN,
    apply_map,
    dense_corpus,
    exhaustive_monomial,
    fiber,
    gcd_forms,
    ideal_equals,
    j_multiplicity,
    map_degree,
    maximal_ideal_power,
    monomial_corpus,
    multiplicity_a,
    newton_closure,
    oracle_degree,
    parse_form,
    power,
    slice_rank,
    verify_hilbert_burch,
)

SWEEP_D_MAX = 12
RANDOM_MONOMIAL = 500
RANDOM_MONOMIAL_D_MAX = 40
DENSE = 200
CORPUS_SEED = 2026


class Registry:
    """Shared per-case analyses so later criteria reuse earlier work."""

    def __init__(self, field):
        self.field = field
        self._sweep = None
        self._rand = None
        self._dense = None

    def sweep(self):
        if self._sweep is None:
            self._sweep = [
                (M, Analysis(M.parameterization()))
                for M in exhaustive_monomial(self.field, SWEEP_D_MAX)
            ]
        return self._sweep

    def rand(self):
        if self._rand is None:
            self._rand = [
                (M, Analysis(M.parameterization()))
                for M in monomial_corpus(
                    self.field, RANDOM_MONOMIAL, seed=CORPUS_SEED, d_max=RANDOM_MONOMIAL_D_MAX
                )
            ]
        return self._rand

    def dense(self):
        if self._dense is None:
            self._dense = [
                Analysis(P) for P in dense_corpus(self.field, DENSE, seed=CORPUS_SEED)
            ]
        return self._dense

    def full(self):
        monomial = [a for _, a in self.sweep()] + [a for _, a in self.rand()]
        return monomial + self.dense()


@pytest.fixture(scope="module")
def reg(field):
    return Registry(field)


def test_criterion_01_monomial_map_degree_equals_gcd_of_gaps(reg, acceptance_log):
    t0 = time.perf_counter()
    cases = reg.sweep() + reg.rand()
    for M, a in cases:
        assert a.r == oracle_degree(M), M.exponents
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    acceptance_log[1] = (
        f"map degree == gcd of exponent gaps on {len(cases)} monomial cases "
        f"(exhaustive d<={SWEEP_D_MAX} plus {RANDOM_MONOMIAL} random d<="
        f"{RANDOM_MONOMIAL_D_MAX}), exact, {elapsed:.1f}s < 60s"
    )


def test_criterion_02_degree_identity_on_dense_corpus(reg, acceptance_log):
    t0 = time.perf_counter()
    cases = reg.dense()
    for a in cases:
        assert a.r * a.e == a.param.d
        # e(A) from the eliminated Hilbert table, apart from the certified r
        assert a.r * multiplicity_a(a.param) == a.param.d
        assert all(D % a.r == 0 for D in a.phi.col_degrees)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    acceptance_log[2] = (
        f"r * e(A) = d and r | colDegrees on {len(cases)} random dense cases, "
        f"exact, {elapsed:.1f}s < 120s"
    )


def test_criterion_03_j_multiplicity_is_d_squared(reg, acceptance_log):
    cases = reg.dense()
    for a in cases:
        assert a.j == a.param.d ** 2
    # also through the public single-shot entry point
    for a in cases[::50]:
        assert j_multiplicity(a.param, a.phi) == a.param.d ** 2
    acceptance_log[3] = f"j = d^2 on all {len(cases)} dense cases, exact"


def test_criterion_04_hilbert_burch_verifies_on_full_corpus(reg, acceptance_log):
    cases = reg.full()
    for a in cases:
        assert verify_hilbert_burch(a.param, a.phi), a.param
    acceptance_log[4] = (
        f"g*phi = 0, sum colDegrees = d, signed-minor identity with one unit "
        f"on all {len(cases)} corpus cases, exact"
    )


def test_criterion_05_reparameterization_round_trip(reg, acceptance_log):
    cases = reg.full()
    for i, a in enumerate(cases):
        rp = a.reparam
        assert gcd_forms([rp.f1, rp.f2]).degree == 0
        assert rp.f1.degree == a.r and rp.f2.degree == a.r
        assert rp.verification["regularSequence"]
        assert rp.verification["extension"]
        assert rp.verification["newDegreeOne"]
        if i % 41 == 0:
            # recompute the substitution and the new degree from scratch
            composed = [g.compose(rp.f1, rp.f2) for g in rp.new_param.gens]
            assert ideal_equals(
                GradedIdeal.of(a.param.field, composed),
                GradedIdeal.of(a.param.field, list(a.param.gens)),
            )
            assert map_degree(rp.new_param, rp.rewritten_phi) == 1
    acceptance_log[5] = (
        f"gcd(f1,f2) = 1, deg f_i = r, substitution recovers I, new map degree 1 "
        f"on all {len(cases)} corpus cases, exact"
    )


def test_criterion_06_core_closed_form(reg, field, acceptance_log):
    cases = reg.full()
    for i, a in enumerate(cases):
        rep = a.core
        assert rep.equals_m_power == (a.r == 1)
        if i % 59 == 0:
            m_power = maximal_ideal_power(a.param.field, 2 * a.param.d - 1)
            assert ideal_equals(rep.core, m_power) == (a.r == 1)

    cubic = Analysis(
        Parameterization.build(
            field, [parse_form(field, t) for t in ("x^3", "x^2*y", "y^3")]
        )
    )
    assert ideal_equals(cubic.core.core, maximal_ideal_power(field, 5))

    quartic = Analysis(
        Parameterization.build(
            field, [parse_form(field, t) for t in ("x^4", "x^2*y^2", "y^4")]
        )
    )
    want = power(
        GradedIdeal.of(field, [parse_form(field, "x^2"), parse_form(field, "y^2")]), 3
    )
    assert ideal_equals(quartic.core.core, want)
    assert slice_rank(quartic.core.core, 6) == 4
    assert slice_rank(maximal_ideal_power(field, 6), 6) == 7
    acceptance_log[6] = (
        f"core = (f1,f2)^(2d/r-1), equals m^(2d-1) iff r = 1 on all {len(cases)} "
        f"cases; fixed cases (x^3,x^2y,y^3) -> m^5 and (x^4,x^2y^2,y^4) -> "
        f"(x^2,y^2)^3 with degree-6 slice 4 vs 7, exact"
    )


def test_criterion_07_core_integrally_closed_iff_birational(reg, acceptance_log):
    cases = reg.sweep()
    for M, a in cases:
        core = a.core.core
        assert core.is_monomial
        closed = ideal_equals(newton_closure(core), core)
        assert closed == (a.r == 1), M.exponents
    acceptance_log[7] = (
        f"newton_closure(core) = core iff r = 1 on all {len(cases)} exhaustive "
        f"monomial cases (d<={SWEEP_D_MAX}), exact"
    )


def test_criterion_08_fiber_membership_criteria(reg, field, acceptance_log):
    rng = random.Random("acceptance-fiber")
    on_cases = reg.dense()
    equal = 0
    for a in on_cases:
        q = ProjPoint1.of(field, 1, field.rand(rng))
        rep = fiber(a.param, a.phi, apply_map(a.param, q))
        assert rep.on_image
        assert rep.fiber_degree >= a.r
        if rep.fiber_degree == a.r:
            equal += 1
    assert equal >= 0.95 * len(on_cases)

    wide = [a for a in reg.dense() if a.param.n >= 3]
    off = 0
    trials = 0
    while trials < 200:
        a = wide[trials % len(wide)]
        p = ProjPointN.of(field, [field.rand(rng) for _ in range(a.param.n)])
        rep = fiber(a.param, a.phi, p)
        if not rep.on_image:
            off += 1
        trials += 1
    assert off >= 0.95 * trials
    acceptance_log[8] = (
        f"fibers over {len(on_cases)} image points: onImage with degree >= r, "
        f"degree = r in {equal}/{len(on_cases)} (>= 95%); {off}/{trials} random "
        f"points off image (>= 95%)"
    )


def test_criterion_09_prime_entry_degree_criterion(reg, acceptance_log):
    cases = reg.full()
    applicable = 0
    for a in cases:
        got = a.entry_degree_criterion()
        if got["applies"]:
            applicable += 1
            assert got["predictsBirational"] == (got["mu"] >= 3)
            assert got["agrees"], a.param
    assert applicable > 0
    acceptance_log[9] = (
        f"birational iff mu(I_1(phi)) >= 3 on all {applicable} corpus cases "
        f"whose phi entries share one prime degree, exact"
    )


def test_criterion_10_deterministic_reports_are_byte_identical(tmp_path, acceptance_log):
    instance = tmp_path / "instance.txt"
    instance.write_text("field: prime 2147483647\nseed: 5\nx^4\nx^2*y^2\ny^4\n")
    cmd = [
        sys.executable,
        "-m",
        "curvemap",
        "analyze",
        str(instance),
        "--deterministic",
    ]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert first.stdout  # non-empty JSON
    json.loads(first.stdout)
    acceptance_log[10] = (
        "analyze --deterministic with a fixed instance seed: two runs "
        "byte-identical on stdout"
    )
