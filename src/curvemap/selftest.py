"""Invariant suite over generated corpora, with pass/fail accounting.

Runs every structural identity the package promises (syzygy verification,
degree and multiplicity identities, reparameterization round-trip, core
closed form, Newton-polygon equivalences) over an exhaustive monomial sweep
plus random monomial and dense corpora.  Sequential on purpose: the corpus
is seed-driven and the first counterexample should be the same one on every
run.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from functools import cache

from . import linalg
from .analysis import Analysis
from .corpus import dense_corpus, exhaustive_monomial, monomial_corpus
from .errors import CurvemapError
from .fiber import apply_map, certify_map_degree, fiber, multiplicity_a
from .forms import ProjPoint1, format_form, monomial
from .ideals import GradedIdeal, ideal_equals, maximal_ideal_power
from .monomial import newton_closure, oracle_degree, oracle_phi
from .reparam import adjoint_of_m_power, core_ideal
from .syzygy import verify_hilbert_burch


@dataclass
class _Tally:
    cases: int = 0
    failed: int = 0


@dataclass
class Summary:
    ok: bool
    cases: int
    checks: int
    failures: int
    tallies: dict
    first_counterexample: dict | None = None


def _anchor_checks(field):
    """Fixed closed-form cases, independent of any corpus."""
    m = maximal_ideal_power

    def adj():
        if adjoint_of_m_power(field, 1).gens[0].degree != 0:
            return "adj(m) is not the unit ideal"
        if not ideal_equals(adjoint_of_m_power(field, 8), m(field, 7)):
            return "adj(m^8) != m^7"
        return None

    def newton_m_powers():
        for t in range(1, 7):
            if not ideal_equals(newton_closure(m(field, t)), m(field, t)):
                return f"closure of m^{t} moved"
        return None

    def newton_hulls():
        j = GradedIdeal.of(
            field,
            [
                monomial(field, 6, 0),
                monomial(field, 6, 2),
                monomial(field, 6, 4),
                monomial(field, 6, 6),
            ],
        )
        if not ideal_equals(newton_closure(j), m(field, 6)):
            return "closure of (x^6, x^4y^2, x^2y^4, y^6) is not m^6"
        j2 = GradedIdeal.of(field, [monomial(field, 2, 0), monomial(field, 2, 2)])
        if not ideal_equals(newton_closure(j2), m(field, 2)):
            return "closure of (x^2, y^2) is not m^2"
        return None

    return [
        ("anchor-adjoint-formula", adj),
        ("anchor-newton-fixes-m-powers", newton_m_powers),
        ("anchor-newton-hull-examples", newton_hulls),
    ]


def _case_checks(P, M, seed, tag):
    """Named invariant thunks for one parameterization.

    M is the monomial description when the case is monomial, else None.
    Each thunk returns None on success or a short failure detail.
    """
    a = Analysis(P)
    field = P.field
    checks = []

    if M is not None:
        checks.append(
            (
                "oracle-phi-verifies",
                lambda: None
                if verify_hilbert_burch(P, oracle_phi(M))
                else "oracle matrix rejected",
            )
        )
        checks.append(
            (
                "map-degree-matches-oracle",
                lambda: None
                if a.r == oracle_degree(M)
                else f"r = {a.r}, oracle gcd = {oracle_degree(M)}",
            )
        )
        checks.append(
            (
                "col-degrees-match-oracle",
                lambda: None
                if sorted(a.phi.col_degrees) == sorted(M.gaps)
                else f"{a.phi.col_degrees} vs gaps {M.gaps}",
            )
        )

    def hb():
        return None if verify_hilbert_burch(P, a.phi) else "matrix rejected"

    def re_identity():
        # e(A) from the eliminated Hilbert table, apart from the certified r
        e = multiplicity_a(P)
        return None if a.r * e == P.d else f"r*e = {a.r}*{e} != d = {P.d}"

    def j_value():
        return None if a.j == P.d**2 else f"j = {a.j} != {P.d**2}"

    def divides():
        bad = [D for D in a.phi.col_degrees if D % a.r]
        return None if not bad else f"r = {a.r} does not divide {bad}"

    def entry_degrees():
        low = [
            h.degree
            for col in a.phi.columns
            for h in col
            if not h.is_zero and h.degree < a.r
        ]
        return None if not low else f"entry degrees {low} below r = {a.r}"

    @cache
    def image_point_fiber():
        rng = random.Random(f"selftest-fiber:{seed}:{tag}")
        q = ProjPoint1.of(field, field.one, field.rand(rng))
        return fiber(P, a.phi, apply_map(P, q))

    def image_fiber():
        rep = image_point_fiber()
        if not rep.on_image:
            return f"image point {rep.point} reported off image"
        if rep.fiber_degree < a.r:
            return f"fiber degree {rep.fiber_degree} below r = {a.r}"
        return None

    def reparam_flags():
        v = a.reparam.verification
        bad = [k for k, ok in v.items() if not ok]
        return None if not bad else f"verification failed: {', '.join(bad)}"

    def core_vs_m_power():
        want = a.r == 1
        got = a.core.equals_m_power
        return None if got == want else f"equalsMPower = {got} with r = {a.r}"

    def core_closure():
        if a.core.closure_provenance != "computed-monomial":
            return None
        want = a.r == 1
        got = a.core.integrally_closed
        return None if got == want else f"integrallyClosed = {got} with r = {a.r}"

    def newton_idempotent():
        if not a.core.core.is_monomial:
            return None
        closed = newton_closure(a.core.core)
        if not ideal_equals(newton_closure(closed), closed):
            return "closure is not idempotent"
        # monomial containment: every generator sits above a closure corner
        corners = [(g.degree - g.y_order, g.y_order) for g in closed.gens]
        for g in a.core.core.gens:
            u, v = g.degree - g.y_order, g.y_order
            if not any(u >= cu and v >= cv for cu, cv in corners):
                return "closure does not contain the ideal"
        return None

    def core_pullback():
        rp = a.reparam
        inner_cert = certify_map_degree(rp.new_param, rp.rewritten_phi)
        inner = core_ideal(rp.new_param, inner_cert)
        pulled = GradedIdeal.of(
            field, [g.compose(*a.certificate.pair) for g in inner.core.gens]
        )
        if ideal_equals(pulled, a.core.core):
            return None
        return "substituted core of the reparameterization differs"

    def fiber_in_pencil():
        # a fiber of degree r lies in span(f1, f2), however the pair was found
        g = image_point_fiber().fiber_form
        if g.degree != a.r:
            return None
        rank = linalg.rank([list(f.coeffs) for f in (g, *a.certificate.pair)], field)
        return None if rank == 2 else f"fiber {format_form(g)} spans rank {rank} with (f1, f2)"

    checks += [
        ("hilbert-burch-verifies", hb),
        ("degree-times-multiplicity", re_identity),
        ("j-is-d-squared", j_value),
        ("r-divides-col-degrees", divides),
        ("entry-degrees-at-least-r", entry_degrees),
        ("image-point-fiber", image_fiber),
        ("reparam-verification", reparam_flags),
        ("core-equals-m-power-iff-birational", core_vs_m_power),
        ("core-closure-iff-birational", core_closure),
        ("newton-idempotent-on-core", newton_idempotent),
        ("core-pullback-match", core_pullback),
        ("fiber-in-pencil", fiber_in_pencil),
    ]
    return checks


def run_selftest(field, d_max=8, corpus_size=25, seed=0, stream=None) -> Summary:
    stream = stream if stream is not None else sys.stdout

    def write(line=""):
        print(line, file=stream)

    sweep = exhaustive_monomial(field, d_max)
    randm = monomial_corpus(field, corpus_size, seed=seed)
    dense = dense_corpus(field, corpus_size, seed=seed)

    write(f"self-test: field {field.json_config()}, seed {seed}")
    write(
        f"corpora: exhaustive monomial d <= {d_max}: {len(sweep)} cases; "
        f"random monomial d <= 40: {len(randm)}; random dense: {len(dense)}"
    )

    tallies: dict = {}
    first = None
    checks_run = 0
    failures = 0

    def run_one(name, thunk, case_desc):
        nonlocal first, checks_run, failures
        tally = tallies.setdefault(name, _Tally())
        tally.cases += 1
        checks_run += 1
        try:
            detail = thunk()
        except CurvemapError as exc:
            detail = f"{type(exc).__name__}: {exc}"
        if detail is not None:
            tally.failed += 1
            failures += 1
            if first is None:
                first = {"invariant": name, "case": case_desc, "detail": detail}

    for name, thunk in _anchor_checks(field):
        run_one(name, thunk, "fixed anchor")

    cases = [(M.parameterization(), M) for M in sweep]
    cases += [(M.parameterization(), M) for M in randm]
    cases += [(P, None) for P in dense]

    for idx, (P, M) in enumerate(cases):
        desc = "(" + ", ".join(P.gen_strings()) + ")"
        for name, thunk in _case_checks(P, M, seed, idx):
            run_one(name, thunk, desc)

    write()
    width = max(len(name) for name in tallies)
    write(f"{'invariant'.ljust(width)}  {'cases':>6}  {'failed':>6}")
    for name, tally in tallies.items():
        write(f"{name.ljust(width)}  {tally.cases:>6}  {tally.failed:>6}")
    write()
    if first is not None:
        write("first counterexample:")
        write(f"  invariant: {first['invariant']}")
        write(f"  case: {first['case']}")
        write(f"  detail: {first['detail']}")
        write()
    total_cases = len(cases)
    if failures:
        write(f"self-test FAILED: {failures} of {checks_run} checks failed")
    else:
        write(
            f"self-test passed: {checks_run} checks across {total_cases} cases"
        )
    return Summary(
        ok=failures == 0,
        cases=total_cases,
        checks=checks_run,
        failures=failures,
        tallies=tallies,
        first_counterexample=first,
    )
