"""Output checks computed apart from curvemap, from the report's strings.

Nothing here calls the program: reports are parsed by the benchmark's own
parser, products and gcds are taken with sympy over GF(p) or QQ, and the
maximal minors of phi are evaluated at d + 1 points with the benchmark's own
determinant.  Each check raises CheckFailed with the first violation found.
"""

from __future__ import annotations

from math import comb, gcd

import sympy

import algebra
from workloads import Command, Instance

T = sympy.symbols("t")


class CheckFailed(AssertionError):
    pass


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def _sympy(inst: Instance, f: list) -> sympy.Poly:
    """f(t, 1) over ZZ (a prime field's residues, reduced by _is_zero) or QQ.

    Sums of products of forms, all of one degree, are taken on f(t, 1);
    that loses nothing, since a form of known degree is its f(t, 1).
    """
    if inst.F.p:
        return sympy.Poly([int(c) for c in f] or [0], T, domain="ZZ")
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in f] or [0], T, domain="QQ")


def _is_zero(inst: Instance, poly: sympy.Poly) -> bool:
    if inst.F.p:
        return all(int(c) % inst.F.p == 0 for c in poly.all_coeffs())
    return poly.is_zero


def check_generators(rep: dict, inst: Instance) -> None:
    got = [algebra.parse_form(inst.F, s) for s in rep["generators"]]
    expect(got == [list(g) for g in inst.gens], "generators differ from the instance file")


# ---------------------------------------------------------------------------
# phi: shape, degrees, syzygies, and the signed maximal minors


def _phi_entries(rep: dict, inst: Instance) -> list:
    """Entries as coefficient lists, columns[j][i]; checks shape and column degrees."""
    n = inst.n
    matrix, degrees = rep["phi"]["matrix"], rep["phi"]["colDegrees"]
    expect(rep["colDegrees"] == degrees, "colDegrees differ from phi's")
    expect(len(matrix) == n and all(len(row) == n - 1 for row in matrix), "phi is not n x (n-1)")
    expect(len(degrees) == n - 1 and sum(degrees) == inst.d, "column degrees do not sum to d")
    columns = []
    for j, D in enumerate(degrees):
        col = [algebra.parse_form(inst.F, matrix[i][j]) for i in range(n)]
        expect(any(col), f"column {j} of phi is zero")
        expect(all(len(e) == D + 1 for e in col if e), f"column {j} is not of degree {D}")
        columns.append(col)
    return columns


def check_syzygies(columns: list, inst: Instance) -> None:
    gens = [_sympy(inst, g) for g in inst.gens]
    for j, col in enumerate(columns):
        total = _sympy(inst, [])
        for g, e in zip(gens, col):
            if e:
                total += g * _sympy(inst, e)
        expect(_is_zero(inst, total), f"column {j} of phi is not a syzygy")


def check_minors(columns: list, inst: Instance) -> None:
    """(-1)^i * (minor with row i deleted) = c * g_i for one unit c and every i.

    Both sides are forms of degree d, so agreement at the d + 1 points
    (t : 1), t = 0..d, is equality.
    """
    F, n, d = inst.F, inst.n, inst.d
    unit = None
    for t in map(F, range(d + 1)):
        vals = [[algebra.value_at(F, e, t) if e else F.zero for e in col] for col in columns]
        for i in range(n):
            minor = algebra.det(F, [[vals[j][k] for j in range(n - 1)] for k in range(n) if k != i])
            if i % 2:
                minor = F.sub(F.zero, minor)
            g = algebra.value_at(F, inst.gens[i], t)
            if unit is None and g:
                expect(minor, f"signed minor {i} of phi vanishes where g_{i} does not")
                unit = F.mul(minor, F.inv(g))
            expect(
                minor == (F.mul(unit, g) if unit is not None else F.zero),
                f"signed minor {i} of phi differs from c * g_{i} at t = {t}",
            )


# ---------------------------------------------------------------------------
# analyze reports


def _core_monomials(r: int, e: int) -> set:
    return {(r * a, r * (2 * e - 1 - a)) for a in range(2 * e)}


def _check_core_and_table(rep: dict, inst: Instance, r: int, columns: list) -> None:
    core = rep["core"]
    e = inst.d // r
    gens = [algebra.parse_terms(inst.F, s) for s in core["coreGens"]]
    expect(all(len(g) == 1 and list(g.values()) == [1] for g in gens), "core is not monomial")
    expect({next(iter(g)) for g in gens} == _core_monomials(r, e), "core is not (x^r, y^r)^(2d/r-1)")
    expect(core["equalsMPower"] == (r == 1), "equalsMPower disagrees with r")
    c3 = rep["c3"]
    holds = [row["holds"] for row in c3["rows"]]
    expect(len(holds) == 9 and c3["consistent"], "the c3 table is not consistent")
    expect(all(h == (r == 1) for h in holds[:8]), "c3 statements 1-8 disagree with r")
    expect(holds[8] == (gcd(*rep["colDegrees"]) == 1), "c3 statement 9 disagrees with the column degrees")
    crit = rep["entryDegreeCriterion"]
    entries = [h for col in columns for h in col if h]
    degrees = {len(h) - 1 for h in entries}
    applies = len(degrees) == 1 and sympy.isprime(degrees.pop())
    expect(crit["applies"] == applies, "entry-degree criterion applies wrongly")
    if applies:
        mu = algebra.rank(inst.F, entries)
        expect(crit["mu"] == mu, f"mu = {crit['mu']}, expected {mu}")
        expect(crit["predictsBirational"] == (mu >= 3) == (r == 1), "entry-degree criterion fails")


def _check_invariants(rep: dict, inst: Instance, r: int) -> None:
    d = inst.d
    expect(rep["n"] == inst.n and rep["d"] == d, "n or d misreported")
    expect(rep["r"] == r, f"r = {rep['r']}, expected {r}")
    expect(rep["eA"] == d // r and rep["j"] == d * d, "e(A) or j is wrong")
    expect(rep["birational"] == (r == 1), "birational flag disagrees with r")


def check_dense(rep: dict, cmd: Command) -> None:
    """dense-prime and rational: r = 1, phi certified, hfA shape, core = m^(2d-1)."""
    inst = cmd.inst
    check_generators(rep, inst)
    columns = _phi_entries(rep, inst)
    check_syzygies(columns, inst)
    check_minors(columns, inst)
    _check_invariants(rep, inst, 1)
    hf, e = rep["hfA"], rep["eA"]
    expect(hf[:2] == [1, inst.n] and len(hf) >= 3, "hfA does not start 1, n")
    expect(all(a <= b for a, b in zip(hf, hf[1:])), "hfA decreases")
    expect(hf[-1] - hf[-2] == e, "last difference of hfA is not e(A)")
    if inst.n == 3:
        plane = [comb(j + 2, 2) - (comb(j - e + 2, 2) if j >= e else 0) for j in range(len(hf))]
        expect(hf == plane, "hfA differs from the plane-curve formula")
    _check_core_and_table(rep, inst, 1, columns)


def check_monomial(rep: dict, cmd: Command) -> None:
    """monomial-sweep: gaps, gcd, sumset sizes, minors, and the monomial core."""
    inst = cmd.inst
    exps = inst.meta["exponents"]
    gaps = [b - a for a, b in zip(exps, exps[1:])]
    r = gcd(*gaps)
    check_generators(rep, inst)
    columns = _phi_entries(rep, inst)
    expect(sorted(rep["colDegrees"]) == sorted(gaps), "column degrees are not the gaps")
    check_minors(columns, inst)
    _check_invariants(rep, inst, r)
    sums, sizes = {0}, []
    for _ in rep["hfA"]:
        sizes.append(len(sums))
        sums = {s + a for s in sums for a in exps}
    expect(rep["hfA"] == sizes, "hfA differs from the sumset sizes")
    _check_core_and_table(rep, inst, r, columns)


# ---------------------------------------------------------------------------
# composed maps: reparam, core, fiber


def _check_pair(rep: dict, inst: Instance) -> tuple:
    F, r = inst.F, inst.meta["r"]
    f1, f2 = (algebra.parse_form(F, rep[k]) for k in ("f1", "f2"))
    expect(len(f1) == len(f2) == r + 1, "f1, f2 are not of degree r")
    pencil = algebra.rank(F, [f1, f2, *inst.meta["pair"]])
    expect(pencil == 2 == algebra.rank(F, [f1, f2]), "(f1, f2) spans another pencil")
    return f1, f2


def check_reparam(rep: dict, cmd: Command) -> None:
    inst = cmd.inst
    F, r = inst.F, inst.meta["r"]
    check_generators(rep, inst)
    expect(rep["r"] == r, f"r = {rep['r']}, expected {r}")
    f1, f2 = _check_pair(rep, inst)
    new = [algebra.parse_form(F, s, ("X", "Y")) for s in rep["newGens"]]
    expect(all(len(g) == inst.d // r + 1 for g in new), "new generators are not of degree d/r")
    back = [algebra.compose(F, g, f1, f2) for g in new]
    expect(back == [list(g) for g in inst.gens], "newGens(f1, f2) differ from g")
    expect(all(rep["verification"].values()), f"verification failed: {rep['verification']}")
    expect(sum(rep["rewrittenPhi"]["colDegrees"]) == inst.d // r, "rewritten phi degrees")


def check_core(rep: dict, cmd: Command) -> None:
    inst = cmd.inst
    F, r, d = inst.F, inst.meta["r"], inst.d
    e = d // r
    expect(rep["r"] == r and rep["e"] == e, "r or e misreported")
    f1, f2 = _check_pair(rep, inst)
    gens = [algebra.parse_form(F, s) for s in rep["coreGens"]]
    expect(all(len(g) == 2 * d - r + 1 for g in gens), "core generators are not of degree 2d - r")
    top = 2 * d - r
    s1, s2 = _sympy(inst, f1), _sympy(inst, f2)
    rows = []
    for a in range(2 * e):
        prod = [F(int(c)) for c in (s1**a * s2 ** (2 * e - 1 - a)).all_coeffs()]
        rows.append([F.zero] * (top + 1 - len(prod)) + prod)
    expect(algebra.rank(F, gens) == 2 * e == algebra.rank(F, gens + rows), "core is not (f1, f2)^(2e-1)")
    expect(not rep["equalsMPower"] and not rep["integrallyClosed"]["value"], "core flags wrong for r > 1")


def check_fiber(rep: dict, cmd: Command) -> None:
    inst = cmd.inst
    F, r = inst.F, inst.meta["r"]
    expect(rep["onImage"] is True, "image point reported off the image")
    f = algebra.parse_form(F, rep["fiberForm"])
    expect(len(f) - 1 == rep["fiberDegree"] >= r, "fiber degree is below r or misreported")
    expect(algebra.value_at(F, f, cmd.t) == 0, "fiber form does not vanish at its parameter point")
    gs = [sympy.Poly([int(c) for c in g], T, modulus=F.p) for g in inst.gens]
    p = [int(c) for c in cmd.point]
    g = sympy.Poly(0, T, modulus=F.p)
    for i in range(inst.n):
        for j in range(i + 1, inst.n):
            g = g.gcd(p[i] * gs[j] - p[j] * gs[i])
    got = sympy.Poly([int(c) for c in f], T, modulus=F.p)
    expect(got.monic() == g.monic(), "fiber form differs from the gcd of the 2x2 minors")


CHECKS = {
    ("dense-prime", "analyze"): check_dense,
    ("rational", "analyze"): check_dense,
    ("monomial-sweep", "analyze"): check_monomial,
    ("composed", "reparam"): check_reparam,
    ("composed", "core"): check_core,
    ("composed", "fiber"): check_fiber,
}
