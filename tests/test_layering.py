"""Layering rules that keep one implementation of each concern.

Only the field module, the CLI and the package root name PrimeField: every
other module reaches the field through its methods and through
linalg.modulus, so a second, field-specific code path cannot come back
unnoticed.  Only linalg names _absorb, the kernel that grows a reduced
echelon by a block of rows: incremental elimination goes through
linalg.Echelon, not through a hand-written loop elsewhere, and Echelon
refuses QQ.
Only linalg names _lifted_kernel, and reduction_primes beside the field
module that defines it: over QQ every kernel, reduced form, rank and
solution is read off the one proved lift from primes, so no caller picks a
route.  A spy on the per-pivot loop, Echelon.add_rows and _absorb shows
that no object array reaches them on the analyses of dense, composed and
quadric QQ maps and the rational benchmark's commands: no Fraction
elimination is left, and the table of A over QQ runs on residues.
Only linalg and fiber name Echelon: the Hilbert table of A is its one
consumer, and the Hilbert function of the ideal is one elimination, so a
second incremental path cannot come back unnoticed.  Only fiber names
_image_fibers: the map-degree walk is the one walk of image points, and the
reparameterization pair is read off it.  Only reparam builds the products
f1^(m-k) f2^k of the pair, on the one power table of a certificate, and
neither reparam nor fiber caches anything in a function: a table lives in
its certificate, so no command reuses another's.  Only the corpora and the selftest
import random: every reported value is proved on fixed points, so a seeded
draw cannot come back onto the analysis path unnoticed.  No module imports
contextvars: what a call needs, such as the echelon hilbert_burch reads its
kernels off, is passed to it, so hidden per-call state cannot come back
unnoticed.  Every name a module imports at its top level is used in it.
"""

import ast
import importlib
import random
from pathlib import Path

import numpy as np
import pytest

import curvemap
from curvemap import QQ, Analysis, cli, dense_corpus, linalg
from test_degree_certificate import composed_map
from test_rational_sandwich import quadric_map

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

ALLOWED = {"field.py", "cli.py", "__init__.py"}


def _names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.alias, ast.ClassDef, ast.FunctionDef)):
            yield node.name


SRC = Path(curvemap.__file__).parent


def _users(name):
    return {
        path.name
        for path in sorted(SRC.glob("*.py"))
        if name in _names(ast.parse(path.read_text()))
    }


def test_prime_field_is_named_only_at_the_edges():
    users = _users("PrimeField")
    assert users <= ALLOWED, sorted(users - ALLOWED)
    assert "field.py" in users


def test_only_linalg_grows_an_echelon():
    assert _users("_absorb") == {"linalg.py"}
    with pytest.raises(ValueError, match="mod p only"):
        linalg.Echelon(3, QQ)


def test_only_linalg_lifts_rational_kernels():
    assert _users("_lifted_kernel") == {"linalg.py"}
    assert _users("reduction_primes") == {"field.py", "linalg.py"}


def test_no_object_array_reaches_the_per_pivot_loop(tmp_path, capsys, monkeypatch):
    dtypes = {"loop": set(), "add_rows": set(), "absorb": set()}
    lifts = [0]
    real_loop, real_lift, real_absorb = linalg._rref_loop, linalg._lifted_kernel, linalg._absorb
    real_add_rows = linalg.Echelon.add_rows

    def loop(a, p):
        dtypes["loop"].add(a.dtype)
        return real_loop(a, p)

    def lift(a):
        lifts[0] += 1
        return real_lift(a)

    def add_rows(self, rows):
        dtypes["add_rows"].add(np.asarray(rows).dtype)
        return real_add_rows(self, rows)

    def absorb(pivots, free, rest, block, p):
        dtypes["absorb"].update((rest.dtype, block.dtype))
        return real_absorb(pivots, free, rest, block, p)

    monkeypatch.setattr(linalg, "_rref_loop", loop)
    monkeypatch.setattr(linalg, "_lifted_kernel", lift)
    monkeypatch.setattr(linalg, "_absorb", absorb)
    monkeypatch.setattr(linalg.Echelon, "add_rows", add_rows)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    rng = random.Random("layering-composed")
    maps = dense_corpus(QQ, 12, seed=13)
    maps += [composed_map(QQ, rng, *triple)[0] for triple in workloads.COMPOSED_LADDER]
    maps += [quadric_map(rng, k) for k in (2, 3)]
    for P in maps:
        Analysis(P, seed=1).report()
    for i, cmd in enumerate(workloads.rational(1)):
        path = tmp_path / f"rational-{i}.txt"
        path.write_text(cmd.inst.text())
        assert cli.main(["analyze", str(path), "--deterministic"]) == 0
    capsys.readouterr()
    # the QQ route ran, and every elimination in a loop or an echelon was
    # on residues
    int64 = {np.dtype(np.int64)}
    assert lifts[0] and dtypes == dict.fromkeys(dtypes, int64), dtypes


def test_only_fiber_draws_image_points():
    assert _users("_image_fibers") == {"fiber.py"}


def test_only_reparam_builds_products_of_the_pair():
    # forms defines BinaryForm.compose, and the selftest checks the table
    # against it
    assert _users("compose") == {"forms.py", "reparam.py", "selftest.py"}
    assert _users("PowerTable") == {"fiber.py", "reparam.py"}
    assert not {"fiber.py", "analysis.py"} & _users("mul")
    cached = _users("cache") | _users("lru_cache")
    assert not {"fiber.py", "reparam.py"} & cached, sorted(cached)


def test_only_the_corpora_and_the_selftest_import_random():
    users = {
        path.name
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and "random" in [getattr(node, "module", None)] + [a.name for a in node.names]
    }
    assert users == {"corpus.py", "selftest.py"}, sorted(users)


def test_only_fiber_uses_the_echelon():
    assert _users("Echelon") == {"linalg.py", "fiber.py"}


def test_no_module_imports_a_name_it_does_not_use():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = [
            (alias.asname or alias.name).split(".")[0]
            for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        ]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in imported if name not in used]
    assert not unused, unused


def test_no_module_keeps_hidden_per_call_state():
    # state a call needs is passed as an argument, never left in a context
    # variable for a callee to find
    users = {
        path.name
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and "contextvars" in [getattr(node, "module", None)] + [a.name for a in node.names]
    }
    assert not users, sorted(users)
