"""Layering rules that keep one implementation of each concern.

Only the field module, the CLI and the package root name PrimeField: every
other module reaches the field through its methods and through
linalg.modulus, so a second, field-specific code path cannot come back
unnoticed.  Only linalg names np_forward_reduce: incremental elimination
goes through linalg.Echelon, not through a hand-written loop elsewhere.
Only fiber names _image_fibers: the map-degree sample is the one seeded
stream of image points, and the reparameterization pair is read off it.
"""

import ast
from pathlib import Path

import curvemap

ALLOWED = {"field.py", "cli.py", "__init__.py"}


def _names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def _users(name):
    src = Path(curvemap.__file__).parent
    return {
        path.name
        for path in sorted(src.glob("*.py"))
        if name in _names(ast.parse(path.read_text()))
    }


def test_prime_field_is_named_only_at_the_edges():
    users = _users("PrimeField")
    assert users <= ALLOWED, sorted(users - ALLOWED)
    assert "field.py" in users


def test_only_linalg_grows_an_echelon():
    assert _users("np_forward_reduce") == {"linalg.py"}


def test_only_fiber_draws_image_points():
    assert _users("_image_fibers") == {"fiber.py"}
