"""Only the field module, the CLI and the package root name PrimeField.

Every other module reaches the field through its methods and through
linalg.modulus, so a second, field-specific code path cannot come back
unnoticed.
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


def test_prime_field_is_named_only_at_the_edges():
    src = Path(curvemap.__file__).parent
    users = {
        path.name
        for path in sorted(src.glob("*.py"))
        if "PrimeField" in _names(ast.parse(path.read_text()))
    }
    assert users <= ALLOWED, sorted(users - ALLOWED)
    assert "field.py" in users
