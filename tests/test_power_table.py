"""The power table of a certificate's pair against the per-form routes.

PowerTable.express solves all forms of one degree in one row reduction; it
must give, form by form, what one linalg.solve against the products built
for that form alone gives, None for None.  PowerTable.compose must give
BinaryForm.compose.  A table lives in its certificate only, so every
command builds its own.
"""

import random

import pytest

from curvemap import DegreeMismatch, cli, form, format_form, linalg, parse_form
from curvemap.reparam import PowerTable
from test_degree_certificate import composed_map


def solved(h, f1, f2):
    """h in (f1, f2) by one linalg.solve against its own products, or None."""
    field = h.field
    if h.is_zero:
        return form(field, [])
    m = h.degree // f1.degree
    basis = []
    for k in range(m + 1):
        b = form(field, [1])
        for f in [f1] * (m - k) + [f2] * k:
            b = b.mul(f)
        basis.append(b)
    rows = [[b.coeffs[i] for b in basis] for i in range(h.degree + 1)]
    sol = linalg.solve(rows, list(h.coeffs), field)
    return None if sol is None else form(field, sol)


def random_form(field, rng, degree):
    return form(field, [field.rand(rng) for _ in range(degree + 1)])


def test_express_matches_one_solve_per_form(any_field):
    field = any_field
    rng = random.Random("power-table")
    zero = form(field, [])
    for n, r, e in [(3, 2, 3), (3, 3, 2), (4, 2, 4)]:
        P, (f1, f2) = composed_map(field, rng, n, r, e)
        table = PowerTable(f1, f2)
        inside = list(P.gens) + [
            random_form(field, rng, m).compose(f1, f2) for m in (1, 2, 3, 3)
        ]
        outside = [random_form(field, rng, m * r) for m in (1, 2, 2)]
        # a multiple of a form outside the ring: its column is no pivot of
        # the batch, yet it lies outside too
        outside.append(outside[-1].scale(field.conv(3)))
        outside.append(parse_form(field, f"x^{2 * r - 1}*y"))
        batch = inside[:n] + [zero] + outside + inside[n:] + [zero]
        got = table.express(batch)
        assert got == [solved(h, f1, f2) for h in batch], (n, r, e)
        assert None not in got[:n] + got[-5:]
        assert got[n] == got[-1] == zero
        assert got[n + 1 : n + 1 + len(outside)] == [None] * len(outside)
        assert [c.compose(f1, f2) for c in got[:n]] == list(P.gens)
        for c in [random_form(field, rng, m) for m in (1, 2, 4)] + [zero]:
            assert table.compose(c) == c.compose(f1, f2)
        with pytest.raises(DegreeMismatch):
            table.express([random_form(field, rng, r + 1)])


def test_each_command_builds_its_own_table(tmp_path, capsys, monkeypatch, field):
    P, (f1, f2) = composed_map(field, random.Random("table-per-command"), 3, 2, 3)
    path = tmp_path / "composed.txt"
    path.write_text(
        "field: prime 2147483647\n" + "".join(f"{format_form(g)}\n" for g in P.gens)
    )
    built = []
    real = PowerTable.__init__

    def spy(table, g1, g2):
        built.append(g1.degree)
        real(table, g1, g2)

    monkeypatch.setattr(PowerTable, "__init__", spy)
    outs = []
    for _ in range(2):
        assert cli.main(["reparam", str(path), "--deterministic"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    # one table of the pair per command, and one of (x, y) for the
    # birational reparameterization; none is carried from the first command
    assert built == [2, 1, 2, 1]
