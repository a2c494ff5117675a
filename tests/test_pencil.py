"""The reparameterization pair is the canonical basis of the fiber pencil.

Every fiber of degree r over an image point lies in one pencil span(f1, f2),
which depends only on the map.  The certified pair is the reduced row
echelon basis of that pencil, so it does not depend on the points the
map-degree walk reads, and it equals the reduced basis of the pair a
composed map was built from.
"""

import importlib
import json
import random
from itertools import islice

from curvemap import certify_map_degree, cli, hilbert_burch, parse_form
from test_degree_certificate import composed_map

# the package exports the function fiber under the module's name
fiber = importlib.import_module("curvemap.fiber")

# (n, r, e) of composed maps g(f1, f2) with r > 1
COMPOSED = [(3, 2, 3), (4, 3, 3), (3, 3, 2)]


def reduced_basis(pair):
    """The coefficient rows of the pair in reduced row echelon form, by hand."""
    field = pair[0].field
    rows = [list(f.coeffs) for f in pair]
    lead = 0
    for i in range(len(rows)):
        while not any(row[lead] for row in rows[i:]):
            lead += 1
        k = next(k for k in range(i, len(rows)) if rows[k][lead])
        rows[i], rows[k] = rows[k], rows[i]
        inv = field.inv(rows[i][lead])
        rows[i] = [field.mul(inv, c) for c in rows[i]]
        for k in range(len(rows)):
            if k != i and rows[k][lead]:
                c = rows[k][lead]
                rows[k] = [field.sub(a, field.mul(c, b)) for a, b in zip(rows[k], rows[i])]
    return [tuple(row) for row in rows]


def composed_cases(field):
    rng = random.Random("canonical-pencil")
    return [composed_map(field, rng, n, r, e) for n, r, e in COMPOSED]


def test_pair_is_the_reduced_basis_of_the_construction_pair(any_field, monkeypatch):
    real = fiber._image_fibers
    for P, pair in composed_cases(any_field):
        phi = hilbert_burch(P)
        # the walk as it is, and with its first points passed over
        for skip in (0, 1, 3):

            def later(P, phi, stop, skip=skip):
                yield from islice(real(P, phi, stop + skip), skip, None)

            monkeypatch.setattr(fiber, "_image_fibers", later)
            cert = certify_map_degree(P, phi)
            assert cert.r == pair[0].degree > 1
            assert [f.coeffs for f in cert.pair] == reduced_basis(pair), (P, skip)


def write_instance(tmp_path, field, gens):
    spec = f"prime {field.p}" if field.modular else "rational"
    path = tmp_path / "case.txt"
    path.write_text(f"field: {spec}\n" + "\n".join(gens) + "\n")
    return str(path)


def stdout(capsys, argv):
    assert cli.main(argv) == 0
    return capsys.readouterr().out


def test_reparam_and_core_reports_do_not_depend_on_the_seed(any_field, tmp_path, capsys):
    for P, _ in composed_cases(any_field):
        path = write_instance(tmp_path, any_field, P.gen_strings())
        for command in ("reparam", "core"):
            seen = set()
            for seed in range(1, 6):
                out = stdout(capsys, [command, path, "--deterministic", "--seed", str(seed)])
                assert json.loads(out)["seed"] == seed
                seen.add(out.replace(f'"seed": {seed},', '"seed": null,'))
            assert len(seen) == 1, (P, command)


def test_pair_reads_off_the_generators_of_a_pencil(any_field, tmp_path, capsys):
    # x^3 + y^3 and x*y^2 are themselves a coprime pair of degree 3
    path = write_instance(tmp_path, any_field, ["x^3 + y^3", "x*y^2"])
    for samples in ("1", "7"):
        rep = json.loads(stdout(capsys, ["reparam", path, "--deterministic", "--samples", samples]))
        assert (rep["r"], rep["f1"], rep["f2"]) == (3, "x^3 + y^3", "x*y^2")


def test_too_few_distinct_fibers_within_the_budget_exits_2(field, tmp_path, capsys, monkeypatch):
    # every point lands on the same image point, so one fiber form of degree
    # 2 never becomes a pencil; the walk stops at its bound d^2 + 1 = 17
    path = write_instance(tmp_path, field, ["x^4", "x^2*y^2", "y^4"])
    drawn = []

    def one_point(P, phi, stop):
        g = parse_form(P.field, "x^2 - y^2")
        for _ in range(stop):
            drawn.append(g)
            yield None, g

    monkeypatch.setattr(fiber, "_image_fibers", one_point)
    assert cli.main(["reparam", path, "--deterministic", "--samples", "3"]) == 2
    err = capsys.readouterr().err
    want = "the walk of d^2 + 1 = 17 points (1 : t) proved no map degree"
    assert err == f"computation failed: {want}\n"
    assert len(drawn) == 17
