"""The Lueroth certificate for r and the Hilbert table of A built from e = d/r.

hilbert_table_a(P, e=d/r) must give the same list as the plain elimination
hilbert_table_a(P): the closed form for plane curves, the stop at the first
full slice, and tables that never fill all end where the elimination does.
"""

import json
import random
import time

from curvemap import (
    QQ,
    Analysis,
    CurvemapError,
    GradedIdeal,
    Parameterization,
    certify_map_degree,
    cli,
    dense_corpus,
    form,
    format_form,
    hilbert_burch,
    hilbert_table_a,
    ideal_equals,
    map_degree,
    parse_form,
    random_dense,
)
from curvemap import reparam as reparam_module


def dense_map(field, rng, n, d):
    """n random dense forms of degree d (n <= d + 1), rejection-sampled."""
    while True:
        gens = [form(field, [field.rand(rng) for _ in range(d + 1)]) for _ in range(n)]
        try:
            return Parameterization.build(field, gens)
        except CurvemapError:
            continue


def composed_map(field, rng, n, r, e):
    """n random forms of degree e composed with a random coprime pair of degree r."""
    f1, f2 = dense_map(field, rng, 2, r).gens
    inner = dense_map(field, rng, n, e)
    return Parameterization.build(field, [g.compose(f1, f2) for g in inner.gens]), (f1, f2)


def plane_curve_table(e):
    # HF_A(j) = C(j+2,2) - C(j-e+2,2), listed up to j = e + 1, where the
    # first differences have been e three times
    return [
        (j + 2) * (j + 1) // 2 - (max(j - e + 2, 0) * max(j - e + 1, 0) // 2)
        for j in range(e + 2)
    ]


def test_table_from_e_matches_elimination_on_dense_corpus(field):
    cases = dense_corpus(field, 60, seed=3)
    assert {P.n for P in cases} == {2, 3, 4, 5, 6}
    for P in cases:
        r = map_degree(P, hilbert_burch(P))
        assert hilbert_table_a(P, e=P.d // r) == hilbert_table_a(P), P


def test_table_from_e_matches_elimination_over_rationals():
    rng = random.Random("table-from-e-qq")
    for _ in range(8):
        P = random_dense(QQ, rng, n_range=(3, 4), d_max=5)
        r = map_degree(P, hilbert_burch(P))
        assert hilbert_table_a(P, e=P.d // r) == hilbert_table_a(P), P


def test_table_from_e_matches_elimination_on_composed_maps(field):
    rng = random.Random("table-from-e-composed")
    for n, r, e in [(3, 2, 3), (3, 3, 4), (4, 2, 4), (4, 3, 3), (5, 2, 5)]:
        P, _ = composed_map(field, rng, n, r, e)
        assert map_degree(P, hilbert_burch(P)) == r
        assert hilbert_table_a(P, e=e) == hilbert_table_a(P) == (e, hilbert_table_a(P)[1])


def test_plane_curve_closed_form(field):
    rng = random.Random("plane-curve")
    for d in (2, 4, 7, 10):
        P = dense_map(field, rng, 3, d)
        assert hilbert_table_a(P, e=d) == hilbert_table_a(P) == (d, plane_curve_table(d))


def test_table_that_never_fills_keeps_the_elimination_loop(field, build):
    # exponents 0, 2, 5, 7 under x -> x + y: birational (e = 7) but the image
    # is singular, so HF_A(j) stays below 7j + 1 and the table never fills
    x, y = parse_form(field, "x + y"), parse_form(field, "y")
    P = Parameterization.build(
        field, [parse_form(field, f"x^{a}*y^{7 - a}").compose(x, y) for a in (0, 2, 5, 7)]
    )
    assert not P.is_monomial
    want = [1, 4, 9, 16, 25, 32, 39, 46]
    assert hilbert_table_a(P) == (7, want)
    assert hilbert_table_a(P, e=7) == (7, want)
    assert all(h < 7 * j + 1 for j, h in enumerate(want) if j)


def test_composed_maps_certify_r_as_the_inner_degree(field):
    rng = random.Random("lueroth-composed")
    for n, r, e in [(3, 2, 3), (3, 3, 3), (4, 2, 3), (3, 3, 2), (5, 2, 4), (6, 2, 5)]:
        P, (f1, f2) = composed_map(field, rng, n, r, e)
        cert = certify_map_degree(P, hilbert_burch(P), seed=n)
        assert cert.r == r
        # the witness pair spans the same pencil as the one composed with
        assert ideal_equals(
            GradedIdeal.of(field, list(cert.pair)), GradedIdeal.of(field, [f1, f2])
        )
        assert all(c.compose(*cert.pair) == g for c, g in zip(cert.new_gens, P.gens))


def test_birational_certificate_needs_no_pair_search(field, build):
    P = build("x^3 + y^3", "x^2*y", "x*y^2 - y^3")
    cert = certify_map_degree(P, hilbert_burch(P))
    assert cert.r == 1
    assert [format_form(f) for f in cert.pair] == ["x", "y"]
    assert cert.new_gens == P.gens


def test_analysis_hands_its_certificate_to_reparam_and_core(field, monkeypatch):
    P, _ = composed_map(field, random.Random("shared-witness"), 4, 2, 3)
    a = Analysis(P, seed=4)
    cert = a.certificate
    seen = []
    real = reparam_module.express_in_subring

    def spy(h, f1, f2):
        seen.append(h)
        return real(h, f1, f2)

    monkeypatch.setattr(reparam_module, "express_in_subring", spy)
    monkeypatch.setattr(reparam_module, "certify_map_degree", None)
    monkeypatch.setattr(reparam_module, "extract_reparam_basis", None)
    assert (a.reparam.f1, a.reparam.f2) == cert.pair == (a.core.f1, a.core.f2)
    # only the entries of phi are rewritten; the generators come with cert
    assert a.reparam.route == "rewritten"
    assert seen and not any(h in P.gens for h in seen)


def test_bad_pair_from_extraction_exits_2(tmp_path, capsys, monkeypatch, field):
    path = tmp_path / "quartic.txt"
    path.write_text("field: prime 2147483647\nx^4\nx^2*y^2\ny^4\n")
    bad = (parse_form(field, "x^2"), parse_form(field, "x*y + y^2"))
    monkeypatch.setattr("curvemap.reparam.extract_reparam_basis", lambda *a, **k: bad)
    assert cli.main(["analyze", str(path), "--deterministic"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("computation failed:") and "k[" in err


def test_dense_plane_curve_of_degree_100(tmp_path, capsys):
    rng = random.Random("dense-3-100")
    p = 2147483647
    gens = [
        " + ".join(f"{rng.randrange(1, p)}*x^{100 - i}*y^{i}" for i in range(101))
        for _ in range(3)
    ]
    path = tmp_path / "dense.txt"
    path.write_text("field: prime 2147483647\nseed: 3\n" + "\n".join(gens) + "\n")
    t0 = time.perf_counter()
    code = cli.main(["analyze", str(path), "--deterministic"])
    elapsed = time.perf_counter() - t0
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["r"] == 1 and rep["eA"] == 100 and rep["birational"]
    assert rep["hfA"] == plane_curve_table(100)
    assert elapsed < 60.0
