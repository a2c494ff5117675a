"""The Hilbert table of A on monomial layers, against the route it replaced.

fiber._ranks_at_points grows slice j+1 by the monomials of degree j+1 in
the generators other than h, on values padded by powers of h, and takes
products of the new rows once those are fewer.  The reference here is the
earlier route: the held echelon is rescaled by h at every step, and every
row new in slice j is multiplied by every other generator.  Both must give
the same tables, with and without e, over F_p and over QQ, on the dense
corpus, on every dense-prime benchmark instance, and on an image that is
not of maximal rank.  The size budget MAX_TABLE_ENTRIES is checked before
anything is evaluated.
"""

import importlib
import random
import sys
import tracemalloc
from math import comb
from pathlib import Path

import numpy as np
import pytest

from curvemap import (
    QQ,
    CurvemapError,
    InstanceError,
    Parameterization,
    PrimeField,
    cli,
    dense_corpus,
    form,
    format_form,
    hilbert_table_a,
    parse_form,
)
from curvemap import linalg
from curvemap.linalg import modulus, np_rref

# the package exports the function fiber under the module's name
fiber = importlib.import_module("curvemap.fiber")

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import dense_prime  # noqa: E402

FP = PrimeField(2147483647)


def forward_reduce(c, h, pivots, p):
    """Clear, in place, the columns pivots[t] of c with the echelon rows h,
    h[t] leading at pivots[t] and not necessarily monic: one rank-1 update
    per pivot, mod p."""
    for t, col in enumerate(pivots):
        nz = np.flatnonzero(c[:, col])
        if nz.size:
            f = c[nz, col] * pow(int(h[t, col]), -1, p) % p
            c[nz] = (c[nz] - np.outer(f, h[t])) % p


def reference_ranks_at_points(G, field, hrow, J):
    """HF(1), ..., HF(J) by the earlier route, on the same J*d + 1 points.

    A_(j+1) = h * A_j + sum of g_i * new_j: the held rows are rescaled by the
    values of h, which keeps every pivot, and the rows new in A_j are
    multiplied by every other generator.  The held rows are echelon rows,
    not reduced; each block is cleared against them one pivot at a time.
    Over QQ the table runs it mod each prime it takes.
    """
    p = modulus(field)
    V = fiber._values_at_points(G, hrow, J * (G.shape[1] - 1) + 1, field)
    h, others = V[hrow], np.delete(V, hrow, axis=0)
    held, pivots, new = V[:0], [], None
    for _ in range(J):
        block = V if new is None else (others[:, None, :] * new).reshape(-1, V.shape[1])
        block = block % p
        forward_reduce(block, held, pivots, p)
        red, piv = np_rref(block, p)
        new = red[: len(piv)]
        held, pivots = linalg._merge(held, pivots, new, piv)
        yield len(pivots)
        held = held * h % p


def tables(P, e, monkeypatch):
    """hilbert_table_a(P, e) on the new route and on the reference."""
    got = hilbert_table_a(P, e)
    with monkeypatch.context() as m:
        m.setattr(fiber, "_ranks_at_points", reference_ranks_at_points)
        want = hilbert_table_a(P, e)
    return got, want


def assert_same_tables(P, monkeypatch):
    """The tables agree without e, and with the e the table gives."""
    got, want = tables(P, None, monkeypatch)
    assert got == want, P
    got_e, want_e = tables(P, want[0], monkeypatch)
    assert got_e == want_e, P


def test_monomial_layers_match_the_reference_on_the_dense_corpus(monkeypatch):
    cases = dense_corpus(FP, 24, seed=21, d_max=12) + dense_corpus(
        QQ, 8, seed=26, n_range=(2, 5), d_max=5
    )
    assert {P.n for P in cases if P.field == QQ} >= {2, 3, 4, 5}
    for P in cases:
        assert_same_tables(P, monkeypatch)


def dense_prime_maps(seed):
    for cmd in dense_prime(seed):
        lines = cmd.inst.text().splitlines()[2:]
        yield Parameterization.build(FP, [parse_form(FP, line) for line in lines])


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_monomial_layers_match_the_reference_on_dense_prime(seed, monkeypatch):
    maps = list(dense_prime_maps(seed))
    assert {P.n for P in maps} == {3, 4, 5, 6}
    for P in maps:
        assert_same_tables(P, monkeypatch)


def integer_form(F, rng, d):
    return form(F, [F.conv(rng.randint(-9, 9)) for _ in range(d + 1)])


def segre_map(F, rng, k):
    """(a c, a c', b c, b c') for random linear a, b and c, c' of degree k."""
    while True:
        a, b = (integer_form(F, rng, 1) for _ in range(2))
        c, c2 = (integer_form(F, rng, k) for _ in range(2))
        try:
            return Parameterization.build(F, [a.mul(c), a.mul(c2), b.mul(c), b.mul(c2)])
        except CurvemapError:
            continue


@pytest.mark.parametrize("F", [FP, QQ], ids=["prime", "rational"])
def test_an_image_on_a_quadric_switches_to_products(F, monkeypatch):
    # the image lies on x0 x3 = x1 x2, so HF(2) = 10 - 1; it is not of
    # maximal rank, and past its first full slice only e rows are new per
    # degree, fewer than the monomial layers: the products take over
    blocks = []
    add_rows = linalg.Echelon.add_rows

    def spy(self, rows):
        added = add_rows(self, rows)
        blocks.append((self, len(rows), added))
        return added

    monkeypatch.setattr(linalg.Echelon, "add_rows", spy)
    rng = random.Random(f"segre:{F}")
    for k in (4, 5) if F.modular else (4,):
        P = segre_map(F, rng, k)
        blocks.clear()
        e, hf = hilbert_table_a(P)
        assert hf[2] == 9 and e == P.d
        # the last pass: slice 1, monomial layers of C(j+2, 2), then products
        last = [(rows, added) for ech, rows, added in blocks if ech is blocks[-1][0]]
        layers = [comb(j + 2, 2) for j in range(2, len(last) + 1)]
        switch = next((i for i in range(1, len(last)) if last[i][0] != layers[i - 1]), None)
        assert switch is not None and switch > 2
        assert last[switch][0] < layers[switch - 1]
        for i in range(switch, len(last)):
            assert last[i][0] == 3 * last[i - 1][1]
        assert_same_tables(P, monkeypatch)


def test_a_table_past_the_budget_is_refused(monkeypatch, tmp_path, capsys):
    # a dense n = 4, d = 12 map fills slice J = 6, C(9, 3) >= 6 d + 1, so
    # it needs slices 1..6 on 73 points
    rng = random.Random("budget")
    P = Parameterization.build(FP, [integer_form(FP, rng, 12) for _ in range(4)])
    entries = fiber._table_entries(4, 12, 6)
    assert entries == 73 * (min(comb(9, 3), 73) + comb(8, 2))
    monkeypatch.setattr(fiber, "MAX_TABLE_ENTRIES", entries - 1)
    with pytest.raises(InstanceError, match=f"largest accepted is {entries - 1}"):
        hilbert_table_a(P, 12)
    monkeypatch.setattr(fiber, "MAX_TABLE_ENTRIES", entries)
    assert hilbert_table_a(P, 12)[0] == 12
    # the command line exits 1 and names the bound
    monkeypatch.setattr(fiber, "MAX_TABLE_ENTRIES", entries - 1)
    path = tmp_path / "dense.txt"
    lines = [f"field: prime {FP.p}"] + [format_form(g) for g in P.gens]
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert cli.main(["analyze", str(path)]) == 1
    assert "MAX_TABLE_ENTRIES" in capsys.readouterr().err


def test_a_dense_map_of_degree_1000_exits_before_it_allocates():
    # J = 75 slices on 75,001 points: about 5.8e9 matrix entries
    rng = random.Random("degree-1000")
    gens = [integer_form(FP, rng, 1000) for _ in range(4)]
    P = Parameterization.build(FP, gens)
    tracemalloc.start()
    try:
        with pytest.raises(InstanceError, match="MAX_TABLE_ENTRIES"):
            hilbert_table_a(P, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the generators take about 300 kB as an array; nothing else is large
    assert peak < 2_000_000
