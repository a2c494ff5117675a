"""Over QQ, phi through primes: residue kernels lifted by CRT and rational reconstruction.

syzygy.syzygies_in_degree takes the kernel of each degree's matrix M from
linalg.np_kernel, which over QQ lifts it from primes and returns it only
after the shape check and one exact integer product prove it
(linalg._lifted_kernel); _certify checks the syzygies in integers and seeks
the rank mod q first.  Here the lift is compared with sympy's elimination
(qq_reference), unlucky primes are shown to be restarted or skipped, a
lift that proves nothing is shown to exit 2, and the map-degree walk is
shown to stop at two fibers of degree 1.
"""

import importlib
import random
import time
from fractions import Fraction
from itertools import islice
from math import prod

import numpy as np
import pytest

import qq_reference
from curvemap import (
    DEFAULT_PRIME,
    QQ,
    CurvemapError,
    certify_map_degree,
    cli,
    dense_corpus,
    format_form,
    hilbert_burch,
    linalg,
    syzygy,
)
from curvemap.errors import CertificationFailed
from curvemap.field import reduction_primes
from test_degree_certificate import composed_map, dense_map
from test_rational_sandwich import qq_param

Q = DEFAULT_PRIME
# the package exports the function fiber under the module's name
fiber_module = importlib.import_module("curvemap.fiber")


def fraction_matrix(P, t):
    """M of degree t, built on P's own Fraction coefficients."""
    return syzygy._multiplication_matrix(linalg.to_np([g.coeffs for g in P.gens], QQ), t)


def exact_kernel(P, t):
    """The exact reference: sympy's reduced kernel of M."""
    return qq_reference.kernel(fraction_matrix(P, t))


def sympy_rref(a, p):
    """np_rref with sympy over QQ, in place as np_rref writes its form."""
    if p is not None:
        return REAL_RREF(a, p)
    red, pivots = qq_reference.rref(a)
    a[...] = red
    return a, pivots


REAL_RREF, REAL_KERNEL = linalg.np_rref, linalg.np_kernel


def exact_phi(P, monkeypatch):
    """hilbert_burch(P) with every QQ reduced form and kernel from sympy."""
    with monkeypatch.context() as m:
        m.setattr(linalg, "np_rref", sympy_rref)
        m.setattr(
            linalg, "np_kernel", lambda a, p: qq_reference.kernel(a) if p is None else REAL_KERNEL(a, p)
        )
        return hilbert_burch(P)


@pytest.fixture
def kernels(monkeypatch):
    """Every residue kernel the lift takes: (its prime, its free columns)."""
    log = []
    real = linalg._kernel

    def spy(red, pivots, p):
        k, free = real(red, pivots, p)
        log.append((p, free))
        return k, free

    monkeypatch.setattr(linalg, "_kernel", spy)
    return log


def hadamard_bound(m):
    """2 H^2 of the lift: H the product of the column norms of M scaled to integer rows."""
    ints = linalg.integer_rows(m).tolist()
    cols = len(ints[0]) if ints else 0
    return 2 * prod(max(1, sum(row[c] ** 2 for row in ints)) for c in range(cols))


def rational_map(rng, n, d, box, den=1):
    """n random forms of degree d over QQ, coefficients a/b with |a| <= box, 1 <= b <= den."""
    while True:
        rows = [
            [Fraction(rng.randint(-box, box), rng.randint(1, den)) for _ in range(d + 1)]
            for _ in range(n)
        ]
        try:
            return qq_param(*rows)
        except CurvemapError:
            continue


def degrees(P):
    return sorted(syzygy._column_degree_counts(P)[0])


def instance_file(tmp_path, P):
    path = tmp_path / "map.txt"
    path.write_text("field: rational\nseed: 1\n" + "\n".join(map(format_form, P.gens)) + "\n")
    return str(path)


def test_lifted_kernel_equals_the_exact_kernel(kernels):
    rng = random.Random("lift-differential")
    # dense_corpus draws QQ coefficients up to 10^6, so most kernels need
    # several primes; the small boxes need one or two
    cases = dense_corpus(QQ, 10, seed=13, n_range=(3, 6), d_max=7)
    for box in (10**6, 9):
        for n in (3, 4, 5, 5):
            cases.append(rational_map(rng, n, rng.randint(n, 7), box))
    # denominators up to 12: M is scaled to integers for the product
    cases += [rational_map(rng, n, rng.randint(n, 7), 9, den=12) for n in (3, 4, 5)]
    used = []
    for P in cases:
        for t in degrees(P):
            kernels.clear()
            k = syzygy.syzygies_in_degree(P, t)
            used.append(len(kernels))
            ref = exact_kernel(P, t)
            assert k.shape == ref.shape and (k == ref).all(), (P, t)
            assert all(type(v) is Fraction for v in k.flat)
    assert min(used) <= 2 and max(used) >= 6, used


def test_lifted_phi_equals_the_exact_phi(kernels, monkeypatch):
    rng = random.Random("lift-phi")
    cases = dense_corpus(QQ, 6, seed=14, n_range=(3, 5), d_max=6)
    cases += [composed_map(QQ, rng, n, r, e)[0] for n, r, e in [(3, 2, 3), (3, 3, 2)]]
    for P in cases:
        kernels.clear()
        phi = hilbert_burch(P)
        assert kernels, P
        assert phi == exact_phi(P, monkeypatch), P


def test_kernel_matches_sympy_nullspace():
    # an independent oracle: M built here from the layout, sympy's own RREF
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    rng = random.Random("lift-sympy")
    maps = [rational_map(rng, n, d, 9) for n, d in [(3, 4), (3, 6), (4, 5), (4, 6), (5, 6)]]
    for P in maps:
        for t in degrees(P):
            rows, cols = P.d + t + 1, P.n * (t + 1)
            m = [[sympy.QQ(0)] * cols for _ in range(rows)]
            for i, g in enumerate(P.gens):
                for k in range(t + 1):
                    for j, c in enumerate(g.coeffs):
                        m[k + j][i * (t + 1) + k] = sympy.QQ(c.numerator, c.denominator)
            null = DomainMatrix(m, (rows, cols), sympy.QQ).nullspace().to_list()
            want = [[Fraction(int(v.numerator), int(v.denominator)) for v in row] for row in null]
            assert syzygy.syzygies_in_degree(P, t).tolist() == want, (P, t)


def degenerate_mod_q_map():
    """g4 = g3 + q x^5: mod q the map has only three distinct generators."""
    rng = random.Random("lift-mod-q")
    rows = [[rng.randint(-9, 9) for _ in range(6)] for _ in range(3)]
    rows.append([rows[2][0] + Q] + rows[2][1:])
    return qq_param(*rows)


def read_off_moduli(monkeypatch):
    """The modulus of every echelon a kernel is read off from now on."""
    log = []
    real = syzygy._read_off

    def spy(echelon, n, t):
        k = real(echelon, n, t)
        log.extend([echelon[0]] if k is not None else [])
        return k

    monkeypatch.setattr(syzygy, "_read_off", spy)
    return log


def test_map_degenerate_only_mod_q_restarts_at_the_next_prime(kernels, monkeypatch):
    P = degenerate_mod_q_map()
    t = degrees(P)[0]
    kernels.clear()
    k = syzygy.syzygies_in_degree(P, t)
    # degree 1: mod q, g4 = g3 adds a free column, so the next prime restarts
    first, later = kernels[0], kernels[1]
    assert first[0] == Q and later[0] != Q
    assert len(first[1]) == len(later[1]) + 1
    assert k.tolist() == exact_kernel(P, t).tolist()
    # in hilbert_burch the dims mod q miss a bound too, so the column
    # degrees come from the lifted echelon over QQ, and every kernel is
    # read off it
    read = read_off_moduli(monkeypatch)
    phi = hilbert_burch(P)
    assert read == [None] * len(degrees(P))
    assert phi == exact_phi(P, monkeypatch)


def test_as_many_free_columns_but_earlier_ones_are_skipped(kernels, monkeypatch):
    # the y^5 coefficient q of g1 vanishes mod q: there the free column of
    # the degree-2 kernel moves from 8 to 7, and q is skipped, not combined
    rng = random.Random("lift-skip-20")
    rows = [[rng.randint(-9, 9) for _ in range(6)] for _ in range(3)]
    rows[0][-1] = Q
    P = qq_param(*rows)
    assert degrees(P) == [2, 3]
    kernels.clear()
    k = syzygy.syzygies_in_degree(P, 2)
    assert kernels[0] == (Q, [7]) and all(free == [8] for _, free in kernels[1:])
    assert len(kernels) >= 2
    assert k.tolist() == exact_kernel(P, 2).tolist()
    assert hilbert_burch(P) == exact_phi(P, monkeypatch)


def test_forced_unlucky_primes_are_restarted_then_skipped(kernels, monkeypatch):
    # a and b divide the leading 2 x 2 minor a*b: mod either, column 1 is
    # free in place of column 2.  Put first, a restarts at the next prime;
    # after a good prime, b is skipped and the good moduli combine
    a, b, *good = islice(reduction_primes(), 8)
    m = linalg.to_np([[1, 0, 10**6 + 3], [0, a * b, Fraction(-(10**6) + 7, 5)]], QQ)
    order = [a, good[0], b] + good[1:]
    monkeypatch.setattr(linalg, "reduction_primes", lambda: iter(order))
    moduli = []
    real = linalg._reconstructed

    def spy(residues, mod):
        moduli.append(mod)
        return real(residues, mod)

    monkeypatch.setattr(linalg, "_reconstructed", spy)
    k = linalg.np_kernel(m, None)
    assert k.tolist() == qq_reference.kernel(m).tolist()
    used = len(kernels)
    assert [free for _, free in kernels] == [[1], [2], [1]] + [[2]] * (used - 3)
    # b reconstructs nothing; good[1] combines with good[0], and the good
    # moduli are reconstructed after 1, 2, 3, 4, 6, ... of them
    joined = [i for i in (1, 2, 3, 4, 6, 9) if i <= used - 2]
    assert joined[-1] == used - 2
    assert moduli == [a] + [prod(good[:i]) for i in joined]


def test_denominator_divisible_by_q_takes_the_exact_route(kernels, monkeypatch):
    rng = random.Random("lift-denominator")
    rows = [[Fraction(rng.randint(-9, 9)) for _ in range(6)] for _ in range(4)]
    rows[1][3] = Fraction(5, Q)
    P = qq_param(*rows)
    t = degrees(P)[0]
    kernels.clear()
    k = syzygy.syzygies_in_degree(P, t)
    assert kernels[0][0] == Q
    assert k.tolist() == exact_kernel(P, t).tolist()
    # the lift scales the rows to integers first, so it starts at q; in
    # hilbert_burch q divides a denominator, so no dim is taken mod q: each
    # kernel is read off the exact (lifted) echelon of the column degrees,
    # or, past its width, lifted on its own
    read = read_off_moduli(monkeypatch)
    lifted = []
    real_kernel = linalg.np_kernel
    monkeypatch.setattr(
        linalg, "np_kernel", lambda a, p: lifted.append(p) or real_kernel(a, p)
    )
    phi = hilbert_burch(P)
    assert read + lifted == [None] * len(degrees(P))
    monkeypatch.setattr(linalg, "np_kernel", real_kernel)
    assert phi == exact_phi(P, monkeypatch)


def test_running_out_of_primes_exits_2(tmp_path, capsys, monkeypatch):
    # coefficients up to 10^6 need more than one prime; with only q the lift
    # proves nothing and names its bound, and analyze exits 2
    P = rational_map(random.Random("lift-one-prime"), 4, 6, 10**6)
    monkeypatch.setattr(linalg, "reduction_primes", lambda: iter([Q]))
    with pytest.raises(CertificationFailed, match="Hadamard bound"):
        hilbert_burch(P)
    assert cli.main(["analyze", instance_file(tmp_path, P), "--deterministic"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("computation failed: no kernel of a ")


def test_no_proof_by_twice_the_hadamard_square_exits_2(monkeypatch):
    # rows swapped: still kernel vectors, so the product passes, but the
    # shape check fails at every prime, until the modulus passes 2 H^2
    P = rational_map(random.Random("lift-bound"), 3, 4, 9)
    t = degrees(P)[-1]
    m = fraction_matrix(P, t)
    real = linalg._reconstructed
    moduli = []

    def swapped(residues, mod):
        moduli.append(mod)
        k = real(residues, mod)
        return None if k is None else k[::-1].copy()

    assert len(exact_kernel(P, t)) >= 2
    with monkeypatch.context() as patched:
        patched.setattr(linalg, "_reconstructed", swapped)
        with pytest.raises(CertificationFailed, match=f"< 2\\^{hadamard_bound(m).bit_length()}$"):
            linalg.np_kernel(m, None)
    bound = hadamard_bound(m)
    assert moduli[-2] <= bound < moduli[-1]
    assert syzygy.syzygies_in_degree(P, t).tolist() == exact_kernel(P, t).tolist()


def test_a_residue_kernel_in_the_wrong_basis_stops_within_bound_squared(
    tmp_path, capsys, monkeypatch
):
    # the kernel mod q in a wrong basis of the same space: each row plus the
    # last, so every row ends at the last free column, lexicographically
    # later than the QQ free set.  q then outranks every correct prime, and
    # each of those is skipped; the lift must still stop, once the primes
    # tried multiply past bound^2, and analyze exits 2
    P = rational_map(random.Random("lift-wrong-basis"), 4, 6, 9)
    t = next(t for t in degrees(P) if len(exact_kernel(P, t)) >= 2)
    bound = hadamard_bound(fraction_matrix(P, t))
    # every prime tried is above 2^30, so bound^2 is passed by then
    limit = 2 * bound.bit_length() // 30 + 1
    real_kernel = linalg._kernel

    def wrong(red, pivots, p):
        k, free = real_kernel(red, pivots, p)
        if p == Q and len(free) >= 2:
            k[:-1] = (k[:-1] + k[-1]) % p
            free = [int(np.flatnonzero(v)[-1]) for v in k]
        return k, free

    primes = [0]

    def counted():
        for q in reduction_primes():
            primes[0] += 1
            assert primes[0] <= limit, "the lift walks on past bound^2"
            yield q

    monkeypatch.setattr(linalg, "_kernel", wrong)
    monkeypatch.setattr(linalg, "reduction_primes", counted)
    with pytest.raises(CertificationFailed, match="Hadamard bound"):
        syzygy.syzygies_in_degree(P, t)
    assert primes[0] >= 2
    primes[0] = 0
    assert cli.main(["analyze", instance_file(tmp_path, P), "--deterministic"]) == 2
    assert capsys.readouterr().err.startswith("computation failed: no kernel of a ")


def test_proof_rejects_a_wrong_shape_or_a_non_syzygy():
    P = rational_map(random.Random("lift-proof"), 4, 5, 9)
    t = degrees(P)[-1]
    exact = linalg.integer_rows(fraction_matrix(P, t))
    k = exact_kernel(P, t)
    free = [int(np.flatnonzero(v)[-1]) for v in k]
    assert linalg._proves_kernel(exact, k, free)
    # a kernel vector added to a later row: a syzygy, not the reduced kernel
    mixed = k.copy()
    mixed[-1] = mixed[-1] + mixed[0]
    assert not linalg._proves_kernel(exact, mixed, free)
    # the identity part kept, one pivot entry off by 1/7: no syzygy
    off = k.copy()
    c = next(c for c in range(free[0]) if c not in free)
    off[0, c] += Fraction(1, 7)
    assert not linalg._proves_kernel(exact, off, free)


def test_certify_seeks_the_rank_over_qq_when_q_divides_a_denominator(monkeypatch):
    # phi of the map degenerate mod q has denominators divisible by q
    P = degenerate_mod_q_map()
    phi = hilbert_burch(P)
    assert any(c.denominator % Q == 0 for col in phi.columns for e in col for c in e.coeffs)
    rank_moduli = spy_ranks(monkeypatch)
    lifts = spy_lifts(monkeypatch)
    syzygy._certify(P, phi_cols(phi))
    # each rank over QQ is read off a lifted kernel
    assert rank_moduli and set(rank_moduli) == {None}
    assert len(lifts) == len(rank_moduli)


def test_certify_tries_qq_when_no_point_has_rank_n_minus_1_mod_q(monkeypatch):
    P = rational_map(random.Random("lift-certify"), 4, 5, 9)
    cols = phi_cols(hilbert_burch(P))
    assert [D for D, _ in cols] == [1, 2, 2]
    rank_moduli = spy_ranks(monkeypatch)
    syzygy._certify(P, cols)
    assert set(rank_moduli) == {Q}
    # every residue of phi zero: no point gives rank 3 mod q, QQ does, on a
    # lifted kernel that sympy confirms
    real = type(QQ).reduction

    def zeros(self, rows):
        k, residues = real(self, rows)
        return k, [[0] * len(row) for row in residues]

    monkeypatch.setattr(type(QQ), "reduction", zeros)
    lifts = spy_lifts(monkeypatch)
    rank_moduli.clear()
    syzygy._certify(P, cols)
    assert rank_moduli.count(Q) == P.d + 1 and None in rank_moduli
    for a, (k, _) in lifts:
        assert k.tolist() == qq_reference.kernel(a).tolist()
    # two equal columns: rank 2 at every point, by either route
    monkeypatch.undo()
    with pytest.raises(CertificationFailed, match="rank below 3"):
        syzygy._certify(P, cols[:2] + cols[1:2])


def spy_ranks(monkeypatch):
    """The modulus of every np_rref call made from now on, outside the lift."""
    log = []
    depth = [0]
    real = linalg.np_rref

    def spy(a, p):
        if not depth[0]:
            log.append(p)
        depth[0] += 1
        try:
            return real(a, p)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(linalg, "np_rref", spy)
    return log


def spy_lifts(monkeypatch):
    """Every lift made from now on: (a copy of its matrix, its result)."""
    log = []
    real = linalg._lifted_kernel

    def spy(a):
        log.append((a.copy(), real(a)))
        return log[-1][1]

    monkeypatch.setattr(linalg, "_lifted_kernel", spy)
    return log


def phi_cols(phi):
    """phi as the (D, flat coefficients) pairs that _certify takes."""
    return [
        (D, [c for e in col for c in (e.coeffs or (Fraction(0),) * (D + 1))])
        for D, col in zip(phi.col_degrees, phi.columns)
    ]


def test_certify_checks_syzygies_in_integers():
    P = rational_map(random.Random("lift-certify-syzygy"), 3, 4, 9)
    cols = phi_cols(hilbert_burch(P))
    D, v = cols[0]
    cols[0] = (D, [v[0] + Fraction(1, 3)] + v[1:])
    with pytest.raises(CertificationFailed, match="column 1 .* not a syzygy"):
        syzygy._certify(P, cols)


def test_rational_quartic_of_degree_32_gives_phi_quickly():
    # about 1.3 s by Fraction elimination of each kernel, about 0.15 s lifted
    rng = random.Random("lift-wall-clock")
    P = rational_map(rng, 4, 32, 9)
    start = time.perf_counter()
    phi = hilbert_burch(P)
    elapsed = time.perf_counter() - start
    assert sum(phi.col_degrees) == 32
    assert elapsed < 1.0, f"{elapsed:.2f} s"


def test_birational_sample_stops_at_two_fibers_of_degree_one(field, walked, monkeypatch):
    gcds = [0]
    real = fiber_module.gcd_forms

    def counted(forms):
        gcds[0] += 1
        return real(forms)

    monkeypatch.setattr(fiber_module, "gcd_forms", counted)
    rng = random.Random("early-stop")
    # column degrees (2, 3), (2, 2, 3), (2, 2, 2, 3) coprime, and (2, 2): two
    # fibers of degree 1 at t = 1, -1 prove r = 1 either way
    for n, d in [(3, 5), (4, 7), (5, 9), (3, 4)]:
        P = dense_map(field, rng, n, d)
        phi = hilbert_burch(P)
        walked.clear()
        gcds[0] = 0
        cert = certify_map_degree(P, phi)
        assert (cert.r, walked, gcds[0]) == (1, [1, field.conv(-1)], 2), P


def test_composed_walk_ends_after_two_points(any_field, walked):
    # the walk ends after two points on a composed map too
    rng = random.Random("early-stop-composed")
    for n, r, e in [(3, 2, 3), (4, 3, 3), (3, 3, 2)]:
        P, _ = composed_map(any_field, rng, n, r, e)
        phi = hilbert_burch(P)
        walked.clear()
        assert certify_map_degree(P, phi).r == r
        assert walked == [1, any_field.conv(-1)], P
