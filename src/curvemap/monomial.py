"""Closed forms for monomial parameterizations, and monomial integral closure.

For gens x^(a_i) y^(d-a_i) the minimal syzygy matrix is bidiagonal with
column degrees equal to the exponent gaps, and the degree of the map onto
its image is the gcd of the gaps.  These closed forms anchor the randomized
tests of the generic machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import InstanceError, NotMonomial
from .forms import form, format_term, monomial
from .ideals import GradedIdeal
from .param import Parameterization
from .syzygy import SyzygyMatrix


@dataclass(frozen=True)
class MonomialParam:
    """Exponent data 0 = a_1 < a_2 < ... < a_n = d for gens x^(a_i) y^(d-a_i)."""

    field: object
    d: int
    exponents: tuple

    @classmethod
    def of(cls, field, d: int, exponents) -> "MonomialParam":
        a = tuple(exponents)
        if len(a) < 2:
            raise InstanceError("a monomial parameterization needs at least 2 exponents")
        if any(a[i] >= a[i + 1] for i in range(len(a) - 1)):
            raise InstanceError("exponents must be strictly increasing")
        if a[0] != 0 or a[-1] != d:
            raise InstanceError("exponents must run from 0 to d (else the ideal is not m-primary)")
        return cls(field, d, a)

    @property
    def n(self) -> int:
        return len(self.exponents)

    @property
    def gaps(self) -> tuple:
        a = self.exponents
        return tuple(a[i + 1] - a[i] for i in range(len(a) - 1))

    def parameterization(self) -> Parameterization:
        """Generators listed by descending x-exponent, x^d first."""
        gens = [
            monomial(self.field, self.d, self.d - a)
            for a in reversed(self.exponents)
        ]
        return Parameterization.build(self.field, gens)


def oracle_phi(M: MonomialParam) -> SyzygyMatrix:
    """The bidiagonal syzygy matrix, rows matching M.parameterization().

    With gens sorted by descending x-exponent, column j carries y^(c_j) in
    row j and -x^(c_j) in row j+1, where c_j is the j-th descending gap.
    """
    field = M.field
    n = M.n
    gaps = tuple(reversed(M.gaps))
    zero = form(field, [])
    columns = []
    for j, c in enumerate(gaps):
        col = [zero] * n
        col[j] = monomial(field, c, c)
        col[j + 1] = monomial(field, c, 0, field.neg(field.one))
        columns.append(tuple(col))
    return SyzygyMatrix(field, n, gaps, tuple(columns))


def oracle_degree(M: MonomialParam) -> int:
    g = 0
    for c in M.gaps:
        g = gcd(g, c)
    return g


# ---------------------------------------------------------------------------
# Monomial ideals on exponent pairs, and their Newton-polygon integral closure


@dataclass(frozen=True)
class MonomialIdeal:
    """The ideal generated by x^u y^v for the exponent pairs (u, v), in order."""

    field: object
    pairs: tuple

    def gen_strings(self, variables=("x", "y")) -> list:
        return [format_term("1", u, v, variables) for u, v in self.pairs]

    def graded(self) -> GradedIdeal:
        return GradedIdeal.of(self.field, [monomial(self.field, u + v, v) for u, v in self.pairs])


def exponent_pairs(gens) -> list:
    """(u, v) of each monomial c x^u y^v among gens."""
    pairs = []
    for g in gens:
        if not g.is_monomial:
            raise NotMonomial("exponent pairs need monomial generators")
        k = g.y_order
        pairs.append((g.degree - k, k))
    return pairs


def staircase(pairs) -> list:
    """The minimal pairs under the componentwise order, by ascending u.

    They are the exponents of the minimal generators of the monomial ideal,
    so two monomial ideals are equal exactly when their staircases are.
    """
    chain = []
    for a, b in sorted(set(pairs)):
        if not chain or b < chain[-1][1]:
            chain.append((a, b))
    return chain


def _lower_left_hull(pairs) -> list:
    """The southwest boundary of conv(pairs) + the positive orthant."""
    hull: list = []
    for q in staircase(pairs):
        while len(hull) >= 2:
            o, p = hull[-2], hull[-1]
            cross = (p[0] - o[0]) * (q[1] - o[1]) - (p[1] - o[1]) * (q[0] - o[0])
            if cross <= 0:
                hull.pop()
            else:
                break
        hull.append(q)
    return hull


def closure_pairs(pairs) -> list:
    """The staircase of the integral closure: lattice points on or above the Newton polygon."""
    hull = _lower_left_hull(pairs)
    out = []
    seg = 0
    for u in range(hull[0][0], hull[-1][0] + 1):
        while seg + 1 < len(hull) and hull[seg + 1][0] < u:
            seg += 1
        if seg + 1 < len(hull):
            (a1, b1), (a2, b2) = hull[seg], hull[seg + 1]
            num = b1 * (a2 - a1) + (u - a1) * (b2 - b1)
            v = -(-num // (a2 - a1))
        else:
            v = hull[-1][1]
        if not out or v < out[-1][1]:
            out.append((u, v))
    return out


def newton_closure(J: GradedIdeal) -> GradedIdeal:
    """Integral closure of a monomial ideal (closure_pairs on its generators)."""
    return MonomialIdeal(J.field, tuple(closure_pairs(exponent_pairs(J.gens)))).graded()
