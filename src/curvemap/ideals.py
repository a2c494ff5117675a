"""Homogeneous ideals of k[x, y] presented by finitely many binary forms.

All questions are answered degree slice by degree slice: the degree-t slice
of an ideal is the span of the monomial multiples of its generators, a plain
linear-algebra object, and ideal equality reduces to slice ranks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from . import linalg
from .errors import ZeroIdeal
from .forms import form, format_form, monomial


@dataclass(frozen=True)
class GradedIdeal:
    field: object
    gens: tuple

    @classmethod
    def of(cls, field, gens) -> "GradedIdeal":
        kept = tuple(g.monic() for g in gens if not g.is_zero)
        if not kept:
            raise ZeroIdeal("an ideal needs at least one nonzero generator")
        return cls(field, kept)

    @property
    def is_monomial(self) -> bool:
        return all(g.is_monomial for g in self.gens)

    def gen_strings(self, variables=("x", "y")) -> list:
        return [format_form(g, variables) for g in self.gens]

    def __repr__(self):
        return f"GradedIdeal({', '.join(self.gen_strings())})"


def maximal_ideal_power(field, t: int) -> GradedIdeal:
    """m**t, generated by the degree-t monomials; m**0 is the unit ideal."""
    if t < 0:
        raise ValueError("negative power of the maximal ideal")
    if t == 0:
        return GradedIdeal.of(field, [form(field, [field.one])])
    return GradedIdeal.of(field, [monomial(field, t, i) for i in range(t + 1)])


def _slice_rows(J: GradedIdeal, t: int) -> np.ndarray:
    """Coefficient rows of all monomial multiples of the generators in degree t."""
    blocks = []
    # one kernel call per generator degree
    for D in sorted({g.degree for g in J.gens if g.degree <= t}):
        gens = linalg.to_np([g.coeffs for g in J.gens if g.degree == D], J.field)
        blocks.append(linalg.np_multiples(gens, t - D).reshape(-1, t + 1))
    return np.vstack(blocks) if blocks else np.zeros((0, t + 1), dtype=int)


def slice_rank(J: GradedIdeal, t: int) -> int:
    return linalg.rank(_slice_rows(J, t), J.field)


def power(J: GradedIdeal, t: int) -> GradedIdeal:
    """J**t, generated by all t-fold products of the generators."""
    if t < 0:
        raise ValueError("negative ideal power")
    if t == 0:
        return maximal_ideal_power(J.field, 0)
    prods = []
    for combo in combinations_with_replacement(J.gens, t):
        acc = combo[0]
        for g in combo[1:]:
            acc = acc.mul(g)
        prods.append(acc)
    return GradedIdeal.of(J.field, prods)


def ideal_equals(J1: GradedIdeal, J2: GradedIdeal) -> bool:
    """Exact equality of ideals, decided on the slices in the generator degrees.

    Equal slices in every degree where J1 has a generator put J1 inside J2,
    and likewise the other way round, so those degrees certify equality.
    The same generator set gives the same ideal without any slice.
    """
    if set(J1.gens) == set(J2.gens):
        return True
    field = J1.field
    degrees = {g.degree for g in J1.gens} | {g.degree for g in J2.gens}
    for t in sorted(degrees):
        rows1 = _slice_rows(J1, t)
        both = np.vstack([rows1, _slice_rows(J2, t)])
        n1 = len(rows1)
        # linalg.rank may row-reduce each half in place, which keeps the
        # span of both; over QQ through q it leaves them as they were
        r1 = linalg.rank(both[:n1], field)
        if r1 != linalg.rank(both[n1:], field):
            return False
        if r1 and linalg.rank(both, field) != r1:
            return False
    return True
