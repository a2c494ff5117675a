"""The input object: n independent forms of one degree d with no common zero.

Such a tuple defines a morphism P^1 -> P^(n-1) whose image is a curve once
n >= 3 (for n = 2 the map is a branched cover of P^1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import InstanceError
from .forms import form, format_form, gcd_forms, li_dim


@dataclass(frozen=True)
class Parameterization:
    field: object
    gens: tuple
    d: int
    n: int
    variables: tuple = ("x", "y")

    @classmethod
    def build(cls, field, gens, variables=("x", "y")) -> "Parameterization":
        """Check and wrap n >= 2 nonzero forms of one degree d >= 1.

        The generators must be linearly independent (li_dim, over QQ through
        one prime) and coprime.  Over QQ coprimality is first decided mod
        q = DEFAULT_PRIME (_coprime_mod_q); the exact gcd runs only when that
        proves nothing, and it names the common factor of a failed check.
        """
        gens = tuple(gens)
        if len(gens) < 2:
            raise InstanceError("need at least two generators")
        if any(g.is_zero for g in gens):
            raise InstanceError("zero generator")
        degrees = {g.degree for g in gens}
        if len(degrees) > 1:
            raise InstanceError(
                f"degree mismatch: generators of degrees {sorted(degrees)}"
            )
        d = degrees.pop()
        if d < 1:
            raise InstanceError("generators must have positive degree")
        n = len(gens)
        if li_dim(gens) != n:
            raise InstanceError("linearly dependent generators")
        if not _coprime_mod_q(field, gens):
            common = gcd_forms(gens)
            if common.degree != 0:
                raise InstanceError(
                    f"generators share the common factor {format_form(common, variables)}"
                )
        return cls(field, gens, d, n, tuple(variables))

    @cached_property
    def is_monomial(self) -> bool:
        # read per degree by hilbert_burch; computed once per instance
        return all(g.is_monomial for g in self.gens)

    def gen_strings(self) -> list:
        return [format_form(g, self.variables) for g in self.gens]

    def __repr__(self):
        return f"Parameterization({', '.join(self.gen_strings())})"


def _coprime_mod_q(field, gens) -> bool:
    """True when rational generators are proved coprime by their residues mod q.

    The residues come from RationalField.reduction.  Let h be the gcd over
    QQ, taken primitive in Z[x, y].  By Gauss's lemma over Z_(q) every
    generator is h times a form whose coefficients have no q in their
    denominators, and h mod q is a nonzero form of the same degree.  So h mod
    q divides every residue, and the gcd of the nonzero residues has degree
    at least deg h: when it is a constant, so is h.  Generators that all
    vanish mod q, a denominator divisible by q, and a prime field prove
    nothing.
    """
    if field.modular:
        return False
    reduced = field.reduction([g.coeffs for g in gens])
    if reduced is None:
        return False
    k, rows = reduced
    residues = [h for h in (form(k, row) for row in rows) if not h.is_zero]
    return bool(residues) and gcd_forms(residues).degree == 0
