"""Report assembly: certified invariants and the nine-way equivalence table.

For an m-primary ideal of binary forms the following are equivalent, and the
table reports each with its provenance: (1) the map is birational, (2) the
Rees ring satisfies R_1, (3)-(4) the canonical module of the Rees ring and
its endomorphism ring match those of m^d, (5) e(A) = d, (6) the core equals
m^(2d-1), (7) the core equals adj(I^2), (8) the core is integrally closed.
Statement (9), gcd of the column degrees equal to one, implies the others
and is equivalent to them for monomial generators.
"""

from __future__ import annotations

import math
from functools import reduce

from .errors import InternalInvariantViolation
from .fiber import certify_map_degree, hilbert_table_a
from .forms import li_dim
from .param import Parameterization
from .reparam import core_ideal, reparameterize
from .syzygy import SyzygyMatrix, hilbert_burch

COMPUTED = "computed"
DERIVED = "derived-by-theorem"

C3_STATEMENTS = (
    "the map is birational onto its image ([B:A] = 1)",
    "the Rees ring R(I) satisfies Serre's condition R_1",
    "omega_R(I) = omega_R(m^d)",
    "End(omega_R(I)) = End(omega_R(m^d))",
    "e(A) = d",
    "core(I) = m^(2d-1)",
    "core(I) = adj(I^2)",
    "core(I) is integrally closed",
    "gcd(column degrees of phi) = 1",
)

SUFFICIENCY_NOTE = (
    "sufficient for birationality but not necessary in general; "
    "equivalent to it when the generators are monomials"
)


def _is_prime(t: int) -> bool:
    if t < 2:
        return False
    k = 2
    while k * k <= t:
        if t % k == 0:
            return False
        k += 1
    return True


class Analysis:
    """Lazily computed bundle of everything derived from one parameterization.

    Each piece (syzygy matrix, certified map degree with its reparameterization
    pair, Hilbert table, core) is computed once on first use and shared by
    every report that needs it.  e(A) = d/r follows from the certified r, and
    the Hilbert table is built from it.
    """

    def __init__(self, P: Parameterization, seed: int = 0, samples: int = 7):
        self.param = P
        self.seed = seed
        self.samples = samples
        self._cache: dict = {}

    def _get(self, key, make):
        if key not in self._cache:
            self._cache[key] = make()
        return self._cache[key]

    @property
    def phi(self) -> SyzygyMatrix:
        return self._get("phi", lambda: hilbert_burch(self.param))

    @property
    def certificate(self):
        return self._get(
            "certificate",
            lambda: certify_map_degree(
                self.param, self.phi, seed=self.seed, samples=self.samples
            ),
        )

    @property
    def r(self) -> int:
        return self.certificate.r

    @property
    def e(self) -> int:
        return self.param.d // self.r

    @property
    def hf_a(self) -> list:
        return self._get("hf_a", lambda: hilbert_table_a(self.param, e=self.e))[1]

    @property
    def birational(self) -> bool:
        return self.r == 1

    @property
    def j(self) -> int:
        d = self.param.d
        j = d * self.r * self.e
        if j != d * d:
            raise InternalInvariantViolation(f"j = {j} differs from d^2 = {d * d}")
        return j

    @property
    def pair(self):
        return self.certificate.pair

    @property
    def reparam(self):
        return self._get(
            "reparam",
            lambda: reparameterize(
                self.param,
                self.phi,
                seed=self.seed,
                samples=self.samples,
                cert=self.certificate,
            ),
        )

    @property
    def core(self):
        return self._get(
            "core",
            lambda: core_ideal(
                self.param,
                self.phi,
                seed=self.seed,
                samples=self.samples,
                cert=self.certificate,
            ),
        )

    def c3_table(self) -> dict:
        bir = self.birational
        core = self.core
        col_gcd = reduce(math.gcd, self.phi.col_degrees)
        closure_prov = (
            COMPUTED if core.closure_provenance == "computed-monomial" else DERIVED
        )
        values = (
            (bir, COMPUTED),
            (bir, DERIVED),
            (bir, DERIVED),
            (bir, DERIVED),
            (self.e == self.param.d, COMPUTED),
            (core.equals_m_power, COMPUTED),
            (bir, DERIVED),
            (core.integrally_closed, closure_prov),
            (col_gcd == 1, COMPUTED),
        )
        rows = []
        for i, (holds, provenance) in enumerate(values):
            row = {
                "id": i + 1,
                "statement": C3_STATEMENTS[i],
                "holds": holds,
                "provenance": provenance,
            }
            if i == 8:
                row["note"] = SUFFICIENCY_NOTE
            rows.append(row)
        consistent = all(row["holds"] == bir for row in rows[:8])
        return {"rows": rows, "consistent": consistent}

    def entry_degree_criterion(self) -> dict:
        """Birationality test available when all matrix entries share one prime degree.

        In that case the map is birational exactly when the entries span at
        least a 3-dimensional space, i.e. the entry ideal needs at least 3
        generators.
        """
        entries = [h for col in self.phi.columns for h in col if not h.is_zero]
        degrees = {h.degree for h in entries}
        if len(degrees) != 1:
            return {"applies": False, "reason": "entry degrees differ"}
        degree = degrees.pop()
        if not _is_prime(degree):
            return {"applies": False, "reason": f"entry degree {degree} is not prime"}
        mu = li_dim(entries, degree)
        predicts = mu >= 3
        return {
            "applies": True,
            "entryDegree": degree,
            "mu": mu,
            "predictsBirational": predicts,
            "agrees": predicts == self.birational,
        }

    def report(self) -> dict:
        P = self.param
        return {
            "field": P.field.json_config(),
            "seed": self.seed,
            "samples": self.samples,
            "generators": P.gen_strings(),
            "d": P.d,
            "n": P.n,
            "phi": self.phi.to_json(),
            "colDegrees": list(self.phi.col_degrees),
            "r": self.r,
            "eA": self.e,
            "j": self.j,
            "birational": self.birational,
            "hfA": list(self.hf_a),
            "core": self.core.to_json(),
            "c3": self.c3_table(),
            "entryDegreeCriterion": self.entry_degree_criterion(),
        }
