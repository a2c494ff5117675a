"""Seeded instance ladders and the command list each workload runs.

Every workload is a fixed list of commands built from its seed.  The seed
draws coefficients, parameter points, instance seeds and orderings; the
sizes of the ladder are fixed, so two seeds cost about the same.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations

import algebra
from algebra import Field

PRIME = 2147483647
GF = Field(PRIME)
QQ = Field(None)

# (n, d) of the dense prime-field ladder.  The top of the ladder stays well
# below the sizes where the Hilbert table of A blows up (n = 3, d >= 30).
DENSE_LADDER = (
    [(3, d) for d in (6, 9, 12, 15, 18, 21)]
    + [(4, d) for d in (8, 12, 16, 20, 24)]
    + [(5, d) for d in (10, 15, 20, 25, 30)]
    + [(6, d) for d in (12, 18, 24, 30, 36)]
)
# every monomial exponent set 0 = a_1 < ... < a_n = d with d <= 8, n <= 8:
# 254 cases, a round short enough that a pass repeats it several times
MONOMIAL_D_MAX = 8
MONOMIAL_N_MAX = 8
# (n, r, e): n forms of degree e composed with a pair of degree-r forms
COMPOSED_LADDER = [
    (3, 2, 3), (3, 2, 5), (3, 3, 3), (3, 3, 5),
    (4, 2, 4), (4, 2, 6), (4, 3, 4),
    (5, 2, 5), (5, 2, 7), (5, 3, 5),
]
FIBER_QUERIES = 3
# (n, d, count) over QQ, coefficients drawn from [-RATIONAL_BOX, RATIONAL_BOX].
# The counts put the median command amid the similar-cost (4, 4) and (3, 4)
# instances and the 90th percentile amid the (3, 5) ones, away from the wide
# gaps between sizes, where a small shift would move a percentile a lot.
RATIONAL_LADDER = [(3, 2, 2), (4, 3, 1), (3, 3, 2), (4, 4, 3), (3, 4, 3), (4, 5, 2), (3, 5, 3)]
RATIONAL_BOX = 9


@dataclass(frozen=True)
class Instance:
    name: str
    F: Field
    gens: tuple
    seed: int
    # how the instance was built: exponents for monomial maps, r and the
    # pair (f1, f2) for composed maps
    meta: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.gens)

    @property
    def d(self) -> int:
        return len(self.gens[0]) - 1

    def text(self) -> str:
        lines = [f"field: {self.F.spec}", f"seed: {self.seed}"]
        lines += [algebra.fmt(self.F, g) for g in self.gens]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Command:
    kind: str  # analyze | reparam | core | fiber
    inst: Instance
    t: object = None  # fiber queries: the parameter point (t : 1)
    point: tuple = ()  # fiber queries: its image, the queried point

    def argv(self, path: str) -> list:
        out = [self.kind, path, "--deterministic"]
        if self.kind == "fiber":
            out += ["--point", ":".join(str(c) for c in self.point)]
        return out


def _valid(F: Field, gens: list) -> bool:
    """The conditions curvemap puts on input: independent, coprime, nonzero."""
    return algebra.rank(F, gens) == len(gens) and algebra.coprime(F, gens)


def _random_forms(F: Field, rng: random.Random, n: int, d: int, draw) -> list:
    while True:
        gens = [[F(draw()) for _ in range(d + 1)] for _ in range(n)]
        if _valid(F, gens):
            return gens


def _instance_seed(rng: random.Random) -> int:
    return rng.randrange(10**6)


def dense_prime(seed: int) -> list:
    rng = random.Random(f"dense-prime:{seed}")
    out = []
    for n, d in DENSE_LADDER:
        gens = _random_forms(GF, rng, n, d, lambda: rng.randrange(PRIME))
        inst = Instance(f"dense-{n}-{d}", GF, tuple(gens), _instance_seed(rng))
        out.append(Command("analyze", inst))
    return out


def monomial_sweep(seed: int) -> list:
    rng = random.Random(f"monomial-sweep:{seed}")
    out = []
    for d in range(1, MONOMIAL_D_MAX + 1):
        for k in range(min(MONOMIAL_N_MAX, d + 1) - 1):
            for mid in combinations(range(1, d), k):
                exps = (0, *mid, d)
                gens = []
                for a in exps:  # x^a * y^(d-a)
                    g = [GF.zero] * (d + 1)
                    g[d - a] = GF.one
                    gens.append(g)
                rng.shuffle(gens)
                name = "mono-" + "-".join(map(str, exps))
                inst = Instance(name, GF, tuple(gens), _instance_seed(rng), {"exponents": exps})
                out.append(Command("analyze", inst))
    rng.shuffle(out)
    return out


def composed(seed: int) -> list:
    rng = random.Random(f"composed:{seed}")
    draw = lambda: rng.randrange(PRIME)  # noqa: E731
    out = []
    for n, r, e in COMPOSED_LADDER:
        f1, f2 = _random_forms(GF, rng, 2, r, draw)
        inner = _random_forms(GF, rng, n, e, draw)
        gens = [algebra.compose(GF, g, f1, f2) for g in inner]
        if not _valid(GF, gens):  # cannot happen: f1, f2 coprime and inner valid
            raise AssertionError("composed generators are degenerate")
        meta = {"r": r, "pair": (f1, f2)}
        inst = Instance(f"comp-{n}-{r}-{e}", GF, tuple(gens), _instance_seed(rng), meta)
        out += [Command("reparam", inst), Command("core", inst)]
        for _ in range(FIBER_QUERIES):
            t = GF(draw())
            point = tuple(algebra.value_at(GF, g, t) for g in gens)
            if not any(point):  # t is a common root; impossible for coprime gens
                raise AssertionError("parameter point maps to zero")
            out.append(Command("fiber", inst, t, point))
    return out


def rational(seed: int) -> list:
    rng = random.Random(f"rational:{seed}")
    out = []
    draw = lambda: rng.randint(-RATIONAL_BOX, RATIONAL_BOX)  # noqa: E731
    for n, d, count in RATIONAL_LADDER:
        for k in range(count):
            gens = _random_forms(QQ, rng, n, d, draw)
            inst = Instance(f"rat-{n}-{d}-{k}", QQ, tuple(gens), _instance_seed(rng))
            out.append(Command("analyze", inst))
    return out


WORKLOADS = {
    "dense-prime": dense_prime,
    "monomial-sweep": monomial_sweep,
    "composed": composed,
    "rational": rational,
}

