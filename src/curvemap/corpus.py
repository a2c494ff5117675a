"""Instance generators for the self-test and the acceptance suite."""

from __future__ import annotations

import random
from itertools import combinations

from .errors import CurvemapError
from .forms import form
from .monomial import MonomialParam
from .param import Parameterization

MAX_MONOMIAL_GENS = 8
# Largest selftest sweep and corpus: d <= 16 is 26,332 sweep cases, and the
# count grows about fivefold per two degrees (d <= 40 would be 23 million).
MAX_SWEEP_DEGREE = 16
MAX_CORPUS_SIZE = 1000


def exhaustive_monomial(field, d_max: int, n_max: int = MAX_MONOMIAL_GENS):
    """Every exponent set 0 = a_1 < ... < a_n = d with d <= d_max, n <= n_max."""
    out = []
    for d in range(1, d_max + 1):
        for k in range(0, min(n_max, d + 1) - 1):
            for mid in combinations(range(1, d), k):
                out.append(MonomialParam.of(field, d, (0, *mid, d)))
    return out


def random_monomial(field, rng: random.Random, d_max: int = 40) -> MonomialParam:
    d = rng.randint(1, d_max)
    n = rng.randint(2, min(d + 1, MAX_MONOMIAL_GENS))
    mid = sorted(rng.sample(range(1, d), n - 2))
    return MonomialParam.of(field, d, (0, *mid, d))


def random_dense(field, rng: random.Random, n_range=(2, 6), d_max: int = 15) -> Parameterization:
    """A random parameterization with dense coefficients, rejection-sampled."""
    while True:
        n = rng.randint(*n_range)
        d = rng.randint(n, d_max)
        gens = [
            form(field, [field.rand(rng) for _ in range(d + 1)]) for _ in range(n)
        ]
        try:
            return Parameterization.build(field, gens)
        except CurvemapError:
            continue


def monomial_corpus(field, size: int, seed: int = 0, d_max: int = 40):
    rng = random.Random(f"corpus-monomial:{seed}")
    return [random_monomial(field, rng, d_max) for _ in range(size)]


def dense_corpus(field, size: int, seed: int = 0, n_range=(2, 6), d_max: int = 15):
    rng = random.Random(f"corpus-dense:{seed}")
    return [random_dense(field, rng, n_range, d_max) for _ in range(size)]
