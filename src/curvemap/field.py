"""Exact coefficient fields: a large prime field and arbitrary-precision rationals.

Scalars are plain Python values, ints in ``[0, p)`` for the prime field and
``fractions.Fraction`` (always reduced) for the rationals.  The field object
carries the arithmetic; there is no wrapper element type.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import InstanceError

DEFAULT_PRIME = 2147483647
MIN_PRIME = 1 << 20
# the int64 kernels in linalg multiply two residues, so p must stay below 2**31
MAX_PRIME = (1 << 31) - 1

# Witness set making Miller-Rabin deterministic for all n < 3.3 * 10**24;
# its first four already decide every n < 3,215,031,751, so every modulus
# below 2**31 (Pomerance, Selfridge, Wagstaff 1980).
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_FOUR_WITNESSES_BELOW = 3_215_031_751

# Coordinate box for random sampling in rational mode.
_RATIONAL_BOX = 10**6


def _is_prime(n: int) -> bool:
    """Deterministic primality test, exact for every integer below 3.3e24."""
    if n < 2:
        return False
    for q in _WITNESSES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES[:4] if n < _FOUR_WITNESSES_BELOW else _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# every command builds its field, so the verdict on a modulus is kept
is_prime = lru_cache(maxsize=256)(_is_prime)


def reduction_primes():
    """DEFAULT_PRIME, then each prime below it down to MIN_PRIME, in decreasing order.

    Found lazily by the uncached test, one at a time, and kept
    (_prime_below): nothing is searched at import, and a later call walks
    the primes found before without testing them again.
    """
    q = DEFAULT_PRIME
    while q:
        yield q
        q = _prime_below(q)


@lru_cache(maxsize=None)
def _prime_below(q: int):
    """The largest prime below the odd q and at least MIN_PRIME, or None."""
    return next((c for c in range(q - 2, MIN_PRIME - 1, -2) if _is_prime(c)), None)


class PrimeField:
    """Residues modulo a prime 2**20 <= p < 2**31, stored as ints in [0, p)."""

    __slots__ = ("p",)
    modular = True

    def __init__(self, p: int = DEFAULT_PRIME):
        if p < MIN_PRIME:
            raise InstanceError(f"prime modulus must be at least 2**20, got {p}")
        if p > MAX_PRIME:
            raise InstanceError(f"prime modulus must be below 2**31, got {p}")
        if not is_prime(p):
            raise InstanceError(f"modulus {p} is not prime")
        self.p = p

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def conv(self, value):
        """Coerce an int or Fraction into a residue."""
        if isinstance(value, Fraction):
            return value.numerator % self.p * pow(value.denominator, -1, self.p) % self.p
        return value % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def div(self, a, b):
        return a * self.inv(b) % self.p

    def rand(self, rng):
        return rng.randrange(self.p)

    def fmt(self, a) -> str:
        """Balanced representative, so small negative values print readably."""
        return str(a - self.p if a > self.p // 2 else a)

    def json_config(self):
        return {"mode": "prime", "p": self.p}

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


class RationalField:
    """The rationals, via fractions.Fraction."""

    __slots__ = ()
    modular = False

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def conv(self, value):
        return Fraction(value)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero")
        return Fraction(a) / b

    def rand(self, rng):
        return Fraction(rng.randint(-_RATIONAL_BOX, _RATIONAL_BOX))

    def reduction(self, rows):
        """(F_q, rows mod q) for q = DEFAULT_PRIME, or None when q divides a
        denominator.

        Scaling rows by denominators prime to q makes them integral without
        changing a rank on either side, and a minor that is nonzero mod q is
        nonzero, so a rank mod q is never above the rank over QQ.
        """
        if any(v.denominator % DEFAULT_PRIME == 0 for row in rows for v in row):
            return None
        return _REDUCTION, [[_REDUCTION.conv(v) for v in row] for row in rows]

    def residue_fields(self):
        """F_p for each p of reduction_primes(), DEFAULT_PRIME first."""
        return map(PrimeField, reduction_primes())

    def fmt(self, a) -> str:
        return str(a)

    def json_config(self):
        return {"mode": "rational"}

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rational")

    def __repr__(self):
        return "RationalField()"


QQ = RationalField()
_REDUCTION = PrimeField(DEFAULT_PRIME)
