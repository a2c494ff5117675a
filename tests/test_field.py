import random
from fractions import Fraction
from itertools import islice

import pytest

from curvemap import DEFAULT_PRIME, QQ, InstanceError, PrimeField
from curvemap.field import _is_prime, is_prime, reduction_primes


def test_default_prime_is_a_large_prime():
    assert is_prime(DEFAULT_PRIME)
    assert DEFAULT_PRIME >= 2**20


def test_is_prime_on_known_values():
    assert is_prime(2) and is_prime(3) and is_prime(65537)
    assert is_prime(2147483647)
    assert is_prime(2147483629)
    assert is_prime(1073741827)
    assert not is_prime(1)
    assert not is_prime(2147483649)
    assert not is_prime(2**31)


def trial_division(n):
    return n >= 2 and all(n % k for k in range(2, int(n**0.5) + 1))


def test_four_witnesses_decide_below_their_bound():
    # strong pseudoprimes to the bases 2, 3, 5 and to 2, 3, 5, 7: the first
    # is caught by the fourth witness, the second lies above its bound
    assert not is_prime(25326001) and not _is_prime(3215031751)
    rng = random.Random("witnesses")
    for n in [rng.randrange(2**31) for _ in range(300)] + list(range(2000)):
        assert _is_prime(n) == trial_division(n), n


def test_reduction_primes_are_the_primes_below_the_default():
    primes = list(islice(reduction_primes(), 40))
    assert primes[:3] == [DEFAULT_PRIME, 2147483629, 2147483587]
    for q, below in zip(primes, primes[1:]):
        assert not any(trial_division(k) for k in range(below + 1, q)), q
    assert all(trial_division(q) for q in primes)


def test_prime_field_rejects_small_or_composite_modulus():
    with pytest.raises(InstanceError):
        PrimeField(65537)  # prime but below 2^20
    with pytest.raises(InstanceError):
        PrimeField(2**21)  # large but composite


def test_prime_field_arithmetic():
    F = PrimeField(DEFAULT_PRIME)
    p = F.p
    a, b = 123456789, 987654321
    assert F.add(a, b) == (a + b) % p
    assert F.mul(F.inv(a), a) == F.one
    assert F.sub(F.zero, a) == F.neg(a)
    assert F.div(F.mul(a, b), b) == a
    with pytest.raises(ZeroDivisionError):
        F.inv(F.zero)


def test_prime_field_conv_and_balanced_format():
    F = PrimeField(DEFAULT_PRIME)
    assert F.conv(-2) == F.p - 2
    assert F.fmt(F.conv(-2)) == "-2"
    assert F.fmt(F.conv(3)) == "3"
    half = F.conv(Fraction(1, 2))
    assert F.mul(half, F.conv(2)) == F.one
    assert F.json_config() == {"mode": "prime", "p": DEFAULT_PRIME}


def test_rational_field_arithmetic():
    assert QQ.conv(Fraction(2, 4)) == Fraction(1, 2)
    assert QQ.fmt(Fraction(1, 2)) == "1/2"
    assert QQ.fmt(Fraction(-3)) == "-3"
    assert QQ.inv(Fraction(2, 3)) == Fraction(3, 2)
    assert QQ.json_config() == {"mode": "rational"}
    with pytest.raises(ZeroDivisionError):
        QQ.inv(QQ.zero)


def test_rand_is_deterministic_under_a_seeded_rng():
    F = PrimeField(DEFAULT_PRIME)
    a = [F.rand(random.Random("t")) for _ in range(5)]
    b = [F.rand(random.Random("t")) for _ in range(5)]
    assert a == b
    assert all(0 <= v < F.p for v in a)


def test_field_equality_and_hash():
    assert PrimeField(DEFAULT_PRIME) == PrimeField(DEFAULT_PRIME)
    assert PrimeField(DEFAULT_PRIME) != PrimeField(2147483629)
    assert QQ == QQ
    assert len({PrimeField(DEFAULT_PRIME), PrimeField(DEFAULT_PRIME)}) == 1


def test_prime_field_rejects_modulus_beyond_int64_kernels():
    assert PrimeField(2**31 - 1).p == DEFAULT_PRIME
    for p in (2**31 + 11, 2**61 - 1):
        with pytest.raises(InstanceError, match=r"below 2\*\*31"):
            PrimeField(p)
