import random

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from primroots.errors import DomainError, NotInvertibleError
from primroots.modarith import (
    euler_phi,
    factorize,
    gcd,
    is_prime,
    mod_inverse,
    pow_mod,
)


@st.composite
def coprime_pair(draw, max_n=10**6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    a = draw(
        st.integers(min_value=1, max_value=max_n).filter(lambda x: gcd(x, n) == 1)
    )
    return a, n


def test_pow_mod_examples():
    assert pow_mod(2, 10, 1000) == 24
    # numerator of the exceptional-shift formula for g = 2, p = 3:
    # 1 - 2**2 = -3 once reduced mod 9
    assert pow_mod(2, 3 - 1, 9) == 4
    assert 1 - pow_mod(2, 2, 9) == -3


@pytest.mark.parametrize("a", [0, 1, 2, 7, 10**30])
@pytest.mark.parametrize("m", [1, 2, 97, 10**12 + 39])
def test_pow_mod_zero_exponent_is_one(a, m):
    assert pow_mod(a, 0, m) == 1 % m


def test_pow_mod_rejects_zero_modulus():
    with pytest.raises(DomainError):
        pow_mod(2, 3, 0)
    with pytest.raises(DomainError):
        pow_mod(2, -1, 5)


def test_pow_mod_matches_naive_repeated_multiplication():
    for modulus in range(1, 100):
        for base in range(50):
            acc = 1 % modulus
            for exp in range(50):
                assert pow_mod(base, exp, modulus) == acc
                acc = acc * base % modulus


@given(coprime_pair())
def test_euler_theorem(pair):
    a, n = pair
    assert pow_mod(a, euler_phi(n), n) == 1 % n


def test_gcd_examples():
    assert gcd(12, 18) == 6
    assert gcd(8, 9) == 1  # 8 sits in the reduced residue system mod 9
    assert gcd(0, 0) == 0


@given(st.integers(min_value=0, max_value=10**24))
def test_gcd_identity(a):
    assert gcd(a, 0) == a


def test_mod_inverse_examples():
    assert mod_inverse(4, 3) == 1
    assert mod_inverse(32, 5) == 3
    assert mod_inverse(108, 5) == 2


def test_mod_inverse_reports_offending_gcd():
    with pytest.raises(NotInvertibleError) as exc:
        mod_inverse(6, 9)
    assert exc.value.gcd == 3
    with pytest.raises(DomainError):
        mod_inverse(1, 1)


@given(coprime_pair())
def test_mod_inverse_is_a_witness(pair):
    a, n = pair
    if n < 2:
        return
    b = mod_inverse(a, n)
    assert 1 <= b < n
    assert pow_mod(a * b, 1, n) == 1


def test_factorize_examples():
    assert factorize(54) == [(2, 1), (3, 3)]
    assert factorize(1) == []
    assert factorize(81) == [(3, 4)]
    with pytest.raises(DomainError):
        factorize(0)


def test_factorize_reassembles_up_to_1e5():
    for n in range(1, 100001):
        value = 1
        prev = 0
        for p, e in factorize(n):
            assert p > prev, "primes must strictly increase"
            prev = p
            value *= p**e
        assert value == n


def test_factorize_random_64bit():
    rng = random.Random(0xC0FFEE)
    for _ in range(1000):
        n = rng.getrandbits(64) | 1 << 63
        value = 1
        for p, e in factorize(n):
            assert is_prime(p)
            value *= p**e
        assert value == n


@given(st.integers(min_value=2, max_value=2**80))
@settings(max_examples=50)
def test_factorize_reassembles_large(n):
    value = 1
    for p, e in factorize(n):
        assert is_prime(p)
        value *= p**e
    assert value == n


def test_factorize_strips_perfect_powers():
    # Pollard rho on p**e needs about sqrt(p) steps; root extraction none.
    p = 10**20 + 39
    assert factorize(p**2) == [(p, 2)]
    assert factorize(p**6) == [(p, 6)]
    assert factorize(2**5 * 7**3 * p**4) == [(2, 5), (7, 3), (p, 4)]
    r, s = 1_000_003, 1_000_033
    assert factorize((r * s) ** 3) == [(r, 3), (s, 3)]
    assert factorize(r**2 * s**3) == [(r, 2), (s, 3)]
    assert euler_phi(p**3) == p**2 * (p - 1)


def test_euler_phi_examples():
    assert euler_phi(9) == 6
    assert euler_phi(81) == 54
    # phi(54) must agree with the 18 primitive roots of 81: phi(phi(81))
    assert euler_phi(54) == 18
    assert euler_phi(1) == 1
    with pytest.raises(DomainError):
        euler_phi(0)


def test_euler_phi_matches_coprime_count_up_to_1e4():
    for n in range(1, 10001):
        brute = int(np.count_nonzero(np.gcd(np.arange(1, n + 1), n) == 1))
        assert euler_phi(n) == brute


def test_is_prime_against_sieve():
    limit = 20000
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    for n in range(limit + 1):
        assert is_prime(n) == bool(sieve[n])


def test_is_prime_large_values():
    assert is_prime(2**61 - 1)
    assert not is_prime(2**67 - 1)  # = 193707721 * 761838257287
    assert is_prime(10**40 + 121)
    assert not is_prime(10**40 + 123)
