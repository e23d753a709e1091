"""Number theory the benchmark checks answers with.

Written apart from ``primroots`` on purpose: an answer counts as correct only
when code that shares nothing with the program under test agrees with it.
Every input the generators draw comes with the factorization of its totient,
so checks never have to factor anything large.
"""

from __future__ import annotations

import math
import random

SMALL_PRIMES = tuple(
    n for n in range(3, 1000) if all(n % d for d in range(2, math.isqrt(n) + 1))
)

# Miller-Rabin with the first 13 primes as bases is a proof below 3.3e24;
# above it these 20 bases leave no known composite.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
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


def trial_factor(n: int) -> dict[int, int]:
    """Factor n by trial division; only used on values below about 10**10."""
    fact: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            fact[d] = fact.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        fact[n] = fact.get(n, 0) + 1
    return fact


def merge(*facts: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for fact in facts:
        for q, e in fact.items():
            out[q] = out.get(q, 0) + e
    return out


def value(fact: dict[int, int]) -> int:
    return math.prod(q ** e for q, e in fact.items())


def phi(fact: dict[int, int]) -> int:
    """Euler's totient of the number whose factorization is fact."""
    return math.prod((q - 1) * q ** (e - 1) for q, e in fact.items())


def phi_fact(fact: dict[int, int]) -> dict[int, int]:
    """Factorization of phi(n) from that of n (prime factors of q - 1 by trial)."""
    parts = []
    for q, e in fact.items():
        if e > 1:
            parts.append({q: e - 1})
        parts.append(trial_factor(q - 1))
    return merge(*parts)


def is_generator(a: int, n: int, phi_n: dict[int, int]) -> bool:
    """Whether a has order phi(n) mod n, from the factorization of phi(n)."""
    if math.gcd(a, n) != 1:
        return False
    t = value(phi_n)
    return n == 1 or all(pow(a, t // q, n) != 1 for q in phi_n)


def is_order(m: int, a: int, n: int, phi_n: dict[int, int]) -> bool:
    """Certificate that m is the multiplicative order of a mod n."""
    if m < 1 or value(phi_n) % m or pow(a, m, n) != 1 % n:
        return False
    return all(pow(a, m // q, n) != 1 for q in phi_n if m % q == 0)


def random_prime(rng: random.Random, bits: int) -> int:
    while True:
        p = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_prime(p):
            return p


def prime_near(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        p = rng.randrange(lo, hi) | 1
        if is_prime(p):
            return p


def smooth_prime(rng: random.Random, bits: int, big: tuple[int, int]) -> tuple[int, dict[int, int]]:
    """A prime p of about `bits` bits with p - 1 = 2 * P1 * P2 * (primes < 1000).

    P1 and P2 are primes of the given bit sizes, so p - 1 has two factors
    beyond any fixed trial-division limit below 2**big[0] and its full
    factorization is known without factoring.
    """
    while True:
        fact = merge({2: 1}, {random_prime(rng, big[0]): 1}, {random_prime(rng, big[1]): 1})
        n = value(fact)
        while n.bit_length() < bits - 9:
            q = rng.choice(SMALL_PRIMES)
            fact = merge(fact, {q: 1})
            n *= q
        if is_prime(n + 1):
            return n + 1, fact
