"""Arbitrary-precision modular arithmetic on Python's native integers.

Every scalar here is a plain ``int`` and nothing assumes a word size, so
moduli like p**(k+1) stay exact no matter how large they grow.  In files and
JSON, values travel as decimal strings (no sign, no leading zeros).
"""

from __future__ import annotations

import math
import random

from .errors import DomainError, NotInvertibleError

# Trial division handles every prime factor up to this bound; Pollard's rho
# takes over for whatever cofactor is left.  Rho finds a factor q in about
# sqrt(q) steps, so past this bound it is the cheaper of the two.
_TRIAL_LIMIT = 1_000

# Thresholds under which the listed Miller-Rabin bases are a proven primality
# certificate.  Inputs beyond the table fall back to the final base set plus
# a few more small primes, which no known composite passes.
_MR_THRESHOLDS = (
    (2_047, (2,)),
    (1_373_653, (2, 3)),
    (9_080_191, (31, 73)),
    (25_326_001, (2, 3, 5)),
    (3_215_031_751, (2, 3, 5, 7)),
    (4_759_123_141, (2, 7, 61)),
    (1_122_004_669_633, (2, 13, 23, 1662803)),
    (2_152_302_898_747, (2, 3, 5, 7, 11)),
    (3_474_749_660_383, (2, 3, 5, 7, 11, 13)),
    (341_550_071_728_321, (2, 3, 5, 7, 11, 13, 17)),
    (3_825_123_056_546_413_051, (2, 3, 5, 7, 11, 13, 17, 19, 23)),
    (318_665_857_834_031_151_167_461, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
    (3_317_044_064_679_887_385_961_981, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)),
)
_MR_FALLBACK_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)


def pow_mod(base: int, exp: int, modulus: int) -> int:
    """base**exp mod modulus in [0, modulus), by square-and-multiply."""
    if modulus < 1:
        raise DomainError(f"modulus must be >= 1, got {modulus}")
    if exp < 0:
        raise DomainError(f"exponent must be >= 0, got {exp}")
    return pow(base, exp, modulus)


def gcd(a: int, b: int) -> int:
    """Greatest common divisor, with gcd(0, 0) = 0."""
    return math.gcd(a, b)


def mod_inverse(a: int, n: int) -> int:
    """The b in [1, n) with a*b = 1 mod n, via the extended Euclidean algorithm.

    Raises NotInvertibleError (carrying the offending gcd) when a is not a
    unit mod n.
    """
    if n < 2:
        raise DomainError(f"inverse needs a modulus >= 2, got {n}")
    old_r, r = a % n, n
    old_s, s = 1, 0
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
    if old_r != 1:
        raise NotInvertibleError(a, n, old_r)
    return old_s % n


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for bound, bases in _MR_THRESHOLDS:
        if n < bound:
            break
    else:
        bases = _MR_FALLBACK_BASES
    for a in bases:
        a %= n
        if a in (0, 1, n - 1):
            continue
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


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of odd composite n, by Brent's cycle variant.

    The generator is seeded from n so repeated runs factor identically.
    """
    rng = random.Random(n)
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                # The sign of x - y does not change any gcd with n.
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g


def _iroot(n: int, k: int) -> int:
    """Floor of the k-th root of n, by integer Newton iteration."""
    if n < 2 or k == 1:
        return n
    x = 1 << ((n.bit_length() + k - 1) // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _perfect_power(n: int) -> tuple[int, int]:
    """(r, e) with n = r**e and e as large as possible, for n > _TRIAL_LIMIT
    with no prime factor up to _TRIAL_LIMIT.

    Such an r exceeds _TRIAL_LIMIT, which bounds the exponents worth trying.
    """
    e = 2
    while True:
        r = _iroot(n, e)
        if r <= _TRIAL_LIMIT:
            return n, 1
        if r ** e == n:
            root, inner = _perfect_power(r)
            return root, e * inner
        e += 1


def _trial_divide(n: int) -> tuple[dict[int, int], int]:
    """The prime factors of n >= 1 up to _TRIAL_LIMIT, and the cofactor left.

    The cofactor is 1, a prime, or a number with no prime factor up to
    _TRIAL_LIMIT.
    """
    counts: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            counts[p] = counts.get(p, 0) + 1
            n //= p
    d = 5
    while d <= _TRIAL_LIMIT and d * d <= n:
        for p in (d, d + 2):
            while n % p == 0:
                counts[p] = counts.get(p, 0) + 1
                n //= p
        d += 6
    return counts, n


def _factor_into(n: int, counts: dict[int, int], mult: int = 1) -> None:
    # Adds mult times the factorization of n > 1, whose prime factors all
    # exceed _TRIAL_LIMIT.  Perfect powers are split by root extraction:
    # Pollard's rho on p**e would need about sqrt(p) steps.
    if is_prime(n):
        counts[n] = counts.get(n, 0) + mult
        return
    r, e = _perfect_power(n)
    if e > 1:
        _factor_into(r, counts, mult * e)
        return
    d = _pollard_rho(n)
    _factor_into(d, counts, mult)
    _factor_into(n // d, counts, mult)


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as (prime, exponent) pairs, primes ascending.

    factorize(1) is the empty list.  Trial division runs up to 10**3.  A
    larger cofactor that is a perfect power is replaced by its root; the
    rest are split by Pollard's rho (Brent's variant), and every prime is
    certified by Miller-Rabin.
    """
    if n < 1:
        raise DomainError(f"factorization needs n >= 1, got {n}")
    counts, rest = _trial_divide(n)
    if rest > 1:
        _factor_into(rest, counts)
    return sorted(counts.items())


def euler_phi(n: int) -> int:
    """Euler's totient: how many of 1..n are coprime to n.  phi(1) = 1."""
    if n < 1:
        raise DomainError(f"totient needs n >= 1, got {n}")
    result = 1
    for p, e in factorize(n):
        result *= (p - 1) * p ** (e - 1)
    return result
