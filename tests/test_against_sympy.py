"""Differential tests against sympy, an independent implementation.

sympy is optional; without it the module is skipped.  Inputs are seeded:
60-128-bit numbers built from known primes with at most one factor above
2**40, so both sides factor them quickly, and perfect powers r**e of
20-40-bit primes r, which factorize must take apart by root extraction.
"""

import random

import pytest

sympy = pytest.importorskip("sympy")

from primroots.construct import smallest_primitive_root
from primroots.modarith import factorize, is_prime
from primroots.orders import order

SEED = 0x5EED


def _prime(rng, bits):
    while True:
        n = rng.getrandbits(bits) | 1 << (bits - 1) | 1
        if sympy.isprime(n):
            return n


def _composites(rng, count):
    # Small factors up to 28 bits, then one prime (possibly above 2**40)
    # that brings the total to the target size.
    out = []
    while len(out) < count:
        target = rng.randint(60, 128)
        n = 1
        while n.bit_length() < target - 40:
            n *= _prime(rng, rng.randint(8, 28)) ** rng.randint(1, 3)
        rest = target - n.bit_length()
        if rest >= 2:
            n *= _prime(rng, rest)
        if 60 <= n.bit_length() <= 128:
            out.append(n)
    return out


def _perfect_powers(rng, count):
    out = []
    for _ in range(count):
        r = _prime(rng, rng.randint(20, 40))
        out.append(r ** rng.randint(2, 128 // r.bit_length()))
    return out


@pytest.fixture(scope="module")
def inputs():
    rng = random.Random(SEED)
    return {
        "composites": _composites(rng, 60),
        "powers": _perfect_powers(rng, 60),
        "primes": [_prime(rng, rng.randint(20, 64)) for _ in range(60)],
        "odd": [rng.getrandbits(rng.randint(60, 128)) | 1 for _ in range(200)],
        "rng": rng,
    }


def test_factorize_matches_factorint(inputs):
    for n in inputs["composites"] + inputs["powers"]:
        assert factorize(n) == sorted(sympy.factorint(n).items()), n


def test_is_prime_matches_isprime(inputs):
    values = inputs["odd"] + inputs["primes"] + inputs["powers"]
    values += [n + d for n in inputs["composites"] for d in (-2, -1, 1, 2)]
    for n in values:
        assert is_prime(n) == sympy.isprime(n), n


def test_order_matches_n_order(inputs):
    # prime powers and twice them, whose p - 1 is small enough to factor,
    # and composites of small primes, which have no primitive roots
    rng = inputs["rng"]
    moduli = [m * f for m in inputs["powers"][:20] for f in (1, 2)]
    moduli += [_prime(rng, 40) ** 2 * 2 for _ in range(5)]
    small = [n for n in inputs["composites"] if all(p < 2**40 for p in sympy.factorint(n))]
    moduli += small[:10]
    for n in moduli:
        for _ in range(3):
            a = rng.randrange(2, n)
            while sympy.gcd(a, n) != 1:
                a = rng.randrange(2, n)
            assert order(a, n) == sympy.n_order(a, n), (a, n)


def test_smallest_primitive_root_matches_primitive_root(inputs):
    for p in inputs["primes"]:
        assert smallest_primitive_root(p) == sympy.primitive_root(p), p
