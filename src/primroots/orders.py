"""Multiplicative orders and the classification of moduli with primitive roots."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError
from .modarith import _iroot, _trial_divide, factorize, gcd, is_prime, pow_mod


@dataclass(frozen=True)
class ModulusClass:
    """Which family a modulus falls into.

    Only 1, 2, 4, p**k and 2*p**k (p an odd prime, k >= 1) possess primitive
    roots; every other modulus classifies as "no_primitive_roots".  The p and
    k fields are set exactly for the two prime-power kinds.
    """

    kind: str
    p: int | None = None
    k: int | None = None

    def has_primitive_roots(self) -> bool:
        return self.kind != "no_primitive_roots"

    def to_json(self) -> dict:
        doc: dict = {"kind": self.kind}
        if self.p is not None:
            doc["p"] = str(self.p)
            doc["k"] = self.k
        return doc


def _as_odd_prime_power(m: int) -> tuple[int, int] | None:
    """(p, k) with m = p**k for an odd prime p, or None.

    Exponents are recovered by exact integer root extraction, never through
    floating-point logarithms.
    """
    for k in range(1, m.bit_length() + 1):
        r = _iroot(m, k)
        if r < 3:
            return None
        if r ** k == m and is_prime(r):
            return r, k
    return None


def classify_modulus(n: int) -> ModulusClass:
    """Classify n >= 1 by whether and why it has primitive roots."""
    if n < 1:
        raise DomainError(f"classification needs n >= 1, got {n}")
    if n == 1:
        return ModulusClass("one")
    if n == 2:
        return ModulusClass("two")
    if n == 4:
        return ModulusClass("four")
    if n % 2:
        pk = _as_odd_prime_power(n)
        if pk:
            return ModulusClass("odd_prime_power", *pk)
    elif n % 4:
        pk = _as_odd_prime_power(n // 2)
        if pk:
            return ModulusClass("twice_odd_prime_power", *pk)
    return ModulusClass("no_primitive_roots")


def _classify_with_roots(n: int) -> ModulusClass:
    """The classification of n, raising DomainError when n has no primitive roots.

    The message names only the factors trial division finds and shows any
    cofactor left as it is, so a refusal never waits on Pollard's rho.
    """
    cls = classify_modulus(n)
    if cls.has_primitive_roots():
        return cls
    counts, rest = _trial_divide(n)
    parts = [f"{p}^{e}" if e > 1 else str(p) for p, e in sorted(counts.items())]
    if rest > 1 and parts:
        parts.append(str(rest))
    shape = f" = {' * '.join(parts)}" if parts else ""
    raise DomainError(f"{n}{shape} has no primitive roots (classified as {cls.kind!r})")


def _phi_and_primes(n: int, cls: ModulusClass) -> tuple[int, list[int]]:
    """phi(n) and the primes dividing it, ascending, for n >= 1 classified as cls.

    For p**k and 2*p**k, phi is p**(k-1) * (p-1), so only p - 1 is
    factored and p joins its primes when k >= 2.  Other moduli are factored
    whole, and then only p - 1 for each of their primes p.
    """
    fact = [(cls.p, cls.k)] if cls.p is not None else factorize(n)
    phi = 1
    primes: set[int] = set()
    for p, e in fact:
        phi *= (p - 1) * p ** (e - 1)
        primes.update(q for q, _ in factorize(p - 1))
        if e > 1:
            primes.add(p)
    return phi, sorted(primes)


def order(a: int, n: int) -> int:
    """The least m >= 1 with a**m = 1 mod n, for a coprime to n.

    Starts from phi(n), which the order must divide, and divides out each
    prime of phi(n) for as long as the power still comes to 1.  This never
    scans exponents one by one.
    """
    if n < 1:
        raise DomainError(f"order needs a modulus >= 1, got {n}")
    if n == 1:
        return 1
    a %= n
    g = gcd(a, n)
    if g != 1:
        raise DomainError(f"order undefined: gcd({a}, {n}) = {g} != 1")
    t, primes = _phi_and_primes(n, classify_modulus(n))
    for q in primes:
        while t % q == 0 and pow_mod(a, t // q, n) == 1:
            t //= q
    return t


def is_primitive_root(a: int, n: int) -> bool:
    """True when a generates the units mod n, i.e. its order is phi(n).

    Non-coprime a yields False rather than an error, so the predicate can
    filter whole residue ranges; so does a modulus without primitive roots.
    For p**k and 2*p**k with k >= 3 the test runs mod p**2 or 2*p**2: past
    k = 2 the lift is exception-free, so a generates mod p**k exactly when
    it generates mod p**2.
    """
    if n < 1:
        raise DomainError(f"modulus must be >= 1, got {n}")
    if n == 1:
        return True
    a %= n
    if gcd(a, n) != 1:
        return False
    cls = classify_modulus(n)
    if not cls.has_primitive_roots():
        return False
    if cls.k is not None and cls.k > 2:
        n //= cls.p ** (cls.k - 2)
        cls = ModulusClass(cls.kind, cls.p, 2)
    phi, primes = _phi_and_primes(n, cls)
    return all(pow_mod(a, phi // q, n) != 1 for q in primes)


def count_primitive_roots(n: int) -> int:
    """phi(phi(n)), the number of primitive roots of n when it has any."""
    phi, primes = _phi_and_primes(n, _classify_with_roots(n))
    for q in primes:
        phi = phi // q * (q - 1)
    return phi
