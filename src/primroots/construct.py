"""Constructive enumeration of primitive roots.

The pipeline builds the full primitive-root set of any modulus that has one,
without searching:

  * roots of an odd prime p: powers g**e of the least root g, e coprime to p-1;
  * roots of p**2: g + t*p over every root g of p and every t in [0, p) except
    a single exceptional t given by a closed formula;
  * roots of p**(k+1), k >= 2: g + t*p**k for every root g of p**k and every
    t in [0, p), no exceptions;
  * roots of 2*p**k: the odd one of g and g + p**k per root g of p**k.

Each step is exhaustive, so composing them enumerates every root exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import DomainError, RootSetTooLargeError
from .modarith import euler_phi, factorize, gcd, is_prime, mod_inverse, pow_mod
from .orders import (
    _classify_with_roots,
    classify_modulus,
    count_primitive_roots,
    is_primitive_root,
)

# primitive_roots() refuses to materialize more roots than this unless told
# otherwise; the streaming iterator has no such limit.
DEFAULT_ROOT_LIMIT = 10_000_000

# The streaming iterator tests candidate roots of p one by one up to
# p // _SCAN_SHARE, then takes the rest from powers of the least root: testing
# is cheap for a short prefix, powers are cheaper per root for the whole set.
_SCAN_SHARE = 64


@dataclass(frozen=True)
class PrimitiveRootSet:
    """Primitive roots of a modulus within {1 <= a <= modulus}, ascending."""

    modulus: int
    roots: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "modulus": str(self.modulus),
            "phi": str(euler_phi(self.modulus)),
            "count": str(len(self.roots)),
            "roots": [str(r) for r in self.roots],
        }


def exceptional_t(g: int, p: int) -> int:
    """The single t in [0, p) for which g + t*p fails to generate mod p**2.

    Computed as ((1 - g**(p-1)) / p) * ((p-1) * g**(p-2))**-1 mod p.  The
    power g**(p-1) is reduced mod p**2 first: only its residue there matters,
    and Fermat guarantees the numerator is exactly divisible by p.
    """
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    if not 1 <= g < p:
        raise DomainError(f"g = {g} must lie in [1, {p})")
    if not is_primitive_root(g, p):
        raise DomainError(f"{g} is not a primitive root of {p}")
    shrunk = (1 - pow_mod(g, p - 1, p * p)) // p
    denom = (p - 1) * pow_mod(g, p - 2, p) % p
    return shrunk * mod_inverse(denom, p) % p


def lift_prime_to_square(g: int, p: int) -> list[int]:
    """The p - 1 primitive roots of p**2 of the form g + t*p, ascending.

    Every t in [0, p) works except exceptional_t(g, p).
    """
    skip = exceptional_t(g, p)
    return [g + t * p for t in range(p) if t != skip]


def lift_power(g: int, p: int, k: int) -> list[int]:
    """The p primitive roots g + t*p**k of p**(k+1), for g a root of p**k.

    Valid only for odd p and k >= 2; the step from p to p**2 has an
    exceptional t and belongs to lift_prime_to_square.
    """
    if k < 2:
        raise DomainError(
            f"lift_power needs k >= 2, got {k}; use lift_prime_to_square for the p -> p**2 step"
        )
    if p == 2 or not is_prime(p):
        raise DomainError(f"{p} is not an odd prime")
    pk = p ** k
    if not 1 <= g < pk or not is_primitive_root(g, pk):
        raise DomainError(f"{g} is not a primitive root of {p}**{k}")
    return [g + t * pk for t in range(p)]


def to_twice_prime_power(g: int, p: int, k: int) -> int:
    """The primitive root of 2*p**k induced by a root g of p**k.

    g itself if g is odd, else g + p**k; the odd one of the two.
    """
    if p == 2 or not is_prime(p):
        raise DomainError(f"{p} is not an odd prime")
    if k < 1:
        raise DomainError(f"exponent k must be >= 1, got {k}")
    pk = p ** k
    if not 1 <= g < pk or not is_primitive_root(g, pk):
        raise DomainError(f"{g} is not a primitive root of {p}**{k}")
    return g if g % 2 else g + pk


def from_generator(g: int, n: int) -> PrimitiveRootSet:
    """Every primitive root of n as a power of one known root g.

    The roots are exactly g**e mod n for 1 <= e <= phi(n) with e coprime to
    phi(n), normalized into [1, n].
    """
    if n < 1:
        raise DomainError(f"modulus must be >= 1, got {n}")
    if not is_primitive_root(g, n):
        raise DomainError(f"{g} is not a primitive root of {n}")
    phi = euler_phi(n)
    g %= n
    roots = []
    x = 1
    for e in range(1, phi + 1):
        x = x * g % n
        if gcd(e, phi) == 1:
            roots.append(x if x else n)
    return PrimitiveRootSet(n, tuple(sorted(roots)))


def _prime_roots(p: int) -> Iterator[int]:
    # The primitive roots of the odd prime p, ascending, found only as far as
    # the consumer pulls (see _SCAN_SHARE for the hand-over).
    exponents = [(p - 1) // q for q, _ in factorize(p - 1)]
    bound = p // _SCAN_SHARE
    least = None
    g = 1
    while least is None or g < bound:
        g += 1
        if all(pow(g, e, p) != 1 for e in exponents):
            least = least or g
            yield g
    for root in from_generator(least, p).roots:
        if root > g:
            yield root


def smallest_primitive_root(p: int) -> int:
    """The least primitive root of a prime p."""
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    if p == 2:
        return 1
    return next(_prime_roots(p))


def check_root_count(n: int, max_roots: int | None = DEFAULT_ROOT_LIMIT) -> int:
    """Number of primitive roots of n, refusing moduli with none or too many."""
    count = count_primitive_roots(n)
    if max_roots is not None and count > max_roots:
        raise RootSetTooLargeError(n, count, max_roots)
    return count


def _prime_power_roots(p: int, k: int) -> list[int]:
    # All primitive roots of p**k for odd p, in construction order.  Levels
    # past p**2 need no per-root validation: the lift is exception-free.
    base = from_generator(smallest_primitive_root(p), p).roots
    if k == 1:
        return list(base)
    level = []
    for g in base:
        skip = exceptional_t(g, p)
        level.extend(g + t * p for t in range(p) if t != skip)
    for j in range(2, k):
        pj = p ** j
        level = [g + t * pj for g in level for t in range(p)]
    return level


def primitive_roots(n: int, max_roots: int | None = DEFAULT_ROOT_LIMIT) -> PrimitiveRootSet:
    """The complete, sorted primitive-root set of n.

    Dispatches on the classification of n: the fixed sets for 1, 2 and 4,
    generator powers for a prime, lift chains for higher prime powers, and
    the parity rule for twice a prime power.  Raises for moduli with no
    primitive roots, or when the set would exceed max_roots (pass None to
    lift the limit).
    """
    check_root_count(n, max_roots)
    cls = classify_modulus(n)
    if cls.kind == "one":
        return PrimitiveRootSet(1, (1,))
    if cls.kind == "two":
        return PrimitiveRootSet(2, (1,))
    if cls.kind == "four":
        return PrimitiveRootSet(4, (3,))
    roots = _prime_power_roots(cls.p, cls.k)
    if cls.kind == "twice_odd_prime_power":
        pk = cls.p ** cls.k
        roots = [r if r % 2 else r + pk for r in roots]
    return PrimitiveRootSet(n, tuple(sorted(roots)))


def _chains(g: int, p: int, k: int) -> Iterator[int]:
    # Every root of p**k whose chain starts at the root g of p: the shift
    # vector (t_1, ..., t_{k-1}) runs like an odometer with each level
    # ascending and the deepest level fastest, t_1 dodging the exceptional
    # value.  Iterative, so neither large p nor large k stresses the stack.
    if k == 1:
        yield g
        return
    skip = exceptional_t(g, p)
    first_min = 1 if skip == 0 else 0
    strides = [p ** j for j in range(1, k)]
    digits = [0] * (k - 1)
    digits[0] = first_min
    value = g + first_min * strides[0]
    while True:
        yield value
        i = k - 2
        while i >= 0:
            nxt = digits[i] + 1
            if i == 0 and nxt == skip:
                nxt += 1
            if nxt < p:
                value += (nxt - digits[i]) * strides[i]
                digits[i] = nxt
                break
            low = first_min if i == 0 else 0
            value -= (digits[i] - low) * strides[i]
            digits[i] = low
            i -= 1
        else:
            return


def iter_primitive_roots(n: int) -> Iterator[int]:
    """Yield the primitive roots of n in construction order, unsorted.

    Streaming form of primitive_roots: per base root of the underlying
    prime (ascending), lift choices are walked depth-first with t ascending,
    so nothing beyond the prime's own root set is ever materialized and no
    size limit applies.  The roots of the prime are found lazily, so a
    prefix of the stream costs little even for a prime of many digits.
    """
    cls = _classify_with_roots(n)
    if cls.kind == "one":
        yield 1
        return
    if cls.kind == "two":
        yield 1
        return
    if cls.kind == "four":
        yield 3
        return
    p, k = cls.p, cls.k
    pk = p ** k
    for g in _prime_roots(p):
        for root in _chains(g, p, k):
            if cls.kind == "twice_odd_prime_power" and root % 2 == 0:
                yield root + pk
            else:
                yield root
