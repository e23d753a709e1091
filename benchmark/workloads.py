"""The three workloads: seeded inputs, the call each input makes, and its check.

A workload is a list of passes.  Pass ``i`` of seed ``s`` is drawn from its
own generator, so the same seed always gives the same operations and no pass
repeats the inputs of another (a cache in the program cannot turn repeats
into speed).  Each pass has the same make-up: one operation per slot, each
slot drawn from a fixed size band, so that the work per pass hardly depends
on the seed.

Checks run outside the timed region and use ``arith`` (independent of the
program), plus the brute-force ``primroots.oracle`` for desk-scale inputs.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
import random
from dataclasses import dataclass, field

import arith


class Wrong(Exception):
    """An answer the checks reject."""


@dataclass
class Op:
    call: str
    args: tuple
    facts: dict = field(default_factory=dict)


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise Wrong(what)


def _modulus(p: int, k: int, twice: bool) -> tuple[int, dict[int, int]]:
    """n = (2*)p**k and the factorization of phi(n)."""
    n = p ** k * (2 if twice else 1)
    return n, arith.merge({p: k - 1} if k > 1 else {}, arith.trial_factor(p - 1))


def _desk_modulus(rng: random.Random, bound: int) -> tuple[int, int, bool]:
    while True:
        p = arith.prime_near(rng, 3, 60)
        k = rng.randint(1, 4)
        twice = rng.random() < 0.5
        if 5 <= p ** k * (2 if twice else 1) <= bound:
            return p, k, twice


def _ascending(xs: list[int], lo: int, hi: int, what: str) -> None:
    _require(all(a < b for a, b in zip(xs, xs[1:])), f"{what} not strictly ascending")
    _require(not xs or (xs[0] >= lo and xs[-1] <= hi), f"{what} out of [{lo}, {hi}]")


def check_root_set(roots: list[int], n: int, phi_n: dict[int, int], rng: random.Random) -> None:
    """Reject anything but the full primitive-root set of n, ascending.

    The count is phi(phi(n)); a sample of listed values must be generators
    and a sample of values missing from the list must not be.
    """
    _ascending(roots, 1, n, "roots")
    expected = arith.phi(phi_n)
    _require(len(roots) == expected, f"{len(roots)} roots of {n}, expected {expected}")
    for r in rng.sample(roots, min(16, len(roots))):
        _require(arith.is_generator(r, n, phi_n), f"{r} listed but not a root of {n}")
    missing = 0
    while missing < min(16, n - len(roots)):
        x = rng.randint(1, n)
        i = bisect.bisect_left(roots, x)
        if i < len(roots) and roots[i] == x:
            continue
        missing += 1
        _require(not arith.is_generator(x, n, phi_n), f"root {x} of {n} missing")


def check_solutions(sols: list[int], coeffs: tuple[int, ...], m: int, count: int) -> None:
    """Reject anything but `count` distinct solutions of f = 0 mod m, ascending."""
    _ascending(sols, 0, m - 1, "solutions")
    _require(len(sols) == count, f"{len(sols)} solutions mod {m}, expected {count}")
    for x in sols:
        _require(sum(c * x ** i for i, c in enumerate(coeffs)) % m == 0, f"{x} is no solution mod {m}")


# --- enumerate -------------------------------------------------------------

# Every root set of a band has about the same size, so the work of a pass
# hardly depends on the seed; the low end of 2e5-4e5 roots leaves room for
# several passes in a run.
ROOT_WINDOW = (200_000, 240_000)
# (p, k) with k >= 3, p small and phi(phi(p**k)) in ROOT_WINDOW: 7**7 and 31**4.
POWER_BAND = tuple(
    (p, k)
    for p in arith.SMALL_PRIMES[:30]
    for k in range(3, 16)
    if ROOT_WINDOW[0] <= arith.phi(_modulus(p, k, False)[1]) <= ROOT_WINDOW[1]
)
VARIANTS = ((), ("--format", "json"), ("--stream",))


def _windowed(rng: random.Random, lo: int, hi: int, k: int) -> tuple[int, int, bool]:
    """(p, k, False) for a prime p in [lo, hi) with phi(phi(p**k)) in ROOT_WINDOW."""
    while True:
        p = arith.prime_near(rng, lo, hi)
        if ROOT_WINDOW[0] <= arith.phi(_modulus(p, k, False)[1]) <= ROOT_WINDOW[1]:
            return p, k, False


# One root set per band and output form in each pass: sorted text for every
# band, the streamed order (where each root of p gets its exceptional shift)
# and JSON.  Four slow text sets outnumber the fast ones, so the median
# operation is a text set.  The power band has two members, one taken for
# p**k and one for 2*p**k, so every pass does the same work.
ENUMERATE_SETS = (
    ("prime", lambda rng: _windowed(rng, 900_000, 1_100_000, 1), ()),
    ("square", lambda rng: _windowed(rng, 600, 1_500, 2), ()),
    ("square", lambda rng: _windowed(rng, 600, 1_500, 2), ("--stream",)),
    ("power", lambda rng: (*POWER_BAND[0], False), ("--format", "json")),
    ("twice", lambda rng: (*POWER_BAND[1], True), ()),
)
DESK_SETS = 2


class Enumerate:
    """Whole root sets through `primroots list`, one subprocess per set."""

    name = "enumerate"
    in_process = False
    tail = 75

    def make_pass(self, seed: int, index: int) -> list[Op]:
        rng = _rng(self.name, seed, index)
        ops = []
        for band, draw, variant in ENUMERATE_SETS:
            ops.append(self._op(band, *draw(rng), variant))
        for _ in range(DESK_SETS):
            ops.append(self._op("desk", *_desk_modulus(rng, 3000), rng.choice(VARIANTS)))
        return ops

    @staticmethod
    def _op(band: str, p: int, k: int, twice: bool, variant: tuple) -> Op:
        n, phi_n = _modulus(p, k, twice)
        facts = {"band": band, "n": n, "phi": phi_n, "base_roots": arith.phi(arith.trial_factor(p - 1)) if k >= 2 else 0}
        return Op("list", ("list", str(n), *variant), facts)

    def verify(self, op: Op, outcome, rng: random.Random, oracle) -> int:
        _require(outcome.code == 0, f"exit code {outcome.code}: {outcome.stderr.strip()[:200]}")
        n, phi_n = op.facts["n"], op.facts["phi"]
        if "json" in op.args:
            doc = json.loads(outcome.stdout)
            roots = [int(r) for r in doc["roots"]]
            _require(doc["modulus"] == str(n), "json modulus")
            _require(doc["phi"] == str(arith.value(phi_n)), "json phi")
            _require(doc["count"] == str(len(roots)), "json count")
        else:
            roots = [int(r) for r in outcome.stdout.split()]
        if "--stream" in op.args:
            _require(len(set(roots)) == len(roots), "streamed roots repeat")
            roots.sort()
        check_root_set(roots, n, phi_n, rng)
        if op.facts["band"] == "desk":
            _require(tuple(roots) == oracle.brute_primitive_roots(n).roots, f"roots of {n} differ from the oracle")
        return len(roots)


# --- queries ---------------------------------------------------------------

QUERY_FAMILIES = ((1, False), (2, False), (3, False), (1, True), (2, True), (3, True))
BIG_PRIME_BITS = (64, 85, 106, 128)
NO_ROOT_SHAPES = ("p*q", "4*p", "2*p*q", "p**2*q")
PREFIX_NEAR = (100_000, 1_000_000)
QUERY_CALLS = ("classify_modulus", "count_primitive_roots", "is_primitive_root", "order")


def _prefix_prime(rng: random.Random, near: int) -> int:
    # Roots 28-32% of p - 1: the root set that iter_primitive_roots builds
    # first, and the time and memory it takes, vary little between seeds.
    while True:
        p = arith.prime_near(rng, int(near * 0.9), int(near * 1.1))
        if 0.28 <= arith.phi(arith.trial_factor(p - 1)) / (p - 1) <= 0.32:
            return p


def _unit(rng: random.Random, n: int) -> int:
    while True:
        a = rng.randrange(2, n)
        if math.gcd(a, n) == 1:
            return a


def _generator(rng: random.Random, n: int, phi_n: dict[int, int]) -> int:
    while True:
        a = _unit(rng, n)
        if arith.is_generator(a, n, phi_n):
            return a


class Queries:
    """Cheap questions answered in-process: classify, count, check, order, prefix."""

    name = "queries"
    in_process = True
    tail = 90

    def make_pass(self, seed: int, index: int) -> list[Op]:
        # Every operation gets a modulus of its own: the cost of Pollard rho
        # varies a lot from one modulus to the next, and many moduli per
        # pass keep the work per pass steady.
        rng = _rng(self.name, seed, index)
        ops = []
        for slot, (call, (k, twice)) in enumerate(itertools.product(QUERY_CALLS, QUERY_FAMILIES * 2)):
            p = arith.random_prime(rng, rng.randint(24, 32))
            n, phi_n = _modulus(p, k, twice)
            kind = "twice_odd_prime_power" if twice else "odd_prime_power"
            a = _generator(rng, n, phi_n) if call == "is_primitive_root" and slot % 2 else _unit(rng, n)
            ops.append(self._op(call, a, n, phi_n, {"kind": kind, "p": p, "k": k}))
        for call, bits in itertools.product(QUERY_CALLS, BIG_PRIME_BITS):
            p, pm1 = arith.smooth_prime(rng, bits, (rng.randint(22, 26), rng.randint(22, 26)))
            a = _generator(rng, p, pm1) if call == "is_primitive_root" and bits % 2 else _unit(rng, p)
            ops.append(self._op(call, a, p, pm1, {"kind": "odd_prime_power", "p": p, "k": 1}))
        for call, shape in itertools.product(QUERY_CALLS, NO_ROOT_SHAPES):
            n, fact = self._no_roots(rng, shape)
            ops.append(self._op(call, _unit(rng, n), n, arith.phi_fact(fact), {"kind": "no_primitive_roots"}))
        for near in PREFIX_NEAR:
            p = _prefix_prime(rng, near)
            ops.append(Op("prefix", (p,), {"n": p, "phi": arith.trial_factor(p - 1)}))
        for n in (_desk_n(rng), rng.randint(3, 2000)):
            ops.append(Op("count_primitive_roots", (n,), {"desk": True}))
            ops.append(Op("is_primitive_root", (rng.randint(1, n), n), {"desk": True}))
        return ops

    @staticmethod
    def _op(call: str, a: int, n: int, phi_n: dict[int, int], cls: dict) -> Op:
        args = (a, n) if call in ("is_primitive_root", "order") else (n,)
        return Op(call, args, {"n": n, "phi": phi_n, "class": cls})

    @staticmethod
    def _no_roots(rng: random.Random, shape: str) -> tuple[int, dict[int, int]]:
        p = arith.random_prime(rng, rng.randint(22, 28))
        q = arith.random_prime(rng, rng.randint(22, 28))
        while q == p:
            q = arith.random_prime(rng, 25)
        fact = {"p*q": {p: 1, q: 1}, "4*p": {2: 2, p: 1}, "2*p*q": {2: 1, p: 1, q: 1}, "p**2*q": {p: 2, q: 1}}[shape]
        return arith.value(fact), fact

    def verify(self, op: Op, outcome, rng: random.Random, oracle) -> int:
        value, error = outcome
        if op.facts.get("desk"):
            n = op.args[-1]
            roots = oracle.brute_primitive_roots(n).roots
            if op.call == "count_primitive_roots" and not roots:
                _require(_refused(error), f"count({n}) should be refused")
            else:
                _require(error is None, f"{op.call}{op.args} raised {error!r}")
                expected = len(roots) if op.call == "count_primitive_roots" else op.args[0] in roots
                _require(value == expected, f"{op.call}{op.args} = {value}, oracle says {expected}")
            return 0
        n, phi_n = op.facts["n"], op.facts["phi"]
        has_roots = op.facts.get("class", {}).get("kind") != "no_primitive_roots"
        if op.call == "count_primitive_roots" and not has_roots:
            _require(_refused(error), f"count({n}) should be refused, got {value!r} / {error!r}")
            return 0
        _require(error is None, f"{op.call}{op.args} raised {error!r}")
        if op.call == "classify_modulus":
            cls = op.facts["class"]
            got = {"kind": value.kind, "p": value.p, "k": value.k}
            _require(got == {"kind": cls["kind"], "p": cls.get("p"), "k": cls.get("k")}, f"classify({n}) = {got}")
        elif op.call == "count_primitive_roots":
            _require(value == arith.phi(phi_n), f"count({n}) = {value}")
        elif op.call == "is_primitive_root":
            a = op.args[0]
            _require(value is (has_roots and arith.is_generator(a, n, phi_n)), f"check({a}, {n}) = {value}")
        elif op.call == "order":
            _require(arith.is_order(value, op.args[0], n, phi_n), f"order{op.args} = {value}")
        elif op.call == "prefix":
            _require(len(value) == 3 and len(set(value)) == 3, f"prefix of {n}: {value}")
            _require(all(1 <= r <= n and arith.is_generator(r, n, phi_n) for r in value), f"prefix of {n}: {value}")
            return len(value)
        return 0


def _desk_n(rng: random.Random) -> int:
    p, k, twice = _desk_modulus(rng, 2000)
    return p ** k * (2 if twice else 1)


def _refused(error) -> bool:
    return error is not None and type(error).__name__ == "DomainError"


# --- hensel ----------------------------------------------------------------

SCAN_SLOTS = 10
# Fans outnumber scans, so the median operation is a fan and the tail a scan.
DOUBLE_SLOTS = 16
DESK_SLOTS = 2
BIG_DOUBLE = (101, 6)  # x ~ a mod 101**3: 1,030,301 solutions


def _poly_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def _non_residue(rng: random.Random, p: int) -> int:
    while True:
        n = rng.randrange(2, p)
        if pow(n, (p - 1) // 2, p) == p - 1:
            return n


def simple_roots_poly(rng: random.Random, p: int, degree: int) -> tuple[tuple[int, ...], int]:
    """A polynomial of the given degree whose roots mod p are all simple.

    Built from linear factors, quadratics x**2 - w**2 and quadratics with no
    root mod p, so every root mod p is known and lifts to exactly one root
    mod p**k: the solution count mod p**k is the number of roots mod p.
    """
    coeffs: tuple[int, ...] = (rng.randrange(1, 1000),)
    roots: set[int] = set()
    while len(coeffs) - 1 < degree:
        left = degree - (len(coeffs) - 1)
        shape = rng.choice(("linear", "square", "none") if left >= 2 else ("linear",))
        if shape == "none":
            coeffs = _poly_mul(coeffs, (-_non_residue(rng, p), 0, 1))
            continue
        w = rng.randrange(1, p)
        new = {w} if shape == "linear" else {w, p - w}
        if new & roots:
            continue
        roots |= new
        coeffs = _poly_mul(coeffs, (-w, 1) if shape == "linear" else (-(w * w % p), 0, 1))
    return coeffs, len(roots)


class Hensel:
    """solve_prime_power in-process: level-one scans and MultipleLift fans."""

    name = "hensel"
    in_process = True
    tail = 90

    def make_pass(self, seed: int, index: int) -> list[Op]:
        rng = _rng(self.name, seed, index)
        ops = []
        for slot in range(SCAN_SLOTS):
            # One prime near the middle of each tenth of [1e5, 1e6] on a log scale.
            mid = 10 ** (5 + (slot + 0.5) / SCAN_SLOTS)
            p = arith.prime_near(rng, int(mid * 0.98), int(mid * 1.02))
            k = rng.randint(2, 6)
            coeffs, count = simple_roots_poly(rng, p, 2 + slot % 5)
            ops.append(Op("solve_prime_power", (coeffs, p, k), {"count": count}))
        ops.append(self._double(rng, *BIG_DOUBLE))
        for _ in range(DOUBLE_SLOTS):
            # 101**2 = 10201 solutions each.
            ops.append(self._double(rng, 101, 4))
        for _ in range(DESK_SLOTS):
            p, k, _ = _desk_modulus(rng, 5_000)
            coeffs = tuple(rng.randint(-50, 50) for _ in range(rng.randint(3, 5)))
            ops.append(Op("solve_prime_power", (coeffs, p, k), {"desk": True}))
        return ops

    @staticmethod
    def _double(rng: random.Random, p: int, k: int) -> Op:
        # c * (x - a)**2 * q(x), q without roots mod p: the solutions are
        # exactly x = a mod p**ceil(k/2).
        a = rng.randrange(p)
        coeffs = _poly_mul((rng.randrange(1, p),), _poly_mul((a * a, -2 * a, 1), (-_non_residue(rng, p), 0, 1)))
        return Op("solve_prime_power", (coeffs, p, k), {"double": a})

    def verify(self, op: Op, outcome, rng: random.Random, oracle) -> int:
        value, error = outcome
        _require(error is None, f"solve{op.args} raised {error!r}")
        coeffs, p, k = op.args
        pk = p ** k
        if op.facts.get("desk"):
            f = oracle.Polynomial(coeffs)
            _require(value == oracle.brute_congruence_solutions(f, pk), f"solve{op.args} differs from the oracle")
        elif "double" in op.facts:
            step = p ** ((k + 1) // 2)
            base = op.facts["double"] % step
            _require(len(value) == pk // step, f"{len(value)} solutions, expected {pk // step}")
            _require(all(x == base + j * step for j, x in enumerate(value)), f"solve{op.args} wrong fan")
        else:
            check_solutions(value, coeffs, pk, op.facts["count"])
        return len(value)


WORKLOADS = {w.name: w for w in (Enumerate(), Queries(), Hensel())}
