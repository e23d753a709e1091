"""Cheap questions on moduli far too large to enumerate.

The unit group of p**k or 2*p**k is fixed by p and k, so count, check,
order and a prefix of the root stream need only p - 1 factored.  For
p = 10**20 + 39 each answer takes milliseconds; every call here carries a
wall-clock bound far above that, so a return to blind factorization (Pollard
rho handed p**2 runs for hours) fails instead of hanging the suite.  A
modulus without primitive roots is refused from its classification, without
factoring it.
"""

import signal
from contextlib import contextmanager

import pytest

from primroots.cli import run
from primroots.construct import (
    check_root_count,
    exceptional_t,
    iter_primitive_roots,
    primitive_roots,
)
from primroots.errors import DomainError
from primroots.modarith import factorize, is_prime
from primroots.orders import count_primitive_roots, is_primitive_root

P = 10**20 + 39
QUERY_BOUND_S = 2.0
REFUSAL_BOUND_S = 1.0


@contextmanager
def within(seconds):
    """Fail, rather than hang, when the block runs past its bound."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _primes_of_p_minus_1():
    fact = factorize(P - 1)
    value = 1
    for q, e in fact:
        assert is_prime(q)
        value *= q**e
    assert value == P - 1
    return [q for q, _ in fact]


def _least_root_of_p():
    primes = _primes_of_p_minus_1()
    g = 2
    while any(pow(g, (P - 1) // q, P) == 1 for q in primes):
        g += 1
    return g


def _generator(n, k, twice):
    # A root of p generates mod p**2 unless it is its exceptional lift, and
    # then g + p does; past p**2 nothing changes, and 2*p**k wants it odd.
    g = _least_root_of_p()
    a = g if pow(g, P - 1, P * P) != 1 else g + P
    if twice and a % 2 == 0:
        a += P**k
    return a


def _phi(k):
    return P ** (k - 1) * (P - 1)


def _count(k):
    # phi(phi(n)) with phi(n) = p**(k-1) * (p - 1) and k >= 2
    phi_p_minus_1 = P - 1
    for q in _primes_of_p_minus_1():
        phi_p_minus_1 = phi_p_minus_1 // q * (q - 1)
    return P ** (k - 2) * (P - 1) * phi_p_minus_1


def _first_stream_roots(k, twice):
    # chain of the least root of p: level-one shift t1 dodges the exceptional
    # value, the deepest level runs fastest
    g = _least_root_of_p()
    skip = exceptional_t(g, P)
    if k == 2:
        roots = [g + t * P for t in range(4) if t != skip][:3]
    else:
        t1 = 1 if skip == 0 else 0
        roots = [g + t1 * P + t * P ** (k - 1) for t in range(3)]
    if twice:
        roots = [r if r % 2 else r + P**k for r in roots]
    return roots


CASES = [(P**2, 2, False), (2 * P**3, 3, True)]
IDS = ["p^2", "2p^3"]


def invoke(capsys, *argv):
    with within(QUERY_BOUND_S):
        code = run([str(x) for x in argv])
    captured = capsys.readouterr()
    return code, captured.out.split()


@pytest.mark.parametrize("n,k,twice", CASES, ids=IDS)
def test_count_on_twenty_digit_prime_power(capsys, n, k, twice):
    assert invoke(capsys, "count", n) == (0, [str(_count(k))])


@pytest.mark.parametrize("n,k,twice", CASES, ids=IDS)
def test_check_on_twenty_digit_prime_power(capsys, n, k, twice):
    a = _generator(n, k, twice)
    assert invoke(capsys, "check", a, n) == (0, ["true"])
    assert invoke(capsys, "check", a * a % n, n) == (3, ["false"])
    assert invoke(capsys, "check", P + 1 if twice else P, n) == (3, ["false"])


@pytest.mark.parametrize("n,k,twice", CASES, ids=IDS)
def test_order_on_twenty_digit_prime_power(capsys, n, k, twice):
    a = _generator(n, k, twice)
    assert invoke(capsys, "order", a, n) == (0, [str(_phi(k))])
    # a**p has order phi / p, so the prime p of phi must be divided out
    assert invoke(capsys, "order", pow(a, P, n), n) == (0, [str(_phi(k) // P)])


@pytest.mark.parametrize("n,k,twice", CASES, ids=IDS)
def test_stream_prefix_on_twenty_digit_prime_power(capsys, n, k, twice):
    code, out = invoke(capsys, "list", n, "--stream", "--limit", 3)
    assert code == 0
    assert [int(r) for r in out] == _first_stream_roots(k, twice)
    for r in out:
        with within(QUERY_BOUND_S):
            assert is_primitive_root(int(r), n)


def _next_prime(n):
    while not is_prime(n):
        n += 1
    return n


def test_semiprime_with_64_bit_factors_is_refused_at_once(capsys):
    q1 = _next_prime(2**63 + 12_345)
    q2 = _next_prime(2**64 - 1_000_000)
    assert q1.bit_length() == q2.bit_length() == 64
    n = q1 * q2
    refusals = (
        count_primitive_roots,
        check_root_count,
        primitive_roots,
        lambda m: next(iter_primitive_roots(m)),
    )
    for refuse in refusals:
        with within(REFUSAL_BOUND_S):
            with pytest.raises(DomainError, match="no primitive roots"):
                refuse(n)
    with within(REFUSAL_BOUND_S):
        assert not is_primitive_root(3, n)
    for argv in (["list", str(n)], ["list", str(n), "--stream"], ["count", str(n)]):
        with within(REFUSAL_BOUND_S):
            assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no primitive roots" in captured.err
