"""Rational prime utilities: one growing prime table, primality, square roots mod p."""

from __future__ import annotations

from bisect import bisect_right
from itertools import compress
from math import isqrt

from .errors import PreconditionFailed

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_13, the least strong pseudoprime to all thirteen bases above (Sorenson & Webster,
# Math. Comp. 86, 2017): below it the strong test on those bases is exact
_PSI13 = 3317044064679887385961981

# (limit, every prime <= limit ascending), rebound as one pair so that a
# concurrent caller never sees a limit its table lacks; empty until the first call
_sieved: tuple[int, tuple[int, ...]] = (1, ())


def primes_upto(n: int) -> tuple[int, ...]:
    """All primes <= n, ascending.

    A slice of one module-level table.  Asked past its end, the table is
    re-sieved with a quarter of headroom, to 5n/4: bounds within 25% of
    each other share one sieve, and a rising run of bounds costs at most
    about five times its last sieve.
    """
    global _sieved
    limit, table = _sieved
    if n > limit:
        limit = n + n // 4
        sieve = bytearray([1]) * (limit + 1)
        sieve[0] = sieve[1] = 0
        for p in range(2, isqrt(limit) + 1):
            if sieve[p]:
                sieve[p * p :: p] = bytes((limit - p * p) // p + 1)
        table = tuple(compress(range(limit + 1), sieve))
        _sieved = limit, table
    return table[: bisect_right(table, n)]


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin on the thirteen prime bases up to 41.

    Exact for n < psi_13 = 3317044064679887385961981; larger n raise
    PreconditionFailed rather than risk a strong pseudoprime.
    """
    if n < 2:
        return False
    if n >= _PSI13:
        raise PreconditionFailed(f"primality of {n} is only decided below {_PSI13}")
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
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


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for odd prime p, in {-1, 0, 1}."""
    a %= p
    if a == 0:
        return 0
    t = pow(a, (p - 1) // 2, p)
    return 1 if t == 1 else -1


def sqrt_mod(a: int, p: int) -> int:
    """Deterministic Tonelli-Shanks: least root of x^2 = a mod p (a must be a QR)."""
    a %= p
    if p == 2 or a == 0:
        return a
    if legendre(a, p) != 1:
        raise ValueError(f"{a} is not a quadratic residue mod {p}")
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
        return min(r, p - r)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while legendre(z, p) != -1:
        z += 1
    m, c = s, pow(z, q, p)
    t, r = pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2, i = t * t % p, 1
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return min(r, p - r)
