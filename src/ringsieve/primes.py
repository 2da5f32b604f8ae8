"""Rational prime utilities: one growing prime table, primality, square roots mod p."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import lru_cache
from itertools import compress
from math import isqrt, prod
from typing import Iterator

from .errors import BudgetExceeded, PreconditionFailed

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_13, the least strong pseudoprime to all thirteen bases above (Sorenson & Webster,
# Math. Comp. 86, 2017): below it the strong test on those bases is exact
_PSI13 = 3317044064679887385961981
# Largest rational prime a scan may reach, enforced where every scan lists
# its primes (`primes_upto`).  Sieving to 10^7 already takes about 0.5 s and
# 70 MB, and a scan then visits its 664,579 primes in Python.
_MAX_PRIME_BOUND = 10**7

# (limit, every prime <= limit ascending), rebound as one pair so that a
# concurrent caller never sees a limit its table lacks; empty until the first call
_sieved: tuple[int, tuple[int, ...]] = (1, ())


def primes_upto(n: int) -> tuple[int, ...]:
    """All primes <= n, ascending.

    A slice of one module-level table.  Asked past its end, the table is
    re-sieved with a quarter of headroom, to 5n/4 but not past
    _MAX_PRIME_BOUND: bounds within 25% of each other share one sieve, and
    a rising run of bounds costs at most about five times its last sieve.
    An n past _MAX_PRIME_BOUND raises BudgetExceeded before anything is
    sieved.
    """
    global _sieved
    _check_prime_bound(n)
    limit, table = _sieved
    if n > limit:
        limit = min(n + n // 4, _MAX_PRIME_BOUND)
        sieve = bytearray([1]) * (limit + 1)
        sieve[0] = sieve[1] = 0
        for p in range(2, isqrt(limit) + 1):
            if sieve[p]:
                sieve[p * p :: p] = bytes((limit - p * p) // p + 1)
        table = tuple(compress(range(limit + 1), sieve))
        _sieved = limit, table
    return table[: bisect_right(table, n)]


def _check_prime_bound(n: int) -> None:
    """Refuse a scan of the primes up to n past _MAX_PRIME_BOUND, with BudgetExceeded."""
    if n > _MAX_PRIME_BOUND:
        raise BudgetExceeded(f"listing the primes up to {n} is over the limit {_MAX_PRIME_BOUND}")


# Below 2^_FIRST_RANGE_BITS a range starts at 2: there one gcd costs less than
# the loop around it.
_FIRST_RANGE_BITS = 10


@lru_cache(maxsize=None)
def prime_range(j: int) -> int:
    """The product of the primes in [2^j, 2^(j+1)) up to the prime limit.

    For j < _FIRST_RANGE_BITS the range starts at 2: [2, 2^(j+1)).  Only the
    product is kept, for the life of the process: about 0.18 bytes per unit
    of the range, some 1.8 MB for every range up to the prime limit.  It is
    taken as a balanced tree, so its cost is a few large multiplications
    rather than one per prime.  The prime table grows to the range's end.
    """
    top = min((2 << j) - 1, _MAX_PRIME_BOUND)
    primes_upto(top)
    table = _sieved[1]
    ps = table[bisect_left(table, 1 << j) if j >= _FIRST_RANGE_BITS else 0 : bisect_right(table, top)]
    level = [prod(ps[i : i + 16]) for i in range(0, len(ps), 16)]
    while len(level) > 1:
        level = [prod(level[i : i + 2]) for i in range(0, len(level), 2)]
    return level[0] if level else 1


def range_factors(j: int, g: int) -> Iterator[int]:
    """The primes dividing g, ascending, for g > 1 a divisor of `prime_range(j)`.

    Trial division by the range's primes, read from the prime table in
    place; g is squarefree, so once it is below p^2, with every smaller
    prime divided out, it is prime.
    """
    table = _sieved[1]  # past the range's end since prime_range(j)
    i = bisect_left(table, 1 << j) if j >= _FIRST_RANGE_BITS else 0
    while g > 1:
        p = table[i]
        if g < p * p:
            yield g
            return
        if g % p == 0:
            yield p
            g //= p
        i += 1


def _iroot(n: int, k: int) -> int:
    """Largest r >= 0 with r^k <= n."""
    if n < 0:
        raise ValueError("negative radicand")
    if k == 1 or n < 2:
        return n
    if n.bit_length() <= k:  # 1 <= n < 2^k
        return 1
    if k == 2:
        return isqrt(n)
    r = 1 << -(-n.bit_length() // k)  # above the root; Newton's steps fall to it
    while (s := ((k - 1) * r + n // r ** (k - 1)) // k) < r:
        r = s
    return r


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
