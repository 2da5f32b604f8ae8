"""Rational enclosures with directed rounding.

Endpoints are exact fractions; every arithmetic step rounds the lower end
down and the upper end up onto the dyadic grid 2^-192, so intervals stay
small while provably enclosing the target value.  Long products of factors
1 + a/b (the Euler products) run in `directed_product` over runs of factors
that share one a.  The lower end's numerator on that grid is one big integer
and the upper end rides along as the small offset e = hi - lo: with
q, r = divmod(lo * a, b), the lower end moves by q and e by
ceil((r + e*a)/b), usually 1 or 0.  So a factor costs one big division with
remainder and one addition (and a multiply when |a| > 1), bit-identical to
rounding each `Fraction` product.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from typing import Iterable

from .errors import PreconditionFailed

_GRID_BITS = 192
_GRID = 1 << _GRID_BITS


def _round_down(x: Fraction) -> Fraction:
    return Fraction(x.numerator * _GRID // x.denominator, _GRID)


def _round_up(x: Fraction) -> Fraction:
    return Fraction(-((-x.numerator * _GRID) // x.denominator), _GRID)


def power_bits(base: int, e: int) -> int:
    """e * floor(log2 base), a lower bound on log2(base^e) found without forming base^e (base >= 1)."""
    return e * (base.bit_length() - 1)


def cap_bits(start: Fraction, growth_bits: int, max_a: int) -> int:
    """Bits T such that `directed_product(start, runs)` is unchanged when a b >= 2^T is passed as 2^T.

    Needs |start| <= 1, factors >= 0 whose consecutive products are at most
    2^growth_bits, every |a| <= max_a and fewer than 2^64 factors.  Then each
    endpoint stays below 2^(growth_bits + 1), so every numerator x a step
    divides, the first's included, has |x*a| < 2^T.  For |x*a| < b,
    floor(x*a/b) is 0 or -1 by the sign of x*a alone, and the first factor's
    floor(x(b + a)/(bd)) is x // d, less 1 when d | x and x*a < 0: neither
    depends on b.
    """
    return max(abs(start.numerator).bit_length(), growth_bits + 1) + _GRID_BITS + max_a.bit_length()


def directed_product(start: Fraction, runs: Iterable[tuple[int, Iterable[int]]]) -> tuple[Fraction, Fraction]:
    """(lo, hi): start times 1 + a/b for each run (a, bs) and each b > 0 in bs; lo rounded down, hi up.

    Each step rounds onto the grid exactly as `_round_down(lo * f)` and
    `_round_up(hi * f)` would, but on integers: the endpoints are numerators
    over d * 2^192, where d is start's denominator until the first factor and
    1 after it.  They are held as one big integer x = lo * sign(a) (lo while
    a > 0, -lo while a < 0, so that lo * a = x * |a| needs no negation, and
    no multiply when |a| = 1) and the offset e = hi - lo.  With
    q, r = divmod(lo * a, b), the steps floor(lo(b + a)/b) = lo + q and
    ceil(hi(b + a)/b) = hi + q + ceil((r + e*a)/b) give lo' = lo + q and
    e' = e + ceil((r + e*a)/b): one big division per factor, for both ends.
    Since 0 <= r < b, that ceiling is 1 or 0 when 0 <= r + e <= b for a = 1
    (0 only at r + e = 0) and when 0 <= e*|a| < b for a < 0 (1 exactly when
    r > e*|a|), the common cases; otherwise it is computed.  e is 0 or more
    while every factor is (1 + a/b >= 0 keeps hi >= lo); only a negative
    factor makes it negative.  The first factor, which also divides by d, is
    one divmod of lo(b + a) by bd, and before it lo = hi.  With no factors,
    start comes back unrounded.
    """
    x = start.numerator * _GRID
    e = 0
    d = start.denominator
    sign = 1  # x is lo while sign > 0, -lo while sign < 0
    for a, bs in runs:
        if a * sign < 0:
            x, sign = -x, -sign
        m = abs(a)
        if d != 1:
            bs = iter(bs)
            for b in bs:
                q, r = divmod(sign * x * (b + a), b * d)
                x, e, d = sign * q, int(r > 0), 1
                break
        if m == 1 and e >= 0 and sign > 0:
            for b in bs:
                q, r = divmod(x, b)
                x += q
                if r + e > b:
                    e -= (-r - e) // b
                elif r or e:
                    e += 1
        elif m == 1 and e >= 0:
            for b in bs:
                q, r = divmod(x, b)
                x -= q
                if r > e:
                    e += 1
                elif e >= b:
                    e -= (e - r) // b
        elif sign > 0:
            for b in bs:
                q, r = divmod(x * m, b)
                x += q
                e -= (-r - e * m) // b
        else:
            for b in bs:
                q, r = divmod(x * m, b)
                x -= q
                t = e * m
                if r > t >= 0:
                    e += 1
                elif not 0 <= t < b:
                    e -= (t - r) // b
    lo = sign * x
    return Fraction(lo, d * _GRID), Fraction(lo + e, d * _GRID)


@dataclass(frozen=True)
class RationalInterval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("empty interval")

    @classmethod
    def point(cls, x) -> "RationalInterval":
        f = Fraction(x)
        return cls(f, f)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, x) -> bool:
        return self.lo <= Fraction(x) <= self.hi

    def mul(self, other: "RationalInterval") -> "RationalInterval":
        """Product of intervals with nonnegative lower ends."""
        if self.lo < 0 or other.lo < 0:
            raise ValueError("interval product requires nonnegative intervals")
        return RationalInterval(_round_down(self.lo * other.lo), _round_up(self.hi * other.hi))

    def divided_by(self, other: "RationalInterval") -> "RationalInterval":
        """Quotient, requiring the divisor strictly positive."""
        if other.lo <= 0:
            raise ValueError("division requires a strictly positive divisor")
        return RationalInterval(_round_down(self.lo / other.hi), _round_up(self.hi / other.lo))

    def overlaps(self, other: "RationalInterval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def decimal(self, digits: int = 12) -> tuple[str, str]:
        """(lo, hi) as decimals with `digits` places, lo rounded down and hi up; integers at 0."""
        if digits < 0:
            raise PreconditionFailed(f"digits must be >= 0, got {digits}")
        scale = 10**digits
        lo = self.lo.numerator * scale // self.lo.denominator
        hi = -((-self.hi.numerator * scale) // self.hi.denominator)

        def fmt(v: int) -> str:
            sign = "-" if v < 0 else ""
            v = abs(v)
            return f"{sign}{v // scale}.{v % scale:0{digits}d}" if digits else f"{sign}{v}"

        return fmt(lo), fmt(hi)

    def __str__(self) -> str:
        lo, hi = self.decimal()
        return f"[{lo}, {hi}]"


@cache
def log2_interval() -> RationalInterval:
    """Rigorous enclosure of log(2) from log 2 = sum 1/(n 2^n), summed once per process."""
    n_terms = 220
    acc = Fraction(0)
    for n in range(1, n_terms + 1):
        acc += Fraction(1, n * (1 << n))
    # remainder below 1/((N+1) 2^N)
    rem = Fraction(1, (n_terms + 1) * (1 << n_terms))
    return RationalInterval(_round_down(acc), _round_up(acc + rem))
