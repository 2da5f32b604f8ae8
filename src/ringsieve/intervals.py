"""Rational enclosures with directed rounding.

Endpoints are exact fractions; every arithmetic step rounds the lower end
down and the upper end up onto the dyadic grid 2^-192, so intervals stay
small while provably enclosing the target value.  Long products of factors
1 + a/b (the Euler products) run in `directed_product` over runs of factors
that share one a: with each endpoint's numerator on that grid held in the
sign whose rounding is a floor, a factor costs one floor division and one
addition per endpoint (and a multiply when |a| > 1), bit-identical to
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
    `_round_up(hi * f)` would, but on integers: the endpoints are held as
    numerators over d * 2^192, where d is start's denominator until the first
    factor and 1 after it.  A step rests on floor(x(b + a)/b) = x + floor(xa/b)
    for every integer x.  The endpoints are held as (lo, -hi) while a > 0 and
    as (-lo, hi) while a < 0, so that both round by a floor: each step is
    x += x*a//b or x -= x*|a|//b, with no multiply when |a| = 1.  The first
    factor, which also divides by d, is one floor of x(b + a)/(bd) instead.
    With no factors, start comes back unrounded.
    """
    x = start.numerator * _GRID
    y = -x
    d = start.denominator
    sign = 1  # (x, y) is (lo, -hi) while sign > 0, (-lo, hi) while sign < 0
    for a, bs in runs:
        if a * sign < 0:
            x, y, sign = -x, -y, -sign
        m = abs(a)
        if d != 1:
            bs = iter(bs)
            for b in bs:  # (sign * x, sign * y) is (lo, -hi) in either sign
                num, den = b + a, b * d
                x, y, d = sign * (sign * x * num // den), sign * (sign * y * num // den), 1
                break
        if m != 1:
            for b in bs:
                x += sign * (x * m // b)
                y += sign * (y * m // b)
        elif sign > 0:
            for b in bs:
                x += x // b
                y += y // b
        else:
            for b in bs:
                x -= x // b
                y -= y // b
    lo, hi = sign * x, -sign * y
    return Fraction(lo, d * _GRID), Fraction(hi, d * _GRID)


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
