"""Rational enclosures with directed rounding.

Endpoints are exact fractions; every arithmetic step rounds the lower end
down and the upper end up onto the dyadic grid 2^-192, so intervals stay
small while provably enclosing the target value.  Long products of rational
factors (the Euler products) run in `directed_product` as integer floor and
ceiling divisions of the endpoints' numerators on that grid, bit-identical
to rounding each `Fraction` product.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from typing import Iterable

_GRID_BITS = 192
_GRID = 1 << _GRID_BITS


def _round_down(x: Fraction) -> Fraction:
    return Fraction(x.numerator * _GRID // x.denominator, _GRID)


def _round_up(x: Fraction) -> Fraction:
    return Fraction(-((-x.numerator * _GRID) // x.denominator), _GRID)


def directed_product(start: Fraction, factors: Iterable[tuple[int, int]]) -> tuple[Fraction, Fraction]:
    """(lo, hi): start times every factor num/den, lo rounded down and hi up.

    Each step rounds onto the grid exactly as `_round_down(lo * f)` and
    `_round_up(hi * f)` would, but on integers: the endpoints are held as
    numerators over d * 2^192, where d is start's denominator until the first
    factor and 1 after it.  With no factors, start comes back unrounded.
    """
    lo = hi = start.numerator * _GRID
    d = start.denominator
    for num, den in factors:
        den *= d
        lo = lo * num // den
        hi = -((-hi * num) // den)
        d = 1
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
        scale = 10**digits
        lo = self.lo.numerator * scale // self.lo.denominator
        hi = -((-self.hi.numerator * scale) // self.hi.denominator)

        def fmt(v: int) -> str:
            sign = "-" if v < 0 else ""
            v = abs(v)
            return f"{sign}{v // scale}.{v % scale:0{digits}d}"

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
