"""Rational enclosures with directed rounding.

Endpoints are exact fractions; every arithmetic step rounds the lower end
down and the upper end up onto a dyadic grid, so intervals stay small while
provably enclosing the target value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

_GRID_BITS = 192
_GRID = 1 << _GRID_BITS


def _round_down(x: Fraction) -> Fraction:
    return Fraction(x.numerator * _GRID // x.denominator, _GRID)


def _round_up(x: Fraction) -> Fraction:
    return Fraction(-((-x.numerator * _GRID) // x.denominator), _GRID)


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


def log2_interval() -> RationalInterval:
    """Rigorous enclosure of log(2) from log 2 = sum 1/(n 2^n)."""
    n_terms = 220
    acc = Fraction(0)
    for n in range(1, n_terms + 1):
        acc += Fraction(1, n * (1 << n))
    # remainder below 1/((N+1) 2^N)
    rem = Fraction(1, (n_terms + 1) * (1 << n_terms))
    return RationalInterval(_round_down(acc), _round_up(acc + rem))
