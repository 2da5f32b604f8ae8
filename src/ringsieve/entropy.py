"""Dedekind zeta values, the patch-counting entropy product, and exact counts.

All analytic quantities are returned as rational enclosures: Euler products
are truncated at a norm cutoff and widened by rigorous tail bounds.  The
truncated products run in `intervals.directed_product`, integer directed
rounding on the 2^-192 grid that is bit-identical to rounding each
`Fraction` product: one big-integer chain for the lower end, with the upper
end carried as a small offset from it, so a factor costs one big division.
Every factor is 1 + a/b, passed in runs that share one a, with the b read
in chunks from the prime-norm columns of `rings.norms_upto`: one table per
algebra, filled in bulk, with the splitting rule run once per residue class
of p mod |disc| in each quadratic component.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import PreconditionFailed, TailNotBoundable
from .intervals import RationalInterval, _round_up, cap_bits, directed_product, log2_interval, power_bits
from .rings import EtaleAlgebra, norms_upto
from .sieve import SieveSpec, _check_cutoff, _power_runs, density_interval
from .shiftspace import count_admissible


def _product_tail_upper(degree: int, s: int, cutoff: int) -> Fraction:
    """Upper bound for prod over primes of norm > cutoff of (1 - Nm^-s)^-1.

    Dominated by the product over all integers m > cutoff, taken degree-fold;
    explicit leading factors are split off until the remaining sum bound
    drops below 1/4.  A bound 1 + t with t provably at most 2^-(193 + degree)
    comes back as 1 + 2^-(193 + degree), still an upper bound: since
    `zeta_K`'s upper end is below 2^(degree + 1), it rounds the same for
    either (ceil(H + H*t) = H + 1 for 0 < H*t <= 1), and no power m^s is
    formed.
    """
    # 1 + t = (1 - rem)^-degree with rem <= cutoff^-(s - 1), so t <= 4 * degree * rem
    bits = 193 + degree
    if power_bits(cutoff, s - 1) >= bits + (4 * degree).bit_length():
        return 1 + Fraction(1, 1 << bits)
    u = Fraction(1)
    m = cutoff
    while True:
        rem = Fraction(1, (s - 1) * m ** (s - 1))  # sum_{j > m} j^-s <= this
        if rem < Fraction(1, 4):
            break
        m += 1
        u *= 1 / (1 - Fraction(1, m**s))
    u *= 1 / (1 - rem)
    return u**degree


def zeta_K(algebra: EtaleAlgebra, s: int, cutoff: int) -> RationalInterval:
    """Enclosure of the Dedekind zeta value via the Euler product.

    Multiplies the local factors Nm^s / (Nm^s - 1) = 1 + 1/(Nm^s - 1) of all
    primes with norm <= cutoff, one run with a = 1 (`directed_product`; norms
    from the columns of `rings.norms_upto`), and widens upward by the tail
    bound; the lower end needs no correction since every omitted factor
    exceeds 1.  A cutoff past the prime limit 10^7 raises BudgetExceeded
    (`primes_upto`).
    """
    _check_cutoff(cutoff)
    if s < 2:
        raise TailNotBoundable("the Euler product requires s >= 2")
    _, _, norms = norms_upto(algebra, cutoff)
    norms = norms[norms <= cutoff]
    # the local factor Nm^s/(Nm^s - 1) is 1 + 1/(Nm^s - 1)
    # every product of the factors is below zeta(2)^degree < 2^degree
    cap = cap_bits(Fraction(1), algebra.degree, 1)
    lo, hi = directed_product(Fraction(1), _power_runs(np.ones_like(norms), norms, s, -1, cap))
    hi = _round_up(hi * _product_tail_upper(algebra.degree, s, max(cutoff, 1)))
    return RationalInterval(lo, hi)


def entropy_product(sieve: SieveSpec, cutoff: int) -> RationalInterval:
    """Patch-counting entropy as log(2) times the density enclosure."""
    return log2_interval().mul(density_interval(sieve, cutoff))


def empirical_entropy(sieve: SieveSpec, box_size: int) -> float:
    """log(#admissible subsets of [0, N)) / N from the exact count.

    Convergence to the entropy is slow; this is reported as trend data next
    to the product enclosure, with no closeness asserted.
    """
    if box_size < 1:
        raise PreconditionFailed(f"box size must be >= 1, got {box_size}")
    return math.log(count_admissible(sieve, box_size)) / box_size
