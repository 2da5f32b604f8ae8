"""Constructive strong approximation inside V(K, R) and surjectivity checks.

`solve` finds an element of V(K, R) in prescribed residue classes by walking
the CRT base point plus multiples of the combined modulus lattice in a fixed
radial order.  `check_local_surjectivity` exhibits a k-free preimage for
every k-free residue class modulo p^k, using a vectorized strip sieve for
quadratic grids.  The sieve walks the p^k x p^k class grid in row bands of
about 2^21 classes, so its memory is bounded by the band, not by the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    InvalidConstraint,
    NotFoundWithinBound,
    PreconditionFailed,
    TailNotBoundable,
    VerificationFailed,
)
from .lattices import Hnf, crt_pair, gen_multipliers, lat_contains
from .primes import primes_upto
from .rings import (
    AlgebraicInt,
    Coords,
    EtaleAlgebra,
    PrimeIdeal,
    ideal_power,
    reduce_mod,
    split_prime,
)
from .sieve import SieveSpec, kfree_sieve, local_set, membership, _iroot


@dataclass(frozen=True)
class CongruenceConstraint:
    """Require y = target mod prime^k."""

    prime: PrimeIdeal
    k: int
    target: AlgebraicInt

    def canonical_target(self) -> Coords:
        mod = ideal_power(self.prime, self.k)
        return mod.reduce_coords(self.target.coords[self.prime.component])


def _identity_hnf(degree: int) -> Hnf:
    if degree == 1:
        return ((1,),)
    return ((1, 0), (0, 1))


def _check_constraint_compatible(sieve: SieveSpec, c: CongruenceConstraint) -> None:
    """The class target + p^k must not be contained in R_p."""
    ls = local_set(sieve, c.prime)
    if not ls.classes:
        return
    cons_mod = ideal_power(c.prime, c.k)
    fine_k = max(c.k, ls.modulus.k)
    fine = ideal_power(c.prime, fine_k)
    from .lattices import quotient_residues

    target = c.canonical_target()
    for q in quotient_residues(cons_mod.hnf, fine.hnf):
        rep = fine.reduce_coords(tuple(t + d for t, d in zip(target, q)))
        coarse = ls.modulus.reduce_coords(rep)
        if coarse not in ls.classes:
            return
    raise InvalidConstraint(f"every class in {target} + {cons_mod} lies inside R at {c.prime}")


def _gate_tail(sieve: SieveSpec) -> None:
    if sieve.tail.kind == "classes" and sieve.tail.exponent < 2:
        raise TailNotBoundable(
            "tail exponent 1: the local-global hypothesis R_p in T + p^2 fails"
        )


def solve(
    sieve: SieveSpec,
    constraints: Sequence[CongruenceConstraint],
    bound: int = 10_000,
    exclude_zero: bool = False,
) -> AlgebraicInt:
    """An element of V(K, R) meeting all congruence constraints.

    The scan starts at the canonical CRT base point and adds multiplier
    combinations of the combined modulus lattice in radial order
    (0, 1, -1, 2, -2, ... per axis); the first member wins.  Raises
    NotFoundWithinBound once all candidates of height <= bound are spent.
    """
    _gate_tail(sieve)
    algebra = sieve.algebra
    seen = set()
    for c in constraints:
        if c.prime.algebra != algebra:
            raise PreconditionFailed("constraint prime from a different algebra")
        key = (c.prime.p, c.prime.component, c.prime.root)
        if key in seen:
            raise PreconditionFailed("constraint primes must be distinct")
        seen.add(key)
        _check_constraint_compatible(sieve, c)

    # combine constraints per component
    bases: list[Coords] = []
    lattices: list[Hnf] = []
    for i, spec in enumerate(algebra.components):
        y: Coords = spec.zero()
        lam = _identity_hnf(spec.degree)
        for c in constraints:
            if c.prime.component != i:
                continue
            res = crt_pair(y, lam, c.canonical_target(), ideal_power(c.prime, c.k).hnf)
            if res is None:
                raise InvalidConstraint("incompatible constraints")
            y, lam = res
        bases.append(y)
        lattices.append(lam)

    # flat generators of the combined lattice
    gens: list[tuple[int, ...]] = []
    offsets = []
    off = 0
    for spec, lam in zip(algebra.components, lattices):
        offsets.append(off)
        for row in lam:
            g = [0] * algebra.degree
            for j, v in enumerate(row):
                g[off + j] = v
            gens.append(tuple(g))
        off += spec.degree
    base_flat = [0] * algebra.degree
    for i, y in enumerate(bases):
        for j, v in enumerate(y):
            base_flat[offsets[i] + j] = v

    min_step = min(min(row[i] for i, row in enumerate(lam)) for lam in lattices)
    base_height = max(abs(v) for v in base_flat) if base_flat else 0
    max_layer = (bound + base_height) // max(min_step, 1) + 1

    checked = 0
    for t in gen_multipliers(len(gens)):
        if max((abs(v) for v in t), default=0) > max_layer:
            break
        flat = list(base_flat)
        for ti, g in zip(t, gens):
            if ti:
                for j, v in enumerate(g):
                    flat[j] += ti * v
        if max(abs(v) for v in flat) > bound:
            continue
        y = algebra.from_flat(flat)
        if exclude_zero and y.is_zero():
            continue
        checked += 1
        if membership(sieve, y).member:
            return y
    raise NotFoundWithinBound(bound, checked)


# ---------------------------------------------------------------------------
# surjectivity of V_{K,k} -> V_{K,k,p}


@dataclass
class SurjectivityReport:
    """Witness table for the reduction map V_{K,k} -> V_{K,k,p}."""

    algebra: EtaleAlgebra
    k: int
    p: int
    n_classes: int
    v_classes: int
    surjective: bool
    max_witness_height: int
    reverified: int
    fallback_classes: int
    _class_reps: list[Coords] = field(default_factory=list, repr=False)
    _witnesses: list[AlgebraicInt] = field(default_factory=list, repr=False)

    def items(self, limit: int | None = None) -> Iterator[tuple[Coords, AlgebraicInt]]:
        n = len(self._class_reps) if limit is None else min(limit, len(self._class_reps))
        for i in range(n):
            yield self._class_reps[i], self._witnesses[i]

    def witness_count(self) -> int:
        return len(self._witnesses)


def _surjectivity_scalar(
    algebra: EtaleAlgebra, k: int, p: int, bound: int, budget: int = 500_000
) -> SurjectivityReport:
    import itertools

    from .errors import BudgetExceeded

    if p ** (k * algebra.degree) > budget:
        raise BudgetExceeded(
            f"{p ** (k * algebra.degree)} classes exceed the scalar budget {budget}"
        )
    sieve = kfree_sieve(algebra, k)
    primes = split_prime(algebra, p)
    zero_lattices = [(q.component, ideal_power(q, k).hnf) for q in primes]
    per_comp = [list(range(p**k)) for _ in range(algebra.degree)]
    reps: list[Coords] = []
    wits: list[AlgebraicInt] = []
    n_classes = 0
    maxh = 0
    for flat in itertools.product(*per_comp):
        n_classes += 1
        x = algebra.from_flat(flat)
        if any(lat_contains(x.coords[ci], h) for ci, h in zero_lattices):
            continue
        cons = [
            CongruenceConstraint(q, k, reduce_mod(x, ideal_power(q, k))) for q in primes
        ]
        y = solve(sieve, cons, bound=bound)
        for q in primes:
            mod = ideal_power(q, k)
            if mod.reduce_coords(y.coords[q.component]) != mod.reduce_coords(
                x.coords[q.component]
            ):
                raise VerificationFailed(f"witness {y} is not congruent to {x} mod {mod}")
        if not membership(sieve, y).member:
            raise VerificationFailed(f"witness {y} is not {k}-free")
        reps.append(flat)
        wits.append(y)
        maxh = max(maxh, y.height)
    return SurjectivityReport(
        algebra,
        k,
        p,
        n_classes,
        len(reps),
        True,
        maxh,
        reverified=len(reps),
        fallback_classes=0,
        _class_reps=reps,
        _witnesses=wits,
    )


# Classes per row band of the strip sieve: the kernel's working set is a few
# bytes per class of one band, whatever p^k is.
_SEGMENT_CLASSES = 1 << 21


def _mark_lattice_strip(mask: np.ndarray, hnf: Hnf, a0: int, H: int, W: int) -> None:
    """Mark lattice points with first coordinate in [a0, a0+H), second in [0, W).

    (a, b) lies on the lattice iff b = j*gamma with j*beta = a (mod alpha).  With
    g = gcd(beta, alpha), row a has points iff g | a, at j = (a/g)(beta/g)^-1
    mod alpha/g.  Walking rows costs O(H + points), however large alpha is.
    """
    (alpha, _), (beta, gamma) = hnf
    g = math.gcd(beta, alpha)
    m = alpha // g
    inv = pow(beta // g, -1, m)
    rows = np.arange((-a0) % g, H, g, dtype=np.int64)
    j0 = ((a0 + rows) // g * inv) % m
    nb = (W - 1) // (m * gamma) + 1
    b = j0[:, None] * gamma + np.arange(nb, dtype=np.int64)[None, :] * (m * gamma)
    flat = rows[:, None] * W + b
    mask.flat[flat[b < W]] = True


def _quad_prime_lattices(
    algebra: EtaleAlgebra, k: int, skip_p: int, max_norm: int
) -> list[Hnf]:
    out = []
    for q in primes_upto(_iroot(max_norm, k)):
        if q == skip_p:
            continue
        for prime in split_prime(algebra, q):
            if prime.norm**k <= max_norm:
                out.append(ideal_power(prime, k).hnf)
    return out


def _surjectivity_quadratic(
    algebra: EtaleAlgebra,
    k: int,
    p: int,
    max_strips: int,
    verify: str,
    sample_cap: int,
) -> SurjectivityReport:
    """Strip sieve over the P x P class grid (P = p^k), one row band at a time.

    The class (a, b) gets the witness (a + s*P, b) for the first strip s whose
    box [s*P, (s+1)*P) x [0, P) leaves that point unmarked by every q^k.  Each
    band holds about _SEGMENT_CLASSES classes and shares one mask buffer, so no
    array is sized by P^2.  Classes are ranked in row-major order across bands;
    sampled re-verification picks every stride-th rank.
    """
    spec = algebra.components[0]
    s_coef, t_coef = spec.omega_poly
    P = p**k
    primes = split_prime(algebra, p)
    zero_lattices = [ideal_power(q, k).hnf for q in primes]
    rows = max(1, _SEGMENT_CLASSES // P)
    bands = [(r0, min(rows, P - r0)) for r0 in range(0, P, rows)]
    buf = np.empty(rows * P, dtype=bool)

    def band_mask(lattices: list[Hnf], a0: int, h: int) -> np.ndarray:
        mask = buf[: h * P]
        mask.fill(False)
        for hnf in lattices:
            _mark_lattice_strip(mask, hnf, a0, h, P)
        return mask

    lattices_by_strip: dict[int, list[Hnf]] = {}

    def strip_lattices(s: int) -> list[Hnf]:
        if s not in lattices_by_strip:
            amax = (s + 1) * P
            max_norm = amax * amax + abs(s_coef) * amax * P + abs(t_coef) * P * P
            lattices_by_strip[s] = _quad_prime_lattices(algebra, k, p, max_norm)
        return lattices_by_strip[s]

    v_classes = sum(h * P - int(np.count_nonzero(band_mask(zero_lattices, r0, h))) for r0, h in bands)
    if verify == "full" or (verify == "auto" and v_classes <= 4_000_000):
        stride = 1
    else:
        stride = max(1, v_classes // sample_cap)
    # about 50 membership spot checks, spread evenly over the sampled ranks
    spot_stride = stride * max(1, -(-v_classes // stride) // 50)

    sieve = kfree_sieve(algebra, k)
    max_h = 0
    reverified = 0
    fallback: list[AlgebraicInt] = []
    reps: list[Coords] = []
    wits: list[AlgebraicInt] = []
    rank0 = 0
    for r0, h in bands:
        in_v = ~band_mask(zero_lattices, r0, h)
        pos = np.flatnonzero(in_v)  # the band's classes in rank order
        # pending classes; strips counts the strips each class failed, which
        # is the strip of its witness once it leaves todo
        todo = in_v.copy()
        strips = np.zeros(h * P, dtype=np.int8)
        for s in range(max_strips):
            if not todo.any():
                break
            todo &= band_mask(strip_lattices(s), s * P + r0, h)
            strips += todo

        for i in np.flatnonzero(todo).tolist():
            x = algebra.element([(r0 + i // P, i % P)])
            cons = [
                CongruenceConstraint(q, k, reduce_mod(x, ideal_power(q, k))) for q in primes
            ]
            fallback.append(solve(sieve, cons, bound=64 * P))

        # witness (a + s*P, b) heights: the top strip's last row, the last column
        have = in_v & ~todo
        if have.any():
            top = int(np.max(strips, where=have, initial=0))
            last_row = np.flatnonzero(((strips == top) & have).reshape(h, P).any(axis=1))[-1]
            last_col = np.flatnonzero(have.reshape(h, P).any(axis=0))[-1]
            max_h = max(max_h, r0 + int(last_row) + top * P, int(last_col))

        # independent re-verification: direct divisibility per prime ideal on
        # the witness coordinates (the finder marked boxes; this tests each one)
        ranks = np.arange((-rank0) % stride, pos.size, stride)
        ranks = ranks[have[pos[ranks]]]
        sel = pos[ranks]
        sa = r0 + sel // P + strips[sel].astype(np.int64) * P
        sb = sel % P
        if sel.size:
            nrm = np.abs(sa * sa + s_coef * sa * sb - t_coef * sb * sb)
            good = np.ones(sel.size, dtype=bool)
            for (alpha, _), (beta, gamma) in _quad_prime_lattices(algebra, k, p, int(nrm.max())):
                good &= ~((sb % gamma == 0) & ((sa - (sb // gamma) * beta) % alpha == 0))
            # witnesses are congruent to their class by construction: a = class + s*P
            if not bool(good.all()):
                raise VerificationFailed("strip sieve produced a non-k-free witness")
        reverified += int(sel.size)
        # scalar spot check through the standard membership path
        for j in np.flatnonzero((rank0 + ranks) % spot_stride == 0).tolist():
            y = algebra.element([(int(sa[j]), int(sb[j]))])
            if not membership(sieve, y).member:
                raise VerificationFailed(f"strip witness {y} is not {k}-free")

        for i in pos[: max(0, 4096 - rank0)].tolist():
            if have[i]:
                a, b = r0 + i // P, i % P
                reps.append((a, b))
                wits.append(algebra.element([(a + int(strips[i]) * P, b)]))
        rank0 += int(pos.size)

    for y in fallback:
        max_h = max(max_h, y.height)
        if not membership(sieve, y).member:
            raise VerificationFailed(f"fallback witness {y} is not {k}-free")
    return SurjectivityReport(
        algebra,
        k,
        p,
        P * P,
        v_classes,
        True,
        max_h,
        reverified=reverified + len(fallback),
        fallback_classes=len(fallback),
        _class_reps=reps,
        _witnesses=wits,
    )


def check_local_surjectivity(
    algebra: EtaleAlgebra,
    k: int,
    p: int,
    bound: int | None = None,
    verify: str = "auto",
) -> SurjectivityReport:
    """Exhibit a k-free preimage for every class of V_{K,k,p}.

    Every class modulo p^k not killed by a prime power above p receives a
    witness; witnesses are re-verified by direct divisibility tests (all of
    them up to 4e6 classes, about 200k evenly spaced samples beyond) and a
    failed re-check raises VerificationFailed.  Over a quadratic field the
    strip sieve works in row bands of a fixed number of classes, so its peak
    memory does not grow with p^k.  Requires k >= 2.
    """
    if k < 2:
        raise TailNotBoundable("local-global surjectivity requires k >= 2")
    if len(algebra.components) == 1 and not algebra.components[0].is_rational:
        return _surjectivity_quadratic(algebra, k, p, max_strips=10, verify=verify, sample_cap=200_000)
    default_bound = 8 * p**k
    return _surjectivity_scalar(algebra, k, p, bound or default_bound)
