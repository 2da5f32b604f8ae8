"""Constructive strong approximation inside V(K, R) and surjectivity checks.

`solve` finds an element of V(K, R) in prescribed residue classes by walking
the CRT base point plus multiples of the combined modulus lattice in a fixed
radial order.  `check_local_surjectivity` exhibits a k-free preimage for
every k-free residue class modulo p^k with one vectorized strip sieve per
field component: Q is a one-column grid whose strips follow the radial order
of `solve`, a quadratic field the p^k x p^k class grid.  The strips are
marked by `lattices.coset_points`, the package's one box-marking primitive,
and the grid is walked in row bands of about 2^21 classes
(`lattices.row_bands`), so memory is bounded by the band, not by the grid.
A product algebra is assembled from its components.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    BudgetExceeded,
    InvalidConstraint,
    NotFoundWithinBound,
    PreconditionFailed,
    TailNotBoundable,
    VerificationFailed,
)
from .lattices import Hnf, coset_points, crt_pair, gen_multipliers, grid_columns, grid_coords, grid_hnf, identity_hnf, row_bands
from .rings import (
    AlgebraicInt,
    Coords,
    EtaleAlgebra,
    FieldSpec,
    PrimeIdeal,
    ideal_power,
    reduce_mod,
    split_prime,
)
from .sieve import SieveSpec, kfree_sieve, local_set, membership, _check_bound, _norm_bound, _tail_primes


@dataclass(frozen=True)
class CongruenceConstraint:
    """Require y = target mod prime^k."""

    prime: PrimeIdeal
    k: int
    target: AlgebraicInt

    def canonical_target(self) -> Coords:
        mod = ideal_power(self.prime, self.k)
        return mod.reduce_coords(self.target.coords[self.prime.component])


def _check_constraint_compatible(sieve: SieveSpec, c: CongruenceConstraint) -> None:
    """The class target + p^k must not be contained in R_p, a set of classes mod p^e.

    For k >= e the class lies in the one class of target mod p^e.  For k < e
    it is the union of Nm(p)^(e-k) classes mod p^e, so it lies in R_p iff
    that many classes of R_p reduce to target mod p^k.  Either way nothing
    is enumerated, whatever k and e are.
    """
    ls = local_set(sieve, c.prime)
    cons_mod = ideal_power(c.prime, c.k)
    target = c.canonical_target()
    if c.k >= ls.modulus.k:
        inside = ls.modulus.reduce_coords(target) in ls.classes
    else:
        hits = sum(cons_mod.reduce_coords(r) == target for r in ls.classes)
        inside = hits * cons_mod.norm == ls.modulus.norm
    if inside:
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
    _check_bound(bound)
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
        lam = identity_hnf(spec.degree)
        for c in constraints:
            if c.prime.component != i:
                continue
            res = crt_pair(y, lam, c.canonical_target(), ideal_power(c.prime, c.k).hnf)
            if res is None:
                raise InvalidConstraint("incompatible constraints")
            y, lam = res
        bases.append(y)
        lattices.append(lam)

    gens = algebra.lattice_rows(lattices)
    base_flat = algebra.element(bases).flat()

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


# Strip-sieve limits: strips walked before a class falls back to `solve`,
# witness rows kept in a report's table, and the largest class grid
# p^(k*degree) of one component the kernel will walk.
_MAX_STRIPS = 10
_TABLE_ROWS = 4096
_MAX_GRID_CLASSES = 1 << 28
# Re-verification checks every witness up to _FULL_VERIFY_CLASSES classes and
# about _SAMPLE_CAP evenly spaced ones beyond.
_FULL_VERIFY_CLASSES = 4_000_000
_SAMPLE_CAP = 200_000


def _norms(spec: FieldSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if spec.is_rational:
        return np.abs(a)
    s, t = spec.omega_poly
    return np.abs(a * a + s * a * b - t * b * b)


def _prime_lattices(sieve: SieveSpec, skip_p: int, max_norm: int) -> list[Hnf]:
    """Grid lattices of q^k for every prime q not above skip_p with Nm(q)^k <= max_norm."""
    k = sieve.tail.exponent
    return [grid_hnf(ideal_power(q, k).hnf) for q in _tail_primes(sieve, max_norm) if q.p != skip_p]


def _surjectivity_field(algebra: EtaleAlgebra, k: int, p: int) -> SurjectivityReport:
    """Strip sieve over the class grid of a one-component algebra, one row band at a time.

    With P = p^k the classes are the points (a, b) of a P x W grid: W = P over a
    quadratic field, W = 1 over Q.  The class (a, b) gets the witness
    (a + t*P, b) for the first strip offset t whose box [t*P, (t+1)*P) x [0, W)
    leaves that point unmarked by every q^k, q not above p.  Offsets run
    0, 1, -1, 2, -2, ... over Q, the radial order of `solve`, and 0, 1, 2, ...
    over a quadratic field; a class still pending after _MAX_STRIPS strips
    falls back to `solve`.  Each band (`row_bands`) holds about 2^21 classes and
    shares one mask buffer.  Classes are ranked in row-major order across
    bands; sampled re-verification picks every stride-th rank.
    """
    spec = algebra.components[0]
    P = p**k
    n = spec.degree
    _, W = grid_columns(n, 0, P)
    sieve = kfree_sieve(algebra, k)
    primes = split_prime(algebra, p)
    zero_lattices = [grid_hnf(ideal_power(q, k).hnf) for q in primes]
    bands = row_bands(0, P, W)
    buf = np.empty(bands[0][1] * W, dtype=bool)

    def band_mask(lattices: list[Hnf], a0: int, h: int) -> np.ndarray:
        mask = buf[: h * W]
        mask.fill(False)
        for hnf in lattices:
            for idx in coset_points(hnf, (0, 0), a0, 0, h, W):
                mask[idx] = True
        return mask

    if spec.is_rational:
        offsets = [(s + 1) // 2 if s % 2 else -(s // 2) for s in range(_MAX_STRIPS)]
    else:
        offsets = list(range(_MAX_STRIPS))
    offset_arr = np.array(offsets, dtype=np.int64)
    lattices_by_strip: dict[int, list[Hnf]] = {}

    def strip_lattices(s: int) -> list[Hnf]:
        if s not in lattices_by_strip:
            amax = max(offsets[s] + 1, -offsets[s]) * P
            lattices_by_strip[s] = _prime_lattices(sieve, p, _norm_bound(spec, amax, W))
        return lattices_by_strip[s]

    def reach(s: int, r0: int, h: int) -> int:
        # the largest |a + offsets[s]*P| over the band's rows
        lo = offsets[s] * P + r0
        return lo + h - 1 if lo >= 0 else -lo

    # the k-free classes P^n * prod over q | p of (1 - Nm(q)^-k), checked against the bands below
    v_classes = P**n * math.prod(q.norm**k - 1 for q in primes) // math.prod(q.norm**k for q in primes)
    stride = 1 if v_classes <= _FULL_VERIFY_CLASSES else max(1, v_classes // _SAMPLE_CAP)
    # about 50 membership spot checks, spread evenly over the sampled ranks
    spot_stride = stride * max(1, -(-v_classes // stride) // 50)

    max_h = 0
    reverified = 0
    n_fallback = 0
    reps: list[Coords] = []
    wits: list[AlgebraicInt] = []
    rank0 = 0
    for r0, h in bands:
        in_v = ~band_mask(zero_lattices, r0, h)
        pos = np.flatnonzero(in_v)  # the band's classes in rank order
        # pending classes; strips counts the strips each class failed, which
        # is the strip of its witness once it leaves todo
        todo = in_v.copy()
        strips = np.zeros(h * W, dtype=np.int8)
        for s in range(_MAX_STRIPS):
            if not todo.any():
                break
            todo &= band_mask(strip_lattices(s), offsets[s] * P + r0, h)
            strips += todo

        fallback: dict[int, AlgebraicInt] = {}
        for i in np.flatnonzero(todo).tolist():
            x = algebra.element([grid_coords(r0 + i // W, i % W, n)])
            cons = [
                CongruenceConstraint(q, k, reduce_mod(x, ideal_power(q, k))) for q in primes
            ]
            y = solve(sieve, cons, bound=64 * P)
            for c in cons:
                if reduce_mod(y, ideal_power(c.prime, k)) != c.target:
                    raise VerificationFailed(
                        f"fallback witness {y} is not congruent to {x} mod {c.prime}^{k}"
                    )
            if not membership(sieve, y).member:
                raise VerificationFailed(f"fallback witness {y} is not {k}-free")
            fallback[i] = y
            max_h = max(max_h, y.height)
        n_fallback += len(fallback)

        # witness (a + offsets[s]*P, b) heights: strips in falling order of
        # reach, the last column
        have = in_v & ~todo
        if have.any():
            max_h = max(max_h, int(np.flatnonzero(have.reshape(h, W).any(axis=0))[-1]))
            top = int(np.max(strips, where=have, initial=0))
            for s in sorted(range(top + 1), key=lambda s: -reach(s, r0, h)):
                if reach(s, r0, h) <= max_h:
                    break
                hit = np.flatnonzero(((strips == s) & have).reshape(h, W).any(axis=1))
                if hit.size:
                    lo = offsets[s] * P + r0
                    max_h = max(max_h, lo + int(hit[-1]) if lo >= 0 else -lo - int(hit[0]))

        # independent re-verification: direct divisibility per prime ideal on
        # the witness coordinates (the finder marked boxes; this tests each one)
        ranks = np.arange((-rank0) % stride, pos.size, stride)
        ranks = ranks[have[pos[ranks]]]
        sel = pos[ranks]
        sa = r0 + sel // W + offset_arr[strips[sel]] * P
        sb = sel % W
        if sel.size:
            nrm = _norms(spec, sa, sb)
            good = np.ones(sel.size, dtype=bool)
            for (alpha, _), (beta, gamma) in _prime_lattices(sieve, p, int(nrm.max())):
                good &= ~((sb % gamma == 0) & ((sa - (sb // gamma) * beta) % alpha == 0))
            # witnesses are congruent to their class by construction: a = class + t*P
            if not bool(good.all()):
                raise VerificationFailed("strip sieve produced a non-k-free witness")
        reverified += int(sel.size) + len(fallback)
        # scalar spot check through the standard membership path
        for j in np.flatnonzero((rank0 + ranks) % spot_stride == 0).tolist():
            y = algebra.element([grid_coords(int(sa[j]), int(sb[j]), n)])
            if not membership(sieve, y).member:
                raise VerificationFailed(f"strip witness {y} is not {k}-free")

        for i in pos[: max(0, _TABLE_ROWS - rank0)].tolist():
            a, b = r0 + i // W, i % W
            reps.append(grid_coords(a, b, n))
            if i in fallback:
                wits.append(fallback[i])
            else:
                wits.append(algebra.element([grid_coords(a + offsets[strips[i]] * P, b, n)]))
        rank0 += int(pos.size)
    if rank0 != v_classes:
        raise VerificationFailed(f"the bands hold {rank0} {k}-free classes, the product formula {v_classes}")

    return SurjectivityReport(
        algebra,
        k,
        p,
        P * W,
        v_classes,
        True,
        max_h,
        reverified=reverified,
        fallback_classes=n_fallback,
        _class_reps=reps,
        _witnesses=wits,
    )


def check_local_surjectivity(algebra: EtaleAlgebra, k: int, p: int) -> SurjectivityReport:
    """Exhibit a k-free preimage for every class of V_{K,k,p}.

    Every component runs the same strip sieve (`_surjectivity_field`): a Q
    component is a one-column grid whose strips follow the radial order of
    `solve`, a quadratic field a p^k x p^k grid walked in row bands of a fixed
    number of classes, so peak memory does not grow with p^k.  Being k-free is
    a componentwise condition, so a product algebra's report is assembled from
    its components': class counts multiply, the height is the largest, and
    the witness table is the lex product of the components' tables.  Every
    report keeps the first 4096 rows of its table.  Witnesses are re-verified
    by direct divisibility tests (all of them up to 4e6 classes of a
    component, about 200k evenly spaced samples beyond) and fallback witnesses
    by membership and congruence; a failed re-check raises VerificationFailed.
    A component grid of more than 2^28 classes raises BudgetExceeded before
    anything is allocated.  Requires k >= 2.
    """
    if k < 2:
        raise TailNotBoundable("local-global surjectivity requires k >= 2")
    for spec in algebra.components:
        if p ** (k * spec.degree) > _MAX_GRID_CLASSES:
            raise BudgetExceeded(
                f"{p ** (k * spec.degree)} classes of {spec} exceed the budget {_MAX_GRID_CLASSES}"
            )
    if len(algebra.components) == 1:
        return _surjectivity_field(algebra, k, p)
    parts = [_surjectivity_field(EtaleAlgebra((spec,)), k, p) for spec in algebra.components]
    reps: list[Coords] = []
    wits: list[AlgebraicInt] = []
    for row in itertools.islice(itertools.product(*(list(r.items()) for r in parts)), _TABLE_ROWS):
        reps.append(tuple(a for c, _ in row for a in c))
        wits.append(algebra.element([w.coords[0] for _, w in row]))
    v_classes = math.prod(r.v_classes for r in parts)
    return SurjectivityReport(
        algebra,
        k,
        p,
        math.prod(r.n_classes for r in parts),
        v_classes,
        True,
        max(r.max_witness_height for r in parts),
        reverified=math.prod(r.reverified for r in parts),
        fallback_classes=v_classes - math.prod(r.v_classes - r.fallback_classes for r in parts),
        _class_reps=reps,
        _witnesses=wits,
    )
