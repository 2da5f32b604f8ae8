"""Constructive strong approximation inside V(K, R) and surjectivity checks.

`solve` finds an element of V(K, R) in prescribed residue classes by walking
the CRT base point plus multiples of the combined modulus lattice in a fixed
radial order.  `check_local_surjectivity` exhibits a k-free preimage for
every k-free residue class modulo p^k O_K with one vectorized strip sieve per
field component: Q is a one-column grid whose strips follow the radial order
of `solve`, a quadratic field the p^k x p^k class grid.  The strip sieve is
two sieves read through `sieve._member_mask`, the package's one member mask:
the classes are the members of the sieve of the primes above p alone, and a
strip's witnesses the members of the k-free sieve with nothing forbidden at
those primes.  Every witness is (a + t*p^k, b) for its class (a, b), so it
is congruent to the class mod p^k O_K by construction; a class with no
witness in the first 64 strips raises NotFoundWithinBound.  The grid is
walked in row bands of about 2^21 classes (`lattices.row_bands`), so memory
is bounded by the band, not by the grid.  Witnesses are re-checked on a
prime list of their own, every prime included, through their norms and then
their coordinates.  A product algebra is assembled from its components.
"""

from __future__ import annotations

import functools
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
from .lattices import Hnf, crt_pair, gen_multipliers, grid_columns, grid_coords, grid_hnf, identity_hnf, row_bands
from .rings import (
    AlgebraicInt,
    Coords,
    EtaleAlgebra,
    FieldSpec,
    PrimeIdeal,
    ideal_power,
    split_prime,
)
from .sieve import (
    _MAX_GRID_CLASSES, SieveSpec, TailRule, build_sieve, kfree_sieve, local_set, membership,
    _check_bound, _forbidden_cosets, _member_mask, _norm_bound, _tail_primes,
)


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
    """Witness table for the reduction map V_{K,k} -> V_{K,k,p}.

    `fallback_classes` is always 0: every witness comes from the strip sieve,
    and a class it cannot lift raises instead.  The field stays because
    `bench/worker.py` and the tests read it.
    """

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


# Strip-sieve limits: strips walked per class, the reach of the old
# `solve(..., bound=64 * p^k)` search (a class with no witness in them raises
# NotFoundWithinBound; the count fits the int8 strip map), and witness rows
# kept in a report's table.  The largest class grid p^(k*degree) of one
# component the kernel will walk is the box budget _MAX_GRID_CLASSES.
_MAX_STRIPS = 64
_TABLE_ROWS = 4096
# Re-verification checks every witness up to _FULL_VERIFY_CLASSES classes and
# about _SAMPLE_CAP evenly spaced ones beyond.
_FULL_VERIFY_CLASSES = 4_000_000
_SAMPLE_CAP = 550_000


def _non_kfree_witnesses(spec: FieldSpec, sieve: SieveSpec, sa: np.ndarray, sb: np.ndarray) -> np.ndarray:
    """Ascending indices i with (sa[i], sb[i]) in q^k for some prime q.

    Ideal norms are multiplicative, so q^k | w implies Nm(q)^k | N(w): one
    `N(w) % Nm(q)^k` per distinct Nm(q)^k (the primes above one rational
    prime share it) finds the only witnesses q can hold, and the coordinate
    test decides just those.  The norms must be exact, so every |N(w)| must
    be below 2^63 (`check_local_surjectivity` refuses larger cells).
    """
    k = sieve.tail.exponent
    nrm = np.abs(spec.norm((sa, sb)))
    bad = np.zeros(sa.size, dtype=bool)
    modulus = 0
    for q in _tail_primes(sieve, int(nrm.max(initial=0))):
        if q.norm**k != modulus:
            modulus = q.norm**k
            idx = np.flatnonzero(nrm % modulus == 0)
            a, b = sa[idx], sb[idx]
        if a.size:
            (alpha, _), (beta, gamma) = grid_hnf(ideal_power(q, k).hnf)
            bad[idx] |= (b % gamma == 0) & ((a - (b // gamma) * beta) % alpha == 0)
    return np.flatnonzero(bad)


def _surjectivity_field(algebra: EtaleAlgebra, k: int, p: int) -> SurjectivityReport:
    """Strip sieve over the class grid of a one-component algebra, one row band at a time.

    With P = p^k the classes are the points (a, b) of a P x W grid: W = P over a
    quadratic field, W = 1 over Q.  Two sieves do the work, both read through
    `sieve._member_mask`: the k-free classes are the members of `at_p`, which
    forbids the zero class mod q^k at each q | p and nothing else, and the
    class (a, b) gets the witness (a + t*P, b) for the first strip offset t at
    which that point is a member of `off_p`, k-free at every prime not above p
    and free at those above it.  Offsets run 0, 1, -1, 2, -2, ... over Q, the
    radial order of `solve`, and 0, 1, 2, ... over a quadratic field, so every
    witness is congruent to its class mod P O by construction; a class still
    pending after _MAX_STRIPS strips raises NotFoundWithinBound.  Each strip's
    cosets, over its box [t*P, (t+1)*P) x [0, W), are listed once.  Each band
    (`row_bands`) holds about 2^21 classes and shares one mask buffer.  Classes
    are ranked in row-major order across bands; sampled re-verification picks
    every stride-th rank.
    """
    spec = algebra.components[0]
    P = p**k
    n = spec.degree
    _, W = grid_columns(n, 0, P)
    sieve = kfree_sieve(algebra, k)
    primes = split_prime(algebra, p)
    at_p = build_sieve(algebra, TailRule.empty(), {q: (k, [spec.zero()]) for q in primes})
    off_p = build_sieve(algebra, TailRule.kfree(k), {q: (k, []) for q in primes})
    bands = row_bands(0, P, W)
    buf = np.empty(bands[0][1] * W, dtype=bool)

    if spec.is_rational:
        offsets = [(s + 1) // 2 if s % 2 else -(s // 2) for s in range(_MAX_STRIPS)]
    else:
        offsets = list(range(_MAX_STRIPS))
    offset_arr = np.array(offsets, dtype=np.int64)

    @functools.cache
    def strip_cosets(s: int):
        amax = max(offsets[s] + 1, -offsets[s]) * P
        return _forbidden_cosets(off_p, 0, _norm_bound(spec, amax, W))

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
    reps: list[Coords] = []
    wits: list[AlgebraicInt] = []
    rank0 = 0
    for r0, h in bands:
        in_v = _member_mask(_forbidden_cosets(at_p, 0, 0), r0, 0, h, W, np.empty(h * W, dtype=bool))
        pos = np.flatnonzero(in_v)  # the band's classes in rank order
        # pending classes; strips counts the strips each class failed, which
        # is the strip of its witness once it leaves todo
        todo = in_v.copy()
        strips = np.zeros(h * W, dtype=np.int8)
        for s in range(_MAX_STRIPS):
            if not todo.any():
                break
            # todo &= ~members, without a temporary
            np.greater(todo, _member_mask(strip_cosets(s), offsets[s] * P + r0, 0, h, W, buf), out=todo)
            strips += todo
        if todo.any():
            i = int(np.flatnonzero(todo)[0])
            x = grid_coords(r0 + i // W, i % W, n)
            raise NotFoundWithinBound(
                (max(map(abs, offsets)) + 1) * P - 1, _MAX_STRIPS,
                f"class {x} has no {k}-free lift (a + t*{P}, b) in {_MAX_STRIPS} strips",
            )

        # witness (a + offsets[s]*P, b) heights: strips in falling order of
        # reach, the last column
        if pos.size:
            max_h = max(max_h, int(np.flatnonzero(in_v.reshape(h, W).any(axis=0))[-1]))
            top = int(np.max(strips, where=in_v, initial=0))
            for s in sorted(range(top + 1), key=lambda s: -reach(s, r0, h)):
                if reach(s, r0, h) <= max_h:
                    break
                hit = np.flatnonzero(((strips == s) & in_v).reshape(h, W).any(axis=1))
                if hit.size:
                    lo = offsets[s] * P + r0
                    max_h = max(max_h, lo + int(hit[-1]) if lo >= 0 else -lo - int(hit[0]))

        # independent re-verification of the sampled witnesses, through their
        # norms and then their coordinates (`_non_kfree_witnesses`); it reads
        # its own prime list, the primes above p included, not the finder's
        # cosets.  Witnesses are congruent to their class by construction:
        # a = class + t*P
        ranks = np.arange((-rank0) % stride, pos.size, stride)
        sel = pos[ranks]
        sa = r0 + sel // W + offset_arr[strips[sel]] * P
        sb = sel % W
        if _non_kfree_witnesses(spec, sieve, sa, sb).size:
            raise VerificationFailed("strip sieve produced a non-k-free witness")
        reverified += int(sel.size)
        # scalar spot check through the standard membership path
        for j in np.flatnonzero((rank0 + ranks) % spot_stride == 0).tolist():
            y = algebra.element([grid_coords(int(sa[j]), int(sb[j]), n)])
            if not membership(sieve, y).member:
                raise VerificationFailed(f"strip witness {y} is not {k}-free")

        for i in pos[: max(0, _TABLE_ROWS - rank0)].tolist():
            a, b = r0 + i // W, i % W
            reps.append(grid_coords(a, b, n))
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
        fallback_classes=0,
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
    report keeps the first 4096 rows of its table.  Every witness is
    (a + t*p^k, b) for its class (a, b), so it is congruent to the class mod
    p^k O_K; a class with no k-free lift in the first 64 strips raises
    NotFoundWithinBound.  Witnesses are re-verified (all of them up to 4e6
    classes of a component, about 550k evenly spaced samples beyond)
    through their norms, then their coordinates: every prime q^k is tested,
    those above p too (q^k contains p^k, so the witness of a class outside
    q^k stays outside it), and only on the witnesses whose norm Nm(q)^k
    divides.  A failed re-check raises VerificationFailed.  A component grid
    of more than 2^28 classes, or one whose witness norms could pass int64
    (2^63), raises BudgetExceeded before anything is allocated.  Requires
    k >= 2.
    """
    if k < 2:
        raise TailNotBoundable("local-global surjectivity requires k >= 2")
    for spec in algebra.components:
        if p ** (k * spec.degree) > _MAX_GRID_CLASSES:
            raise BudgetExceeded(
                f"{p ** (k * spec.degree)} classes of {spec} exceed the budget {_MAX_GRID_CLASSES}"
            )
        # a witness (a, b) has |a| < (_MAX_STRIPS + 1) * p^k and 0 <= b < p^k
        norm_bound = _norm_bound(spec, (_MAX_STRIPS + 1) * p**k, p**k)
        if norm_bound >= 2**63:
            raise BudgetExceeded(f"witness norms over {spec} reach {norm_bound}, past int64")
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
        fallback_classes=0,
        _class_reps=reps,
        _witnesses=wits,
    )
