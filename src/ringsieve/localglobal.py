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
is bounded by the band, not by the grid.  The strips read their tail
cosets as the box readers' grid columns (`sieve._grid_rows`), and witnesses
are re-checked on a prime list of their own (`sieve._tail_primes`), every
prime included, through their norms and then their coordinates.  A product
algebra is assembled from its components.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import ClassVar, Iterator, Sequence

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
from .primes import is_prime
from .rings import (
    AlgebraicInt,
    Coords,
    EtaleAlgebra,
    FieldSpec,
    PrimeIdeal,
    ideal_power,
    make_algebra,
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


def _crt_fold(
    algebra: EtaleAlgebra, constraints: Sequence[CongruenceConstraint]
) -> tuple[list[Coords], list[Hnf]]:
    """Per component, the CRT base point and modulus lattice of its constraints.

    A component's first constraint is its own solution: its canonical target
    modulo the HNF of q^k, which is what `crt_pair` returns for it from
    (0, Z^n).  Only a second constraint on the component takes `crt_pair`'s
    elimination.  A component with none is 0 modulo the whole component.
    """
    bases: list[Coords] = []
    lattices: list[Hnf] = []
    for i, spec in enumerate(algebra.components):
        y: Coords = spec.zero()
        lam = None
        for c in constraints:
            if c.prime.component != i:
                continue
            target, h = c.canonical_target(), ideal_power(c.prime, c.k).hnf
            if lam is None:
                y, lam = target, h
                continue
            res = crt_pair(y, lam, target, h)
            if res is None:
                raise InvalidConstraint("incompatible constraints")
            y, lam = res
        bases.append(y)
        lattices.append(lam or identity_hnf(spec.degree))
    return bases, lattices


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
        if c.prime.algebra is not algebra and c.prime.algebra != algebra:
            raise PreconditionFailed("constraint prime from a different algebra")
        key = (c.prime.p, c.prime.component, c.prime.root)
        if key in seen:
            raise PreconditionFailed("constraint primes must be distinct")
        seen.add(key)
        _check_constraint_compatible(sieve, c)

    bases, lattices = _crt_fold(algebra, constraints)
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

    `surjective` is always True and `fallback_classes` always 0: every
    witness comes from the strip sieve, and a class it cannot lift raises
    instead.  They are constants rather than fields, and stay readable
    because `bench/worker.py`, the CLI and the tests read them.
    """

    surjective: ClassVar[bool] = True
    fallback_classes: ClassVar[int] = 0

    algebra: EtaleAlgebra
    k: int
    p: int
    n_classes: int
    v_classes: int
    max_witness_height: int
    reverified: int
    _table: list[tuple[Coords, AlgebraicInt]] = field(default_factory=list, repr=False)

    def items(self, limit: int | None = None) -> Iterator[tuple[Coords, AlgebraicInt]]:
        return itertools.islice(self._table, limit)

    def witness_count(self) -> int:
        return len(self._table)


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


def _surjectivity_field(spec: FieldSpec, k: int, p: int) -> tuple[int, int, int, int, list[tuple[Coords, Coords]]]:
    """Strip sieve over the class grid of one field, one row band at a time.

    Returns (classes, k-free classes, largest witness height, witnesses
    re-verified, the first _TABLE_ROWS (class, witness) coordinate pairs).
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
    algebra = make_algebra([spec.d])
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

    # the k-free classes P^n * prod over q | p of (1 - Nm(q)^-k), checked against the bands below
    v_classes = P**n * math.prod(q.norm**k - 1 for q in primes) // math.prod(q.norm**k for q in primes)
    stride = 1 if v_classes <= _FULL_VERIFY_CLASSES else max(1, v_classes // _SAMPLE_CAP)
    # about 50 membership spot checks, spread evenly over the sampled ranks
    spot_stride = stride * max(1, -(-v_classes // stride) // 50)

    max_h = 0
    reverified = 0
    table: list[tuple[Coords, Coords]] = []
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

        # witness (a + offsets[s]*P, b) heights.  Offsets only grow along a
        # quadratic row and a Q row holds one class, so a row's largest |a|
        # is at its last witness's strip; over the rows sharing that strip,
        # |a| is largest at the last row when the strip lies at or above 0,
        # at the first row when below.  Then the last column.  An int8 copy,
        # not a masked max (`np.max(..., where=...)`): the same rows, but with
        # the masked max the Q(sqrt 29), k=3, p=19 cell peaked at 91 MB of RSS
        # instead of 77 MB, through the allocator's reuse of freed buffers.
        if pos.size:
            max_h = max(max_h, int(np.flatnonzero(in_v.reshape(h, W).any(axis=0))[-1]))
            last = np.where(in_v, strips, np.int8(-1)).reshape(h, W).max(axis=1)
            # the strips used, from counts over the int8 map (0-63); np.unique would import numpy.ma
            for s in np.flatnonzero(np.bincount(last[last >= 0])).tolist():
                rows = np.flatnonzero(last == s)
                lo = offsets[s] * P + r0
                max_h = max(max_h, lo + int(rows[-1]) if lo >= 0 else -lo - int(rows[0]))

        # independent re-verification of the sampled witnesses, through their
        # norms and then their coordinates (`_non_kfree_witnesses`); it reads
        # its own prime list, the primes above p included, not the finder's
        # grid columns.  Witnesses are congruent to their class by construction:
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
            table.append((grid_coords(a, b, n), grid_coords(a + offsets[strips[i]] * P, b, n)))
        rank0 += int(pos.size)
    if rank0 != v_classes:
        raise VerificationFailed(f"the bands hold {rank0} {k}-free classes, the product formula {v_classes}")
    return P * W, v_classes, max_h, reverified, table


def check_local_surjectivity(algebra: EtaleAlgebra, k: int, p: int) -> SurjectivityReport:
    """Exhibit a k-free preimage for every class of V_{K,k,p}.

    Every component runs the same strip sieve (`_surjectivity_field`): a Q
    component is a one-column grid whose strips follow the radial order of
    `solve`, a quadratic field a p^k x p^k grid walked in row bands of a fixed
    number of classes, so peak memory does not grow with p^k.  Being k-free is
    a componentwise condition, so every report is assembled from its
    components' results, a field being a product of one: class counts
    multiply, the height is the largest, and the witness table is the lex
    product of the components' tables.  Every report keeps the first 4096
    rows of its table.  Every witness is
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
    k >= 2 and p prime (ValueError otherwise).
    """
    if k < 2:
        raise TailNotBoundable("local-global surjectivity requires k >= 2")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    for spec in algebra.components:
        # p >= 2, so an exponent past the budget's bit length is over it without forming the power
        e = k * spec.degree
        if e >= _MAX_GRID_CLASSES.bit_length() or p**e > _MAX_GRID_CLASSES:
            raise BudgetExceeded(f"{p}^{e} classes of {spec} exceed the budget {_MAX_GRID_CLASSES}")
        # a witness (a, b) has |a| < (_MAX_STRIPS + 1) * p^k and 0 <= b < p^k
        norm_bound = _norm_bound(spec, (_MAX_STRIPS + 1) * p**k, p**k)
        if norm_bound >= 2**63:
            raise BudgetExceeded(f"witness norms over {spec} reach {norm_bound}, past int64")
    n_classes, v_classes, heights, reverified, tables = zip(*(_surjectivity_field(spec, k, p)
                                                             for spec in algebra.components))
    # the coordinates come from the kernel, not from outside, so the table skips `algebra.element`
    table = [(tuple(a for c, _ in row for a in c), AlgebraicInt(algebra, tuple(w for _, w in row)))
             for row in itertools.islice(itertools.product(*tables), _TABLE_ROWS)]
    return SurjectivityReport(algebra, k, p, math.prod(n_classes), math.prod(v_classes), max(heights),
                              math.prod(reverified), table)
