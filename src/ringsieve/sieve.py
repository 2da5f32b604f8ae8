"""Finitely specified sieves: membership, enumeration, density, tail counts.

A sieve assigns to every prime a forbidden compact open set given by finitely
many residue classes modulo p^k.  All but finitely many primes follow a tail
rule; the rest are explicit exceptions.  V(K, R) is the set of integers
avoiding every forbidden class.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    BudgetExceeded,
    ClassOutOfRange,
    FormatError,
    PreconditionFailed,
    TailNotBoundable,
    VerificationFailed,
)
from .intervals import _GRID_BITS, RationalInterval, _round_down, _round_up, cap_bits, directed_product, power_bits
from .lattices import _CHUNK_POINTS, Hnf, Vec, coset_points, grid_columns, grid_coords, grid_hnf, grid_point, quotient_residues, row_bands
from .primes import _FIRST_RANGE_BITS, _MAX_PRIME_BOUND, _check_prime_bound, _iroot, prime_range, primes_upto, range_factors
from .rings import (
    AlgebraicInt,
    Coords,
    EtaleAlgebra,
    FieldSpec,
    Modulus,
    PrimeIdeal,
    _PrimeRows,
    _format_component,
    _parse_component,
    _splitting,
    at_line,
    directives,
    format_algebra,
    ideal_power,
    merge_by_p,
    norms_upto,
    parse_algebra,
    power_fits,
    prime_at,
    prime_ideals,
    prime_rows,
    split_prime,
)


Label = int | tuple[int, ...]


@dataclass(frozen=True)
class TailRule:
    """Default local set at every non-exceptional prime.

    kind 'empty': nothing forbidden.  kind 'classes': the residues of the
    labels modulo p^exponent are forbidden.  A label is a rational integer
    or a flat coordinate vector of the algebra.  The k-free sieve is labels
    (0,) with exponent k.
    """

    kind: str
    exponent: int = 1
    labels: tuple[Label, ...] = ()

    def __post_init__(self):
        if self.kind not in ("empty", "classes"):
            raise ValueError(f"unknown tail kind {self.kind!r}")
        if self.kind == "classes" and (not self.labels or self.exponent < 1):
            raise ValueError("a classes tail needs labels and exponent >= 1")

    @classmethod
    def empty(cls) -> "TailRule":
        return cls("empty")

    @classmethod
    def kfree(cls, k: int) -> "TailRule":
        return cls("classes", k, (0,))

    @classmethod
    def classes_mod_p(cls, labels: Sequence[int]) -> "TailRule":
        return cls("classes", 1, tuple(sorted(set(int(c) for c in labels))))

    @classmethod
    def shifted_kfree(cls, k: int, shifts: Sequence[Label]) -> "TailRule":
        return cls("classes", k, tuple(sorted(set(shifts), key=_label_key)))

    @property
    def is_kfree(self) -> bool:
        return self.kind == "classes" and self.labels == (0,)

    def __str__(self) -> str:
        if self.kind == "empty":
            return "empty"
        if self.is_kfree:
            return f"kfree {self.exponent}"
        body = ",".join(str(c) for c in self.labels)
        return f"classes {body}" if self.exponent == 1 else f"classes^{self.exponent} {body}"


def _label_key(label: Label) -> tuple:
    return (0, label, ()) if isinstance(label, int) else (1, 0, label)


@dataclass(frozen=True)
class LocalSet:
    """Forbidden residue classes at one prime, modulo p^k."""

    modulus: Modulus
    classes: tuple[Coords, ...]

    def __post_init__(self):
        seen = set()
        for c in self.classes:
            if self.modulus.reduce_coords(c) != c:
                raise ClassOutOfRange(f"class {c} is not canonical mod {self.modulus}")
            if c in seen:
                raise ClassOutOfRange(f"class {c} repeated")
            seen.add(c)

    @property
    def prime(self) -> PrimeIdeal:
        return self.modulus.prime

    @property
    def measure(self) -> Fraction:
        return Fraction(len(self.classes), self.modulus.norm)

    def hits(self, x: AlgebraicInt) -> Coords | None:
        """The forbidden class containing x, if any."""
        r = self.modulus.reduce_coords(x.coords[self.modulus.component])
        return r if r in self.classes else None

    def is_everything(self) -> bool:
        return len(self.classes) == self.modulus.norm

    def differences(self, points: Iterable[Coords]) -> set[Coords]:
        """{c - x mod p^k} over the classes c and the points x (in this component's coordinates).

        delta + x is forbidden for some point x iff delta is among these, and
        delta + R_p misses every point iff -delta is not.
        """
        reduce = self.modulus.reduce_coords
        return {reduce(tuple(a - b for a, b in zip(c, x))) for x in points for c in self.classes}

    def refine(self, k: int) -> "LocalSet":
        """The same set as classes modulo prime^k, for k >= the current exponent."""
        if self.modulus.k == k:
            return self
        fine = ideal_power(self.prime, k)
        reps = list(quotient_residues(self.modulus.hnf, fine.hnf))
        out = set()
        for c in self.classes:
            for q in reps:
                out.add(fine.reduce_coords(tuple(a + b for a, b in zip(c, q))))
        return LocalSet(fine, tuple(sorted(out)))


def _prime_key(p: PrimeIdeal) -> tuple:
    return (p.p, p.component, -1 if p.root is None else p.root)


@dataclass(frozen=True)
class SieveSpec:
    """A finitely specified sieve: tail rule plus finitely many exceptions.

    Its tail primes are its algebra's one shared row table (`rings.prime_rows`)
    less its exception primes (`exception_sets`).  Whether it is non-large
    and cofinite is derived from the tail and the exceptions.
    """

    algebra: EtaleAlgebra
    tail: TailRule
    exceptions: tuple[LocalSet, ...]

    @cached_property
    def label_points(self) -> tuple[tuple[Coords, ...], ...]:
        """Per component, the sorted distinct coordinates of the tail labels there.

        An int label n is n on every component; a flat label is split by degree.
        """
        elems = [self.algebra.from_int(c) if isinstance(c, int) else self.algebra.from_flat(c)
                 for c in self.tail.labels]
        return tuple(tuple(sorted({x.coords[i] for x in elems})) for i in range(len(self.algebra.components)))

    @cached_property
    def tail_sets(self) -> dict[PrimeIdeal, LocalSet]:
        """The tail local sets built so far, one per prime (`_tail_local_set`)."""
        return {}

    @cached_property
    def exception_sets(self) -> dict[tuple[int, int, int | None], LocalSet]:
        """The exceptions by (p, component, root) of their prime, the primes a tail scan skips; empty for a tail-only sieve."""
        return {(ls.prime.p, ls.prime.component, ls.prime.root): ls for ls in self.exceptions}

    def exception_at(self, prime: PrimeIdeal) -> LocalSet | None:
        return self.exception_sets.get((prime.p, prime.component, prime.root))

    @cached_property
    def non_large(self) -> bool:
        """Whether no local set covers everything; a tail set can only where it rejects a single point."""
        return not any(ls.is_everything() for ls in (*self.exceptions, *_tail_local_sets(self, 1)))

    @property
    def cofinite(self) -> bool:
        return self.tail.kind != "empty"

    def __str__(self) -> str:
        parts = [f"sieve[{self.algebra}; tail {self.tail}"]
        if self.exceptions:
            parts.append(f"; {len(self.exceptions)} exception(s)")
        return "".join(parts) + "]"


@dataclass(frozen=True)
class Verdict:
    """Membership decision with a certificate.

    On rejection, `prime` and `class_rep` name a forbidden class containing
    the element; on acceptance, `checked` lists the finitely many primes that
    had to be examined.
    """

    member: bool
    prime: PrimeIdeal | None = None
    class_rep: Coords | None = None
    checked: tuple[PrimeIdeal, ...] = ()

    def __bool__(self) -> bool:
        return self.member


# Tail local sets a sieve keeps (`SieveSpec.tail_sets`); past this many it starts afresh.
_MAX_TAIL_SETS = 1 << 12


def _tail_local_set(sieve: SieveSpec, prime: PrimeIdeal) -> LocalSet:
    """The tail rule's local set at prime, built once per sieve and prime."""
    ls = sieve.tail_sets.get(prime)
    if ls is None:
        if sieve.tail.kind == "empty":
            ls = LocalSet(ideal_power(prime, 1), ())
        else:
            mod = ideal_power(prime, sieve.tail.exponent)
            ls = LocalSet(mod, tuple(sorted({mod.reduce_coords(c) for c in sieve.label_points[prime.component]})))
        if len(sieve.tail_sets) >= _MAX_TAIL_SETS:
            sieve.tail_sets.clear()
        sieve.tail_sets[prime] = ls
    return ls


def local_set(sieve: SieveSpec, prime: PrimeIdeal) -> LocalSet:
    """The resolved forbidden classes and exact measure at one prime."""
    exc = sieve.exception_at(prime)
    return exc if exc is not None else _tail_local_set(sieve, prime)


def build_sieve(
    algebra: EtaleAlgebra,
    tail: TailRule,
    exceptions: Mapping[PrimeIdeal, tuple[int, Iterable[Coords]]] | Iterable[LocalSet] = (),
) -> SieveSpec:
    """Normalize and validate a sieve.

    Exceptions may be given as LocalSet objects or as a mapping
    prime -> (exponent, class list); class representatives must be canonical.
    """
    locs: list[LocalSet] = []
    if isinstance(exceptions, Mapping):
        for prime, (k, classes) in exceptions.items():
            locs.append(LocalSet(ideal_power(prime, k), tuple(classes)))
    else:
        locs.extend(exceptions)
    locs.sort(key=lambda ls: _prime_key(ls.prime))
    # sorted, so a repeated prime follows its first set
    for prev, ls in zip([None, *locs], locs):
        if ls.prime.algebra != algebra:
            raise ClassOutOfRange("exception prime belongs to a different algebra")
        if prev is not None and _prime_key(prev.prime) == _prime_key(ls.prime):
            raise ClassOutOfRange(f"duplicate exception at {ls.prime}")
    return SieveSpec(algebra, tail, tuple(locs))


def kfree_sieve(algebra: EtaleAlgebra, k: int) -> SieveSpec:
    """The k-free sieve: forbid the zero class modulo every p^k."""
    return build_sieve(algebra, TailRule.kfree(k))


# Largest box of one component (points) that a box reader or the strip sieve walks.
_MAX_GRID_CLASSES = 1 << 28


def _tail_primes(sieve: SieveSpec, max_norm: int, component: int | None = None) -> Iterable[PrimeIdeal]:
    """Non-exception primes q (of one component, if given) with Nm(q)^k <= max_norm, in `prime_ideals` order.

    Nm(q)^k <= max_norm iff Nm(q) <= n = floor(max_norm^(1/k)), so no power
    is formed: each component's primes are one slice of its rows in the
    algebra's one row table (`rings.prime_rows`, shared by every sieve over
    it), filtered by norm and by the sieve's exception keys
    (`_checked_rows`), and every component's are those lists merged by p
    (`rings.merge_by_p`).  The grid readers take their tail rows as columns
    instead (`_grid_rows`).
    """
    n, rows = _iroot(max_norm, sieve.tail.exponent), prime_rows(sieve.algebra)
    components = range(len(rows.component_rows)) if component is None else (component,)
    return merge_by_p([_checked_rows(sieve, rows, i, n) for i in components])


def _tail_local_sets(sieve: SieveSpec, n: int) -> list[LocalSet]:
    """The tail local sets that can reject some set of n points, ascending.

    n points meet at most n * #labels translates of a tail set, so only tail
    primes q with Nm(q)^k <= n * #labels can leave no translate free.
    """
    return [_tail_local_set(sieve, q) for q in _tail_primes(sieve, n * len(sieve.tail.labels))]


def _candidate_primes(norms: list[int], k: int, n: int) -> Iterator[int]:
    """The rational primes p <= n with p^k dividing one of the norms, ascending.

    Range by range, [2, 2^b) for b = min(bits of n, 10), then
    [2^j, 2^(j+1)) for j = 10, 11, ..., each norm's gcd with the product of
    the range's primes (`primes.prime_range`) is the product of the range's
    primes that divide it, and k - 1 further gcds with the norm divided by it
    keep those whose k-th power divides it; trial division splits that
    squarefree gcd (`primes.range_factors`).  The ranges are read in
    ascending order, so a reader that stops at the first catch takes no gcd
    past its range.
    """
    if n < 2:
        return
    if k == 1:
        norms = [math.prod(norms)]  # p divides one of them iff it divides their product
    b = n.bit_length()
    for j in (min(b, _FIRST_RANGE_BITS) - 1, *range(_FIRST_RANGE_BITS, b)):
        product = prime_range(j)
        g = 1
        for nm in norms:
            d = math.gcd(nm, product)
            if d > 1:
                for _ in range(k - 1):
                    nm //= d
                    d = math.gcd(nm, d)
                    if d == 1:
                        break
                g = d if g == 1 else math.lcm(g, d)
        if g == 1:
            continue
        for p in range_factors(j, g):
            if p > n:
                return
            yield p


def _checked_rows(sieve: SieveSpec, rows: _PrimeRows, i: int, n: int, last: int | None = None) -> list[PrimeIdeal]:
    """Component i's non-exception tail primes with Nm(q) <= n, ascending, through row `last` if given.

    One slice of component i's rows in the row table, up to n (listed up to
    n first) or through its index `last`.  On a field it is filtered by
    norm: an inert row stays only while p <= isqrt(n), since its Nm(q) = p^2
    passes n past it.  The sieve's exception rows are dropped by their
    `SieveSpec.exception_sets` keys.
    """
    if last is None and n > rows.limit:
        rows.upto(n)
    ps, primes = rows.component_rows[i]
    end = bisect_right(ps, n) if last is None else last + 1
    if sieve.algebra.components[i].degree == 1:
        out = primes[:end]
    else:
        a = bisect_right(ps, math.isqrt(n), 0, end)
        out = primes[:a] + [q for q in primes[a:end] if q.f == 1]
    if (skip := sieve.exception_sets) and (excepted := {p for p, c, _ in skip if c == i}):
        out = [q for q in out if q.p not in excepted or (q.p, i, q.root) not in skip]
    return out


def membership(sieve: SieveSpec, x: AlgebraicInt) -> Verdict:
    """Decide x in V(K, R), checking only the finitely many relevant primes.

    Exception primes are always checked.  Ideal norms are multiplicative,
    so q^k | x - c implies Nm(q)^k = Nm(q^k) | |N(x - c)|: a tail prime q can
    only catch x when Nm(q)^k divides the norm of x - c for one of the tail
    labels c.  Per component, the scan is bounded by n, the k-th root of the
    largest of those norms, and a bound past the prime limit raises
    BudgetExceeded before anything else (`primes._check_prime_bound`).  The
    rational primes p <= n with p^k dividing a norm are found by gcds with
    products of primes (`_candidate_primes`), in ascending order, and only
    their rows are listed and tested, until one catches x: a row of norm p
    goes straight to its local set, since p^k divides a label norm, and an
    inert row first passes the norm filter.  Every tail prime of norm <= n
    was still examined, so `checked` holds all of them up to the catch, one
    filtered slice of the component's rows (`_checked_rows`); only a member
    lists the rows up to n.  When x equals a label on some component, every
    tail prime of that component catches it, and the first one whose q^k is
    built (`rings.power_fits`) is named.
    """
    if x.algebra is not sieve.algebra and x.algebra != sieve.algebra:
        raise PreconditionFailed("element of a different algebra")
    checked: list[PrimeIdeal] = []
    for ls in sieve.exceptions:
        checked.append(ls.prime)
        hit = ls.hits(x)
        if hit is not None:
            return Verdict(False, ls.prime, hit, tuple(checked))
    k, skip, rows = sieve.tail.exponent, sieve.exception_sets, prime_rows(sieve.algebra)
    for i, spec in enumerate(sieve.algebra.components):
        # |N(x - c)| per label (on Q the coordinate itself), the difference built per degree:
        # a zip over coordinates costs more than the norm
        u, points = x.coords[i], sieve.label_points[i]
        norms = ([abs(u[0] - c[0]) for c in points] if spec.d is None
                 else [abs(spec.norm((u[0] - c[0], u[1] - c[1]))) for c in points])
        if 0 in norms:
            # only split primes have the tighter limit, so none is built past a refused non-split one
            prime = next(q for q in prime_ideals(sieve.algebra) if q.component == i and (q.p, i, q.root) not in skip
                         and (q.kind != "split" or power_fits(q, k)))
            hit = _tail_local_set(sieve, prime).hits(x)
            if hit is None:
                raise VerificationFailed(f"{x} equals a tail label on component {i} but escapes {prime}")
            return Verdict(False, prime, hit, tuple(checked))
        n = _iroot(max(norms, default=0), k)
        if n < 2:
            continue  # no prime has norm <= n
        if n > rows.limit:
            _check_prime_bound(n)
        ps, every = rows.component_rows[i]
        for p in _candidate_primes(norms, k, n):
            if p > rows.limit:
                rows.upto(p)
            if skip and (p, i, None) in skip:
                continue  # a rational or inert exception is p's one row here
            # p has one or two rows on a component
            for j in range(bisect_left(ps, p), min(bisect_right(ps, p), len(every))):
                q = every[j]
                if skip and (p, i, q.root) in skip:
                    continue
                # the norm filter, for an inert q: its local set can only hit x where p^2k divides some |N(x - c)|
                if q.f == 2 and (q.norm > n or all(nm % q.norm**k for nm in norms)):
                    continue
                hit = _tail_local_set(sieve, q).hits(x)
                if hit is not None:
                    checked += _checked_rows(sieve, rows, i, n, j)
                    return Verdict(False, q, hit, tuple(checked))
        checked += _checked_rows(sieve, rows, i, n)
    return Verdict(True, checked=tuple(checked))


def _check_bound(bound: int) -> None:
    if bound < 0:
        raise PreconditionFailed(f"coordinate bound must be >= 0, got {bound}")


def _norm_bound(spec: FieldSpec, amax: int, bmax: int) -> int:
    """An upper bound for |N(a + b*w)| over |a| <= amax, |b| <= bmax."""
    if spec.is_rational:
        return amax
    s, t = spec.omega_poly
    return amax * amax + abs(s) * amax * bmax + abs(t) * bmax * bmax


def _box_norm_bounds(sieve: SieveSpec, bound: int) -> list[int]:
    """Per component, a bound on |N(x - label)| over its box [-bound, bound]^degree.

    Both budgets are checked on every component before any prime is listed:
    a box of more than _MAX_GRID_CLASSES points, or a tail-prime scan past
    _MAX_PRIME_BOUND, raises BudgetExceeded.
    """
    norms = []
    for i, spec in enumerate(sieve.algebra.components):
        if (points := (2 * bound + 1) ** spec.degree) > _MAX_GRID_CLASSES:
            raise BudgetExceeded(f"a component box of {points} points exceeds the budget {_MAX_GRID_CLASSES}")
        labels = sieve.label_points[i]
        reach = bound + max((abs(v) for c in labels for v in c), default=0)
        norms.append(_norm_bound(spec, reach, reach))
        if labels and (limit := _iroot(norms[-1], sieve.tail.exponent)) > _MAX_PRIME_BOUND:
            raise BudgetExceeded(f"the box would scan primes up to {limit}, over the limit {_MAX_PRIME_BOUND}")
    return norms


def _forbidden_cosets(sieve: SieveSpec, i: int, max_norm: int) -> tuple[list[tuple[Hnf, Vec]], list[Vec]]:
    """(cosets, points) of component i's non-members, on the grid.

    The cosets are the exception classes and each tail label's class mod q^k
    for the non-exception tail primes q with Nm(q)^k <= max_norm, read as
    grid columns (`_grid_rows`); the points are the labels, which every tail
    prime catches.  Off the labels, that is exact in any box where max_norm
    bounds |N(x - label)|.
    """
    cosets = [(grid_hnf(ls.modulus.hnf), grid_point(c))
              for ls in sieve.exceptions if ls.modulus.component == i for c in ls.classes]
    points = [grid_point(c) for c in sieve.label_points[i]]
    rows = _grid_rows(sieve, i, max_norm, np.int64 if max_norm < 1 << 63 else object)
    return cosets + _row_cosets(rows, points), points


def _row_cosets(rows: np.ndarray, points: list[Vec]) -> list[tuple[Hnf, Vec]]:
    """The cosets c + q^k, q^k = ((alpha, 0), (beta, gamma)) a column of `_grid_rows`, c a label point."""
    return [(((a, 0), (b, g)), c) for a, b, g in rows.T.tolist() for c in points]


def _grid_rows(sieve: SieveSpec, i: int, max_norm: int, dtype) -> np.ndarray:
    """Columns (alpha, beta, gamma), q^k = ((alpha, 0), (beta, gamma)) on the grid, of component i's
    non-exception tail primes q with Nm(q)^k <= max_norm, from the norm table (`rings.norms_upto`): rational
    (p^k, 0, 1), inert (p^k, 0, p^k), and a split or ramified q from `rings._splitting`, which proves no
    table prime again: (p, -root mod p, 1) at k = 1, else `ideal_power`'s."""
    algebra, k = sieve.algebra, sieve.tail.exponent
    n = _iroot(max_norm, k) if sieve.label_points[i] else 0
    if n < 2:
        return np.empty((3, 0), dtype)  # no prime, and no power p^k formed for a k past int64
    ps, components, norms = norms_upto(algebra, n)
    rows = np.flatnonzero((components == i) & (norms <= n))
    p, norm_p = ps[rows].astype(dtype, copy=False), norms[rows] == ps[rows]
    alpha = p**k
    grid = np.stack((alpha, 0 * p, np.where(norm_p, 1, alpha)))
    skip = [ep for ep, ec, root in sieve.exception_sets if ec == i and root is None]
    keep = (p != np.array(skip, dtype)[:, None]).all(0)
    if algebra.components[i].degree == 2 and (at := np.flatnonzero(norm_p)).size:
        primes = [q for x in dict.fromkeys(p[at].tolist()) for q in _splitting(algebra, x) if q.component == i]
        keep[at] = [sieve.exception_at(q) is None for q in primes]
        hnfs = (((q.p, 0), (-q.root % q.p, 1)) if k == 1 else ideal_power(q, k).hnf for q in primes)
        grid[:, at] = np.array([(h[0][0], *h[1]) for h in hnfs], dtype).T
    return grid[:, keep]


def _lone_points(rows: np.ndarray, labels: list[Vec], a0: int, H: int, b0: int, W: int) -> np.ndarray:
    """Flat row-major indices in the box [a0, a0+H) x [b0, b0+W) of the cosets c + L, c a label and
    L = ((alpha, 0), (beta, gamma)) a column of rows with alpha >= H: c + L meets column b only when
    gamma | b - c1, and then at a = c0 + ((b - c1)/gamma)*beta (mod alpha), at most once in the box (over
    Q, a = c0 mod p^k).  Each label is one (rows x columns) array per chunk of _CHUNK_POINTS entries."""
    b, out, step = np.arange(b0, b0 + W, dtype=rows.dtype), [np.empty(0, np.int64)], max(1, _CHUNK_POINTS // W)
    for s in range(0, rows.shape[1], step):
        alpha, beta, gamma = rows[:, s : s + step, None]
        for c0, c1 in labels:
            y = b - c1
            j = y // gamma
            a = (j * beta + (c0 - a0)) % alpha  # the row's offset from a0
            r, col = np.nonzero(a < H)
            hit = j[r, col] * gamma[r, 0] == y[col]  # gamma | b - c1
            out.append((a[r, col][hit] * W + col[hit]).astype(np.int64))
    return np.concatenate(out)


def _member_mask(forbidden, a0: int, b0: int, H: int, W: int, buf: np.ndarray) -> np.ndarray:
    """buf[:H*W] as the flat row-major box [a0, a0+H) x [b0, b0+W), a `_forbidden_cosets` pair's members True."""
    cosets, points = forbidden
    mask = buf[: H * W]
    mask.fill(True)
    for hnf, c in cosets:
        for idx in coset_points(hnf, c, a0, b0, H, W):
            mask[idx] = False
    for a, b in points:
        if 0 <= a - a0 < H and 0 <= b - b0 < W:
            mask[(a - a0) * W + b - b0] = False
    return mask


def _member_bands(sieve: SieveSpec, i: int, bound: int, max_norm: int) -> Iterator[tuple[int, int, np.ndarray]]:
    """Row bands (a0, b0, `_member_mask` shaped (rows, W)) of component i's box [-bound, bound]^degree.

    One body for every component: tail rows (`_grid_rows`) with alpha <= 2*bound stay cosets for
    `_member_mask` (`_row_cosets`, as in the strip sieve's `_forbidden_cosets`), as do the exception
    classes; the others meet the box at most once per column and are marked by `_lone_points`.
    Bands share one buffer, so each is read before the next is made."""
    cosets, labels = _forbidden_cosets(sieve, i, 0)  # the exception classes and the label points
    reach = bound + max((abs(v) for c in labels for v in c), default=0)
    # bounds |c0 + ((b - c1)/gamma)*beta| in `_lone_points`: beta < alpha <= max_norm
    rows = _grid_rows(sieve, i, max_norm, np.int64 if (max_norm + 1) * (reach + 1) < 1 << 63 else object)
    far = rows[0] > 2 * bound
    cosets += _row_cosets(rows[:, ~far], labels)
    b0, W = grid_columns(sieve.algebra.components[i].degree, -bound, 2 * bound + 1)
    bands = row_bands(-bound, 2 * bound + 1, W)
    buf = np.empty(bands[0][1] * W, dtype=bool)
    for a0, h in bands:
        mask = _member_mask((cosets, labels), a0, b0, h, W, buf)
        mask[_lone_points(rows[:, far], labels, a0, h, b0, W)] = False
        yield a0, b0, mask.reshape(h, W)


def count_members(sieve: SieveSpec, bound: int) -> int:
    """Number of members of V(K, R) with max |coordinate| <= bound.

    Every prime lives on one component, so the count is the product of the
    components' counts of `_member_bands` members.  A component box of more
    than _MAX_GRID_CLASSES points, or a prime scan past _MAX_PRIME_BOUND,
    raises BudgetExceeded before any prime is listed.
    """
    if not sieve.non_large:
        raise PreconditionFailed("count_members requires a non-large sieve")
    _check_bound(bound)
    norms = _box_norm_bounds(sieve, bound)
    return math.prod(
        sum(int(np.count_nonzero(band)) for _, _, band in _member_bands(sieve, i, bound, m))
        for i, m in enumerate(norms)
    )


_MAX_BOX_POINTS = 1 << 22  # largest box (2*bound + 1)^degree that `enumerate_V` lists


def enumerate_V(sieve: SieveSpec, bound: int) -> list[AlgebraicInt]:
    """All members with max |coordinate| <= bound, in lex coordinate order.

    Membership is componentwise: the members are the lex product of each
    component's `_member_bands` members, read row-major.  About 50
    evenly spaced members are re-decided by `membership` (VerificationFailed on
    a disagreement).  A box over _MAX_BOX_POINTS points, or a prime scan past
    _MAX_PRIME_BOUND, raises BudgetExceeded before anything is allocated.
    """
    if not sieve.non_large:
        raise PreconditionFailed("enumerate_V requires a non-large sieve")
    _check_bound(bound)
    algebra = sieve.algebra
    if (points := (2 * bound + 1) ** algebra.degree) > _MAX_BOX_POINTS:
        raise BudgetExceeded(f"a box of {points} points exceeds the budget {_MAX_BOX_POINTS}")
    norms = _box_norm_bounds(sieve, bound)
    blocks = [
        [grid_coords(a0 + r, b0 + c, spec.degree) for a0, b0, band in _member_bands(sieve, i, bound, norms[i])
         for r, c in np.argwhere(band).tolist()]
        for i, spec in enumerate(algebra.components)
    ]
    members = [AlgebraicInt(algebra, x) for x in itertools.product(*blocks)]
    for x in members[:: max(1, -(-len(members) // 50))]:
        if not membership(sieve, x).member:
            raise VerificationFailed(f"the box mask lists {x}, which membership rejects")
    return members


def empirical_density(sieve: SieveSpec, bound: int) -> Fraction:
    """Share of the coordinate box [-B, B]^n lying in V(K, R)."""
    n = sieve.algebra.degree
    return Fraction(count_members(sieve, bound), (2 * bound + 1) ** n)


def _tail_sum_bound(degree: int, n_labels: int, k: int, cutoff: int, bits: int) -> Fraction:
    """Rigorous upper bound for sum of measures over tail primes of norm > P.

    A bound provably at most 2^-bits comes back as 2^-bits, still an upper
    bound, and no power m^k is formed.  `density_interval`'s lower end lo <= 1
    rounds the same for either when lo is on the 2^-192 grid or has a
    denominator below 2^(bits - 192): lo * 2^192 minus anything in
    (0, 2^(192 - bits)] then has one floor.
    """
    if k < 2:
        raise TailNotBoundable("tail exponent 1 admits no summable measure bound")
    if cutoff == 0:  # between its m = 1 term, 1, and zeta(2) < 2: the lower end is 0 either way
        return Fraction(2 * n_labels * degree)
    extra = 64 if cutoff < 64 else 0
    # each term is at most least^-(k - 1), least the smallest base of the sum
    least = cutoff + 1 if extra else cutoff
    if power_bits(least, k - 1) >= bits + (n_labels * degree * (extra + 1)).bit_length():
        return Fraction(1, 1 << bits)
    s = Fraction(0)
    for m in range(cutoff + 1, cutoff + extra + 1):
        s += Fraction(1, m**k)
    base = cutoff + extra
    s += Fraction(1, (k - 1) * base ** (k - 1))
    return s * n_labels * degree


def _check_cutoff(cutoff: int) -> None:
    if cutoff < 0:
        raise PreconditionFailed(f"norm cutoff must be >= 0, got {cutoff}")


_RUN_ROWS = 4096  # table rows per chunk of Euler factors: no list grows with the cutoff


def _power_runs(a: np.ndarray, nm: np.ndarray, e: int, shift: int, cap: int) -> Iterator[tuple[int, list[int]]]:
    """`directed_product` runs (a, [Nm^e + shift, ...]) over table rows sharing one a, in row order.

    A b that is surely at least 2^cap, since e * floor(log2 Nm) > cap, is
    passed as 2^cap (`intervals.cap_bits`), so Nm^e is never formed past it.
    A chunk's powers are taken in int64 when its largest Nm^e fits, and as
    Python ints otherwise.  Norms stay below 2^53, where float64 holds them exactly.
    """
    for i in range(0, len(nm), _RUN_ROWS):
        chunk_a, chunk = a[i : i + _RUN_ROWS], nm[i : i + _RUN_ROWS]
        logs = np.frexp(chunk)[1] - 1  # floor(log2 Nm)
        if e * int(logs.max()) < 63 and int(chunk.max()) ** e < 1 << 63:
            bs = (chunk**e + shift).tolist()
        else:
            bs = [1 << cap if e * g > cap else q**e + shift for q, g in zip(chunk.tolist(), logs.tolist())]
        edges = [0, *(np.flatnonzero(np.diff(chunk_a)) + 1).tolist(), len(bs)]
        for j, k in itertools.pairwise(edges):
            yield int(chunk_a[j]), bs[j:k]


def _tail_factors(sieve: SieveSpec, cutoff: int, cap: int) -> Iterator[tuple[int, list[int]]]:
    """Runs (-c, [Nm^k, ...]): factors 1 - c/Nm^k of non-exception primes of norm <= cutoff, ascending p.

    c is the number of forbidden classes.  Distinct label points x != y on a
    component meet modulo q^k only if Nm(q)^k divides N(x - y), so at every
    rational p with p^k above the largest such |N(x - y)|, c is the number of
    label points on q's component.  The rows of `rings.norms_upto` up to the
    cutoff are the factors: the exception rows are dropped, and the rows of p
    up to that bound take c from `_tail_local_set`.  The runs' b past 2^cap
    are passed as 2^cap (`_power_runs`).
    """
    algebra, k = sieve.algebra, sieve.tail.exponent
    reach = max((abs(spec.norm(tuple(a - b for a, b in zip(x, y))))
                 for spec, points in zip(algebra.components, sieve.label_points)
                 for x, y in itertools.combinations(points, 2)), default=0)
    small = _iroot(reach, k)
    ps, components, norms = norms_upto(algebra, cutoff)
    a = -np.array([len(points) for points in sieve.label_points], np.int64)[components]
    keep = norms <= cutoff
    special = {ls.prime.p for ls in sieve.exceptions if ls.prime.p <= cutoff}
    special.update(primes_upto(min(cutoff, small)))
    for p in special:
        # the rows of p, in split_prime's order
        for row, prime in enumerate(split_prime(algebra, p), int(np.searchsorted(ps, p))):
            if sieve.exception_at(prime) is not None:
                keep[row] = False
            elif p <= small and keep[row]:
                a[row] = -len(_tail_local_set(sieve, prime).classes)
    yield from _power_runs(a[keep], norms[keep], k, 0, cap)


def density_interval(sieve: SieveSpec, cutoff: int) -> RationalInterval:
    """Enclosure of the density prod(1 - meas(R_p)) of V(K, R).

    Truncates the product at norm <= cutoff (exceptions always included
    exactly) and widens by the bound on the measure sum of the omitted tail
    primes.  The tail primes' factors 1 - c/Nm^k are multiplied in
    `intervals.directed_product`, integer directed rounding on the 2^-192
    grid, bit-identical to rounding each `Fraction` product, in runs
    (-c, [Nm^k, ...]) of primes with one forbidden count c (`_tail_factors`).
    Raises TailNotBoundable for exponent-1 tails, and BudgetExceeded for a
    tail's cutoff past the prime limit 10^7 (`primes_upto`).
    """
    _check_cutoff(cutoff)
    if not sieve.non_large:
        raise PreconditionFailed("density_interval requires a non-large sieve")
    if sieve.tail.kind == "classes" and sieve.tail.exponent < 2:
        raise TailNotBoundable("tail exponent 1: the measure sum over primes diverges")
    num = den = 1
    for ls in sieve.exceptions:
        n = ls.modulus.norm
        num *= n - len(ls.classes)
        den *= n
    partial = Fraction(num, den)
    if sieve.tail.kind == "empty":
        return RationalInterval(_round_down(partial), _round_up(partial))
    # factors 1 - c/Nm^k lie in [0, 1], and c is at most the number of labels
    lo, hi = directed_product(partial, _tail_factors(sieve, cutoff, cap_bits(partial, 0, len(sieve.tail.labels))))
    # lo is on the grid, or is partial itself when no factor was taken
    tail = _tail_sum_bound(sieve.algebra.degree, len(sieve.tail.labels), sieve.tail.exponent, cutoff,
                           _GRID_BITS + partial.denominator.bit_length())
    lo = _round_down(lo * max(Fraction(0), 1 - tail))
    return RationalInterval(lo, hi)


def tail_count(algebra: EtaleAlgebra, k: int, coord_bound: int, norm_cutoff: int) -> int:
    """Exact N'(X, M): nonzero x in the box divisible by a^k, Nm(a) > M.

    The largest such Nm(a) is D(x) = prod_q Nm(q)^floor(v_q(x)/k), the product
    of per-component values D_i (a zero component divides by everything).  Per
    component and row band, Nm(q) is multiplied into the points of q^(jk) for
    j = 1, 2, ... (`lattices.coset_points`); only the counts of min(D_i, M+1)
    are kept, so memory does not grow with M.  A product's count comes from
    the products of those value classes; the zero element is excluded.  The
    box readers' budgets apply (`_box_norm_bounds`).
    """
    if k < 2:
        raise PreconditionFailed("tail_count requires k >= 2")
    _check_bound(coord_bound)
    _check_cutoff(norm_cutoff)
    cap = norm_cutoff + 1
    sieve = kfree_sieve(algebra, k)
    acc = Counter({1: 1})  # capped product of the D_i so far -> element count
    for i, (spec, max_norm) in enumerate(zip(algebra.components, _box_norm_bounds(sieve, coord_bound))):
        factors = [
            (grid_hnf(ideal_power(q, j * k).hnf), q.norm)
            for q in _tail_primes(sieve, max_norm, i)
            for j in itertools.takewhile(lambda j: q.norm ** (j * k) <= max_norm, itertools.count(1))
        ]
        # a nonzero point has D_i <= max_norm, so clipping there is exact too
        clip = min(cap, max_norm + 1)
        hist: Counter[int] = Counter()
        b0, W = grid_columns(spec.degree, -coord_bound, 2 * coord_bound + 1)
        for a0, h in row_bands(-coord_bound, 2 * coord_bound + 1, W):
            band = np.ones(h * W, dtype=np.int64)
            for hnf, f in factors:
                for idx in coset_points(hnf, (0, 0), a0, b0, h, W):
                    band[idx] *= f
            if a0 <= 0 < a0 + h:
                band[-a0 * W - b0] = 0  # the zero point: D_i is unbounded
            np.minimum(band, clip, out=band)
            if clip <= band.size:  # a histogram array no larger than the band, else a sort
                values = np.flatnonzero(counts := np.bincount(band.ravel()))
                counts = counts[values]
            else:
                values, counts = np.unique(band, return_counts=True)
            for v, n in zip(values.tolist(), counts.tolist()):
                hist[v or cap] += n
        prev, acc = acc, Counter()
        for (u, m), (v, n) in itertools.product(prev.items(), hist.items()):
            acc[min(u * v, cap)] += m * n
    return acc[cap] - 1


# ---------------------------------------------------------------------------
# sieve spec files


def parse_sieve_file(text: str) -> SieveSpec:
    """Parse the plain-text sieve format (`rings.directives`).

    Lines: `algebra <spec>`, `tail empty|kfree K|classes c1,c2,...`, and
    `exception <p> [<index>] <k> : c1,c2,...` (`rings.prime_at`) with `-` for
    an empty class list; `#` starts a comment.  Exception lines are resolved
    once the file is read.  A malformed line, a repeated exception prime's
    second line included, raises FormatError with its 1-based number; a
    missing `algebra` or `tail` line is reported at the last line.
    """
    algebra: EtaleAlgebra | None = None
    tail: TailRule | None = None
    pending: list[tuple[int, int, int, int, str]] = []
    for lineno, head, rest in directives(text):
        with at_line(lineno):
            if head == "algebra":
                algebra = parse_algebra(rest)
            elif head == "tail":
                kind, _, arg = rest.partition(" ")
                if kind == "empty":
                    tail = TailRule.empty()
                elif kind == "kfree":
                    tail = TailRule.kfree(int(arg))
                elif kind == "classes":
                    tail = TailRule.classes_mod_p([int(c) for c in arg.split(",")])
                else:
                    raise ValueError(f"unknown tail rule {rest!r}")
            elif head == "exception":
                spec_part, _, classes_part = rest.partition(":")
                nums = [int(v) for v in spec_part.split()]
                if len(nums) not in (2, 3):
                    raise ValueError(f"bad exception line: {rest!r}")
                pending.append((lineno, nums[0], nums[1] if len(nums) == 3 else 0, nums[-1], classes_part.strip()))
            else:
                raise ValueError(f"unknown directive {head!r}")
    if algebra is None or tail is None:
        raise FormatError("sieve file needs `algebra` and `tail` lines", max(1, len(text.splitlines())))
    locs: dict[PrimeIdeal, LocalSet] = {}
    for lineno, p, idx, k, classes_part in pending:
        with at_line(lineno):
            prime = prime_at(algebra, p, idx)
            if prime in locs:
                raise ClassOutOfRange(f"duplicate exception at {prime}")
            lits = [] if classes_part in ("", "-") else classes_part.split(",")
            locs[prime] = LocalSet(ideal_power(prime, k), tuple(_parse_component(lit.strip(), prime.spec) for lit in lits))
    return build_sieve(algebra, tail, locs.values())


def format_sieve(sieve: SieveSpec) -> str:
    lines = [f"algebra {format_algebra(sieve.algebra)}", f"tail {sieve.tail}"]
    for ls in sieve.exceptions:
        prime = ls.prime
        idx = split_prime(sieve.algebra, prime.p).index(prime)
        body = ",".join(_format_component(c) for c in ls.classes) or "-"
        lines.append(f"exception {prime.p} {idx} {ls.modulus.k} : {body}")
    return "\n".join(lines) + "\n"
