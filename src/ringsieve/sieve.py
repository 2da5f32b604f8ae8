"""Finitely specified sieves: membership, enumeration, density, tail counts.

A sieve assigns to every prime a forbidden compact open set given by finitely
many residue classes modulo p^k.  All but finitely many primes follow a tail
rule; the rest are explicit exceptions.  V(K, R) is the set of integers
avoiding every forbidden class.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    BudgetExceeded,
    ClassOutOfRange,
    FormatError,
    PreconditionFailed,
    RingsieveError,
    TailNotBoundable,
    VerificationFailed,
)
from .intervals import RationalInterval, _round_down, _round_up, directed_product
from .lattices import coset_points, grid_columns, grid_coords, grid_hnf, grid_point, quotient_residues, row_bands
from .primes import primes_upto
from .rings import (
    AlgebraicInt,
    Coords,
    EtaleAlgebra,
    FieldSpec,
    Modulus,
    PrimeIdeal,
    _parse_component,
    format_algebra,
    ideal_power,
    norms_upto,
    parse_algebra,
    prime_ideals,
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


def _label_element(algebra: EtaleAlgebra, label: Label) -> AlgebraicInt:
    if isinstance(label, int):
        return algebra.from_int(label)
    return algebra.from_flat(label)


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
    """A finitely specified sieve: tail rule plus finitely many exceptions."""

    algebra: EtaleAlgebra
    tail: TailRule
    exceptions: tuple[LocalSet, ...]
    non_large: bool
    cofinite: bool

    def exception_at(self, prime: PrimeIdeal) -> LocalSet | None:
        for ls in self.exceptions:
            if ls.prime == prime:
                return ls
        return None

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


def _tail_local_set(sieve: SieveSpec, prime: PrimeIdeal) -> LocalSet:
    if sieve.tail.kind == "empty":
        return LocalSet(ideal_power(prime, 1), ())
    mod = ideal_power(prime, sieve.tail.exponent)
    classes = sorted(
        {
            mod.reduce_coords(_label_element(sieve.algebra, c).coords[prime.component])
            for c in sieve.tail.labels
        }
    )
    return LocalSet(mod, tuple(classes))


def local_set(sieve: SieveSpec, prime: PrimeIdeal) -> LocalSet:
    """The resolved forbidden classes and exact measure at one prime."""
    exc = sieve.exception_at(prime)
    return exc if exc is not None else _tail_local_set(sieve, prime)


def build_sieve(
    algebra: EtaleAlgebra,
    tail: TailRule,
    exceptions: Mapping[PrimeIdeal, tuple[int, Iterable[Coords]]] | Iterable[LocalSet] = (),
) -> SieveSpec:
    """Normalize and validate a sieve; derives the non-large/cofinite flags.

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
    seen = set()
    for ls in locs:
        if ls.prime.algebra != algebra:
            raise ClassOutOfRange("exception prime belongs to a different algebra")
        key = _prime_key(ls.prime)
        if key in seen:
            raise ClassOutOfRange(f"duplicate exception at {ls.prime}")
        seen.add(key)

    # a tail set covers everything only where it can reject a single point
    probe = SieveSpec(algebra, tail, tuple(locs), True, True)
    non_large = not any(ls.is_everything() for ls in locs + _tail_local_sets(probe, 1))
    cofinite = tail.kind != "empty"
    return SieveSpec(algebra, tail, tuple(locs), non_large, cofinite)


def kfree_sieve(algebra: EtaleAlgebra, k: int) -> SieveSpec:
    """The k-free sieve: forbid the zero class modulo every p^k."""
    return build_sieve(algebra, TailRule.kfree(k))


def _iroot(n: int, k: int) -> int:
    """Largest r >= 0 with r^k <= n."""
    if n < 0:
        raise ValueError("negative radicand")
    if k == 1:
        return n
    r = int(round(n ** (1.0 / k)))
    while r > 0 and r**k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


# Largest rational prime `membership` scans.  Sieving to 10^7 already takes
# about 0.5 s and 70 MB, and the scan then visits its 664,579 primes in Python.
_MAX_PRIME_BOUND = 10**7


def _tail_primes(sieve: SieveSpec, max_norm: int, component: int | None = None) -> Iterator[PrimeIdeal]:
    """Non-exception primes q (of one component, if given) with Nm(q)^k <= max_norm, ascending."""
    k = sieve.tail.exponent
    for prime in prime_ideals(sieve.algebra, _iroot(max_norm, k)):
        if prime.norm**k <= max_norm and component in (None, prime.component):
            if sieve.exception_at(prime) is None:
                yield prime


def _tail_local_sets(sieve: SieveSpec, n: int) -> list[LocalSet]:
    """The tail local sets that can reject some set of n points, ascending.

    n points meet at most n * #labels translates of a tail set, so only tail
    primes q with Nm(q)^k <= n * #labels can leave no translate free.
    """
    if sieve.tail.kind == "empty":
        return []
    return [_tail_local_set(sieve, q) for q in _tail_primes(sieve, n * len(sieve.tail.labels))]


def membership(sieve: SieveSpec, x: AlgebraicInt) -> Verdict:
    """Decide x in V(K, R), checking only the finitely many relevant primes.

    Exception primes are always checked.  A tail prime can only catch x when
    Nm(p)^k divides the norm of x - c for one of the tail labels c, so the
    scan is bounded by those norms; when x equals a label on some component,
    every tail prime of that component catches it.  A scan past the prime
    _MAX_PRIME_BOUND raises BudgetExceeded before any prime is listed.
    """
    if x.algebra != sieve.algebra:
        raise PreconditionFailed("element of a different algebra")
    checked: list[PrimeIdeal] = []
    for ls in sieve.exceptions:
        checked.append(ls.prime)
        hit = ls.hits(x)
        if hit is not None:
            return Verdict(False, ls.prime, hit, tuple(checked))
    if sieve.tail.kind == "empty":
        return Verdict(True, checked=tuple(checked))
    k = sieve.tail.exponent
    label_elems = [_label_element(sieve.algebra, c) for c in sieve.tail.labels]
    for i, spec in enumerate(sieve.algebra.components):
        bound = 0
        for el in label_elems:
            diff = tuple(a - b for a, b in zip(x.coords[i], el.coords[i]))
            nm = abs(spec.norm(diff))
            if nm == 0:
                prime = next(
                    q for q in prime_ideals(sieve.algebra) if q.component == i and sieve.exception_at(q) is None
                )
                ls = _tail_local_set(sieve, prime)
                hit = ls.hits(x)
                if hit is None:
                    raise VerificationFailed(f"{x} equals a tail label on component {i} but escapes {prime}")
                return Verdict(False, prime, hit, tuple(checked))
            bound = max(bound, nm)
        limit = _iroot(bound, k)
        if limit > _MAX_PRIME_BOUND:
            raise BudgetExceeded(
                f"membership would scan primes up to {limit}, over the limit {_MAX_PRIME_BOUND}"
            )
        for prime in _tail_primes(sieve, bound, i):
            checked.append(prime)
            hit = _tail_local_set(sieve, prime).hits(x)
            if hit is not None:
                return Verdict(False, prime, hit, tuple(checked))
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


def _component_bands(spec: FieldSpec, bound: int, factors: list, dtype) -> Iterator[tuple[int, int, np.ndarray]]:
    """Row bands (a0, b0, band) of one component's box [-bound, bound]^degree.

    band[i, j] is the product of f over the (L, c, f) in factors with (a0+i, b0+j)
    in c + L; a Q component is the one-column grid b = 0.  Bands share a buffer.
    """
    b0, W = grid_columns(spec.degree, -bound, 2 * bound + 1)
    bands = row_bands(-bound, 2 * bound + 1, W)
    buf = np.empty(bands[0][1] * W, dtype=dtype)
    for a0, h in bands:
        band = buf[: h * W]
        band.fill(1)
        for hnf, c, f in factors:
            for idx in coset_points(hnf, c, a0, b0, h, W):
                band[idx] *= f
        yield a0, b0, band.reshape(h, W)


def _member_bands(sieve: SieveSpec, i: int, bound: int) -> Iterator[tuple[int, int, np.ndarray]]:
    """Row bands (a0, b0, band) of component i's box [-bound, bound]^degree, members nonzero.

    The marker (`lattices.coset_points`) zeroes every exception class, every
    tail label's class mod q^k for the non-exception tail primes q with
    Nm(q)^k up to the box's norm bound, and the label points, which every
    tail prime catches.  A Q component is the one-column grid b = 0; bands
    share one buffer, so each is read before the next is made.
    """
    algebra = sieve.algebra
    spec = algebra.components[i]
    factors = [(grid_hnf(ls.modulus.hnf), grid_point(c), 0)
               for ls in sieve.exceptions if ls.modulus.component == i for c in ls.classes]
    labels: list[Coords] = []
    if sieve.tail.kind == "classes":
        k = sieve.tail.exponent
        labels = sorted({grid_point(_label_element(algebra, c).coords[i]) for c in sieve.tail.labels})
        reach = bound + max(abs(v) for c in labels for v in c)
        for prime in _tail_primes(sieve, _norm_bound(spec, reach, reach), i):
            h = grid_hnf(ideal_power(prime, k).hnf)
            factors.extend((h, c, 0) for c in labels)
    for a0, b0, band in _component_bands(spec, bound, factors, np.uint8):
        for a, b in labels:
            if 0 <= a - a0 < band.shape[0] and 0 <= b - b0 < band.shape[1]:
                band[a - a0, b - b0] = 0
        yield a0, b0, band


def count_members(sieve: SieveSpec, bound: int) -> int:
    """Number of members of V(K, R) with max |coordinate| <= bound.

    Every prime lives on one component, so the count is the product of the
    components' counts of nonzero `_member_bands` entries.
    """
    if not sieve.non_large:
        raise PreconditionFailed("count_members requires a non-large sieve")
    _check_bound(bound)
    return math.prod(
        sum(int(np.count_nonzero(band)) for _, _, band in _member_bands(sieve, i, bound))
        for i in range(len(sieve.algebra.components))
    )


_MAX_BOX_POINTS = 1 << 22  # largest box (2*bound + 1)^degree that `enumerate_V` lists


def enumerate_V(sieve: SieveSpec, bound: int) -> list[AlgebraicInt]:
    """All members with max |coordinate| <= bound, in lex coordinate order.

    Membership is componentwise: the members are the lex product of each
    component's nonzero `_member_bands` entries, read row-major.  About 50
    evenly spaced members are re-decided by `membership` (VerificationFailed on
    a disagreement).  A box over _MAX_BOX_POINTS points raises BudgetExceeded
    before anything is allocated.
    """
    if not sieve.non_large:
        raise PreconditionFailed("enumerate_V requires a non-large sieve")
    _check_bound(bound)
    algebra = sieve.algebra
    if (points := (2 * bound + 1) ** algebra.degree) > _MAX_BOX_POINTS:
        raise BudgetExceeded(f"a box of {points} points exceeds the budget {_MAX_BOX_POINTS}")
    blocks = [
        [grid_coords(a0 + r, b0 + c, spec.degree) for a0, b0, band in _member_bands(sieve, i, bound)
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


def _tail_sum_bound(degree: int, n_labels: int, k: int, cutoff: int) -> Fraction:
    """Rigorous upper bound for sum of measures over tail primes of norm > P."""
    if k < 2:
        raise TailNotBoundable("tail exponent 1 admits no summable measure bound")
    extra = 64 if cutoff < 64 else 0
    s = Fraction(0)
    for m in range(cutoff + 1, cutoff + extra + 1):
        s += Fraction(1, m**k)
    base = cutoff + extra
    s += Fraction(1, (k - 1) * base ** (k - 1))
    return s * n_labels * degree


def _check_cutoff(cutoff: int) -> None:
    if cutoff < 0:
        raise PreconditionFailed(f"norm cutoff must be >= 0, got {cutoff}")


def _survivors(ls: LocalSet) -> tuple[int, int]:
    """1 - meas(ls) as (allowed classes, all classes)."""
    n = ls.modulus.norm
    return n - len(ls.classes), n


_RUN_ROWS = 4096  # table rows per chunk of Euler factors: no list grows with the cutoff


def _power_runs(a: np.ndarray, nm: np.ndarray, e: int, shift: int) -> Iterator[tuple[int, list[int]]]:
    """`directed_product` runs (a, [Nm^e + shift, ...]) over table rows sharing one a, in row order.

    A chunk's powers are taken in int64 when its largest Nm^e fits, and as
    Python ints otherwise.
    """
    for i in range(0, len(nm), _RUN_ROWS):
        chunk_a, chunk = a[i : i + _RUN_ROWS], nm[i : i + _RUN_ROWS]
        if int(chunk.max()) ** e < 1 << 63:
            bs = (chunk**e + shift).tolist()
        else:
            bs = [q**e + shift for q in chunk.tolist()]
        edges = [0, *(np.flatnonzero(np.diff(chunk_a)) + 1).tolist(), len(bs)]
        for j, k in itertools.pairwise(edges):
            yield int(chunk_a[j]), bs[j:k]


def _tail_factors(sieve: SieveSpec, cutoff: int) -> Iterator[tuple[int, list[int]]]:
    """Runs (-c, [Nm^k, ...]): factors 1 - c/Nm^k of non-exception primes of norm <= cutoff, ascending p.

    c is the number of forbidden classes.  Distinct label projections x != y
    on a component meet modulo q^k only if Nm(q)^k divides N(x - y), so at
    every rational p with p^k above the largest such |N(x - y)|, c is the
    number of distinct projections on q's component and the norms are read
    from the columns of `rings.norms_upto`.  The finitely many other primes
    (those up to that bound and those below exceptions) go through
    `_tail_local_set` and are spliced in at their place in p order.
    """
    algebra, k = sieve.algebra, sieve.tail.exponent
    a_by_component = np.zeros(len(algebra.components), np.int64)
    reach = 0
    for i, spec in enumerate(algebra.components):
        proj = {_label_element(algebra, c).coords[i] for c in sieve.tail.labels}
        a_by_component[i] = -len(proj)
        for x, y in itertools.combinations(proj, 2):
            reach = max(reach, abs(spec.norm(tuple(a - b for a, b in zip(x, y)))))
    special = {ls.prime.p for ls in sieve.exceptions if ls.prime.p <= cutoff}
    special.update(itertools.takewhile(lambda p: p**k <= reach, primes_upto(cutoff)))
    ps, components, norms = norms_upto(algebra, cutoff)
    keep = norms <= cutoff
    ps, a, norms = ps[keep], a_by_component[components[keep]], norms[keep]
    start = 0
    for p in sorted(special):
        stop = np.searchsorted(ps, p)
        yield from _power_runs(a[start:stop], norms[start:stop], k, 0)
        for prime in split_prime(algebra, p):
            if prime.norm <= cutoff and sieve.exception_at(prime) is None:
                free, n = _survivors(_tail_local_set(sieve, prime))
                yield free - n, [n]
        start = np.searchsorted(ps, p, "right")
    yield from _power_runs(a[start:], norms[start:], k, 0)


def density_interval(sieve: SieveSpec, cutoff: int) -> RationalInterval:
    """Enclosure of the density prod(1 - meas(R_p)) of V(K, R).

    Truncates the product at norm <= cutoff (exceptions always included
    exactly) and widens by the bound on the measure sum of the omitted tail
    primes.  The tail primes' factors 1 - c/Nm^k are multiplied in
    `intervals.directed_product`, integer directed rounding on the 2^-192
    grid, bit-identical to rounding each `Fraction` product, in runs
    (-c, [Nm^k, ...]) of primes with one forbidden count c (`_tail_factors`).
    Raises TailNotBoundable for exponent-1 tails.
    """
    _check_cutoff(cutoff)
    if not sieve.non_large:
        raise PreconditionFailed("density_interval requires a non-large sieve")
    if sieve.tail.kind == "classes" and sieve.tail.exponent < 2:
        raise TailNotBoundable("tail exponent 1: the measure sum over primes diverges")
    num = den = 1
    for ls in sieve.exceptions:
        a, n = _survivors(ls)
        num *= a
        den *= n
    partial = Fraction(num, den)
    if sieve.tail.kind == "empty":
        return RationalInterval(_round_down(partial), _round_up(partial))
    lo, hi = directed_product(partial, _tail_factors(sieve, cutoff))
    tail = _tail_sum_bound(
        sieve.algebra.degree, len(sieve.tail.labels), sieve.tail.exponent, cutoff
    )
    lo = _round_down(lo * max(Fraction(0), 1 - tail))
    return RationalInterval(lo, hi)


def tail_count(algebra: EtaleAlgebra, k: int, coord_bound: int, norm_cutoff: int) -> int:
    """Exact N'(X, M): nonzero x in the box divisible by a^k, Nm(a) > M.

    The largest such Nm(a) is D(x) = prod_q Nm(q)^floor(v_q(x)/k), the product
    of per-component values D_i (a zero component divides by everything).  Per
    component and row band, Nm(q) is multiplied into the points of q^(jk) for
    j = 1, 2, ... (`lattices.coset_points`); only the counts of min(D_i, M+1)
    are kept, so memory does not grow with M.  A product's count comes from
    the products of those value classes; the zero element is excluded.
    """
    if k < 2:
        raise PreconditionFailed("tail_count requires k >= 2")
    _check_bound(coord_bound)
    _check_cutoff(norm_cutoff)
    cap = norm_cutoff + 1
    acc = Counter({1: 1})  # capped product of the D_i so far -> element count
    for i, spec in enumerate(algebra.components):
        max_norm = _norm_bound(spec, coord_bound, coord_bound)
        factors = [
            (grid_hnf(ideal_power(q, j * k).hnf), (0, 0), q.norm)
            for q in _tail_primes(kfree_sieve(algebra, k), max_norm, i)
            for j in range(1, max_norm.bit_length())
            if q.norm ** (j * k) <= max_norm
        ]
        # a nonzero point has D_i <= max_norm, so clipping there is exact too
        clip = min(cap, max_norm + 1)
        hist: Counter[int] = Counter()
        for a0, b0, band in _component_bands(spec, coord_bound, factors, np.int64):
            if a0 <= 0 < a0 + band.shape[0]:
                band[-a0, -b0] = 0  # the zero point: D_i is unbounded
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
    """Parse the plain-text sieve format.

    Lines: `algebra <spec>`, `tail empty|kfree K|classes c1,c2,...`, and
    `exception <p> [<index>] <k> : c1,c2,...` with `-` for an empty class
    list; `#` starts a comment.  A malformed line raises FormatError with
    its 1-based number; a missing `algebra` or `tail` line is reported at
    the last line.
    """
    algebra: EtaleAlgebra | None = None
    tail: TailRule | None = None
    pending: list[tuple[int, int, int, int, str]] = []
    lines = text.splitlines()
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        try:
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
                nums = spec_part.split()
                if len(nums) == 2:
                    p, idx, k = int(nums[0]), 0, int(nums[1])
                elif len(nums) == 3:
                    p, idx, k = int(nums[0]), int(nums[1]), int(nums[2])
                else:
                    raise ValueError(f"bad exception line: {raw!r}")
                pending.append((lineno, p, idx, k, classes_part.strip()))
            else:
                raise ValueError(f"unknown directive {head!r}")
        except (ValueError, RingsieveError) as e:
            raise FormatError(str(e), lineno) from e
    if algebra is None or tail is None:
        raise FormatError("sieve file needs `algebra` and `tail` lines", max(1, len(lines)))
    locs = []
    for lineno, p, idx, k, classes_part in pending:
        try:
            primes = split_prime(algebra, p)
            if idx >= len(primes):
                raise ValueError(f"prime index {idx} out of range for p={p}")
            prime = primes[idx]
            mod = ideal_power(prime, k)
            classes: list[Coords] = []
            if classes_part not in ("", "-"):
                spec = prime.spec
                for lit in classes_part.split(","):
                    classes.append(_parse_component(lit.strip(), spec))
            locs.append(LocalSet(mod, tuple(classes)))
        except (ValueError, RingsieveError) as e:
            raise FormatError(str(e), lineno) from e
    return build_sieve(algebra, tail, locs)


def format_sieve(sieve: SieveSpec) -> str:
    lines = [f"algebra {format_algebra(sieve.algebra)}", f"tail {sieve.tail}"]
    for ls in sieve.exceptions:
        prime = ls.prime
        idx = split_prime(sieve.algebra, prime.p).index(prime)
        from .rings import _format_component

        body = ",".join(_format_component(c) for c in ls.classes) or "-"
        lines.append(f"exception {prime.p} {idx} {ls.modulus.k} : {body}")
    return "\n".join(lines) + "\n"
