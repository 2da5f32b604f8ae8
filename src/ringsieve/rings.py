"""Exact arithmetic in rings of integers of products of Q and quadratic fields.

An algebra is a finite ordered product of components, each the rationals or a
quadratic field Q(sqrt d) with d squarefree.  Elements carry one coordinate
vector per component over the fixed integral basis: {1} for Q, {1, w} for
Q(sqrt d) with w = (1+sqrt d)/2 when d = 1 mod 4 and w = sqrt d otherwise.

Prime ideals are represented with explicit splitting data; powers p^k become
sublattices of the coordinate lattice in lower-triangular Hermite normal form,
so residue arithmetic is plain integer linear algebra.
"""

from __future__ import annotations

import itertools
import math
import re
import threading
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ComponentMismatch, InvalidDiscriminant, PreconditionFailed
from .lattices import Hnf, identity_hnf, lat_contains, lat_reduce, lat_scale, residues
from .primes import is_prime, legendre, primes_upto, sqrt_mod

Coords = tuple[int, ...]


def _is_squarefree(n: int) -> bool:
    n = abs(n)
    if n == 0:
        return False
    q = 2
    while q * q <= n:
        if n % (q * q) == 0:
            return False
        q += 1
    return True


@dataclass(frozen=True)
class FieldSpec:
    """One component: the rationals (d is None) or Q(sqrt d)."""

    d: int | None = None

    def __post_init__(self):
        if self.d is not None and (self.d in (0, 1) or not _is_squarefree(self.d)):
            raise InvalidDiscriminant(self.d)

    @property
    def is_rational(self) -> bool:
        return self.d is None

    @property
    def degree(self) -> int:
        return 1 if self.d is None else 2

    @property
    def omega_poly(self) -> tuple[int, int]:
        """(s, t) with w^2 = s*w + t for the basis generator w."""
        d = self.d
        if d is None:
            raise ValueError("rational component has no generator")
        if d % 4 == 1:
            return 1, (d - 1) // 4
        return 0, d

    @property
    def disc(self) -> int:
        d = self.d
        if d is None:
            return 1
        return d if d % 4 == 1 else 4 * d

    def mul(self, u: Coords, v: Coords) -> Coords:
        if self.d is None:
            return (u[0] * v[0],)
        s, t = self.omega_poly
        a, b = u
        c, e = v
        return (a * c + t * b * e, a * e + b * c + s * b * e)

    def norm(self, u: Coords) -> int:
        if self.d is None:
            return u[0]
        s, t = self.omega_poly
        a, b = u
        return a * a + s * a * b - t * b * b

    def conj(self, u: Coords) -> Coords:
        """Nontrivial automorphism coordinates: w -> s - w."""
        if self.d is None:
            return u
        s, _ = self.omega_poly
        a, b = u
        return (a + s * b, -b)

    def one(self) -> Coords:
        return (1,) if self.d is None else (1, 0)

    def zero(self) -> Coords:
        return (0,) if self.d is None else (0, 0)

    def __str__(self) -> str:
        return "Q" if self.d is None else f"Q(sqrt {self.d})"


@dataclass(frozen=True)
class EtaleAlgebra:
    """Ordered product of field components; component order is part of identity."""

    components: tuple[FieldSpec, ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("algebra needs at least one component")

    @property
    def degree(self) -> int:
        return sum(c.degree for c in self.components)

    def element(self, coords: Sequence[Sequence[int]]) -> "AlgebraicInt":
        if len(coords) != len(self.components):
            raise ComponentMismatch("coordinate blocks do not match components")
        blocks = []
        for spec, block in zip(self.components, coords):
            if len(block) != spec.degree:
                raise ComponentMismatch(f"component {spec} expects {spec.degree} coordinates")
            blocks.append(tuple(int(x) for x in block))
        return AlgebraicInt(self, tuple(blocks))

    def from_int(self, n: int) -> "AlgebraicInt":
        return AlgebraicInt(self, tuple((n,) if c.is_rational else (n, 0) for c in self.components))

    def from_flat(self, vec: Sequence[int]) -> "AlgebraicInt":
        blocks = []
        i = 0
        for c in self.components:
            blocks.append(tuple(int(v) for v in vec[i : i + c.degree]))
            i += c.degree
        if i != len(vec):
            raise ComponentMismatch("flat vector length does not match degree")
        return AlgebraicInt(self, tuple(blocks))

    @property
    def zero(self) -> "AlgebraicInt":
        return self.from_int(0)

    @property
    def one(self) -> "AlgebraicInt":
        return self.from_int(1)

    def embed(self, component: int, coords: Sequence[int]) -> "AlgebraicInt":
        """The element with these coordinates on one component and 0 on the others."""
        blocks = [spec.zero() for spec in self.components]
        blocks[component] = tuple(coords)
        return AlgebraicInt(self, tuple(blocks))

    def lattice_rows(self, hnfs: Sequence[Hnf | None]) -> list[Coords]:
        """Flat generator rows of the product of one lattice per component.

        hnfs[i] is a lattice in component i's coordinates, or None for the
        whole component.  Rows come component by component, each in its
        lattice's row order.
        """
        if len(hnfs) != len(self.components):
            raise ComponentMismatch("one lattice per component expected")
        rows = []
        for i, (spec, hnf) in enumerate(zip(self.components, hnfs)):
            rows.extend(self.embed(i, row).flat() for row in hnf or identity_hnf(spec.degree))
        return rows

    def basis(self) -> list["AlgebraicInt"]:
        """The standard Z-basis as elements, in flat coordinate order."""
        return [self.from_flat(row) for row in self.lattice_rows([None] * len(self.components))]

    def box(self, bound: int) -> Iterator["AlgebraicInt"]:
        """All elements with max |coordinate| <= bound, in lex coordinate order."""
        n = self.degree
        for vec in itertools.product(range(-bound, bound + 1), repeat=n):
            yield self.from_flat(vec)

    def __str__(self) -> str:
        return " x ".join(str(c) for c in self.components)


@dataclass(frozen=True)
class AlgebraicInt:
    """An element of O_K, one coordinate block per component."""

    algebra: EtaleAlgebra
    coords: tuple[Coords, ...]

    def _check(self, other: "AlgebraicInt"):
        if self.algebra != other.algebra:
            raise ComponentMismatch("elements of different algebras")

    def __add__(self, other: "AlgebraicInt") -> "AlgebraicInt":
        self._check(other)
        return AlgebraicInt(
            self.algebra,
            tuple(tuple(a + b for a, b in zip(u, v)) for u, v in zip(self.coords, other.coords)),
        )

    def __sub__(self, other: "AlgebraicInt") -> "AlgebraicInt":
        self._check(other)
        return AlgebraicInt(
            self.algebra,
            tuple(tuple(a - b for a, b in zip(u, v)) for u, v in zip(self.coords, other.coords)),
        )

    def __neg__(self) -> "AlgebraicInt":
        return AlgebraicInt(self.algebra, tuple(tuple(-a for a in u) for u in self.coords))

    def __mul__(self, other: "AlgebraicInt") -> "AlgebraicInt":
        self._check(other)
        return AlgebraicInt(
            self.algebra,
            tuple(
                spec.mul(u, v)
                for spec, u, v in zip(self.algebra.components, self.coords, other.coords)
            ),
        )

    def scale(self, n: int) -> "AlgebraicInt":
        return AlgebraicInt(self.algebra, tuple(tuple(n * a for a in u) for u in self.coords))

    def component_norms(self) -> tuple[int, ...]:
        return tuple(spec.norm(u) for spec, u in zip(self.algebra.components, self.coords))

    def norm(self) -> int:
        n = 1
        for v in self.component_norms():
            n *= v
        return n

    def is_unit(self) -> bool:
        return all(abs(v) == 1 for v in self.component_norms())

    def is_zero(self) -> bool:
        return all(a == 0 for u in self.coords for a in u)

    def flat(self) -> Coords:
        return tuple(a for u in self.coords for a in u)

    @property
    def height(self) -> int:
        return max(abs(a) for u in self.coords for a in u)

    def __str__(self) -> str:
        return format_element(self)

    def __repr__(self) -> str:
        return f"<{format_element(self)} in {self.algebra}>"


def make_algebra(spec: Iterable[int | None]) -> EtaleAlgebra:
    """Build an algebra from a list of parameters: None for Q, d for Q(sqrt d)."""
    return EtaleAlgebra(tuple(FieldSpec(d) for d in spec))


QQ = make_algebra([None])


# ---------------------------------------------------------------------------
# primes and ideal powers


@dataclass(frozen=True)
class PrimeIdeal:
    """A prime of the algebra, with splitting data over its rational prime.

    kind is one of 'rational', 'split', 'inert', 'ramified'; root is the
    relevant root of the generator's minimal polynomial mod p (None for
    rational/inert primes).
    """

    algebra: EtaleAlgebra
    component: int
    p: int
    kind: str
    root: int | None
    e: int
    f: int

    @property
    def norm(self) -> int:
        return self.p**self.f

    @property
    def spec(self) -> FieldSpec:
        return self.algebra.components[self.component]

    def __str__(self) -> str:
        if self.kind in ("rational", "inert"):
            tag = f"({self.p})"
        else:
            tag = f"({self.p}, w-{self.root})"
        where = f"#{self.component}" if len(self.algebra.components) > 1 else ""
        return f"{tag}{where}[{self.kind}]"


def _quadratic_kind(spec: FieldSpec, p: int) -> str:
    """How the prime p decomposes in one quadratic component: the one splitting rule."""
    d = spec.d
    if d is None:
        raise PreconditionFailed("a rational component has no quadratic splitting")
    if spec.disc % p == 0:
        return "ramified"
    if p == 2:
        return "split" if d % 8 == 1 else "inert"  # d odd here
    return "split" if legendre(d, p) == 1 else "inert"


# the residue degrees f of the primes above p in one component, in split_prime's
# order, padded with 0 to two slots
_RESIDUE_DEGREES = {"rational": (1, 0), "ramified": (1, 0), "split": (1, 1), "inert": (2, 0)}


def _quadratic_splitting(spec: FieldSpec, p: int) -> list[tuple[str, int | None, int, int]]:
    """(kind, root, e, f) tuples for the primes of one quadratic component."""
    kind = _quadratic_kind(spec, p)
    d = spec.d
    if kind == "ramified":
        if p == 2:
            root = 0 if d % 2 == 0 else 1  # d = 2, 3 mod 4
        elif d % 4 == 1:
            root = (p + 1) // 2  # double root 1/2 of x^2 - x - (d-1)/4
        else:
            root = 0  # double root of x^2 - d
        return [("ramified", root, 2, 1)]
    if kind == "inert":
        return [("inert", None, 1, 2)]
    if p == 2:
        return [("split", 0, 1, 1), ("split", 1, 1, 1)]
    s_coef, _ = spec.omega_poly
    rt = sqrt_mod(d % p, p)
    if s_coef == 1:
        inv2 = (p + 1) // 2
        roots = sorted(((1 + rt) * inv2 % p, (1 - rt) * inv2 % p))
    else:
        roots = sorted((rt, p - rt))
    return [("split", roots[0], 1, 1), ("split", roots[1], 1, 1)]


class _NormTable:
    """(p, component, Nm(q)) for the primes q above every prime p <= limit, as three int64 columns.

    Filled in bulk.  In a quadratic component of discriminant D, the kind of
    an odd prime p not dividing D depends only on p mod |D|, since the
    Kronecker symbol (D/.) is a character mod |D|.  So `_quadratic_kind` runs
    once on the first such prime met in each class, and once on 2 and on
    every p | D; every other prime reads its class's entry.
    """

    def __init__(self):
        self.limit = 1
        self.columns = np.empty((3, 0), np.int64)  # rows p, component, Nm(q)
        # component -> {p mod |D|: residue degrees}, filled as classes are met
        self.classes: defaultdict[int, dict[int, tuple[int, int]]] = defaultdict(dict)

    def _degrees(self, i: int, spec: FieldSpec, ps: np.ndarray) -> np.ndarray:
        """The padded residue degrees of the primes above each p in ps, one row per p."""
        if spec.is_rational:
            return np.array(_RESIDUE_DEGREES["rational"])
        disc = abs(spec.disc)
        out = np.empty((len(ps), 2), np.int8)
        regular = (ps != 2) & (disc % ps != 0)
        for j in np.flatnonzero(~regular).tolist():
            out[j] = _RESIDUE_DEGREES[_quadratic_kind(spec, int(ps[j]))]
        known = self.classes[i]
        reps = ps[regular]
        classes, first, which = np.unique(reps % disc, return_index=True, return_inverse=True)
        for c, p in zip(classes.tolist(), reps[first].tolist()):
            if c not in known:
                known[c] = _RESIDUE_DEGREES[_quadratic_kind(spec, p)]
        out[regular] = np.array([known[c] for c in classes.tolist()], np.int8).reshape(-1, 2)[which]
        return out

    def extend(self, algebra: EtaleAlgebra, n: int) -> None:
        primes = primes_upto(n)
        ps = np.array(primes[bisect_right(primes, self.limit) :], np.int64)
        # f[j, 2i + s]: the residue degree of the s-th prime above ps[j] in component i, 0 if none
        f = np.empty((len(ps), 2 * len(algebra.components)), np.int8)
        for i, spec in enumerate(algebra.components):
            f[:, 2 * i : 2 * i + 2] = self._degrees(i, spec, ps)
        # boolean indexing reads row-major: by p, then component, then slot, as split_prime lists them
        rows = f > 0
        p = np.broadcast_to(ps[:, None], f.shape)[rows]
        components = np.broadcast_to(np.arange(f.shape[1], dtype=np.int64) // 2, f.shape)[rows]
        # a new read-only array, so a slice handed out earlier stays valid
        columns = np.concatenate((self.columns, np.stack((p, components, p ** f[rows]))), axis=1)
        columns.flags.writeable = False
        self.columns = columns
        self.limit = n


_NORM_TABLES: defaultdict[EtaleAlgebra, _NormTable] = defaultdict(_NormTable)
_NORM_TABLES_GROWING = threading.Lock()  # two threads must not extend one table twice


def norms_upto(algebra: EtaleAlgebra, n: int) -> np.ndarray:
    """The columns p, component, Nm(q) for every prime q above a prime p <= n, in split_prime's order.

    A read-only (3, rows) int64 view of one table per algebra, extended in
    bulk over the new primes only, and only to n, when n passes its end.  A
    quadratic component's splitting is looked up by p mod |disc| (see
    `_NormTable`).
    """
    table = _NORM_TABLES[algebra]
    if n > table.limit:
        with _NORM_TABLES_GROWING:
            if n > table.limit:
                table.extend(algebra, n)
    columns = table.columns
    return columns[:, : np.searchsorted(columns[0], n, "right")]


@lru_cache(maxsize=200_000)
def split_prime(algebra: EtaleAlgebra, p: int) -> tuple[PrimeIdeal, ...]:
    """All primes above p, ordered by component then ascending root."""
    if p < 2 or not is_prime(p):
        raise ValueError(f"{p} is not prime")
    out = []
    for i, spec in enumerate(algebra.components):
        if spec.is_rational:
            out.append(PrimeIdeal(algebra, i, p, "rational", None, 1, 1))
            continue
        for kind, root, e, f in _quadratic_splitting(spec, p):
            out.append(PrimeIdeal(algebra, i, p, kind, root, e, f))
    return tuple(out)


def prime_ideals(algebra: EtaleAlgebra, upto: int | None = None) -> Iterator[PrimeIdeal]:
    """The primes above every rational prime p <= upto: ascending p, then split_prime order.

    With upto=None the walk never ends; it reads the prime table in
    stretches that double in length.
    """
    bound = 64 if upto is None else upto
    start = 0
    while True:
        primes = primes_upto(bound)
        for p in primes[start:]:
            yield from split_prime(algebra, p)
        if upto is not None:
            return
        start, bound = len(primes), 2 * bound


@lru_cache(maxsize=200_000)
def _hensel_root(spec: FieldSpec, p: int, base_root: int, k: int) -> int:
    """Lift a simple root of the generator's minimal polynomial to mod p^k."""
    s, t = spec.omega_poly
    r = base_root % p
    prec = 1
    mod = p
    while prec < k:
        prec = min(2 * prec, k)
        mod = p**prec
        fr = (r * r - s * r - t) % mod
        dfr = (2 * r - s) % mod
        inv = pow(dfr, -1, mod)
        r = (r - fr * inv) % mod
    return r % p**k


@dataclass(frozen=True)
class Modulus:
    """An ideal power p^k as an HNF sublattice of the component lattice."""

    prime: PrimeIdeal
    k: int
    hnf: Hnf

    @property
    def norm(self) -> int:
        return math.prod(row[i] for i, row in enumerate(self.hnf))

    @property
    def component(self) -> int:
        return self.prime.component

    def contains(self, x: AlgebraicInt) -> bool:
        """Membership in the ideal p^k of O_K (only the component matters)."""
        if x.algebra != self.prime.algebra:
            raise ComponentMismatch("element of a different algebra")
        return lat_contains(x.coords[self.component], self.hnf)

    def reduce_coords(self, coords: Coords) -> Coords:
        return lat_reduce(coords, self.hnf)

    def residues(self) -> Iterator[Coords]:
        return residues(self.hnf)

    def __str__(self) -> str:
        return f"{self.prime}^{self.k}"


@lru_cache(maxsize=200_000)
def ideal_power(prime: PrimeIdeal, k: int) -> Modulus:
    """The ideal p^k as an explicit HNF lattice with norm Nm(p)^k."""
    if k < 1:
        raise ValueError("exponent must be >= 1")
    p = prime.p
    if prime.kind == "rational":
        return Modulus(prime, k, ((p**k,),))
    if prime.kind == "inert":
        q = p**k
        return Modulus(prime, k, ((q, 0), (0, q)))
    if prime.kind == "split":
        q = p**k
        r = _hensel_root(prime.spec, p, prime.root, k)
        return Modulus(prime, k, ((q, 0), ((-r) % q, 1)))
    # ramified: p^(2m) = (p^m), p^(2m+1) = p^m * p
    m, odd = divmod(k, 2)
    if not odd:
        q = p**m
        return Modulus(prime, k, ((q, 0), (0, q)))
    base: Hnf = ((p, 0), ((-prime.root) % p, 1))
    return Modulus(prime, k, lat_scale(base, p**m) if m else base)


def reduce_mod(x: AlgebraicInt, m: Modulus) -> AlgebraicInt:
    """Canonical representative of x modulo the ideal lattice.

    Coordinates outside the modulus component are zeroed: the ideal contains
    the full ring on every other component.
    """
    if x.algebra != m.prime.algebra:
        raise ComponentMismatch("element of a different algebra")
    return x.algebra.embed(m.component, m.reduce_coords(x.coords[m.component]))


def valuation(x: AlgebraicInt, prime: PrimeIdeal, cap: int = 64) -> int:
    """Largest j <= cap with x in p^j (0 if x is a unit at p)."""
    comp = x.coords[prime.component]
    if all(c == 0 for c in comp):
        return cap
    j = 0
    while j < cap and lat_contains(comp, ideal_power(prime, j + 1).hnf):
        j += 1
    return j


# ---------------------------------------------------------------------------
# homomorphisms


@dataclass(frozen=True)
class AlgebraHom:
    """A unital Q-algebra homomorphism between restricted algebras.

    assignments[j] = (i, img): target component j receives source component i,
    with the source generator mapping to the element img of the target
    component (img is its coordinate tuple; the generator of a rational
    source is 1).
    """

    source: EtaleAlgebra
    target: EtaleAlgebra
    assignments: tuple[tuple[int, Coords], ...]

    def apply(self, x: AlgebraicInt) -> AlgebraicInt:
        if x.algebra != self.source:
            raise ComponentMismatch("element not in the source algebra")
        blocks = []
        for j, spec in enumerate(self.target.components):
            i, img = self.assignments[j]
            u = x.coords[i]
            one = spec.one()
            val = tuple(u[0] * c for c in one)
            if len(u) == 2:
                val = tuple(v + u[1] * w for v, w in zip(val, spec.mul(one, img)))
            blocks.append(val)
        return AlgebraicInt(self.target, tuple(blocks))

    def __call__(self, x: AlgebraicInt) -> AlgebraicInt:
        return self.apply(x)

    def matrix(self) -> list[list[int]]:
        """Matrix on flat coordinates (target degree x source degree)."""
        cols = [self.apply(b).flat() for b in self.source.basis()]
        return [[col[i] for col in cols] for i in range(self.target.degree)]

    def is_identity(self) -> bool:
        if self.source != self.target:
            return False
        for j, (i, img) in enumerate(self.assignments):
            if i != j:
                return False
            spec = self.target.components[j]
            if not spec.is_rational and img != (0, 1):
                return False
        return True

    def is_isomorphism(self) -> bool:
        srcs = sorted(i for i, _ in self.assignments)
        return (
            self.source.degree == self.target.degree
            and srcs == list(range(len(self.source.components)))
        )

    def describe(self) -> str:
        parts = []
        for j, (i, img) in enumerate(self.assignments):
            spec = self.target.components[j]
            if spec.is_rational or self.source.components[i].is_rational:
                parts.append(f"K{i}->L{j}")
            else:
                name = "id" if img == (0, 1) else "conj"
                parts.append(f"K{i}->L{j}:{name}")
        return ", ".join(parts)


def _component_homs(src: FieldSpec, dst: FieldSpec) -> list[Coords]:
    """Images of the source generator under field homs src -> dst."""
    if src.is_rational:
        return [dst.one()]
    if dst.is_rational or src.d != dst.d:
        return []
    s, _ = dst.omega_poly
    return [(0, 1), (s, -1)]  # identity, conjugation


def algebra_homs(source: EtaleAlgebra, target: EtaleAlgebra) -> list[AlgebraHom]:
    """The complete finite list of Q-algebra homomorphisms source -> target."""
    per_target = []
    for dst in target.components:
        opts = []
        for i, src in enumerate(source.components):
            for img in _component_homs(src, dst):
                opts.append((i, img))
        if not opts:
            return []
        per_target.append(opts)
    return [
        AlgebraHom(source, target, combo) for combo in itertools.product(*per_target)
    ]


def algebra_isomorphisms(source: EtaleAlgebra, target: EtaleAlgebra) -> list[AlgebraHom]:
    isos = [h for h in algebra_homs(source, target) if h.is_isomorphism()]
    isos.sort(key=lambda h: (not h.is_identity(),))
    return isos


# ---------------------------------------------------------------------------
# units


def _unit_key(u: Coords) -> tuple:
    if len(u) == 1:
        return (abs(u[0]), u[0] < 0)
    a, b = u
    return (abs(b), b < 0, a)


def _roots_of_unity(spec: FieldSpec) -> list[Coords]:
    """The roots of unity of a component: 1, -1, then the others of Q(sqrt -1) or Q(sqrt -3) (all of height 1)."""
    one = spec.one()
    pm = [one, tuple(-v for v in one)]
    if spec.is_rational or spec.d > 0:
        return pm
    return pm + sorted(((a, b) for a in (-1, 0, 1) for b in (-1, 1) if spec.norm((a, b)) == 1), key=_unit_key)


def _component_units(spec: FieldSpec, bound: int) -> list[Coords]:
    """The units of one component with max |coordinate| <= bound, by `_unit_key`.

    By the unit theorem a real quadratic field adds +-eta^n, n != 0, to the
    roots of unity (eta the fundamental unit).  The w-coordinate of eta^n is
    +-(eta^n - conj(eta)^n) / sqrt(disc), the same for eta^-n up to sign, and
    since eta >= (1 + sqrt 5)/2 it never falls as |n| grows; so each
    direction stops once that coordinate passes the bound.
    """
    if bound < 1:
        return []
    out = _roots_of_unity(spec)
    if not spec.is_rational and spec.d > 0:
        eta = fundamental_unit(spec)
        for step in (eta, spec.mul(spec.conj(eta), (spec.norm(eta), 0))):  # eta and 1/eta
            power = step
            while abs(power[1]) <= bound:
                if abs(power[0]) <= bound:
                    out += [power, tuple(-v for v in power)]
                power = spec.mul(power, step)
    return sorted(out, key=_unit_key)


def units_up_to(algebra: EtaleAlgebra, bound: int) -> list[AlgebraicInt]:
    """All units with max |coordinate| <= bound, componentwise |norm| = 1.

    Ordered per component by (|second coordinate|, sign, first coordinate),
    with earlier components varying slowest.
    """
    per_comp = [_component_units(spec, bound) for spec in algebra.components]
    out = []
    for combo in itertools.product(*per_comp):
        out.append(AlgebraicInt(algebra, tuple(combo)))
    return out


def fundamental_unit(spec: FieldSpec) -> Coords:
    """Fundamental unit a + b*w > 1 of a real quadratic component, by continued fractions.

    A unit a + b*w > 1 has a/b among the convergents of -conj(w), so the
    first convergent of norm +-1 is the unit (Cohen, GTM 138, 5.7).  The
    expansion of (P + sqrt d)/Q runs on exact integers.
    """
    if spec.is_rational or spec.d is None or spec.d < 0:
        raise ValueError("fundamental unit requires a real quadratic component")
    d, root = spec.d, math.isqrt(spec.d)
    P, Q = (-1, 2) if spec.omega_poly[0] == 1 else (0, 1)  # -conj(w) = (sqrt d - 1)/2 or sqrt d
    (h0, h1), (k0, k1) = (0, 1), (1, 0)
    while True:
        a = (P + root) // Q
        (h0, h1), (k0, k1) = (h1, a * h1 + h0), (k1, a * k1 + k0)
        if abs(spec.norm((h1, k1))) == 1:
            return h1, k1
        P = a * Q - P
        Q = (d - P * P) // Q  # exact; positive, since every later complete quotient is reduced


# ---------------------------------------------------------------------------
# text formats


_ALGEBRA_RE = re.compile(r"^\s*Q\s*(?:\(\s*sqrt\s*(-?\d+)\s*\))?\s*$")


def parse_algebra(text: str) -> EtaleAlgebra:
    """Parse `Q`, `Q(sqrt d)`, or products joined by `x`."""
    comps = []
    for part in text.split("x"):
        m = _ALGEBRA_RE.match(part)
        if not m:
            raise ValueError(f"bad algebra spec: {part.strip()!r}")
        comps.append(None if m.group(1) is None else int(m.group(1)))
    return make_algebra(comps)


def format_algebra(algebra: EtaleAlgebra) -> str:
    return " x ".join(str(c) for c in algebra.components)


_TERM_RE = re.compile(r"^([+-]?\d+)$")
_W_RE = re.compile(r"^([+-]?\d*)\*?w$")
_FULL_RE = re.compile(r"^([+-]?\d+)([+-]\d*)\*?w$")


def _parse_component(text: str, spec: FieldSpec) -> Coords:
    t = text.replace(" ", "")
    if spec.is_rational:
        m = _TERM_RE.match(t)
        if not m:
            raise ValueError(f"bad rational literal: {text!r}")
        return (int(m.group(1)),)
    m = _TERM_RE.match(t)
    if m:
        return (int(m.group(1)), 0)
    m = _W_RE.match(t)
    if m:
        c = m.group(1)
        b = 1 if c in ("", "+") else (-1 if c == "-" else int(c))
        return (0, b)
    m = _FULL_RE.match(t)
    if m:
        a = int(m.group(1))
        c = m.group(2)
        b = 1 if c == "+" else (-1 if c == "-" else int(c))
        return (a, b)
    raise ValueError(f"bad element literal: {text!r}")


def parse_element(text: str, algebra: EtaleAlgebra) -> AlgebraicInt:
    """Parse per-component literals `a+b*w` joined by `|`."""
    parts = text.split("|")
    if len(parts) != len(algebra.components):
        raise ValueError(
            f"expected {len(algebra.components)} component literal(s), got {len(parts)}"
        )
    return AlgebraicInt(
        algebra, tuple(_parse_component(p, c) for p, c in zip(parts, algebra.components))
    )


def _format_component(u: Coords) -> str:
    if len(u) == 1:
        return str(u[0])
    a, b = u
    if b == 0:
        return str(a)
    if a == 0:
        return f"{b}*w"
    return f"{a}{b:+}*w"


def format_element(x: AlgebraicInt) -> str:
    return "|".join(_format_component(u) for u in x.coords)
