"""Z-linear maps between rings of integers and their local sieve conditions.

Covers induced maps modulo prime powers, exhaustive local-condition checks,
monomial decompositions A = M_eps . tau, preserver scans over small prime
fields, translate-avoidance witnesses along unit directions, and
unit-preservation tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import BudgetExceeded, NoWitness, PreconditionFailed, VerificationFailed
from .lattices import (
    Hnf,
    hnf_from_rows,
    identity_hnf,
    lat_contains,
    lat_scale,
    preimage_lattice,
    quotient_residues,
)
from .primes import primes_upto
from .rings import (
    AlgebraHom,
    AlgebraicInt,
    EtaleAlgebra,
    PrimeIdeal,
    algebra_homs,
    ideal_power,
    split_prime,
    units_up_to,
)
from .sieve import SieveSpec, local_set

DEFAULT_CLASS_BUDGET = 2_000_000


def _det(m: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix (Leibniz formula)."""
    n = len(m)
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = sign
        for i in range(n):
            prod *= m[i][perm[i]]
        total += prod
    return total


@dataclass(frozen=True)
class ZLinearMap:
    """Integer matrix acting on flat coordinates over the integral bases."""

    source: EtaleAlgebra
    target: EtaleAlgebra
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.matrix) != self.target.degree or any(
            len(row) != self.source.degree for row in self.matrix
        ):
            raise PreconditionFailed("matrix shape does not match algebra degrees")

    def apply(self, x: AlgebraicInt) -> AlgebraicInt:
        if x.algebra != self.source:
            raise PreconditionFailed("element not in the source algebra")
        v = x.flat()
        return self.target.from_flat(
            tuple(sum(r * c for r, c in zip(row, v)) for row in self.matrix)
        )

    def __call__(self, x: AlgebraicInt) -> AlgebraicInt:
        return self.apply(x)

    @property
    def is_square(self) -> bool:
        return self.source.degree == self.target.degree

    def det(self) -> int:
        if not self.is_square:
            raise PreconditionFailed("determinant of a non-square map")
        return _det(self.matrix)

    @classmethod
    def identity(cls, algebra: EtaleAlgebra) -> "ZLinearMap":
        n = algebra.degree
        return cls(algebra, algebra, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    @classmethod
    def multiplication(cls, eps: AlgebraicInt) -> "ZLinearMap":
        alg = eps.algebra
        cols = [(eps * b).flat() for b in alg.basis()]
        rows = tuple(tuple(col[i] for col in cols) for i in range(alg.degree))
        return cls(alg, alg, rows)

    @classmethod
    def monomial(cls, tau: AlgebraHom, eps: AlgebraicInt) -> "ZLinearMap":
        """The map x -> eps * tau(x)."""
        if eps.algebra != tau.target:
            raise PreconditionFailed("unit must live in the hom target")
        cols = [(eps * tau.apply(b)).flat() for b in tau.source.basis()]
        rows = tuple(tuple(col[i] for col in cols) for i in range(tau.target.degree))
        return cls(tau.source, tau.target, rows)


@dataclass(frozen=True)
class MonomialDecomposition:
    """A = M_eps . tau with eps = A(1)."""

    tau: AlgebraHom
    epsilon: AlgebraicInt


@dataclass(frozen=True)
class InducedMap:
    """The reduction of a Z-linear map modulo p^k on both sides."""

    linmap: ZLinearMap
    p: int
    k: int
    bijective: bool


def induced_mod(a: ZLinearMap, p: int, k: int) -> InducedMap:
    """The induced map O_K/p^k -> O_L/p^k; bijective iff det is a unit mod p."""
    bij = a.is_square and a.det() % p != 0
    return InducedMap(a, p, k, bij)


@dataclass(frozen=True)
class LocalCheck:
    """Outcome of a local-condition check at one prime number."""

    ok: bool
    p: int
    counterexample: AlgebraicInt | None = None
    image: AlgebraicInt | None = None


def _needed_exponent(sieve: SieveSpec, primes: Sequence[PrimeIdeal]) -> int:
    m = 1
    for q in primes:
        ls = local_set(sieve, q)
        m = max(m, -(-ls.modulus.k // q.e))  # ceil(k/e): p^m O contained in q^k
    return m


def check_local_condition(
    a: ZLinearMap,
    r_sieve: SieveSpec,
    s_sieve: SieveSpec,
    p: int,
    budget: int = DEFAULT_CLASS_BUDGET,
) -> LocalCheck:
    """Exhaustively test A(V_p(K, R)) inside V_p(L, S).

    Enumerates every class of O_K/p^m for the smallest sufficient m; on
    failure reports the lex-first violating class of O_K/p^m (coordinates in
    [0, p^m), flat order).  `scan_primes` on its kernel-lattice route reports
    a different witness for the same map and prime: the first violating
    preimage residue of the first failing target prime.  On Q x Q with
    A = ((-2, 0), (-2, -2)), k = l = 2 and p = 2, this gives x = (1, 1) and
    `scan_primes` gives x = (2, 1).
    """
    if a.source != r_sieve.algebra or a.target != s_sieve.algebra:
        raise PreconditionFailed("sieve algebras do not match the map")
    src_primes = split_prime(a.source, p)
    dst_primes = split_prime(a.target, p)
    m = max(_needed_exponent(r_sieve, src_primes), _needed_exponent(s_sieve, dst_primes))
    q = p**m
    n = a.source.degree
    if q**n > budget:
        raise BudgetExceeded(f"{q**n} classes exceed budget {budget}")
    r_sets = [local_set(r_sieve, pr) for pr in src_primes]
    s_sets = [local_set(s_sieve, pr) for pr in dst_primes]
    for flat in itertools.product(range(q), repeat=n):
        x = a.source.from_flat(flat)
        if any(ls.hits(x) is not None for ls in r_sets):
            continue
        y = a.apply(x)
        if any(ls.hits(y) is not None for ls in s_sets):
            return LocalCheck(False, p, x, y)
    return LocalCheck(True, p)


def _kfree_fast_applicable(sieve: SieveSpec, p: int) -> bool:
    if not sieve.tail.is_kfree:
        return False
    return all(ls.prime.p != p for ls in sieve.exceptions)


def _inside_one(source: EtaleAlgebra, pre: Hnf, src_lattices: Sequence[tuple[int, Hnf]]) -> bool:
    """True iff every HNF generator of `pre` lies in one and the same source lattice."""
    gens = [source.from_flat(row).coords for row in pre]
    return any(all(lat_contains(g[ci], h) for g in gens) for ci, h in src_lattices)


def _check_local_condition_kfree(
    a: ZLinearMap, r_sieve: SieveSpec, s_sieve: SieveSpec, p: int
) -> LocalCheck:
    """Kernel-lattice route for k-free sieves: test only A^{-1}(q^l).

    The condition holds iff for every target prime q | p the preimage
    P = A^{-1}(q^l), a lattice containing p^m O_K, lies inside the union of
    the source lattices p_i^k.  P / p^m O_K is a finite p-group, and a finite
    p-group is never the union of p or fewer proper subgroups (Cohn, "On
    n-sum groups", Math. Scand. 75, 1994).  `scan_primes` routes a map here
    only when at most p primes p_i lie above p, so P lies in the union iff
    it lies in one p_i^k, iff all HNF generators of P lie in that one p_i^k.
    That containment test settles a passing q.  Otherwise the residues of
    P mod p^m are walked lazily in `quotient_residues` order, and the first
    one outside every p_i^k is reported; at most |P / p^m O_K| =
    p^{nm} / Nm(q)^l of them, instead of p^{nm} classes.  The reported
    x and A x are re-checked against the sieves' local sets, which do not
    use the lattices; a failed re-check raises VerificationFailed.
    """
    k = r_sieve.tail.exponent
    l = s_sieve.tail.exponent
    m = max(k, l)
    src_primes = split_prime(a.source, p)
    dst_primes = split_prime(a.target, p)
    src_lattices = [(pr.component, ideal_power(pr, k).hnf) for pr in src_primes]
    fine = lat_scale(identity_hnf(a.source.degree), p**m)

    mat = [list(row) for row in a.matrix]
    for q_prime in dst_primes:
        w = ideal_power(q_prime, l).hnf
        hnfs = [w if j == q_prime.component else None for j in range(len(a.target.components))]
        target_lat = hnf_from_rows(a.target.lattice_rows(hnfs), a.target.degree)
        pre = preimage_lattice(mat, target_lat)
        if _inside_one(a.source, pre, src_lattices):
            continue
        for rep in quotient_residues(pre, fine):
            x = a.source.from_flat(rep)
            if not any(lat_contains(x.coords[ci], h) for ci, h in src_lattices):
                y = a.apply(x)
                if any(local_set(r_sieve, pr).hits(x) is not None for pr in src_primes):
                    raise VerificationFailed(f"kernel-route witness {x} lies in a forbidden class above {p}")
                if local_set(s_sieve, q_prime).hits(y) is None:
                    raise VerificationFailed(f"image {y} of kernel-route witness {x} misses {q_prime}^{l}")
                return LocalCheck(False, p, x, y)
    return LocalCheck(True, p)


def scan_primes(
    a: ZLinearMap,
    r_sieve: SieveSpec,
    s_sieve: SieveSpec,
    cutoff: int,
    budget: int = DEFAULT_CLASS_BUDGET,
) -> LocalCheck | None:
    """First p <= cutoff violating the local condition, or None.

    Pure k-free sieves use the kernel-lattice route at every p with at most p
    source primes above it, whatever the degrees: a prime passes after one
    containment test of the preimage generators per target prime, and a
    failing prime walks preimage residues only up to its first violation.
    Anything else (other sieves, or more than p source primes above p, as
    at p = 2 over Q x Q(sqrt 17)) falls back to exhaustive class
    enumeration.  A negative cutoff raises PreconditionFailed rather than
    pass vacuously.

    The witness depends on the route.  The kernel-lattice route returns the
    first violating preimage residue of the first failing target prime
    (`quotient_residues` order); the exhaustive route returns the lex-first
    violating class of O_K/p^m, as `check_local_condition` does.  On Q x Q
    with A = ((-2, 0), (-2, -2)), k = l = 2 and p = 2, this gives x = (2, 1)
    where `check_local_condition` gives x = (1, 1).
    """
    if cutoff < 0:
        raise PreconditionFailed(f"prime cutoff must be >= 0, got {cutoff}")
    for p in primes_upto(cutoff):
        if (
            _kfree_fast_applicable(r_sieve, p)
            and _kfree_fast_applicable(s_sieve, p)
            and len(split_prime(a.source, p)) <= p
        ):
            res = _check_local_condition_kfree(a, r_sieve, s_sieve, p)
        else:
            res = check_local_condition(a, r_sieve, s_sieve, p, budget)
        if not res.ok:
            return res
    return None


def decompose_monomial(a: ZLinearMap) -> MonomialDecomposition | None:
    """Write A = M_eps . tau with eps = A(1), if any algebra hom tau fits."""
    eps = a.apply(a.source.one)
    for tau in algebra_homs(a.source, a.target):
        if all(a.apply(b) == eps * tau.apply(b) for b in a.source.basis()):
            return MonomialDecomposition(tau, eps)
    return None


# ---------------------------------------------------------------------------
# preserver scan over prime fields


def is_monomial_matrix(m: Sequence[Sequence[int]]) -> bool:
    """Exactly one nonzero entry per row."""
    return all(sum(1 for v in row if v) == 1 for row in m)


@dataclass(frozen=True)
class PreserverScan:
    q: int
    n: int
    m: int
    invertible_count: int
    preservers: tuple[tuple[tuple[tuple[int, ...], ...], bool], ...]

    def matrices(self) -> list[tuple[tuple[int, ...], ...]]:
        return [mat for mat, _ in self.preservers]

    def all_monomial(self) -> bool:
        return all(mono for _, mono in self.preservers)


def preserver_scan(q: int, n: int, m: int, budget: int = 20_000_000) -> PreserverScan:
    """All F_q-matrices mapping vectors with nonzero coordinates to the same.

    For n = m only invertible matrices are scanned; each survivor is flagged
    monomial (one nonzero entry per row) or not.  Lexicographic row-major
    order.
    """
    if q > 7 or not q in (2, 3, 5, 7):
        raise PreconditionFailed("q must be a prime <= 7")
    if n > 3 or m > 3 or n < 1 or m < 1:
        raise PreconditionFailed("dimensions must be in 1..3")
    if q ** (n * m) > budget:
        raise BudgetExceeded(f"{q**(n*m)} matrices exceed budget {budget}")
    units = list(range(1, q))
    test_vectors = list(itertools.product(units, repeat=n))
    out = []
    invertible = 0
    for entries in itertools.product(range(q), repeat=n * m):
        mat = tuple(tuple(entries[i * n : (i + 1) * n]) for i in range(m))
        if n == m:
            if _det(mat) % q == 0:
                continue
            invertible += 1
        ok = True
        for v in test_vectors:
            img = [sum(r * c for r, c in zip(row, v)) % q for row in mat]
            if any(w == 0 for w in img):
                ok = False
                break
        if ok:
            out.append((mat, is_monomial_matrix(mat)))
    return PreserverScan(q, n, m, invertible, tuple(out))


# ---------------------------------------------------------------------------
# avoidance witness along a unit direction


def cover_witness(
    p: int,
    k: int,
    x: Sequence[int],
    a: Sequence[int],
    class_sets: Sequence[Sequence[int]],
) -> int:
    """Smallest t mod p^k with a_i + t*x_i avoiding every forbidden set.

    Requires all x_i to be units mod p and the measures of the forbidden sets
    to sum below 1; existence is then guaranteed.
    """
    n = len(x)
    if len(a) != n or len(class_sets) != n:
        raise PreconditionFailed("x, a, and class sets must have equal length")
    q = p**k
    sets = [frozenset(c % q for c in cs) for cs in class_sets]
    if any(xi % p == 0 for xi in x):
        raise PreconditionFailed("all coordinates of x must be units mod p")
    total = sum(Fraction(len(s), q) for s in sets)
    if total >= 1:
        raise PreconditionFailed(f"measure sum {total} is not < 1")
    for t in range(q):
        if all((ai + t * xi) % q not in s for ai, xi, s in zip(a, x, sets)):
            return t
    raise NoWitness("no t found; preconditions must have been violated")


# ---------------------------------------------------------------------------
# unit preservation


@dataclass(frozen=True)
class UnitCheck:
    ok: bool
    counterexample: AlgebraicInt | None = None
    image: AlgebraicInt | None = None


def check_unit_preservation(a: ZLinearMap, height: int) -> UnitCheck:
    """Test A on all units of height <= H; true iff every image is a unit."""
    if height < 1:
        raise PreconditionFailed(f"unit height must be >= 1, got {height}")
    for spec in a.source.components:
        if not spec.is_rational and spec.d is not None and spec.d < 0:
            raise PreconditionFailed("source must be totally real")
    for eps in units_up_to(a.source, height):
        img = a.apply(eps)
        if not img.is_unit():
            return UnitCheck(False, eps, img)
    return UnitCheck(True)
