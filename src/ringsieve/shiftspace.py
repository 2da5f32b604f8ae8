"""Admissible configurations, block-code morphisms, conjugacy, and symmetries.

A finite subset of O_K is admissible for a sieve when it avoids a translate
of the forbidden set at every prime; those subsets are the finite patches of
the associated shift space.  Morphisms are sliding block codes: a window M,
a family of patterns T inside M, and a linear map A, acting by
"A(x) is in f(X) iff X meets x+M exactly in x+T for some T in the family".
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    BudgetExceeded,
    FormatError,
    PreconditionFailed,
    RegionTooSmall,
    RingsieveError,
    VerificationFailed,
)
from .lattices import crt_pair
from .linmaps import ZLinearMap
from .localglobal import CongruenceConstraint, solve
from .rings import (
    AlgebraicInt,
    Coords,
    EtaleAlgebra,
    AlgebraHom,
    PrimeIdeal,
    _roots_of_unity,
    algebra_isomorphisms,
    fundamental_unit,
    ideal_power,
    parse_element,
    prime_ideals,
    reduce_mod,
    split_prime,
)
from .sieve import (
    LocalSet,
    SieveSpec,
    TailRule,
    _check_bound,
    _label_element,
    _tail_local_sets,
    build_sieve,
    kfree_sieve,
    local_set,
    membership,
)


@dataclass(frozen=True)
class Pattern:
    """A finite subset of O_K, canonically ordered."""

    algebra: EtaleAlgebra
    elements: tuple[AlgebraicInt, ...]

    @classmethod
    def of(cls, algebra: EtaleAlgebra, elements: Iterable[AlgebraicInt]) -> "Pattern":
        uniq = {e.flat(): e for e in elements}
        ordered = tuple(uniq[k] for k in sorted(uniq))
        return cls(algebra, ordered)

    @classmethod
    def from_ints(cls, algebra: EtaleAlgebra, values: Iterable[int]) -> "Pattern":
        return cls.of(algebra, (algebra.from_int(v) for v in values))

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, x: AlgebraicInt) -> bool:
        return any(e == x for e in self.elements)

    def translate(self, g: AlgebraicInt) -> "Pattern":
        return Pattern.of(self.algebra, (e + g for e in self.elements))

    def union(self, other: "Pattern") -> "Pattern":
        return Pattern.of(self.algebra, self.elements + other.elements)

    def intersect(self, other: "Pattern") -> "Pattern":
        keys = {e.flat() for e in other.elements}
        return Pattern.of(self.algebra, (e for e in self.elements if e.flat() in keys))

    def ints(self) -> list[int]:
        """Values for rational patterns."""
        return [e.coords[0][0] for e in self.elements]

    def __str__(self) -> str:
        return "{" + ",".join(str(e) for e in self.elements) + "}"


def int_pattern(values: Iterable[int]) -> Pattern:
    from .rings import QQ

    return Pattern.from_ints(QQ, values)


# ---------------------------------------------------------------------------
# admissibility


@dataclass(frozen=True)
class AdmissibilityResult:
    """Certificate (translate witnesses per checked prime) or a violation.

    Primes beyond the recorded threshold need no witness: the pattern can
    meet at most |X| * #classes translates, fewer than Nm(p)^k of them.
    """

    admissible: bool
    witnesses: tuple[tuple[PrimeIdeal, Coords], ...] = ()
    norm_threshold: int = 0
    violation: PrimeIdeal | None = None

    def __bool__(self) -> bool:
        return self.admissible


def _points(ls: LocalSet, pattern: Pattern) -> list[Coords]:
    """The pattern's coordinates on the component of the local set."""
    return [x.coords[ls.modulus.component] for x in pattern.elements]


def _free_translate(ls: LocalSet, pattern: Pattern) -> Coords | None:
    """The lex-first residue delta with (delta + classes) disjoint from the pattern: -delta is no c - x."""
    mod = ls.modulus
    diffs = ls.differences(_points(ls, pattern))
    if len(diffs) == mod.norm:
        return None
    return next(d for d in mod.residues() if mod.reduce_coords(tuple(-v for v in d)) not in diffs)


def is_admissible(sieve: SieveSpec, pattern: Pattern) -> AdmissibilityResult:
    """Decide membership of a finite pattern in the shift space of the sieve.

    Only the tail primes with Nm(p)^k <= |X| * #labels and the exception
    primes can fail; each, in that order, gets its lex-first free translate.
    """
    if not sieve.non_large:
        raise PreconditionFailed("admissibility requires a non-large sieve")
    if pattern.algebra != sieve.algebra:
        raise PreconditionFailed("pattern algebra mismatch")
    witnesses: list[tuple[PrimeIdeal, Coords]] = []
    threshold = len(pattern) * len(sieve.tail.labels) if sieve.tail.kind == "classes" else 0
    for ls in _tail_local_sets(sieve, len(pattern)) + list(sieve.exceptions):
        delta = _free_translate(ls, pattern)
        if delta is None:
            return AdmissibilityResult(False, tuple(witnesses), threshold, ls.prime)
        witnesses.append((ls.prime, delta))
    return AdmissibilityResult(True, tuple(witnesses), threshold, None)


def count_admissible(sieve: SieveSpec, box_size: int, budget: int = 1 << 24) -> int:
    """Number of admissible subsets of {0, ..., N-1} over Q.

    Subsets are enumerated as bitmasks and tested at the exceptions and the
    tail sets that can reject N points.  delta + R_p meets x iff -delta is a
    difference c - x, so one pass over points and classes builds every
    translate's bitmask; a subset meeting all of them is rejected.
    """
    if len(sieve.algebra.components) != 1 or not sieve.algebra.components[0].is_rational:
        raise PreconditionFailed("count_admissible runs over the rationals")
    if not sieve.non_large:
        raise PreconditionFailed("count_admissible requires a non-large sieve")
    if box_size < 0:
        raise PreconditionFailed(f"box size must be >= 0, got {box_size}")
    if (1 << box_size) > budget:
        raise BudgetExceeded(f"2^{box_size} subsets exceed budget {budget}")
    n_sets = 1 << box_size
    dtype = np.uint32 if box_size <= 31 else np.uint64
    masks = np.arange(n_sets, dtype=dtype)
    bad = np.zeros(n_sets, dtype=bool)
    for ls in list(sieve.exceptions) + _tail_local_sets(sieve, box_size):
        m = ls.modulus.norm
        translates = [0] * m
        for x in range(box_size):
            for (d,) in ls.differences([(x,)]):
                translates[-d % m] |= 1 << x
        if 0 in translates:
            continue  # a free translate exists for every subset
        fails = np.ones(n_sets, dtype=bool)
        for t in translates:
            fails &= (masks & dtype(t)) != 0
        bad |= fails
    return int(n_sets - int(bad.sum()))


# ---------------------------------------------------------------------------
# block codes


@dataclass(frozen=True)
class WindowCode:
    """A sliding block code: linear part A, window M, pattern family."""

    linmap: ZLinearMap
    window: Pattern
    patterns: tuple[Pattern, ...]

    def __post_init__(self):
        if not self.patterns:
            raise PreconditionFailed("pattern family must be non-empty")
        wkeys = {e.flat() for e in self.window.elements}
        for t in self.patterns:
            if len(t) == 0:
                raise PreconditionFailed("patterns must be non-empty")
            if any(e.flat() not in wkeys for e in t.elements):
                raise PreconditionFailed("patterns must be subsets of the window")

    @property
    def source(self) -> EtaleAlgebra:
        return self.linmap.source

    @property
    def target(self) -> EtaleAlgebra:
        return self.linmap.target

    def pattern_keys(self) -> frozenset[frozenset]:
        return frozenset(frozenset(e.flat() for e in t.elements) for t in self.patterns)


def translation_code(algebra: EtaleAlgebra, t: AlgebraicInt, window: Pattern, sieve: SieveSpec) -> WindowCode:
    """The code of the translation X -> t + X over the given window."""
    neg = -t
    pats = []
    for size in range(1, len(window) + 1):
        for combo in itertools.combinations(window.elements, size):
            if any(e == neg for e in combo):
                pat = Pattern.of(algebra, combo)
                if is_admissible(sieve, pat).admissible:
                    pats.append(pat)
    return WindowCode(ZLinearMap.identity(algebra), window, tuple(pats))


def interior_points(known: Pattern, window: Pattern) -> list[AlgebraicInt]:
    """Points x with x + window fully inside the known region."""
    keys = {e.flat() for e in known.elements}
    out = []
    for x in known.elements:
        if all((x + w).flat() in keys for w in window.elements):
            out.append(x)
    return out


def apply_block_code(
    code: WindowCode,
    x_set: Pattern,
    known: Pattern | None = None,
    complete: bool = False,
) -> Pattern:
    """Evaluate the block code on a finite patch.

    `known` declares where the contents of the pattern are authoritative;
    evaluation happens on the interior of `known` under the window.  With
    complete=True the pattern is taken as the entire configuration and is
    evaluated at every window position that meets it.
    """
    if complete:
        # every output must come from a window position meeting the set
        candidates = set()
        for e in x_set.elements:
            for w in code.window.elements:
                candidates.add((e - w).flat())
        region = [code.source.from_flat(f) for f in sorted(candidates)]
    else:
        if known is None:
            raise PreconditionFailed("apply_block_code needs a known region (or complete=True)")
        region = interior_points(known, code.window)
        if not region:
            raise RegionTooSmall("the window does not fit inside the known region")
    xkeys = {e.flat() for e in x_set.elements}
    family = code.pattern_keys()
    out = []
    for x in region:
        hit = frozenset(
            (x + w).flat() for w in code.window.elements if (x + w).flat() in xkeys
        )
        local = frozenset((code.source.from_flat(f) - x).flat() for f in hit)
        if local in family:
            out.append(code.linmap.apply(x))
    return Pattern.of(code.target, out)


# ---------------------------------------------------------------------------
# random admissible patterns (CRT placement of translated sub-patterns)


def random_admissible(
    sieve: SieveSpec,
    rng: random.Random,
    base_patterns: Sequence[Pattern],
    copies: int = 3,
    spread: int = 40,
) -> Pattern:
    """Union of translated base patterns, placed by CRT to stay admissible.

    At the exceptions and the tail sets that can reject the union, every
    copy T is steered into a residue delta outside the differences of T, so
    delta + T misses the forbidden set; copies are spaced far apart, so
    large primes are handled by the measure bound.
    """
    algebra = sieve.algebra
    total = max(len(t) for t in base_patterns) * copies
    relevant = list(sieve.exceptions) + _tail_local_sets(sieve, total)

    if len(algebra.components) != 1:
        raise PreconditionFailed("random pattern placement expects a single component")
    pieces: list[Pattern] = []
    pos = 0
    for _ in range(copies):
        t = base_patterns[rng.randrange(len(base_patterns))]
        base: Coords | None = None
        lam = None
        for ls in relevant:
            mod = ls.modulus
            bad = ls.differences(_points(ls, t))
            good = [delta for delta in mod.residues() if delta not in bad]
            if not good:
                raise PreconditionFailed(f"base pattern {t} is not admissible at {ls.prime}")
            pick = good[rng.randrange(len(good))]
            if base is None:
                base, lam = pick, mod.hnf
            else:
                res = crt_pair(base, lam, pick, mod.hnf)
                if res is None:
                    raise VerificationFailed(f"no common class: {mod} is not coprime to the earlier moduli")
                base, lam = res
        if base is None:
            shift = algebra.from_int(pos)
        else:
            # push the CRT representative past the previous piece along the
            # first coordinate; steps of the combined modulus keep all the
            # per-prime class choices intact
            step = lam[0][0]
            shift = algebra.embed(0, base) + algebra.from_int((pos // step + 1) * step)
        pieces.append(t.translate(shift))
        pos = max(abs(v) for e in pieces[-1].elements for v in e.flat()) + spread
    out = pieces[0]
    for p in pieces[1:]:
        out = out.union(p)
    check = is_admissible(sieve, out)
    if not check.admissible:
        raise VerificationFailed(f"CRT placement produced a pattern that is not admissible at {check.violation}")
    return out


# ---------------------------------------------------------------------------
# intertwiner verification


@dataclass
class IntertwinerReport:
    trials: int
    equivariance_failures: list[tuple[Pattern, AlgebraicInt]] = field(default_factory=list)
    admissibility_failures: list[Pattern] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.equivariance_failures and not self.admissibility_failures


def verify_intertwiner(
    code: WindowCode,
    source_sieve: SieveSpec,
    target_sieve: SieveSpec,
    trials: int = 100,
    seed: int = 0,
) -> IntertwinerReport:
    """Randomized check that the code maps the source space into the target.

    Each trial builds a random admissible pattern, tests the equivariance
    identity f(g + X) = A(g) + f(X) on matching regions, and tests that the
    image patch is admissible for the target sieve.
    """
    if trials < 1:
        raise PreconditionFailed(f"trials must be >= 1, got {trials}")
    rng = random.Random(seed)
    report = IntertwinerReport(trials)
    algebra = code.source
    for _ in range(trials):
        x_set = random_admissible(source_sieve, rng, code.patterns, copies=rng.randrange(2, 4))
        image = apply_block_code(code, x_set, complete=True)
        g = algebra.from_int(rng.randrange(-20, 21))
        shifted = apply_block_code(code, x_set.translate(g), complete=True)
        expected = image.translate(code.linmap.apply(g))
        if shifted.elements != expected.elements:
            report.equivariance_failures.append((x_set, g))
        if not is_admissible(target_sieve, image).admissible:
            report.admissibility_failures.append(x_set)
    return report


# ---------------------------------------------------------------------------
# derived local sets and translate tests


def derived_local_set(
    sieve: SieveSpec, prime: PrimeIdeal, patterns: Sequence[Pattern]
) -> LocalSet:
    """Intersection over the family of -T + R_p (the differences c - x), as residue classes."""
    if not patterns:
        raise PreconditionFailed("derived_local_set needs at least one pattern")
    ls = local_set(sieve, prime)
    common = set.intersection(*(ls.differences(_points(ls, t)) for t in patterns))
    return LocalSet(ls.modulus, tuple(sorted(common)))


def translate_between(candidate: LocalSet, base: LocalSet) -> Coords | None:
    """delta with candidate = delta + base, or None."""
    if candidate.modulus.hnf != base.modulus.hnf:
        raise PreconditionFailed("local sets live modulo different lattices")
    if len(candidate.classes) != len(base.classes):
        return None
    return subset_of_translate(candidate, base)


def subset_of_translate(candidate: LocalSet, base: LocalSet) -> Coords | None:
    """The lex-first residue delta with candidate contained in delta + base, or None.

    delta + base contains c iff delta is one of the c - b, b in base, so the
    deltas that work are the intersection over c of those sets.
    """
    if candidate.modulus.hnf != base.modulus.hnf:
        raise PreconditionFailed("local sets live modulo different lattices")
    mod = base.modulus
    if not candidate.classes:
        return mod.reduce_coords(mod.prime.spec.zero())
    common = set.intersection(*(LocalSet(mod, (c,)).differences(base.classes) for c in candidate.classes))
    return min(common, default=None)


# ---------------------------------------------------------------------------
# conjugacy


# unit classes tried per target component when only a unit's class modulo its
# exception primes matters (a tail with one class on the component)
_UNIT_CLASS_BUDGET = 4096


@dataclass
class ConjugacyResult:
    status: str  # 'witness' | 'provably_not'
    reason: str = ""
    tau: AlgebraHom | None = None
    epsilon: AlgebraicInt | None = None
    deltas: dict = field(default_factory=dict)  # exception prime -> translate
    tail_translate: AlgebraicInt | None = None  # D = tail_translate + eps*tau(C) for the tail labels


def _prime_image(tau: AlgebraHom, prime: PrimeIdeal) -> PrimeIdeal:
    """The prime of the target algebra above p containing tau(prime), for an isomorphism tau."""
    j = next(j for j, (i, _) in enumerate(tau.assignments) if i == prime.component)
    gens = [prime.algebra.embed(prime.component, row) for row in ideal_power(prime, 1).hnf]
    for q in split_prime(tau.target, prime.p):
        if q.component == j and all(ideal_power(q, 1).contains(tau.apply(g)) for g in gens):
            return q
    raise VerificationFailed(f"no prime of component {j} above {prime.p} contains the image of {prime}")


def _image_local_set(
    ls: LocalSet, tau: AlgebraHom, eps: AlgebraicInt, image_prime: PrimeIdeal
) -> LocalSet:
    mod = ideal_power(image_prime, ls.modulus.k)
    out = set()
    for c in ls.classes:
        x = tau.source.embed(ls.modulus.component, c)
        out.add(mod.reduce_coords((eps * tau.apply(x)).coords[image_prime.component]))
    return LocalSet(mod, tuple(sorted(out)))


def _tail_translate(eps: AlgebraicInt, c_j: list[AlgebraicInt], d_j: set[AlgebraicInt]) -> AlgebraicInt | None:
    """delta with d_j = delta + eps*c_j exactly; only delta = min(d_j) - eps*c can work."""
    d0 = min(d_j, key=AlgebraicInt.flat)
    return next((t for t in (d0 - eps * c for c in c_j) if {t + eps * x for x in c_j} == d_j), None)


def _unit_candidates(L: EtaleAlgebra, j: int, c_j: list[AlgebraicInt], d_j: set[AlgebraicInt], moduli) -> Iterator[AlgebraicInt]:
    """Units of component j (embedded in L), 1 first, among them every eps that can pass.

    With two or more classes, eps*(c1 - c0) is a difference of d_j.  With
    one, eps matters only modulo the moduli: torsion times powers of the
    fundamental unit, until a power is 1 modulo all of them.
    """
    spec = L.components[j]
    one = L.embed(j, spec.one())
    yield one
    if len(c_j) > 1:
        step = (c_j[1] - c_j[0]).coords[j]
        adj = spec.conj(step)  # (d - e)/step = (d - e)*adj/n
        n = spec.mul(step, adj)[0]
        for d, e in itertools.permutations(sorted(d_j, key=AlgebraicInt.flat), 2):
            num = spec.mul((d - e).coords[j], adj)
            if all(v % n == 0 for v in num) and abs(spec.norm(u := tuple(v // n for v in num))) == 1:
                yield L.embed(j, u)
    elif moduli:
        real = spec.d is not None and spec.d > 0
        torsion = [L.embed(j, u) for u in _roots_of_unity(spec)]
        eta, power = (L.embed(j, fundamental_unit(spec)) if real else one), one
        for tried in itertools.count(len(torsion), len(torsion)):
            if tried > _UNIT_CLASS_BUDGET:
                raise BudgetExceeded(f"more than {_UNIT_CLASS_BUDGET} unit classes of {spec} modulo its exception primes")
            yield from (z * power for z in torsion)
            power = power * eta
            if all(m.contains(power - one) for m in moduli):
                return


def _component_witness(tau: AlgebraHom, j: int, c_j, d_j, checks) -> tuple | None:
    """(eps, tail translate, exception-prime translates) on target component j, or None."""
    for eps in _unit_candidates(tau.target, j, c_j, d_j, [s_ls.modulus for *_, s_ls in checks]):
        tail = _tail_translate(eps, c_j, d_j)
        if tail is None:
            continue
        deltas = {}
        for prime, img_prime, r_ls, s_ls in checks:
            deltas[prime] = translate_between(s_ls, _image_local_set(r_ls, tau, eps, img_prime))
            if deltas[prime] is None:
                break
        else:
            return eps, tail, deltas
    return None


def conjugacy_search(r_sieve: SieveSpec, s_sieve: SieveSpec, *, unit_height: int | None = None) -> ConjugacyResult:
    """Decide whether the shift spaces of two sieves are topologically conjugate.

    A conjugacy is a ring isomorphism tau times a unit eps, with S at tau(p)
    a translate of eps*tau(R_p) at every prime p.  Per target component,
    every tail prime passes iff the label projections satisfy
    D = delta + eps*tau(C) exactly, the exception primes are compared
    exactly, and the units that can pass are finitely many.  So no witness
    is a proof.  A tau under which some component's class counts differ is
    skipped.  `unit_height` is accepted and ignored: no unit needs a height bound.
    """
    if not (r_sieve.non_large and r_sieve.cofinite and s_sieve.non_large and s_sieve.cofinite):
        raise PreconditionFailed("conjugacy criterion requires non-large cofinite sieves")
    K, L = r_sieve.algebra, s_sieve.algebra
    isos = algebra_isomorphisms(K, L)
    if not isos:
        return ConjugacyResult("provably_not", "no algebra isomorphism between the rings")
    rt, st = r_sieve.tail, s_sieve.tail
    if rt.exponent != st.exponent:
        return ConjugacyResult(
            "provably_not",
            f"tail modulus norms differ: exponents {rt.exponent} vs {st.exponent}",
        )
    reason = "tail class counts differ on a component under every algebra isomorphism"
    for tau in isos:
        tails = [
            (
                sorted({tau(K.embed(i, _label_element(K, c).coords[i])) for c in rt.labels}, key=AlgebraicInt.flat),
                {L.embed(j, _label_element(L, d).coords[j]) for d in st.labels},
            )
            for j, (i, _) in enumerate(tau.assignments)
        ]
        if any(len(c_j) != len(d_j) for c_j, d_j in tails):
            continue
        reason = "no unit passes the exact tail test and every exception prime"
        primes = [ls.prime for ls in r_sieve.exceptions]
        for ls in s_sieve.exceptions:
            # pull back exception primes of S along tau
            primes.extend(p for p in split_prime(K, ls.prime.p) if _prime_image(tau, p) == ls.prime)
        checks: dict[int, list] = {}  # target component -> (p, tau(p), R_p, S_tau(p)) at one exponent
        for prime in dict.fromkeys(primes):
            img_prime = _prime_image(tau, prime)
            r_ls, s_ls = local_set(r_sieve, prime), local_set(s_sieve, img_prime)
            kk = max(r_ls.modulus.k, s_ls.modulus.k)
            checks.setdefault(img_prime.component, []).append((prime, img_prime, r_ls.refine(kk), s_ls.refine(kk)))
        found = []
        for j, (c_j, d_j) in enumerate(tails):
            found.append(_component_witness(tau, j, c_j, d_j, checks.get(j, [])))
            if found[-1] is None:
                break
        else:
            # each component's eps and tail translate are zero off that component
            eps, tail = (sum((part[n] for part in found), L.zero) for n in (0, 1))
            deltas = {p: delta for *_, part in found for p, delta in part.items()}
            return ConjugacyResult("witness", "exact tail translate and exception-prime translates", tau, eps, deltas, tail)
    return ConjugacyResult("provably_not", reason)


# ---------------------------------------------------------------------------
# symmetry scan


@dataclass(frozen=True)
class SymmetryCandidate:
    code: WindowCode
    translation_by: int | None  # set when the code acts as a translation

    def describe(self) -> str:
        if self.translation_by is not None:
            return f"translation by {self.translation_by}"
        pats = ";".join(
            "{" + ",".join(str(v) for v in sorted(t.ints())) + "}" for t in self.code.patterns
        )
        return f"code[{pats}]"


def symmetry_scan(
    sieve: SieveSpec, radius: int, budget: int = 4096
) -> list[SymmetryCandidate]:
    """Enumerate block-code symmetry candidates with window [-W, W] over Q.

    Families of non-empty admissible patterns are filtered by the necessary
    conditions for invertible codes (a singleton pattern, the derived-set
    translate condition at small primes) and then probed for patch-level
    injectivity and surjectivity on a finite box.  Survivors are returned;
    translations are recognized and labelled.
    """
    algebra = sieve.algebra
    if len(algebra.components) != 1 or not algebra.components[0].is_rational:
        raise PreconditionFailed("symmetry scan runs over the rationals")
    if radius < 0:
        raise PreconditionFailed(f"window radius must be >= 0, got {radius}")
    window = int_pattern(range(-radius, radius + 1))
    subsets = _admissible_patterns(sieve, range(-radius, radius + 1), 1)
    if 2 ** len(subsets) > budget * 32:
        raise BudgetExceeded(f"2^{len(subsets)} families exceed the scan budget")

    # probe data: admissible patches on a box two steps wider than the window
    probe_sets = _admissible_patterns(sieve, range(-radius - 2, radius + 3), 0)
    core_vals = list(range(-radius - 1, radius + 2))
    core_keys = {algebra.from_int(v).flat() for v in core_vals}
    admissible_core = set()
    for pat in probe_sets:
        sub = frozenset(e.flat() for e in pat.elements if e.flat() in core_keys)
        admissible_core.add(sub)

    # the primes that can reject a window pattern, plus one identifying prime
    check_primes = [ls.prime for ls in list(sieve.exceptions) + _tail_local_sets(sieve, len(window))]
    if sieve.tail.kind == "classes":
        k = sieve.tail.exponent
        check_primes.append(
            next(
                q
                for q in prime_ideals(algebra)
                if q.norm**k > 2 * radius + 1 and sieve.exception_at(q) is None
            )
        )

    survivors: list[SymmetryCandidate] = []
    n_checked = 0
    for r in range(1, len(subsets) + 1):
        if n_checked > budget * 64:
            raise BudgetExceeded("family enumeration exceeded the scan budget")
        for family in itertools.combinations(subsets, r):
            n_checked += 1
            if not any(len(t) == 1 for t in family):
                continue
            code = WindowCode(ZLinearMap.identity(algebra), window, tuple(family))
            ok = True
            for prime in check_primes:
                derived = derived_local_set(sieve, prime, family)
                cand = local_set(sieve, prime)
                if subset_of_translate(cand, derived) is None:
                    ok = False
                    break
            if not ok:
                continue
            if not _passes_probe(code, sieve, probe_sets, core_keys, admissible_core):
                continue
            survivors.append(SymmetryCandidate(code, _translation_value(code, probe_sets)))
    return survivors


def _admissible_patterns(sieve: SieveSpec, values: range, smallest: int) -> list[Pattern]:
    """The admissible patterns of at least `smallest` of the values, by size, then lex."""
    combos = (c for size in range(smallest, len(values) + 1) for c in itertools.combinations(values, size))
    return [pat for pat in map(int_pattern, combos) if is_admissible(sieve, pat).admissible]


def _passes_probe(code, sieve, probe_sets, core_keys, admissible_core) -> bool:
    images = {}
    realized = set()
    for pat in probe_sets:
        img = apply_block_code(code, pat, complete=True)
        key = frozenset(e.flat() for e in img.elements)
        prev = images.get(key)
        if prev is not None and prev != frozenset(e.flat() for e in pat.elements):
            return False  # patch-level injectivity fails
        images[key] = frozenset(e.flat() for e in pat.elements)
        if not is_admissible(sieve, img).admissible:
            return False
        realized.add(frozenset(f for f in key if f in core_keys))
    return admissible_core <= realized


def _translation_value(code: WindowCode, probe_sets) -> int | None:
    algebra = code.source
    for t in range(-len(code.window), len(code.window) + 1):
        g = algebra.from_int(t)
        if all(
            apply_block_code(code, pat, complete=True).elements == pat.translate(g).elements
            for pat in probe_sets[: min(len(probe_sets), 40)]
        ):
            return t
    return None


# ---------------------------------------------------------------------------
# orbit closure approximation


def orbit_approximation(
    algebra: EtaleAlgebra,
    k: int,
    x_set: Pattern,
    window: Pattern,
    bound: int = 200_000,
) -> AlgebraicInt:
    """A shift Delta with (-Delta + V_{K,k}) agreeing with the pattern on the window.

    Builds the auxiliary sieve forbidding -X' + p^k (X' the pattern inside
    the window), adds one congruence per excluded window point at a fresh
    prime, and delegates to the strong-approximation solver; Delta = 0 is
    excluded from the scan.  A negative bound raises PreconditionFailed.
    """
    if k < 2:
        raise PreconditionFailed("orbit approximation requires k >= 2")
    _check_bound(bound)
    sieve = kfree_sieve(algebra, k)
    x_in_window = x_set.intersect(window)
    adm = is_admissible(sieve, x_in_window)
    if not adm.admissible:
        raise PreconditionFailed(f"pattern is not admissible at {adm.violation}")
    excluded = [e for e in window.elements if e not in x_in_window]

    labels: tuple = tuple(sorted((-e).flat() for e in x_in_window.elements))
    if labels:
        aux = build_sieve(algebra, TailRule.shifted_kfree(k, labels))
    else:
        aux = build_sieve(algebra, TailRule.empty())

    constraints = []
    used: list[PrimeIdeal] = []
    for y in excluded:
        found = next(
            q
            for q in prime_ideals(algebra)
            if q not in used and not any(ideal_power(q, k).contains(y - x) for x in x_in_window.elements)
        )
        used.append(found)
        constraints.append(
            CongruenceConstraint(found, k, reduce_mod(-y, ideal_power(found, k)))
        )

    modulus = 1
    for prime in used:
        modulus *= prime.norm**k
    delta = solve(aux, constraints, bound=max(bound, 4 * modulus + 100), exclude_zero=True)
    for m in window.elements:
        want = m in x_in_window
        got = membership(sieve, m + delta).member
        if want != got:
            raise VerificationFailed(f"orbit witness {delta} fails re-verification at window point {m}")
    return delta


# ---------------------------------------------------------------------------
# pattern and code files


def parse_pattern_file(text: str, algebra: EtaleAlgebra) -> Pattern:
    """Comma-separated element literals; `#` comments allowed.

    A literal that does not parse raises FormatError with the 1-based
    number of the line it starts on.
    """
    body = "\n".join(line.split("#", 1)[0].strip() for line in text.splitlines())
    elements = []
    pos = 0
    for token in body.split(","):
        literal = token.strip()
        if literal:
            try:
                elements.append(parse_element(literal.replace("\n", " "), algebra))
            except (ValueError, RingsieveError) as e:
                line = body.count("\n", 0, pos + token.index(literal)) + 1
                raise FormatError(str(e), line) from e
        pos += len(token) + 1
    return Pattern.of(algebra, elements)


def format_pattern(pattern: Pattern) -> str:
    return ",".join(str(e) for e in pattern.elements)


def parse_code_file(text: str) -> WindowCode:
    """Block-code format: `source`, `target`, `matrix`, `window`, `pattern` lines.

    A malformed line raises FormatError with its 1-based number; a missing
    line is reported at the last line.
    """
    from .rings import parse_algebra

    source = target = None
    matrix_vals: list[int] | None = None
    matrix_line = 0
    window_txt: tuple[int, str] | None = None
    pattern_txts: list[tuple[int, str]] = []
    lines = text.splitlines()
    last = max(1, len(lines))
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        try:
            if head == "source":
                source = parse_algebra(rest)
            elif head == "target":
                target = parse_algebra(rest)
            elif head == "matrix":
                matrix_vals = [int(v) for v in rest.split(",")]
                matrix_line = lineno
            elif head == "window":
                window_txt = (lineno, rest)
            elif head == "pattern":
                pattern_txts.append((lineno, rest))
            else:
                raise ValueError(f"unknown directive {head!r}")
        except (ValueError, RingsieveError) as e:
            raise FormatError(str(e), lineno) from e
    if source is None:
        raise FormatError("code file needs a `source` line", last)
    target = target or source
    if window_txt is None or not pattern_txts:
        raise FormatError("code file needs `window` and `pattern` lines", last)

    def pattern_at(lineno: int, txt: str) -> Pattern:
        try:
            return parse_pattern_file(txt, source)
        except FormatError as e:
            raise FormatError(e.message, lineno) from e

    window = pattern_at(*window_txt)
    pats = tuple(pattern_at(*t) for t in pattern_txts)
    if matrix_vals is None:
        lin = ZLinearMap.identity(source)
    else:
        n, m = source.degree, target.degree
        if len(matrix_vals) != n * m:
            raise FormatError("matrix length does not match degrees", matrix_line)
        lin = ZLinearMap(
            source, target, tuple(tuple(matrix_vals[i * n : (i + 1) * n]) for i in range(m))
        )
    return WindowCode(lin, window, pats)


def format_code(code: WindowCode) -> str:
    from .rings import format_algebra

    lines = [
        f"source {format_algebra(code.source)}",
        f"target {format_algebra(code.target)}",
        "matrix " + ",".join(str(v) for row in code.linmap.matrix for v in row),
        "window " + format_pattern(code.window),
    ]
    for t in code.patterns:
        lines.append("pattern " + format_pattern(t))
    return "\n".join(lines) + "\n"
