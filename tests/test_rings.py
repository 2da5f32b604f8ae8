import itertools
import math
import random
import sys
import threading
from collections import defaultdict
from contextlib import contextmanager

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import factorint, isprime, primerange
from sympy.ntheory import sqrt_mod as sympy_sqrt_mod

from ringsieve import (
    QQ,
    algebra_homs,
    algebra_isomorphisms,
    fundamental_unit,
    ideal_power,
    make_algebra,
    parse_algebra,
    parse_element,
    reduce_mod,
    split_prime,
    units_up_to,
)
from ringsieve import primes, rings
from ringsieve.entropy import zeta_K
from ringsieve.errors import ComponentMismatch, InvalidDiscriminant, PreconditionFailed
from ringsieve.primes import is_prime, primes_upto
from ringsieve.rings import _is_squarefree, format_algebra, format_element, norms_upto, valuation
from ringsieve.sieve import LocalSet, TailRule, build_sieve, density_interval, kfree_sieve

TEST_FIELDS = [2, 3, 5, 13, -1, -3, -5, 17]


def test_make_algebra_basics():
    k13 = make_algebra([13])
    assert k13.degree == 2
    assert k13.components[0].omega_poly == (1, 3)  # w = (1+sqrt13)/2
    mixed = make_algebra([None, 2])
    assert mixed.degree == 3


@pytest.mark.parametrize("bad", [12, 0, 1, 8, -4, 50])
def test_make_algebra_rejects_non_squarefree(bad):
    with pytest.raises(InvalidDiscriminant):
        make_algebra([bad])


def test_split_prime_examples(k13):
    ps = split_prime(k13, 3)
    assert len(ps) == 2 and all(p.kind == "split" and p.norm == 3 for p in ps)
    (p2,) = split_prime(k13, 2)
    assert p2.kind == "inert" and p2.norm == 4
    (p5,) = split_prime(k13, 5)
    assert p5.kind == "inert" and p5.norm == 25
    (p7,) = split_prime(QQ, 7)
    assert p7.kind == "rational" and p7.norm == 7


def test_splitting_completeness_up_to_1000():
    fields = [make_algebra([d]) for d in TEST_FIELDS]
    for p in primes_upto(1000):
        for K in fields:
            primes = split_prime(K, p)
            spec = K.components[0]
            assert sum(q.e * q.f for q in primes) == 2
            ramified = [q for q in primes if q.kind == "ramified"]
            assert bool(ramified) == (spec.disc % p == 0)
            for q in primes:
                if q.root is not None:
                    s, t = spec.omega_poly
                    assert (q.root * q.root - s * q.root - t) % p == 0


@contextmanager
def fresh_tables():
    """Run with an empty prime table and no norm tables, restoring both after."""
    saved = primes._sieved, rings._NORM_TABLES
    primes._sieved = (1, ())
    rings._NORM_TABLES = defaultdict(rings._NormTable)
    try:
        yield
    finally:
        primes._sieved, rings._NORM_TABLES = saved


def table_rows(K, n):
    """The rows (p, component, Nm(q)) of the table's columns, as Python ints."""
    return list(zip(*norms_upto(K, n).tolist()))


def split_rows(K, n):
    return [(q.p, q.component, q.norm) for p in primes_upto(n) for q in split_prime(K, p)]


def test_prime_norms_match_split_prime():
    # the table reads each odd p not dividing the discriminant from its class mod |disc|;
    # the components of Q(sqrt 5) x Q(sqrt -7) give class 2 different kinds, so they need a lookup each
    ds = [d for d in range(-50, 51) if d != 1 and _is_squarefree(d)]
    products = [make_algebra(spec) for spec in ([None, 2], [-1, 5], [5, -7])]
    algebras = [QQ, *products] + [make_algebra([d]) for d in ds]
    with fresh_tables():
        for K in algebras:
            assert table_rows(K, 500) == split_rows(K, 500)


@pytest.mark.parametrize("d,kind", [(17, "split"), (-7, "split"), (5, "inert"), (-3, "inert"), (13, "inert")])
def test_norm_table_at_two_for_odd_discriminants(d, kind):
    # 2 splits exactly when d = 1 mod 8; it shares class 2 mod |disc| with odd primes
    K = make_algebra([d])
    with fresh_tables():
        rows = table_rows(K, 200)
    assert [r for r in rows if r[0] == 2] == ([(2, 0, 2), (2, 0, 2)] if kind == "split" else [(2, 0, 4)])


@pytest.mark.parametrize("d", [2, 3, -1, 6, -5])
def test_norm_table_at_ramified_primes_of_even_discriminants(d):
    K = make_algebra([d])
    disc = K.components[0].disc
    assert disc == 4 * d
    with fresh_tables():
        rows = table_rows(K, 200)
    for p in primes_upto(abs(disc)):
        if disc % p == 0:
            assert [r for r in rows if r[0] == p] == [(p, 0, p)]


@pytest.mark.parametrize("order", ["ascending", "shuffled"])
def test_norm_table_grown_in_steps(order):
    # a class first met in a later extension must get its own representative
    bounds = [0, 2, 3, 50, 5000]
    if order == "shuffled":
        random.Random(7).shuffle(bounds)
    algebras = [make_algebra([d]) for d in (17, -7, 5, 2, 3, -5, 41)] + [make_algebra([-1, 5]), make_algebra([5, -7])]
    with fresh_tables():
        for n in bounds:
            for K in algebras:
                assert table_rows(K, n) == split_rows(K, n)


TABLE_ALGEBRAS = [QQ, *(make_algebra([d]) for d in (2, -1, 5, -3, 13)), make_algebra([None, 2])]


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(3, 5000), max_size=6).flatmap(lambda xs: st.permutations([0, 1, 2, *xs])))
def test_tables_match_sieve_and_split_prime(bounds):
    # the tables grow and are sliced in whatever order the bounds come
    with fresh_tables():
        for n in bounds:
            assert primes_upto(n) == tuple(primerange(n + 1))
            for K in TABLE_ALGEBRAS:
                expected = [(q.p, q.component, q.norm) for p in primes_upto(n) for q in split_prime(K, p)]
                assert table_rows(K, n) == expected


def test_tables_grow_safely_under_threads():
    # every thread asks for the same rising bounds at once, so they race to extend
    K = make_algebra([None, 2])
    bounds = list(range(50, 4000, 50))
    expected = {
        n: [(q.p, q.component, q.norm) for p in primerange(n + 1) for q in split_prime(K, p)] for n in bounds
    }
    start = threading.Barrier(8)
    wrong = []

    def work():
        start.wait()
        for n in bounds:
            if table_rows(K, n) != expected[n]:
                wrong.append(n)

    interval = sys.getswitchinterval()
    with fresh_tables():
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not wrong


def test_enclosures_independent_of_cutoff_order():
    K = make_algebra([None, 2])
    (p3,) = split_prime(K, 3)[1:]  # inert in Q(sqrt 2): an exception on the special-prime route
    sieves = [
        kfree_sieve(K, 2),
        build_sieve(K, TailRule.kfree(3), [LocalSet(ideal_power(p3, 1), ((0, 0), (0, 1)))]),
    ]
    cutoffs = [0, 1, 2, 3, 10, 99, 100, 1000, 2500, 5000]

    def enclosures(order):
        with fresh_tables():
            out = {}
            for c in order:
                out["zeta", c] = zeta_K(K, 2, c)
                for i, sv in enumerate(sieves):
                    out[i, c] = density_interval(sv, c)
            return {key: (iv.lo, iv.hi) for key, iv in out.items()}

    assert enclosures(cutoffs) == enclosures(cutoffs[::-1])


# the least strong pseudoprimes to the bases 2; 2, 3; 2, 3, 5; 2, 3, 5, 7; 2, ..., 23
# and 2, ..., 37 (psi_12, which base 41 catches)
STRONG_PSEUDOPRIMES = (2047, 1373653, 25326001, 3215031751, 3825123056546413051, 318665857834031151167461)


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.integers(-5, 10**4), st.integers(0, 2**40), st.integers(0, 2**78)))
def test_is_prime_matches_sympy(n):
    assert is_prime(n) == isprime(n)


def test_is_prime_rejects_strong_pseudoprimes():
    for n in STRONG_PSEUDOPRIMES:
        assert not is_prime(n)


def test_is_prime_refuses_psi13_and_above():
    # psi_13 passes all thirteen bases up to 41, so it and everything above are refused
    for n in (3317044064679887385961981, 3317044064679887385961981 + 2, 2**89 - 1):
        with pytest.raises(PreconditionFailed, match="only decided below"):
            is_prime(n)


def test_ideal_power_examples(k2):
    (p3,) = split_prime(QQ, 3)
    m = ideal_power(p3, 2)
    assert m.hnf == ((9,),) and m.norm == 9
    (p2,) = split_prime(k2, 2)
    m1 = ideal_power(p2, 1)
    assert m1.hnf == ((2, 0), (0, 1)) and m1.norm == 2
    m2 = ideal_power(p2, 2)
    assert m2.hnf == ((2, 0), (0, 2)) and m2.norm == 4


def test_ideal_power_membership_oracle(k2):
    # oracle: exact division by sqrt(2): (a + b*sqrt2)/sqrt2 = b + (a/2) sqrt2
    (p2,) = split_prime(k2, 2)
    m = ideal_power(p2, 1)
    for a in range(-6, 7):
        for b in range(-6, 7):
            divisible = a % 2 == 0
            assert m.contains(k2.element([(a, b)])) == divisible


def test_norm_multiplicativity():
    for d in TEST_FIELDS:
        K = make_algebra([d])
        for p in (2, 3, 5, 7, 11, 13):
            for prime in split_prime(K, p):
                for k in range(1, 7):
                    assert ideal_power(prime, k).norm == prime.norm**k


def test_ideal_power_matches_iterated_product():
    # independent route: p^k as the k-fold lattice product of p
    from ringsieve.lattices import lat_mul

    for d in (13, 2, -1, 5, 3):
        K = make_algebra([d])
        spec = K.components[0]
        for p in (2, 3, 5, 7, 11, 13):
            for prime in split_prime(K, p):
                base = ideal_power(prime, 1).hnf
                acc = base
                for k in range(2, 7):
                    acc = lat_mul(acc, base, spec.mul)
                    assert acc == ideal_power(prime, k).hnf, (d, p, k)


def test_reduce_mod_examples(k2):
    (p3,) = split_prime(QQ, 3)
    m = ideal_power(p3, 2)
    assert reduce_mod(QQ.from_int(10), m) == QQ.from_int(1)
    (p2,) = split_prime(k2, 2)
    m2 = ideal_power(p2, 2)
    x = k2.element([(5, 3)])
    assert reduce_mod(x, m2) == k2.element([(1, 1)])
    assert reduce_mod(QQ.from_int(0), m).is_zero()


def test_reduce_mod_idempotent_and_coset_constant():
    rng = random.Random(7)
    for d in (2, 13, -1):
        K = make_algebra([d])
        for p in (2, 3, 5, 13):
            for prime in split_prime(K, p):
                m = ideal_power(prime, rng.randrange(1, 4))
                for _ in range(20):
                    x = K.element([(rng.randrange(-99, 100), rng.randrange(-99, 100))])
                    r = reduce_mod(x, m)
                    assert reduce_mod(r, m) == r
                    row = rng.choice(m.hnf)
                    c = rng.randrange(-3, 4)
                    shift = K.element([tuple(c * v for v in row)])
                    assert reduce_mod(x + shift, m) == r


def test_algebra_homs_examples(k2, k3, k13, k5):
    assert len(algebra_homs(k13, k13)) == 2
    assert algebra_homs(k2, k3) == []
    assert len(algebra_homs(QQ, k5)) == 1
    qxq = make_algebra([None, None])
    assert len(algebra_homs(qxq, qxq)) == 4
    assert len(algebra_isomorphisms(qxq, qxq)) == 2
    assert algebra_isomorphisms(QQ, k2) == []


def test_hom_laws_on_random_pairs(k13):
    rng = random.Random(11)
    mixed = make_algebra([None, 13])
    for K in (k13, mixed):
        for tau in algebra_homs(K, K):
            for _ in range(100):
                x = K.from_flat([rng.randrange(-9, 10) for _ in range(K.degree)])
                y = K.from_flat([rng.randrange(-9, 10) for _ in range(K.degree)])
                assert tau.apply(x * y) == tau.apply(x) * tau.apply(y)
                assert tau.apply(x + y) == tau.apply(x) + tau.apply(y)
            assert tau.apply(K.one) == K.one


def test_hom_generator_satisfies_min_poly(k13):
    for tau in algebra_homs(k13, k13):
        w = k13.element([(0, 1)])
        img = tau.apply(w)
        s, t = k13.components[0].omega_poly
        assert img * img == img.scale(s) + k13.from_int(t)


def test_units_examples(k2, k5, k13, ki):
    assert [u.coords[0][0] for u in units_up_to(QQ, 3)] == [1, -1]
    u2 = units_up_to(k2, 2)
    assert k2.element([(1, 1)]) in u2  # 1 + sqrt2
    assert all(abs(u.norm()) == 1 for u in u2)
    assert fundamental_unit(k2.components[0]) == (1, 1)
    assert fundamental_unit(k13.components[0]) == (1, 1)  # (3+sqrt13)/2 = 1 + w
    assert fundamental_unit(k5.components[0]) == (0, 1)  # (1+sqrt5)/2 = w
    torsion = units_up_to(ki, 1)
    assert len(torsion) == 4  # 1, -1, i, -i
    km3 = make_algebra([-3])
    assert len(units_up_to(km3, 1)) == 6


def test_fundamental_units_match_classical_table():
    # frozen classical values, including the notoriously large d = 94 case
    table = {
        3: (2, 1),
        6: (5, 2),
        7: (8, 3),
        19: (170, 39),
        31: (1520, 273),
        94: (2143295, 221064),
    }
    for d, coords in table.items():
        spec = make_algebra([d]).components[0]
        assert fundamental_unit(spec) == coords
        assert abs(spec.norm(coords)) == 1


def test_pell_oracle_fundamental_unit(k2):
    # independent brute force: smallest a + b*sqrt2 > 1 with a^2 - 2 b^2 = +-1
    best = None
    for b in range(1, 50):
        for a in range(-50, 51):
            if abs(a * a - 2 * b * b) == 1 and a + b * math.sqrt(2) > 1:
                val = a + b * math.sqrt(2)
                if best is None or val < best[0]:
                    best = (val, (a, b))
    assert best[1] == fundamental_unit(k2.components[0])


def _scanned_fundamental_unit(spec, max_b):
    """Reference: scan the generator coefficient b upward; the first b with |norm| = 1 carries the unit.

    Returns None once b passes max_b.
    """
    s, t = spec.omega_poly
    d = spec.d

    def exceeds_one(a, b):
        # a + b*w > 1 with b > 0 reduces to b*sqrt(d) > rhs, squared exactly
        rhs = 2 - 2 * a - b if s == 1 else 1 - a
        return rhs <= 0 or b * b * d > rhs * rhs

    for b in range(1, max_b + 1):
        candidates = []
        for sign in (1, -1):
            disc = s * s * b * b + 4 * (t * b * b + sign)
            u = math.isqrt(max(disc, 0))
            if disc >= 0 and u * u == disc:
                for a in ((-s * b + u) // 2, (-s * b - u) // 2):
                    if spec.norm((a, b)) == sign and exceeds_one(a, b):
                        candidates.append((a, b))
        if candidates:
            return min(candidates)  # same b: the smaller first coordinate is the smaller unit
    return None


def test_fundamental_unit_matches_linear_scan():
    compared = 0
    for d in range(2, 400):
        if _is_squarefree(d):
            spec = make_algebra([d]).components[0]
            ref = _scanned_fundamental_unit(spec, 5000)
            if ref is not None:
                assert fundamental_unit(spec) == ref, d
                compared += 1
    assert compared == 182  # the other 60 squarefree d need b > 5000
    # the scan would need b = 140,634,693 here
    spec = make_algebra([151]).components[0]
    assert fundamental_unit(spec) == (1728148040, 140634693)
    assert spec.norm((1728148040, 140634693)) == 1


def test_fundamental_unit_generates_all(k2):
    # every unit of height <= H is +- a power of the fundamental unit
    H = 20
    eps = k2.element([fundamental_unit(k2.components[0])])
    produced = set()
    power = k2.one
    for _ in range(12):
        for sgn in (power, -power):
            produced.add(sgn.flat())
        power = power * eps
    # inverse powers: conj(eps) * eps = Nm(eps) = -1 => eps^-1 = -conj(eps)
    conj = k2.element([k2.components[0].conj(eps.coords[0])])
    inv = -conj
    power = inv
    for _ in range(12):
        for sgn in (power, -power):
            produced.add(sgn.flat())
        power = power * inv
    for u in units_up_to(k2, H):
        assert u.flat() in produced


def test_unit_returns_have_unit_norm():
    for d in (2, 5, 13, -1, -3):
        K = make_algebra([d])
        for u in units_up_to(K, 6):
            assert all(abs(v) == 1 for v in u.component_norms())


def test_units_match_box_scan():
    # reference: every (a, b) with max(|a|, |b|) <= H and |norm| = 1, in the order units_up_to promises
    H = 30
    for d in range(-50, 51):
        if d in (0, 1) or not _is_squarefree(d):
            continue
        K = make_algebra([d])
        spec = K.components[0]
        box = [(a, b) for b in range(-H, H + 1) for a in range(-H, H + 1) if abs(spec.norm((a, b))) == 1]
        box.sort(key=lambda u: (abs(u[1]), u[1] < 0, u[0]))
        for h in range(H + 1):
            got = [u.coords[0] for u in units_up_to(K, h)]
            assert got == [u for u in box if max(abs(u[0]), abs(u[1])) <= h], (d, h)
    # a product: earlier components vary slowest
    second = [(-1, 0), (1, 0), (-1, 1), (1, 1), (-1, -1), (1, -1)]
    assert [u.coords for u in units_up_to(make_algebra([None, 2]), 2)] == [(s, u) for s in ((1,), (-1,)) for u in second]


def test_valuation(k2):
    (p2,) = split_prime(k2, 2)
    sqrt2 = k2.element([(0, 1)])
    assert valuation(sqrt2, p2) == 1
    assert valuation(k2.from_int(2), p2) == 2
    assert valuation(k2.from_int(3), p2) == 0


def test_parse_format_roundtrip(k2):
    for text, alg in [("Q", QQ), ("Q(sqrt 13)", make_algebra([13])), ("Q x Q(sqrt 2)", make_algebra([None, 2]))]:
        assert parse_algebra(text) == alg
        assert parse_algebra(format_algebra(alg)) == alg
    for lit in ["5", "-3", "1+2*w", "1-2*w", "w", "-w", "3*w", "0"]:
        x = parse_element(lit, k2)
        assert parse_element(format_element(x), k2) == x
    mixed = make_algebra([None, 2])
    x = parse_element("7|1-1*w", mixed)
    assert x.coords == ((7,), (1, -1))


# (d, p) with p of the given kind in Q(sqrt d); None is Q
VALUATION_CASES = {
    "rational": [(None, 2), (None, 5)],
    "split": [(2, 7), (-1, 5), (-7, 2), (13, 3)],
    "inert": [(2, 3), (5, 2), (-1, 3), (-3, 5)],
    "ramified": [(2, 2), (-1, 2), (5, 5), (-3, 3), (3, 3)],
}


@pytest.mark.parametrize("kind", sorted(VALUATION_CASES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_valuation_matches_norm_factorization(kind, data):
    # sum over q | p of f_q * v_q(x) is the exponent of p in N(x)
    d, p = data.draw(st.sampled_from(VALUATION_CASES[kind]))
    K = make_algebra([d])
    scale = p ** data.draw(st.integers(0, 4))
    coords = data.draw(st.lists(st.integers(-300, 300), min_size=K.degree, max_size=K.degree).filter(any))
    x = K.element([[c * scale for c in coords]])
    above = split_prime(K, p)
    assert {q.kind for q in above} == {kind}
    assert sum(q.f * valuation(x, q) for q in above) == factorint(abs(x.norm())).get(p, 0)


SQUAREFREE_D = [d for d in range(-200, 201) if d != 1 and _is_squarefree(d)]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(SQUAREFREE_D), st.sampled_from(list(primerange(400))))
@example(17, 2)
@example(-7, 2)
@example(5, 2)
@example(2, 2)
@example(3, 2)
@example(-3, 3)
def test_split_prime_roots_match_sympy_sqrt_mod(d, p):
    # the roots of w's polynomial x^2 - s x - t mod p; for s = 1 and odd p, 4(x^2 - x - t) = (2x - 1)^2 - d
    K = make_algebra([d])
    s, t = K.components[0].omega_poly
    if s == 0:
        expected = sympy_sqrt_mod(d, p, all_roots=True)
    elif p != 2:
        expected = [(1 + r) * (p + 1) // 2 % p for r in sympy_sqrt_mod(d, p, all_roots=True)]
    else:
        expected = [0, 1] if t % 2 == 0 else []  # x^2 - x vanishes on all of F_2
    above = split_prime(K, p)
    assert sorted(q.root for q in above if q.root is not None) == sorted(expected)
    assert len(expected) == {"split": 2, "ramified": 1, "inert": 0}[above[0].kind]


# ---------------------------------------------------------------------------
# the prime-ideal walk and the component embedding


def old_prime_walk(K, upto):
    """The walk prime_ideals replaced: split_prime over primes_upto."""
    return [q for p in primes_upto(upto) for q in split_prime(K, p)]


PRIME_WALK_ALGEBRAS = [[None], [2], [-1], [5], [-3], [13], [-7], [17], [None, 2]]


@pytest.mark.parametrize("spec", PRIME_WALK_ALGEBRAS, ids=str)
def test_prime_ideals_match_split_prime_walk(spec):
    K = make_algebra(spec)
    for upto in (0, 1, 2, 3, 4, 63, 64, 65, 127, 128, 129, 500):
        assert list(rings.prime_ideals(K, upto)) == old_prime_walk(K, upto)
    # unbounded: 400 steps reach past p = 256, so the walk grows through two stretches
    walk = list(itertools.islice(rings.prime_ideals(K), 400))
    assert walk[-1].p > 256
    assert walk == old_prime_walk(K, walk[-1].p)[:400]


def test_embed_and_lattice_rows_on_a_product():
    K = make_algebra([None, 2])
    assert K.embed(1, (3, -1)) == K.element([[0], [3, -1]])
    assert K.embed(0, (5,)) == K.element([[5], [0, 0]])
    assert [b.flat() for b in K.basis()] == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    q = split_prime(K, 2)[1]  # the ramified prime of Q(sqrt 2)
    h = ideal_power(q, 3).hnf
    assert K.lattice_rows([None, h]) == [(1, 0, 0), (0, *h[0]), (0, *h[1])]
    assert K.lattice_rows([((7,),), None]) == [(7, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert K.lattice_rows([((7,),), h]) == [(7, 0, 0), (0, *h[0]), (0, *h[1])]
    with pytest.raises(ComponentMismatch):
        K.lattice_rows([None])
