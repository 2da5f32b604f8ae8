import itertools
import random
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ringsieve import QQ, algebra_homs, linmaps, make_algebra, split_prime, units_up_to
from ringsieve.errors import NoWitness, PreconditionFailed, VerificationFailed
from ringsieve.linmaps import (
    MonomialDecomposition,
    ZLinearMap,
    _check_local_condition_kfree,
    _det,
    check_local_condition,
    check_unit_preservation,
    cover_witness,
    decompose_monomial,
    induced_mod,
    is_monomial_matrix,
    preserver_scan,
    scan_primes,
)
from ringsieve.sieve import kfree_sieve, local_set

QXQ = make_algebra([None, None])
QXQ17 = make_algebra([None, 17])


def test_induced_mod_examples(k2):
    shear = ZLinearMap(k2, k2, ((1, 1), (0, 1)))
    assert induced_mod(shear, 7, 1).bijective
    stretch = ZLinearMap(k2, k2, ((2, 0), (0, 1)))
    assert not induced_mod(stretch, 2, 1).bijective


def test_check_local_condition_examples(k3, ki):
    sq_q = kfree_sieve(QQ, 2)
    ident = ZLinearMap.identity(QQ)
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        assert check_local_condition(ident, sq_q, sq_q, p).ok
    incl = ZLinearMap(QQ, k3, ((1,), (0,)))
    sq3 = kfree_sieve(k3, 2)
    res = check_local_condition(incl, sq_q, sq3, 3)
    assert not res.ok and res.counterexample.coords[0][0] == 3
    swap = ZLinearMap(ki, ki, ((0, 1), (1, 0)))
    sqi = kfree_sieve(ki, 2)
    for p in (2, 5):
        assert check_local_condition(swap, sqi, sqi, p).ok


def test_scan_primes_inclusion(k3):
    # 2 ramifies in the target, so the scan already fails at p = 2;
    # the class 3 mod 9 fails at p = 3 as well (checked above).
    incl = ZLinearMap(QQ, k3, ((1,), (0,)))
    res = scan_primes(incl, kfree_sieve(QQ, 2), kfree_sieve(k3, 2), 10)
    assert res is not None and res.p == 2
    res3 = check_local_condition(incl, kfree_sieve(QQ, 2), kfree_sieve(k3, 2), 3)
    assert not res3.ok


def test_scan_primes_rejects_negative_cutoff():
    sq_q = kfree_sieve(QQ, 2)
    for cutoff in (-1, -5):
        with pytest.raises(PreconditionFailed, match="cutoff"):
            scan_primes(ZLinearMap.identity(QQ), sq_q, sq_q, cutoff)
    assert scan_primes(ZLinearMap.identity(QQ), sq_q, sq_q, 0) is None


def test_scan_primes_identity_and_shear(k2):
    sq_q = kfree_sieve(QQ, 2)
    assert scan_primes(ZLinearMap.identity(QQ), sq_q, sq_q, 50) is None
    sq2 = kfree_sieve(k2, 2)
    shear = ZLinearMap(k2, k2, ((1, 1), (0, 1)))
    res = scan_primes(shear, sq2, sq2, 50)
    assert res is not None and res.p <= 50


def test_fast_path_agrees_with_generic(k2, ki):
    rng = random.Random(5)
    sq2 = kfree_sieve(k2, 2)
    for _ in range(25):
        mat = tuple(tuple(rng.randrange(-2, 3) for _ in range(2)) for _ in range(2))
        a = ZLinearMap(k2, k2, mat)
        for p in (2, 3, 5, 7):
            fast = _check_local_condition_kfree(a, sq2, sq2, p)
            slow = check_local_condition(a, sq2, sq2, p)
            assert fast.ok == slow.ok, (mat, p)


_QUADRATIC = (2, -1, 5, -3, 13)
# Q x Q(sqrt d); 2 splits in Q(sqrt 17), so three primes lie above 2 there
_CUBIC = (2, -1, 17, 5, -7)


@st.composite
def _kfree_maps(draw):
    """Nonsingular square maps over Q(sqrt d), Q x Q, Q x Q(sqrt d) and Q x Q x Q,
    and nonzero maps Q -> Q(sqrt d) and Q(sqrt d) -> Q x Q(sqrt d)."""
    entry = st.integers(-3, 3)
    kind = draw(st.sampled_from(_QUADRATIC + ("QxQ", "Q->", "QxQ(d)", "QxQxQ", "->QxQ(d)")))
    if kind == "Q->":
        col = draw(st.tuples(entry, entry).filter(any))
        return ZLinearMap(QQ, make_algebra([draw(st.sampled_from(_QUADRATIC))]), ((col[0],), (col[1],)))
    if kind == "->QxQ(d)":
        d = draw(st.sampled_from(_CUBIC))
        e = draw(st.tuples(*[entry] * 6).filter(any))
        return ZLinearMap(make_algebra([d]), make_algebra([None, d]), (e[:2], e[2:4], e[4:]))
    if kind == "QxQ(d)":
        alg = make_algebra([None, draw(st.sampled_from(_CUBIC))])
    elif kind == "QxQxQ":
        alg = make_algebra([None, None, None])
    else:
        alg = QXQ if kind == "QxQ" else make_algebra([kind])
    n = alg.degree
    e = draw(st.tuples(*[entry] * (n * n)).map(lambda e: tuple(e[i : i + n] for i in range(0, n * n, n))).filter(_det))
    return ZLinearMap(alg, alg, e)


def _walk_every_residue(a, r_sieve, s_sieve, p):
    """The kernel-lattice route with its containment shortcut switched off."""
    with mock.patch.object(linmaps, "_inside_one", lambda *args: False):
        return _check_local_condition_kfree(a, r_sieve, s_sieve, p)


@settings(max_examples=150, deadline=None)
@given(_kfree_maps(), st.sampled_from(((2, 2), (2, 3), (3, 2))), st.sampled_from((2, 3, 5, 7, 11, 13)))
@example(ZLinearMap(QXQ, QXQ, ((-2, 0), (-2, -2))), (2, 2), 2)
@example(ZLinearMap(QXQ17, QXQ17, ((2, 0, 0), (-2, -2, 1), (1, -2, 0))), (2, 2), 2)
@example(ZLinearMap.identity(QXQ17), (2, 2), 2)
def test_kfree_shortcut_matches_full_walk_and_exhaustive(a, kl, p):
    # The shortcut may only skip target primes whose whole residue walk passes,
    # so (ok, p, x, y) equals the full walk's lex-first violation exactly.
    k, l = kl
    # degree-3 sources only where the full walk and the exhaustive check stay small
    assume(a.source.degree <= 2 or p ** (max(k, l) * a.source.degree) <= 20_000)
    r_sieve, s_sieve = kfree_sieve(a.source, k), kfree_sieve(a.target, l)
    if len(split_prime(a.source, p)) > p:
        # Three source primes above p = 2 (Q x Q x Q, Q x Q(sqrt 17)) may cover
        # P / p^m, so scan_primes enumerates; its cutoff p = 2 lets in no other prime.
        exhaustive = check_local_condition(a, r_sieve, s_sieve, p)
        assert scan_primes(a, r_sieve, s_sieve, p) == (None if exhaustive.ok else exhaustive)
        return
    res = _check_local_condition_kfree(a, r_sieve, s_sieve, p)
    assert res == _walk_every_residue(a, r_sieve, s_sieve, p)
    if not res.ok:
        x, y = res.counterexample, res.image
        assert y == a.apply(x)
        assert all(local_set(r_sieve, q).hits(x) is None for q in split_prime(a.source, p))
        assert any(local_set(s_sieve, q).hits(y) is not None for q in split_prime(a.target, p))
    # The exhaustive check reports its own lex-first class, so only ok is shared.
    if p ** (max(k, l) * a.source.degree) <= 20_000:
        assert check_local_condition(a, r_sieve, s_sieve, p).ok == res.ok


def test_kfree_shortcut_matches_full_walk_on_qxq_grid():
    # Q x Q has two coordinate primes above every p, the case where "each
    # generator lies in some p_i^k" and "all lie in one" part ways.
    for k, l in ((2, 2), (2, 3), (3, 2)):
        r_sieve, s_sieve = kfree_sieve(QXQ, k), kfree_sieve(QXQ, l)
        for e in itertools.product(range(-2, 3), repeat=4):
            if e[0] * e[3] != e[1] * e[2]:
                a = ZLinearMap(QXQ, QXQ, (e[:2], e[2:]))
                for p in (2, 3):
                    res = _check_local_condition_kfree(a, r_sieve, s_sieve, p)
                    assert res == _walk_every_residue(a, r_sieve, s_sieve, p), (e, k, l, p)


def test_kfree_shortcut_pinned_violation():
    # Each generator of A^{-1}((2)^2 x Z) lies in some p_i^2, but not all in one.
    sq = kfree_sieve(QXQ, 2)
    res = _check_local_condition_kfree(ZLinearMap(QXQ, QXQ, ((-2, 0), (-2, -2))), sq, sq, 2)
    assert (res.ok, res.p, res.counterexample.flat(), res.image.flat()) == (False, 2, (2, 1), (-4, -6))


def test_kernel_route_rechecks_its_witness():
    sq = kfree_sieve(QXQ, 2)
    a = ZLinearMap(QXQ, QXQ, ((-2, 0), (-2, -2)))
    # a containment test that says no to everything makes the walk report x = 0
    with mock.patch.object(linmaps, "lat_contains", lambda *args: False):
        with pytest.raises(VerificationFailed, match="forbidden class"):
            _check_local_condition_kfree(a, sq, sq, 2)
    # a preimage that is all of Z^2 makes the walk report an x whose image misses q^l
    with mock.patch.object(linmaps, "preimage_lattice", lambda *args: ((1, 0), (0, 1))):
        with pytest.raises(VerificationFailed, match="misses"):
            _check_local_condition_kfree(ZLinearMap.identity(QXQ), sq, sq, 2)


def test_routes_report_their_own_witness():
    # exhaustive: lex-first violating class of O_K/p^m; kernel route: first violating
    # preimage residue of the first failing target prime
    sq = kfree_sieve(QXQ, 2)
    a = ZLinearMap(QXQ, QXQ, ((-2, 0), (-2, -2)))
    exhaustive = check_local_condition(a, sq, sq, 2)
    scanned = scan_primes(a, sq, sq, 2)
    assert (exhaustive.ok, exhaustive.counterexample.flat(), exhaustive.image.flat()) == (False, (1, 1), (-2, -4))
    assert (scanned.p, scanned.counterexample.flat(), scanned.image.flat()) == (2, (2, 1), (-4, -6))


def test_decompose_monomial_examples(k2, ki):
    swap = ZLinearMap(ki, ki, ((0, 1), (1, 0)))
    d = decompose_monomial(swap)
    assert d is not None
    assert d.epsilon == ki.element([(0, 1)])  # i
    assert not d.tau.is_identity()  # conjugation
    ident = ZLinearMap.identity(k2)
    d2 = decompose_monomial(ident)
    assert d2.epsilon == k2.one and d2.tau.is_identity()
    qxq = make_algebra([None, None])
    assert decompose_monomial(ZLinearMap(qxq, qxq, ((1, 0), (1, 1)))) is None


def test_monomial_round_trip(k2, k3, k13, ki):
    cases = 0
    for K in (k2, k3, k13, ki):
        units = units_up_to(K, 3)
        homs = algebra_homs(K, K)
        for tau in homs:
            for eps in units:
                a = ZLinearMap.monomial(tau, eps)
                d = decompose_monomial(a)
                assert d is not None
                assert d.epsilon == eps
                assert d.tau.assignments == tau.assignments
                cases += 1
    assert cases >= 50


def test_monomial_maps_pass_scan(k2, ki):
    for K in (k2, ki):
        for k, cutoff in ((2, 100), (3, 20)):
            sieve = kfree_sieve(K, k)
            for tau in algebra_homs(K, K):
                for eps in units_up_to(K, 3):
                    a = ZLinearMap.monomial(tau, eps)
                    assert scan_primes(a, sieve, sieve, cutoff) is None


def test_preserver_scan_q3(k2):
    res = preserver_scan(3, 2, 2)
    assert res.invertible_count == 48
    assert len(res.preservers) == 8
    assert res.all_monomial()
    # exact equality with permutation x diagonal-unit matrices
    expected = set()
    for perm in itertools.permutations(range(2)):
        for du in itertools.product((1, 2), repeat=2):
            mat = tuple(
                tuple(du[i] if j == perm[i] else 0 for j in range(2)) for i in range(2)
            )
            expected.add(mat)
    assert set(res.matrices()) == expected


@pytest.mark.parametrize("q,n", [(5, 2), (3, 3)])
def test_preserver_scan_exact_monomial_sets(q, n):
    res = preserver_scan(q, n, n)
    expected = set()
    for perm in itertools.permutations(range(n)):
        for du in itertools.product(range(1, q), repeat=n):
            mat = tuple(
                tuple(du[i] if j == perm[i] else 0 for j in range(n)) for i in range(n)
            )
            expected.add(mat)
    assert set(res.matrices()) == expected
    assert res.all_monomial()


def test_preserver_scan_f2_has_non_monomial():
    res = preserver_scan(2, 3, 3)
    target = ((1, 0, 0), (0, 1, 0), (1, 1, 1))
    entries = dict(res.preservers)
    assert target in entries and entries[target] is False
    assert not is_monomial_matrix(target)


def test_preserver_scan_units():
    res = preserver_scan(3, 1, 1)
    assert [m[0][0] for m in res.matrices()] == [1, 2]


def test_budget_gates(k2):
    from ringsieve.errors import BudgetExceeded

    with pytest.raises(BudgetExceeded):
        preserver_scan(7, 3, 3)
    with pytest.raises(BudgetExceeded):
        check_local_condition(
            ZLinearMap.identity(k2), kfree_sieve(k2, 2), kfree_sieve(k2, 2), 53
        )


def test_cover_witness_examples():
    assert cover_witness(5, 1, (1, 1), (0, 0), [(0,), (0,)]) == 1
    assert cover_witness(5, 1, (1, 2), (3, 4), [(0,), (0, 1)]) == 0
    with pytest.raises(PreconditionFailed):
        cover_witness(3, 1, (1, 1), (0, 0), [(0, 1), (0, 2)])
    with pytest.raises(PreconditionFailed):
        cover_witness(5, 1, (5, 1), (0, 0), [(0,), (0,)])
    # precision 2: classes live modulo p^2
    t = cover_witness(3, 2, (1, 2), (0, 5), [(0, 3, 6), (1,)])
    assert (0 + t) % 9 not in (0, 3, 6) and (5 + 2 * t) % 9 != 1


def test_cover_witness_randomized_revalidation():
    rng = random.Random(21)
    from fractions import Fraction

    done = 0
    while done < 200:
        p = rng.choice([3, 5, 7])
        k = rng.choice([1, 2])
        q = p**k
        n = rng.choice([1, 2, 3])
        x = tuple(rng.choice([v for v in range(1, q) if v % p != 0]) for _ in range(n))
        a = tuple(rng.randrange(q) for _ in range(n))
        sets = []
        for _ in range(n):
            size = rng.randrange(0, max(1, q // (2 * n)))
            sets.append(tuple(rng.sample(range(q), size)))
        if sum(Fraction(len(s), q) for s in sets) >= 1:
            continue
        t = cover_witness(p, k, x, a, sets)
        for ai, xi, s in zip(a, x, sets):
            assert (ai + t * xi) % q not in s
        done += 1


def test_unit_preservation_examples(k2):
    mul = ZLinearMap.multiplication(k2.element([(1, 1)]))
    assert check_unit_preservation(mul, 20).ok
    shear = ZLinearMap(k2, k2, ((1, 1), (0, 1)))
    res = check_unit_preservation(shear, 5)
    assert not res.ok
    assert res.counterexample == k2.element([(-1, 1)])  # -1 + sqrt2
    assert res.image == k2.element([(0, 1)])  # sqrt2, norm -2
    assert check_unit_preservation(ZLinearMap.identity(QQ), 10).ok


def test_unit_preservation_monomials_totally_real(k2, k5, k13):
    for K in (k2, k5, k13):
        for tau in algebra_homs(K, K):
            for eps in units_up_to(K, 3):
                a = ZLinearMap.monomial(tau, eps)
                assert check_unit_preservation(a, 50).ok


def test_unit_preservation_requires_totally_real(ki):
    with pytest.raises(PreconditionFailed):
        check_unit_preservation(ZLinearMap.identity(ki), 5)
