import itertools
import random
import time
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringsieve import QQ, ideal_power, lattices, localglobal, make_algebra, reduce_mod, split_prime
from ringsieve.errors import (
    InvalidConstraint,
    NotFoundWithinBound,
    TailNotBoundable,
    VerificationFailed,
)
from ringsieve.localglobal import (
    CongruenceConstraint,
    check_local_surjectivity,
    solve,
)
from ringsieve.sieve import LocalSet, TailRule, build_sieve, kfree_sieve, local_set, membership


def q_prime(p):
    return split_prime(QQ, p)[0]


def con(prime, k, value, algebra=None):
    algebra = algebra or prime.algebra
    return CongruenceConstraint(prime, k, algebra.from_int(value))


def test_solve_examples(squarefree_q):
    y = solve(squarefree_q, [con(q_prime(2), 2, 3)])
    assert y.coords[0][0] == 3
    with pytest.raises(InvalidConstraint):
        solve(squarefree_q, [con(q_prime(2), 2, 0)])
    with pytest.raises(TailNotBoundable):
        solve(kfree_sieve(QQ, 1), [con(q_prime(5), 1, 2)])


def test_one_free_negative_control_by_enumeration():
    # V = {1, -1} contains nothing congruent to 2 mod 5
    from ringsieve.sieve import enumerate_V

    vals = [x.coords[0][0] for x in enumerate_V(kfree_sieve(QQ, 1), 1000)]
    assert vals == [-1, 1]
    assert not [v for v in vals if v % 5 == 2]


def test_solve_multi_constraint(squarefree_q):
    cons = [con(q_prime(2), 2, 3), con(q_prime(3), 2, 2)]
    y = solve(squarefree_q, cons)
    v = y.coords[0][0]
    assert v % 4 == 3 and v % 9 == 2
    assert membership(squarefree_q, y).member
    # re-verify via reduce_mod, independent of the scan
    for c in cons:
        mod = ideal_power(c.prime, c.k)
        assert reduce_mod(y, mod) == reduce_mod(c.target, mod)


def test_solve_determinism(squarefree_q):
    cons = [con(q_prime(5), 2, 7)]
    first = solve(squarefree_q, cons)
    for _ in range(3):
        assert solve(squarefree_q, cons) == first


def test_solve_quadratic(k13):
    sieve = kfree_sieve(k13, 2)
    p1, p2 = split_prime(k13, 3)
    target = k13.element([(1, 2)])
    c = CongruenceConstraint(p1, 2, target)
    y = solve(sieve, [c])
    mod = ideal_power(p1, 2)
    assert reduce_mod(y, mod) == reduce_mod(target, mod)
    assert membership(sieve, y).member


def test_solve_not_found_within_tiny_bound():
    # the class 20 mod 49 has no representative of height <= 10
    sv = build_sieve(QQ, TailRule.kfree(2))
    with pytest.raises(NotFoundWithinBound):
        solve(sv, [con(q_prime(7), 2, 20)], bound=10)


def test_surjectivity_rational_examples():
    rep = check_local_surjectivity(QQ, 2, 2)
    table = {c[0]: w.coords[0][0] for c, w in rep.items()}
    assert table == {1: 1, 2: 2, 3: 3}
    with pytest.raises(TailNotBoundable):
        check_local_surjectivity(QQ, 1, 5)


def test_surjectivity_rational_heights_up_to_50(squarefree_q):
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        rep = check_local_surjectivity(QQ, 2, p)
        assert rep.surjective
        assert rep.v_classes == p * p - 1
        assert rep.max_witness_height <= 4 * p * p
        # the whole table fits in 4096 rows: the height is its largest
        assert rep.max_witness_height == max(w.height for _, w in rep.items())
        for cls, w in rep.items():
            assert w.coords[0][0] % (p * p) == cls[0]
            assert membership(squarefree_q, w).member


def test_surjectivity_split_example(k13):
    rep = check_local_surjectivity(k13, 2, 3)
    assert rep.n_classes == 81 and rep.v_classes == 64
    assert rep.surjective and rep.fallback_classes == 0
    sieve = kfree_sieve(k13, 2)
    primes = split_prime(k13, 3)
    for cls, w in rep.items():
        assert membership(sieve, w).member
        for q in primes:
            mod = ideal_power(q, 2)
            assert reduce_mod(w, mod) == reduce_mod(k13.element([cls]), mod)


def test_surjectivity_vectorized_matches_direct_membership(k2):
    rep = check_local_surjectivity(k2, 2, 5)
    sieve = kfree_sieve(k2, 2)
    assert rep.v_classes == 5**4 - 1  # inert: only the zero class is excluded
    count = 0
    for cls, w in rep.items():
        assert membership(sieve, w).member
        diff = w - k2.element([cls])
        assert all(v % 25 == 0 for v in diff.flat())
        count += 1
    assert count == rep.witness_count()


def _summary(rep):
    return rep.v_classes, rep.reverified, rep.max_witness_height, rep.fallback_classes


def test_surjectivity_segment_boundaries(monkeypatch):
    # the strip sieve walks row bands of lattices._SEGMENT_CLASSES classes;
    # reports must not depend on where the bands end (ranks, sampling, witness
    # table)
    k7 = make_algebra([-7])
    default = check_local_surjectivity(k7, 3, 7)
    assert _summary(default) == (117306, 117306, 1365, 0)
    # one-row bands, then 10-row bands with a 3-row last band (343 = 34*10 + 3)
    for segment in (1, 343 * 10):
        monkeypatch.setattr(lattices, "_SEGMENT_CLASSES", segment)
        rep = check_local_surjectivity(k7, 3, 7)
        assert _summary(rep) == _summary(default)
        assert list(rep.items()) == list(default.items())
    # sampled re-verification: 150-row bands, 97-row last band (2197 = 14*150 + 97)
    monkeypatch.setattr(lattices, "_SEGMENT_CLASSES", 2197 * 150)
    rep = check_local_surjectivity(make_algebra([13]), 3, 13)
    assert _summary(rep) == (4824612, 201026, 8761, 0)


def _radial_kfree(c, P, k):
    """The first k-free c + t*P in the radial order t = 0, 1, -1, 2, -2, ..."""
    for i in range(64):
        y = c + ((i + 1) // 2 if i % 2 else -(i // 2)) * P
        if y and all(y % q**k for q in range(2, round(abs(y) ** (1 / k)) + 2)):
            return y


def test_surjectivity_rational_table_follows_radial_order():
    # one-column strip sieve: the first 4096 classes of the 6858, each with
    # the first k-free lift in solve's radial order
    rep = check_local_surjectivity(QQ, 3, 19)
    assert _summary(rep) == (6858, 6858, 17147, 0) and rep.n_classes == 6859
    table = list(rep.items())
    assert [c for c, _ in table] == [(c,) for c in range(1, 4097)]
    assert all(w.coords[0][0] == _radial_kfree(c[0], 6859, 3) for c, w in table)


@lru_cache(maxsize=None)
def _rational_table(k, p):
    return dict(check_local_surjectivity(QQ, k, p).items())


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]),
    k=st.sampled_from([2, 3]),
    c=st.integers(1, 4096),
)
def test_surjectivity_rational_witness_is_solve_answer(p, k, c):
    P = p**k
    c = 1 + (c - 1) % min(P - 1, 4096)
    y = solve(kfree_sieve(QQ, k), [con(q_prime(p), k, c)], bound=8 * P)
    assert _rational_table(k, p)[(c,)] == y


def test_surjectivity_wrong_class_witness_raises(monkeypatch):
    # no strips, so every class falls back to solve; a k-free witness of the
    # wrong class must fail the congruence check with a typed error (not
    # assert, so the check survives python -O)
    monkeypatch.setattr(localglobal, "_MAX_STRIPS", 0)
    monkeypatch.setattr(localglobal, "solve", lambda sieve, cons, bound: sieve.algebra.one)
    for algebra, p in ((QQ, 5), (make_algebra([13]), 3)):
        with pytest.raises(VerificationFailed, match="not congruent"):
            check_local_surjectivity(algebra, 2, p)


def quotient_walk_compatible(sieve, c):
    """The check _check_constraint_compatible replaced: walk target + p^k mod p^max(k, e)."""
    ls = local_set(sieve, c.prime)
    if not ls.classes:
        return True
    cons_mod = ideal_power(c.prime, c.k)
    fine = ideal_power(c.prime, max(c.k, ls.modulus.k))
    target = c.canonical_target()
    for q in lattices.quotient_residues(cons_mod.hnf, fine.hnf):
        rep = fine.reduce_coords(tuple(t + d for t, d in zip(target, q)))
        if ls.modulus.reduce_coords(rep) not in ls.classes:
            return True
    return False


def test_constraint_check_matches_quotient_walk():
    rng = random.Random(11)
    outcomes = {True: 0, False: 0}
    for spec in ([None], [2], [-1], [5], [13]):
        K = make_algebra(spec)
        for p in (2, 3):
            for prime in split_prime(K, p):
                for e in (1, 2, 3):
                    if prime.norm**e > 125:
                        continue
                    mod = ideal_power(prime, e)
                    residues = list(mod.residues())
                    coarse = ideal_power(prime, 1)
                    # R_p: random classes, and a union of the classes mod p^e above random classes mod p
                    picks = rng.sample(list(coarse.residues()), rng.randrange(1, coarse.norm + 1))
                    union = sorted({r for r in residues if coarse.reduce_coords(r) in picks})
                    sieves = [
                        kfree_sieve(K, e),
                        build_sieve(K, TailRule.shifted_kfree(e, [0, 2, 3])),
                        build_sieve(K, TailRule.kfree(e), [LocalSet(mod, tuple(sorted(rng.sample(residues, min(3, len(residues))))))]),
                        build_sieve(K, TailRule.kfree(e), [LocalSet(mod, tuple(union))]),
                    ]
                    for sieve in sieves:
                        for k in (1, 2, 3, 4):
                            cons_mod = ideal_power(prime, k)
                            targets = list(itertools.islice(cons_mod.residues(), 40))
                            for t in targets:
                                c = CongruenceConstraint(prime, k, K.embed(prime.component, t))
                                ok = quotient_walk_compatible(sieve, c)
                                outcomes[ok] += 1
                                if ok:
                                    localglobal._check_constraint_compatible(sieve, c)
                                else:
                                    with pytest.raises(InvalidConstraint):
                                        localglobal._check_constraint_compatible(sieve, c)
    assert min(outcomes.values()) > 100


def test_constraint_check_enumerates_nothing():
    # a class mod 2^40 against R_2 mod 4, and a class mod 2 against R_2 mod 2^40, each in one step
    t0 = time.perf_counter()
    localglobal._check_constraint_compatible(kfree_sieve(QQ, 2), con(q_prime(2), 40, 3))
    with pytest.raises(InvalidConstraint):
        localglobal._check_constraint_compatible(kfree_sieve(QQ, 2), con(q_prime(2), 40, 2**39))
    localglobal._check_constraint_compatible(kfree_sieve(QQ, 40), con(q_prime(2), 1, 0))
    assert time.perf_counter() - t0 < 0.5
