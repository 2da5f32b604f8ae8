import itertools
import os
import random
import subprocess
import sys
import time
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringsieve import QQ, ideal_power, lattices, localglobal, make_algebra, reduce_mod, rings, shiftspace, split_prime
from ringsieve import sieve as sieve_mod
from ringsieve.errors import (
    BudgetExceeded,
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


def _fold_from_zn(algebra, constraints):
    """Every constraint folded in by crt_pair, starting from (0, Z^n) on each component."""
    bases, moduli = [], []
    for i, spec in enumerate(algebra.components):
        y, lam = spec.zero(), lattices.identity_hnf(spec.degree)
        for c in constraints:
            if c.prime.component == i:
                res = lattices.crt_pair(y, lam, c.canonical_target(), ideal_power(c.prime, c.k).hnf)
                if res is None:
                    raise InvalidConstraint("incompatible constraints")
                y, lam = res
        bases.append(y)
        moduli.append(lam)
    return bases, moduli


def _answer(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs).flat()
    except (InvalidConstraint, NotFoundWithinBound) as e:
        return type(e).__name__


def test_solve_matches_the_fold_from_zn(monkeypatch):
    # A component's first constraint is taken as its own CRT solution; the
    # witnesses must be those of the fold that runs crt_pair from Z^n.
    rng = random.Random(30)
    algebras = [make_algebra(d) for d in ([None], [2], [-1], [-3], [5], [13], [None, None], [None, 2], [2, -7])]
    met, cases = set(), []
    for case in range(270):
        alg = algebras[case % len(algebras)]
        k = rng.choice((2, 3))
        primes = [q for p in (2, 3, 5, 7) for q in split_prime(alg, p)]
        cons = [
            CongruenceConstraint(q, 2, alg.from_int(q.p**2))  # inside q^k: refused at k = 2
            if rng.random() < 0.04
            else CongruenceConstraint(q, rng.randint(1, 2), alg.from_flat([rng.randint(-60, 60) for _ in range(alg.degree)]))
            for q in rng.sample(primes, rng.randint(1, 3))
        ]
        assert localglobal._crt_fold(alg, cons) == _fold_from_zn(alg, cons)
        # a bound past every base point's height (moduli below 10^5 a coordinate), so the
        # walk meets members at once; the walk up to a bound below the base point is
        # (2L + 1)^n multiplier tuples, L = base height / least pivot, and only Q cases take it
        cases.append((kfree_sieve(alg, k), cons, 10**6 if alg.degree > 1 else rng.choice((3, 10**6))))
        per_component = [sum(c.prime.component == i for c in cons) for i in range(len(alg.components))]
        met.update(f"{n} constraints on a component" for n in per_component)
        met.add("product" if len(alg.components) > 1 else "Q" if alg is QQ else "quadratic")
    windows = []
    while len(windows) < 12:
        window = shiftspace.int_pattern(sorted(rng.sample(range(-6, 9), rng.randint(2, 5))))
        pattern = shiftspace.int_pattern([e.coords[0][0] for e in window.elements if rng.random() < 0.5])
        if shiftspace.is_admissible(kfree_sieve(QQ, 2), pattern).admissible:
            windows.append((pattern, window))
    new = [_answer(solve, *case[:2], bound=case[2]) for case in cases]
    new_orbits = [_answer(shiftspace.orbit_approximation, QQ, 2, pat, win) for pat, win in windows]
    monkeypatch.setattr(localglobal, "_crt_fold", _fold_from_zn)
    assert new == [_answer(solve, *case[:2], bound=case[2]) for case in cases]
    assert new_orbits == [_answer(shiftspace.orbit_approximation, QQ, 2, pat, win) for pat, win in windows]
    met.update(y if isinstance(y, str) else "witness" for y in new)
    assert met >= {"Q", "quadratic", "product", "witness", "InvalidConstraint", "NotFoundWithinBound"} | {
        f"{n} constraints on a component" for n in range(4)
    }, met


def test_one_constraint_solve_makes_no_elimination(monkeypatch, squarefree_q):
    # one constraint, or one on each component, is its own CRT solution
    eliminations = []
    real = lattices.hnf_from_rows
    monkeypatch.setattr(lattices, "hnf_from_rows", lambda rows, n: eliminations.append(n) or real(rows, n))
    qx2 = make_algebra([None, 2])
    q7 = split_prime(qx2, 7)
    one_each = [CongruenceConstraint(q7[0], 2, qx2.from_flat((3, 1, 1))), CongruenceConstraint(q7[1], 2, qx2.from_flat((0, 2, 1)))]
    assert solve(squarefree_q, [con(q_prime(5), 2, 7)]).coords[0][0] == 7
    assert membership(kfree_sieve(qx2, 2), solve(kfree_sieve(qx2, 2), one_each)).member
    assert eliminations == []
    solve(squarefree_q, [con(q_prime(2), 2, 3), con(q_prime(3), 2, 2)])
    assert len(eliminations) == 1


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
    assert _summary(rep) == (4824612, 603077, 8761, 0)


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


@pytest.mark.parametrize(
    "spec, k, p",
    [([105], 2, 7), ([-231], 2, 7), ([13], 2, 3), ([2], 2, 5)],
    ids=["ramified-105", "ramified-minus231", "split-13", "inert-2"],
)
def test_surjectivity_witnesses_are_congruent_mod_pk(spec, k, p):
    # the reduction map works on classes mod p^k O_K: every witness differs
    # from its class by an element of p^k O_K, so by p^k in each coordinate;
    # a congruence mod q^k at each q | p alone is coarser at a ramified p
    # (7 ramifies in Q(sqrt 105) and Q(sqrt -231), 3 splits in Q(sqrt 13),
    # 5 is inert in Q(sqrt 2))
    K = make_algebra(spec)
    rep = check_local_surjectivity(K, k, p)
    assert rep.fallback_classes == 0
    for cls, w in rep.items():
        assert all((a - c) % p**k == 0 for a, c in zip(w.flat(), cls)), (cls, w)


def test_surjectivity_strip_cap_raises(monkeypatch):
    # one strip: 4 = 2^2 mod 25, and 4w mod 9 over Q(sqrt 13) (the first
    # non-squarefree classes), need a second, so the cell raises a typed
    # error (not assert, so the check survives python -O)
    monkeypatch.setattr(localglobal, "_MAX_STRIPS", 1)
    for algebra, p, cls in ((QQ, 5, r"\(4,\)"), (make_algebra([13]), 3, r"\(0, 4\)")):
        with pytest.raises(NotFoundWithinBound, match=rf"class {cls} has no 2-free lift .* in 1 strips"):
            check_local_surjectivity(algebra, 2, p)


def test_surjectivity_refuses_int64_norms():
    # 101^4 classes are inside the grid budget, but a witness's norm can pass
    # 2^63 (|N(5 + 16000 w)| = 25,600,000,000,767,999,975), so the cell is
    # refused before the kernel allocates anything
    t0 = time.perf_counter()
    with pytest.raises(BudgetExceeded, match=r"100000000003.*past int64"):
        check_local_surjectivity(make_algebra([10**11 + 3]), 2, 101)
    assert time.perf_counter() - t0 < 0.5
    # over Q(sqrt 40000003) the norms fit, but the first strip's cosets would
    # list the primes up to 64,516,792: the prime table refuses them
    t0 = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="primes up to 64516792 is over the limit 10000000"):
        check_local_surjectivity(make_algebra([40000003]), 2, 101)
    assert time.perf_counter() - t0 < 1


@pytest.mark.parametrize(
    "spec, k, p, segment",
    [([-7], 3, 7, 1), ([None], 3, 19, None), ([None, 2], 2, 3, None)],
    ids=["one-row-bands", "negative-offsets", "product"],
)
def test_surjectivity_height_is_the_tallest_witness(monkeypatch, spec, k, p, segment):
    # the height is read per row from its last witness's strip; with the whole
    # table kept, it must be the height of the tallest witness
    monkeypatch.setattr(localglobal, "_TABLE_ROWS", 10**6)
    if segment is not None:
        monkeypatch.setattr(lattices, "_SEGMENT_CLASSES", segment)
    rep = check_local_surjectivity(make_algebra(spec), k, p)
    assert rep.witness_count() == rep.v_classes
    assert rep.max_witness_height == max(w.height for _, w in rep.items())


@pytest.mark.parametrize("drop", [0, 1, 3])
def test_broken_finder_is_caught_by_the_recheck(monkeypatch, drop):
    # the strips read _forbidden_cosets of the k-free sieve and the re-check
    # does not, so a finder that forgets a coset hands over witnesses the
    # re-check rejects; the class mask (an empty tail) is left whole
    forbidden_cosets = localglobal._forbidden_cosets

    def broken(sieve, i, max_norm):
        cosets, points = forbidden_cosets(sieve, i, max_norm)
        if sieve.tail.kind == "classes":
            cosets = [c for j, c in enumerate(cosets) if j != drop]
        return cosets, points

    monkeypatch.setattr(localglobal, "_forbidden_cosets", broken)
    cells = [([-1], 2, 13), ([2], 3, 11), ([-7], 3, 7), ([None], 2, 13)]
    for spec, k, p in cells:
        with pytest.raises(VerificationFailed, match="non-k-free witness"):
            check_local_surjectivity(make_algebra(spec), k, p)
    # a sampled cell, in bands of 150 rows
    monkeypatch.setattr(lattices, "_SEGMENT_CLASSES", 2197 * 150)
    with pytest.raises(VerificationFailed, match="non-k-free witness"):
        check_local_surjectivity(make_algebra([13]), 3, 13)


def test_strip_finder_and_recheck_list_their_tail_primes_apart(monkeypatch):
    # the finder's tail cosets are `sieve._grid_rows` columns and the re-check's primes come from
    # `sieve._tail_primes`, so a finder short of one tail row, here (1 + w) over Q(sqrt -1), hands
    # over witnesses in (1 + w)^2 = (2) that the re-check of every witness rejects
    K = make_algebra([-1])
    whole = check_local_surjectivity(K, 2, 13)
    assert whole.reverified == whole.v_classes
    grid_rows = sieve_mod._grid_rows
    monkeypatch.setattr(sieve_mod, "_grid_rows", lambda *args: grid_rows(*args)[:, 1:])
    with pytest.raises(VerificationFailed, match="non-k-free witness"):
        check_local_surjectivity(K, 2, 13)


def _flagged_by_each_ideal(spec, sieve, sa, sb):
    """The re-check `_non_kfree_witnesses` replaced: every tail prime's q^k against every witness."""
    good = np.ones(sa.size, dtype=bool)
    for q in sieve_mod._tail_primes(sieve, int(np.abs(spec.norm((sa, sb))).max(initial=0))):
        (alpha, _), (beta, gamma) = lattices.grid_hnf(ideal_power(q, sieve.tail.exponent).hnf)
        good &= ~((sb % gamma == 0) & ((sa - (sb // gamma) * beta) % alpha == 0))
    return np.flatnonzero(~good)


@settings(max_examples=80, deadline=None)
@given(
    spec=st.sampled_from([None, 2, 13, -1, -7]),
    k=st.sampled_from([2, 3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_non_kfree_witnesses_match_each_ideal_loop(spec, k, seed):
    K = make_algebra([spec])
    field, sieve = K.components[0], kfree_sieve(K, k)
    rng = np.random.default_rng(seed)
    n = 400
    sa = rng.integers(-3000, 3000, n)
    sb = np.zeros(n, dtype=np.int64) if field.is_rational else rng.integers(-3000, 3000, n)
    # points of q^k for small q, and the zero witness
    ideals = [q for q in rings.prime_ideals(K, 13) if q.norm**k <= 3000]
    for i in rng.choice(n, n // 2, replace=False).tolist():
        (alpha, _), (beta, gamma) = lattices.grid_hnf(ideal_power(ideals[rng.integers(len(ideals))], k).hnf)
        u, v = rng.integers(-40, 40, 2).tolist()
        if field.is_rational:
            v = 0
        sa[i], sb[i] = u * alpha + v * beta, v * gamma
    sa[0] = sb[0] = 0
    flagged = localglobal._non_kfree_witnesses(field, sieve, sa, sb)
    assert flagged.tolist() == _flagged_by_each_ideal(field, sieve, sa, sb).tolist()


def test_non_kfree_witnesses_flag_the_primes_above_p():
    # every prime is tested, those above the cell's p too: over Q, 9 and 18 lie
    # in 3^2; over Q(sqrt 13), where 3 splits, an HNF row of one prime square
    # above 3 lies in it, while 1 + w is a unit and 2 is inert
    K = make_algebra([13])
    _, (beta, gamma) = ideal_power(split_prime(K, 3)[1], 2).hnf
    for field, sieve, sa, sb, flagged in (
        (QQ.components[0], kfree_sieve(QQ, 2), [9, 10, 18, 7], [0, 0, 0, 0], [0, 2]),
        (K.components[0], kfree_sieve(K, 2), [1, beta, 2], [1, gamma, 0], [1]),
    ):
        got = localglobal._non_kfree_witnesses(field, sieve, np.array(sa), np.array(sb))
        assert got.tolist() == flagged


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


def test_surjectivity_does_not_import_numpy_ma():
    # numpy.ma costs about 14 ms to import on a process's first masked call
    src = str(Path(localglobal.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys\n"
        "from ringsieve import QQ\n"
        "from ringsieve.localglobal import check_local_surjectivity\n"
        "check_local_surjectivity(QQ, 2, 5)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]
