import itertools
import math
import os
import random
import subprocess
import sys
import threading
import time
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import factorint, integer_nthroot, legendre_symbol, primerange
from sympy import isprime as is_prime_sympy
from sympy.ntheory import sqrt_mod as sympy_sqrt_mod

import ringsieve
from ringsieve import QQ, lattices, make_algebra, presets, reduce_mod, rings, split_prime, ideal_power
from ringsieve import sieve as sieve_mod
from ringsieve.errors import BudgetExceeded, ClassOutOfRange, PreconditionFailed, TailNotBoundable, VerificationFailed
from ringsieve.intervals import _round_down, _round_up
from ringsieve.primes import primes_upto
from ringsieve.rings import prime_ideals
from ringsieve.sieve import (
    LocalSet,
    TailRule,
    build_sieve,
    count_members,
    density_interval,
    empirical_density,
    enumerate_V,
    format_sieve,
    kfree_sieve,
    local_set,
    membership,
    parse_sieve_file,
    tail_count,
    _tail_local_set,
    _tail_sum_bound,
)


def q_prime(p):
    return split_prime(QQ, p)[0]


def test_build_flags(squarefree_q):
    assert squarefree_q.non_large and squarefree_q.cofinite
    empty = build_sieve(QQ, TailRule.empty())
    assert empty.non_large and not empty.cofinite
    two = build_sieve(QQ, TailRule.classes_mod_p([0, 1]), {q_prime(2): (1, ()), q_prime(3): (1, ())})
    assert two.non_large and two.cofinite
    assert {ls.prime.p for ls in two.exceptions if not ls.classes} == {2, 3}
    # without the exception at 2, the classes {0,1} cover everything mod 2
    covering = build_sieve(QQ, TailRule.classes_mod_p([0, 1]))
    assert not covering.non_large


def test_class_out_of_range():
    with pytest.raises(ClassOutOfRange):
        build_sieve(QQ, TailRule.kfree(2), {q_prime(3): (2, ((9,),))})
    with pytest.raises(ClassOutOfRange):
        LocalSet(ideal_power(q_prime(3), 2), ((1,), (1,)))


def test_local_set_examples(squarefree_q):
    ls = local_set(squarefree_q, q_prime(5))
    assert ls.classes == ((0,),) and ls.measure == Fraction(1, 25)
    two = build_sieve(QQ, TailRule.classes_mod_p([0, 1]), {q_prime(2): (1, ()), q_prime(3): (1, ())})
    ls7 = local_set(two, q_prime(7))
    assert ls7.classes == ((0,), (1,)) and ls7.measure == Fraction(2, 7)
    empty = build_sieve(QQ, TailRule.empty())
    assert local_set(empty, q_prime(11)).measure == 0


def test_membership_examples(squarefree_q, k3):
    v = membership(squarefree_q, QQ.from_int(12))
    assert not v.member and v.prime.p == 2 and v.class_rep == (0,)
    assert membership(squarefree_q, QQ.from_int(10)).member
    sq3 = kfree_sieve(k3, 2)
    v3 = membership(sq3, k3.from_int(3))
    assert not v3.member and v3.prime.p == 3 and v3.prime.kind == "ramified"
    assert not membership(squarefree_q, QQ.from_int(0)).member


def test_membership_refuses_a_prime_scan_past_its_budget():
    # Nm(x) is about 10^16, so a 2-free scan would sieve primes up to about 10^8.
    k2 = make_algebra([2])
    x = k2.element([(10**8 + 1, 10**8)])
    t0 = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="primes up to"):
        membership(kfree_sieve(k2, 2), x)
    assert time.perf_counter() - t0 < 1
    # the same element's scan for the 4-free sieve stays under the limit
    assert membership(kfree_sieve(k2, 4), x).member


def test_membership_of_huge_integers_is_refused_at_once(squarefree_q):
    # the scan limit is an exact integer root: no float rounding to walk off, no overflow
    for x in (3**200, 10**400):
        t0 = time.perf_counter()
        with pytest.raises(BudgetExceeded, match="primes up to"):
            membership(squarefree_q, QQ.from_int(x))
        assert time.perf_counter() - t0 < 0.5


@settings(max_examples=300, deadline=None)
@given(n=st.integers(0, 10**600), k=st.integers(2, 5))
@example(n=0, k=3)
@example(n=1, k=5)
@example(n=2**300 - 1, k=3)
@example(n=2**300, k=3)
@example(n=10**600, k=2)
def test_iroot_is_the_exact_integer_root(n, k):
    r = sieve_mod._iroot(n, k)
    assert r**k <= n < (r + 1) ** k


def test_membership_translation_coherence(squarefree_q, k13):
    rng = random.Random(3)
    for sieve in (squarefree_q, kfree_sieve(k13, 2)):
        K = sieve.algebra
        for _ in range(250):
            x = K.from_flat([rng.randrange(-200, 201) for _ in range(K.degree)])
            p = rng.choice([2, 3, 5, 7, 11])
            prime = rng.choice(split_prime(K, p))
            ls = _tail_local_set(sieve, prime)
            expected = ls.modulus.reduce_coords(x.coords[prime.component]) in ls.classes
            assert (ls.hits(x) is not None) == expected


def test_enumerate_examples(squarefree_q):
    vals = [x.coords[0][0] for x in enumerate_V(squarefree_q, 10)]
    assert vals == [-10, -7, -6, -5, -3, -2, -1, 1, 2, 3, 5, 6, 7, 10]
    empty = build_sieve(QQ, TailRule.empty())
    assert [x.coords[0][0] for x in enumerate_V(empty, 2)] == [-2, -1, 0, 1, 2]
    one_free = kfree_sieve(QQ, 1)
    assert [x.coords[0][0] for x in enumerate_V(one_free, 10)] == [-1, 1]


def test_enumerate_matches_square_sieve_oracle(squarefree_q):
    B = 10_000
    arr = np.ones(B + 1, dtype=bool)
    arr[0] = False
    q = 2
    while q * q <= B:
        arr[q * q :: q * q] = False
        q += 1
    oracle = int(arr.sum())
    assert count_members(squarefree_q, B) == 2 * oracle
    small = [x.coords[0][0] for x in enumerate_V(squarefree_q, 300)]
    assert small == [x for x in range(-300, 301) if x != 0 and arr[abs(x)]]


def test_enumerate_equals_box_filter(k2):
    sieve = kfree_sieve(k2, 2)
    via_filter = [x for x in k2.box(4) if membership(sieve, x).member]
    assert enumerate_V(sieve, 4) == via_filter


def test_quadratic_membership_against_valuation_oracle(k2):
    from ringsieve.rings import valuation

    sieve = kfree_sieve(k2, 2)
    for x in k2.box(5):
        if x.is_zero():
            continue
        nm = abs(x.norm())
        free = True
        for p in range(2, nm + 1):
            from ringsieve.primes import is_prime

            if not is_prime(p) or nm % p:
                continue
            for prime in split_prime(k2, p):
                if valuation(x, prime) >= 2:
                    free = False
        assert membership(sieve, x).member == free


def test_density_interval(squarefree_q):
    iv = density_interval(squarefree_q, 10_000)
    assert iv.contains(Fraction(607927, 10**6)) or (
        float(iv.lo) < 0.607927 < float(iv.hi)
    )
    assert iv.lo > 0
    empty = build_sieve(QQ, TailRule.empty())
    one = density_interval(empty, 10)
    assert one.lo == one.hi == 1
    with pytest.raises(TailNotBoundable):
        density_interval(kfree_sieve(QQ, 1), 100)


def test_negative_density_cutoff_rejected(squarefree_q):
    for cutoff in (-1, -10, -64, -100):
        with pytest.raises(PreconditionFailed, match="cutoff"):
            density_interval(squarefree_q, cutoff)


def _pinned_sieves():
    k2 = make_algebra([2])
    (p2,) = split_prime(k2, 2)  # ramified
    (p3,) = split_prime(k2, 3)  # inert
    p7 = split_prime(k2, 7)[0]  # split
    q_k7 = make_algebra([None, -7])
    return {
        "kfree Q(sqrt -1) k=2": kfree_sieve(make_algebra([-1]), 2),
        "kfree QxQ(sqrt 2) k=3": kfree_sieve(make_algebra([None, 2]), 3),
        "exc": build_sieve(k2, TailRule.kfree(2), [
            LocalSet(ideal_power(p2, 3), ((0, 0), (1, 0))),
            LocalSet(ideal_power(p3, 1), ((0, 0), (1, 1), (2, 0))),
            LocalSet(ideal_power(p7, 2), ((0, 0), (5, 0), (11, 0))),
        ]),
        # 0 = 4 mod 2^2: the labels meet at 2
        "Q {0,4} k=2": build_sieve(QQ, TailRule.shifted_kfree(2, (0, 4))),
        # (0,0) = (2,2) mod (sqrt 2)^2 = (2): the labels meet at the ramified prime
        "K2 vec": build_sieve(k2, TailRule.shifted_kfree(2, ((0, 0), (1, 1), (3, 0), (2, 2)))),
        # the Euler product drops one prime above 7 and keeps the other
        "K2 exc at 7": build_sieve(k2, TailRule.kfree(2), [LocalSet(ideal_power(split_prime(k2, 7)[1], 1), ((0, 0),))]),
        # |N(x - y)| <= 30 between labels: the primes p <= 5 take their counts from the local sets
        "Q {0,2,30} k=2": build_sieve(QQ, TailRule.shifted_kfree(2, (0, 2, 30))),
        "QxQ(sqrt -7) k=10^6": build_sieve(q_k7, TailRule.kfree(10**6), [LocalSet(ideal_power(split_prime(q_k7, 2)[0], 1), ())]),
    }


# (lo * 2^192, hi * 2^192) of density_interval(sieve, cutoff)
DENSITY_PINS = {
    ('kfree Q(sqrt -1) k=2', 1): (0, 6277101735386680763835789423207666416102355444464034512896),
    ('kfree Q(sqrt -1) k=2', 2): (988189016945102788448752196172141942134687927106166937863, 4707826301540010572876842067405749812076766583348025884672),
    ('kfree Q(sqrt -1) k=2', 10): (3468781611509007747731015642144762853225475556755141308125, 4285168118023974068111898912909766940059207983420780894139),
    ('kfree Q(sqrt -1) k=2', 1000): (4158319200687673479495250963287321086253187507643282013803, 4166652505699071622740732428143608302858905318279841697364),
    ('kfree QxQ(sqrt 2) k=3', 1): (2472072501200891910613932126638153133800694065802191592258, 6277101735386680763835789423207666416102355444464034512896),
    ('kfree QxQ(sqrt 2) k=3', 2): (3694896428016173211174188217260631898427365233780796845882, 4805906016155427459811776277143369599828365887167776423936),
    ('kfree QxQ(sqrt 2) k=3', 10): (4482898432327422657004121343413481160706229110824915508698, 4544607057052150930230774651779408778794943524861303252360),
    ('kfree QxQ(sqrt 2) k=3', 1000): (4532841913202893056056800382492142829974364139113088493963, 4532848712475961769999455381675215342797378335180591265182),
    ('exc', 10): (2336389113853487491475948296035395117326353082857124150035, 2886264188199456711068184724373704174667638655013866764781),
    ('exc', 1000): (2824373528781680394613180506446628415014116684967204051213, 2830033595973627649913006519485599614242601888744693438254),
    ('Q {0,4} k=2', 1): (0, 6277101735386680763835789423207666416102355444464034512896),
    ('Q {0,4} k=2', 2): (988189016945102788448752196172141942134687927106166937863, 4707826301540010572876842067405749812076766583348025884672),
    ('Q {0,4} k=2', 10): (2615620062807782767366927950026847547667926253384701279354, 3231212845691905669384042079279755902765069635936010146878),
    ('Q {0,4} k=2', 1000): (3032505069187449709477407315504594038498068477456905915256, 3038582233654759227933273863231056150799667813083072059542),
    ('K2 vec', 1): (0, 6277101735386680763835789423207666416102355444464034512896),
    ('K2 vec', 2): (0, 1569275433846670190958947355801916604025588861116008628224),
    ('K2 vec', 10): (299370581933874813846475338816666846627560123481606745621, 1258165435299808462139097734243519143169203897396216830210),
    ('K2 vec', 1000): (1153382805800686929432108122159627272080742266642358963957, 1162684280041015049830754155402850072662038575244313471895),
    # no tail prime of norm <= 2 besides the exception at 2: hi is the exact partial product
    ("exc", 2): (618458432373805826784253075155354140655723056420186110771, Fraction(23 * 2**192, 49)),
    ('K2 exc at 7', 1000): (3820408637965558021698988124662106068618128849231000649013, 3828064767500559139978946016695497062743616081393788225630),
    ('Q {0,2,30} k=2', 1000): (1571261412744653004761870279881579172493849642342640199932, 1575989380887314949610702387042707294376980584094924975024),
    ('QxQ(sqrt -7) k=10^6', 100): (2**192 - 48, 2**192),
}


def test_density_pinned_exactly():
    sieves = _pinned_sieves()
    for (name, cutoff), pin in DENSITY_PINS.items():
        iv = density_interval(sieves[name], cutoff)
        assert (iv.lo * 2**192, iv.hi * 2**192) == pin, (name, cutoff)


def _density_by_local_sets(sieve, cutoff):
    """The per-prime route: `split_prime`, `_tail_local_set`, one rounded product each."""
    lo = hi = Fraction(1)
    for ls in sieve.exceptions:
        lo = hi = lo * (1 - ls.measure)
    for p in primes_upto(cutoff):
        for prime in split_prime(sieve.algebra, p):
            if prime.norm <= cutoff and sieve.exception_at(prime) is None:
                f = 1 - _tail_local_set(sieve, prime).measure
                lo, hi = _round_down(lo * f), _round_up(hi * f)
    tail = _tail_sum_bound(sieve.algebra.degree, len(sieve.tail.labels), sieve.tail.exponent, cutoff, 192)
    return _round_down(lo * max(Fraction(0), 1 - tail)), hi


def test_density_huge_labels_match_local_sets():
    # labels far apart meet only at the small primes of their difference
    # (10^40 = 2^40 5^40); the work stays bounded by the cutoff
    k2 = make_algebra([2])
    (p3,) = split_prime(k2, 3)
    cases = [
        (build_sieve(QQ, TailRule.shifted_kfree(2, (0, 10**40))), 10),
        (build_sieve(QQ, TailRule.shifted_kfree(3, (7, 10**40 + 7, -(10**45)))), 200),
        (build_sieve(k2, TailRule.shifted_kfree(2, ((0, 0), (10**40, 10**40), (3, 10**41)))), 100),
        (build_sieve(k2, TailRule.shifted_kfree(2, ((0, 0), (10**40, 0))), [
            LocalSet(ideal_power(p3, 1), ((0, 0),)),
        ]), 50),
        (build_sieve(QQ, TailRule.shifted_kfree(2, (0, 10**400))), 30),
    ]
    for sieve, cutoff in cases:
        iv = density_interval(sieve, cutoff)
        assert (iv.lo, iv.hi) == _density_by_local_sets(sieve, cutoff), str(sieve.tail)


def test_density_runs_match_local_sets():
    # k = 7 takes Python-int powers past 600^7 > 2^63; labels (0,0), (1,0) forbid two classes
    # in the first Q component and one in the second, so the run's a switches at every row
    QxQ = make_algebra([None, None])
    cases = [
        (kfree_sieve(QQ, 7), 1000),
        (build_sieve(QxQ, TailRule.shifted_kfree(2, ((0, 0), (1, 0)))), 1000),
        (_pinned_sieves()["exc"], 3000),
    ]
    for sieve, cutoff in cases:
        iv = density_interval(sieve, cutoff)
        assert (iv.lo, iv.hi) == _density_by_local_sets(sieve, cutoff), str(sieve.tail)


def test_density_positive_on_grid():
    for d in (None, 2, 13):
        K = QQ if d is None else make_algebra([d])
        for k in (2, 3):
            iv = density_interval(kfree_sieve(K, k), 500)
            assert iv.lo > 0


def test_empirical_density_close_to_interval(squarefree_q):
    iv = density_interval(squarefree_q, 10_000)
    emp = empirical_density(squarefree_q, 10**6)
    assert abs(emp - iv.midpoint) <= Fraction(2, 1000)


def box_filter(sieve, bound):
    """The members of the box, one `membership` call per point."""
    return [x for x in sieve.algebra.box(bound) if membership(sieve, x).member]


def test_count_members_with_exceptions_and_class_tails(monkeypatch):
    # exception: forbid 1 mod 4 as well
    sv = build_sieve(QQ, TailRule.kfree(2), {q_prime(2): (2, ((0,), (1,)))})
    brute = box_filter(sv, 500)
    assert count_members(sv, 500) == len(brute) and enumerate_V(sv, 500) == brute
    two = build_sieve(QQ, TailRule.classes_mod_p([0, 1]), {q_prime(2): (1, ()), q_prime(3): (1, ())})
    brute = box_filter(two, 200)
    assert count_members(two, 200) == len(brute) and enumerate_V(two, 200) == brute
    # quadratic fields and products: in Q(sqrt 2), 2 ramifies, 3 is inert and
    # 7 splits; the shifted tails have labels inside the box
    k2, ki = make_algebra([2]), make_algebra([-1])
    ram, inert, split = split_prime(k2, 2)[0], split_prime(k2, 3)[0], split_prime(k2, 7)[1]
    q_k2 = make_algebra([None, 2])
    cases = [
        (build_sieve(k2, TailRule.kfree(2), {ram: (3, ((0, 0), (1, 1))), inert: (1, ((1, 2),)), split: (1, ((3, 0),))}), 6),
        (build_sieve(ki, TailRule.shifted_kfree(2, [(0, 0), (1, 1), (-3, 2)]), {split_prime(ki, 5)[0]: (1, ())}), 5),
        (build_sieve(q_k2, TailRule.shifted_kfree(2, [0, 1]), {split_prime(q_k2, 3)[1]: (1, ((2, 1),))}), 3),
        (build_sieve(make_algebra([-1, 2]), TailRule.kfree(2), {split_prime(make_algebra([-1, 2]), 2)[0]: (1, ())}), 2),
    ]
    for sv, bound in cases:
        brute = box_filter(sv, bound)
        assert count_members(sv, bound) == len(brute) and enumerate_V(sv, bound) == brute
        # bands of a few rows and marker chunks of a few points count and list the same
        with monkeypatch.context() as m:
            m.setattr(lattices, "_SEGMENT_CLASSES", 20)
            m.setattr(lattices, "_CHUNK_POINTS", 3)
            assert count_members(sv, bound) == len(brute) and enumerate_V(sv, bound) == brute


def test_box_readers_with_tail_labels_past_the_box():
    # on a Q component, a tail prime with q^k past the box height marks at most one point per label
    q_k2 = make_algebra([None, 2])
    cases = [
        (build_sieve(QQ, TailRule.shifted_kfree(2, [-20807]), {}), 8),
        (build_sieve(QQ, TailRule.classes_mod_p([1, 997]), {q_prime(2): (1, ()), q_prime(3): (1, ())}), 6),
        (build_sieve(QQ, TailRule.classes_mod_p([0, 1, 9]), {q_prime(2): (1, ()), q_prime(3): (1, ())}), 3),
        (build_sieve(q_k2, TailRule.shifted_kfree(2, [-2000, (5, 3, -1)]), {split_prime(q_k2, 5)[0]: (1, ())}), 2),
    ]
    for sv, bound in cases:
        brute = box_filter(sv, bound)
        assert count_members(sv, bound) == len(brute) and enumerate_V(sv, bound) == brute


def _membership_projecting_labels(sieve, x):
    """(member, prime, class_rep, checked) with every label projected per call, prime by prime."""
    K, k = sieve.algebra, sieve.tail.exponent
    elems = [K.from_int(c) if isinstance(c, int) else K.from_flat(c) for c in sieve.tail.labels]

    def tail_hit(prime):
        mod = ideal_power(prime, k)
        return LocalSet(mod, tuple(sorted({mod.reduce_coords(e.coords[prime.component]) for e in elems}))).hits(x)

    checked = []
    for ls in sieve.exceptions:
        checked.append(ls.prime)
        if (hit := ls.hits(x)) is not None:
            return False, ls.prime, hit, checked
    for i, spec in enumerate(K.components):
        norms = [abs(spec.norm(tuple(a - b for a, b in zip(x.coords[i], e.coords[i])))) for e in elems]
        if 0 in norms:
            prime = next(q for q in prime_ideals(K) if q.component == i and sieve.exception_at(q) is None)
            return False, prime, tail_hit(prime), checked
        bound = max(norms, default=0)
        for prime in prime_ideals(K, integer_nthroot(bound, k)[0]):
            if prime.component == i and prime.norm**k <= bound and sieve.exception_at(prime) is None:
                checked.append(prime)
                if (hit := tail_hit(prime)) is not None:
                    return False, prime, hit, checked
    return True, None, None, checked


def _random_sieve(rng):
    """A shifted, vector-label or product sieve, some with an exception at a random prime above 2-13."""
    K = make_algebra(rng.choice([[None], [2], [-7], [13], [None, -7], [5, None]]))
    labels = [rng.randint(-5, 5) if rng.random() < 0.4 else tuple(rng.randint(-4, 4) for _ in range(K.degree))
              for _ in range(rng.randint(1, 3))]
    if len(K.components) > 1:
        # two labels with one projection on the second component
        base = [rng.randint(-3, 3) for _ in range(K.degree)]
        labels += [tuple(base), (base[0] + rng.randint(1, 4), *base[1:])]
    exceptions = []
    if rng.random() < 0.6:
        mod = ideal_power(rng.choice(split_prime(K, rng.choice([2, 3, 5, 7, 11, 13]))), rng.choice([1, 2]))
        exceptions.append(LocalSet(mod, tuple(sorted(rng.sample(list(mod.residues()), rng.randint(0, 2))))))
    return build_sieve(K, TailRule.shifted_kfree(rng.choice([2, 3]), labels), exceptions)


def test_membership_and_boxes_match_labels_projected_per_call():
    rng = random.Random(2202)
    for _ in range(60):
        sv = _random_sieve(rng)
        K = sv.algebra
        points = [K.from_int(c) if isinstance(c, int) else K.from_flat(c) for c in sv.tail.labels]
        points += [K.element([[rng.randint(-9, 9) for _ in range(c.degree)] for c in K.components]) for _ in range(15)]
        for x in points:
            v = membership(sv, x)
            assert (v.member, v.prime, v.class_rep, list(v.checked)) == _membership_projecting_labels(sv, x), (str(sv), x)
        if sv.non_large:
            brute = box_filter(sv, 2)
            assert count_members(sv, 2) == len(brute) and enumerate_V(sv, 2) == brute, str(sv)


def _full_scan_tail_primes(sieve, max_norm, component=None):
    """The scan the tail-prime rows replaced: split_prime over every p, each prime looked up among the exceptions."""
    k = sieve.tail.exponent
    return [q for p in primes_upto(integer_nthroot(max_norm, k)[0]) for q in split_prime(sieve.algebra, p)
            if q.norm**k <= max_norm and component in (None, q.component) and sieve.exception_at(q) is None]


def _prefilter_sieve(rng):
    """A shifted or vector-label sieve with k = 2-5 and up to three exceptions at primes above 2-7."""
    K = make_algebra(rng.choice([[None], [2], [-1], [-7], [13], [None, -7], [5, None], [2, -1]]))
    labels = [rng.randint(-6, 6) if rng.random() < 0.5 else tuple(rng.randint(-5, 5) for _ in range(K.degree))
              for _ in range(rng.randint(1, 3))]
    exceptions = []
    for q in rng.sample([q for p in (2, 3, 5, 7) for q in split_prime(K, p)], rng.randint(0, 3)):
        mod = ideal_power(q, rng.choice([1, 2]))
        exceptions.append(LocalSet(mod, tuple(sorted(rng.sample(list(mod.residues()), rng.randint(0, 2))))))
    return build_sieve(K, TailRule.shifted_kfree(rng.randint(2, 5), labels), exceptions)


def _prefilter_elements(sieve, rng):
    """Per label c, c plus a multiple of q^k at rational, inert or ramified primes q, and c plus a
    small element; on a product, one element equal to a label on one component only."""
    K, k = sieve.algebra, sieve.tail.exponent
    labels = [K.from_int(c) if isinstance(c, int) else K.from_flat(c) for c in sieve.tail.labels]
    # Nm(q)^k | N(x - c) exactly when q^k | x - c at such q, so their rows pass the norm filter
    divisors = [q for p in (2, 3, 5, 7) for q in split_prime(K, p) if q.kind != "split"]

    def small():
        return K.from_flat([rng.randint(-9, 9) for _ in range(K.degree)])

    xs = []
    for c in labels:
        for q in rng.sample(divisors, min(3, len(divisors))):
            hnf = ideal_power(q, k).hnf
            coefs = [rng.randint(-2, 2) for _ in hnf]
            x = c + K.embed(q.component, [sum(a * row[j] for a, row in zip(coefs, hnf)) for j in range(len(hnf))])
            for j in range(len(K.components)):
                if j != q.component and rng.random() < 0.7:
                    x = x + K.embed(j, small().coords[j])
            xs.append(x)
        xs.append(c + small())
    if len(K.components) > 1:
        c, other, i = rng.choice(labels), small(), rng.randrange(len(K.components))
        xs.append(K.element([c.coords[j] if j == i else other.coords[j] for j in range(len(K.components))]))
    return xs


def test_norm_prefilter_and_tail_rows_match_the_full_scan():
    rng = random.Random(2501)
    kinds, exponents, verdicts = set(), set(), set()
    for _ in range(60):
        sv = _prefilter_sieve(rng)
        kinds.update(ls.prime.kind for ls in sv.exceptions)
        exponents.add(sv.tail.exponent)
        # rising bounds first, so the rows grow through several stretches
        for max_norm in (1, 40, 3000, 10**5, rng.randint(0, 10**4)):
            for component in (None, *range(len(sv.algebra.components))):
                assert list(sieve_mod._tail_primes(sv, max_norm, component)) == _full_scan_tail_primes(
                    sv, max_norm, component), (str(sv), max_norm, component)
            # the strip sieve's tail cosets, read as grid columns, are each scanned prime's q^k HNF
            for i in range(len(sv.algebra.components)):
                excepted, points = sieve_mod._forbidden_cosets(sv, i, 0)
                assert sieve_mod._forbidden_cosets(sv, i, max_norm)[0] == excepted + [
                    (lattices.grid_hnf(ideal_power(q, sv.tail.exponent).hnf), c)
                    for q in _full_scan_tail_primes(sv, max_norm, i) for c in points], (str(sv), max_norm, i)
        for x in _prefilter_elements(sv, rng):
            v = membership(sv, x)
            assert (v.member, v.prime, v.class_rep, list(v.checked)) == _membership_projecting_labels(sv, x), (str(sv), x)
            verdicts.add((v.member, v.prime is not None and sv.exception_at(v.prime) is None, bool(v.checked)))
    assert {"split", "inert", "ramified"} <= kinds and exponents == {2, 3, 4, 5}
    # members with primes checked, and rejections by a tail prime
    assert (True, False, True) in verdicts and (False, True, True) in verdicts


def test_three_component_tail_primes_and_verdicts_match_the_full_scan():
    # Q x Q(sqrt 13) x Q(sqrt -3): at 3 a rational, two split and a ramified row, at 13 a rational, a ramified
    # and two split rows, and 2 and 5 are inert in both fields, so each p's rows come from three components
    K = make_algebra([None, 13, -3])
    rng = random.Random(2902)
    above = [q for p in (2, 3, 5, 7, 13) for q in split_prime(K, p)]
    kinds = set()
    for _ in range(12):
        exceptions = []
        for q in rng.sample(above, rng.randint(1, 4)):
            kinds.add(q.kind)
            mod = ideal_power(q, rng.choice([1, 2]))
            exceptions.append(LocalSet(mod, tuple(sorted(rng.sample(list(mod.residues()), rng.randint(0, 2))))))
        labels = [rng.randint(-6, 6) if rng.random() < 0.5 else tuple(rng.randint(-5, 5) for _ in range(K.degree))
                  for _ in range(rng.randint(1, 3))]
        sv = build_sieve(K, TailRule.shifted_kfree(rng.randint(2, 3), labels), exceptions)
        for max_norm in (1, 40, 3000, 10**5, rng.randint(0, 10**4)):
            for component in (None, 0, 1, 2):
                assert list(sieve_mod._tail_primes(sv, max_norm, component)) == _full_scan_tail_primes(
                    sv, max_norm, component), (str(sv), max_norm, component)
        for x in _prefilter_elements(sv, rng):
            v = membership(sv, x)
            assert (v.member, v.prime, v.class_rep, list(v.checked)) == _walked_membership(sv, x), (str(sv), x)
    assert kinds == {"rational", "split", "inert", "ramified"}


def test_membership_lists_rows_only_as_far_as_its_catch(monkeypatch):
    # n = 7 * 999,983, but 7^2 catches x after 2, 3 and 5: about 475,000 rows were listed, and
    # dropped past the kept-row budget, on every call
    monkeypatch.setattr(rings, "_PRIME_ROWS", {})
    sq = kfree_sieve(QQ, 2)
    for _ in range(2):
        start = time.perf_counter()
        v = membership(sq, QQ.from_int(7**2 * 999_983**2))
        assert time.perf_counter() - start < 0.1
        assert (v.member, v.prime, v.class_rep, v.checked) == (
            False, split_prime(QQ, 7)[0], (0,), tuple(split_prime(QQ, p)[0] for p in (2, 3, 5, 7)))
    assert rings._PRIME_ROWS[QQ].limit < 1000
    # a bound past the prime limit is still refused before any row is listed, though 7 would catch x
    monkeypatch.setattr(rings, "_PRIME_ROWS", {})
    with pytest.raises(BudgetExceeded):
        membership(sq, QQ.from_int(7**2 * 10**16))
    assert rings._PRIME_ROWS[QQ].limit == 0


def test_membership_builds_local_sets_only_where_the_norm_filter_passes(monkeypatch):
    builds = []
    tail_local_set = sieve_mod._tail_local_set
    monkeypatch.setattr(sieve_mod, "_tail_local_set", lambda sv, q: builds.append(q) or tail_local_set(sv, q))

    def flagged(sv, x, primes):
        """The tail primes among `primes` whose Nm(q)^k divides some |N(x - c)|."""
        k = sv.tail.exponent
        return [q for q in primes if sv.exception_at(q) is None and any(
            q.spec.norm(tuple(a - b for a, b in zip(x.coords[q.component], c))) % q.norm**k == 0
            for c in sv.label_points[q.component])]

    K = make_algebra([-1])
    gauss = kfree_sieve(K, 2)
    far = parse_sieve_file("algebra Q\ntail classes 0,531443\nexception 2 1 : -\nexception 3 1 : -\n")
    shifted = build_sieve(make_algebra([None, -7]), TailRule.shifted_kfree(3, [0, (2, 1, 1), 27]))
    cases = [
        (gauss, K.from_int(5), 2),  # both primes above 5 pass the filter, and neither divides 5 twice
        (gauss, K.element([[10, 5]]), 2),  # (2 + w)^2 (2 - w): the second prime above 5 rejects
        (gauss, K.from_int(9), 1),
        (far, QQ.from_int(2), 0),  # 43,932 tail primes, and no |N(2 - c)| has one of them
        # members with 8 primes checked, and a rejection at the ramified prime above 7 after 5
        (shifted, shifted.algebra.from_flat([-34, -11, -10]), 2),
        (shifted, shifted.algebra.from_flat([-34, -12, -9]), 0),
        (shifted, shifted.algebra.from_flat([-34, 6, -7]), 1),
    ]
    for sv, x, expected in cases:
        builds.clear()
        v = membership(sv, x)
        assert builds == flagged(sv, x, v.checked) and len(builds) == expected, (str(sv), x)
    # every prime up to |N(2 - 531443)| = 3^12 is checked
    v = membership(far, QQ.from_int(2))
    assert v.member and len(v.checked) == 43_934


def _fresh_hit(sieve, prime, x):
    """The tail local set at prime, built anew, applied to x."""
    mod = ideal_power(prime, sieve.tail.exponent)
    return LocalSet(mod, tuple(sorted({mod.reduce_coords(c) for c in sieve.label_points[prime.component]}))).hits(x)


def _walked_membership(sieve, x):
    """(member, prime, class_rep, checked) by the walk the candidate primes replaced: every tail
    prime of norm <= n in turn, as `_full_scan_tail_primes` lists them, the norm filter, then a
    fresh local set."""
    K, k = sieve.algebra, sieve.tail.exponent
    excepted = {ls.prime for ls in sieve.exceptions}
    checked = []
    for ls in sieve.exceptions:
        checked.append(ls.prime)
        if (hit := ls.hits(x)) is not None:
            return False, ls.prime, hit, checked
    for i, spec in enumerate(K.components):
        norms = [abs(spec.norm(tuple(a - b for a, b in zip(x.coords[i], c)))) for c in sieve.label_points[i]]
        if 0 in norms:
            prime = next(q for q in prime_ideals(K) if q.component == i and q not in excepted)
            return False, prime, _fresh_hit(sieve, prime, x), checked
        bound = max(norms, default=0)
        for prime in prime_ideals(K, integer_nthroot(bound, k)[0]):
            if prime.component != i or prime.norm**k > bound or prime in excepted:
                continue
            checked.append(prime)
            if any(nm % prime.norm**k == 0 for nm in norms) and (hit := _fresh_hit(sieve, prime, x)) is not None:
                return False, prime, hit, checked
    return True, None, None, checked


def _split_elements(spec, count):
    """(p, y): y in one quadratic component with |N(y)| = p, for the `count` least split p found in a small box."""
    found = {}
    for a in range(-12, 13):
        for b in range(1, 13):
            nm = abs(spec.norm((a, b)))
            if nm > 2 and nm not in found and is_prime_sympy(nm) and spec.disc % nm:
                found[nm] = (a, b)
    return sorted(found.items())[:count]


def _parity_elements(sieve, rng):
    """Random elements, and per label c elements c + y where y has a hit and two decoys, in each order.

    At a split p = pi * pi', the factor pi^(k-1) pi' puts p^k into the norm with no q^k dividing it
    (a decoy); pi^k is caught at pi.  On Q, y is a product of p^k over three primes.
    """
    K, k = sieve.algebra, sieve.tail.exponent
    labels = [K.from_int(c) if isinstance(c, int) else K.from_flat(c) for c in sieve.tail.labels]
    h = 1000 if k > 1 else 300  # an exponent-1 scan reaches the norm itself
    xs = [K.from_flat([rng.randint(-h, h) for _ in range(K.degree)]) for _ in range(3)]
    factors = []  # per component, (p, hit factor, decoy factor)
    for i, spec in enumerate(K.components):
        if spec.is_rational:
            ps = rng.sample([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31], 3)
            factors.append([(p, K.embed(i, [p**k]), K.embed(i, [p**k])) for p in ps])
        else:
            picked = sorted(rng.sample(_split_elements(spec, 5 if k <= 2 else 4), 3))
            elems = []
            for p, y in picked:
                pi = K.embed(i, y)
                conj = K.embed(i, spec.conj(y))
                power = K.one
                for _ in range(k - 1):
                    power = power * pi
                elems.append((p, power * pi, power * conj))
            factors.append(elems)
    for c in labels:
        for i, elems in enumerate(factors):
            for h in range(3):  # the hit at the first, the middle and the last of the three primes
                y = K.one
                for j, (_, hit, decoy) in enumerate(elems):
                    y = y * (hit if j == h else decoy)
                for other in range(len(K.components)):
                    if other != i:
                        y = y + K.embed(other, [rng.randint(-30, 30) for _ in range(K.components[other].degree)])
                xs.append(c + y)
            # one decoy, no hit
            xs.append(c + elems[0][2] * elems[1][2])
    return xs


def _parity_sieves(rng):
    """Q, Q(sqrt d) for d in 2, -1, -7, 13, 5, and products: k-free and shifted tails, k = 2-5, exceptions at
    split, inert and ramified primes above 2-7; the k = 1 presets and a k = 1 multi-label tail."""
    sieves = [kfree_sieve(QQ, 2), kfree_sieve(QQ, 3), *presets.pair_sieves(), presets.two_class_sieve(),
              *presets.exceptional_factor_sieves(),
              build_sieve(make_algebra([-1]), TailRule.shifted_kfree(1, [(0, 0), (1, 1), (-3, 2)]),
                          {split_prime(make_algebra([-1]), 2)[0]: (1, ())})]
    for spec in ([None], [2], [-1], [-7], [13], [5], [None, -7], [5, None], [2, -1]):
        K = make_algebra(spec)
        for k in (2, 3, rng.randint(4, 5)):
            labels = [rng.randint(-6, 6) if rng.random() < 0.5 else tuple(rng.randint(-5, 5) for _ in range(K.degree))
                      for _ in range(rng.randint(1, 2))]
            exceptions = []
            for q in rng.sample([q for p in (2, 3, 5, 7) for q in split_prime(K, p)], rng.randint(0, 3)):
                mod = ideal_power(q, rng.choice([1, 2]))
                exceptions.append(LocalSet(mod, tuple(sorted(rng.sample(list(mod.residues()), rng.randint(0, 2))))))
            tail = TailRule.kfree(k) if rng.random() < 0.3 else TailRule.shifted_kfree(k, labels)
            sieves.append(build_sieve(K, tail, exceptions))
    return sieves


def test_membership_matches_the_walk_over_candidate_primes():
    rng = random.Random(2701)
    seen = Counter()

    def check(sv, x):
        v = membership(sv, x)
        assert (v.member, v.prime, v.class_rep, list(v.checked)) == _walked_membership(sv, x), (str(sv), x)
        k = sv.tail.exponent
        for i, spec in enumerate(sv.algebra.components):
            if v.prime is not None and (v.prime.component != i or sv.exception_at(v.prime) is not None):
                continue
            norms = [abs(spec.norm(tuple(a - b for a, b in zip(x.coords[i], c)))) for c in sv.label_points[i]]
            if 0 in norms:
                continue
            n = integer_nthroot(max(norms, default=0), k)[0]
            candidates = sorted({p for nm in norms for p, e in factorint(nm).items() if e >= k and p <= n})
            seen["exception rows"] += any(ls.prime.component == i and ls.prime.norm <= n for ls in sv.exceptions)
            hit = v.prime.p if v.prime is not None else None
            seen["decoys"] += len([p for p in candidates if hit is None or p < hit])
            if hit is not None and len(candidates) >= 3:
                place = candidates.index(hit)
                seen[("first", "last")[place > 0] if place in (0, len(candidates) - 1) else "middle"] += 1
            seen[("k = 1" if k == 1 else "k >= 2", v.member)] += 1

    for sv in _parity_sieves(rng):
        for x in _parity_elements(sv, rng):
            check(sv, x)
    sq, cube = kfree_sieve(QQ, 2), kfree_sieve(QQ, 3)
    for x in (999_999_999_989, 999_999_999_988, 997**2 * 1_000_003, 7**2 * 142_841**2, -(999_983**2), 2**40 - 1,
              rng.randint(10**11, 10**12), -rng.randint(10**11, 10**12)):
        check(sq, QQ.from_int(x))
    for x in (9_999_999_967 * 3, 101**3 * 9_973**3, rng.randint(10**11, 10**12)):
        check(cube, QQ.from_int(x))
    # primes p with p - 1 = 2^a 3^b: under tails {0, 1} with nothing at 2 and 3, p itself is the first catch
    two, pair_r, pair_s = presets.two_class_sieve(), *presets.pair_sieves()
    for p in (97, 769, 12289, 139969):
        for sv in (two, pair_r, pair_s):
            check(sv, QQ.from_int(p))
    for sv in presets.exceptional_factor_sieves():
        for _ in range(20):
            check(sv, QQ.from_int(rng.randint(-10**6, 10**6)))
    for d in (2, -1, -7, 13, 5):
        K = make_algebra([d])
        for k in (2, 3):
            sv = kfree_sieve(K, k)
            for _ in range(3):
                check(sv, K.element([[rng.randint(-10**5, 10**5), rng.randint(-10**5, 10**5)]]))
    assert all(seen[key] for key in ("first", "middle", "last", "decoys", "exception rows")), seen
    assert all(seen[kind, member] for kind in ("k = 1", "k >= 2") for member in (True, False)), seen


def test_a_second_membership_at_the_same_prime_builds_no_local_set(monkeypatch):
    built = []
    post_init = LocalSet.__post_init__
    monkeypatch.setattr(LocalSet, "__post_init__", lambda ls: built.append(ls.prime) or post_init(ls))
    K = make_algebra([-1])
    sv = kfree_sieve(K, 2)
    first = membership(sv, K.element([[10, 5]]))  # (2 + w)^2 (2 - w): both primes above 5 are tested
    assert not first.member and len(built) == 2
    built.clear()
    again = membership(sv, K.element([[10, 5]]))
    other = membership(sv, K.element([[15, 20]]))  # 5 (3 + 4w) = (2 + w)^3 (2 - w) * unit
    assert again == first and not other.member and other.prime == first.prime and built == []


def test_sieves_over_one_algebra_share_one_prime_table(monkeypatch):
    K = make_algebra([-7])
    monkeypatch.setattr(rings, "_PRIME_ROWS", {})
    two = split_prime(K, 2)[0]  # 2 splits in Q(sqrt -7)
    sieves = [kfree_sieve(K, 2), kfree_sieve(K, 3), build_sieve(K, TailRule.kfree(2), [LocalSet(ideal_power(two, 1), ())])]
    tables = []
    for sv in sieves:
        assert list(sieve_mod._tail_primes(sv, 10**6)) == _full_scan_tail_primes(sv, 10**6)
        assert membership(sv, K.from_int(30)).member
        tables.append((rings._PRIME_ROWS[K], rings._PRIME_ROWS[K].limit))
    # one object for all three, listed by the first sieve's scan and never again
    assert all(table is tables[0][0] for table, _ in tables)
    assert tables[0][1] >= 1000 and [limit for _, limit in tables] == [tables[0][1]] * 3


def test_prime_rows_kept_stay_within_their_budget(monkeypatch):
    # past the budget the oldest other algebras' tables are dropped, the table a scan has just grown
    # is kept, and every scan still reads whole rows
    K, L = make_algebra([-7]), make_algebra([None, 2])
    small, big = kfree_sieve(K, 2), kfree_sieve(L, 2)
    expected = {(sv, n): _full_scan_tail_primes(sv, n * n) for sv in (small, big) for n in (100, 1000)}
    monkeypatch.setattr(rings, "_PRIME_ROWS", {})
    monkeypatch.setattr(rings, "_MAX_KEPT_ROWS", 300)

    def scan(sv, n):
        assert list(sieve_mod._tail_primes(sv, n * n)) == expected[sv, n], (str(sv), n)
        kept = sum(len(primes) for rows in rings._PRIME_ROWS.values() for _, primes in rows.component_rows)
        assert kept <= 300 or list(rings._PRIME_ROWS) == [sv.algebra], (str(sv), n, kept)

    scan(small, 100)
    first = rings._PRIME_ROWS[K]
    scan(big, 100)
    assert list(rings._PRIME_ROWS) == [K, L] and rings._PRIME_ROWS[K] is first
    # over 300 rows above p <= 1000 in Q x Q(sqrt 2): K's table goes, and L's, just grown, stays
    scan(big, 1000)
    grown = rings._PRIME_ROWS[L]
    assert list(rings._PRIME_ROWS) == [L]
    # a repeat scan reads the kept rows and splits no prime again
    splits, splitting = [], rings._splitting
    monkeypatch.setattr(rings, "_splitting", lambda algebra, p: splits.append(p) or splitting(algebra, p))
    scan(big, 1000)
    assert splits == [] and rings._PRIME_ROWS[L] is grown
    # K's new table grows past the budget beside L's: L's is now the oldest other, and goes
    scan(small, 100)
    assert list(rings._PRIME_ROWS) == [K] and rings._PRIME_ROWS[K] is not first
    for sv, n in expected:
        scan(sv, n)
    assert membership(big, L.from_int(15)).member and not membership(big, L.from_int(12)).member


def test_a_sieve_never_yields_its_own_exception_prime():
    K, P = make_algebra([2]), make_algebra([None, 2])  # in Q(sqrt 2): 2 ramifies, 3 is inert, 7 splits
    cases = [(K, q) for p in (2, 3, 7) for q in split_prime(K, p)] + [(P, q) for q in split_prime(P, 7)]
    kinds = set()
    for algebra, q in cases:
        kinds.add(q.kind)
        for tail in (TailRule.kfree(2), TailRule.shifted_kfree(2, [0, 4])):
            free = build_sieve(algebra, tail)
            sv = build_sieve(algebra, tail, [LocalSet(ideal_power(q, 1), ())])
            assert q in _full_scan_tail_primes(free, 10**4)
            for max_norm in (10, 10**4):
                assert list(sieve_mod._tail_primes(sv, max_norm)) == [
                    r for r in sieve_mod._tail_primes(free, max_norm) if r != q], (str(sv), q, max_norm)
            # 97 splits in Q(sqrt 2), so its primes are scanned too; q is checked once, as the exception
            v = membership(sv, algebra.from_int(97))
            assert v.member and v.checked[0] == q and v.checked.count(q) == 1, (str(sv), q)
    assert kinds == {"rational", "split", "inert", "ramified"}


def test_prime_rows_grown_by_threads_match_one_thread(monkeypatch):
    # four threads race through the same rising bounds on sieves over one algebra
    K = make_algebra([None, -7])
    exception = LocalSet(ideal_power(split_prime(K, 2)[1], 1), ())
    bounds = list(range(20, 3000, 20))

    def scans(sv):
        return [list(sieve_mod._tail_primes(sv, n * n)) for n in bounds]

    def rows_upto(n):
        rows = rings.prime_rows(K)
        rows.upto(n)
        return [(ps[:end], primes[:end]) for ps, primes in rows.component_rows for end in [bisect_right(ps, n)]]

    sieves = [kfree_sieve(K, 2), build_sieve(K, TailRule.kfree(2), [exception])]
    monkeypatch.setattr(rings, "_PRIME_ROWS", {})
    expected = [scans(sv) for sv in sieves]
    alone = rows_upto(bounds[-1])
    monkeypatch.setattr(rings, "_PRIME_ROWS", {})
    start = threading.Barrier(4)
    wrong = []

    def work(i):
        start.wait()
        if scans(sieves[i % 2]) != expected[i % 2]:
            wrong.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not wrong and rows_upto(bounds[-1]) == alone


def test_cold_membership_scan_in_a_fresh_process():
    # 43,934 tail primes up to |N(2 - 531443)| = 3^12, read from the prime table and not
    # re-proved: about 0.25 s in a fresh interpreter, imports included
    src = str(Path(ringsieve.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import time\n"
        "start = time.perf_counter()\n"
        "from ringsieve import QQ\n"
        "from ringsieve.sieve import membership, parse_sieve_file\n"
        "sv = parse_sieve_file('algebra Q\\ntail classes 0,531443\\nexception 2 1 : -\\nexception 3 1 : -\\n')\n"
        "v = membership(sv, QQ.from_int(2))\n"
        "print(v.member, len(v.checked), time.perf_counter() - start)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    member, checked, seconds = proc.stdout.split()
    assert (member, checked) == ("True", "43934") and float(seconds) < 5, proc.stdout


def test_enumerate_refuses_a_box_over_budget(squarefree_q, k2, monkeypatch):
    # boxes of 2^22 + 1 and 2049^2 points: refused before any band is marked
    monkeypatch.setattr(sieve_mod, "_member_bands", None)
    for sv, bound in ((squarefree_q, sieve_mod._MAX_BOX_POINTS // 2), (kfree_sieve(k2, 2), 1024)):
        with pytest.raises(BudgetExceeded, match="budget"):
            enumerate_V(sv, bound)


def test_box_readers_refuse_a_box_over_budget(squarefree_q, k2, monkeypatch):
    # a component box over 2^28 points, or a tail-prime scan past 10^7, is
    # refused before any prime is listed or any band is marked (building a
    # sieve lists the primes of norm up to 1: none)
    tail_primes = sieve_mod._tail_primes

    def no_scan(sieve, max_norm, component=None):
        assert max_norm <= 1, "a prime scan started"
        return tail_primes(sieve, max_norm, component)

    monkeypatch.setattr(sieve_mod, "_tail_primes", no_scan)
    for name in ("_member_mask", "coset_points"):
        monkeypatch.setattr(sieve_mod, name, None)
    big = build_sieve(make_algebra([2_000_003]), TailRule.kfree(2))
    for sv, bound, error in (
        (squarefree_q, sieve_mod._MAX_GRID_CLASSES // 2, "budget"),  # 2^28 + 1 points
        (kfree_sieve(k2, 2), 10**9, "budget"),
        (big, 8000, "primes up to"),  # |N| up to about 1.3e14, sqrt past 10^7
        (build_sieve(QQ, TailRule.classes_mod_p([0])), 10**7 + 1, "primes up to"),
    ):
        for fn in (count_members, empirical_density):
            with pytest.raises(BudgetExceeded, match=error):
                fn(sv, bound)
        if sv.tail.exponent >= 2:
            with pytest.raises(BudgetExceeded, match=error):
                tail_count(sv.algebra, 2, bound, 10)


def _box_oracle(sieve, i, a0, b0, H, W):
    """Component i's members of the box, one `membership` call per point.

    The other components hold a fixed member, so x is a member iff its
    component i is.
    """
    base = next(x for x in sieve.algebra.box(3) if membership(sieve, x).member)
    n = sieve.algebra.components[i].degree
    out = []
    for a in range(a0, a0 + H):
        for b in range(b0, b0 + W):
            coords = list(base.coords)
            coords[i] = lattices.grid_coords(a, b, n)
            out.append(membership(sieve, sieve.algebra.element(coords)).member)
    return out


def _mask_sieves():
    k2, ki, q_k2 = make_algebra([2]), make_algebra([-1]), make_algebra([None, 2])
    ram, inert, split = split_prime(k2, 2)[0], split_prime(k2, 3)[0], split_prime(k2, 7)[1]
    return [
        kfree_sieve(QQ, 2),
        build_sieve(QQ, TailRule.shifted_kfree(2, [0, 2, -5]), {q_prime(3): (1, ((1,),))}),
        build_sieve(k2, TailRule.kfree(2), {ram: (3, ((0, 0), (1, 1))), inert: (1, ((1, 2),)), split: (1, ((3, 0),))}),
        build_sieve(ki, TailRule.shifted_kfree(2, [(0, 0), (1, 1), (-3, 2)]), {split_prime(ki, 5)[0]: (1, ())}),
        build_sieve(q_k2, TailRule.shifted_kfree(2, [0, 1]), {split_prime(q_k2, 3)[1]: (1, ((2, 1),))}),
        build_sieve(q_k2, TailRule.shifted_kfree(3, [(0, 0, 0), (4, -3, 2)])),
        build_sieve(make_algebra([-1, 2]), TailRule.kfree(2), {split_prime(make_algebra([-1, 2]), 2)[0]: (1, ())}),
        build_sieve(k2, TailRule.empty(), {inert: (2, ((0, 0), (3, 1)))}),
    ]


MASK_SIEVES = _mask_sieves()


@settings(max_examples=60, deadline=None)
@given(
    which=st.integers(0, len(MASK_SIEVES) - 1),
    comp=st.integers(0, 1),
    a0=st.integers(-60, 20),
    b0=st.integers(-40, 40),
    H=st.integers(1, 40),
    W=st.integers(1, 40),
)
def test_member_mask_matches_membership_off_origin(which, comp, a0, b0, H, W):
    sv = MASK_SIEVES[which]
    i = comp % len(sv.algebra.components)
    spec = sv.algebra.components[i]
    b0, W = lattices.grid_columns(spec.degree, b0, W)
    labels = sieve_mod._forbidden_cosets(sv, i, 0)[1]
    reach = max(abs(a0), abs(a0 + H - 1), abs(b0), abs(b0 + W - 1)) + max(
        (abs(v) for c in labels for v in c), default=0
    )
    forbidden = sieve_mod._forbidden_cosets(sv, i, sieve_mod._norm_bound(spec, reach, reach))
    mask = sieve_mod._member_mask(forbidden, a0, b0, H, W, np.zeros(H * W + 7, dtype=bool))
    assert mask.tolist() == _box_oracle(sv, i, a0, b0, H, W)


def _all_cosets_members(sv, bound):
    """Per component, (mask, b0, W, max norm): the box members, the exception classes and each tail prime's
    label classes up to the box's norm bound marked with `coset_points`, every q^k one coset however far
    past the box, its HNF from `ideal_power`.
    """
    out, k = [], sv.tail.exponent
    for i, (spec, max_norm) in enumerate(zip(sv.algebra.components, sieve_mod._box_norm_bounds(sv, bound))):
        H = 2 * bound + 1
        b0, W = lattices.grid_columns(spec.degree, -bound, H)
        cosets, labels = sieve_mod._forbidden_cosets(sv, i, 0)
        cosets += [(lattices.grid_hnf(ideal_power(q, k).hnf), c) for q in sieve_mod._tail_primes(sv, max_norm, i)
                   for c in labels]
        mask = sieve_mod._member_mask((cosets, labels), -bound, b0, H, W, np.empty(H * W, bool)).reshape(H, W)
        out.append((mask, b0, W, max_norm))
    return out


def _far_label_case(rng, params):
    """A seeded sieve over make_algebra(params) with near and far tail labels and exceptions, and its bound.

    Far labels are x + p^k * t for a box point x and a prime p of a drawn kind, so every prime above
    p catches x however far the label lies; exceptions sit at such primes and at drawn ones, with
    and without classes.
    """
    K, k, bound = make_algebra(params), rng.choice((1, 1, 2, 3)), rng.randint(1, 3)
    # the reach that keeps the k-th root of the box's norm bound, and so the oracle's prime scan, near 5 * 10^3
    reach = min(integer_nthroot((5 * 10**3) ** k // (1 if d is None else 1 + abs(d)), 1 if d is None else 2)[0]
                for d in params)
    rows = [q for p in primes_upto(60) for q in split_prime(K, p)]
    labels, primes = [], []
    for _ in range(rng.randint(1, 3)):
        q = rng.choice(rows)
        pk = q.p**k
        x = [rng.randint(-bound, bound) for _ in range(K.degree)]
        t = [rng.choice((-1, 1)) * rng.randint(0, max(0, reach - bound) // pk) for _ in range(K.degree)]
        if rng.random() < 0.3:  # an int label: the same point on every component
            labels.append(x[0] + pk * t[0])
        else:
            labels.append(tuple(a + pk * b for a, b in zip(x, t)))
        primes.append(q)
    if rng.random() < 0.5:  # a near label
        labels.append(rng.randint(-bound, bound) if rng.random() < 0.5
                      else tuple(rng.randint(-bound, bound) for _ in range(K.degree)))
    exceptions = {}
    for q in rng.sample(primes, rng.randint(0, len(primes))) + rng.sample(rows, rng.randint(0, 2)):
        for r in split_prime(K, q.p) if rng.random() < 0.5 else (q,):
            if r.component == q.component:
                mod = ideal_power(r, rng.randint(1, 2))
                c = mod.reduce_coords(tuple(rng.randint(-9, 9) for _ in range(r.spec.degree)))
                exceptions[r] = (mod.k, [] if rng.random() < 0.5 else [c])
    sv = build_sieve(K, TailRule.shifted_kfree(k, labels), exceptions)
    return (sv, bound) if sv.non_large else None


PARITY_FIELDS = [[None], [2], [-1], [-7], [5], [None, -7], [5, -1]]


def test_box_readers_match_every_coset_on_far_labels():
    # count_members and enumerate_V read far tail rows as columns (`_lone_points`); the oracle marks
    # every tail prime up to the box's norm bound as its own coset
    rng = random.Random(31)
    met, skipped, exceptions = set(), 0, set()
    for n in range(70):
        if (case := _far_label_case(rng, PARITY_FIELDS[n % len(PARITY_FIELDS)])) is None:
            continue
        sv, bound = case
        exceptions |= {(ls.prime.kind, bool(ls.classes)) for ls in sv.exceptions}
        comps, k = _all_cosets_members(sv, bound), sv.tail.exponent
        blocks = [[lattices.grid_coords(-bound + r, b0 + c, spec.degree) for r, c in np.argwhere(mask).tolist()]
                  for spec, (mask, b0, W, _) in zip(sv.algebra.components, comps)]
        assert count_members(sv, bound) == math.prod(map(len, blocks)), format_sieve(sv)
        if (2 * bound + 1) ** sv.algebra.degree <= 400:
            assert [x.coords for x in enumerate_V(sv, bound)] == list(itertools.product(*blocks)), format_sieve(sv)
        # which far rows met the box, by kind
        for i, (spec, (mask, b0, W, max_norm)) in enumerate(zip(sv.algebra.components, comps)):
            H, labels = 2 * bound + 1, sieve_mod._forbidden_cosets(sv, i, 0)[1]
            for q in prime_ideals(sv.algebra, sieve_mod._iroot(max_norm, k)):
                h = lattices.grid_hnf(ideal_power(q, k).hnf)
                if q.component != i or h[0][0] <= 2 * bound or q.norm**k > max_norm:
                    continue
                hit = ~sieve_mod._member_mask(([(h, c) for c in labels], []), -bound, b0, H, W, np.empty(H * W, bool))
                if sv.exception_at(q) is not None:
                    skipped += bool((hit & mask.ravel()).any())  # a member the tail classes at q would reject
                elif hit.any():
                    met.add(q.kind)
    assert met == {"rational", "split", "inert", "ramified"} and skipped, (met, skipped)
    assert exceptions == {(kind, c) for kind in ("rational", "split", "inert", "ramified") for c in (False, True)}


def test_far_rows_leave_int64_where_their_products_could_wrap():
    # `_member_bands` reads far rows in int64 only while (max norm + 1) * (reach + 1) < 2^63, which bounds
    # |c0 + ((b - c1)/gamma) * beta|; past it, Python ints.  Over Q(sqrt 2) with k = 6, each label is
    # caught at x, far past the box: 7^6 * t + x by both primes above 7, and the last one by
    # q = (47, w - 7) alone, with a box norm bound below 2^63 but (b - c1) * beta past it at q's row
    K, bound, x = make_algebra([2]), 2, (1, -1)
    q = split_prime(K, 47)[0]
    for label, fits in (((1 + 7**6 * 11, -1 + 7**6 * 12), True), ((1 + 7**6 * 12, -1 + 7**6 * 13), False),
                        ((139498, 1700007456), False)):
        sv = build_sieve(K, TailRule.shifted_kfree(6, [label]))
        max_norm, reach = sieve_mod._box_norm_bounds(sv, bound)[0], bound + max(map(abs, label))
        assert ((max_norm + 1) * (reach + 1) < 2**63) == fits, label
        members = [y.coords for y in K.box(bound) if membership(sv, y).member]
        assert sorted(y.coords for y in enumerate_V(sv, bound)) == sorted(members) and ((x,) not in members)
        assert count_members(sv, bound) == len(members)
    (alpha, _), (beta, _) = ideal_power(q, 6).hnf
    assert ideal_power(q, 6).contains(K.element([label]) - K.element([x])) and 2 * bound < alpha <= max_norm
    assert max_norm < 2**63 <= label[1] * beta

def test_enumerate_spot_check_catches_a_wrong_mask(squarefree_q, monkeypatch):
    # a marker that drops every exception and tail class lists 4, which membership rejects
    monkeypatch.setattr(sieve_mod, "coset_points", lambda *args: iter(()))
    with pytest.raises(VerificationFailed, match="membership rejects"):
        enumerate_V(squarefree_q, 4)


def test_box_readers_refuse_a_large_sieve():
    covering = build_sieve(QQ, TailRule.classes_mod_p([0, 1]))
    for fn in (enumerate_V, count_members, empirical_density):
        with pytest.raises(PreconditionFailed, match="non-large"):
            fn(covering, 5)


def test_negative_bounds_rejected(squarefree_q, k2):
    for sv in (squarefree_q, kfree_sieve(k2, 2)):
        for fn in (count_members, empirical_density, enumerate_V):
            with pytest.raises(PreconditionFailed, match="bound"):
                fn(sv, -3)
    with pytest.raises(PreconditionFailed, match="bound"):
        tail_count(k2, 2, -5, 2)
    with pytest.raises(PreconditionFailed, match="cutoff"):
        tail_count(QQ, 2, 5, -1)
    assert count_members(squarefree_q, 0) == 0 and tail_count(k2, 2, 0, 2) == 0


def test_tail_count_examples_and_trend():
    assert tail_count(QQ, 2, 50, 10) == 0
    assert tail_count(QQ, 2, 200, 10) == 8
    # frozen from the double-loop divisor oracle
    trend = [(10, 11556), (20, 5892), (40, 2924), (80, 1354), (160, 482)]
    for m, expected in trend:
        assert tail_count(QQ, 2, 10**5, m) == expected
    for (m1, c1), (m2, c2) in zip(trend, trend[1:]):
        assert c2 <= c1  # monotone in M
    with pytest.raises(PreconditionFailed):
        tail_count(QQ, 1, 100, 10)


def test_tail_count_quadratic_matches_oracle(k2, monkeypatch):
    # frozen from the ideal-valuation oracle
    assert tail_count(k2, 2, 8, 2) == 28
    cases = [
        ([-1], 2, 40, 20, 104),
        ([13], 3, 30, 2, 318),
        ([5], 2, 40, 5, 312),
        ([None, 2], 2, 5, 3, 282),
        ([-1, 2], 2, 4, 10, 288),
        ([None, None], 2, 30, 7, 316),
        # cutoffs above the band size (with 50-point bands the product takes the sort path)
        ([-1], 2, 70, 55, 72),
        ([2], 2, 60, 60, 20),
        ([None, -1], 2, 12, 60, 648),
    ]
    for spec, k, x, m, expected in cases:
        assert tail_count(make_algebra(spec), k, x, m) == expected
    # bands of a few rows (the zero point inside one of them) count the same
    monkeypatch.setattr(lattices, "_SEGMENT_CLASSES", 50)
    monkeypatch.setattr(lattices, "_CHUNK_POINTS", 4)
    for spec, k, x, m, expected in cases:
        assert tail_count(make_algebra(spec), k, x, m) == expected


def test_sieve_file_roundtrip(k2):
    sv = build_sieve(
        k2, TailRule.kfree(2), {split_prime(k2, 2)[0]: (2, ((0, 0), (1, 1)))}
    )
    assert parse_sieve_file(format_sieve(sv)) == sv
    text = "algebra Q\ntail classes 0,1\nexception 2 1 : -\nexception 3 1 : -\n"
    sv2 = parse_sieve_file(text)
    assert sv2.non_large and len(sv2.exceptions) == 2


# ---------------------------------------------------------------------------
# membership against sympy factorizations


@settings(max_examples=200, deadline=None)
@given(
    x=st.integers(-10**6, 10**6),
    scale=st.sampled_from([1, 4, 8, 9, 27, 25, 49, 16 * 9, 121 * 8]),
    k=st.sampled_from([2, 3]),
    labels=st.lists(st.integers(-30, 30), min_size=1, max_size=3, unique=True),
)
@example(x=0, scale=1, k=2, labels=[0])
@example(x=7, scale=1, k=2, labels=[7, -2])
def test_rational_membership_matches_factorint(x, scale, k, labels):
    # x - c is caught at p iff p^k divides it; the verdict names the least such p over the labels,
    # and an accepted x has checked every p with p^k <= max |x - c|
    x *= scale
    sieve = kfree_sieve(QQ, k) if labels == [0] else build_sieve(QQ, TailRule.shifted_kfree(k, labels))
    v = membership(sieve, QQ.from_int(x))
    if x in labels:
        assert (v.member, v.prime.p, v.class_rep) == (False, 2, (x % 2**k,))
        return
    bad = [p for c in labels for p, e in factorint(x - c).items() if e >= k]
    if bad:
        p = min(bad)
        assert (v.member, v.prime.p, v.class_rep) == (False, p, (x % p**k,))
    else:
        top = integer_nthroot(max(abs(x - c) for c in labels), k)[0]
        assert v.member and [q.p for q in v.checked] == list(primerange(2, top + 1))


QUADRATIC_ORACLE_FIELDS = [2, 3, 5, 6, -1, -2, -3, -5, -7, 13, 17, -15, 33]


def roots_mod_prime_power(d, p, k):
    """The roots of w's polynomial mod p^k at a split p, via sympy's sqrt_mod.

    x^2 - d for d = 2, 3 mod 4; for d = 1 mod 4, x^2 - x - (d - 1)/4, where
    4(x^2 - x - t) = (2x - 1)^2 - d, so x = (y + 1)/2 for y^2 = d mod 4p^k.
    """
    if d % 4 != 1:
        return set(sympy_sqrt_mod(d, p**k, all_roots=True))
    return {(y + 1) // 2 % p**k for y in sympy_sqrt_mod(d, 4 * p**k, all_roots=True)}


def kfree_violation(d, k, a, b):
    """(p, kind, root mod p or None) of the first q^k containing a + b*w, or None."""
    disc = d if d % 4 == 1 else 4 * d
    nm = make_algebra([d]).element([(a, b)]).norm()
    for p, e in sorted(factorint(abs(nm)).items()):
        if disc % p == 0:
            if e >= k:  # ramified: v_q(x) = v_p(N(x))
                return p, "ramified", None
        elif (d % 8 == 1) if p == 2 else legendre_symbol(d % p, p) == 1:
            hit = sorted(r % p for r in roots_mod_prime_power(d, p, k) if (a + b * r) % p**k == 0)
            if hit:
                return p, "split", hit[0]
        elif e >= 2 * k:  # inert: v_q(x) = v_p(N(x)) / 2
            return p, "inert", None
    return None


@settings(max_examples=300, deadline=None)
@given(
    d=st.sampled_from(QUADRATIC_ORACLE_FIELDS),
    k=st.sampled_from([2, 3]),
    y=st.tuples(st.integers(-40, 40), st.integers(-40, 40)),
    z=st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    j=st.integers(0, 4),
)
def test_quadratic_membership_matches_norm_factorization(d, k, y, z, j):
    # x = y * z^j, so small-norm z give repeated prime factors at split, inert and ramified p
    K = make_algebra([d])
    x = K.element([y])
    for _ in range(j):
        x = x * K.element([z])
    v = membership(kfree_sieve(K, k), x)
    if x.is_zero():
        assert not v.member and v.prime == split_prime(K, 2)[0]
        return
    expected = kfree_violation(d, k, *x.coords[0])
    if expected is None:
        assert v.member
    else:
        assert not v.member and v.class_rep == (0, 0)
        assert (v.prime.p, v.prime.kind, v.prime.root if v.prime.kind == "split" else None) == expected
