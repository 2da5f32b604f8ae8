import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import factorint, integer_nthroot, legendre_symbol, primerange
from sympy.ntheory import sqrt_mod as sympy_sqrt_mod

from ringsieve import QQ, lattices, make_algebra, reduce_mod, split_prime, ideal_power
from ringsieve import sieve as sieve_mod
from ringsieve.errors import BudgetExceeded, ClassOutOfRange, PreconditionFailed, TailNotBoundable, VerificationFailed
from ringsieve.intervals import _round_down, _round_up
from ringsieve.primes import primes_upto
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
    tail = _tail_sum_bound(sieve.algebra.degree, len(sieve.tail.labels), sieve.tail.exponent, cutoff)
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


def test_enumerate_refuses_a_box_over_budget(squarefree_q, k2, monkeypatch):
    # boxes of 2^22 + 1 and 2049^2 points: refused before any band is marked
    monkeypatch.setattr(sieve_mod, "_member_bands", None)
    for sv, bound in ((squarefree_q, sieve_mod._MAX_BOX_POINTS // 2), (kfree_sieve(k2, 2), 1024)):
        with pytest.raises(BudgetExceeded, match="budget"):
            enumerate_V(sv, bound)


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
