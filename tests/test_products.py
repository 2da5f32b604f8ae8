"""Product algebras exercised through every layer."""

import itertools
import math

from ringsieve import algebra_isomorphisms, ideal_power, make_algebra, split_prime
from ringsieve.localglobal import check_local_surjectivity
from ringsieve.shiftspace import conjugacy_search
from ringsieve.sieve import enumerate_V, kfree_sieve, membership


def test_product_membership_and_enumeration():
    mixed = make_algebra([None, 2])
    sv = kfree_sieve(mixed, 2)
    assert membership(sv, mixed.element([(6,), (1, 1)])).member
    v = membership(sv, mixed.element([(4,), (1, 0)]))
    assert not v.member and v.prime.component == 0 and v.prime.p == 2
    # a zero component is divisible by every prime power there
    assert not membership(sv, mixed.element([(0,), (1, 0)])).member
    assert len(enumerate_V(sv, 1)) == 16


def test_product_prime_layout():
    mixed = make_algebra([None, 2])
    over2 = split_prime(mixed, 2)
    assert [q.kind for q in over2] == ["rational", "ramified"]
    assert [q.component for q in over2] == [0, 1]


def test_product_conjugacy_across_orderings():
    mixed = make_algebra([None, 2])
    swapped = make_algebra([2, None])
    isos = algebra_isomorphisms(mixed, swapped)
    assert len(isos) == 2  # swap, with id or conjugation on the quadratic part
    res = conjugacy_search(kfree_sieve(mixed, 2), kfree_sieve(swapped, 2))
    assert res.status == "witness" and not res.tau.is_identity()
    assert conjugacy_search(kfree_sieve(mixed, 2), kfree_sieve(swapped, 3)).status == "provably_not"


def test_product_surjectivity():
    mixed = make_algebra([None, 2])
    rep = check_local_surjectivity(mixed, 2, 3)
    # inclusion-exclusion: 9^3 - (81 + 9 - 1)
    assert rep.n_classes == 729 and rep.v_classes == 640
    assert rep.surjective
    # k-free is componentwise: the report is built from the components' reports
    for spec, v in (([None, 2], 640), ([-1, 2], 6400)):
        algebra = make_algebra(spec)
        rep = check_local_surjectivity(algebra, 2, 3)
        parts = [check_local_surjectivity(make_algebra([d]), 2, 3) for d in spec]
        assert rep.v_classes == v == math.prod(r.v_classes for r in parts)
        assert rep.n_classes == math.prod(r.n_classes for r in parts)
        assert rep.max_witness_height == max(r.max_witness_height for r in parts)
        assert rep.reverified == math.prod(r.reverified for r in parts)
        assert rep.fallback_classes == v - math.prod(r.v_classes - r.fallback_classes for r in parts)
        rows = list(itertools.islice(itertools.product(*(list(r.items()) for r in parts)), 4096))
        table = list(rep.items())
        assert len(table) == min(v, 4096)
        assert [c for c, _ in table] == [c1 + c2 for (c1, _), (c2, _) in rows]
        assert [w.coords for _, w in table] == [(w1.coords[0], w2.coords[0]) for (_, w1), (_, w2) in rows]
        sieve = kfree_sieve(algebra, 2)
        primes = split_prime(algebra, 3)
        for cls, w in table:
            assert membership(sieve, w).member
            assert all(ideal_power(q, 2).contains(w - algebra.from_flat(cls)) for q in primes)
