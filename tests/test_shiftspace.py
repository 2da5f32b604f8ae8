import math
import random

import pytest

from ringsieve import QQ, algebra_isomorphisms, ideal_power, make_algebra, split_prime, units_up_to
from ringsieve.errors import BudgetExceeded
from ringsieve.lattices import quotient_residues
from ringsieve.linmaps import ZLinearMap
from ringsieve.presets import (
    NEIGHBOR_FLIP_EXPECTED,
    PAIR_EXPECTED,
    adjacent_pair_code,
    exceptional_factor_code,
    exceptional_factor_sieves,
    neighbor_flip_code,
    neighbor_flip_demo_pattern,
    pair_demo_patterns,
    pair_sieves,
    two_class_sieve,
)
from ringsieve.primes import primes_upto
from ringsieve.rings import prime_ideals
from ringsieve.shiftspace import (
    Pattern,
    WindowCode,
    _prime_image,
    apply_block_code,
    conjugacy_search,
    count_admissible,
    derived_local_set,
    format_code,
    format_pattern,
    int_pattern,
    interior_points,
    is_admissible,
    orbit_approximation,
    parse_code_file,
    parse_pattern_file,
    random_admissible,
    subset_of_translate,
    symmetry_scan,
    translate_between,
    verify_intertwiner,
)
from ringsieve.sieve import (
    LocalSet,
    TailRule,
    build_sieve,
    kfree_sieve,
    local_set,
    membership,
)


def q_prime(p):
    return split_prime(QQ, p)[0]


# ---------------------------------------------------------------------------
# admissibility


def test_admissibility_examples(squarefree_q):
    assert is_admissible(squarefree_q, int_pattern([0, 4])).admissible
    res = is_admissible(squarefree_q, int_pattern([0, 1, 2, 3]))
    assert not res.admissible and res.violation.p == 2
    sym = two_class_sieve()
    demo, _ = neighbor_flip_demo_pattern()
    assert is_admissible(sym, demo).admissible


def test_admissibility_hereditary(squarefree_q):
    rng = random.Random(17)
    sym = two_class_sieve()
    code = neighbor_flip_code()
    for sieve, bases in ((squarefree_q, (int_pattern([0]), int_pattern([0, 2]))), (sym, code.patterns)):
        for i in range(150):
            x = random_admissible(sieve, rng, list(bases), copies=rng.randrange(1, 4))
            sub = Pattern.of(QQ, [e for e in x.elements if rng.random() < 0.6])
            assert is_admissible(sieve, sub).admissible


def test_admissibility_translation_invariant(squarefree_q):
    rng = random.Random(23)
    for _ in range(60):
        vals = rng.sample(range(0, 30), rng.randrange(1, 7))
        pat = int_pattern(vals)
        verdict = is_admissible(squarefree_q, pat).admissible
        t = rng.randrange(-50, 51)
        assert is_admissible(squarefree_q, pat.translate(QQ.from_int(t))).admissible == verdict


def shifted(mod, delta, c):
    """delta + c, reduced."""
    return mod.reduce_coords(tuple(a + b for a, b in zip(delta, c)))


def brute_admissibility(sieve, pattern):
    """(witnesses, violation) by definition: at each prime that can fail, tail primes first,
    the lex-first residue delta with (delta + R_p) disjoint from the pattern."""
    primes = []
    if sieve.tail.kind == "classes":
        bound = len(pattern) * len(sieve.tail.labels)
        k = sieve.tail.exponent
        primes = [q for q in prime_ideals(sieve.algebra, bound) if q.norm**k <= bound and sieve.exception_at(q) is None]
    witnesses = []
    for q in primes + [ls.prime for ls in sieve.exceptions]:
        ls = local_set(sieve, q)
        mod = ls.modulus
        xs = {mod.reduce_coords(x.coords[mod.component]) for x in pattern}
        free = (d for d in mod.residues() if not any(shifted(mod, d, c) in xs for c in ls.classes))
        delta = next(free, None)
        if delta is None:
            return witnesses, q
        witnesses.append((q, delta))
    return witnesses, None


def test_admissibility_witnesses_match_brute_force():
    rng = random.Random(13)
    k2, km3 = make_algebra([2]), make_algebra([-3])
    r3, s3 = exceptional_factor_sieves()
    sieves = [
        kfree_sieve(QQ, 2),
        two_class_sieve(),
        r3,
        s3,
        kfree_sieve(k2, 2),
        build_sieve(k2, TailRule.shifted_kfree(2, [(0, 0), (1, 1)]), {split_prime(k2, 7)[0]: (1, [(0, 0), (3, 0)])}),
        kfree_sieve(km3, 2),
        build_sieve(km3, TailRule.classes_mod_p([0, 1])),
    ]
    nonzero = violations = 0
    for sieve in sieves:
        algebra = sieve.algebra
        for _ in range(80):
            points = [[rng.randint(-9, 9) for _ in range(algebra.degree)] for _ in range(rng.randrange(0, 8))]
            pat = Pattern.of(algebra, map(algebra.from_flat, points))
            res = is_admissible(sieve, pat)
            witnesses, violation = brute_admissibility(sieve, pat)
            assert list(res.witnesses) == witnesses and res.violation == violation
            assert res.admissible == (violation is None)
            nonzero += sum(any(d) for _, d in witnesses)
            violations += violation is not None
    assert nonzero > 80 and violations > 200


def test_random_admissible_output_is_pinned(k2):
    rng = random.Random(5)
    x = random_admissible(two_class_sieve(), rng, list(neighbor_flip_code().patterns), copies=3)
    assert x.ints() == [2392, 2393, 6858, 7597, 7599] and rng.random() == 0.21672980046384815
    rng = random.Random(8)
    base = [Pattern.of(k2, [k2.from_int(0), k2.element([(1, 1)])]), Pattern.of(k2, [k2.from_int(0)])]
    x = random_admissible(kfree_sieve(k2, 2), rng, base, copies=3)
    assert str(x) == "{3,4+1*w,46+1*w,88+1*w,89+2*w}" and rng.random() == 0.08518526805075266


def test_count_admissible_examples(squarefree_q):
    assert count_admissible(squarefree_q, 8) == 175
    assert count_admissible(squarefree_q, 1) == 2
    empty = build_sieve(QQ, TailRule.empty())
    assert count_admissible(empty, 3) == 8


def test_count_admissible_matches_exhaustive_oracle(squarefree_q):
    # independent per-subset oracle at N = 12
    n = 12
    count = 0
    for mask in range(1 << n):
        pat = int_pattern([i for i in range(n) if mask >> i & 1])
        if is_admissible(squarefree_q, pat).admissible:
            count += 1
    assert count_admissible(squarefree_q, n) == count


# ---------------------------------------------------------------------------
# block codes


def test_involution_demo_image():
    code = neighbor_flip_code()
    x, known = neighbor_flip_demo_pattern()
    out = apply_block_code(code, x, known=known)
    assert tuple(out.ints()) == NEIGHBOR_FLIP_EXPECTED


def test_pair_demo_images():
    code = adjacent_pair_code()
    x1, x2 = pair_demo_patterns()
    box = int_pattern(range(0, 25))
    assert tuple(apply_block_code(code, x1, known=box).ints()) == PAIR_EXPECTED
    assert tuple(apply_block_code(code, x2, known=box).ints()) == PAIR_EXPECTED


def test_apply_empty_pattern():
    code = adjacent_pair_code()
    assert len(apply_block_code(code, int_pattern([]), complete=True)) == 0


def test_region_too_small():
    from ringsieve.errors import RegionTooSmall

    code = neighbor_flip_code()
    with pytest.raises(RegionTooSmall):
        apply_block_code(code, int_pattern([0]), known=int_pattern([0]))


def test_block_code_equivariance_exact():
    rng = random.Random(31)
    sym = two_class_sieve()
    code = neighbor_flip_code()
    for _ in range(30):
        x = random_admissible(sym, rng, code.patterns, copies=2)
        g = QQ.from_int(rng.randrange(-40, 41))
        left = apply_block_code(code, x.translate(g), complete=True)
        right = apply_block_code(code, x, complete=True).translate(g)
        assert left.elements == right.elements


def test_involution_property():
    # applying the flip twice returns the original on any full configuration
    rng = random.Random(37)
    sym = two_class_sieve()
    code = neighbor_flip_code()
    for _ in range(30):
        x = random_admissible(sym, rng, code.patterns, copies=3)
        once = apply_block_code(code, x, complete=True)
        twice = apply_block_code(code, once, complete=True)
        assert twice.elements == x.elements


def test_intertwiner_demos_pass():
    sym = two_class_sieve()
    assert verify_intertwiner(neighbor_flip_code(), sym, sym, trials=100, seed=1).ok
    r, s = pair_sieves()
    assert verify_intertwiner(adjacent_pair_code(), r, s, trials=100, seed=2).ok
    r3, s3 = exceptional_factor_sieves()
    assert verify_intertwiner(exceptional_factor_code(), r3, s3, trials=100, seed=3).ok


def test_pair_preimage_formula():
    # y in Y or y-1 in Y reconstructs a preimage of Y under the pair code
    rng = random.Random(41)
    r, s = pair_sieves()
    code = adjacent_pair_code()
    for _ in range(25):
        y = random_admissible(s, rng, [int_pattern([0])], copies=3)
        pre = Pattern.of(QQ, [e for e in y.elements] + [e + QQ.from_int(1) for e in y.elements])
        assert is_admissible(r, pre).admissible
        image = apply_block_code(code, pre, complete=True)
        assert image.elements == y.elements


def test_corrupted_family_fails():
    # dilating every admissible set produces runs that the two-class sieve forbids
    sym = two_class_sieve()
    window = int_pattern([-1, 0, 1])
    all_nonempty = tuple(
        int_pattern(c)
        for size in (1, 2, 3)
        for c in __import__("itertools").combinations([-1, 0, 1], size)
    )
    corrupted = WindowCode(ZLinearMap.identity(QQ), window, all_nonempty)
    rep = verify_intertwiner(corrupted, sym, sym, trials=40, seed=5)
    assert not rep.ok and rep.admissibility_failures


# ---------------------------------------------------------------------------
# derived local sets


def test_derived_local_set_examples(squarefree_q):
    p5 = q_prime(5)
    assert derived_local_set(squarefree_q, p5, [int_pattern([0])]).classes == ((0,),)
    r3, s3 = exceptional_factor_sieves()
    t1 = int_pattern([0, 1, 3])
    t2 = int_pattern([0, 2, 3])
    d1 = derived_local_set(r3, p5, [t1])
    assert {c[0] for c in d1.classes} == {0, 2, 4}
    s5 = local_set(s3, p5)
    # S_5 = {0, 3} is not a translate of -T_i + R_5 for either pattern
    for t in (t1, t2):
        d = derived_local_set(r3, p5, [t])
        assert translate_between(s5, d) is None
    # but it is contained in a translate (the morphism condition)
    assert subset_of_translate(s5, derived_local_set(r3, p5, [t1, t2])) is not None


def test_derived_sets_and_translates_over_quadratic_fields():
    # derived_local_set: the y with y + t in R_p for some t in every T; subset_of_translate:
    # the lex-first delta with candidate inside delta + base
    rng = random.Random(31)
    found = 0
    for d in (2, -3, 5, -1):
        K = make_algebra([d])
        sieves = [kfree_sieve(K, 2), build_sieve(K, TailRule.shifted_kfree(1, [(0, 0), (1, 0), (0, 1)]))]
        for sieve in sieves:
            for q in prime_ideals(K, 7):
                ls = local_set(sieve, q)
                mod = ls.modulus
                for _ in range(6):
                    family = [
                        Pattern.of(K, (K.element([(rng.randint(-4, 4), rng.randint(-4, 4))]) for _ in range(rng.randint(1, 3))))
                        for _ in range(rng.randint(1, 3))
                    ]
                    want = [
                        y for y in mod.residues()
                        if all(any(shifted(mod, y, t.coords[0]) in ls.classes for t in pat) for pat in family)
                    ]
                    derived = derived_local_set(sieve, q, family)
                    assert list(derived.classes) == sorted(want)
                    delta = subset_of_translate(ls, derived)
                    assert delta == exhaustive_subset_of_translate(ls, derived)
                    found += delta is not None and any(delta)
    assert found > 80


def test_derived_local_set_needs_a_pattern(squarefree_q):
    from ringsieve.errors import PreconditionFailed

    with pytest.raises(PreconditionFailed, match="at least one pattern"):
        derived_local_set(squarefree_q, q_prime(5), [])


def test_translate_equivalent_sieves_same_admissible(squarefree_q):
    # shifting every local set by a translate leaves the space unchanged
    rng = random.Random(43)
    for case in range(20):
        shift = rng.randrange(0, 9)
        shifted = build_sieve(
            QQ,
            TailRule.shifted_kfree(2, (shift,)),
        )
        for _ in range(15):
            vals = rng.sample(range(0, 24), rng.randrange(1, 6))
            pat = int_pattern(vals)
            moved = pat.translate(QQ.from_int(shift))
            assert (
                is_admissible(squarefree_q, pat).admissible
                == is_admissible(shifted, moved).admissible
            )


# ---------------------------------------------------------------------------
# conjugacy


def test_conjugacy_grid(k2, k13):
    algebras = {"Q": QQ, "s2": k2, "s13": k13}
    for n1, K in algebras.items():
        for k in (2, 3, 4):
            for n2, L in algebras.items():
                for l in (2, 3, 4):
                    res = conjugacy_search(kfree_sieve(K, k), kfree_sieve(L, l), unit_height=6)
                    if n1 == n2 and k == l:
                        assert res.status == "witness"
                        assert res.tau.is_identity()
                        assert res.epsilon == L.one
                    else:
                        assert res.status == "provably_not", (n1, k, n2, l)


def test_conjugacy_distinguishes_general_sieves():
    sym = two_class_sieve()
    sq = kfree_sieve(QQ, 1)
    res = conjugacy_search(sym, sym)
    assert res.status == "witness"
    r, s = pair_sieves()
    res = conjugacy_search(r, s)
    assert res.status == "provably_not"  # class counts 1 vs 2


def test_conjugacy_witness_with_shifted_classes():
    # forbidding 1 mod p^2 instead of 0 is a translate of the squarefree sieve
    shifted = build_sieve(QQ, TailRule.shifted_kfree(2, (1,)))
    res = conjugacy_search(kfree_sieve(QQ, 2), shifted)
    assert res.status == "witness"


def test_conjugacy_provably_not_over_finite_unit_group():
    # equal class counts, but {0,2} mod p is never a translate of {0,1};
    # over Q the unit sweep is exhaustive, so this is a proof
    exc = {q_prime(2): (1, ()), q_prime(3): (1, ())}
    a = build_sieve(QQ, TailRule.classes_mod_p([0, 1]), exc)
    b = build_sieve(QQ, TailRule.classes_mod_p([0, 2]), exc)
    res = conjugacy_search(a, b)
    assert res.status == "provably_not"
    assert conjugacy_search(a, a).status == "witness"


def test_conjugacy_no_witness_with_infinite_units(k2):
    # real quadratic units are infinite, yet {0, 3} = delta + eps*{0, 1} needs eps = +-3, not a unit
    p2 = split_prime(k2, 2)[0]
    exc = {p2: (1, ())}
    c = build_sieve(k2, TailRule.classes_mod_p([0, 1]), exc)
    d = build_sieve(k2, TailRule.classes_mod_p([0, 3]), exc)
    res = conjugacy_search(c, d, unit_height=3)
    assert res.status == "provably_not"


def test_conjugacy_refutes_tail_that_agrees_below_60():
    # {0, 1} and {0, 1 + N}, N the product of the primes <= 60: translates at every p <= 60, none at 61
    exc = {q_prime(2): (1, ()), q_prime(3): (1, ())}
    a = build_sieve(QQ, TailRule.classes_mod_p([0, 1]), exc)
    b = build_sieve(QQ, TailRule.classes_mod_p([0, 1 + math.prod(primes_upto(60))]), exc)
    assert conjugacy_search(a, b).status == "provably_not"
    assert translate_between(local_set(b, q_prime(59)), local_set(a, q_prime(59))) is not None
    assert translate_between(local_set(b, q_prime(61)), local_set(a, q_prime(61))) is None


def test_conjugacy_two_class_certificate_checks_exception_primes_only():
    sym = two_class_sieve()
    res = conjugacy_search(sym, sym)
    assert (res.status, res.epsilon, res.tail_translate) == ("witness", QQ.one, QQ.zero)
    assert list(res.deltas) == [q_prime(2), q_prime(3)]


def test_conjugacy_counts_classes_per_component():
    QxQ = make_algebra([None, None])
    # the same projections {1, 2} on both components: identical local sets at every prime
    a = build_sieve(QxQ, TailRule.shifted_kfree(2, [(1, 2), (2, 1)]))
    b = build_sieve(QxQ, TailRule.shifted_kfree(2, [(1, 1), (2, 2), (1, 2)]))
    assert conjugacy_search(a, b).status == "witness"
    # counts (1, 2) against (2, 1) match only when the components are swapped
    c = build_sieve(QxQ, TailRule.shifted_kfree(2, [(0, 0), (0, 1)]))
    d = build_sieve(QxQ, TailRule.shifted_kfree(2, [(0, 0), (1, 0)]))
    res = conjugacy_search(c, d)
    assert res.status == "witness" and res.tau.describe() == "K1->L0, K0->L1"


def test_conjugacy_unit_walk_budget(k2):
    # a k-free tail leaves eps free modulo the exception at (3): {0, 3} needs eps = +-3 there.
    # 1 + sqrt 2 has order 8 * 3^(m-1) modulo 3^m, so the walk ends at m = 2 and passes the budget at m = 7
    p3 = split_prime(k2, 3)[0]
    for m, ends in ((2, True), (7, False)):
        c = build_sieve(k2, TailRule.kfree(2), {p3: (m, [(0, 0), (1, 0)])})
        d = build_sieve(k2, TailRule.kfree(2), {p3: (m, [(0, 0), (3, 0)])})
        if ends:
            assert conjugacy_search(c, d).status == "provably_not"
        else:
            with pytest.raises(BudgetExceeded):
                conjugacy_search(c, d)


def _oracle_passes(r, s, tau, eps, max_norm=150):
    """Brute force: S at tau(p) is a translate of eps*tau(R_p) at every prime p of norm <= max_norm."""
    K = r.algebra
    for p in prime_ideals(K, max_norm):
        if p.norm > max_norm:
            continue
        q = _prime_image(tau, p)
        r_ls, s_ls = local_set(r, p), local_set(s, q)
        mod = ideal_power(q, max(r_ls.modulus.k, s_ls.modulus.k))
        lifts = quotient_residues(r_ls.modulus.hnf, ideal_power(p, mod.k).hnf)
        image = {
            mod.reduce_coords((eps * tau(K.embed(p.component, c) + K.embed(p.component, x))).coords[q.component])
            for c in r_ls.classes
            for x in lifts
        }
        lifts = quotient_residues(s_ls.modulus.hnf, mod.hnf)
        target = {mod.reduce_coords(tuple(a + b for a, b in zip(c, x))) for c in s_ls.classes for x in lifts}
        if len(image) != len(target):
            return False
        # a translate taking the image onto the target moves some image class x onto min(target)
        shifted = ({mod.reduce_coords(tuple(a + t - b for a, b, t in zip(y, x, min(target)))) for y in image} for x in image)
        if target and target not in shifted:
            return False
    return True


def _random_sieve(rng, algebra, exponent):
    """1-3 random labels of small height, and random exceptions above 2 and 3."""
    for _ in range(100):
        labels = [tuple(rng.randint(-3, 3) for _ in range(algebra.degree)) for _ in range(rng.randint(1, 3))]
        exceptions = {}
        for p in (2, 3):
            for q in split_prime(algebra, p):
                if rng.random() < 0.5:
                    m = rng.randint(1, 2)
                    reps = list(ideal_power(q, m).residues())
                    exceptions[q] = (m, sorted(rng.sample(reps, rng.randint(0, min(2, len(reps) - 1)))))
        sieve = build_sieve(algebra, TailRule.shifted_kfree(exponent, labels), exceptions)
        if sieve.non_large:
            return sieve
    raise AssertionError("no non-large sieve drawn")


def _moved_sieve(rng, r):
    """R moved by a random automorphism tau, unit eps and translate delta; its exceptions moved too, or kept."""
    K = r.algebra
    tau = rng.choice(algebra_isomorphisms(K, K))
    eps = rng.choice(units_up_to(K, 3))
    delta = K.from_flat([rng.randint(-3, 3) for _ in range(K.degree)])
    labels = [(delta + eps * tau(K.from_flat(c))).flat() for c in r.tail.labels]
    exceptions = r.exceptions
    if rng.random() < 0.5:
        exceptions = {}
        for ls in r.exceptions:
            q = _prime_image(tau, ls.prime)
            moved = {delta + eps * tau(K.embed(ls.prime.component, c)) for c in ls.classes}
            exceptions[q] = (ls.modulus.k, sorted({ideal_power(q, ls.modulus.k).reduce_coords(x.coords[q.component]) for x in moved}))
    return build_sieve(K, TailRule.shifted_kfree(r.tail.exponent, labels), exceptions)


def test_conjugacy_agrees_with_per_prime_oracle():
    # the oracle tries every tau, every unit of height <= 6 and every prime of norm <= 150
    rng = random.Random(20261018)
    fields = [QQ, make_algebra([-1]), make_algebra([-3]), make_algebra([2]), make_algebra([5]), make_algebra([None, None])]
    outcomes = set()
    for _ in range(300):
        algebra = rng.choice(fields)
        r = _random_sieve(rng, algebra, rng.randint(1, 3))
        s = _random_sieve(rng, algebra, r.tail.exponent) if rng.random() < 0.4 else _moved_sieve(rng, r)
        if not s.non_large:
            continue
        res = conjugacy_search(r, s)
        outcomes.add(res.status)
        if res.status == "witness":
            assert res.epsilon.is_unit()
            assert _oracle_passes(r, s, res.tau, res.epsilon), (r, s)
        else:
            assert res.status == "provably_not"
            assert not any(
                _oracle_passes(r, s, tau, eps)
                for tau in algebra_isomorphisms(algebra, algebra)
                for eps in units_up_to(algebra, 6)
            ), (r, s)
    assert outcomes == {"witness", "provably_not"}


# ---------------------------------------------------------------------------
# symmetry scan


def test_symmetry_scan_kfree(squarefree_q):
    zero = symmetry_scan(squarefree_q, 0)
    assert [c.translation_by for c in zero] == [0]
    one = symmetry_scan(squarefree_q, 1)
    assert sorted(c.translation_by for c in one) == [-1, 0, 1]
    assert all(c.translation_by is not None for c in one)


def test_symmetry_scan_two_class_has_involution():
    sym = two_class_sieve()
    cands = symmetry_scan(sym, 1)
    flips = [c for c in cands if c.code.pattern_keys() == neighbor_flip_code().pattern_keys()]
    assert len(flips) == 1
    assert flips[0].translation_by is None
    assert sorted(c.translation_by for c in cands if c.translation_by is not None) == [-1, 0, 1]


# ---------------------------------------------------------------------------
# orbit closure


def test_orbit_worked_examples():
    assert orbit_approximation(QQ, 2, int_pattern([1, 2]), int_pattern([0, 1, 2])).coords[0][0] == 4
    assert orbit_approximation(QQ, 2, int_pattern([]), int_pattern([0])).coords[0][0] == 4
    assert orbit_approximation(QQ, 2, int_pattern([0, 1]), int_pattern([0, 1])).coords[0][0] == 1


def test_orbit_random_instances(squarefree_q):
    rng = random.Random(47)
    solved = 0
    while solved < 50:
        w = sorted(rng.sample(range(-8, 12), rng.randrange(1, 7)))
        window = int_pattern(w)
        inside = [v for v in w if rng.random() < 0.5]
        pat = int_pattern(inside)
        if not is_admissible(squarefree_q, pat).admissible:
            continue
        delta = orbit_approximation(QQ, 2, pat, window)
        for m in window.elements:
            member = membership(squarefree_q, m + delta).member
            assert member == (m in pat)
        solved += 1


def test_orbit_rejects_inadmissible():
    from ringsieve.errors import PreconditionFailed

    with pytest.raises(PreconditionFailed):
        orbit_approximation(QQ, 2, int_pattern([0, 1, 2, 3]), int_pattern(range(4)))


def test_orbit_quadratic_instance(k2):
    sieve = kfree_sieve(k2, 2)
    w = k2.element([(0, 1)])
    window = Pattern.of(k2, [k2.from_int(0), k2.from_int(1), w])
    pat = Pattern.of(k2, [k2.from_int(1)])
    delta = orbit_approximation(k2, 2, pat, window)
    for m in window.elements:
        assert membership(sieve, m + delta).member == (m in pat)


def test_quadratic_random_admissible_and_translation_code(k2):
    from ringsieve.shiftspace import translation_code

    sieve = kfree_sieve(k2, 2)
    window = Pattern.of(k2, [k2.from_int(0)])
    code = translation_code(k2, k2.from_int(0), window, sieve)
    assert verify_intertwiner(code, sieve, sieve, trials=15, seed=2).ok
    rng = random.Random(8)
    x = random_admissible(sieve, rng, [window], copies=3)
    assert is_admissible(sieve, x).admissible


# ---------------------------------------------------------------------------
# files


def test_pattern_and_code_files(k2):
    pat = int_pattern([-3, 1, 9])
    assert parse_pattern_file(format_pattern(pat), QQ) == pat
    qpat = Pattern.of(k2, [k2.element([(1, -2)]), k2.element([(0, 1)])])
    assert parse_pattern_file(format_pattern(qpat), k2) == qpat
    code = exceptional_factor_code()
    rt = parse_code_file(format_code(code))
    assert rt.window == code.window and rt.patterns == code.patterns
    assert rt.linmap.matrix == code.linmap.matrix


def translate_classes(ls, delta):
    """delta + ls, by adding delta to every class."""
    mod = ls.modulus
    return tuple(sorted(mod.reduce_coords(tuple(a + d for a, d in zip(c, delta))) for c in ls.classes))


def exhaustive_subset_of_translate(candidate, base):
    """The walk subset_of_translate replaced: every residue delta in lex order."""
    mod = base.modulus
    if not candidate.classes:
        return mod.reduce_coords(mod.prime.spec.zero())
    for delta in mod.residues():
        if set(candidate.classes) <= set(translate_classes(base, delta)):
            return delta
    return None


def test_subset_of_translate_matches_exhaustive_walk():
    rng = random.Random(2024)
    moduli = [
        ideal_power(q, k)
        for spec in ([None], [2], [-1], [5], [-3], [13])
        for p in (2, 3, 5)
        for q in split_prime(make_algebra(spec), p)
        for k in (1, 2, 3)
        if q.norm**k <= 125
    ]
    found = 0
    for _ in range(2500):
        mod = rng.choice(moduli)
        residues = list(mod.residues())
        base = LocalSet(mod, tuple(sorted(rng.sample(residues, rng.randrange(0, min(len(residues), 6) + 1)))))
        if base.classes and rng.random() < 0.5:  # a subset of a translate of base
            shifted = translate_classes(base, rng.choice(residues))
            cand = rng.sample(shifted, rng.randrange(0, len(shifted) + 1))
        else:
            cand = rng.sample(residues, rng.randrange(0, min(len(residues), 3) + 1))
        candidate = LocalSet(mod, tuple(sorted(cand)))
        delta = subset_of_translate(candidate, base)
        assert delta == exhaustive_subset_of_translate(candidate, base)
        found += delta is not None
    assert 1000 < found < 2400


def test_random_admissible_rejection_is_a_verification_failure(monkeypatch, squarefree_q):
    from ringsieve import shiftspace
    from ringsieve.errors import VerificationFailed

    monkeypatch.setattr(
        shiftspace, "is_admissible", lambda sieve, pat: shiftspace.AdmissibilityResult(False, violation=q_prime(2))
    )
    with pytest.raises(VerificationFailed, match="not admissible at"):
        random_admissible(squarefree_q, random.Random(0), [int_pattern([0, 1])], copies=2)
