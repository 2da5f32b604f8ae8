import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ringsieve import QQ, make_algebra
from ringsieve.entropy import _product_tail_upper, empirical_entropy, entropy_product, zeta_K
from ringsieve.errors import PreconditionFailed, TailNotBoundable
from ringsieve.intervals import _GRID, RationalInterval, _round_down, _round_up, cap_bits, directed_product, log2_interval
from ringsieve.primes import primes_upto
from ringsieve.rings import norms_upto, split_prime
from ringsieve.sieve import TailRule, _power_runs, _tail_factors, build_sieve, kfree_sieve

PI2_OVER_6 = Fraction(16449340668482264, 10**16)  # pi^2/6 to 16 digits
LOG2 = Fraction(6931471805599453, 10**16)


def test_zeta_q_2():
    iv = zeta_K(QQ, 2, 10**5)
    assert iv.contains(PI2_OVER_6)
    assert float(iv.width) < 1e-4


def test_zeta_gaussian(ki):
    iv = zeta_K(ki, 2, 10**4)
    # oracle: zeta(2) * L(2, chi_-4); Catalan constant from a long alternating sum
    catalan = sum((-1) ** n / (2 * n + 1) ** 2 for n in range(200000))
    oracle = (math.pi**2 / 6) * catalan
    assert float(iv.lo) <= oracle <= float(iv.hi)
    assert abs(oracle - 1.5067) < 2e-4  # the quoted approximation


def test_zeta_pure_tail():
    iv = zeta_K(QQ, 2, 1)
    assert iv.lo == 1 and iv.contains(PI2_OVER_6)
    k2 = make_algebra([2])
    iv2 = zeta_K(k2, 2, 1)
    assert iv2.lo == 1 and float(iv2.hi) > 1.7


def test_zeta_width_shrinks_monotonically():
    widths = [zeta_K(QQ, 2, P).width for P in (10, 100, 1000, 10_000)]
    assert all(w2 < w1 for w1, w2 in zip(widths, widths[1:]))


def test_entropy_product_squarefree(squarefree_q):
    iv = entropy_product(squarefree_q, 10**5)
    assert iv.contains(Fraction(421383, 10**6) + Fraction(1, 10**8) * 0)  # 0.421383
    assert float(iv.width) <= 1e-3


def test_entropy_product_empty_tail():
    empty = build_sieve(QQ, TailRule.empty())
    iv = entropy_product(empty, 10)
    assert abs(float(iv.midpoint) - math.log(2)) < 1e-15
    assert float(iv.width) < 1e-30


def test_entropy_product_requires_boundable_tail():
    with pytest.raises(TailNotBoundable):
        entropy_product(kfree_sieve(QQ, 1), 100)


@pytest.mark.parametrize("d", [None, 2, 13])
@pytest.mark.parametrize("k", [2, 3])
def test_entropy_equals_log2_over_zeta(d, k):
    K = QQ if d is None else make_algebra([d])
    sieve = kfree_sieve(K, k)
    ep = entropy_product(sieve, 4000)
    alt = log2_interval().divided_by(zeta_K(K, k, 4000))
    assert ep.overlaps(alt)
    # agreement within combined widths
    assert abs(ep.midpoint - alt.midpoint) <= ep.width + alt.width


def test_empirical_entropy_examples(squarefree_q):
    val8 = empirical_entropy(squarefree_q, 8)
    assert abs(val8 - math.log(175) / 8) < 1e-12
    empty = build_sieve(QQ, TailRule.empty())
    assert abs(empirical_entropy(empty, 4) - math.log(2)) < 1e-12
    val16 = empirical_entropy(squarefree_q, 16)
    assert val16 < val8


def test_empirical_dominates_product_lower_end(squarefree_q):
    iv = entropy_product(squarefree_q, 10**4)
    for n in (4, 8, 12, 16):
        assert empirical_entropy(squarefree_q, n) >= float(iv.lo)


def test_negative_cutoff_rejected(squarefree_q):
    for cutoff in (-1, -10, -100):
        with pytest.raises(PreconditionFailed, match="cutoff"):
            zeta_K(QQ, 2, cutoff)
        with pytest.raises(PreconditionFailed, match="cutoff"):
            entropy_product(squarefree_q, cutoff)


# (lo * 2^192, hi * 2^192) of zeta_K(algebra, s, cutoff), keyed by
# (make_algebra parameters, s, cutoff): Q(sqrt 2) has 2 ramified, Q(sqrt -7)
# 2 split and Q(sqrt 5) 2 inert
ZETA_PINS = {
    ((None,), 2, 1): (6277101735386680763835789423207666416102355444464034512896, 13077295282055584924657894631682638366879907175966738568534),
    ((None,), 2, 2): (8369468980515574351781052564276888554803140592618712683861, 13077295282055584924657894631682638366879907175966738568535),
    ((None,), 2, 4): (9415652603080021145753684134811499624153533166696051769343, 12259964326927110866866776217202473468949912977468817408002),
    ((None,), 2, 1000): (10324107345881367640589998153377153166841567406132282651779, 10334441787669036677267265418795949115957524931063345997947),
    ((None,), 3, 1): (6277101735386680763835789423207666416102355444464034512896, 8198663491117297324193684144597768380215321396850983853579),
    ((None,), 3, 2): (7173830554727635158669473626523047332688406222244610871881, 8198663491117297324193684144597768380215321396850983853580),
    ((None,), 3, 4): (7449747114524851895541376458312395307022575692330942059261, 7690061537574040666365291827935375800797497488857746641820),
    ((None,), 3, 1000): (7545432964970813172045853318094716124596238846816746953079, 7545436737689182016636861636525534387363432528533011219753),
    ((2,), 2, 1): (6277101735386680763835789423207666416102355444464034512896, 27244365170949135259703947149338829930999806616597372017778),
    ((2,), 2, 2): (8369468980515574351781052564276888554803140592618712683861, 20433273878211851444777960362004122448249854962448029013335),
    ((2,), 2, 4): (8369468980515574351781052564276888554803140592618712683861, 14189773526536007947762472473613973922395732612811131259261),
    ((2,), 2, 1000): (9006314552080037010558528605654312073387133812964989907911, 9024354236198197206774871573930599341470733809850881820838),
    ((2,), 3, 1): (6277101735386680763835789423207666416102355444464034512896, 10708458437377694464252975209270554619056746314254346257736),
    ((2,), 3, 2): (7173830554727635158669473626523047332688406222244610871881, 9369901132705482656221353308111735291674653024972552975520),
    ((2,), 3, 4): (7173830554727635158669473626523047332688406222244610871881, 7644123296608843290819501554172320987172661781039002635596),
    ((2,), 3, 1000): (7231395472208643789816156114939419428101128603760638624122, 7231402703609539548679802409854659332157997096924696049711),
    ((-7,), 2, 1): (6277101735386680763835789423207666416102355444464034512896, 27244365170949135259703947149338829930999806616597372017778),
    ((-7,), 2, 2): (11159291974020765802374736752369184739737520790158283578481, 27244365170949135259703947149338829930999806616597372017781),
    ((-7,), 2, 4): (11159291974020765802374736752369184739737520790158283578481, 18919698035381343930349963298151965229860976817081508345682),
    ((-7,), 2, 1000): (11892620529421208441165534232305827498963264223140522910095, 11916441495971655781071896954317508197850767908188992706685),
    ((-7,), 3, 1): (6277101735386680763835789423207666416102355444464034512896, 10708458437377694464252975209270554619056746314254346257736),
    ((-7,), 3, 2): (8198663491117297324193684144597768380215321396850983853578, 10708458437377694464252975209270554619056746314254346257738),
    ((-7,), 3, 4): (8198663491117297324193684144597768380215321396850983853578, 8736140910410106618079430347625509699625899178330288726396),
    ((-7,), 3, 1000): (8249746849545980294378155463625340835935700580368751762204, 8249755099299017154620485329822015536618781695266292333242),
    ((5,), 2, 1): (6277101735386680763835789423207666416102355444464034512896, 27244365170949135259703947149338829930999806616597372017778),
    ((5,), 2, 2): (6277101735386680763835789423207666416102355444464034512896, 15324955408658888583583470271503091836187391221836021760000),
    ((5,), 2, 4): (6695575184412459481424842051421510843842512474094970147089, 11351818821228806358209977978891179137916586090248905007409),
    ((5,), 2, 1000): (7290976041132814224739262966911006972804325015245307034848, 7305579895343606093319809265633007354505982474211255334425),
    ((5,), 3, 1): (6277101735386680763835789423207666416102355444464034512896, 10708458437377694464252975209270554619056746314254346257736),
    ((5,), 3, 2): (6277101735386680763835789423207666416102355444464034512896, 8198663491117297324193684144597768380215321396850983853579),
    ((5,), 3, 4): (6376738270869009029928421001353819851278583308661876330561, 6794776263652305147395112492597618655264588249812446787197),
    ((5,), 3, 1000): (6450022951095632136134531315001466869652381657067294081392, 6450029401123420752205002664816080435066612703571230999611),
    ((None, 2), 2, 1): (6277101735386680763835789423207666416102355444464034512896, 56759094106144031791049889894455895689582930451244525037038),
    ((None, 2), 2, 2): (11159291974020765802374736752369184739737520790158283578481, 42569320579608023843287417420841921767187197838433393777783),
    ((None, 2), 2, 4): (12554203470773361527671578846415332832204710888928069025791, 27714401419015640522973579050027292817179165259396740740746),
    ((None, 2), 2, 1000): (14812912415019174617294144169479169969614954277891744131447, 14857440178090351579066959425945688624367873418896049009560),
    ((None, 2), 3, 1): (6277101735386680763835789423207666416102355444464034512896, 13986557959023927463514090069251336645298607430862819601940),
    ((None, 2), 3, 2): (8198663491117297324193684144597768380215321396850983853578, 12238238214145936530574828810594919564636281502004967151700),
    ((None, 2), 3, 4): (8513996702314116452047287380928451779454372219806790924869, 9364796211655498905732788858993102209028259168830483200504),
    ((None, 2), 3, 1000): (8692548261746874413622015581476743873425482739800662095028, 8692561300582305867191949802573842005235553936949371104622),
}


@pytest.mark.parametrize("key", sorted(ZETA_PINS, key=str))
def test_zeta_pinned_exactly(key):
    params, s, cutoff = key
    iv = zeta_K(make_algebra(params), s, cutoff)
    assert (iv.lo * 2**192, iv.hi * 2**192) == ZETA_PINS[key]


def _zeta_by_split_primes(K, s, cutoff):
    """The per-prime route: `split_prime`, one rounded `Fraction` product per prime, then the tail."""
    lo = hi = Fraction(1)
    for p in primes_upto(cutoff):
        for prime in split_prime(K, p):
            if prime.norm <= cutoff:
                q = prime.norm**s
                lo, hi = _round_down(lo * Fraction(q, q - 1)), _round_up(hi * Fraction(q, q - 1))
    return lo, _round_up(hi * _product_tail_upper(K.degree, s, max(cutoff, 1)))


def test_zeta_matches_split_prime_chain():
    # QQ at s = 7 passes int64 (600^7 > 2^63), so its later chunks take Python-int powers
    for K, s, cutoff in ((QQ, 7, 1000), (make_algebra([None, 2]), 3, 500), (make_algebra([-1]), 2, 0)):
        iv = zeta_K(K, s, cutoff)
        assert (iv.lo, iv.hi) == _zeta_by_split_primes(K, s, cutoff), (K, s, cutoff)


def test_zeta_q13_pinned_at_large_cutoff():
    # endpoints of the per-prime Fraction chain, pinned before the factors ran in runs
    iv = zeta_K(make_algebra([13]), 2, 100_000)
    assert (iv.lo * 2**192, iv.hi * 2**192) == (
        8696650615694877341931625363161872976395988669027239262160,
        8696824551316221211224227726593982083378258025849930467792,
    )


def test_negative_decimal_digits_rejected():
    iv = RationalInterval(Fraction(1, 3), Fraction(1, 2))
    assert iv.decimal(3) == ("0.333", "0.500")
    with pytest.raises(PreconditionFailed, match="digits"):
        iv.decimal(-1)


def test_zero_decimal_digits_print_integers():
    # floor and ceiling, with no fractional digit
    assert RationalInterval(Fraction(1, 3), Fraction(1, 2)).decimal(0) == ("0", "1")
    assert RationalInterval(Fraction(-5, 2), Fraction(7, 3)).decimal(0) == ("-3", "3")
    assert RationalInterval(Fraction(2), Fraction(2)).decimal(0) == ("2", "2")


def _fraction_chain(start, factors):
    lo = hi = start
    for num, den in factors:
        f = Fraction(num, den)
        lo, hi = _round_down(lo * f), _round_up(hi * f)
    return lo, hi


_RUNS = st.lists(
    st.tuples(
        st.one_of(st.sampled_from([-1, 0, 1]), st.integers(-(10**12), 10**12)),
        st.lists(st.integers(1, 10**12), max_size=6),
    ),
    max_size=8,
)


@settings(max_examples=400, deadline=None)
@given(st.fractions(min_value=0, max_value=4, max_denominator=10**40), _RUNS)
@example(Fraction(23, 49), [])  # no factor: the start comes back unrounded
@example(Fraction(23, 49), [(1, []), (-1, [])])  # empty runs: still unrounded
@example(Fraction(1), [(1, [3, 8, 24]), (-1, [4, 9, 25]), (1, [48])])  # multi-factor runs, sign switches
@example(Fraction(5, 3), [(-7, [7, 11]), (2, [5])])  # a = -b: a zero factor, then a factor
@example(Fraction(7, 10**30 + 1), [(-5, [9, 13]), (6, [11, 2]), (-2, [3])])  # |a| > 1, denominator
@example(Fraction(2, 7), [(-1, []), (-3, [10]), (3, [10])])  # the denominator goes into a later run's first b
def test_directed_product_equals_fraction_chain(start, runs):
    factors = [(b + a, b) for a, bs in runs for b in bs]
    assert directed_product(start, runs) == _fraction_chain(start, factors)


_CAP_B = 1 << cap_bits(Fraction(1), 0, 9)


def _two_chain_product(start, runs, seen):
    """`directed_product` as two big-integer chains, each endpoint with its own floor division per factor.

    The endpoints are held as (lo, -hi) while a > 0 and as (-lo, hi) while
    a < 0, so that both round by a floor.  `seen` collects the cases the
    offset e = hi - lo met on the way, by name.
    """
    x = start.numerator * _GRID
    y = -x
    d = start.denominator
    sign = 1  # (sign * x, sign * y) is (lo, -hi)
    for i, (a, bs) in enumerate(runs):
        if a * sign < 0:
            if -sign * (x + y):
                seen.add("switch with e != 0")
            x, y, sign = -x, -y, -sign
        m = abs(a)
        if m != 1:
            seen.add("|a| > 1" if m else "a = 0")
        for b in bs:
            e = -sign * (x + y)
            if e >= b:
                seen.add("e >= b")
            if e < 0:
                seen.add("e < 0")
            if b == _CAP_B:
                seen.add("b = 2^cap")
            if d != 1:
                if i:
                    seen.add("first factor in a later run")
                num, den = b + a, b * d
                x, y, d = sign * (sign * x * num // den), sign * (sign * y * num // den), 1
            else:
                x += sign * (x * m // b)
                y += sign * (y * m // b)
    lo, hi = sign * x, -sign * y
    return Fraction(lo, d * _GRID), Fraction(hi, d * _GRID)


def _random_runs(rng):
    """Runs mixing long runs with small and huge b, zero and negative factors, and sign switches."""
    runs = [(rng.choice((-1, 1)), [])] * rng.randint(0, 2)  # the start's denominator reaches a later run
    for _ in range(rng.randint(1, 6)):
        kind = rng.choice(("long", "small", "wide", "cap"))
        if kind == "long":  # e grows about one per factor
            a = rng.choice((1, -1, 1, -1, 2, -3, 0))
            bs = [rng.randint(10**4, 10**6) for _ in range(rng.randint(1000, 3000))]
        else:
            a = rng.choice((1, -1, 0, rng.randint(2, 9), -rng.randint(2, 9), rng.randint(-(10**6), 10**6)))
            top = 50 if kind == "small" else 10**12
            bs = [rng.randint(1, top) for _ in range(rng.randint(1, 40))]
            if kind == "cap":
                bs[rng.randrange(len(bs))] = _CAP_B
        runs.append((a, bs))
    return runs


def test_directed_product_matches_the_two_chain_kernel():
    rng = random.Random(28)
    seen = set()
    for _ in range(120):
        start = Fraction(rng.randint(-40, 40), rng.choice((1, rng.randint(2, 10**6))))
        runs = _random_runs(rng)
        expected = _two_chain_product(start, runs, seen)
        # the kernel reads bs once, in order: a generator is enough
        as_given = [(a, iter(bs) if i % 2 else (b for b in bs)) for i, (a, bs) in enumerate(runs)]
        assert directed_product(start, as_given) == expected, (start, runs)
    assert seen == {"switch with e != 0", "a = 0", "|a| > 1", "e >= b", "e < 0", "b = 2^cap",
                    "first factor in a later run"}


@pytest.mark.parametrize("params", [(None,), (13,), (-7,), (None, 2)])
def test_directed_product_matches_the_two_chain_kernel_on_euler_factors(params):
    K = make_algebra(params)
    _, _, norms = norms_upto(K, 10**4)
    norms = norms[norms <= 10**4]
    zeta_cap = cap_bits(Fraction(1), K.degree, 1)
    streams = [(Fraction(1), list(_power_runs(np.ones_like(norms), norms, s, -1, zeta_cap))) for s in (2, 3)]
    for sieve in (kfree_sieve(K, 2), kfree_sieve(K, 3), build_sieve(K, TailRule.shifted_kfree(2, (0, 2, 30)))):
        streams.append((Fraction(1), list(_tail_factors(sieve, 10**4, cap_bits(Fraction(1), 0, len(sieve.tail.labels))))))
    for start, runs in streams:
        assert directed_product(start, runs) == _two_chain_product(start, runs, set())
