"""Seeded workload generators.

Each generator turns (seed, size) into a list of requests made of plain
data: algebras as parameter lists, elements as flat coordinate lists, maps as
integer matrices.  The worker builds library objects from them; the oracles
read the same requests to check the answers.  Nothing here imports ringsieve.

Why each workload exists, and which layer metric should move which
end-to-end metric, is written down in README.md next to this file.

Every generator keeps the *shape* of its workload fixed (how many requests of
each kind, at which sizes) and lets the seed pick the fields, elements,
patterns, matrices and cutoff jitter.  Runs with different seeds then do
comparable work, so their timings can be compared.  Only certify-stream is
shuffled: with few requests, the order moves cache warm-up and garbage
collection between requests and so moves the request percentiles.
"""

from __future__ import annotations

import itertools
import random

from arith import admissible_over_q, comp_norm, degree, omega_poly, primes_above, valuation

WORKLOADS = ("lg-grid", "certify-stream", "enclosures")
SIZES = ("full", "tiny")

Q = [None]
PRODUCT = [None, 2]
REAL = (2, 3, 5, 13)
IMAG = (-1, -2, -3, -7)
# real quadratic fields in which 19 is inert and whose k=3, p=19 cells cost
# the same: the big cell keeps its class count (19^6 - 1), kernel path and
# cost whichever field the seed draws.  Scaled to the reference speed, the
# cell took 4.2-4.4 s over Q(sqrt 21) and Q(sqrt 29), but 4.9 s over
# Q(sqrt 13) and 5.0-7.4 s over the other real fields up to 37 with 19 inert.
BIG_FIELDS = (21, 29)


def generate(workload: str, seed: int, size: str = "full") -> list[dict]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    rng = random.Random(f"{workload}:{seed}")
    gen = {"lg-grid": lg_grid, "certify-stream": certify_stream, "enclosures": enclosures}
    return gen[workload](rng, size == "tiny")


# ---------------------------------------------------------------------------
# lg-grid: check_local_surjectivity cells, each followed by spot re-verification

# (field pool, k, p) for the mid-size quadratic cells
MID_SLOTS = (
    (REAL, 3, 13),
    (IMAG, 2, 13),
    (IMAG, 3, 7),
    (IMAG, 2, 7),
    (REAL, 3, 5),
)
Q_SLOTS = ((2, 11), (3, 13), (2, 17), (2, 19), (3, 5), (3, 7))
PRODUCT_SLOTS = ((2, 2), (2, 3), (3, 2))
SPOT_CHECKS = 25


def lg_grid(rng: random.Random, tiny: bool) -> list[dict]:
    cells = [{"algebra": [rng.choice(BIG_FIELDS)], "k": 2 if tiny else 3, "p": 5 if tiny else 19, "big": True}]
    for pool, k, p in MID_SLOTS[: 1 if tiny else None]:
        cells.append({"algebra": [rng.choice(pool)], "k": k, "p": 5 if tiny else p})
    for k, p in Q_SLOTS[: 1 if tiny else None]:
        cells.append({"algebra": Q, "k": k, "p": p})
    for k, p in PRODUCT_SLOTS[: 1 if tiny else None]:
        cells.append({"algebra": PRODUCT, "k": k, "p": p})
    for c in cells:
        c.setdefault("big", False)
        c["op"] = "surjectivity"
        c["spot_seed"] = rng.randrange(1 << 32)
    return cells


# ---------------------------------------------------------------------------
# certify-stream: many small certification requests, each timed on its own

# the preset sieves of ringsieve.presets plus two shifted k-free tails; the
# oracles restate their definitions in oracles.Q_SIEVES
PRESET_SIEVES = ("two_class", "pair_r", "pair_s", "exc_r", "exc_s", "shifted2", "shifted3")


def _element(rng: random.Random, algebra, decade: int) -> list[int]:
    """Coordinates of magnitude in [h/2, h] for h = 10^decade, random signs."""
    h = 10**decade
    return [rng.choice((-1, 1)) * rng.randint(h // 2, h) for d in algebra for _ in range(degree(d))]


def _is_unit_monomial(d: int, m) -> bool:
    """Whether m = M_eps or M_eps . conj for eps = m's first column, eps a unit.

    With w^2 = s w + t, multiplication by eps = e0 + e1 w has columns
    (e0, e1) and (t e1, e0 + s e1); composing with conjugation w -> s - w
    turns the second column into (s e0 - t e1, -e0).
    """
    s, t = omega_poly(d)
    (e0, b), (e1, c) = m
    mult = b == t * e1 and c == e0 + s * e1
    conj = b == s * e0 - t * e1 and c == -e0
    return (mult or conj) and abs(comp_norm(d, (e0, e1))) == 1


def unimodular_maps(d: int) -> tuple[list, list]:
    """(unit monomial, other) 2x2 unimodular matrices with entries in [-3, 3]."""
    good, bad = [], []
    for e in itertools.product(range(-3, 4), repeat=4):
        if abs(e[0] * e[3] - e[1] * e[2]) != 1:
            continue
        m = [[e[0], e[1]], [e[2], e[3]]]
        (good if _is_unit_monomial(d, m) else bad).append(m)
    return good, bad


def _solve_request(rng: random.Random, algebra, k: int, n: int) -> dict:
    pool = (2, 3, 5, 7) if k == 2 else (2, 3, 5)
    cons = []
    for p in rng.sample(pool, n):
        primes = primes_above(algebra, p)
        idx = rng.randrange(len(primes))
        comp, kind, root = primes[idx]
        while True:
            flat = [rng.randint(-50, 50) for d in algebra for _ in range(degree(d))]
            u = flat[sum(degree(d) for d in algebra[:comp]) :][: degree(algebra[comp])]
            if valuation(algebra[comp], u, p, kind, root) < k:
                break
        cons.append([p, idx, flat])
    return {"op": "solve", "algebra": algebra, "k": k, "cons": cons}


def _pattern(rng: random.Random, lo: int, hi: int, n: int) -> list[int]:
    return sorted(rng.sample(range(lo, hi), n))


def certify_stream(rng: random.Random, tiny: bool) -> list[dict]:
    """Stratified: the seed draws values inside fixed (kind, field, k, height) slots.

    A passing scan costs about a thousand small requests, so a pass holds one
    per field and enough small requests (about 2400) that they take more than
    half of the timed region and that about 24 of them lie beyond p99.
    """
    rep = 1 if tiny else 4
    n_admissible, n_orbit, n_fail = (4, 3, 3) if tiny else (160, 120, 120)
    fields = (2, -1) if tiny else REAL + IMAG
    q_decades, decades = (range(1, 3), range(1, 3)) if tiny else (range(1, 8), range(1, 4))
    reqs: list[dict] = []

    def member(sieve, algebra, decades, repeat):
        for e in decades:
            for _ in range(repeat):
                reqs.append({"op": "membership", "sieve": sieve, "x": _element(rng, algebra, e)})

    for k in (2, 3):
        member(["kfree", Q, k], Q, q_decades, 8 * rep)
        for d in fields:
            member(["kfree", [d], k], [d], decades, 3 * rep)
        member(["kfree", PRODUCT, k], PRODUCT, decades, 8 * rep)
    for name in PRESET_SIEVES:
        member(["preset", name], Q, decades[:1] if tiny else decades, 4 * rep)
    for algebra in (Q, [2], [5], [-1], [-3], PRODUCT):
        for k in (2, 3):
            reqs.extend(_solve_request(rng, algebra, k, n) for n in ((2,) if tiny else (1, 1, 2, 2, 2) * 2 * rep))
    for _ in range(n_admissible):
        k = rng.choice((2, 3))
        reqs.append({"op": "admissible", "k": k, "pattern": _pattern(rng, -20, 31, rng.randint(3, 16))})
    for _ in range(n_orbit):
        while True:
            window = _pattern(rng, -10, 14, rng.randrange(1, 7))
            pattern = [v for v in window if rng.random() < 0.5]
            if admissible_over_q(pattern, 2):
                break
        reqs.append({"op": "orbit", "k": 2, "pattern": pattern, "window": window})
    # criterion-4 maps: a unit monomial passes every prime up to the cutoff,
    # the others fail early
    for d in (2, -1):
        good, bad = unimodular_maps(d)
        chosen = rng.sample(good, 1) + rng.sample(bad, n_fail)
        reqs.extend({"op": "linmap", "d": d, "matrix": m} for m in chosen)
    rng.shuffle(reqs)
    return reqs


# ---------------------------------------------------------------------------
# enclosures: a few heavy exact requests

SPEC_FILES = {
    "sq": ("Q", 2),
    "cube": ("Q", 3),
    "sq_sqrt2": ("Q(sqrt 2)", 2),
    "sq_sqrt-1": ("Q(sqrt -1)", 2),
}


def _cutoff(rng: random.Random, base: int) -> int:
    return int(base * rng.uniform(0.98, 1.02))


def enclosures(rng: random.Random, tiny: bool) -> list[dict]:
    """One real and one imaginary field per seed, so every seed builds the same
    number of algebras: Q, the two fields, Q x Q(sqrt 2) and one spec-file field."""
    big = 10**3 if tiny else 10**5
    mid = 10**3 if tiny else 3 * 10**4
    real, imag = [rng.choice(REAL[1:])], [rng.choice(IMAG[1:])]
    reqs: list[dict] = []
    # the product-algebra density at 10^5 is the slowest request of a pass
    for algebra, k, base in ((Q, 2, big), (Q, 3, mid), (real, 2, big), (imag, 2, mid), (PRODUCT, 2, big)):
        reqs.append({"op": "density", "algebra": algebra, "k": k, "cutoff": _cutoff(rng, base)})
    for algebra, s, base in ((Q, 2, big), (Q, 3, big), (real, 2, big), (imag, 2, big), (PRODUCT, 2, mid)):
        reqs.append({"op": "zeta", "algebra": algebra, "s": s, "cutoff": _cutoff(rng, base)})
    for algebra, k, base in ((Q, 2, big), (real, 3, mid), (PRODUCT, 2, mid)):
        reqs.append({"op": "entropy", "algebra": algebra, "k": k, "cutoff": _cutoff(rng, base)})
    reqs.append({"op": "empirical", "algebra": Q, "k": 2, "bound": 10**6, "cutoff": 10**4})
    quad, other = rng.sample((real, imag), 2)
    reqs.append({"op": "empirical", "algebra": quad, "k": 2, "bound": 8 if tiny else 30})
    reqs.append({"op": "tail_count", "algebra": other, "k": 2,
                 "bound": 10 if tiny else 40, "norm_cutoff": rng.choice((5, 10, 20))})
    reqs.append({"op": "count_admissible", "k": 2, "box": 8})
    reqs.append({"op": "count_admissible", "k": rng.choice((2, 3)), "box": rng.randint(9, 12)})
    grid = [[d, k] for d in (None, real[0], imag[0]) for k in (2, 3, 4)]
    pairs = [[a, b] for a in grid for b in grid]
    rng.shuffle(pairs)
    reqs.append({"op": "conjugacy_grid", "pairs": pairs})
    zeta_field = rng.choice((real, imag))
    reqs.append({"op": "cli", "argv": ["--json", "entropy", "zeta", "--field", f"Q(sqrt {zeta_field[0]})",
                                       "--s", "2", "--cutoff", str(_cutoff(rng, mid))],
                 "check": {"kind": "zeta", "algebra": zeta_field, "s": 2}})
    name = rng.choice(("sq", "cube"))
    reqs.append({"op": "cli", "argv": ["--json", "sieve", "density", "--spec", f"bench/specs/{name}.sv",
                                       "--cutoff", str(_cutoff(rng, mid))],
                 "check": {"kind": "density", "spec": name}})
    name = rng.choice(("sq_sqrt2", "sq_sqrt-1"))
    reqs.append({"op": "cli", "argv": ["--json", "entropy", "product", "--spec", f"bench/specs/{name}.sv",
                                       "--cutoff", str(_cutoff(rng, mid))],
                 "check": {"kind": "entropy", "spec": name}})
    return reqs
