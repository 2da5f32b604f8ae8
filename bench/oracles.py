"""Output oracles that share no code with ringsieve.

They run in run.py, outside the timed region, on the plain-data results the
worker reports.  Each check returns None when the result is right and a
short reason when it is not.  The arithmetic comes from arith.py, sympy
(factorint, mobius) and mpmath (zeta values, Dirichlet L-functions):

* k-freeness is decided from the factorization of the norm: if q^k | y then
  Nm(q)^k | N(y), so only primes p with a high enough power in N(y) are
  examined, by the valuation rule in arith.valuation;
* classes and certificates are re-checked with the same valuations;
* enclosures must contain an mpmath reference value;
* counts are recomputed by an independent formula or brute force.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import mpmath
from sympy import factorint, mobius

from arith import (
    admissible_over_q,
    comp_norm,
    covers_residues,
    degree,
    kronecker,
    disc,
    primes_above,
    prime_norm,
    split_flat,
    valuation,
)
from workloads import SPEC_FILES, unimodular_maps

mpmath.mp.dps = 40

# The preset sieves over Q, restated from their documented definitions:
# (tail exponent, tail labels, {exception prime: (exponent, classes)}).
Q_SIEVES = {
    "two_class": (1, (0, 1), {2: (1, ()), 3: (1, ())}),
    "pair_r": (1, (0,), {2: (1, ())}),
    "pair_s": (1, (0, 1), {2: (1, ())}),
    "exc_r": (1, (0, 1, 2), {2: (1, ()), 3: (1, ()), 5: (1, (0,))}),
    "exc_s": (1, (0, 1, 2, 3, 4, 5), {2: (1, ()), 3: (1, ()), 5: (1, (0, 3))}),
    "shifted2": (2, (0, 2), {}),
    "shifted3": (3, (-1, 0, 1), {}),
}


# ---------------------------------------------------------------------------
# arithmetic checks


@lru_cache(maxsize=1 << 16)
def _factor(n: int) -> tuple:
    return tuple(factorint(abs(n)).items())


def kfree_violation(algebra, flat, k: int):
    """A prime (p, (component, kind, root)) whose k-th power divides y, or None.

    A zero component lies in every ideal; it is reported as (0, (component, "zero", None)).
    """
    for comp, (d, u) in enumerate(zip(algebra, split_flat(algebra, flat))):
        if not any(u):
            return (0, (comp, "zero", None))
        for p, e in _factor(comp_norm(d, u)):
            if e < k:
                continue  # norm test: Nm(q)^k | N(y) fails for every q above p
            for prime in primes_above(algebra, p):
                if prime[0] == comp and valuation(d, u, p, prime[1], prime[2]) >= k:
                    return (p, prime)
    return None


def _in_power(algebra, flat, p, prime, k) -> bool:
    comp, kind, root = prime
    u = split_flat(algebra, flat)[comp]
    return valuation(algebra[comp], u, p, kind, root) >= k


def _same_prime(algebra, reported) -> tuple | None:
    """The oracle's prime matching a reported [p, component, kind, root]."""
    p, comp, kind, root = reported
    for prime in primes_above(algebra, p):
        if prime[0] == comp and prime[1] == kind and (kind != "split" or prime[2] == root):
            return prime
    return None


def expected_v_classes(algebra, k: int, p: int) -> int:
    """#classes mod p^k lying in no q^k above p, componentwise."""
    total = 1
    for d in algebra:
        if d is None:
            total *= p**k - 1
            continue
        P2 = p ** (2 * k)
        kinds = [kind for _, kind, _ in primes_above([d], p)]
        if kinds == ["inert"]:
            total *= P2 - 1
        elif kinds == ["ramified"]:
            total *= P2 - p**k
        else:
            total *= P2 - 2 * p**k + 1
    return total


def q_sieve_caught(name: str, x: int):
    """(p, exponent) of a prime whose forbidden set contains x, or None."""
    e, labels, exc = Q_SIEVES[name]
    for p, (ep, classes) in exc.items():
        if any((x - c) % p**ep == 0 for c in classes):
            return (p, ep)
    for c in labels:
        if x == c:
            p = next(q for q in range(2, 1000) if q not in exc and all(q % r for r in range(2, q)))
            return (p, e)
        for p, m in _factor(x - c):
            if m >= e and p not in exc:
                return (p, e)
    return None


def _q_forbidden(name: str, p: int, cls: int) -> bool:
    e, labels, exc = Q_SIEVES[name]
    if p in exc:
        ep, classes = exc[p]
        return cls % p**ep in [c % p**ep for c in classes]
    return any((cls - c) % p**e == 0 for c in labels)


# ---------------------------------------------------------------------------
# references


def _kron(D: int, n: int) -> int:
    if n == 0:
        return 1 if abs(D) == 1 else 0
    out = 1
    for p, e in factorint(n).items():
        out *= kronecker(D, p) ** e
    return out


def zeta_ref(algebra, s: int):
    """Dedekind zeta of the algebra at s: zeta(s) times L(s, chi_D) per quadratic factor."""
    z = mpmath.mpf(1)
    for d in algebra:
        z *= mpmath.zeta(s)
        if d is not None:
            D = disc(d)
            z *= mpmath.dirichlet(s, [_kron(D, n) for n in range(abs(D))])
    return z


def _contains(lo: Fraction, hi: Fraction, ref) -> bool:
    tol = mpmath.mpf(10) ** -30
    return mpmath.mpf(lo.numerator) / lo.denominator <= ref + tol and ref - tol <= mpmath.mpf(hi.numerator) / hi.denominator


def _iv(res) -> tuple[Fraction, Fraction]:
    return Fraction(res["lo"]), Fraction(res["hi"])


def squarefree_upto(n: int) -> int:
    """#squarefree m in [1, n] = sum over d of mu(d) * floor(n / d^2)."""
    total, d = 0, 1
    while d * d <= n:
        total += int(mobius(d)) * (n // (d * d))
        d += 1
    return total


# ---------------------------------------------------------------------------
# per-operation checks


def check_surjectivity(req, res):
    alg, k, p = req["algebra"], req["k"], req["p"]
    n = sum(degree(d) for d in alg)
    if res["n_classes"] != p ** (k * n):
        return f"n_classes {res['n_classes']} != {p}^{k * n}"
    want = expected_v_classes(alg, k, p)
    if res["v_classes"] != want:
        return f"v_classes {res['v_classes']} != {want}"
    if not res["surjective"] or res["reverified"] <= 0 or not res["kept"]:
        return "report not surjective, not re-verified, or without witnesses"
    primes = primes_above(alg, p)
    for cls, w in res["kept"]:
        if any(_in_power(alg, cls, p, q, k) for q in primes):
            return f"class {cls} is not in V_(K,k,p)"
        diff = [a - b for a, b in zip(w, cls)]
        if not all(_in_power(alg, diff, p, q, k) for q in primes):
            return f"witness {w} not congruent to class {cls}"
        if kfree_violation(alg, w, k) is not None:
            return f"witness {w} is not {k}-free"
    for w, member, _checked in res["spot"]:
        if not member:
            return f"membership rejects witness {w}"
    return None


def check_membership(req, res):
    sieve = req["sieve"]
    x = req["x"]
    if sieve[0] == "kfree":
        alg, k = sieve[1], sieve[2]
        want = kfree_violation(alg, x, k) is None
        if res["member"] != want:
            return f"verdict {res['member']} for {x}, oracle says {want}"
        if want:
            return None
        prime = _same_prime(alg, res["prime"])
        if prime is None or any(res["class"]) or not _in_power(alg, x, res["prime"][0], prime, k):
            return f"bad rejection certificate {res['prime']} {res['class']} for {x}"
        return None
    name = sieve[1]
    want = q_sieve_caught(name, x[0]) is None
    if res["member"] != want:
        return f"verdict {res['member']} for {x} in {name}, oracle says {want}"
    if want:
        return None
    p, cls = res["prime"][0], res["class"][0]
    e = Q_SIEVES[name][2].get(p, (Q_SIEVES[name][0],))[0]
    if (x[0] - cls) % p**e or not _q_forbidden(name, p, cls):
        return f"bad rejection certificate {res['prime']} {res['class']} for {x} in {name}"
    return None


def check_solve(req, res):
    alg, k, y = req["algebra"], req["k"], res["y"]
    if kfree_violation(alg, y, k) is not None:
        return f"solution {y} is not {k}-free"
    for p, idx, x in req["cons"]:
        diff = [a - b for a, b in zip(y, x)]
        if not _in_power(alg, diff, p, primes_above(alg, p)[idx], k):
            return f"solution {y} misses the constraint at p={p}[{idx}]"
    return None


def check_admissible(req, res):
    want = admissible_over_q(req["pattern"], req["k"])
    if res["admissible"] != want:
        return f"admissibility {res['admissible']}, oracle says {want}"
    if not want and not covers_residues(req["pattern"], res["violation"][0] ** req["k"]):
        return f"pattern does not cover the classes at the reported prime {res['violation']}"
    return None


def check_orbit(req, res):
    delta = res["delta"]
    for m in req["window"]:
        inside = kfree_violation([None], [m + delta], req["k"]) is None
        if inside != (m in req["pattern"]):
            return f"delta {delta} fails at window point {m}"
    return None


def check_linmap(req, res):
    d, m = req["d"], req["matrix"]
    good, _ = unimodular_maps(d)
    monomial = m in good  # criterion 4: the local condition holds iff A is a unit monomial
    if res["passed"] != monomial:
        return f"scan passed={res['passed']} but unit monomial={monomial}"
    if (res["eps"] is not None) != monomial or (monomial and res["eps"] != [m[0][0], m[1][0]]):
        return f"decomposition {res['eps']} disagrees with monomial={monomial}"
    if monomial:
        return None
    p, x, y = res["p"], res["x"], res["y"]
    alg = [d]
    if y != [m[0][0] * x[0] + m[0][1] * x[1], m[1][0] * x[0] + m[1][1] * x[1]]:
        return "counterexample image is not A(x)"
    primes = primes_above(alg, p)
    if any(_in_power(alg, x, p, q, 2) for q in primes) or not any(_in_power(alg, y, p, q, 2) for q in primes):
        return f"counterexample {x} -> {y} does not violate the condition at {p}"
    return None


def _check_interval(res, ref, what):
    lo, hi = _iv(res)
    if not _contains(lo, hi, ref):
        return f"{what} enclosure [{float(lo)}, {float(hi)}] misses {mpmath.nstr(ref, 15)}"
    return None


def check_density(req, res):
    return _check_interval(res, 1 / zeta_ref(req["algebra"], req["k"]), "density")


def check_zeta(req, res):
    return _check_interval(res, zeta_ref(req["algebra"], req["s"]), "zeta")


def check_entropy(req, res):
    return _check_interval(res, mpmath.log(2) / zeta_ref(req["algebra"], req["k"]), "entropy")


def check_empirical(req, res):
    alg, k, B = req["algebra"], req["k"], req["bound"]
    value = Fraction(res["value"])
    if alg == [None]:
        want = Fraction(2 * squarefree_upto(B), 2 * B + 1)
        if value != want:
            return f"empirical density {value} != {want}"
        lo, hi = _iv(res)
        if not lo <= value <= hi:
            return f"empirical density {float(value)} outside [{float(lo)}, {float(hi)}]"
        return None
    box = range(-B, B + 1)
    count = sum(1 for a in box for b in box if kfree_violation(alg, [a, b], k) is None)
    want = Fraction(count, (2 * B + 1) ** 2)
    return None if value == want else f"empirical density {value} != {want}"


def _power_divisor_norm(alg, flat, k) -> int:
    d, u = alg[0], flat
    total = 1
    for p, _ in _factor(comp_norm(d, u)):
        for _, kind, root in primes_above(alg, p):
            total *= prime_norm(p, kind) ** (valuation(d, u, p, kind, root) // k)
    return total


def check_tail_count(req, res):
    alg, k, B, M = req["algebra"], req["k"], req["bound"], req["norm_cutoff"]
    box = range(-B, B + 1)
    want = sum(1 for a in box for b in box if (a or b) and _power_divisor_norm(alg, [a, b], k) > M)
    return None if res["count"] == want else f"tail count {res['count']} != {want}"


def check_count_admissible(req, res):
    k, N = req["k"], req["box"]
    if N == 8 and k == 2 and res["count"] != 175:
        return f"count_admissible(sq, 8) = {res['count']}, criterion 7 says 175"
    want = sum(1 for mask in range(1 << N) if admissible_over_q([x for x in range(N) if mask >> x & 1], k))
    return None if res["count"] == want else f"count_admissible {res['count']} != {want}"


def check_conjugacy_grid(req, res):
    if len(res["status"]) != len(req["pairs"]):
        return f"{len(res['status'])} verdicts for {len(req['pairs'])} pairs"
    for (a, b), status in zip(req["pairs"], res["status"]):
        want = "witness" if a == b else "provably_not"
        if status != want:
            return f"conjugacy {a} vs {b}: {status}, criterion 6 says {want}"
    return None


def check_cli(req, res):
    if res["code"] != 0:
        return f"exit code {res['code']}"
    lo, hi = (Fraction(v) for v in res["doc"]["interval"])
    chk = req["check"]
    if chk["kind"] == "zeta":
        ref = zeta_ref(chk["algebra"], chk["s"])
    else:
        field, k = SPEC_FILES[chk["spec"]]
        d = None if field == "Q" else int(field[len("Q(sqrt ") : -1])
        ref = 1 / zeta_ref([d], k)
        if chk["kind"] == "entropy":
            ref *= mpmath.log(2)
    return None if _contains(lo, hi, ref) else f"CLI enclosure {res['doc']['interval']} misses {mpmath.nstr(ref, 15)}"


CHECKS = {
    "surjectivity": check_surjectivity,
    "membership": check_membership,
    "solve": check_solve,
    "admissible": check_admissible,
    "orbit": check_orbit,
    "linmap": check_linmap,
    "density": check_density,
    "zeta": check_zeta,
    "entropy": check_entropy,
    "empirical": check_empirical,
    "tail_count": check_tail_count,
    "count_admissible": check_count_admissible,
    "conjugacy_grid": check_conjugacy_grid,
    "cli": check_cli,
}


def check(req: dict, res: dict) -> str | None:
    """None if the result of one request is right, else the reason it is not."""
    if "error" in res:
        return f"refused or failed: {res['error']}"
    try:
        return CHECKS[req["op"]](req, res)
    except (KeyError, TypeError, ValueError, IndexError) as e:
        return f"malformed result: {type(e).__name__}: {e}"
