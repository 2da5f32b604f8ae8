"""Integer arithmetic of Q and quadratic fields, written without ringsieve.

The workload generators and the output oracles share these helpers.  Neither
imports the library, so a defect in ringsieve cannot vouch for itself here.

An algebra is a list of component parameters: None for Q, d for Q(sqrt d).
A component element is a coordinate tuple over the integral basis
(1, w) with w = (1 + sqrt d)/2 for d = 1 mod 4 and w = sqrt d otherwise;
a flat vector concatenates the components.
"""

from __future__ import annotations

INF = 1 << 30


def omega_poly(d: int) -> tuple[int, int]:
    """(s, t) with w^2 = s*w + t."""
    if d % 4 == 1:
        return 1, (d - 1) // 4
    return 0, d


def degree(d: int | None) -> int:
    return 1 if d is None else 2


def split_flat(algebra, flat) -> list[tuple[int, ...]]:
    out, i = [], 0
    for d in algebra:
        out.append(tuple(flat[i : i + degree(d)]))
        i += degree(d)
    return out


def comp_norm(d: int | None, u) -> int:
    if d is None:
        return u[0]
    s, t = omega_poly(d)
    a, b = u
    return a * a + s * a * b - t * b * b


def vp(n: int, p: int) -> int:
    """p-adic valuation of n (INF for 0)."""
    if n == 0:
        return INF
    n, v = abs(n), 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def kronecker(D: int, p: int) -> int:
    """Kronecker symbol (D/p) for a prime p."""
    if p == 2:
        if D % 2 == 0:
            return 0
        return 1 if D % 8 in (1, 7) else -1
    r = pow(D % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def disc(d: int) -> int:
    return d if d % 4 == 1 else 4 * d


def _sqrt_mod(a: int, p: int) -> int:
    a %= p
    if p < 64:
        return next(x for x in range(p) if x * x % p == a)
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    from sympy.ntheory import sqrt_mod

    return sqrt_mod(a, p)


def roots_mod_p(d: int, p: int) -> list[int]:
    """Roots of w's minimal polynomial x^2 - s x - t modulo p, ascending."""
    s, t = omega_poly(d)
    if p == 2:
        return [x for x in range(2) if (x * x - s * x - t) % 2 == 0]
    r = _sqrt_mod(s * s + 4 * t, p)
    inv2 = (p + 1) // 2
    return sorted({(s + r) * inv2 % p, (s - r) * inv2 % p})


def primes_above(algebra, p: int) -> list[tuple[int, str, int | None]]:
    """(component, kind, root) of every prime above p, by component then root."""
    out = []
    for i, d in enumerate(algebra):
        if d is None:
            out.append((i, "rational", None))
            continue
        chi = kronecker(disc(d), p)
        if chi == 0:
            out.append((i, "ramified", None))
        elif chi == 1:
            out.extend((i, "split", r) for r in roots_mod_p(d, p))
        else:
            out.append((i, "inert", None))
    return out


def prime_norm(p: int, kind: str) -> int:
    return p * p if kind == "inert" else p


def valuation(d: int | None, u, p: int, kind: str, root: int | None) -> int:
    """Exponent of the prime (p, kind, root) in the component element u.

    Inert and ramified primes are the only primes above p, so the p-part of
    the norm decides.  A split prime (p, w - root) and its conjugate share
    the p-power content of u; the rest of the p-part of the norm belongs to
    whichever of the two contains u / p^content.
    """
    if all(c == 0 for c in u):
        return INF
    if d is None:
        return vp(u[0], p)
    if kind == "inert":
        return vp(comp_norm(d, u), p) // 2
    if kind == "ramified":
        return vp(comp_norm(d, u), p)
    a, b = u
    c = min(vp(a, p), vp(b, p))
    a, b = a // p**c, b // p**c
    if (a + b * root) % p:
        return c
    return c + vp(comp_norm(d, (a, b)), p)


def in_prime_power(algebra, flat, p: int, prime, k: int) -> bool:
    """Whether the flat element lies in q^k for q = (component, kind, root)."""
    comp, kind, root = prime
    u = split_flat(algebra, flat)[comp]
    return valuation(algebra[comp], u, p, kind, root) >= k


def covers_residues(values, modulus: int) -> bool:
    """Whether the integers meet every residue class modulo `modulus`."""
    return len({v % modulus for v in values}) == modulus


def admissible_over_q(pattern, k: int) -> bool:
    """A finite set of integers avoids some class mod p^k at every prime p.

    Only primes with p^k <= |pattern| can be covered.
    """
    n = len(pattern)
    p = 2
    while p**k <= n:
        if all(p % q for q in range(2, p)) and covers_residues(pattern, p**k):
            return False
        p += 1
    return True
