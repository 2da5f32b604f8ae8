"""Integer lattice plumbing: row-style Hermite normal forms and congruence solving.

A full-rank lattice in Z^n, for any n, is stored as a tuple of n generator
rows in lower-triangular Hermite normal form: row i is zero past column i,
h[i][i] > 0, and 0 <= h[i][j] < h[j][j] for j < i.  So

    ((A,),)             for n = 1, A > 0
    ((A, 0), (B, C))    for n = 2, A > 0, C > 0, 0 <= B < A

Rows generate the lattice over Z.  The product of the diagonal is the index
in Z^n.  A field component has n <= 2; a product algebra's flat coordinates
(`EtaleAlgebra.lattice_rows`, `preimage_lattice`) have n = its degree.

`hnf_from_rows` is the package's one elimination.  Intersections, CRT and
preimages under an integer matrix are each one HNF of a stacked lattice in
Z^(n+m), read off its first n rows, which span the vectors whose last m
coordinates vanish:

    lat_intersection   rows (h1_i, h1_i), (0, h2_i)
    crt_pair           rows (h1_i, 0, h1_i), (0, 0, h2_i), (0, 1, x1 - x2)
    preimage_lattice   rows (e_j, A e_j), (0, t_k)

`coset_points` walks the points of a coset c + L in an H x W box.  It is the
one walker under the package's one member mask, `sieve._member_mask`, which
serves sieve box counts, enumeration and the local-global strip sieve (whose
classes and strips are the members of two sieves), and under tail counts.
Boxes are walked in row bands (`row_bands`).  A Q component is the
one-column grid b = 0 (`grid_hnf`, `grid_point`, `grid_coords`,
`grid_columns` embed its lattices, points and boxes).  The walker's index
temporaries come in bounded chunks.
"""

from __future__ import annotations

import itertools
from functools import cache
from math import gcd, prod
from operator import add, mul, sub
from typing import Iterator, Sequence

import numpy as np

Hnf = tuple[tuple[int, ...], ...]
Vec = tuple[int, ...]


def hnf_from_rows(rows: Sequence[Sequence[int]], n: int) -> Hnf:
    """Lower-triangular HNF of the lattice spanned by integer rows in Z^n.

    Clears the coordinates from the last to the first: the rows with a nonzero
    coordinate c are gcd-combined (Euclid on that coordinate) into one pivot
    row, which becomes row c, and the others go on with coordinate c zero.
    Then each row's entries left of its pivot are reduced by the rows above
    (Cohen, GTM 138, section 2.4.2).  Requires the span to have full rank n
    (always true for ideal lattices).
    """
    work = [tuple(r) for r in rows if any(r)]
    h: list[Vec] = [()] * n
    for c in range(n - 1, 0, -1):
        pivot = None
        rest = []
        for r in work:
            if r[c]:
                if pivot is None:
                    pivot = r
                    continue
                while r[c]:
                    q = pivot[c] // r[c]
                    pivot, r = r, tuple([x - q * y for x, y in zip(pivot, r)])
            rest.append(r)
        if pivot is None:
            raise ValueError("rank-deficient lattice")
        h[c] = pivot if pivot[c] > 0 else tuple([-x for x in pivot])
        work = rest
    # what is left lies on the first axis
    a = gcd(*[r[0] for r in work])
    if not a:
        raise ValueError("rank-deficient lattice")
    h[0] = (a,) + (0,) * (n - 1)
    for i in range(1, n):
        row = h[i]
        for j in range(i - 1, -1, -1):
            q = row[j] // h[j][j]
            if q:
                row = tuple([x - q * y for x, y in zip(row, h[j])])
        h[i] = row
    return tuple(h)


@cache
def identity_hnf(n: int) -> Hnf:
    """Z^n itself."""
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def lat_reduce(coords: Sequence[int], h: Hnf) -> Vec:
    """Canonical representative of coords modulo the lattice (HNF box)."""
    # Closed forms for ranks 1 and 2, which certify-stream calls about 150k times a pass:
    # the generic loop below is about 3x slower per call there (0.5 vs 1.6 us).
    if len(h) == 1:
        return (coords[0] % h[0][0],)
    if len(h) == 2:
        (A, _), (B, C) = h
        a, b = coords
        r = b % C
        a -= ((b - r) // C) * B
        return (a % A, r)
    v = list(coords)
    for i in range(len(h) - 1, -1, -1):
        q = v[i] // h[i][i]
        if q:
            for j in range(i + 1):
                v[j] -= q * h[i][j]
    return tuple(v)


def lat_contains(coords: Sequence[int], h: Hnf) -> bool:
    return all(c == 0 for c in lat_reduce(coords, h))


def lat_scale(h: Hnf, c: int) -> Hnf:
    return tuple(tuple(c * x for x in row) for row in h)


def lat_mul(h1: Hnf, h2: Hnf, mul) -> Hnf:
    """Product lattice spanned by pairwise products of generators.

    `mul(u, v)` multiplies two coordinate vectors in the ambient ring; for
    ideals this yields the ideal product.
    """
    rows = [mul(r1, r2) for r1 in h1 for r2 in h2]
    return hnf_from_rows(rows, len(h1[0]))


def residues(h: Hnf) -> Iterator[Vec]:
    """All canonical representatives modulo the lattice, in lex order."""
    return itertools.product(*(range(row[i]) for i, row in enumerate(h)))


class QuotientResidues:
    """Representatives of a coarse lattice modulo a fine sublattice, made on demand.

    Sized and re-iterable; iteration yields them in a fixed order, so a caller
    that stops at its first hit never builds the rest.
    """

    def __init__(self, h_coarse: Hnf, h_fine: Hnf):
        if not all(lat_contains(row, h_coarse) for row in h_fine):
            raise ValueError("not a sublattice")
        self.coarse = h_coarse
        self.fine = h_fine
        # A sublattice's pivots are multiples of the coarse pivots.
        self.counts = [f[i] // c[i] for i, (c, f) in enumerate(zip(h_coarse, h_fine))]

    def __len__(self) -> int:
        return prod(self.counts)

    def __iter__(self) -> Iterator[Vec]:
        """t . coarse reduced into the fine box, for t in the product of range(counts)."""
        cols = tuple(zip(*self.coarse))
        for t in itertools.product(*map(range, self.counts)):
            yield lat_reduce([sum(map(mul, t, col)) for col in cols], self.fine)


def quotient_residues(h_coarse: Hnf, h_fine: Hnf) -> QuotientResidues:
    """Representatives of the coarse lattice modulo the fine sublattice."""
    return QuotientResidues(h_coarse, h_fine)


def lat_intersection(h1: Hnf, h2: Hnf) -> Hnf:
    """Intersection of two full-rank lattices in Z^n."""
    n = len(h1)
    h = hnf_from_rows([(*r, *r) for r in h1] + [(*(0,) * n, *r) for r in h2], 2 * n)
    return tuple(r[:n] for r in h[:n])


def crt_pair(x1: Vec, h1: Hnf, x2: Vec, h2: Hnf) -> tuple[Vec, Hnf] | None:
    """Solve y = x1 mod h1, y = x2 mod h2; returns (y, h1 n h2) or None.

    Row n of the stacked HNF is (u, t, 0): u in h1, and t > 0 least with
    u + t*(x1 - x2) in h2.  A solution exists iff t = 1, and then y = x1 + u.
    """
    n = len(x1)
    zero = (0,) * n
    rows = [(*r, 0, *r) for r in h1] + [(*zero, 0, *r) for r in h2] + [(*zero, 1, *map(sub, x1, x2))]
    h = hnf_from_rows(rows, 2 * n + 1)
    if h[n][n] != 1:
        return None
    inter = tuple(r[:n] for r in h[:n])
    return lat_reduce(list(map(add, x1, h[n])), inter), inter


def preimage_lattice(a_mat: list[list[int]], h_target: Hnf) -> Hnf:
    """Lattice {x in Z^n : A x in target lattice} for an m x n integer matrix."""
    n = len(a_mat[0])
    if len(h_target) != len(a_mat):
        raise ValueError("dimension mismatch")
    rows = [(*e, *col) for e, col in zip(identity_hnf(n), zip(*a_mat))] + [(*(0,) * n, *t) for t in h_target]
    h = hnf_from_rows(rows, n + len(a_mat))
    return tuple(r[:n] for r in h[:n])


# Points per row band of a box walk, and per index chunk of `coset_points`.
_SEGMENT_CLASSES = 1 << 21
_CHUNK_POINTS = 1 << 14


def grid_hnf(h: Hnf) -> Hnf:
    """A Q lattice ((A,),) as the lattice A*Z x Z of the one-column grid."""
    return ((h[0][0], 0), (0, 1)) if len(h) == 1 else h


def grid_point(c: Vec) -> Vec:
    """Coordinates as a grid point: a Q point (a,) is (a, 0)."""
    return (c[0], 0) if len(c) == 1 else c


def grid_coords(a: int, b: int, n: int) -> Vec:
    """The degree-n coordinates of the grid point (a, b), inverse to `grid_point`."""
    return (a,) if n == 1 else (a, b)


def grid_columns(n: int, b0: int, W: int) -> tuple[int, int]:
    """(first column, width) of the grid box whose degree-n coordinates start at b0, W wide."""
    return (0, 1) if n == 1 else (b0, W)


def row_bands(a0: int, H: int, W: int) -> list[tuple[int, int]]:
    """(first row, rows) of bands of max(1, _SEGMENT_CLASSES // W) rows covering [a0, a0+H)."""
    rows = max(1, _SEGMENT_CLASSES // W)
    return [(r, min(rows, a0 + H - r)) for r in range(a0, a0 + H, rows)]


def coset_points(h: Hnf, c: Vec, a0: int, b0: int, H: int, W: int) -> Iterator[np.ndarray | slice]:
    """Indexers of the points of c + L in the flat row-major box [a0, a0+H) x [b0, b0+W).

    With (a, b) = (x, y) - c, the point lies on L = ((alpha, 0), (beta, gamma))
    iff b = j*gamma with j*beta = a (mod alpha).  With g = gcd(beta, alpha) and
    m = alpha/g, row a has points iff g | a, in the columns b = j0*gamma modulo
    the period m*gamma, where j0 = (a/g)(beta/g)^-1 mod m.  Walking rows costs
    O(H/g + points), however large alpha is; chunks hold at most _CHUNK_POINTS
    points (or one row), which bounds the temporaries.  When every marked row
    holds one point in a fixed column, the one indexer is a strided slice.
    The row arithmetic runs on Python ints where int64 could wrap.
    """
    (alpha, _), (beta, gamma) = h
    a0 -= c[0]
    g = gcd(beta, alpha)
    m = alpha // g
    inv = pow(beta // g, -1, m)
    period = m * gamma
    b0 = (b0 - c[1]) % period
    nb = (W - 1) // period + 1
    if m == 1 and nb == 1:  # one fixed column (every Q lattice): a strided slice
        if (-b0) % period < W:
            yield slice((-a0) % g * W + (-b0) % period, H * W, g * W)
        return
    # bounds every product below: (a0 + row) * inv and flat indices
    dtype = np.int64 if (abs(a0) + H) * m + period + (H + 1) * W < 1 << 63 else object
    step = g * max(1, _CHUNK_POINTS // nb)
    cols = np.arange(nb, dtype=dtype) * period
    for r in range((-a0) % g, H, step):
        rows = np.arange(r, min(H, r + step), g, dtype=dtype)
        b = ((a0 + rows) // g * inv % m * gamma - b0) % period
        b = b[:, None] + cols
        flat = rows[:, None] * W + b
        flat = flat[b < W]
        yield flat if dtype is np.int64 else flat.astype(np.int64)


def _layer_values(h: int) -> list[int]:
    vals = [0]
    for v in range(1, h + 1):
        vals.extend((v, -v))
    return vals


def _layer(rank: int, h: int, vals: list[int]) -> Iterator[Vec]:
    """The tuples over vals with some |t_i| = h, in itertools.product order."""
    for v in vals:
        if abs(v) == h:
            yield from ((v, *t) for t in itertools.product(vals, repeat=rank - 1))
        elif rank > 1:
            yield from ((v, *t) for t in _layer(rank - 1, h, vals))


def gen_multipliers(rank: int) -> Iterator[Vec]:
    """Multiplier tuples in deterministic radial order.

    Layer h contains the tuples with max |t_i| = h; within a layer, tuples are
    ordered coordinatewise by 0 < 1 < -1 < 2 < -2 < ...  Rank 0 has the one
    tuple ().
    """
    if rank == 0:
        yield ()
        return
    h = 0
    while True:
        yield from _layer(rank, h, _layer_values(h))
        h += 1
