import itertools
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import Matrix
from sympy.matrices.normalforms import hermite_normal_form

from ringsieve import lattices
from ringsieve.lattices import (
    coset_points,
    crt_pair,
    gen_multipliers,
    grid_hnf,
    hnf_from_rows,
    lat_contains,
    lat_intersection,
    lat_reduce,
    lat_scale,
    preimage_lattice,
    quotient_residues,
    residues,
)


def test_hnf_canonical_form():
    h = hnf_from_rows([(4, 0), (1, 2), (3, 2)], 2)
    (a, z), (b, c) = h
    assert z == 0 and a > 0 and c > 0 and 0 <= b < a


def test_hnf_1d():
    assert hnf_from_rows([(6,), (10,)], 1) == ((2,),)


def is_canonical_hnf(h, n):
    return len(h) == n and all(
        len(row) == n and row[i] > 0 and all(row[j] == 0 for j in range(i + 1, n)) and all(0 <= row[j] < h[j][j] for j in range(i))
        for i, row in enumerate(h)
    )


def in_column_span(v, H):
    """v = H w for an integer w, H square upper-triangular with nonzero diagonal (sympy's column HNF)."""
    v = list(v)
    for i in range(len(v) - 1, -1, -1):
        if v[i] % H[i, i]:
            return False
        w = v[i] // H[i, i]
        v = [x - w * H[j, i] for j, x in enumerate(v)]
    return not any(v)


def test_hnf_from_rows_matches_sympy():
    # n coordinates, r rows: 3 x 3, 3 x 5 and 4 x 6 row sets
    rng = random.Random(11)
    for n, r in ((3, 3), (3, 5), (4, 6)):
        done = 0
        while done < 100:
            rows = [tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(r)]
            cols = Matrix(rows).T
            if cols.rank() < n:
                continue
            h = hnf_from_rows(rows, n)
            H = hermite_normal_form(cols)
            assert is_canonical_hnf(h, n)
            assert math.prod(h[i][i] for i in range(n)) == abs(H.det())
            assert all(lat_contains(tuple(H[:, j]), h) for j in range(n))
            assert all(in_column_span(row, H) for row in list(h) + rows)
            done += 1
    with pytest.raises(ValueError, match="rank-deficient"):
        hnf_from_rows([(1, 2, 3), (2, 4, 6), (0, 0, 0)], 3)


def test_reduce_and_contains():
    h = ((4, 0), (1, 2))
    for _ in range(200):
        rng = random.Random(_)
        v = (rng.randrange(-50, 50), rng.randrange(-50, 50))
        r = lat_reduce(v, h)
        assert lat_reduce(r, h) == r
        # difference lies in the lattice
        assert lat_contains((v[0] - r[0], v[1] - r[1]), h)
    assert lat_contains((4, 0), h) and lat_contains((5, 2), h)
    assert not lat_contains((1, 0), h)


def test_residue_count_matches_determinant():
    h = ((6, 0), (2, 3))
    reps = list(residues(h))
    assert len(reps) == 18
    assert len({lat_reduce(r, h) for r in reps}) == 18
    h3 = ((4, 0, 0), (1, 3, 0), (3, 2, 5))
    reps = list(residues(h3))
    assert len(reps) == 60 and reps == sorted(reps)
    assert all(lat_reduce(r, h3) == r for r in reps)


def test_quotient_residues():
    coarse = ((2, 0), (0, 1))
    fine = ((4, 0), (0, 4))
    reps = quotient_residues(coarse, fine)
    assert len(reps) == 8
    assert len(set(reps)) == 8
    for r in reps:
        assert lat_contains(r, coarse)
    # rank 3: one representative per class of coarse / fine, in product order of the counts
    coarse3 = ((2, 0, 0), (1, 3, 0), (0, 2, 2))
    fine3 = lat_scale(((1, 0, 0), (0, 1, 0), (0, 0, 1)), 12)
    reps3 = list(quotient_residues(coarse3, fine3))
    assert len(reps3) == len(quotient_residues(coarse3, fine3)) == 6 * 4 * 6
    assert len(set(reps3)) == len(reps3)
    assert all(lat_contains(r, coarse3) and lat_reduce(r, fine3) == r for r in reps3)
    assert reps3[:3] == [(0, 0, 0), (0, 2, 2), (0, 4, 4)]


def test_quotient_residues_rejects_a_non_sublattice():
    # the diagonals divide, but (1, 2) is not in ((2, 0), (1, 1))
    with pytest.raises(ValueError, match="not a sublattice"):
        quotient_residues(((2, 0), (1, 1)), ((4, 0), (1, 2)))


def test_crt_pair_scalars():
    y, mod = crt_pair((3,), ((4,),), (2,), ((5,),))
    assert y == (7,) and mod == ((20,),)
    # y = 0 mod 2 and y = 1 mod 4, and a rank-2 pair differing in a coordinate both moduli divide
    assert crt_pair((0,), ((2,),), (1,), ((4,),)) is None
    assert crt_pair((0, 0), ((2, 0), (0, 2)), (0, 1), ((4, 0), (0, 6))) is None
    y, mod = crt_pair((1, 0), ((9, 0), (0, 9)), (0, 1), ((4, 0), (0, 4)))
    assert mod == ((36, 0), (0, 36))
    assert y[0] % 9 == 1 and y[0] % 4 == 0 and y[1] % 9 == 0 and y[1] % 4 == 1


def test_intersection_of_coprime_moduli():
    assert lat_intersection(((4,),), ((9,),)) == ((36,),)
    h = lat_intersection(((2, 0), (0, 2)), ((3, 0), (1, 1)))
    # intersection has index lcm-like determinant dividing the product
    det = h[0][0] * h[1][1]
    assert det == 12


def test_multiplier_order_is_radial_positive_first():
    seq1 = list(itertools.islice(gen_multipliers(1), 5))
    assert seq1 == [(0,), (1,), (-1,), (2,), (-2,)]
    seq2 = list(itertools.islice(gen_multipliers(2), 9))
    assert seq2[0] == (0, 0)
    assert seq2[1:3] == [(0, 1), (0, -1)]
    layer1 = set(seq2[1:9])
    assert layer1 == {(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)} - {(0, 0)}


def cube_filter_multipliers(rank):
    """Reference order: layer h is the cube of side 2h + 1 filtered to max |t_i| = h."""
    h = 0
    while True:
        vals = [0] + [v for a in range(1, h + 1) for v in (a, -a)]
        for t in itertools.product(vals, repeat=rank):
            if max((abs(v) for v in t), default=0) == h:
                yield t
        h += 1


def test_multipliers_match_cube_filter():
    assert list(gen_multipliers(0)) == [()]
    for rank, count in ((1, 41), (2, 1000), (3, 3000), (4, 5000)):
        assert list(itertools.islice(gen_multipliers(rank), count)) == list(
            itertools.islice(cube_filter_multipliers(rank), count)
        )


@st.composite
def grid_lattices(draw):
    """Q lattices in their one-column embedding, and HNFs ((A, 0), (B, C))."""
    if draw(st.booleans()):
        return grid_hnf(((draw(st.integers(1, 50)),),))
    a = draw(st.integers(1, 10**6))
    return ((a, 0), (draw(st.integers(0, a - 1)), draw(st.integers(1, 30))))


@settings(max_examples=300, deadline=None)
@given(
    h=grid_lattices(),
    c=st.tuples(st.integers(-10**6, 10**6), st.integers(-100, 100)),
    a0=st.integers(-100, 100),
    b0=st.integers(-100, 100),
    shape=st.tuples(st.integers(1, 40), st.integers(1, 40)),
    chunk=st.sampled_from([1, 3, 16, lattices._CHUNK_POINTS]),
)
# 20,000 points of 2Z + 1 in a one-column box: one strided slice
@example(h=((2, 0), (0, 1)), c=(1, 0), a0=-20_000, b0=0, shape=(40_000, 1), chunk=lattices._CHUNK_POINTS)
# 20,000 points of ((2,0),(1,1)) in a one-column box: two chunks at the default size
@example(h=((2, 0), (1, 1)), c=(1, 0), a0=-20_000, b0=0, shape=(40_000, 1), chunk=lattices._CHUNK_POINTS)
def test_coset_points_match_lat_contains(h, c, a0, b0, shape, chunk):
    H, W = shape
    with mock.patch.object(lattices, "_CHUNK_POINTS", chunk):
        chunks = list(coset_points(h, c, a0, b0, H, W))
    # temporaries are bounded by the chunk (or one row), and no point repeats
    assert all(isinstance(part, slice) or part.size <= max(chunk, W) for part in chunks)
    idx = np.concatenate([np.arange(H * W)[part] for part in chunks] or [np.empty(0, dtype=np.int64)])
    assert np.unique(idx).size == idx.size
    mask = np.zeros(H * W, dtype=bool)
    mask[idx] = True
    brute = [lat_contains((a0 + i - c[0], b0 + j - c[1]), h) for i in range(H) for j in range(W)]
    assert mask.tolist() == brute



@st.composite
def small_lattices(draw, n, max_det):
    """Lower-triangular HNFs of dimension n whose diagonal product is <= max_det."""
    rows = []
    for i in range(n):
        d = draw(st.integers(1, max_det))
        max_det //= d
        rows.append(tuple(draw(st.integers(0, rows[j][j] - 1)) for j in range(i)) + (d,) + (0,) * (n - 1 - i))
    return tuple(rows)


def member(v, h):
    """v = sum of t_i * h[i] for integers t_i, solved exactly from the last coordinate."""
    v = list(v)
    for i in range(len(h) - 1, -1, -1):
        if v[i] % h[i][i]:
            return False
        t = v[i] // h[i][i]
        v = [x - t * y for x, y in zip(v, h[i])]
    return True


def residue_box(h):
    """The box of side h[i][i] in coordinate i that lat_reduce maps into."""
    return list(itertools.product(*(range(row[i]) for i, row in enumerate(h))))


def diff(u, v):
    return tuple(a - b for a, b in zip(u, v))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.sampled_from([1, 2, 3]))
def test_lat_reduce_matches_box_search(data, n):
    h = data.draw(small_lattices(n, 60))
    v = tuple(data.draw(st.integers(-10**6, 10**6)) for _ in range(n))
    (found,) = [r for r in residue_box(h) if member(diff(v, r), h)]
    assert lat_reduce(v, h) == found


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.sampled_from([1, 2]))
def test_crt_pair_matches_box_search(data, n):
    # M = det(h1) * det(h2) kills both quotients, so the common points repeat mod M
    h1, h2 = data.draw(small_lattices(n, 12)), data.draw(small_lattices(n, 12))
    x1, x2 = (tuple(data.draw(st.integers(-50, 50)) for _ in range(n)) for _ in "12")
    M = math.prod(row[i] for i, row in enumerate(h1)) * math.prod(row[i] for i, row in enumerate(h2))
    grid = list(itertools.product(range(M), repeat=n))
    common = {z for z in grid if member(diff(z, x1), h1) and member(diff(z, x2), h2)}
    res = crt_pair(x1, h1, x2, h2)
    if not common:
        assert res is None
        return
    y, inter = res
    assert y in residue_box(inter) and member(diff(y, x1), h1) and member(diff(y, x2), h2)
    # inter is h1 n h2: z - y lies in it exactly for the common points z
    assert all((z in common) == member(diff(z, y), inter) for z in grid)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.sampled_from([1, 2, 3]), m=st.sampled_from([1, 2, 3]))
def test_preimage_lattice_matches_box_search(data, n, m):
    # det(T) kills Z^m / T, so A z in T depends on z mod det(T) only
    t = data.draw(small_lattices(m, 12))
    a = [[data.draw(st.integers(-4, 4)) for _ in range(n)] for _ in range(m)]
    if data.draw(st.booleans()):
        a[0] = [0] * n  # a singular A
    pre = preimage_lattice(a, t)
    d = math.prod(row[i] for i, row in enumerate(t))
    for z in itertools.product(range(d), repeat=n):
        az = tuple(sum(x * y for x, y in zip(row, z)) for row in a)
        assert member(az, t) == member(z, pre)
