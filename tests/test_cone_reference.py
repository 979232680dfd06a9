"""Cross-checks of the cone layer against the routines it replaced.

cone_reference.py keeps the old code: an SNF kernel per (d-1)-subset of
the rows in the halfspace-to-ray step, where the library runs an
incremental double description; two halfspace-to-ray passes per cone;
and the 2^F face walk.  The library must give the same sets in the same
order.
"""

import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

import cone_reference as ref
from logtoric.cone import (
    ConeError,
    _maximal_minors,
    cone_from_generators,
    dual_cone,
    extreme_rays_of_halfspaces,
    faces,
)
from logtoric.lattice import LatticeMap, is_zero, kernel, primitive, vec_neg

from corpus_util import random_pointed_cone, random_vector


@st.composite
def wide_matrices(draw):
    """A (d-1) x d integer matrix, d = 2..6; about half of them have a
    row that is a combination of the others, so the rank is below d-1."""
    d = draw(st.integers(2, 6))
    entry = st.integers(-3, 3)
    rows = [tuple(draw(entry) for _ in range(d)) for _ in range(d - 1)]
    if d > 2 and draw(st.booleans()):
        a, b = draw(entry), draw(entry)
        rows[-1] = tuple(a * x + b * y for x, y in zip(rows[0], rows[1]))
    return d, rows


@settings(max_examples=300, deadline=None)
@given(wide_matrices())
def test_maximal_minors_span_the_kernel(case):
    d, rows = case
    w = _maximal_minors(rows)
    ker = kernel(LatticeMap(d, d - 1, rows))
    if ker.rank == 1:
        assert primitive(w) in (ker.basis_vectors()[0],
                                vec_neg(ker.basis_vectors()[0]))
    else:
        assert ker.rank > 1 and is_zero(w)


def polygon_cone_generators(rng, k):
    """The cone over a centrally symmetric lattice polygon with k or k-1
    vertices (k-1 when k is odd) at height 1."""
    pool = [(1, 0)] + [(a, b) for b in (1, 2, 3) for a in range(-3, 4)
                       if math.gcd(a, b) == 1]
    dirs = sorted(rng.sample(pool, k // 2),
                  key=lambda v: math.atan2(v[1], v[0]))
    dirs += [vec_neg(v) for v in dirs]
    pts = [(0, 0)]
    for a, b in dirs[:-1]:
        pts.append((pts[-1][0] + a, pts[-1][1] + b))
    return [(x, y, 1) for x, y in pts]


def _face_data(fs):
    return [(f.generators, f.defining_normal) for f in fs]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_faces_match_subset_walk_on_random_cones(seed):
    rng = random.Random(seed)
    c = random_pointed_cone(rng, rng.randint(2, 4), 3, 6)
    assert _face_data(faces(c)) == _face_data(ref.faces(c))


@settings(max_examples=20, deadline=None)
@given(st.integers(4, 14), st.integers(0, 10**9))
@example(14, 0)
@example(13, 1)
def test_faces_match_subset_walk_on_polygon_cones(k, seed):
    c = cone_from_generators(3, polygon_cone_generators(random.Random(seed), k))
    assert len(c.facet_normals) == k - k % 2
    assert _face_data(faces(c)) == _face_data(ref.faces(c))


def _cone_or_error(build, rank, vecs, strongly_convex):
    try:
        return build(rank, vecs, strongly_convex=strongly_convex)
    except ConeError as e:
        return str(e)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**9), st.booleans())
def test_pointed_path_matches_two_passes(seed, strongly_convex):
    """Inputs with redundant sums, repeated and scaled generators, and
    generators confined to a random sublattice of lower rank."""
    rng = random.Random(seed)
    n = rng.randint(2, 4)
    vecs = [random_vector(rng, n, 3) for _ in range(rng.randint(1, 6))]
    if rng.random() < 0.4:
        k = rng.randint(1, n - 1)
        m = LatticeMap(k, n, tuple(random_vector(rng, k, 2) for _ in range(n)))
        vecs = [m.apply(v[:k]) for v in vecs]
    for _ in range(rng.randint(0, 3)):
        a, b = rng.choice(vecs), rng.choice(vecs)
        vecs.append(tuple(x + y for x, y in zip(a, b)))
    for _ in range(rng.randint(0, 2)):
        vecs.append(tuple(rng.randint(1, 3) * x for x in rng.choice(vecs)))
    rng.shuffle(vecs)
    assert _cone_or_error(cone_from_generators, n, vecs, strongly_convex) \
        == _cone_or_error(ref.cone_from_generators, n, vecs, strongly_convex)


def _rows_with_relations(rng, n, k):
    """k random rows of rank n, confined to a random sublattice of lower
    rank two times in five (so the cone has lineality), followed by
    duplicate, opposite, scaled and summed rows."""
    rows = [random_vector(rng, n, 3) for _ in range(k)]
    if n > 1 and rng.random() < 0.4:
        r = rng.randint(1, n - 1)
        m = LatticeMap(r, n, tuple(random_vector(rng, r, 2) for _ in range(n)))
        rows = [m.apply(v[:r]) for v in rows]
    for _ in range(rng.randint(0, 3)):
        a, b = rng.choice(rows), rng.choice(rows)
        rows.append(rng.choice([
            a, vec_neg(a), tuple(rng.randint(2, 3) * x for x in a),
            tuple(x + y for x, y in zip(a, b))]))
    rng.shuffle(rows)
    return rows


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**9))
def test_double_description_matches_subset_search(seed):
    """Rows of rank 1..6: full cones, cones with lineality, cones of
    lower dimension (from opposite rows) and the cone {0} (from rows
    whose positive hull is a linear space) all occur."""
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    rows = _rows_with_relations(rng, n, rng.randint(1, 9 - n // 3))
    rays, lin = extreme_rays_of_halfspaces(rows, n)
    ref_rays, ref_lin = ref.extreme_rays_of_halfspaces(rows, n)
    assert (rays, lin) == (ref_rays, ref_lin)


@pytest.mark.parametrize("rows, rays", [
    ([(1, 0), (0, 1), (-1, -1)], ()),
    ([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1)],
     ((0, 0, 1), (0, 1, 0))),
    ([(1, 1), (2, 2), (1, 1), (0, 1), (1, 2)], ((1, 0), (-1, 1))),
])
def test_double_description_corner_cases(rows, rays):
    """The cone {0}, a face of lower dimension, and repeated, scaled and
    summed rows."""
    assert extreme_rays_of_halfspaces(rows, len(rows[0]))[0] == rays
    assert ref.extreme_rays_of_halfspaces(rows, len(rows[0]))[0] == rays


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9))
def test_dual_matches_subset_search(seed):
    """dual_cone against the dual built on the reference routine, for
    cones of rank 1..6 with and without lineality."""
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    c = cone_from_generators(
        n, _rows_with_relations(rng, n, rng.randint(1, 9 - n // 3)),
        strongly_convex=False)
    assert dual_cone(c) == ref.dual_cone(c)
