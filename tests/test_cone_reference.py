"""Cross-checks of the cone layer against the routines it replaced.

cone_reference.py keeps the old code: an SNF kernel per subset in the
halfspace-to-ray step, two halfspace-to-ray passes per cone, and the 2^F
face walk.  The library must give the same sets in the same order.
"""

import math
import random

from hypothesis import example, given, settings, strategies as st

import cone_reference as ref
from logtoric.cone import ConeError, _maximal_minors, cone_from_generators, faces
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
