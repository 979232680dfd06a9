import random
from itertools import product

import pytest

from logtoric.cone import (
    ConeError,
    cone_from_generators,
    dual_cone,
    faces,
)
from logtoric.monoid import hilbert_basis
from logtoric.oracle import Box, enumerate_cone_points

from corpus_util import random_pointed_cone


def test_quadric_cone_facets():
    c = cone_from_generators(2, [(1, 0), (1, 2)])
    assert set(c.facet_normals) == {(0, 1), (2, -1)}
    assert set(c.generators) == {(1, 0), (1, 2)}


def test_generators_are_primitivized():
    c = cone_from_generators(2, [(3, 6)])
    assert c.generators == ((1, 2),)


def test_redundant_generator_dropped():
    c = cone_from_generators(2, [(1, 0), (1, 1), (0, 1)])
    assert set(c.generators) == {(1, 0), (0, 1)}


def test_dual_of_quadric():
    c = cone_from_generators(2, [(1, 0), (1, 2)])
    d = dual_cone(c)
    assert set(d.generators) == {(0, 1), (2, -1)}
    # oracle: dual membership on a box
    for p in Box(2, (-4, -4), (4, 4)).points():
        in_dual = all(p[0] * g[0] + p[1] * g[1] >= 0 for g in c.generators)
        assert d.contains(p) == in_dual


def test_dual_involution_on_corpus():
    rng = random.Random(9)
    for _ in range(60):
        c = random_pointed_cone(rng, rng.randint(2, 3), 4, 4)
        dd = dual_cone(dual_cone(c))
        assert dd.generators == c.generators
        assert dd.facet_normals == c.facet_normals


def test_zero_cone():
    c = cone_from_generators(2, [])
    assert c.generators == ()
    assert c.dim() == 0
    assert c.contains((0, 0)) and not c.contains((1, 0))
    d = dual_cone(c)
    assert d.dim() == 2 and d.contains((-3, 5))


def test_line_rejected_when_strongly_convex():
    with pytest.raises(ConeError):
        cone_from_generators(2, [(1, 0), (-1, 0)])
    c = cone_from_generators(2, [(1, 0), (-1, 0)], strongly_convex=False)
    assert c.lineality


def test_halfplane_lineality():
    c = cone_from_generators(2, [(1, 0), (0, 1), (0, -1)],
                             strongly_convex=False)
    assert len(c.lineality) == 1
    assert c.contains((0, -7)) and not c.contains((-1, 0))


def test_face_counts():
    orthant = cone_from_generators(2, [(1, 0), (0, 1)])
    assert len(faces(orthant)) == 4
    quadric = cone_from_generators(2, [(1, 0), (1, 2)])
    assert len(faces(quadric)) == 4
    zero = cone_from_generators(2, [])
    assert len(faces(zero)) == 1
    ray = cone_from_generators(2, [(1, 0)])
    assert len(faces(ray)) == 2


def test_face_defining_normals_vanish_exactly():
    rng = random.Random(31)
    for _ in range(20):
        c = random_pointed_cone(rng, rng.randint(2, 3), 3, 4)
        for f in faces(c):
            for g in c.generators:
                v = sum(a * b for a, b in zip(f.defining_normal, g))
                assert v >= 0
                assert (v == 0) == (g in f.generators)


def test_membership_matches_generator_hull():
    c = cone_from_generators(2, [(1, 0), (1, 2)])
    assert c.contains((2, 1))
    assert not c.contains((0, -1))
    assert not c.contains((0, 1))


def test_cone_points_lex_order():
    c = cone_from_generators(2, [(1, 0), (0, 1)])
    pts = enumerate_cone_points(c, Box(2, (0, 0), (2, 2)))
    assert len(pts) == 9
    assert pts == sorted(pts)


# The cones over the 5-cube [-1, 1]^5 and the 5-dimensional
# cross-polytope at height 1, each the other's dual.
CUBE6 = [v + (1,) for v in product((-1, 1), repeat=5)]
CROSS6 = [tuple(s * (i == j) for j in range(5)) + (1,)
          for i in range(5) for s in (1, -1)]


def test_rank_six_cube_and_cross_polytope():
    cube = cone_from_generators(6, CUBE6)
    cross = cone_from_generators(6, CROSS6)
    assert (len(cube.generators), len(cube.facet_normals)) == (32, 10)
    assert (len(cross.generators), len(cross.facet_normals)) == (10, 32)
    assert dual_cone(cube) == cross
    assert dual_cone(cross) == cube
    assert dual_cone(dual_cone(cube)) == cube
    assert dual_cone(dual_cone(cross)) == cross


def test_rank_six_dual_hilbert_bases():
    """The dual of the cube cone is the cross-polytope cone: its Hilbert
    basis is the 10 vertices and the centre.  The dual of the
    cross-polytope cone is the cube cone: its Hilbert basis is the 3^5
    points of [-1, 1]^5 at height 1."""
    cross = hilbert_basis(dual_cone(cone_from_generators(6, CUBE6)))
    assert set(cross.generators) == set(CROSS6) | {(0,) * 5 + (1,)}
    cube = hilbert_basis(dual_cone(cone_from_generators(6, CROSS6)))
    assert len(cube.generators) == 243
    assert set(cube.generators) == {v + (1,) for v in product((-1, 0, 1), repeat=5)}
