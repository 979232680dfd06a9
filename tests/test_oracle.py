import pytest

from logtoric.cone import cone_from_generators, dual_cone
from logtoric.lattice import sublattice_from_vectors, zero_sublattice
from logtoric.oracle import (
    Box,
    OracleError,
    brute_cone_membership,
    brute_group_membership,
    brute_hilbert_basis,
    brute_minimal_tuples,
    brute_saturation,
    enumerate_cone_points,
    frac_kernel_is_zero,
    frac_rank,
)


def test_box_validation():
    with pytest.raises(OracleError):
        Box(2, (1, 0), (0, 0))


def test_enumerate_orthant():
    c = cone_from_generators(2, [(1, 0), (0, 1)])
    pts = enumerate_cone_points(c, Box(2, (0, 0), (2, 2)))
    assert len(pts) == 9 and pts == sorted(pts)


def test_enumerate_empty_box():
    c = cone_from_generators(1, [(1,)])
    assert enumerate_cone_points(c, Box(1, (-3,), (-1,))) == []


def test_enumerate_respects_inequalities():
    c = dual_cone(cone_from_generators(2, [(1, 0), (1, 2)]))
    for p in enumerate_cone_points(c, Box(2, (0, -2), (2, 2))):
        assert p[0] >= 0 and p[0] + 2 * p[1] >= 0


def test_brute_hilbert_examples():
    d = cone_from_generators(2, [(0, 1), (2, -1)])
    assert brute_hilbert_basis(d, Box(2, (-4, -4), (4, 4))) == \
        {(0, 1), (1, 0), (2, -1)}
    orthant = cone_from_generators(2, [(1, 0), (0, 1)])
    assert brute_hilbert_basis(orthant, Box(2, (0, 0), (4, 4))) == \
        {(1, 0), (0, 1)}
    # lineality e1: where the box is symmetric in e1 every point p is
    # (p + e1) + (-e1); at the lower bound -1 nothing splits off -e1
    half = cone_from_generators(3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0),
                                    (1, 1, 2)], strongly_convex=False)
    assert half.lineality == ((1, 0, 0),)
    assert brute_hilbert_basis(half, Box(3, (-1, 0, 0), (2, 2, 2))) == \
        {(-1, 0, 0)}
    assert brute_hilbert_basis(half, Box(3, (-2,) * 3, (2,) * 3)) == set()
    # a 2-dimensional cone in Z^3, cut out by one equation
    flat = cone_from_generators(3, [(1, 1, 0), (1, -1, 2)])
    assert flat.equations == ((1, -1, -1),)
    assert brute_hilbert_basis(flat, Box(3, (-3,) * 3, (3,) * 3)) == \
        {(1, 1, 0), (1, 0, 1), (1, -1, 2)}
    # a box far from the origin: no point is the sum of two box points
    octant = cone_from_generators(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    far = Box(3, (0, 0, 2**32 - 4), (1, 1, 2**32 - 3))
    assert brute_hilbert_basis(octant, far) == set(far.points())


def test_brute_saturation_examples():
    z1 = sublattice_from_vectors(1, [(1,)])
    assert brute_saturation([(2,), (3,)], z1, Box(1, (0,), (8,))) == {(1,)}
    assert brute_saturation([(1,)], z1, Box(1, (0,), (8,))) == {(1,)}
    assert brute_saturation([], zero_sublattice(1), Box(1, (-2,), (2,))) \
        == set()
    even = sublattice_from_vectors(2, [(1, 1), (0, 2)])
    assert brute_saturation([(2, 0), (1, 3)], even, Box(2, (0, 0), (4, 4))) \
        == {(1, 1), (1, 3), (2, 0)}


def test_brute_cone_membership():
    gens = [(1, 0), (1, 2)]
    assert brute_cone_membership(gens, (3, 2))
    assert brute_cone_membership(gens, (0, 0))
    assert not brute_cone_membership(gens, (0, 1))
    assert not brute_cone_membership(gens, (-1, 0))


def test_brute_group_membership():
    g = sublattice_from_vectors(2, [(1, 0), (1, 2)])
    assert brute_group_membership(g, (0, 2))
    assert not brute_group_membership(g, (0, 1))


def test_minimal_tuples():
    s = {(2, 0), (1, 1), (0, 3), (2, 2), (3, 0)}
    assert brute_minimal_tuples(s) == {(2, 0), (1, 1), (0, 3)}
    assert brute_minimal_tuples([]) == set()
    big = 2**70
    assert brute_minimal_tuples([(big, 0), (1, 1), (big, 1)]) == \
        {(big, 0), (1, 1)}


def test_frac_rank_and_kernel():
    assert frac_rank([[2, 4], [1, 2]]) == 1
    assert frac_kernel_is_zero([(1, 0), (0, 1)], 2)
    assert not frac_kernel_is_zero([(1, 1), (1, 1)], 2)
