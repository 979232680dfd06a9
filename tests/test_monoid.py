import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from logtoric.cone import cone_from_generators, dual_cone
from logtoric.lattice import lattices_equal, sublattice_from_vectors
from logtoric.monoid import (
    AffineMonoid,
    MonoidError,
    NatTupleSet,
    affine_monoid,
    hilbert_basis,
    minimal_elements,
    monoid_contains,
    monoid_from_cone,
    monoids_equal,
    saturate,
    saturated_hull,
    sharpen,
    trivial_monoid,
    _parallelepiped_points,
)
from logtoric.oracle import Box, brute_hilbert_basis, frac_rank

from corpus_util import random_pointed_cone


def test_hilbert_basis_examples():
    orthant = cone_from_generators(2, [(1, 0), (0, 1)])
    assert set(hilbert_basis(orthant).generators) == {(1, 0), (0, 1)}
    quadric_dual = cone_from_generators(2, [(0, 1), (2, -1)])
    assert set(hilbert_basis(quadric_dual).generators) == \
        {(0, 1), (1, 0), (2, -1)}
    ray = cone_from_generators(2, [(3, 6)])
    assert hilbert_basis(ray).generators == ((1, 2),)


def test_hilbert_basis_rejects_lineality():
    c = cone_from_generators(2, [(1, 0), (-1, 0)], strongly_convex=False)
    with pytest.raises(MonoidError):
        hilbert_basis(c)


def test_hilbert_basis_interior_point():
    c = cone_from_generators(3, [(1, 0, 0), (0, 1, 0), (1, 1, 2)])
    hb = set(hilbert_basis(c).generators)
    assert (1, 1, 1) in hb


def test_hilbert_matches_oracle_small():
    rng = random.Random(2)
    for _ in range(15):
        c = random_pointed_cone(rng, 2, 3, 3)
        radius = sum(max(abs(x) for x in r) for r in c.generators)
        box = Box(2, (-radius, -radius), (radius, radius))
        assert set(hilbert_basis(c).generators) == brute_hilbert_basis(c, box)


nat_tuples = st.lists(
    st.tuples(st.integers(0, 9), st.integers(0, 9), st.integers(0, 9)),
    min_size=1, max_size=60)


@settings(max_examples=100, deadline=None)
@given(nat_tuples)
def test_minimal_elements_properties(tuples):
    s = NatTupleSet(3, frozenset(tuples))
    out = minimal_elements(s)
    mins = out.tuples
    assert mins <= s.tuples
    # antichain
    for a in mins:
        for b in mins:
            if a != b:
                assert not all(x >= y for x, y in zip(a, b))
    # domination cover
    for t in s.tuples:
        assert any(all(x >= y for x, y in zip(t, m)) for m in mins)


def test_minimal_elements_examples():
    s = NatTupleSet(2, frozenset({(2, 0), (1, 1), (0, 3), (2, 2), (3, 0)}))
    assert minimal_elements(s).tuples == frozenset({(2, 0), (1, 1), (0, 3)})
    z = NatTupleSet(2, frozenset({(0, 0), (5, 1), (2, 2)}))
    assert minimal_elements(z).tuples == frozenset({(0, 0)})
    one = NatTupleSet(2, frozenset({(5, 7)}))
    assert minimal_elements(one).tuples == frozenset({(5, 7)})


def test_numerical_semigroup():
    m = affine_monoid(1, [(2,), (3,)])
    assert m.generators == ((2,), (3,)) and not m.saturated
    assert monoid_contains(m, (5,)) and not monoid_contains(m, (1,))
    s = saturate(m)
    assert s.generators == ((1,),) and s.saturated
    assert saturate(s) is s  # idempotence


def test_saturation_respects_group():
    # gp((1,0),(1,2)) has even second coordinate; the monoid is already
    # closed under roots within that group
    m = affine_monoid(2, [(1, 0), (1, 2)])
    assert m.saturated
    assert not monoid_contains(m, (1, 1))
    # adding (1,3) makes the group all of Z^2 and breaks saturation
    m2 = affine_monoid(2, [(1, 0), (1, 2), (1, 3)])
    assert not m2.saturated
    s2 = saturate(m2)
    assert set(s2.generators) == {(1, 0), (1, 1), (1, 2), (1, 3)}


def test_generator_minimality():
    m = affine_monoid(1, [(2,), (3,), (5,)])
    assert m.generators == ((2,), (3,))
    m2 = affine_monoid(2, [(1, 0), (0, 1), (1, 1)])
    assert set(m2.generators) == {(1, 0), (0, 1)}


def test_monoid_with_units():
    m = affine_monoid(2, [(1, 0), (0, 1), (0, -1)])
    assert m.saturated and m.unit_sublattice.rank == 1
    sharp, units = sharpen(m)
    assert sharp.generators == ((1,),)
    assert units.basis_vectors() == [(0, 1)]
    assert monoid_contains(m, (4, -9))


def test_sharpen_trivial_cases():
    m = affine_monoid(2, [(1, 0), (1, 2)])
    sharp, units = sharpen(m)
    assert sharp is m and units.rank == 0
    full = monoid_from_cone(cone_from_generators(
        2, [(1, 0), (-1, 0), (0, 1), (0, -1)], strongly_convex=False))
    sharp2, units2 = sharpen(full)
    assert sharp2.ambient_rank == 0 and units2.rank == 2


def test_units_not_saturated_in_lattice():
    # units are generated by (2,0) while the lineality lattice is (1,0)Z
    m = affine_monoid(2, [(2, 0), (-2, 0), (1, 1), (2, 1)])
    assert not m.saturated
    assert m.unit_sublattice.rank == 1
    assert monoid_contains(m, (0, 1))       # (2,1) + (-2,0)
    assert not monoid_contains(m, (1, 0))
    s = saturate(m)
    assert s.saturated and monoid_contains(s, (1, 0))


def test_group_completion():
    m = affine_monoid(2, [(1, 0), (0, 1)])
    assert m.group_completion.rank == 2
    m2 = affine_monoid(2, [(2, 0)])
    g = m2.group_completion
    assert g.rank == 1 and g.basis_vectors() == [(2, 0)]
    assert m2.group_completion is g
    assert trivial_monoid(2).group_completion.rank == 0
    # the cached value is not a field: equality and hashing ignore it
    fresh = affine_monoid(2, [(2, 0)])
    assert fresh == m2 and hash(fresh) == hash(m2)


def test_saturate_preserves_cone():
    m = affine_monoid(1, [(2,), (3,)])
    assert saturate(m).cone == m.cone


def test_saturated_hull_matches_saturate():
    rng = random.Random(8)
    for _ in range(20):
        n = rng.randint(1, 2)
        gens = [tuple(rng.randint(-2, 3) for _ in range(n))
                for _ in range(rng.randint(1, 4))]
        a = saturated_hull(n, gens)
        b = saturate(affine_monoid(n, gens))
        # generator presentations may differ (saturate keeps the original
        # generators when the input is already saturated); compare the
        # monoids themselves
        assert monoids_equal(a, b)
        for g in a.generators:
            assert monoid_contains(b, g)
        for g in b.generators:
            assert monoid_contains(a, g)
        assert lattices_equal(a.unit_sublattice, b.unit_sublattice)


def test_monoid_from_cone_with_lineality():
    half = cone_from_generators(2, [(1, 0), (0, 1), (0, -1)],
                                strongly_convex=False)
    m = monoid_from_cone(half)
    assert m.saturated and m.unit_sublattice.rank == 1
    assert monoid_contains(m, (3, -7))
    assert not monoid_contains(m, (-1, 0))


def test_membership_in_unsaturated_monoid_with_units():
    m = affine_monoid(2, [(2, 0), (-2, 0), (1, 1)])
    assert monoid_contains(m, (3, 1))
    assert not monoid_contains(m, (2, 1))
    assert monoid_contains(m, (4, 2))


def _fraction_inverse(rows):
    """Inverse of a nonsingular square matrix, by Gauss-Jordan elimination
    over the rationals."""
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(rows)]
    for col in range(n):
        piv = next(i for i in range(col, n) if a[i][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        a[col] = [x / a[col][col] for x in a[col]]
        for i in range(n):
            if i != col and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return [row[n:] for row in a]


def _box_parallelepiped_points(rays):
    """Nonzero lattice points x of the bounding box of the half-open
    parallelepiped whose ray coefficients R^-1 x all lie in [0, 1)."""
    n = len(rays)
    inverse = _fraction_inverse([[r[i] for r in rays] for i in range(n)])
    lower = [sum(min(r[i], 0) for r in rays) for i in range(n)]
    upper = [sum(max(r[i], 0) for r in rays) for i in range(n)]
    out = set()
    for x in product(*(range(lo, hi + 1) for lo, hi in zip(lower, upper))):
        t = [sum(a * b for a, b in zip(row, x)) for row in inverse]
        if any(x) and all(0 <= c < 1 for c in t):
            out.add(x)
    return out


def test_parallelepiped_points_match_fraction_enumeration():
    """Full-dimensional simplicial cones of rank 2-4 and multiplicity up
    to 30, against a direct scan of the parallelepiped's bounding box."""
    rng = random.Random(11)
    checked = {2: 0, 3: 0, 4: 0}
    while min(checked.values()) < 12:
        n = rng.randint(2, 4)
        rays = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(n)]
        if frac_rank(rays) < n:
            continue
        points = _parallelepiped_points(rays, n)
        # the points and 0 are one per coset of the rays' lattice, so
        # there are multiplicity - 1 of them
        if len(points) >= 30:
            continue
        assert len(points) == len(set(points))
        assert set(points) == _box_parallelepiped_points(rays)
        checked[n] += 1
