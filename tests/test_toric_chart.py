import random

import pytest

from logtoric.lattice import vec_neg
from logtoric.monoid import affine_monoid, monoid_contains
from logtoric.oracle import Box, brute_ideal_membership, enumerate_cone_points
from logtoric.toric_chart import (
    ChartError,
    boundary_ideal_generators,
    chart_face,
    chart_faces,
    face_localization,
    orbit_data,
    split_torus_factor,
    toric_chart,
    triviality_locus_group,
    verify_split_reassembly,
)

from corpus_util import random_pointed_cone


def test_boundary_ideal_orthant():
    c = toric_chart(2, [(1, 0), (0, 1)])
    ideal = boundary_ideal_generators(c)
    assert ideal.generator_exponents == ((1, 1),)


def test_boundary_ideal_quadric():
    c = toric_chart(2, [(1, 0), (1, 2)])
    ideal = boundary_ideal_generators(c)
    assert ideal.generator_exponents == ((1, 0),)


def test_boundary_ideal_line_chart():
    c = toric_chart(1, [(1,)])
    assert boundary_ideal_generators(c).generator_exponents == ((1,),)


def test_boundary_ideal_zero_cone():
    c = toric_chart(2, [])
    assert boundary_ideal_generators(c).generator_exponents == ()


def _random_charts():
    rng = random.Random(17)
    for _ in range(8):
        rank = rng.randint(2, 3)
        cone = random_pointed_cone(rng, rank, 2, rank + 1)
        yield toric_chart(rank, cone.generators)


def test_boundary_ideal_oracle_box():
    charts = [toric_chart(2, [(1, 0), (0, 1)]), toric_chart(2, [(1, 0), (1, 2)])]
    charts += list(_random_charts())
    # rank-4 charts with 14 and 35 dual generators, one ideal generator each
    rank4 = [toric_chart(4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                             (1, 2, 3, 5)]),
             toric_chart(4, [(1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1),
                             (-1, -1, -1, 1)])]
    assert [len(c.dual_monoid.generators) for c in rank4] == [14, 35]
    half_width = {2: 6, 3: 4, 4: 3}
    ideals = []
    for c in charts + rank4:
        n = c.lattice_rank
        k = half_width[n]
        ideal = boundary_ideal_generators(c)
        ideals.append(ideal.generator_exponents)
        # every m - g with m in the symmetric box stays in the outer box
        outer = k + max(abs(x) for g in ideal.generator_exponents for x in g)
        pts = enumerate_cone_points(c.dual_monoid.cone,
                                    Box(n, (-outer,) * n, (outer,) * n))
        for m in Box(n, (-k,) * n, (k,) * n).points():
            if not monoid_contains(c.dual_monoid, m):
                continue
            in_ideal = all(sum(a * b for a, b in zip(m, u)) >= 1
                           for u in c.cone.generators)
            assert brute_ideal_membership(ideal, m, pts) == in_ideal, (c, m)
    assert ideals[-2:] == [((1, 1, 1, -1),), ((0, 0, 0, 1),)]


def test_boundary_ideal_properties_random():
    for chart in _random_charts():
        ideal = boundary_ideal_generators(chart)
        gens = ideal.generator_exponents
        assert gens  # rays exist, so the ideal is nonempty
        for g in gens:
            assert all(sum(a * b for a, b in zip(g, u)) >= 1
                       for u in chart.cone.generators)


def test_orbit_data_orthant():
    c = toric_chart(2, [(1, 0), (0, 1)])
    f = next(f for f in chart_faces(c) if f.generators == ((1, 0),))
    od = orbit_data(c, f)
    assert od.orbit_dimension == 1
    assert od.closure_monoid.generators == ((0, 1),)


def test_orbit_data_extremes():
    c = toric_chart(2, [(1, 0), (1, 2)])
    zero_face = next(f for f in chart_faces(c) if not f.generators)
    od0 = orbit_data(c, zero_face)
    assert od0.orbit_dimension == 2
    assert set(od0.closure_monoid.generators) == \
        set(c.dual_monoid.generators)
    top = next(f for f in chart_faces(c) if len(f.generators) == 2)
    od2 = orbit_data(c, top)
    assert od2.orbit_dimension == 0
    assert od2.closure_monoid.generators == ()


def test_orbit_face_count_bijection():
    c = toric_chart(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    fs = chart_faces(c)
    by_dim = {}
    for f in fs:
        od = orbit_data(c, f)
        assert od.orbit_dimension == c.lattice_rank - f.dim()
        by_dim.setdefault(f.dim(), 0)
        by_dim[f.dim()] += 1
    assert by_dim == {0: 1, 1: 3, 2: 3, 3: 1}


def test_chart_face_matches_chart_faces():
    """chart_face finds exactly the ray sets of chart_faces, in any
    order and with repeats, with the same normal, and rejects every other
    set of rays and any vector that is not a ray."""
    rng, order = random.Random(13), random.Random(14)
    for _ in range(15):
        rank = rng.randint(2, 4)
        c = toric_chart(rank, random_pointed_cone(rng, rank, 3, 5).generators)
        by_set = {frozenset(f.generators): f for f in chart_faces(c)}
        rays = c.cone.generators
        for mask in range(1 << len(rays)):
            gens = [g for j, g in enumerate(rays) if mask >> j & 1]
            order.shuffle(gens)
            f = by_set.get(frozenset(gens))
            if f is None:
                with pytest.raises(ChartError, match="span no face"):
                    chart_face(c, gens)
            else:
                assert chart_face(c, gens + gens[:1]) == f
        with pytest.raises(ChartError, match="span no face"):
            chart_face(c, [tuple(2 * a for a in rays[0])])


def test_face_localization_orthant():
    c = toric_chart(2, [(1, 0), (0, 1)])
    f = next(f for f in chart_faces(c) if f.generators == ((1, 0),))
    loc = face_localization(c, f)
    assert monoid_contains(loc.dual_monoid, (2, -5))
    assert not monoid_contains(loc.dual_monoid, (-1, 0))
    # localization = original monoid plus the inverse of the defining normal
    extended = affine_monoid(
        2, list(c.dual_monoid.generators) + [vec_neg(f.defining_normal)])
    for g in loc.dual_monoid.generators:
        assert monoid_contains(extended, g)
    for g in extended.generators:
        assert monoid_contains(loc.dual_monoid, g)


def test_face_localization_identity():
    c = toric_chart(2, [(1, 0), (1, 2)])
    top = next(f for f in chart_faces(c) if len(f.generators) == 2)
    assert face_localization(c, top).dual_monoid.generators == \
        c.dual_monoid.generators


def test_face_localization_wrong_face():
    a = toric_chart(2, [(1, 0), (0, 1)])
    b = toric_chart(2, [(1, 0), (1, 2)])
    f = next(f for f in chart_faces(b) if f.generators == ((1, 0),))
    with pytest.raises(ChartError):
        face_localization(a, f)


def test_split_torus_factor_ray():
    c = toric_chart(2, [(1, 0)])
    s = split_torus_factor(c)
    assert s.torus_rank == 1
    assert s.n1.basis_vectors() == [(1, 0)]
    assert s.n2.basis_vectors() == [(0, 1)]
    assert s.factor_monoid.generators == ((1,),)
    assert verify_split_reassembly(c, s)


def test_split_torus_factor_full_dim():
    c = toric_chart(2, [(1, 0), (1, 2)])
    s = split_torus_factor(c)
    assert s.torus_rank == 0
    assert s.factor_monoid.generators == c.dual_monoid.generators
    assert verify_split_reassembly(c, s)


def test_split_torus_factor_rank3():
    c = toric_chart(3, [(1, 0, 0), (1, 2, 0)])
    s = split_torus_factor(c)
    assert s.torus_rank == 1
    assert set(s.n1.basis_vectors()) == {(1, 0, 0), (0, 1, 0)}
    assert set(s.factor_monoid.generators) == {(0, 1), (1, 0), (2, -1)}
    assert verify_split_reassembly(c, s)


def test_triviality_locus_group():
    assert triviality_locus_group(toric_chart(2, [(1, 0), (0, 1)])).rank == 2
    assert triviality_locus_group(toric_chart(2, [(1, 0), (1, 2)])).rank == 2
    assert triviality_locus_group(toric_chart(2, [])).rank == 2
