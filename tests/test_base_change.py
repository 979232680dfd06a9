import random

import pytest

from logtoric.base_change import (
    BaseChangeError,
    monoid_pushout,
    saturated_base_change,
    verify_base_change,
)
from logtoric.lattice import LatticeMap, rank as lattice_rank,\
    sublattice_from_vectors
from logtoric.log_morphism import (
    MonoidChart,
    identity_chart,
    is_dominant,
    is_log_smooth,
)
from logtoric.monoid import affine_monoid, trivial_monoid
from logtoric.oracle import Box, brute_saturation

from corpus_util import random_toric_pair

NAT = affine_monoid(1, [(1,)])
NAT2 = affine_monoid(2, [(1, 0), (0, 1)])


def scale(k):
    return MonoidChart(NAT, NAT, LatticeMap(1, 1, ((k,),)))


def test_cusp_pushout():
    po = monoid_pushout(scale(2), scale(3))
    assert po.group_pushout_rank == 1
    assert po.torsion_order == 1 and po.torsion_divisors == ()
    assert po.q_images == ((3,),) and po.p2_images == ((2,),)


def test_node_pushout():
    po = monoid_pushout(scale(2), scale(2))
    assert po.group_pushout_rank == 1
    assert po.torsion_divisors == (2,) and po.torsion_order == 2
    assert po.q_images == ((1,),) and po.p2_images == ((1,),)


def test_trivial_source_pushout_is_coproduct():
    t = trivial_monoid(1)
    a = MonoidChart(t, NAT, LatticeMap(1, 1, ((0,),)))
    b = MonoidChart(t, NAT2, LatticeMap(1, 2, ((0,), (0,))))
    po = monoid_pushout(a, b)
    assert po.group_pushout_rank == 3 and po.torsion_order == 1


def test_source_mismatch_rejected():
    with pytest.raises(BaseChangeError):
        monoid_pushout(scale(2), identity_chart(NAT2))


def test_cusp_base_change():
    r = saturated_base_change(scale(2), scale(3))
    assert r.main_monoid.generators == ((1,),)
    assert r.main_monoid.saturated
    assert r.structural_map.map.entries == ((2,),)
    assert r.torsion_order == 1 and r.fibre_dim == 0
    assert verify_base_change(r, scale(2))["passed"]


def test_node_base_change():
    r = saturated_base_change(scale(2), scale(2))
    assert r.main_monoid.generators == ((1,),)
    assert r.torsion_order == 2 and r.fibre_dim == 0
    assert r.structural_map.map.entries == ((1,),)
    assert verify_base_change(r, scale(2))["passed"]


def test_identity_base_change():
    theta = MonoidChart(NAT, NAT2, LatticeMap(1, 2, ((1,), (0,))))
    r = saturated_base_change(theta, identity_chart(NAT))
    assert r.torsion_order == 1 and r.fibre_dim == 1
    assert r.main_monoid.saturated
    # canonical coordinate change: the images of Q's generators form a
    # basis of the pushout lattice, so the result is Q itself
    gens = r.main_monoid.generators
    assert len(gens) == 2
    assert abs(gens[0][0] * gens[1][1] - gens[0][1] * gens[1][0]) == 1
    assert verify_base_change(r, theta)["passed"]


def test_non_dominant_theta_rejected():
    bad = MonoidChart(NAT2, NAT, LatticeMap(2, 1, ((1, 1),)))
    with pytest.raises(BaseChangeError):
        saturated_base_change(bad, identity_chart(NAT2))


def test_torsion_symmetry():
    a, b = scale(4), scale(6)
    assert saturated_base_change(a, b).torsion_order == \
        saturated_base_change(b, a).torsion_order == 2


def test_oracle_equivalence_rank_one():
    rng = random.Random(12)
    for _ in range(20):
        theta = scale(rng.randint(1, 4))
        phi = scale(rng.randint(1, 4))
        r = saturated_base_change(theta, phi)
        po = monoid_pushout(theta, phi)
        gens = list(po.q_images) + list(po.p2_images)
        f = po.group_pushout_rank
        group = sublattice_from_vectors(f, gens)
        # full quotient lattice: generators span it by construction
        assert group.rank == f
        box = Box(f, (-8,) * f, (8,) * f)
        brute = brute_saturation(gens, group, box)
        hb = {g for g in r.main_monoid.generators
              if all(-8 <= x <= 8 for x in g)}
        assert hb == brute


def test_dimension_additivity_on_corpus():
    rng = random.Random(77)
    for _ in range(10):
        theta, phi = random_toric_pair(rng)
        r = saturated_base_change(theta, phi)
        rp = theta.source.group_completion.rank
        rq = theta.target.group_completion.rank
        rp2 = phi.target.group_completion.rank
        if is_dominant(phi):
            assert r.main_monoid.group_completion.rank == rq + rp2 - rp
        assert verify_base_change(r, theta)["passed"]


def test_result_keeps_the_structural_kernel():
    # the verdict and kernel kept on the result are is_log_smooth's, and
    # fibre_dim is the main rank minus the rank of the image of P'^gp
    rng = random.Random(31)
    for _ in range(6):
        theta, phi = random_toric_pair(rng)
        r = saturated_base_change(theta, phi)
        smooth, kernel_basis = is_log_smooth(r.structural_map)
        assert r.structural_log_smooth == smooth
        assert r.structural_kernel == tuple(kernel_basis)
        images = [r.structural_map.map.apply(b) for b in
                  phi.target.group_completion.basis_vectors()]
        image_rank = lattice_rank(LatticeMap.from_columns(
            images, r.main_monoid.ambient_rank)) if images else 0
        assert r.fibre_dim == \
            r.main_monoid.group_completion.rank - image_rank
