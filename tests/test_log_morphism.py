import random

import pytest

from logtoric.lattice import LatticeMap
from logtoric.log_morphism import (
    ChartMapError,
    MonoidChart,
    cokernel_of_gp,
    fibre_dimension,
    from_toric_morphism,
    identity_chart,
    is_dominant,
    is_log_etale,
    is_log_smooth,
    is_strict,
)
from logtoric.monoid import affine_monoid, trivial_monoid
from logtoric.oracle import frac_kernel_is_zero
from logtoric.toric_chart import toric_chart

from corpus_util import random_monoid_chart

NAT = affine_monoid(1, [(1,)])
NAT2 = affine_monoid(2, [(1, 0), (0, 1)])
NAT_PLUS_Z = affine_monoid(2, [(1, 0), (0, 1), (0, -1)])


def chart(src, dst, rows):
    return MonoidChart(src, dst, LatticeMap(src.ambient_rank,
                                            dst.ambient_rank,
                                            tuple(map(tuple, rows))))


def test_generator_containment_enforced():
    with pytest.raises(ChartMapError):
        chart(NAT, NAT, [[-1]])


def test_dominant_examples():
    assert is_dominant(chart(NAT, NAT, [[2]]))
    assert not is_dominant(chart(NAT2, NAT, [[1, 1]]))
    assert is_dominant(identity_chart(NAT2))


def test_log_smooth_certificate():
    ok, cert = is_log_smooth(chart(NAT2, NAT, [[1, 1]]))
    assert not ok and cert == [(1, -1)]
    ok2, cert2 = is_log_smooth(chart(NAT, NAT2, [[1], [1]]))
    assert ok2 and cert2 == []
    ok3, _ = is_log_smooth(chart(trivial_monoid(1), NAT, [[0]]))
    assert ok3


def test_log_etale_examples():
    kummer = chart(NAT, NAT, [[2]])
    assert is_log_etale(kummer)
    assert cokernel_of_gp(kummer) == (0, (2,))
    assert not is_log_etale(chart(NAT, NAT2, [[1], [1]]))
    assert is_log_etale(identity_chart(NAT2))


def test_strict_examples():
    assert is_strict(identity_chart(NAT2))
    assert is_strict(chart(NAT, NAT_PLUS_Z, [[1], [0]]))
    assert not is_strict(chart(NAT, NAT, [[2]]))


def test_fibre_dimension_examples():
    assert fibre_dimension(chart(NAT, NAT2, [[1], [0]])) == 1
    assert fibre_dimension(identity_chart(NAT2)) == 0
    assert fibre_dimension(chart(NAT, NAT, [[2]])) == 0
    with pytest.raises(ChartMapError):
        fibre_dimension(chart(NAT2, NAT, [[1, 1]]))


def test_from_toric_morphism_examples():
    a1 = toric_chart(1, [(1,)])
    a2 = toric_chart(2, [(1, 0), (0, 1)])
    ident = from_toric_morphism(a2, a2, LatticeMap.identity(2))
    assert ident.map.entries == ((1, 0), (0, 1))
    mult2 = from_toric_morphism(a1, a1, LatticeMap(1, 1, ((2,),)))
    assert mult2.map.entries == ((2,),)
    proj = from_toric_morphism(a2, a1, LatticeMap(2, 1, ((1, 0),)))
    assert proj.source.ambient_rank == 1
    assert proj.map.entries == ((1,), (0,))
    assert fibre_dimension(proj) == 1


def test_from_toric_morphism_witness():
    a1 = toric_chart(1, [(1,)])
    with pytest.raises(ChartMapError, match=r"\(1,\)"):
        from_toric_morphism(a1, a1, LatticeMap(1, 1, ((-1,),)))


def test_dominance_oracle_agreement():
    rng = random.Random(6)
    for _ in range(60):
        c = random_monoid_chart(rng)
        basis = c.source.group_completion.basis_vectors()
        cols = [c.map.apply(b) for b in basis]
        oracle = frac_kernel_is_zero(cols, c.target.ambient_rank)
        assert is_dominant(c) == oracle
        assert is_log_smooth(c)[0] == oracle
        if is_log_etale(c):
            assert is_log_smooth(c)[0]
