import random

import pytest
from hypothesis import example, given, settings, strategies as st

from logtoric.lattice import (
    LatticeError,
    LatticeMap,
    cokernel_invariants,
    complement,
    coordinates_in,
    image_lattice,
    kernel,
    lattices_equal,
    rank,
    saturate_sublattice,
    smith_normal_form,
    sublattice_from_vectors,
    zero_sublattice,
)
from logtoric.oracle import brute_group_membership


def mat(rows):
    return LatticeMap(len(rows[0]) if rows else 0, len(rows), tuple(map(tuple, rows)))


small_matrix = st.integers(1, 4).flatmap(
    lambda n: st.integers(1, 4).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n),
            min_size=m, max_size=m)))


@settings(max_examples=120, deadline=None)
@given(small_matrix)
def test_smith_normal_form_invariants(rows):
    m = mat(rows)
    snf = smith_normal_form(m)
    diag = snf.diagonal
    nr, nc = m.target_rank, m.source_rank
    # U*A*V = diag(d)
    u, v = snf.left_unimodular, snf.right_unimodular
    prod = [[sum(u.entries[i][k] * m.entries[k][j] for k in range(nr))
             for j in range(nc)] for i in range(nr)]
    prod = [[sum(prod[i][k] * v.entries[k][j] for k in range(nc))
             for j in range(nc)] for i in range(nr)]
    for i in range(nr):
        for j in range(nc):
            expected = diag[i] if i == j and i < len(diag) else 0
            assert prod[i][j] == expected
    # nonnegative diagonal with a divisibility chain, zeros trailing
    assert all(a >= 0 for a in diag)
    for a, b in zip(diag, diag[1:]):
        if a != 0 and b != 0:
            assert b % a == 0
        if a == 0:
            assert b == 0


def test_rank_and_cokernel():
    m = mat([[2, 0], [0, 3]])
    assert rank(m) == 2
    free, torsion = cokernel_invariants(m)
    assert free == 0 and torsion == (6,) or set(torsion) == {2, 3}


def test_cokernel_free_part():
    m = mat([[1], [0]])
    assert cokernel_invariants(m) == (1, ())


def test_kernel_of_sum_map():
    m = mat([[1, 1]])
    k = kernel(m)
    assert k.rank == 1
    assert k.basis_vectors()[0] in [(1, -1), (-1, 1)]


def test_saturation_examples():
    s = sublattice_from_vectors(2, [(2, 0)])
    sat, index = saturate_sublattice(s)
    assert index == 2 and sat.basis_vectors() == [(1, 0)]
    s2 = sublattice_from_vectors(2, [(1, 0)])
    assert saturate_sublattice(s2)[1] == 1
    s3 = sublattice_from_vectors(2, [(2, 4)])
    sat3, idx3 = saturate_sublattice(s3)
    assert idx3 == 2 and sat3.basis_vectors() == [(1, 2)]


def test_complement_is_direct_summand():
    s = sublattice_from_vectors(2, [(1, 2)])
    sat, _ = saturate_sublattice(s)
    c = complement(sat)
    b = sat.basis_vectors() + c.basis_vectors()
    det = b[0][0] * b[1][1] - b[0][1] * b[1][0]
    assert det in (1, -1)


def test_complement_rejects_unsaturated():
    s = sublattice_from_vectors(2, [(2, 0)])
    with pytest.raises(LatticeError):
        complement(s)


# (ambient rank n, generators of a sublattice of rank 0..n, a vector w,
# integer coefficients on the generators); the generators may be
# dependent, so the sublattice need not have full rank
sublattice_and_vectors = st.integers(1, 5).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                 max_size=n),
        st.lists(st.integers(-6, 6), min_size=n, max_size=n),
        st.lists(st.integers(-3, 3), min_size=n, max_size=n)))


@settings(max_examples=300, deadline=None)
@example((2, [[1, 0], [1, 2]], [0, 1], [0, -1]))
@given(sublattice_and_vectors)
def test_coordinates_in(data):
    n, gens, w, coeffs = data
    s = sublattice_from_vectors(n, gens)
    inside = tuple(sum(c * g[i] for c, g in zip(coeffs, gens))
                   for i in range(n))
    q = coordinates_in(s, inside)
    assert q is not None and s.basis.apply(q) == inside
    for v in (tuple(w), tuple(a + b for a, b in zip(inside, w))):
        q = coordinates_in(s, v)
        assert (q is not None) == brute_group_membership(s, v)
        if q is not None:
            assert s.basis.apply(q) == v


@settings(max_examples=80, deadline=None)
@given(small_matrix)
def test_image_and_kernel_ranks(rows):
    m = mat(rows)
    assert image_lattice(m).rank + kernel(m).rank == m.source_rank


def test_hermite_basis_is_canonical():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(1, 4)
        vecs = [tuple(rng.randint(-6, 6) for _ in range(n))
                for _ in range(rng.randint(1, 5))]
        a = sublattice_from_vectors(n, vecs)
        shuffled = list(vecs)
        rng.shuffle(shuffled)
        doubled = shuffled + [tuple(2 * x for x in vecs[0])]
        b = sublattice_from_vectors(n, doubled)
        assert lattices_equal(a, b)
        assert a.basis_vectors() == b.basis_vectors()


def test_zero_sublattice():
    z = zero_sublattice(3)
    assert z.rank == 0
    assert coordinates_in(z, (0, 0, 0)) == ()
    assert coordinates_in(z, (1, 0, 0)) is None
