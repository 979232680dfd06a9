"""Affine monoids: Hilbert bases, minimal generators, saturation, sharpening.

An affine monoid is a finitely generated submonoid of Z^n.  Saturated
pointed monoids are represented by their Hilbert basis; monoids with
units carry the unit group as an explicit sublattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product

from .cone import RationalCone, cone_from_generators, grlex_sorted
from .lattice import (
    LatticeMap,
    QuotientSplit,
    Sublattice,
    Vec,
    coordinates_in,
    dot,
    image_lattice,
    is_zero,
    lattices_equal,
    saturate_sublattice,
    smith_normal_form,
    sublattice_from_vectors,
    vec_neg,
    vec_sub,
    zero_sublattice,
)


class MonoidError(ValueError):
    pass


@dataclass(frozen=True)
class NatTupleSet:
    """A finite set of tuples of natural numbers of a fixed width."""

    width: int
    tuples: frozenset[Vec]

    def __post_init__(self):
        object.__setattr__(self, "tuples", frozenset(tuple(t) for t in self.tuples))
        for t in self.tuples:
            if len(t) != self.width:
                raise MonoidError("tuple width mismatch")
            if any(a < 0 for a in t):
                raise MonoidError("tuples must have nonnegative entries")

    def sorted(self) -> list[Vec]:
        return sorted(self.tuples)


def dominates(a: Vec, b: Vec) -> bool:
    """Componentwise a >= b."""
    return all(x >= y for x, y in zip(a, b))


def minimal_elements(s: NatTupleSet) -> NatTupleSet:
    """The antichain of minimal tuples under componentwise order.

    Every input tuple dominates some output tuple; tuples are scanned in
    increasing coordinate-sum order so each candidate is only compared
    against already-confirmed minima.
    """
    minima: list[Vec] = []
    for t in sorted(s.tuples, key=lambda t: (sum(t), t)):
        if not any(dominates(t, m) for m in minima):
            minima.append(t)
    return NatTupleSet(s.width, frozenset(minima))


@dataclass(frozen=True)
class AffineMonoid:
    """Finitely generated submonoid of Z^ambient_rank."""

    ambient_rank: int
    generators: tuple[Vec, ...]
    cone: RationalCone
    saturated: bool
    unit_sublattice: Sublattice

    def __post_init__(self):
        for g in self.generators:
            if len(g) != self.ambient_rank:
                raise MonoidError("generator dimension mismatch")

    @property
    def is_trivial(self) -> bool:
        return not self.generators

    @cached_property
    def group_completion(self) -> Sublattice:
        """The sublattice of the ambient lattice generated by the monoid,
        computed on first use.  The cache lives in the instance __dict__,
        outside the dataclass fields, so equality and hashing ignore it."""
        return sublattice_from_vectors(self.ambient_rank, self.generators)


def _positive_grading(c: RationalCone) -> Vec:
    """Integer functional strictly positive on a pointed cone minus 0."""
    n = c.ambient_rank
    if not c.facet_normals:
        return (0,) * n
    return tuple(sum(a[i] for a in c.facet_normals) for i in range(n))


def _triangulate(ambient_rank: int, gens: list[Vec]) -> list[list[Vec]]:
    """Pulling triangulation of a pointed cone into simplicial subcones."""
    c = cone_from_generators(ambient_rank, gens)
    rays = list(c.generators)
    if not rays:
        return []
    d = c.dim()
    if len(rays) == d:
        return [rays]
    r0 = rays[0]
    simplices = []
    for a in c.facet_normals:
        if dot(a, r0) > 0:
            fgens = [g for g in rays if dot(a, g) == 0]
            for s in _triangulate(ambient_rank, fgens):
                simplices.append(s + [r0])
    return simplices


def _parallelepiped_points(rays: list[Vec], ambient_rank: int) -> list[Vec]:
    """Lattice points of {sum t_i r_i : 0 <= t_i < 1} for independent rays.

    In coordinates of the saturated span the rays form a square matrix R
    with U*R*V = D.  The cosets of Z^s / R Z^s are U^-1 * rep for rep in
    the box of the invariant factors d_k, and the coset's point has ray
    coefficients frac(R^-1 U^-1 rep) = frac(V * D^-1 * rep).  Scaled by
    the last invariant factor e, which every d_k divides, these are the
    integers (V * (e / d_k) * rep) mod e, so the point is
    rays * ((V * (e / d_k) * rep) mod e) / e.
    """
    s = len(rays)
    sat, _ = saturate_sublattice(sublattice_from_vectors(ambient_rank, rays))
    coords = [coordinates_in(sat, r) for r in rays]
    if any(co is None for co in coords):
        raise MonoidError("ray outside saturated span")
    snf = smith_normal_form(LatticeMap.from_columns(coords, s))
    divisors = snf.diagonal
    if any(d == 0 for d in divisors):
        raise MonoidError("rays are not linearly independent")
    e = divisors[-1]
    ray_map = LatticeMap.from_columns(rays, ambient_rank)
    pts = []
    for rep in product(*(range(d) for d in divisors)):
        y = snf.right_unimodular.apply(
            tuple(e // d * k for d, k in zip(divisors, rep)))
        frac = tuple(a % e for a in y)
        if is_zero(frac):
            continue
        pts.append(tuple(a // e for a in ray_map.apply(frac)))
    return pts


def _hilbert_pointed(c: RationalCone) -> list[Vec]:
    """Hilbert basis of a pointed cone intersected with the full lattice
    of its saturated span.

    Candidates come from the fundamental parallelepipeds of a pulling
    triangulation plus the extreme rays; a graded greedy sweep keeps the
    irreducible ones.
    """
    if c.lineality:
        raise MonoidError("Hilbert basis requires a pointed cone")
    rays = list(c.generators)
    if not rays:
        return []
    candidates = set(rays)
    for simplex in _triangulate(c.ambient_rank, rays):
        candidates.update(_parallelepiped_points(simplex, c.ambient_rank))
    w = _positive_grading(c)
    basis: list[Vec] = []
    # grlex order within each degree: the sort by degree is stable
    for p in sorted(grlex_sorted(candidates), key=lambda v: dot(w, v)):
        reducible = False
        for h in basis:
            q = vec_sub(p, h)
            if not is_zero(q) and c.contains(q):
                reducible = True
                break
        if not reducible:
            basis.append(p)
    return grlex_sorted(basis)


def hilbert_basis(c: RationalCone) -> AffineMonoid:
    """The saturated monoid c cap Z^rank with its Hilbert basis generators."""
    if c.lineality:
        raise MonoidError("Hilbert basis is only unique for pointed cones")
    gens = _hilbert_pointed(c)
    return AffineMonoid(
        ambient_rank=c.ambient_rank,
        generators=tuple(gens),
        cone=c,
        saturated=True,
        unit_sublattice=zero_sublattice(c.ambient_rank),
    )


def monoid_from_cone(c: RationalCone) -> AffineMonoid:
    """The saturated monoid c cap Z^rank, allowing lineality.

    With lineality the generators are canonical lifts of the sharp part's
    Hilbert basis together with a +-basis of the unit lattice.
    """
    if not c.lineality:
        return hilbert_basis(c)
    n = c.ambient_rank
    units = sublattice_from_vectors(n, c.lineality)
    split = QuotientSplit(units)
    img_gens = [split.project(g) for g in c.generators]
    img_cone = cone_from_generators(n - units.rank, img_gens)
    lifted = [split.section(h) for h in _hilbert_pointed(img_cone)]
    gens = list(lifted)
    for u in units.basis_vectors():
        gens.append(u)
        gens.append(vec_neg(u))
    return AffineMonoid(
        ambient_rank=n,
        generators=tuple(grlex_sorted(set(gens))),
        cone=c,
        saturated=True,
        unit_sublattice=units,
    )


def _nat_decompositions(gens: list[Vec], target: Vec, c: RationalCone,
                        min_total: int = 0, first_only: bool = False):
    """All ways to write target as an N-combination of gens inside a
    pointed cone c.  Yields coefficient tuples."""
    w = _positive_grading(c)
    order = sorted(range(len(gens)), key=lambda i: (-dot(w, gens[i]), gens[i]))
    out = []

    def rec(v, idx, coeffs, total):
        if is_zero(v):
            if total >= min_total:
                out.append(tuple(coeffs) + (0,) * (len(order) - len(coeffs)))
            return bool(out) and first_only
        if idx == len(order):
            return False
        if not c.contains(v):
            return False
        g = gens[order[idx]]
        dg = dot(w, g)
        dv = dot(w, v)
        cap = dv // dg if dg > 0 else 0
        for k in range(cap, -1, -1):
            rest = tuple(a - k * b for a, b in zip(v, g))
            if rec(rest, idx + 1, coeffs + [k], total + k):
                return True
        return False

    rec(tuple(target), 0, [], 0)
    fixed = []
    for co in out:
        full = [0] * len(gens)
        for pos, i in enumerate(order):
            full[i] = co[pos]
        fixed.append(tuple(full))
    return fixed


def monoid_contains(m: AffineMonoid, v: Vec) -> bool:
    """Membership of a lattice vector in the monoid."""
    v = tuple(v)
    if is_zero(v):
        return True
    if m.is_trivial:
        return False
    if m.saturated:
        if not m.cone.contains(v):
            return False
        gp = m.group_completion
        return coordinates_in(gp, v) is not None
    if not m.cone.contains(v):
        return False
    units = m.unit_sublattice
    if units.rank == 0:
        return bool(_nat_decompositions(list(m.generators), v, m.cone,
                                        first_only=True))
    sat_units, _ = saturate_sublattice(units)
    split = QuotientSplit(sat_units)
    pairs = [(split.project(g), g) for g in m.generators]
    pairs = [(q, g) for q, g in pairs if not is_zero(q)]
    target = split.project(v)
    if is_zero(target):
        return coordinates_in(units, v) is not None
    img_gens = [q for q, _ in pairs]
    img_cone = cone_from_generators(len(target), img_gens,
                                    strongly_convex=False)
    if img_cone.lineality:
        raise MonoidError("unit group does not exhaust the lineality")
    # distinct generators with equal projections differ only inside the
    # saturated unit span, not necessarily inside the unit lattice, so
    # every combination of lifts must be tried
    for coeffs in _nat_decompositions(img_gens, target, img_cone):
        x = (0,) * m.ambient_rank
        for (_, g), k in zip(pairs, coeffs):
            if k:
                x = tuple(a + k * b for a, b in zip(x, g))
        if coordinates_in(units, vec_sub(v, x)) is not None:
            return True
    return False


def _units_of_generators(ambient_rank: int, gens: list[Vec],
                         c: RationalCone) -> Sublattice:
    """Unit group: the lattice generated by generators lying in the
    lineality space (such a set always generates a group)."""
    if not c.lineality:
        return zero_sublattice(ambient_rank)
    lin = sublattice_from_vectors(ambient_rank, c.lineality)
    unit_gens = [g for g in gens if coordinates_in(lin, g) is not None]
    if not unit_gens:
        return zero_sublattice(ambient_rank)
    return image_lattice(LatticeMap.from_columns(unit_gens, ambient_rank))


def _saturation_generators(m_gens: list[Vec], ambient_rank: int):
    """Hilbert-basis generators of cone(gens) cap gp(gens), in ambient
    coordinates, together with the unit lattice of the saturation."""
    gp = sublattice_from_vectors(ambient_rank, m_gens)
    r = gp.rank
    if r == 0:
        return [], zero_sublattice(ambient_rank)
    coords = [coordinates_in(gp, g) for g in m_gens]
    inner_cone = cone_from_generators(r, coords, strongly_convex=False)
    inner = monoid_from_cone(inner_cone)
    gens = [gp.basis.apply(q) for q in inner.generators]
    unit_vecs = [gp.basis.apply(u)
                 for u in inner.unit_sublattice.basis_vectors()]
    units = sublattice_from_vectors(ambient_rank, unit_vecs) if unit_vecs \
        else zero_sublattice(ambient_rank)
    return grlex_sorted(gens), units


def _is_saturated(ambient_rank: int, gens: list[Vec], c: RationalCone,
                  units: Sublattice) -> bool:
    sat_gens, sat_units = _saturation_generators(list(gens), ambient_rank)
    if not lattices_equal(units, sat_units):
        return False
    gen_set = set(gens)
    probe = AffineMonoid(ambient_rank, tuple(gens), c, False, units)
    for h in sat_gens:
        if h in gen_set:
            continue
        if coordinates_in(units, h) is not None:
            continue
        if not monoid_contains(probe, h):
            return False
    return True


def affine_monoid(ambient_rank: int, generators) -> AffineMonoid:
    """Construct an affine monoid from an arbitrary generating set.

    Generators are deduplicated and, for pointed monoids, reduced to the
    irreducible elements; the saturated flag is computed.
    """
    gens = grlex_sorted({tuple(int(x) for x in g) for g in generators
                         if not is_zero(tuple(g))})
    c = cone_from_generators(ambient_rank, gens, strongly_convex=False)
    units = _units_of_generators(ambient_rank, gens, c)
    if not c.lineality:
        kept: list[Vec] = list(gens)
        for g in list(kept):
            others = [h for h in kept if h != g]
            if others and _nat_decompositions(others, g, c, first_only=True):
                kept.remove(g)
        gens = kept
    saturated = _is_saturated(ambient_rank, gens, c, units)
    return AffineMonoid(ambient_rank, tuple(gens), c, saturated, units)


def saturated_hull(ambient_rank: int, generators) -> AffineMonoid:
    """The saturation cone(S) cap gp(S) of the monoid generated by S,
    computed in one pass (no minimality analysis of S itself)."""
    gens = grlex_sorted({tuple(int(x) for x in g) for g in generators
                         if not is_zero(tuple(g))})
    c = cone_from_generators(ambient_rank, gens, strongly_convex=False)
    sat_gens, units = _saturation_generators(gens, ambient_rank)
    return AffineMonoid(
        ambient_rank=ambient_rank,
        generators=tuple(sat_gens),
        cone=c,
        saturated=True,
        unit_sublattice=units,
    )


def saturate(m: AffineMonoid) -> AffineMonoid:
    """Integral closure of m in its group completion: cone(m) cap gp(m)."""
    if m.saturated:
        return m
    gens, units = _saturation_generators(list(m.generators), m.ambient_rank)
    return AffineMonoid(
        ambient_rank=m.ambient_rank,
        generators=tuple(gens),
        cone=m.cone,
        saturated=True,
        unit_sublattice=units,
    )


def sharpen(m: AffineMonoid) -> tuple[AffineMonoid, Sublattice]:
    """Quotient of m by its unit group, modelled in the quotient lattice
    by the saturation of the unit lattice; returns (sharp monoid, units)."""
    units = m.unit_sublattice
    if units.rank == 0:
        return m, units
    sat_units, _ = saturate_sublattice(units)
    split = QuotientSplit(sat_units)
    q_rank = m.ambient_rank - sat_units.rank
    img = grlex_sorted({split.project(g) for g in m.generators}
                       - {(0,) * q_rank})
    if m.saturated:
        qcone = cone_from_generators(q_rank, img)
        sharp = AffineMonoid(q_rank, tuple(img), qcone, True,
                             zero_sublattice(q_rank))
    else:
        sharp = affine_monoid(q_rank, img)
    return sharp, units


def trivial_monoid(ambient_rank: int) -> AffineMonoid:
    return AffineMonoid(
        ambient_rank=ambient_rank,
        generators=(),
        cone=cone_from_generators(ambient_rank, []),
        saturated=True,
        unit_sublattice=zero_sublattice(ambient_rank),
    )


def monoids_equal(a: AffineMonoid, b: AffineMonoid) -> bool:
    """Equality as submonoids of the same ambient lattice, independent of
    the generator presentations."""
    if a.ambient_rank != b.ambient_rank:
        return False
    if a.generators == b.generators:
        return True
    return (all(monoid_contains(b, g) for g in a.generators)
            and all(monoid_contains(a, g) for g in b.generators))
