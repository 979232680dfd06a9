"""Affine toric charts (N, sigma): boundary ideals, orbit bookkeeping,
face localization and torus-factor splitting.

A chart is a strongly convex rational cone sigma in a lattice N together
with the dual monoid sigma-dual cap M.  All computations are exact.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cone import (
    Face,
    RationalCone,
    cone_from_generators,
    dual_cone,
    faces as cone_faces,
    grlex_sorted,
)
from .lattice import (
    LatticeMap,
    QuotientSplit,
    Sublattice,
    Vec,
    complement,
    coordinates_in,
    dot,
    lattices_equal,
    saturate_sublattice,
    sublattice_from_vectors,
    vec_neg,
    vec_sub,
)
from .monoid import (
    AffineMonoid,
    affine_monoid,
    monoid_contains,
    monoid_from_cone,
    sharpen,
)


class ChartError(ValueError):
    pass


@dataclass(frozen=True)
class ToricChart:
    """The data (N, sigma) with the dual monoid sigma-dual cap M."""

    lattice_rank: int
    cone: RationalCone
    dual_monoid: AffineMonoid

    def __post_init__(self):
        if self.cone.ambient_rank != self.lattice_rank:
            raise ChartError("cone does not live in the chart lattice")
        if not self.cone.is_strongly_convex:
            raise ChartError("chart cone must be strongly convex")
        if not self.dual_monoid.saturated:
            raise ChartError("dual monoid must be saturated")


def toric_chart(lattice_rank: int, cone_generators) -> ToricChart:
    """Build the chart of the cone spanned by the given ray generators."""
    sigma = cone_from_generators(lattice_rank, cone_generators)
    dual = monoid_from_cone(dual_cone(sigma))
    return ToricChart(lattice_rank, sigma, dual)


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal in a monoid algebra, given by exponent vectors."""

    monoid: AffineMonoid
    generator_exponents: tuple[Vec, ...]

    def __post_init__(self):
        for m in self.generator_exponents:
            if not monoid_contains(self.monoid, m):
                raise ChartError("ideal exponent outside the monoid")
        for a in self.generator_exponents:
            for b in self.generator_exponents:
                if a != b and monoid_contains(self.monoid, vec_sub(a, b)):
                    raise ChartError("ideal generators are not an antichain")


@dataclass(frozen=True)
class OrbitData:
    """Orbit dimension and closure monoid attached to a face of sigma."""

    face: Face
    orbit_dimension: int
    closure_monoid: AffineMonoid


@dataclass(frozen=True)
class SplitResult:
    """Decomposition N = N1 + N2 with the cone inside N1."""

    n1: Sublattice
    n2: Sublattice
    factor_monoid: AffineMonoid
    torus_rank: int


def _vanishing_generators(c: ToricChart, gens) -> list[Vec]:
    """The dual-monoid generators vanishing on the vectors gens."""
    return [m for m in c.dual_monoid.generators
            if all(dot(m, g) == 0 for g in gens)]


def _face_normal(c: ToricChart, gens) -> Vec:
    active = _vanishing_generators(c, gens)
    return tuple(map(sum, zip(*active))) if active else (0,) * c.lattice_rank


def chart_faces(c: ToricChart) -> list[Face]:
    """Faces of the chart cone, with defining normals taken from the dual
    Hilbert basis: the normal of a face is the sum of the dual-monoid
    generators vanishing on it."""
    return [Face(c.cone, _face_normal(c, f.generators), f.generators)
            for f in cone_faces(c.cone)]


def chart_face(c: ToricChart, generators) -> Face:
    """The face of the chart cone whose ray generators are exactly the
    given vectors, with the defining normal chart_faces gives it.

    The dual generators vanishing on a set of rays generate the dual
    face, so their sum vanishes on exactly the rays of the smallest face
    containing the set.  The set is a face's ray set exactly when it is
    closed in that sense: the sum vanishes on no other ray.
    """
    want = set(generators)
    gens = tuple(g for g in c.cone.generators if g in want)
    if len(gens) == len(want):
        normal = _face_normal(c, gens)
        if all(dot(normal, g) for g in c.cone.generators if g not in want):
            return Face(c.cone, normal, gens)
    raise ChartError("the given generators span no face of the cone")


def _require_face(c: ToricChart, f: Face):
    if f.parent != c.cone:
        raise ChartError("not a face of this chart's cone")


def orbit_data(c: ToricChart, f: Face) -> OrbitData:
    """Dimension and closure monoid of the torus orbit of a face.

    The closure monoid is the face of the dual monoid perpendicular to f,
    generated by the dual generators vanishing on f.
    """
    _require_face(c, f)
    closure = affine_monoid(c.lattice_rank,
                            _vanishing_generators(c, f.generators))
    return OrbitData(
        face=f,
        orbit_dimension=c.lattice_rank - f.dim(),
        closure_monoid=closure,
    )


def face_localization(c: ToricChart, f: Face) -> ToricChart:
    """The chart (N, f): same lattice, the cone replaced by the face."""
    _require_face(c, f)
    return toric_chart(c.lattice_rank, f.generators)


def triviality_locus_group(c: ToricChart) -> Sublattice:
    """Group completion of the dual monoid (the character lattice of the
    open locus where the boundary is absent)."""
    return c.dual_monoid.group_completion


def _ray_pairing_rows(c: ToricChart, split: QuotientSplit | None):
    """Pairing of (sharp) dual-monoid vectors with the cone's ray
    generators, one row per ray."""
    rays = c.cone.generators
    if split is None:
        return [tuple(r) for r in rays]
    # pairing with a ray vanishes on the unit part, so it descends to the
    # sharp quotient: evaluate on the section of each quotient basis
    # vector, which is the matching complement basis vector
    comp = split.complement.basis_vectors()
    return [tuple(dot(r, w) for w in comp) for r in rays]


def boundary_ideal_generators(c: ToricChart) -> MonomialIdeal:
    """Minimal generators of the ideal I of monoid elements that pair
    >= 1 with every ray generator of the cone.

    The work happens in the sharp dual monoid S = C cap Z^r, with C the
    (pointed, full-dimensional) sharp dual cone and w the grading given
    by the sum of the pairings with the rays; w is positive on C - 0.

    Degree bound: by Caratheodory a minimal generator m is
    sum lambda_i v_i with lambda_i >= 0 over at most r linearly
    independent primitive extreme rays v_i of C.  If some lambda_i >= 2,
    then m - v_i lies in C, and it still pairs >= 1 with every ray u:
    where <u, v_i> = 0 its pairing is that of m, otherwise it is at least
    (lambda_i - 1) <u, v_i> >= 1.  So m - v_i is in I and m is not
    minimal.  Hence every lambda_i < 2 and w(m) < 2 * (sum of the r
    largest w(v)).

    One breadth-first pass over the Hilbert basis enumerates S below
    that degree (w >= 1 on every basis element, so partial sums stay
    below it).  An element m of I is minimal exactly when m - h is not in
    I for every Hilbert-basis element h: any m' in I with m - m' in
    S - 0 has m - m' = h + s, so m - h = m' + s is in I.
    """
    dual = c.dual_monoid
    if not c.cone.generators:
        return MonomialIdeal(dual, ())
    units = dual.unit_sublattice
    if units.rank:
        split = QuotientSplit(units)
        sharp, _ = sharpen(dual)
        lift = split.section
    else:
        split = None
        sharp = dual
        lift = lambda v: v
    r = sharp.ambient_rank
    hb = sharp.generators
    pair_rows = _ray_pairing_rows(c, split)
    in_ideal = lambda v: all(dot(row, v) >= 1 for row in pair_rows)
    grading = tuple(sum(row[i] for row in pair_rows) for i in range(r))
    ray_degrees = sorted((dot(grading, v) for v in sharp.cone.generators),
                         reverse=True)
    bound = 2 * sum(ray_degrees[:r])
    frontier = {(0,) * r}
    elements = set(frontier)
    while frontier:
        sums = {tuple(a + b for a, b in zip(v, h))
                for v in frontier for h in hb}
        frontier = {w for w in sums if dot(grading, w) < bound} - elements
        elements |= frontier
    gens = grlex_sorted(m for m in elements if in_ideal(m) and not any(
        in_ideal(vec_sub(m, h)) for h in hb))
    return MonomialIdeal(dual, tuple(lift(g) for g in gens))


def split_torus_factor(c: ToricChart) -> SplitResult:
    """Split off the torus factor of a non-full-dimensional cone.

    n1 is the saturation of the span of the cone generators, n2 the
    canonical complement; the factor monoid is the dual monoid of the
    cone rewritten inside n1.
    """
    n = c.lattice_rank
    span = sublattice_from_vectors(n, c.cone.generators)
    n1, _ = saturate_sublattice(span)
    n2 = complement(n1)
    if n1.rank == n:
        return SplitResult(n1, n2, c.dual_monoid, 0)
    coords = [coordinates_in(n1, g) for g in c.cone.generators]
    if any(q is None for q in coords):
        raise ChartError("cone generator outside the saturated span")
    tau1 = cone_from_generators(n1.rank, coords)
    factor = monoid_from_cone(dual_cone(tau1))
    return SplitResult(n1, n2, factor, n - n1.rank)


def reassembled_generators(c: ToricChart, s: SplitResult) -> list[Vec]:
    """Generators of (factor monoid + Z^torus_rank) carried into M by the
    dual of the basis change [n1 | n2], with n2 = complement(n1)."""
    dual_rows = QuotientSplit(s.n1).inverse.entries
    k = s.n1.rank
    to_m = LatticeMap.from_columns(dual_rows[:k], c.lattice_rank)
    out = [to_m.apply(q) for q in s.factor_monoid.generators]
    for row in dual_rows[k:]:
        out.append(row)
        out.append(vec_neg(row))
    return grlex_sorted(set(out))


def verify_split_reassembly(c: ToricChart, s: SplitResult) -> bool:
    """Check that the reassembled generators and the dual-monoid
    generators present the same monoid, matching bijectively modulo the
    torus-character units."""
    reassembled = reassembled_generators(c, s)
    if len(reassembled) != len(c.dual_monoid.generators):
        return False
    for g in reassembled:
        if not monoid_contains(c.dual_monoid, g):
            return False
    units = c.dual_monoid.unit_sublattice
    # units among the reassembled generators: those whose negative is
    # also a generator
    gen_set = set(reassembled)
    unit_vecs = [g for g in gen_set if vec_neg(g) in gen_set]
    reass_units = sublattice_from_vectors(c.lattice_rank, unit_vecs)
    if not lattices_equal(units, reass_units):
        return False
    if units.rank == 0:
        return gen_set == set(c.dual_monoid.generators)
    split = QuotientSplit(saturate_sublattice(units)[0])
    zero = (0,) * (c.lattice_rank - split.sub_rank)
    sharp_reass = {split.project(g) for g in gen_set} - {zero}
    sharp_orig = {split.project(g)
                  for g in c.dual_monoid.generators} - {zero}
    return sharp_reass == sharp_orig
