"""Monoid charts theta: P -> Q and their classification predicates.

All predicates work on group completions: dominance and log-smoothness
(in characteristic zero) are injectivity of theta on P^gp, log-etaleness
additionally requires a finite cokernel, strictness compares the
sharpenings.  The p-divisibility clauses of the general log-smoothness
criterion are vacuous in characteristic zero and deliberately absent.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lattice import (
    LatticeMap,
    QuotientSplit,
    Vec,
    cokernel_invariants,
    coordinates_in,
    kernel,
    saturate_sublattice,
)
from .monoid import AffineMonoid, monoid_contains, sharpen
from .toric_chart import ToricChart


class ChartMapError(ValueError):
    pass


@dataclass(frozen=True)
class MonoidChart:
    """A monoid homomorphism P -> Q given by an integer linear map."""

    source: AffineMonoid
    target: AffineMonoid
    map: LatticeMap

    def __post_init__(self):
        if self.map.source_rank != self.source.ambient_rank:
            raise ChartMapError("map source rank mismatch")
        if self.map.target_rank != self.target.ambient_rank:
            raise ChartMapError("map target rank mismatch")
        for g in self.source.generators:
            if not monoid_contains(self.target, self.map.apply(g)):
                raise ChartMapError(
                    f"image of generator {g} is not in the target monoid")


def identity_chart(m: AffineMonoid) -> MonoidChart:
    return MonoidChart(m, m, LatticeMap.identity(m.ambient_rank))


def from_toric_morphism(src: ToricChart, dst: ToricChart,
                        lattice_map: LatticeMap) -> MonoidChart:
    """Dualize a lattice map of fans into a chart of dual monoids.

    The toric morphism lives on the ray side (N_src -> N_dst, cone into
    cone); its chart is the transpose acting on characters, going the
    other way: dst.dual_monoid -> src.dual_monoid.
    """
    if lattice_map.source_rank != src.lattice_rank \
            or lattice_map.target_rank != dst.lattice_rank:
        raise ChartMapError("lattice map does not match the chart lattices")
    for u in src.cone.generating_rays():
        if not dst.cone.contains(lattice_map.apply(u)):
            raise ChartMapError(
                f"cone containment fails: image of ray {u} "
                f"is {lattice_map.apply(u)}, outside the target cone")
    return MonoidChart(
        source=dst.dual_monoid,
        target=src.dual_monoid,
        map=lattice_map.transpose(),
    )


def is_dominant(c: MonoidChart) -> bool:
    """True iff theta^gp is injective on the source group completion."""
    return is_log_smooth(c)[0]


def is_log_smooth(c: MonoidChart) -> tuple[bool, list[Vec]]:
    """Characteristic-zero log-smoothness: injectivity of theta^gp.

    Returns (verdict, certificate); the certificate is a basis of the
    kernel of theta^gp in ambient source coordinates when the verdict is
    false, empty otherwise.
    """
    basis = c.source.group_completion.basis
    if basis.source_rank == 0:
        return True, []
    # theta^gp as a map from P^gp coordinates to the ambient target
    gp = LatticeMap.from_columns([c.map.apply(b) for b in basis.columns()],
                                 c.target.ambient_rank)
    ker = kernel(gp)
    if ker.rank == 0:
        return True, []
    return False, [basis.apply(k) for k in ker.basis_vectors()]


def cokernel_of_gp(c: MonoidChart) -> tuple[int, tuple[int, ...]]:
    """(free rank, torsion divisors) of Q^gp / theta^gp(P^gp)."""
    src_basis = c.source.group_completion.basis_vectors()
    tgt = c.target.group_completion
    cols = []
    for b in src_basis:
        q = coordinates_in(tgt, c.map.apply(b))
        if q is None:
            raise ChartMapError("generator image escapes the target group")
        cols.append(q)
    x = LatticeMap.from_columns(cols, tgt.rank)
    return cokernel_invariants(x)


def is_log_etale(c: MonoidChart) -> bool:
    """True iff theta^gp is injective with finite cokernel.

    Cokernel torsion of any order is allowed: every finite order is
    invertible in characteristic zero (Kummer covers are log-etale).
    """
    if not is_dominant(c):
        return False
    free_rank, _ = cokernel_of_gp(c)
    return free_rank == 0


def _sharp_projection(m: AffineMonoid):
    """Projection of m onto its sharpening's coordinates."""
    units = m.unit_sublattice
    if units.rank == 0:
        return lambda v: tuple(v)
    split = QuotientSplit(saturate_sublattice(units)[0])
    return split.project


def is_strict(c: MonoidChart) -> bool:
    """Chart-level strictness: the induced map of sharpenings
    P/P* -> Q/Q* carries generators bijectively onto generators."""
    sharp_p, units_p = sharpen(c.source)
    sharp_q, _ = sharpen(c.target)
    proj_p = _sharp_projection(c.source)
    proj_q = _sharp_projection(c.target)
    # units must land in units for the sharpened map to exist
    for u in units_p.basis_vectors():
        if coordinates_in(c.target.unit_sublattice, c.map.apply(u)) is None:
            return False
    zero_p = (0,) * sharp_p.ambient_rank
    zero_q = (0,) * sharp_q.ambient_rank
    induced: dict[Vec, Vec] = {}
    for g in c.source.generators:
        key = proj_p(g)
        if key == zero_p:
            continue
        val = proj_q(c.map.apply(g))
        if key in induced and induced[key] != val:
            # the map does not descend along the unit saturation
            return False
        induced[key] = val
    if set(induced) != set(sharp_p.generators):
        return False
    values = [induced[k] for k in induced]
    if len(set(values)) != len(values):
        return False
    return set(values) == set(sharp_q.generators) and zero_q not in values


def fibre_dimension(c: MonoidChart) -> int:
    """rank Q^gp - rank theta^gp(P^gp), defined for dominant charts."""
    if not is_dominant(c):
        raise ChartMapError("fibre dimension requires a dominant chart")
    # theta^gp is injective, so its image has the rank of P^gp
    return c.target.group_completion.rank - c.source.group_completion.rank
