"""Saturated base change of monoid charts.

Given theta: P -> Q (a dominant chart) and phi: P -> P', the pushout of
groups (Q^gp + P'^gp) / <(theta(p), -phi(p))> is computed by Smith
normal form.  The submonoid generated by the images of Q and P' in the
torsion-free quotient is integralized and saturated; the result is the
chart of the component of the fibre product dominating the base, and
the reported torsion order counts the components permuted by characters
of the torsion subgroup.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .lattice import (
    LatticeMap,
    QuotientSplit,
    Vec,
    coordinates_in,
    dot,
    saturate_sublattice,
    smith_normal_form,
)
from .monoid import AffineMonoid, monoids_equal, saturated_hull
from .log_morphism import MonoidChart, is_dominant, is_log_smooth


class BaseChangeError(ValueError):
    pass


@dataclass(frozen=True)
class PushoutPresentation:
    """The group pushout (Q^gp + P'^gp) / antidiagonal image of P^gp,
    split into a free part and torsion divisors."""

    group_pushout_rank: int
    torsion_divisors: tuple[int, ...]
    q_images: tuple[Vec, ...]
    p2_images: tuple[Vec, ...]
    torsion_order: int

    def __post_init__(self):
        if self.torsion_order != prod(self.torsion_divisors):
            raise BaseChangeError("torsion order does not match divisors")


@dataclass(frozen=True)
class SatBaseChangeResult:
    """The base change, with the structural map's log-smoothness verdict
    and kernel certificate as ``is_log_smooth`` gives them."""

    main_monoid: AffineMonoid
    structural_map: MonoidChart
    torsion_order: int
    fibre_dim: int
    torsion_divisors: tuple[int, ...]
    structural_log_smooth: bool
    structural_kernel: tuple[Vec, ...]


def _gp_coords(m: AffineMonoid):
    """(basis vectors, coordinate function) for the group completion."""
    gp = m.group_completion

    def coords(v):
        q = coordinates_in(gp, v)
        if q is None:
            raise BaseChangeError("vector outside the group completion")
        return q

    return gp, coords


def monoid_pushout(theta: MonoidChart, phi: MonoidChart) -> PushoutPresentation:
    """Pushout of theta: P -> Q along phi: P -> P' at group level.

    Returns the free rank, the torsion divisors, and the images of the
    generators of Q and P' in the torsion-free quotient of the pushout
    group.
    """
    presentation, _ = _pushout_with_rows(theta, phi)
    return presentation


def _pushout_with_rows(theta: MonoidChart, phi: MonoidChart):
    """monoid_pushout plus the projection rows onto the free quotient."""
    if not monoids_equal(theta.source, phi.source):
        raise BaseChangeError("charts must share the same source monoid")
    p = theta.source
    gp_p, _ = _gp_coords(p)
    gp_q, coords_q = _gp_coords(theta.target)
    gp_p2, coords_p2 = _gp_coords(phi.target)
    rq, rp2 = gp_q.rank, gp_p2.rank
    n = rq + rp2
    cols = []
    for b in gp_p.basis_vectors():
        top = coords_q(theta.map.apply(b))
        bot = coords_p2(phi.map.apply(b))
        cols.append(tuple(top) + tuple(-x for x in bot))
    snf = smith_normal_form(LatticeMap.from_columns(cols, n))
    r = sum(1 for d in snf.diagonal if d != 0)
    divisors = tuple(d for d in snf.diagonal[:r] if d > 1)
    free_rows = []
    for row in snf.left_unimodular.entries[r:]:
        for x in row:
            if x > 0:
                break
            if x < 0:
                row = tuple(-y for y in row)
                break
        free_rows.append(row)

    def to_free(y: Vec) -> Vec:
        return tuple(dot(row, y) for row in free_rows)

    zero_q = (0,) * rq
    zero_p2 = (0,) * rp2
    q_images = tuple(to_free(tuple(coords_q(g)) + zero_p2)
                     for g in theta.target.generators)
    p2_images = tuple(to_free(zero_q + tuple(coords_p2(g)))
                      for g in phi.target.generators)
    # both routes from P must agree in the quotient
    for g in p.generators:
        via_q = to_free(tuple(coords_q(theta.map.apply(g))) + zero_p2)
        via_p2 = to_free(zero_q + tuple(coords_p2(phi.map.apply(g))))
        if via_q != via_p2:
            raise BaseChangeError("pushout routes disagree in the quotient")
    return PushoutPresentation(
        group_pushout_rank=n - r,
        torsion_divisors=divisors,
        q_images=q_images,
        p2_images=p2_images,
        torsion_order=prod(divisors),
    ), free_rows


def _ambient_extension(m: AffineMonoid, basis_images: list[Vec],
                       target_rank: int) -> LatticeMap:
    """Extend a map defined on gp(m) basis vectors to the ambient lattice.

    Vectors in the saturation of gp(m) get the unique divisible value; a
    complement of the saturation is sent to zero.
    """
    gp = m.group_completion
    sat, index = saturate_sublattice(gp)
    on_gp = LatticeMap.from_columns(basis_images, target_rank)
    img_cols = []
    for v in sat.basis_vectors():
        c = coordinates_in(gp, tuple(index * x for x in v))
        if c is None:
            raise BaseChangeError("saturation index does not clear torsion")
        img = on_gp.apply(c)
        if any(x % index for x in img):
            raise BaseChangeError(
                "structural map has no integral extension to the ambient "
                "lattice")
        img_cols.append(tuple(x // index for x in img))
    # the value on e_b is the image of its coordinates along sat, which
    # are the first sat.rank entries of column b of the inverse
    on_sat = LatticeMap.from_columns(img_cols, target_rank)
    inverse = QuotientSplit(sat).inverse
    return LatticeMap.from_columns(
        [on_sat.apply(col[:sat.rank]) for col in inverse.columns()],
        target_rank)


def saturated_base_change(theta: MonoidChart,
                          phi: MonoidChart) -> SatBaseChangeResult:
    """Chart of the saturated fibre product's component dominating the
    base of phi.

    The submonoid of the torsion-free pushout quotient generated by the
    images of Q and P' is saturated; the structural map sends P' to its
    images.  Requires theta dominant.
    """
    # the pushout's errors take precedence over the dominance check
    po, free_rows = _pushout_with_rows(theta, phi)
    if not is_dominant(theta):
        raise BaseChangeError(
            "saturated base change requires a dominant first chart")
    f = po.group_pushout_rank
    main = saturated_hull(f, list(po.q_images) + list(po.p2_images))
    p2 = phi.target
    gp_p2 = p2.group_completion
    rq = theta.target.group_completion.rank
    # the free-quotient image of the i-th basis vector of P'^gp
    basis_images = [tuple(row[rq + i] for row in free_rows)
                    for i in range(gp_p2.rank)]
    smap = _ambient_extension(p2, basis_images, f)
    structural = MonoidChart(source=p2, target=main, map=smap)
    # one kernel of the map on P'^gp gives both the rank of its image
    # and the log-smoothness verdict that verify_base_change reports
    smooth, kernel_basis = is_log_smooth(structural)
    image_rank = gp_p2.rank - len(kernel_basis)
    fibre_dim = main.group_completion.rank - image_rank
    return SatBaseChangeResult(
        main_monoid=main,
        structural_map=structural,
        torsion_order=po.torsion_order,
        fibre_dim=fibre_dim,
        torsion_divisors=po.torsion_divisors,
        structural_log_smooth=smooth,
        structural_kernel=tuple(kernel_basis),
    )


def verify_base_change(r: SatBaseChangeResult, theta: MonoidChart) -> dict:
    """Check the stability assertions for a base-change result.

    Returns a report with one boolean per assertion: the main monoid is
    saturated, the structural map is log-smooth and dominant, and the
    fibre dimension equals the group-rank difference.  The log-smooth
    verdict and its kernel certificate are the ones
    saturated_base_change kept on the result.
    """
    saturated_ok = r.main_monoid.saturated
    smooth_ok = r.structural_log_smooth
    # in characteristic zero both are injectivity of the map on P'^gp
    dominant_ok = smooth_ok
    rank_main = r.main_monoid.group_completion.rank
    rank_src = r.structural_map.source.group_completion.rank
    fibre_ok = r.fibre_dim == rank_main - rank_src if dominant_ok \
        else r.fibre_dim >= rank_main - rank_src
    report = {
        "main_monoid_saturated": saturated_ok,
        "structural_map_log_smooth": smooth_ok,
        "structural_map_dominant": dominant_ok,
        "fibre_dim_matches_rank_difference": fibre_ok,
        "passed": saturated_ok and smooth_ok and dominant_ok and fibre_ok,
    }
    if not smooth_ok:
        report["kernel_certificate"] = list(r.structural_kernel)
    return report
