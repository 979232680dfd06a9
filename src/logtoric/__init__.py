"""Exact combinatorics of toric charts, fs monoids and saturated base
change: integer linear algebra, rational cones, Hilbert bases, monoid
chart classification and fine/saturated pushouts, all in exact
arithmetic."""

__version__ = "0.1.0"

from .lattice import (
    LatticeError,
    LatticeMap,
    SmithDecomposition,
    Sublattice,
    cokernel_invariants,
    complement,
    coordinates_in,
    image_lattice,
    kernel,
    lattices_equal,
    saturate_sublattice,
    smith_normal_form,
    sublattice_from_vectors,
)
from .cone import (
    ConeError,
    Face,
    RationalCone,
    cone_from_generators,
    dual_cone,
    faces,
)
from .monoid import (
    AffineMonoid,
    MonoidError,
    NatTupleSet,
    affine_monoid,
    hilbert_basis,
    minimal_elements,
    monoid_contains,
    monoid_from_cone,
    saturate,
    sharpen,
)
from .toric_chart import (
    ChartError,
    MonomialIdeal,
    OrbitData,
    SplitResult,
    ToricChart,
    boundary_ideal_generators,
    chart_face,
    chart_faces,
    face_localization,
    orbit_data,
    split_torus_factor,
    toric_chart,
    triviality_locus_group,
)
from .log_morphism import (
    ChartMapError,
    MonoidChart,
    fibre_dimension,
    from_toric_morphism,
    identity_chart,
    is_dominant,
    is_log_etale,
    is_log_smooth,
    is_strict,
)
from .base_change import (
    BaseChangeError,
    PushoutPresentation,
    SatBaseChangeResult,
    monoid_pushout,
    saturated_base_change,
    verify_base_change,
)
