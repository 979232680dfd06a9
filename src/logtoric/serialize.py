"""JSON encoding of cones, monoids, charts and results.

All integers are carried as decimal strings so downstream JSON tooling
never rounds them through 53-bit floats.  Dumps are canonical: sorted
keys, two-space indent, trailing newline.
"""

from __future__ import annotations

import json

from .base_change import SatBaseChangeResult
from .cone import RationalCone, cone_from_generators
from .lattice import LatticeMap
from .log_morphism import MonoidChart
from .monoid import AffineMonoid, affine_monoid, saturate, saturated_hull
from .oracle import Box
from .toric_chart import ToricChart, toric_chart


class FormatError(ValueError):
    """Structurally invalid document."""


def _int(x) -> int:
    if isinstance(x, bool):
        raise FormatError("expected an integer, got a boolean")
    if isinstance(x, int):
        return x
    if isinstance(x, str):
        try:
            return int(x, 10)
        except ValueError:
            raise FormatError(f"not a decimal integer: {x!r}") from None
    raise FormatError(f"expected an integer, got {type(x).__name__}")


def encode_vector(v) -> list:
    return [str(int(x)) for x in v]


def decode_vector(obj, rank: int | None = None) -> tuple:
    if not isinstance(obj, list):
        raise FormatError("vector must be a JSON array")
    v = tuple(_int(x) for x in obj)
    if rank is not None and len(v) != rank:
        raise FormatError(f"vector has length {len(v)}, expected {rank}")
    return v


def encode_vectors(vs) -> list:
    return [encode_vector(v) for v in vs]


def decode_vectors(obj, rank: int | None = None) -> list:
    if not isinstance(obj, list):
        raise FormatError("vector list must be a JSON array")
    return [decode_vector(v, rank) for v in obj]


def decode_box(obj) -> Box:
    """An oracle search box: a rank and the lower and upper corners."""
    def field(key):
        if not isinstance(obj, dict) or key not in obj:
            raise FormatError(f"missing required field {key!r}")
        return obj[key]

    rank = _int(field("rank"))
    return Box(rank, decode_vector(field("lower"), rank),
               decode_vector(field("upper"), rank))


def encode_matrix(m: LatticeMap) -> list:
    return [encode_vector(row) for row in m.entries]


def decode_matrix(obj, source_rank: int, target_rank: int) -> LatticeMap:
    rows = decode_vectors(obj, source_rank)
    if len(rows) != target_rank:
        raise FormatError(
            f"matrix has {len(rows)} rows, expected {target_rank}")
    return LatticeMap(source_rank, target_rank, tuple(rows))


def encode_cone(c: RationalCone) -> dict:
    return {
        "rank": str(c.ambient_rank),
        "generators": encode_vectors(c.generating_rays()),
        "facet_normals": encode_vectors(c.facet_normals),
    }


def decode_cone(obj, strongly_convex: bool = False) -> RationalCone:
    if not isinstance(obj, dict) or "rank" not in obj:
        raise FormatError("cone must be an object with a rank")
    rank = _int(obj["rank"])
    gens = decode_vectors(obj.get("generators", []), rank)
    c = cone_from_generators(rank, gens, strongly_convex=strongly_convex)
    if "facet_normals" in obj:
        stored = set(decode_vectors(obj["facet_normals"], rank))
        if stored != set(c.facet_normals):
            raise FormatError("stored facet normals disagree with "
                              "the recomputed ones")
    return c


def encode_monoid(m: AffineMonoid) -> dict:
    return {
        "rank": str(m.ambient_rank),
        "generators": encode_vectors(m.generators),
        "saturated": m.saturated,
    }


def decode_monoid(obj) -> AffineMonoid:
    if not isinstance(obj, dict) or "rank" not in obj:
        raise FormatError("monoid must be an object with a rank")
    rank = _int(obj["rank"])
    gens = decode_vectors(obj.get("generators", []), rank)
    if obj.get("saturated"):
        # With no units, the saturation is pointed and its Hilbert basis is
        # the set of irreducibles that affine_monoid would keep, so the
        # hull is what affine_monoid followed by saturate returns.
        m = saturated_hull(rank, gens)
        if m.unit_sublattice.rank == 0:
            return m
    m = affine_monoid(rank, gens)
    if obj.get("saturated") and not m.saturated:
        m = saturate(m)
    return m


def encode_toric_chart(c: ToricChart) -> dict:
    return {
        "lattice_rank": str(c.lattice_rank),
        "cone_generators": encode_vectors(c.cone.generators),
    }


def decode_toric_chart(obj) -> ToricChart:
    if not isinstance(obj, dict) or "lattice_rank" not in obj:
        raise FormatError("chart must be an object with a lattice_rank")
    rank = _int(obj["lattice_rank"])
    gens = decode_vectors(obj.get("cone_generators", []), rank)
    return toric_chart(rank, gens)


def encode_monoid_chart(c: MonoidChart) -> dict:
    return {
        "source": encode_monoid(c.source),
        "target": encode_monoid(c.target),
        "matrix": encode_matrix(c.map),
    }


def decode_monoid_chart(obj) -> MonoidChart:
    if not isinstance(obj, dict) or "matrix" not in obj:
        raise FormatError("monoid chart must be an object with a matrix")
    source = decode_monoid(obj.get("source"))
    target = decode_monoid(obj.get("target"))
    m = decode_matrix(obj["matrix"], source.ambient_rank,
                      target.ambient_rank)
    return MonoidChart(source, target, m)


def encode_base_change_result(r: SatBaseChangeResult) -> dict:
    return {
        "main_monoid": encode_monoid(r.main_monoid),
        "structural_matrix": encode_matrix(r.structural_map.map),
        "torsion_order": str(r.torsion_order),
        "fibre_dim": str(r.fibre_dim),
    }


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
