"""The cone routines as they were before the double description, closure
and Cramer rewrites.

Test-only reference for the cross-checks in test_cone_reference.py:

- ``extreme_rays_of_halfspaces`` tries every (d-1)-subset of the rows
  and runs a full SNF kernel on each, where the library adds one row at
  a time by incremental double description;
- ``cone_from_generators`` always runs the halfspace-to-ray step twice,
  once for the facets and once more on the facets for the rays;
- ``dual_cone`` is the library's, on the subset search above;
- ``faces`` walks all 2^F subsets of the facets.

Each returns the same sets in the same order as the library routine it
shadows, so the tests compare them with ==.
"""

from __future__ import annotations

from itertools import combinations

from logtoric.cone import ConeError, Face, RationalCone, grlex_sorted
from logtoric.lattice import (
    LatticeMap,
    complement,
    dot,
    is_zero,
    kernel,
    primitive,
    sublattice_from_vectors,
    vec_neg,
)


def _sorted_vecs(vectors):
    return tuple(grlex_sorted({tuple(v) for v in vectors}))


def _sign_normalized(v):
    for a in v:
        if a > 0:
            return tuple(v)
        if a < 0:
            return vec_neg(v)
    return tuple(v)


def extreme_rays_of_halfspaces(rows, ambient_rank):
    rows = [tuple(r) for r in rows]
    for r in rows:
        if len(r) != ambient_rank:
            raise ConeError("halfspace normal has wrong dimension")
    rows = [r for r in rows if not is_zero(r)]
    n = ambient_rank
    if not rows:
        return [], sublattice_from_vectors(
            n, LatticeMap.identity(n).columns()).basis_vectors()
    lin = kernel(LatticeMap(n, len(rows), rows))
    lin_basis = lin.basis_vectors()
    d = n - lin.rank
    if d == 0:
        return [], lin_basis
    comp = complement(lin) if lin.rank else None
    wcols = comp.basis_vectors() if comp is not None \
        else LatticeMap.identity(n).columns()
    arows = [tuple(dot(r, w) for w in wcols) for r in rows]
    cands = set()
    if d == 1:
        if all(a[0] >= 0 for a in arows):
            cands.add((1,))
        if all(a[0] <= 0 for a in arows):
            cands.add((-1,))
    else:
        seen = set()
        for subset in combinations(range(len(arows)), d - 1):
            sub = [arows[i] for i in subset]
            ker = kernel(LatticeMap(d, d - 1, sub))
            if ker.rank != 1:
                continue
            w = primitive(ker.basis_vectors()[0])
            if w in seen or vec_neg(w) in seen:
                continue
            seen.add(w)
            vals = [dot(a, w) for a in arows]
            if all(v >= 0 for v in vals):
                cands.add(w)
            elif all(v <= 0 for v in vals):
                cands.add(vec_neg(w))
    wmap = LatticeMap.from_columns(wcols, n)
    rays = [primitive(wmap.apply(w)) for w in sorted(cands)]
    return _sorted_vecs(rays), lin_basis


def cone_from_generators(ambient_rank, vectors, strongly_convex=True):
    vecs = [tuple(int(x) for x in v) for v in vectors]
    for v in vecs:
        if len(v) != ambient_rank:
            raise ConeError("generator dimension does not match ambient rank")
    vecs = [v for v in vecs if not is_zero(v)]
    n = ambient_rank
    if not vecs:
        eqs = tuple(LatticeMap.identity(n).columns())
        return RationalCone(n, (), (), eqs, ())
    dual_rays, dual_lin = extreme_rays_of_halfspaces(vecs, n)
    facet_rows = list(dual_rays)
    eq_rows = [_sign_normalized(l) for l in dual_lin]
    hrows = facet_rows + eq_rows + [vec_neg(e) for e in eq_rows]
    rays, lin = extreme_rays_of_halfspaces(hrows, n) if hrows \
        else ([], LatticeMap.identity(n).columns())
    if strongly_convex and lin:
        raise ConeError("cone contains a line (not strongly convex)")
    return RationalCone(
        ambient_rank=n,
        generators=_sorted_vecs(rays),
        facet_normals=_sorted_vecs(facet_rows),
        equations=tuple(sorted(eq_rows)),
        lineality=tuple(lin),
    )


def dual_cone(c):
    n = c.ambient_rank
    hrows = list(c.generators)
    for l in c.lineality:
        hrows += [l, vec_neg(l)]
    if not hrows:
        return RationalCone(n, (), (), (), tuple(LatticeMap.identity(n).columns()))
    rays, lin = extreme_rays_of_halfspaces(hrows, n)
    return RationalCone(
        ambient_rank=n,
        generators=_sorted_vecs(rays),
        facet_normals=_sorted_vecs(c.generators),
        equations=tuple(sorted(_sign_normalized(l) for l in c.lineality)),
        lineality=tuple(lin),
    )


def faces(c):
    if not c.is_strongly_convex:
        raise ConeError("face enumeration requires a strongly convex cone")
    n = c.ambient_rank
    seen = {}
    for k in range(len(c.facet_normals) + 1):
        for subset in combinations(range(len(c.facet_normals)), k):
            gens = tuple(g for g in c.generators
                         if all(dot(c.facet_normals[i], g) == 0
                                for i in subset))
            if gens in seen:
                continue
            active = [a for a in c.facet_normals
                      if all(dot(a, g) == 0 for g in gens)]
            m = tuple(sum(a[i] for a in active) for i in range(n)) \
                if active else (0,) * n
            if any(dot(m, g) == 0 and g not in gens for g in c.generators):
                continue
            seen[gens] = m
    out = [Face(c, m, gens) for gens, m in seen.items()]
    out.sort(key=lambda f: (len(f.generators), f.generators))
    return out
