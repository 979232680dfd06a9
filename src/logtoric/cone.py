"""Rational polyhedral cones with exact dualization and face enumeration.

Cones are stored in double description: extreme ray generators together
with the facet normals (and, for cones containing lines, an explicit
lineality basis plus span equations).  All vectors are primitive.

Halfspaces become rays by Motzkin's incremental double description:
start from the simplicial cone of d independent rows, then cut by one
row at a time, combining the adjacent pairs of rays on either side of
it.  Adjacency is read off the zero sets of the rays, as bit masks over
the rows (Fukuda-Prodon, 1996).  A pointed cone takes that step once,
for its facets; its rays are then picked out of the generators by their
tight facets.  Faces are the closed sets of the ray/facet incidence.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .lattice import (
    LatticeMap,
    Vec,
    complement,
    dot,
    is_zero,
    kernel,
    primitive,
    sublattice_from_vectors,
    vec_neg,
)


class ConeError(ValueError):
    pass


def grlex_sorted(vectors) -> list[Vec]:
    """The vectors in graded lexicographic order: by the sum of absolute
    values, then lexicographically."""
    return sorted(vectors, key=lambda v: (sum(abs(a) for a in v), v))


def _sorted_vecs(vectors) -> tuple[Vec, ...]:
    return tuple(grlex_sorted({tuple(v) for v in vectors}))


def _sign_normalized(v: Vec) -> Vec:
    for a in v:
        if a > 0:
            return tuple(v)
        if a < 0:
            return vec_neg(v)
    return tuple(v)


def _det(rows) -> int:
    """Determinant of a square integer matrix by fraction-free (Bareiss)
    elimination: every division in it is exact."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            p = next((i for i in range(k + 1, n) if a[i][k]), None)
            if p is None:
                return 0
            a[k], a[p] = a[p], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def _maximal_minors(rows) -> Vec:
    """The signed maximal minors w_j = (-1)^j det(rows without column j)
    of a (d-1) x d matrix.

    Each row pairs to 0 with w, being the determinant of the d x d matrix
    with that row repeated.  So w spans the kernel when the rows have
    rank d-1 (Cramer's rule), and w = 0 when the rank is lower.
    """
    d = len(rows[0])
    return tuple((-1) ** j * _det([r[:j] + r[j + 1:] for r in rows])
                 for j in range(d))


def _independent_rows(rows, d: int) -> list[int]:
    """Indices of the first d linearly independent rows, in input order.

    Each row is reduced by fraction-free elimination against the rows
    kept so far, whose pivots it then has as zeros; it is independent of
    them exactly when something is left.
    """
    kept: list[tuple[int, list[int]]] = []
    picked = []
    for i, r in enumerate(rows):
        v = list(r)
        for p, b in kept:
            if v[p]:
                bp, vp = b[p], v[p]
                v = [bp * x - vp * y for x, y in zip(v, b)]
        p = next((j for j, x in enumerate(v) if x), None)
        if p is None:
            continue
        g = gcd(*v)
        kept.append((p, [x // g for x in v]))
        picked.append(i)
        if len(picked) == d:
            break
    return picked


def _double_description(arows, d: int) -> list[Vec]:
    """Extreme rays of {x in Q^d : <a, x> >= 0 for every row a}, for rows
    of rank d >= 2, by incremental double description.

    The first d independent rows cut out a simplicial cone; its ray
    opposite row i is the signed maximal minors of the other d-1 rows,
    signed to pair positively with row i.  The other rows are then added
    one at a time, in input order.  Each ray carries its zero set, the
    rows met so far that vanish on it, as a bit mask indexed by row.  A
    pair (r+, r-) on either side of the new row is adjacent when no
    third ray's zero set contains their common zero set Z; rank d-2 on
    Z needs at least d-2 rows, which screens most pairs first.
    """
    base = _independent_rows(arows, d)
    full = sum(1 << i for i in base)
    rays, zeros = [], []
    for i in base:
        w = _maximal_minors([arows[j] for j in base if j != i])
        rays.append(primitive(w if dot(arows[i], w) > 0 else vec_neg(w)))
        zeros.append(full & ~(1 << i))
    done = set(base)
    for k, a in enumerate(arows):
        if k in done:
            continue
        bit = 1 << k
        vals = [sum(x * y for x, y in zip(a, r)) for r in rays]
        new_rays, new_zeros = [], []
        pos, neg = [], []
        for i, s in enumerate(vals):
            if s > 0:
                pos.append(i)
            elif s < 0:
                neg.append(i)
            if s >= 0:
                new_rays.append(rays[i])
                new_zeros.append(zeros[i] | bit if s == 0 else zeros[i])
        for i in pos:
            zi, ri, si = zeros[i], rays[i], vals[i]
            for j in neg:
                z = zi & zeros[j]
                if z.bit_count() < d - 2:
                    continue
                if any(t != i and t != j and zt & z == z
                       for t, zt in enumerate(zeros)):
                    continue
                sj = vals[j]
                v = [si * y - sj * x for x, y in zip(ri, rays[j])]
                g = gcd(*v)
                new_rays.append(tuple(x // g for x in v))
                new_zeros.append(z | bit)
        rays, zeros = new_rays, new_zeros
    return rays


def extreme_rays_of_halfspaces(rows, ambient_rank: int):
    """Extreme rays and lineality of {x : <a, x> >= 0 for every row a}.

    Returns (rays, lineality_basis).  Rays are primitive and only defined
    modulo lineality; a deterministic complement of the lineality makes
    the choice reproducible.  In the complement's coordinates the rows
    have rank d, the cone there is pointed, and _double_description
    finds its extreme rays.

    Correctness.  Every cone met along the way is cut out by rows of
    rank d, so it is pointed.  For a pointed cone P with extreme rays R
    and a new row a, the extreme rays of P cap {<a, x> >= 0} are the r
    in R with <a, r> >= 0, and the ray <a, r+> r- - <a, r-> r+ on the
    hyperplane for each adjacent pair of R with <a, r+> > 0 > <a, r->
    (Motzkin; Fukuda-Prodon 1996, Lemma 3).  Two extreme rays are
    adjacent when the smallest face holding both is 2-dimensional.
    That face is cut out by the rows tight on both, so its extreme rays
    are those whose zero set contains the pair's common zero set; being
    pointed, it is 2-dimensional exactly when the pair are its only
    extreme rays (Fukuda-Prodon, Prop. 7).  The combinations are
    distinct: each lies in the relative interior of its own 2-face.

    Termination.  Each row is added once.  The ray set after each row
    is the set of extreme rays of a polyhedral cone, which is finite:
    each ray is fixed by its zero set, a subset of the rows.

    Bytes.  The extreme rays of a pointed cone are unique up to positive
    scaling, whatever order the rows are added in; the output is made
    primitive and sorted, so it does not depend on that order.
    """
    rows = [tuple(r) for r in rows]
    for r in rows:
        if len(r) != ambient_rank:
            raise ConeError("halfspace normal has wrong dimension")
    rows = [r for r in rows if not is_zero(r)]
    n = ambient_rank
    if not rows:
        return [], sublattice_from_vectors(n, LatticeMap.identity(n).columns()).basis_vectors()
    lin = kernel(LatticeMap(n, len(rows), rows))
    lin_basis = lin.basis_vectors()
    d = n - lin.rank
    if d == 0:
        return [], lin_basis
    comp = complement(lin) if lin.rank else None
    wcols = comp.basis_vectors() if comp is not None else LatticeMap.identity(n).columns()
    # inequalities restricted to the complement coordinates
    arows = [tuple(dot(r, w) for w in wcols) for r in rows]
    if d == 1:
        rays = []
        if all(a[0] >= 0 for a in arows):
            rays.append((1,))
        if all(a[0] <= 0 for a in arows):
            rays.append((-1,))
    else:
        rays = _double_description(arows, d)
    wmap = LatticeMap.from_columns(wcols, n)
    return _sorted_vecs(primitive(wmap.apply(w)) for w in rays), lin_basis


@dataclass(frozen=True)
class RationalCone:
    """A rational polyhedral cone in double description.

    generators: extreme rays (primitive, irredundant).
    facet_normals: supporting inequalities <a, x> >= 0.
    equations: normals vanishing identically on the cone (span cutout).
    lineality: basis of the largest linear subspace inside the cone;
               empty iff the cone is strongly convex.
    """

    ambient_rank: int
    generators: tuple[Vec, ...]
    facet_normals: tuple[Vec, ...]
    equations: tuple[Vec, ...] = ()
    lineality: tuple[Vec, ...] = ()

    def __post_init__(self):
        for v in self.generators + self.facet_normals + self.equations + self.lineality:
            if len(v) != self.ambient_rank:
                raise ConeError("vector dimension does not match ambient rank")
        for g in self.generators:
            for a in self.facet_normals:
                if dot(a, g) < 0:
                    raise ConeError("generator violates a facet inequality")
            for a in self.equations:
                if dot(a, g) != 0:
                    raise ConeError("generator violates a span equation")

    @property
    def is_strongly_convex(self) -> bool:
        return not self.lineality

    def dim(self) -> int:
        vecs = list(self.generators) + list(self.lineality)
        if not vecs:
            return 0
        return sublattice_from_vectors(self.ambient_rank, vecs).rank

    def contains(self, v: Vec) -> bool:
        if len(v) != self.ambient_rank:
            raise ConeError("vector dimension does not match ambient rank")
        return (all(dot(a, v) >= 0 for a in self.facet_normals)
                and all(dot(a, v) == 0 for a in self.equations))

    def generating_rays(self) -> list[Vec]:
        """Generators plus +-lineality basis: a full generating set."""
        out = list(self.generators)
        for l in self.lineality:
            out.append(l)
            out.append(vec_neg(l))
        return out


def _pointed_rays(vecs, facet_rows) -> list[Vec]:
    """Extreme rays of the pointed cone generated by vecs: the distinct
    primitive inputs whose set of tight facets is maximal under inclusion.

    The faces of a pointed cone match their sets of tight facets, and a
    larger set means a smaller face.  An extreme ray is a face of
    dimension 1, so no nonzero input has a strictly larger tight set.  A
    non-extreme input lies in the relative interior of a face of
    dimension >= 2, which is generated by the inputs in it; its rays are
    among them and have strictly larger tight sets.
    """
    tight = {}
    for v in {primitive(v) for v in vecs}:
        tight[v] = frozenset(i for i, a in enumerate(facet_rows)
                             if dot(a, v) == 0)
    return [v for v, t in tight.items()
            if not any(t < u for u in tight.values())]


def cone_from_generators(ambient_rank: int, vectors,
                         strongly_convex: bool = True) -> RationalCone:
    """Cone generated by the vectors, reduced to primitive extreme rays.

    With strongly_convex=True (the default) a cone containing a line is
    rejected.
    """
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
    # the dual cone's rays/lineality are the facets/equations of the primal
    facet_rows = list(dual_rays)
    eq_rows = [_sign_normalized(l) for l in dual_lin]
    hrows = facet_rows + eq_rows
    # pointed exactly when no nonzero vector is tight on every row
    if hrows and kernel(LatticeMap(n, len(hrows), hrows)).rank == 0:
        rays, lin = _pointed_rays(vecs, facet_rows), []
    else:
        hrows += [vec_neg(e) for e in eq_rows]
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


def dual_cone(c: RationalCone) -> RationalCone:
    """Exact dual cone {m : <m, x> >= 0 on c}."""
    n = c.ambient_rank
    hrows = list(c.generators)
    for l in c.lineality:
        hrows.append(l)
        hrows.append(vec_neg(l))
    if not hrows:
        # dual of the zero cone is the whole space
        lin = LatticeMap.identity(n).columns()
        return RationalCone(n, (), (), (), tuple(lin))
    rays, lin = extreme_rays_of_halfspaces(hrows, n)
    eq_rows = [_sign_normalized(l) for l in c.lineality]
    return RationalCone(
        ambient_rank=n,
        generators=_sorted_vecs(rays),
        facet_normals=_sorted_vecs(c.generators),
        equations=tuple(sorted(eq_rows)),
        lineality=tuple(lin),
    )


@dataclass(frozen=True)
class Face:
    """A face of a strongly convex cone, cut out by a supporting normal."""

    parent: RationalCone
    defining_normal: Vec
    generators: tuple[Vec, ...]

    def __post_init__(self):
        m = self.defining_normal
        for g in self.parent.generators:
            v = dot(m, g)
            if v < 0:
                raise ConeError("defining normal is negative on the parent")
            if (v == 0) != (g in self.generators):
                raise ConeError("defining normal does not cut out the face")

    def dim(self) -> int:
        if not self.generators:
            return 0
        return sublattice_from_vectors(self.parent.ambient_rank,
                                       self.generators).rank


def faces(c: RationalCone) -> list[Face]:
    """All faces of a strongly convex cone, from {0} up to c itself.

    The faces are the closed sets of the ray/facet incidence: every face
    is the set of generators on which some facets vanish, so every face
    is reached from c by intersecting with one facet's zero set at a
    time, breadth-first (Kaibel-Pfetsch, 2002).  Sets are bit masks over
    the generators.  The stored defining normal is the sum of all facet
    normals vanishing on the face; it vanishes on exactly the face's
    generators, since those are all the generators the facets share.
    """
    if not c.is_strongly_convex:
        raise ConeError("face enumeration requires a strongly convex cone")
    gens = c.generators
    zero_sets = [sum(1 << j for j, g in enumerate(gens) if dot(a, g) == 0)
                 for a in c.facet_normals]
    top = (1 << len(gens)) - 1
    closed = {top}
    queue = [top]
    for s in queue:
        for z in zero_sets:
            t = s & z
            if t not in closed:
                closed.add(t)
                queue.append(t)
    out = []
    for s in closed:
        active = [a for a, z in zip(c.facet_normals, zero_sets) if s & z == s]
        m = tuple(map(sum, zip(*active))) if active else (0,) * c.ambient_rank
        face_gens = tuple(g for j, g in enumerate(gens) if s >> j & 1)
        out.append(Face(c, m, face_gens))
    out.sort(key=lambda f: (len(f.generators), f.generators))
    return out


def contains(c: RationalCone, v) -> bool:
    """Membership test: v pairs >= 0 with every facet normal of c."""
    return c.contains(tuple(int(x) for x in v))
