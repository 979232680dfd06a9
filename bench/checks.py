"""Independent checks of problem certificates.

Nothing here calls the algorithms being measured.  Cone geometry is
recomputed from the problem's input vectors with exact integer
determinants and the brute-force routines of ``logtoric.oracle``; the
only library type used is ``RationalCone``, as a plain container for
the oracle.  ``check(workload, tag, doc, cert)`` returns a list of
failure messages, empty when the certificate is right.
"""

from __future__ import annotations

import itertools
import json
import math

from logtoric.cone import RationalCone
from logtoric.oracle import (
    Box,
    brute_cone_membership,
    brute_hilbert_basis,
    frac_kernel_is_zero,
    frac_rank,
)
from workloads import primitive

# Largest box the numpy Hilbert-basis oracle scans; its pairwise scan
# is quadratic in the number of cone points, so larger boxes are skipped.
MAX_ORACLE_BOX = 6000
# Half-width of the box in which the boundary ideal is checked to be
# complete.
IDEAL_BOX = 3


def _vecs(obj):
    return [tuple(int(x) for x in v) for v in obj]


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def det(rows):
    """Exact determinant by fraction-free (Bareiss) elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        pivot = next((i for i in range(k, n) if m[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1] if n else 1


def kernel_line(rows, n):
    """Generalized cross product of n-1 vectors in Z^n: spans their
    orthogonal complement, zero iff they are dependent."""
    return tuple((-1) ** i * det([r[:i] + r[i + 1:] for r in rows])
                 for i in range(n))


def extreme_rays(halfspaces, n):
    """Primitive extreme rays of {x : <a, x> >= 0 for all a}, for
    normals a of full rank n, by trying every (n-1)-subset."""
    out = set()
    for sub in itertools.combinations(halfspaces, n - 1):
        k = kernel_line(sub, n)
        if not any(k):
            continue
        vals = [_dot(a, k) for a in halfspaces]
        if all(v >= 0 for v in vals):
            out.add(primitive(k))
        elif all(v <= 0 for v in vals):
            out.add(primitive(tuple(-x for x in k)))
    return out


def cone_rays(gens):
    """Primitive extreme rays of cone(gens), by exact membership."""
    prims = list(dict.fromkeys(primitive(g) for g in gens))
    return {p for i, p in enumerate(prims)
            if not brute_cone_membership(prims[:i] + prims[i + 1:], p)}


def face_count(rays, facets):
    """Number of faces of a full-dimensional pointed cone: the distinct
    intersections of facets, found breadth-first from the whole cone."""
    rays = list(rays)
    cut = [frozenset(i for i, r in enumerate(rays) if _dot(f, r) == 0)
           for f in facets]
    start = frozenset(range(len(rays)))
    seen, todo = {start}, [start]
    while todo:
        face = todo.pop()
        for c in cut:
            sub = face & c
            if sub not in seen:
                seen.add(sub)
                todo.append(sub)
    return len(seen)


def _hilbert_box(rays, n):
    """Box holding the Hilbert basis of the pointed cone on `rays`:
    each element lies in the half-open parallelepiped of at most n of
    them (Caratheodory)."""
    lo, hi = [], []
    for j in range(n):
        col = sorted(r[j] for r in rays)
        lo.append(sum(min(0, x) for x in col[:n]))
        hi.append(sum(max(0, x) for x in col[-n:]))
    return Box(n, tuple(lo), tuple(hi))


def _check_hilbert(errors, normals, rays, n, got):
    """Compare the Hilbert basis of the cone with these facet normals and
    rays with the oracle, where affordable; returns True if it ran."""
    box = _hilbert_box(rays, n)
    if math.prod(u - l + 1 for l, u in zip(box.lower, box.upper)) \
            > MAX_ORACLE_BOX:
        return False
    cone = RationalCone(n, tuple(sorted(rays)), tuple(sorted(normals)))
    if set(got) != brute_hilbert_basis(cone, box):
        errors.append("hilbert basis disagrees with the oracle")
    return True


def _check_dual(errors, res, rays, facets):
    if set(_vecs(res["facet_normals"])) != rays:
        errors.append("dual: facet normals are not the input's rays")
    if facets is not None and set(_vecs(res["generators"])) != facets:
        errors.append("dual: generators are not the brute-force facets")


def _check_faces(errors, faces, rays, expected):
    if len(faces) != expected:
        errors.append(f"faces: {len(faces)} faces, expected {expected}")
    for f in faces:
        gens = set(_vecs(f["generators"]))
        m = tuple(int(x) for x in f["defining_normal"])
        if any((_dot(m, r) == 0) != (r in gens) or _dot(m, r) < 0
               for r in rays):
            errors.append("faces: defining normal does not cut out the face")
        if int(f["dimension"]) != (frac_rank(list(gens)) if gens else 0):
            errors.append("faces: wrong face dimension")


def _check_boundary_ideal(errors, gens, rays, n):
    """Acceptance-4 invariants, plus completeness inside a box."""
    if not gens:
        errors.append("boundary ideal is empty")
    for g in gens:
        if any(_dot(g, r) < 1 for r in rays):
            errors.append("boundary ideal generator pairs < 1 with a ray")
    for a, b in itertools.permutations(gens, 2):
        diff = tuple(x - y for x, y in zip(a, b))
        if all(_dot(diff, r) >= 0 for r in rays):
            errors.append("boundary ideal generators are not an antichain")
    for m in itertools.product(range(-IDEAL_BOX, IDEAL_BOX + 1), repeat=n):
        if all(_dot(m, r) >= 1 for r in rays) and not any(
                all(_dot(m, r) >= _dot(g, r) for r in rays) for g in gens):
            errors.append(f"boundary ideal misses {m}")
            break


def check_chart(doc, cert, errors, stats):
    n = int(doc["objects"]["chart"]["lattice_rank"])
    rays = cone_rays(_vecs(doc["objects"]["chart"]["cone_generators"]))
    full = frac_rank(list(rays)) == n
    facets = extreme_rays(list(rays), n) if full else None
    dual, hilbert, faces, orbit, split, ideal = \
        (r["result"] for r in cert["results"])
    _check_dual(errors, dual["dual"], rays, facets)
    hb = _vecs(hilbert["monoid"]["generators"])
    # the dual cone's facet normals are sigma's rays and vice versa
    if full:
        stats["oracle_hilbert"] += _check_hilbert(errors, rays, facets, n, hb)
    # cones of dimension <= 2 are simplicial: 2^rays faces
    expected = face_count(rays, facets) if full else 2 ** len(rays)
    _check_faces(errors, faces["faces"], rays, expected)
    ray = _vecs(doc["tasks"][3]["arguments"]["face_generators"])[0]
    if int(orbit["orbit_dimension"]) != n - 1:
        errors.append("orbit: wrong orbit dimension")
    for g in _vecs(orbit["closure_monoid"]["generators"]):
        if _dot(g, ray) != 0 or any(_dot(g, r) < 0 for r in rays):
            errors.append("orbit: closure generator off the orbit face")
    n1, n2 = _vecs(split["n1"]), _vecs(split["n2"])
    if int(split["torus_rank"]) != n - frac_rank(list(rays)) \
            or len(n1) + len(n2) != n or abs(det(n1 + n2)) != 1:
        errors.append("split: bases do not split the lattice")
    _check_boundary_ideal(errors, _vecs(ideal["ideal_generators"]), rays, n)


def check_wide(tag, doc, cert, errors, stats):
    n = int(doc["objects"]["sigma"]["rank"])
    # every wide cone is full-dimensional and pointed, so its facets are
    # the rays of {m : <m, g> >= 0 for all g}, and its rays those of the
    # cone the facets cut out
    facets = extreme_rays(_vecs(doc["objects"]["sigma"]["generators"]), n)
    rays = extreme_rays(list(facets), n)
    dual, hilbert, faces = (r["result"] for r in cert["results"])
    _check_dual(errors, dual["dual"], rays, facets)
    hb = _vecs(hilbert["monoid"]["generators"])
    stats["oracle_hilbert"] += _check_hilbert(errors, rays, facets, n, hb)
    family = tag.split(":")[0]
    if family == "polygon":
        expected = 2 * len(rays) + 2
    elif family in ("cube", "cross"):
        expected = 3 ** (n - 1) + 1
    else:
        expected = face_count(rays, facets)
    _check_faces(errors, faces["faces"], rays, expected)


def _chart(obj):
    """(source generators, target generators, the map)."""
    src = _vecs(obj["source"]["generators"])
    tgt = _vecs(obj["target"]["generators"])
    matrix = _vecs(obj["matrix"])
    return src, tgt, lambda v: tuple(_dot(row, v) for row in matrix)


def _rational_basis(vectors):
    basis = []
    for v in vectors:
        if frac_rank(basis + [v]) > len(basis):
            basis.append(v)
    return basis


def check_pair(doc, cert, errors):
    bc, verify, smooth, etale, _, fibre = \
        (r["result"] for r in cert["results"])
    if verify["report"]["passed"] is not True:
        errors.append("verify: base change did not pass")
    if any(bc[k] != verify["result"][k] for k in verify["result"]) \
            or math.prod(map(int, bc["torsion_divisors"])) \
            != int(bc["torsion_order"]):
        errors.append("base-change and verify disagree")
    src, tgt, phi = _chart(doc["objects"]["phi"])
    images = [phi(b) for b in _rational_basis(src)]
    target_rank = int(doc["objects"]["phi"]["target"]["rank"])
    injective = frac_kernel_is_zero(images, target_rank)
    if smooth["verdict"] != injective:
        errors.append("check-log-smooth disagrees with the oracle")
    for w in _vecs(smooth.get("kernel_certificate", [])):
        if not any(w) or any(phi(w)):
            errors.append("check-log-smooth: bad kernel certificate")
    finite = frac_rank(images) == frac_rank(tgt)
    if etale["verdict"] != (injective and finite):
        errors.append("check-log-etale disagrees with the oracle")
    src, tgt, theta = _chart(doc["objects"]["theta"])
    if int(fibre["fibre_dimension"]) != \
            frac_rank(tgt) - frac_rank([theta(g) for g in src]):
        errors.append("fibre-dim disagrees with the rank difference")


def check(workload, tag, doc_text, cert_text, stats):
    """Failure messages for one problem's certificate."""
    doc, cert = json.loads(doc_text), json.loads(cert_text)
    failed = [i for i, r in enumerate(cert["results"]) if not r["ok"]]
    if failed:
        return [f"task {i} failed: {cert['results'][i]['error']}"
                for i in failed]
    errors: list[str] = []
    if workload == "chart-pipeline":
        check_chart(doc, cert, errors, stats)
    elif workload == "wide-cones":
        check_wide(tag, doc, cert, errors, stats)
    else:
        check_pair(doc, cert, errors)
    return errors
