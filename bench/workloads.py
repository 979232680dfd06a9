"""Seeded problem-file generators for the three benchmark workloads.

Each workload is a fixed *catalogue* of problem shapes, drawn once from
CATALOGUE_SEED, and a block is the whole catalogue presented afresh:
``--seed`` picks a lattice automorphism for every problem (a signed
permutation of the coordinates, or a product of elementary operations
for the cube and cross-polytope cones), the order of its generators and
the order of the problems.  The cost of one problem spans three orders
of magnitude between shapes but changes by a few percent under an
automorphism, so runs on different seeds measure the same work, while
no two seeds send the library the same documents.  A run measures whole
blocks, so it always sees the whole catalogue.

The library receives nothing but the generated documents.
``chart-pipeline`` and ``wide-cones`` are built here with the standard
library and the oracle's exact cone membership.  ``base-change`` needs
dual Hilbert bases to write its monoid charts, so its catalogue comes
from ``pairs.py`` in a child process: the benchmark process calls the
library only on the problems it measures, and the generator cannot warm
a cache inside it.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import subprocess
import sys
from pathlib import Path

from logtoric.oracle import brute_cone_membership, frac_rank

HERE = Path(__file__).resolve().parent

CATALOGUE_SEED = 20250915
CHARTS = 60
PAIRS = 200
# wide-cones catalogue: (family, size, count)
WIDE = ([("polygon", k, 1) for k in range(6, 14)] + [("polygon", 14, 4)]
        + [("cube", 4, 2), ("cross", 4, 2), ("random", 4, 22),
           ("cube", 5, 1), ("cross", 5, 1)])

WORKLOADS = ("chart-pipeline", "wide-cones", "base-change")


def primitive(v):
    g = math.gcd(*v)
    return tuple(x // g for x in v) if g > 1 else tuple(v)


def _strs(vectors):
    return [[str(x) for x in v] for v in vectors]


def _pointed_vectors(rng, rank, count, max_entry):
    """`count` nonzero vectors on distinct rays, all positive on one
    random functional, so the cone they span is strongly convex."""
    while True:
        w = [rng.randint(-2, 2) for _ in range(rank)]
        if any(w):
            break
    out = []
    while len(out) < count:
        v = tuple(rng.randint(-max_entry, max_entry) for _ in range(rank))
        if sum(a * b for a, b in zip(v, w)) > 0 \
                and primitive(v) not in map(primitive, out):
            out.append(v)
    return out


def signed_permutation(rng, rank):
    """A random signed permutation matrix as (permutation, signs); it
    sends v to (signs[i] * v[perm[i]])_i."""
    perm = list(range(rank))
    rng.shuffle(perm)
    return perm, [rng.choice((1, -1)) for _ in range(rank)]


def _act(sp, v):
    perm, signs = sp
    return tuple(s * v[p] for p, s in zip(perm, signs))


def elementary_transform(rng, d, steps):
    """A random product of `steps` elementary row operations with
    multipliers +-1, as a matrix."""
    m = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(steps):
        i, j = rng.sample(range(d), 2)
        c = rng.choice((1, -1))
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    return m


def cone_problem(rank, gens, tasks):
    g = _strs(gens)
    return {
        "version": "1",
        "objects": {
            "sigma": {"type": "cone", "rank": str(rank), "generators": g},
            "chart": {"type": "toric_chart", "lattice_rank": str(rank),
                      "cone_generators": g},
        },
        "tasks": tasks,
    }


DUAL = {"command": "dual", "arguments": {"cone": "$sigma"},
        "output_name": "sigma_dual"}


def _hilbert(of):
    return {"command": "hilbert", "arguments": {"cone": of}}


def _chart_task(command, **extra):
    return {"command": command, "arguments": {"chart": "$chart", **extra}}


# -- chart-pipeline ---------------------------------------------------

def chart_catalogue():
    """(rank, generators, extreme generator indices) of CHARTS random
    toric charts of rank 2-3 with entries <= 2.  About one in five is
    not full-dimensional, so the dual monoid has units and the
    sharpening path runs.  The boundary ideal's cost grows roughly with
    the square of the cone's multiplicity: 3 ms to 3.7 s per chart."""
    rng = random.Random(f"{CATALOGUE_SEED}/charts")
    out = []
    while len(out) < CHARTS:
        rank = rng.choice((2, 3))
        if rng.random() < 0.8:
            count = rng.randint(rank, rank + 1)
        else:
            count = rng.randint(1, rank - 1)
        gens = _pointed_vectors(rng, rank, count, 2)
        extreme = [i for i, g in enumerate(gens)
                   if not brute_cone_membership(gens[:i] + gens[i + 1:], g)]
        out.append((rank, gens, extreme))
    return out


def chart_problem(rank, gens, ray):
    # the dual of a cone that is not full-dimensional contains a line and
    # has no Hilbert basis; such charts take the Hilbert basis of sigma
    full = frac_rank(gens) == rank
    return cone_problem(rank, gens, [
        DUAL,
        _hilbert("$sigma_dual.dual" if full else "$sigma"),
        _chart_task("faces"),
        _chart_task("orbit", face_generators=_strs([ray])),
        _chart_task("split"),
        _chart_task("boundary-ideal"),
    ])


def present_chart(rng, rank, gens, extreme):
    sp = signed_permutation(rng, rank)
    moved = [_act(sp, g) for g in gens]
    ray = primitive(moved[rng.choice(extreme)])
    rng.shuffle(moved)
    return chart_problem(rank, moved, ray)


# -- wide-cones -------------------------------------------------------

def polygon_generators(rng, k):
    """Cone over a random convex lattice k-gon at height 1.

    Edge directions are distinct primitive vectors, taken with their
    negatives, so the polygon closes and every vertex is extreme; one
    vertex is dropped when k is odd.
    """
    pool = [(1, 0)] + [(a, b) for b in (1, 2, 3) for a in range(-3, 4)
                       if math.gcd(a, b) == 1]
    dirs = sorted(rng.sample(pool, (k + 1) // 2),
                  key=lambda d: math.atan2(d[1], d[0]))
    dirs += [(-a, -b) for a, b in dirs]
    pts = [(0, 0)]
    for a, b in dirs[:-1]:
        pts.append((pts[-1][0] + a, pts[-1][1] + b))
    if len(pts) > k:
        pts.pop(rng.randrange(len(pts)))
    cx = round(sum(p[0] for p in pts) / len(pts))
    cy = round(sum(p[1] for p in pts) / len(pts))
    return [(x - cx, y - cy, 1) for x, y in pts]


def cube_generators(d):
    return [s + (1,) for s in itertools.product((1, -1), repeat=d - 1)]


def cross_generators(d):
    out = []
    for i in range(d - 1):
        for s in (1, -1):
            v = [0] * (d - 1)
            v[i] = s
            out.append(tuple(v) + (1,))
    return out


def wide_catalogue():
    """(tag, rank, generators) for the wide-cones families.

    Face enumeration walks all 2^F facet subsets, so the cost is set by
    the facet count F: a k-gon cone has F = k, a rank-d cube 2(d-1) and
    a rank-d cross-polytope 2^(d-1).  Random rank-4 cones have entries
    <= 1, which keeps their Hilbert bases small and their cost in the
    cone layer.  Costs run from 20 ms to 0.45 s, then the two rank-5
    cones take 1-2 s each; they are 1 problem in 20, so p90 lies inside
    the family of four 14-gons rather than on the gap between families.
    """
    rng = random.Random(f"{CATALOGUE_SEED}/wide")
    out = []
    for family, size, count in WIDE:
        for _ in range(count):
            if family == "polygon":
                out.append((f"polygon:{size}", 3,
                            polygon_generators(rng, size)))
            elif family == "random":
                while True:
                    gens = _pointed_vectors(rng, size, 7, 1)
                    if frac_rank(gens) == size:
                        break
                out.append(("random", size, gens))
            else:
                gens = cube_generators(size) if family == "cube" \
                    else cross_generators(size)
                out.append((f"{family}:{size}", size, gens))
    return out


def present_cone(rng, tag, rank, gens):
    """Cubes and cross-polytopes go through a seeded product of
    elementary operations, the others through a signed permutation."""
    if tag.startswith(("cube", "cross")):
        m = elementary_transform(rng, rank, 2 * rank)
        moved = [tuple(sum(a * x for a, x in zip(row, g)) for row in m)
                 for g in gens]
    else:
        sp = signed_permutation(rng, rank)
        moved = [_act(sp, g) for g in gens]
    rng.shuffle(moved)
    return cone_problem(rank, moved,
                        [DUAL, _hilbert("$sigma_dual.dual"),
                         _chart_task("faces")])


# -- base-change ------------------------------------------------------

def pair_catalogue():
    """PAIRS base-change problems from pairs.py, run as a child process
    (see the module docstring)."""
    out = subprocess.run(
        [sys.executable, str(HERE / "pairs.py"), str(CATALOGUE_SEED),
         str(PAIRS)],
        capture_output=True, text=True, check=True, timeout=120)
    return [json.loads(line) for line in out.stdout.splitlines()]


def _move_monoid(sp, monoid):
    return dict(monoid, generators=_strs(
        _act(sp, [int(x) for x in g]) for g in monoid["generators"]))


def _move_matrix(target_sp, matrix, source_sp):
    """The matrix of the same map after both lattices are moved:
    T M S^-1, with S^-1 the transpose of the signed permutation S."""
    (tp, ts), (sp, ss) = target_sp, source_sp
    return [[str(ts[i] * int(matrix[tp[i]][sp[j]]) * ss[j])
             for j in range(len(sp))] for i in range(len(tp))]


def present_pair(rng, doc):
    """Move the shared source P and the two targets by independent
    signed permutations, keeping both charts the same maps."""
    theta, phi = doc["objects"]["theta"], doc["objects"]["phi"]
    p = signed_permutation(rng, int(theta["source"]["rank"]))
    objects = {}
    for name, chart in (("theta", theta), ("phi", phi)):
        t = signed_permutation(rng, int(chart["target"]["rank"]))
        objects[name] = dict(
            chart, source=_move_monoid(p, chart["source"]),
            target=_move_monoid(t, chart["target"]),
            matrix=_move_matrix(t, chart["matrix"], p))
    return dict(doc, objects=objects)


class Workload:
    """A seeded stream of problem blocks: ``block(i)`` is a list of
    (tag, problem text), one per catalogue entry, in random order."""

    def __init__(self, name, seed):
        self.name = name
        self.seed = seed
        if name == "chart-pipeline":
            self.catalogue = [(f"chart:{i}", entry) for i, entry
                              in enumerate(chart_catalogue())]
            self.present = present_chart
        elif name == "wide-cones":
            self.catalogue = [(tag, (tag, rank, gens))
                              for tag, rank, gens in wide_catalogue()]
            self.present = present_cone
        else:
            self.catalogue = [(f"pair:{i}", (doc,)) for i, doc
                              in enumerate(pair_catalogue())]
            self.present = present_pair

    def block(self, index):
        rng = random.Random(f"{self.name}/{self.seed}/{index}")
        docs = [(tag, json.dumps(self.present(rng, *entry), sort_keys=True))
                for tag, entry in self.catalogue]
        rng.shuffle(docs)
        return docs
