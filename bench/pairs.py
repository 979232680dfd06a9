"""Generate base-change problem documents; one JSON document per line.

Usage: python3 bench/pairs.py SEED COUNT

Each problem is a pair (theta, phi) of monoid charts with one source
monoid, built from toric morphisms W -> V (dominant) and U -> V
(arbitrary) of rank <= 3.  Writing the charts needs dual Hilbert bases,
so this script uses the library; it runs as its own process so that the
benchmark process calls the library only on the problems it measures.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from logtoric.cone import ConeError, cone_from_generators  # noqa: E402
from logtoric.lattice import LatticeMap, rank  # noqa: E402
from logtoric.log_morphism import (  # noqa: E402
    ChartMapError,
    from_toric_morphism,
)
from logtoric.serialize import encode_monoid_chart  # noqa: E402
from logtoric.toric_chart import toric_chart  # noqa: E402


def _vector(rng, n, bound):
    return tuple(rng.randint(-bound, bound) for _ in range(n))


def _matrix(rng, rows, cols):
    return LatticeMap(cols, rows, tuple(_vector(rng, cols, 2)
                                        for _ in range(rows)))


def _pointed_cone(rng, n, max_gens):
    while True:
        gens = [_vector(rng, n, 2) for _ in range(rng.randint(2, max_gens))]
        try:
            c = cone_from_generators(n, gens)
        except ConeError:
            continue
        if c.generators:
            return c


def toric_pair(rng):
    """(theta, phi): theta from a full-row-rank map W -> V, phi from an
    arbitrary map U -> V whose cone generators land in V's cone."""
    while True:
        dv = rng.randint(1, 2)
        dw = rng.randint(dv, 3)
        du = rng.randint(1, min(3, 4 + dv - dw))
        f = _matrix(rng, dv, dw)
        if rank(f) != dv:
            continue
        sigma_w = _pointed_cone(rng, dw, dw + 1)
        try:
            w_chart = toric_chart(dw, sigma_w.generators)
            v_chart = toric_chart(dv, [f.apply(u) for u in sigma_w.generators])
            theta = from_toric_morphism(w_chart, v_chart, f)
        except (ConeError, ChartMapError):
            continue
        g = _matrix(rng, dv, du)
        images_in_cone = [v for v in (_vector(rng, du, 2) for _ in range(12))
                          if any(v) and v_chart.cone.contains(g.apply(v))]
        u_gens = images_in_cone[:rng.randint(0, du + 1)]
        try:
            u_chart = toric_chart(du, u_gens)
            phi = from_toric_morphism(u_chart, v_chart, g)
        except (ConeError, ChartMapError):
            continue
        return theta, phi


def pair_problem(theta, phi):
    """Six tasks over the two declared charts; each task decodes its
    charts again, as a problem file does."""
    pair = {"theta": "$theta", "phi": "$phi"}
    return {
        "version": "1",
        "objects": {
            "theta": {"type": "monoid_chart", **encode_monoid_chart(theta)},
            "phi": {"type": "monoid_chart", **encode_monoid_chart(phi)},
        },
        "tasks": [
            {"command": "base-change", "arguments": pair},
            {"command": "verify", "arguments": pair},
            {"command": "check-log-smooth", "arguments": {"chart": "$phi"}},
            {"command": "check-log-etale", "arguments": {"chart": "$phi"}},
            {"command": "check-strict", "arguments": {"chart": "$theta"}},
            {"command": "fibre-dim", "arguments": {"chart": "$theta"}},
        ],
    }


def main(argv):
    seed, count = (int(a) for a in argv)
    rng = random.Random(f"{seed}/pairs")
    for _ in range(count):
        print(json.dumps(pair_problem(*toric_pair(rng)), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
