"""Write the golden certificate fixtures used by test_golden.py.

Usage (from the repository root):

    PYTHONPATH=src python3 tests/make_golden.py

Each fixture file tests/fixtures/golden/<workload>.jsonl holds problem
documents of one benchmark workload (seed SEED, block BLOCK, from
bench/workloads.py), one JSON object per line with the document's tag,
the document and the sha256 of the canonical certificate that the
library wrote for it when the file was made.  The test only reads these
files, so a change to this script or to the benchmark cannot hide a
change in the certificate bytes.  Run it again only when a change to
the certificates is intended.

Every document of the block is kept: all base-change pairs, all
wide-cones shapes and all chart-pipeline charts.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

from logtoric.cli import run_problem  # noqa: E402
from logtoric.serialize import dumps  # noqa: E402
from workloads import Workload  # noqa: E402

OUT = Path(__file__).resolve().parent / "fixtures" / "golden"
SEED = 1
BLOCK = 0


def certificate_sha256(doc) -> str:
    certificate, _ = run_problem(doc)
    return hashlib.sha256(dumps(certificate).encode()).hexdigest()


def _catalogue_order(tag):
    # "pair:12" sorts by its number; other tags keep their catalogue text
    kind, _, index = tag.partition(":")
    return (kind, int(index)) if index.isdigit() else (kind, 0, index)


def main():
    OUT.mkdir(parents=True, exist_ok=True)
    for name in ("chart-pipeline", "wide-cones", "base-change"):
        entries = []
        start = time.perf_counter()
        block = Workload(name, SEED).block(BLOCK)
        for tag, text in sorted(block, key=lambda e: _catalogue_order(e[0])):
            doc = json.loads(text)
            entries.append({"tag": tag, "problem": doc,
                            "sha256": certificate_sha256(doc)})
        path = OUT / f"{name}.jsonl"
        path.write_text("".join(json.dumps(e, sort_keys=True) + "\n"
                                for e in entries))
        print(f"{path.name}: {len(entries)} of {len(block)} documents, "
              f"{time.perf_counter() - start:.1f} s")


if __name__ == "__main__":
    main()
