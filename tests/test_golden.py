"""Byte-identity gate: certificates of committed benchmark documents.

tests/fixtures/golden/ holds problem documents from the three benchmark
workloads with the sha256 of the canonical certificate each one had when
the fixtures were written (see make_golden.py).  The hashes are never
regenerated here: a change in any certificate byte fails this test.
"""

import hashlib
import json
import pathlib

import pytest

from logtoric.cli import run_problem
from logtoric.serialize import dumps

GOLDEN = pathlib.Path(__file__).parent / "fixtures" / "golden"


@pytest.mark.parametrize("workload",
                         ["chart-pipeline", "wide-cones", "base-change"])
def test_golden_certificates(workload):
    lines = (GOLDEN / f"{workload}.jsonl").read_text().splitlines()
    assert lines
    changed = []
    for entry in map(json.loads, lines):
        certificate, _ = run_problem(entry["problem"])
        digest = hashlib.sha256(dumps(certificate).encode()).hexdigest()
        if digest != entry["sha256"]:
            changed.append(entry["tag"])
    assert not changed, f"certificates changed for {changed}"
