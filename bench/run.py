"""Problem-file benchmark for logtoric.

Usage (from the repository root):

    python3 bench/run.py --workload chart-pipeline --seed 1 --seconds 20 --trace 0

A closed loop with one client, in one process and one thread: the next
problem is sent only after the previous one has finished.  One
operation is one problem: ``json.loads`` of the document, then
``logtoric.cli.run_problem``, then ``serialize.dumps`` of the
certificate, i.e. ``logtoric run`` without interpreter start, argument
parsing and file I/O.  Documents are generated from ``--seed`` before
they are timed and every certificate is checked after it is timed.

``--trace 0`` runs one untimed warm-up block, then measures whole
blocks of problems until ``--seconds`` of problem time have passed and
at least MIN_PROBLEMS have run, and prints the end-to-end metrics.
``--trace 1`` runs the first block problem by problem, untraced and
then with spans on every layer, checks that both give the same bytes,
and prints the per-layer metrics; its counts repeat exactly for a seed.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  See README.md for the
workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
try:
    import logtoric
    from logtoric import __version__, cli, serialize
except ImportError as exc:
    sys.exit(f"error: cannot import logtoric from {SRC}: {exc}")
if Path(logtoric.__file__).resolve().parent != SRC / "logtoric":
    sys.exit(f"error: logtoric was imported from {logtoric.__file__}, "
             f"not from {SRC}")

from checks import check  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

PROBLEM_TIMEOUT_S = 30.0
# --version launches before the first timed block and after each one;
# launch time drifts within seconds, so the median of launches spread
# over the whole run is steadier than that of one batch.
SETUP_LAUNCHES = 8
# p90 needs at least 10 samples beyond it
MIN_PROBLEMS = 100


class ProblemTimeout(BaseException):
    """Raised by SIGALRM inside a problem that ran over its timeout; a
    BaseException so that no handler in the library can swallow it."""


def _alarm(signum, frame):
    raise ProblemTimeout


def run_one(text):
    """(certificate text or None, seconds, error) for one problem.

    The library is called through its module attributes, so the spans
    installed by the tracer see the harness's own calls."""
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, PROBLEM_TIMEOUT_S)
    try:
        try:
            certificate, _ = cli.run_problem(json.loads(text))
            out = serialize.dumps(certificate)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except ProblemTimeout:
        return None, time.perf_counter() - start, "timed out"
    except Exception as exc:  # a crash is a failed problem, not a stop
        return None, time.perf_counter() - start, f"raised {exc!r}"
    return out, time.perf_counter() - start, None


class Results:
    """Latencies, failures and the certificate digest of a run."""

    def __init__(self, workload):
        self.workload = workload
        self.latencies: list[float] = []
        self.failures: dict[int, str] = {}  # problem number -> reason
        self.digest = hashlib.sha256()
        self.stats = {"oracle_hilbert": 0}

    def fail(self, number, reason):
        self.failures.setdefault(number, reason)

    def record(self, tag, seconds, error):
        self.latencies.append(seconds)
        if error is not None:
            self.fail(len(self.latencies) - 1, f"{tag}: {error}")

    def check(self, block, outs):
        """Check the certificates of the block just timed, so that no
        checking runs between two timed problems."""
        first = len(self.latencies) - len(block)
        for number, (tag, text), out in zip(range(first, first + len(block)),
                                            block, outs):
            if out is None:
                continue
            self.digest.update(out.encode())
            errors = check(self.workload, tag, text, out, self.stats)
            if errors:
                self.fail(number, f"{tag}: {'; '.join(errors)}")

    def run_block(self, block):
        outs = []
        for tag, text in block:
            out, seconds, error = run_one(text)
            self.record(tag, seconds, error)
            outs.append(out)
        self.check(block, outs)


def setup_seconds(count):
    """Wall times of `python -m logtoric.cli --version` launches."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(count):
        start = time.perf_counter()
        out = subprocess.run([sys.executable, "-m", "logtoric.cli",
                              "--version"], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=60)
        times.append(time.perf_counter() - start)
        if out.returncode != 0 or out.stdout.strip() != __version__:
            raise RuntimeError(f"--version launch failed: {out.stderr}")
    return times


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def src_lines():
    return sum(len(p.read_text().splitlines())
               for p in sorted((SRC / "logtoric").glob("*.py")))


def timed_run(workload, seconds):
    setup_seconds(1)  # compiles bytecode; not counted
    launches = setup_seconds(SETUP_LAUNCHES)
    # The first block in a fresh process runs 5-10% slower, mostly while
    # the heap grows; an untimed block of its own presentation absorbs it.
    for _, text in workload.block(-1):
        run_one(text)
    results = Results(workload.name)
    index = 0
    while sum(results.latencies) < seconds \
            or len(results.latencies) < MIN_PROBLEMS:
        results.run_block(workload.block(index))
        launches += setup_seconds(SETUP_LAUNCHES)
        if index == 0:
            reference = results.digest.hexdigest()
        index += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    lat = results.latencies
    done = len(lat) - len(results.failures)
    print(f"# blocks: {index}, problems: {len(lat)}, "
          f"timed: {sum(lat):.3f} s, failed_share: "
          f"{len(results.failures) / len(lat)} (ratio)")
    print(f"# p90 has {len(lat) - -(-len(lat) * 9 // 10)} samples beyond it; "
          f"setup_s is the median of {len(launches)} launches")
    return results, reference, {
        "problems_per_s": (done / sum(lat), "1/s"),
        "problem_p50_ms": (statistics.median(lat) * 1000, "ms"),
        "problem_p90_ms": (percentile(lat, 90) * 1000, "ms"),
        "setup_s": (statistics.median(launches), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def traced_run(workload):
    """The first block, each problem untraced and then traced, so that a
    change in the machine's speed affects both passes alike."""
    results = Results(workload.name)
    tracer = Tracer()
    traced = []
    block, outs = workload.block(0), []
    for tag, text in block:
        out, seconds, error = run_one(text)
        results.record(tag, seconds, error)
        outs.append(out)
        tracer.install()
        try:
            start = time.perf_counter()
            traced_out, _, error = run_one(text)
            traced.append(time.perf_counter() - start)
        finally:
            tracer.remove()
        tracer.fold()
        if out is not None and traced_out != out:
            results.fail(len(results.latencies) - 1,
                         f"{tag}: traced certificate differs ({error})")
    results.check(block, outs)
    reference = results.digest.hexdigest()

    wall, untraced_wall = sum(traced), sum(results.latencies)
    calls, self_s = tracer.layer_totals()
    attributed = sum(self_s.values())
    harness = wall - tracer.root_s
    print(f"# traced wall {wall:.6f} s = layer self times {attributed:.6f} s"
          f" + harness {harness:.6f} s")
    if abs(attributed - tracer.root_s) > 1e-6 * max(wall, 1.0):
        raise RuntimeError("span self times do not add up to the root spans")

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (calls[layer], "count")
        metrics[f"{layer}.self_s"] = (self_s[layer], "s")
    metrics["harness.self_s"] = (harness, "s")
    for name in ("lattice.coordinates_in", "lattice.kernel",
                 "cone.extreme_rays_of_halfspaces",
                 "monoid.monoid_contains", "monoid.affine_monoid",
                 "toric_chart.boundary_ideal_generators",
                 "serialize.decode_monoid_chart"):
        metrics[f"{name}.calls"] = (tracer.calls[name], "count")
    for name in ("cone.extreme_rays_of_halfspaces", "cone.faces",
                 "monoid.hilbert_basis",
                 "toric_chart.boundary_ideal_generators",
                 "base_change.saturated_base_change"):
        metrics[f"{name}.self_s"] = (tracer.self_s[name], "s")
    metrics["cone.faces.returned"] = (tracer.returned["cone.faces"], "count")
    metrics["lattice.calls_per_problem"] = (
        calls["lattice"] / len(traced), "count/problem")
    metrics["trace.overhead_ratio"] = (wall / untraced_wall, "ratio")
    return results, reference, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGALRM, _alarm)
    workload = Workload(args.workload, args.seed)
    print(f"# workload {args.workload}, seed {args.seed}, "
          f"python {sys.version.split()[0]}, src lines {src_lines()}")
    if args.trace:
        results, reference, metrics = traced_run(workload)
    else:
        results, reference, metrics = timed_run(workload, args.seconds)
    print(f"# first block certificates sha256: {reference}")
    if results.stats["oracle_hilbert"]:
        print(f"# hilbert bases compared with the oracle: "
              f"{results.stats['oracle_hilbert']}")
    for failure in list(results.failures.values())[:20]:
        print(f"# FAILED {failure}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value} {unit}")
    print(json.dumps({
        "correct": not results.failures,
        "attempted": len(results.latencies),
        "failed": len(results.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
