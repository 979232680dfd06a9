"""Command-line interface.

Each subcommand reads a JSON payload (file or stdin), runs one library
operation, and writes a deterministic certificate (JSON by default,
``--format text`` for a summary).  The ``run`` subcommand executes a
problem file: named objects plus an ordered task list whose outputs can
feed later tasks.

Exit codes: 0 success, 1 task failure, 2 parse/resolution error,
3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .base_change import (
    BaseChangeError,
    saturated_base_change,
    verify_base_change,
)
from .cone import ConeError, dual_cone
from .lattice import LatticeError
from .log_morphism import (
    ChartMapError,
    cokernel_of_gp,
    fibre_dimension,
    is_dominant,
    is_log_smooth,
    is_strict,
)
from .monoid import MonoidError, hilbert_basis, minimal_elements, NatTupleSet
from .oracle import (
    OracleError,
    brute_hilbert_basis,
    brute_minimal_tuples,
    brute_saturation,
    enumerate_cone_points,
)
from .serialize import (
    FormatError,
    decode_box,
    decode_cone,
    decode_monoid_chart,
    decode_toric_chart,
    decode_vectors,
    dumps,
    encode_base_change_result,
    encode_cone,
    encode_monoid,
    encode_vector,
    encode_vectors,
)
from .toric_chart import (
    ChartError,
    boundary_ideal_generators,
    chart_face,
    chart_faces,
    orbit_data,
    split_torus_factor,
)
from .lattice import sublattice_from_vectors

PROBLEM_VERSION = "1"

LIBRARY_ERRORS = (ConeError, MonoidError, ChartError, ChartMapError,
                  BaseChangeError, OracleError, LatticeError)


# The oracle tests each grid point of its box in Python, a few hundred
# thousand a second, so the CLI refuses a larger box before any scan.
MAX_ORACLE_BOX_POINTS = 10**6


class ResolutionError(ValueError):
    """A task references an object that was never declared or produced."""


def _payload_field(payload, key):
    if not isinstance(payload, dict) or key not in payload:
        raise FormatError(f"missing required field {key!r}")
    return payload[key]


class RunEnvironment:
    """The work that the tasks of one ``run_problem`` call share.

    ``decode`` keeps each decoded library object under its decoder, the
    decoder's options and the canonical JSON of the resolved argument
    value, so a chart named by several tasks, as ``$name`` or as an
    earlier output's ``$name.field``, is decoded once.  ``call`` keeps
    the result of a pure library function under its (hashable, frozen)
    arguments.  Only results are kept: a decoder or call that raised
    runs again for the next task that needs it and raises the same
    error.  Nothing outlives the environment, and each ``run_problem``
    call makes its own.
    """

    def __init__(self):
        self._results: dict = {}

    def _once(self, key, compute):
        if key not in self._results:
            self._results[key] = compute()
        return self._results[key]

    def decode(self, payload, key: str, decoder, **options):
        """``decoder(payload[key], **options)``, once per distinct value."""
        value = _payload_field(payload, key)
        return self._once(
            (decoder, tuple(sorted(options.items())),
             json.dumps(value, sort_keys=True)),
            lambda: decoder(value, **options))

    def call(self, fn, *args):
        """``fn(*args)``, once per distinct tuple of arguments."""
        return self._once((fn, args), lambda: fn(*args))


def _oracle_box(payload):
    box = decode_box(_payload_field(payload, "box"))
    points = 1
    for lo, hi in zip(box.lower, box.upper):
        points *= hi - lo + 1
    if points > MAX_ORACLE_BOX_POINTS:
        raise OracleError(
            f"oracle box has {points} grid points, more than the "
            f"{MAX_ORACLE_BOX_POINTS} the command scans")
    return box


def _cmd_dual(env, payload):
    c = env.decode(payload, "cone", decode_cone)
    return {"dual": encode_cone(dual_cone(c))}


def _cmd_hilbert(env, payload):
    c = env.decode(payload, "cone", decode_cone, strongly_convex=True)
    return {"monoid": encode_monoid(hilbert_basis(c))}


def _cmd_boundary_ideal(env, payload):
    chart = env.decode(payload, "chart", decode_toric_chart)
    ideal = boundary_ideal_generators(chart)
    return {"ideal_generators": encode_vectors(ideal.generator_exponents)}


def _cmd_faces(env, payload):
    chart = env.decode(payload, "chart", decode_toric_chart)
    return {"faces": [
        {
            "generators": encode_vectors(f.generators),
            "defining_normal": encode_vector(f.defining_normal),
            "dimension": str(f.dim()),
        }
        for f in chart_faces(chart)
    ]}


def _cmd_orbit(env, payload):
    chart = env.decode(payload, "chart", decode_toric_chart)
    gens = decode_vectors(_payload_field(payload, "face_generators"),
                          chart.lattice_rank)
    od = orbit_data(chart, chart_face(chart, gens))
    return {
        "orbit_dimension": str(od.orbit_dimension),
        "closure_monoid": encode_monoid(od.closure_monoid),
    }


def _cmd_split(env, payload):
    chart = env.decode(payload, "chart", decode_toric_chart)
    s = split_torus_factor(chart)
    return {
        "n1": encode_vectors(s.n1.basis_vectors()),
        "n2": encode_vectors(s.n2.basis_vectors()),
        "factor_monoid": encode_monoid(s.factor_monoid),
        "torus_rank": str(s.torus_rank),
    }


def _cmd_check_log_smooth(env, payload):
    chart = env.decode(payload, "chart", decode_monoid_chart)
    verdict, certificate = is_log_smooth(chart)
    out = {"verdict": verdict}
    if not verdict:
        out["kernel_certificate"] = encode_vectors(certificate)
    return out


def _cmd_check_log_etale(env, payload):
    chart = env.decode(payload, "chart", decode_monoid_chart)
    if not is_dominant(chart):
        return {"verdict": False}
    free_rank, torsion = cokernel_of_gp(chart)
    return {"verdict": free_rank == 0,
            "cokernel_torsion": [str(t) for t in torsion]}


def _cmd_check_strict(env, payload):
    chart = env.decode(payload, "chart", decode_monoid_chart)
    return {"verdict": is_strict(chart)}


def _cmd_fibre_dim(env, payload):
    chart = env.decode(payload, "chart", decode_monoid_chart)
    return {"fibre_dimension": str(fibre_dimension(chart))}


def _cmd_base_change(env, payload):
    theta = env.decode(payload, "theta", decode_monoid_chart)
    phi = env.decode(payload, "phi", decode_monoid_chart)
    result = env.call(saturated_base_change, theta, phi)
    out = encode_base_change_result(result)
    out["torsion_divisors"] = [str(d) for d in result.torsion_divisors]
    return out


def _cmd_verify(env, payload):
    theta = env.decode(payload, "theta", decode_monoid_chart)
    phi = env.decode(payload, "phi", decode_monoid_chart)
    result = env.call(saturated_base_change, theta, phi)
    report = verify_base_change(result, theta)
    if "kernel_certificate" in report:
        report["kernel_certificate"] = \
            encode_vectors(report["kernel_certificate"])
    return {
        "result": encode_base_change_result(result),
        "report": report,
    }


def _cmd_oracle(env, payload):
    check = _payload_field(payload, "check")
    if check == "cone-points":
        c = env.decode(payload, "cone", decode_cone)
        pts = enumerate_cone_points(c, _oracle_box(payload))
        return {"points": encode_vectors(pts)}
    if check == "hilbert-basis":
        c = env.decode(payload, "cone", decode_cone)
        basis = brute_hilbert_basis(c, _oracle_box(payload))
        return {"hilbert_basis": encode_vectors(sorted(basis))}
    if check == "saturation":
        gens = decode_vectors(_payload_field(payload, "generators"))
        group = decode_vectors(_payload_field(payload, "group"))
        rank = len(gens[0]) if gens else len(group[0])
        lattice = sublattice_from_vectors(rank, group)
        out = brute_saturation(gens, lattice, _oracle_box(payload))
        return {"irreducibles": encode_vectors(sorted(out))}
    if check == "minimal-elements":
        tuples = decode_vectors(_payload_field(payload, "tuples"))
        out = brute_minimal_tuples(tuples)
        return {"minimal": encode_vectors(sorted(out))}
    raise FormatError(f"unknown oracle check {check!r}")


def _cmd_minimal_elements(env, payload):
    tuples = decode_vectors(_payload_field(payload, "tuples"))
    width = len(tuples[0]) if tuples else 0
    out = minimal_elements(NatTupleSet(width, frozenset(tuples)))
    return {"minimal": encode_vectors(out.sorted())}


HANDLERS = {
    "dual": _cmd_dual,
    "hilbert": _cmd_hilbert,
    "minimal": _cmd_minimal_elements,
    "boundary-ideal": _cmd_boundary_ideal,
    "faces": _cmd_faces,
    "orbit": _cmd_orbit,
    "split": _cmd_split,
    "check-log-smooth": _cmd_check_log_smooth,
    "check-log-etale": _cmd_check_log_etale,
    "check-strict": _cmd_check_strict,
    "fibre-dim": _cmd_fibre_dim,
    "base-change": _cmd_base_change,
    "verify": _cmd_verify,
    "oracle": _cmd_oracle,
}


def _resolve(value, names):
    """Substitute object references ("$name" strings, with optional
    dotted field access into earlier task outputs) by their JSON values;
    other strings pass through as literals."""
    if not isinstance(value, str) or not value.startswith("$"):
        return value
    name, _, path = value[1:].partition(".")
    if name not in names:
        raise ResolutionError(f"reference to undeclared object {name!r}")
    obj = names[name]
    for field in path.split(".") if path else []:
        if not isinstance(obj, dict) or field not in obj:
            raise ResolutionError(
                f"reference {value!r} has no field {field!r}")
        obj = obj[field]
    return obj


def run_problem(doc) -> tuple[dict, bool]:
    """Execute a problem file; returns (certificate, all_tasks_ok).

    The tasks share one RunEnvironment, which lives for this call only:
    each declared object and each earlier output is decoded once per
    decoder, and the saturated base change of a pair is computed once
    for ``base-change`` and ``verify``.  Failures are not kept, so a
    task that fails does so with the same error however often it runs.
    """
    if not isinstance(doc, dict):
        raise FormatError("problem file must be a JSON object")
    version = doc.get("version")
    if version != PROBLEM_VERSION:
        raise FormatError(f"unknown problem file version {version!r}")
    objects = doc.get("objects", {})
    if not isinstance(objects, dict):
        raise FormatError("objects must be a JSON object")
    tasks = doc.get("tasks", [])
    if not isinstance(tasks, list):
        raise FormatError("tasks must be a JSON array")
    names = {}
    for name, obj in objects.items():
        if not isinstance(obj, dict):
            raise FormatError(f"object {name!r} must be a JSON object")
        names[name] = {k: v for k, v in obj.items() if k != "type"}
    env = RunEnvironment()
    results = []
    all_ok = True
    for i, task in enumerate(tasks):
        if not isinstance(task, dict) or "command" not in task:
            raise FormatError(f"task {i} must be an object with a command")
        command = task["command"]
        if command not in HANDLERS:
            raise FormatError(f"unknown command {command!r} in task {i}")
        arguments = task.get("arguments", {})
        if not isinstance(arguments, dict):
            raise FormatError(f"task {i} arguments must be a JSON object")
        payload = {k: _resolve(v, names) for k, v in arguments.items()}
        entry = {"command": command}
        if "output_name" in task:
            entry["output_name"] = task["output_name"]
        try:
            result = HANDLERS[command](env, payload)
            entry["ok"] = True
            entry["result"] = result
            if "output_name" in task:
                names[task["output_name"]] = result
        except LIBRARY_ERRORS as exc:
            entry["ok"] = False
            entry["error"] = str(exc)
            all_ok = False
        results.append(entry)
    return {"version": PROBLEM_VERSION, "results": results}, all_ok


def _render_text(obj, indent=0) -> str:
    pad = "  " * indent
    lines = []
    if isinstance(obj, dict):
        for k in sorted(obj):
            v = obj[k]
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}{k}:")
                lines.append(_render_text(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {v}")
    elif isinstance(obj, list):
        if all(isinstance(x, str) for x in obj):
            lines.append(pad + "[" + ", ".join(obj) + "]")
        else:
            for x in obj:
                lines.append(_render_text(x, indent))
    else:
        lines.append(f"{pad}{obj}")
    return "\n".join(lines)


def _read_input(path: str):
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(
            f"malformed JSON at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}") from None


def _write_output(path: str, text: str):
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logtoric",
        description="Exact combinatorics of toric charts, fs monoids and "
                    "saturated base change.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in list(HANDLERS) + ["run"]:
        p = sub.add_parser(name)
        p.add_argument("--input", "-i", default="-",
                       help="input JSON file, '-' for stdin")
        p.add_argument("--output", "-o", default="-",
                       help="output file, '-' for stdout")
        p.add_argument("--format", choices=["json", "text"], default="json")
        p.add_argument("--seed", help=argparse.SUPPRESS)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "seed", None) is not None:
        print("error: --seed is rejected; all computation is deterministic",
              file=sys.stderr)
        return 2
    try:
        doc = _read_input(args.input)
        if args.command == "run":
            certificate, ok = run_problem(doc)
            exit_code = 0 if ok else 1
        else:
            certificate = HANDLERS[args.command](RunEnvironment(), doc)
            exit_code = 0
    except (FormatError, ResolutionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LIBRARY_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # invariant violation
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    if args.format == "json":
        _write_output(args.output, dumps(certificate))
    else:
        _write_output(args.output, _render_text(certificate) + "\n")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
