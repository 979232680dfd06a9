import hashlib
import json
import pathlib
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from logtoric import cli
from logtoric.cli import main, run_problem
from logtoric.lattice import lattices_equal, vec_neg
from logtoric.monoid import affine_monoid, hilbert_basis, saturate
from logtoric.serialize import (
    decode_cone,
    decode_monoid,
    decode_monoid_chart,
    decode_toric_chart,
    dumps,
    encode_cone,
    encode_monoid,
    encode_monoid_chart,
    encode_toric_chart,
    encode_vectors,
)

from corpus_util import random_pointed_cone, random_vector

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def run_cli(capsys, args):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def write_payload(tmp_path, payload):
    p = tmp_path / "in.json"
    p.write_text(json.dumps(payload))
    return str(p)


def test_dual_command(tmp_path, capsys):
    path = write_payload(tmp_path, {
        "cone": {"rank": "2", "generators": [["1", "0"], ["1", "2"]]}})
    code, out, _ = run_cli(capsys, ["dual", "-i", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["dual"]["generators"] == [["0", "1"], ["2", "-1"]]


def test_base_change_command(tmp_path, capsys):
    path = write_payload(tmp_path, {
        "theta": {"source": {"rank": "1", "generators": [["1"]]},
                  "target": {"rank": "1", "generators": [["1"]]},
                  "matrix": [["2"]]},
        "phi": {"source": {"rank": "1", "generators": [["1"]]},
                "target": {"rank": "1", "generators": [["1"]]},
                "matrix": [["3"]]}})
    code, out, _ = run_cli(capsys, ["base-change", "-i", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["main_monoid"]["generators"] == [["1"]]
    assert doc["torsion_order"] == "1"


def test_check_log_smooth_witness(tmp_path, capsys):
    path = write_payload(tmp_path, {
        "chart": {"source": {"rank": "2",
                             "generators": [["1", "0"], ["0", "1"]]},
                  "target": {"rank": "1", "generators": [["1"]]},
                  "matrix": [["1", "1"]]}})
    code, out, _ = run_cli(capsys, ["check-log-smooth", "-i", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] is False
    assert doc["kernel_certificate"] == [["1", "-1"]]


def test_oracle_minimal_elements_big_integers(tmp_path, capsys):
    path = write_payload(tmp_path, {
        "check": "minimal-elements",
        "tuples": [["1180591620717411303424", "0"], ["1", "1"]]})
    code, out, _ = run_cli(capsys, ["oracle", "-i", path])
    assert code == 0
    assert json.loads(out)["minimal"] == \
        [["1", "1"], ["1180591620717411303424", "0"]]


def test_parse_error_exit_code(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"cone": [truncated')
    code, _, err = run_cli(capsys, ["dual", "-i", str(p)])
    assert code == 2 and "malformed JSON" in err


def test_unknown_version_exit_code(tmp_path, capsys):
    path = write_payload(tmp_path, {"version": "99", "tasks": []})
    code, _, err = run_cli(capsys, ["run", "-i", path])
    assert code == 2 and "version" in err


def test_dangling_reference_exit_code(tmp_path, capsys):
    path = write_payload(tmp_path, {
        "version": "1", "objects": {},
        "tasks": [{"command": "dual", "arguments": {"cone": "$nope"}}]})
    code, _, err = run_cli(capsys, ["run", "-i", path])
    assert code == 2 and "nope" in err


def test_task_failure_exit_code(tmp_path, capsys):
    # fibre-dim on a non-dominant chart is a per-task library failure
    path = write_payload(tmp_path, {
        "version": "1",
        "objects": {"c": {
            "type": "monoid_chart",
            "source": {"rank": "2", "generators": [["1", "0"], ["0", "1"]]},
            "target": {"rank": "1", "generators": [["1"]]},
            "matrix": [["1", "1"]]}},
        "tasks": [{"command": "fibre-dim", "arguments": {"chart": "$c"}}]})
    code, out, _ = run_cli(capsys, ["run", "-i", path])
    assert code == 1
    doc = json.loads(out)
    assert doc["results"][0]["ok"] is False


def test_seed_rejected(tmp_path, capsys):
    path = write_payload(tmp_path, {
        "cone": {"rank": "1", "generators": [["1"]]}})
    code, _, err = run_cli(capsys, ["hilbert", "-i", path, "--seed", "5"])
    assert code == 2 and "--seed" in err


def test_empty_task_list(tmp_path, capsys):
    path = write_payload(tmp_path, {"version": "1", "objects": {},
                                    "tasks": []})
    code, out, _ = run_cli(capsys, ["run", "-i", path])
    assert code == 0
    assert json.loads(out) == {"version": "1", "results": []}


def test_text_format(tmp_path, capsys):
    path = write_payload(tmp_path, {
        "cone": {"rank": "2", "generators": [["1", "0"], ["0", "1"]]}})
    code, out, _ = run_cli(capsys, ["dual", "-i", path, "--format", "text"])
    assert code == 0 and "generators" in out and "{" not in out


@pytest.mark.parametrize("fixture", sorted(FIXTURES.glob("*.json")),
                         ids=lambda p: p.stem)
def test_fixture_determinism(fixture, capsys):
    code1, out1, _ = run_cli(capsys, ["run", "-i", str(fixture)])
    code2, out2, _ = run_cli(capsys, ["run", "-i", str(fixture)])
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert all(entry["ok"] for entry in doc["results"])


def test_cusp_fixture_certificate(capsys):
    code, out, _ = run_cli(capsys, ["run", "-i",
                                    str(FIXTURES / "cusp_base_change.json")])
    assert code == 0
    result = json.loads(out)["results"][0]["result"]
    assert result["main_monoid"]["generators"] == [["1"]]
    assert result["torsion_order"] == "1"


def test_serialize_round_trips():
    cone_doc = {"rank": "2", "generators": [["1", "0"], ["1", "2"]]}
    c = decode_cone(cone_doc)
    again = decode_cone(encode_cone(c))
    assert encode_cone(again) == encode_cone(c)

    monoid_doc = {"rank": "1", "generators": [["2"], ["3"]],
                  "saturated": False}
    m = decode_monoid(monoid_doc)
    assert encode_monoid(decode_monoid(encode_monoid(m))) == encode_monoid(m)

    chart_doc = {"lattice_rank": "2",
                 "cone_generators": [["1", "0"], ["1", "2"]]}
    t = decode_toric_chart(chart_doc)
    assert encode_toric_chart(t) == {
        "lattice_rank": "2", "cone_generators": [["1", "0"], ["1", "2"]]}

    mc_doc = {"source": {"rank": "1", "generators": [["1"]]},
              "target": {"rank": "1", "generators": [["1"]]},
              "matrix": [["2"]]}
    mc = decode_monoid_chart(mc_doc)
    assert encode_monoid_chart(mc) == {
        "source": {"rank": "1", "generators": [["1"]], "saturated": True},
        "target": {"rank": "1", "generators": [["1"]], "saturated": True},
        "matrix": [["2"]]}


def _monoid_or_error(build):
    try:
        m = build()
    except ValueError as e:
        return f"{type(e).__name__}: {e}"
    return m


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9))
def test_saturated_decode_matches_saturate(seed):
    """A monoid declared saturated decodes to saturate(affine_monoid(...)),
    whether its generators are a Hilbert basis, unsaturated (scaled and
    summed vectors) or hold units (a vector and its negative)."""
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    kind = rng.choice(["saturated", "unsaturated", "units"])
    if kind == "saturated":
        gens = list(hilbert_basis(random_pointed_cone(rng, n, 2, 4)).generators) \
            if n > 1 else [(1,)]
    else:
        gens = [random_vector(rng, n, 2) for _ in range(rng.randint(1, 4))]
        gens += [tuple(rng.randint(2, 3) * x for x in rng.choice(gens)),
                 tuple(x + y for x, y in zip(rng.choice(gens), rng.choice(gens)))]
        if kind == "units":
            gens.append(vec_neg(rng.choice(gens)))
    rng.shuffle(gens)
    doc = {"rank": str(n), "generators": encode_vectors(gens),
           "saturated": True}
    got = _monoid_or_error(lambda: decode_monoid(doc))
    want = _monoid_or_error(lambda: saturate(affine_monoid(n, gens)))
    if isinstance(want, str):
        assert got == want
        return
    assert (got.generators, got.cone, got.saturated) \
        == (want.generators, want.cone, want.saturated)
    assert lattices_equal(got.unit_sublattice, want.unit_sublattice)


def test_dumps_canonical():
    assert dumps({"b": 1, "a": 2}).startswith('{\n  "a"')
    assert dumps({}).endswith("\n")


def count_calls(monkeypatch, name):
    """Wrap cli.<name> so that each call is counted; returns the counts."""
    calls = []
    original = getattr(cli, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, name, counted)
    return calls


def golden_base_change(tag):
    for line in (FIXTURES / "golden" / "base-change.jsonl").open():
        entry = json.loads(line)
        if entry["tag"] == tag:
            return entry
    raise KeyError(tag)


@pytest.mark.parametrize("tag, charts", [("pair:0", 2), ("pair:47", 1)])
def test_run_decodes_each_chart_once(monkeypatch, tag, charts):
    # pair:47 declares theta and phi with the same chart
    entry = golden_base_change(tag)
    decodes = count_calls(monkeypatch, "decode_monoid_chart")
    base_changes = count_calls(monkeypatch, "saturated_base_change")
    certificate, ok = run_problem(entry["problem"])
    assert ok
    assert hashlib.sha256(dumps(certificate).encode()).hexdigest() \
        == entry["sha256"]
    assert len(decodes) == charts
    assert len(base_changes) == 1


def test_run_environment_dies_with_the_call(monkeypatch):
    problem = golden_base_change("pair:0")["problem"]
    decodes = count_calls(monkeypatch, "decode_monoid_chart")
    first, _ = run_problem(problem)
    assert len(decodes) == 2
    second, _ = run_problem(problem)
    assert len(decodes) == 4
    assert dumps(first) == dumps(second)


def test_run_failures_are_not_kept(monkeypatch, tmp_path, capsys):
    nat2 = {"rank": "2", "generators": [["1", "0"], ["0", "1"]]}
    pair = {"theta": "$theta", "phi": "$phi"}
    problem = {
        "version": "1",
        "objects": {
            # theta kills (1, -1), so it is not dominant
            "theta": {"type": "monoid_chart", "source": nat2,
                      "target": {"rank": "1", "generators": [["1"]]},
                      "matrix": [["1", "1"]]},
            "phi": {"type": "monoid_chart", "source": nat2, "target": nat2,
                    "matrix": [["1", "0"], ["0", "1"]]}},
        "tasks": [{"command": "base-change", "arguments": pair},
                  {"command": "verify", "arguments": pair}]}
    base_changes = count_calls(monkeypatch, "saturated_base_change")
    code, out, _ = run_cli(capsys, ["run", "-i",
                                    write_payload(tmp_path, problem)])
    assert code == 1
    error = "saturated base change requires a dominant first chart"
    assert json.loads(out)["results"] == [
        {"command": "base-change", "ok": False, "error": error},
        {"command": "verify", "ok": False, "error": error}]
    assert len(base_changes) == 2


def test_output_references_resolve_by_value():
    # "c" is rebound by the second task, so "$c.dual" names two different
    # cones; each task must see the value it resolved
    quadric = {"rank": "2", "generators": [["1", "0"], ["1", "2"]]}
    certificate, ok = run_problem({
        "version": "1",
        "objects": {"sigma": {"type": "cone", **quadric}},
        "tasks": [
            {"command": "dual", "arguments": {"cone": "$sigma"},
             "output_name": "c"},
            {"command": "dual", "arguments": {"cone": "$c.dual"},
             "output_name": "c"},
            {"command": "hilbert", "arguments": {"cone": "$c.dual"}}]})
    assert ok
    dual = cli.HANDLERS["dual"](cli.RunEnvironment(), {"cone": quadric})
    again = cli.HANDLERS["dual"](cli.RunEnvironment(), {"cone": dual["dual"]})
    hilbert = cli.HANDLERS["hilbert"](cli.RunEnvironment(),
                                      {"cone": again["dual"]})
    assert [dumps(r["result"]) for r in certificate["results"]] == \
        [dumps(dual), dumps(again), dumps(hilbert)]


def test_oracle_refuses_a_huge_box(tmp_path, capsys):
    path = write_payload(tmp_path, {
        "check": "hilbert-basis",
        "cone": {"rank": "3", "generators": [["1", "1", "0"],
                                             ["1", "-1", "2"]]},
        "box": {"rank": "3", "lower": ["-1000"] * 3,
                "upper": ["1000"] * 3}})
    start = time.perf_counter()
    code, out, err = run_cli(capsys, ["oracle", "-i", path])
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert "8012006001 grid points" in err
