import json
import pathlib

import pytest

from logtoric.cli import main, run_problem
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
)

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


def test_dumps_canonical():
    assert dumps({"b": 1, "a": 2}).startswith('{\n  "a"')
    assert dumps({}).endswith("\n")
