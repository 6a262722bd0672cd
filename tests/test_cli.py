import json
import pathlib
import subprocess
import sys

import pytest

from nodalstab import cli

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
CURVES = FIXTURES / "curves"


def run_cli(capsys, *args):
    code = cli.run(list(args))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_validate_ok(capsys):
    code, report = run_cli(capsys, "validate", "--curve", str(CURVES / "path3.json"))
    assert code == 0
    assert report["valid"]
    assert report["p_a"] == 3
    assert report["genus_at_least_two"]
    assert report["errors"] == []


def test_validate_triangle_cycle(capsys):
    code, report = run_cli(capsys, "validate", "--curve",
                           str(CURVES / "triangle_invalid.json"))
    assert code == 2
    assert not report["valid"]
    assert any(e["code"] == "CycleDetected" for e in report["errors"])


def test_validate_disconnected(capsys):
    code, report = run_cli(capsys, "validate", "--curve",
                           str(CURVES / "disconnected_invalid.json"))
    assert code == 2
    assert any(e["code"] == "Disconnected" for e in report["errors"])


def test_order_path3(capsys):
    code, report = run_cli(capsys, "order", "--curve", str(CURVES / "path3.json"))
    assert code == 0
    assert report["perm"] == [1, 3, 2]
    assert report["nu"] == {"1": 3, "2": 3}
    assert report["G"]["1"] == [1]
    assert report["B"]["1"] == [2, 3]
    assert report["boundary_nodes"]["1"] == [1, 2]


def test_order_on_invalid_curve_is_input_error(capsys):
    code, report = run_cli(capsys, "order", "--curve",
                           str(CURVES / "multiedge_invalid.json"))
    assert code == 2
    assert report["error"]["code"] == "MultiEdge"


def test_check_prebalance_fails(capsys):
    code, report = run_cli(
        capsys, "check",
        "--curve", str(CURVES / "path2_g11.json"),
        "--bundle", str(FIXTURES / "path2_bundle.json"),
        "--pol", str(FIXTURES / "path2_pol.json"))
    assert code == 1
    assert not report["passes"]
    first = report["indices"][0]
    assert (first["lower"], first["upper"], first["value"]) == ("1", "3", 5)
    assert not first["passes"]


def test_check_balanced_passes(capsys):
    code, report = run_cli(
        capsys, "check",
        "--curve", str(CURVES / "path2_g11.json"),
        "--bundle", str(FIXTURES / "path2_bundle_balanced.json"),
        "--pol", str(FIXTURES / "path2_pol.json"))
    assert code == 0
    assert report["passes"]


def test_balance_path2(capsys):
    code, report = run_cli(
        capsys, "balance",
        "--curve", str(CURVES / "path2_g11.json"),
        "--bundle", str(FIXTURES / "path2_bundle.json"),
        "--pol", str(FIXTURES / "path2_pol.json"))
    assert code == 0
    assert report["twist"] == {"1": 1, "2": 0}
    assert report["multidegree"] == {"1": 3, "2": 1}
    assert report["passes"]
    assert report["steps"][0]["candidates"] == [1, 2]


def test_parse_error_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json", encoding="utf-8")
    code, report = run_cli(capsys, "validate", "--curve", str(bad))
    assert code == 2
    assert report["error"]["code"] == "ParseError"
    assert report["error"]["line"] == 1


def test_parse_error_reports_field(tmp_path, capsys):
    doc = tmp_path / "bundle.json"
    doc.write_text('{"rank": 2}', encoding="utf-8")
    code, report = run_cli(
        capsys, "check",
        "--curve", str(CURVES / "path2_g11.json"),
        "--bundle", str(doc),
        "--pol", str(FIXTURES / "path2_pol.json"))
    assert code == 2
    assert report["error"]["field"] == "multidegree"


def test_mismatched_bundle_is_input_error(tmp_path, capsys):
    doc = tmp_path / "bundle.json"
    doc.write_text('{"rank": 2, "multidegree": {"1": 5, "7": -1}}', encoding="utf-8")
    code, report = run_cli(
        capsys, "check",
        "--curve", str(CURVES / "path2_g11.json"),
        "--bundle", str(doc),
        "--pol", str(FIXTURES / "path2_pol.json"))
    assert code == 2
    assert report["error"]["code"] == "DocumentMismatch"


def test_gpb_build_ok(capsys):
    code, report = run_cli(capsys, "gpb", "--build", "--field", "F5",
                           "--rank", "2", "--degree", "4", "--shift", "1")
    assert code == 0
    assert report["locally_free"]
    assert report["basis_matrix"] == [["1", "0", "0", "1"], ["0", "1", "1", "0"]]


def test_gpb_build_singular_case_reported(capsys):
    code, report = run_cli(capsys, "gpb", "--build", "--field", "F2",
                           "--rank", "3", "--degree", "9")
    assert code == 1
    assert report["error"]["code"] == "SingularProjection"


def test_gpb_flag_fixture(capsys):
    code, report = run_cli(capsys, "gpb", "--flag", str(FIXTURES / "flag_f5_r2.json"))
    assert code == 0
    assert report["pr1_iso"] and report["pr2_iso"] and report["locally_free"]
    assert report["no_kernel_sections"]


def test_gpb_flag_with_kernel_section(capsys):
    code, report = run_cli(capsys, "gpb", "--flag", str(FIXTURES / "flag_bad_row.json"))
    assert code == 1
    assert not report["pr2_iso"]
    assert report["dim_meet_p_side"] == 1


def test_gpb_slope_and_descent_numbers(capsys):
    code, report = run_cli(capsys, "gpb", "--rank", "2", "--degree", "3",
                           "--nodes", "1", "--genus", "2")
    assert code == 0
    assert report["parabolic_slope"] == "5/2"
    assert report["phi_chi"] == -1
    assert report["phi_degree"] == 3
    code, report = run_cli(capsys, "gpb", "--rank", "2", "--degree", "4", "--nodes", "1")
    assert report["parabolic_slope"] == "3"


def test_gpb_without_mode_is_input_error(capsys):
    code, report = run_cli(capsys, "gpb")
    assert code == 2


def test_dvr_det_trace(capsys):
    code, report = run_cli(capsys, "dvr", "--matrix", str(FIXTURES / "dvr_matrix.json"),
                           "--field", "F5", "--n", "1")
    assert code == 0
    assert report["holds"]
    assert report["lhs"] == [1, 0]
    assert report["rhs"] == [1, 0]


def test_dvr_sl_kernel(capsys):
    code, report = run_cli(capsys, "dvr", "--sl", str(FIXTURES / "dvr_sl_kernel.json"))
    assert code == 0
    assert report["in_kernel"]
    assert report["biconditional_holds"]


def test_dvr_torsor(capsys):
    code, report = run_cli(capsys, "dvr", "--torsor", str(FIXTURES / "dvr_torsor.json"))
    assert code == 0
    assert report["det_relation_holds"]
    assert report["count"] == 2


def test_out_flag_writes_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = cli.run(["validate", "--curve", str(CURVES / "path3.json"),
                    "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    assert json.loads(out.read_text(encoding="utf-8"))["valid"]


def test_subprocess_runs_are_byte_identical():
    cmd = [sys.executable, "-m", "nodalstab.cli", "balance",
           "--curve", str(CURVES / "path2_g11.json"),
           "--bundle", str(FIXTURES / "path2_bundle.json"),
           "--pol", str(FIXTURES / "path2_pol.json")]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert b'"twist"' in first.stdout


def test_report_round_trips(capsys):
    for name in ("single_g2", "path4", "star4", "mixed8"):
        code, report = run_cli(capsys, "order", "--curve",
                               str(CURVES / f"{name}.json"))
        assert code == 0
        assert json.loads(json.dumps(report)) == report


def test_non_utf8_input_is_input_error(tmp_path, capsys):
    path = tmp_path / "curve.json"
    path.write_bytes(b'{"components": [{"id": 1}], "edges": [], "note": "\xff\xfe"}')
    code, report = run_cli(capsys, "validate", "--curve", str(path))
    assert code == 2
    assert report["error"]["code"] == "ParseError"


def test_unwritable_out_path_is_input_error(tmp_path, capsys):
    out = tmp_path / "missing" / "report.json"
    code, report = run_cli(capsys, "validate", "--curve", str(CURVES / "path3.json"),
                           "--out", str(out))
    assert code == 2
    assert report["error"]["code"] == "InvalidInput"
    assert not out.exists()


def test_huge_prime_is_input_error(capsys):
    code, report = run_cli(capsys, "gpb", "--build", "--field",
                           "F618970019642690137449562111", "--rank", "3", "--degree", "5")
    assert code == 2
    assert report["error"] == {"code": "InvalidInput",
                               "detail": "618970019642690137449562111 is too large: "
                                         "p must be below 2^64"}


def test_duplicate_and_noncanonical_keys_are_input_errors(tmp_path, capsys):
    bundle = tmp_path / "bundle.json"
    for text in ('{"rank": 2, "multidegree": {"1": 1, "2": 1, "1": 3}}',
                 '{"rank": 2, "multidegree": {"1": 1, "02": 1}}'):
        bundle.write_text(text)
        code, report = run_cli(capsys, "check", "--curve", str(CURVES / "path2_g11.json"),
                               "--bundle", str(bundle),
                               "--pol", str(FIXTURES / "path2_pol.json"))
        assert code == 2
        assert report["error"]["code"] == "ParseError"


@pytest.mark.parametrize("gammas, field", [
    (7, "gammas"),
    ([["a", 0]], "gammas[0]"),
    ([[1.5, 2.7]], "gammas[0]"),
    ([[True, 0]], "gammas[0]"),
    ({"10": 0}, "gammas"),
    ([7], "gammas[0]"),
])
def test_malformed_torsor_gammas_are_input_errors(tmp_path, capsys, gammas, field):
    doc = json.loads((FIXTURES / "dvr_torsor.json").read_text(encoding="utf-8"))
    doc["gammas"] = gammas
    path = tmp_path / "torsor.json"
    path.write_text(json.dumps(doc))
    code, report = run_cli(capsys, "dvr", "--torsor", str(path))
    assert code == 2
    assert report["error"]["code"] == "ParseError"
    assert report["error"]["field"] == field


def test_non_array_cocycle_is_input_error(tmp_path, capsys):
    path = tmp_path / "torsor.json"
    for cocycle in (7, None, "F5"):
        path.write_text(json.dumps({"cocycle": cocycle, "gammas": [[1, 1]]}))
        code, report = run_cli(capsys, "dvr", "--torsor", str(path))
        assert code == 2
        assert report["error"]["field"] == "cocycle"


def test_build_rank_is_bounded(capsys):
    code, report = run_cli(capsys, "gpb", "--build", "--field", "F5", "--rank", "64",
                           "--degree", "64", "--shift", "1")
    assert code == 0
    assert len(report["basis_matrix"]) == 64
    code, report = run_cli(capsys, "gpb", "--build", "--field", "F5", "--rank", "65",
                           "--degree", "65", "--shift", "1")
    assert code == 2
    assert report["error"] == {"code": "InvalidInput",
                               "detail": "--rank must be at most 64, got 65"}


def test_matrix_truncation_order_is_bounded(capsys):
    args = ("dvr", "--matrix", str(FIXTURES / "dvr_matrix.json"), "--field", "F5")
    code, report = run_cli(capsys, *args, "--n", "10000")
    assert code == 0
    assert report["holds"] and len(report["lhs"]) == 10001
    code, report = run_cli(capsys, *args, "--n", "1000000")
    assert code == 2
    assert report["error"] == {"code": "InvalidInput",
                               "detail": "--n must be at most 10000, got 1000000"}


@pytest.mark.parametrize("doc, detail", [
    ({"field": "Q", "basis_matrix": [["1/0", "1"]]},
     "flag entries must not have a zero denominator"),
    ({"field": "F5", "basis_matrix": [[1.5, True, 0, 1], [0, 1, 1, 0]]},
     "flag entries must be strings or integers, got 1.5"),
    ({"field": "F5", "basis_matrix": [["1", True, "0", "1"], ["0", "1", "1", "0"]]},
     "flag entries must be strings or integers, got True"),
    ({"field": "Q", "basis_matrix": [[None, "1"]]},
     "flag entries must be strings or integers, got None"),
    ({"field": "F5", "basis_matrix": ["1001", "0110"]}, "basis_matrix rows must be arrays"),
])
def test_untyped_flag_entries_are_input_errors(tmp_path, capsys, doc, detail):
    path = tmp_path / "flag.json"
    path.write_text(json.dumps(doc))
    code, report = run_cli(capsys, "gpb", "--flag", str(path))
    assert code == 2
    assert report["error"] == {"code": "ParseError", "field": "basis_matrix",
                               "detail": f"{detail}; field=basis_matrix"}


def test_integer_flag_entries_read_like_strings(tmp_path, capsys):
    path = tmp_path / "flag.json"
    path.write_text(json.dumps({"field": "F5", "basis_matrix": [[1, 0, 0, 1], [0, 1, 1, 0]]}))
    as_ints = run_cli(capsys, "gpb", "--flag", str(path))
    assert as_ints == run_cli(capsys, "gpb", "--flag", str(FIXTURES / "flag_f5_r2.json"))


def test_gpb_nodes_is_bounded(capsys):
    code, report = run_cli(capsys, "gpb", "--rank", "2", "--degree", "3", "--nodes", "10000")
    assert code == 0
    assert report["weight"] == 20000
    code, report = run_cli(capsys, "gpb", "--rank", "2", "--degree", "3", "--nodes", "10001")
    assert code == 2
    assert report["error"] == {"code": "InvalidInput",
                               "detail": "--nodes must be at most 10000, got 10001"}


def test_overlong_json_integer_is_input_error(tmp_path, capsys):
    bundle = tmp_path / "bundle.json"
    bundle.write_text('{"rank": ' + "7" * 5000 + ', "multidegree": {"1": 1, "2": 1}}')
    code, report = run_cli(capsys, "check", "--curve", str(CURVES / "path2_g11.json"),
                           "--bundle", str(bundle), "--pol", str(FIXTURES / "path2_pol.json"))
    assert code == 2
    assert report["error"] == {"code": "ParseError",
                               "detail": f"invalid JSON in {bundle}: a number has too many digits"}
