import json
import os
import pathlib
import random
import subprocess
import sys
import time

import pytest

import helpers
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


def test_a_component_id_below_one_names_its_position(tmp_path, capsys):
    doc = tmp_path / "curve.json"
    doc.write_text('{"components": [{"id": 1}, {"id": -3}], "edges": [[1, -3]]}',
                   encoding="utf-8")
    code, report = run_cli(capsys, "validate", "--curve", str(doc))
    assert code == 2
    assert report["error"] == {"code": "ParseError", "field": "components[1].id", "detail":
                               "component ids must be positive integers; field=components[1].id"}


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


GOLDEN_INPUTS = pathlib.Path(__file__).parent / "golden" / "inputs"


CAP = 10**1000     # the smallest integer with more than 1000 digits


@pytest.mark.parametrize("slot", ["rank", "degree", "geometric_genus", "internal_nodes"])
def test_report_inputs_are_capped_at_1000_digits(slot, tmp_path, capsys):
    # at the cap, twenty components print a p_a or window bounds of about
    # 2,000 digits; one digit more is refused before any report is written
    n = 20
    in_curve = slot in ("geometric_genus", "internal_nodes")
    curve, bundle, pol = (tmp_path / name for name in ("curve.json", "bundle.json", "pol.json"))
    pol.write_text(json.dumps({"weights": {str(i): "1/20" for i in range(1, n + 1)}}))
    # genus data is refused when negative anyway, so only +CAP is tried there
    for value in (CAP - 1, CAP) if in_curve else (CAP - 1, CAP, -CAP):
        curve.write_text(json.dumps({
            "components": [{"id": i, slot: value} if in_curve else {"id": i}
                           for i in range(1, n + 1)],
            "edges": [[i, i + 1] for i in range(1, n)]}))
        bundle.write_text(json.dumps({
            "rank": value if slot == "rank" else 2,
            "multidegree": {str(i): value if slot == "degree" else 1 for i in range(1, n + 1)}}))
        for cmd in ("validate", "check", "balance"):
            argv = [cmd, "--curve", str(curve)]
            if cmd != "validate":
                argv += ["--bundle", str(bundle), "--pol", str(pol)]
            code, report = run_cli(capsys, *argv)
            if abs(value) >= CAP and (in_curve or cmd != "validate"):
                assert code == 2
                assert report["error"]["code"] == "ParseError"
                assert report["error"]["detail"].startswith("integer has more than 1000 digits")
            else:
                assert code in (0, 1)


def test_weight_denominators_are_capped_at_1000_digits(tmp_path, capsys):
    # coprime odd P and Q: the weights' denominators 4P and 4Q have the lcm 4PQ
    pol = tmp_path / "pol.json"
    for p_digits, q_digits, refused in ((500, 500, False), (500, 502, True)):
        p, q = 10**(p_digits - 1) + 1, 10**(q_digits - 1) + 3
        assert (len(str(4 * p * q)) > 1000) == refused
        pol.write_text(json.dumps({"weights": {
            "1": f"{p + 4}/{4 * p}", "2": f"{q + 4}/{4 * q}",
            "3": f"{q - 4}/{4 * q}", "4": f"{p - 4}/{4 * p}"}}))
        code, report = run_cli(capsys, "check", "--curve", str(CURVES / "path4.json"),
                               "--bundle", str(GOLDEN_INPUTS / "path4_bundle.json"),
                               "--pol", str(pol))
        if refused:
            assert code == 2
            assert report["error"] == {
                "code": "ParseError", "field": "weights",
                "detail": "the weights' common denominator has more than 1000 digits; "
                          "field=weights"}
        else:
            assert code in (0, 1)
            assert len(report["indices"][2]["lower"]) > 1000


@pytest.mark.parametrize("den", [CAP - 1, CAP], ids=["1000 digits", "1001 digits"])
def test_a_weight_denominator_at_the_cap(den, tmp_path, capsys):
    # one weight's own denominator, 1000 digits long or 1001
    pol = tmp_path / "pol.json"
    pol.write_text(json.dumps({"weights": {"1": f"1/{den}", "2": f"{den - 1}/{den}"}}))
    for cmd in ("check", "balance"):
        code, report = run_cli(capsys, cmd, "--curve", str(CURVES / "path2_g11.json"),
                               "--bundle", str(FIXTURES / "path2_bundle.json"),
                               "--pol", str(pol))
        if den < CAP:
            assert code in (0, 1)
            assert report["indices"][0]["lower"].endswith(f"/{den}")
        else:
            assert code == 2
            assert report["error"] == {
                "code": "ParseError", "field": "weights",
                "detail": "the weights' common denominator has more than 1000 digits; "
                          "field=weights"}


@pytest.mark.parametrize("argv", [
    ["check", "--curve", "path3.json", "--bundle", "path3_bundle.json",
     "--pol", "bad_pol_exponent.json"],
    ["gpb", "--flag", "bad_flag_q_exponent.json"],
])
def test_exponent_rationals_exit_2_at_once(argv, capsys):
    argv = [str(GOLDEN_INPUTS / a) if a.endswith(".json") else a for a in argv]
    start = time.perf_counter()
    code, report = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert report["error"]["code"] == "ParseError"


# VmHWM is the peak RSS of this process image alone: ru_maxrss would carry
# over the high-water mark of the pytest process that exec'd it
ORDER_PEAK_RSS = """
import sys
from nodalstab import cli
code = cli.run(["order", "--curve", sys.argv[1]])
with open("/proc/self/status") as fh:
    peak_kib = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
sys.stderr.write(f"{code} {peak_kib}")
"""


@pytest.mark.skipif(sys.platform != "linux", reason="VmHWM is read from Linux's /proc")
def test_order_report_is_streamed_in_bounded_memory(tmp_path):
    # the G and B lists of this path hold 2.25 million ids, 26 MB of report
    # text, which is streamed and never held as one string
    n = 1500
    path = tmp_path / "path.json"
    path.write_text(json.dumps({"components": [{"id": i} for i in range(1, n + 1)],
                                "edges": [[i, i + 1] for i in range(1, n)]}))
    proc = subprocess.run([sys.executable, "-c", ORDER_PEAK_RSS, str(path)],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    code, peak_kib = map(int, proc.stderr.split())
    assert code == 0
    assert peak_kib < 100 * 1024


def test_a_closed_stdout_exits_1_without_a_traceback(tmp_path):
    # the check report of a 300-component path is far larger than a 64 KiB
    # pipe buffer, so the child is still writing when the reader goes away
    n = 300
    docs = {"curve": {"components": [{"id": i} for i in range(1, n + 1)],
                      "edges": [[i, i + 1] for i in range(1, n)]},
            "bundle": {"rank": 2, "multidegree": {str(i): 0 for i in range(1, n + 1)}},
            "pol": {"weights": {str(i): f"1/{n}" for i in range(1, n + 1)}}}
    argv = [sys.executable, "-m", "nodalstab.cli", "check"]
    for name, doc in docs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        argv += [f"--{name}", str(path)]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        head = os.read(proc.stdout.fileno(), 10)
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert code == 1
    assert head == b'{\n  "indic'
    assert err == b""


@pytest.mark.parametrize("mode", ["--sl", "--torsor"])
def test_a_4300_digit_truncation_order_exits_2_without_a_traceback(tmp_path, mode):
    # n + 1 has 4,301 digits, past the interpreter's limit on printing an int,
    # so n is held to the documents' 1000-digit cap before any message uses it
    matrix = {"field": "F5", "n": int("9" * 4300), "entries": [[[1, 0]]]}
    doc = matrix if mode == "--sl" else {"cocycle": [matrix], "gammas": [[1, 1]]}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    proc = subprocess.run([sys.executable, "-m", "nodalstab.cli", "dvr", mode, str(path)],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (2, "")
    assert json.loads(proc.stdout)["error"] == {
        "code": "ParseError", "field": "n",
        "detail": "integer has more than 1000 digits; field=n"}


def write_triple(tmp_path, rng, c, bc, pol, shuffle=False) -> list:
    """The curve, bundle and polarization documents of (c, bc, pol), as
    check and balance arguments.  With shuffle, the components, edges and
    map keys are listed in random order and some edges are flipped."""
    comps = [{"id": k.id, "geometric_genus": k.geometric_genus,
              "internal_nodes": k.internal_nodes} for k in c.components]
    edges = [[a, b] for a, b in c.edges]
    multidegree = [(str(i), d) for i, d in bc.multidegree.items()]
    weights = [(str(i), str(w)) for i, w in pol.weights.items()]
    if shuffle:
        for items in (comps, edges, multidegree, weights):
            rng.shuffle(items)
        edges = [e[::-1] if rng.random() < 0.5 else e for e in edges]
    docs = {"curve": {"components": comps, "edges": edges},
            "bundle": {"rank": bc.rank, "multidegree": dict(multidegree)},
            "pol": {"weights": dict(weights)}}
    argv = []
    for name, doc in docs.items():
        path = tmp_path / f"{name}{'_shuffled' if shuffle else ''}.json"
        path.write_text(json.dumps(doc))
        argv += [f"--{name}", str(path)]
    return argv


def report_instances(rng, small):
    """small random curves, then every shape with far ids at N = 3, 60, 200 and 500."""
    for _ in range(small):
        yield helpers.random_curve(rng)
    for shape in helpers.SHAPES:
        for n in (3, 60, 200, 500):
            yield helpers.relabel_far(rng, helpers.shaped_curve(rng, n, shape))


def test_balance_reports_the_check_report_of_its_balanced_class(tmp_path, capsys):
    # balance's twist makes the class pass every window; its report is the check
    # report of the balanced class, plus the ordering, the twist and the steps.
    # The report's windows are balance's own, checked in closed form; check
    # evaluates them again with the window kernel
    rng = random.Random(271)
    for c in report_instances(rng, 40):
        bc, pol = helpers.random_bundle(rng, c), helpers.random_polarization(rng, c)
        argv = write_triple(tmp_path, rng, c, bc, pol)
        code, balanced = run_cli(capsys, "balance", *argv)
        assert code == 0
        bundle = tmp_path / "balanced.json"
        bundle.write_text(json.dumps({"rank": balanced["rank"],
                                      "multidegree": balanced["multidegree"]}))
        argv[argv.index("--bundle") + 1] = str(bundle)
        code, checked = run_cli(capsys, "check", *argv)
        assert code == 0
        assert set(checked) == {"passes", "rank", "total_degree", "indices"}
        assert set(balanced) == set(checked) | {"ordering", "twist", "multidegree", "steps"}
        assert checked == {key: balanced[key] for key in checked}
        assert checked["passes"]


def test_reports_do_not_depend_on_document_order(tmp_path, capsys):
    # the order of components, edges, endpoints and map keys in a document is
    # never read: every tree report is the same bytes
    rng = random.Random(277)
    for c in report_instances(rng, 30):
        bc, pol = helpers.random_bundle(rng, c), helpers.random_polarization(rng, c)
        outputs = []
        for shuffle in (False, True):
            argv = write_triple(tmp_path, rng, c, bc, pol, shuffle)
            runs = []
            for command, args in (("validate", argv[:2]), ("order", argv[:2]),
                                  ("check", argv), ("balance", argv)):
                runs.append((cli.run([command, *args]), capsys.readouterr().out))
            outputs.append(runs)
        assert outputs[0] == outputs[1]
        codes = [code for code, _ in outputs[0]]
        assert codes[0] == codes[1] == codes[3] == 0   # check exits 1 on a failing class
