"""Property test: no input document makes the CLI crash.

Every subcommand that reads a document is fed arbitrary bytes, arbitrary
JSON, valid fixtures with one node replaced by arbitrary JSON, valid
fixtures with a component-id key of up to 4,400 digits added to each
id-keyed map, and arrays or objects nested up to 10^5 deep; the
polarization weights and the gluing-flag entries are also fed strings in
and around the rational grammar, and polarizations are fed weights whose
common denominator has up to 8,600 digits; ``gpb`` is fed numeric
arguments of up to 4,299 digits.  Each run must exit 0, 1 or 2,
print one JSON document on standard output, and raise nothing.  The
examples are derandomized, so the suite stays deterministic; raise
``max_examples`` locally to search further.
"""

import contextlib
import io
import json
import pathlib
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from nodalstab import cli

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
CURVE = FIXTURES / "curves" / "path3.json"
BUNDLE = FIXTURES / "path2_bundle.json"
POL = FIXTURES / "path2_pol.json"
PATH2 = FIXTURES / "curves" / "path2_g11.json"

# (argv without the fuzzed file, the option that takes it, a valid document)
TARGETS = {
    "validate": (["validate"], "--curve", CURVE),
    "order": (["order"], "--curve", CURVE),
    "check-curve": (["check", "--bundle", str(BUNDLE), "--pol", str(POL)], "--curve", PATH2),
    "check-bundle": (["check", "--curve", str(PATH2), "--pol", str(POL)], "--bundle", BUNDLE),
    "balance-pol": (["balance", "--curve", str(PATH2), "--bundle", str(BUNDLE)], "--pol", POL),
    "balance-bundle": (["balance", "--curve", str(PATH2), "--pol", str(POL)], "--bundle",
                       BUNDLE),
    "gpb-flag": (["gpb"], "--flag", FIXTURES / "flag_f5_r2.json"),
    "dvr-matrix": (["dvr", "--field", "F5", "--n", "1"], "--matrix",
                   FIXTURES / "dvr_matrix.json"),
    "dvr-sl": (["dvr"], "--sl", FIXTURES / "dvr_sl_kernel.json"),
    "dvr-torsor": (["dvr"], "--torsor", FIXTURES / "dvr_torsor.json"),
}

KEYS = ("components", "edges", "id", "geometric_genus", "internal_nodes", "rank",
        "multidegree", "weights", "field", "basis_matrix", "n", "entries", "cocycle",
        "gammas", "1", "2", "3")
leaves = (st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
          | st.text(max_size=6) | st.sampled_from(["F5", "Q", "1/2", "1/0", "0", "-1", "x"]))
json_values = st.recursive(
    leaves,
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=3), kids, max_size=4),
    max_leaves=12)


@st.composite
def mutated(draw, doc):
    """The document with one node (possibly the root) replaced by arbitrary JSON."""
    if isinstance(doc, (dict, list)) and doc and draw(st.booleans()):
        key = draw(st.sampled_from(list(doc) if isinstance(doc, dict) else range(len(doc))))
        out = dict(doc) if isinstance(doc, dict) else list(doc)
        out[key] = draw(mutated(doc[key]))
        return out
    return draw(json_values)


@st.composite
def deep_nesting(draw):
    """Arrays or objects nested 100 to 10^5 deep, closed or cut off."""
    depth = draw(st.integers(100, 100_000))
    opener, closer = draw(st.sampled_from([("[", "]"), ('{"1": ', "}")]))
    tail = closer * depth if draw(st.booleans()) else ""
    return (opener * depth + "0" + tail).encode()


ID_MAPS = ("multidegree", "weights", "coeffs")
LONG_KEYS = st.integers(4290, 4400).map(lambda n: "1" + "0" * (n - 1))


@st.composite
def long_id_keys(draw, doc):
    """The document with a key of 4,290 to 4,400 digits added to each of its
    id-keyed maps: past 4,300 digits the interpreter refuses to read it as an
    int.  A document without such a map is replaced by arbitrary JSON."""
    if not isinstance(doc, dict) or not any(isinstance(doc.get(k), dict) for k in ID_MAPS):
        return draw(json_values)
    return {k: dict(v, **{draw(LONG_KEYS): draw(json_values)})
            if k in ID_MAPS and isinstance(v, dict) else v for k, v in doc.items()}


def documents(valid):
    as_bytes = st.builds(lambda v: json.dumps(v).encode(),
                         json_values | mutated(valid) | long_id_keys(valid))
    return st.binary(max_size=120) | as_bytes | deep_nesting()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("target", sorted(TARGETS))
def test_cli_never_crashes_on_any_document(target, workdir):
    argv, option, valid_path = TARGETS[target]
    valid = json.loads(valid_path.read_text(encoding="utf-8"))
    path = workdir / f"{target}.json"

    @settings(max_examples=25, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(documents(valid))
    def run(data):
        path.write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv + [option, str(path)])
        assert code in (0, 1, 2)
        assert isinstance(json.loads(out.getvalue()), dict)
        assert "Traceback" not in err.getvalue()

    run()


@pytest.mark.parametrize("target", ["check-bundle", "balance-pol"])
@pytest.mark.parametrize("digits", [4300, 4301, 5000])
def test_cli_refuses_over_long_id_keys(target, digits, workdir):
    # one JSON error on an id key of any length; past the interpreter's
    # 4,300-digit limit it names the map and the digit count, not the key
    argv, option, valid_path = TARGETS[target]
    doc = json.loads(valid_path.read_text(encoding="utf-8"))
    slot = "multidegree" if "multidegree" in doc else "weights"
    key = "1" + "0" * (digits - 1)
    doc[slot][key] = doc[slot]["1"]
    path = workdir / f"long-key-{target}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv + [option, str(path)])
    error = json.loads(out.getvalue())["error"]
    assert code == 2
    assert err.getvalue() == ""
    assert key not in error["detail"]
    if digits > 4300:
        assert error["code"] == "ParseError" and error["field"] == slot
        assert f"{digits} digits" in error["detail"]


SIGNS = st.sampled_from(["", "+", "-"])
PADDING = st.sampled_from(["", " ", "\t", "\n", "\u00a0"])
DIGITS = (st.text("0123456789_", min_size=1, max_size=6)
          | st.text(st.characters(categories=["Nd"]), min_size=1, max_size=4))


@st.composite
def rational_strings(draw):
    """Signs, decimals, fractions, exponents up to 10^9, underscores, Unicode
    digits and whitespace; also nan/inf and runs of several kB."""
    s = draw(SIGNS) + draw(DIGITS)
    if draw(st.booleans()):
        s += draw(st.sampled_from("./")) + draw(DIGITS)
    if draw(st.booleans()):
        s += draw(st.sampled_from("eE")) + draw(SIGNS) + str(draw(st.integers(0, 10**9)))
    s = draw(PADDING) + s + draw(PADDING)
    return draw(st.sampled_from([s, s, s * draw(st.integers(500, 2000)),
                                 "nan", "-inf", "Infinity", "1e10000000"]))


# slot -> (argv without the fuzzed file, its option, document holding one string)
RATIONAL_SLOTS = {
    "pol": (["check", "--curve", str(PATH2), "--bundle", str(BUNDLE)], "--pol",
            lambda s, field: {"weights": {"1": s, "2": "1/2"}}),
    "gpb-flag": (["gpb"], "--flag",
                 lambda s, field: {"field": field, "basis_matrix": [[s, "1"], ["0", s]]}),
}


@pytest.mark.parametrize("slot", sorted(RATIONAL_SLOTS))
def test_cli_never_crashes_on_rational_strings(slot, workdir):
    argv, option, document = RATIONAL_SLOTS[slot]
    path = workdir / f"rational-{slot}.json"

    @settings(max_examples=40, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(rational_strings(), st.sampled_from(["Q", "F5"]))
    def run(s, field):
        path.write_text(json.dumps(document(s, field)), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv + [option, str(path)])
        assert time.perf_counter() - start < 5.0
        assert code in (0, 1, 2)
        assert isinstance(json.loads(out.getvalue()), dict)
        assert "Traceback" not in err.getvalue()

    run()


PATH4 = FIXTURES / "curves" / "path4.json"


@st.composite
def long_denominator_weights(draw):
    """1/4 + 1/P, 1/4 + 1/Q, 1/4 - 1/Q and 1/4 - 1/P on a four-component
    path, P and Q odd with 2 to 4,299 digits: the weight sum over G(3) is
    1/2 + 1/P + 1/Q, so a window bound can need 8,600 digits."""
    digits = st.integers(1, 4298) | st.sampled_from([999, 1000, 2499, 4298])
    p, q = (10 ** draw(digits) + draw(st.sampled_from([1, 3, 7])) for _ in range(2))
    return {"weights": {"1": f"{p + 4}/{4 * p}", "2": f"{q + 4}/{4 * q}",
                        "3": f"{q - 4}/{4 * q}", "4": f"{p - 4}/{4 * p}"}}


@pytest.mark.parametrize("command", ["check", "balance"])
def test_cli_never_crashes_on_long_weight_denominators(command, workdir):
    bundle = workdir / "path4_bundle.json"
    bundle.write_text(json.dumps({"rank": 2, "multidegree": {"1": 3, "2": -1, "3": 0, "4": 2}}),
                      encoding="utf-8")
    path = workdir / f"long-pol-{command}.json"

    @settings(max_examples=25, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(long_denominator_weights())
    def run(doc):
        path.write_text(json.dumps(doc), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run([command, "--curve", str(PATH4), "--bundle", str(bundle),
                            "--pol", str(path)])
        assert code in (0, 1, 2)
        assert isinstance(json.loads(out.getvalue()), dict)
        assert "Traceback" not in err.getvalue()

    run()


@st.composite
def gpb_numbers(draw):
    """--rank, --degree and --genus of 1 to 4,299 digits, either sign, and
    --nodes up to its bound 10^4: with the rank near 4,299 digits the
    parabolic weight nodes * rank passes the interpreter's 4300-digit
    limit on printing an integer, and so can rank * genus."""
    def number(signs):
        digits = draw(st.integers(1, 1000) | st.integers(1001, 4299)
                      | st.sampled_from([999, 1000, 1001, 4299]))
        return draw(st.sampled_from(signs)) * (10 ** digits - draw(st.integers(1, 9)))

    rank, degree, genus = number([1, 1, 1, -1]), number([1, -1]), number([1, 1, -1])
    nodes = draw(st.integers(0, 10_000) | st.just(10_000))
    return rank, degree, nodes, draw(st.none() | st.just(genus))


def test_cli_never_crashes_on_long_gpb_numbers():
    @settings(max_examples=30, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(gpb_numbers())
    def run(numbers):
        rank, degree, nodes, genus = numbers
        argv = ["gpb", "--rank", str(rank), "--degree", str(degree), "--nodes", str(nodes)]
        if genus is not None:
            argv += ["--genus", str(genus)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
        report = json.loads(out.getvalue())
        assert isinstance(report, dict)
        assert "Traceback" not in err.getvalue()
        # more than 1000 digits in any of them is refused before any work
        too_long = any(v is not None and abs(v) >= 10**1000 for v in (rank, degree, genus))
        assert code == 2 if too_long else code in (0, 2)
        assert ("error" in report) == (code == 2)

    run()
