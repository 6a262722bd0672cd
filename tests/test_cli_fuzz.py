"""Property test: no input document makes the CLI crash.

Every subcommand that reads a document is fed arbitrary bytes, arbitrary
JSON, and valid fixtures with one node replaced by arbitrary JSON.  Each
run must exit 0, 1 or 2, print one JSON document on standard output, and
raise nothing.  The examples are derandomized, so the suite stays
deterministic; raise ``max_examples`` locally to search further.
"""

import contextlib
import io
import json
import pathlib

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


def documents(valid):
    as_bytes = st.builds(lambda v: json.dumps(v).encode(), json_values | mutated(valid))
    return st.binary(max_size=120) | as_bytes


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
