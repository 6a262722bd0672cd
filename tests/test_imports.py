"""Which modules each entry point loads, and the package's lazy exports."""

import importlib
import json
import pathlib
import subprocess
import sys

import pytest

import nodalstab

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
CURVES = FIXTURES / "curves"

# every name the package exports, by the submodule that defines it
EXPORTS = {
    "balance": ["BalanceResult", "balance"],
    "curve": ["Component", "Ordering", "TreeLikeCurve", "prune_ordering", "validate_curve",
              "verify_ordering"],
    "fields": ["PrimeField", "RationalField", "parse_field"],
    "gpb": ["GluingFlag", "GpbClass", "build_rational_flag", "check_no_kernel_section",
            "check_projections", "gpb_subbundle_check", "parabolic_slope",
            "phi_rank_degree", "picard_rth_root"],
    "stability": ["AmpleDegrees", "Polarization", "Window", "det_compatibility",
                  "gieseker_vs_seshadri", "lambda_check", "polarization_from_ample",
                  "seshadri_slope", "slope"],
    "truncated": ["TruncatedMatrix", "TruncatedScalar", "det_section", "det_trace_identity",
                  "sl_kernel_check", "sl_lift", "torsor_correct", "trace_section"],
    "twist": ["BundleClass", "TwistDivisor", "chi_subcurve_sum", "euler_char_total",
              "intersection", "twist"],
}
NAMES = [name for names in EXPORTS.values() for name in names]


def fresh(code: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)


# ------------------------------------------------------------ import surface

# modules every subcommand loads: the package and the entry point's own two;
# fields only where a field descriptor is read, so never by the tree subcommands
BASE = {"nodalstab", "nodalstab.serialize", "nodalstab.errors"}
# the records are plain classes: no module generates their methods at import
NEVER = {"dataclasses", "inspect"}
TRIPLE = ["--curve", str(CURVES / "path2_g11.json"),
          "--bundle", str(FIXTURES / "path2_bundle.json"),
          "--pol", str(FIXTURES / "path2_pol.json")]


@pytest.mark.parametrize("argv, own", [
    (["validate", "--curve", str(CURVES / "path3.json")], {"curve"}),
    (["order", "--curve", str(CURVES / "path3.json")], {"curve"}),
    (["check", *TRIPLE], {"curve", "twist", "stability"}),
    (["balance", *TRIPLE], {"curve", "twist", "stability", "balance"}),
    (["gpb", "--flag", str(FIXTURES / "flag_f5_r2.json")], {"gpb", "fields"}),
    (["gpb", "--rank", "2", "--degree", "3", "--nodes", "1"], {"gpb", "fields"}),
    (["dvr", "--sl", str(FIXTURES / "dvr_sl_kernel.json")], {"truncated", "fields"}),
    (["dvr", "--matrix", str(FIXTURES / "dvr_matrix.json"), "--field", "F5", "--n", "1"],
     {"truncated", "fields"}),
], ids=["validate", "order", "check", "balance", "gpb-flag", "gpb-numbers", "dvr",
        "dvr-matrix"])
def test_each_subcommand_imports_only_its_own_modules(argv, own):
    # -X importtime names every module the process imports, on stderr;
    # under -m the entry point itself runs as __main__, not nodalstab.cli
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "nodalstab.cli", *argv],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode in (0, 1), proc.stdout
    json.loads(proc.stdout)
    lines = proc.stderr.splitlines()
    # nothing but the import trace: no runpy warning, no traceback
    assert all(line.startswith("import time:") for line in lines), proc.stderr
    loaded = {line.split("|")[2].strip() for line in lines[1:]}
    assert {m for m in loaded if m.split(".")[0] == "nodalstab"} == \
        BASE | {f"nodalstab.{m}" for m in own}
    assert not loaded & NEVER


def test_every_export_loads_without_dataclasses_or_inspect():
    proc = fresh("import sys, nodalstab\n"
                 "for name in nodalstab.__all__:\n"
                 "    getattr(nodalstab, name)\n"
                 f"print(sorted(m for m in {sorted(NEVER)} if m in sys.modules))")
    assert (proc.stdout, proc.stderr) == ("[]\n", "")


def test_bare_package_import_loads_no_submodule():
    proc = fresh("import sys, nodalstab\n"
                 "print(sorted(m for m in sys.modules if m.split('.')[0] == 'nodalstab'))")
    assert proc.stderr == ""
    assert proc.stdout.split() == ["['nodalstab']"]


# ---------------------------------------------------------- package exports

def test_the_exported_names_are_pinned():
    assert sorted(nodalstab.__all__) == sorted(NAMES)
    assert len(NAMES) == len(set(NAMES)) == 43


@pytest.mark.parametrize("module, name", [
    ("curve", "decompose"), ("curve", "arithmetic_genus"), ("stability", "lambda_check_passes"),
    ("twist", "euler_char_component"), ("twist", "intersection_matrix"),
    ("balance", "balance_step"), ("errors", "PreconditionViolated")])
def test_the_oracles_and_second_formulas_are_gone_from_the_package(module, name):
    # subtrees and boundary_edge give decompose's split, validate_curve(c).p_a
    # the genus, chi_subcurve_sum(c, bc, [i]) the one-component chi; the
    # matrix and the one balancing step are oracles in tests/helpers.py
    assert name not in nodalstab.__all__
    assert not hasattr(importlib.import_module(f"nodalstab.{module}"), name)
    with pytest.raises(AttributeError):
        getattr(nodalstab, name)


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_each_export_is_its_submodules_object(module):
    mod = importlib.import_module(f"nodalstab.{module}")
    for name in EXPORTS[module]:
        assert getattr(nodalstab, name) is getattr(mod, name), name
        # the first read caches the name, so later reads are dict hits
        assert vars(nodalstab)[name] is getattr(mod, name), name


def test_balance_and_twist_stay_functions_when_their_submodules_load_first():
    proc = fresh("import sys\n"
                 "import nodalstab.stability, nodalstab.balance\n"
                 "import nodalstab\n"
                 "import nodalstab.twist as t\n"
                 "from nodalstab import balance\n"
                 "b, w = sys.modules['nodalstab.balance'], sys.modules['nodalstab.twist']\n"
                 "print(nodalstab.balance is balance is b.balance,\n"
                 "      nodalstab.twist is t is w.twist)\n")
    assert (proc.stdout, proc.stderr) == ("True True\n", "")


def test_an_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        nodalstab.no_such_name
    assert not hasattr(nodalstab, "cli_main")


def test_dir_and_star_import_cover_every_export():
    assert set(NAMES) <= set(dir(nodalstab))
    namespace = {}
    exec("from nodalstab import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(NAMES)


# ------------------------------------------------------- one-way import graph

CURVE_DOC = {"components": [{"id": 1, "geometric_genus": 2}, {"id": 2, "geometric_genus": 1}],
             "edges": [[1, 2]]}
BUNDLE_DOC = {"rank": 2, "multidegree": {"1": 7, "2": -3}}
POL_DOC = {"weights": {"1": "1/3", "2": "2/3"}}
CODEC = ("json", "nodalstab.serialize", "nodalstab.fields")


def test_the_tree_engine_and_its_parsers_load_no_json_serialize_or_fields():
    proc = fresh("import sys\n"
                 "from nodalstab.curve import parse_curve\n"
                 "from nodalstab.twist import parse_bundle\n"
                 "from nodalstab.stability import parse_polarization\n"
                 "from nodalstab.balance import balance\n"
                 f"c = parse_curve({CURVE_DOC!r})\n"
                 f"bc = parse_bundle({BUNDLE_DOC!r})\n"
                 f"pol = parse_polarization({POL_DOC!r})\n"
                 "print(balance(c, bc, pol).balanced.total_degree,\n"
                 f"      [m for m in {CODEC!r} if m in sys.modules])")
    assert (proc.stdout, proc.stderr) == ("4 []\n", "")


def test_the_ring_half_loads_no_json_or_serialize():
    proc = fresh("import sys\n"
                 "import nodalstab.gpb, nodalstab.truncated\n"
                 f"print([m for m in {CODEC[:2]!r} if m in sys.modules],\n"
                 "      'nodalstab.fields' in sys.modules)")
    assert (proc.stdout, proc.stderr) == ("[] True\n", "")
