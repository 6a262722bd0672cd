import io
import json
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import helpers
from golden_corpus import load_cases
from nodalstab import Component, prune_ordering
from nodalstab import errors
from nodalstab import serialize as ser
from nodalstab.curve import ordering_to_obj, parse_curve
from nodalstab.errors import InvalidInput, ParseError
from nodalstab.fields import RationalField
from nodalstab.gpb import flag_to_obj, parse_flag
from nodalstab.stability import parse_polarization
from nodalstab.truncated import (_parse_torsor, parse_int_matrix, parse_truncated_matrix,
                                 truncated_matrix_to_obj)
from nodalstab.twist import bundle_to_obj, parse_bundle


def weight_doc(s) -> dict:
    """A polarization document whose first weight is s."""
    return {"weights": {"1": s, "2": "1/2"}}


def test_frac_str_round_trip():
    for x in (Fraction(1, 2), Fraction(-7, 3), Fraction(4), Fraction(0)):
        assert RationalField.parse(RationalField.format(x)) == x
    assert RationalField.format(Fraction(6, 4)) == "3/2"
    assert RationalField.format(Fraction(8, 4)) == "2"
    with pytest.raises(ParseError, match="^not a rational number: 'one half'$"):
        parse_polarization(weight_doc("one half"))


# every form Fraction(str) reads, apart from exponents, still parses
ACCEPTED = {"1/2": Fraction(1, 2), " 3 ": 3, "+3": 3, "-0.5": Fraction(-1, 2),
            ".5": Fraction(1, 2), "5.": 5, "\t7\n": 7, "-4/6": Fraction(-2, 3),
            "\u0661/\u0662": Fraction(1, 2), 3: 3, 0.25: Fraction(1, 4)}
if sys.version_info >= (3, 11):   # Fraction reads underscores from 3.11 on
    ACCEPTED.update({"1_000": 1000, "1_0/2_0": Fraction(1, 2)})


def test_rational_strings_without_exponent_keep_parsing():
    for s, x in ACCEPTED.items():
        assert RationalField.parse(s) == x
        if 0 < x < 1:   # a second weight brings the sum to 1
            pol = parse_polarization({"weights": {"1": s, "2": RationalField.format(1 - x)}})
            assert pol.weights[1] == x
        else:   # read, then refused by the polarization rules, not as text
            with pytest.raises(InvalidInput, match="^polarization weights must") as info:
                parse_polarization(weight_doc(s))
            assert type(info.value) is InvalidInput


@pytest.mark.parametrize("s", ["1e10000000", "1E-10000000", "2.5e3", "1/2e1", 1e-05, 1e300,
                               "nan", "inf", "1 /2", "1/0", "", "0x10"])
def test_rational_strings_refused(s):
    start = time.perf_counter()
    with pytest.raises(ParseError, match="^not a rational number: "):
        parse_polarization(weight_doc(s))
    with pytest.raises((ValueError, ZeroDivisionError)):
        RationalField.parse(s)
    assert time.perf_counter() - start < 1.0


def test_one_rational_codec():
    for x in (Fraction(-7, 3), Fraction(0), Fraction(12), Fraction(1, 10**40), 5):
        assert RationalField.parse(RationalField.format(x)) == x
    # serialize keeps no rational codec of its own
    assert not {"frac_to_str", "frac_from_str", "_rationals"} & set(vars(ser))


def test_curve_round_trip():
    doc = {"components": [{"id": 1, "geometric_genus": 1, "internal_nodes": 0},
                          {"id": 2, "geometric_genus": 0, "internal_nodes": 2}],
           "edges": [[1, 2]]}
    c = parse_curve(doc)
    assert c.components == (Component(id=1, geometric_genus=1),
                            Component(id=2, internal_nodes=2))
    assert c.edges == ((1, 2),)
    # components come back in id order, whatever order the document used
    assert parse_curve(dict(doc, components=doc["components"][::-1])) == c


def test_curve_parse_errors():
    with pytest.raises(ParseError):
        parse_curve({"components": "nope"})
    with pytest.raises(ParseError):
        parse_curve({"components": [{"id": 1}], "edges": [[1]]})
    with pytest.raises(ParseError):
        parse_curve({"components": [{"id": 1}], "edges": [[1, 2]]})
    with pytest.raises(ParseError):
        parse_curve({"components": [{"id": "a"}], "edges": []})


def test_bundle_round_trip():
    bc = parse_bundle({"rank": 2, "multidegree": {"1": 5, "2": -1}})
    assert bc.rank == 2
    assert bc.multidegree == {1: 5, 2: -1}
    assert parse_bundle(bundle_to_obj(bc)) == bc
    with pytest.raises(ParseError):
        parse_bundle({"rank": 2, "multidegree": {"x": 1}})
    with pytest.raises(ParseError):
        parse_bundle({"rank": True, "multidegree": {"1": 1}})


def test_component_id_keys_must_be_canonical():
    for key in ("01", "0", "١", "1 ", "+1", ""):
        with pytest.raises(ParseError, match="bad component id key"):
            parse_bundle({"rank": 2, "multidegree": {"1": 5, key: 7}})
    assert parse_bundle({"rank": 2, "multidegree": {"10": 5}}).multidegree == {10: 5}


def test_read_json_rejects_duplicate_keys(tmp_path):
    path = tmp_path / "bundle.json"
    path.write_text('{"rank": 2, "multidegree": {"1": 5, "2": 1, "1": 7}}')
    with pytest.raises(ParseError, match="duplicate key '1'"):
        ser.read_json(str(path))
    path.write_text('{"rank": 2, "rank": 3, "multidegree": {}}')
    with pytest.raises(ParseError, match="duplicate key 'rank'"):
        ser.read_json(str(path))


@pytest.mark.parametrize("opener", ["[", '{"1": '])
def test_read_json_refuses_nesting_past_the_recursion_limit(tmp_path, opener):
    path = tmp_path / "deep.json"
    path.write_text(opener * 100_000)
    with pytest.raises(ParseError, match="JSON nesting is too deep"):
        ser.read_json(str(path))
    path.write_text("[" * 50 + "]" * 50)
    assert ser.read_json(str(path)) == json.loads(path.read_text())


def test_polarization_round_trip():
    pol = parse_polarization({"weights": {"1": "1/3", "2": "2/3"}})
    assert pol.weights == {1: Fraction(1, 3), 2: Fraction(2, 3)}


def test_the_tree_modules_load_without_fields():
    # parse_polarization imports fields when it runs, so the tree engine used
    # as a library never loads it
    code = "import sys, nodalstab.balance; print('nodalstab.fields' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert (proc.stdout, proc.stderr) == ("False\n", "")


def test_flag_round_trip():
    doc = {"field": "F7", "basis_matrix": [["1", "0", "0", "1"], ["0", "1", "1", "0"]]}
    flag = parse_flag(doc)
    assert flag.field.name == "F7"
    assert flag_to_obj(flag) == doc
    qdoc = {"field": "Q", "basis_matrix": [["1/2", "0", "0", "1"], ["0", "1", "1", "0"]]}
    qflag = parse_flag(qdoc)
    assert qflag.basis_matrix[0][0] == Fraction(1, 2)


def test_truncated_matrix_round_trip():
    doc = {"field": "F5", "n": 1, "entries": [[[1, 1], [0, 2]], [[0, 3], [1, 4]]]}
    m = parse_truncated_matrix(doc)
    assert (m.p, m.n, m.r) == (5, 1, 2)
    assert truncated_matrix_to_obj(m) == doc
    with pytest.raises(ParseError):
        parse_truncated_matrix({"field": "Q", "n": 1, "entries": [[[1, 0]]]})


@pytest.mark.parametrize("entries, error, message", [
    # wrong length at [0][0] before a float at [0][1]: the length is reported
    ([[[1, 0, 0], [1.5, 0]], [[0, 0], [1, 0]]], InvalidInput, "need 2 coefficients, got 3"),
    ([[[1.5, 0], [1, 0, 0]], [[0, 0], [1, 0]]], ParseError,
     "expected an integer, got 1.5; field=entries[0][0]"),
    ([[[1, 0, 0], [1, 0]], [[0, 0]]], InvalidInput, "need 2 coefficients, got 3"),
    ([[[1, 0], [1, 0]], [[0, 0]]], ParseError,
     "entries must form a square matrix; field=entries[1]"),
    ([[[1, 0, 0], 7], [[0, 0], [1, 0]]], InvalidInput, "need 2 coefficients, got 3"),
    ([[[1, 0], 7], [[0, 0], [1, 0, 0]]], ParseError,
     "each entry is a coefficient vector; field=entries[0][1]"),
])
def test_truncated_matrix_reports_its_first_bad_entry(entries, error, message):
    with pytest.raises(error) as info:
        parse_truncated_matrix({"field": "F5", "n": 1, "entries": entries})
    assert type(info.value) is error and str(info.value) == message


def test_no_parser_names_an_item_it_accepts(monkeypatch):
    # a check fills in a field template with the item's key only as it raises
    real, built = errors._name, []
    monkeypatch.setattr(errors, "_name", lambda field, key: built.append(field) or real(field, key))
    entries = [[[1, 2], [0, 3]], [[4, 0], [1, 1]]]
    docs = {parse_curve: {"components": [{"id": 1}, {"id": 2, "geometric_genus": 1},
                                         {"id": 3, "internal_nodes": 2}],
                          "edges": [[1, 2], [2, 3]]},
            parse_bundle: {"rank": 2, "multidegree": {"1": 5, "2": -1, "3": 0}},
            parse_int_matrix: [[1, -2], [3, 4]],
            parse_truncated_matrix: {"field": "F5", "n": 1, "entries": entries},
            _parse_torsor: {"cocycle": [{"field": "F5", "n": 1, "entries": entries}],
                            "gammas": [[1, 2], [3, 0]]}}
    for parse, doc in docs.items():
        parse(doc)
    assert built == []
    bad = [("components", [{"id": 1}, {"id": 2, "geometric_genus": -1}], "components[1]"),
           ("multidegree", {"1": 5, "2": 10 ** 1000}, "multidegree.2"),
           (None, [[1, -2], [3, True]], "matrix[1]"),
           ("entries", [[[1, 2], [0, 3]], [[4, 0], [1, 1.0]]], "entries[1][1]"),
           ("gammas", [[1, 2], [3, "0"]], "gammas[1]")]
    for (parse, doc), (key, value, field) in zip(docs.items(), bad):
        doc = value if key is None else {**doc, key: value}
        built.clear()
        with pytest.raises(ParseError) as info:
            parse(doc)
        assert (info.value.field, len(built)) == (field, 1)


def report_text(obj) -> str:
    buf = io.StringIO()
    ser.dumps_report(obj, buf)
    return buf.getvalue()


def test_reports_are_deterministic_text():
    obj = {"b": 1, "a": [3, 2, 1], "c": {"z": "1/2", "y": None}}
    assert report_text(obj) == report_text(json.loads(json.dumps(obj)))
    assert report_text(obj).endswith("\n")


def test_streamed_report_equals_json_dumps_on_every_golden_report():
    checked = 0
    for case in load_cases():
        if case["stdout"]:
            obj = json.loads(case["stdout"])
            assert report_text(obj) == json.dumps(obj, sort_keys=True, indent=2) + "\n"
            assert report_text(obj) == case["stdout"]
            checked += 1
    assert checked > 300


def test_streamed_report_writes_in_blocks():
    obj = {"xs": list(range(50_000)), "m": {str(i): [i, "a", None, {}] for i in range(5_000)},
           "t": tuple(range(20_000))}
    chunks = sum(1 for _ in json.JSONEncoder(sort_keys=True, indent=2).iterencode(obj))
    assert chunks > 1 << 16

    class Writes(io.StringIO):
        calls = 0

        def write(self, text):
            self.calls += 1
            return super().write(text)

    fh = Writes()
    ser.dumps_report(obj, fh)
    assert fh.getvalue() == json.dumps(obj, sort_keys=True, indent=2) + "\n"
    # whole blocks of 2^16 chunks plus the final newline, never one write per chunk
    assert fh.calls == -(-chunks // (1 << 16)) + 1


@pytest.mark.parametrize("obj", [{}, [], (), {"a": {}, "b": [], "c": ()}, [[], {}, [()]],
                                 {"": ""}, 0, "x"])
def test_streamed_report_of_empty_containers(obj):
    assert report_text(obj) == json.dumps(obj, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("shape", helpers.SHAPES)
def test_order_report_g_and_b_match_the_graph_walk(shape):
    rng = random.Random(60)
    for n in (1, 2, 3, 4, 7, 12, 25, 41, 60):
        c = helpers.shaped_curve(rng, n, shape)
        o = prune_ordering(c)
        obj = ordering_to_obj(o)
        adj, everything = helpers.neighbors(c), frozenset(c.ids)
        assert list(obj["G"]) == list(obj["B"]) == [str(i) for i in range(1, n + 1)]
        for i in range(1, n + 1):
            b, node = frozenset(), None
            if i < n:   # B(i): what the parent reaches without passing through position i
                y, anchor = o.perm[i - 1], o.perm[o.nu[i - 1] - 1]
                b, node = helpers.piece(adj, y, anchor), sorted((y, anchor))
                assert list(obj["boundary_nodes"][str(i)]) == node
            assert list(obj["G"][str(i)]) == sorted(everything - b)
            assert list(obj["B"][str(i)]) == sorted(b)
        assert len(obj["boundary_nodes"]) == n - 1


def test_order_report_boundary_nodes_are_the_boundary_edges():
    # the report writes every node from one pass over the checked parents
    rng = random.Random(61)
    for shape in helpers.SHAPES:
        for n in (1, 2, 3, 9, 33, 500):
            o = prune_ordering(helpers.relabel_far(rng, helpers.shaped_curve(rng, n, shape)))
            nodes = ordering_to_obj(o)["boundary_nodes"]
            assert list(nodes) == [str(i) for i in range(1, n)]
            assert [nodes[str(i)] for i in range(1, n)] == [o.boundary_edge(i)
                                                            for i in range(1, n)]
            assert o.boundary_edge(n) is None


def test_read_json_names_the_first_repeated_key(tmp_path):
    path = tmp_path / "bundle.json"
    path.write_text('{"b": 1, "a": 2, "a": 3, "b": 4}')
    with pytest.raises(ParseError, match="^duplicate key 'a'$"):
        ser.read_json(str(path))
    path.write_text('{"rank": 2, "multidegree": {"1": 5, "2": 1, "2": 1, "1": 5}}')
    with pytest.raises(ParseError, match="^duplicate key '2'$"):
        ser.read_json(str(path))
    path.write_text('{"rank": 2, "multidegree": {"1": 5, "2": 1}}')
    assert ser.read_json(str(path)) == {"rank": 2, "multidegree": {"1": 5, "2": 1}}
