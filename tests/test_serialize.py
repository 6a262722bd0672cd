import json
from fractions import Fraction

import pytest

from nodalstab import serialize as ser
from nodalstab.errors import ParseError


def test_frac_str_round_trip():
    for x in (Fraction(1, 2), Fraction(-7, 3), Fraction(4), Fraction(0)):
        assert ser.frac_from_str(ser.frac_to_str(x)) == x
    assert ser.frac_to_str(Fraction(6, 4)) == "3/2"
    assert ser.frac_to_str(Fraction(8, 4)) == "2"
    with pytest.raises(ParseError):
        ser.frac_from_str("one half")


def test_curve_round_trip():
    doc = {"components": [{"id": 1, "geometric_genus": 1, "internal_nodes": 0},
                          {"id": 2, "geometric_genus": 0, "internal_nodes": 2}],
           "edges": [[1, 2]]}
    c = ser.parse_curve(doc)
    assert ser.parse_curve(ser.curve_to_obj(c)) == c


def test_curve_parse_errors():
    with pytest.raises(ParseError):
        ser.parse_curve({"components": "nope"})
    with pytest.raises(ParseError):
        ser.parse_curve({"components": [{"id": 1}], "edges": [[1]]})
    with pytest.raises(ParseError):
        ser.parse_curve({"components": [{"id": 1}], "edges": [[1, 2]]})
    with pytest.raises(ParseError):
        ser.parse_curve({"components": [{"id": "a"}], "edges": []})


def test_bundle_round_trip():
    bc = ser.parse_bundle({"rank": 2, "multidegree": {"1": 5, "2": -1}})
    assert bc.rank == 2
    assert bc.multidegree == {1: 5, 2: -1}
    assert ser.parse_bundle(ser.bundle_to_obj(bc)) == bc
    with pytest.raises(ParseError):
        ser.parse_bundle({"rank": 2, "multidegree": {"x": 1}})
    with pytest.raises(ParseError):
        ser.parse_bundle({"rank": True, "multidegree": {"1": 1}})


def test_component_id_keys_must_be_canonical():
    for key in ("01", "0", "١", "1 ", "+1", ""):
        with pytest.raises(ParseError, match="bad component id key"):
            ser.parse_bundle({"rank": 2, "multidegree": {"1": 5, key: 7}})
    assert ser.parse_bundle({"rank": 2, "multidegree": {"10": 5}}).multidegree == {10: 5}


def test_read_json_rejects_duplicate_keys(tmp_path):
    path = tmp_path / "bundle.json"
    path.write_text('{"rank": 2, "multidegree": {"1": 5, "2": 1, "1": 7}}')
    with pytest.raises(ParseError, match="duplicate key '1'"):
        ser.read_json(str(path))
    path.write_text('{"rank": 2, "rank": 3, "multidegree": {}}')
    with pytest.raises(ParseError, match="duplicate key 'rank'"):
        ser.read_json(str(path))


def test_polarization_round_trip():
    pol = ser.parse_polarization({"weights": {"1": "1/3", "2": "2/3"}})
    assert pol.weights == {1: Fraction(1, 3), 2: Fraction(2, 3)}
    assert ser.parse_polarization(ser.polarization_to_obj(pol)) == pol


def test_twist_round_trip():
    t = ser.parse_twist({"coeffs": {"1": 1, "2": 0}})
    assert t.coeffs == {1: 1, 2: 0}
    assert ser.parse_twist(ser.twist_to_obj(t)) == t


def test_flag_round_trip():
    doc = {"field": "F7", "basis_matrix": [["1", "0", "0", "1"], ["0", "1", "1", "0"]]}
    flag = ser.parse_flag(doc)
    assert flag.field.name == "F7"
    assert ser.flag_to_obj(flag) == doc
    qdoc = {"field": "Q", "basis_matrix": [["1/2", "0", "0", "1"], ["0", "1", "1", "0"]]}
    qflag = ser.parse_flag(qdoc)
    assert qflag.basis_matrix[0][0] == Fraction(1, 2)


def test_truncated_matrix_round_trip():
    doc = {"field": "F5", "n": 1, "entries": [[[1, 1], [0, 2]], [[0, 3], [1, 4]]]}
    m = ser.parse_truncated_matrix(doc)
    assert (m.p, m.n, m.r) == (5, 1, 2)
    assert ser.truncated_matrix_to_obj(m) == doc
    with pytest.raises(ParseError):
        ser.parse_truncated_matrix({"field": "Q", "n": 1, "entries": [[[1, 0]]]})


def test_reports_are_deterministic_text():
    obj = {"b": 1, "a": [3, 2, 1], "c": {"z": "1/2", "y": None}}
    assert ser.dumps_report(obj) == ser.dumps_report(json.loads(json.dumps(obj)))
    assert ser.dumps_report(obj).endswith("\n")
