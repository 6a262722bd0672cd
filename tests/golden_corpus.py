"""Frozen CLI behaviour: generated inputs plus recorded stdout and exit codes.

``cases()`` lists every golden case as (name, argv) with paths relative to
``tests/golden``; ``write_inputs()`` writes the generated input documents
under ``tests/golden/inputs`` from fixed seeds, and ``run_case`` runs one
argv in process and returns (exit code, stdout text).  Recording stores the
results in ``tests/golden/cases.json``, which ``test_golden.py`` replays byte
for byte.  Re-record only on purpose, after an intended output change:

    PYTHONPATH=src python tests/golden_corpus.py
"""

import contextlib
import io
import json
import os
import pathlib
import random
from fractions import Fraction

from helpers import random_tree_edges

GOLDEN = pathlib.Path(__file__).parent / "golden"
CASES_FILE = GOLDEN / "cases.json"
FIX = "../fixtures"

CURVE_FIXTURES = (
    "binary7", "caterpillar6", "disconnected_invalid", "mixed8", "multiedge_invalid",
    "path2_g11", "path2_mixed", "path3", "path4", "path5", "single_g2", "single_nodal",
    "single_rational", "star4", "star5_center1", "triangle_invalid",
)


# ------------------------------------------------------------------ inputs

def _tree_case(rng, n, shape):
    ids = list(range(1, n + 1))
    if shape == "prufer":
        edges = random_tree_edges(rng, n)
    else:
        order = ids[:]
        rng.shuffle(order)
        if shape == "path":
            edges = list(zip(order, order[1:]))
        else:
            edges = [(order[0], v) for v in order[1:]]
    comps = [{"id": i, "geometric_genus": rng.randint(0, 2),
              "internal_nodes": rng.randint(0, 1)} for i in ids]
    rank = rng.randint(1, 4)
    bundle = {"rank": rank,
              "multidegree": {str(i): rng.randint(-15, 15) for i in ids}}
    raw = {i: rng.randint(1, 9) for i in ids}
    total = sum(raw.values())
    pol = {"weights": {str(i): f"{raw[i]}/{total}" for i in ids}}
    return {"components": comps, "edges": [list(e) for e in edges]}, bundle, pol


TREE_SHAPES = [(n, shape) for n in (1, 2, 3, 5, 8, 12) for shape in ("prufer", "path", "star")]


def _rank(rows, p):
    """Rank over F_p (p > 0) or Q (p = 0), by elimination on Fractions."""
    m = [[Fraction(x) % p if p else Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0])):
        piv = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(int(m[rank][col]), -1, p) if p else 1 / m[rank][col]
        for i in range(len(m)):
            if i != rank:
                f = m[i][col] * inv
                m[i] = [(x - f * y) % p if p else x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def _flag_rows(rng, p, r, kind):
    """r x 2r flag rows over F_p (p > 0) or Q (p = 0) as element strings."""
    def entry():
        return str(rng.randrange(p)) if p else str(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))

    while True:
        rows = [[entry() for _ in range(2 * r)] for _ in range(r)]
        if kind == "left_singular":
            for row in rows:
                row[0] = "0"
        elif kind == "kernel":   # one row with zero q side: a kernel section
            rows[0][r:] = ["0"] * r
        if _rank(rows, p) == r:
            return rows


def _tdoc(p, n, entries):
    return {"field": f"F{p}", "n": n, "entries": entries}


def _tmatrix(rng, p, n, r, kind):
    if kind == "kernel":        # I + pi^n B with tr(B) = 0
        b = [[rng.randrange(p) for _ in range(r)] for _ in range(r)]
        b[r - 1][r - 1] = (-sum(b[i][i] for i in range(r - 1))) % p
    elif kind == "near":        # I + pi^n B with tr(B) != 0
        b = [[rng.randrange(p) for _ in range(r)] for _ in range(r)]
        b[0][0] = (b[0][0] + 1 - sum(b[i][i] for i in range(r))) % p
    if kind in ("kernel", "near"):
        return [[[1 if i == j else 0] + [0] * (n - 1) + [b[i][j]] for j in range(r)]
                for i in range(r)]
    return [[[rng.randrange(p) for _ in range(n + 1)] for _ in range(r)] for _ in range(r)]


def _invertible(rng, p, n, r):
    """A truncated matrix with an invertible constant term (upper unitriangular
    constant part times a random diagonal)."""
    ent = []
    for i in range(r):
        row = []
        for j in range(r):
            c0 = rng.randrange(1, p) if i == j else (rng.randrange(p) if j > i else 0)
            row.append([c0] + [rng.randrange(p) for _ in range(n)])
        ent.append(row)
    return ent


def inputs():
    """name -> document (JSON value) or raw bytes, all from fixed seeds."""
    rng = random.Random(20261018)
    docs = {}
    for k, (n, shape) in enumerate(TREE_SHAPES):
        curve, bundle, pol = _tree_case(rng, n, shape)
        docs[f"tree{k:02d}_curve.json"] = curve
        docs[f"tree{k:02d}_bundle.json"] = bundle
        docs[f"tree{k:02d}_pol.json"] = pol

    path3 = {"components": [{"id": 1, "geometric_genus": 1}, {"id": 2, "geometric_genus": 1},
                            {"id": 3, "geometric_genus": 1}], "edges": [[1, 2], [2, 3]]}
    bad = {
        "bad_not_json.json": b"{\"components\": [",
        "bad_not_utf8.json": b"{\"components\": [\xff\xfe]}",
        "bad_empty.json": b"",
        "bad_dup_key.json": b"{\"components\": [], \"components\": []}",
        "bad_curve_list.json": [1, 2],
        "bad_curve_nocomps.json": {"edges": []},
        "bad_curve_comp_not_obj.json": {"components": [7], "edges": []},
        "bad_curve_id_str.json": {"components": [{"id": "1"}], "edges": []},
        "bad_curve_id_bool.json": {"components": [{"id": True}], "edges": []},
        "bad_curve_genus_float.json": {"components": [{"id": 1, "geometric_genus": 1.5}]},
        "bad_curve_edges_obj.json": {"components": [{"id": 1}], "edges": {}},
        "bad_curve_edge_triple.json": {"components": [{"id": 1}, {"id": 2}],
                                       "edges": [[1, 2, 3]]},
        "bad_curve_self_loop.json": {"components": [{"id": 1}, {"id": 2}],
                                     "edges": [[1, 1], [1, 2]]},
        "bad_curve_unknown_end.json": {"components": [{"id": 1}, {"id": 2}],
                                       "edges": [[1, 9]]},
        "bad_curve_dup_id.json": {"components": [{"id": 1}, {"id": 1}], "edges": []},
        "bad_curve_neg_genus.json": {"components": [{"id": 1, "geometric_genus": -1}]},
        "bad_curve_empty.json": {"components": [], "edges": []},
        "path3.json": path3,
        "path3_bundle.json": {"rank": 2, "multidegree": {"1": 4, "2": -3, "3": 1}},
        "path3_pol.json": {"weights": {"1": "1/3", "2": "1/3", "3": "1/3"}},
        "bad_bundle_rank0.json": {"rank": 0, "multidegree": {"1": 1, "2": 1, "3": 1}},
        "bad_bundle_norank.json": {"multidegree": {"1": 1, "2": 1, "3": 1}},
        "bad_bundle_keys.json": {"rank": 2, "multidegree": {"1": 1, "2": 1}},
        "bad_bundle_key01.json": {"rank": 2, "multidegree": {"01": 1, "2": 1, "3": 1}},
        "bad_bundle_key_arabic.json": {"rank": 2, "multidegree": {"١": 1, "2": 1, "3": 1}},
        "bad_bundle_deg_float.json": {"rank": 2, "multidegree": {"1": 1.0, "2": 1, "3": 1}},
        "bad_bundle_deg_bool.json": {"rank": 2, "multidegree": {"1": True, "2": 1, "3": 1}},
        "bad_bundle_md_list.json": {"rank": 2, "multidegree": [1, 2, 3]},
        "bad_pol_sum.json": {"weights": {"1": "1/3", "2": "1/3", "3": "1/2"}},
        "bad_pol_negative.json": {"weights": {"1": "-1/3", "2": "2/3", "3": "2/3"}},
        "bad_pol_text.json": {"weights": {"1": "abc", "2": "1/3", "3": "1/3"}},
        "bad_pol_zero_den.json": {"weights": {"1": "1/0", "2": "1/3", "3": "1/3"}},
        "bad_pol_keys.json": {"weights": {"1": "1/2", "2": "1/2"}},
        "bad_pol_not_obj.json": "weights",
    }
    docs.update(bad)

    # gluing flags
    for k, (field, p, r, kind) in enumerate([
            ("F2", 2, 1, "random"), ("F2", 2, 3, "random"), ("F3", 3, 2, "random"),
            ("F5", 5, 2, "left_singular"), ("F5", 5, 3, "random"), ("F7", 7, 4, "random"),
            ("F7", 7, 3, "kernel"), ("F11", 11, 5, "random"), ("F101", 101, 6, "random"),
            ("Q", 0, 2, "random"), ("Q", 0, 3, "left_singular"), ("Q", 0, 4, "kernel")]):
        docs[f"flag{k:02d}.json"] = {"field": field, "basis_matrix": _flag_rows(rng, p, r, kind)}
    docs.update({
        "bad_flag_dependent.json": {"field": "F5", "basis_matrix": [["1", "2", "0", "1"],
                                                                    ["2", "4", "0", "2"]]},
        "bad_flag_ragged.json": {"field": "F5", "basis_matrix": [["1", "0", "0"],
                                                                 ["0", "1", "1", "0"]]},
        "bad_flag_entry.json": {"field": "F5", "basis_matrix": [["x", "0", "0", "1"],
                                                                ["0", "1", "1", "0"]]},
        "bad_flag_q_entry.json": {"field": "Q", "basis_matrix": [["1/2", "x"]]},
        "bad_flag_field_f4.json": {"field": "F4", "basis_matrix": [["1", "1"]]},
        "bad_flag_field_z.json": {"field": "Z", "basis_matrix": [["1", "1"]]},
        "bad_flag_field_huge.json": {"field": "F18446744073709551629",
                                     "basis_matrix": [["1", "1"]]},
        "bad_flag_nofield.json": {"basis_matrix": [["1", "1"]]},
        "bad_flag_empty.json": {"field": "F5", "basis_matrix": []},
        "bad_flag_not_obj.json": [["1", "1"]],
        "bad_flag_q_zero_den.json": {"field": "Q", "basis_matrix": [["1/0", "1"]]},
        "bad_flag_float_bool.json": {"field": "F5", "basis_matrix": [[1.5, True, 0, 1],
                                                                     [0, 1, 1, 0]]},
        "bad_flag_row_text.json": {"field": "F5", "basis_matrix": ["1001", "0110"]},
        "flag_int_entries.json": {"field": "F5", "basis_matrix": [[1, 0, 0, 1], [0, 1, 1, 0]]},
        "bad_bundle_overlong_int.json": b'{"rank": ' + b"7" * 5000 + b', "multidegree": {}}',
    })

    # dvr --matrix
    for k, r in enumerate((1, 2, 3, 4, 5, 2, 3)):
        docs[f"intmat{k:02d}.json"] = [[rng.randint(-9, 9) for _ in range(r)] for _ in range(r)]
    docs.update({
        "bad_intmat_ragged.json": [[1, 2], [3]],
        "bad_intmat_float.json": [[1.5, 2], [3, 4]],
        "bad_intmat_bool.json": [[True, 2], [3, 4]],
        "bad_intmat_empty.json": [],
        "bad_intmat_obj.json": {"matrix": [[1]]},
    })

    # dvr --sl
    for k, (p, n, r, kind) in enumerate([
            (2, 1, 2, "kernel"), (3, 1, 2, "near"), (5, 2, 3, "kernel"), (7, 1, 3, "random"),
            (5, 3, 2, "near"), (11, 2, 4, "kernel"), (3, 2, 2, "random"), (13, 1, 5, "kernel")]):
        docs[f"sl{k:02d}.json"] = _tdoc(p, n, _tmatrix(rng, p, n, r, kind))
    docs.update({
        "bad_sl_n0.json": _tdoc(5, 0, [[[1]]]),
        "bad_sl_q.json": {"field": "Q", "n": 1, "entries": [[[1, 0]]]},
        "bad_sl_coeff_len.json": _tdoc(5, 1, [[[1, 0, 0]]]),
        "bad_sl_coeff_float.json": _tdoc(5, 1, [[[1.5, 0]]]),
        "bad_sl_ragged.json": _tdoc(5, 1, [[[1, 0], [0, 0]], [[0, 0]]]),
        "bad_sl_entry_int.json": _tdoc(5, 1, [[1]]),
        "bad_sl_n_str.json": {"field": "F5", "n": "1", "entries": [[[1, 0]]]},
        "bad_sl_noentries.json": {"field": "F5", "n": 1},
    })

    # dvr --torsor: cocycles of invertible matrices, gammas in 1 + pi^n R
    for k, (p, n, r, count) in enumerate([
            (5, 1, 2, 1), (7, 2, 2, 2), (3, 1, 3, 3), (11, 3, 2, 2), (13, 1, 4, 1)]):
        cocycle = [_tdoc(p, n, _invertible(rng, p, n, r)) for _ in range(count)]
        gammas = [[1] + [0] * (n - 1) + [rng.randrange(p)] for _ in range(count)]
        docs[f"torsor{k:02d}.json"] = {"cocycle": cocycle, "gammas": gammas}
    inv = _tdoc(5, 1, [[[1, 0], [0, 0]], [[0, 0], [1, 0]]])
    docs.update({
        "bad_torsor_nogammas.json": {"cocycle": [inv]},
        "bad_torsor_list.json": [inv],
        "bad_torsor_empty_cocycle.json": {"cocycle": [], "gammas": []},
        "bad_torsor_gamma_not_unit1.json": {"cocycle": [inv], "gammas": [[2, 0]]},
        "bad_torsor_gamma_len.json": {"cocycle": [inv], "gammas": [[1, 0, 0]]},
        "bad_torsor_count.json": {"cocycle": [inv, inv], "gammas": [[1, 1]]},
        "bad_torsor_singular.json": {"cocycle": [_tdoc(5, 1, [[[1, 0], [2, 0]],
                                                              [[2, 0], [4, 0]]])],
                                     "gammas": [[1, 1]]},
        "bad_torsor_n0.json": {"cocycle": [_tdoc(5, 0, [[[1]]])], "gammas": [[1]]},
        "bad_torsor_mixed_rings.json": {"cocycle": [inv, _tdoc(5, 2, [[[1, 0, 0]]])],
                                        "gammas": [[1, 1], [1, 1]]},
        "bad_torsor_matrix.json": {"cocycle": [{"field": "F5", "n": 1}], "gammas": [[1, 1]]},
        "bad_torsor_gammas_int.json": {"cocycle": [inv], "gammas": 7},
        "bad_torsor_gammas_null.json": {"cocycle": [inv], "gammas": None},
        "bad_torsor_gammas_obj.json": {"cocycle": [inv], "gammas": {"10": 0}},
        "bad_torsor_gamma_int.json": {"cocycle": [inv], "gammas": [7]},
        "bad_torsor_gamma_text.json": {"cocycle": [inv], "gammas": [["a", 0]]},
        "bad_torsor_gamma_float.json": {"cocycle": [inv], "gammas": [[1.5, 2.7]]},
        "bad_torsor_gamma_bool.json": {"cocycle": [inv], "gammas": [[True, 0]]},
        "bad_torsor_cocycle_int.json": {"cocycle": 7, "gammas": [[1, 1]]},
        "bad_torsor_cocycle_null.json": {"cocycle": None, "gammas": [[1, 1]]},
    })
    return docs


def write_inputs():
    d = GOLDEN / "inputs"
    d.mkdir(parents=True, exist_ok=True)
    for name, doc in inputs().items():
        data = doc if isinstance(doc, bytes) else (
            json.dumps(doc, indent=1, ensure_ascii=False) + "\n").encode("utf-8")
        (d / name).write_bytes(data)


# ------------------------------------------------------------------- cases

def cases():
    """Every golden case as (name, argv); paths are relative to tests/golden."""
    out = []

    def add(name, *argv):
        out.append((name, list(argv)))

    def inp(name):
        return f"inputs/{name}"

    for c in CURVE_FIXTURES:
        add(f"validate-fixture-{c}", "validate", "--curve", f"{FIX}/curves/{c}.json")
        add(f"order-fixture-{c}", "order", "--curve", f"{FIX}/curves/{c}.json")
    for b in ("path2_bundle", "path2_bundle_balanced"):
        for cmd in ("check", "balance"):
            add(f"{cmd}-fixture-{b}", cmd, "--curve", f"{FIX}/curves/path2_g11.json",
                "--bundle", f"{FIX}/{b}.json", "--pol", f"{FIX}/path2_pol.json")
    for k in range(len(TREE_SHAPES)):
        t = f"tree{k:02d}"
        add(f"validate-{t}", "validate", "--curve", inp(f"{t}_curve.json"))
        add(f"order-{t}", "order", "--curve", inp(f"{t}_curve.json"))
        for cmd in ("check", "balance"):
            add(f"{cmd}-{t}", cmd, "--curve", inp(f"{t}_curve.json"),
                "--bundle", inp(f"{t}_bundle.json"), "--pol", inp(f"{t}_pol.json"))

    bad_curves = ("bad_not_json", "bad_not_utf8", "bad_empty", "bad_dup_key", "bad_curve_list",
                  "bad_curve_nocomps", "bad_curve_comp_not_obj", "bad_curve_id_str",
                  "bad_curve_id_bool", "bad_curve_genus_float", "bad_curve_edges_obj",
                  "bad_curve_edge_triple", "bad_curve_self_loop", "bad_curve_unknown_end",
                  "bad_curve_dup_id", "bad_curve_neg_genus", "bad_curve_empty")
    for b in bad_curves + ("missing",):
        for cmd in ("validate", "order"):
            add(f"{cmd}-{b}", cmd, "--curve", inp(f"{b}.json"))
    for b in ("bad_not_json", "bad_curve_self_loop", "missing"):
        add(f"check-curve-{b}", "check", "--curve", inp(f"{b}.json"),
            "--bundle", inp("path3_bundle.json"), "--pol", inp("path3_pol.json"))
    triple = ("path3.json", "path3_bundle.json", "path3_pol.json")
    for cmd in ("check", "balance"):
        add(f"{cmd}-path3", cmd, "--curve", inp(triple[0]), "--bundle", inp(triple[1]),
            "--pol", inp(triple[2]))
        for b in ("bad_bundle_rank0", "bad_bundle_norank", "bad_bundle_keys", "bad_bundle_key01",
                  "bad_bundle_key_arabic", "bad_bundle_deg_float", "bad_bundle_deg_bool",
                  "bad_bundle_md_list", "bad_not_utf8"):
            add(f"{cmd}-{b}", cmd, "--curve", inp(triple[0]), "--bundle", inp(f"{b}.json"),
                "--pol", inp(triple[2]))
        for b in ("bad_pol_sum", "bad_pol_negative", "bad_pol_text", "bad_pol_zero_den",
                  "bad_pol_keys", "bad_pol_not_obj", "bad_dup_key"):
            add(f"{cmd}-{b}", cmd, "--curve", inp(triple[0]), "--bundle", inp(triple[1]),
                "--pol", inp(f"{b}.json"))
    add("check-out-unwritable", "check", "--curve", inp(triple[0]), "--bundle", inp(triple[1]),
        "--pol", inp(triple[2]), "--out", "no_such_dir/report.json")
    add("validate-out-unwritable", "validate", "--curve", inp(triple[0]),
        "--out", "no_such_dir/report.json")

    # gpb --flag
    for f in ("flag_f5_r2", "flag_bad_row"):
        add(f"gpb-flag-fixture-{f}", "gpb", "--flag", f"{FIX}/{f}.json")
    for k in range(12):
        add(f"gpb-flag-{k:02d}", "gpb", "--flag", inp(f"flag{k:02d}.json"))
    for b in ("bad_flag_dependent", "bad_flag_ragged", "bad_flag_entry", "bad_flag_q_entry",
              "bad_flag_field_f4", "bad_flag_field_z", "bad_flag_field_huge", "bad_flag_nofield",
              "bad_flag_empty", "bad_flag_not_obj", "bad_not_json", "missing"):
        add(f"gpb-flag-{b}", "gpb", "--flag", inp(f"{b}.json"))

    # gpb --build
    for field in ("F2", "F3", "F5", "F7", "F101", "Q"):
        for r in (1, 2, 3, 4, 6):
            add(f"gpb-build-{field}-r{r}", "gpb", "--build", "--field", field, "--rank", str(r),
                "--degree", str(2 * r + 1), "--shift", "2")
    add("gpb-build-r12", "gpb", "--build", "--field", "F13", "--rank", "12", "--degree", "0",
        "--shift", "-1")
    add("gpb-build-default-shift", "gpb", "--build", "--field", "F5", "--rank", "2",
        "--degree", "-1")
    add("gpb-build-degree-bound", "gpb", "--build", "--field", "F5", "--rank", "3",
        "--degree", "5", "--shift", "2")
    add("gpb-build-rank0", "gpb", "--build", "--field", "F5", "--rank", "0", "--degree", "1")
    add("gpb-build-rank-neg", "gpb", "--build", "--field", "F5", "--rank", "-4", "--degree", "1")
    add("gpb-build-no-field", "gpb", "--build", "--rank", "2", "--degree", "1")
    add("gpb-build-no-rank", "gpb", "--build", "--field", "F5", "--degree", "1")
    add("gpb-build-no-degree", "gpb", "--build", "--field", "F5", "--rank", "2")
    add("gpb-build-bad-field", "gpb", "--build", "--field", "F9", "--rank", "2", "--degree", "1")
    add("gpb-build-field-q-spaces", "gpb", "--build", "--field", " Q ", "--rank", "2",
        "--degree", "1")
    add("gpb-build-rank-over-bound", "gpb", "--build", "--field", "F7", "--rank", "65",
        "--degree", "65")
    add("gpb-build-rank-huge", "gpb", "--build", "--field", "F7", "--rank", "100000",
        "--degree", "1")
    add("gpb-build-rank-text", "gpb", "--build", "--field", "F5", "--rank", "two",
        "--degree", "1")

    # gpb numeric mode
    for r, d, g, h in ((1, 0, 0, None), (2, 3, 1, 2), (3, -4, 2, 0), (4, 7, 0, 1),
                       (5, 12, 3, None), (6, -1, 1, 5)):
        argv = ["gpb", "--rank", str(r), "--degree", str(d), "--nodes", str(g)]
        if h is not None:
            argv += ["--genus", str(h)]
        add(f"gpb-num-r{r}-d{d}-g{g}-h{h}", *argv)
    add("gpb-num-rank0", "gpb", "--rank", "0", "--degree", "1", "--nodes", "1")
    add("gpb-num-nodes-neg", "gpb", "--rank", "2", "--degree", "1", "--nodes", "-1")
    add("gpb-num-genus-neg", "gpb", "--rank", "2", "--degree", "1", "--nodes", "1",
        "--genus", "-1")
    add("gpb-num-no-nodes", "gpb", "--rank", "2", "--degree", "1")
    add("gpb-none", "gpb")

    # dvr --matrix
    add("dvr-matrix-fixture", "dvr", "--matrix", f"{FIX}/dvr_matrix.json", "--field", "F5",
        "--n", "1")
    for k, (field, n) in enumerate((("F2", 1), ("F3", 2), ("F5", 1), ("F7", 3), ("F101", 2),
                                    ("F18446744073709551557", 1), ("F13", 2))):
        add(f"dvr-matrix-{k:02d}", "dvr", "--matrix", inp(f"intmat{k:02d}.json"),
            "--field", field, "--n", str(n))
    for b in ("bad_intmat_ragged", "bad_intmat_float", "bad_intmat_bool", "bad_intmat_empty",
              "bad_intmat_obj", "bad_not_json", "missing"):
        add(f"dvr-matrix-{b}", "dvr", "--matrix", inp(f"{b}.json"), "--field", "F5", "--n", "1")
    add("dvr-matrix-n0", "dvr", "--matrix", inp("intmat01.json"), "--field", "F5", "--n", "0")
    add("dvr-matrix-n-neg", "dvr", "--matrix", inp("intmat01.json"), "--field", "F5",
        "--n", "-3")
    add("dvr-matrix-field-q", "dvr", "--matrix", inp("intmat01.json"), "--field", "Q",
        "--n", "1")
    add("dvr-matrix-n-over-bound", "dvr", "--matrix", inp("intmat01.json"), "--field", "F5",
        "--n", "10001")
    add("dvr-matrix-n-huge", "dvr", "--matrix", inp("intmat01.json"), "--field", "F5",
        "--n", "100000000")
    add("dvr-matrix-no-n", "dvr", "--matrix", inp("intmat01.json"), "--field", "F5")
    add("dvr-matrix-no-field", "dvr", "--matrix", inp("intmat01.json"), "--n", "1")

    # dvr --sl
    add("dvr-sl-fixture", "dvr", "--sl", f"{FIX}/dvr_sl_kernel.json")
    for k in range(8):
        add(f"dvr-sl-{k:02d}", "dvr", "--sl", inp(f"sl{k:02d}.json"))
    for b in ("bad_sl_n0", "bad_sl_q", "bad_sl_coeff_len", "bad_sl_coeff_float", "bad_sl_ragged",
              "bad_sl_entry_int", "bad_sl_n_str", "bad_sl_noentries", "bad_not_json",
              "bad_not_utf8"):
        add(f"dvr-sl-{b}", "dvr", "--sl", inp(f"{b}.json"))

    # dvr --torsor
    add("dvr-torsor-fixture", "dvr", "--torsor", f"{FIX}/dvr_torsor.json")
    for k in range(5):
        add(f"dvr-torsor-{k:02d}", "dvr", "--torsor", inp(f"torsor{k:02d}.json"))
    for b in ("bad_torsor_nogammas", "bad_torsor_list", "bad_torsor_empty_cocycle",
              "bad_torsor_gamma_not_unit1", "bad_torsor_gamma_len", "bad_torsor_count",
              "bad_torsor_singular", "bad_torsor_n0", "bad_torsor_mixed_rings",
              "bad_torsor_matrix", "bad_not_json", "bad_torsor_gammas_int",
              "bad_torsor_gammas_null", "bad_torsor_gammas_obj", "bad_torsor_gamma_int",
              "bad_torsor_gamma_text", "bad_torsor_gamma_float", "bad_torsor_gamma_bool",
              "bad_torsor_cocycle_int", "bad_torsor_cocycle_null"):
        add(f"dvr-torsor-{b}", "dvr", "--torsor", inp(f"{b}.json"))
    add("dvr-none", "dvr")

    # untyped flag entries, the --nodes bound and over-long integers
    for f in ("bad_flag_q_zero_den", "bad_flag_float_bool", "bad_flag_row_text",
              "flag_int_entries"):
        add(f"gpb-flag-{f}", "gpb", "--flag", inp(f"{f}.json"))
    for g in ("10000", "10001", "100000000"):
        add(f"gpb-num-nodes-{g}", "gpb", "--rank", "2", "--degree", "3", "--nodes", g)
    add("check-bad_bundle_overlong_int", "check", "--curve", inp(triple[0]),
        "--bundle", inp("bad_bundle_overlong_int.json"), "--pol", inp(triple[2]))
    return out


# ----------------------------------------------------------------- running

def run_case(argv):
    """Run the CLI in process from tests/golden; return (exit code, stdout)."""
    from nodalstab import cli

    buf = io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.run(argv)
            except SystemExit as e:  # argparse usage errors
                code = e.code
    finally:
        os.chdir(cwd)
    return code, buf.getvalue()


def load_cases():
    return json.loads(CASES_FILE.read_text(encoding="utf-8"))


def record():
    write_inputs()
    recorded = []
    for name, argv in cases():
        code, stdout = run_case(argv)
        recorded.append({"name": name, "argv": argv, "exit": code, "stdout": stdout})
    CASES_FILE.write_text(json.dumps(recorded, indent=1) + "\n", encoding="utf-8")
    return recorded


if __name__ == "__main__":
    got = record()
    print(f"recorded {len(got)} cases in {CASES_FILE}")
