"""Byte-for-byte replay of the recorded CLI corpus in tests/golden.

Each case runs one ``nodal-stab`` argv in process and compares its exit
code and every byte of standard output with the recording.  The corpus
and its inputs come from ``golden_corpus.py``; see there for re-recording.
"""

import json

import pytest

from golden_corpus import GOLDEN, cases, inputs, load_cases, run_case

RECORDED = load_cases()


@pytest.mark.parametrize("case", RECORDED, ids=[c["name"] for c in RECORDED])
def test_golden_case_replays(case):
    code, stdout = run_case(case["argv"])
    assert stdout == case["stdout"]
    assert code == case["exit"]


def test_golden_corpus_matches_its_generator():
    assert [(c["name"], c["argv"]) for c in RECORDED] == cases()
    for name, doc in inputs().items():
        data = (GOLDEN / "inputs" / name).read_bytes()
        if isinstance(doc, bytes):
            assert data == doc, name
        else:
            assert json.loads(data) == doc, name

