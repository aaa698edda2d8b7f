"""The command line gives the answers recorded in FINGERPRINT.json.

Each benchmark workload's catalog is one test, run in this process; the
edge cases run in one ``python -O`` child.  `python3 fingerprint.py`
rewrites the file after an intended change of output.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "fingerprint.py"
_spec = importlib.util.spec_from_file_location("fingerprint", _PATH)
fingerprint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fingerprint)

EXPECTED = json.loads(fingerprint.FINGERPRINT.read_text())


def test_fingerprint_lists_every_op():
    ops = set(fingerprint.catalog_ops()) | set(fingerprint.EDGE_OPS)
    assert sorted(EXPECTED) == sorted(ops)


@pytest.mark.parametrize("workload", list(fingerprint.bench_catalog.CATALOGS))
def test_catalog_ops_match_fingerprint(workload, tmp_path):
    ids = [op.id for op in fingerprint.bench_catalog.CATALOGS[workload]]
    ops = {i: fingerprint.catalog_ops()[i] for i in ids}
    fingerprint.write_inputs(tmp_path)
    got = fingerprint.run_ops(ops, tmp_path)
    assert [i for i in ids if got[i] != EXPECTED[i]] == []


def test_edge_cases_match_fingerprint_under_O(tmp_path):
    fingerprint.write_inputs(tmp_path)
    got = fingerprint.edge_hashes(list(fingerprint.EDGE_OPS), tmp_path)
    assert [i for i in fingerprint.EDGE_OPS if got[i] != EXPECTED[i]] == []
