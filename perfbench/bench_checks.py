"""Correctness checks for op outputs.

Each op's stdout is reduced to a semantic projection: for a classification
report the entry labels, twisting images (phi), H^1 free rank and invariant
factors, descent status and total; for the oracle the three route values per
class and the verdict line.  ``expected.json`` holds the sha256 of every
catalog op's projection, a readable summary, and the raw stdout sha256 (for
information only: a raw mismatch is reported but not counted as a failure).

Independent invariants are checked as well, so a wrong expected file cannot
hide a wrong answer:

* over a finite field, H^1 of every twisted torus is trivial (Lang);
* the oracle ends with ``all routes agree``;
* a report's total equals the sum of its entries' orders.

No check uses ``assert``: they must still fire under ``python -O``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

_ORACLE_PREFIX = "class "
AGREE = "all routes agree"


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _is_oracle(argv) -> bool:
    return len(argv) >= 2 and argv[0] == "cohomology" and argv[1] == "oracle"


def _backend(argv) -> str:
    return argv[argv.index("--backend") + 1]


def project(argv, stdout: str) -> tuple[dict, dict]:
    """(projection, summary) of one op's stdout; raises ValueError if unparsable."""
    if _is_oracle(argv):
        lines = stdout.strip().splitlines()
        routes = []
        for line in lines[:-1]:
            if not line.startswith(_ORACLE_PREFIX):
                raise ValueError(f"unexpected oracle line {line!r}")
            _, _, tail = line.partition(": ")
            parts = tail.split(" | ")
            if len(parts) != 3:
                raise ValueError(f"oracle line without three routes: {line!r}")
            routes.append([part.split(" ", 2)[-1] for part in parts])
        verdict = lines[-1] if lines else ""
        return {"routes": routes, "verdict": verdict}, {"classes": len(routes), "verdict": verdict}
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise ValueError(f"report is not JSON: {exc}") from None
    entries = [
        [
            e["label"],
            e["phi"],
            e["h1"].get("kind"),
            e["h1"].get("free_rank"),
            e["h1"].get("invariant_factors"),
            e["descent"]["status"],
        ]
        for e in report["entries"]
    ]
    h1_texts: dict[str, int] = {}
    for e in report["entries"]:
        h1_texts[e["h1"]["text"]] = h1_texts.get(e["h1"]["text"], 0) + 1
    summary = {
        "entries": len(entries),
        "total": report["total"],
        "h1": h1_texts,
        "statuses": sorted({e[5] for e in entries}),
    }
    return {"entries": entries, "total": report["total"]}, summary


def invariant_problems(argv, projection: dict) -> list[str]:
    """Checks that hold for every op of the catalog, independent of expected.json."""
    finite_field = _backend(argv).startswith("ff:")
    problems = []
    if "routes" in projection:
        if projection["verdict"] != AGREE:
            problems.append(f"oracle verdict {projection['verdict']!r}")
        for index, (norm, closed, _brute) in enumerate(projection["routes"]):
            if norm != "1" or closed != "1":
                problems.append(f"class {index}: finite-field H^1 not trivial ({norm}, {closed})")
        return problems
    orders = 0
    for entry in projection["entries"]:
        label, _phi, kind, free_rank, factors, _status = entry
        if kind != "explicit" or free_rank != 0:
            problems.append(f"{label}: H^1 not a finite explicit group")
            continue
        if finite_field and factors:
            problems.append(f"{label}: finite-field H^1 not trivial: {factors}")
        order = 1
        for f in factors:
            order *= f
        orders += order
    if projection["total"] != orders:
        problems.append(f"total {projection['total']} != sum of entry orders {orders}")
    return problems


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def record(argv, stdout: str) -> dict:
    """Expected-answer record for one op."""
    projection, summary = project(argv, stdout)
    return {
        "projection_sha256": _digest(projection),
        "summary": summary,
        "stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest(),
    }


def check(expected: dict | None, argv, code: int, stdout: str) -> tuple[list[str], bool]:
    """(problems, raw stdout matches) for one finished op."""
    if code != 0:
        return [f"exit code {code}"], False
    if expected is None:
        return ["no expected answer for this op"], False
    try:
        projection, summary = project(argv, stdout)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unparsable output: {exc}"], False
    problems = invariant_problems(argv, projection)
    if _digest(projection) != expected["projection_sha256"]:
        problems.append(f"projection differs: got {summary}, expected {expected['summary']}")
    raw_same = hashlib.sha256(stdout.encode()).hexdigest() == expected["stdout_sha256"]
    return problems, raw_same
