"""Same-answers fingerprint of the toricforms command line.

Runs every op of the benchmark catalogs (``perfbench/bench_catalog.py``) in
this process, and the edge cases below in one ``python -O`` child, each as
one ``toricforms.cli.run(argv)`` call with stdout and stderr captured, and
writes the sha256 of (stdout, stderr, exit code) per op to
``FINGERPRINT.json``.  Input files go to a temporary work directory whose
path is replaced by ``<work>`` in the argv and in the output; warnings are
shown every time, as ``Category: message`` lines, so that neither their
source line nor the process's warning registry changes a digest.

Run from the repository root::

    python3 fingerprint.py        # rewrite FINGERPRINT.json

and ``git diff FINGERPRINT.json`` names every op whose output changed.
``tests/test_fingerprint.py`` holds the program to the committed file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent
for _path in (ROOT / "src", ROOT / "perfbench"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import bench_catalog  # noqa: E402

FINGERPRINT = ROOT / "FINGERPRINT.json"
PLACEHOLDER = "<work>"

#: Input files of the edge cases, written into the work directory.
INPUT_FILES = {
    # rays span a rank-2 sublattice of Z^3
    "rank_deficient.json": {
        "rank": 3,
        "rays": [[1, 0, 0], [0, 1, 0], [-1, -1, 0]],
        "cones": [[0, 1], [1, 2], [0, 2]],
    },
    # rays span a rank-2 sublattice of Z^3 whose reported basis depends on
    # the Smith transforms
    "rank_deficient_skew.json": {"rank": 3, "rays": [[-1, -9, 2], [2, 0, -1]], "cones": [[0], [1]]},
    # (2, 0) is not primitive
    "non_primitive.json": {"rank": 2, "rays": [[1, 0], [2, 0]], "cones": [[0], [1]]},
    # Cl = Z + Z/3
    "torsion.json": {"rank": 2, "rays": [[2, -1], [-1, 2], [-1, -1]], "cones": [[0, 1], [1, 2], [0, 2]]},
    # P^3 without its last maximal cone
    "p3_minus_cone.json": {
        "rank": 3,
        "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]],
        "cones": [[0, 1, 2], [0, 1, 3], [0, 2, 3]],
    },
    # P^4 without its last maximal cone: not complete, so checked pair by pair
    "p4_minus_cone.json": {
        "rank": 4,
        "rays": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [-1, -1, -1, -1]],
        "cones": [[0, 1, 2, 3], [0, 1, 2, 4], [0, 1, 3, 4], [0, 2, 3, 4]],
    },
    # two 2-ray cones in rank 3, one of index 2; the symmetry frame takes a
    # ray outside every cone
    "low_dim_cones.json": {
        "rank": 3,
        "rays": [[1, 0, 0], [1, 2, 0], [0, 0, 1], [-1, -1, -1]],
        "cones": [[0, 1], [2, 3]],
    },
    # two rank-3 cones that share no ray and overlap along (2, -3, 3)
    "overlap_rank3.json": {
        "rank": 3,
        "rays": [[0, 2, 1], [-2, -1, 1], [2, -1, 1], [0, -2, 1], [-2, 1, 1], [2, 1, 1]],
        "cones": [[0, 1, 2], [3, 4, 5]],
    },
    # the rank-3 overlap lifted by a shared ray e_4: not complete, so only
    # the pairwise check sees it
    "overlap_rank4.json": {
        "rank": 4,
        "rays": [
            [0, 2, 1, 0], [-2, -1, 1, 0], [2, -1, 1, 0], [0, -2, 1, 0], [-2, 1, 1, 0], [2, 1, 1, 0],
            [0, 0, 0, 1],
        ],
        "cones": [[0, 1, 2, 6], [3, 4, 5, 6]],
    },
    # cone(e_1, ..., e_10) and its negative: a fan, but the pairwise check
    # would take 184,756 determinants, past its budget
    "disjoint_rank10.json": {
        "rank": 10,
        "rays": [[s * int(i == j) for j in range(10)] for s in (1, -1) for i in range(10)],
        "cones": [list(range(10)), list(range(10, 20))],
    },
    # 135-degree cones around the square: every wall has two sides, but the
    # cones cover the plane three times
    "winding_square.json": {
        "rank": 2,
        "rays": [[1, 0], [1, 1], [0, 1], [-1, 1], [-1, 0], [-1, -1], [0, -1], [1, -1]],
        "cones": [[0, 3], [3, 6], [6, 1], [1, 4], [4, 7], [7, 2], [2, 5], [5, 0]],
    },
    # three rays in one rank-2 cone
    "non_simplicial.json": {"rank": 2, "rays": [[1, 0], [0, 1], [-1, -1]], "cones": [[0, 1, 2]]},
    # norm data with Q = Z/4 and the quadratic subfield's norms 2 Z/4
    "z4.json": {
        "Q": {"invariant_factors": [4]},
        "images": [{"subgroup_gens": [2], "subgroup_of_Q": [[2]]}],
    },
    # Q = (Z/2400)^5 with norm images whose integer Smith forms blow up
    "N.json": {
        "Q": {"invariant_factors": [2400, 2400, 2400, 2400, 2400]},
        "images": [
            {
                "subgroup_gens": [2],
                "subgroup_of_Q": [
                    [-594, -1822, 445, -1616, -2351],
                    [-464, 1633, -1412, 427, 1742],
                    [282, 467, -77, 758, 479],
                    [-736, 292, -237, 210, -9],
                    [54, 398, -751, 294, 71],
                ],
            }
        ],
    },
}


def _file(name: str) -> str:
    return f"{PLACEHOLDER}/{name}"


#: Edge cases, run under ``python -O``: id -> argv.
EDGE_OPS: dict[str, tuple[str, ...]] = {
    "edge fan validate rank-deficient": ("fan", "validate", "--file", _file("rank_deficient.json")),
    "edge fan validate rank-deficient skew": (
        "fan", "validate", "--file", _file("rank_deficient_skew.json"),
    ),
    "edge fan info non-primitive": ("fan", "info", "--file", _file("non_primitive.json")),
    "edge fan cox non-primitive": ("fan", "cox", "--file", _file("non_primitive.json")),
    "edge classify fan projective:2 symbolic Z/4": (
        "classify", "fan", "--builtin", "projective:2",
        "--backend", f"symbolic:{_file('z4.json')}", "--group", "cyclic:4", "--json",
    ),
    "edge classify projective 3 symbolic Z/4": (
        "classify", "projective", "-n", "3",
        "--backend", f"symbolic:{_file('z4.json')}", "--group", "cyclic:4", "--json",
    ),
    "edge classify projective 3 symbolic large images": (
        "classify", "projective", "-n", "3",
        "--backend", f"symbolic:{_file('N.json')}", "--group", "cyclic:4", "--json",
    ),
    "edge fan aut projective:8 budget": ("fan", "aut", "--builtin", "projective:8"),
    "edge oracle torsion fan ff:2,2": (
        "cohomology", "oracle", "--file", _file("torsion.json"), "--backend", "ff:2,2", "--json",
    ),
    "edge fan cox torsion fan": ("fan", "cox", "--file", _file("torsion.json"), "--json"),
    "edge usage no fan source": ("fan", "info"),
    "edge usage two fan sources": ("fan", "info", "--builtin", "hexagon", "--stdin"),
    "edge usage bad group": ("classify", "projective", "-n", "1", "--backend", "real", "--group", "cyclic:²"),
    "edge usage bad backend": ("classify", "projective", "-n", "1", "--backend", "ff:2"),
    "edge usage symbolic without group": (
        "classify", "projective", "-n", "1", "--backend", f"symbolic:{_file('z4.json')}",
    ),
    "edge usage unknown verb": ("fan", "frobnicate"),
    "edge fan info projective:1": ("fan", "info", "--builtin", "projective:1", "--json"),
    "edge fan info surface:C3": ("fan", "info", "--builtin", "surface:C3"),
    "edge fan info projective:3": ("fan", "info", "--builtin", "projective:3"),
    "edge fan info projective:3 json": ("fan", "info", "--builtin", "projective:3", "--json"),
    "edge fan info P3 minus a cone": ("fan", "info", "--file", _file("p3_minus_cone.json")),
    "edge fan info P3 minus a cone json": ("fan", "info", "--file", _file("p3_minus_cone.json"), "--json"),
    "edge fan info P4 minus a cone json": ("fan", "info", "--file", _file("p4_minus_cone.json"), "--json"),
    "edge classify fan P4 minus a cone": (
        "classify", "fan", "--file", _file("p4_minus_cone.json"), "--backend", "ff:2,2", "--json",
    ),
    "edge fan info low-dimensional cones": ("fan", "info", "--file", _file("low_dim_cones.json")),
    "edge fan aut low-dimensional cones": ("fan", "aut", "--file", _file("low_dim_cones.json")),
    "edge fan validate rank-3 overlap": ("fan", "validate", "--file", _file("overlap_rank3.json")),
    "edge fan validate rank-4 overlap": ("fan", "validate", "--file", _file("overlap_rank4.json")),
    "edge fan validate face-check budget": ("fan", "validate", "--file", _file("disjoint_rank10.json")),
    "edge fan validate winding square": ("fan", "validate", "--file", _file("winding_square.json")),
    "edge fan validate non-simplicial cone": (
        "fan", "validate", "--file", _file("non_simplicial.json"),
    ),
    # 1001 = 7 * 11 * 13 is prime to the order of every hexagon symmetry: one class
    "edge classify fan degree 1001": (
        "classify", "fan", "--builtin", "hexagon", "--backend", "ff:2,1001",
    ),
    # q just below 2**40: every lattice step of the oracle's routes runs mod q^2 - 1
    "edge oracle surface:C2 large q": (
        "cohomology", "oracle", "--builtin", "surface:C2", "--backend", "ff:1099511627689,2",
    ),
    # one op per size budget, each refused before its work
    "edge classify projective group-order budget": (
        "classify", "projective", "-n", "2", "--backend", "ff:2,10001",
    ),
    "edge classify projective factoring budget": (
        "classify", "projective", "-n", "2", "--backend", "ff:2199023255579,2",
    ),
    "edge classify projective cells budget": ("classify", "projective", "-n", "1000", "--backend", "real"),
    "edge oracle brute-force budget": (
        "cohomology", "oracle", "--builtin", "surface:C2", "--backend", "ff:4099,2",
    ),
    "edge fan validate fan-size budget": ("fan", "validate", "--builtin", "projective:1000"),
}


def catalog_ops() -> dict[str, tuple[str, ...]]:
    """Every benchmark catalog op: id -> argv, fan files under the placeholder."""
    return {
        op.id: tuple(op.argv_in(Path(PLACEHOLDER)))
        for ops in bench_catalog.CATALOGS.values()
        for op in ops
    }


def write_inputs(work: Path) -> None:
    """The generated catalog fans and the edge cases' files, under ``work``."""
    bench_catalog.write_fan_files(work)
    for name, data in INPUT_FILES.items():
        (work / name).write_text(json.dumps(data) + "\n")


def run_op(argv: tuple[str, ...], work: Path) -> str:
    """sha256 of (stdout, stderr, exit code) of one ``cli.run`` call."""
    from toricforms import cli

    out, err = io.StringIO(), io.StringIO()

    def show(message, category, *_args, **_kwargs) -> None:
        err.write(f"{category.__name__}: {message}\n")

    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            warnings.showwarning = show
            code = cli.run([a.replace(PLACEHOLDER, str(work)) for a in argv])
    texts = [s.getvalue().replace(str(work), PLACEHOLDER) for s in (out, err)]
    return hashlib.sha256(json.dumps(texts + [code]).encode()).hexdigest()


def run_ops(ops: dict[str, tuple[str, ...]], work: Path) -> dict[str, str]:
    return {op_id: run_op(argv, work) for op_id, argv in ops.items()}


def edge_hashes(ids: list[str], work: Path) -> dict[str, str]:
    """Digests of the named edge cases, all run in one ``python -O`` child."""
    done = subprocess.run(
        [sys.executable, "-O", str(Path(__file__).resolve()), "--edge-child", str(work), *ids],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"edge-case child exit {done.returncode}: {done.stderr.strip()[-500:]}")
    return json.loads(done.stdout)


def fingerprint() -> dict[str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        write_inputs(work)
        digests = run_ops(catalog_ops(), work)
        digests.update(edge_hashes(list(EDGE_OPS), work))
    return dict(sorted(digests.items()))


def main(argv: list[str]) -> int:
    if argv[:1] == ["--edge-child"]:
        work, ids = Path(argv[1]), argv[2:]
        print(json.dumps(run_ops({i: EDGE_OPS[i] for i in ids}, work)))
        return 0
    if argv:
        print("usage: python3 fingerprint.py", file=sys.stderr)
        return 2
    FINGERPRINT.write_text(json.dumps(fingerprint(), indent=1) + "\n")
    print(f"wrote {FINGERPRINT.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
