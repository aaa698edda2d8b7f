"""End-to-end tests for the command-line interface.

Every verb is exercised through ``run(argv)`` with captured output; the
validate round-trip feeds the JSON emitted by one invocation into the next
via stdin and demands byte-for-byte stability.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toricforms
from toricforms import _jsonout, cli, exact_linalg, fan_aut, fans
from toricforms.classify import ClassificationReport, builtin_fan, classify_projective
from toricforms.cli import run
from toricforms.cohomology import FiniteModule, brute_force_h1_finite
from toricforms.exact_linalg import IntMatrix, smith_normal_form
from toricforms.fan_aut import automorphism_group
from toricforms.fans import TooLarge, validate_fan
from toricforms.galois import FiniteFieldBackend, GroupSpec, RealComplexBackend

from test_fans import PRODUCT_FAN_NAMES, _disjoint_cones, named_fan

P2_JSON = json.dumps(
    {"rank": 2, "rays": [[1, 0], [0, 1], [-1, -1]], "cones": [[0, 1], [1, 2], [0, 2]]}
)

BAD_FAN_JSON = json.dumps(
    {"rank": 2, "rays": [[1, 0], [2, 0]], "cones": [[0, 1]]}
)


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# fan verbs
# ---------------------------------------------------------------------------


def test_validate_builtin(capsys):
    code, out, err = invoke(capsys, "fan", "validate", "--builtin", "hexagon")
    assert code == 0
    assert "valid" in out


def test_validate_file(tmp_path, capsys):
    path = tmp_path / "p2.json"
    path.write_text(P2_JSON)
    code, out, _ = invoke(capsys, "fan", "validate", "--file", str(path))
    assert code == 0


def test_validate_rejects_bad_fan(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(BAD_FAN_JSON)
    code, _, err = invoke(capsys, "fan", "validate", "--file", str(path))
    assert code == 1
    assert err.strip()


def test_validate_roundtrip_byte_exact(tmp_path, capsys, monkeypatch):
    path = tmp_path / "p2.json"
    path.write_text(P2_JSON)
    code, first, _ = invoke(capsys, "fan", "validate", "--file", str(path), "--json")
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(first))
    code, second, _ = invoke(capsys, "fan", "validate", "--stdin", "--json")
    assert code == 0
    assert first == second


def test_successive_runs_share_no_parser_state(capsys):
    # one parser serves every run in a process; flags must not carry over
    code, out, _ = invoke(capsys, "fan", "validate", "--builtin", "hexagon", "--json")
    assert code == 0 and json.loads(out)["rank"] == 2
    code, out, _ = invoke(capsys, "fan", "validate", "--builtin", "hexagon")
    assert code == 0 and out.startswith("valid: rank 2")
    argv = ("classify", "projective", "-n", "2", "--backend", "real")
    code, before, _ = invoke(capsys, *argv)
    assert code == 0
    code, _, err = invoke(capsys, "classify", "projective", "--backend", "real")
    assert code == 2 and "required: -n" in err
    code, after, err = invoke(capsys, *argv)
    assert (code, after, err) == (0, before, "")


def test_validate_requires_one_source(capsys):
    code, _, _ = invoke(capsys, "fan", "validate")
    assert code == 2
    code, _, _ = invoke(
        capsys, "fan", "validate", "--builtin", "hexagon", "--stdin"
    )
    assert code == 2


def test_missing_file_is_domain_error(capsys):
    code, _, err = invoke(capsys, "fan", "validate", "--file", "/no/such/fan.json")
    assert code == 1
    assert err.strip()


def test_unknown_builtin(capsys):
    code, _, err = invoke(capsys, "fan", "validate", "--builtin", "surface:C5")
    assert code == 1
    assert "unknown" in err.lower()


def test_fan_info(tmp_path, capsys):
    path = tmp_path / "p2.json"
    path.write_text(P2_JSON)
    code, out, _ = invoke(capsys, "fan", "info", "--file", str(path))
    assert code == 0
    assert "rank: 2" in out
    assert "smooth: true" in out
    assert "complete: true" in out
    assert "class group: Z" in out
    assert "(-1, -1, -1)" in out


def test_fan_info_rank3(capsys):
    code, out, _ = invoke(capsys, "fan", "info", "--builtin", "projective:3")
    assert code == 0
    assert "rank: 3" in out
    assert "complete: true" in out


_P3_RAYS = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]]
_P3_CONES = [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]
_P1_CUBED_RAYS = [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]]
_P1_CUBED_CONES = [[a, b, c] for a in (0, 1) for b in (2, 3) for c in (4, 5)]


@pytest.mark.parametrize(
    "rays, cones, complete",
    [
        (_P3_RAYS, _P3_CONES, True),
        (_P1_CUBED_RAYS, _P1_CUBED_CONES, True),
        (_P3_RAYS, _P3_CONES[:-1], False),
    ],
    ids=["P3", "P1xP1xP1", "P3 minus a cone"],
)
def test_fan_info_reports_completeness_in_rank_3(capsys, monkeypatch, rays, cones, complete):
    """Completeness is the wall-crossing certificate's verdict, in every rank."""
    fan_json = json.dumps({"rank": 3, "rays": rays, "cones": cones})
    monkeypatch.setattr("sys.stdin", io.StringIO(fan_json))
    code, out, _ = invoke(capsys, "fan", "info", "--stdin", "--json")
    assert code == 0
    assert json.loads(out)["complete"] is complete


def test_fan_aut(capsys):
    code, out, _ = invoke(capsys, "fan", "aut", "--builtin", "surface:C3")
    assert code == 0
    assert "order 3, label C3" in out


def test_fan_aut_json(capsys):
    code, out, _ = invoke(capsys, "fan", "aut", "--builtin", "hexagon", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 12
    assert payload["label"] == "D12"
    assert len(payload["matrices"]) == 12


#: Builtin surfaces moved by a unimodular map; their symmetry groups are
#: conjugate to the builtin's only by matrices with large entries.
TRANSFORMED_SURFACES = [
    ("surface:C4", [[8, 7], [1, 1]], "C4"),
    ("surface:D2p", [[8, 7], [1, 1]], "D2'"),
    ("surface:D4p", [[8, 7], [1, 1]], "D4'"),
    ("surface:C6", [[15, 7], [2, 1]], "C6"),
]


@pytest.mark.parametrize("name, rows, label", TRANSFORMED_SURFACES)
def test_transformed_surface_keeps_its_class(tmp_path, capsys, name, rows, label):
    fan, g = builtin_fan(name), IntMatrix.from_rows(rows)
    path = tmp_path / "fan.json"
    path.write_text(json.dumps({
        "rank": 2,
        "rays": [list(g.apply(r)) for r in fan.rays],
        "cones": [list(c) for c in fan.max_cones],
    }))
    code, out, err = invoke(capsys, "fan", "aut", "--file", str(path), "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["label"] == label
    code, out, err = invoke(capsys, "classify", "surface-real", "--file", str(path), "--json")
    assert (code, err) == (0, "")
    moved = json.loads(out)
    code, out, _ = invoke(capsys, "classify", "surface-real", "--builtin", name, "--json")
    assert code == 0
    builtin = json.loads(out)
    # the same forms with the same cohomology; only the involution matrices move
    assert [(e["label"], e["h1"]) for e in moved["entries"]] == [
        (e["label"], e["h1"]) for e in builtin["entries"]
    ]


@pytest.mark.parametrize(
    "rays, cones, complete",
    [
        ([[1], [-1]], [[0], [1]], True),
        ([[-1], [1]], [[1], [0]], True),
        ([[1], [-1]], [[0]], None),
        ([[1], [-1]], [[1]], None),
        ([[1]], [[0]], False),
    ],
)
def test_fan_info_rank1_complete_only_when_both_rays_are_cones(
    capsys, monkeypatch, rays, cones, complete
):
    """None: a listed ray lies in no cone, so the input is no fan (exit 1)."""
    fan_json = json.dumps({"rank": 1, "rays": rays, "cones": cones})
    monkeypatch.setattr("sys.stdin", io.StringIO(fan_json))
    code, out, err = invoke(capsys, "fan", "info", "--stdin", "--json")
    if complete is None:
        assert (code, out) == (1, "")
        assert "lies in no maximal cone" in err
    else:
        assert code == 0
        assert json.loads(out)["complete"] is complete


def test_fan_cox(capsys):
    code, out, _ = invoke(capsys, "fan", "cox", "--builtin", "projective:2")
    assert code == 0
    assert "class group: Z" in out
    assert "degree" in out


def test_fan_cox_json(capsys):
    code, out, _ = invoke(capsys, "fan", "cox", "--builtin", "projective:2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["num_variables"] == 3
    assert payload["free_degree_rows"] == [[1, 1, 1]]


# Custom fans with torsion in the class group, and `fan cox --json` for each.
# The degree rows are read off the transforms of the Smith decomposition of
# the ray rows; the transpose of the ray columns' decomposition is another
# valid one with other transforms, so these payloads pin which one is read.
_COX_PINNED = [
    (
        {"rank": 2, "rays": [[2, 3], [4, -5], [-3, 1], [1, -4]], "cones": [[3, 1], [1, 0], [0, 2]]},
        {
            "class_group": "Z + Z + Z/11",
            "free_degree_rows": [[1, 1, 2, 0], [0, -1, -1, 1]],
            "torsion_degree_rows": [[0, -1, -5, 0]],
            "torsion_moduli": [11],
            "irrelevant_complements": [[2, 3], [1, 3], [0, 2]],
        },
    ),
    (
        {
            "rank": 2,
            "rays": [[-1, 0], [-1, -2], [3, 4], [-3, 2], [5, -6], [-3, -4]],
            "cones": [[5, 1], [1, 4], [4, 2], [2, 3], [3, 0], [0, 5]],
        },
        {
            "class_group": "Z + Z + Z + Z + Z/2",
            "free_degree_rows": [
                [1, 2, 1, 0, 0, 0], [-4, 1, 0, 1, 0, 0], [8, -3, 0, 0, 1, 0], [-1, -2, 0, 0, 0, 1]
            ],
            "torsion_degree_rows": [[1, -1, 0, 0, 0, 0]],
            "torsion_moduli": [2],
            "irrelevant_complements": [
                [1, 2, 4, 5], [1, 2, 3, 4], [0, 2, 3, 5], [0, 2, 3, 4], [0, 1, 4, 5], [0, 1, 3, 5]
            ],
        },
    ),
    (
        {"rank": 2, "rays": [[-5, -2], [5, -3], [5, 4], [-5, 2]], "cones": [[0, 1], [1, 2], [3, 0]]},
        {
            "class_group": "Z + Z + Z/5",
            "free_degree_rows": [[2, -2, 1, -3], [1, -4, 0, -5]],
            "torsion_degree_rows": [[-1, 2, 0, 2]],
            "torsion_moduli": [5],
            "irrelevant_complements": [[2, 3], [1, 2], [0, 3]],
        },
    ),
    (
        {
            "rank": 3,
            "rays": [[1, 0, 0], [0, 1, 0], [1, 1, 2], [-1, -1, -1]],
            "cones": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]],
        },
        {
            "class_group": "Z",
            "free_degree_rows": [[1, 1, 1, 2]],
            "torsion_degree_rows": [],
            "torsion_moduli": [],
            "irrelevant_complements": [[3], [2], [1], [0]],
        },
    ),
]


@pytest.mark.parametrize("fan, payload", _COX_PINNED)
def test_fan_cox_json_pinned_on_custom_fans(capsys, monkeypatch, fan, payload):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(fan)))
    code, out, err = invoke(capsys, "fan", "cox", "--stdin", "--json")
    assert code == 0 and err == ""
    want = {"name": "stdin", "num_variables": len(fan["rays"]), **payload}
    assert out == _jsonout.dumps(want) + "\n"


# ---------------------------------------------------------------------------
# classify verbs
# ---------------------------------------------------------------------------


def test_classify_projective_real(capsys):
    code, out, _ = invoke(
        capsys, "classify", "projective", "-n", "1", "--backend", "real"
    )
    assert code == 0
    assert "total forms: 3" in out


def test_classify_projective_json(capsys):
    code, out, _ = invoke(
        capsys, "classify", "projective", "-n", "3", "--backend", "real", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["total"] == 4
    assert payload["fan"] == "projective:3"


def test_classify_projective_needs_backend(capsys):
    code, _, _ = invoke(capsys, "classify", "projective", "-n", "1")
    assert code == 2


def test_classify_fan_hexagon_real(capsys):
    code, out, _ = invoke(
        capsys,
        "classify",
        "fan",
        "--builtin",
        "hexagon",
        "--backend",
        "real",
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["total"] == 7
    assert len(payload["entries"]) == 4
    assert payload["group"] == "C2"


def test_classify_fan_ff(capsys):
    code, out, _ = invoke(
        capsys,
        "classify",
        "fan",
        "--builtin",
        "surface:D8",
        "--backend",
        "ff:3,2",
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["total"] == len(payload["entries"])
    assert all(e["h1"]["order"] == 1 for e in payload["entries"])


def test_classify_fan_group_mismatch(capsys):
    code, _, err = invoke(
        capsys,
        "classify",
        "fan",
        "--builtin",
        "hexagon",
        "--backend",
        "real",
        "--group",
        "cyclic:3",
    )
    assert code == 1
    assert err == "error: backend Galois group C2 does not match the requested group C3\n"


def test_classify_fan_dihedral_group_mismatch(capsys):
    """Every Galois group is cyclic: --group accepts cyclic:d only, and any
    other kind is a usage error."""
    code, out, err = invoke(
        capsys,
        "classify",
        "fan",
        "--builtin",
        "hexagon",
        "--backend",
        "real",
        "--group",
        "dihedral:12",
    )
    assert (code, out) == (2, "")
    assert err == "usage error: --group expects cyclic:d\n"


def test_classify_fan_quasiprojective_flag(capsys):
    base = [
        "classify",
        "fan",
        "--builtin",
        "projective:3",
        "--backend",
        "ff:2,3",
        "--json",
    ]
    code, out, _ = invoke(capsys, *base)
    assert code == 0
    without = json.loads(out)
    assert without["entries"][0]["descent"]["status"] == "TWISTED_FORMS_ONLY"
    code, out, _ = invoke(capsys, *base, "--quasiprojective")
    assert code == 0
    with_flag = json.loads(out)
    assert with_flag["entries"][0]["descent"]["status"] == "FORMS_CLASSIFIED"


def test_classify_surface_real(capsys):
    code, out, _ = invoke(
        capsys, "classify", "surface-real", "--builtin", "hexagon"
    )
    assert code == 0
    assert "total forms: 7" in out
    assert "sigma ~" in out


def test_classify_surface_real_rank3(capsys):
    code, _, err = invoke(
        capsys, "classify", "surface-real", "--builtin", "projective:3"
    )
    assert code == 1


# ---------------------------------------------------------------------------
# cohomology verbs
# ---------------------------------------------------------------------------


def test_h1_real_swap(capsys):
    code, out, _ = invoke(
        capsys, "cohomology", "h1-real", "--matrix", "[[0,1],[1,0]]"
    )
    assert code == 0
    assert out.strip().endswith("1")


def test_h1_real_minus_identity(capsys):
    code, out, _ = invoke(
        capsys, "cohomology", "h1-real", "--matrix", "[[-1,0],[0,-1]]", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["h1"]["invariant_factors"] == [2, 2]


def test_h1_real_rejects_non_involution(capsys):
    code, _, err = invoke(
        capsys, "cohomology", "h1-real", "--matrix", "[[1,1],[0,1]]"
    )
    assert code == 1


def test_h1_real_malformed_matrix(capsys):
    for matrix in ("[[1,2", "[[true]]"):  # a JSON boolean is no integer
        code, out, err = invoke(capsys, "cohomology", "h1-real", "--matrix", matrix)
        assert code == 2 and out == ""
        assert err.startswith("usage error: --matrix expects")


def test_cohomology_oracle(capsys):
    code, out, _ = invoke(
        capsys,
        "cohomology",
        "oracle",
        "--builtin",
        "surface:D8",
        "--backend",
        "ff:2,2",
    )
    assert code == 0
    assert "agree" in out


def test_cohomology_oracle_json_carries_the_text_rows(capsys):
    argv = ["cohomology", "oracle", "--builtin", "surface:C4", "--backend", "ff:2,4"]
    code, text, _ = invoke(capsys, *argv)
    assert code == 0
    code, out, _ = invoke(capsys, *argv, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_agree"] is True
    rows = [
        f"class {c['class']}: norm route {c['norm_route']['text']} |"
        f" closed form {c['closed_form']['text']} | brute force {c['brute_force']['text']}"
        for c in payload["classes"]
    ]
    assert text == "\n".join(rows + ["all routes agree"]) + "\n"
    assert payload["classes"][-1]["brute_force"] == {"kind": "skipped", "text": "trivial class"}


def test_cohomology_oracle_json_marks_a_guarded_brute_force(capsys):
    code, out, _ = invoke(
        capsys, "cohomology", "oracle", "--builtin", "surface:C2", "--backend", "ff:4099,2",
        "--json",
    )
    assert code == 0
    skipped = {"kind": "skipped", "text": "skipped (guard)"}
    assert skipped in [c["brute_force"] for c in json.loads(out)["classes"]]


def test_cohomology_oracle_guard_bounds_the_work(capsys):
    """A 5.76 M-assignment brute force over C4 (92 M units of work with the
    16 group pairs per assignment) is refused before it starts."""
    start = time.perf_counter()
    code, out, _ = invoke(
        capsys, "cohomology", "oracle", "--builtin", "surface:C4", "--backend", "ff:7,4"
    )
    assert time.perf_counter() - start < 10.0
    assert code == 0
    assert "brute force skipped (guard)" in out and out.endswith("all routes agree\n")


def test_cohomology_oracle_disagreement_exits_one_with_json(capsys, monkeypatch):
    from toricforms import cohomology
    from toricforms.exact_linalg import FGAbelianGroup

    monkeypatch.setattr(
        cohomology, "hom_class_h1", lambda fan, hom, backend: FGAbelianGroup.from_factors([2])
    )
    argv = ["cohomology", "oracle", "--builtin", "surface:C2", "--backend", "ff:3,2"]
    code, out, _ = invoke(capsys, *argv)
    assert code == 1
    assert out.endswith("ROUTE DISAGREEMENT\n")
    code, out, _ = invoke(capsys, *argv, "--json")
    assert code == 1
    assert json.loads(out)["all_agree"] is False


@pytest.mark.parametrize("verb", ["validate", "aut"])
def test_fan_without_rays_is_a_domain_error(capsys, monkeypatch, verb):
    monkeypatch.setattr("sys.stdin", io.StringIO('{"rank": 1, "rays": [], "cones": []}'))
    code, out, err = invoke(capsys, "fan", verb, "--stdin")
    assert code == 1 and out == ""
    assert err.startswith("error: no rays")


_BOOLEAN_FAN = '{"rank": true, "rays": [[true], [-1]], "cones": [[0], [1]]}'


def test_fan_json_booleans_are_a_format_error(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(_BOOLEAN_FAN))
    code, out, err = invoke(capsys, "fan", "validate", "--stdin", "--json")
    assert (code, out, err) == (1, "", "error: rank must be a positive integer\n")
    # the check is no assert: it still fires under python -O
    script = "import sys\nfrom toricforms.cli import run\nsys.exit(run(sys.argv[1:]))\n"
    child = subprocess.run(
        [sys.executable, "-O", "-c", script, "fan", "validate", "--stdin", "--json"],
        input=_BOOLEAN_FAN,
        capture_output=True,
        text=True,
        timeout=60,
        env={"PYTHONPATH": str(Path(toricforms.__file__).resolve().parents[1])},
    )
    assert (child.returncode, child.stdout) == (1, "")
    assert child.stderr == "error: rank must be a positive integer\n"


def test_cohomology_oracle_needs_ff(capsys):
    code, _, _ = invoke(
        capsys, "cohomology", "oracle", "--builtin", "hexagon", "--backend", "real"
    )
    assert code == 1


@pytest.mark.parametrize("verb", ["classify fan", "cohomology oracle"])
def test_galois_degree_1001_has_only_the_trivial_class(capsys, verb):
    """1001 = 7 * 11 * 13 is prime to the order of every hexagon symmetry,
    so the one twisting class is the trivial one: exit 0 with its row."""
    code, out, err = invoke(capsys, *verb.split(), "--builtin", "hexagon", "--backend", "ff:2,1001")
    assert (code, err) == (0, "")
    if verb == "classify fan":
        assert out == (
            "fan hexagon: group C1001, backend F_2^1001/F_2\n"
            "  trivial                          H^1 = 1                [FORMS_CLASSIFIED]\n"
            "  total forms: 1\n"
        )
    else:
        assert out == (
            "class 0: norm route 1 | closed form 1 | brute force trivial class\n"
            "all routes agree\n"
        )


# ---------------------------------------------------------------------------
# table verb
# ---------------------------------------------------------------------------


def test_table_surface(capsys):
    code, out, _ = invoke(capsys, "table", "surface")
    assert code == 0
    assert "D12" in out and "Br(k|K)" in out
    assert "unresolved" in out


def test_table_surface_json(capsys):
    code, out, _ = invoke(capsys, "table", "surface", "--json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["rows"]) == 13
    by_label = {row["label"]: row for row in payload["rows"]}
    assert by_label["D2'"]["h1"]["text"] == "1"


def test_table_surface_real(capsys):
    code, out, _ = invoke(capsys, "table", "surface", "--real", "--json")
    assert code == 0
    payload = json.loads(out)
    by_label = {row["label"]: row for row in payload["rows"]}
    assert by_label["C2"]["real"]["text"] == "Z/2 + Z/2"
    assert by_label["D8"]["real"] is None


# ---------------------------------------------------------------------------
# usage errors
# ---------------------------------------------------------------------------


def test_unknown_verb(capsys):
    code, _, _ = invoke(capsys, "frobnicate")
    assert code == 2


def test_backend_syntax_errors(capsys):
    code, _, _ = invoke(
        capsys, "classify", "projective", "-n", "1", "--backend", "bogus"
    )
    assert code == 2
    code, _, _ = invoke(
        capsys, "classify", "projective", "-n", "1", "--backend", "ff:2"
    )
    assert code == 2


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--group", "cyclic:\u00b2", "--group expects cyclic:d"),
        ("--group", "cyclic:\u0663", "--group expects cyclic:d"),
        ("--backend", "ff:\u00b2,2", "--backend ff expects the form ff:q,d"),
        ("--backend", "ff:3,\u0663", "--backend ff expects the form ff:q,d"),
    ],
)
def test_non_ascii_digits_are_usage_errors(capsys, option, value, message):
    """`str.isdigit` accepts digits `int` refuses (superscript two) and
    digits of other scripts (Arabic-Indic three); only ASCII ones count."""
    backend = [] if option == "--backend" else ["--backend", "real"]
    code, out, err = invoke(capsys, "classify", "projective", "-n", "1", *backend, option, value)
    assert code == 2
    assert out == "" and err == f"usage error: {message}\n"


def test_non_ascii_digits_name_no_builtin(capsys):
    code, out, err = invoke(capsys, "fan", "validate", "--builtin", "projective:\u00b2")
    assert code == 1
    assert out == "" and err == "error: projective fans need a dimension of at least 1, got '\u00b2'\n"


def test_backend_ff_requires_prime_power(capsys):
    code, _, err = invoke(
        capsys, "classify", "projective", "-n", "1", "--backend", "ff:6,2"
    )
    assert code == 1
    assert "error: finite-field backend needs a prime power, got q=6" in err


def test_backend_ff_huge_prime_exits_in_bounded_time(capsys):
    start = time.perf_counter()
    code, out, err = invoke(
        capsys, "classify", "projective", "-n", "1", "--backend", "ff:1000000000000000003,2"
    )
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert out == ""
    assert err == "error: cannot factor 1000000000000000003: only numbers up to 2**40 are factored\n"


@pytest.mark.parametrize(
    "backend, message",
    [
        ("ff:2,20000", "cyclic group order must be in 1..10000, got 20000"),
        ("ff:3,0", "finite-field backend needs degree d >= 1, got d=0"),
    ],
)
def test_backend_ff_degree_out_of_range(capsys, backend, message):
    code, out, err = invoke(capsys, "classify", "projective", "-n", "3", "--backend", backend)
    assert code == 1
    assert out == "" and err == f"error: {message}\n"


def test_symbolic_backend(tmp_path, capsys):
    data = {
        "Q": {"invariant_factors": [2]},
        "images": [],
    }
    path = tmp_path / "tower.json"
    path.write_text(json.dumps(data))
    code, out, _ = invoke(
        capsys,
        "classify",
        "projective",
        "-n",
        "1",
        "--backend",
        f"symbolic:{path}",
        "--group",
        "cyclic:2",
        "--json",
    )
    assert code == 0
    assert json.loads(out)["total"] == 3


# Q = k*/N(K*) = Z/4, and the norms from the fixed field of the order-2
# subgroup of Z/4, the quadratic subfield, are 2 Z/4 in Q
Z4_NORM_DATA = {
    "Q": {"invariant_factors": [4]},
    "images": [{"subgroup_gens": [2], "subgroup_of_Q": [[2]]}],
}


@pytest.mark.parametrize("n, total", [(1, 3), (2, 2), (3, 8)])
def test_symbolic_classify_fan_agrees_with_classify_projective(tmp_path, capsys, n, total):
    """Twists that factor through Z/2 get the norm quotient over their
    orbit stabilizers in Z/4, as the partitions of classify projective do."""
    path = tmp_path / "z4.json"
    path.write_text(json.dumps(Z4_NORM_DATA))
    backend = ("--backend", f"symbolic:{path}", "--group", "cyclic:4", "--json")
    code, out, err = invoke(capsys, "classify", "fan", "--builtin", f"projective:{n}", *backend)
    assert (code, err) == (0, "")
    by_fan = json.loads(out)
    code, out, _ = invoke(capsys, "classify", "projective", "-n", str(n), *backend)
    assert code == 0
    by_partition = json.loads(out)
    assert by_fan["total"] == by_partition["total"] == total
    values = [sorted(e["h1"]["text"] for e in r["entries"]) for r in (by_fan, by_partition)]
    assert values[0] == values[1]


# Cl = Z + Z/3, and 3 divides q^d - 1 for each backend below
TORSION_FAN_JSON = json.dumps(
    {"rank": 2, "rays": [[2, -1], [-1, 2], [-1, -1]], "cones": [[0, 1], [1, 2], [0, 2]]}
)


@pytest.mark.parametrize("backend", ["ff:2,2", "ff:5,2", "ff:7,2", "ff:4,3"])
def test_classify_fan_over_finite_fields_with_class_group_torsion(tmp_path, capsys, backend):
    """H^1 of a connected group over a finite field vanishes (Lang), whatever
    torsion the class group has."""
    path = tmp_path / "torsion.json"
    path.write_text(TORSION_FAN_JSON)
    code, out, err = invoke(capsys, "classify", "fan", "--file", str(path), "--backend", backend, "--json")
    assert (code, err) == (0, "")
    entries = json.loads(out)["entries"]
    assert len(entries) == 2 and all(e["h1"]["text"] == "1" for e in entries)


def test_classify_fan_from_a_file_takes_no_smith_form(tmp_path, capsys, monkeypatch):
    """Validation reads full rank off one elimination of the rays, and
    `classify` reads H^1 off the cocharacter matrix: `classify fan --file`
    over C/R and F_q factors no matrix, on the product fans and on a fan
    with class-group torsion."""
    paths = [tmp_path / "torsion.json"]
    paths[0].write_text(TORSION_FAN_JSON)
    for name in PRODUCT_FAN_NAMES:
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(named_fan(name).to_json())
    factored = []

    def recording_smith_normal_form(m):
        factored.append(m)
        return smith_normal_form(m)

    monkeypatch.setattr(exact_linalg, "smith_normal_form", recording_smith_normal_form)
    monkeypatch.setattr(fans, "smith_normal_form", recording_smith_normal_form)
    for path in paths:
        for backend in ("real", "ff:2,2", "ff:2,3", "ff:3,4"):
            code, out, err = invoke(capsys, "classify", "fan", "--file", str(path), "--backend", backend)
            assert (code, err) == (0, "") and "total forms" in out
    assert factored == []


_TORSION_ORACLE_ROWS = (
    "class 0: norm route skipped (assumption) | closed form 1 | brute force 1\n"
    "class 1: norm route 1 | closed form 1 | brute force trivial class\n"
)


@pytest.mark.parametrize("backend", ["ff:2,2", "ff:5,2", "ff:7,2", "ff:4,3"])
def test_oracle_skips_the_norm_route_on_class_group_torsion(tmp_path, capsys, backend):
    """The norm route assumes the torsion factor 3 invertible on the units,
    which fails here: it is reported skipped, and the closed form and the
    brute force still check each other."""
    path = tmp_path / "torsion.json"
    path.write_text(TORSION_FAN_JSON)
    code, out, err = invoke(capsys, "cohomology", "oracle", "--file", str(path), "--backend", backend)
    assert (code, out, err) == (0, _TORSION_ORACLE_ROWS + "all routes agree\n", "")


def test_oracle_with_a_single_route_exits_one(tmp_path, capsys):
    """Over F_4099, the brute force is guarded and the norm route's torsion
    assumption fails: only the closed form runs for class 0, so nothing is
    checked."""
    path = tmp_path / "torsion.json"
    path.write_text(TORSION_FAN_JSON)
    argv = ["cohomology", "oracle", "--file", str(path), "--backend", "ff:4099,2"]
    code, out, err = invoke(capsys, *argv)
    assert (code, err) == (1, "")
    assert out == (
        "class 0: norm route skipped (assumption) | closed form 1 | brute force skipped (guard)\n"
        "class 1: norm route 1 | closed form 1 | brute force trivial class\n"
        "UNCHECKED: only the closed form ran, for class 0\n"
    )
    code, out, _ = invoke(capsys, *argv, "--json")
    assert code == 1
    first = json.loads(out)["classes"][0]
    assert first["norm_route"] == {"kind": "skipped", "text": "skipped (assumption)"}
    assert first["brute_force"] == {"kind": "skipped", "text": "skipped (guard)"}


_BUDGET_ERROR = (
    "error: the fan has more than 50000 symmetries\n"
    "hint: `toricforms classify projective -n N` classifies the forms of projective"
    " space without building its symmetry group\n"
)


@pytest.mark.parametrize(
    "verb", [["fan", "aut"], ["classify", "fan", "--backend", "real"]], ids=" ".join
)
def test_symmetry_budget_refuses_projective_8(capsys, verb):
    """S_9 has 362,880 elements, past the symmetry budget: exit 1 with a hint,
    in bounded time (about 5 ms on a 2-core container: the basic orbits of
    the stabilizer chain pass the budget before any element is listed), also
    under python -O."""
    argv = [*verb, "--builtin", "projective:8"]
    start = time.perf_counter()
    code, out, err = invoke(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (1, "", _BUDGET_ERROR)
    script = "import sys\nfrom toricforms.cli import run\nsys.exit(run(sys.argv[1:]))\n"
    child = subprocess.run(
        [sys.executable, "-O", "-c", script, *argv],
        capture_output=True,
        text=True,
        timeout=60,
        env={"PYTHONPATH": str(Path(toricforms.__file__).resolve().parents[1])},
    )
    assert (child.returncode, child.stdout, child.stderr) == (1, "", _BUDGET_ERROR)


# budget -> (library call past it, argv past it, fan JSON on stdin)
_BUDGETS = {
    "fans.MAX_FAN_SIZE": (
        lambda: validate_fan(builtin_fan("projective:100")),
        ["fan", "validate", "--builtin", "projective:100"],
        None,
    ),
    "fans.MAX_FACE_MINORS": (
        lambda: validate_fan(_disjoint_cones(10)),
        ["fan", "validate", "--stdin"],
        _disjoint_cones(10).to_json(),
    ),
    "fan_aut.MAX_AUT_ORDER": (
        lambda: automorphism_group(builtin_fan("hexagon")),
        ["fan", "aut", "--builtin", "hexagon"],
        None,
    ),
    "galois.MAX_GROUP_ORDER": (
        lambda: GroupSpec.cyclic(10_001),
        ["classify", "projective", "-n", "2", "--backend", "ff:2,10001"],
        None,
    ),
    "galois._MAX_FACTORED": (
        lambda: FiniteFieldBackend(2199023255579, 2),
        ["classify", "projective", "-n", "2", "--backend", "ff:2199023255579,2"],
        None,
    ),
    "cohomology.MAX_COCYCLE_CHECKS": (
        lambda: brute_force_h1_finite(
            FiniteModule(GroupSpec.cyclic(2), (2_500_001,), IntMatrix.identity(1))
        ),
        ["cohomology", "oracle", "--builtin", "surface:C2", "--backend", "ff:4099,2"],
        None,
    ),
    "classify.MAX_PROJECTIVE_CELLS": (
        lambda: classify_projective(1000, RealComplexBackend()),
        ["classify", "projective", "-n", "1000", "--backend", "real"],
        None,
    ),
}


@pytest.mark.parametrize("budget", list(_BUDGETS))
def test_every_budget_raises_too_large(budget, monkeypatch, capsys):
    """Past any size budget the library raises fans.TooLarge itself, within
    1 s (the symmetry budget with a small patched limit).  The command line
    prints its message after `error: ` and exits 1; the oracle alone catches
    the brute force's TooLarge and reports that route as skipped."""
    call, argv, stdin = _BUDGETS[budget]
    if budget == "fan_aut.MAX_AUT_ORDER":
        monkeypatch.setattr(fan_aut, "MAX_AUT_ORDER", 11)  # the hexagon has 12
    start = time.perf_counter()
    with pytest.raises(TooLarge) as refused:
        call()
    assert time.perf_counter() - start < 1.0
    assert refused.type is TooLarge
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code, out, err = invoke(capsys, *argv)
    if budget == "cohomology.MAX_COCYCLE_CHECKS":
        assert (code, err) == (0, "") and "brute force skipped (guard)" in out
    else:
        assert (code, out, err) == (1, "", f"error: {refused.value}\n")


def test_symmetry_budget_holds_on_a_kept_group(monkeypatch, capsys):
    """The hexagon's group is searched and kept first; a budget lowered
    afterwards still refuses it, in the library and on the command line,
    whichever test searched the hexagon before."""
    hexagon = builtin_fan("hexagon")
    assert automorphism_group(hexagon).order == 12
    assert automorphism_group(hexagon) is automorphism_group(hexagon)
    monkeypatch.setattr(fan_aut, "MAX_AUT_ORDER", 11)
    with pytest.raises(TooLarge, match="more than 11 symmetries") as refused:
        automorphism_group(hexagon)
    assert refused.type is TooLarge
    code, out, err = invoke(capsys, "fan", "aut", "--builtin", "hexagon")
    assert (code, out, err) == (1, "", f"error: {refused.value}\n")
    code, out, err = invoke(capsys, "classify", "fan", "--builtin", "hexagon", "--backend", "real")
    assert (code, out, err) == (1, "", f"error: {refused.value}\n")


def test_symbolic_backend_needs_group(tmp_path, capsys):
    path = tmp_path / "tower.json"
    path.write_text(json.dumps({"Q": {"invariant_factors": [2]}, "images": []}))
    code, _, _ = invoke(
        capsys, "classify", "projective", "-n", "1", "--backend", f"symbolic:{path}"
    )
    assert code == 2


@pytest.mark.parametrize(
    "data, message",
    [
        ({"images": []}, "missing key 'Q'"),
        ({"Q": {}}, "missing key 'invariant_factors'"),
        ({"Q": {"invariant_factors": 3}}, "'invariant_factors' must be a list"),
        ({"Q": {"invariant_factors": [2]}}, "missing key 'images'"),
        ({"Q": {"invariant_factors": [2]}, "images": [{"subgroup_gens": [1]}]},
         "missing key 'subgroup_of_Q'"),
        ({"Q": {"invariant_factors": [2]}, "images": [{"subgroup_gens": 1, "subgroup_of_Q": []}]},
         "'subgroup_gens' must be a list"),
        ({"Q": {"invariant_factors": [2]},
          "images": [{"subgroup_gens": [1], "subgroup_of_Q": [[1, 0]]}]},
         "'subgroup_of_Q' columns must have length 1"),
    ],
)
def test_symbolic_backend_rejects_malformed_json(tmp_path, capsys, data, message):
    path = tmp_path / "tower.json"
    path.write_text(json.dumps(data))
    code, out, err = invoke(
        capsys, "classify", "projective", "-n", "1",
        "--backend", f"symbolic:{path}", "--group", "cyclic:2",
    )
    assert code == 1
    assert out == "" and err == f"error: symbolic backend JSON: {message}\n"


def test_projective_answers_do_not_depend_on_asserts(capsys):
    """`python -O` strips every assert; no answer may hide inside one."""
    argvs = [
        ["classify", "projective", "-n", "6", "--backend", backend, "--json"]
        for backend in (
            "real", "ff:2,12", "ff:4,6", "ff:5,6", "ff:3,8", "ff:11,4", "ff:2,16", "ff:17,4"
        )
    ] + [
        ["classify", "fan", "--builtin", fan, "--backend", backend, "--json"]
        for fan, backend in (
            ("surface:C6", "ff:3,6"), ("surface:D12", "real"), ("surface:C3", "ff:5,4"),
            ("surface:D4p", "ff:3,6"),
        )
    ]
    expected = ""
    for argv in argvs:
        code, out, _ = invoke(capsys, *argv)
        assert code == 0
        expected += out
    script = (
        "import json, sys\n"
        "from toricforms.cli import run\n"
        "sys.exit(max(run(argv) for argv in json.loads(sys.argv[1])))\n"
    )
    src = str(Path(toricforms.__file__).resolve().parents[1])
    child = subprocess.run(
        [sys.executable, "-O", "-c", script, json.dumps(argvs)],
        capture_output=True,
        text=True,
        timeout=120,
        env={"PYTHONPATH": src},
        check=True,
    )
    assert child.stdout == expected


@pytest.mark.parametrize(
    "argv",
    [
        ["fan", "info", "--builtin", "surface:C3", "--json"],
        ["fan", "info", "--builtin", "projective:3", "--json"],
        ["fan", "aut", "--builtin", "hexagon", "--json"],
        ["fan", "cox", "--builtin", "surface:D4p", "--json"],
        ["classify", "projective", "-n", "5", "--backend", "ff:2,12", "--json"],
        ["classify", "projective", "-n", "16", "--backend", "ff:2,12", "--json"],
        ["classify", "fan", "--builtin", "surface:C6", "--backend", "ff:3,6", "--json"],
        ["classify", "fan", "--builtin", "projective:3", "--backend", "real", "--json"],
        ["classify", "surface-real", "--builtin", "surface:D6", "--json"],
        ["cohomology", "h1-real", "--matrix", "[[0,1],[1,0]]", "--json"],
        ["cohomology", "oracle", "--builtin", "surface:D4", "--backend", "ff:7,2", "--json"],
        ["table", "surface", "--json"],
        ["table", "surface", "--real", "--json"],
    ],
)
def test_json_verbs_print_what_json_dumps_writes(capsys, argv):
    """Each --json verb prints exactly ``json.dumps(payload, indent=2)``."""
    code, out, _ = invoke(capsys, *argv)
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


@pytest.mark.parametrize("name", ["hexagon", "surface:C1", "projective:1", "projective:6"])
def test_fan_validate_json_is_json_dumps_plus_newline(capsys, name):
    code, out, _ = invoke(capsys, "fan", "validate", "--builtin", name, "--json")
    assert code == 0
    assert out == builtin_fan(name).to_json()


def test_projective_without_recursion_limit(capsys):
    """Partitions are generated with an explicit stack: one partition of
    1501 ones is no RecursionError."""
    code, out, err = invoke(capsys, "classify", "projective", "-n", "1500", "--backend", "ff:3,1")
    assert code == 0 and err == ""
    assert "total forms: 1" in out


@pytest.mark.parametrize(
    "n, backend", [("900", "real"), ("1000", "ff:2,12"), ("100000", "real"), ("303", "real")]
)
def test_projective_size_check_is_one_line_error(capsys, n, backend):
    start = time.perf_counter()
    code, out, err = invoke(capsys, "classify", "projective", "-n", n, "--backend", backend)
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert err.startswith(f"error: projective:{n} over a degree-") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# bounded fuzzing: any input ends with exit code 0, 1 or 2
# ---------------------------------------------------------------------------

_SMALL = st.integers(-3, 3)
_FUZZ_BASES = tuple(
    builtin_fan(name).to_dict()
    for name in ("hexagon", "surface:C2", "surface:D4", "projective:1", "projective:3")
)
_JSON_JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 5) | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["rank", "rays", "cones", "x"]), inner, max_size=4),
    max_leaves=12,
)


_EDITS = ["drop cone", "change ray", "add ray", "grow cone", "add cone", "rank"]
_BOOLEAN_EDITS = ["boolean ray entry", "boolean rank"]


@st.composite
def _edited_fan(draw, with_boolean: bool = False) -> dict:
    """A builtin fan's JSON after up to three small edits; `with_boolean`
    makes the last one put a JSON boolean into a ray or the rank."""
    fan = json.loads(json.dumps(draw(st.sampled_from(_FUZZ_BASES))))
    rays, cones = fan["rays"], fan["cones"]
    edits = draw(st.lists(st.sampled_from(_EDITS + _BOOLEAN_EDITS), max_size=3))
    if with_boolean:
        edits.append(draw(st.sampled_from(_BOOLEAN_EDITS)))
    for edit in edits:
        filled = [ray for ray in rays if ray]
        if edit == "drop cone" and cones:
            cones.pop(draw(st.integers(0, len(cones) - 1)))
        elif edit in ("change ray", "boolean ray entry") and filled:
            ray = draw(st.sampled_from(filled))
            ray[draw(st.integers(0, len(ray) - 1))] = draw(
                _SMALL if edit == "change ray" else st.booleans()
            )
        elif edit == "add ray" and type(fan["rank"]) is int:
            rays.append(draw(st.lists(_SMALL, min_size=fan["rank"], max_size=fan["rank"])))
        elif edit == "grow cone" and cones:
            draw(st.sampled_from(cones)).append(draw(st.integers(0, len(rays))))
        elif edit == "add cone":
            cones.append(draw(st.lists(st.integers(0, len(rays)), max_size=3)))
        elif edit == "rank":
            fan["rank"] = draw(st.integers(0, 3))
        elif edit in _BOOLEAN_EDITS:  # also a boolean ray entry with no entry to take it
            fan["rank"] = draw(st.booleans())
    return fan


def _has_boolean(fan: dict) -> bool:
    return type(fan["rank"]) is bool or any(type(x) is bool for ray in fan["rays"] for x in ray)


_FAN_TEXT = st.one_of(
    _edited_fan().map(json.dumps),
    st.fixed_dictionaries(
        {
            "rank": st.integers(0, 4),
            "rays": st.lists(st.lists(_SMALL, max_size=4), max_size=6),
            "cones": st.lists(st.lists(st.integers(-1, 7), max_size=4), max_size=6),
        }
    ).map(json.dumps),
    _JSON_JUNK.map(json.dumps),
    st.text(max_size=20),
)
# (q^d - 1)^rank stays small, so a brute force the guard lets through is quick
_BACKEND = st.one_of(
    st.sampled_from(
        ["real", "ff:2,3", "ff:4,3", "ff:2,1001", "symbolic:SYMBOLIC", "ff:", "ff:2", "ff:a,b"]
    ),
    st.builds("ff:{},{}".format, st.integers(-2, 7), st.integers(-2, 2)),
    st.text(max_size=8),
)
_GROUP = st.one_of(
    st.builds("{}:{}".format, st.sampled_from(["cyclic", "dihedral", "x"]), st.integers(-1, 12)),
    st.sampled_from(["cyclic:", "cyclic", "dihedral:-2"]),
    st.text(max_size=8),
)
_FAN_VERBS = ("fan validate", "fan info", "fan aut", "fan cox", "classify fan",
              "classify surface-real", "cohomology oracle")


@st.composite
def _argv(draw) -> list[str]:
    verb = draw(st.sampled_from(_FAN_VERBS + ("classify projective", "cohomology h1-real")))
    argv = verb.split()
    if verb in _FAN_VERBS:
        for source in draw(st.lists(st.sampled_from(["--stdin", "--file", "--builtin"]), max_size=2)):
            argv.append(source)
            if source == "--file":
                argv.append("FAN")
            elif source == "--builtin":
                argv.append(draw(st.sampled_from(
                    ["hexagon", "surface:C2", "projective:0", "projective:2", "projective:x", "nope"]
                )))
    if verb in ("classify fan", "classify projective", "cohomology oracle") and draw(st.booleans()):
        argv += ["--backend", draw(_BACKEND)]
    if verb in ("classify fan", "classify projective") and draw(st.booleans()):
        argv += ["--group", draw(_GROUP)]
    if verb == "classify projective":
        argv += ["-n", draw(st.one_of(st.integers(-3, 30).map(str), st.text(max_size=4)))]
    if verb == "cohomology h1-real":
        matrix = st.lists(st.lists(_SMALL, max_size=3), max_size=3).map(json.dumps)
        argv += ["--matrix", draw(st.one_of(matrix, st.text(max_size=6)))]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


# a 10 s deadline per input, against ~20 ms typical: it catches hangs only
@settings(max_examples=150, deadline=10_000)
@given(argv=_argv(), fan_text=_FAN_TEXT, symbolic_text=_JSON_JUNK.map(json.dumps))
def test_cli_fuzz_ends_with_a_known_exit_code(tmp_path_factory, argv, fan_text, symbolic_text):
    """Garbage fans (from --stdin or --file), backends, groups, -n values and
    matrices end in exit code 0, 1 or 2, without a traceback and in bounded
    time."""
    root = tmp_path_factory.getbasetemp()
    fan_file, symbolic_file = root / "fuzz_fan.json", root / "fuzz_symbolic.json"
    fan_file.write_text(fan_text)
    symbolic_file.write_text(symbolic_text)
    argv = [
        str(fan_file) if a == "FAN" else a.replace("SYMBOLIC", str(symbolic_file))
        for a in argv
    ]
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(fan_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    finally:
        sys.stdin = stdin
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


@settings(max_examples=40, deadline=10_000)
@given(fan=_edited_fan(with_boolean=True), verb=st.sampled_from(_FAN_VERBS))
def test_cli_fuzz_boolean_fans_exit_one(tmp_path_factory, fan, verb):
    """An edited fan with a JSON boolean as a ray entry or as the rank is a
    format error (exit 1) for every verb that reads a fan."""
    assert _has_boolean(fan)
    fan_file = tmp_path_factory.getbasetemp() / "fuzz_boolean_fan.json"
    fan_file.write_text(json.dumps(fan))
    argv = verb.split() + ["--file", str(fan_file)]
    if verb in ("classify fan", "cohomology oracle"):
        argv += ["--backend", "ff:2,3"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert (code, out.getvalue()) == (1, "")
    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


_LARGE_REPORT_SCRIPT = """
import hashlib, json, resource, sys
from toricforms.classify import classify_projective
from toricforms.cli import run
from toricforms.galois import RealComplexBackend

before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
code = run(["classify", "projective", "-n", "200", "--backend", "real", "--json"])
sys.stdout.flush()
grown = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) * 1024
text = classify_projective(200, RealComplexBackend()).to_json()
digest = hashlib.sha256(text.encode() + b"\\n").hexdigest()
sys.stderr.write(json.dumps({"code": code, "grown": grown, "length": len(text), "sha256": digest}))
"""


@pytest.mark.parametrize("json_mode", [True, False])
def test_a_report_builds_only_the_form_it_writes(capsys, monkeypatch, json_mode):
    """Under --json a report's text lines are never formatted, and without
    it its JSON payload is never built."""

    def refuse(self):
        raise AssertionError("built the form that is not written")

    monkeypatch.setattr(ClassificationReport, "lines" if json_mode else "to_json_dict", refuse)
    argv = ["classify", "projective", "-n", "3", "--backend", "real"] + ["--json"] * json_mode
    code, out, err = invoke(capsys, *argv)
    assert (code, err) == (0, "") and ("total forms: 4" in out) != json_mode


def test_large_report_is_streamed(tmp_path):
    """A report of 61 MB of JSON (`classify projective -n 200`) reaches the
    file byte for byte as `to_json()` plus a newline, and no whole text of
    it is ever held: the process grows by under a tenth of the text's
    length (0.04 times it streamed, 1.05 times when its whole text was
    built and written in 64 KiB slices)."""
    out = tmp_path / "report.json"
    with out.open("wb") as stdout:
        child = subprocess.run(
            [sys.executable, "-c", _LARGE_REPORT_SCRIPT],
            stdout=stdout,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
            env={"PYTHONPATH": str(Path(toricforms.__file__).resolve().parents[1])},
            check=True,
        )
    result = json.loads(child.stderr)
    assert result["code"] == 0
    assert result["length"] > 60_000_000
    assert hashlib.sha256(out.read_bytes()).hexdigest() == result["sha256"]
    assert result["grown"] < 0.1 * result["length"]
