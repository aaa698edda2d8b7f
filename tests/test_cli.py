"""End-to-end tests for the command-line interface.

Every verb is exercised through ``run(argv)`` with captured output; the
validate round-trip feeds the JSON emitted by one invocation into the next
via stdin and demands byte-for-byte stability.
"""

from __future__ import annotations

import io
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import toricforms
from toricforms.cli import run

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
    assert err.strip()


def test_classify_fan_dihedral_group_mismatch(capsys):
    code, _, _ = invoke(
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
    assert code == 1


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
    code, _, _ = invoke(capsys, "cohomology", "h1-real", "--matrix", "[[1,2")
    assert code == 2


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


def test_cohomology_oracle_needs_ff(capsys):
    code, _, _ = invoke(
        capsys, "cohomology", "oracle", "--builtin", "hexagon", "--backend", "real"
    )
    assert code == 1


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
