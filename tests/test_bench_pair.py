"""`bench_pair.py` summaries and exit status on synthetic runs."""

import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "bench_pair.py"
_spec = importlib.util.spec_from_file_location("bench_pair", _PATH)
bench_pair = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pair)

METRICS = {"ops_per_s": True, "op_p50_ms": False}


def _result(ops_per_s: float, p50: float, failed: int = 0, attempted: int = 10) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "op_p50_ms": {"value": p50, "unit": "ms"},
        },
    }


def _run(workload: str, pair: int, side: str, result: dict) -> dict:
    return {"workload": workload, "pair": pair, "seed": 11 + pair, "side": side,
            "first": side == "parent", "result": result}


def test_summarize_counts_wins_ties_and_failures():
    runs = [
        # pair 0: the change wins both metrics; lower is better for op_p50_ms
        _run("w", 0, "parent", _result(10.0, 2.0)),
        _run("w", 0, "change", _result(12.0, 1.5)),
        # pair 1: ties, which count for neither side
        _run("w", 1, "parent", _result(10.0, 2.0)),
        _run("w", 1, "change", _result(10.0, 2.0)),
        # pair 2: the change loses both, and one of its ops failed
        _run("w", 2, "parent", _result(11.0, 1.0)),
        _run("w", 2, "change", _result(9.0, 3.0, failed=1)),
        # a workload with no complete pair reports only its failures
        _run("v", 0, "parent", _result(5.0, 1.0, failed=2, attempted=4)),
    ]
    summary = bench_pair.summarize(runs, METRICS)
    assert list(summary) == ["w", "v"]
    w = summary["w"]
    assert w["failed_ops"] == {"parent": "0/30", "change": "1/30"}
    assert w["ops_per_s"]["change_wins"] == "1/3"
    assert w["op_p50_ms"]["change_wins"] == "1/3"
    assert w["ops_per_s"]["parent"] == [10.0, 10.0, 10.5]
    assert w["op_p50_ms"]["change"] == [1.75, 2.0, 2.5]
    assert summary["v"] == {"failed_ops": {"parent": "2/4", "change": "0/0"}}


def _fake_main(monkeypatch, tmp_path: Path, wrong: tuple[str, int, str] | None) -> tuple[int, dict]:
    """`main` with git and perfbench replaced: every run returns the same
    result, except `wrong` = (workload, seed, side), which fails an op."""
    monkeypatch.setattr(bench_pair, "_benchmark", lambda: (("w", "v"), METRICS))
    monkeypatch.setattr(bench_pair, "_git", lambda *args: "0" * 40)
    monkeypatch.setattr(bench_pair, "_extract", lambda ref, dest: None)
    compiled = []
    monkeypatch.setattr(bench_pair, "_compile", lambda checkout: compiled.append(checkout.name))

    def run(checkout: Path, workload: str, seed: int) -> dict:
        # both trees hold their bytecode before the first run of either
        assert sorted(compiled) == ["side_c", "side_p"]
        side = "parent" if checkout.name == "side_p" else "change"
        return _result(10.0, 1.0, failed=int((workload, seed, side) == wrong))

    monkeypatch.setattr(bench_pair, "_run", run)
    out = tmp_path / "bench.json"
    code = bench_pair.main(["--parent", "A", "--change", "B", "--out", str(out)])
    return code, json.loads(out.read_text())


def test_main_exits_one_after_writing_when_a_run_is_not_correct(monkeypatch, tmp_path, capsys):
    runs = 2 * 2 * bench_pair.PAIRS
    code, report = _fake_main(monkeypatch, tmp_path, None)
    assert (code, len(report["runs"])) == (0, runs)
    code, report = _fake_main(monkeypatch, tmp_path, ("w", bench_pair.FIRST_SEED, "change"))
    assert (code, len(report["runs"])) == (1, runs)
    assert report["summary"]["w"]["failed_ops"] == {
        "parent": f"0/{10 * bench_pair.PAIRS}",
        "change": f"1/{10 * bench_pair.PAIRS}",
    }
    assert f"not correct: w seed {bench_pair.FIRST_SEED} change" in capsys.readouterr().err


def test_compile_writes_bytecode_for_every_source(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    for name in ("__init__.py", "mod.py"):
        (package / name).write_text("X = 1\n")
    bench_pair._compile(tmp_path)
    cached = sorted(p.name.split(".")[0] for p in (package / "__pycache__").glob("*.pyc"))
    assert cached == ["__init__", "mod"]
