"""Tests of the benchmark itself; run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import ast
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench_catalog
import bench_checks
import bench_trace
import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def cli():
    return run.setup(0)[1]


def _ids(workload: str, seed: int, index: int = 0) -> list[str]:
    return [op.id for op in bench_catalog.pass_order(workload, seed, index)]


@pytest.mark.parametrize("workload", sorted(bench_catalog.CATALOGS))
def test_same_seed_same_ops_and_other_seed_other_ops(workload):
    assert _ids(workload, 7) == _ids(workload, 7)
    assert _ids(workload, 7, 1) == _ids(workload, 7, 1)
    assert _ids(workload, 7) != _ids(workload, 8)
    assert _ids(workload, 7, 0) != _ids(workload, 7, 1)


@pytest.mark.parametrize("workload", sorted(bench_catalog.CATALOGS))
def test_every_pass_is_the_catalog(workload):
    catalog = sorted(op.id for op in bench_catalog.CATALOGS[workload])
    for seed in range(5):
        for index in range(3):
            assert sorted(_ids(workload, seed, index)) == catalog


def test_expected_answers_cover_every_op():
    expected = bench_checks.load_expected()
    ids = [op.id for ops in bench_catalog.CATALOGS.values() for op in ops]
    assert len(ids) == len(set(ids)), "op ids must be unique across workloads"
    assert sorted(ids) == sorted(expected)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(bench_catalog.CATALOGS)


def test_product_fans_are_smooth_and_valid(cli):
    fans = sys.modules["toricforms.fans"]
    for dims in bench_catalog.PRODUCT_FANS.values():
        fan = fans.Fan.from_dict(bench_catalog.product_fan(dims))
        fans.validate_fan(fan)
        assert fan.rank == sum(dims) and fans.is_smooth(fan)


def test_checks_use_no_assert():
    for module in (bench_checks, run):
        tree = ast.parse(Path(module.__file__).read_text())
        assert not any(isinstance(node, ast.Assert) for node in ast.walk(tree))


def test_checks_catch_a_wrong_total(cli):
    op = next(o for o in bench_catalog.CATALOGS["surface_norm"] if o.id.endswith("real"))
    result = run.run_op(cli, op.argv_in(run.WORK), run.OP_CAP_S)
    expected = bench_checks.load_expected()[op.id]
    assert bench_checks.check(expected, op.argv, 0, result.stdout) == ([], True)
    report = json.loads(result.stdout)
    report["total"] += 1
    problems, same = bench_checks.check(expected, op.argv, 0, json.dumps(report, indent=2))
    assert not same
    assert any("sum of entry orders" in p for p in problems)
    assert any("projection differs" in p for p in problems)


def test_oracle_disagreement_is_a_failure():
    argv = ("cohomology", "oracle", "--builtin", "surface:C2", "--backend", "ff:7,2")
    stdout = "class 0: norm route 1 | closed form Z/2 | brute force 1\nROUTE DISAGREEMENT\n"
    projection, _ = bench_checks.project(argv, stdout)
    problems = bench_checks.invariant_problems(argv, projection)
    assert len(problems) == 2


def _bindings():
    """Every module-level and traced-class binding of the toricforms package."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "toricforms" or name.startswith("toricforms."):
            for attr, obj in vars(mod).items():
                out[(name, attr)] = obj
    for layer, cls_name, attr, _ in bench_trace.SPAN_METHODS + bench_trace.COUNT_METHODS:
        cls = getattr(sys.modules[f"toricforms.{layer}"], cls_name)
        out[(cls.__qualname__, attr)] = cls.__dict__[attr]
    return out


def test_tracer_restores_every_binding(cli):
    before = _bindings()
    tracer = bench_trace.Tracer()
    tracer.install()
    try:
        during = _bindings()
        # helpers imported by name are patched where they are bound
        for key in (
            ("toricforms.fans", "smith_normal_form"),
            ("toricforms.cohomology", "basis_mod"),
            ("toricforms.cli", "classify_fan"),
        ):
            assert during[key] is not before[key]
    finally:
        tracer.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_traced_c6_op_makes_201_snf_calls(cli):
    tracer = bench_trace.Tracer()
    tracer.install()
    try:
        tracer.begin_op(0)
        result = run.run_op(
            cli, ["classify", "fan", "--builtin", "surface:C6", "--backend", "ff:3,6"], 60
        )
        tracer.end_op()
    finally:
        tracer.restore()
    assert result.code == 0
    assert tracer.calls["exact_linalg.smith_normal_form"] == 201
    self_s = tracer.self_times()
    assert 0 < self_s["exact_linalg.smith_normal_form"] < tracer.root_time()
    assert abs(sum(self_s.values()) - tracer.root_time()) < 1e-6 * len(tracer.spans) + 1e-3


def test_per_layer_names_match_benchmark_json(cli):
    tracer = bench_trace.Tracer()
    plain, traced = run.Tally(), run.Tally()
    ops = bench_catalog.pass_order("surface_norm", 1, 0)[:1]
    child = run.Optimized("surface_norm", 1)
    try:
        paired = run.op_by_op(cli, ops, bench_checks.load_expected(), plain, traced, tracer,
                              child, float("inf"))
    finally:
        child.close()
    assert len(paired.overhead) == len(paired.optimized) == 1
    assert paired.child_attempted == 2 and not paired.child_problems
    assert traced.failed == plain.failed == 0 and plain.attempted == 2
    names = set(run._layer_metrics(tracer, traced)) | set(run._traced_setup(tracer))
    names |= {"trace.overhead_ratio", "checks.assert_share"}
    assert names == {m["name"] for m in BENCHMARK["per_layer"]}


def test_op_times_are_scaled_by_the_kernel_timings_around_them():
    tally = run.Tally(calibs=[run.CALIB_REF_S] * 3 + [2 * run.CALIB_REF_S] * 4)
    tally.wall, tally.at, tally.bad = [1.0, 1.0], [0, 5], [False, True]
    assert tally.seconds() == [1.0, 0.5]
    assert tally.latencies() == [1.0, run.OP_CAP_S]


class _Hang:
    @staticmethod
    def run(argv):
        while True:
            pass


def test_an_op_that_hangs_is_stopped_and_failed():
    result = run.run_op(_Hang, [], cap=0.2)
    assert result.code is None and "overran" in result.error


def test_end_to_end_reports_the_benchmark_metrics():
    metrics, tally = run.end_to_end("projective_partitions", 1, 0.01, run.perf_counter())
    assert list(metrics) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert tally.failed == 0 and tally.attempted == len(
        bench_catalog.CATALOGS["projective_partitions"]
    )
    assert all(value > 0 for value, _ in metrics.values())


def test_without_the_program_the_runner_fails_and_prints_no_result():
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in BENCHMARK["paths"]:
        shutil.copytree(run.ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        BENCHMARK["command"] + ["--workload", "surface_norm", "--seed", "1", "--seconds", "1",
                                "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    shutil.rmtree(bare)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_a_garbled_oracle_line_is_a_failed_op():
    argv = ("cohomology", "oracle", "--builtin", "surface:C2", "--backend", "ff:7,2")
    problems, same = bench_checks.check({}, argv, 0, "class 0: norm route 1\nall routes agree\n")
    assert not same and problems and "unparsable" in problems[0]


def test_harrell_davis_median_and_tail():
    assert abs(run.harrell_davis(list(range(1, 101)), 0.5) - 50.5) < 1e-9
    # two clusters of op costs: the estimate moves smoothly between them
    low = run.harrell_davis([1.0] * 51 + [2.0] * 50, 0.5)
    high = run.harrell_davis([1.0] * 50 + [2.0] * 51, 0.5)
    assert 1.0 < low < high < 2.0 and high - low < 0.5
    values = [float(x) for x in range(200)]
    q = run.tail_quantile(len(values))
    assert 185.0 < run.harrell_davis(values, q) < 195.0
