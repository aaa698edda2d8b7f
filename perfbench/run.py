"""Benchmark runner for toricforms.

Usage, from the repository root::

    python3 perfbench/run.py --workload surface_norm --seed 1 --seconds 12 --trace 0

One process, one thread, closed loop: a single client sends the next op as
soon as the previous one returns.  An op is one in-process
``toricforms.cli.run(argv)`` call with stdout captured; its output is checked
against ``expected.json`` after the op's clock stops.  The run executes a
fixed number of whole passes over the workload's catalog, about ``--seconds``
of work on the seed commit (``bench_catalog.passes``); the seed orders each
pass.

Times are reported at reference speed.  The host's speed drifts by up to a
factor of two over tens of seconds (CPU time drifts with it, so it is no
remedy), so a fixed pure-Python calibration kernel is timed between every two
ops, and each op's wall time is scaled by ``CALIB_REF_S`` over the median
kernel time around it.  The kernel is independent of toricforms and runs with
the garbage collector off, so no change to the program moves it.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs pass 0 op
by op, each op untraced, in a ``python -O`` child process, traced
(``bench_trace``), and untraced and under ``-O`` once more, and prints the
per-layer metrics.  Either way the last stdout line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

The program is imported from ``src/`` next to this directory; without it the
runner exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import bench_catalog  # noqa: E402
import bench_checks  # noqa: E402
import bench_trace  # noqa: E402

SETUP_REPEATS = 3
OP_CAP_S = 30.0  # an op running longer is stopped and counted as failed
RUN_LIMIT_S = 140.0  # no new op starts after this much wall time
TAIL_BEYOND = 10  # samples beyond the tail percentile
CHILD_TIMEOUT_S = 60.0

#: Kernel seconds that define reference speed (about its median time between
#: ops on a shared 2-core x86-64 container, Python 3.11), and the kernel's size.
CALIB_REF_S = 0.003
CALIB_STEPS = 200
#: An op is scaled by the median of this many kernel timings on each side.
CALIB_SIDE = 2


class MissingProgram(Exception):
    """The toricforms sources are not next to the benchmark."""


class OpTimeout(Exception):
    """Raised inside an op that overran ``OP_CAP_S``."""


# ---------------------------------------------------------------------------
# calibration


def _calibration_kernel() -> int:
    """Fixed exact-integer work in the style of the program: row operations
    on a small integer matrix, list building and tuple-keyed dict lookups."""
    size = 8
    rows = [[(3 * i + 5 * j) % 11 - 5 for j in range(size)] for i in range(size)]
    seen: dict[tuple, int] = {}
    total = 0
    for step in range(CALIB_STEPS):
        k = step % size
        pivot = rows[k][k] or 1
        rows = [
            row if i == k else [(pivot * a - row[k] * b) % 65521 for a, b in zip(row, rows[k])]
            for i, row in enumerate(rows)
        ]
        key = tuple(rows[k])
        seen[key] = seen.get(key, 0) + 1
        total += len(seen)
    return total


def calibrate() -> float:
    """Seconds one run of the calibration kernel takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _calibration_kernel()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def to_reference(walls: list[float], at: list[int], calibs: list[float]) -> list[float]:
    """``walls`` at reference speed; ``calibs[at[i]]`` is the kernel timing
    just before step ``i`` and the next one follows it."""
    windows = (calibs[max(0, k - CALIB_SIDE + 1):k + CALIB_SIDE + 1] for k in at)
    return [wall * CALIB_REF_S / statistics.median(w) for wall, w in zip(walls, windows)]


# ---------------------------------------------------------------------------
# set-up


def _drop_program() -> None:
    for name in [n for n in sys.modules if n == "toricforms" or n.startswith("toricforms.")]:
        del sys.modules[name]


def load_program(pause=None):
    """Import toricforms afresh and warm every builtin fan; returns (step seconds, cli).

    The steps are the import and the warming of each fan, which validates
    it, searches its symmetries and identifies its GL(2, Z) class
    (``classify._surface_fan`` caches it).  ``pause`` runs after every step,
    off the clock.
    """
    _drop_program()
    start = perf_counter()
    cli = importlib.import_module("toricforms.cli")
    steps = [perf_counter() - start]
    if pause is not None:
        pause()
    classify = sys.modules["toricforms.classify"]
    for name in classify.BUILTIN_NAMES:
        start = perf_counter()
        classify.builtin_fan(name)
        steps.append(perf_counter() - start)
        if pause is not None:
            pause()
    return steps, cli


def _prepare() -> None:
    if not (SRC / "toricforms" / "__init__.py").is_file():
        raise MissingProgram(f"no toricforms sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    warnings.filterwarnings(
        "ignore", message=r"rank \d+ fan: face intersections", category=UserWarning
    )


def _setup_in_child() -> float:
    """Reference seconds of one set-up in a fresh interpreter (``setup_child``)."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-child"]
    try:
        done = subprocess.run(
            argv, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"set-up child timed out after {CHILD_TIMEOUT_S:.0f} s") from None
    if done.returncode != 0 or not done.stdout.strip():
        raise RuntimeError(f"set-up child exit {done.returncode}: {done.stderr.strip()[-300:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])["seconds"]


def setup_child() -> dict:
    """One timed set-up in this fresh process, a kernel timing between its steps."""
    _prepare()
    calibrate()  # a first, slower kernel run warms the interpreter's caches
    calibs = [calibrate()]
    steps, _cli = load_program(pause=lambda: calibs.append(calibrate()))
    return {"seconds": sum(to_reference(steps, list(range(len(steps))), calibs))}


def setup(repeats: int):
    """Write the generated fans and import the program; returns (setup_s, cli).

    ``setup_s`` is the median of ``repeats`` set-ups, each in a fresh child
    process, so that this process holds a single import of the program; it is
    None when ``repeats`` is 0.
    """
    _prepare()
    bench_catalog.write_fan_files(WORK)
    setup_s = None
    if repeats:
        setup_s = statistics.median(_setup_in_child() for _ in range(repeats))
    _steps, cli = load_program()
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise MissingProgram(f"imported toricforms from {cli.__file__}, not {SRC}")
    return setup_s, cli


# ---------------------------------------------------------------------------
# ops


_in_op = False


def _on_alarm(_signum, _frame) -> None:
    if _in_op:
        raise OpTimeout


@dataclass
class OpResult:
    seconds: float
    code: int | None
    stdout: str
    error: str | None  # set when the op raised or overran its cap


def run_op(cli, argv: list[str], cap: float) -> OpResult:
    """One ``cli.run`` call with stdout and stderr captured and a time cap."""
    global _in_op
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, cap)
    _in_op = True
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
        _in_op = False
    except OpTimeout:
        error = f"overran the {cap:.0f} s cap"
    except Exception as exc:  # an op that raises is a failed op, not a failed run
        error = f"raised {type(exc).__name__}: {exc}"
    finally:
        _in_op = False
        seconds = perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    if code not in (0, None):
        error = f"exit {code}: {err.getvalue().strip()[:200]}"
    return OpResult(seconds, code, out.getvalue(), error)


def verdict(op: bench_catalog.Op, result: OpResult, expected: dict) -> tuple[list[str], bool]:
    """(problems, raw stdout matches) of one finished op."""
    if result.error is not None:
        return [result.error], False
    return bench_checks.check(expected.get(op.id), op.argv, result.code, result.stdout)


@dataclass
class Tally:
    """Timings and verdicts of the ops one phase ran.

    ``calibs`` holds a kernel timing before every op and one after every
    pass; ``at[i]`` is the index of the timing just before op ``i``.
    """

    wall: list[float] = field(default_factory=list)
    at: list[int] = field(default_factory=list)
    calibs: list[float] = field(default_factory=list)
    bad: list[bool] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    raw_same: int = 0
    output_bytes: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, op: bench_catalog.Op, result: OpResult, expected: dict) -> None:
        self.attempted += 1
        self.wall.append(result.seconds)
        self.at.append(len(self.calibs) - 1)
        self.output_bytes += len(result.stdout.encode())
        problems, same = verdict(op, result, expected)
        self.raw_same += same
        self.bad.append(bool(problems))
        if problems:
            self.failed += 1
            self.problems.append(f"{op.id}: {'; '.join(problems)}")

    def seconds(self) -> list[float]:
        """Each op's seconds at reference speed."""
        return to_reference(self.wall, self.at, self.calibs)

    def latencies(self) -> list[float]:
        """``seconds()``, with a failed op counted as at least the cap."""
        return [max(s, OP_CAP_S) if bad else s for s, bad in zip(self.seconds(), self.bad)]

    def speed(self) -> float:
        """Reference seconds per wall second over the whole phase."""
        return CALIB_REF_S / statistics.median(self.calibs)


def run_pass(cli, ops, expected: dict, tally: Tally, stop_at: float) -> bool:
    """Run ``ops`` in order; False if the wall-clock limit cut the pass short."""
    complete = True
    for op in ops:
        remaining = stop_at - perf_counter()
        if remaining <= 0:
            complete = False
            break
        tally.calibs.append(calibrate())
        result = run_op(cli, op.argv_in(WORK), min(OP_CAP_S, remaining + 5.0))
        tally.add(op, result, expected)
    tally.calibs.append(calibrate())
    return complete


def tail_quantile(samples: int) -> float:
    """The highest quantile with ``TAIL_BEYOND`` samples beyond it."""
    return max(0.5, 1.0 - TAIL_BEYOND / samples)


def harrell_davis(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of quantile ``q``: a beta-weighted mean of the
    order statistics.  A catalog holds a few dozen distinct op costs, so the
    nearest rank jumps between two ops' costs when noise reorders them; this
    estimate moves smoothly instead."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 16  # midpoint rule per order statistic for the beta density
    width = 1.0 / (n * steps)
    weights = []
    for i in range(n):
        xs = ((i * steps + k + 0.5) * width for k in range(steps))
        weights.append(sum(
            math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x)) for x in xs
        ))
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# end-to-end run


def end_to_end(workload: str, seed: int, seconds: float, started: float) -> tuple[dict, Tally]:
    setup_s, cli = setup(SETUP_REPEATS)
    expected = bench_checks.load_expected()
    rss_before_ops = _rss_mb()
    catalog_size = len(bench_catalog.CATALOGS[workload])
    passes = bench_catalog.passes(workload, seconds)
    stop_at = started + RUN_LIMIT_S
    tally = Tally()
    for index in range(passes):
        if not run_pass(cli, bench_catalog.pass_order(workload, seed, index), expected,
                        tally, stop_at):
            break
    if tally.attempted == 0:
        raise RuntimeError("the run limit passed before the first op")
    latencies = tally.latencies()
    q = tail_quantile(len(latencies))
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": ((tally.attempted - tally.failed) / sum(latencies), "1/s"),
        "op_p50_ms": (harrell_davis(latencies, 0.5) * 1000, "ms"),
        "op_tail_ms": (harrell_davis(latencies, q) * 1000, "ms"),
        "peak_rss_mb": (_rss_mb(), "MB"),
    }
    print(
        f"workload {workload}, seed {seed}: {tally.attempted} ops in {passes} passes"
        f" of {catalog_size}, {sum(tally.wall):.3f} s of wall time inside ops;"
        f" host at {tally.speed():.3f} of reference speed"
    )
    print(f"  times are at reference speed (kernel {CALIB_REF_S * 1000:g} ms)")
    print(f"  setup_s      median of {SETUP_REPEATS} set-ups in fresh processes"
          " (import + warm 14 builtin fans)")
    print(f"  op_p50_ms, op_tail_ms   Harrell-Davis p50 and p{100 * q:.1f} of {len(latencies)}"
          f" ops ({TAIL_BEYOND} samples beyond p{100 * q:.1f})")
    print(f"  peak_rss_mb  {rss_before_ops:.1f} MB of it before the first op"
          " (harness plus one import of the program)")
    error_rate = tally.failed / tally.attempted
    print(f"  error_rate   {error_rate:g} ({tally.failed} failed of {tally.attempted} attempted)")
    return metrics, tally


# ---------------------------------------------------------------------------
# traced run


def replay(workload: str, seed: int) -> None:
    """Child side of ``Optimized``: for each op index read from stdin, run
    that op of pass 0 and answer with one JSON line."""
    _, cli = setup(0)
    expected = bench_checks.load_expected()
    ops = bench_catalog.pass_order(workload, seed, 0)
    print("ready", flush=True)
    for line in sys.stdin:
        op = ops[int(line)]
        result = run_op(cli, op.argv_in(WORK), OP_CAP_S)
        problems, _ = verdict(op, result, expected)
        print(json.dumps({"seconds": result.seconds, "problems": problems}), flush=True)


class Optimized:
    """A ``python -O`` child process that runs ops of pass 0 on request."""

    def __init__(self, workload: str, seed: int) -> None:
        WORK.mkdir(parents=True, exist_ok=True)
        self._stderr = (WORK / "replay-stderr.txt").open("w")
        self._proc = subprocess.Popen(
            [sys.executable, "-O", str(Path(__file__).resolve()), "--replay",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._stderr,
            text=True,
        )
        if self._proc.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError("the python -O child did not start; see replay-stderr.txt")

    def run(self, index: int) -> dict:
        """Seconds and problems of op ``index`` of pass 0, run in the child."""
        self._proc.stdin.write(f"{index}\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the python -O child ended early; see replay-stderr.txt")
        return json.loads(line)

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()
        self._stderr.close()


#: Span names whose self time is reported, and metric names of counted calls.
SELF_TIMES = (
    "exact_linalg.smith_normal_form",
    "exact_linalg.basis_mod",
    "fans.validate_fan",
    "fan_aut.automorphism_group",
    "fan_aut.FanAutGroup.inverse_indices",
    "galois.enumerate_hom_classes",
    "galois.kernel_reduction",
    "galois.FiniteFieldBackend.init",
    "galois.norm_quotient",
    "cohomology.h1_cyclic_norm_formula",
    "cohomology.h1_finite_field_torus",
    "cohomology.brute_force_h1_finite",
    "cohomology.finite_field_torus_module",
    "classify.classify_fan",
    "classify.classify_projective",
    "classify.ClassificationReport.to_json",
    "cli.run",
)
CALL_COUNTS = (
    ("exact_linalg.smith_normal_form", "exact_linalg.smith_normal_form.calls"),
    ("exact_linalg.IntMatrix.matmul", "exact_linalg.IntMatrix.matmul.calls"),
    ("exact_linalg.IntMatrix.apply", "exact_linalg.IntMatrix.apply.calls"),
    ("fans.validate_fan", "fans.validate_fan.calls_per_op"),
    ("fan_aut.FanAutGroup.mult_index", "fan_aut.FanAutGroup.mult_index.calls"),
    ("galois.FiniteFieldBackend.init", "galois.FiniteFieldBackend.init.calls"),
)


#: Set-up spans whose self time is reported (``setup.<name>.self_s``).
#: ``identify_gl2_class`` runs in no op, only while the builtin fans are warmed.
SETUP_SELF_TIMES = (
    "exact_linalg.smith_normal_form",
    "fans.validate_fan",
    "fan_aut.automorphism_group",
    "fan_aut.identify_gl2_class",
)


def _layer_metrics(tracer, traced: Tally) -> dict:
    """Per-op counts, and per-op self times at reference speed, of the traced ops."""
    n = max(traced.attempted, 1)
    speed = traced.speed()
    root = tracer.root_time()
    self_s = tracer.self_times()
    calls = tracer.calls
    metrics: dict[str, tuple[float, str]] = {}
    for name, metric in CALL_COUNTS:
        metrics[metric] = (calls.get(name, 0) / n, "calls/op")
    for name in SELF_TIMES:
        metrics[f"{name}.self_s"] = (self_s.get(name, 0.0) * speed / n, "s/op")
    snf_calls = calls.get("exact_linalg.smith_normal_form", 0)
    metrics["exact_linalg.smith_normal_form.share"] = (
        self_s.get("exact_linalg.smith_normal_form", 0.0) / root, "ratio")
    metrics["exact_linalg.smith_normal_form.distinct_ratio"] = (
        tracer.snf_distinct / snf_calls if snf_calls else 1.0, "ratio")
    metrics["exact_linalg.smith_normal_form.max_cells"] = (tracer.snf_max_cells, "cells")
    metrics["exact_linalg.smith_normal_form.max_entry_bits"] = (tracer.snf_max_bits, "bits")
    metrics["fan_aut.automorphism_group.max_order"] = (tracer.max_aut_order, "elements")
    metrics["galois.enumerate_hom_classes.classes"] = (tracer.hom_classes / n, "classes/op")
    metrics["cohomology.brute_force_h1_finite.assignments"] = (
        tracer.assignments / n, "assignments/op")
    metrics["cli.output_bytes"] = (traced.output_bytes / n, "B/op")
    for layer in bench_trace.LAYERS:
        layer_self = sum(t for name, t in self_s.items() if name.startswith(layer + "."))
        metrics[f"{layer}.self_share"] = (layer_self / root, "ratio")
    return metrics


def _traced_setup(tracer) -> dict:
    """Warm the builtin fans again with the tracer on, as op ``SETUP_OP``."""
    classify = sys.modules["toricforms.classify"]
    classify._surface_fan.cache_clear()
    calibs = [calibrate() for _ in range(CALIB_SIDE)]
    tracer.install()
    try:
        tracer.begin_op(bench_trace.SETUP_OP)
        for name in classify.BUILTIN_NAMES:
            classify.builtin_fan(name)
        tracer.end_op()
    finally:
        tracer.restore()
    calibs += [calibrate() for _ in range(CALIB_SIDE)]
    speed = CALIB_REF_S / statistics.median(calibs)
    self_s = tracer.self_times(setup=True)
    metrics = {"setup.traced_s": (tracer.root_time(setup=True) * speed, "s")}
    for name in SETUP_SELF_TIMES:
        metrics[f"setup.{name}.self_s"] = (self_s.get(name, 0.0) * speed, "s")
    return metrics


@dataclass
class Paired:
    """Per-op timings of the traced run, all within seconds of each other."""

    overhead: list[float] = field(default_factory=list)  # traced over untraced
    plain: list[float] = field(default_factory=list)  # fastest untraced run
    optimized: list[float] = field(default_factory=list)  # fastest python -O run
    child_attempted: int = 0
    child_problems: list[str] = field(default_factory=list)  # one entry per failed op


def op_by_op(cli, ops, expected: dict, plain: Tally, traced: Tally, tracer,
             child: Optimized, stop_at: float) -> Paired:
    """Run each op untraced, under ``python -O``, traced, untraced and under
    ``-O`` again, back to back.

    The host's speed drifts in phases of tens of seconds; the runs of one op
    are seconds apart, so the drift cancels in their ratios.
    """
    paired = Paired()
    for index, op in enumerate(ops):
        remaining = stop_at - perf_counter()
        if remaining <= 0:
            break
        cap = min(OP_CAP_S, remaining + 5.0)
        untraced, optimized = [], []
        for repeat in range(2):
            result = run_op(cli, op.argv_in(WORK), cap)
            plain.add(op, result, expected)
            untraced.append(result.seconds)
            reply = child.run(index)
            paired.child_attempted += 1
            if reply["problems"]:
                paired.child_problems.append(f"{op.id}: {'; '.join(reply['problems'])}")
            optimized.append(reply["seconds"])
            if repeat == 0:
                traced.calibs.append(calibrate())
                tracer.install()
                try:
                    tracer.begin_op(index)
                    result = run_op(cli, op.argv_in(WORK), cap)
                    tracer.end_op()
                finally:
                    tracer.restore()
                traced.add(op, result, expected)
                paired.overhead.append(result.seconds / untraced[0])
        paired.plain.append(min(untraced))
        paired.optimized.append(min(optimized))
    traced.calibs.append(calibrate())
    return paired


def per_layer(workload: str, seed: int, started: float) -> tuple[dict, Tally]:
    """Pass 0 op by op: untraced, traced and under ``python -O``; per-layer metrics."""
    _, cli = setup(0)
    expected = bench_checks.load_expected()
    ops = bench_catalog.pass_order(workload, seed, 0)
    plain, traced = Tally(), Tally()
    tracer = bench_trace.Tracer()
    child = Optimized(workload, seed)
    try:
        paired = op_by_op(cli, ops, expected, plain, traced, tracer, child,
                          started + RUN_LIMIT_S)
    finally:
        child.close()
    metrics = _layer_metrics(tracer, traced)
    metrics.update(_traced_setup(tracer))
    metrics["trace.overhead_ratio"] = (statistics.median(paired.overhead), "ratio")
    metrics["checks.assert_share"] = (1.0 - sum(paired.optimized) / sum(paired.plain), "ratio")
    trace_file = WORK / f"trace-{workload}-{seed}.json"
    tracer.dump(trace_file)
    tally = Tally(
        attempted=plain.attempted + traced.attempted + paired.child_attempted,
        failed=plain.failed + traced.failed + len(paired.child_problems),
        raw_same=plain.raw_same,
        problems=plain.problems + [f"traced: {p}" for p in traced.problems]
        + [f"-O: {p}" for p in paired.child_problems],
    )
    print(
        f"workload {workload}, seed {seed}: pass 0 of {len(ops)} ops, each run untraced,"
        f" under python -O, traced, untraced and under python -O again;"
        f" {len(tracer.spans)} spans in {trace_file.relative_to(ROOT)}"
    )
    return metrics, tally


# ---------------------------------------------------------------------------
# entry point


def _parse(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="toricforms benchmark runner")
    parser.add_argument("--workload", choices=sorted(bench_catalog.CATALOGS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--replay", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.setup_child and (args.workload is None or args.seed is None):
        parser.error("--workload and --seed are required")
    return args


def main(argv=None) -> int:
    started = perf_counter()
    args = _parse(argv)
    try:
        if args.setup_child:
            print(json.dumps(setup_child()))
            return 0
        if args.replay:
            replay(args.workload, args.seed)
            return 0
        if args.trace:
            metrics, tally = per_layer(args.workload, args.seed, started)
        else:
            metrics, tally = end_to_end(args.workload, args.seed, args.seconds, started)
    except MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:.6g} {unit}")
    for problem in tally.problems[:20]:
        print(f"  FAILED {problem}")
    print(f"  raw stdout identical to expected.json for {tally.raw_same} of the"
          " untraced ops (information only)")
    correct = tally.failed == 0 and tally.attempted > 0
    print(f"  correct: {str(correct).lower()}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
