"""Paired benchmark runs of two commits, written to one JSON file.

Each side is extracted with ``git archive`` into its own directory under a
work directory; the two directories' paths have equal length, because
``classify fan --file`` writes the path it was given into its report and
so into the per-layer ``cli.output_bytes``.  Both trees are then compiled
with ``python -m compileall -q src`` before the first run: an archive
holds no bytecode, and where ``PYTHONDONTWRITEBYTECODE`` is set no run
writes any, so ``setup_s`` would otherwise include compiling the sources
in every set-up.  For every workload and seed
the script runs ``python3 perfbench/run.py --workload W --seed S --trace 0``
in both checkouts, one after the other, alternating which side goes first,
and keeps the last stdout line of each run (its JSON result).  Every
workload runs PAIRS pairs, at seeds FIRST_SEED, FIRST_SEED + 1, ...

Run from the repository root::

    python3 bench_pair.py --parent HEAD~1 --change HEAD --out BENCH.json

The output lists every run, and per workload each side's failed and
attempted ops and, per end-to-end metric, each side's median and quartiles
and how many pairs the change won.  ``perfbench/run.py`` exits 0 even when
an op fails, so the script reads each run's ``correct`` flag itself: it
exits 1, after writing the file, if any run was not correct.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent
SIDES = ("parent", "change")
FIRST_SEED = 11
PAIRS = 10  # enough pairs per workload to back a claimed gain


def _benchmark() -> tuple[tuple[str, ...], dict[str, bool]]:
    """The workloads, and each end-to-end metric with whether higher is
    better, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = tuple(w["name"] for w in spec["workloads"])
    return workloads, {m["name"]: m["better"] == "higher" for m in spec["end_to_end"]}


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def _extract(ref: str, dest: Path) -> None:
    dest.mkdir(parents=True)
    archive = subprocess.run(
        ["git", "archive", "--format=tar", ref], cwd=ROOT, check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def _compile(checkout: Path) -> None:
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src"], cwd=checkout, check=True
    )


def _run(checkout: Path, workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", "0"],
        cwd=checkout,
        capture_output=True,
        text=True,
        timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout.name} {workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr}")
    return json.loads(lines[-1])


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q2, q3]


def summarize(runs: list[dict], metrics: dict[str, bool]) -> dict:
    """Per workload: each side's failed/attempted ops over all its runs, and
    per metric each side's [q1, median, q3] over the complete pairs and the
    pairs the change won (ties count for neither side)."""
    out: dict = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        pairs: dict[int, dict[str, dict]] = {}
        ops = {side: [0, 0] for side in SIDES}
        for run in runs:
            if run["workload"] == workload:
                pairs.setdefault(run["pair"], {})[run["side"]] = run["result"]["metrics"]
                ops[run["side"]][0] += run["result"]["failed"]
                ops[run["side"]][1] += run["result"]["attempted"]
        rows = out[workload] = {
            "failed_ops": {side: f"{f}/{a}" for side, (f, a) in ops.items()}
        }
        complete = [p for p in pairs.values() if len(p) == 2]
        if not complete:
            continue
        for metric, higher in metrics.items():
            values = {side: [p[side][metric]["value"] for p in complete] for side in SIDES}
            wins = sum(
                (c > p) if higher else (c < p)
                for p, c in zip(values["parent"], values["change"])
            )
            rows[metric] = {
                **{side: _quartiles(values[side]) for side in SIDES},
                "change_wins": f"{wins}/{len(complete)}",
            }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent side")
    parser.add_argument("--change", required=True, help="git ref of the change side")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    workloads, metrics = _benchmark()
    refs = {"parent": args.parent, "change": args.change}
    commits = {side: _git("rev-parse", f"{ref}^{{commit}}") for side, ref in refs.items()}
    report: dict = {
        "command": "python3 perfbench/run.py --workload W --seed S --trace 0",
        "commits": commits,
        "src_trees": {side: _git("rev-parse", f"{sha}:src") for side, sha in commits.items()},
        "runs": [],
    }
    with tempfile.TemporaryDirectory(prefix="bench_pair_") as work:
        # "side_p" and "side_c": equal-length paths for the two checkouts
        checkouts = {side: Path(work) / f"side_{side[0]}" for side in SIDES}
        for side in SIDES:
            _extract(commits[side], checkouts[side])
            _compile(checkouts[side])
        for workload in workloads:
            for pair in range(PAIRS):
                seed = FIRST_SEED + pair
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for side in order:
                    result = _run(checkouts[side], workload, seed)
                    report["runs"].append(
                        {"workload": workload, "pair": pair, "seed": seed, "side": side,
                         "first": side == order[0], "result": result}
                    )
                    print(workload, seed, side, json.dumps(result["metrics"]), flush=True)
                    # rewritten after every run, so an interrupted run keeps the pairs done so far
                    report["summary"] = summarize(report["runs"], metrics)
                    args.out.write_text(json.dumps(report, indent=2) + "\n")
    incorrect = [run for run in report["runs"] if not run["result"]["correct"]]
    for run in incorrect:
        print(f"not correct: {run['workload']} seed {run['seed']} {run['side']}", file=sys.stderr)
    return 1 if incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
