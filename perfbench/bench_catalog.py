"""Workload catalogs and the seeded op sampler.

An op is one ``toricforms.cli.run(argv)`` call.  Each workload has a fixed
catalog of ops; a run executes a fixed number of whole passes over that
catalog, and the seed fixes the order of the ops inside every pass.  Every pass holds the same
multiset of ops, so runs with different seeds measure the same work mix:
op costs in one catalog span two orders of magnitude, and a seed-chosen
subset of the catalog moved ``ops_per_s`` by 10-35 % between seeds.

Fans that are not builtins (the products of projective spaces in
``highrank_aut``) are written as JSON files into the work directory during
set-up and passed with ``--file``.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

SURFACES = ("D12", "D8", "D6", "D6p", "C6", "C3", "D4", "D4p", "C4", "C2", "D2", "D2p", "C1")

#: Products P^a x P^b x ... written as fan files; the key names the file.
PRODUCT_FANS = {
    "P1xP1xP1": (1, 1, 1),
    "P1xP2": (1, 2),
    "P1xP1xP1xP1": (1, 1, 1, 1),
    "P2xP2": (2, 2),
    "P1xP3": (1, 3),
    "P1xP1xP2": (1, 1, 2),
}


@dataclass(frozen=True)
class Op:
    """One catalog entry: a stable id (the expected-answer key) and its argv.

    ``fan_file`` names a generated fan; the argv then carries a placeholder
    that ``argv_in`` replaces by the file's path in a given work directory.
    """

    id: str
    argv: tuple[str, ...]
    fan_file: str | None = None

    def argv_in(self, work_dir: Path) -> list[str]:
        if self.fan_file is None:
            return list(self.argv)
        path = str(work_dir / "fans" / f"{self.fan_file}.json")
        return [path if a == FILE_PLACEHOLDER else a for a in self.argv]


FILE_PLACEHOLDER = "<fan-file>"


def _classify_builtin(fan: str, backend: str) -> Op:
    return Op(
        f"classify fan {fan} {backend}",
        ("classify", "fan", "--builtin", fan, "--backend", backend, "--json"),
    )


def _surface_norm() -> tuple[Op, ...]:
    backends = ("real", "ff:5,4", "ff:3,6")
    return tuple(_classify_builtin(f"surface:{s}", b) for s in SURFACES for b in backends)


def _classify_file(fan: str, backend: str) -> Op:
    return Op(
        f"classify fan {fan} {backend}",
        ("classify", "fan", "--file", FILE_PLACEHOLDER, "--backend", backend, "--json"),
        fan_file=fan,
    )


def _highrank_aut() -> tuple[Op, ...]:
    # the order-384 symmetry group of (P^1)^4 costs ~2 s per op, so it runs
    # with two backends only
    backends = ("real", "ff:2,2", "ff:2,3", "ff:3,4")
    ops = [
        _classify_file(name, b)
        for name in PRODUCT_FANS
        for b in (backends[:2] if name == "P1xP1xP1xP1" else backends)
    ]
    ops.extend(_classify_builtin(f"projective:{n}", b) for n in (3, 4) for b in backends)
    return tuple(ops)


def _oracle_3route() -> tuple[Op, ...]:
    backends = ("ff:7,2", "ff:2,6")
    return tuple(
        Op(
            f"oracle surface:{s} {b}",
            ("cohomology", "oracle", "--builtin", f"surface:{s}", "--backend", b),
        )
        for s in SURFACES
        for b in backends
    )


def _projective_partitions() -> tuple[Op, ...]:
    backends = ("real", "ff:2,12", "ff:4,6", "ff:5,6", "ff:3,8", "ff:11,4", "ff:2,16", "ff:17,4")
    return tuple(
        Op(
            f"classify projective {n} {b}",
            ("classify", "projective", "-n", str(n), "--backend", b, "--json"),
        )
        for n in range(2, 25, 2)
        for b in backends
    )


CATALOGS: dict[str, tuple[Op, ...]] = {
    "surface_norm": _surface_norm(),
    "highrank_aut": _highrank_aut(),
    "oracle_3route": _oracle_3route(),
    "projective_partitions": _projective_partitions(),
}


#: Seconds one pass over each catalog took on the seed commit (2-core x86-64
#: container, Python 3.11, in a fast phase of the shared host; at the runner's
#: reference speed a pass takes 1.4-2.2 times as long).  A run makes a fixed
#: number of passes, so that every run of a workload times the same ops and
#: its tail percentile is taken over the same number of samples.
PASS_SECONDS = {
    "surface_norm": 5.0,
    "highrank_aut": 7.5,
    "oracle_3route": 5.0,
    "projective_partitions": 5.0,
}


def passes(workload: str, seconds: float) -> int:
    """Passes a run of ``seconds`` makes: about ``seconds`` of seed-commit work."""
    return max(1, round(seconds / PASS_SECONDS[workload]))


def pass_order(workload: str, seed: int, index: int) -> list[Op]:
    """The ops of pass ``index`` of a run with ``seed``: the catalog, shuffled.

    Each pass draws its own order, so later passes do not repeat the first.
    """
    ops = list(CATALOGS[workload])
    random.Random(f"{workload}/{seed}/{index}").shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# generated fans


def product_fan(dims: tuple[int, ...]) -> dict:
    """Fan JSON of P^dims[0] x P^dims[1] x ...: rays e_i and -(e_1+...+e_n)
    per factor, maximal cones the products of the factors' maximal cones."""
    rank = sum(dims)
    rays: list[list[int]] = []
    factor_cones = []
    offset = 0
    for n in dims:
        first = len(rays)
        for j in range(n):
            rays.append([1 if i == offset + j else 0 for i in range(rank)])
        rays.append([-1 if offset <= i < offset + n else 0 for i in range(rank)])
        factor_cones.append(
            [[first + k for k in range(n + 1) if k != skip] for skip in range(n + 1)]
        )
        offset += n
    cones = sorted(sorted(sum(combo, [])) for combo in itertools.product(*factor_cones))
    return {"rank": rank, "rays": rays, "cones": cones}


def write_fan_files(work_dir: Path) -> None:
    fan_dir = work_dir / "fans"
    fan_dir.mkdir(parents=True, exist_ok=True)
    for name, dims in PRODUCT_FANS.items():
        (fan_dir / f"{name}.json").write_text(json.dumps(product_fan(dims)) + "\n")
