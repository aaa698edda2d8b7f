"""Command-line interface.

Verb tree::

    fan        validate | info | aut | cox
    classify   projective | fan | surface-real
    cohomology h1-real | oracle
    table      surface

Fans come from ``--file PATH``, ``--builtin NAME``, or ``--stdin`` (JSON on
standard input).  Backends are ``real``, ``ff:q,d``, or ``symbolic:path.json``
(the last needs ``--group cyclic:d`` to fix the extension degree).  Exit codes:
0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from pathlib import Path
from typing import Sequence

from .classify import (
    REAL_TOWER,
    SURFACE_LABELS,
    TowerDataMissing,
    builtin_fan,
    classify_fan,
    classify_projective,
    classify_surface_real,
    h1_value_json,
    hom_class_h1,
    render,
    surface_table,
)
from .cohomology import (
    TooLarge,
    brute_force_h1_finite,
    finite_field_torus_module,
    h1_finite_field_torus,
    h1_real_involution,
)
from .exact_linalg import FGAbelianGroup, IntMatrix, _snf_memo_scope
from .fans import (
    Fan,
    FanError,
    a_sequence,
    class_group,
    cox_data,
    is_complete_surface,
    is_smooth,
    validate_fan,
)
from .fan_aut import UnidentifiedClass, automorphism_group, identify_gl2_class
from .galois import (
    BackendUnsupported,
    FieldBackend,
    FiniteFieldBackend,
    GroupSpec,
    RealComplexBackend,
    SymbolicBrauerBackend,
    enumerate_hom_classes,
    kernel_reduction,
    reduce_backend,
)


class UsageError(Exception):
    """Bad command-line shape; reported with exit code 2."""


# ---------------------------------------------------------------------------
# argument helpers
# ---------------------------------------------------------------------------


def _add_fan_source(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--file", metavar="PATH", help="fan JSON file")
    parser.add_argument("--builtin", metavar="NAME", help="builtin fan name")
    parser.add_argument(
        "--stdin", action="store_true", help="read fan JSON from standard input"
    )


def _load_fan(args: argparse.Namespace) -> tuple[Fan, str]:
    sources = [
        name
        for name, given in (
            ("file", args.file is not None),
            ("builtin", args.builtin is not None),
            ("stdin", args.stdin),
        )
        if given
    ]
    if len(sources) != 1:
        raise UsageError("provide exactly one of --file, --builtin, --stdin")
    if args.file is not None:
        return Fan.from_json(Path(args.file).read_text()), args.file
    if args.builtin is not None:
        return builtin_fan(args.builtin), args.builtin
    return Fan.from_json(sys.stdin.read()), "stdin"


def _parse_group(text: str) -> GroupSpec:
    kind, sep, tail = text.partition(":")
    if not sep or not tail.isdigit():
        raise UsageError("--group expects cyclic:d or dihedral:2m")
    order = int(tail)
    if kind == "cyclic":
        if order < 1:
            raise UsageError("cyclic group order must be at least 1")
        return GroupSpec.cyclic(order)
    if kind == "dihedral":
        if order < 2 or order % 2:
            raise UsageError("dihedral group order must be even and at least 2")
        return GroupSpec.dihedral(order)
    raise UsageError(f"unknown group kind {kind!r}; expected cyclic or dihedral")


def _parse_backend(text: str, group: GroupSpec | None) -> FieldBackend:
    if text == "real":
        return RealComplexBackend()
    if text.startswith("ff:"):
        parts = text[len("ff:") :].split(",")
        if len(parts) != 2 or not all(p.lstrip("-").isdigit() for p in parts):
            raise UsageError("--backend ff expects the form ff:q,d")
        # raises ValueError unless q is a prime power and d >= 1
        return FiniteFieldBackend(int(parts[0]), int(parts[1]))
    if text.startswith("symbolic:"):
        path = text[len("symbolic:") :]
        if group is None:
            raise UsageError(
                "--backend symbolic:path.json needs --group cyclic:d"
                " to fix the extension degree"
            )
        if not group.is_cyclic:
            raise UsageError("the symbolic backend models cyclic extensions only")
        return SymbolicBrauerBackend.from_json(Path(path).read_text(), group.order)
    raise UsageError(
        f"unrecognized backend {text!r}; expected real, ff:q,d, or symbolic:path.json"
    )


def _parse_matrix(text: str) -> IntMatrix:
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        raise UsageError("--matrix expects a JSON list of integer rows") from None
    if (
        not isinstance(data, list)
        or not data
        or not all(
            isinstance(row, list) and all(isinstance(x, int) for x in row)
            for row in data
        )
        or len({len(row) for row in data}) != 1
    ):
        raise UsageError("--matrix expects a JSON list of equal-length integer rows")
    return IntMatrix.from_rows([tuple(row) for row in data])


def _emit(args: argparse.Namespace, human: str, payload: dict) -> int:
    print(json.dumps(payload, indent=2) if args.json else human)
    return 0


# ---------------------------------------------------------------------------
# fan verbs
# ---------------------------------------------------------------------------


def _cmd_fan_validate(args: argparse.Namespace) -> int:
    fan, _ = _load_fan(args)
    validate_fan(fan)
    if args.json:
        print(fan.to_json())
    else:
        print(
            f"valid: rank {fan.rank}, {fan.num_rays} rays,"
            f" {len(fan.max_cones)} maximal cones"
        )
    return 0


def _completeness(fan: Fan) -> tuple[str, bool | None]:
    if fan.rank == 2:
        flag = is_complete_surface(fan)
        return str(flag).lower(), flag
    if fan.rank == 1:
        flag = set(fan.rays) == {(1,), (-1,)}
        return str(flag).lower(), flag
    return "not checked (rank > 2)", None


def _cmd_fan_info(args: argparse.Namespace) -> int:
    fan, name = _load_fan(args)
    validate_fan(fan)
    smooth = is_smooth(fan)
    complete_text, complete = _completeness(fan)
    payload = {
        "name": name,
        "rank": fan.rank,
        "rays": [list(r) for r in fan.rays],
        "max_cones": [list(c) for c in fan.max_cones],
        "smooth": smooth,
        "complete": complete,
        "class_group": str(class_group(fan)),
    }
    lines = [
        f"name: {name}",
        f"rank: {fan.rank}",
        "rays ({}): {}".format(
            fan.num_rays, " ".join(str(tuple(r)) for r in fan.rays)
        ),
        f"smooth: {str(smooth).lower()}",
        f"complete: {complete_text}",
        f"class group: {class_group(fan)}",
    ]
    if fan.rank == 2 and smooth and complete:
        seq = a_sequence(fan)
        payload["a_sequence"] = list(seq)
        lines.append(f"a-sequence: {seq}")
    return _emit(args, "\n".join(lines), payload)


def _cmd_fan_aut(args: argparse.Namespace) -> int:
    fan, _ = _load_fan(args)
    aut = automorphism_group(fan)  # validates the fan
    label = None
    if fan.rank == 2:
        try:
            label = identify_gl2_class(aut).label
        except UnidentifiedClass:
            label = None
    payload = {
        "order": aut.order,
        "label": label,
        "matrices": [[list(row) for row in m.rows] for m in aut.matrices],
    }
    lines = [f"order {aut.order}, label {label or '-'}"]
    for m in aut.matrices:
        lines.append("  " + "; ".join(str(list(row)) for row in m.rows))
    return _emit(args, "\n".join(lines), payload)


def _cmd_fan_cox(args: argparse.Namespace) -> int:
    fan, name = _load_fan(args)
    validate_fan(fan)
    data = cox_data(fan)
    degrees = data.degrees
    payload = {
        "name": name,
        "num_variables": fan.num_rays,
        "class_group": str(class_group(fan)),
        "free_degree_rows": [list(row) for row in degrees.free_rows.rows],
        "torsion_degree_rows": [list(row) for row in degrees.torsion_rows.rows],
        "torsion_moduli": list(degrees.torsion_moduli),
        "irrelevant_complements": [list(c) for c in data.irrelevant_complements],
    }
    lines = [
        f"Cox presentation for {name}",
        f"variables: {fan.num_rays} (one per ray)",
        f"class group: {class_group(fan)}",
        "free degree rows:",
    ]
    for row in degrees.free_rows.rows:
        lines.append(f"  {list(row)}")
    for modulus, row in zip(degrees.torsion_moduli, degrees.torsion_rows.rows):
        lines.append(f"  {list(row)}  (mod {modulus})")
    return _emit(args, "\n".join(lines), payload)


# ---------------------------------------------------------------------------
# classify verbs
# ---------------------------------------------------------------------------


def _group_and_backend(args: argparse.Namespace) -> tuple[GroupSpec, FieldBackend]:
    group = _parse_group(args.group) if args.group else None
    backend = _parse_backend(args.backend, group)
    if group is None:
        group = backend.group
    elif backend.group.table != group.table:
        raise BackendUnsupported(
            f"backend Galois group {backend.group.name} does not match"
            f" the requested group {group.name}"
        )
    return group, backend


def _print_report(args: argparse.Namespace, report) -> int:
    print(report.to_json() if args.json else str(report))
    return 0


def _cmd_classify_projective(args: argparse.Namespace) -> int:
    _, backend = _group_and_backend(args)
    return _print_report(args, classify_projective(args.n, backend))


def _cmd_classify_fan(args: argparse.Namespace) -> int:
    fan, name = _load_fan(args)
    group, backend = _group_and_backend(args)
    report = classify_fan(
        fan,
        group,
        backend,
        quasiprojective=args.quasiprojective,
        fan_name=name,
    )
    return _print_report(args, report)


def _cmd_classify_surface_real(args: argparse.Namespace) -> int:
    fan, name = _load_fan(args)
    return _print_report(args, classify_surface_real(fan, fan_name=name))


# ---------------------------------------------------------------------------
# cohomology verbs
# ---------------------------------------------------------------------------


def _cmd_h1_real(args: argparse.Namespace) -> int:
    matrix = _parse_matrix(args.matrix)
    group = h1_real_involution(matrix)
    payload = {
        "matrix": [list(row) for row in matrix.rows],
        "h1": h1_value_json(group),
    }
    return _emit(args, f"H^1 = {group}", payload)


def _cmd_oracle(args: argparse.Namespace) -> int:
    fan, _ = _load_fan(args)
    backend = _parse_backend(args.backend, None)
    if not isinstance(backend, FiniteFieldBackend):
        raise ValueError("the oracle verb needs a finite-field backend (ff:q,d)")
    aut = automorphism_group(fan)  # validates the fan
    group = backend.group
    classes = enumerate_hom_classes(group, aut)
    rows = []
    all_agree = True
    for index, cls in enumerate(classes):
        norm_route = hom_class_h1(fan, cls, backend)
        reduced_group, reduced_hom, _ = kernel_reduction(cls)
        if reduced_group.order == 1:
            closed = FGAbelianGroup.trivial()
            brute_text = "trivial class"
            agree = norm_route == closed
        else:
            reduced_backend = reduce_backend(backend, len(cls.kernel))
            assert isinstance(reduced_backend, FiniteFieldBackend)
            closed = h1_finite_field_torus(
                reduced_backend.q, reduced_backend.d, reduced_hom.matrix(1)
            )
            agree = norm_route == closed
            try:
                brute = brute_force_h1_finite(
                    finite_field_torus_module(reduced_backend, reduced_hom)
                )
                brute_text = str(brute)
                agree = agree and brute == closed
            except TooLarge:
                brute_text = "skipped (guard)"
        all_agree = all_agree and agree
        rows.append(
            f"class {index}: norm route {norm_route} |"
            f" closed form {closed} | brute force {brute_text}"
        )
    rows.append("all routes agree" if all_agree else "ROUTE DISAGREEMENT")
    print("\n".join(rows))
    return 0 if all_agree else 1


# ---------------------------------------------------------------------------
# table verb
# ---------------------------------------------------------------------------


def _cmd_table_surface(args: argparse.Namespace) -> int:
    rows = []
    lines = []
    for label in sorted(SURFACE_LABELS):
        expr = surface_table(label)
        real_payload = None
        real_text = ""
        if args.real:
            try:
                value = surface_table(label, REAL_TOWER)
                real_payload = h1_value_json(value)
                real_text = f"  | C/R: {real_payload['text']}"
            except TowerDataMissing:
                real_text = "  | C/R: -"
        rows.append({"label": label, "h1": h1_value_json(expr), "real": real_payload})
        lines.append(f"{label:>4}  {render(expr)}{real_text}")
    return _emit(args, "\n".join(lines), {"rows": rows})


# ---------------------------------------------------------------------------
# parser assembly and dispatch
# ---------------------------------------------------------------------------


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.  Parsing leaves no state
    on it (no append actions, no mutable defaults): every parse_args call
    returns a fresh Namespace."""
    parser = argparse.ArgumentParser(
        prog="toricforms",
        description="Classify twisted forms of split toric varieties.",
    )
    verbs = parser.add_subparsers(dest="verb")

    fan = verbs.add_parser("fan", help="inspect and validate fans")
    fan_sub = fan.add_subparsers(dest="sub")
    for name, handler in (
        ("validate", _cmd_fan_validate),
        ("info", _cmd_fan_info),
        ("aut", _cmd_fan_aut),
        ("cox", _cmd_fan_cox),
    ):
        sub = fan_sub.add_parser(name)
        _add_fan_source(sub)
        sub.add_argument("--json", action="store_true")
        sub.set_defaults(handler=handler)

    classify = verbs.add_parser("classify", help="run classifications")
    classify_sub = classify.add_subparsers(dest="sub")

    proj = classify_sub.add_parser("projective")
    proj.add_argument("-n", type=int, required=True, help="projective space dimension")
    proj.add_argument("--backend", required=True)
    proj.add_argument("--group")
    proj.add_argument("--json", action="store_true")
    proj.set_defaults(handler=_cmd_classify_projective)

    cfan = classify_sub.add_parser("fan")
    _add_fan_source(cfan)
    cfan.add_argument("--backend", required=True)
    cfan.add_argument("--group")
    cfan.add_argument("--quasiprojective", action="store_true")
    cfan.add_argument("--json", action="store_true")
    cfan.set_defaults(handler=_cmd_classify_fan)

    surf = classify_sub.add_parser("surface-real")
    _add_fan_source(surf)
    surf.add_argument("--json", action="store_true")
    surf.set_defaults(handler=_cmd_classify_surface_real)

    cohomology = verbs.add_parser("cohomology", help="cohomology utilities")
    cohomology_sub = cohomology.add_subparsers(dest="sub")

    h1real = cohomology_sub.add_parser("h1-real")
    h1real.add_argument("--matrix", required=True, help="JSON integer matrix")
    h1real.add_argument("--json", action="store_true")
    h1real.set_defaults(handler=_cmd_h1_real)

    oracle = cohomology_sub.add_parser("oracle")
    _add_fan_source(oracle)
    oracle.add_argument("--backend", required=True)
    oracle.add_argument("--json", action="store_true")
    oracle.set_defaults(handler=_cmd_oracle)

    table = verbs.add_parser("table", help="print classification tables")
    table_sub = table.add_subparsers(dest="sub")
    surface = table_sub.add_parser("surface")
    surface.add_argument("--real", action="store_true", help="evaluate over C/R")
    surface.add_argument("--json", action="store_true")
    surface.set_defaults(handler=_cmd_table_surface)

    return parser


@_snf_memo_scope()
def run(argv: Sequence[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    handler = getattr(args, "handler", None)
    if handler is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        return handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (FanError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
