"""Command-line interface.

Verb tree::

    fan        validate | info | aut | cox
    classify   projective | fan | surface-real
    cohomology h1-real | oracle
    table      surface

Fans come from ``--file PATH``, ``--builtin NAME``, or ``--stdin`` (JSON on
standard input).  Backends are ``real``, ``ff:q,d``, or ``symbolic:path.json``
(the last needs ``--group cyclic:d`` to fix the extension degree).  Exit codes:
0 success, 1 domain error (a refused size budget included), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from pathlib import Path
from typing import Callable, Iterable, Sequence

from . import _jsonout
from .classify import (
    REAL_TOWER,
    SURFACE_LABELS,
    TowerDataMissing,
    builtin_fan,
    classify_fan,
    classify_projective,
    classify_surface_real,
    h1_value_json,
    render,
    surface_table,
)
from .cohomology import h1_real_involution, oracle_routes
from .exact_linalg import IntMatrix
from .fans import (
    Fan,
    a_sequence,
    class_group,
    cox_data,
    is_complete,
    is_smooth,
    validate_fan,
)
from .fan_aut import automorphism_group, identify_gl2_class
from .galois import (
    BackendUnsupported,
    FieldBackend,
    FiniteFieldBackend,
    GroupSpec,
    RealComplexBackend,
    SymbolicBrauerBackend,
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
    # ASCII digits only: `str.isdigit` also takes ² (which `int` refuses) and ٣
    if kind != "cyclic" or not sep or not (tail.isascii() and tail.isdigit()):
        raise UsageError("--group expects cyclic:d")
    order = int(tail)
    if order < 1:
        raise UsageError("cyclic group order must be at least 1")
    return GroupSpec.cyclic(order)


def _parse_backend(text: str, group: GroupSpec | None) -> FieldBackend:
    if text == "real":
        return RealComplexBackend()
    if text.startswith("ff:"):
        parts = text[len("ff:") :].split(",")
        if len(parts) != 2 or not all(p.isascii() and p.lstrip("-").isdigit() for p in parts):
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
            isinstance(row, list) and all(type(x) is int for x in row)
            for row in data
        )
        or len({len(row) for row in data}) != 1
    ):
        raise UsageError("--matrix expects a JSON list of equal-length integer rows")
    return IntMatrix.from_rows([tuple(row) for row in data])


def _emit(args: argparse.Namespace, payload: Callable[[], object],
          lines: Callable[[], Iterable[str]]) -> int:
    """Write a verb's answer to stdout: under --json the JSON of `payload()`,
    else each of `lines()` on a line of its own.  Only the chosen form is
    built, and it reaches the stream piece by piece, never as one text."""
    write = sys.stdout.write
    if args.json:
        _jsonout.dump(payload(), write)
        write("\n")
    else:
        for line in lines():
            write(line + "\n")
    return 0


# ---------------------------------------------------------------------------
# fan verbs
# ---------------------------------------------------------------------------


def _cmd_fan_validate(args: argparse.Namespace) -> int:
    fan, _ = _load_fan(args)
    validate_fan(fan)
    return _emit(args, fan.to_dict, lambda: [
        f"valid: rank {fan.rank}, {fan.num_rays} rays, {len(fan.max_cones)} maximal cones"])


def _cmd_fan_info(args: argparse.Namespace) -> int:
    fan, name = _load_fan(args)
    complete = is_complete(fan)  # validates the fan
    smooth = is_smooth(fan)
    group = class_group(fan)
    seq = a_sequence(fan) if fan.rank == 2 and smooth and complete else None

    def payload() -> dict:
        out = {
            "name": name,
            "rank": fan.rank,
            "rays": [list(r) for r in fan.rays],
            "max_cones": [list(c) for c in fan.max_cones],
            "smooth": smooth,
            "complete": complete,
            "class_group": str(group),
        }
        if seq is not None:
            out["a_sequence"] = list(seq)
        return out

    def lines() -> Iterable[str]:
        yield f"name: {name}"
        yield f"rank: {fan.rank}"
        yield f"rays ({fan.num_rays}): " + " ".join(str(tuple(r)) for r in fan.rays)
        yield f"smooth: {str(smooth).lower()}"
        yield f"complete: {str(complete).lower()}"
        yield f"class group: {group}"
        if seq is not None:
            yield f"a-sequence: {seq}"

    return _emit(args, payload, lines)


def _cmd_fan_aut(args: argparse.Namespace) -> int:
    fan, _ = _load_fan(args)
    aut = automorphism_group(fan)  # validates the fan
    label = identify_gl2_class(aut) if fan.rank == 2 else None

    def lines() -> Iterable[str]:
        yield f"order {aut.order}, label {label or '-'}"
        for m in aut.matrices:
            yield "  " + "; ".join(str(list(row)) for row in m.rows)

    return _emit(
        args,
        lambda: {"order": aut.order, "label": label, "matrices": [m.rows for m in aut.matrices]},
        lines,
    )


def _cmd_fan_cox(args: argparse.Namespace) -> int:
    fan, name = _load_fan(args)
    data = cox_data(fan)  # validates the fan
    degrees = data.degrees
    group = class_group(fan)

    def payload() -> dict:
        return {
            "name": name,
            "num_variables": fan.num_rays,
            "class_group": str(group),
            "free_degree_rows": degrees.free_rows.rows,
            "torsion_degree_rows": degrees.torsion_rows.rows,
            "torsion_moduli": list(degrees.torsion_moduli),
            "irrelevant_complements": [list(c) for c in data.irrelevant_complements],
        }

    def lines() -> Iterable[str]:
        yield f"Cox presentation for {name}"
        yield f"variables: {fan.num_rays} (one per ray)"
        yield f"class group: {group}"
        yield "free degree rows:"
        for row in degrees.free_rows.rows:
            yield f"  {list(row)}"
        for modulus, row in zip(degrees.torsion_moduli, degrees.torsion_rows.rows):
            yield f"  {list(row)}  (mod {modulus})"

    return _emit(args, payload, lines)


# ---------------------------------------------------------------------------
# classify verbs
# ---------------------------------------------------------------------------


def _backend_for_group(args: argparse.Namespace) -> FieldBackend:
    """The backend of --backend, checked against --group when one is given."""
    group = _parse_group(args.group) if args.group else None
    backend = _parse_backend(args.backend, group)
    if group is not None and backend.group != group:
        raise BackendUnsupported(
            f"backend Galois group {backend.group.name} does not match"
            f" the requested group {group.name}"
        )
    return backend


def _cmd_classify_projective(args: argparse.Namespace) -> int:
    report = classify_projective(args.n, _backend_for_group(args))
    return _emit(args, report.to_json_dict, report.lines)


def _cmd_classify_fan(args: argparse.Namespace) -> int:
    fan, name = _load_fan(args)
    report = classify_fan(
        fan,
        _backend_for_group(args),
        quasiprojective=args.quasiprojective,
        fan_name=name,
    )
    return _emit(args, report.to_json_dict, report.lines)


def _cmd_classify_surface_real(args: argparse.Namespace) -> int:
    fan, name = _load_fan(args)
    report = classify_surface_real(fan, fan_name=name)
    return _emit(args, report.to_json_dict, report.lines)


# ---------------------------------------------------------------------------
# cohomology verbs
# ---------------------------------------------------------------------------


def _cmd_h1_real(args: argparse.Namespace) -> int:
    matrix = _parse_matrix(args.matrix)
    group = h1_real_involution(matrix)
    return _emit(
        args,
        lambda: {"matrix": matrix.rows, "h1": h1_value_json(group)},
        lambda: [f"H^1 = {group}"],
    )


def _cmd_oracle(args: argparse.Namespace) -> int:
    fan, _ = _load_fan(args)
    rows = oracle_routes(fan, _parse_backend(args.backend, None))
    # a route that did not run is its reason, a string; the others check the closed form
    checks = [[v for v in (norm, brute) if not isinstance(v, str)] for norm, _, brute in rows]
    all_agree = all(v == closed for (_, closed, _), ran in zip(rows, checks) for v in ran)
    unchecked = [index for index, ran in enumerate(checks) if not ran]

    def as_json(value: object) -> dict:
        return {"kind": "skipped", "text": value} if isinstance(value, str) else h1_value_json(value)

    keys = ("norm_route", "closed_form", "brute_force")
    classes_json = [{"class": index} | dict(zip(keys, map(as_json, row))) for index, row in enumerate(rows)]

    def lines() -> Iterable[str]:
        for c in classes_json:
            yield (f"class {c['class']}: norm route {c['norm_route']['text']} | closed form"
                   f" {c['closed_form']['text']} | brute force {c['brute_force']['text']}")
        if not all_agree:
            yield "ROUTE DISAGREEMENT"
        elif unchecked:
            yield "UNCHECKED: only the closed form ran, for class " + ", ".join(map(str, unchecked))
        else:
            yield "all routes agree"

    _emit(args, lambda: {"classes": classes_json, "all_agree": all_agree}, lines)
    return 0 if all_agree and not unchecked else 1


# ---------------------------------------------------------------------------
# table verb
# ---------------------------------------------------------------------------


def _cmd_table_surface(args: argparse.Namespace) -> int:
    rows = []  # (label, expression, C/R value's JSON or None, C/R text)
    for label in sorted(SURFACE_LABELS):
        real, real_text = None, ""
        if args.real:
            try:
                real = h1_value_json(surface_table(label, REAL_TOWER))
                real_text = f"  | C/R: {real['text']}"
            except TowerDataMissing:
                real_text = "  | C/R: -"
        rows.append((label, surface_table(label), real, real_text))
    return _emit(
        args,
        lambda: {"rows": [{"label": label, "h1": h1_value_json(expr), "real": real}
                          for label, expr, real, _ in rows]},
        lambda: (f"{label:>4}  {render(expr)}{real_text}" for label, expr, _, real_text in rows),
    )


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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
