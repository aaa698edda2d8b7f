"""Top-level classification assembly.

This module turns the lower-level engines into finished classifications:

* ``classify_projective`` — twisted forms of projective space under a cyclic
  extension, organised by partitions whose parts divide the degree;
* ``classify_fan`` — one report entry per conjugacy class of twisting
  homomorphisms into the fan symmetry group, with the cohomology group of the
  twisted torus attached to each entry: ``cohomology.hom_class_h1``, which
  holds the rule that picks an H^1 route per backend;
* ``classify_surface_real`` — the rank-2 specialisation over C/R, with each
  entry tagged by the lattice type of its involution;
* ``surface_table`` — the symbolic answer for every finite subgroup class of
  GL(2, Z), expressed over relative Brauer groups and evaluated against a
  tower of explicit norm data when one is supplied;
* ``builtin_fan`` — the named fan catalog, including thirteen smooth complete
  surface fans whose symmetry groups realise every GL(2, Z) class.  The
  surface fans are rebuilt from scratch by equivariant subdivision and each
  construction is accepted only after its computed symmetry label matches the
  name it is sold under.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from types import MappingProxyType
from typing import Iterator, Mapping, Sequence, Union

from . import _jsonout
from .cohomology import hom_class_h1
from .exact_linalg import FGAbelianGroup, IntMatrix, _check_int, _check_int_entries
from .fans import (
    Fan,
    RankUnsupported,
    TooLarge,
    fan_from_boundary_word,
    is_complete,
    is_smooth,
    surface_blowup,
)
from .fan_aut import GL2_CLASS_LABELS, automorphism_group, identify_gl2_class, involution_type
from .galois import (
    FieldBackend,
    RealComplexBackend,
    _prime_factors,
    enumerate_hom_classes,
    norm_quotient,
)


class UnknownLabel(ValueError):
    """Raised for a symmetry label outside the GL(2, Z) class table."""


class UnknownName(ValueError):
    """Raised for a builtin fan name that is not in the catalog."""


class TowerDataMissing(ValueError):
    """Raised when evaluation hits a relative Brauer leaf absent from the tower."""


class CannotEvaluate(ValueError):
    """Raised when the supplied tower data does not determine the result."""


# ---------------------------------------------------------------------------
# Symbolic expressions over relative Brauer groups
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Explicit:
    """A leaf holding a concrete finitely generated abelian group."""

    group: FGAbelianGroup


@dataclass(frozen=True)
class RelBrauer:
    """Relative Brauer group Br(base|splitting) = ker(Br base -> Br splitting).

    For a cyclic extension this is base* / Norm(splitting*), which is how
    backends evaluate it.
    """

    base: str
    splitting: str


@dataclass(frozen=True)
class DirectSum:
    left: "SymGroupExpr"
    right: "SymGroupExpr"


@dataclass(frozen=True)
class Quotient:
    """Quotient of the numerator by the canonical image of the denominator.

    Evaluation succeeds only when the denominator evaluates to the trivial
    group; otherwise the quotient is not determined by order data alone.
    """

    numerator: "SymGroupExpr"
    denominator: "SymGroupExpr"


@dataclass(frozen=True)
class KernelOfNormMap:
    """Kernel of the norm map from ``source`` to ``target``.

    Evaluation succeeds when the source is trivial (kernel trivial) or the
    target is trivial (kernel is all of the source).
    """

    source: "SymGroupExpr"
    target: "SymGroupExpr"


@dataclass(frozen=True)
class UnresolvedExtension:
    """A group known only up to an extension of ``quotient`` by ``kernel``.

    Evaluation never resolves the extension; it produces the two end groups
    and the order product.
    """

    kernel: "SymGroupExpr"
    quotient: "SymGroupExpr"


SymGroupExpr = Union[
    Explicit, RelBrauer, DirectSum, Quotient, KernelOfNormMap, UnresolvedExtension
]


@dataclass(frozen=True)
class UnresolvedValue:
    """Evaluated ends of an unresolved extension."""

    kernel: FGAbelianGroup
    quotient: FGAbelianGroup
    order: int | None


def render(expr: SymGroupExpr) -> str:
    """Human-readable form of a symbolic group expression."""
    if isinstance(expr, Explicit):
        return str(expr.group)
    if isinstance(expr, RelBrauer):
        return f"Br({expr.base}|{expr.splitting})"
    if isinstance(expr, DirectSum):
        return f"{render(expr.left)} + {render(expr.right)}"
    if isinstance(expr, Quotient):
        return f"({render(expr.numerator)}) / ({render(expr.denominator)})"
    if isinstance(expr, KernelOfNormMap):
        return f"ker(N: {render(expr.source)} -> {render(expr.target)})"
    if isinstance(expr, UnresolvedExtension):
        return (
            f"extension of [{render(expr.quotient)}] by [{render(expr.kernel)}]"
            " (unresolved)"
        )
    raise TypeError(f"not a symbolic group expression: {expr!r}")


Tower = Mapping[tuple[str, str], FGAbelianGroup]

#: Norm data for the extension C/R: Br(R|C) = R*/Norm(C*) = R*/R_{>0} = Z/2.
REAL_TOWER: Tower = MappingProxyType({("k", "K"): FGAbelianGroup.cyclic(2)})


def _evaluate_group(expr: SymGroupExpr, tower: Tower) -> FGAbelianGroup:
    if isinstance(expr, Explicit):
        return expr.group
    if isinstance(expr, RelBrauer):
        if expr.base == expr.splitting:
            return FGAbelianGroup.trivial()
        try:
            return tower[(expr.base, expr.splitting)]
        except KeyError:
            raise TowerDataMissing(
                f"tower has no norm data for the extension {expr.splitting}/{expr.base}"
            ) from None
    if isinstance(expr, DirectSum):
        return _evaluate_group(expr.left, tower).direct_sum(
            _evaluate_group(expr.right, tower)
        )
    if isinstance(expr, Quotient):
        numerator = _evaluate_group(expr.numerator, tower)
        denominator = _evaluate_group(expr.denominator, tower)
        if denominator.is_trivial():
            return numerator
        raise CannotEvaluate(
            "quotient by a nontrivial image is not determined by the tower data"
        )
    if isinstance(expr, KernelOfNormMap):
        source = _evaluate_group(expr.source, tower)
        target = _evaluate_group(expr.target, tower)
        if source.is_trivial() or target.is_trivial():
            return source
        raise CannotEvaluate(
            "kernel of a norm map between nontrivial groups is not determined"
            " by the tower data"
        )
    if isinstance(expr, UnresolvedExtension):
        raise CannotEvaluate(
            "an unresolved extension cannot be evaluated inside a larger expression"
        )
    raise TypeError(f"not a symbolic group expression: {expr!r}")


def evaluate(expr: SymGroupExpr, tower: Tower) -> FGAbelianGroup | UnresolvedValue:
    """Evaluate a symbolic expression against explicit norm data.

    An ``UnresolvedExtension`` at the root evaluates to its two end groups
    plus the order product; it is never silently resolved into a single group.
    """
    if isinstance(expr, UnresolvedExtension):
        kernel = _evaluate_group(expr.kernel, tower)
        quotient = _evaluate_group(expr.quotient, tower)
        order: int | None = None
        if kernel.is_finite() and quotient.is_finite():
            order = kernel.order() * quotient.order()
        return UnresolvedValue(kernel, quotient, order)
    return _evaluate_group(expr, tower)


# ---------------------------------------------------------------------------
# The symbolic surface table
# ---------------------------------------------------------------------------

# Field labels used by the table.  K/k is the splitting extension; for a
# symmetry group G inside GL(2, Z) acting through Gal(K/k), K^H denotes the
# subfield fixed by the subgroup H.  In the order-12 family with rotation
# subgroup N of order 6 and a distinguished index-2 subgroup H of order 6:
# L = K^(N meet H) (degree 4 over k when G has order 12), E = K^H (degree 3),
# F = K^N (degree 2).
_D12_FAMILY_EXTENSION = UnresolvedExtension(
    Quotient(RelBrauer("F", "L"), RelBrauer("k", "E")),
    KernelOfNormMap(RelBrauer("E", "L"), RelBrauer("k", "F")),
)

_SURFACE_TABLE: dict[str, SymGroupExpr] = {
    "C1": Explicit(FGAbelianGroup.trivial()),
    "C2": DirectSum(RelBrauer("k", "K"), RelBrauer("k", "K")),
    "C3": RelBrauer("k", "K"),
    "C4": RelBrauer("K^C2", "K"),
    "C6": _D12_FAMILY_EXTENSION,
    "D2": RelBrauer("k", "K"),
    "D2'": Explicit(FGAbelianGroup.trivial()),
    "D4": DirectSum(RelBrauer("k", "K^D2"), RelBrauer("k", "K^D2")),
    "D4'": RelBrauer("K^C2", "K"),
    "D6": _D12_FAMILY_EXTENSION,
    "D6'": RelBrauer("k", "L"),
    "D8": RelBrauer("K^D4", "K^D2"),
    "D12": _D12_FAMILY_EXTENSION,
}

SURFACE_LABELS: tuple[str, ...] = tuple(_SURFACE_TABLE)


def surface_table(
    label: str, tower: Tower | None = None
) -> SymGroupExpr | FGAbelianGroup | UnresolvedValue:
    """Symbolic cohomology of the torus twisted by a full GL(2, Z) class.

    Without a tower the symbolic expression tree is returned; with one, the
    expression is evaluated against the supplied norm data.
    """
    try:
        expr = _SURFACE_TABLE[label]
    except KeyError:
        raise UnknownLabel(f"no surface table row for label {label!r}") from None
    if tower is None:
        return expr
    return evaluate(expr, tower)


# ---------------------------------------------------------------------------
# Partitions for projective space
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PartitionSet:
    """Partitions of ``n_plus_1`` whose parts divide ``d``.

    ``fixed`` collects the partitions with smallest part 1 (these index
    twisting classes with a fixed homogeneous coordinate and contribute a
    single form each); ``starred`` is the complement.
    """

    n_plus_1: int
    d: int
    all: tuple[tuple[int, ...], ...]
    fixed: tuple[tuple[int, ...], ...]
    starred: tuple[tuple[int, ...], ...]


def partitions_dividing(n_plus_1: int, d: int) -> PartitionSet:
    """All weakly decreasing partitions of ``n_plus_1`` with parts dividing ``d``.

    Raises TypeError unless both are exactly ints, and ValueError unless
    both are at least 1.
    """
    _check_int(n_plus_1, "n_plus_1")
    _check_int(d, "d")
    if n_plus_1 < 1 or d < 1:
        raise ValueError("partitions_dividing requires n_plus_1 >= 1 and d >= 1")
    divisors = [m for m in range(d, 0, -1) if d % m == 0]  # descending, ends in 1
    found: list[tuple[int, ...]] = []
    # explicit stack of (the parts chosen so far, what they leave to fill,
    # index of the next divisor); each step picks how often that divisor
    # occurs, and the final 1s complete every prefix
    stack: list[tuple[tuple[int, ...], int, int]] = [((), n_plus_1, 0)]
    while stack:
        prefix, remaining, i = stack.pop()
        m = divisors[i]
        if m == 1:
            found.append(prefix + (1,) * remaining)
            continue
        for k in range(remaining // m + 1):
            stack.append((prefix + (m,) * k, remaining - k * m, i + 1))
    everything = tuple(sorted(found))
    fixed = tuple(p for p in everything if p[-1] == 1)
    starred = tuple(p for p in everything if p[-1] > 1)
    return PartitionSet(n_plus_1, d, everything, fixed, starred)


def _count_partitions_dividing(n_plus_1: int, d: int) -> int:
    """Number of partitions of ``n_plus_1`` with parts dividing ``d``.

    Coin-change counting over the divisors: O(n_plus_1 * divisors(d)) and
    no partition is built.
    """
    ways = [1] + [0] * n_plus_1
    for m in range(1, min(d, n_plus_1) + 1):
        if d % m == 0:
            for total in range(m, n_plus_1 + 1):
                ways[total] += ways[total - m]
    return ways[n_plus_1]


def partition_permutation(partition: Sequence[int], n_plus_1: int) -> tuple[int, ...]:
    """Permutation of the homogeneous indices 0..n with the partition's cycle type.

    The parts act on consecutive index blocks, each block cycled by one step.
    Raises ValueError unless the parts are positive and sum to n + 1.
    """
    if any(m < 1 for m in partition):
        raise ValueError(f"partition parts must be positive, got {tuple(partition)}")
    if sum(partition) != n_plus_1:
        raise ValueError("partition parts must sum to the number of coordinates")
    perm = list(range(n_plus_1))
    start = 0
    for m in partition:
        for offset in range(m):
            perm[start + offset] = start + (offset + 1) % m
        start += m
    return tuple(perm)


def partition_cocharacter_matrix(partition: Sequence[int], n_plus_1: int) -> IntMatrix:
    """Action of the partition's permutation on the cocharacter lattice of P^n.

    The lattice is Z^(n+1)/Z(1,..,1) with basis the images of the last n
    coordinate vectors, so index 0 maps to minus the all-ones vector: the
    column of the index sent to 0 is all -1, and every other index j sent to
    perm[j] puts a 1 in row perm[j] - 1 of column j - 1.  Raises TypeError
    unless n_plus_1 and every part are exactly ints.
    """
    _check_int(n_plus_1, "n_plus_1")
    _check_int_entries((partition,), "partition")
    return _pooled_cocharacter_matrix(partition, n_plus_1, {})


def _pooled_cocharacter_matrix(
    partition: Sequence[int], n_plus_1: int, pool: dict[tuple[int, int], tuple[int, ...]]
) -> IntMatrix:
    """`partition_cocharacter_matrix` with its rows drawn from ``pool``.

    Row r is fixed by two indices: j, the one sent to r + 1 (a 1 in column
    j - 1 unless j = 0), and to_zero, the one sent to 0 (a -1 in column
    to_zero - 1 unless to_zero = 0).  ``pool`` maps (j, to_zero) to that row,
    so matrices built from one pool share their equal rows, at most
    n_plus_1 ** 2 of them.
    """
    perm = partition_permutation(partition, n_plus_1)
    n = n_plus_1 - 1
    to_zero = perm.index(0)
    source = [0] * n_plus_1  # source[perm[j]] = j
    for j, image in enumerate(perm):
        source[image] = j
    rows = []
    for j in source[1:]:
        row = pool.get((j, to_zero))
        if row is None:
            cells = [0] * n
            if to_zero:
                cells[to_zero - 1] = -1
            if j:
                cells[j - 1] = 1
            row = pool[j, to_zero] = tuple(cells)
        rows.append(row)
    return IntMatrix._trusted(tuple(rows), n)


# ---------------------------------------------------------------------------
# Descent status
# ---------------------------------------------------------------------------

FORMS_CLASSIFIED = "FORMS_CLASSIFIED"
TWISTED_FORMS_ONLY = "TWISTED_FORMS_ONLY"


@dataclass(frozen=True)
class DescentStatus:
    status: str
    note: str


def descent_status(
    rank: int, group_order: int, quasiprojective: bool = False
) -> DescentStatus:
    """Whether twisted-form counts are honest form counts over the base field.

    `rank` is the rank of the fan's lattice.  Descent holds automatically for
    fans of rank at most 2 (complete surface fans are quasiprojective), for
    degree-2 extensions, and whenever the caller asserts quasiprojectivity.
    Raises TypeError unless `rank` and `group_order` are exactly ints, and
    ValueError unless both are at least 1.
    """
    for name, value in (("rank", rank), ("group_order", group_order)):
        _check_int(value, name)
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    if rank <= 2:
        return DescentStatus(
            FORMS_CLASSIFIED,
            "rank <= 2: every complete fan in a rank-2 lattice is quasiprojective,"
            " so all twisted forms descend to forms over the base field",
        )
    if group_order <= 2:
        return DescentStatus(
            FORMS_CLASSIFIED,
            "degree <= 2: quadratic descent always holds because any two points"
            " of the variety lie in a common affine open",
        )
    if quasiprojective:
        return DescentStatus(
            FORMS_CLASSIFIED,
            "caller asserted quasiprojectivity, which makes descent effective",
        )
    return DescentStatus(
        TWISTED_FORMS_ONLY,
        "descent may fail: Huruguen gives a three-dimensional toric variety and"
        " a degree-3 extension without descent, so these counts are twisted"
        " forms rather than forms over the base field",
    )


# ---------------------------------------------------------------------------
# Builtin fan catalog
# ---------------------------------------------------------------------------

_HEX = (
    ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)),
    ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)),
)
_SQUARE = (
    ((1, 0), (0, 1), (-1, 0), (0, -1)),
    ((0, 1), (1, 2), (2, 3), (0, 3)),
)
_TRIANGLE = (
    ((1, 0), (0, 1), (-1, -1)),
    ((0, 1), (1, 2), (0, 2)),
)


def _blow_at(fan: Fan, pairs: Sequence[tuple[tuple[int, int], tuple[int, int]]]) -> Fan:
    """Star-subdivide the 2-cones spanned by the listed ray-vector pairs."""
    for u, w in pairs:
        fan = surface_blowup(fan, (fan.rays.index(u), fan.rays.index(w)))
    return fan


def _square_with_corners() -> Fan:
    fan = Fan.make(2, *_SQUARE)
    return _blow_at(
        fan,
        [((1, 0), (0, 1)), ((0, 1), (-1, 0)), ((-1, 0), (0, -1)), ((0, -1), (1, 0))],
    )


def _hex_with_corners() -> Fan:
    fan = Fan.make(2, *_HEX)
    return _blow_at(
        fan,
        [
            ((1, 0), (0, 1)),
            ((0, 1), (-1, 1)),
            ((-1, 1), (-1, 0)),
            ((-1, 0), (0, -1)),
            ((0, -1), (1, -1)),
            ((1, -1), (1, 0)),
        ],
    )


def _c4_fan() -> Fan:
    return _blow_at(
        _square_with_corners(),
        [((1, 0), (1, 1)), ((0, 1), (-1, 1)), ((-1, 0), (-1, -1)), ((0, -1), (1, -1))],
    )


def _build_surface_fan(label: str) -> Fan:
    if label == "D12":
        return Fan.make(2, *_HEX)
    if label == "D8":
        return Fan.make(2, *_SQUARE)
    if label == "C1":
        return _blow_at(
            Fan.make(2, *_TRIANGLE), [((1, 0), (0, 1)), ((1, 0), (1, 1))]
        )
    if label == "D2":
        return _blow_at(
            _square_with_corners(), [((1, 0), (1, 1)), ((1, -1), (1, 0))]
        )
    if label == "D2'":
        return _blow_at(
            _square_with_corners(), [((1, 0), (1, 1)), ((1, 1), (0, 1))]
        )
    if label == "D4":
        return _blow_at(
            _square_with_corners(),
            [
                ((1, 0), (1, 1)),
                ((-1, 0), (-1, -1)),
                ((1, -1), (1, 0)),
                ((-1, 1), (-1, 0)),
            ],
        )
    if label == "D4'":
        return _blow_at(
            Fan.make(2, *_HEX),
            [
                ((0, 1), (-1, 1)),
                ((-1, 1), (-1, 0)),
                ((0, -1), (1, -1)),
                ((1, -1), (1, 0)),
            ],
        )
    if label == "C4":
        return _c4_fan()
    if label == "C2":
        return _blow_at(_c4_fan(), [((1, 0), (2, 1)), ((-1, 0), (-2, -1))])
    if label == "C6":
        return _blow_at(
            _hex_with_corners(),
            [
                ((1, 0), (1, 1)),
                ((0, 1), (-1, 2)),
                ((-1, 1), (-2, 1)),
                ((-1, 0), (-1, -1)),
                ((0, -1), (1, -2)),
                ((1, -1), (2, -1)),
            ],
        )
    if label == "D6":
        return _blow_at(
            _hex_with_corners(),
            [
                ((1, 0), (1, 1)),
                ((-1, 1), (-2, 1)),
                ((0, -1), (1, -2)),
                ((2, -1), (1, 0)),
                ((-1, 2), (-1, 1)),
                ((-1, -1), (0, -1)),
            ],
        )
    if label == "D6'":
        return _blow_at(
            _hex_with_corners(),
            [
                ((1, 0), (1, 1)),
                ((-1, 1), (-2, 1)),
                ((0, -1), (1, -2)),
                ((1, 1), (0, 1)),
                ((-2, 1), (-1, 0)),
                ((1, -2), (1, -1)),
            ],
        )
    if label == "C3":
        return fan_from_boundary_word((1, 2, 3, 1, 4) * 3)
    raise UnknownLabel(f"no surface fan construction for label {label!r}")


@lru_cache(maxsize=None)
def _surface_fan(label: str) -> Fan:
    fan = _build_surface_fan(label)
    aut = automorphism_group(fan)  # validates the fan
    assert is_smooth(fan) and is_complete(fan)
    found = identify_gl2_class(aut)
    assert found == label, f"surface fan for {label} identified as {found}"
    return fan


BUILTIN_SURFACE_NAMES: tuple[str, ...] = tuple(
    "surface:" + label.replace("'", "p") for label in GL2_CLASS_LABELS
)

#: Fixed-name catalog entries; "projective:n" is additionally accepted for n >= 1.
BUILTIN_NAMES: tuple[str, ...] = ("hexagon",) + BUILTIN_SURFACE_NAMES


@lru_cache(maxsize=None)
def _projective_fan(n: int) -> Fan:
    rays = [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]
    rays.append(tuple(-1 for _ in range(n)))
    cones = [tuple(k for k in range(n + 1) if k != skip) for skip in range(n + 1)]
    return Fan.make(n, rays, cones)


def builtin_fan(name: str) -> Fan:
    """Look up a fan by catalog name.

    Accepted names: ``hexagon`` (alias for ``surface:D12``), ``surface:X``
    for each GL(2, Z) class label X (with a trailing ``p`` standing for the
    primed label), and ``projective:n`` for n >= 1.
    """
    if name == "hexagon":
        return _surface_fan("D12")
    if name.startswith("surface:"):
        suffix = name[len("surface:") :]
        if name not in BUILTIN_SURFACE_NAMES:
            raise UnknownName(f"unknown builtin surface fan: {name!r}")
        label = suffix[:-1] + "'" if suffix.endswith("p") else suffix
        return _surface_fan(label)
    if name.startswith("projective:"):
        tail = name[len("projective:") :]
        if not (tail.isascii() and tail.isdigit()) or int(tail) < 1:
            raise UnknownName(
                f"projective fans need a dimension of at least 1, got {tail!r}"
            )
        return _projective_fan(int(tail))
    raise UnknownName(f"unknown builtin fan name: {name!r}")


# ---------------------------------------------------------------------------
# Classification reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReportEntry:
    """One twisting class: generator images, its cohomology value, descent."""

    label: str
    phi_images: tuple[IntMatrix, ...]
    value: FGAbelianGroup
    descent: DescentStatus


def h1_value_json(value: FGAbelianGroup | SymGroupExpr | UnresolvedValue) -> dict:
    if isinstance(value, FGAbelianGroup):
        return {
            "kind": "explicit",
            "free_rank": value.free_rank,
            "invariant_factors": list(value.invariant_factors),
            "order": value.order(),
            "text": str(value),
        }
    if isinstance(value, UnresolvedValue):
        return {
            "kind": "symbolic",
            "text": (
                f"unresolved extension: kernel {value.kernel},"
                f" quotient {value.quotient}, order {value.order}"
            ),
        }
    return {"kind": "symbolic", "text": render(value)}


@dataclass(frozen=True)
class ClassificationReport:
    """Classification of twisted forms for one fan / group / backend triple."""

    fan_name: str
    group_name: str
    backend_name: str
    entries: tuple[ReportEntry, ...]
    total: int

    def to_json_dict(self) -> dict:
        return {
            "fan": self.fan_name,
            "group": self.group_name,
            "backend": self.backend_name,
            "entries": [
                {
                    "label": entry.label,
                    "phi": [mat.rows for mat in entry.phi_images],
                    "h1": h1_value_json(entry.value),
                    "descent": {
                        "status": entry.descent.status,
                        "note": entry.descent.note,
                    },
                }
                for entry in self.entries
            ],
            "total": self.total,
        }

    def to_json(self) -> str:
        return _jsonout.dumps(self.to_json_dict())

    def lines(self) -> Iterator[str]:
        """The lines of the text form, one at a time."""
        yield f"fan {self.fan_name}: group {self.group_name}, backend {self.backend_name}"
        for entry in self.entries:
            value = h1_value_json(entry.value)["text"]
            yield f"  {entry.label:<32} H^1 = {value:<16} [{entry.descent.status}]"
        yield f"  total forms: {self.total}"

    def __str__(self) -> str:
        return "\n".join(self.lines())


def _report_total(entries: Sequence[ReportEntry]) -> int:
    return sum(entry.value.order() for entry in entries)


# ---------------------------------------------------------------------------
# Classifiers
# ---------------------------------------------------------------------------


#: Largest number of matrix cells (partitions times n * n) in one
#: ``classify_projective`` report; ``-n 300`` over C/R needs 13.6 million.
#: The matrices share their rows and the command line streams its output,
#: so this bounds time, not memory: ``-n 300 --json`` writes 205 MB in
#: about 0.2 s and peaks at 21 MB.
MAX_PROJECTIVE_CELLS = 14_000_000


def classify_projective(n: int, backend: FieldBackend) -> ClassificationReport:
    """Forms of projective n-space split by a cyclic extension.

    Twisting classes correspond to partitions of n+1 whose parts divide the
    degree.  A partition with a part equal to 1 fixes a homogeneous
    coordinate and contributes a single form; every other partition
    contributes the norm quotient cut out by its parts' stabilizer
    subgroups; a part m is an orbit of m coordinates, so its stabilizer has
    order d // m.  The enumeration is purely combinatorial — the symmetry group
    of the fan (all coordinate permutations) is never materialised.

    A matrix row is fixed by where its 1 and its -1 sit, so the call keeps
    one pool of rows and every matrix of the report points into it: at most
    (n+1)**2 row objects in all.  The norm quotient depends on the set of
    parts alone, so it is computed once per set.
    Raises TypeError unless n is exactly an int, ValueError when n < 1, and
    ``TooLarge`` before building anything when the partition matrices would
    hold more than ``MAX_PROJECTIVE_CELLS`` entries.
    """
    _check_int(n, "n")
    if n < 1:
        raise ValueError("projective space classification needs n >= 1")
    group = backend.group
    d = group.order
    # one n x n matrix per partition; n * n alone bounds the counting cost
    if n * n > MAX_PROJECTIVE_CELLS or (
        n * n * _count_partitions_dividing(n + 1, d) > MAX_PROJECTIVE_CELLS
    ):
        raise TooLarge(
            f"projective:{n} over a degree-{d} extension needs one {n}x{n} matrix per"
            f" partition, more than {MAX_PROJECTIVE_CELLS} matrix cells in all"
        )
    parts = partitions_dividing(n + 1, d)
    verdict = descent_status(n, d, quasiprojective=True)
    entries = []
    rows: dict[tuple[int, int], tuple[int, ...]] = {}
    # the quotient meets one norm image per stabilizer order, so repeated
    # parts change nothing: it depends on the set of parts alone
    quotients: dict[frozenset[int], FGAbelianGroup] = {}
    for partition in parts.all:
        matrix = _pooled_cocharacter_matrix(partition, n + 1, rows)
        key = frozenset(partition)
        value = quotients.get(key)
        if value is None:
            value = quotients[key] = norm_quotient(backend, [d // m for m in partition])
        if partition[-1] == 1:
            assert value.is_trivial(), "a fixed coordinate must force triviality"
        entries.append(
            ReportEntry(f"partition {partition}", (matrix,), value, verdict)
        )
    total = _report_total(entries)
    if _prime_factors(d) == (d,):
        relative_brauer = norm_quotient(backend, [])
        expected = len(parts.fixed) + (
            relative_brauer.order() if (n + 1) % d == 0 else 0
        )
        assert total == expected, "prime-degree closed form disagrees with entries"
    return ClassificationReport(
        f"projective:{n}", group.name, backend.describe(), tuple(entries), total
    )


def classify_fan(
    fan: Fan,
    backend: FieldBackend,
    *,
    quasiprojective: bool = False,
    fan_name: str = "custom",
) -> ClassificationReport:
    """Twisted forms of the toric variety of ``fan`` split by ``backend``.

    One entry per conjugacy class of homomorphisms from the Galois group
    `backend.group` into the fan symmetry group; each entry carries the
    generator's image (none when the group is trivial) and the cohomology
    of the correspondingly twisted torus, from `hom_class_h1`.
    """
    aut = automorphism_group(fan)  # validates the fan first
    group = backend.group
    classes = enumerate_hom_classes(group, aut)
    verdict = descent_status(fan.rank, group.order, quasiprojective)
    entries = []
    for index, cls in enumerate(classes):
        value = hom_class_h1(fan, cls, backend)
        label = "trivial" if cls.is_trivial else f"class {index}"
        images = (cls.matrix,) * len(group.generators)
        entries.append(ReportEntry(label, images, value, verdict))
    return ClassificationReport(
        fan_name, group.name, backend.describe(), tuple(entries), _report_total(entries)
    )


def classify_surface_real(fan: Fan, *, fan_name: str = "custom") -> ClassificationReport:
    """Real classification of a rank-2 fan with involution-type tags.

    Each entry of the order-2 classification is labelled by the lattice type
    of its involution and the GL(2, Z) class of the subgroup it generates;
    the computed value is checked against the symbolic surface table row for
    that subgroup evaluated over C/R.
    """
    if fan.rank != 2:
        raise RankUnsupported("the real surface classification needs a rank-2 fan")
    base = classify_fan(fan, RealComplexBackend(), fan_name=fan_name)
    entries = []
    for entry in base.entries:
        matrix = entry.phi_images[0]
        kind = involution_type(matrix)
        identity = IntMatrix.identity(2)
        subgroup = [identity] if matrix == identity else [identity, matrix]
        sublabel = identify_gl2_class(subgroup)
        expected = surface_table(sublabel, REAL_TOWER)
        assert expected == entry.value, (
            f"surface table row {sublabel} disagrees with the computed group"
        )
        entries.append(replace(entry, label=f"sigma ~ {kind} ({sublabel})"))
    return replace(base, entries=tuple(entries))
