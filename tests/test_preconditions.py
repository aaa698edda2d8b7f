"""Typed preconditions of the public API, in one table.

Every public function and validating constructor refuses ill-formed input
with a typed exception (a TypeError or ValueError subclass) that names what
is wrong, never with a bare AssertionError, and `python -O`, which strips
asserts, changes none of it.  Each row of `rows()` is (label, call,
expected), the label being the call as written, and the expected outcome
``ExcType message`` for a refusal or ``returned <str>`` for a value.  The
table runs once in process and once in a `python -O` child, which runs this
file as a script, and both must give the expected lines.  The rows fall
into sections by the part of the library they call; the linear-algebra, fan
and Galois test files each require their own section of that one child's
output.  A public name with neither a row (a label that starts with it) nor
an entry of `EXEMPT` fails the guard.
"""

import functools
import json
import re
import subprocess
import sys
from pathlib import Path

import toricforms
from toricforms import *  # noqa: F403 -- the table calls the names as exported
from toricforms.cohomology import FiniteModule
from toricforms.exact_linalg import (
    basis_mod,
    congruence_kernel,
    det,
    fraction_free_solve,
    intersection_mod,
    lattice_subquotient,
    quotient_mod,
)
from toricforms.fans import degree_data, is_smooth
from toricforms.galois import MAX_GROUP_ORDER

#: Public names with no row, and why none is needed.
EXEMPT = (
    ("BUILTIN_NAMES", "a constant"),
    ("REAL_TOWER", "a constant"),
    ("SURFACE_LABELS", "a constant"),
    ("__version__", "a constant"),
    ("RealComplexBackend", "takes no arguments, so no call of it is ill-formed"),
    ("ClassificationReport", "a record the classifiers fill with checked values; it checks nothing"),
    ("ReportEntry", "a record the classifiers fill with checked values; it checks nothing"),
)


def sections() -> dict[str, list[tuple[str, object, str]]]:
    """The table's rows, by the part of the library they call."""
    M, C, I1, I2 = IntMatrix.from_rows, IntMatrix.from_cols, IntMatrix.identity(1), IntMatrix.identity(2)
    C2, REAL, F4 = GroupSpec.cyclic(2), RealComplexBackend(), FiniteFieldBackend(2, 2)
    C6 = GroupSpec.cyclic(6)
    a, b = M([[1, 2]]), M([[1, 2], [3, 4]])
    swap, quarter = M([[0, 1], [1, 0]]), M([[0, -1], [1, 0]])
    bad = Fan.make(2, [(1, 0), (2, 0)], [(0,), (1,)])  # ray 1 is not primitive
    unused = Fan.make(2, [(1, 0), (0, 1), (-1, -1), (1, 1)], [(0, 1), (1, 2), (0, 2)])
    P1_AUT = automorphism_group(Fan.make(1, [[1], [-1]], [[0], [1]]))
    # two images naming the subgroup {0, 2} of Z/4, by generators 2 and 6
    REPEATED = json.dumps({"Q": {"invariant_factors": [4]}, "images": [
        {"subgroup_gens": [2], "subgroup_of_Q": [[2]]},
        {"subgroup_gens": [6], "subgroup_of_Q": [[6]]},
    ]})
    c6 = builtin_fan("surface:C6")
    c6_hom = enumerate_hom_classes(GroupSpec.cyclic(6), automorphism_group(c6))[1]
    p2, hexagon = builtin_fan("projective:2"), builtin_fan("surface:D12")
    copy = Fan.make(hexagon.rank, hexagon.rays, hexagon.max_cones)  # an equal fresh fan
    copy_classes = enumerate_hom_classes(C2, automorphism_group(copy))
    hexagon_classes = enumerate_hom_classes(C2, automorphism_group(hexagon))
    nonprimitive = "NonPrimitiveRay ray 1 = (2, 0) is not primitive"
    unused_ray = "UnusedRay ray 3 = (1, 1) lies in no maximal cone"
    degree = "ValueError backend: extension degree {} differs from the order {} of the twisting group of hom"
    foreign = "ValueError hom: a hom class of another fan"
    table = {}
    table["linear algebra"] = [
        # shapes, moduli and entries
        ("a @ a", lambda: a @ a, "ValueError shape mismatch: (1, 2) @ (1, 2)"),
        ("a + b", lambda: a + b, "ValueError shape mismatch: (1, 2) + (2, 2)"),
        ("a - b", lambda: a - b, "ValueError shape mismatch: (1, 2) + (2, 2)"),
        ("a.apply((1,))", lambda: a.apply((1,)), "ValueError shape mismatch: (1, 2) @ vector of length 1"),
        ("b.hstack(M([[1]]))", lambda: b.hstack(M([[1]])), "ValueError shape mismatch: (2, 2) beside (1, 1)"),
        ("b.vstack(M([[1]]))", lambda: b.vstack(M([[1]])), "ValueError shape mismatch: (2, 2) over (1, 1)"),
        ("det(a)", lambda: det(a), "ValueError det of a non-square (1, 2) matrix"),
        ("basis_mod(b, 0)", lambda: basis_mod(b, 0), "ValueError modulus must be >= 1, got 0"),
        ("congruence_kernel(b, 0)", lambda: congruence_kernel(b, 0),
         "ValueError modulus must be >= 1, got 0"),
        ("quotient_mod(b, I2, 0)", lambda: quotient_mod(b, I2, 0), "ValueError modulus must be >= 1, got 0"),
        ("quotient_mod(I2, a, 6)", lambda: quotient_mod(I2, a, 6),
         "ValueError sub must have the 2 rows of sup, got shape (1, 2)"),
        ("fraction_free_solve(b, a)", lambda: fraction_free_solve(b, a),
         "ValueError b must have the 2 rows of a, got shape (1, 2)"),
        ("intersection_mod(b, a, 6)", lambda: intersection_mod(b, a, 6),
         "ValueError b must have the 2 rows of a, got shape (1, 2)"),
        ("FGAbelianGroup(0, (3, 2))", lambda: FGAbelianGroup(0, (3, 2)),
         "ValueError invariant_factors must be >= 2, each dividing the next, got (3, 2)"),
        ("FGAbelianGroup(-1, (1,))", lambda: FGAbelianGroup(-1, (1,)),
         "ValueError free_rank must be >= 0, got -1"),
        ("FGAbelianGroup.cyclic(-2)", lambda: FGAbelianGroup.cyclic(-2), "ValueError n must be >= 1, got -2"),
        ("FGAbelianGroup.from_factors([-3, 2])", lambda: FGAbelianGroup.from_factors([-3, 2]),
         "ValueError factors must be >= 0, got [-3, 2]"),
        ("FGAbelianGroup(True)", lambda: FGAbelianGroup(True),
         "TypeError free_rank must be an int, got bool True"),
        ("FGAbelianGroup(0, (2.0,))", lambda: FGAbelianGroup(0, (2.0,)),
         "TypeError invariant_factors must have int entries, got float 2.0"),
        ("FGAbelianGroup(0, [2])", lambda: FGAbelianGroup(0, [2]),
         "TypeError invariant_factors must be a tuple, got list [2]"),
        # dependent ambient generators are fine
        ("lattice_subquotient(C([(2, 0), (3, 0), (0, 4)]), C([(2, 0), (0, 8)]))",
         lambda: lattice_subquotient(C([(2, 0), (3, 0), (0, 4)]), C([(2, 0), (0, 8)])), "returned Z/2 + Z/2"),
        ("smith_normal_form([[1, 2]])", lambda: smith_normal_form([[1, 2]]),
         "TypeError m must be an IntMatrix, got list"),
        ("smith_normal_form(M([[2.9, 0], [0, 1]]))", lambda: smith_normal_form(M([[2.9, 0], [0, 1]])),
         "TypeError rows must have int entries, got float 2.9"),
        ("smith_normal_form(IntMatrix(((2.9, 0), (0, 1))))",
         lambda: smith_normal_form(IntMatrix(((2.9, 0), (0, 1)))),
         "TypeError rows must have int entries, got float 2.9"),
        ("IntMatrix(((1.5, 2), (0, 1)))", lambda: IntMatrix(((1.5, 2), (0, 1))),
         "TypeError rows must have int entries, got float 1.5"),
        ("IntMatrix.diagonal([1.5, 2])", lambda: IntMatrix.diagonal([1.5, 2]),
         "TypeError rows must have int entries, got float 1.5"),
        ("b.scaled(1.5)", lambda: b.scaled(1.5), "TypeError c must be an int, got float 1.5"),
        ("IntMatrix.from_rows([[1, True]])", lambda: M([[1, True]]),
         "TypeError rows must have int entries, got bool True"),
        ("IntMatrix.from_cols([(1, 0), ('2', 1)])", lambda: C([(1, 0), ("2", 1)]),
         "TypeError cols must have int entries, got str '2'"),
        ("IntMatrix.from_rows([[1, 2], [3]])", lambda: M([[1, 2], [3]]), "ValueError ragged rows: [1, 2]"),
    ]
    table["fans"] = [
        # no invariant answers on a non-fan, and Fan.make converts nothing
        ("classify_fan(bad, REAL)", lambda: classify_fan(bad, REAL), nonprimitive),
        ("Fan.make(2, [(1.7, 0), (0, 1)], [(0, 1)])", lambda: Fan.make(2, [(1.7, 0), (0, 1)], [(0, 1)]),
         "TypeError rays must have int entries, got float 1.7"),
        ("Fan.make(2, [(True, 0), (0, 1)], [(0, 1)])", lambda: Fan.make(2, [(True, 0), (0, 1)], [(0, 1)]),
         "TypeError rays must have int entries, got bool True"),
        ("Fan.make(2, [(1, 0), (0, 1)], [(0, 1.0)])", lambda: Fan.make(2, [(1, 0), (0, 1)], [(0, 1.0)]),
         "TypeError max_cones must have int entries, got float 1.0"),
        ("Fan.make(2.0, [(1, 0), (0, 1)], [(0, 1)])", lambda: Fan.make(2.0, [(1, 0), (0, 1)], [(0, 1)]),
         "TypeError rank must be an int, got float 2.0"),
        ("validate_fan(Fan(2, ((True, 0), (0, 1)), ((0, 1),)))",
         lambda: validate_fan(Fan(2, ((True, 0), (0, 1)), ((0, 1),))),
         "TypeError rays must have int entries, got bool True"),
    ]
    readers = (class_group, cox_data, degree_data, is_smooth, validate_fan, is_complete, automorphism_group)
    for read in readers:
        table["fans"].append((f"{read.__name__}(bad)", lambda read=read: read(bad), nonprimitive))
    for read in (class_group, cox_data):
        table["fans"].append((f"{read.__name__}(unused)", lambda read=read: read(unused), unused_ray))
    table["catalog"] = [
        # the builtin catalog and the surface table
        ("builtin_fan('projective:0')", lambda: builtin_fan("projective:0"),
         "UnknownName projective fans need a dimension of at least 1, got '0'"),
        ("classify_surface_real(builtin_fan('projective:3'))",
         lambda: classify_surface_real(builtin_fan("projective:3")),
         "RankUnsupported the real surface classification needs a rank-2 fan"),
        ("surface_table('nope')", lambda: surface_table("nope"),
         "UnknownLabel no surface table row for label 'nope'"),
        ("evaluate(surface_table('C4'), REAL_TOWER)", lambda: evaluate(surface_table("C4"), REAL_TOWER),
         "TowerDataMissing tower has no norm data for the extension K/K^C2"),
        ("render(5)", lambda: render(5), "TypeError not a symbolic group expression: 5"),
    ]
    table["galois"] = [
        # the Galois group, backends and finite modules
        ("FiniteFieldBackend(6, 2)", lambda: FiniteFieldBackend(6, 2),
         "ValueError finite-field backend needs a prime power, got q=6"),
        ("FiniteFieldBackend(2, 0)", lambda: FiniteFieldBackend(2, 0),
         "ValueError finite-field backend needs degree d >= 1, got d=0"),
        ("FiniteFieldBackend(3, 2.0)", lambda: FiniteFieldBackend(3, 2.0),
         "TypeError d must be an int, got float 2.0"),
        ("FiniteFieldBackend(3.0, 2)", lambda: FiniteFieldBackend(3.0, 2),
         "TypeError q must be an int, got float 3.0"),
        ("FiniteFieldBackend(True, 2)", lambda: FiniteFieldBackend(True, 2),
         "TypeError q must be an int, got bool True"),
        ("GroupSpec.cyclic(0)", lambda: GroupSpec.cyclic(0),
         f"ValueError cyclic group order must be in 1..{MAX_GROUP_ORDER}, got 0"),
        ("GroupSpec(MAX_GROUP_ORDER + 1)", lambda: GroupSpec(MAX_GROUP_ORDER + 1),
         f"TooLarge cyclic group order must be in 1..{MAX_GROUP_ORDER}, got {MAX_GROUP_ORDER + 1}"),
        ("GroupSpec(2.5)", lambda: GroupSpec(2.5), "TypeError order must be an int, got float 2.5"),
        ("GroupSpec(True)", lambda: GroupSpec(True), "TypeError order must be an int, got bool True"),
        ("FiniteModule(C2, (5,), M([[2]]))", lambda: FiniteModule(C2, (5,), M([[2]])),
         "ValueError action is not a homomorphism"),
        ("FiniteModule(C2, (0,), I1)", lambda: FiniteModule(C2, (0,), I1),
         "ValueError moduli must be at least 1, got (0,)"),
        ("FiniteModule(C2, (5,), (I1,))", lambda: FiniteModule(C2, (5,), (I1,)),
         "TypeError sigma must be an IntMatrix, got tuple"),
        ("FiniteModule(C2, (5,), M([[1, 0]]))", lambda: FiniteModule(C2, (5,), M([[1, 0]])),
         "ValueError action matrix of shape (1, 2), expected (1, 1)"),
        ("FiniteModule(C2, (1, 5), M([[0, 0], [0, 2]]))",
         lambda: FiniteModule(C2, (1, 5), M([[0, 0], [0, 2]])),
         "ValueError action is not a homomorphism"),
        ("FiniteModule(C2, (2, 3), swap)", lambda: FiniteModule(C2, (2, 3), swap),
         "ValueError action matrix [0 1; 1 0] does not descend to the moduli (2, 3)"),
        ("FiniteModule(C2, (1, 5), M([[7, 0], [0, -1]])).moduli",
         lambda: FiniteModule(C2, (1, 5), M([[7, 0], [0, -1]])).moduli, "returned (1, 5)"),
        ("FiniteModule(C2, (5,), M([[-1]])).moduli", lambda: FiniteModule(C2, (5,), M([[-1]])).moduli,
         "returned (5,)"),
        ("brute_force_h1_finite(FiniteModule(C2, (4000, 4000), -I2))",
         lambda: brute_force_h1_finite(FiniteModule(C2, (4000, 4000), -I2)),
         "TooLarge 16000000 candidate assignments times 2^2 group pairs exceed 10000000 cocycle checks"),
        ("SymbolicBrauerBackend.from_json('{\"Q\": {}}', 2)",
         lambda: SymbolicBrauerBackend.from_json('{"Q": {}}', 2),
         "ValueError symbolic backend JSON: missing key 'invariant_factors'"),
        ("SymbolicBrauerBackend(2, (1,), ())", lambda: SymbolicBrauerBackend(2, (1,), ()),
         "ValueError invariant factors of Q must be at least 2, got [1]"),
        ("SymbolicBrauerBackend(2.0, (2,), ())", lambda: SymbolicBrauerBackend(2.0, (2,), ()),
         "TypeError degree must be an int, got float 2.0"),
        ("SymbolicBrauerBackend(2, (2, 3), ((2, I1),))", lambda: SymbolicBrauerBackend(2, (2, 3), ((2, I1),)),
         "ValueError norm image of the subgroup of order 2 needs 2 rows, one per factor of Q, got 1"),
        ("SymbolicBrauerBackend(4, (2,), ((3, I1),))", lambda: SymbolicBrauerBackend(4, (2,), ((3, I1),)),
         "ValueError 3 is not the order of a subgroup of Z/4"),
        ("SymbolicBrauerBackend(4, (2,), ((0, I1),))", lambda: SymbolicBrauerBackend(4, (2,), ((0, I1),)),
         "ValueError 0 is not the order of a subgroup of Z/4"),
        ("SymbolicBrauerBackend(4, (4,), ((2, M([[2]])), (2, M([[6]]))))",
         lambda: SymbolicBrauerBackend(4, (4,), ((2, M([[2]])), (2, M([[6]])))),
         "ValueError two norm images for the subgroup of order 2 of Z/4"),
        ("SymbolicBrauerBackend.from_json(REPEATED, 4)", lambda: SymbolicBrauerBackend.from_json(REPEATED, 4),
         "ValueError two norm images for the subgroup of order 2 of Z/4"),
        ("norm_quotient(REAL, [3])", lambda: norm_quotient(REAL, [3]),
         "ValueError 3 is not the order of a subgroup of Z/2"),
        ("norm_quotient(FiniteFieldBackend(2, 4), [3])", lambda: norm_quotient(FiniteFieldBackend(2, 4), [3]),
         "ValueError 3 is not the order of a subgroup of Z/4"),
        ("FiniteFieldBackend(2, 4).norm_image_generator(3)",
         lambda: FiniteFieldBackend(2, 4).norm_image_generator(3),
         "ValueError 3 is not the order of a subgroup of Z/4"),
        ("enumerate_hom_classes(C2, None)", lambda: enumerate_hom_classes(C2, None),
         "TypeError aut must be a FanAutGroup, got NoneType"),
        ("enumerate_hom_classes(None, P1_AUT)", lambda: enumerate_hom_classes(None, P1_AUT),
         "TypeError group must be a GroupSpec, got NoneType"),
        # finite GL(2, Z) groups and involutions
        ("identify_gl2_class([M([[1, 0], [0, 0]])])", lambda: identify_gl2_class([M([[1, 0], [0, 0]])]),
         "UnidentifiedClass matrix [1 0; 0 0] has order > 12, not in a finite GL(2,Z) group"),
        ("identify_gl2_class([I2, quarter])", lambda: identify_gl2_class([I2, quarter]),
         "UnidentifiedClass matrix set is not closed under products"),
        ("identify_gl2_class([])", lambda: identify_gl2_class([]), "UnidentifiedClass empty group"),
        ("identify_gl2_class([IntMatrix.identity(3)])", lambda: identify_gl2_class([IntMatrix.identity(3)]),
         "UnidentifiedClass finite GL(2,Z) groups consist of 2x2 matrices"),
        ("involution_type(quarter)", lambda: involution_type(quarter),
         "NotInvolution matrix [0 -1; 1 0] is not an involution"),
        ("involution_type(M([[1, 1], [0, 1]]))", lambda: involution_type(M([[1, 1], [0, 1]])),
         "NotInvolution matrix [1 1; 0 1] is not an involution"),
        ("involution_type(M([[1, 0, 0], [0, 1, 0]]))", lambda: involution_type(M([[1, 0, 0], [0, 1, 0]])),
         "NotInvolution matrix [1 0 0; 0 1 0] is not an involution"),
        ("h1_real_involution(quarter)", lambda: h1_real_involution(quarter),
         "NotInvolution matrix [0 -1; 1 0] is not an involution"),
    ]
    table["cohomology"] = [
        # degrees, foreign classes, partitions and descent
        ("h1_cyclic_norm_formula(c6, c6_hom, F4)", lambda: h1_cyclic_norm_formula(c6, c6_hom, F4),
         degree.format(2, 6)),
        ("finite_field_torus_module(F4, c6_hom)", lambda: finite_field_torus_module(F4, c6_hom),
         degree.format(2, 6)),
        ("hom_class_h1(c6, c6_hom, F4)", lambda: hom_class_h1(c6, c6_hom, F4), degree.format(2, 6)),
        ("hom_class_h1(hexagon, hexagon_classes[1], FiniteFieldBackend(3, 4))",
         lambda: hom_class_h1(hexagon, hexagon_classes[1], FiniteFieldBackend(3, 4)), degree.format(4, 2)),
        ("hom_class_h1(p2, hexagon_classes[1], REAL)", lambda: hom_class_h1(p2, hexagon_classes[1], REAL),
         foreign),
        ("hom_class_h1(p2, hexagon_classes[0], REAL)", lambda: hom_class_h1(p2, hexagon_classes[0], REAL),
         foreign),
        ("hom_class_h1(hexagon, copy_classes[1], REAL)", lambda: hom_class_h1(hexagon, copy_classes[1], REAL),
         "returned Z/2 + Z/2"),
        ("oracle_routes(hexagon, REAL)", lambda: oracle_routes(hexagon, REAL),
         "ValueError the oracle verb needs a finite-field backend (ff:q,d)"),
        # H^1 joined from the primary parts Z/2 and Z/3
        ("brute_force_h1_finite(FiniteModule(C6, (6,), I1))",
         lambda: brute_force_h1_finite(FiniteModule(C6, (6,), I1)), "returned Z/6"),
        ("partition_cocharacter_matrix((0, 3), 3)", lambda: partition_cocharacter_matrix((0, 3), 3),
         "ValueError partition parts must be positive, got (0, 3)"),
        ("partition_cocharacter_matrix((-1, 4), 3)", lambda: partition_cocharacter_matrix((-1, 4), 3),
         "ValueError partition parts must be positive, got (-1, 4)"),
        ("partition_cocharacter_matrix((4, -1, 0), 3)", lambda: partition_cocharacter_matrix((4, -1, 0), 3),
         "ValueError partition parts must be positive, got (4, -1, 0)"),
        ("partition_cocharacter_matrix((1.0, 2), 3)", lambda: partition_cocharacter_matrix((1.0, 2), 3),
         "TypeError partition must have int entries, got float 1.0"),
        ("partition_cocharacter_matrix((1, 2), 3.0)", lambda: partition_cocharacter_matrix((1, 2), 3.0),
         "TypeError n_plus_1 must be an int, got float 3.0"),
        ("partitions_dividing(3.0, 2)", lambda: partitions_dividing(3.0, 2),
         "TypeError n_plus_1 must be an int, got float 3.0"),
        ("partitions_dividing(3, True)", lambda: partitions_dividing(3, True),
         "TypeError d must be an int, got bool True"),
        ("classify_projective(True, REAL)", lambda: classify_projective(True, REAL),
         "TypeError n must be an int, got bool True"),
        ("classify_projective(2.0, REAL)", lambda: classify_projective(2.0, REAL),
         "TypeError n must be an int, got float 2.0"),
        ("descent_status(-1, 0)", lambda: descent_status(-1, 0), "ValueError rank must be >= 1, got -1"),
        ("descent_status(3, 0)", lambda: descent_status(3, 0), "ValueError group_order must be >= 1, got 0"),
        ("descent_status(2.0, 2)", lambda: descent_status(2.0, 2),
         "TypeError rank must be an int, got float 2.0"),
        ("descent_status(3, True)", lambda: descent_status(3, True),
         "TypeError group_order must be an int, got bool True"),
    ]
    # The hexagon's C2 classes and those of an equal fresh copy are classes
    # of the hexagon, and of no other fan: over R the values are 1,
    # Z/2 + Z/2, 1, 1, over F_9 all 1.
    values = {"C/R": ["1", "Z/2 + Z/2", "1", "1"], "F_3^2/F_3": ["1"] * 4}
    for backend in (REAL, FiniteFieldBackend(3, 2)):
        for i, (cls, value) in enumerate(zip(copy_classes, values[backend.describe()])):
            for name, fan, expected in (("p2", p2, foreign), ("hexagon", hexagon, f"returned {value}")):
                table["cohomology"].append((
                    f"h1_cyclic_norm_formula({name}, copy_classes[{i}], {backend.describe()})",
                    lambda f=fan, c=cls, b=backend: h1_cyclic_norm_formula(f, c, b), expected))
    return table


def rows(section: str | None = None) -> list[tuple[str, object, str]]:
    """The rows of one section, or of the whole table."""
    return [row for name, part in sections().items() if section in (None, name) for row in part]


def outcome(call) -> str:
    """``ExcType message`` for what the call raises, else ``returned <str>``."""
    try:
        value = call()
    except Exception as exc:  # noqa: BLE001 -- a stray AssertionError must show as a line too
        return f"{type(exc).__name__} {exc}"
    return f"returned {value}"


def lines() -> list[str]:
    return [f"{label} -> {outcome(call)}" for label, call, _ in rows()]


def expected_lines(section: str | None = None) -> list[str]:
    return [f"{label} -> {expected}" for label, _, expected in rows(section)]


@functools.cache
def optimized_lines() -> tuple[str, ...]:
    """The table's lines from one `python -O` child, which runs this file."""
    env = {"PYTHONPATH": str(Path(toricforms.__file__).resolve().parents[1])}
    child = subprocess.run([sys.executable, "-O", __file__], capture_output=True, text=True, timeout=60,
                           env=env, check=True)
    return tuple(child.stdout.splitlines())


def optimized_section(section: str) -> list[str]:
    """The lines of one section's rows, from the same `python -O` child."""
    labels = {label for label, _, _ in rows(section)}
    return [line for line in optimized_lines() if line.split(" -> ", 1)[0] in labels]


def test_rows_in_process():
    assert lines() == expected_lines()


def test_rows_under_optimized_mode():
    assert list(optimized_lines()) == expected_lines()


def test_every_public_name_has_a_row_or_an_exemption():
    covered = {re.match(r"\w+", label).group() for label, _, _ in rows()}
    exempt = dict(EXEMPT)
    assert set(exempt) <= set(toricforms.__all__) and not covered & set(exempt)
    assert [name for name in toricforms.__all__ if name not in covered | set(exempt)] == []


if __name__ == "__main__":
    print("\n".join(lines()))
