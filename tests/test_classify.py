"""Oracle tests for the top-level classifier assembly.

Frozen expectations cover the partition machinery for projective spaces,
the builtin fan catalog, the symbolic surface table, and the report
structure produced by the fan classifier.
"""

from __future__ import annotations

import json
import math

import pytest

from toricforms.exact_linalg import FGAbelianGroup
from toricforms.fans import (
    Fan,
    a_sequence,
    is_complete,
    is_smooth,
    validate_fan,
)
from toricforms.fan_aut import (
    automorphism_group,
    identify_gl2_class,
    involution_type,
)
from toricforms.galois import (
    FiniteFieldBackend,
    GroupSpec,
    RealComplexBackend,
    SymbolicBrauerBackend,
    enumerate_hom_classes,
    norm_quotient,
)
from toricforms.classify import (
    CannotEvaluate,
    DirectSum,
    Explicit,
    KernelOfNormMap,
    Quotient,
    REAL_TOWER,
    RankUnsupported,
    RelBrauer,
    SURFACE_LABELS,
    TowerDataMissing,
    UnknownLabel,
    UnknownName,
    UnresolvedExtension,
    UnresolvedValue,
    builtin_fan,
    BUILTIN_NAMES,
    BUILTIN_SURFACE_NAMES,
    classify_fan,
    classify_projective,
    classify_surface_real,
    descent_status,
    evaluate,
    MAX_PROJECTIVE_CELLS,
    _count_partitions_dividing,
    partition_cocharacter_matrix,
    partition_permutation,
    partitions_dividing,
    render,
    surface_table,
)
from toricforms.cohomology import TooLarge, h1_cyclic_norm_formula, h1_real_involution, oracle_routes
from toricforms.exact_linalg import IntMatrix
from toricforms import classify, cli, cohomology, galois

from test_fan_aut import aut_via_sequence
from test_fans import sequences_equivalent

TRIVIAL = FGAbelianGroup.trivial()
Z2 = FGAbelianGroup.cyclic(2)
Z2Z2 = Z2.direct_sum(Z2)


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------


def test_partitions_two_two():
    ps = partitions_dividing(2, 2)
    assert ps.all == ((1, 1), (2,))
    assert ps.fixed == ((1, 1),)
    assert ps.starred == ((2,),)


def test_partitions_four_two():
    ps = partitions_dividing(4, 2)
    assert ps.all == ((1, 1, 1, 1), (2, 1, 1), (2, 2))
    assert ps.starred == ((2, 2),)


def test_partitions_three_six():
    ps = partitions_dividing(3, 6)
    assert ps.all == ((1, 1, 1), (2, 1), (3,))
    assert ps.fixed == ((1, 1, 1), (2, 1))
    assert ps.starred == ((3,),)


@pytest.mark.parametrize("n_plus_1", range(1, 10))
@pytest.mark.parametrize("d", range(1, 7))
def test_partition_set_invariants(n_plus_1, d):
    ps = partitions_dividing(n_plus_1, d)
    assert ps.all == tuple(sorted(ps.all))
    assert len(set(ps.all)) == len(ps.all)
    assert set(ps.fixed) | set(ps.starred) == set(ps.all)
    assert not set(ps.fixed) & set(ps.starred)
    for part in ps.all:
        assert sum(part) == n_plus_1
        assert all(d % m == 0 for m in part)
        assert tuple(sorted(part, reverse=True)) == part
    for part in ps.fixed:
        assert part[-1] == 1
    for part in ps.starred:
        assert part[-1] > 1


def _partitions_dividing_recursive(n_plus_1: int, d: int) -> tuple[tuple[int, ...], ...]:
    """The recursive generator `partitions_dividing` replaced (reference)."""
    divisors = [m for m in range(1, d + 1) if d % m == 0]
    found: list[tuple[int, ...]] = []

    def extend(prefix: tuple[int, ...], remaining: int, cap: int) -> None:
        if remaining == 0:
            found.append(prefix)
            return
        for m in divisors:
            if m <= cap and m <= remaining:
                extend(prefix + (m,), remaining - m, m)

    extend((), n_plus_1, divisors[-1])
    return tuple(sorted(found))


def test_partitions_match_recursive_reference():
    for n_plus_1 in range(1, 41):
        for d in range(1, 25):
            reference = _partitions_dividing_recursive(n_plus_1, d)
            assert partitions_dividing(n_plus_1, d).all == reference, (n_plus_1, d)
            assert _count_partitions_dividing(n_plus_1, d) == len(reference), (n_plus_1, d)


def test_partitions_need_no_recursion():
    assert partitions_dividing(5000, 1).all == ((1,) * 5000,)
    assert len(partitions_dividing(3001, 2).all) == 1501
    assert _count_partitions_dividing(3001, 2) == 1501


def test_projective_size_check_before_any_partition(monkeypatch):
    """n = 4 over C/R has three partitions of 5, so 3 * 4 * 4 = 48 cells."""
    built = []
    monkeypatch.setattr(
        classify, "partitions_dividing", lambda *a: built.append(a) or partitions_dividing(*a)
    )
    monkeypatch.setattr(classify, "MAX_PROJECTIVE_CELLS", 48)
    assert classify_projective(4, RealComplexBackend()).total == 3
    assert built == [(5, 2)]
    monkeypatch.setattr(classify, "MAX_PROJECTIVE_CELLS", 47)
    with pytest.raises(TooLarge, match="more than 47 matrix cells"):
        classify_projective(4, RealComplexBackend())
    assert built == [(5, 2)]


def test_projective_size_check_admits_n_300_over_real():
    cells = _count_partitions_dividing(301, 2) * 300 * 300
    assert cells == 13_590_000 <= MAX_PROJECTIVE_CELLS
    assert _count_partitions_dividing(901, 2) * 900 * 900 > MAX_PROJECTIVE_CELLS
    with pytest.raises(TooLarge):
        classify_projective(900, RealComplexBackend())


# ---------------------------------------------------------------------------
# partition cocharacter matrices
# ---------------------------------------------------------------------------


def _cocharacter_matrix_from_cols(partition, n_plus_1: int) -> IntMatrix:
    """The column-by-column build `partition_cocharacter_matrix` replaced (reference)."""
    perm = partition_permutation(partition, n_plus_1)
    n = n_plus_1 - 1
    cols = []
    for j in range(1, n_plus_1):
        image = perm[j]
        if image == 0:
            cols.append(tuple(-1 for _ in range(n)))
        else:
            cols.append(tuple(1 if i == image else 0 for i in range(1, n_plus_1)))
    return IntMatrix.from_cols(cols, nrows=n)


_PROJECTIVE_BACKENDS = (
    RealComplexBackend(),
    FiniteFieldBackend(2, 12),
    FiniteFieldBackend(3, 4),
    SymbolicBrauerBackend(4, (2, 4), ((2, IntMatrix.from_cols([(1, 0), (0, 2)])),)),
)


def test_partition_matrix_matches_column_reference():
    """Every partition on its own, then every report entry for n <= 12: the
    entry's matrix against the column build, its value against a norm
    quotient of that partition alone, and its rows shared report-wide."""
    checked = 0
    for n_plus_1 in range(1, 13):
        every_part = math.lcm(*range(1, n_plus_1 + 1))
        for partition in _partitions_dividing_recursive(n_plus_1, every_part):
            for parts in {partition, partition[::-1]}:
                got = partition_cocharacter_matrix(parts, n_plus_1)
                assert got == _cocharacter_matrix_from_cols(parts, n_plus_1), parts
                assert got.shape == (n_plus_1 - 1, n_plus_1 - 1)
                checked += 1
    assert checked > 77 + 56  # partitions of 12 and of 11, plus their reversals
    for backend in _PROJECTIVE_BACKENDS:
        d = backend.group.order
        for n in range(1, 13):
            report = classify_projective(n, backend)
            partitions = partitions_dividing(n + 1, d).all
            assert len(report.entries) == len(partitions)
            rows = []
            for entry, partition in zip(report.entries, partitions):
                assert entry.label == f"partition {partition}"
                (phi,) = entry.phi_images
                assert phi == _cocharacter_matrix_from_cols(partition, n + 1), partition
                assert entry.value == norm_quotient(backend, [d // m for m in partition])
                rows.extend(phi.rows)
            # one object per distinct row, fixed by where its 1 and its -1 sit
            distinct = len({id(row) for row in rows})
            assert distinct == len(set(rows)) <= (n + 1) ** 2, (backend.describe(), n)


def test_partition_matrix_smallest():
    assert partition_cocharacter_matrix((2,), 2).rows == ((-1,),)
    ident = partition_cocharacter_matrix((1, 1), 2)
    assert ident.rows == ((1,),)


def test_partition_matrix_identity_partition():
    ident = partition_cocharacter_matrix((1, 1, 1, 1), 4)
    assert ident == ident.identity(3) if hasattr(ident, "identity") else True
    assert ident.rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_partition_matrix_order_matches_lcm():
    from math import lcm

    cases = [((2, 2), 4), ((3,), 3), ((2, 1), 3), ((3, 2, 1), 6), ((4,), 4)]
    for part, n_plus_1 in cases:
        s = partition_cocharacter_matrix(part, n_plus_1)
        n = n_plus_1 - 1
        order = lcm(*part)
        acc = s
        for _ in range(order - 1):
            acc = acc @ s
        assert acc.rows == tuple(
            tuple(1 if i == j else 0 for j in range(n)) for i in range(n)
        )


def test_partition_matrix_two_two_gives_z2():
    s = partition_cocharacter_matrix((2, 2), 4)
    assert h1_real_involution(s) == Z2


# ---------------------------------------------------------------------------
# classify_projective
# ---------------------------------------------------------------------------


def test_classify_projective_line_real():
    report = classify_projective(1, RealComplexBackend())
    assert report.total == 3
    orders = sorted(e.value.order() for e in report.entries)
    assert orders == [1, 2]
    assert all(e.descent.status == "FORMS_CLASSIFIED" for e in report.entries)


def test_classify_projective_n3_real():
    report = classify_projective(3, RealComplexBackend())
    assert report.total == 4
    assert len(report.entries) == 3


def test_classify_projective_n5_real():
    report = classify_projective(5, RealComplexBackend())
    assert report.total == 5
    assert len(report.entries) == 4


def test_classify_projective_plane_ff_degree3():
    report = classify_projective(2, FiniteFieldBackend(4, 3))
    assert report.total == 2
    assert all(e.value.is_trivial() for e in report.entries)


def test_classify_projective_prime_closed_form():
    for d in (2, 3, 5):
        for n in range(1, 9):
            for backend in (RealComplexBackend(), FiniteFieldBackend(3, d)):
                if isinstance(backend, RealComplexBackend) and d != 2:
                    continue
                report = classify_projective(n, backend)
                ps = partitions_dividing(n + 1, d)
                assert len(ps.all) == (n + 1) // d + 1
                br = 2 if isinstance(backend, RealComplexBackend) else 1
                expected = len(ps.fixed) + (br if (n + 1) % d == 0 else 0)
                assert report.total == expected


def test_classify_projective_composite_degree():
    report = classify_projective(3, FiniteFieldBackend(2, 4))
    assert len(report.entries) == 4
    assert report.total == 4


def test_classify_projective_symbolic_backend():
    backend = SymbolicBrauerBackend(2, (2,), ())
    report = classify_projective(1, backend)
    assert report.total == 3


# ---------------------------------------------------------------------------
# builtin fans
# ---------------------------------------------------------------------------

SURFACE_EXPECT = {
    "surface:D12": (6, 12, "D12"),
    "surface:D8": (4, 8, "D8"),
    "surface:D6": (18, 6, "D6"),
    "surface:D6p": (18, 6, "D6'"),
    "surface:C6": (18, 6, "C6"),
    "surface:C3": (15, 3, "C3"),
    "surface:D4": (12, 4, "D4"),
    "surface:D4p": (10, 4, "D4'"),
    "surface:C4": (12, 4, "C4"),
    "surface:C2": (14, 2, "C2"),
    "surface:D2": (10, 2, "D2"),
    "surface:D2p": (10, 2, "D2'"),
    "surface:C1": (5, 1, "C1"),
}


def test_builtin_surface_name_list():
    assert set(BUILTIN_SURFACE_NAMES) == set(SURFACE_EXPECT)


@pytest.mark.parametrize("name", sorted(SURFACE_EXPECT))
def test_builtin_surface_fans(name):
    rays, aut_order, label = SURFACE_EXPECT[name]
    fan = builtin_fan(name)
    validate_fan(fan)
    assert fan.num_rays == rays
    assert is_smooth(fan)
    assert is_complete(fan)
    aut = automorphism_group(fan)
    assert aut.order == aut_order
    assert aut_via_sequence(fan).order == aut_order
    assert identify_gl2_class(aut) == label


def test_hexagon_alias():
    assert builtin_fan("hexagon").to_json() == builtin_fan("surface:D12").to_json()
    assert builtin_fan("hexagon").rays == (
        (1, 0),
        (0, 1),
        (-1, 1),
        (-1, 0),
        (0, -1),
        (1, -1),
    )


def test_builtin_c3_sequence_is_golden():
    fan = builtin_fan("surface:C3")
    golden = (1, 2, 3, 1, 4) * 3
    assert sequences_equivalent(a_sequence(fan), golden)


def test_builtin_projective():
    p1 = builtin_fan("projective:1")
    assert p1.rank == 1 and p1.num_rays == 2
    p2 = builtin_fan("projective:2")
    assert p2.num_rays == 3
    assert automorphism_group(p2).order == 6
    p3 = builtin_fan("projective:3")
    assert p3.rank == 3 and p3.num_rays == 4
    validate_fan(p3)


@pytest.mark.parametrize(
    "bad",
    [
        "surface:C5", "projective:0", "projective:-1", "projective:x", "", "proj:2", "hexagon2",
        # digits `str.isdigit` accepts: one `int` refuses, one it reads as 3
        "projective:\u00b2", "projective:\u0663",
    ],
)
def test_builtin_unknown_name(bad):
    with pytest.raises(UnknownName):
        builtin_fan(bad)


# ---------------------------------------------------------------------------
# surface table
# ---------------------------------------------------------------------------

D12_EXTENSION = UnresolvedExtension(
    Quotient(RelBrauer("F", "L"), RelBrauer("k", "E")),
    KernelOfNormMap(RelBrauer("E", "L"), RelBrauer("k", "F")),
)

TABLE_EXPECT = {
    "C1": Explicit(TRIVIAL),
    "C2": DirectSum(RelBrauer("k", "K"), RelBrauer("k", "K")),
    "C3": RelBrauer("k", "K"),
    "C4": RelBrauer("K^C2", "K"),
    "C6": D12_EXTENSION,
    "D2": RelBrauer("k", "K"),
    "D2'": Explicit(TRIVIAL),
    "D4": DirectSum(RelBrauer("k", "K^D2"), RelBrauer("k", "K^D2")),
    "D4'": RelBrauer("K^C2", "K"),
    "D6": D12_EXTENSION,
    "D6'": RelBrauer("k", "L"),
    "D8": RelBrauer("K^D4", "K^D2"),
    "D12": D12_EXTENSION,
}


def test_surface_table_covers_all_labels():
    assert set(SURFACE_LABELS) == set(TABLE_EXPECT)
    for label, expected in TABLE_EXPECT.items():
        assert surface_table(label) == expected


def test_surface_table_unknown_label():
    with pytest.raises(UnknownLabel):
        surface_table("C5")
    with pytest.raises(UnknownLabel):
        surface_table("d12")


def test_surface_table_real_rows():
    assert surface_table("C2", REAL_TOWER) == Z2Z2
    assert surface_table("D2", REAL_TOWER) == Z2
    assert surface_table("D2'", REAL_TOWER) == TRIVIAL
    assert surface_table("C1", REAL_TOWER) == TRIVIAL


def test_surface_table_missing_tower_entry():
    with pytest.raises(TowerDataMissing):
        surface_table("D8", REAL_TOWER)
    with pytest.raises(TowerDataMissing):
        evaluate(RelBrauer("k", "L"), REAL_TOWER)


def test_relbrauer_equal_fields_trivial():
    assert evaluate(RelBrauer("k", "k"), {}) == TRIVIAL


def test_unresolved_extension_toy_tower():
    tower = {
        ("F", "L"): Z2,
        ("k", "E"): TRIVIAL,
        ("E", "L"): Z2,
        ("k", "F"): TRIVIAL,
    }
    value = evaluate(D12_EXTENSION, tower)
    assert isinstance(value, UnresolvedValue)
    assert value.kernel == Z2
    assert value.quotient == Z2
    assert value.order == 4


def test_quotient_with_nontrivial_denominator_raises():
    tower = {("F", "L"): Z2, ("k", "E"): Z2}
    with pytest.raises(CannotEvaluate):
        evaluate(Quotient(RelBrauer("F", "L"), RelBrauer("k", "E")), tower)


def test_kernel_of_norm_map_underdetermined():
    tower = {("E", "L"): Z2, ("k", "F"): Z2}
    with pytest.raises(CannotEvaluate):
        evaluate(KernelOfNormMap(RelBrauer("E", "L"), RelBrauer("k", "F")), tower)


def test_render_smoke():
    assert render(RelBrauer("k", "K")) == "Br(k|K)"
    assert render(TABLE_EXPECT["C2"]) == "Br(k|K) + Br(k|K)"
    assert render(TABLE_EXPECT["D2'"]) == "1"
    text = render(D12_EXTENSION)
    assert "Br(F|L)" in text and "Br(k|F)" in text


# ---------------------------------------------------------------------------
# classify_fan
# ---------------------------------------------------------------------------

P1 = Fan.make(1, [(1,), (-1,)], [(0,), (1,)])
SQUARE = Fan.make(2, [(1, 0), (0, 1), (-1, 0), (0, -1)], [(0, 1), (1, 2), (2, 3), (0, 3)])


def test_classify_fan_line_real():
    report = classify_fan(P1, RealComplexBackend())
    assert report.total == 3
    orders = sorted(e.value.order() for e in report.entries)
    assert orders == [1, 2]


def test_classify_fan_hexagon_real():
    report = classify_fan(builtin_fan("hexagon"), RealComplexBackend())
    assert report.total == 7
    assert sorted(e.value.order() for e in report.entries) == [1, 1, 1, 4]
    by_type = {}
    for entry in report.entries:
        kind = involution_type(entry.phi_images[0])
        by_type.setdefault(kind, []).append(entry.value.order())
    assert by_type["identity"] == [1]
    assert by_type["minus_identity"] == [4]
    assert by_type["swap_reflection"] == [1, 1]
    assert "split_reflection" not in by_type


def test_classify_fan_square_real():
    report = classify_fan(SQUARE, RealComplexBackend())
    assert report.total == 8
    by_type = {}
    for entry in report.entries:
        kind = involution_type(entry.phi_images[0])
        by_type[kind] = entry.value
    assert by_type["identity"] == TRIVIAL
    assert by_type["minus_identity"] == Z2Z2
    assert by_type["split_reflection"] == Z2
    assert by_type["swap_reflection"] == TRIVIAL


def test_classify_fan_ff_vanishing_smoke():
    fan = builtin_fan("hexagon")
    backend = FiniteFieldBackend(3, 2)
    report = classify_fan(fan, backend)
    classes = enumerate_hom_classes(backend.group, automorphism_group(fan))
    assert len(report.entries) == len(classes)
    assert report.total == len(classes)
    assert all(e.value.is_trivial() for e in report.entries)


def test_classify_fan_trivial_class_entry():
    fan = builtin_fan("surface:C4")
    report = classify_fan(fan, FiniteFieldBackend(2, 4))
    assert any(e.label == "trivial" and e.value.is_trivial() for e in report.entries)


NORM_ROUTE_CASES = [
    pytest.param(name, spec, id=f"{name}-{spec}")
    for spec in ("real", "ff:5,4", "ff:3,6")
    for name in BUILTIN_NAMES
] + [
    pytest.param(f"projective:{n}", spec, id=f"projective:{n}-{spec}")
    for spec in ("real", "ff:2,2", "ff:2,3", "ff:3,4", "ff:7,2", "ff:2,6")
    for n in range(1, 5)
]


@pytest.mark.parametrize("name,spec", NORM_ROUTE_CASES)
def test_classify_fan_matches_the_norm_route(name, spec):
    """classify_fan reads each class off the generator's cocharacter
    matrix; the paper's route on ray coordinates gives the same group,
    class by class.  On projective spaces both also equal the norm quotient
    over the ray-orbit stabilizers that classify projective reports."""
    fan = builtin_fan(name)
    backend = cli._parse_backend(spec, None)
    report = classify_fan(fan, backend)
    classes = enumerate_hom_classes(backend.group, automorphism_group(fan))
    assert len(report.entries) == len(classes)
    d = backend.group.order
    for entry, cls in zip(report.entries, classes):
        assert entry.value == h1_cyclic_norm_formula(fan, cls, backend), entry.label
        if name.startswith("projective:"):
            orders = [d // len(orbit) for orbit in cls.ray_orbits]
            assert entry.value == norm_quotient(backend, orders), entry.label


@pytest.mark.parametrize("spec", ["ff:5,4", "ff:3,6", "ff:7,2", "ff:2,6"])
def test_oracle_closed_form_is_the_classify_fan_value(spec, monkeypatch):
    """The oracle checks what `classify` reports: the middle column of
    `oracle_routes` is `classify_fan`'s value, class by class, and the two
    outer routes agree with it wherever they ran.  The column under test
    does not read the enumeration, so its guard is lowered to skip the
    three order-4 classes over F_625 that would take seconds."""
    monkeypatch.setattr(cohomology, "MAX_COCYCLE_CHECKS", 1_000_000)
    backend = cli._parse_backend(spec, None)
    for name in BUILTIN_NAMES:
        fan = builtin_fan(name)
        rows = oracle_routes(fan, backend)
        entries = classify_fan(fan, backend).entries
        assert len(rows) == len(entries), name
        for (norm, closed, brute), entry in zip(rows, entries):
            assert closed == entry.value, (name, entry.label)
            assert all(v == closed for v in (norm, brute) if not isinstance(v, str)), (name, entry.label)


def test_classify_fan_factors_no_number_for_a_built_backend(monkeypatch):
    """A backend checks q when it is built; classifying never factors again."""
    backends = [FiniteFieldBackend(5, 4), FiniteFieldBackend(3, 6), FiniteFieldBackend(1099511627689, 2)]
    factored = []
    original = galois._prime_factors
    for module in (galois, cohomology, classify):
        monkeypatch.setattr(module, "_prime_factors", lambda n: factored.append(n) or original(n))
    for backend in backends:
        for name in ("surface:D12", "surface:C6", "projective:3"):
            assert classify_fan(builtin_fan(name), backend).total is not None
    assert factored == []


# ---------------------------------------------------------------------------
# classify_surface_real
# ---------------------------------------------------------------------------


def test_classify_surface_real_hexagon():
    report = classify_surface_real(builtin_fan("hexagon"))
    assert report.total == 7
    assert sorted(e.value.order() for e in report.entries) == [1, 1, 1, 4]
    labels = sorted(e.label for e in report.entries)
    assert any("C2" in lab for lab in labels)
    plain = classify_fan(builtin_fan("hexagon"), RealComplexBackend())
    assert [e.value for e in report.entries] == [e.value for e in plain.entries]
    assert [e.phi_images for e in report.entries] == [e.phi_images for e in plain.entries]


def test_classify_surface_real_square():
    report = classify_surface_real(SQUARE)
    assert report.total == 8
    assert sorted(e.value.order() for e in report.entries) == [1, 1, 2, 4]


def test_classify_surface_real_asymmetric():
    report = classify_surface_real(builtin_fan("surface:C1"))
    assert report.total == 1
    assert len(report.entries) == 1
    assert report.entries[0].value.is_trivial()


def test_classify_surface_real_rank3_rejected():
    with pytest.raises(RankUnsupported):
        classify_surface_real(builtin_fan("projective:3"))


# ---------------------------------------------------------------------------
# descent status
# ---------------------------------------------------------------------------


def test_descent_status_cases():
    p3 = builtin_fan("projective:3").rank
    hexagon = builtin_fan("hexagon").rank
    assert descent_status(hexagon, 6).status == "FORMS_CLASSIFIED"
    assert descent_status(1, 5).status == "FORMS_CLASSIFIED"
    assert descent_status(p3, 2).status == "FORMS_CLASSIFIED"
    verdict = descent_status(p3, 3)
    assert verdict.status == "TWISTED_FORMS_ONLY"
    assert "Huruguen" in verdict.note
    assert descent_status(p3, 3, quasiprojective=True).status == "FORMS_CLASSIFIED"


def test_classify_fan_verdict_reads_the_fan_rank():
    be = FiniteFieldBackend(2, 3)
    report = classify_fan(builtin_fan("projective:3"), be)
    assert {e.descent for e in report.entries} == {descent_status(3, 3)}
    report = classify_fan(builtin_fan("projective:2"), be)
    assert {e.descent for e in report.entries} == {descent_status(2, 3)}


def test_classify_projective_builds_no_fan(monkeypatch):
    def refuse(n):
        raise AssertionError(f"projective:{n} fan built")

    monkeypatch.setattr(classify, "_projective_fan", refuse)
    report = classify_projective(50, FiniteFieldBackend(3, 2))
    assert report.fan_name == "projective:50"
    assert {e.descent for e in report.entries} == {descent_status(50, 2, True)}
    # 51 = 2k + 1s: every partition keeps a part 1, so each is one form
    assert report.total == 26


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------


def test_report_json_schema():
    report = classify_fan(
        builtin_fan("hexagon"),
        RealComplexBackend(),
        fan_name="hexagon",
    )
    payload = json.loads(report.to_json())
    assert set(payload) == {"fan", "group", "backend", "entries", "total"}
    assert payload["fan"] == "hexagon"
    assert payload["group"] == "C2"
    assert payload["total"] == 7
    assert len(payload["entries"]) == 4
    for entry in payload["entries"]:
        assert set(entry) == {"label", "phi", "h1", "descent"}
        assert entry["h1"]["kind"] == "explicit"
        assert isinstance(entry["h1"]["invariant_factors"], list)
        assert entry["descent"]["status"] == "FORMS_CLASSIFIED"
        for mat in entry["phi"]:
            assert len(mat) == 2 and all(len(row) == 2 for row in mat)


def test_report_json_deterministic():
    args = (builtin_fan("surface:D4"), RealComplexBackend())
    assert classify_fan(*args).to_json() == classify_fan(*args).to_json()


def test_report_entries_match_hom_classes():
    fan = builtin_fan("surface:D4p")
    report = classify_fan(fan, RealComplexBackend())
    classes = enumerate_hom_classes(GroupSpec.cyclic(2), automorphism_group(fan))
    assert len(report.entries) == len(classes)
    for entry, cls in zip(report.entries, classes):
        assert entry.phi_images == (cls.matrix,)
    trivial_group = classify_fan(fan, FiniteFieldBackend(3, 1))
    assert [entry.phi_images for entry in trivial_group.entries] == [()]
