"""Oracles and cross-route checks for the H^1 engines."""

import functools
import itertools
import math
import operator
import random
import re
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toricforms
from toricforms import classify, cli, cohomology, exact_linalg, galois
from toricforms.classify import (
    BUILTIN_NAMES,
    BUILTIN_SURFACE_NAMES,
    builtin_fan,
)
from toricforms.cohomology import (
    FiniteModule,
    TooLarge,
    _IndexedModule,
    _action_tables,
    _cocycle_columns,
    _diagonal_degree,
    _exact_log,
    _fixed_ray_lattice,
    _h1_finite_field_quotient_presentation,
    _h1_finite_field_torus,
    _h1_real_quotient_presentation,
    _permutation_matrix,
    brute_force_h1_finite,
    finite_field_torus_module,
    h1_cyclic_norm_formula,
    h1_real_involution,
)
from toricforms.exact_linalg import (
    FGAbelianGroup,
    IntMatrix,
    basis_mod,
    congruence_kernel,
    kernel_basis,
    lattice_subquotient,
    quotient_mod,
    saturation_basis,
    smith_normal_form,
)
from toricforms.fan_aut import NotInvolution, _check_involution, automorphism_group
from toricforms.fans import Fan, class_group, degree_data, is_complete, primitive_vector, validate_fan
from toricforms.galois import (
    AssumptionViolated,
    BackendUnsupported,
    FiniteFieldBackend,
    GroupSpec,
    RealComplexBackend,
    SymbolicBrauerBackend,
    _prime_factors,
    enumerate_hom_classes,
    kernel_reduction,
)

from table_groups import orbit_stabilizer
from test_exact_linalg import congruence_kernel_basis, rational_solve, triangular_subquotient
from test_fans import HEXAGON, P1, P1XP1, P2, PRODUCT_FAN_NAMES, named_fan, random_unimodular, unimodular

M = IntMatrix.from_rows
TRIVIAL = FGAbelianGroup.trivial()
Z2 = FGAbelianGroup.from_factors([2])
Z2Z2 = FGAbelianGroup.from_factors([2, 2])
REAL = RealComplexBackend()
C2 = GroupSpec.cyclic(2)


# ---------------------------------------------------------------------------
# involution formula: the four fundamental values


def test_involution_identity_is_trivial():
    assert h1_real_involution(IntMatrix.identity(2)) == TRIVIAL
    assert h1_real_involution(IntMatrix.identity(1)) == TRIVIAL


def test_involution_minus_identity_squares_the_two_torsion():
    assert h1_real_involution(M([[-1]])) == Z2
    assert h1_real_involution(M([[-1, 0], [0, -1]])) == Z2Z2
    assert h1_real_involution(IntMatrix.identity(3).scaled(-1)) == FGAbelianGroup.from_factors([2, 2, 2])


def test_involution_split_reflection_gives_one_factor():
    assert h1_real_involution(M([[1, 0], [0, -1]])) == Z2


def test_involution_swap_reflection_is_trivial():
    assert h1_real_involution(M([[0, 1], [1, 0]])) == TRIVIAL
    # conjugates and other swap-type involutions stay trivial
    assert h1_real_involution(M([[1, 1], [0, -1]])) == TRIVIAL
    assert h1_real_involution(M([[1, -1], [0, -1]])) == TRIVIAL


def test_involution_formula_rejects_non_involutions():
    with pytest.raises(NotInvolution):
        h1_real_involution(M([[2, 0], [0, 1]]))
    with pytest.raises(NotInvolution):
        h1_real_involution(M([[1, 0], [0, 1], [0, 0]]))


# ---------------------------------------------------------------------------
# closed subgroups of the coordinate torus: the reference real route


@dataclass(frozen=True)
class TorusSubgroup:
    """Closed subgroup of (R/Z)^m: a rational subspace plus finitely many
    rational points (mod Z^m).

    component_basis columns span the identity component's direction (a
    saturated integer basis); lattice_gens are rational vectors whose classes
    generate the component group together with the subspace.
    """

    ambient_dim: int
    component_basis: IntMatrix
    lattice_gens: tuple[tuple[Fraction, ...], ...]

    @property
    def dim(self) -> int:
        return self.component_basis.ncols

    @classmethod
    def from_congruence(cls, c: IntMatrix) -> "TorusSubgroup":
        """The subgroup {z : c z = 0 in (R/Z)^rows} for an integer matrix c."""
        v = kernel_basis(c)
        dec = smith_normal_form(c)
        sat = saturation_basis(dec)
        sol = rational_solve(dec, sat)
        assert sol is not None, "saturation basis must be attainable"
        x, den = sol
        gens = tuple(tuple(Fraction(t, den) for t in x.col(j)) for j in range(sat.ncols))
        return cls(c.ncols, v, gens)

    def image(self, b: IntMatrix) -> "TorusSubgroup":
        assert b.ncols == self.ambient_dim
        mapped = b @ self.component_basis
        v = saturation_basis(smith_normal_form(mapped))
        gens = tuple(
            tuple(sum(x * t for x, t in zip(row, g)) for row in b.rows) for g in self.lattice_gens
        )
        return TorusSubgroup(b.nrows, v, gens)

    def _projector(self) -> IntMatrix:
        """Integer matrix with rows a saturated basis of the annihilator of
        the component subspace; its kernel over R is exactly that subspace."""
        return kernel_basis(self.component_basis.transpose).transpose

    def _projected_lattice(self, w: IntMatrix, scale: int) -> list[tuple[int, ...]]:
        cols = []
        for g in self.lattice_gens:
            scaled = [scale * sum(x * t for x, t in zip(row, g)) for row in w.rows]
            assert all(x.denominator == 1 for x in scaled)
            cols.append(tuple(int(x) for x in scaled))
        for j in range(self.ambient_dim):
            cols.append(tuple(scale * w.rows[i][j] for i in range(w.nrows)))
        return cols

    def quotient_by(self, other: "TorusSubgroup") -> FGAbelianGroup:
        """Finite quotient by a closed subgroup with the same identity
        component; raises if the components differ or other is not contained.
        """
        assert self.ambient_dim == other.ambient_dim
        assert self.dim == other.dim, "quotient would not be finite"
        solved = rational_solve(smith_normal_form(self.component_basis), other.component_basis)
        assert solved is not None, (
            "identity components differ"
        )
        w = self._projector()
        scale = 1
        for g in self.lattice_gens + other.lattice_gens:
            for x in g:
                scale = math.lcm(scale, x.denominator)
        ours = self._projected_lattice(w, scale)
        theirs = other._projected_lattice(w, scale)
        return lattice_subquotient(
            IntMatrix.from_cols(ours, w.nrows), IntMatrix.from_cols(theirs, w.nrows)
        )


def _torus_subgroup_real_route(fan: Fan, hom) -> FGAbelianGroup:
    """The real norm route the class-group presentation replaced, kept as its
    reference: H^1 over R through closed subgroups of the coordinate torus.

    Write X for the coordinate torus (C*)^rays with conjugation composed
    with the ray permutation P, and Y <= X for the subgroup cut out by the
    ray-character relations (the matrix R of ray coordinates).  The dense
    torus is X/Y, its H^1 injects into H^2 of Y because H^1 of X vanishes,
    and the image is the kernel of the map to H^2 of X, which is one Brauer
    class of R per conjugation-fixed ray.  On the circle parts this becomes,
    with all congruences mod Z^rays:

      numerator   z with R z = 0,  (I + P) z = 0,  z_rho = 0 at fixed rays
      denominator (I - P) {z : R z = 0}
    """
    perm = hom.ray_permutation
    m = fan.num_rays
    p = _permutation_matrix(perm)
    r = fan.ray_columns
    ident = IntMatrix.identity(m)
    fixed_rows = [
        tuple(int(j == i) for j in range(m)) for i in range(m) if perm[i] == i
    ]
    c1 = r.vstack(ident + p)
    if fixed_rows:
        c1 = c1.vstack(IntMatrix.from_rows(fixed_rows, m))
    z1 = TorusSubgroup.from_congruence(c1)
    z2 = TorusSubgroup.from_congruence(r).image(ident - p)
    return z1.quotient_by(z2)


def test_congruence_subgroup_of_ray_relations():
    sub = TorusSubgroup.from_congruence(P1.ray_columns)
    assert sub.ambient_dim == 2
    assert sub.dim == 1  # the diagonal circle
    assert sub.quotient_by(sub) == TRIVIAL


def test_quotient_by_doubled_lattice_part():
    # {z : 2z = 0 in (R/Z)^2} over the zero subgroup of the same component
    half = TorusSubgroup.from_congruence(IntMatrix.identity(2).scaled(2))
    whole = TorusSubgroup.from_congruence(IntMatrix.identity(2))
    assert half.dim == 0 and whole.dim == 0
    assert half.quotient_by(whole) == Z2Z2


# ---------------------------------------------------------------------------
# real norm route against the involution formula, class by class


def _c2_classes(fan):
    return enumerate_hom_classes(C2, automorphism_group(fan))


def test_real_route_p1_swap_gives_two_classes():
    swap = next(c for c in _c2_classes(P1) if not c.is_trivial)
    assert h1_cyclic_norm_formula(P1, swap, REAL) == Z2
    # the norm quotient over the stabilizer of the one orbit of two rays agrees
    assert galois.norm_quotient(REAL, [1]) == Z2


def test_real_route_trivial_class_is_trivial():
    for fan in (P1, P2, P1XP1, HEXAGON):
        triv = next(c for c in _c2_classes(fan) if c.is_trivial)
        assert h1_cyclic_norm_formula(fan, triv, REAL) == TRIVIAL


def test_real_routes_agree_on_surface_builtins():
    for fan in (P1, P2, P1XP1, HEXAGON):
        for cls in _c2_classes(fan):
            s = cls.matrix
            expected = h1_real_involution(s)
            assert h1_cyclic_norm_formula(fan, cls, REAL) == expected
            assert _h1_real_quotient_presentation(fan, cls) == expected


def test_real_route_hexagon_class_orders():
    orders = sorted(
        h1_cyclic_norm_formula(HEXAGON, cls, REAL).order() for cls in _c2_classes(HEXAGON)
    )
    assert orders == [1, 1, 1, 4]


def test_real_route_square_class_orders():
    orders = sorted(
        h1_cyclic_norm_formula(P1XP1, cls, REAL).order() for cls in _c2_classes(P1XP1)
    )
    assert orders == [1, 1, 2, 4]


# ---------------------------------------------------------------------------
# the class-group route against the torus-subgroup reference and the
# involution formula, on every C2 class

# rays (1,0), (-1,2), (-1,-2): Cl = Z + Z/2
TORSION_TRIANGLE = Fan.make(2, [(1, 0), (-1, 2), (-1, -2)], [(0, 1), (1, 2), (0, 2)])
# rays (2,-1), (-1,2), (-1,-1), P^2 modulo Z/3: Cl = Z + Z/3, and the rays sum to 0
TORSION3_TRIANGLE = Fan.make(2, [(2, -1), (-1, 2), (-1, -1)], [(0, 1), (1, 2), (0, 2)])
# the diagonal square: Cl = Z^2 + Z/2
TORSION_SQUARE = Fan.make(
    2, [(1, 1), (-1, 1), (-1, -1), (1, -1)], [(0, 1), (1, 2), (2, 3), (0, 3)]
)
# each adjacent pair of (+-1, +-1, 0) joined to each of (0, 0, +-1): Cl = Z^3 + Z/2
TORSION_PRISM = Fan.make(
    3,
    [(1, 1, 0), (-1, 1, 0), (-1, -1, 0), (1, -1, 0), (0, 0, 1), (0, 0, -1)],
    [pair + (apex,) for pair in ((0, 1), (1, 2), (2, 3), (0, 3)) for apex in (4, 5)],
)
# the two rays (1,0), (-1,2) without a common cone: Cl = Z/2
TORSION_FAN = Fan.make(2, [(1, 0), (-1, 2)], [(0,), (1,)])
# fans that are not complete; A^1 x G_m is missing because its one ray does
# not span the rank-2 lattice, which validate_fan rejects (RaysNotFullRank)
A2 = Fan.make(2, [(1, 0), (0, 1)], [(0, 1)])
A1XP1 = Fan.make(2, [(1, 0), (0, 1), (0, -1)], [(0, 1), (0, 2)])
OPEN_TORSION_TRIANGLE = Fan.make(2, TORSION_TRIANGLE.rays, [(0, 1), (0, 2)])

REAL_ROUTE_FAN_NAMES = (
    list(BUILTIN_NAMES) + [f"projective:{n}" for n in range(1, 6)] + list(PRODUCT_FAN_NAMES)
)


def _assert_real_routes_agree(fan: Fan) -> tuple[int, ...]:
    """The class-group route, the torus-subgroup reference and the involution
    formula give one group on every C2 class; returns the sorted orders."""
    orders = []
    for cls in _c2_classes(fan):
        expected = h1_real_involution(cls.matrix)
        assert _h1_real_quotient_presentation(fan, cls) == expected
        assert _torus_subgroup_real_route(fan, cls) == expected
        orders.append(expected.order())
    return tuple(sorted(orders))


@functools.lru_cache(maxsize=None)
def _real_route_orders(fan_name: str) -> tuple[int, ...]:
    return _assert_real_routes_agree(named_fan(fan_name))


@pytest.mark.parametrize("fan_name", REAL_ROUTE_FAN_NAMES)
def test_real_routes_agree_on_complete_fans(fan_name):
    assert _real_route_orders(fan_name)


@pytest.mark.parametrize(
    "fan,cl,orders",
    [
        (TORSION_TRIANGLE, FGAbelianGroup.from_factors([2], 1), [1, 2]),
        (TORSION_SQUARE, FGAbelianGroup.from_factors([2], 2), [1, 1, 2, 4]),
        (TORSION_PRISM, FGAbelianGroup.from_factors([2], 3), [1, 1, 2, 2, 2, 4, 4, 8]),
        (A2, FGAbelianGroup.trivial(), [1, 1]),
        (A1XP1, FGAbelianGroup.free(1), [1, 2]),
        (OPEN_TORSION_TRIANGLE, FGAbelianGroup.from_factors([2], 1), [1, 2]),
        (TORSION_FAN, FGAbelianGroup.from_factors([2]), [1, 2]),
    ],
    ids=["torsion-triangle", "torsion-square", "torsion-prism", "A2", "A1xP1",
         "open-torsion-triangle", "torsion-rays"],
)
def test_real_routes_agree_with_torsion_and_open_fans(fan, cl, orders):
    validate_fan(fan)
    assert class_group(fan) == cl
    assert list(_assert_real_routes_agree(fan)) == orders


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_real_routes_agree_on_transformed_fans(data):
    name = data.draw(st.sampled_from(REAL_ROUTE_FAN_NAMES))
    base = named_fan(name)
    g = data.draw(unimodular(base.rank))
    fan = Fan.make(base.rank, [g.apply(r) for r in base.rays], base.max_cones)
    assert _assert_real_routes_agree(fan) == _real_route_orders(name)


# ---------------------------------------------------------------------------
# brute force oracles


def _literal_brute_force_h1(module: FiniteModule) -> FGAbelianGroup:
    """The enumeration `brute_force_h1_finite` replaced, kept as its reference:
    every action is one `module.act` call, nothing is tabulated."""
    d = module.group.order
    count = module.size ** len(module.group.generators)
    if count > cohomology.MAX_COCYCLE_CHECKS:
        raise TooLarge(f"{count} candidate assignments exceed {cohomology.MAX_COCYCLE_CHECKS}")

    cocycles: set[tuple[tuple[int, ...], ...]] = set()
    for assignment in itertools.product(module.elements(), repeat=len(module.group.generators)):
        # c(1) is the assignment to the generator, and c(a + 1) = c(a) + a c(1)
        x = assignment[0] if assignment else module.zero()
        c = [module.zero()]
        for a in range(d - 1):
            c.append(module.add(c[a], module.act(a, x)))
        if all(
            c[(a + b) % d] == module.add(c[a], module.act(a, c[b]))
            for a in range(d)
            for b in range(d)
        ):
            cocycles.add(tuple(c))

    boundaries: set[tuple[tuple[int, ...], ...]] = set()
    for v in module.elements():
        boundaries.add(
            tuple(
                tuple((x - y) % mi for x, y, mi in zip(module.act(a, v), v, module.moduli))
                for a in range(d)
            )
        )
    return _read_off_killed(
        cocycles,
        boundaries,
        lambda z, k: tuple(module.scale(k, row) for row in z) in boundaries,
    )


def _read_off_killed(cocycles: set, boundaries: set, scaled_in_boundaries) -> FGAbelianGroup:
    """H^1 = cocycles / boundaries read off the count of cocycles z with
    `scaled_in_boundaries(z, k)`, one tuple per cocycle, for k the powers
    of each prime of the order."""
    assert boundaries <= cocycles
    h_order = len(cocycles) // len(boundaries)
    if h_order == 1:
        return FGAbelianGroup.trivial()
    factors: list[int] = []
    for p in _prime_factors(h_order):
        logs = [0]
        while True:
            killed = sum(
                1 for z in cocycles if scaled_in_boundaries(z, p ** len(logs))
            )
            logs.append(_exact_log(killed // len(boundaries), p))
            if logs[-1] == logs[-2]:
                break
        for k in range(1, len(logs) - 1):
            multiplicity = (logs[k] - logs[k - 1]) - (logs[k + 1] - logs[k])
            factors.extend([p**k] * multiplicity)
    result = FGAbelianGroup.from_factors(factors)
    assert result.order() == h_order
    return result


def _per_cocycle_brute_force_h1(module: FiniteModule) -> FGAbelianGroup:
    """`brute_force_h1_finite` with the torsion count it made before, kept as
    its reference: the same cocycle columns, and each cocycle's k-th
    multiple built as a tuple and looked up among the coboundaries."""
    index = _IndexedModule(module.moduli)
    c, boundaries = _cocycle_columns(module, index)
    multiples = functools.cache(functools.partial(_multiple_table, index))
    return _read_off_killed(
        set(zip(*c)),
        boundaries,
        lambda z, k: tuple(map(multiples(k).__getitem__, z)) in boundaries,
    )


def _whole_module_brute_force_h1(module: FiniteModule) -> FGAbelianGroup:
    """`brute_force_h1_finite` before it split the module into its primary
    parts, kept as its reference: the same cocycle columns, over every
    element of the whole module, and the torsion count over every prime of
    |H^1|."""
    index = _IndexedModule(module.moduli)
    c, boundaries = _cocycle_columns(module, index)
    cocycles = set(zip(*c))
    assert boundaries <= cocycles
    h_order = len(cocycles) // len(boundaries)
    if h_order == 1:
        return FGAbelianGroup.trivial()
    at_generator = {b[1] for b in boundaries}

    def killed(k: int) -> int:
        return sum(map(at_generator.__contains__, index.multiples(k, c[1])))

    factors: list[int] = []
    for p in _prime_factors(h_order):
        logs = [0]
        while True:
            logs.append(_exact_log(killed(p ** len(logs)) // len(boundaries), p))
            if logs[-1] == logs[-2]:
                break
        for k in range(1, len(logs) - 1):
            multiplicity = (logs[k] - logs[k - 1]) - (logs[k + 1] - logs[k])
            factors.extend([p**k] * multiplicity)
    result = FGAbelianGroup.from_factors(factors)
    assert result.order() == h_order
    return result


def _multiple_table(index: _IndexedModule, k: int) -> list[int]:
    """table[i] = the index of k times element i, from `_IndexedModule.table`."""
    return index.table(IntMatrix.identity(len(index.moduli)).scaled(k))


#: Most pairs of elements whose sum `_assert_matches_literal` looks up.
SUM_TABLE_PAIRS = 200_000


def _assert_matches_literal(module: FiniteModule) -> None:
    """Same answer as the literal enumeration and the whole-module one, a
    sum table that adds every pair of elements (on modules of at most
    SUM_TABLE_PAIRS pairs), and spread-valued tables that decode to `act`
    on every group element and every module element, and to negation."""
    h1 = brute_force_h1_finite(module)
    assert h1 == _literal_brute_force_h1(module) == _per_cocycle_brute_force_h1(module)
    assert h1 == _whole_module_brute_force_h1(module)
    elements = list(module.elements())
    index = _IndexedModule(module.moduli)
    assert index.pool == list(range(len(elements)))
    decode = dict(zip(index.spread, elements))
    assert len(decode) == len(elements)
    if len(elements) ** 2 <= SUM_TABLE_PAIRS:
        for u, su in zip(elements, index.spread):
            assert [elements[i] for i in index.reduced(su + sv for sv in index.spread)] == [
                module.add(u, v) for v in elements
            ]
    assert [decode[s] for s in index.negative] == [module.scale(-1, v) for v in elements]
    for k in (-1, 0, 2, 3):
        expected = [module.scale(k, v) for v in elements]
        assert [elements[i] for i in index.multiples(k, index.pool)] == expected
    tables = _action_tables(module, index)
    assert len(tables) == module.group.order
    for a, table in enumerate(tables):
        assert [decode[s] for s in table] == [module.act(a, v) for v in elements]


def test_index_tables_share_the_pool():
    """Every index the sum tables, an index table and a reduced column hold
    is the pool's own int object (indices above 256 are not cached by the
    interpreter), with one block of coordinates and with two."""
    for moduli, mat in (((40, 30), [[1, 2], [0, 7]]), ((40, 30, 7), [[1, 2, 0], [0, 7, 0], [0, 0, 3]])):
        index = _IndexedModule(moduli)
        assert len(index.blocks) == len(moduli) - 1
        pool = index.pool
        sums = index.reduced(map(operator.add, index.spread, reversed(index.spread)))
        tables = [table for _, table in index.blocks]
        for table in (*tables, sums, index.table(M(mat)), _multiple_table(index, -1)):
            assert all(x is pool[x] for x in table)


def test_sum_tables_are_split_into_blocks_within_their_budget(monkeypatch):
    """One table over every sum of two spread codes would hold nearly
    2^n |M| entries, 43 |M| on (Z/8)^6; the blocks' tables hold at most
    _SUM_TABLE_SPAN |M| each.  Split any way, from one table to one block
    per coordinate, the blocks add as the module does and the enumeration
    on a rank-6 module under a permuting action agrees with the literal one."""
    index = _IndexedModule((8,) * 6)
    assert index.span > 43 * index.size
    assert len(index.blocks) == 2
    assert sum(len(table) for _, table in index.blocks) <= cohomology._SUM_TABLE_SPAN * index.size
    swap = [
        [0, 1, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 0],
        [0, 0, -1, 0, 0, 0],
        [0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 0, -1],
        [0, 0, 0, 0, -1, 0],
    ]
    module = FiniteModule(C2, (3, 3, 2, 1, 3, 3), M(swap))
    blocks = set()
    for span in (0, 1, 2, cohomology._SUM_TABLE_SPAN, 10**6):
        monkeypatch.setattr(cohomology, "_SUM_TABLE_SPAN", span)
        index = _IndexedModule(module.moduli)
        assert all(len(table) <= max(span * index.size, 5) for _, table in index.blocks)
        blocks.add(len(index.blocks))
        _assert_matches_literal(module)
    assert {1, 2, 6} <= blocks


def test_brute_force_negation_on_z4():
    mod = FiniteModule(C2, (4,), M([[-1]]))
    assert brute_force_h1_finite(mod) == Z2
    _assert_matches_literal(mod)


def test_brute_force_trivial_action_on_z3():
    mod = FiniteModule(C2, (3,), M([[1]]))
    assert brute_force_h1_finite(mod) == TRIVIAL
    _assert_matches_literal(mod)


def test_brute_force_trivial_action_on_z2():
    mod = FiniteModule(C2, (2,), M([[1]]))
    assert brute_force_h1_finite(mod) == Z2
    _assert_matches_literal(mod)


def test_generator_column_count_matches_per_cocycle_count_on_a_large_module():
    """(Z/512)^2 with C2 acting by -1: H^1 = M / 2M, from 262,144 cocycles
    of its one primary part, counted over the generator's column as the
    per-cocycle count does."""
    module = FiniteModule(C2, (512, 512), M([[511, 0], [0, 511]]))
    assert brute_force_h1_finite(module) == _per_cocycle_brute_force_h1(module) == Z2Z2


def test_brute_force_joins_the_primary_parts(monkeypatch):
    """Z/6 under the trivial C6: H^1 = Hom(C6, Z/6) = Z/6, its factors 2 and
    3 from the parts Z/2 and Z/3.  A module of moduli 1 has no part, and
    its H^1 is trivial."""
    parts = []
    primary = cohomology._primary_h1_factors

    def recorded(part, p):
        factors = primary(part, p)
        parts.append((part.moduli, p, factors))
        return factors

    monkeypatch.setattr(cohomology, "_primary_h1_factors", recorded)
    z6 = FiniteModule(GroupSpec.cyclic(6), (6,), M([[1]]))
    assert brute_force_h1_finite(z6) == FGAbelianGroup.cyclic(6)
    assert parts == [((2,), 2, [2]), ((3,), 3, [3])]
    ones = FiniteModule(C2, (1, 1), M([[0, 1], [1, 0]]))
    parts.clear()
    assert brute_force_h1_finite(ones) == TRIVIAL
    assert parts == []
    for module in (z6, ones):
        _assert_matches_literal(module)


#: Composite moduli for modules that split into primary parts.
_COMPOSITES = (4, 6, 8, 9, 10, 12, 14, 15, 18, 20, 21)

#: Most elements of a drawn module, so that the literal enumeration stays fast.
_MIXED_MODULE_SIZE = 900


@st.composite
def _mixed_moduli_modules(draw):
    """Ranks 1-3 with distinct composite moduli and d in {1, 2, 3, 4, 6}:
    sigma = P D P^-1, for D a diagonal of units u_i with u_i^d = 1 mod m_i
    and P = 1 + N unipotent upper triangular, N's entry (i, j) a multiple of
    m_i / gcd(m_i, m_j).  Such matrices descend to the moduli and form a
    ring, so P^-1 = 1 - N + N^2 and sigma descend, and sigma^d = P D^d P^-1
    acts as 1."""
    d = draw(st.sampled_from((1, 2, 3, 4, 6)))
    moduli: list[int] = []
    for _ in range(draw(st.integers(1, 3))):
        room = _MIXED_MODULE_SIZE // math.prod(moduli)
        options = [m for m in _COMPOSITES if m <= room and m not in moduli]
        if not options:
            break
        moduli.append(draw(st.sampled_from(options)))
    n = len(moduli)
    units = [
        draw(st.sampled_from([u for u in range(m) if math.gcd(u, m) == 1 and pow(u, d, m) == 1]))
        for m in moduli
    ]
    nilpotent = M([
        [
            draw(st.integers(0, 3)) * (mi // math.gcd(mi, mj)) if i < j else 0
            for j, mj in enumerate(moduli)
        ]
        for i, mi in enumerate(moduli)
    ])
    ident = IntMatrix.identity(n)
    p, p_inv = ident + nilpotent, ident - nilpotent + nilpotent @ nilpotent
    assert p @ p_inv == ident
    sigma = p @ IntMatrix.diagonal(units) @ p_inv
    return FiniteModule(GroupSpec.cyclic(d), tuple(moduli), sigma)


@settings(max_examples=40, deadline=None)
@given(_mixed_moduli_modules())
def test_primary_parts_match_the_whole_module_on_mixed_moduli(module):
    assert (
        brute_force_h1_finite(module)
        == _whole_module_brute_force_h1(module)
        == _literal_brute_force_h1(module)
    )


def test_brute_force_guard(monkeypatch):
    def untouchable(*_args, **_kwargs):
        raise AssertionError("the guard must refuse before any element is enumerated")

    with monkeypatch.context() as patch:
        patch.setattr(cohomology, "_action_tables", untouchable)
        patch.setattr(cohomology, "_IndexedModule", untouchable)
        patch.setattr(FiniteModule, "elements", untouchable)
        patch.setattr(cohomology, "MAX_COCYCLE_CHECKS", 4000)
        for size in (4001, 10**7):
            big = FiniteModule(C2, (size,), M([[1]]))
            start = time.perf_counter()
            with pytest.raises(TooLarge):
                brute_force_h1_finite(big)
            assert time.perf_counter() - start < 0.1
        # the guard bounds work: 10 assignments of Z/10 under C4, 16 pairs each
        small = FiniteModule(GroupSpec.cyclic(4), (10,), M([[1]]))
        patch.setattr(cohomology, "MAX_COCYCLE_CHECKS", 159)
        with pytest.raises(TooLarge, match="10 candidate assignments times 4\\^2 group pairs"):
            brute_force_h1_finite(small)
    monkeypatch.setattr(cohomology, "MAX_COCYCLE_CHECKS", 160)
    assert brute_force_h1_finite(small) == FGAbelianGroup.cyclic(2)


_LARGE_TRIVIAL_MODULE_SCRIPT = """
import time
from toricforms.cohomology import FiniteModule
from toricforms.exact_linalg import IntMatrix
from toricforms.galois import GroupSpec

start = time.perf_counter()
FiniteModule(GroupSpec.cyclic(1000), (5,), IntMatrix.identity(1))
print(time.perf_counter() - start)
"""


def test_module_checks_one_product_per_element_and_generator(monkeypatch):
    """The homomorphism check makes d - 1 products, the powers of the
    generator up to sigma^d, not d^2: the trivial action of C1000 builds in
    under a second under python -O (10.7 s when every pair was checked)."""
    products = []
    matmul = IntMatrix.__matmul__
    with monkeypatch.context() as patch:
        patch.setattr(IntMatrix, "__matmul__", lambda a, b: products.append(1) or matmul(a, b))
        FiniteModule(GroupSpec.cyclic(1000), (5,), IntMatrix.identity(1))
    assert len(products) == 999
    child = subprocess.run(
        [sys.executable, "-O", "-c", _LARGE_TRIVIAL_MODULE_SCRIPT],
        capture_output=True,
        text=True,
        timeout=60,
        env={"PYTHONPATH": str(Path(toricforms.__file__).resolve().parents[1])},
        check=True,
    )
    assert float(child.stdout) < 1.0


def test_module_refuses_an_action_wrong_at_a_non_generator():
    # C4 acting on Z/5 through the generator 2, whose fourth power is 1
    FiniteModule(GroupSpec.cyclic(4), (5,), M([[2]]))
    # C2 with the generator acting by 2, whose square 4 is not the identity
    with pytest.raises(ValueError, match="not a homomorphism"):
        FiniteModule(C2, (5,), M([[2]]))


def test_module_compares_a_modulus_one_coordinate_as_zero():
    """On a coordinate of modulus 1 every entry is 0, the identity's too, so
    sigma^d = 1 holds there whatever sigma's entry; elsewhere it is checked.
    The dense-torus module over F_2 split by F_2 is all such coordinates."""
    module = FiniteModule(C2, (1, 5), M([[7, 0], [0, -1]]))
    assert brute_force_h1_finite(module) == TRIVIAL
    _assert_matches_literal(module)
    with pytest.raises(ValueError, match="not a homomorphism"):
        FiniteModule(C2, (1, 5), M([[0, 0], [0, 2]]))
    trivial = enumerate_hom_classes(GroupSpec.cyclic(1), automorphism_group(P2))[0]
    module = finite_field_torus_module(FiniteFieldBackend(2, 1), trivial)
    assert (module.moduli, module.sigma) == ((1, 1), IntMatrix.zero(2, 2))
    assert brute_force_h1_finite(module) == TRIVIAL


def _surface_oracle_modules(q: int, d: int) -> list[FiniteModule]:
    """The distinct modules of every reduced twisting class of the 13 surfaces."""
    backend = FiniteFieldBackend(q, d)
    modules: dict[FiniteModule, None] = {}
    for name in BUILTIN_SURFACE_NAMES:
        for cls in enumerate_hom_classes(backend.group, automorphism_group(builtin_fan(name))):
            reduced_hom = kernel_reduction(cls)
            if reduced_hom.group.order > 1:
                reduced = FiniteFieldBackend(q, reduced_hom.group.order)
                modules[finite_field_torus_module(reduced, reduced_hom)] = None
    return list(modules)


@pytest.mark.parametrize("q,d", [(2, 2), (3, 2), (2, 3), (7, 2), (2, 6)])
def test_table_driven_brute_force_matches_literal_on_surface_classes(q, d):
    modules = _surface_oracle_modules(q, d)
    assert modules
    for module in modules:
        _assert_matches_literal(module)


@st.composite
def _diagonal_modules(draw):
    """Cyclic groups of order 1-4 acting diagonally."""
    order = draw(st.integers(1, 4))
    n = draw(st.integers(1, 3))
    moduli = draw(st.lists(st.integers(1, 7), min_size=n, max_size=n))
    units = [
        [u for u in range(m) if math.gcd(u, m) == 1 and pow(u, order, m) == 1 % m] for m in moduli
    ]
    gen_mat = IntMatrix.diagonal([draw(st.sampled_from(us)) for us in units])
    return FiniteModule(GroupSpec.cyclic(order), tuple(moduli), gen_mat)


@st.composite
def _permutation_modules(draw):
    """A cyclic group permuting coordinates, one modulus per cycle."""
    n = draw(st.integers(1, 3))
    perm = draw(st.permutations(range(n)))
    cycles = [frozenset((i, perm[i], perm[perm[i]])) for i in range(n)]  # lengths <= 3
    modulus = {cycle: draw(st.integers(1, 7)) for cycle in sorted(set(cycles), key=min)}
    order = math.lcm(*map(len, cycles)) * draw(st.integers(1, 2))
    moduli = [modulus[cycle] for cycle in cycles]
    return FiniteModule(GroupSpec.cyclic(order), tuple(moduli), _permutation_matrix(perm))


@st.composite
def _monomial_modules(draw):
    """A permutation matrix times a diagonal of units, one modulus per cycle
    (modulus 1 included), so mixed place values under a non-diagonal
    action; the group order is a multiple of the generator's order."""
    n = draw(st.integers(1, 3))
    perm = draw(st.permutations(range(n)))
    cycles = [frozenset((i, perm[i], perm[perm[i]])) for i in range(n)]  # lengths <= 3
    modulus = {cycle: draw(st.integers(1, 6)) for cycle in sorted(set(cycles), key=min)}
    moduli = [modulus[cycle] for cycle in cycles]
    units = [draw(st.sampled_from([u for u in range(m) if math.gcd(u, m) == 1])) for m in moduli]
    gen_mat = _permutation_matrix(perm) @ IntMatrix.diagonal(units)

    def reduced(mat: IntMatrix) -> IntMatrix:
        return M([[x % moduli[i] for x in row] for i, row in enumerate(mat.rows)])

    ident = reduced(IntMatrix.identity(n))
    order, power = 1, gen_mat
    while reduced(power) != ident:
        order, power = order + 1, power @ gen_mat
    return FiniteModule(GroupSpec.cyclic(order * draw(st.integers(1, 2))), tuple(moduli), gen_mat)


@settings(max_examples=60, deadline=None)
@given(st.one_of(_diagonal_modules(), _permutation_modules(), _monomial_modules()))
def test_table_driven_brute_force_matches_literal_on_random_actions(module):
    _assert_matches_literal(module)


# ---------------------------------------------------------------------------
# finite fields: Hilbert 90 and cross-route agreement


@pytest.mark.parametrize("q,d", [(2, 2), (3, 2), (4, 2), (2, 3), (5, 2)])
def test_split_finite_field_torus_is_cohomologically_trivial(q, d):
    for n in (1, 2):
        assert _h1_finite_field_torus(q, d, IntMatrix.identity(n)) == TRIVIAL


def test_frobenius_multiplier_matters_but_h1_still_vanishes():
    # an order-two twist on a rank-one torus: the norm-one torus of F_{q^2}/F_q
    for q in (2, 3, 4, 5):
        assert _h1_finite_field_torus(q, 2, M([[-1]])) == TRIVIAL


@pytest.mark.parametrize("q,d", [(2, 2), (3, 2), (2, 3)])
def test_three_finite_field_routes_agree(q, d):
    backend = FiniteFieldBackend(q, d)
    group = GroupSpec.cyclic(d)
    for fan in (P1, P2):
        for cls in enumerate_hom_classes(group, automorphism_group(fan)):
            via_norm = h1_cyclic_norm_formula(fan, cls, backend)
            via_torus = _h1_finite_field_torus(q, d, cls.matrix)
            via_brute = brute_force_h1_finite(finite_field_torus_module(backend, cls))
            assert via_norm == via_torus == via_brute == TRIVIAL


# ---------------------------------------------------------------------------
# a fan with class-group torsion: assumption checking and agreement


def _torsion_twist_class():
    classes = enumerate_hom_classes(C2, automorphism_group(TORSION_FAN))
    return next(c for c in classes if not c.is_trivial)


def test_torsion_fan_has_the_expected_twist():
    cls = _torsion_twist_class()
    assert cls.matrix == M([[-1, 0], [2, 1]])


def test_torsion_assumption_violated_when_factor_divides_units():
    cls = _torsion_twist_class()
    with pytest.raises(AssumptionViolated):
        h1_cyclic_norm_formula(TORSION_FAN, cls, FiniteFieldBackend(3, 2))


def test_torsion_fan_routes_agree_when_assumption_holds():
    cls = _torsion_twist_class()
    backend = FiniteFieldBackend(2, 2)  # units of order 3, coprime to the Z/2
    via_norm = h1_cyclic_norm_formula(TORSION_FAN, cls, backend)
    via_torus = _h1_finite_field_torus(2, 2, cls.matrix)
    via_brute = brute_force_h1_finite(finite_field_torus_module(backend, cls))
    assert via_norm == via_torus == via_brute


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 27])
def test_norm_route_torsion_check_matches_residue_enumeration(q):
    """The finite-field norm route assumes the class-group torsion factor 3
    invertible on K* = Z/(q^2 - 1): on every twisting class it raises
    AssumptionViolated exactly when 3 times the literal residues mod q^2 - 1
    is not all of them, and returns the trivial group otherwise."""
    fan = TORSION3_TRIANGLE
    assert class_group(fan) == FGAbelianGroup.from_factors([3], 1)
    backend = FiniteFieldBackend(q, 2)
    c = q**2 - 1
    onto = len({3 * x % c for x in range(c)}) == c
    refusal = f"^class group torsion factor 3 is not invertible on the unit group of {re.escape(backend.describe())}$"
    classes = enumerate_hom_classes(backend.group, automorphism_group(fan))
    assert len(classes) == 2
    for cls in classes:
        if onto:
            assert h1_cyclic_norm_formula(fan, cls, backend) == TRIVIAL
        else:
            with pytest.raises(AssumptionViolated, match=refusal):
                h1_cyclic_norm_formula(fan, cls, backend)


def _degree_row_is_diagonal(fan: Fan) -> bool:
    """`_diagonal_degree` as it was before it read the class group and the
    ray sum, kept as its reference: the degree rows of the Smith transform,
    one row of all 1 or all -1 and no torsion."""
    deg = degree_data(fan)
    if deg.torsion_moduli or deg.free_rows.nrows != 1:
        return False
    row = deg.free_rows.row(0)
    return all(x == 1 for x in row) or all(x == -1 for x in row)


def _random_simplex_fan(rng: random.Random, rank: int) -> Fan:
    """rank independent primitive rays and the primitive vector of minus a
    positive combination of them, every rank of them a cone: a complete
    simplicial fan with a class group of rank 1, torsion or not."""
    while True:
        rays = [tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(rank)]
        if exact_linalg.det(M(rays)):
            break
    rays = [primitive_vector(r) for r in rays]
    weights = [rng.choice((1, 1, 2, 3)) for _ in rays]
    rays.append(primitive_vector([-sum(w * r[k] for w, r in zip(weights, rays)) for k in range(rank)]))
    return Fan.make(rank, rays, itertools.combinations(range(rank + 1), rank))


def _random_subdivision(rng: random.Random, fan: Fan) -> Fan:
    """`fan` with one maximal cone split at a primitive interior ray."""
    cone = rng.choice(fan.max_cones)
    weights = [rng.randint(1, 2) for _ in cone]
    ray = primitive_vector([sum(w * fan.rays[i][k] for w, i in zip(weights, cone)) for k in range(fan.rank)])
    new = fan.num_rays
    cones = [c for c in fan.max_cones if c != cone] + [tuple(j for j in cone if j != i) + (new,) for i in cone]
    return Fan.make(fan.rank, fan.rays + (ray,), cones)


def test_diagonal_degree_matches_the_degree_rows():
    """Class group Z and rays summing to zero, against the degree rows it
    replaced, on the builtins, projective:1..6 and the complete torsion fans,
    three unimodular images of each, and 300 random complete simplicial
    fans of rank 2 and 3 (150 with a class group of rank 1, 150 subdivided)."""
    rng = random.Random(20261019)
    bases = [named_fan(name) for name in (*BUILTIN_NAMES, *(f"projective:{n}" for n in range(1, 7)))]
    bases += [TORSION_TRIANGLE, TORSION_SQUARE, TORSION_PRISM, TORSION3_TRIANGLE]
    cases = list(bases)
    for base in bases:
        for _ in range(3):
            g = random_unimodular(rng, base.rank)
            cases.append(Fan.make(base.rank, [g.apply(r) for r in base.rays], base.max_cones))
    simplices = [_random_simplex_fan(rng, rng.choice((2, 3))) for _ in range(150)]
    cases += simplices + [_random_subdivision(rng, fan) for fan in simplices]
    assert len(cases) == 4 * len(bases) + 300 == 396
    diagonal = 0
    for fan in cases:
        assert is_complete(fan)
        assert _diagonal_degree(fan) == _degree_row_is_diagonal(fan)
        diagonal += _diagonal_degree(fan)
    assert diagonal > 4 * 6


def test_symbolic_backend_needs_degree_one_profile():
    cls = _torsion_twist_class()
    backend = SymbolicBrauerBackend(2, (2,), ())
    with pytest.raises(BackendUnsupported):
        h1_cyclic_norm_formula(TORSION_FAN, cls, backend)


# ---------------------------------------------------------------------------
# the finite-field norm route against the intersection route it replaced


def _fixed_lattice_and_norm_op(fan: Fan, hom, backend) -> tuple[IntMatrix, IntMatrix]:
    """Y^G + c Z^rays in `basis_mod` form and N = sum of (qP)^j, built as
    the norm route builds them."""
    q, d, c = backend.q, backend.d, backend.mult_order
    ident = IntMatrix.identity(fan.num_rays)
    qp = _permutation_matrix(hom.ray_permutation).scaled(q)
    norm_op = functools.reduce(lambda acc, _: acc @ qp + ident, range(d - 1), ident)
    fixed_lattice = congruence_kernel_basis(
        smith_normal_form(fan.ray_columns.vstack(qp - ident)), c
    )
    return fixed_lattice, norm_op


def _h1_finite_field_intersection_route(fan: Fan, hom, backend) -> FGAbelianGroup:
    """The finite-field norm route before it dropped its intersection with
    N X, kept as its reference: H^1 = (Y^G meet N X) / N Y, all mod c.

    The numerator is the kernel of Hhat^0(G, Y) -> Hhat^0(G, X) without
    using Hhat^0(G, X) = 0.  The intersection is taken through a congruence
    kernel mod c: z lies in both lattices iff z = Bx with Bx == B'y (mod c),
    because the c Z^rays slack stays inside either lattice.
    """
    c = backend.mult_order
    fixed_lattice, norm_op = _fixed_lattice_and_norm_op(fan, hom, backend)
    norm_image = basis_mod(norm_op, c)
    pair = congruence_kernel_basis(
        smith_normal_form(fixed_lattice.hstack(norm_image.scaled(-1))), c
    )
    coeffs = IntMatrix(tuple(pair.rows[: fan.num_rays]), pair.ncols)
    numerator = basis_mod(fixed_lattice @ coeffs, c)
    y_lattice = congruence_kernel_basis(smith_normal_form(fan.ray_columns), c)
    denominator = basis_mod(norm_op @ y_lattice, c)
    return lattice_subquotient(numerator, denominator)


def _stacked_fixed_lattice(fan: Fan, hom, backend) -> IntMatrix:
    """Y^G + c Z^rays as the norm route built it before reading it off the
    ray orbits: the congruence kernel of the stack [R; qP - I]."""
    ident = IntMatrix.identity(fan.num_rays)
    qp = _permutation_matrix(hom.ray_permutation).scaled(backend.q)
    return congruence_kernel(fan.ray_columns.vstack(qp - ident), backend.mult_order)


def _assert_orbit_fixed_lattice_is_stacked_kernel(fan: Fan, hom, backend) -> None:
    """The orbit-built fixed lattice and the stacked kernel span one lattice:
    each lies in the other (quotient_mod raises MembershipError when it
    does not)."""
    c = backend.mult_order
    orbit_built = _fixed_ray_lattice(fan, hom.ray_permutation, backend.q, c)
    stacked = _stacked_fixed_lattice(fan, hom, backend)
    assert quotient_mod(orbit_built, stacked, c).is_trivial()
    assert quotient_mod(stacked, orbit_built, c).is_trivial()


def _assert_orbit_fixed_lattices(fan: Fan, backends) -> int:
    """`_assert_orbit_fixed_lattice_is_stacked_kernel` on every nontrivial
    class of `fan` over each backend, whatever its class-group torsion;
    returns the number of classes checked."""
    aut = automorphism_group(fan)
    checked = 0
    for backend in backends:
        for cls in enumerate_hom_classes(backend.group, aut):
            hom = kernel_reduction(cls)
            if hom.group.order > 1:
                reduced = FiniteFieldBackend(backend.q, hom.group.order)
                _assert_orbit_fixed_lattice_is_stacked_kernel(fan, hom, reduced)
                checked += 1
    return checked


@pytest.mark.parametrize("q,d", [(2, 2), (3, 2), (7, 2), (2, 6)])
def test_orbit_fixed_lattice_is_stacked_kernel_on_surface_classes(q, d):
    backend = FiniteFieldBackend(q, d)
    fans = [builtin_fan(name) for name in BUILTIN_SURFACE_NAMES]
    assert sum(_assert_orbit_fixed_lattices(fan, [backend]) for fan in fans)


def _assert_fixed_points_are_norms(fan: Fan, hom, backend) -> None:
    """Y^G lies in N X + c Z^rays: Hhat^0(G, X) = 0, the fact that lets the
    norm route skip the intersection.  lattice_subquotient raises
    MembershipError when a fixed vector is no norm."""
    fixed_lattice, norm_op = _fixed_lattice_and_norm_op(fan, hom, backend)
    lattice_subquotient(basis_mod(norm_op, backend.mult_order), fixed_lattice)


FF_ROUTE_BACKENDS = tuple(
    FiniteFieldBackend(q, d) for q, d in ((5, 4), (3, 6), (7, 2), (2, 6), (4, 3), (2, 12))
)
FF_ROUTE_FAN_NAMES = (
    list(BUILTIN_NAMES) + [f"projective:{n}" for n in range(1, 6)] + list(PRODUCT_FAN_NAMES)
)


def _ff_route_values(fan: Fan, backends) -> tuple[tuple[str, ...] | None, ...]:
    """Every nontrivial class of `fan` over each backend: the norm route's
    quotient presentation, its public entry point and the intersection
    reference agree, and the fixed points of Y are norms from X.  Per
    backend, returns the sorted
    values (all trivial, as Lang's theorem demands), or None when the class
    group has torsion the units do not invert."""
    aut = automorphism_group(fan)
    out = []
    for backend in backends:
        values = []
        for cls in enumerate_hom_classes(backend.group, aut):
            hom = kernel_reduction(cls)
            if hom.group.order == 1:
                continue
            reduced = FiniteFieldBackend(backend.q, hom.group.order)
            try:
                public = h1_cyclic_norm_formula(fan, hom, reduced)
            except AssumptionViolated:
                values = None
                break
            expected = _h1_finite_field_intersection_route(fan, hom, reduced)
            assert _h1_finite_field_quotient_presentation(fan, hom, reduced) == expected
            assert public == expected
            _assert_fixed_points_are_norms(fan, hom, reduced)
            values.append(str(expected))
        out.append(None if values is None else tuple(sorted(values)))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _ff_route_values_by_name(fan_name: str) -> tuple[tuple[str, ...] | None, ...]:
    return _ff_route_values(named_fan(fan_name), FF_ROUTE_BACKENDS)


@pytest.mark.parametrize("fan_name", FF_ROUTE_FAN_NAMES)
def test_ff_route_matches_intersection_reference(fan_name):
    assert len(_ff_route_values_by_name(fan_name)) == len(FF_ROUTE_BACKENDS)


def test_ff_route_reference_covers_many_twists():
    per_backend = [_ff_route_values_by_name(name) for name in FF_ROUTE_FAN_NAMES]
    assert all(None not in values for values in per_backend)
    classes = [v for values in per_backend for per in values for v in per]
    assert len(classes) > 300
    assert set(classes) == {"1"}


# q below 2**40, the largest the backend factors: c = q^2 - 1 has 80 bits
LARGE_Q = 1099511627689


def test_large_q_oracle_ends_within_a_second(capsys):
    """Both lattice routes work mod c, so at LARGE_Q the oracle op agrees
    within a second in process; it took 86 s when the norm route took
    integer Smith forms of its `basis_mod` lattices."""
    start = time.perf_counter()
    code = cli.run(
        ["cohomology", "oracle", "--builtin", "surface:C2", "--backend", f"ff:{LARGE_Q},2"]
    )
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    assert "all routes agree" in out
    assert elapsed < 1.0


def test_large_q_oracle_factors_q_once(monkeypatch, capsys):
    """The backend parser and each class's backend both check that q is a
    prime power; the memo on `_prime_factors` runs the trial division of
    each number once per op (three times q before, about 0.2 s each at this
    q)."""
    factored = galois._prime_factors
    factored.cache_clear()
    asked = []
    for module in (galois, cohomology, classify):
        monkeypatch.setattr(module, "_prime_factors", lambda n: asked.append(n) or factored(n))
    code = cli.run(["cohomology", "oracle", "--builtin", "surface:C2", "--backend", f"ff:{LARGE_Q},2"])
    assert code == 0 and "all routes agree" in capsys.readouterr().out
    assert asked.count(LARGE_Q) >= 2
    assert factored.cache_info().misses == len(set(asked))


def test_large_q_ff_routes_keep_every_entry_below_c(monkeypatch):
    """No entry of the finite-field routes exceeds c: every `basis_mod`
    result has its off-diagonal entries below c and its diagonal dividing c
    (a diagonal c is the generator c e_i itself), and no Smith form is taken,
    since every index is 1."""
    bases, factored = [], []
    basis_mod, smith_normal_form = exact_linalg.basis_mod, exact_linalg.smith_normal_form

    def recording_basis_mod(gens, modulus):
        bases.append(basis_mod(gens, modulus))
        return bases[-1]

    def recording_smith_normal_form(m):
        factored.append(m)
        return smith_normal_form(m)

    fan = builtin_fan("surface:C2")
    backend = FiniteFieldBackend(LARGE_Q, 2)
    classes = enumerate_hom_classes(backend.group, automorphism_group(fan))
    hom = kernel_reduction(next(c for c in classes if not c.is_trivial))
    assert hom.group.order == 2
    monkeypatch.setattr(exact_linalg, "basis_mod", recording_basis_mod)
    monkeypatch.setattr(cohomology, "basis_mod", recording_basis_mod)
    monkeypatch.setattr(exact_linalg, "smith_normal_form", recording_smith_normal_form)
    assert h1_cyclic_norm_formula(fan, hom, backend).is_trivial()
    assert _h1_finite_field_torus(LARGE_Q, 2, hom.matrix).is_trivial()
    assert factored == []
    c = backend.mult_order
    # the norm route: the fixed lattice's kernel and basis, Y's kernel, and
    # in `quotient_mod` both bases and the membership check's; the closed
    # form: two indices
    assert len(bases) == 8
    for basis in bases:
        for i, row in enumerate(basis.rows):
            assert c % row[i] == 0
            assert all(0 <= x < c for x in row[:i])


# ---------------------------------------------------------------------------
# the closed forms `classify` reports against the subquotients they replaced


def _subquotient_h1_real_involution(s: IntMatrix) -> FGAbelianGroup:
    """`h1_real_involution` as it was before Reiner's invariants, kept as its
    reference: ker(s + 1) / (1 - s) Z^n by `kernel_basis` and
    `lattice_subquotient`."""
    ident = _check_involution(s)
    fixed = kernel_basis(s + ident)
    result = lattice_subquotient(fixed, ident - s)
    assert all(f == 2 for f in result.invariant_factors)
    assert result.free_rank == 0
    return result


def _subquotient_h1_finite_field_torus(q: int, d: int, s: IntMatrix) -> FGAbelianGroup:
    """`_h1_finite_field_torus` as it was before the order comparison, kept as
    its reference: ker N / im(sigma - 1) by `congruence_kernel` and
    `triangular_subquotient`."""
    c = q**d - 1
    ident = IntMatrix.identity(s.nrows)
    sigma = s.scaled(q)
    norm_op = functools.reduce(lambda acc, _: acc @ sigma + ident, range(d - 1), ident)
    ker = congruence_kernel(norm_op, c)
    return triangular_subquotient(ker, basis_mod(sigma - ident, c))


CLOSED_FORM_FAN_NAMES = (
    list(BUILTIN_NAMES) + [f"projective:{n}" for n in range(1, 7)] + list(PRODUCT_FAN_NAMES)
)
CLOSED_FORM_BACKENDS = (REAL,) + tuple(
    FiniteFieldBackend(q, d)
    for q, d in ((5, 4), (3, 6), (2, 2), (2, 3), (3, 4), (7, 2), (2, 6), (LARGE_Q, 2))
)


@pytest.mark.parametrize("backend", CLOSED_FORM_BACKENDS, ids=lambda b: b.describe())
def test_closed_forms_match_their_subquotient_references(backend):
    """On every twisting class of the named builtins, projective:1..6 and
    the product fans, the closed form and `hom_class_h1`, which reads it,
    give the subquotient reference's group: (Z/2)^b over R, 1 over F_q."""
    orders = []
    for name in CLOSED_FORM_FAN_NAMES:
        fan = named_fan(name)
        for cls in enumerate_hom_classes(backend.group, automorphism_group(fan)):
            s = cls.matrix
            if backend is REAL:
                expected = _subquotient_h1_real_involution(s)
                assert h1_real_involution(s) == expected
            else:
                e = cls.order
                expected = _subquotient_h1_finite_field_torus(backend.q, e, s)
                assert cohomology._h1_finite_field_torus(backend.q, e, s) == expected
            assert cohomology.hom_class_h1(fan, cls, backend) == expected
            orders.append(expected.order())
    assert len(orders) > len(CLOSED_FORM_FAN_NAMES)
    assert set(orders) == ({1, 2, 4, 8, 16} if backend is REAL else {1})


@st.composite
def _reiner_involutions(draw) -> tuple[IntMatrix, int]:
    """(s, b) for s = U (I_a + -I_b + swap^c) U^-1, n = a + b + 2c <= 6, with
    swap = [[0, 1], [1, 0]] and U unimodular."""
    a = draw(st.integers(0, 6))
    b = draw(st.integers(0, 6 - a))
    c = draw(st.integers(int(a + b == 0), (6 - a - b) // 2))
    n = a + b + 2 * c
    blocks = [[[1]]] * a + [[[-1]]] * b + [[[0, 1], [1, 0]]] * c
    rows, at = [], 0
    for block in blocks:
        for row in block:
            rows.append([0] * at + row + [0] * (n - at - len(block)))
        at += len(block)
    u = draw(unimodular(n))
    return u @ M(rows) @ exact_linalg._unimodular_inverse(u), b


@settings(max_examples=60, deadline=None)
@given(case=_reiner_involutions())
def test_involution_formula_counts_the_sign_blocks(case):
    """Reiner: an involution conjugate to I_a + -I_b + swap^c has H^1 =
    (Z/2)^b, whatever the unimodular conjugation."""
    s, b = case
    assert s @ s == IntMatrix.identity(s.nrows)
    expected = FGAbelianGroup.from_factors([2] * b)
    assert h1_real_involution(s) == expected == _subquotient_h1_real_involution(s)


_WRONG_BASIS_SCRIPT = """
from toricforms import classify, cohomology, exact_linalg
from toricforms.exact_linalg import IntMatrix
from toricforms.galois import FiniteFieldBackend

# the identity is a basis of Z^n, not of the image of the matrix given
exact_linalg.basis_mod = lambda gens, modulus: IntMatrix.identity(gens.nrows)
swap = IntMatrix.from_rows([[0, 1], [1, 0]])
fan = classify.builtin_fan("projective:1")
for call in (
    lambda: cohomology._h1_finite_field_torus(3, 2, swap),
    lambda: classify.classify_fan(fan, FiniteFieldBackend(3, 2)),
):
    try:
        print("returned", call())
    except cohomology.LangViolated as exc:
        print(type(exc).__name__, exc)
"""


def test_finite_field_route_refuses_unequal_orders_under_optimized_mode():
    """A `basis_mod` that returns a wrong basis makes the two orders differ,
    and the closed form raises LangViolated, called directly and from
    `classify_fan`, also under python -O."""
    child = subprocess.run(
        [sys.executable, "-O", "-c", _WRONG_BASIS_SCRIPT],
        capture_output=True,
        text=True,
        timeout=60,
        env={"PYTHONPATH": str(Path(toricforms.__file__).resolve().parents[1])},
        check=True,
    )
    assert child.stdout == (
        "LangViolated q = 3, d = 2: |ker N| = 1 differs from |im(sigma - 1)| = 64\n"
        "LangViolated q = 3, d = 2: |ker N| = 1 differs from |im(sigma - 1)| = 8\n"
    )


@pytest.mark.parametrize(
    "fan",
    [TORSION_TRIANGLE, TORSION_SQUARE, TORSION_PRISM, TORSION_FAN, OPEN_TORSION_TRIANGLE, A2, A1XP1],
    ids=["torsion-triangle", "torsion-square", "torsion-prism", "torsion-rays",
         "open-torsion-triangle", "A2", "A1xP1"],
)
def test_ff_route_matches_intersection_reference_with_torsion_and_open_fans(fan):
    torsion = class_group(fan).invariant_factors
    for backend, values in zip(FF_ROUTE_BACKENDS, _ff_route_values(fan, FF_ROUTE_BACKENDS)):
        # the torsion is Z/2 or nothing: q odd makes 2 divide q^d - 1
        assert (values is None) == (bool(torsion) and backend.q % 2 == 1)
    assert _assert_orbit_fixed_lattices(fan, FF_ROUTE_BACKENDS)


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_ff_route_matches_intersection_reference_on_transformed_fans(data):
    name = data.draw(st.sampled_from(FF_ROUTE_FAN_NAMES))
    index = data.draw(st.integers(0, len(FF_ROUTE_BACKENDS) - 1))
    base = named_fan(name)
    g = data.draw(unimodular(base.rank))
    fan = Fan.make(base.rank, [g.apply(r) for r in base.rays], base.max_cones)
    (values,) = _ff_route_values(fan, FF_ROUTE_BACKENDS[index : index + 1])
    assert values == _ff_route_values_by_name(name)[index]


# ---------------------------------------------------------------------------
# orbitwise Hilbert 90 bookkeeping


def shapiro_orbit_h1(fan: Fan, hom, backend) -> tuple[FGAbelianGroup, ...]:
    """Per ray orbit, H^1 of the orbit stabilizer on the splitting units.

    The coordinate torus of the quotient presentation is an induced module,
    so by Shapiro's lemma its H^1 is the product over orbits of
    H^1(stabilizer, K*), and each factor vanishes by Hilbert 90.  Computing
    the factors and asserting triviality validates the induced-module
    bookkeeping that both norm-formula routes rely on.
    """
    out = []
    for orbit in hom.ray_orbits:
        stab = orbit_stabilizer(hom, orbit)
        if isinstance(backend, RealComplexBackend):
            if len(stab) == 2:
                h1 = h1_real_involution(IntMatrix.identity(1))
            else:
                h1 = FGAbelianGroup.trivial()
        elif isinstance(backend, FiniteFieldBackend):
            # Shapiro in the other direction: H^1(stabilizer, K*) is H^1 of
            # the whole group on the orbit's induced torus, Frobenius times
            # the cyclic shift of the orbit's coordinates.  This keeps q
            # itself; the stabilizer's fixed field has q**len(orbit)
            # elements, which can exceed what `_h1_finite_field_torus`
            # factors.
            e = len(orbit)
            shift = _permutation_matrix([(i + 1) % e for i in range(e)])
            h1 = _h1_finite_field_torus(backend.q, backend.d, shift)
        else:
            raise BackendUnsupported("orbitwise check needs a concrete field backend")
        assert h1.is_trivial(), "Hilbert 90 must hold on every orbit"
        out.append(h1)
    return tuple(out)


def test_shapiro_orbits_real():
    for cls in _c2_classes(HEXAGON):
        parts = shapiro_orbit_h1(HEXAGON, cls, REAL)
        assert len(parts) == len(cls.ray_orbits)
        assert all(p.is_trivial() for p in parts)


def test_shapiro_orbits_finite_field():
    # 1048583 is a prime below the 2**40 factoring bound; q**2, the field of
    # an orbit with trivial stabilizer, is above it
    for backend in (FiniteFieldBackend(3, 2), FiniteFieldBackend(1048583, 2)):
        for fan in (P1, P2, P1XP1):
            for cls in enumerate_hom_classes(GroupSpec.cyclic(2), automorphism_group(fan)):
                parts = shapiro_orbit_h1(fan, cls, backend)
                assert len(parts) == len(cls.ray_orbits)
                assert all(p.is_trivial() for p in parts)


def test_norm_route_refuses_a_hom_class_of_another_fan():
    """The hexagon's C2 classes handed to the norm route with P2 are refused
    with ValueError naming hom, over R and F_9 (under python -O too, in
    `test_preconditions.py`).  A class is of a fan when its group was built
    on an equal fan: classes of an equal fresh copy of the hexagon are
    accepted with the hexagon, with the values of the hexagon's own
    classes."""
    p2, hexagon = builtin_fan("projective:2"), builtin_fan("surface:D12")
    copy = Fan.make(hexagon.rank, hexagon.rays, hexagon.max_cones)
    classes = enumerate_hom_classes(C2, automorphism_group(copy))
    assert automorphism_group(copy) is not automorphism_group(hexagon)
    own = enumerate_hom_classes(C2, automorphism_group(hexagon))
    assert len(classes) == len(own) == 4
    for backend in (REAL, FiniteFieldBackend(3, 2)):
        for cls, own_cls in zip(classes, own):
            for foreign in (cls, own_cls):
                with pytest.raises(ValueError, match="^hom: a hom class of another fan$"):
                    h1_cyclic_norm_formula(p2, foreign, backend)
            value = h1_cyclic_norm_formula(hexagon, cls, backend)
            assert value == h1_cyclic_norm_formula(hexagon, own_cls, backend)
