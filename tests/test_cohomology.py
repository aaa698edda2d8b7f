"""Oracles and cross-route checks for the H^1 engines."""

import itertools
import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricforms import cohomology
from toricforms.classify import BUILTIN_SURFACE_NAMES, builtin_fan
from toricforms.cohomology import (
    FiniteModule,
    NotInvolution,
    TooLarge,
    TorusSubgroup,
    _action_tables,
    _cayley_spanning_tree,
    _exact_log,
    _h1_real_quotient_presentation,
    _permutation_matrix,
    brute_force_h1_finite,
    finite_field_torus_module,
    h1_cyclic_norm_formula,
    h1_finite_field_torus,
    h1_real_involution,
    shapiro_orbit_h1,
)
from toricforms.exact_linalg import FGAbelianGroup, IntMatrix
from toricforms.fan_aut import automorphism_group
from toricforms.fans import Fan
from toricforms.galois import (
    AssumptionViolated,
    BackendUnsupported,
    FiniteFieldBackend,
    GroupSpec,
    NonCyclicGroup,
    RealComplexBackend,
    SymbolicBrauerBackend,
    _prime_factors,
    enumerate_hom_classes,
    kernel_reduction,
    reduce_backend,
)

from test_fans import HEXAGON, P1, P1XP1, P2

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
# closed subgroups of the coordinate torus


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
    # the quotient-presentation route agrees even though the public entry
    # point takes the degree-one shortcut on this fan
    assert _h1_real_quotient_presentation(P1, swap) == Z2


def test_real_route_trivial_class_is_trivial():
    for fan in (P1, P2, P1XP1, HEXAGON):
        triv = next(c for c in _c2_classes(fan) if c.is_trivial)
        assert h1_cyclic_norm_formula(fan, triv, REAL) == TRIVIAL


def test_real_routes_agree_on_surface_builtins():
    for fan in (P1, P2, P1XP1, HEXAGON):
        for cls in _c2_classes(fan):
            s = cls.matrix(1)
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


def test_norm_formula_rejects_non_cyclic_groups():
    d6 = GroupSpec.dihedral(6)
    cls = enumerate_hom_classes(d6, automorphism_group(P2))[0]
    with pytest.raises(NonCyclicGroup):
        h1_cyclic_norm_formula(P2, cls, REAL)


# ---------------------------------------------------------------------------
# brute force oracles


def _literal_brute_force_h1(module: FiniteModule, guard: int = 10_000_000) -> FGAbelianGroup:
    """The enumeration `brute_force_h1_finite` replaced, kept as its reference:
    every action is one `module.act` call, nothing is tabulated."""
    group = module.group
    gens = group.generators if group.generators else ()
    count = module.size ** len(gens)
    if count > guard:
        raise TooLarge(f"{count} candidate assignments exceed the guard {guard}")

    # breadth-first spanning of the Cayley graph, fixed once
    parent: dict[int, tuple[int, int]] = {}
    order_of_visit = [0]
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = group.mult(a, g)
                if b not in seen:
                    seen.add(b)
                    parent[b] = (a, g)
                    order_of_visit.append(b)
                    nxt.append(b)
        frontier = nxt
    assert len(seen) == group.order, "generators fail to generate"

    cocycles: set[tuple[tuple[int, ...], ...]] = set()
    for assignment in itertools.product(module.elements(), repeat=len(gens)):
        by_gen = dict(zip(gens, assignment))
        c: list[tuple[int, ...] | None] = [None] * group.order
        c[0] = module.zero()
        ok = True
        for b in order_of_visit[1:]:
            a, g = parent[b]
            c[b] = module.add(c[a], module.act(a, by_gen[g]))
        for a in range(group.order):
            if not ok:
                break
            for g in gens:
                b = group.mult(a, g)
                if c[b] != module.add(c[a], module.act(a, by_gen[g])):
                    ok = False
                    break
        if ok:
            full = True
            for a in range(group.order):
                for b in range(group.order):
                    lhs = c[group.mult(a, b)]
                    rhs = module.add(c[a], module.act(a, c[b]))
                    if lhs != rhs:
                        full = False
                        break
                if not full:
                    break
            if full:
                cocycles.add(tuple(c))

    boundaries: set[tuple[tuple[int, ...], ...]] = set()
    for v in module.elements():
        boundaries.add(
            tuple(
                tuple((x - y) % mi for x, y, mi in zip(module.act(a, v), v, module.moduli))
                for a in range(group.order)
            )
        )
    assert boundaries <= cocycles
    h_order = len(cocycles) // len(boundaries)
    if h_order == 1:
        return FGAbelianGroup.trivial()

    def scaled_in_boundaries(z, k: int) -> bool:
        scaled = tuple(module.scale(k, row) for row in z)
        return scaled in boundaries

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


def _assert_matches_literal(module: FiniteModule) -> None:
    """Same answer as the literal enumeration, and tables equal to `act`."""
    assert brute_force_h1_finite(module) == _literal_brute_force_h1(module)
    elements = tuple(module.elements())
    position = {v: i for i, v in enumerate(elements)}
    tree = _cayley_spanning_tree(module.group, module.group.generators)
    tables = _action_tables(module, elements, position, tree)
    assert len(tables) == module.group.order
    for a, table in enumerate(tables):
        assert table == [module.act(a, v) for v in elements]


def _cyclic_module(order, moduli, mats):
    return FiniteModule(GroupSpec.cyclic(order), moduli, tuple(M(m) for m in mats))


def test_brute_force_negation_on_z4():
    mod = _cyclic_module(2, (4,), [[[1]], [[-1]]])
    assert brute_force_h1_finite(mod) == Z2
    _assert_matches_literal(mod)


def test_brute_force_trivial_action_on_z3():
    mod = _cyclic_module(2, (3,), [[[1]], [[1]]])
    assert brute_force_h1_finite(mod) == TRIVIAL
    _assert_matches_literal(mod)


def test_brute_force_trivial_action_on_z2():
    mod = _cyclic_module(2, (2,), [[[1]], [[1]]])
    assert brute_force_h1_finite(mod) == Z2
    _assert_matches_literal(mod)


def test_brute_force_klein_four_homs():
    klein = GroupSpec.dihedral(4)
    ident = [[1]]
    mod = FiniteModule(klein, (2,), tuple(M(ident) for _ in range(4)))
    assert brute_force_h1_finite(mod) == Z2Z2
    _assert_matches_literal(mod)


def test_brute_force_guard(monkeypatch):
    def untouchable(*_args, **_kwargs):
        raise AssertionError("the guard must refuse before any element is enumerated")

    monkeypatch.setattr(cohomology, "_action_tables", untouchable)
    monkeypatch.setattr(FiniteModule, "elements", untouchable)
    for size in (4001, 10**7):
        big = FiniteModule(GroupSpec.cyclic(2), (size,), (M([[1]]), M([[1]])))
        start = time.perf_counter()
        with pytest.raises(TooLarge):
            brute_force_h1_finite(big, guard=4000)
        assert time.perf_counter() - start < 0.1


def _surface_oracle_modules(q: int, d: int) -> list[FiniteModule]:
    """The distinct modules of every reduced twisting class of the 13 surfaces."""
    backend = FiniteFieldBackend(q, d)
    modules: dict[FiniteModule, None] = {}
    for name in BUILTIN_SURFACE_NAMES:
        for cls in enumerate_hom_classes(backend.group, automorphism_group(builtin_fan(name))):
            reduced_group, reduced_hom, _ = kernel_reduction(cls)
            if reduced_group.order > 1:
                reduced = reduce_backend(backend, len(cls.kernel))
                modules[finite_field_torus_module(reduced, reduced_hom)] = None
    return list(modules)


@pytest.mark.parametrize("q,d", [(2, 2), (3, 2), (2, 3), (7, 2)])
def test_table_driven_brute_force_matches_literal_on_surface_classes(q, d):
    modules = _surface_oracle_modules(q, d)
    assert modules
    for module in modules:
        _assert_matches_literal(module)


def _module_from_generators(group: GroupSpec, moduli, gen_mats) -> FiniteModule:
    """The module on which each generator acts by the given matrix."""
    n = len(moduli)
    mats = {0: IntMatrix.identity(n)}
    frontier = [0]
    while frontier:
        nxt = []
        for a in frontier:
            for g, mat in zip(group.generators, gen_mats):
                b = group.mult(a, g)
                if b not in mats:
                    prod = mats[a] @ mat
                    mats[b] = M([[x % moduli[i] for x in row] for i, row in enumerate(prod.rows)])
                    nxt.append(b)
        frontier = nxt
    return FiniteModule(group, tuple(moduli), tuple(mats[a] for a in range(group.order)))


@st.composite
def _diagonal_modules(draw):
    """Cyclic groups of order 1-4 and the Klein four group acting diagonally."""
    groups = [GroupSpec.cyclic(k) for k in range(1, 5)] + [GroupSpec.dihedral(4)]
    group = draw(st.sampled_from(groups))
    n = draw(st.integers(1, 2 if len(group.generators) > 1 else 3))
    moduli = draw(st.lists(st.integers(1, 7), min_size=n, max_size=n))
    gen_mats = []
    for g in group.generators:
        k = group.element_order(g)
        units = [
            [u for u in range(m) if math.gcd(u, m) == 1 and pow(u, k, m) == 1 % m] for m in moduli
        ]
        gen_mats.append(IntMatrix.diagonal([draw(st.sampled_from(us)) for us in units]))
    return _module_from_generators(group, moduli, gen_mats)


@st.composite
def _permutation_modules(draw):
    """A cyclic group permuting coordinates, one modulus per cycle."""
    n = draw(st.integers(1, 3))
    perm = draw(st.permutations(range(n)))
    cycles = [frozenset((i, perm[i], perm[perm[i]])) for i in range(n)]  # lengths <= 3
    modulus = {cycle: draw(st.integers(1, 7)) for cycle in sorted(set(cycles), key=min)}
    order = math.lcm(*map(len, cycles)) * draw(st.integers(1, 2))
    moduli = [modulus[cycle] for cycle in cycles]
    return _module_from_generators(GroupSpec.cyclic(order), moduli, [_permutation_matrix(perm)])


@st.composite
def _symmetric_modules(draw):
    """The non-abelian D6 = S3 permuting three coordinates: a rotation by a
    3-cycle, a reflection by a transposition."""
    cycle = draw(st.sampled_from([(1, 2, 0), (2, 0, 1)]))
    swap = draw(st.sampled_from([(1, 0, 2), (0, 2, 1), (2, 1, 0)]))
    gen_mats = [_permutation_matrix(cycle), _permutation_matrix(swap)]
    return _module_from_generators(GroupSpec.dihedral(6), (draw(st.integers(1, 3)),) * 3, gen_mats)


@settings(max_examples=60, deadline=None)
@given(st.one_of(_diagonal_modules(), _permutation_modules(), _symmetric_modules()))
def test_table_driven_brute_force_matches_literal_on_random_actions(module):
    _assert_matches_literal(module)


# ---------------------------------------------------------------------------
# finite fields: Hilbert 90 and cross-route agreement


@pytest.mark.parametrize("q,d", [(2, 2), (3, 2), (4, 2), (2, 3), (5, 2)])
def test_split_finite_field_torus_is_cohomologically_trivial(q, d):
    for n in (1, 2):
        assert h1_finite_field_torus(q, d, IntMatrix.identity(n)) == TRIVIAL


def test_frobenius_multiplier_matters_but_h1_still_vanishes():
    # an order-two twist on a rank-one torus: the norm-one torus of F_{q^2}/F_q
    for q in (2, 3, 4, 5):
        assert h1_finite_field_torus(q, 2, M([[-1]])) == TRIVIAL


@pytest.mark.parametrize("q,d", [(2, 2), (3, 2), (2, 3)])
def test_three_finite_field_routes_agree(q, d):
    backend = FiniteFieldBackend(q, d)
    group = GroupSpec.cyclic(d)
    for fan in (P1, P2):
        for cls in enumerate_hom_classes(group, automorphism_group(fan)):
            via_norm = h1_cyclic_norm_formula(fan, cls, backend)
            via_torus = h1_finite_field_torus(q, d, cls.matrix(1))
            via_brute = brute_force_h1_finite(finite_field_torus_module(backend, cls))
            assert via_norm == via_torus == via_brute == TRIVIAL


# ---------------------------------------------------------------------------
# a fan with class-group torsion: assumption checking and agreement


TORSION_FAN = Fan.make(2, [(1, 0), (-1, 2)], [(0,), (1,)])


def _torsion_twist_class():
    classes = enumerate_hom_classes(C2, automorphism_group(TORSION_FAN))
    return next(c for c in classes if not c.is_trivial)


def test_torsion_fan_has_the_expected_twist():
    cls = _torsion_twist_class()
    assert cls.matrix(1) == M([[-1, 0], [2, 1]])


def test_torsion_assumption_violated_when_factor_divides_units():
    cls = _torsion_twist_class()
    with pytest.raises(AssumptionViolated):
        h1_cyclic_norm_formula(TORSION_FAN, cls, FiniteFieldBackend(3, 2))


def test_torsion_fan_routes_agree_when_assumption_holds():
    cls = _torsion_twist_class()
    backend = FiniteFieldBackend(2, 2)  # units of order 3, coprime to the Z/2
    via_norm = h1_cyclic_norm_formula(TORSION_FAN, cls, backend)
    via_torus = h1_finite_field_torus(2, 2, cls.matrix(1))
    via_brute = brute_force_h1_finite(finite_field_torus_module(backend, cls))
    assert via_norm == via_torus == via_brute


def test_symbolic_backend_needs_degree_one_profile():
    cls = _torsion_twist_class()
    backend = SymbolicBrauerBackend(2, (2,), ())
    with pytest.raises(BackendUnsupported):
        h1_cyclic_norm_formula(TORSION_FAN, cls, backend)


# ---------------------------------------------------------------------------
# orbitwise Hilbert 90 bookkeeping


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
