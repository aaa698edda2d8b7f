"""Oracles and cross-route checks for the H^1 engines."""

import pytest

from toricforms.cohomology import (
    FiniteModule,
    NotInvolution,
    TooLarge,
    TorusSubgroup,
    _h1_real_quotient_presentation,
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
    enumerate_hom_classes,
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


def _cyclic_module(order, moduli, mats):
    return FiniteModule(GroupSpec.cyclic(order), moduli, tuple(M(m) for m in mats))


def test_brute_force_negation_on_z4():
    mod = _cyclic_module(2, (4,), [[[1]], [[-1]]])
    assert brute_force_h1_finite(mod) == Z2


def test_brute_force_trivial_action_on_z3():
    mod = _cyclic_module(2, (3,), [[[1]], [[1]]])
    assert brute_force_h1_finite(mod) == TRIVIAL


def test_brute_force_trivial_action_on_z2():
    mod = _cyclic_module(2, (2,), [[[1]], [[1]]])
    assert brute_force_h1_finite(mod) == Z2


def test_brute_force_klein_four_homs():
    klein = GroupSpec.dihedral(4)
    ident = [[1]]
    mod = FiniteModule(klein, (2,), tuple(M(ident) for _ in range(4)))
    assert brute_force_h1_finite(mod) == Z2Z2


def test_brute_force_guard():
    big = FiniteModule(GroupSpec.cyclic(2), (4001,), (M([[1]]), M([[1]])))
    with pytest.raises(TooLarge):
        brute_force_h1_finite(big, guard=4000)


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
