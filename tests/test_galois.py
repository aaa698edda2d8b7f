"""Group specs, hom classes, backends, and norm quotients."""

import itertools
import subprocess
import sys
import time
from pathlib import Path

import pytest

import toricforms
from toricforms.exact_linalg import FGAbelianGroup, IntMatrix
from toricforms.fan_aut import automorphism_group
from toricforms.galois import (
    AssumptionViolated,
    BackendUnsupported,
    MAX_GROUP_ORDER,
    FiniteFieldBackend,
    GroupSpec,
    HomClass,
    RealComplexBackend,
    SymbolicBrauerBackend,
    _prime_factors,
    enumerate_hom_classes,
    kernel_reduction,
    norm_quotient,
    reduce_backend,
    torsion_factor_invertible,
)

from test_fans import HEXAGON, P1, P1XP1, P2


def test_cyclic_group():
    g = GroupSpec.cyclic(6)
    assert g.order == 6
    assert g.is_abelian and g.is_cyclic
    assert g.cyclic_generator == 1
    assert g.element_order(2) == 3
    assert g.inverse(2) == 4
    assert g.power(1, 4) == 4
    assert g.subgroup_closure([2]) == frozenset({0, 2, 4})
    assert g.subgroup_closure([3]) == frozenset({0, 3})


def test_group_order_budget_checked_before_allocating():
    assert GroupSpec.cyclic(1).order == 1
    for order in (0, -3, MAX_GROUP_ORDER + 1, 10**12):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="cyclic group order"):
            GroupSpec.cyclic(order)
        assert time.perf_counter() - start < 1.0
    start = time.perf_counter()
    with pytest.raises(ValueError, match="dihedral group order"):
        GroupSpec.dihedral(10**12)
    assert time.perf_counter() - start < 1.0


def test_backend_validation_survives_optimized_mode():
    """Input checks are typed exceptions, so `python -O` keeps them."""
    script = (
        "from toricforms.cohomology import FiniteModule, h1_finite_field_torus\n"
        "from toricforms.exact_linalg import IntMatrix\n"
        "from toricforms.galois import FiniteFieldBackend, GroupSpec, SymbolicBrauerBackend\n"
        "M, C2, I1 = IntMatrix.from_rows, GroupSpec.cyclic(2), IntMatrix.identity(1)\n"
        "swap = M([[0, 1], [1, 0]])\n"
        "for make in (lambda: FiniteFieldBackend(6, 2), lambda: FiniteFieldBackend(2, 0),\n"
        "             lambda: GroupSpec.cyclic(0), lambda: GroupSpec.dihedral(3),\n"
        "             lambda: h1_finite_field_torus(6, 2, I1),\n"
        "             lambda: h1_finite_field_torus(2, 0, I1),\n"
        "             lambda: FiniteModule(C2, (5,), (I1, M([[2]]))),\n"
        "             lambda: FiniteModule(C2, (0,), (I1, I1)),\n"
        "             lambda: FiniteModule(C2, (5,), (I1,)),\n"
        "             lambda: FiniteModule(C2, (5,), (I1, M([[1, 0]]))),\n"
        "             lambda: FiniteModule(C2, (5,), (M([[-1]]), I1)),\n"
        "             lambda: FiniteModule(C2, (2, 3), (IntMatrix.identity(2), swap)),\n"
        "             lambda: IntMatrix.from_rows([[1, 2], [3]]),\n"
        "             lambda: SymbolicBrauerBackend.from_json('{\"Q\": {}}', 2),\n"
        "             lambda: SymbolicBrauerBackend(2, (1,), ()),\n"
        "             lambda: SymbolicBrauerBackend(2, (2, 3), ((frozenset({0, 1}), I1),)),\n"
        "             lambda: SymbolicBrauerBackend(4, (2,), ((frozenset({0, 1}), I1),)),\n"
        "             lambda: FiniteModule(C2, (5,), (I1, M([[-1]])))):\n"
        "    try:\n"
        "        make()\n"
        "    except ValueError as exc:\n"
        "        print(type(exc).__name__, exc)\n"
        "    else:\n"
        "        print('accepted')\n"
    )
    src = str(Path(toricforms.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        timeout=60,
        env={"PYTHONPATH": src},
        check=True,
    ).stdout.splitlines()
    assert out == [
        "ValueError finite-field backend needs a prime power, got q=6",
        "ValueError finite-field backend needs degree d >= 1, got d=0",
        f"ValueError cyclic group order must be in 1..{MAX_GROUP_ORDER}, got 0",
        f"ValueError dihedral group order must be even and in 2..{MAX_GROUP_ORDER}, got 3",
        "ValueError finite-field backend needs a prime power, got q=6",
        "ValueError finite-field torus needs degree d >= 1, got d=0",
        "ValueError action is not a homomorphism",
        "ValueError moduli must be at least 1, got (0,)",
        "ValueError 1 action matrices for a group of order 2",
        "ValueError action matrix of shape (1, 2), expected (1, 1)",
        "ValueError group element 0 must act as the identity",
        "ValueError action matrix [0 1; 1 0] does not descend to the moduli (2, 3)",
        "ValueError ragged rows: [1, 2]",
        "ValueError symbolic backend JSON: missing key 'invariant_factors'",
        "ValueError invariant factors of Q must be at least 2, got [1]",
        "ValueError norm image of subgroup [0, 1] needs 2 rows, one per factor of Q, got 1",
        "ValueError [0, 1] is not a subgroup of Z/4",
        "accepted",
    ]


def test_dihedral_group():
    g = GroupSpec.dihedral(12)
    assert g.order == 12
    assert not g.is_abelian and not g.is_cyclic
    m = 6
    # s * r = s r^1,  r * s = s r^{-1}
    assert g.mult(m, 1) == m + 1
    assert g.mult(1, m) == m + 5
    assert g.mult(m + 1, m + 1) == 0
    orders = sorted(g.element_order(a) for a in range(12))
    assert orders == [1, 2, 2, 2, 2, 2, 2, 2, 3, 3, 6, 6]
    assert GroupSpec.dihedral(2).order == 2


def test_explicit_group_validation():
    klein = [
        [0, 1, 2, 3],
        [1, 0, 3, 2],
        [2, 3, 0, 1],
        [3, 2, 1, 0],
    ]
    g = GroupSpec.explicit(klein, name="V4")
    assert g.order == 4 and g.is_abelian and not g.is_cyclic
    assert g.subgroup_closure(g.generators) == frozenset(range(4))
    with pytest.raises(AssertionError):
        GroupSpec.explicit([[0, 1], [1, 1]])


def test_hom_classes_c2_into_p1():
    aut = automorphism_group(P1)
    classes = enumerate_hom_classes(GroupSpec.cyclic(2), aut)
    assert len(classes) == 2
    assert sum(c.is_trivial for c in classes) == 1
    swap = next(c for c in classes if not c.is_trivial)
    assert swap.is_injective
    assert swap.matrix(1) == IntMatrix.from_rows([[-1]])
    assert swap.ray_orbits == ((0, 1),)
    assert swap.orbit_stabilizer((0, 1)) == frozenset({0})
    assert swap.coset_representatives((0, 1)) == {0: 0, 1: 1}


def test_hom_classes_c2_into_square():
    aut = automorphism_group(P1XP1)
    classes = enumerate_hom_classes(GroupSpec.cyclic(2), aut)
    # trivial, central -I, and the two reflection classes
    assert len(classes) == 4
    assert sorted(c.orbit_size for c in classes) == [1, 1, 2, 2]
    assert sum(c.orbit_size for c in classes) == 6  # = number of homs


def test_hom_classes_c4_into_square():
    aut = automorphism_group(P1XP1)
    classes = enumerate_hom_classes(GroupSpec.cyclic(4), aut)
    assert len(classes) == 5
    injective = [c for c in classes if c.is_injective]
    assert len(injective) == 1
    rot = injective[0]
    assert rot.matrix(1).power(4) == IntMatrix.identity(2)
    assert rot.ray_orbits == ((0, 1, 2, 3),)
    assert rot.orbit_stabilizer((0, 1, 2, 3)) == frozenset({0})


def test_hom_classes_c2_into_hexagon():
    aut = automorphism_group(HEXAGON)
    classes = enumerate_hom_classes(GroupSpec.cyclic(2), aut)
    assert len(classes) == 4
    assert sorted(c.orbit_size for c in classes) == [1, 1, 3, 3]


def test_hom_classes_trivial_group():
    aut = automorphism_group(P2)
    classes = enumerate_hom_classes(GroupSpec.cyclic(1), aut)
    assert len(classes) == 1
    assert classes[0].is_trivial
    assert classes[0].ray_orbits == ((0,), (1,), (2,))


def test_dihedral_homs_into_hexagon():
    aut = automorphism_group(HEXAGON)
    classes = enumerate_hom_classes(GroupSpec.dihedral(12), aut)
    injective = [c for c in classes if c.is_injective]
    assert len(injective) >= 1
    full = injective[0]
    assert full.ray_orbits == ((0, 1, 2, 3, 4, 5),)
    stab = full.orbit_stabilizer((0, 1, 2, 3, 4, 5))
    assert len(stab) == 2  # a reflection fixes ray 0


def test_kernel_reduction():
    aut = automorphism_group(P1XP1)
    classes = enumerate_hom_classes(GroupSpec.cyclic(4), aut)
    # pick a class that factors through C2
    factoring = [c for c in classes if len(c.kernel) == 2]
    assert factoring
    hom = factoring[0]
    quotient, induced, projection = kernel_reduction(hom)
    assert quotient.order == 2
    assert induced.is_injective
    assert projection == (0, 1, 0, 1)
    assert induced.matrix(1) == hom.matrix(1)
    assert induced.ray_orbits == hom.ray_orbits


def test_kernel_reduction_trivial_hom():
    aut = automorphism_group(P2)
    trivial = next(c for c in enumerate_hom_classes(GroupSpec.cyclic(2), aut) if c.is_trivial)
    quotient, induced, projection = kernel_reduction(trivial)
    assert quotient.order == 1
    assert projection == (0, 0)


def test_finite_field_backend_validation():
    FiniteFieldBackend(2, 2)
    FiniteFieldBackend(4, 3)  # prime power base
    FiniteFieldBackend(5, 3)
    with pytest.raises(ValueError, match="needs a prime power, got q=6"):
        FiniteFieldBackend(6, 2)
    with pytest.raises(ValueError, match="needs a prime power"):
        FiniteFieldBackend(1, 2)
    with pytest.raises(ValueError, match="needs degree d >= 1, got d=0"):
        FiniteFieldBackend(3, 0)
    assert FiniteFieldBackend(3, 2).mult_order == 8
    assert FiniteFieldBackend(2, 3).group.order == 3


def test_reduce_backend():
    assert reduce_backend(FiniteFieldBackend(2, 2), 1) == FiniteFieldBackend(2, 2)
    assert reduce_backend(FiniteFieldBackend(2, 2), 2) is None
    assert reduce_backend(FiniteFieldBackend(2, 6), 2) == FiniteFieldBackend(2, 3)
    assert reduce_backend(RealComplexBackend(), 2) is None
    sym = SymbolicBrauerBackend(2, (2,), ())
    assert reduce_backend(sym, 1) == sym
    with pytest.raises(BackendUnsupported):
        reduce_backend(sym, 2)


def test_torsion_factor_invertible():
    assert torsion_factor_invertible(RealComplexBackend(), 5)
    ff = FiniteFieldBackend(2, 2)  # units Z/3
    assert torsion_factor_invertible(ff, 2)
    assert not torsion_factor_invertible(ff, 3)


def test_norm_quotient_real():
    real = RealComplexBackend()
    full = frozenset({0, 1})
    triv = frozenset({0})
    assert norm_quotient(real, [full]) == FGAbelianGroup.trivial()
    assert norm_quotient(real, [triv, full]) == FGAbelianGroup.trivial()
    assert norm_quotient(real, [triv]) == FGAbelianGroup.cyclic(2)
    assert norm_quotient(real, [triv, triv, triv]) == FGAbelianGroup.cyclic(2)


def test_norm_quotient_finite_field_always_trivial():
    for q, d in [(2, 2), (3, 2), (2, 3), (5, 3), (4, 2)]:
        backend = FiniteFieldBackend(q, d)
        group = backend.group
        subgroup_list = [
            frozenset(group.subgroup_closure([g])) for g in range(d)
        ]
        for sub in subgroup_list:
            assert norm_quotient(backend, [sub]) == FGAbelianGroup.trivial()
        assert norm_quotient(backend, subgroup_list) == FGAbelianGroup.trivial()


def test_prime_factors():
    import sympy

    for n in range(-3, 3000):
        assert _prime_factors(n) == (sympy.primefactors(n) if n >= 2 else [])
    assert _prime_factors(2**40) == [2]
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"only numbers up to 2\*\*40"):
        _prime_factors(2**40 + 1)
    assert time.perf_counter() - start < 0.1


def test_closed_forms_match_residue_enumeration():
    """Finite-field closed forms against literal residue sets of K* = Z/c.

    Frobenius acts on Z/c, c = q^d - 1, as multiplication by q; the subfield
    fixed by its e-th power is {x : q^e x = x}, and the norm to the fixed
    field of a subgroup H of Z/d is multiplication by the sum of q^h, h in H.
    """
    limit = 2000
    prime_powers = [
        q
        for q in range(2, limit + 2)
        if sum(1 for p in range(2, q + 1) if q % p == 0 and all(p % r for r in range(2, p))) == 1
    ]
    cases = [(q, d) for q in prime_powers for d in range(1, 12) if q**d - 1 <= limit]
    assert len(cases) > 300 and (2, 10) in cases and (3, 6) in cases
    for q, d in cases:
        backend = FiniteFieldBackend(q, d)
        c = q**d - 1
        units = range(c)

        def image(m):
            return frozenset(m * x % c for x in units)

        def fixed(e):
            return frozenset(x for x in units if (q**e - 1) * x % c == 0)

        subgroups = sorted(
            {backend.group.subgroup_closure([g]) for g in range(d)}, key=len
        )
        norm_images = {sub: image(sum(q**h for h in sub)) for sub in subgroups}
        for sub in subgroups:
            e = d // len(sub)
            assert norm_images[sub] == fixed(e) == image(backend.norm_image_generator(sub))
        for factor in range(1, 13):
            assert torsion_factor_invertible(backend, factor) == (len(image(factor)) == c)
        k_units = fixed(1)
        full_norms = norm_images[subgroups[-1]]
        for r in range(len(subgroups) + 1):
            for stabilizers in itertools.combinations(subgroups, r):
                numerator = k_units.intersection(*(norm_images[s] for s in stabilizers))
                assert full_norms <= numerator
                order = len(numerator) // len(full_norms)
                assert norm_quotient(backend, stabilizers).order() == order


def test_norm_quotient_symbolic_mirrors_real():
    # degree 2, Q = Z/2 with only the implicit subgroup data: behaves like C/R
    sym = SymbolicBrauerBackend(2, (2,), ())
    assert norm_quotient(sym, [frozenset({0, 1})]) == FGAbelianGroup.trivial()
    assert norm_quotient(sym, [frozenset({0})]) == FGAbelianGroup.cyclic(2)


def test_norm_quotient_symbolic_partial_subgroup():
    # degree 4, Q = Z/2 + Z/4; norms from the quadratic subfield hit the
    # subgroup generated by (1,0) and (0,2)
    half = frozenset({0, 2})
    gens = IntMatrix.from_cols([(1, 0), (0, 2)])
    sym = SymbolicBrauerBackend(4, (2, 4), ((half, gens),))
    got = norm_quotient(sym, [half])
    assert got == FGAbelianGroup.from_factors([2, 2])
    # combining with a trivial stabilizer (no condition) changes nothing
    assert norm_quotient(sym, [half, frozenset({0})]) == got
    # the full-group stabilizer kills everything
    assert norm_quotient(sym, [half, frozenset(range(4))]) == FGAbelianGroup.trivial()


def test_symbolic_monotonicity_enforced():
    half = frozenset({0, 2})
    with pytest.raises(AssumptionViolated):
        SymbolicBrauerBackend(
            4,
            (2,),
            (
                (half, IntMatrix.from_cols([], nrows=1)),
                (frozenset(range(4)), IntMatrix.identity(1)),
            ),
        )


def test_symbolic_from_json():
    text = """
    {
      "Q": {"invariant_factors": [2, 4]},
      "images": [
        {"subgroup_gens": [2], "subgroup_of_Q": [[1, 0], [0, 2]]}
      ]
    }
    """
    sym = SymbolicBrauerBackend.from_json(text, degree=4)
    assert sym.quotient_factors == (2, 4)
    assert sym.images[0][0] == frozenset({0, 2})
    assert norm_quotient(sym, [frozenset({0, 2})]) == FGAbelianGroup.from_factors([2, 2])


def test_backend_descriptions():
    assert "F_3" in FiniteFieldBackend(3, 2).describe()
    assert RealComplexBackend().describe() == "C/R"
    assert "degree 2" in SymbolicBrauerBackend(2, (2,), ()).describe()
