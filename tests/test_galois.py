"""Group specs, hom classes, backends, and norm quotients."""

import itertools
import json
import math
import time
import tracemalloc
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricforms import cli
from toricforms.classify import BUILTIN_NAMES, builtin_fan
from toricforms.exact_linalg import (
    FGAbelianGroup,
    IntMatrix,
    cokernel_presentation,
    lattice_subquotient,
    smith_normal_form,
)
from toricforms.fan_aut import automorphism_group
from toricforms.galois import (
    AssumptionViolated,
    BackendUnsupported,
    MAX_GROUP_ORDER,
    FiniteFieldBackend,
    GroupSpec,
    RealComplexBackend,
    SymbolicBrauerBackend,
    _prime_factors,
    enumerate_hom_classes,
    kernel_reduction,
    norm_quotient,
)

from table_groups import TableGroup, hom_classes, orbit_stabilizer, reduce_kernel
from test_fan_aut import REFERENCE_FAN_NAMES as AUT_REFERENCE_FAN_NAMES
from test_fans import HEXAGON, P1, P1XP1, P2, PRODUCT_FAN_NAMES, named_fan
from test_exact_linalg import lattice_intersection
from test_preconditions import expected_lines, optimized_section


def _coset_representatives(hom, orbit) -> dict[int, int]:
    """For each ray in the orbit, the least group element moving its minimal ray there."""
    ray = min(orbit)
    out: dict[int, int] = {}
    for g in range(hom.group.order):
        out.setdefault(ray, g)
        ray = hom.ray_permutation[ray]
    assert sorted(out) == sorted(orbit)
    return out


def test_cyclic_group():
    g = GroupSpec.cyclic(6)
    assert (g.order, g.name, g.generators) == (6, "C6", (1,))
    assert GroupSpec.cyclic(1).generators == ()
    assert g == GroupSpec(6) and g != GroupSpec.cyclic(3)
    # the table-group reference has the same name and generators
    for d in (1, 2, 5, 6, 12):
        group, table = GroupSpec.cyclic(d), TableGroup.cyclic(d)
        assert (group.name, group.generators) == (table.name, table.generators)


def test_cyclic_group_holds_no_table():
    """Z/d is stored by its order: building the largest group the budget
    admits, or a backend's group at degree 2000, allocates under 64 KB (a
    d x d table was about 136 MB at d = 2000)."""
    tracemalloc.start()
    try:
        for make in (
            lambda: GroupSpec.cyclic(MAX_GROUP_ORDER),
            lambda: FiniteFieldBackend(2, 2000).group,
            lambda: SymbolicBrauerBackend(2000, (2,), ()).group,
        ):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            assert make().order in (2000, MAX_GROUP_ORDER)
            assert tracemalloc.get_traced_memory()[1] - before < 64 * 1024
    finally:
        tracemalloc.stop()


def test_group_order_budget_checked_before_allocating():
    assert GroupSpec.cyclic(1).order == 1
    for order in (0, -3, MAX_GROUP_ORDER + 1, 10**12):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="cyclic group order"):
            GroupSpec.cyclic(order)
        assert time.perf_counter() - start < 1.0


# two images naming the subgroup {0, 2} of Z/4, by generators 2 and 6
_REPEATED_ORDER_JSON = json.dumps({"Q": {"invariant_factors": [4]}, "images": [
    {"subgroup_gens": [2], "subgroup_of_Q": [[2]]},
    {"subgroup_gens": [6], "subgroup_of_Q": [[6]]},
]})


def test_backend_validation_survives_optimized_mode():
    """Input checks are typed exceptions, so `python -O` keeps them."""
    assert optimized_section("galois") == expected_lines("galois")


@pytest.mark.parametrize(
    "backend, degree",
    [
        (RealComplexBackend(), 2),
        (FiniteFieldBackend(3, 6), 6),
        (FiniteFieldBackend(2, 1), 1),
        (SymbolicBrauerBackend(4, (2,), ()), 4),
    ],
)
def test_backend_group_is_built_once(backend, degree):
    group = backend.group
    assert group is backend.group
    assert group == GroupSpec.cyclic(degree)
    # the cache lives on the instance and leaves equality and hashing alone
    twin = type(backend)(*(getattr(backend, f) for f in backend.__dataclass_fields__))
    assert twin == backend and hash(twin) == hash(backend)
    assert twin.group is not group


def test_hom_classes_c2_into_p1():
    aut = automorphism_group(P1)
    classes = enumerate_hom_classes(GroupSpec.cyclic(2), aut)
    assert len(classes) == 2
    assert sum(c.is_trivial for c in classes) == 1
    swap = next(c for c in classes if not c.is_trivial)
    assert swap.order == swap.group.order
    assert swap.matrix == IntMatrix.from_rows([[-1]])
    assert (swap.order, swap.is_trivial) == (2, False)
    assert swap.ray_orbits == ((0, 1),)
    assert orbit_stabilizer(swap, (0, 1)) == frozenset({0})
    assert _coset_representatives(swap, (0, 1)) == {0: 0, 1: 1}


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
    injective = [c for c in classes if c.order == c.group.order]
    assert len(injective) == 1
    rot = injective[0]
    assert rot.order == 4 and rot.matrix @ rot.matrix != IntMatrix.identity(2)
    assert rot.ray_orbits == ((0, 1, 2, 3),)
    assert orbit_stabilizer(rot, (0, 1, 2, 3)) == frozenset({0})


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


@pytest.mark.parametrize(
    "group",
    [GroupSpec.cyclic(2), GroupSpec.cyclic(3), GroupSpec.cyclic(4)],
    ids=lambda group: group.name,
)
def test_orbit_stabilizer_has_group_order_over_orbit_length(group):
    """The norm route names each stabilizer by |G| / |orbit|; here the
    enumerated stabilizer of every orbit of every hom class has that order."""
    for name in list(BUILTIN_NAMES) + [f"projective:{n}" for n in range(1, 5)]:
        aut = automorphism_group(builtin_fan(name))
        for hom in enumerate_hom_classes(group, aut):
            for orbit in hom.ray_orbits:
                assert group.order % len(orbit) == 0
                assert len(orbit_stabilizer(hom, orbit)) == group.order // len(orbit)


#: every builtin fan, and every fan of the benchmark's high-rank workload
REFERENCE_FAN_NAMES = (
    list(BUILTIN_NAMES) + [f"projective:{n}" for n in range(1, 5)] + list(PRODUCT_FAN_NAMES)
)


@pytest.mark.parametrize("d", range(1, 13))
def test_hom_classes_match_table_reference(d):
    """The conjugacy-class enumeration against the table-group route that
    extends generator images along the Cayley graph: the same classes in
    the same order, each with the reference's image of the generator (of 0
    when d = 1), the order d / |kernel| and the same orbit size, kernel
    reduction and ray orbits."""
    group, table = GroupSpec.cyclic(d), TableGroup.cyclic(d)
    for name in REFERENCE_FAN_NAMES:
        aut = automorphism_group(named_fan(name))
        got, want = enumerate_hom_classes(group, aut), hom_classes(table, aut)
        assert [(c.generator, c.order, c.orbit_size) for c in got] == [
            (c.images[1 % d], d // len(c.kernel), c.orbit_size) for c in want
        ], (name, d)
        assert sum(c.orbit_size for c in got) == sum(
            1 for h in range(aut.order) if d % aut.element_order(h) == 0
        )
        for cls, ref in zip(got, want):
            assert cls.ray_orbits == ref.ray_orbits
            induced = kernel_reduction(cls)
            ref_induced = reduce_kernel(ref)
            e = ref_induced.group.order
            assert induced.group == GroupSpec.cyclic(e)
            assert induced.generator == ref_induced.images[1 % e] and induced.order == induced.group.order
            assert induced.orbit_size == ref_induced.orbit_size
            assert induced.ray_orbits == cls.ray_orbits


def reference_classes(aut) -> list[tuple[int, int, int]]:
    """(least member, order, size) of every conjugacy class of aut: each
    class found by conjugating its least element by every element of aut,
    the order counted by multiplying up to the identity."""
    inverse = aut.inverse_indices
    seen: set[int] = set()
    out = []
    for h in range(aut.order):
        if h in seen:
            continue
        conjugates = {aut.mult_index(aut.mult_index(c, h), inverse[c]) for c in range(aut.order)}
        seen |= conjugates
        order, power = 1, h
        while power != aut.identity_index:
            order, power = order + 1, aut.mult_index(power, h)
        out.append((h, order, len(conjugates)))
    return out


@pytest.mark.parametrize("name", AUT_REFERENCE_FAN_NAMES)
def test_hom_classes_are_generator_orbits(name):
    """Conjugacy classes as orbits under the generators, against conjugation
    by every element: for each d the classes whose order divides d, in the
    same order, with the same orders and sizes."""
    aut = automorphism_group(named_fan(name))
    reference = reference_classes(aut)
    for d in [*range(1, 13), 1001, 9240, 10_000]:
        classes = enumerate_hom_classes(GroupSpec.cyclic(d), aut)
        got = [(c.generator, c.order, c.orbit_size) for c in classes]
        assert got == [c for c in reference if d % c[1] == 0], d


def test_kernel_reduction():
    aut = automorphism_group(P1XP1)
    classes = enumerate_hom_classes(GroupSpec.cyclic(4), aut)
    # pick a class that factors through C2
    factoring = [c for c in classes if c.order == 2]
    assert factoring
    hom = factoring[0]
    induced = kernel_reduction(hom)
    assert induced.group.order == 2
    assert induced.order == induced.group.order and hom.order != hom.group.order
    assert induced.matrix == hom.matrix
    assert induced.ray_orbits == hom.ray_orbits


def test_kernel_reduction_trivial_hom():
    aut = automorphism_group(P2)
    trivial = next(c for c in enumerate_hom_classes(GroupSpec.cyclic(2), aut) if c.is_trivial)
    induced = kernel_reduction(trivial)
    assert induced.group.order == 1
    assert induced.generator == trivial.generator == aut.identity_index
    assert induced.is_trivial and induced.order == induced.group.order


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


def _divisors(d: int) -> list[int]:
    return [h for h in range(1, d + 1) if d % h == 0]


def test_norm_quotient_real():
    # stabilizer orders: 2 is the whole group, 1 the trivial subgroup
    real = RealComplexBackend()
    assert norm_quotient(real, [2]) == FGAbelianGroup.trivial()
    assert norm_quotient(real, [1, 2]) == FGAbelianGroup.trivial()
    assert norm_quotient(real, [1]) == FGAbelianGroup.cyclic(2)
    assert norm_quotient(real, [1, 1, 1]) == FGAbelianGroup.cyclic(2)


def test_norm_quotient_finite_field_always_trivial():
    for q, d in [(2, 2), (3, 2), (2, 3), (5, 3), (4, 2)]:
        backend = FiniteFieldBackend(q, d)
        orders = _divisors(d)
        for h in orders:
            assert norm_quotient(backend, [h]) == FGAbelianGroup.trivial()
        assert norm_quotient(backend, orders) == FGAbelianGroup.trivial()


def _norm_quotient_by_subgroups(backend, stabilizers) -> FGAbelianGroup:
    """Reference: the norm quotient with each stabilizer given as the set of
    its group elements and proved closed, the former `norm_quotient` body.
    Symbolic data is looked up by the subgroup set that each listed order h
    names, the closure of d // h."""
    d = backend.group.order
    group = TableGroup.cyclic(d)
    for sub in set(stabilizers):
        assert all(0 <= g < d for g in sub) and 0 in sub
        assert group.subgroup_closure(sub) == frozenset(sub), "stabilizer is not a subgroup"
    if isinstance(backend, RealComplexBackend):
        if any(len(sub) == 2 for sub in stabilizers):
            return FGAbelianGroup.trivial()
        return FGAbelianGroup.cyclic(2)
    if isinstance(backend, FiniteFieldBackend):
        q, c = backend.q, backend.mult_order
        base_units = c // (q - 1)
        gens = [base_units] + [c // (q ** (d // len(sub)) - 1) for sub in stabilizers]
        assert all(c % g == 0 for g in gens)
        meet_gen = math.lcm(*gens)
        assert base_units % meet_gen == 0
        return FGAbelianGroup.cyclic(base_units // meet_gen)
    t = len(backend.quotient_factors)
    moduli = IntMatrix.diagonal(list(backend.quotient_factors))
    if t == 0:
        return FGAbelianGroup.trivial()
    listed: dict[frozenset[int], IntMatrix] = {}
    for h, gens in backend.images:
        listed.setdefault(group.subgroup_closure([(d // h) % d]), gens)

    def image_subgroup(sub):
        if sub in listed:
            return listed[sub]
        if len(sub) == d:
            return IntMatrix.from_cols([], nrows=t)
        if sub == frozenset({0}):
            return IntMatrix.identity(t)
        raise BackendUnsupported(f"no norm-image data for subgroup {sorted(sub)}")

    current = IntMatrix.identity(t)
    for sub in stabilizers:
        current = lattice_intersection(current, image_subgroup(sub).hstack(moduli))
    return lattice_subquotient(current, moduli)


def _multiples_backend(d: int, listed: Sequence[int]) -> SymbolicBrauerBackend:
    """Q = Z/d, and the norms from the fixed field of the subgroup of order h
    hit the multiples of h (so ha | hb gives image(hb) inside image(ha))."""
    return SymbolicBrauerBackend(d, (d,), tuple((h, IntMatrix.from_cols([(h,)])) for h in listed))


def test_norm_quotient_orders_match_subgroup_reference():
    """Orders against subgroup sets, on every multiset of at most three
    subgroups: C/R, F_q^d for q in 2..5 and d <= 12, and symbolic chains."""
    chain8 = SymbolicBrauerBackend(
        8, (2, 8), ((2, IntMatrix.from_cols([(1, 0), (0, 2)])), (4, IntMatrix.from_cols([(0, 4)])))
    )
    backends = (
        [RealComplexBackend()]
        + [FiniteFieldBackend(q, d) for q in (2, 3, 4, 5) for d in range(1, 13)]
        + [
            chain8,
            _multiples_backend(12, (2, 3, 4, 6)),
            _multiples_backend(12, (2, 4)),  # no data for orders 3 and 6
            _multiples_backend(9, (3,)),
            SymbolicBrauerBackend(4, (2, 4), ((2, IntMatrix.from_cols([(1, 0), (0, 2)])),)),
            SymbolicBrauerBackend(3, (), ()),
        ]
    )
    compared = unsupported = 0
    for backend in backends:
        d = backend.group.order
        group = TableGroup.cyclic(d)
        subgroup_of = {h: group.subgroup_closure([(d // h) % d]) for h in _divisors(d)}
        assert all(len(sub) == h for h, sub in subgroup_of.items())
        assert len(set(subgroup_of.values())) == len(subgroup_of)
        for r in range(4):
            for orders in itertools.combinations_with_replacement(_divisors(d), r):
                try:
                    want = _norm_quotient_by_subgroups(backend, [subgroup_of[h] for h in orders])
                except BackendUnsupported:
                    with pytest.raises(BackendUnsupported):
                        norm_quotient(backend, orders)
                    unsupported += 1
                    continue
                assert norm_quotient(backend, list(orders)) == want, (backend, orders)
                compared += 1
    assert (compared, unsupported) == (1346, 49)


def test_prime_factors():
    import sympy

    for n in range(-3, 3000):
        assert list(_prime_factors(n)) == (sympy.primefactors(n) if n >= 2 else [])
    assert _prime_factors(2**40) == (2,)
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
            {TableGroup.cyclic(d).subgroup_closure([g]) for g in range(d)}, key=len
        )
        norm_images = {sub: image(sum(q**h for h in sub)) for sub in subgroups}
        for sub in subgroups:
            e = d // len(sub)
            assert norm_images[sub] == fixed(e) == image(backend.norm_image_generator(len(sub)))
        k_units = fixed(1)
        full_norms = norm_images[subgroups[-1]]
        for r in range(len(subgroups) + 1):
            for stabilizers in itertools.combinations(subgroups, r):
                numerator = k_units.intersection(*(norm_images[s] for s in stabilizers))
                assert full_norms <= numerator
                order = len(numerator) // len(full_norms)
                orders = [len(s) for s in stabilizers]
                assert norm_quotient(backend, orders).order() == order


def test_norm_quotient_symbolic_mirrors_real():
    # degree 2, Q = Z/2 with only the implicit subgroup data: behaves like C/R
    sym = SymbolicBrauerBackend(2, (2,), ())
    assert norm_quotient(sym, [2]) == FGAbelianGroup.trivial()
    assert norm_quotient(sym, [1]) == FGAbelianGroup.cyclic(2)


def test_norm_quotient_symbolic_partial_subgroup():
    # degree 4, Q = Z/2 + Z/4; norms from the quadratic subfield hit the
    # subgroup generated by (1,0) and (0,2); that subfield is fixed by the
    # subgroup {0, 2} of order 2
    gens = IntMatrix.from_cols([(1, 0), (0, 2)])
    sym = SymbolicBrauerBackend(4, (2, 4), ((2, gens),))
    got = norm_quotient(sym, [2])
    assert got == FGAbelianGroup.from_factors([2, 2])
    # combining with a trivial stabilizer (no condition) changes nothing
    assert norm_quotient(sym, [2, 1]) == got
    # the full-group stabilizer kills everything
    assert norm_quotient(sym, [2, 4]) == FGAbelianGroup.trivial()


def test_symbolic_monotonicity_enforced():
    # subgroup orders 2 and 4 of Z/4: 2 divides 4
    with pytest.raises(AssumptionViolated):
        SymbolicBrauerBackend(
            4,
            (2,),
            (
                (2, IntMatrix.from_cols([], nrows=1)),
                (4, IntMatrix.identity(1)),
            ),
        )
    # containment is read in Q = Z/4: <6> lies in <2>, <4> = 0 in the
    # trivial image, and <1> not in <2>
    for small, large, holds in (
        ([(2,)], [(6,)], True),
        ([], [(4,)], True),
        ([(2,)], [(2,), (0,)], True),
        ([(2,)], [(1,)], False),
    ):
        images = (
            (2, IntMatrix.from_cols(small, nrows=1)),
            (4, IntMatrix.from_cols(large, nrows=1)),
        )
        if holds:
            SymbolicBrauerBackend(4, (4,), images)
        else:
            with pytest.raises(AssumptionViolated, match="not contained"):
                SymbolicBrauerBackend(4, (4,), images)


def _norm_quotient_by_smith_forms(backend: SymbolicBrauerBackend, orders) -> FGAbelianGroup:
    """The symbolic `norm_quotient` before it worked mod the exponent of Q,
    kept as its reference: exact intersections by `lattice_intersection`
    and one `lattice_subquotient`, all by integer Smith forms."""
    t = len(backend.quotient_factors)
    if t == 0:
        return FGAbelianGroup.trivial()
    moduli = IntMatrix.diagonal(list(backend.quotient_factors))
    current = IntMatrix.identity(t)
    for h in orders:
        current = lattice_intersection(current, backend.image_subgroup(h).hstack(moduli))
    return lattice_subquotient(current, moduli)


def _monotone_by_cokernels(factors, images) -> bool:
    """The monotonicity check before it compared indices mod the exponent
    of Q, kept as its reference: for ha dividing hb, adding image(hb) to
    image(ha) + diag(Q) leaves the cokernel unchanged."""
    moduli = IntMatrix.diagonal(list(factors))
    for ha, ga in images:
        for hb, gb in images:
            if ha != hb and hb % ha == 0:
                big = ga.hstack(moduli)
                if cokernel_presentation(big) != cokernel_presentation(big.hstack(gb)):
                    return False
    return True


@st.composite
def _symbolic_data(draw):
    """(degree, factors, images) with t <= 3 factors in 2..30 and image
    entries of absolute value at most 50, the listed orders drawn from the
    divisors of d in {2, 4, 6}.  Nested data, image(h) = h G for one G,
    satisfies monotonicity; free data draws each image on its own."""
    d = draw(st.sampled_from([2, 4, 6]))
    t = draw(st.integers(0, 3))
    factors = tuple(draw(st.lists(st.integers(2, 30), min_size=t, max_size=t)))
    entries = st.integers(-50, 50)

    def matrix() -> IntMatrix:
        ncols = draw(st.integers(0, 3))
        return IntMatrix.from_rows(
            [[draw(entries) for _ in range(ncols)] for _ in range(t)], ncols=ncols
        )

    orders = draw(st.lists(st.sampled_from([h for h in range(1, d + 1) if d % h == 0]), unique=True))
    if draw(st.booleans()):
        g = matrix()
        images = tuple((h, g.scaled(h)) for h in orders)
    else:
        images = tuple((h, matrix()) for h in orders)
    return d, factors, images


@settings(max_examples=150, deadline=None)
@given(_symbolic_data())
def test_symbolic_mod_c_routes_match_smith_form_references(data):
    """On random symbolic backends, the monotonicity verdict read off
    `index_mod` is the cokernel comparison's, and `norm_quotient` mod the
    exponent of Q is the group the exact Smith-form route gives, on every
    multiset of at most two stabilizer orders.  A third exact intersection
    can already outgrow any time budget on this data (the reference took
    over 3 s on one (1, 2, 2) case with t = 3), the growth the mod-c route
    removed."""
    d, factors, images = data
    if not _monotone_by_cokernels(factors, images):
        with pytest.raises(AssumptionViolated, match="not contained"):
            SymbolicBrauerBackend(d, factors, images)
        return
    backend = SymbolicBrauerBackend(d, factors, images)
    for r in range(3):
        for orders in itertools.combinations_with_replacement(_divisors(d), r):
            try:
                want = _norm_quotient_by_smith_forms(backend, orders)
            except BackendUnsupported:
                with pytest.raises(BackendUnsupported):
                    norm_quotient(backend, orders)
                continue
            assert norm_quotient(backend, orders) == want, orders


#: Norm data whose Smith forms of [m | diag Q] blew up: Q = (Z/2400)^5, and
#: the columns of m span the norms from the quadratic subfield of a degree-4
#: extension (m's own invariant factors are 1, 1, 1, 2, 17528090966386).
_LARGE_IMAGE_Q = 2400
_LARGE_IMAGE_COLS = [
    [-594, -1822, 445, -1616, -2351],
    [-464, 1633, -1412, 427, 1742],
    [282, 467, -77, 758, 479],
    [-736, 292, -237, 210, -9],
    [54, 398, -751, 294, 71],
]
_LARGE_IMAGE_DATA = {
    "Q": {"invariant_factors": [_LARGE_IMAGE_Q] * 5},
    "images": [{"subgroup_gens": [2], "subgroup_of_Q": _LARGE_IMAGE_COLS}],
}
_LARGE_IMAGE_TOP = {"subgroup_gens": [1], "subgroup_of_Q": []}


@pytest.mark.parametrize("with_top", [False, True], ids=["order-2-image", "order-2-and-4-images"])
def test_symbolic_large_image_ends_within_a_second(with_top, tmp_path, capsys):
    """The backend load and the quotient by the order-2 image each end
    within a second; with integer Smith forms of [m | diag Q], the quotient
    did not end within 60 s, and with the order-4 image listed too the
    load's monotonicity check did not end within 20 s.  The quotient is the
    subgroup of (Z/c)^5 spanned by m's columns, the sum of Z/(c / gcd(c, s))
    over m's invariant factors s."""
    data = json.loads(json.dumps(_LARGE_IMAGE_DATA))
    if with_top:
        data["images"].append(_LARGE_IMAGE_TOP)
    text = json.dumps(data)
    start = time.perf_counter()
    backend = SymbolicBrauerBackend.from_json(text, 4)
    loaded = time.perf_counter()
    got = norm_quotient(backend, [2])
    done = time.perf_counter()
    assert loaded - start < 1.0
    assert done - loaded < 1.0
    c = _LARGE_IMAGE_Q
    m = IntMatrix.from_cols(_LARGE_IMAGE_COLS)
    want = FGAbelianGroup.from_factors([c // math.gcd(c, s) for s in smith_normal_form(m).diagonal])
    assert got == want == FGAbelianGroup(0, (1200, 1200, 2400, 2400, 2400))
    path = tmp_path / "norms.json"
    path.write_text(text)
    argv = ["classify", "projective", "-n", "3", "--backend", f"symbolic:{path}", "--group", "cyclic:4"]
    assert cli.run(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert f"H^1 = {want} " in next(line for line in lines if "partition (2, 2) " in line)


def test_symbolic_rejects_repeated_orders():
    """An order listed twice is refused: monotonicity would be checked on one
    entry while `image_subgroup` evaluates the other."""
    two, one = IntMatrix.from_cols([(2,)]), IntMatrix.from_cols([(1,)])
    with pytest.raises(ValueError, match="two norm images for the subgroup of order 2 of Z/4"):
        SymbolicBrauerBackend(4, (4,), ((2, two), (2, one), (4, one)))
    with pytest.raises(ValueError, match="two norm images for the subgroup of order 2 of Z/4"):
        SymbolicBrauerBackend.from_json(_REPEATED_ORDER_JSON, 4)
    assert SymbolicBrauerBackend(4, (4,), ((2, one), (4, two))).image_subgroup(2) == one


def test_norm_quotient_rejects_non_divisors():
    for backend in (RealComplexBackend(), FiniteFieldBackend(2, 4), _multiples_backend(4, (2,))):
        d = backend.group.order
        for bad in (0, -2, 3, d + 1, 2 * d, True, 2.0):
            with pytest.raises(ValueError, match=f"is not the order of a subgroup of Z/{d}"):
                norm_quotient(backend, [1, bad])
    with pytest.raises(ValueError, match="3 is not the order of a subgroup of Z/4"):
        FiniteFieldBackend(2, 4).norm_image_generator(3)
    assert FiniteFieldBackend(2, 4).norm_image_generator(2) == 5


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
    assert sym.images[0][0] == 2  # <2> = {0, 2} in Z/4
    assert norm_quotient(sym, [2]) == FGAbelianGroup.from_factors([2, 2])
    # any generators: the order of the subgroup they span, as the closure has it
    for degree in (1, 4, 6, 12):
        for gens in ([], [0], [2], [3], [-3], [4, 6], [5, 9], [6, 8], [degree]):
            text = json.dumps({"Q": {"invariant_factors": [2]}, "images": [
                {"subgroup_gens": gens, "subgroup_of_Q": [[0]]}]})
            closure = TableGroup.cyclic(degree).subgroup_closure(x % degree for x in gens)
            assert SymbolicBrauerBackend.from_json(text, degree).images[0][0] == len(closure)


def test_backend_descriptions():
    assert "F_3" in FiniteFieldBackend(3, 2).describe()
    assert RealComplexBackend().describe() == "C/R"
    assert "degree 2" in SymbolicBrauerBackend(2, (2,), ()).describe()
