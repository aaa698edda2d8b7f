"""Fan automorphism groups and GL(2,Z) class identification."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricforms.classify import BUILTIN_NAMES
from toricforms.exact_linalg import IntMatrix, det, rational_solve
from toricforms.fan_aut import (
    GEN_MIRROR_DIAG,
    GEN_MIRROR_SWAP,
    GEN_NEG,
    GEN_ROT3,
    GEN_ROT4,
    GEN_ROT6,
    GL2_CLASS_LABELS,
    FanAutGroup,
    UnidentifiedClass,
    _divided,
    _frame,
    _is_group,
    _ray_invariants,
    _scaled_inverse,
    aut_via_sequence,
    automorphism_group,
    gl2_class_elements,
    identify_gl2_class,
    involution_type,
)
from toricforms.fans import Fan, NotSmoothComplete, surface_blowup, validate_fan

from test_fans import (
    HEXAGON,
    P1,
    P1XP1,
    P2,
    PRODUCT_FAN_NAMES,
    named_fan,
    product_fan,
    random_smooth_complete_fan,
    unimodular,
)

EXPECTED_CLASS_ORDERS = {
    "C1": 1, "C2": 2, "C3": 3, "C4": 4, "C6": 6,
    "D2": 2, "D2'": 2, "D4": 4, "D4'": 4, "D6": 6, "D6'": 6, "D8": 8, "D12": 12,
}


def test_canonical_class_orders():
    for label, n in EXPECTED_CLASS_ORDERS.items():
        assert len(gl2_class_elements(label)) == n, label


def test_canonical_generator_orders():
    def order(m):
        p, n = m, 1
        while p != IntMatrix.identity(2):
            p, n = p @ m, n + 1
        return n

    assert order(GEN_ROT6) == 6
    assert order(GEN_ROT4) == 4
    assert order(GEN_ROT3) == 3
    assert order(GEN_NEG) == 2
    assert order(GEN_MIRROR_DIAG) == 2
    assert order(GEN_MIRROR_SWAP) == 2
    assert det(GEN_ROT6) == 1 and det(GEN_MIRROR_SWAP) == -1


def test_classes_identified_on_themselves():
    for label in GL2_CLASS_LABELS:
        ident = identify_gl2_class(gl2_class_elements(label))
        assert ident.label == label
        assert ident.verify(gl2_class_elements(label))


def test_classes_identified_after_conjugation():
    q = IntMatrix.from_rows([[2, 1], [1, 1]])
    qinv, den = rational_solve(q, IntMatrix.identity(2))
    assert den == 1
    for label in GL2_CLASS_LABELS:
        conj = [q @ g @ qinv for g in gl2_class_elements(label)]
        ident = identify_gl2_class(conj)
        assert ident.label == label, f"{label} misidentified as {ident.label}"
        assert ident.verify(conj)


def test_identify_rejects_non_groups():
    with pytest.raises(UnidentifiedClass):
        identify_gl2_class([IntMatrix.identity(2), IntMatrix.from_rows([[1, 1], [0, 1]])])
    with pytest.raises(UnidentifiedClass):
        identify_gl2_class([])


def test_involution_types_frozen():
    assert involution_type(IntMatrix.identity(2)) == "identity"
    assert involution_type(GEN_NEG) == "minus_identity"
    assert involution_type(GEN_MIRROR_DIAG) == "split_reflection"
    assert involution_type(IntMatrix.from_rows([[-1, 0], [0, 1]])) == "split_reflection"
    assert involution_type(GEN_MIRROR_SWAP) == "swap_reflection"
    assert involution_type(-GEN_MIRROR_SWAP) == "swap_reflection"
    # reflection fixing a ray of the triangle fan: odd boundary value, swap type
    assert involution_type(IntMatrix.from_rows([[1, 1], [0, -1]])) == "swap_reflection"
    with pytest.raises(AssertionError):
        involution_type(GEN_ROT4)


def test_aut_p1():
    group = automorphism_group(P1)
    assert group.order == 2
    assert set(group.matrices) == {IntMatrix.from_rows([[1]]), IntMatrix.from_rows([[-1]])}


def test_aut_p2_is_triangle_symmetry():
    group = automorphism_group(P2)
    assert group.order == 6
    ident = identify_gl2_class(group)
    assert ident.label == "D6"
    assert ident.verify(group.matrices)
    # the basis swap fixes the fan, the 3-cycle is visible as an order-3 element
    assert GEN_MIRROR_SWAP in group.matrices
    assert sorted(group.element_order(i) for i in range(6)) == [1, 2, 2, 2, 3, 3]


def test_aut_p1xp1_is_square_symmetry():
    group = automorphism_group(P1XP1)
    assert group.order == 8
    assert identify_gl2_class(group).label == "D8"
    assert GEN_ROT4 in group.matrices
    assert GEN_MIRROR_SWAP in group.matrices
    assert GEN_MIRROR_DIAG in group.matrices


def test_aut_hexagon_is_full_dihedral():
    group = automorphism_group(HEXAGON)
    assert group.order == 12
    assert identify_gl2_class(group).label == "D12"
    # the 60-degree rotation in these coordinates
    assert IntMatrix.from_rows([[1, -1], [1, 0]]) in group.matrices
    assert GEN_MIRROR_SWAP in group.matrices


def test_aut_p3():
    p3 = Fan.make(
        3,
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
        [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)],
    )
    group = automorphism_group(p3)
    assert group.order == 24  # symmetric group on the four rays


def test_ray_permutations_are_permutations():
    group = automorphism_group(P1XP1)
    for perm in group.ray_permutations:
        assert sorted(perm) == list(range(4))
    # identity matrix gives the identity permutation
    assert group.ray_permutations[group.identity_index] == (0, 1, 2, 3)


def test_group_indexing_helpers():
    group = automorphism_group(P2)
    e = group.identity_index
    for i in range(group.order):
        assert group.mult_index(i, e) == i
        assert group.mult_index(e, i) == i
        assert group.mult_index(i, group.inverse_indices[i]) == e
    full = group.subgroup_closure(range(group.order))
    assert full == frozenset(range(group.order))


SEARCH_FAN_NAMES = (
    list(BUILTIN_NAMES) + [f"projective:{n}" for n in (1, 2, 3, 4, 5)] + list(PRODUCT_FAN_NAMES)
)


@pytest.mark.parametrize(
    "fan_name",
    list(BUILTIN_NAMES) + [f"projective:{n}" for n in (1, 2, 3, 4)] + list(PRODUCT_FAN_NAMES),
)
def test_inverse_indices_are_two_sided_inverses(fan_name):
    group = automorphism_group(named_fan(fan_name))
    e = group.identity_index
    inv = group.inverse_indices
    assert len(inv) == group.order
    for i in range(group.order):
        assert group.mult_index(i, inv[i]) == e
        assert group.mult_index(inv[i], i) == e


# ---------------------------------------------------------------------------
# the pruned search against the exhaustive frame product


def _frame_product_automorphisms(fan: Fan) -> tuple[IntMatrix, ...]:
    """Reference search: every tuple of same-invariant rays as the frame's image.

    Each candidate matrix (images @ g) / den is kept only if it is integral,
    unimodular, maps the ray set onto itself and permutes the maximal cones;
    the result is sorted by rows, as `FanAutGroup.matrices` is.
    """
    validate_fan(fan)
    frame = _frame(fan)
    frame_inv, den = _scaled_inverse(IntMatrix.from_cols([fan.rays[j] for j in frame], fan.rank))
    invariants = _ray_invariants(fan)
    ray_lookup = {r: i for i, r in enumerate(fan.rays)}
    cone_set = set(fan.max_cones)
    candidates_per_slot = [
        [i for i in range(fan.num_rays) if invariants[i] == invariants[j]] for j in frame
    ]
    found: list[IntMatrix] = []
    for images in itertools.product(*candidates_per_slot):
        if len(set(images)) != len(images):
            continue
        img_cols = IntMatrix.from_cols([fan.rays[i] for i in images], fan.rank)
        s = _divided(img_cols @ frame_inv, den)
        if s is None or abs(det(s)) != 1:
            continue
        perm = [ray_lookup.get(s.apply(r)) for r in fan.rays]
        if None in perm:
            continue
        if any(tuple(sorted(perm[i] for i in c)) not in cone_set for c in fan.max_cones):
            continue
        found.append(s)
    assert len(set(found)) == len(found)
    return tuple(sorted(found, key=lambda m: m.rows))


@pytest.mark.parametrize("fan_name", SEARCH_FAN_NAMES)
def test_search_matches_frame_product_reference(fan_name):
    fan = named_fan(fan_name)
    group = automorphism_group(fan)
    assert group.matrices == _frame_product_automorphisms(fan)
    # the permutations the search stored are the matrices' own
    assert group.ray_permutations == FanAutGroup(fan, group.matrices).ray_permutations


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_search_matches_reference_on_transformed_fans(data):
    base = named_fan(data.draw(st.sampled_from(SEARCH_FAN_NAMES)))
    g = data.draw(unimodular(base.rank))
    assert abs(det(g)) == 1
    fan = Fan.make(base.rank, [g.apply(r) for r in base.rays], base.max_cones)
    group = automorphism_group(fan)
    assert group.matrices == _frame_product_automorphisms(fan)
    # conjugating by g carries the symmetries of the base fan onto these
    g_inv, den = rational_solve(g, IntMatrix.identity(g.nrows))
    assert den == 1
    assert set(group.matrices) == {g @ s @ g_inv for s in automorphism_group(base).matrices}


def _assert_products_match(group: FanAutGroup, pairs) -> None:
    for i, j in pairs:
        assert group.mult_index(i, j) == group.index(group.matrices[i] @ group.matrices[j])


@pytest.mark.parametrize("fan_name", SEARCH_FAN_NAMES)
def test_mult_index_is_the_matrix_product(fan_name):
    group = automorphism_group(named_fan(fan_name))
    if group.order <= 100:
        pairs = itertools.product(range(group.order), repeat=2)
    else:
        rng = random.Random(fan_name)
        pairs = [(rng.randrange(group.order), rng.randrange(group.order)) for _ in range(3000)]
    _assert_products_match(group, pairs)


def test_p1_to_the_fifth_is_the_hyperoctahedral_group():
    group = automorphism_group(product_fan((1, 1, 1, 1, 1)))
    assert group.order == 3840 == 2**5 * 120
    assert _is_group(group.ray_permutations)
    assert group.matrices[group.identity_index] == IntMatrix.identity(5)
    rng = random.Random(5)
    _assert_products_match(
        group, [(rng.randrange(3840), rng.randrange(3840)) for _ in range(500)]
    )


def test_closure_certificate_rejects_non_groups():
    s3 = sorted(itertools.permutations(range(3)))
    assert _is_group(s3)
    assert _is_group([(0, 1, 2), (1, 2, 0), (2, 0, 1)])
    assert _is_group([(0, 1, 2)])
    assert not _is_group(s3[:-1])  # one transposition missing
    assert not _is_group([(0, 1, 2), (1, 2, 0)])  # the 3-cycle's square is missing
    assert not _is_group([(1, 0, 2), (0, 2, 1)])  # no identity
    assert not _is_group([(0, 1, 2), (1, 0, 2), (0, 2, 1)])  # products escape
    # closed under the products a*b, a*a, b*b, ab*b, but not under b*a: newly
    # reached elements need the products with every generator, old and new
    assert not _is_group([(0, 1, 2), (1, 0, 2), (0, 2, 1), (1, 2, 0)])


def test_sequence_route_matches_search_route():
    for fan in (P2, P1XP1, HEXAGON):
        assert aut_via_sequence(fan) == automorphism_group(fan)


def test_sequence_route_random_blowups():
    rng = random.Random(1234)
    for _ in range(10):
        fan = random_smooth_complete_fan(rng, rng.randrange(0, 4))
        assert aut_via_sequence(fan) == automorphism_group(fan)


def test_sequence_route_requires_smooth_complete():
    with pytest.raises(NotSmoothComplete):
        aut_via_sequence(Fan.make(2, [(1, 0), (0, 1)], [(0, 1)]))


def test_asymmetric_blowup_has_trivial_group():
    fan = surface_blowup(P2, (0, 1))       # ray (1,1)
    fan = surface_blowup(fan, (0, 3))      # ray (2,1): breaks all symmetry
    group = automorphism_group(fan)
    assert group.order == 1
    assert identify_gl2_class(group).label == "C1"


def test_single_blowup_of_p2():
    fan = surface_blowup(P2, (0, 1))
    group = automorphism_group(fan)
    # word (0,1,0,-1): one mirror symmetry survives
    assert group.order == 2
    labels = identify_gl2_class(group).label
    assert labels in ("D2", "D2'")
    assert aut_via_sequence(fan) == group
