"""Fan automorphism groups and GL(2,Z) class identification."""

import gc
import itertools
import math
import random
import weakref
from typing import Iterator, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricforms.classify import BUILTIN_NAMES, classify_fan
from toricforms.exact_linalg import IntMatrix, det, kernel_basis, smith_normal_form
from toricforms.fan_aut import (
    GEN_MIRROR_DIAG,
    GEN_MIRROR_SWAP,
    GEN_NEG,
    GEN_ROT3,
    GEN_ROT4,
    GEN_ROT6,
    GL2_CLASS_LABELS,
    _CLASS_GENERATORS,
    FanAutGroup,
    UnidentifiedClass,
    _LABEL_BY_KEY,
    _divided,
    _frame,
    _FrameImages,
    _check_involution,
    _ray_invariants,
    automorphism_group,
    gl2_class_elements,
    identify_gl2_class,
    NotInvolution,
    involution_type,
)
from toricforms.fans import (
    Fan,
    NotSmoothComplete,
    TooLarge,
    boundary_word,
    is_complete,
    is_smooth,
    surface_blowup,
    validate_fan,
)
from toricforms.galois import RealComplexBackend

from test_exact_linalg import rational_solve
from test_fans import (
    HEXAGON,
    P1,
    P1XP1,
    P2,
    PRODUCT_FAN_NAMES,
    named_fan,
    product_fan,
    random_smooth_complete_fan,
    random_unimodular,
    unimodular,
)


def _scaled_inverse(m: IntMatrix) -> tuple[IntMatrix, int]:
    """The references' inverse, from the Smith form: (g, den) with
    m @ g == den * identity, for a nonsingular square m."""
    sol = rational_solve(smith_normal_form(m), IntMatrix.identity(m.nrows))
    assert sol is not None, "matrix is singular"
    return sol


def _key(fan: Fan) -> tuple:
    """The defining tuples a FanAutGroup names its fan by."""
    return (fan.rank, fan.rays, fan.max_cones)


def _fresh(fan: Fan) -> Fan:
    """An equal copy of `fan` that keeps no symmetry group yet, so that
    `automorphism_group` searches it."""
    return Fan.make(fan.rank, fan.rays, fan.max_cones)


def _ray_permutations(fan: Fan, matrices) -> tuple[tuple[int, ...], ...]:
    """Each matrix's permutation k -> index of m @ ray_k, read off the matrices."""
    lookup = {r: i for i, r in enumerate(fan.rays)}
    return tuple(tuple(lookup[m.apply(r)] for r in fan.rays) for m in matrices)


def aut_via_sequence(fan: Fan) -> FanAutGroup:
    """Automorphisms of a smooth complete surface fan from its boundary word.

    A rotation of the word by k steps lifts to the matrix sending the first
    two boundary rays to the pair k steps along (determinant +1); a mirror
    symmetry about position j lifts to the matrix reversing the boundary
    (determinant -1).  Raises NotSmoothComplete when the shortcut is not
    available.
    """
    bw = boundary_word(fan)  # raises for unsupported fans
    order = bw.ccw_indices
    w = bw.word
    m = len(w)
    rays = [fan.rays[i] for i in order]
    base_inv, den = _scaled_inverse(IntMatrix.from_cols([rays[0], rays[1]], 2))

    def lift(target0: tuple[int, ...], target1: tuple[int, ...]) -> IntMatrix:
        s = _divided(IntMatrix.from_cols([target0, target1], 2) @ base_inv, den)
        assert s is not None, "boundary bases are unimodular, lift must be integral"
        return s

    found = []
    for k in range(m):
        if w[k:] + w[:k] == w:
            s = lift(rays[k], rays[(k + 1) % m])
            assert det(s) == 1
            for i in range(m):
                assert s.apply(rays[i]) == rays[(i + k) % m]
            found.append(s)
    for j in range(m):
        if all(w[(j - i) % m] == w[i] for i in range(m)):
            s = lift(rays[j], rays[(j - 1) % m])
            assert det(s) == -1
            for i in range(m):
                assert s.apply(rays[i]) == rays[(j - i) % m]
            found.append(s)
    matrices = tuple(sorted(set(found), key=lambda x: x.rows))
    everything = tuple(range(len(matrices)))
    return FanAutGroup(_key(fan), matrices, _ray_permutations(fan, matrices), everything)


EXPECTED_CLASS_ORDERS = {
    "C1": 1, "C2": 2, "C3": 3, "C4": 4, "C6": 6,
    "D2": 2, "D2'": 2, "D4": 4, "D4'": 4, "D6": 6, "D6'": 6, "D8": 8, "D12": 12,
}


def test_canonical_class_orders():
    for label, n in EXPECTED_CLASS_ORDERS.items():
        assert len(gl2_class_elements(label)) == n, label


def _order(m: IntMatrix) -> int:
    p, n = m, 1
    while p != IntMatrix.identity(2):
        p, n = p @ m, n + 1
    return n


def test_canonical_generator_orders():
    assert _order(GEN_ROT6) == 6
    assert _order(GEN_ROT4) == 4
    assert _order(GEN_ROT3) == 3
    assert _order(GEN_NEG) == 2
    assert _order(GEN_MIRROR_DIAG) == 2
    assert _order(GEN_MIRROR_SWAP) == 2
    assert det(GEN_ROT6) == 1 and det(GEN_MIRROR_SWAP) == -1


# ---------------------------------------------------------------------------
# the invariant lookup against an explicit conjugator search


def _matrix_inverse(p: IntMatrix) -> IntMatrix:
    inv, den = rational_solve(smith_normal_form(p), IntMatrix.identity(p.nrows))
    assert den == 1, "unimodular matrix expected"
    return inv


def _intertwiner_lattice(pairs) -> IntMatrix:
    """Basis of {P : P @ g == h @ P for all pairs (g, h)}, P flattened row-major."""
    rows = []
    for g, h in pairs:
        for i in range(2):
            for j in range(2):
                row = [0, 0, 0, 0]
                for a in range(2):
                    for b in range(2):
                        coeff = 0
                        if a == i:
                            coeff += g.entry(b, j)
                        if b == j:
                            coeff -= h.entry(i, a)
                        row[2 * a + b] += coeff
                rows.append(row)
    return kernel_basis(IntMatrix.from_rows(rows, 4))


def reference_conjugator(matrices) -> tuple[str, IntMatrix] | None:
    """(label, P) with P @ class @ P^-1 == the group, found by search, or None.

    Candidate classes are filtered by order and element orders; for each
    assignment of the class generators to same-order elements, P runs over
    the intertwiner lattice with coordinates in [-5, 5].  The box is not
    exhaustive: a conjugator with larger coordinates is missed.
    """
    matrices = tuple(matrices)
    target = set(matrices)
    order_stats = sorted(_order(m) for m in matrices)
    for label in GL2_CLASS_LABELS:
        elems = gl2_class_elements(label)
        if sorted(_order(m) for m in elems) != order_stats:
            continue
        gens = _CLASS_GENERATORS[label]
        slots = [[h for h in matrices if _order(h) == _order(g)] for g in gens]
        for images in itertools.product(*slots):
            basis = _intertwiner_lattice(list(zip(gens, images)))
            if basis.ncols == 0:
                continue
            for coeffs in itertools.product(range(-5, 6), repeat=basis.ncols):
                flat = basis.apply(coeffs)
                p = IntMatrix.from_rows([[flat[0], flat[1]], [flat[2], flat[3]]])
                if abs(det(p)) != 1:
                    continue
                pinv = _matrix_inverse(p)
                if {p @ g @ pinv for g in elems} == target:
                    return label, p
    return None


def _conjugate(label: str, q: IntMatrix) -> list[IntMatrix]:
    qinv = _matrix_inverse(q)
    return [q @ g @ qinv for g in gl2_class_elements(label)]


def test_classes_identified_on_themselves():
    for label in GL2_CLASS_LABELS:
        assert identify_gl2_class(gl2_class_elements(label)) == label
        found, p = reference_conjugator(gl2_class_elements(label))
        assert found == label
        assert set(_conjugate(label, p)) == set(gl2_class_elements(label))


def test_classes_identified_after_conjugation():
    q = IntMatrix.from_rows([[2, 1], [1, 1]])
    for label in GL2_CLASS_LABELS:
        conj = _conjugate(label, q)
        assert identify_gl2_class(conj) == label
        found, p = reference_conjugator(conj)
        assert found == label, f"{label} found as {found}"
        assert set(_conjugate(label, p)) == set(conj)


@pytest.mark.parametrize("name", [n for n in BUILTIN_NAMES if named_fan(n).rank == 2])
def test_builtin_surface_class_matches_reference_conjugator(name):
    group = automorphism_group(named_fan(name))
    found, p = reference_conjugator(group.matrices)
    assert identify_gl2_class(group) == found
    assert set(_conjugate(found, p)) == set(group.matrices)


#: Conjugators with entries past the reference's coefficient box.
FAR_CONJUGATORS = ([[8, 7], [1, 1]], [[15, 7], [2, 1]], [[201, 100], [2, 1]])


@pytest.mark.parametrize("rows", FAR_CONJUGATORS)
def test_classes_identified_after_far_conjugation(rows):
    q = IntMatrix.from_rows(rows)
    for label in GL2_CLASS_LABELS:
        conj = _conjugate(label, q)
        assert identify_gl2_class(conj) == label
        # the same group, listed in another order
        assert identify_gl2_class(conj[::-1]) == label


def test_class_keys_are_distinct():
    assert sorted(_LABEL_BY_KEY.values()) == sorted(GL2_CLASS_LABELS)
    # order and coinvariants alone do not separate the classes
    assert len({(key[0], key[2]) for key in _LABEL_BY_KEY}) < len(GL2_CLASS_LABELS)
    # nor do order and element orders
    assert len({key[:2] for key in _LABEL_BY_KEY}) < len(GL2_CLASS_LABELS)


def test_identify_rejects_non_groups():
    shear = IntMatrix.from_rows([[1, 1], [0, 1]])
    for bad in (
        [],
        [IntMatrix.identity(2), shear],  # not closed, and the shear has infinite order
        [IntMatrix.identity(2), GEN_ROT4],  # not closed
        [GEN_NEG, GEN_NEG, IntMatrix.identity(2)],  # repeated element
        [IntMatrix.identity(3)],
        [IntMatrix.identity(2), IntMatrix.from_rows([[1, 0]])],
        gl2_class_elements("D12") + (shear,),  # too many elements for a finite group
    ):
        with pytest.raises(UnidentifiedClass):
            identify_gl2_class(bad)
    # closed under products, but no power of the projection is the identity
    projection = IntMatrix.from_rows([[1, 0], [0, 0]])
    for bad in ([projection], [IntMatrix.identity(2), projection]):
        with pytest.raises(UnidentifiedClass, match="order > 12"):
            identify_gl2_class(bad)


def test_involution_types_frozen():
    assert involution_type(IntMatrix.identity(2)) == "identity"
    assert involution_type(GEN_NEG) == "minus_identity"
    assert involution_type(GEN_MIRROR_DIAG) == "split_reflection"
    assert involution_type(IntMatrix.from_rows([[-1, 0], [0, 1]])) == "split_reflection"
    assert involution_type(GEN_MIRROR_SWAP) == "swap_reflection"
    assert involution_type(-GEN_MIRROR_SWAP) == "swap_reflection"
    # reflection fixing a ray of the triangle fan: odd boundary value, swap type
    assert involution_type(IntMatrix.from_rows([[1, 1], [0, -1]])) == "swap_reflection"
    with pytest.raises(NotInvolution, match="is not an involution"):
        involution_type(GEN_ROT4)


def _eigenlattice_involution_type(s: IntMatrix) -> str:
    """`involution_type` as it was before the rank over F_2, kept as its
    reference: the index of the two eigenlattices from `kernel_basis` and
    `det`."""
    n = s.nrows
    ident = _check_involution(s)
    if s == ident:
        return "identity"
    if s == -ident:
        return "minus_identity"
    plus = kernel_basis(s - ident)
    minus = kernel_basis(s + ident)
    stacked = plus.hstack(minus)
    assert stacked.ncols == n, "eigenlattices of an involution must span over Q"
    idx = abs(det(stacked))
    if idx == 1:
        return "split_reflection"
    assert n > 2 or idx == 2
    return "swap_reflection"


INVOLUTION_FAN_NAMES = list(BUILTIN_NAMES) + [f"projective:{n}" for n in range(1, 7)]


def test_involution_type_matches_eigenlattice_reference():
    """On every involution of every named builtin and of projective:1..6."""
    kinds = set()
    for name in INVOLUTION_FAN_NAMES:
        group = automorphism_group(named_fan(name))
        for s in group.matrices:
            if s @ s == IntMatrix.identity(s.nrows):
                kind = involution_type(s)
                assert kind == _eigenlattice_involution_type(s)
                kinds.add(kind)
    assert kinds == {"identity", "minus_identity", "split_reflection", "swap_reflection"}


def test_aut_p1():
    group = automorphism_group(P1)
    assert group.order == 2
    assert set(group.matrices) == {IntMatrix.from_rows([[1]]), IntMatrix.from_rows([[-1]])}


def test_aut_p2_is_triangle_symmetry():
    group = automorphism_group(P2)
    assert group.order == 6
    assert identify_gl2_class(group) == "D6"
    found, p = reference_conjugator(group.matrices)
    assert found == "D6"
    assert set(_conjugate("D6", p)) == set(group.matrices)
    # the basis swap fixes the fan, the 3-cycle is visible as an order-3 element
    assert GEN_MIRROR_SWAP in group.matrices
    assert sorted(group.element_order(i) for i in range(6)) == [1, 2, 2, 2, 3, 3]


def test_aut_p1xp1_is_square_symmetry():
    group = automorphism_group(P1XP1)
    assert group.order == 8
    assert identify_gl2_class(group) == "D8"
    assert GEN_ROT4 in group.matrices
    assert GEN_MIRROR_SWAP in group.matrices
    assert GEN_MIRROR_DIAG in group.matrices


def test_aut_hexagon_is_full_dihedral():
    group = automorphism_group(HEXAGON)
    assert group.order == 12
    assert identify_gl2_class(group) == "D12"
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
    frame = _frame(fan)[0]
    frame_inv, den = _scaled_inverse(fan.cone_matrix(frame))
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
    assert group.ray_permutations == _ray_permutations(fan, group.matrices)


def boundary_word_ray_invariants(fan: Fan) -> dict[int, tuple]:
    """The finer pruning invariant, for reference: on a smooth complete
    surface fan each ray's boundary-word value, elsewhere its star."""
    if fan.rank == 2 and is_complete(fan) and is_smooth(fan):
        bw = boundary_word(fan)
        return {i: ("a", bw.word[bw.ccw_indices.index(i)]) for i in range(fan.num_rays)}
    return _ray_invariants(fan)


def test_star_pruning_finds_the_boundary_word_pruning_group(monkeypatch):
    """Per frame ray, the star candidates include the boundary-word
    candidates in the same order, and only orbit points give a leaf that
    passes the matrix test: so pruning by either finds the same elements,
    permutations and generators.  On every builtin, five unimodular images
    of each, the product fans, P^3 and P^4."""
    import toricforms.fan_aut as fan_aut

    rng = random.Random(39)
    fans = [named_fan(name) for name in BUILTIN_NAMES]
    fans += [
        Fan.make(2, [g.apply(r) for r in fan.rays], fan.max_cones)
        for fan in list(fans)
        for g in (random_unimodular(rng, 2) for _ in range(5))
    ]
    assert len(fans) == 84
    fans += [named_fan(name) for name in (*PRODUCT_FAN_NAMES, "projective:3", "projective:4")]
    finer = 0
    for fan in fans:
        star = automorphism_group(_fresh(fan))
        with monkeypatch.context() as patch:
            patch.setattr(fan_aut, "_ray_invariants", boundary_word_ray_invariants)
            word = automorphism_group(_fresh(fan))
        assert star.matrices == word.matrices
        assert star.ray_permutations == word.ray_permutations
        assert star.generators == word.generators
        word_values = set(boundary_word_ray_invariants(fan).values())
        finer += len(word_values) > len(set(_ray_invariants(fan).values()))
    assert finer == 84 - 3 * 6  # all but hexagon, D12 and D8, whose words are constant


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
    g_inv, den = rational_solve(smith_normal_form(g), IntMatrix.identity(g.nrows))
    assert den == 1
    assert set(group.matrices) == {g @ s @ g_inv for s in automorphism_group(base).matrices}


# ---------------------------------------------------------------------------
# the generator search against the reference that tests every element


def _is_group(perms: Sequence[tuple[int, ...]]) -> bool:
    """Is the set of permutations a group?  Certified by generating it.

    Generators are picked greedily, each one not yet reached by the earlier
    ones, and their closure is built breadth-first by products: an element
    reached before a generator joins needs only the product with it, a newly
    reached one the products with every generator.  Every product must lie
    in the set, and the closure, a group, must be the whole set.  That costs
    order x (number of generators) products.
    """
    members = set(perms)
    identity = tuple(range(len(perms[0])))
    if identity not in members:
        return False
    reached = {identity}
    gens: list[tuple[int, ...]] = []
    for p in perms:
        if p in reached:
            continue
        gens.append(p)
        frontier, step = list(reached), [p]
        while frontier:
            nxt = []
            for a in frontier:
                for g in step:
                    x = tuple(map(a.__getitem__, g))
                    if x not in reached:
                        if x not in members:
                            return False
                        reached.add(x)
                        nxt.append(x)
            frontier, step = nxt, gens
    return len(reached) == len(members)


def _incidence_frame_images(
    fan: Fan, frame: Sequence[int], invariants: dict[int, tuple]
) -> Iterator[tuple[int, ...]]:
    """Candidate images of the frame rays, pruned by invariants and cone
    incidence only: two rays share a maximal cone exactly when their images do."""
    near: list[set[int]] = [set() for _ in range(fan.num_rays)]
    for cone in fan.max_cones:
        for i in cone:
            near[i].update(cone)
    candidates = [[i for i in range(fan.num_rays) if invariants[i] == invariants[f]] for f in frame]
    images: list[int] = []

    def extend(k: int) -> Iterator[tuple[int, ...]]:
        if k == len(frame):
            yield tuple(images)
            return
        incident = [frame[l] in near[frame[k]] for l in range(k)]
        for c in candidates[k]:
            if c in images or any((images[l] in near[c]) != incident[l] for l in range(k)):
                continue
            images.append(c)
            yield from extend(k + 1)
            images.pop()

    return extend(0)


def reference_automorphism_group(fan: Fan) -> FanAutGroup:
    """Every frame image the incidence search yields gets the full matrix test.

    Each candidate matrix (images @ g) / den is kept only if it is integral,
    unimodular, maps the ray set onto itself and permutes the maximal cones,
    which also yields its ray permutation; the kept set must be a group.
    Every element counts as a generator.
    """
    validate_fan(fan)
    frame = _frame(fan)[0]
    frame_inv, den = _scaled_inverse(fan.cone_matrix(frame))
    ray_lookup = {r: i for i, r in enumerate(fan.rays)}
    cone_set = set(fan.max_cones)
    found = []
    for images in _incidence_frame_images(fan, frame, _ray_invariants(fan)):
        img_cols = IntMatrix.from_cols([fan.rays[i] for i in images], fan.rank)
        s = _divided(img_cols @ frame_inv, den)
        if s is None or abs(det(s)) != 1:
            continue
        perm = tuple(ray_lookup.get(s.apply(r)) for r in fan.rays)
        if None in perm:
            continue
        if all(tuple(sorted(perm[i] for i in c)) in cone_set for c in fan.max_cones):
            found.append((s, perm))
    found.sort(key=lambda pair: pair[0].rows)
    perms = tuple(perm for _, perm in found)
    assert _is_group(perms)
    return FanAutGroup(_key(fan), tuple(s for s, _ in found), perms, tuple(range(len(found))))


#: The search fans, plus the hyperoctahedral group of order 3840 and S_7.
REFERENCE_FAN_NAMES = SEARCH_FAN_NAMES + ["P1xP1xP1xP1xP1", "projective:6"]


def _generated(group: FanAutGroup) -> set[tuple[int, ...]]:
    """Ray permutations reached from the identity by products with the generators."""
    gens = [group.ray_permutations[g] for g in group.generators]
    reached = {group.ray_permutations[group.identity_index]}
    frontier = list(reached)
    while frontier:
        frontier = {tuple(map(a.__getitem__, g)) for a in frontier for g in gens} - reached
        reached |= frontier
    return reached


@pytest.mark.parametrize("fan_name", REFERENCE_FAN_NAMES)
def test_generator_search_matches_full_test_reference(fan_name):
    fan = named_fan(fan_name)
    group = automorphism_group(fan)
    reference = reference_automorphism_group(fan)
    assert group.matrices == reference.matrices
    assert group.ray_permutations == reference.ray_permutations
    assert _is_group(group.ray_permutations)
    # the generators generate the whole group, so conjugacy orbits under them are classes
    assert _generated(group) == set(group.ray_permutations)
    assert group.matrices[group.identity_index] == IntMatrix.identity(fan.rank)


def _matrix_tests(monkeypatch) -> list:
    """Records the candidate matrix of every leaf that reaches the matrix test
    (None when it is not integral)."""
    import toricforms.fan_aut as fan_aut

    tested = []

    def recording(m, den):
        tested.append(_divided(m, den))
        return tested[-1]

    monkeypatch.setattr(fan_aut, "_divided", recording)
    return tested


@pytest.mark.parametrize("fan_name", SEARCH_FAN_NAMES)
def test_only_generators_pass_the_matrix_test(fan_name, monkeypatch):
    """A leaf reaching the matrix test either becomes a generator or fails the
    test: no element reached by products is tested as a matrix."""
    tested = _matrix_tests(monkeypatch)
    group = automorphism_group(_fresh(named_fan(fan_name)))
    members = set(group.matrices)
    passed = [s for s in tested if s is not None and s in members]
    assert passed == [group.matrices[g] for g in group.generators]
    # each generator lies outside the group the earlier ones generate, so it
    # at least doubles that group (Lagrange)
    assert 2 ** len(group.generators) <= group.order


#: Complete, with ray relations that admit permutations no lattice map induces.
SKEW_FAN = Fan.make(2, [(-1, -1), (2, -3), (1, 1), (-2, 3)], [(0, 1), (1, 2), (2, 3), (0, 3)])


def test_leaves_failing_the_matrix_test_are_dropped(monkeypatch):
    """The ray relations of SKEW_FAN let through frame images that no lattice
    map induces; the matrix test drops them, and only generators pass it."""
    tested = _matrix_tests(monkeypatch)
    group = automorphism_group(_fresh(SKEW_FAN))
    reference = reference_automorphism_group(SKEW_FAN)
    assert group.matrices == reference.matrices
    assert group.ray_permutations == reference.ray_permutations
    assert group.order == 4
    failed = [s for s in tested if s is None or abs(det(s)) != 1]
    assert len(failed) == 2 and len(tested) == 2 + len(group.generators)


def _candidates(fan: Fan, frame: Sequence[int]) -> list[list[int]]:
    invariants = _ray_invariants(fan)
    return [[i for i in range(fan.num_rays) if invariants[i] == invariants[f]] for f in frame]


def test_ray_relations_leave_one_leaf_per_symmetry():
    """On P2 x P2 cone incidence leaves 360 frame images; the ray relations
    prune all but the 72 symmetries.  Below a prefix f_0..f_{k-1} the leaves
    are the symmetries fixing those frame rays."""
    fan = named_fan("P2xP2")
    frame, frame_inv, den = _frame(fan)
    assert sum(1 for _ in _incidence_frame_images(fan, frame, _ray_invariants(fan))) == 360
    leaves = _FrameImages(fan, frame, frame_inv, den, _candidates(fan, frame)).leaves
    perms = automorphism_group(fan).ray_permutations
    assert len(list(leaves(()))) == 72
    for k in range(len(frame) + 1):
        fixing = [p for p in perms if all(p[f] == f for f in frame[:k])]
        assert sorted(leaves(frame[:k])) == sorted(fixing)


def test_symmetry_budget_refuses_before_listing(monkeypatch):
    """Past the budget the search raises before it lists any element or
    builds any element's matrix.  No element matrix is a product: the run
    that lists all 384 elements makes exactly the matrix products of the
    refused one, those of validation and of the matrix tests."""
    import toricforms.fan_aut as fan_aut

    listed = []
    perm_matrices = fan_aut._perm_matrices
    monkeypatch.setattr(
        fan_aut, "_perm_matrices", lambda *args: listed.extend(args[-1]) or perm_matrices(*args)
    )
    products = []
    matmul = IntMatrix.__matmul__
    monkeypatch.setattr(IntMatrix, "__matmul__", lambda a, b: products.append(1) or matmul(a, b))
    monkeypatch.setattr(fan_aut, "MAX_AUT_ORDER", 384)
    # a fresh fan each time, so both runs validate it
    assert automorphism_group(named_fan("P1xP1xP1xP1")).order == 384
    assert len(listed) == 384
    built = len(products)
    listed.clear()
    products.clear()
    monkeypatch.setattr(fan_aut, "MAX_AUT_ORDER", 383)
    with pytest.raises(TooLarge, match="more than 383 symmetries"):
        automorphism_group(named_fan("P1xP1xP1xP1"))
    assert listed == []
    assert len(products) == built


def test_a_fan_keeps_its_group_and_its_classes(monkeypatch):
    """The search runs once per Fan object: a second call returns the same
    group without searching, and an equal fresh copy is searched anew.  The
    group walks its classes once per order d and keeps them."""
    import toricforms.fan_aut as fan_aut

    fan = _fresh(named_fan("P1xP1xP1"))
    group = automorphism_group(fan)
    frames = []
    monkeypatch.setattr(fan_aut, "_frame", lambda f: frames.append(f) or _frame(f))
    assert automorphism_group(fan) is group
    assert frames == []
    copy = _fresh(fan)
    assert automorphism_group(copy) is not group
    assert automorphism_group(copy) == group and frames == [copy]
    walks = []
    conjugacy_class = FanAutGroup.conjugacy_class
    monkeypatch.setattr(
        FanAutGroup, "conjugacy_class", lambda g, h: walks.append(h) or conjugacy_class(g, h)
    )
    for d in (2, 4, 2, 4):
        assert group.classes_dividing(d) == group.classes_dividing(d)
    assert len(walks) == len(group.classes_dividing(2)) + len(group.classes_dividing(4))


def test_a_fan_and_its_kept_group_are_freed_without_the_collector():
    """Nothing the fan keeps points back at it: with the cyclic garbage
    collector off, a fan, its group and its classification report are freed
    by reference counting once the caller drops them."""
    fan = _fresh(named_fan("P1xP1xP1"))
    fan_ref = weakref.ref(fan)
    gc.disable()
    try:
        report = classify_fan(fan, RealComplexBackend())
        group_ref = weakref.ref(automorphism_group(fan))
        assert report.entries and group_ref() is not None
        del fan, report
        assert fan_ref() is None
        assert group_ref() is None
    finally:
        gc.enable()


def test_the_symmetry_search_leaves_no_reference_cycle():
    """With the cyclic garbage collector off, neither the symmetry search nor
    a classification of a fresh (P^1)^4 leaves anything for it to collect:
    the frame search passes its backtracking state down instead of closing
    over itself."""
    base = named_fan("P1xP1xP1xP1")
    gc.collect()
    gc.disable()
    try:
        automorphism_group(_fresh(base))
        assert gc.collect() == 0
        classify_fan(_fresh(base), RealComplexBackend())
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# the stabilizer-chain search against the search with one leaf per element


def _all_frame_images(
    fan: Fan, frame: Sequence[int], frame_inv: IntMatrix, den: int, invariants: dict[int, tuple]
) -> Iterator[tuple[int, ...]]:
    """Every frame image that survives invariants, cone incidence and ray
    relations, with the ray permutation it forces: one leaf per symmetry,
    and the leaves the matrix test drops."""
    rays = fan.rays
    near: list[set[int]] = [set() for _ in range(fan.num_rays)]
    for cone in fan.max_cones:
        for i in cone:
            near[i].update(cone)
    candidates = [[i for i in range(fan.num_rays) if invariants[i] == invariants[f]] for f in frame]
    scaled_rays = {tuple(den * x for x in r): i for i, r in enumerate(rays)}
    # due[k]: (ray, frame slots of its support, coefficients) checked once slot k is set
    due: list[list[tuple[int, tuple[int, ...], tuple[int, ...]]]] = [[] for _ in frame]
    for i, r in enumerate(rays):
        if i not in frame:
            slots, coeffs = zip(*((j, c) for j, c in enumerate(frame_inv.apply(r)) if c))
            due[slots[-1]].append((i, slots, coeffs))
    images: list[int] = []
    perm = list(range(fan.num_rays))

    def extend(k: int) -> Iterator[tuple[int, ...]]:
        if k == len(frame):
            yield tuple(perm)
            return
        incident = [frame[l] in near[frame[k]] for l in range(k)]
        for c in candidates[k]:
            if c in images or any((images[l] in near[c]) != incident[l] for l in range(k)):
                continue
            images.append(c)
            perm[frame[k]] = c
            for i, slots, coeffs in due[k]:
                cols = zip(*(rays[images[j]] for j in slots))
                image = scaled_rays.get(
                    tuple(sum(a * b for a, b in zip(coeffs, col)) for col in cols)
                )
                if image is None:
                    break
                perm[i] = image
            else:
                yield from extend(k + 1)
            images.pop()

    return extend(0)


def _extend_closure(closure: dict, gens: Sequence[tuple[int, ...]]) -> None:
    """Close the group `closure` under the last of `gens` as well, breadth-first.

    An element reached before that generator joins needs only the product
    with it, a newly reached one the products with every generator.  A new
    element x is stored with (a, j) such that x = a * gens[j].
    """
    frontier, step = list(closure), [(len(gens) - 1, gens[-1])]
    while frontier:
        nxt = []
        for a in frontier:
            for j, g in step:
                x = tuple(map(a.__getitem__, g))
                if x not in closure:
                    closure[x] = (a, j)
                    nxt.append(x)
        frontier, step = nxt, list(enumerate(gens))


def leaf_per_element_automorphism_group(fan: Fan) -> FanAutGroup:
    """The search with one leaf per element, and its closure.

    A leaf whose permutation the group generated so far already holds is
    skipped; any other that passes the matrix test becomes a generator, and
    the group is closed under it by permutation products.  Every other
    element's matrix is the product of generator matrices along the closure,
    not read off its permutation.
    """
    validate_fan(fan)
    frame, frame_inv, den = _frame(fan)
    cone_set = set(fan.max_cones)
    closure: dict = {tuple(range(fan.num_rays)): None}
    gen_perms: list[tuple[int, ...]] = []
    gen_matrices: list[IntMatrix] = []
    for perm in _all_frame_images(fan, frame, frame_inv, den, _ray_invariants(fan)):
        if perm in closure:
            continue
        if len(set(perm)) < len(perm) or any(
            tuple(sorted(perm[i] for i in c)) not in cone_set for c in fan.max_cones
        ):
            continue
        img_cols = IntMatrix.from_cols([fan.rays[perm[f]] for f in frame], fan.rank)
        s = _divided(img_cols @ frame_inv, den)
        if s is None or abs(det(s)) != 1:
            continue
        gen_perms.append(perm)
        gen_matrices.append(s)
        _extend_closure(closure, gen_perms)
    matrices: dict = {}
    for perm, via in closure.items():  # in insertion order: via[0] comes first
        if via is None:
            matrices[perm] = IntMatrix.identity(fan.rank)
        else:
            matrices[perm] = matrices[via[0]] @ gen_matrices[via[1]]
    perms = sorted(closure, key=lambda p: matrices[p].rows)
    index = {p: i for i, p in enumerate(perms)}
    return FanAutGroup(
        _key(fan),
        tuple(matrices[p] for p in perms),
        tuple(perms),
        tuple(index[g] for g in gen_perms),
    )


def _basic_orbits(group: FanAutGroup) -> list[set[int]]:
    """Delta_k: the images of frame ray f_k under the elements fixing
    f_0..f_{k-1}, read off the listed group."""
    frame = _frame(Fan(*group.fan_key))[0]
    return [
        {p[f] for p in group.ray_permutations if all(p[g] == g for g in frame[:k])}
        for k, f in enumerate(frame)
    ]


#: Every builtin, every product fan of the high-rank benchmark, the fan whose
#: ray relations admit non-lattice permutations, and (P^1)^5.
CHAIN_FANS = {name: named_fan(name) for name in SEARCH_FAN_NAMES + ["P1xP1xP1xP1xP1"]}
CHAIN_FANS["skew"] = SKEW_FAN


@pytest.mark.parametrize("fan_name", CHAIN_FANS)
def test_stabilizer_chain_matches_leaf_per_element_search(fan_name):
    fan = CHAIN_FANS[fan_name]
    group = automorphism_group(fan)
    reference = leaf_per_element_automorphism_group(fan)
    assert group.matrices == reference.matrices
    assert group.ray_permutations == reference.ray_permutations
    # the listed elements number the product of the basic orbits
    assert group.order == math.prod(map(len, _basic_orbits(group)))


def test_stabilizer_chain_matrix_tests_bounded_by_candidates(monkeypatch):
    """(P^1)^5: the search reaches the matrix test at most as often as there
    are candidate images, summed over the frame rays, though it has 3840
    elements."""
    tested = _matrix_tests(monkeypatch)
    fan = product_fan((1, 1, 1, 1, 1))
    frame = _frame(fan)[0]
    assert automorphism_group(fan).order == 3840
    bound = sum(map(len, _candidates(fan, frame)))
    assert bound == 50
    assert len(tested) <= bound


def _assert_products_match(group: FanAutGroup, pairs) -> None:
    index = {m: i for i, m in enumerate(group.matrices)}
    for i, j in pairs:
        assert group.mult_index(i, j) == index[group.matrices[i] @ group.matrices[j]]


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
    assert identify_gl2_class(group) == "C1"


def test_single_blowup_of_p2():
    fan = surface_blowup(P2, (0, 1))
    group = automorphism_group(fan)
    # word (0,1,0,-1): one mirror symmetry survives
    assert group.order == 2
    labels = identify_gl2_class(group)
    assert labels in ("D2", "D2'")
    assert aut_via_sequence(fan) == group
