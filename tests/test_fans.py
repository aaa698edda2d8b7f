"""Fan validation, class groups, and boundary words: frozen examples."""

import itertools
import random
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricforms.classify import BUILTIN_NAMES, builtin_fan
from toricforms.exact_linalg import FGAbelianGroup, IntMatrix, _snf_memo_scope
from toricforms.fans import (
    BadFaceIntersection,
    DuplicateRay,
    Fan,
    FanError,
    FanFormatError,
    NonPrimitiveRay,
    NonSimplicialCone,
    NotSmoothComplete,
    RankUnsupported,
    RaysNotFullRank,
    RedundantCone,
    _check_face_intersection,
    _check_rays_and_cones,
    _wall_crossing_certificate,
    a_sequence,
    boundary_word,
    ccw_ray_order,
    class_group,
    cox_data,
    dihedral_variants,
    fan_from_boundary_word,
    is_complete_surface,
    is_smooth,
    primitive_vector,
    sequences_equivalent,
    surface_blowup,
    validate_fan,
)

P2 = Fan.make(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (0, 2), (1, 2)])
P1XP1 = Fan.make(2, [(1, 0), (0, 1), (-1, 0), (0, -1)], [(0, 1), (1, 2), (2, 3), (0, 3)])
HEXAGON = Fan.make(
    2,
    [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)],
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)],
)
P1 = Fan.make(1, [(1,), (-1,)], [(0,), (1,)])


def product_fan(dims: tuple[int, ...]) -> Fan:
    """P^dims[0] x P^dims[1] x ...: rays e_i and -(e_1 + ... + e_n) per factor."""
    rank = sum(dims)
    rays: list[tuple[int, ...]] = []
    factor_cones = []
    offset = 0
    for n in dims:
        first = len(rays)
        rays.extend(tuple(int(i == offset + j) for i in range(rank)) for j in range(n))
        rays.append(tuple(-int(offset <= i < offset + n) for i in range(rank)))
        factor_cones.append(
            [[first + k for k in range(n + 1) if k != skip] for skip in range(n + 1)]
        )
        offset += n
    cones = [sum(combo, []) for combo in itertools.product(*factor_cones)]
    return Fan.make(rank, rays, cones)


PRODUCT_FAN_NAMES = ("P1xP1xP1", "P1xP2", "P1xP1xP1xP1", "P2xP2", "P1xP3", "P1xP1xP2")


def named_fan(name: str) -> Fan:
    """A builtin fan, or a product of projective spaces named like P1xP2."""
    if name.startswith("P"):
        return product_fan(tuple(int(part) for part in name[1:].split("xP")))
    return builtin_fan(name)


@st.composite
def unimodular(draw, rank: int) -> IntMatrix:
    """A product of a signed permutation and a few elementary row operations."""
    order = draw(st.permutations(range(rank)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=rank, max_size=rank))
    rows = [[signs[i] * int(order[i] == j) for j in range(rank)] for i in range(rank)]
    if rank > 1:
        for _ in range(draw(st.integers(0, 4))):
            i, j = draw(st.lists(st.integers(0, rank - 1), min_size=2, max_size=2, unique=True))
            c = draw(st.integers(-2, 2))
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return IntMatrix.from_rows(rows)


def test_valid_fans_pass():
    for fan in (P2, P1XP1, HEXAGON, P1):
        validate_fan(fan)


def test_projective_space_rank3():
    fan = Fan.make(
        3,
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
        [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)],
    )
    validate_fan(fan)
    assert class_group(fan) == FGAbelianGroup.free(1)
    assert is_smooth(fan)


def test_validation_failures():
    with pytest.raises(NonPrimitiveRay):
        validate_fan(Fan.make(2, [(2, 0), (0, 1)], [(0, 1)]))
    with pytest.raises(NonPrimitiveRay):
        validate_fan(Fan.make(2, [(0, 0), (0, 1)], [(0, 1)]))
    with pytest.raises(DuplicateRay):
        validate_fan(Fan.make(2, [(1, 0), (1, 0)], [(0,), (1,)]))
    with pytest.raises(NonSimplicialCone):
        validate_fan(Fan.make(2, [(1, 0), (-1, 0)], [(0, 1)]))
    with pytest.raises(RaysNotFullRank):
        validate_fan(Fan.make(2, [(1, 0)], [(0,)]))
    with pytest.raises(RedundantCone):
        validate_fan(Fan.make(2, [(1, 0), (0, 1)], [(0,), (0, 1)]))
    with pytest.raises(RedundantCone, match=r"cone \(0, 1\) is listed more than once"):
        validate_fan(Fan.make(2, P2.rays, P2.max_cones + ((0, 1),)))
    with pytest.raises(RedundantCone):
        validate_fan(Fan(2, P2.rays, ((0, 1), (1, 2), (0, 2), (1, 0))))


def test_rays_not_full_rank_names_span():
    with pytest.raises(RaysNotFullRank) as err:
        validate_fan(Fan.make(3, [(1, 0, 0), (0, 1, 0), (1, 1, 0)], [(0, 1), (1, 2)]))
    assert "rank-2" in str(err.value)


def test_overlapping_cones_rank2():
    fan = Fan.make(2, [(1, 0), (0, 1), (1, 1)], [(0, 1), (0, 2)])
    with pytest.raises(BadFaceIntersection):
        validate_fan(fan)


def test_overlapping_cones_rank3():
    fan = Fan.make(
        3,
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)],
        [(0, 1, 2), (0, 1, 3)],
    )
    with pytest.raises(BadFaceIntersection):
        validate_fan(fan)


def test_rank3_proper_gluing_accepted():
    # two smooth cones glued along the e1-e2 face
    fan = Fan.make(
        3,
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, -1)],
        [(0, 1, 2), (0, 1, 3)],
    )
    validate_fan(fan)


def test_rank3_plane_crossing_detected():
    # second cone pokes through the interior of the first across a facet line
    fan = Fan.make(
        3,
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)],
        [(0, 1, 2), (2, 3)],
    )
    with pytest.raises(BadFaceIntersection):
        validate_fan(fan)


def test_rank4_warns_partial_check():
    p4 = Fan.make(
        4,
        [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (-1, -1, -1, -1)],
        [(0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 3, 4), (0, 2, 3, 4), (1, 2, 3, 4)],
    )
    # complete fans are proved by wall crossing, in any rank, without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        validate_fan(p4)
        validate_fan(product_fan((1, 1, 1, 1)))
    # a fan that is not complete still gets only the partial check
    with pytest.warns(UserWarning, match="rank 4 fan: face intersections"):
        validate_fan(Fan.make(4, p4.rays, p4.max_cones[1:]))


def test_class_groups_frozen():
    assert class_group(P2) == FGAbelianGroup.free(1)
    assert class_group(P1XP1) == FGAbelianGroup.free(2)
    assert class_group(HEXAGON) == FGAbelianGroup.free(4)
    assert class_group(P1) == FGAbelianGroup.free(1)
    torsion = Fan.make(2, [(1, 0), (-1, 2)], [(0, 1)])
    validate_fan(torsion)
    assert class_group(torsion) == FGAbelianGroup.cyclic(2)
    assert not is_smooth(torsion)


def test_cox_data_p2():
    cox = cox_data(P2)
    assert cox.degrees.torsion_rows.nrows == 0
    assert cox.degrees.free_rows.nrows == 1
    row = cox.degrees.free_rows.row(0)
    assert row in ((1, 1, 1), (-1, -1, -1))
    assert set(cox.irrelevant_complements) == {(2,), (1,), (0,)}
    assert sorted(cox.monomial_exponents()) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_cox_data_torsion_class_group():
    fan = Fan.make(2, [(1, 0), (-1, 2)], [(0, 1)])
    cox = cox_data(fan)
    assert cox.degrees.torsion_moduli == (2,)
    assert cox.degrees.free_rows.nrows == 0


def test_smooth_and_complete():
    assert is_smooth(P2) and is_complete_surface(P2)
    assert is_smooth(P1XP1) and is_complete_surface(P1XP1)
    assert is_smooth(HEXAGON) and is_complete_surface(HEXAGON)
    incomplete = Fan.make(2, [(1, 0), (0, 1)], [(0, 1)])
    assert is_smooth(incomplete) and not is_complete_surface(incomplete)
    with pytest.raises(RankUnsupported):
        is_complete_surface(P1)


def test_ccw_order():
    assert ccw_ray_order(P1XP1) == (0, 1, 2, 3)
    shuffled = Fan.make(2, [(0, -1), (1, 0), (-1, 0), (0, 1)], [(1, 3), (2, 3), (0, 2), (0, 1)])
    assert ccw_ray_order(shuffled) == (1, 3, 2, 0)


def test_boundary_words_frozen():
    assert a_sequence(P2) == (-1, -1, -1)
    assert a_sequence(P1XP1) == (0, 0, 0, 0)
    assert a_sequence(HEXAGON) == (1, 1, 1, 1, 1, 1)
    bw = boundary_word(P2)
    # starts at the lexicographically smallest ray, which is (-1, -1)
    assert bw.ccw_indices[0] == 2
    assert bw.value_at_ray(0) == -1


def test_boundary_word_requires_smooth_complete():
    with pytest.raises(NotSmoothComplete):
        a_sequence(Fan.make(2, [(1, 0), (0, 1)], [(0, 1)]))
    with pytest.raises(RankUnsupported):
        a_sequence(P1)
    singular = Fan.make(2, [(1, 0), (-1, 2), (0, -1), (-1, -1)], [(0, 1), (1, 3), (2, 3), (0, 2)])
    validate_fan(singular)
    with pytest.raises(NotSmoothComplete):
        a_sequence(singular)


def test_word_equivalence_helpers():
    assert sequences_equivalent((0, 1, 0, -1), (1, 0, -1, 0))
    assert sequences_equivalent((1, 2, 3), (3, 2, 1))
    assert not sequences_equivalent((1, 2, 3), (1, 3, 2, 0))
    assert not sequences_equivalent((0, 1, 2, 3), (0, 2, 1, 3))
    assert len(dihedral_variants((1, 1, 1))) == 1


def test_fan_from_boundary_word_roundtrip():
    fan = fan_from_boundary_word((-1, -1, -1))
    assert set(fan.rays) == set(P2.rays)
    fan2 = fan_from_boundary_word((0, 0, 0, 0))
    assert sequences_equivalent(a_sequence(fan2), (0, 0, 0, 0))
    with pytest.raises(FanError):
        fan_from_boundary_word((0, 0, 0))
    with pytest.raises(FanError):
        fan_from_boundary_word((5, 5, 5))


def test_blowup_surgery_matches_word_surgery():
    blown = surface_blowup(P2, (0, 1))
    validate_fan(blown)
    assert blown.rays[-1] == (1, 1)
    assert sequences_equivalent(a_sequence(blown), (0, 1, 0, -1))
    with pytest.raises(FanError):
        surface_blowup(P2, (0, 1, 2))


def test_blowup_iterated_gives_hexagon_word():
    fan = P2
    for cone in [(0, 1), (1, 2), (0, 2)]:
        fan = surface_blowup(fan, cone)
    validate_fan(fan)
    assert sequences_equivalent(a_sequence(fan), (1,) * 6)
    assert class_group(fan) == FGAbelianGroup.free(4)


def random_smooth_complete_fan(rng: random.Random, extra: int) -> Fan:
    fan = rng.choice([P2, P1XP1, HEXAGON])
    for _ in range(extra):
        fan = surface_blowup(fan, rng.choice(fan.max_cones))
    return fan


def test_word_sum_identity_random():
    rng = random.Random(20250825)
    for _ in range(25):
        fan = random_smooth_complete_fan(rng, rng.randrange(0, 5))
        validate_fan(fan)
        word = a_sequence(fan)
        m = fan.num_rays
        assert sum(word) == 3 * m - 12
        assert sequences_equivalent(a_sequence(fan_from_boundary_word(word)), word)


def test_json_roundtrip():
    for fan in (P2, P1XP1, HEXAGON, P1):
        text = fan.to_json()
        again = Fan.from_json(text)
        assert again == fan
        assert again.to_json() == text


def test_json_errors():
    with pytest.raises(FanFormatError):
        Fan.from_json("not json")
    with pytest.raises(FanFormatError):
        Fan.from_json('{"rank": 2, "rays": [[1, 0]]}')
    with pytest.raises(FanFormatError):
        Fan.from_json('{"rank": 0, "rays": [], "cones": []}')
    with pytest.raises(FanFormatError):
        Fan.from_json('{"rank": 2, "rays": [[1, 0, 0]], "cones": []}')
    with pytest.raises(FanFormatError):
        Fan.from_json('{"rank": 2, "rays": [[1, 0]], "cones": [["a"]]}')


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 6), st.integers(0, 2 ** 30))
def test_random_blowups_stay_valid(extra, seed):
    rng = random.Random(seed)
    fan = random_smooth_complete_fan(rng, extra)
    assert assert_routes_agree(fan) is None
    assert is_smooth(fan)
    assert is_complete_surface(fan)
    assert class_group(fan) == FGAbelianGroup.free(fan.num_rays - 2)
    for bad in corrupted_fans(fan, rng):
        assert_routes_agree(bad)


# ---------------------------------------------------------------------------
# the wall-crossing certificate against the pairwise face-intersection check

VALIDATION_FAN_NAMES = (
    list(BUILTIN_NAMES) + [f"projective:{n}" for n in range(1, 7)] + list(PRODUCT_FAN_NAMES)
)


def pairwise_validate(fan: Fan) -> None:
    """Reference route: the same ray and cone checks, then the pairwise
    face-intersection check on every two maximal cones (exact in rank <= 3)."""
    with _snf_memo_scope():
        _check_rays_and_cones(fan)
        for ca, cb in itertools.combinations(fan.max_cones, 2):
            _check_face_intersection(fan, ca, cb)


def _verdict(check, fan: Fan) -> type | None:
    try:
        check(fan)
    except FanError as exc:
        return type(exc)
    return None


def assert_routes_agree(fan: Fan) -> type | None:
    """validate_fan and the pairwise reference accept or reject the fan alike,
    with the same exception class; returns that class, None for accepted.

    The warning for fans that are not complete in rank >= 4 is ignored;
    every other warning fails the test.
    """
    expected = _verdict(pairwise_validate, fan)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.filterwarnings("ignore", message=r"rank \d+ fan: face intersections")
        assert _verdict(validate_fan, fan) is expected
    return expected


def _with_ray(fan: Fan, index: int, ray: tuple[int, ...]) -> Fan:
    rays = list(fan.rays)
    rays[index] = ray
    return Fan.make(fan.rank, rays, fan.max_cones)


def corrupted_fans(fan: Fan, rng: random.Random) -> list[Fan]:
    """One-step corruptions: two rays each moved to its negative and by a
    unit step, a cone dropped, a cone duplicated, and one ray of one cone
    replaced by its negative in that cone only."""
    n = fan.rank
    out = []
    for i in rng.sample(range(fan.num_rays), min(2, fan.num_rays)):
        ray = fan.rays[i]
        k = rng.randrange(n)
        stepped = tuple(x + rng.choice((1, -2)) * (j == k) for j, x in enumerate(ray))
        out.append(_with_ray(fan, i, tuple(-x for x in ray)))
        if any(stepped):
            out.append(_with_ray(fan, i, primitive_vector(stepped)))
    cone = rng.choice(fan.max_cones)
    others = [c for c in fan.max_cones if c != cone]
    out.append(Fan.make(n, fan.rays, others))
    out.append(Fan.make(n, fan.rays, fan.max_cones + (cone,)))
    k = rng.randrange(len(cone))
    negated = tuple(-x for x in fan.rays[cone[k]])
    rays = list(fan.rays) + [negated] * (negated not in fan.rays)
    flipped = cone[:k] + (rays.index(negated),) + cone[k + 1 :]
    out.append(Fan.make(n, rays, others + [flipped]))
    return out


@pytest.mark.parametrize("fan_name", VALIDATION_FAN_NAMES)
def test_certificate_proves_the_complete_fans(fan_name):
    fan = named_fan(fan_name)
    assert _wall_crossing_certificate(fan)
    assert assert_routes_agree(fan) is None
    assert not _wall_crossing_certificate(Fan.make(fan.rank, fan.rays, fan.max_cones[1:]))


@pytest.mark.parametrize("fan_name", VALIDATION_FAN_NAMES)
def test_routes_agree_on_corrupted_fans(fan_name):
    fan = named_fan(fan_name)
    verdicts = [assert_routes_agree(bad) for bad in corrupted_fans(fan, random.Random(fan_name))]
    assert RedundantCone in verdicts


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_routes_agree_on_transformed_fans(data):
    base = named_fan(data.draw(st.sampled_from(VALIDATION_FAN_NAMES)))
    g = data.draw(unimodular(base.rank))
    fan = Fan.make(base.rank, [g.apply(r) for r in base.rays], base.max_cones)
    assert assert_routes_agree(fan) is None
    if fan.rank <= 3:  # where the reference is exact
        for bad in corrupted_fans(fan, random.Random(data.draw(st.integers(0, 2**30)))):
            assert_routes_agree(bad)


def test_certificate_rejects_overlaps_that_pair_every_facet():
    # every facet lies in exactly two cones, but (0, 1) and (0, 2) both lie
    # above the wall spanned by ray 0: check (b)
    folded = Fan.make(2, [(1, 0), (0, 1), (1, 1)], [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(BadFaceIntersection, match="same side of their common facet"):
        validate_fan(folded)
    assert assert_routes_agree(folded) is BadFaceIntersection
    # a pentagram: the cones turn the same way at every wall but wind around
    # the origin twice, which only check (c) sees
    pentagram = Fan.make(
        2, [(1, 0), (1, 3), (-3, 2), (-3, -2), (1, -3)], [(k, (k + 2) % 5) for k in range(5)]
    )
    with pytest.raises(BadFaceIntersection, match="wind around the origin more than once"):
        validate_fan(pentagram)
    assert assert_routes_agree(pentagram) is BadFaceIntersection
