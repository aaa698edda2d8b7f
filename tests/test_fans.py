"""Fan validation, class groups, and boundary words: frozen examples."""

import itertools
import random
import re
import subprocess
import sys
import time
import warnings
from functools import cmp_to_key
from pathlib import Path
from typing import Sequence

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toricforms import exact_linalg, fans
from toricforms.classify import BUILTIN_NAMES, builtin_fan, classify_fan
from toricforms.cli import run
from toricforms.exact_linalg import (
    FGAbelianGroup,
    IntMatrix,
    fraction_free_solve,
    kernel_basis,
    saturation_basis,
    smith_normal_form,
)
from toricforms.fan_aut import automorphism_group
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
    TooLarge,
    UnusedRay,
    _check_face_intersection,
    _check_rays_and_cones,
    _cone_coords,
    _wall_crossing_certificate,
    a_sequence,
    boundary_word,
    class_group,
    cox_data,
    degree_data,
    fan_from_boundary_word,
    is_complete,
    is_smooth,
    primitive_vector,
    surface_blowup,
    validate_fan,
)
from toricforms.galois import FiniteFieldBackend, RealComplexBackend

from test_preconditions import expected_lines, optimized_section

def dihedral_variants(word: Sequence[int]) -> set[tuple[int, ...]]:
    """All rotations of the word and of its reversal."""
    w = tuple(word)
    out = set()
    for k in range(len(w)):
        out.add(w[k:] + w[:k])
    r = w[::-1]
    for k in range(len(w)):
        out.add(r[k:] + r[:k])
    return out


def sequences_equivalent(w1: Sequence[int], w2: Sequence[int]) -> bool:
    return tuple(w2) in dihedral_variants(w1)



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


def random_unimodular(rng: random.Random, rank: int) -> IntMatrix:
    """`unimodular`, drawn from a seeded generator instead."""
    order = rng.sample(range(rank), rank)
    rows = [[rng.choice((1, -1)) * int(order[i] == j) for j in range(rank)] for i in range(rank)]
    for _ in range(rng.randint(0, 4) if rank > 1 else 0):
        i, j = rng.sample(range(rank), 2)
        c = rng.randint(-2, 2)
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


@pytest.mark.parametrize("cones", [[], [()]])
def test_fan_without_rays_is_not_full_rank(cones):
    """No rays span the zero sublattice; the symmetry search, which frames
    the lattice by rays, never sees such a fan."""
    with pytest.raises(RaysNotFullRank, match="no rays"):
        validate_fan(Fan.make(1, [], cones))


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


def test_rank4_incomplete_fan_validates_without_warning():
    """Complete or not, a fan of any rank gets an exact verdict, and no
    warning: P^4 and (P^1)^4 by the certificate, P^4 minus a cone pair by
    pair."""
    p4 = Fan.make(
        4,
        [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (-1, -1, -1, -1)],
        [(0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 3, 4), (0, 2, 3, 4), (1, 2, 3, 4)],
    )
    incomplete = Fan.make(4, p4.rays, p4.max_cones[1:])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        validate_fan(p4)
        validate_fan(product_fan((1, 1, 1, 1)))
        validate_fan(incomplete)
        assert not is_complete(incomplete)


#: The two rank-3 cones that overlap along (2, -3, 3), lifted by a shared
#: ray e_4.  The fan is not complete, so only the pairwise check sees it.
OVERLAP_RANK4 = Fan.make(
    4,
    [(0, 2, 1, 0), (-2, -1, 1, 0), (2, -1, 1, 0), (0, -2, 1, 0), (-2, 1, 1, 0), (2, 1, 1, 0), (0, 0, 0, 1)],
    [(0, 1, 2, 6), (3, 4, 5, 6)],
)


def test_rank4_overlap_is_rejected():
    with pytest.raises(BadFaceIntersection) as err:
        validate_fan(OVERLAP_RANK4)
    assert str(err.value) == (
        "cones (0, 1, 2, 6) and (3, 4, 5, 6) overlap beyond their common face:"
        " direction (-4, 0, 3, 0) lies in both but not in the face spanned by (6,)"
    )
    # the witness lies in both cones and off their common face
    for cone in OVERLAP_RANK4.max_cones:
        coords = _cone_coords(OVERLAP_RANK4, cone, (-4, 0, 3, 0))
        assert coords is not None and any(coords[:3])


def test_rank4_overlap_fails_fan_validate_under_optimized_mode(tmp_path, capsys):
    path = tmp_path / "overlap.json"
    path.write_text(OVERLAP_RANK4.to_json())
    argv = ["fan", "validate", "--file", str(path)]
    assert run(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: cones (0, 1, 2, 6) and (3, 4, 5, 6) overlap beyond their common face")
    script = "import sys\nfrom toricforms.cli import run\nsys.exit(run(sys.argv[1:]))\n"
    child = subprocess.run(
        [sys.executable, "-O", "-c", script, *argv],
        capture_output=True,
        text=True,
        timeout=60,
        env={"PYTHONPATH": str(Path(fans.__file__).resolve().parents[1])},
    )
    assert (child.returncode, child.stdout, child.stderr) == (1, "", err)


def _disjoint_cones(rank: int) -> Fan:
    """cone(e_1, ..., e_n) and cone(-e_1, ..., -e_n): a fan, not complete."""
    unit = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    rays = unit + [tuple(-x for x in e) for e in unit]
    return Fan.make(rank, rays, [range(rank), range(rank, 2 * rank)])


def test_face_check_budget(tmp_path, capsys):
    """Two rank-10 cones with no shared ray would take 184,756 determinants:
    the count alone refuses them, with exit 1 on the command line.  Two
    rank-8 cones, 12,870 determinants, are within the budget."""
    fan = _disjoint_cones(10)
    path = tmp_path / "disjoint.json"
    path.write_text(fan.to_json())
    start = time.perf_counter()
    with pytest.raises(TooLarge, match=r"would take 184756 determinants, more than 20000$"):
        validate_fan(fan)
    assert run(["fan", "validate", "--file", str(path)]) == 1
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: the fan is not complete")
    assert not is_complete(_disjoint_cones(8))


def test_validation_checks_ray_entries_once(monkeypatch):
    """A bare Fan's ray entries are checked once, by validation, and every
    cone matrix and the ray matrix are then built from them unchecked; the
    Smith form checks nothing again, since an IntMatrix's entries are
    checked when it is built."""
    p20 = builtin_fan("projective:20")
    names = []
    check = fans._check_int_entries

    def counting(vectors, name):
        names.append(name)
        check(vectors, name)

    monkeypatch.setattr(fans, "_check_int_entries", counting)
    monkeypatch.setattr(exact_linalg, "_check_int_entries", counting)
    validate_fan(Fan(20, p20.rays, p20.max_cones))
    assert names == ["rays"]


def test_fan_size_budget(monkeypatch, capsys):
    """rank x (rays + cones)^2 above MAX_FAN_SIZE refuses a fan before any
    elimination; P^2 has 2 x 6^2 = 72, and projective:60 (893,040) is
    admitted.  `fan validate --builtin projective:1000` exits 1 in under
    1 s, also under python -O."""

    def untouchable(*_args, **_kwargs):
        raise AssertionError("the size budget must refuse before any elimination")

    assert fans.MAX_FAN_SIZE >= 60 * 122**2
    with monkeypatch.context() as patch:
        patch.setattr(fans, "MAX_FAN_SIZE", 72)
        validate_fan(Fan.make(2, P2.rays, P2.max_cones))
        patch.setattr(fans, "MAX_FAN_SIZE", 71)
        patch.setattr(fans, "fraction_free_solve", untouchable)
        patch.setattr(fans, "smith_normal_form", untouchable)
        with pytest.raises(TooLarge, match=r"^the fan has 3 rays and 3 maximal cones in rank 2:"
                           r" rank x \(rays \+ cones\)\^2 is 72, more than 71$"):
            validate_fan(Fan.make(2, P2.rays, P2.max_cones))
    argv = ["fan", "validate", "--builtin", "projective:1000"]
    err = (
        "error: the fan has 1001 rays and 1001 maximal cones in rank 1000:"
        " rank x (rays + cones)^2 is 4008004000, more than 1000000\n"
    )
    start = time.perf_counter()
    assert run(argv) == 1
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr() == ("", err)
    script = (
        "import sys, time\nfrom toricforms.cli import run\n"
        "start = time.perf_counter()\ncode = run(sys.argv[1:])\n"
        "print(code, time.perf_counter() - start < 1.0)\n"
    )
    child = subprocess.run(
        [sys.executable, "-O", "-c", script, *argv],
        capture_output=True,
        text=True,
        timeout=60,
        env={"PYTHONPATH": str(Path(fans.__file__).resolve().parents[1])},
    )
    assert (child.stdout, child.stderr) == ("1 True\n", err)


def test_class_groups_frozen():
    assert class_group(P2) == FGAbelianGroup.free(1)
    assert class_group(P1XP1) == FGAbelianGroup.free(2)
    assert class_group(HEXAGON) == FGAbelianGroup.free(4)
    assert class_group(P1) == FGAbelianGroup.free(1)
    torsion = Fan.make(2, [(1, 0), (-1, 2)], [(0, 1)])
    validate_fan(torsion)
    assert class_group(torsion) == FGAbelianGroup.cyclic(2)
    assert not is_smooth(torsion)


def test_validation_runs_once_per_fan_object(monkeypatch):
    """The verdict is a fact the Fan keeps: a second read of any invariant
    runs neither the ray and cone checks nor the eliminations of validation
    (one den per cone, one membership solve per cone but the first, one
    full-rank elimination of the rays), and a bad fan raises its FanError on
    every read."""
    counts = {"checks": 0, "solves": 0}

    def counted(name, func):
        def wrapper(*args):
            counts[name] += 1
            return func(*args)
        return wrapper

    monkeypatch.setattr(fans, "_check_rays_and_cones", counted("checks", fans._check_rays_and_cones))
    monkeypatch.setattr(fans, "fraction_free_solve", counted("solves", fans.fraction_free_solve))
    fan = Fan.make(2, HEXAGON.rays, HEXAGON.max_cones)  # a fresh object
    reads = (validate_fan, automorphism_group, class_group, is_complete, is_smooth, cox_data)
    for read in reads:
        read(fan)
    assert counts == {"checks": 1, "solves": 6 + 5 + 1}
    for read in reads + (boundary_word,):
        read(fan)
    assert counts == {"checks": 1, "solves": 6 + 5 + 1}
    bad = Fan.make(2, [(1, 0), (2, 0)], [(0,), (1,)])
    for read in reads + (degree_data, boundary_word):
        with pytest.raises(NonPrimitiveRay, match=r"^ray 1 = \(2, 0\) is not primitive$"):
            read(bad)
    assert counts["checks"] == 2



def test_validation_and_classification_take_no_smith_form(monkeypatch):
    """The full-rank check is an elimination: on fresh copies of the
    builtins, the product fans and P^3, P^4, validation, the symmetry search
    and `classify_fan` over C/R and F_4 answer with the Smith form patched
    to raise."""
    names = (*BUILTIN_NAMES, *PRODUCT_FAN_NAMES, "projective:3", "projective:4")
    bases = [named_fan(name) for name in names]  # builtins are built before the patch

    def refuse(m):
        raise AssertionError("a Smith form")

    monkeypatch.setattr(exact_linalg, "smith_normal_form", refuse)
    monkeypatch.setattr(fans, "smith_normal_form", refuse)
    for base in bases:
        fan = Fan.make(base.rank, base.rays, base.max_cones)
        validate_fan(fan)
        assert automorphism_group(fan).order == automorphism_group(base).order
        for backend in (RealComplexBackend(), FiniteFieldBackend(2, 2)):
            assert classify_fan(fan, backend).total == classify_fan(base, backend).total


def test_invariants_refuse_invalid_fans_under_optimized_mode():
    """No invariant answers on a non-fan, and Fan.make converts nothing, under python -O too."""
    assert optimized_section("fans") == expected_lines("fans")


def _monomial_exponents(cox) -> list[tuple[int, ...]]:
    """Exponent vector of each irrelevant-ideal generator, one entry per ray."""
    return [
        tuple(int(i in comp) for i in range(cox.fan.num_rays))
        for comp in cox.irrelevant_complements
    ]


def test_cox_data_p2():
    cox = cox_data(P2)
    assert cox.degrees.torsion_rows.nrows == 0
    assert cox.degrees.free_rows.nrows == 1
    row = cox.degrees.free_rows.row(0)
    assert row in ((1, 1, 1), (-1, -1, -1))
    assert set(cox.irrelevant_complements) == {(2,), (1,), (0,)}
    assert sorted(_monomial_exponents(cox)) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_cox_data_torsion_class_group():
    fan = Fan.make(2, [(1, 0), (-1, 2)], [(0, 1)])
    cox = cox_data(fan)
    assert cox.degrees.torsion_moduli == (2,)
    assert cox.degrees.free_rows.nrows == 0


@pytest.mark.parametrize(
    "name",
    list(BUILTIN_NAMES) + [f"projective:{n}" for n in range(1, 5)] + list(PRODUCT_FAN_NAMES),
)
def test_irrelevant_ideal_of_maximal_cones_is_that_of_all_faces(name):
    """Reference for `cox_data` listing maximal cones only: the monomial of
    every face of every cone is a multiple of a maximal-cone monomial.  The
    2^rank faces per cone are enumerated, so only fans of rank <= 4."""
    fan = named_fan(name)
    assert fan.rank <= 4
    validate_fan(fan)
    comps = [set(c) for c in cox_data(fan).irrelevant_complements]
    for cone in fan.max_cones:
        for mask in range(1 << len(cone)):
            face = {i for k, i in enumerate(cone) if mask >> k & 1}
            assert any(c <= set(range(fan.num_rays)) - face for c in comps), (name, face)


def test_cone_is_factored_only_after_its_index_checks():
    """Each cone's den is computed on its first use, so an out-of-range
    index in a later cone stays a FanError, not an IndexError, also on a
    fan that has eliminated its earlier cones already."""
    fan = Fan(2, ((1, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2), (2, 7)))
    assert fan.cone_den((0, 1)) == 1
    assert fan.cone_den((1, 2)) == 1  # det [0 -1; 1 -1]
    with pytest.raises(FanError, match=r"^cone \(2, 7\) references missing ray 7$") as info:
        validate_fan(fan)
    assert type(info.value) is FanError


def test_smooth_and_complete():
    assert is_smooth(P2) and is_complete(P2)
    assert is_smooth(P1XP1) and is_complete(P1XP1)
    assert is_smooth(HEXAGON) and is_complete(HEXAGON)
    incomplete = Fan.make(2, [(1, 0), (0, 1)], [(0, 1)])
    assert is_smooth(incomplete) and not is_complete(incomplete)
    assert is_complete(P1) is True
    # every rank: the certificate's verdict
    p3 = named_fan("projective:3")
    assert is_complete(p3) and is_complete(named_fan("P1xP1xP1"))
    assert not is_complete(Fan.make(3, p3.rays, p3.max_cones[1:]))
    # the cones cover the plane, but (1, 1) spans none of them: not a fan
    with pytest.raises(UnusedRay, match=r"^ray 3 = \(1, 1\) lies in no maximal cone$"):
        is_complete(Fan.make(2, P2.rays + ((1, 1),), P2.max_cones))


def smith_route_is_smooth(fan: Fan) -> bool:
    """The test `is_smooth` replaced, kept as its reference: every maximal
    cone's Smith diagonal is all ones."""
    return all(
        all(x == 1 for x in smith_normal_form(fan.cone_matrix(c)).diagonal) for c in fan.max_cones
    )


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_is_smooth_matches_the_smith_route(data):
    """A random cone of k <= rank independent rays, beside one ray cone per
    further column that makes the rays span: `is_smooth`, which divides the
    cone mod its den, against the Smith diagonal."""
    rank = data.draw(st.integers(2, 5))
    k = data.draw(st.integers(1, rank))
    cols = data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=rank, max_size=rank),
                              min_size=rank, max_size=rank))
    square = IntMatrix.from_cols(cols, rank)
    assume(fraction_free_solve(square)[0] != 0)
    rays = [primitive_vector(col) for col in cols]
    fan = Fan.make(rank, rays, [tuple(range(k))] + [(j,) for j in range(k, rank)])
    assert is_smooth(fan) == smith_route_is_smooth(fan)


def test_is_smooth_and_from_factors_take_no_smith_form(monkeypatch):
    """On validated fans, `is_smooth` and `FGAbelianGroup.from_factors`
    answer with the Smith form patched to raise."""
    low = Fan.make(3, [(1, 0, 0), (1, 2, 0), (0, 0, 1), (-1, -1, -1)], [(0, 1), (2, 3)])
    cases = [named_fan(name) for name in (*BUILTIN_NAMES, "projective:3", "P1xP2")] + [low]
    for fan in cases:
        validate_fan(fan)
    want = [smith_route_is_smooth(fan) for fan in cases]

    def refuse(m):
        raise AssertionError("a Smith form")

    monkeypatch.setattr(exact_linalg, "smith_normal_form", refuse)
    monkeypatch.setattr(fans, "smith_normal_form", refuse)
    assert [is_smooth(fan) for fan in cases] == want == [True] * (len(cases) - 1) + [False]
    assert FGAbelianGroup.from_factors([4, 6, 0, 1, 9]) == FGAbelianGroup(1, (6, 36))


def test_ccw_order():
    assert ccw_ray_order(P1XP1) == (0, 1, 2, 3)
    shuffled = Fan.make(2, [(0, -1), (1, 0), (-1, 0), (0, 1)], [(1, 3), (2, 3), (0, 2), (0, 1)])
    assert ccw_ray_order(shuffled) == (1, 3, 2, 0)
    # the walk starts at the lexicographically smallest ray, (-1, 0)
    assert boundary_word(shuffled).ccw_indices == (2, 0, 1, 3)


def test_boundary_words_frozen():
    assert a_sequence(P2) == (-1, -1, -1)
    assert a_sequence(P1XP1) == (0, 0, 0, 0)
    assert a_sequence(HEXAGON) == (1, 1, 1, 1, 1, 1)
    bw = boundary_word(P2)
    # starts at the lexicographically smallest ray, which is (-1, -1)
    assert bw.ccw_indices[0] == 2
    assert bw.word[bw.ccw_indices.index(0)] == -1


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


def test_fan_from_boundary_word_rejects_double_winding():
    # the six rays close up after turning twice around the origin
    with pytest.raises(BadFaceIntersection, match="wind around the origin more than once"):
        fan_from_boundary_word((-2, -2, -1, -2, 1, 0))


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
    # JSON booleans are not integers, wherever an integer is wanted
    for text, bad in (
        ('{"rank": true, "rays": [[true], [-1]], "cones": [[0], [1]]}', "rank"),
        ('{"rank": 1, "rays": [[true], [-1]], "cones": [[0], [1]]}', "rays"),
        ('{"rank": 1, "rays": [[1], [-1]], "cones": [[false], [1]]}', "cones"),
    ):
        with pytest.raises(FanFormatError, match=f"^{bad} must be"):
            Fan.from_json(text)


# ---------------------------------------------------------------------------
# the pairwise check that `_check_face_intersection` replaced, kept as its
# reference: exact in rank <= 3, only on the cones' rays above


def _span_planes(fan: Fan, cone: tuple[int, ...]) -> list[list[tuple[int, ...]]]:
    """Codimension-one face spans of a simplicial cone, as ray-generator lists."""
    if len(cone) >= 2:
        if len(cone) == 2:
            return [[fan.rays[cone[0]], fan.rays[cone[1]]]]
        return [
            [fan.rays[i] for i in cone[:k] + cone[k + 1 :]]
            for k in range(len(cone))
        ]
    return []


def _cross3(a: Sequence[int], b: Sequence[int]) -> tuple[int, int, int]:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _line_intersection(p1: list[tuple[int, ...]], p2: list[tuple[int, ...]]) -> tuple[int, ...] | None:
    """Primitive generator of span(p1) & span(p2) for two planes in rank 3,
    up to sign; None when the planes coincide.

    Each plane is spanned by two independent rays, so its normal is their
    cross product, and the planes meet along the cross product of normals.
    """
    line = _cross3(_cross3(*p1), _cross3(*p2))
    if not any(line):
        return None
    return primitive_vector(line)


def reference_face_intersection(fan: Fan, ca: tuple[int, ...], cb: tuple[int, ...]) -> None:
    """Check that cone(ca) & cone(cb) equals the common face cone(ca&cb).

    Enumerates candidate extreme rays of the intersection: generators of one
    cone lying in the other, plus (in rank 3) primitive generators of
    pairwise intersections of facet planes.  That is exact for rank <= 3; in
    higher rank only the generators are tested.  Every candidate lies in
    cone(ca), so it lies in the common face exactly when its coordinates in
    the rays of ca vanish off the shared rays.
    """
    shared = tuple(sorted(set(ca) & set(cb)))

    def check(cand: tuple[int, ...], coords: Sequence[int]) -> None:
        if any(t for t, i in zip(coords, ca) if i not in shared):
            raise BadFaceIntersection(
                f"cones {ca} and {cb} overlap beyond their common face: "
                f"direction {cand} lies in both but not in the face spanned by {shared}"
            )

    for i in ca:
        if _cone_coords(fan, cb, fan.rays[i]) is not None:
            check(fan.rays[i], [int(j == i) for j in ca])
    for i in cb:
        coords = _cone_coords(fan, ca, fan.rays[i])
        if coords is not None:
            check(fan.rays[i], coords)
    if fan.rank == 3:
        for p1 in _span_planes(fan, ca):
            for p2 in _span_planes(fan, cb):
                g = _line_intersection(p1, p2)
                if g is None:
                    continue
                for cand in (g, tuple(-x for x in g)):
                    coords = _cone_coords(fan, ca, cand)
                    if coords is not None and _cone_coords(fan, cb, cand) is not None:
                        check(cand, coords)


def _line_intersection_by_kernel(p1, p2):
    """The route `_line_intersection` replaced, kept as its reference: the
    meet of the spans from the kernel of [m1 | -m2], then saturated."""
    m1 = IntMatrix.from_cols(p1, 3)
    m2 = IntMatrix.from_cols(p2, 3)
    k = kernel_basis(m1.hstack(-m2))
    meet = m1 @ IntMatrix(tuple(k.rows[: m1.ncols]), k.ncols)
    sat = saturation_basis(smith_normal_form(meet))
    if sat.ncols != 1:
        return None
    return primitive_vector(sat.col(0))


_PLANE = st.lists(st.tuples(*[st.integers(-4, 4)] * 3), min_size=2, max_size=2).filter(
    lambda pair: smith_normal_form(IntMatrix.from_cols(pair, 3)).rank == 2
)


@settings(max_examples=300, deadline=None)
@given(_PLANE, _PLANE, st.integers(-2, 2), st.booleans())
def test_line_intersection_matches_kernel_route(p1, p2, k, same_plane):
    if same_plane:  # p1's plane, spanned by other vectors
        p2 = [tuple(a + k * b for a, b in zip(*p1)), p1[1]]
    got = _line_intersection(p1, p2)
    want = _line_intersection_by_kernel(p1, p2)
    if want is None:
        assert got is None
    else:
        assert got in (want, tuple(-x for x in want))
    if same_plane:
        assert got is None


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 6), st.integers(0, 2 ** 30))
def test_random_blowups_stay_valid(extra, seed):
    rng = random.Random(seed)
    fan = random_smooth_complete_fan(rng, extra)
    assert assert_routes_agree(fan) is None
    assert is_smooth(fan)
    assert is_complete(fan)
    assert class_group(fan) == FGAbelianGroup.free(fan.num_rays - 2)
    for bad in corrupted_fans(fan, rng):
        assert_routes_agree(bad)


# ---------------------------------------------------------------------------
# the wall-crossing certificate against the pairwise face-intersection check

VALIDATION_FAN_NAMES = (
    list(BUILTIN_NAMES) + [f"projective:{n}" for n in range(1, 7)] + list(PRODUCT_FAN_NAMES)
)


def pairwise_validate(fan: Fan, check=_check_face_intersection) -> None:
    """Reference route: the same ray and cone checks, then a pairwise
    face-intersection check on every two maximal cones, with no budget:
    by default the library's, exact in every rank."""
    _check_rays_and_cones(fan)
    for ca, cb in itertools.combinations(fan.max_cones, 2):
        check(fan, ca, cb)


def reference_validate(fan: Fan) -> None:
    """`pairwise_validate` with the old pairwise check, exact in rank <= 3."""
    pairwise_validate(fan, reference_face_intersection)


def _verdict(check, fan: Fan) -> type | None:
    try:
        check(fan)
    except FanError as exc:
        return type(exc)
    return None


# ---------------------------------------------------------------------------
# the angular references for completeness and the counterclockwise walk


def _half(v: tuple[int, ...]) -> int:
    x, y = v
    return 0 if (y > 0 or (y == 0 and x > 0)) else 1


def _angle_cmp(u: tuple[int, ...], v: tuple[int, ...]) -> int:
    """Exact counterclockwise comparison from the positive x-axis."""
    hu, hv = _half(u), _half(v)
    if hu != hv:
        return -1 if hu < hv else 1
    c = u[0] * v[1] - u[1] * v[0]
    assert c != 0 or u == v, f"parallel distinct rays {u}, {v} in one half-plane"
    return 0 if c == 0 else (-1 if c > 0 else 1)


def ccw_ray_order(fan: Fan) -> tuple[int, ...]:
    """Reference: ray indices sorted by angle from the positive x-axis."""
    assert fan.rank == 2
    return tuple(
        sorted(range(fan.num_rays), key=cmp_to_key(lambda i, j: _angle_cmp(fan.rays[i], fan.rays[j])))
    )


def is_complete_reference(fan: Fan) -> bool:
    """Reference completeness for rank <= 2.  Rank 1: the rays are +-1 and
    each spans a cone.  Rank 2: consecutive rays in angular order span
    exactly the maximal cones."""
    if fan.rank == 1:
        return set(fan.rays) == {(1,), (-1,)} and {(0,), (1,)} <= set(fan.max_cones)
    m = fan.num_rays
    if m < 3:
        return False
    order = ccw_ray_order(fan)
    wanted = {tuple(sorted((order[k], order[(k + 1) % m]))) for k in range(m)}
    return wanted == set(fan.max_cones)


def assert_matches_angular_reference(fan: Fan) -> None:
    """On a valid fan of rank <= 2, is_complete agrees with the angular
    reference, and on a smooth complete surface the boundary word's walk is
    the angular order rotated to start at the lexicographically smallest ray."""
    complete = is_complete(fan)
    assert complete is is_complete_reference(fan)
    if fan.rank == 2 and complete and is_smooth(fan):
        order = ccw_ray_order(fan)
        start = order.index(min(range(fan.num_rays), key=fan.rays.__getitem__))
        assert boundary_word(fan).ccw_indices == order[start:] + order[:start]


def assert_routes_agree(fan: Fan, old_check: bool = True) -> type | None:
    """validate_fan and the pairwise reference accept or reject the fan alike,
    with the same exception class, and so does the old pairwise check in
    rank <= 3, where it is exact, unless old_check is False; returns that
    class, None for accepted.  An accepted fan of rank <= 2 is also held to
    the angular references.  Any warning fails the test.
    """
    expected = _verdict(pairwise_validate, fan)
    if old_check and fan.rank <= 3:
        assert _verdict(reference_validate, fan) is expected
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _verdict(validate_fan, fan) is expected
    if expected is None and fan.rank <= 2:
        assert_matches_angular_reference(fan)
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
    # the corrupted-fan suites hold the old check to the new one; here it
    # would double the time
    for bad in corrupted_fans(fan, random.Random(data.draw(st.integers(0, 2**30)))):
        assert_routes_agree(bad, old_check=False)


def lifted(fan: Fan) -> Fan:
    """The fan times a ray: 0 appended to every ray, the ray e_{n+1} added,
    and e_{n+1} put in every cone.  Two cones overlap beyond their common
    face exactly when their lifts do, and no lift is complete."""
    rays = [r + (0,) for r in fan.rays] + [(0,) * fan.rank + (1,)]
    return Fan.make(fan.rank + 1, rays, [c + (fan.num_rays,) for c in fan.max_cones])


def test_lifted_rank3_verdicts_hold_in_rank4():
    """Every rank-3 fan of the corrupted-fan suites (five seeds) that the old
    pairwise check rejects with BadFaceIntersection is still rejected after
    the lift to rank 4, where only the pairwise check can see it; every
    valid one stays valid."""
    fans3 = []
    for name in VALIDATION_FAN_NAMES:
        fan = named_fan(name)
        if fan.rank == 3:
            fans3.append(fan)
            for seed in range(5):
                fans3 += corrupted_fans(fan, random.Random(f"{name}{seed}"))
    verdicts = [_verdict(reference_validate, f) for f in fans3]
    assert verdicts.count(BadFaceIntersection) >= 20
    for f, verdict in zip(fans3, verdicts):
        if verdict is BadFaceIntersection:
            with pytest.raises(BadFaceIntersection):
                validate_fan(lifted(f))
        elif verdict is None:
            assert not is_complete(lifted(f))


def _assert_witness(fan: Fan, err: BadFaceIntersection, ca: tuple[int, ...], cb: tuple[int, ...]) -> None:
    """The direction the error names lies in both cones, off their common face."""
    found = re.search(r"direction \(([-\d, ]+?),?\) lies in both", str(err))
    v = tuple(int(t) for t in found.group(1).split(","))
    coords = _cone_coords(fan, ca, v)
    assert coords is not None and _cone_coords(fan, cb, v) is not None
    assert any(t for t, i in zip(coords, ca) if i not in cb)


def test_pairwise_check_matches_old_check_on_random_cones():
    """Random pairs of cones of 1 to rank rays, in ranks 2 and 3 where the old
    check is exact: the same verdict, and every witness lies in both cones.
    Pairs where neither cone has rank rays take the unit columns."""
    rng = random.Random(11)
    seen = {None: 0, BadFaceIntersection: 0}
    while min(seen.values()) < 150:
        n = rng.choice((2, 3))
        rays = sorted({primitive_vector(v) for v in (
            tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(2 * n)) if any(v)})
        ca, cb = (tuple(sorted(rng.sample(range(len(rays)), rng.randint(1, min(n, len(rays))))))
                  for _ in range(2))
        fan = Fan.make(n, rays, [ca, cb])
        if set(ca) <= set(cb) or set(cb) <= set(ca) or not (fan.cone_den(ca) and fan.cone_den(cb)):
            continue
        expected = _verdict(lambda f: reference_face_intersection(f, ca, cb), fan)
        try:
            _check_face_intersection(fan, ca, cb)
        except BadFaceIntersection as err:
            assert expected is BadFaceIntersection
            _assert_witness(fan, err, ca, cb)
        else:
            assert expected is None
        seen[expected] += 1


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
