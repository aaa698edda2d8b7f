"""Rational simplicial fans with ordered primitive ray generators.

A fan is stored combinatorially: the ambient lattice rank, the ordered list of
primitive ray generators, and the maximal cones as sets of ray indices.
Validation covers primitivity, simpliciality, full-rank ray span, and the
face-intersection axiom: complete fans are proved by wall crossing in every
rank, other fans are checked pair of cones by pair (exactly in rank up to
three, spot-checked above).  On top of the raw structure: divisor class
groups, Cox presentations, completeness and smoothness tests, and for smooth
complete surfaces the cyclic boundary word (the integers a_i with
r_{i-1} + r_{i+1} = a_i * r_i around the boundary).
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from functools import cached_property, cmp_to_key
from math import gcd
from typing import Iterable, Sequence

from .exact_linalg import (
    FGAbelianGroup,
    IntMatrix,
    _snf_memo_scope,
    cokernel_presentation,
    det,
    kernel_basis,
    rational_solve,
    saturation_basis,
    smith_normal_form,
)


class FanError(ValueError):
    """Base class for fan validation failures."""


class NonPrimitiveRay(FanError):
    pass


class DuplicateRay(FanError):
    pass


class NonSimplicialCone(FanError):
    pass


class BadFaceIntersection(FanError):
    pass


class RaysNotFullRank(FanError):
    pass


class RedundantCone(FanError):
    pass


class RankUnsupported(FanError):
    pass


class NotSmoothComplete(FanError):
    pass


class FanFormatError(ValueError):
    """Malformed fan JSON."""


def primitive_vector(v: Sequence[int]) -> tuple[int, ...]:
    g = 0
    for x in v:
        g = gcd(g, x)
    assert g > 0, "zero vector has no primitive representative"
    return tuple(x // g for x in v)


@dataclass(frozen=True)
class Fan:
    """Simplicial fan: rank, ordered primitive rays, maximal cones by index."""

    rank: int
    rays: tuple[tuple[int, ...], ...]
    max_cones: tuple[tuple[int, ...], ...]

    @classmethod
    def make(
        cls,
        rank: int,
        rays: Iterable[Sequence[int]],
        max_cones: Iterable[Iterable[int]],
    ) -> "Fan":
        """Build a fan, normalizing cone order (indices sorted, cones sorted)."""
        rays_t = tuple(tuple(int(x) for x in r) for r in rays)
        cones_t = tuple(sorted(tuple(sorted(int(i) for i in c)) for c in max_cones))
        return cls(rank, rays_t, cones_t)

    @property
    def num_rays(self) -> int:
        return len(self.rays)

    @cached_property
    def ray_rows(self) -> IntMatrix:
        """num_rays x rank matrix whose rows are the rays."""
        return IntMatrix.from_rows(self.rays, self.rank)

    @cached_property
    def ray_columns(self) -> IntMatrix:
        """rank x num_rays matrix whose columns are the rays."""
        return self.ray_rows.transpose

    def cones_containing(self, ray_index: int) -> tuple[tuple[int, ...], ...]:
        return tuple(c for c in self.max_cones if ray_index in c)

    # -- JSON ---------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "rank": self.rank,
            "rays": [list(r) for r in self.rays],
            "cones": [list(c) for c in self.max_cones],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    @classmethod
    def from_dict(cls, data: dict) -> "Fan":
        if not isinstance(data, dict):
            raise FanFormatError("fan JSON must be an object")
        missing = {"rank", "rays", "cones"} - set(data)
        if missing:
            raise FanFormatError(f"fan JSON missing keys: {sorted(missing)}")
        rank = data["rank"]
        if not isinstance(rank, int) or rank < 1:
            raise FanFormatError("rank must be a positive integer")
        rays = data["rays"]
        cones = data["cones"]
        if not isinstance(rays, list) or not all(
            isinstance(r, list) and len(r) == rank and all(isinstance(x, int) for x in r)
            for r in rays
        ):
            raise FanFormatError("rays must be a list of integer vectors of length rank")
        if not isinstance(cones, list) or not all(
            isinstance(c, list) and all(isinstance(i, int) for i in c) for c in cones
        ):
            raise FanFormatError("cones must be a list of lists of ray indices")
        return cls.make(rank, rays, cones)

    @classmethod
    def from_json(cls, text: str) -> "Fan":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FanFormatError(f"invalid JSON: {exc}") from exc
        return cls.from_dict(data)


# ---------------------------------------------------------------------------
# validation


def _cone_coords(fan: Fan, cone: Sequence[int], v: Sequence[int]) -> tuple[int, ...] | None:
    """Coordinates of v in the rays of a simplicial cone, times a positive
    common denominator, when v lies in that cone; None when it does not.

    The rays of a simplicial cone are independent, so the coordinates are
    unique and their signs decide membership exactly.
    """
    gens = IntMatrix.from_cols([fan.rays[i] for i in cone], fan.rank)
    sol = rational_solve(gens, IntMatrix.from_cols([v], fan.rank))
    if sol is None:
        return None
    x = sol[0].col(0)
    return x if all(t >= 0 for t in x) else None


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


def _line_intersection(rank: int, p1: list[tuple[int, ...]], p2: list[tuple[int, ...]]) -> tuple[int, ...] | None:
    """Primitive generator of span(p1) & span(p2) when that meet is a line."""
    m1 = IntMatrix.from_cols(p1, rank)
    m2 = IntMatrix.from_cols(p2, rank)
    # x in both spans: x = m1 a = m2 b  =>  (m1 | -m2) kernel
    k = kernel_basis(m1.hstack(-m2))
    coeffs = IntMatrix(tuple(k.rows[: m1.ncols]), k.ncols)
    meet = m1 @ coeffs
    sat = saturation_basis(meet)
    if sat.ncols != 1:
        return None
    return primitive_vector(sat.col(0))


def _check_face_intersection(fan: Fan, ca: tuple[int, ...], cb: tuple[int, ...]) -> None:
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
                g = _line_intersection(fan.rank, p1, p2)
                if g is None:
                    continue
                for cand in (g, tuple(-x for x in g)):
                    coords = _cone_coords(fan, ca, cand)
                    if coords is not None and _cone_coords(fan, cb, cand) is not None:
                        check(cand, coords)


def _wall_crossing_certificate(fan: Fan) -> bool:
    """Prove that the maximal cones form a complete fan, by wall crossing.

    True when they do.  False when some maximal cone has fewer than rank
    rays or some facet (a cone minus one ray) does not lie in exactly two
    listed cones: the fan is then not complete, and the caller checks it
    pair by pair.  Raises BadFaceIntersection when two cones meet a common
    facet from the same side, or when the cones wind around the origin more
    than once.  One determinant and one cone-membership solve per cone.
    """
    n = fan.rank
    cones = [tuple(sorted(c)) for c in fan.max_cones]
    if not cones or any(len(c) != n for c in cones):
        return False
    walls: dict[tuple[int, ...], list[tuple[tuple[int, ...], int]]] = {}
    for cone in cones:
        for k in range(n):
            walls.setdefault(cone[:k] + cone[k + 1 :], []).append((cone, k))
    if any(len(sides) != 2 for sides in walls.values()):
        return False
    positive = {
        cone: det(IntMatrix.from_rows([fan.rays[i] for i in cone], n)) > 0 for cone in cones
    }
    for facet, ((ca, ka), (cb, kb)) in walls.items():
        # moving the apex ray (position k) last takes n - 1 - k transpositions,
        # so the apex-last determinant sign is that parity flip of the cone's
        if positive[ca] ^ ((n - 1 - ka) & 1) == positive[cb] ^ ((n - 1 - kb) & 1):
            raise BadFaceIntersection(
                f"cones {ca} and {cb} lie on the same side of their common facet {facet}"
            )
    first = cones[0]
    point = tuple(sum(col) for col in zip(*(fan.rays[i] for i in first)))
    for cone in cones[1:]:
        if _cone_coords(fan, cone, point) is not None:
            raise BadFaceIntersection(
                f"cones wind around the origin more than once: {point}, inside cone "
                f"{first}, also lies in cone {cone}"
            )
    return True


def _check_rays_and_cones(fan: Fan) -> None:
    """The checks that precede the face-intersection axiom: rank, primitive
    distinct rays, independent ray sets, no listed cone repeated or a face of
    another, and rays spanning the lattice up to finite index."""
    if fan.rank < 1:
        raise FanError(f"rank must be >= 1, got {fan.rank}")
    seen: dict[tuple[int, ...], int] = {}
    for idx, ray in enumerate(fan.rays):
        if len(ray) != fan.rank:
            raise FanError(f"ray {idx} has length {len(ray)}, expected {fan.rank}")
        if all(x == 0 for x in ray):
            raise NonPrimitiveRay(f"ray {idx} is zero")
        if primitive_vector(ray) != ray:
            raise NonPrimitiveRay(f"ray {idx} = {ray} is not primitive")
        if ray in seen:
            raise DuplicateRay(f"rays {seen[ray]} and {idx} coincide: {ray}")
        seen[ray] = idx

    for cone in fan.max_cones:
        for i in cone:
            if not 0 <= i < fan.num_rays:
                raise FanError(f"cone {cone} references missing ray {i}")
        if len(set(cone)) != len(cone):
            raise NonSimplicialCone(f"cone {cone} repeats a ray index")
        if cone:
            sub = IntMatrix.from_cols([fan.rays[i] for i in cone], fan.rank)
            if smith_normal_form(sub).rank != len(cone):
                raise NonSimplicialCone(
                    f"cone {cone} is not simplicial: its rays are linearly dependent"
                )
    cone_sets = [frozenset(c) for c in fan.max_cones]
    for a, sa in zip(fan.max_cones, cone_sets):
        if cone_sets.count(sa) > 1:
            raise RedundantCone(f"cone {a} is listed more than once")
        for b, sb in zip(fan.max_cones, cone_sets):
            if sa < sb:
                raise RedundantCone(f"cone {a} is a face of listed cone {b}")

    if fan.num_rays:
        sat = saturation_basis(fan.ray_columns)
        if sat.ncols != fan.rank:
            basis = [sat.col(j) for j in range(sat.ncols)]
            raise RaysNotFullRank(
                f"rays span a rank-{sat.ncols} sublattice; saturated span basis: {basis}"
            )
    elif fan.rank > 0 and fan.max_cones not in ((), ((),)):
        raise FanError("no rays but nontrivial cones")


@_snf_memo_scope()
def validate_fan(fan: Fan) -> None:
    """Full structural validation; raises a FanError subclass on failure.

    When every maximal cone has rank rays, a wall-crossing certificate
    proves the cones form a complete fan, in any rank, with three checks:
    (a) every facet lies in exactly two listed cones; (b) those two cones lie
    on opposite sides of it (their apex-last determinants differ in sign);
    (c) the sum of the first cone's rays lies in no other closed cone.
    Proof sketch: (a) makes the cones a closed pseudomanifold, and (b) makes
    every cone map to the unit sphere preserving orientation, so the
    oriented cones add up to a cycle and every point off the facets is
    covered by the same number of cones, the degree.  (c) finds a point
    covered once, so the degree is 1: cone interiors are disjoint, the cones
    cover the space, and every intersection is a common face.  Failing (b)
    or (c) means cones overlap (BadFaceIntersection).

    A fan failing (a) is not complete.  Its face intersections are checked
    pair by pair: exactly in rank <= 3; in higher rank only on the cones'
    rays, and a warning says so.
    """
    _check_rays_and_cones(fan)
    if _wall_crossing_certificate(fan):
        return
    if fan.rank > 3:
        warnings.warn(
            f"rank {fan.rank} fan: face intersections only spot-checked on the cones' rays"
            " (the fan is not complete)",
            stacklevel=2,
        )
    for ai in range(len(fan.max_cones)):
        for bi in range(ai + 1, len(fan.max_cones)):
            _check_face_intersection(fan, fan.max_cones[ai], fan.max_cones[bi])


# ---------------------------------------------------------------------------
# invariants


def class_group(fan: Fan) -> FGAbelianGroup:
    """Divisor class group: Z^rays modulo characters u -> (<u, ray>)_rays."""
    return cokernel_presentation(fan.ray_rows)


@dataclass(frozen=True)
class DegreeData:
    """Coordinates for the projection Z^rays -> class group.

    The class group splits as (sum of Z/modulus for torsion rows) + Z^free.
    Applying a row to the indicator vector of a ray divisor gives that
    divisor's degree coordinate.
    """

    torsion_rows: IntMatrix
    torsion_moduli: tuple[int, ...]
    free_rows: IntMatrix


def degree_data(fan: Fan) -> DegreeData:
    dec = smith_normal_form(fan.ray_rows)
    tor_idx = [i for i, x in enumerate(dec.diagonal) if x not in (0, 1)]
    free_idx = [i for i in range(fan.num_rays) if i >= len(dec.diagonal) or dec.diagonal[i] == 0]
    tor = IntMatrix.from_rows([dec.u.row(i) for i in tor_idx], fan.num_rays)
    free = IntMatrix.from_rows([dec.u.row(i) for i in free_idx], fan.num_rays)
    moduli = tuple(dec.diagonal[i] for i in tor_idx)
    # the projection must kill every character row
    prod_free = free @ fan.ray_rows
    assert prod_free.is_zero()
    prod_tor = tor @ fan.ray_rows
    for r, m in zip(prod_tor.rows, moduli):
        assert all(x % m == 0 for x in r)
    return DegreeData(tor, moduli, free)


@dataclass(frozen=True)
class CoxData:
    """Cox presentation: one variable per ray, graded by the class group."""

    fan: Fan
    degrees: DegreeData
    irrelevant_complements: tuple[tuple[int, ...], ...]
    """Each entry lists the rays *outside* one maximal cone; the product of
    those variables is one generator of the irrelevant ideal."""

    def monomial_exponents(self) -> list[tuple[int, ...]]:
        out = []
        for comp in self.irrelevant_complements:
            out.append(tuple(int(i in comp) for i in range(self.fan.num_rays)))
        return out


def cox_data(fan: Fan) -> CoxData:
    degrees = degree_data(fan)
    comps = tuple(
        tuple(i for i in range(fan.num_rays) if i not in cone) for cone in fan.max_cones
    )
    # the irrelevant ideal from maximal cones must equal the one from all
    # faces: every face monomial is divisible by a maximal-cone monomial
    faces: set[tuple[int, ...]] = set()
    for cone in fan.max_cones:
        n = len(cone)
        for mask in range(1 << n):
            faces.add(tuple(cone[k] for k in range(n) if mask >> k & 1))
    for face in faces:
        comp_face = set(range(fan.num_rays)) - set(face)
        assert any(set(c) <= comp_face for c in comps), (
            f"face {face} monomial not generated by maximal-cone monomials"
        )
    return CoxData(fan, degrees, comps)


def is_smooth(fan: Fan) -> bool:
    """Every maximal cone is generated by part of a lattice basis."""
    for cone in fan.max_cones:
        if not cone:
            continue
        sub = IntMatrix.from_cols([fan.rays[i] for i in cone], fan.rank)
        dec = smith_normal_form(sub)
        if dec.rank != len(cone) or any(x != 1 for x in dec.diagonal[: len(cone)]):
            return False
    return True


# ---------------------------------------------------------------------------
# rank-2 angular structure


def _half(v: tuple[int, ...]) -> int:
    x, y = v
    return 0 if (y > 0 or (y == 0 and x > 0)) else 1


def _cross(u: tuple[int, ...], v: tuple[int, ...]) -> int:
    return u[0] * v[1] - u[1] * v[0]


def _angle_cmp(u: tuple[int, ...], v: tuple[int, ...]) -> int:
    """Exact counterclockwise comparison from the positive x-axis."""
    hu, hv = _half(u), _half(v)
    if hu != hv:
        return -1 if hu < hv else 1
    c = _cross(u, v)
    assert c != 0 or u == v, f"parallel distinct rays {u}, {v} in one half-plane"
    return 0 if c == 0 else (-1 if c > 0 else 1)


def ccw_ray_order(fan: Fan) -> tuple[int, ...]:
    """Ray indices sorted counterclockwise starting from the positive x-axis."""
    if fan.rank != 2:
        raise RankUnsupported(f"angular order needs rank 2, got rank {fan.rank}")
    return tuple(
        sorted(range(fan.num_rays), key=cmp_to_key(lambda i, j: _angle_cmp(fan.rays[i], fan.rays[j])))
    )


def is_complete_surface(fan: Fan) -> bool:
    """Rank-2 completeness: consecutive rays span exactly the maximal cones."""
    if fan.rank != 2:
        raise RankUnsupported(f"completeness test implemented for rank 2, got {fan.rank}")
    m = fan.num_rays
    if m < 3:
        return False
    order = ccw_ray_order(fan)
    wanted = {tuple(sorted((order[k], order[(k + 1) % m]))) for k in range(m)}
    return wanted == set(fan.max_cones)


@dataclass(frozen=True)
class BoundaryWord:
    """Self-intersection word of a smooth complete surface fan.

    ccw_indices lists the rays counterclockwise starting from the
    lexicographically smallest ray; word[k] is the integer a with
    r_{k-1} + r_{k+1} = a * r_k at the k-th ray of that ordering.
    """

    ccw_indices: tuple[int, ...]
    word: tuple[int, ...]

    def value_at_ray(self, ray_index: int) -> int:
        return self.word[self.ccw_indices.index(ray_index)]


def boundary_word(fan: Fan) -> BoundaryWord:
    """Compute the boundary word; fan must be rank 2, smooth, and complete."""
    if fan.rank != 2:
        raise RankUnsupported(f"boundary word needs rank 2, got rank {fan.rank}")
    if not is_smooth(fan) or not is_complete_surface(fan):
        raise NotSmoothComplete("boundary word is defined for smooth complete surface fans")
    order = list(ccw_ray_order(fan))
    start = min(range(len(order)), key=lambda k: fan.rays[order[k]])
    order = order[start:] + order[:start]
    m = len(order)
    word = []
    for k in range(m):
        prev = fan.rays[order[k - 1]]
        cur = fan.rays[order[k]]
        nxt = fan.rays[order[(k + 1) % m]]
        assert _cross(cur, nxt) == 1, "consecutive rays must form an oriented basis"
        a = _cross(prev, nxt)
        assert tuple(p + n for p, n in zip(prev, nxt)) == tuple(a * c for c in cur)
        word.append(a)
    return BoundaryWord(tuple(order), tuple(word))


def a_sequence(fan: Fan) -> tuple[int, ...]:
    return boundary_word(fan).word


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


def fan_from_boundary_word(word: Sequence[int]) -> Fan:
    """Realize a boundary word as a fan, starting from rays (1,0), (0,1).

    The recurrence r_{k+1} = word[k] * r_k - r_{k-1} must close up after
    len(word) steps; otherwise the word is not realizable from this seed and
    a FanError is raised.
    """
    m = len(word)
    if m < 3:
        raise FanError("boundary word needs at least 3 letters")
    rays: list[tuple[int, int]] = [(1, 0), (0, 1)]
    for k in range(1, m + 1):
        a = word[k % m]
        prev, cur = rays[k - 1], rays[k]
        rays.append((a * cur[0] - prev[0], a * cur[1] - prev[1]))
    if rays[m] != (1, 0) or rays[m + 1] != (0, 1):
        raise FanError(
            f"word {tuple(word)} does not close up: step {m} lands on {rays[m]}, {rays[m + 1]}"
        )
    rays = rays[:m]
    if len(set(rays)) != m:
        raise FanError(f"word {tuple(word)} revisits a ray before closing")
    cones = [(k, (k + 1) % m) for k in range(m)]
    fan = Fan.make(2, rays, cones)
    validate_fan(fan)
    if not is_complete_surface(fan):
        raise FanError(f"word {tuple(word)} wraps the plane more than once")
    return fan


def surface_blowup(fan: Fan, cone: Sequence[int]) -> Fan:
    """Star-subdivide a smooth 2-cone: insert the sum of its two rays.

    The new ray is appended at the end of the ray list; the chosen cone is
    replaced by its two halves.
    """
    if fan.rank != 2:
        raise RankUnsupported("blowup surgery implemented for rank 2")
    key = tuple(sorted(int(i) for i in cone))
    if key not in fan.max_cones:
        raise FanError(f"cone {key} is not a maximal cone of the fan")
    i, j = key
    ri, rj = fan.rays[i], fan.rays[j]
    if abs(_cross(ri, rj)) != 1:
        raise NotSmoothComplete(f"cone {key} is singular; refusing to subdivide")
    new = (ri[0] + rj[0], ri[1] + rj[1])
    rays = fan.rays + (new,)
    k = len(fan.rays)
    cones = [c for c in fan.max_cones if c != key] + [(i, k), (j, k)]
    return Fan.make(2, rays, cones)
