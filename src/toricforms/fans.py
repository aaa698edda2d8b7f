"""Rational simplicial fans with ordered primitive ray generators.

A fan is stored combinatorially: the ambient lattice rank, the ordered list of
primitive ray generators, and the maximal cones as sets of ray indices.
Validation covers primitivity, simpliciality, full-rank ray span, and the
face-intersection axiom: complete fans are proved by wall crossing in every
rank, other fans are checked exactly pair of cones by pair, or refused with
TooLarge when that would take too many determinants.  A `Fan` validates
itself once, on first need, and keeps the verdict: complete or not (the
certificate's answer, in every rank), or the FanError it fails with.  Every
invariant reads that verdict, so none answers on a non-fan: divisor class
groups, Cox presentations, completeness and smoothness tests, and for smooth
complete surfaces the cyclic boundary word (the integers a_i with
r_{i-1} + r_{i+1} = a_i * r_i around the boundary), read by walking cone
adjacency counterclockwise.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from functools import cache, cached_property
from math import comb, gcd
from typing import TYPE_CHECKING, Iterable, Sequence

from . import _jsonout
from .exact_linalg import (
    FGAbelianGroup,
    IntMatrix,
    SmithDecomposition,
    _check_int,
    _check_int_entries,
    _int_tuples,
    det,
    fraction_free_solve,
    index_mod,
    saturation_basis,
    smith_normal_form,
)

if TYPE_CHECKING:
    from .fan_aut import FanAutGroup


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


class UnusedRay(FanError):
    pass


class RankUnsupported(FanError):
    pass


class NotSmoothComplete(FanError):
    pass


class FanFormatError(ValueError):
    """Malformed fan JSON."""


class TooLarge(ValueError):
    """A computation would exceed a size budget, one of the module constants
    MAX_* or `galois._MAX_FACTORED`: the only way the library refuses work
    for size.  Each is checked before its work, the symmetry budget as the
    group grows."""


#: Most rank x (rays + cones)^2 of a fan that validation takes on, checked
#: before any elimination: it grows with the pairs of cones validation compares
#: and with the matrices it eliminates.  projective:60 has 893,040.
MAX_FAN_SIZE = 1_000_000

#: Most n x n determinants the pairwise face-intersection check computes, over
#: all pairs; two rank-8 cones with no shared ray take 12,870, rank-9 ones 48,620.
MAX_FACE_MINORS = 20_000


def primitive_vector(v: Sequence[int]) -> tuple[int, ...]:
    g = 0
    for x in v:
        g = gcd(g, x)
    assert g > 0, "zero vector has no primitive representative"
    return tuple(x // g for x in v)


@dataclass(frozen=True)
class Fan:
    """Simplicial fan: rank, ordered primitive rays, maximal cones by index.

    The fan owns its validation verdict, the Smith decomposition of its ray
    matrix (the lattice questions), the `fraction_free_solve` den of each
    cone (the cone questions) and its symmetry group (`_aut_group`, set by
    `fan_aut.automorphism_group`); each is computed on first use and kept.
    """

    rank: int
    rays: tuple[tuple[int, ...], ...]
    max_cones: tuple[tuple[int, ...], ...]
    _aut_group: FanAutGroup | None = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def make(
        cls,
        rank: int,
        rays: Iterable[Sequence[int]],
        max_cones: Iterable[Iterable[int]],
    ) -> "Fan":
        """Build a fan, normalizing cone order (indices sorted, cones sorted).
        A rank, ray entry or cone index that is not an int raises TypeError."""
        _check_int(rank, "rank")
        rays_t = _int_tuples(rays, "rays")
        cones_t = tuple(sorted(tuple(sorted(c)) for c in _int_tuples(max_cones, "max_cones")))
        return cls(rank, rays_t, cones_t)

    @property
    def num_rays(self) -> int:
        return len(self.rays)

    @cached_property
    def ray_rows(self) -> IntMatrix:
        """num_rays x rank matrix whose rows are the rays, which validation
        checked to be int vectors of length rank."""
        return IntMatrix._trusted(tuple(self.rays), self.rank)

    @cached_property
    def ray_columns(self) -> IntMatrix:
        """rank x num_rays matrix whose columns are the rays."""
        return self.ray_rows.transpose

    @cached_property
    def ray_rows_snf(self) -> SmithDecomposition:
        """Smith decomposition of `ray_rows`: the presentation Cl = Z^rays / im R."""
        return smith_normal_form(self.ray_rows)

    def cone_matrix(self, cone: Sequence[int]) -> IntMatrix:
        """rank x len(cone) matrix whose columns are the cone's rays, which
        validation checked to be int vectors of length rank."""
        if not cone:
            return IntMatrix._trusted(((),) * self.rank, 0)
        return IntMatrix._trusted(tuple(zip(*(self.rays[i] for i in cone))), len(cone))

    @cached_property
    def _cone_dens(self) -> dict[tuple[int, ...], int]:
        return {}

    def cone_den(self, cone: tuple[int, ...]) -> int:
        """`fraction_free_solve`'s den of the cone's matrix: 0 when its rays
        are dependent, its determinant when it has rank rays.  Built on the
        first request for that cone, so validation eliminates a cone only
        after its indices have passed their checks."""
        den = self._cone_dens.get(cone)
        if den is None:
            den = self._cone_dens[cone] = fraction_free_solve(self.cone_matrix(cone))[0]
        return den

    @cached_property
    def _verdict(self) -> bool | FanError:
        """Validation, run on first read and kept: whether the fan is
        complete, or the FanError it fails with.  `validate_fan` reads it.
        TooLarge is raised, not kept: it says no verdict was reached."""
        try:
            _check_rays_and_cones(self)
            if _wall_crossing_certificate(self):
                return True
            _check_face_intersections(self)
        except FanError as exc:
            return exc.with_traceback(None)
        return False

    # -- JSON ---------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "rank": self.rank,
            "rays": [list(r) for r in self.rays],
            "cones": [list(c) for c in self.max_cones],
        }

    def to_json(self) -> str:
        return _jsonout.dumps(self.to_dict()) + "\n"

    @classmethod
    def from_dict(cls, data: dict) -> "Fan":
        if not isinstance(data, dict):
            raise FanFormatError("fan JSON must be an object")
        missing = {"rank", "rays", "cones"} - set(data)
        if missing:
            raise FanFormatError(f"fan JSON missing keys: {sorted(missing)}")
        rank = data["rank"]
        if type(rank) is not int or rank < 1:
            raise FanFormatError("rank must be a positive integer")
        rays = data["rays"]
        cones = data["cones"]
        if not isinstance(rays, list) or not all(
            isinstance(r, list) and len(r) == rank and all(type(x) is int for x in r)
            for r in rays
        ):
            raise FanFormatError("rays must be a list of integer vectors of length rank")
        if not isinstance(cones, list) or not all(
            isinstance(c, list) and all(type(i) is int for i in c) for c in cones
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


def _cone_coords(fan: Fan, cone: tuple[int, ...], v: Sequence[int]) -> tuple[int, ...] | None:
    """Coordinates of v in the rays of a simplicial cone, times a positive
    common denominator, when v lies in that cone; None when it does not.

    The rays of a simplicial cone are independent, so the coordinates x / den
    of the solve are unique, and their signs decide membership exactly.
    """
    den, x = fraction_free_solve(fan.cone_matrix(cone), IntMatrix._trusted(tuple((t,) for t in v), 1))
    if x is None:
        return None
    coords = x.col(0) if den > 0 else tuple(-t for t in x.col(0))
    return coords if all(t >= 0 for t in coords) else None


def _check_face_intersections(fan: Fan) -> None:
    """The face-intersection axiom, pair of cones by pair; TooLarge, before any
    minor is computed, when all pairs take more than MAX_FACE_MINORS."""
    pairs = list(itertools.combinations(fan.max_cones, 2))
    count = 0
    for ca, cb in pairs:
        columns = len(set(ca) ^ set(cb)) + fan.rank * (fan.rank not in (len(ca), len(cb)))
        count += comb(columns, fan.rank - len(set(ca) & set(cb)))
    if count > MAX_FACE_MINORS:
        raise TooLarge(
            f"the fan is not complete, and checking its face intersections pair by pair"
            f" would take {count} determinants, more than {MAX_FACE_MINORS}"
        )
    for ca, cb in pairs:
        _check_face_intersection(fan, ca, cb)


def _check_face_intersection(fan: Fan, ca: tuple[int, ...], cb: tuple[int, ...]) -> None:
    """Check that cone(ca) & cone(cb) equals their common face cone(S), S the
    shared rays; exact in every rank.

    Write N and M for the other rays of ca and of cb, and U and W for their
    images in Z^n / span(S), of rank d = n - |S|; each image is independent.
    A point of both cones outside cone(S) maps to Ua = Wb != 0 with a, b >= 0;
    conversely Na - Mb = -Sg then gives the point Na + max(0, g) S of both
    cones.  The (a, b) form a pointed cone, nonzero exactly when it has an
    extreme ray: a circuit of [U | -W] whose coefficients have one sign
    (Rockafellar, The elementary vectors of a subspace of R^N, 1969).  A
    circuit joined by other columns to d + 1 columns of rank d is their one
    relation, by Cramer's rule the signed n x n minors of [S | those
    columns]; so the check reads the relation of every d + 1 columns, each
    minor computed once.  When neither cone has n rays, unit columns, which
    no witness may use, make the columns span.
    """
    n = fan.rank
    shared = tuple(i for i in ca if i in cb)
    others = [i for i in ca if i not in shared] + [j for j in cb if j not in shared]
    sides = len(ca) - len(shared)  # others[:sides] are N, the rest M
    cols = [fan.rays[i] if p < sides else tuple(-t for t in fan.rays[i]) for p, i in enumerate(others)]
    if n not in (len(ca), len(cb)):
        cols += IntMatrix.identity(n).rows

    @cache
    def minor(sub: tuple[int, ...], skip: int = -1) -> int:
        """det [S | the columns sub], the shared ray at position skip left out."""
        s_part = [fan.rays[i] for j, i in enumerate(shared) if j != skip]
        return det(IntMatrix._trusted(tuple(zip(*s_part, *(cols[p] for p in sub))), n))

    for sup in itertools.combinations(range(len(cols)), n - len(shared) + 1):
        # the relation of the columns [S | sup], on sup, up to its sign
        x = [(-1) ** t * minor(sup[:t] + sup[t + 1 :]) for t in range(len(sup))]
        if not any(x) or min(x) < 0 < max(x) or any(t for t, p in zip(x, sup) if p >= len(others)):
            continue
        sign = 1 if max(x) > 0 else -1
        terms = [(sign * t, others[p]) for t, p in zip(x, sup) if p < sides]
        # the relation on S is g; the point N a + max(0, g) S lies in both cones
        g = [(-1) ** (j + len(shared)) * sign * minor(sup, j) for j in range(len(shared))]
        terms += [(max(0, t), i) for t, i in zip(g, shared)]
        point = tuple(sum(w * fan.rays[i][r] for w, i in terms) for r in range(n))
        raise BadFaceIntersection(
            f"cones {ca} and {cb} overlap beyond their common face: direction"
            f" {primitive_vector(point)} lies in both but not in the face spanned by {shared}"
        )


def _wall_crossing_certificate(fan: Fan) -> bool:
    """Prove that the maximal cones form a complete fan, by wall crossing.

    True when they do.  False when some maximal cone has fewer than rank
    rays or some facet (a cone minus one ray) does not lie in exactly two
    listed cones: the fan is then not complete, and the caller checks it
    pair by pair.  Raises BadFaceIntersection when two cones meet a common
    facet from the same side, or when the cones wind around the origin more
    than once.  It reads the sign of each cone's den (its determinant), and
    makes one cone-membership solve per cone.
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
    positive = {cone: fan.cone_den(cone) > 0 for cone in cones}
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
    another, rays spanning the lattice up to finite index, and every ray in
    a maximal cone (a ray in none is no ray of the fan, yet every invariant
    would count it as a divisor).  First the ray entries are checked to be
    ints (TypeError naming `rays`), and the fan's size against MAX_FAN_SIZE
    (TooLarge), before any elimination."""
    _check_int_entries(fan.rays, "rays")
    size = fan.rank * (fan.num_rays + len(fan.max_cones)) ** 2
    if size > MAX_FAN_SIZE:
        raise TooLarge(
            f"the fan has {fan.num_rays} rays and {len(fan.max_cones)} maximal cones in rank"
            f" {fan.rank}: rank x (rays + cones)^2 is {size}, more than {MAX_FAN_SIZE}"
        )
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
        if cone and not fan.cone_den(cone):
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

    if not fan.num_rays:
        raise RaysNotFullRank("no rays: they span the zero sublattice")
    if not fraction_free_solve(fan.ray_rows)[0]:
        dec = fan.ray_rows_snf
        # u R v = d gives v^T R^T u^T = d^T: the decomposition of the columns
        sat = saturation_basis(
            SmithDecomposition(fan.ray_columns, dec.v.transpose, dec.d.transpose, dec.u.transpose)
        )
        raise RaysNotFullRank(
            f"rays span a rank-{sat.ncols} sublattice; saturated span basis: {sat.cols()}"
        )
    unused = set(range(fan.num_rays)).difference(*fan.max_cones)
    if unused:
        raise UnusedRay(f"ray {min(unused)} = {fan.rays[min(unused)]} lies in no maximal cone")


def is_complete(fan: Fan) -> bool:
    """Whether the cones cover the space, by the wall-crossing certificate
    in any rank (see `validate_fan`).  Validates the fan first."""
    validate_fan(fan)
    return fan._verdict


def validate_fan(fan: Fan) -> None:
    """Full structural validation; raises a FanError subclass on failure.
    The checks run once per Fan object, which keeps the verdict: a fan that
    fails raises its FanError on every call.

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
    pair by pair, exactly in every rank (`_check_face_intersection`).  When
    all pairs together would take more than MAX_FACE_MINORS determinants,
    it raises TooLarge instead: validation answers exactly or not at all.
    """
    verdict = fan._verdict
    if isinstance(verdict, FanError):
        raise verdict.with_traceback(None)


# ---------------------------------------------------------------------------
# invariants


def class_group(fan: Fan) -> FGAbelianGroup:
    """Divisor class group: Z^rays modulo characters u -> (<u, ray>)_rays."""
    validate_fan(fan)
    return fan.ray_rows_snf.cokernel


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
    validate_fan(fan)
    dec = fan.ray_rows_snf
    # the rays of a valid fan span the lattice up to finite index, so the
    # first rank invariant factors are nonzero, the units among them first
    moduli = dec.nonunit_factors
    tor = IntMatrix._trusted(dec.u.rows[fan.rank - len(moduli) : fan.rank], fan.num_rays)
    free = IntMatrix._trusted(dec.u.rows[fan.rank :], fan.num_rays)
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


def cox_data(fan: Fan) -> CoxData:
    """Degrees and irrelevant-ideal generators.  The maximal cones suffice:
    a face's monomial is a multiple of the monomial of a cone containing it."""
    degrees = degree_data(fan)
    comps = tuple(
        tuple(i for i in range(fan.num_rays) if i not in cone) for cone in fan.max_cones
    )
    return CoxData(fan, degrees, comps)


def is_smooth(fan: Fan) -> bool:
    """Every maximal cone C of k rays spans a saturated sublattice: its den δ,
    a nonzero k x k minor, is 1 or [Z^rank : im C + δ Z^rank] = δ^(rank - k),
    one `index_mod`, since the torsion of Z^rank / im C has exponent dividing δ."""
    validate_fan(fan)
    dens = {c: abs(fan.cone_den(c)) for c in fan.max_cones}
    return all(
        den == 1 or index_mod(fan.cone_matrix(c), den) == den ** (fan.rank - len(c))
        for c, den in dens.items()
    )


# ---------------------------------------------------------------------------
# surfaces


def _cross(u: tuple[int, ...], v: tuple[int, ...]) -> int:
    return u[0] * v[1] - u[1] * v[0]


@dataclass(frozen=True)
class BoundaryWord:
    """Self-intersection word of a smooth complete surface fan.

    ccw_indices lists the rays counterclockwise starting from the
    lexicographically smallest ray; word[k] is the integer a with
    r_{k-1} + r_{k+1} = a * r_k at the k-th ray of that ordering.
    """

    ccw_indices: tuple[int, ...]
    word: tuple[int, ...]


def boundary_word(fan: Fan) -> BoundaryWord:
    """Compute the boundary word; fan must be rank 2, smooth, and complete.

    The rays are taken counterclockwise by walking cone adjacency from the
    lexicographically smallest ray.  In a complete surface fan every ray
    lies in two cones, one on each side of it, and the cones close up into
    one cycle around the origin; each step goes to the neighbour r with
    cross(current, r) > 0.
    """
    if fan.rank != 2:
        raise RankUnsupported(f"boundary word needs rank 2, got rank {fan.rank}")
    if not is_complete(fan) or not is_smooth(fan):
        raise NotSmoothComplete("boundary word is defined for smooth complete surface fans")
    ccw_next = {}
    for i, j in fan.max_cones:
        if _cross(fan.rays[i], fan.rays[j]) > 0:
            ccw_next[i] = j
        else:
            ccw_next[j] = i
    m = fan.num_rays
    order = [min(range(m), key=fan.rays.__getitem__)]
    while len(order) < m:
        order.append(ccw_next[order[-1]])
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


def fan_from_boundary_word(word: Sequence[int]) -> Fan:
    """Realize a boundary word as a fan, starting from rays (1,0), (0,1).

    The recurrence r_{k+1} = word[k] * r_k - r_{k-1} must close up after
    len(word) steps; otherwise the word is not realizable from this seed and
    a FanError is raised.  A word whose rays wind around the origin more than
    once fails validation with BadFaceIntersection.
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
