"""Lattice automorphism groups of fans.

An automorphism is a GL(rank, Z) matrix permuting the rays and the maximal
cones.  The rays of a validated fan span, so an automorphism is determined by
its ray permutation, and `FanAutGroup` computes with those: a product is a
composition of permutation tuples and one dict lookup.  The matrices are the
report format and each one's certificate.

The general search assigns images to a frame of independent rays one ray at
a time, by backtracking, and prunes a partial assignment when a ray invariant
differs, an image repeats, or cone incidence breaks (two frame rays share a
maximal cone exactly when their images do).  Each complete assignment is
solved for its matrix and kept only by exact criteria, which also yield its
ray permutation.  The found set is certified to be a group at every order:
greedily chosen generators are closed breadth-first by permutation products,
each product must lie in the set, and the closure must be all of it.  The
exhaustive frame product that the pruned search replaced is kept in the
tests as its reference.  For smooth complete surface fans the boundary word
gives an independent shortcut: rotational symmetries of the word produce
determinant +1 automorphisms, mirror symmetries determinant -1, and these
exhaust the group.

Finite subgroups of GL(2, Z) are classified up to conjugacy by thirteen
classes; `identify_gl2_class` names the class of a given finite matrix group
and returns an explicit unimodular conjugator as a checkable witness.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .exact_linalg import IntMatrix, _snf_memo_scope, det, kernel_basis, rational_solve
from .fans import Fan, NotSmoothComplete, boundary_word, is_complete_surface, is_smooth, validate_fan


class UnidentifiedClass(ValueError):
    """The given group matched no finite GL(2, Z) conjugacy class."""


Perm = tuple[int, ...]


@dataclass(frozen=True)
class FanAutGroup:
    """Finite matrix group acting on a fan, matrices sorted for determinism.

    `ray_permutations[i]` is the permutation k -> index of matrices[i] @ ray_k.
    Group arithmetic runs on these permutations.  When not given they are
    computed from the matrices; `automorphism_group` passes the ones its
    checks produced.
    """

    fan: Fan
    matrices: tuple[IntMatrix, ...]
    ray_permutations: tuple[Perm, ...] = field(default=None, compare=False, repr=False)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.ray_permutations is None:
            lookup = {r: i for i, r in enumerate(self.fan.rays)}
            perms = tuple(tuple(lookup[m.apply(r)] for r in self.fan.rays) for m in self.matrices)
            object.__setattr__(self, "ray_permutations", perms)

    @property
    def order(self) -> int:
        return len(self.matrices)

    @cached_property
    def _perm_index(self) -> dict[Perm, int]:
        index = {perm: i for i, perm in enumerate(self.ray_permutations)}
        assert len(index) == self.order, "ray permutations must be distinct"
        return index

    @cached_property
    def identity_index(self) -> int:
        return self._perm_index[tuple(range(self.fan.num_rays))]

    @cached_property
    def _index(self) -> dict[IntMatrix, int]:
        return {m: i for i, m in enumerate(self.matrices)}

    def index(self, m: IntMatrix) -> int:
        return self._index[m]

    def mult_index(self, i: int, j: int) -> int:
        """Index of matrices[i] @ matrices[j]: the composed ray permutation."""
        perms = self.ray_permutations
        return self._perm_index[tuple(map(perms[i].__getitem__, perms[j]))]

    @cached_property
    def inverse_indices(self) -> tuple[int, ...]:
        """Index of each matrix's inverse: the inverse ray permutation.

        One product per element certifies the lookup.
        """
        out = []
        for i, perm in enumerate(self.ray_permutations):
            inv_perm = [0] * len(perm)
            for k, image in enumerate(perm):
                inv_perm[image] = k
            j = self._perm_index[tuple(inv_perm)]
            assert self.mult_index(i, j) == self.identity_index
            out.append(j)
        return tuple(out)

    def element_order(self, i: int) -> int:
        n = 1
        j = i
        while j != self.identity_index:
            j = self.mult_index(j, i)
            n += 1
            assert n <= self.order
        return n

    def subgroup_closure(self, gens: Iterable[int]) -> frozenset[int]:
        seen = {self.identity_index}
        frontier = list(seen)
        gens = list(gens)
        while frontier:
            nxt = []
            for g in frontier:
                for h in gens:
                    x = self.mult_index(g, h)
                    if x not in seen:
                        seen.add(x)
                        nxt.append(x)
            frontier = nxt
        return frozenset(seen)


def _ray_invariants(fan: Fan) -> dict[int, tuple]:
    """Conjugation-invariant fingerprint per ray, used only to prune."""
    if fan.rank == 2 and is_smooth(fan) and is_complete_surface(fan):
        bw = boundary_word(fan)
        return {i: ("a", bw.value_at_ray(i)) for i in range(fan.num_rays)}
    keys = {}
    for i in range(fan.num_rays):
        sizes = tuple(sorted(len(c) for c in fan.cones_containing(i)))
        keys[i] = ("cones", sizes)
    return keys


def _frame(fan: Fan) -> list[int]:
    """First ray subset (greedy by index) spanning Q^rank."""
    from .exact_linalg import smith_normal_form

    chosen: list[int] = []
    for i in range(fan.num_rays):
        trial = chosen + [i]
        m = IntMatrix.from_cols([fan.rays[j] for j in trial], fan.rank)
        if smith_normal_form(m).rank == len(trial):
            chosen = trial
            if len(chosen) == fan.rank:
                return chosen
    raise AssertionError("validated fan must have full-rank rays")


def _scaled_inverse(m: IntMatrix) -> tuple[IntMatrix, int]:
    """(g, den) with m @ g == den * identity, for a nonsingular square m."""
    sol = rational_solve(m, IntMatrix.identity(m.nrows))
    assert sol is not None, "matrix is singular"
    return sol


def _divided(m: IntMatrix, den: int) -> IntMatrix | None:
    """m / den when den divides every entry, else None."""
    if any(x % den for row in m.rows for x in row):
        return None
    return IntMatrix._trusted(tuple(tuple(x // den for x in row) for row in m.rows), m.ncols)


def _frame_images(fan: Fan, frame: Sequence[int], invariants: dict[int, tuple]) -> Iterator[Perm]:
    """Candidate images of the frame rays, one slot at a time by backtracking.

    Each slot takes a ray with its frame ray's invariant.  A ray is pruned
    when it is already used or when cone incidence breaks with an earlier
    slot: an automorphism permutes the maximal cones, so two rays share one
    exactly when their images do.  No automorphism's frame image is pruned.
    """
    near: list[set[int]] = [set() for _ in range(fan.num_rays)]
    for cone in fan.max_cones:
        for i in cone:
            near[i].update(cone)
    candidates = [[i for i in range(fan.num_rays) if invariants[i] == invariants[f]] for f in frame]
    images: list[int] = []

    def extend(k: int) -> Iterator[Perm]:
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


def _is_group(perms: Sequence[Perm]) -> bool:
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
    gens: list[Perm] = []
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


@_snf_memo_scope()
def automorphism_group(fan: Fan) -> FanAutGroup:
    """All GL(rank, Z) matrices mapping rays to rays and cones to cones.

    Backtracking search over images of a ray frame (`_frame_images`); the
    frame is inverted once over Q as (g, den), and each candidate matrix
    (images @ g) / den is kept only if it is integral, unimodular, maps the
    ray set onto itself, and permutes the maximal cones.  The last two
    checks yield the element's ray permutation, and the permutations found
    are certified to form a group.
    """
    validate_fan(fan)
    frame = _frame(fan)
    frame_inv, den = _scaled_inverse(IntMatrix.from_cols([fan.rays[j] for j in frame], fan.rank))
    ray_lookup = {r: i for i, r in enumerate(fan.rays)}
    cone_set = set(fan.max_cones)
    found: list[tuple[IntMatrix, Perm]] = []
    for images in _frame_images(fan, frame, _ray_invariants(fan)):
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
    matrices = tuple(s for s, _ in found)
    assert len(set(matrices)) == len(matrices)
    group = FanAutGroup(fan, matrices, tuple(perm for _, perm in found))
    assert _is_group(group.ray_permutations), "automorphism set not closed"
    assert group.matrices[group.identity_index] == IntMatrix.identity(fan.rank)
    return group


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
    group = FanAutGroup(fan, tuple(sorted(set(found), key=lambda x: x.rows)))
    return group


# ---------------------------------------------------------------------------
# finite subgroups of GL(2, Z) up to conjugacy


GEN_ROT6 = IntMatrix.from_rows([[0, -1], [1, 1]])  # order 6
GEN_ROT4 = IntMatrix.from_rows([[0, -1], [1, 0]])  # order 4
GEN_ROT3 = GEN_ROT6 @ GEN_ROT6
GEN_NEG = IntMatrix.from_rows([[-1, 0], [0, -1]])
GEN_MIRROR_DIAG = IntMatrix.from_rows([[1, 0], [0, -1]])  # fixes a basis vector
GEN_MIRROR_SWAP = IntMatrix.from_rows([[0, 1], [1, 0]])  # swaps the basis

_CLASS_GENERATORS: dict[str, tuple[IntMatrix, ...]] = {
    "C1": (IntMatrix.identity(2),),
    "C2": (GEN_NEG,),
    "C3": (GEN_ROT3,),
    "C4": (GEN_ROT4,),
    "C6": (GEN_ROT6,),
    "D2": (GEN_MIRROR_DIAG,),
    "D2'": (GEN_MIRROR_SWAP,),
    "D4": (GEN_NEG, GEN_MIRROR_DIAG),
    "D4'": (GEN_NEG, GEN_MIRROR_SWAP),
    "D6": (GEN_ROT3, GEN_MIRROR_SWAP @ GEN_ROT6),
    "D6'": (GEN_ROT3, GEN_MIRROR_SWAP),
    "D8": (GEN_ROT4, GEN_MIRROR_SWAP),
    "D12": (GEN_ROT6, GEN_MIRROR_SWAP),
}

GL2_CLASS_LABELS = tuple(_CLASS_GENERATORS)


def _closure(gens: Sequence[IntMatrix]) -> tuple[IntMatrix, ...]:
    seen = {IntMatrix.identity(2)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = a @ g
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
        frontier = nxt
    return tuple(sorted(seen, key=lambda m: m.rows))


def _matrix_order(m: IntMatrix, cap: int = 13) -> int:
    p = m
    for n in range(1, cap):
        if p == IntMatrix.identity(m.nrows):
            return n
        p = p @ m
    raise UnidentifiedClass(f"matrix {m} has order > {cap - 1}, not in a finite GL(2,Z) group")


def gl2_class_elements(label: str) -> tuple[IntMatrix, ...]:
    return _closure(_CLASS_GENERATORS[label])


def _intertwiner_lattice(pairs: Sequence[tuple[IntMatrix, IntMatrix]]) -> IntMatrix:
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


@dataclass(frozen=True)
class GL2ClassIdentification:
    label: str
    conjugator: IntMatrix

    def verify(self, elements: Iterable[IntMatrix]) -> bool:
        p = self.conjugator
        pinv = _divided(*_scaled_inverse(p))
        assert pinv is not None
        conj = {p @ g @ pinv for g in gl2_class_elements(self.label)}
        return conj == set(elements)


def identify_gl2_class(group: FanAutGroup | Sequence[IntMatrix]) -> GL2ClassIdentification:
    """Name the conjugacy class of a finite subgroup of GL(2, Z).

    The class is certified, not guessed: candidate classes are filtered by
    order and element-order statistics (both conjugacy invariants), and the
    answer is the first candidate for which an explicit unimodular P with
    P * class * P^-1 == group is found.  The search space for P is the
    integer intertwiner lattice of a generator assignment, scanned over small
    coordinates; this is exhaustive enough for all finite classes because a
    conjugator can be normalized to have entries of magnitude at most a few.
    """
    matrices = tuple(group.matrices) if isinstance(group, FanAutGroup) else tuple(group)
    if not matrices:
        raise UnidentifiedClass("empty group")
    n = len(matrices)
    order_stats = tuple(sorted(_matrix_order(m) for m in matrices))
    for label in GL2_CLASS_LABELS:
        elems = gl2_class_elements(label)
        if len(elems) != n:
            continue
        if tuple(sorted(_matrix_order(m) for m in elems)) != order_stats:
            continue
        gens = _CLASS_GENERATORS[label]
        gen_orders = [_matrix_order(g) for g in gens]
        slots = [
            [h for h in matrices if _matrix_order(h) == o] for o in gen_orders
        ]
        target_set = set(matrices)
        for images in itertools.product(*slots):
            basis = _intertwiner_lattice(list(zip(gens, images)))
            if basis.ncols == 0:
                continue
            for coeffs in itertools.product(range(-5, 6), repeat=basis.ncols):
                if all(c == 0 for c in coeffs):
                    continue
                flat = basis.apply(coeffs)
                p = IntMatrix.from_rows([[flat[0], flat[1]], [flat[2], flat[3]]])
                if abs(det(p)) != 1:
                    continue
                ident = GL2ClassIdentification(label, p)
                if ident.verify(target_set):
                    return ident
    raise UnidentifiedClass(
        f"group of order {n} with element orders {order_stats} matches no finite GL(2,Z) class"
    )


def involution_type(s: IntMatrix) -> str:
    """Type of an order-<=2 element of GL(n, Z), by its eigenlattice split.

    For 2x2 matrices the four outcomes are "identity", "minus_identity",
    "split_reflection" (conjugate to diag(1, -1); the +1/-1 eigenlattices
    span everything), and "swap_reflection" (conjugate to the basis swap;
    the eigenlattices have index 2).
    """
    n = s.nrows
    ident = IntMatrix.identity(n)
    assert s @ s == ident, "involution expected"
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
