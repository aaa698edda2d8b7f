"""Lattice automorphism groups of fans.

An automorphism is a GL(rank, Z) matrix permuting the rays and the maximal
cones.  The rays of a validated fan span, so an automorphism is determined by
its ray permutation, and `FanAutGroup` computes with those: a product is a
composition of permutation tuples and one dict lookup.  The matrices are the
report format.

The search assigns images to a frame of independent rays one ray at a
time, by backtracking.  It prunes a partial assignment when a ray's star
differs, an image repeats, cone incidence breaks (two frame rays share a
maximal cone exactly when their images do), or a ray relation fails: every
other ray is a rational combination of the frame rays, so its image is the
same combination of their images and must be a ray.  Each leaf then
carries its full ray permutation.  The frame is a base of the group, since
only the identity fixes rays that span, so the group has a stabilizer
chain and its order is the product of the basic orbits (Sims 1970; Seress,
Permutation Group Algorithms, 2003, ch. 4).  The search fills the chain
from the last frame ray to the first: at level k it searches only below
frame images that fix the earlier frame rays, skips an image of frame ray
k already in its orbit under the generators found so far, and below any
other takes the first leaf that passes exact matrix criteria as a new
generator.  The order is held to MAX_AUT_ORDER before any element is
listed; the elements are products of transversal elements, one per level,
and each matrix is read off its permutation with the frame's inverse.  The
search runs once per `Fan`, which keeps the group; the group keeps, per d,
its classes of elements of order dividing d (the twisting classes).  The
search with one leaf per element and its closure, the search that tested
every element as a matrix, and the exhaustive frame product before it are
kept in the tests as references.  For smooth complete surface fans the
tests also rebuild the group from the boundary word, an independent route:
rotational symmetries of the word produce determinant +1 automorphisms,
mirror symmetries determinant -1, and these exhaust the group.

Finite subgroups of GL(2, Z) are classified up to conjugacy by thirteen
classes; `identify_gl2_class` names the class of a given finite matrix group
by conjugacy invariants (order, element orders and coinvariants), which
tell the thirteen apart.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Sequence

from .exact_linalg import (
    IntMatrix,
    cokernel_presentation,
    det,
    fraction_free_solve,
    rank_mod_2,
)
from .fans import Fan, TooLarge, validate_fan


class UnidentifiedClass(ValueError):
    """The given group matched no finite GL(2, Z) conjugacy class."""


class NotInvolution(ValueError):
    """The given matrix is not square or does not square to the identity."""


#: Most elements `automorphism_group` builds: projective:7 has 8! = 40,320.
MAX_AUT_ORDER = 50_000

Perm = tuple[int, ...]


def _inverse_perm(perm: Perm) -> Perm:
    out = [0] * len(perm)
    for k, image in enumerate(perm):
        out[image] = k
    return tuple(out)


def _cycles(perm: Perm) -> list[list[int]]:
    """The cycles of `perm`, each starting at its least point, ordered by it."""
    seen = [False] * len(perm)
    cycles = []
    for start in range(len(perm)):
        cycle = []
        k = start
        while not seen[k]:
            seen[k] = True
            cycle.append(k)
            k = perm[k]
        if cycle:
            cycles.append(cycle)
    return cycles


@dataclass(frozen=True)
class FanAutGroup:
    """Finite matrix group acting on a fan, matrices sorted for determinism.

    `fan_key` is the fan's `(rank, rays, max_cones)`, which `Fan` equality
    compares: the fan keeps its group, so the group must not point back at
    it.  `ray_permutations[i]` is the permutation k -> index of
    matrices[i] @ ray_k, as `automorphism_group`'s search produced it.
    Group arithmetic runs on these permutations.  `generators` are indices
    of elements that generate the group: the search's strong generators,
    those fixing the first k frame rays generating the subgroup that fixes
    them.
    """

    fan_key: tuple
    matrices: tuple[IntMatrix, ...]
    ray_permutations: tuple[Perm, ...] = field(compare=False, repr=False)
    generators: tuple[int, ...] = field(compare=False, repr=False)

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
        return self._perm_index[tuple(range(len(self.ray_permutations[0])))]

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
            j = self._perm_index[_inverse_perm(perm)]
            assert self.mult_index(i, j) == self.identity_index
            out.append(j)
        return tuple(out)

    def conjugacy_class(self, h: int) -> frozenset[int]:
        """Indices of the conjugates of matrices[h].

        The class is the orbit of h under conjugation by the generators, all
        of it since they generate the finite group, found breadth-first:
        g h g^-1 as a permutation is k -> g[h[g^-1[k]]].
        It costs (class size) x (number of generators) conjugations.
        """
        conjugators = [
            (self.ray_permutations[g].__getitem__, _inverse_perm(self.ray_permutations[g]))
            for g in self.generators
        ]
        start = self.ray_permutations[h]
        orbit, frontier = {start}, [start]
        while frontier:
            nxt = []
            for p in frontier:
                for g_at, g_inv in conjugators:
                    y = tuple(map(g_at, map(p.__getitem__, g_inv)))
                    if y not in orbit:
                        orbit.add(y)
                        nxt.append(y)
            frontier = nxt
        return frozenset(map(self._perm_index.__getitem__, orbit))

    def element_order(self, i: int) -> int:
        """Order of matrices[i]: the lcm of its ray permutation's cycle
        lengths, the ray action being faithful."""
        return math.lcm(*map(len, _cycles(self.ray_permutations[i])))

    @cached_property
    def _classes_by_d(self) -> dict[int, tuple[tuple[int, int], ...]]:
        return {}

    def classes_dividing(self, d: int) -> tuple[tuple[int, int], ...]:
        """(least member, size) of each conjugacy class of elements whose
        order divides d, by least member: one pass over the elements, the
        first met of a class being its least, on the first request for d.
        Kept as integers, so nothing kept points back at the group.
        """
        found = self._classes_by_d.get(d)
        if found is None:
            seen: set[int] = set()
            found = []
            for h in range(self.order):
                if h not in seen and not d % self.element_order(h):
                    conjugates = self.conjugacy_class(h)
                    seen |= conjugates
                    found.append((h, len(conjugates)))
            found = self._classes_by_d[d] = tuple(found)
        return found


def _ray_invariants(fan: Fan) -> dict[int, tuple[int, ...]]:
    """Each ray's star, the sorted sizes of the maximal cones that contain
    it: an automorphism keeps it, so it only prunes."""
    return {
        i: tuple(sorted(len(c) for c in fan.max_cones if i in c))
        for i in range(fan.num_rays)
    }


def _frame(fan: Fan) -> tuple[list[int], IntMatrix, int]:
    """Rays spanning Q^rank, and (g, den) with f @ g == den * identity for
    their matrix f, den = det f.

    Starts from the rays of a largest maximal cone, independent in a
    validated fan, and adds rays greedily by index while they stay
    independent (a nonzero `fraction_free_solve` den); g is one more solve,
    of f against the identity.
    """
    chosen = list(max(fan.max_cones, key=len, default=()))
    for i in range(fan.num_rays):
        if len(chosen) == fan.rank:
            break
        if i not in chosen and fraction_free_solve(fan.cone_matrix(chosen + [i]))[0]:
            chosen.append(i)
    assert len(chosen) == fan.rank, "validated fan must have full-rank rays"
    den, inverse = fraction_free_solve(fan.cone_matrix(chosen), IntMatrix.identity(fan.rank))
    return chosen, inverse, den


def _divided(m: IntMatrix, den: int) -> IntMatrix | None:
    """m / den when den divides every entry, else None."""
    if any(x % den for row in m.rows for x in row):
        return None
    return IntMatrix._trusted(tuple(tuple(x // den for x in row) for row in m.rows), m.ncols)


class _FrameImages:
    """`leaves(prefix)`: the ray permutations forced by candidate images of
    the frame rays whose first images are `prefix`, found one frame slot at a
    time by backtracking.

    Slot k takes a ray of `candidates[k]` (a prefix image must be one of its
    slot's).  A ray is pruned when it is already used or when cone incidence
    breaks with an earlier slot: an automorphism permutes the maximal cones,
    so two rays share one exactly when their images do.  Every other ray r
    is (sum_j c_j f_j) / den over the frame rays f_j, with c = frame_inv @ r,
    so an automorphism sends it to (sum_j c_j image_j) / den, which must be
    a ray: that is checked as soon as the last slot in c's support is
    assigned, and the branch is pruned otherwise.  No automorphism's frame
    image is pruned, and each leaf yields the ray permutation its frame
    images force.  The pruning data is built once, for every prefix.  The
    backtracking state is passed down explicitly, so a search leaves no
    reference cycle for the garbage collector.
    """

    def __init__(
        self, fan: Fan, frame: Sequence[int], frame_inv: IntMatrix, den: int,
        candidates: list[list[int]],
    ) -> None:
        self.frame = frame
        self.candidates = candidates
        self.rays = rays = fan.rays
        self.near = near = [set() for _ in range(fan.num_rays)]
        for cone in fan.max_cones:
            for i in cone:
                near[i].update(cone)
        self.scaled_rays = {tuple(den * x for x in r): i for i, r in enumerate(rays)}
        # due[k]: (ray, frame slots of its support, coefficients) checked once slot k is set
        self.due: list[list[tuple[int, tuple[int, ...], tuple[int, ...]]]] = [[] for _ in frame]
        for i, r in enumerate(rays):
            if i not in frame:
                slots, coeffs = zip(*((j, c) for j, c in enumerate(frame_inv.apply(r)) if c))
                self.due[slots[-1]].append((i, slots, coeffs))

    def leaves(self, prefix: Sequence[int]) -> Iterator[Perm]:
        options = [[c] if c in cands else [] for c, cands in zip(prefix, self.candidates)]
        options += self.candidates[len(prefix):]
        return self._extend(0, options, [], list(range(len(self.rays))))

    def _extend(
        self, k: int, options: list[list[int]], images: list[int], perm: list[int]
    ) -> Iterator[Perm]:
        frame, near, rays = self.frame, self.near, self.rays
        if k == len(frame):
            yield tuple(perm)
            return
        incident = [frame[l] in near[frame[k]] for l in range(k)]
        mul = operator.mul
        for c in options[k]:
            if c in images or any((images[l] in near[c]) != incident[l] for l in range(k)):
                continue
            images.append(c)
            perm[frame[k]] = c
            for i, slots, coeffs in self.due[k]:
                cols = zip(*(rays[images[j]] for j in slots))
                image = self.scaled_rays.get(tuple(sum(map(mul, coeffs, col)) for col in cols))
                if image is None:
                    break
                perm[i] = image
            else:
                yield from self._extend(k + 1, options, images, perm)
            images.pop()


def _transversal(point: int, gens: Sequence[Perm], identity: Perm) -> dict[int, Perm]:
    """The orbit of `point` under the group `gens` generate, each orbit point
    p with an element u of that group taking `point` to p.

    Breadth-first, as a Schreier tree: a point q = g[p] reached first from p
    gets u_q = g o u_p.
    """
    tree = {point: identity}
    frontier = [point]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = g[p]
                if q not in tree:
                    tree[q] = tuple(map(g.__getitem__, tree[p]))
                    nxt.append(q)
        frontier = nxt
    return tree


def _perm_matrices(
    fan: Fan, frame: Sequence[int], frame_inv: IntMatrix, den: int, perms: Sequence[Perm]
) -> list[IntMatrix]:
    """The matrix of each automorphism, read off its ray permutation.

    The matrix s sends the frame matrix f to the matrix of the frame's
    images, and f @ frame_inv == den * identity, so column j of s is
    sum_k frame_inv[k][j] * ray[perm[f_k]] / den.  The division is exact for
    an automorphism, and zero coefficients are skipped.  A column depends
    only on the images of the frame rays in its support, so each distinct
    column is computed once.
    """
    rays = fan.rays
    columns = []
    for col in frame_inv.cols():
        support = [(f, c) for f, c in zip(frame, col) if c]
        keys = list(map(operator.itemgetter(*(f for f, _ in support)), perms))
        known = {}
        for key, perm in dict(zip(keys, perms)).items():
            terms = ([c * x for x in rays[perm[f]]] for f, c in support)
            known[key] = tuple(sum(xs) // den for xs in zip(*terms))
        columns.append(map(known.__getitem__, keys))
    return [IntMatrix._trusted(tuple(zip(*cols)), fan.rank) for cols in zip(*columns)]


def _check_aut_order(order: int) -> None:
    if order > MAX_AUT_ORDER:
        raise TooLarge(
            f"the fan has more than {MAX_AUT_ORDER} symmetries\nhint:"
            " `toricforms classify projective -n N` classifies the forms"
            " of projective space without building its symmetry group"
        )


def automorphism_group(fan: Fan) -> FanAutGroup:
    """All GL(rank, Z) matrices mapping rays to rays and cones to cones.

    The frame f_0..f_{n-1} (`_frame`) is a base: an automorphism fixing
    rays that span is the identity.  So the group has the stabilizer chain
    G = G_0 >= G_1 >= ... >= G_n = 1, G_k fixing f_0..f_{k-1}, and
    |G| is the product of the basic orbits Delta_k = G_k f_k (Sims).  Level
    k, from last to first, searches frame images that fix f_0..f_{k-1}
    (`_FrameImages`).  The generators found at later levels lie in G_k;
    a candidate image c of f_k already in the orbit of f_k under all found
    so far is skipped.  Below any other, the first leaf whose permutation is
    a bijection permuting the maximal cones, and whose matrix
    (images @ g) / den, with the frame inverted once over Q as (g, den), is
    integral and unimodular, becomes a generator, and the orbit grows.  Raises
    TooLarge once the product of the orbits found passes MAX_AUT_ORDER,
    before any element is listed.  The elements are the products
    u_0 o ... o u_{n-1} of transversal elements u_k, one per point of
    Delta_k, and each matrix is read off its permutation (`_perm_matrices`).
    The search runs once per Fan object, which keeps the group; a later call
    returns it after checking its order against MAX_AUT_ORDER again, as the
    search would (it raises exactly when the final orbit product passes).
    """
    group = fan._aut_group
    if group is not None:
        _check_aut_order(group.order)
        return group
    validate_fan(fan)
    frame, frame_inv, den = _frame(fan)
    invariants = _ray_invariants(fan)
    candidates = [[i for i in range(fan.num_rays) if invariants[i] == invariants[f]] for f in frame]
    leaves = _FrameImages(fan, frame, frame_inv, den, candidates).leaves
    cone_set = set(fan.max_cones)

    def is_automorphism(perm: Perm) -> bool:
        if len(set(perm)) < len(perm) or any(
            tuple(sorted(perm[i] for i in c)) not in cone_set for c in fan.max_cones
        ):
            return False
        img_cols = IntMatrix.from_cols([fan.rays[perm[f]] for f in frame], fan.rank)
        s = _divided(img_cols @ frame_inv, den)
        return s is not None and abs(det(s)) == 1

    identity = tuple(range(fan.num_rays))
    gens: list[Perm] = []
    transversals: list[dict[int, Perm]] = []
    order = 1
    for k in reversed(range(len(frame))):
        tree = {frame[k]: identity}
        for c in candidates[k]:
            if c in tree:
                continue
            perm = next(filter(is_automorphism, leaves([*frame[:k], c])), None)
            if perm is not None:
                gens.append(perm)
                tree = _transversal(frame[k], gens, identity)
        transversals.append(tree)
        order *= len(tree)
        _check_aut_order(order)
    elements = [identity]
    for tree in transversals:  # G_k = T_k o G_{k+1}, from k = n-1 down
        elements = [tuple(map(u.__getitem__, h)) for u in tree.values() for h in elements]
    matrices = _perm_matrices(fan, frame, frame_inv, den, elements)
    pairs = sorted(zip(matrices, elements), key=lambda pair: pair[0].rows)
    perms = tuple(perm for _, perm in pairs)
    index = {p: i for i, p in enumerate(perms)}
    key = (fan.rank, fan.rays, fan.max_cones)
    group = FanAutGroup(key, tuple(m for m, _ in pairs), perms, tuple(index[g] for g in gens))
    assert len(set(group.matrices)) == group.order, "the ray action must be faithful"
    object.__setattr__(fan, "_aut_group", group)
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


def _check_closed_set(matrices: Sequence[IntMatrix]) -> None:
    """Typed checks, so they survive `python -O`: the set is non-empty, of at
    most 12 distinct 2x2 matrices (the largest finite class has 12), and
    closed under products."""
    if not matrices:
        raise UnidentifiedClass("empty group")
    if any((m.nrows, m.ncols) != (2, 2) for m in matrices):
        raise UnidentifiedClass("finite GL(2,Z) groups consist of 2x2 matrices")
    members = set(matrices)
    if len(members) != len(matrices):
        raise UnidentifiedClass("group elements must be distinct")
    if len(members) > 12:
        raise UnidentifiedClass(
            f"finite GL(2,Z) groups have at most 12 elements, got {len(members)}"
        )
    if any(a @ b not in members for a in matrices for b in matrices):
        raise UnidentifiedClass("matrix set is not closed under products")


def _class_key(matrices: Sequence[IntMatrix]) -> tuple:
    """Conjugacy invariants of a finite subgroup G of GL(2, Z): its order, its
    sorted element orders and its coinvariants Z^2 / sum of (g - 1)Z^2.
    Raises UnidentifiedClass for an element of infinite order."""
    ident = IntMatrix.identity(2)
    moved = IntMatrix.from_cols([c for m in matrices for c in (m - ident).cols()], 2)
    orders = tuple(sorted(_matrix_order(m) for m in matrices))
    return len(matrices), orders, cokernel_presentation(moved)


_LABEL_BY_KEY = {_class_key(gl2_class_elements(label)): label for label in GL2_CLASS_LABELS}
assert len(_LABEL_BY_KEY) == len(GL2_CLASS_LABELS), "class keys must be distinct"


def identify_gl2_class(group: FanAutGroup | Sequence[IntMatrix]) -> str:
    """Label of the conjugacy class of a finite subgroup of GL(2, Z).

    Every finite subgroup of GL(2, Z) is conjugate to exactly one of the
    thirteen classes (Voskresenskii, Algebraic Groups and Their Birational
    Invariants, 4.9), and their keys -- order, sorted element orders and
    coinvariants, all conjugacy invariants -- are pairwise distinct, so the
    key names the class.  A closed set of matrices of finite order is a
    group; any other input raises UnidentifiedClass.
    """
    matrices = tuple(group.matrices) if isinstance(group, FanAutGroup) else tuple(group)
    _check_closed_set(matrices)
    return _LABEL_BY_KEY[_class_key(matrices)]


def _check_involution(s: IntMatrix) -> IntMatrix:
    """The identity of s's size; NotInvolution, also under python -O, unless
    s is square with s @ s equal to it."""
    ident = IntMatrix.identity(s.nrows)
    if s.ncols != s.nrows or s @ s != ident:
        raise NotInvolution(f"matrix {s} is not an involution")
    return ident


def involution_type(s: IntMatrix) -> str:
    """Type of an order-<=2 element of GL(n, Z), by its eigenlattice split.

    For 2x2 matrices the four outcomes are "identity", "minus_identity",
    "split_reflection" (conjugate to diag(1, -1); the +1/-1 eigenlattices
    span everything), and "swap_reflection" (conjugate to the basis swap;
    the eigenlattices have index 2).  The eigenlattices have index 2^r with
    r = rank over F_2 of 1 + s: s is conjugate to a sum of trivial, sign and
    swap blocks (Reiner, Proc. AMS 8, 1957), only a swap block has an
    eigenlattice index, 2, and 1 + s is 2, 0 and [[1, 1], [1, 1]] on the
    three.  Raises NotInvolution, also under python -O, unless s is square
    with s @ s = 1.
    """
    ident = _check_involution(s)
    if s == ident:
        return "identity"
    if s == -ident:
        return "minus_identity"
    swaps = rank_mod_2(s + ident)
    if swaps == 0:
        return "split_reflection"
    assert s.nrows > 2 or swaps == 1
    return "swap_reflection"
