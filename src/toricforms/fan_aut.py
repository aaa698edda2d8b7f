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
tests as its reference.  For smooth complete surface fans the tests also
rebuild the group from the boundary word, an independent route: rotational
symmetries of the word produce determinant +1 automorphisms, mirror
symmetries determinant -1, and these exhaust the group.

Finite subgroups of GL(2, Z) are classified up to conjugacy by thirteen
classes; `identify_gl2_class` names the class of a given finite matrix group
by conjugacy invariants (order, element orders and coinvariants), which
tell the thirteen apart.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Sequence

from .exact_linalg import (
    IntMatrix,
    SmithDecomposition,
    cokernel_presentation,
    det,
    kernel_basis,
    rational_solve,
    smith_normal_form,
)
from .fans import Fan, boundary_word, is_complete_surface, is_smooth, validate_fan


class UnidentifiedClass(ValueError):
    """The given group matched no finite GL(2, Z) conjugacy class."""


class NotInvolution(ValueError):
    """The given matrix is not square or does not square to the identity."""


Perm = tuple[int, ...]


@dataclass(frozen=True)
class FanAutGroup:
    """Finite matrix group acting on a fan, matrices sorted for determinism.

    `ray_permutations[i]` is the permutation k -> index of matrices[i] @ ray_k,
    as `automorphism_group`'s checks produced it.  Group arithmetic runs on
    these permutations.
    """

    fan: Fan
    matrices: tuple[IntMatrix, ...]
    ray_permutations: tuple[Perm, ...] = field(compare=False, repr=False)

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


def _frame(fan: Fan) -> tuple[list[int], SmithDecomposition]:
    """Rays spanning Q^rank, and the Smith decomposition of their matrix.

    Starts from the rays of a largest maximal cone, independent in a
    validated fan, and adds rays greedily by index while they stay
    independent; the decomposition is that of the last accepted trial.
    """
    chosen = list(max(fan.max_cones, key=len, default=()))
    dec = fan.cone_snf(tuple(chosen))
    for i in range(fan.num_rays):
        if len(chosen) == fan.rank:
            break
        if i in chosen:
            continue
        trial = chosen + [i]
        trial_dec = smith_normal_form(IntMatrix.from_cols([fan.rays[j] for j in trial], fan.rank))
        if trial_dec.rank == len(trial):
            chosen, dec = trial, trial_dec
    assert len(chosen) == fan.rank, "validated fan must have full-rank rays"
    return chosen, dec


def _scaled_inverse(dec: SmithDecomposition) -> tuple[IntMatrix, int]:
    """(g, den) with m @ g == den * identity, for nonsingular square m = dec.matrix."""
    sol = rational_solve(dec, IntMatrix.identity(dec.matrix.nrows))
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
    frame, frame_dec = _frame(fan)
    frame_inv, den = _scaled_inverse(frame_dec)
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


def involution_type(s: IntMatrix) -> str:
    """Type of an order-<=2 element of GL(n, Z), by its eigenlattice split.

    For 2x2 matrices the four outcomes are "identity", "minus_identity",
    "split_reflection" (conjugate to diag(1, -1); the +1/-1 eigenlattices
    span everything), and "swap_reflection" (conjugate to the basis swap;
    the eigenlattices have index 2).  Raises NotInvolution, also under
    python -O, unless s is square with s @ s = 1.
    """
    n = s.nrows
    ident = IntMatrix.identity(n)
    if s.ncols != n or s @ s != ident:
        raise NotInvolution(f"matrix {s} is not an involution")
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
