"""Finite groups by multiplication table, and the homomorphism enumeration
that `galois.enumerate_hom_classes` replaced, kept as its reference.

`TableGroup` is the former general `GroupSpec`: any finite group, element 0
the identity, stored as its full table.  The tests build only the cyclic
one, `TableGroup.cyclic(d)`, to check `GroupSpec`, `HomClass` and kernel
reduction against a route that reads nothing but the table: a `TableHom`
keeps the image of every element, where a `HomClass` keeps its generator's.  `hom_classes`
finds every homomorphism by extending each tuple of generator images along
the Cayley graph and checking all |G|^2 products, then groups them into
conjugation orbits; `reduce_kernel` builds the quotient table coset by coset.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from toricforms.fan_aut import FanAutGroup


@dataclass(frozen=True)
class TableGroup:
    """Finite group given by its multiplication table; element 0 is identity."""

    name: str
    table: tuple[tuple[int, ...], ...]
    generators: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.table)

    def mult(self, a: int, b: int) -> int:
        return self.table[a][b]

    def element_order(self, a: int) -> int:
        n, x = 1, a
        while x != 0:
            x = self.table[x][a]
            n += 1
        return n

    def subgroup_closure(self, gens: Iterable[int]) -> frozenset[int]:
        seen = {0}
        frontier = [0]
        gens = list(gens)
        while frontier:
            nxt = []
            for a in frontier:
                for g in gens:
                    x = self.table[a][g]
                    if x not in seen:
                        seen.add(x)
                        nxt.append(x)
            frontier = nxt
        return frozenset(seen)

    @classmethod
    def cyclic(cls, d: int) -> "TableGroup":
        table = tuple(tuple((i + j) % d for j in range(d)) for i in range(d))
        return cls(f"C{d}", table, (1,) if d > 1 else ())


@dataclass(frozen=True)
class TableHom:
    """A homomorphism class as the reference enumeration reports it:
    `images[g]` for every element g, the lexicographically least image tuple
    of its conjugation orbit."""

    group: TableGroup
    aut: FanAutGroup
    images: tuple[int, ...]
    orbit_size: int

    def ray_permutation(self, g: int) -> tuple[int, ...]:
        return self.aut.ray_permutations[self.images[g]]

    @cached_property
    def kernel(self) -> frozenset[int]:
        ident = self.aut.identity_index
        return frozenset(g for g in range(self.group.order) if self.images[g] == ident)

    @cached_property
    def ray_orbits(self) -> tuple[tuple[int, ...], ...]:
        """Orbits of the rays under every group element, each sorted."""
        num_rays = len(self.aut.fan_key[1])
        seen = [False] * num_rays
        orbits = []
        for start in range(num_rays):
            if seen[start]:
                continue
            orbit = set()
            frontier = [start]
            seen[start] = True
            while frontier:
                r = frontier.pop()
                orbit.add(r)
                for g in range(self.group.order):
                    img = self.ray_permutation(g)[r]
                    if not seen[img]:
                        seen[img] = True
                        frontier.append(img)
            orbits.append(tuple(sorted(orbit)))
        return tuple(sorted(orbits))


def orbit_stabilizer(hom, orbit: Sequence[int]) -> frozenset[int]:
    """The elements g of Z/d whose image h^g under the hom class `hom` fixes
    the orbit's minimal ray: h's ray permutation applied g times."""
    rep = min(orbit)
    stabilizer, ray = set(), rep
    for g in range(hom.group.order):
        if ray == rep:
            stabilizer.add(g)
        ray = hom.ray_permutation[ray]
    return frozenset(stabilizer)


def _extend_to_hom(
    group: TableGroup, aut: FanAutGroup, gen_images: Sequence[int]
) -> tuple[int, ...] | None:
    """Build the full image tuple from generator images, or None if not a hom."""
    images: dict[int, int] = {0: aut.identity_index}
    frontier = [0]
    gens = list(zip(group.generators, gen_images))
    while frontier:
        nxt = []
        for a in frontier:
            for g, hg in gens:
                b = group.mult(a, g)
                img = aut.mult_index(images[a], hg)
                if b not in images:
                    images[b] = img
                    nxt.append(b)
                elif images[b] != img:
                    return None
        frontier = nxt
    if len(images) != group.order:
        return None
    out = tuple(images[a] for a in range(group.order))
    for a in range(group.order):
        for b in range(group.order):
            if out[group.mult(a, b)] != aut.mult_index(out[a], out[b]):
                return None
    return out


def hom_classes(group: TableGroup, aut: FanAutGroup) -> tuple[TableHom, ...]:
    """All homomorphisms group -> aut up to conjugation, sorted by images."""
    gen_orders = [group.element_order(g) for g in group.generators]
    slots = [
        [h for h in range(aut.order) if gen_orders[k] % aut.element_order(h) == 0]
        for k in range(len(group.generators))
    ]
    homs: set[tuple[int, ...]] = set()
    for gen_images in itertools.product(*slots):
        full = _extend_to_hom(group, aut, gen_images)
        if full is not None:
            homs.add(full)
    if not group.generators:
        homs.add((aut.identity_index,))
    classes = []
    remaining = set(homs)
    while remaining:
        rep = min(remaining)
        orbit = set()
        for c in range(aut.order):
            cinv = aut.inverse_indices[c]
            orbit.add(tuple(aut.mult_index(aut.mult_index(c, x), cinv) for x in rep))
        assert orbit <= remaining
        remaining -= orbit
        classes.append(TableHom(group, aut, min(orbit), len(orbit)))
    return tuple(sorted(classes, key=lambda c: c.images))


def reduce_kernel(hom: TableHom) -> TableHom:
    """The induced injective hom from the quotient group, built by cosets."""
    group = hom.group
    reps: list[int] = []
    coset_of: dict[int, int] = {}
    for g in range(group.order):
        if g in coset_of:
            continue
        for k in hom.kernel:
            coset_of[group.mult(g, k)] = len(reps)
        reps.append(g)
    n = len(reps)
    table = tuple(
        tuple(coset_of[group.mult(reps[a], reps[b])] for b in range(n)) for a in range(n)
    )
    gens = []
    for g in group.generators:
        c = coset_of[g]
        if c != 0 and c not in gens:
            gens.append(c)
    quotient = TableGroup(f"{group.name}/ker", table, tuple(gens))
    return TableHom(quotient, hom.aut, tuple(hom.images[r] for r in reps), hom.orbit_size)
