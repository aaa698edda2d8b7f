"""Galois descent data: acting groups, field backends, twisting homomorphisms.

A twisted form of a split toric variety is governed by a homomorphism from
the Galois group of a splitting extension into the fan's automorphism group.
This module models the group side: finite groups by multiplication table,
homomorphisms into a fan automorphism group up to conjugacy (with the ray
orbit/stabilizer/coset bookkeeping the cohomology formulas consume), and the
three coefficient backends:

* RealComplexBackend -- the extension C/R;
* FiniteFieldBackend -- F_{q^d}/F_q with K* cyclic of order q^d - 1 and
  Frobenius acting as multiplication by q;
* SymbolicBrauerBackend -- no field at all, just the finite group
  Q = k*/N(K*) together with, for each subgroup H of the Galois group (named
  by its order, a divisor of the degree), the image in Q of the norms from
  the H-fixed subfield.  Enough to evaluate norm quotients symbolically.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Iterable, Sequence

from .exact_linalg import (
    FGAbelianGroup,
    IntMatrix,
    cokernel_presentation,
    image_basis,
    lattice_intersection,
    lattice_subquotient,
)
from .fan_aut import FanAutGroup

MAX_GROUP_ORDER = 10_000
MAX_HOM_GROUP_ORDER = 1000  # enumerate_hom_classes is meant for small acting groups
_MAX_FACTORED = 2**40  # trial division then needs at most 2**20 divisors


class BackendUnsupported(ValueError):
    """The requested computation needs data this backend does not carry."""


class NonCyclicGroup(ValueError):
    """A cyclic-only code path received a non-cyclic group."""


class AssumptionViolated(ValueError):
    """A hypothesis of the norm formula fails for these inputs."""


@dataclass(frozen=True)
class GroupSpec:
    """Finite group given by its multiplication table; element 0 is identity."""

    name: str
    table: tuple[tuple[int, ...], ...]
    generators: tuple[int, ...]

    def __post_init__(self) -> None:
        # input checks raise ValueError, so they also hold under python -O
        n = self.order
        if not 1 <= n <= MAX_GROUP_ORDER:
            raise ValueError(f"group order must be in 1..{MAX_GROUP_ORDER}, got {n}")
        for i, row in enumerate(self.table):
            if len(row) != n or not all(0 <= x < n for x in row):
                raise ValueError(f"table row {i} is not {n} entries in 0..{n - 1}")
        for i in range(n):
            if self.table[0][i] != i or self.table[i][0] != i:
                raise ValueError("element 0 must be neutral")
        for g in self.generators:
            if not 0 <= g < n:
                raise ValueError(f"generator {g} is not an element of a group of order {n}")

    @property
    def order(self) -> int:
        return len(self.table)

    def mult(self, a: int, b: int) -> int:
        return self.table[a][b]

    @cached_property
    def inverses(self) -> tuple[int, ...]:
        out = []
        for a in range(self.order):
            inv = next(b for b in range(self.order) if self.table[a][b] == 0)
            out.append(inv)
        return tuple(out)

    def inverse(self, a: int) -> int:
        return self.inverses[a]

    def power(self, a: int, k: int) -> int:
        x = 0
        k %= self.element_order(a)
        for _ in range(k):
            x = self.table[x][a]
        return x

    def element_order(self, a: int) -> int:
        n, x = 1, a
        while x != 0:
            x = self.table[x][a]
            n += 1
            assert n <= self.order
        return n

    @cached_property
    def cyclic_generator(self) -> int | None:
        for a in range(self.order):
            if self.element_order(a) == self.order:
                return a
        return None

    @property
    def is_cyclic(self) -> bool:
        return self.cyclic_generator is not None

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
    def cyclic(cls, d: int) -> "GroupSpec":
        # checked before the d x d table is built
        if not 1 <= d <= MAX_GROUP_ORDER:
            raise ValueError(f"cyclic group order must be in 1..{MAX_GROUP_ORDER}, got {d}")
        table = tuple(tuple((i + j) % d for j in range(d)) for i in range(d))
        return cls(f"C{d}", table, (1,) if d > 1 else ())

    @classmethod
    def dihedral(cls, order: int) -> "GroupSpec":
        """Dihedral group of the given (even) order 2m, m >= 1.

        Elements 0..m-1 are rotations r^i, elements m..2m-1 are reflections
        s r^i.
        """
        # checked before the table is built
        if not (2 <= order <= MAX_GROUP_ORDER and order % 2 == 0):
            raise ValueError(
                f"dihedral group order must be even and in 2..{MAX_GROUP_ORDER}, got {order}"
            )
        m = order // 2

        def mult(a: int, b: int) -> int:
            fa, ia = divmod(a, m)
            fb, ib = divmod(b, m)
            if fa == 0 and fb == 0:
                return (ia + ib) % m
            if fa == 0 and fb == 1:
                return m + (ib - ia) % m
            if fa == 1 and fb == 0:
                return m + (ia + ib) % m
            return (ib - ia) % m

        table = tuple(tuple(mult(a, b) for b in range(order)) for a in range(order))
        gens = (1, m) if m > 1 else (m,)
        return cls(f"D{order}", table, gens)

    @classmethod
    def explicit(cls, table: Sequence[Sequence[int]], name: str = "G") -> "GroupSpec":
        """Wrap a raw multiplication table, checking the group axioms.

        Associativity is checked in full for orders up to 100 and spot-checked
        beyond that (cubic cost).
        """
        t = tuple(tuple(int(x) for x in row) for row in table)
        n = len(t)
        if any(len(row) != n for row in t):
            raise ValueError(f"table of {n} rows is not square")
        everything = set(range(n))
        for a in range(n):
            if set(t[a]) != everything:
                raise ValueError(f"row {a} is not a permutation")
            if {t[b][a] for b in range(n)} != everything:
                raise ValueError(f"column {a} is not a permutation")
        order_cap = min(n, 100)
        for a in range(order_cap):
            for b in range(order_cap):
                for c in range(order_cap):
                    if t[t[a][b]][c] != t[a][t[b][c]]:
                        raise ValueError("multiplication not associative")
        gens: list[int] = []
        spec = cls(name, t, tuple(range(n)))
        reached = {0}
        for a in range(n):
            if a not in spec.subgroup_closure(gens):
                gens.append(a)
                reached = spec.subgroup_closure(gens)
            if len(reached) == n:
                break
        if spec.subgroup_closure(gens) != frozenset(range(n)):
            raise ValueError("table is not generated")
        return cls(name, t, tuple(gens))


# ---------------------------------------------------------------------------
# homomorphisms into a fan automorphism group, up to conjugacy


@dataclass(frozen=True)
class HomClass:
    """Conjugacy class of homomorphisms group -> fan automorphisms.

    `images[g]` is the index in `aut.matrices` of the image of group element
    g, for the canonical representative (lexicographically least image tuple
    in its conjugation orbit).
    """

    group: GroupSpec
    aut: FanAutGroup
    images: tuple[int, ...]
    orbit_size: int

    def matrix(self, g: int) -> IntMatrix:
        return self.aut.matrices[self.images[g]]

    def ray_permutation(self, g: int) -> tuple[int, ...]:
        return self.aut.ray_permutations[self.images[g]]

    @cached_property
    def kernel(self) -> frozenset[int]:
        ident = self.aut.identity_index
        return frozenset(g for g in range(self.group.order) if self.images[g] == ident)

    @property
    def is_injective(self) -> bool:
        return len(self.kernel) == 1

    @property
    def is_trivial(self) -> bool:
        return len(self.kernel) == self.group.order

    @cached_property
    def ray_orbits(self) -> tuple[tuple[int, ...], ...]:
        """Orbits of the induced ray action, each sorted, ordered by minimum."""
        num_rays = self.aut.fan.num_rays
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

    def orbit_stabilizer(self, orbit: Sequence[int]) -> frozenset[int]:
        """Stabilizer subgroup of the orbit's minimal ray."""
        rep = min(orbit)
        return frozenset(
            g for g in range(self.group.order) if self.ray_permutation(g)[rep] == rep
        )


def _extend_to_hom(
    group: GroupSpec, aut: FanAutGroup, gen_images: Sequence[int]
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


def enumerate_hom_classes(group: GroupSpec, aut: FanAutGroup) -> tuple[HomClass, ...]:
    """All homomorphisms group -> aut, up to conjugation in aut.

    Returned sorted by canonical representative.  The trivial homomorphism is
    always present.  Raises ValueError, before any candidate image is listed,
    when the group has more than MAX_HOM_GROUP_ORDER elements.
    """
    if group.order > MAX_HOM_GROUP_ORDER:
        raise ValueError(
            f"hom enumeration needs an acting group of order at most"
            f" {MAX_HOM_GROUP_ORDER}, got {group.order}"
        )
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
            conj = tuple(aut.mult_index(aut.mult_index(c, x), cinv) for x in rep)
            orbit.add(conj)
        assert orbit <= remaining
        remaining -= orbit
        classes.append(HomClass(group, aut, min(orbit), len(orbit)))
    return tuple(sorted(classes, key=lambda c: c.images))


def kernel_reduction(hom: HomClass) -> tuple[GroupSpec, HomClass, tuple[int, ...]]:
    """Factor a homomorphism through its kernel.

    Returns (quotient group, induced injective hom class, projection) where
    projection[g] is the index of g's coset in the quotient.  The induced hom
    has the same image subgroup of the fan automorphisms, so all orbit data
    agrees with the original.
    """
    group = hom.group
    kernel = hom.kernel
    reps: list[int] = []
    coset_of: dict[int, int] = {}
    for g in range(group.order):
        if g in coset_of:
            continue
        idx = len(reps)
        for k in kernel:
            coset_of[group.mult(g, k)] = idx
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
    quotient = GroupSpec(f"{group.name}/ker", table, tuple(gens))
    images = tuple(hom.images[reps[a]] for a in range(n))
    induced = HomClass(quotient, hom.aut, images, hom.orbit_size)
    assert induced.is_injective
    projection = tuple(coset_of[g] for g in range(group.order))
    return quotient, induced, projection


# ---------------------------------------------------------------------------
# field backends


@dataclass(frozen=True)
class RealComplexBackend:
    """The quadratic extension C/R; Galois group of order two."""

    @cached_property
    def group(self) -> GroupSpec:
        return GroupSpec.cyclic(2)

    def describe(self) -> str:
        return "C/R"


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n in ascending order; [] when n < 2.

    Trial division, so n is checked against 2**40 first: ValueError above it.
    """
    if n > _MAX_FACTORED:
        raise ValueError(f"cannot factor {n}: only numbers up to 2**40 are factored")
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def _prime_power_base(q: int) -> int:
    """The prime p of which q is a power; ValueError when q is no prime power."""
    factors = _prime_factors(q)
    if len(factors) != 1:
        raise ValueError(f"finite-field backend needs a prime power, got q={q}")
    return factors[0]


@dataclass(frozen=True)
class FiniteFieldBackend:
    """The extension F_{q^d} / F_q.

    K* is cyclic of order q^d - 1 with Frobenius acting as multiplication by
    q.  Construction raises ValueError unless q is a prime power at most
    2**40 and d >= 1.  The norm onto F_{q^e} for e | d is multiplication by
    t = (q^d - 1)/(q^e - 1) on Z/(q^d - 1); t divides q^d - 1, so the image
    has order (q^d - 1)/t = q^e - 1: every intermediate norm is onto, and
    there is nothing to check per divisor of d.
    """

    q: int
    d: int

    def __post_init__(self) -> None:
        _prime_power_base(self.q)  # raises if not a prime power
        if self.d < 1:
            raise ValueError(f"finite-field backend needs degree d >= 1, got d={self.d}")

    @property
    def mult_order(self) -> int:
        return self.q**self.d - 1

    @cached_property
    def group(self) -> GroupSpec:
        return GroupSpec.cyclic(self.d)

    def describe(self) -> str:
        return f"F_{self.q}^{self.d}/F_{self.q}"

    def norm_image_generator(self, order: int) -> int:
        """Generator of the image of the norm to the fixed field of the
        subgroup of the Galois group Z/d whose order h = `order` divides d.

        The fixed field is F_{q^(d/h)}, and the norm image in
        K* = Z/(q^d - 1) is generated by (q^d - 1)/(q^(d/h) - 1).
        """
        assert self.d % order == 0
        e = self.d // order
        return (self.q**self.d - 1) // (self.q**e - 1)


@dataclass(frozen=True)
class SymbolicBrauerBackend:
    """Norm data of an abstract cyclic extension K/k of degree d.

    quotient_factors presents the finite group Q = k*/N_{K/k}(K*); images
    maps the order h of each subgroup H of Z/d (h divides d, and H is the
    only subgroup of that order) to generators (columns) of the subgroup
    (k* intersect N_{K/K^H}(K*)) / N_{K/k}(K*) of Q.
    """

    degree: int
    quotient_factors: tuple[int, ...]
    images: tuple[tuple[int, IntMatrix], ...]

    def __post_init__(self) -> None:
        self.group  # GroupSpec.cyclic rejects a degree below 1
        if any(f < 2 for f in self.quotient_factors):
            raise ValueError(
                f"invariant factors of Q must be at least 2, got {list(self.quotient_factors)}"
            )
        t = len(self.quotient_factors)
        listed = dict(self.images)
        for h, gens in self.images:
            if type(h) is not int or h < 1 or self.degree % h:
                raise ValueError(f"{h!r} is not the order of a subgroup of Z/{self.degree}")
            if gens.nrows != t:
                raise ValueError(
                    f"norm image of the subgroup of order {h} needs {t} rows, one per"
                    f" factor of Q, got {gens.nrows}"
                )
        # monotonicity: larger subgroup of the Galois group means a smaller
        # subfield tower step, hence a larger norm image is *not* possible:
        # ha dividing hb (H_a inside H_b) forces image(hb) inside image(ha).
        # Z^t / big is finite, so adding gb's columns leaves the cokernel
        # unchanged exactly when they already lie in big.
        for ha, ga in listed.items():
            for hb, gb in listed.items():
                if ha != hb and hb % ha == 0:
                    big = ga.hstack(self._modulus_cols())
                    if cokernel_presentation(big) != cokernel_presentation(big.hstack(gb)):
                        raise AssumptionViolated(
                            f"norm image of the subgroup of order {hb} is not contained"
                            f" in that of the subgroup of order {ha}"
                        )

    def _modulus_cols(self) -> IntMatrix:
        return IntMatrix.diagonal(list(self.quotient_factors))

    @cached_property
    def group(self) -> GroupSpec:
        return GroupSpec.cyclic(self.degree)

    def describe(self) -> str:
        return f"symbolic cyclic degree {self.degree}, Q = {FGAbelianGroup.from_factors(self.quotient_factors)}"

    def image_subgroup(self, order: int) -> IntMatrix:
        """Norm-image generators for the subgroup of Z/d of order `order`."""
        t = len(self.quotient_factors)
        for h, gens in self.images:
            if h == order:
                return gens
        if order == self.degree:
            return IntMatrix.from_cols([], nrows=t)  # norms from K to k: zero in Q
        if order == 1:
            return IntMatrix.identity(t)  # no norm condition at all
        raise BackendUnsupported(
            f"no norm-image data for the subgroup of order {order} of Z/{self.degree}"
        )

    @classmethod
    def from_json(cls, text: str, degree: int) -> "SymbolicBrauerBackend":
        """Read ``{"Q": {"invariant_factors": [...]}, "images": [...]}``.

        Each image is ``{"subgroup_gens": [...], "subgroup_of_Q": [[...], ...]}``
        with columns of length len(invariant_factors); the generators g_i
        span the subgroup of Z/degree of order degree / gcd(degree, g_i...).
        A missing or ill-typed key raises ValueError naming it.
        """
        data = json.loads(text)
        q_data = _json_key(data, "Q", dict)
        factors = _json_ints(_json_key(q_data, "invariant_factors", list), "'invariant_factors'")
        if any(f < 2 for f in factors):
            raise ValueError(
                f"symbolic backend JSON: 'invariant_factors' must be at least 2, got {list(factors)}"
            )
        images = []
        GroupSpec.cyclic(degree)  # rejects a degree below 1 before it divides
        for item in _json_key(data, "images", list):
            gens = _json_ints(_json_key(item, "subgroup_gens", list), "'subgroup_gens'")
            order = degree // math.gcd(degree, *gens)
            cols = [
                _json_ints(col, "each column of 'subgroup_of_Q'")
                for col in _json_key(item, "subgroup_of_Q", list)
            ]
            if any(len(col) != len(factors) for col in cols):
                raise ValueError(
                    f"symbolic backend JSON: 'subgroup_of_Q' columns must have length {len(factors)}"
                )
            images.append((order, IntMatrix.from_cols(cols, nrows=len(factors))))
        return cls(degree, factors, tuple(images))


def _json_key(obj: object, key: str, kind: type) -> Any:
    """obj[key], checked to be a `kind`; ValueError naming the key otherwise."""
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f"symbolic backend JSON: missing key {key!r}")
    value = obj[key]
    if not isinstance(value, kind):
        raise ValueError(f"symbolic backend JSON: {key!r} must be a {kind.__name__}")
    return value


def _json_ints(value: object, what: str) -> tuple[int, ...]:
    """The entries of a JSON list of integers; ValueError naming `what` otherwise."""
    if not isinstance(value, list) or not all(type(x) is int for x in value):
        raise ValueError(f"symbolic backend JSON: {what} must be a list of integers")
    return tuple(value)


FieldBackend = RealComplexBackend | FiniteFieldBackend | SymbolicBrauerBackend


def reduce_backend(backend: FieldBackend, kernel_order: int) -> FieldBackend | None:
    """Backend for the extension fixed by the kernel of a twisting hom.

    Returns None when the reduced extension is trivial (full kernel), in
    which case the cohomology vanishes outright.
    """
    if kernel_order == 1:
        return backend
    if isinstance(backend, RealComplexBackend):
        assert kernel_order == 2
        return None
    if isinstance(backend, FiniteFieldBackend):
        assert backend.d % kernel_order == 0
        d2 = backend.d // kernel_order
        return None if d2 == 1 else FiniteFieldBackend(backend.q, d2)
    raise BackendUnsupported(
        "symbolic norm data cannot be restricted to a proper subextension"
    )


def torsion_factor_invertible(backend: FieldBackend, factor: int) -> bool:
    """Is multiplication by `factor` invertible on the coefficient units?

    For C/R the units are divisible, so any nonzero factor acts invertibly on
    the cohomology this library computes.  For a finite field, multiplication
    by `factor` on the cyclic K* = Z/(q^d - 1) is a bijection iff `factor` is
    prime to q^d - 1.
    """
    assert factor >= 1
    if isinstance(backend, RealComplexBackend):
        return True
    if isinstance(backend, FiniteFieldBackend):
        return math.gcd(factor, backend.mult_order) == 1
    raise BackendUnsupported("symbolic backend carries no unit-group arithmetic")


# ---------------------------------------------------------------------------
# norm quotients


def norm_quotient(backend: FieldBackend, stabilizer_orders: Sequence[int]) -> FGAbelianGroup:
    """The group (k* meet the norm images from all fixed fields) / N_{K/k}(k*).

    `stabilizer_orders` lists, per ray orbit, the order h of the orbit's
    stabilizer in the cyclic Galois group Z/d.  h divides d and names the
    subgroup, the only one of that order; its fixed field, of degree d/h
    over k, is the field of definition of that orbit's coordinate.
    """
    d = backend.group.order
    assert all(h > 0 and d % h == 0 for h in stabilizer_orders), "orders must divide d"

    if isinstance(backend, RealComplexBackend):
        if 2 in stabilizer_orders:
            # some coordinate is defined over R: its positive reals are norms
            return FGAbelianGroup.trivial()
        return FGAbelianGroup.cyclic(2)

    if isinstance(backend, FiniteFieldBackend):
        # subgroups of the cyclic K* = Z/c are "multiples of g" for g | c;
        # the intersection of multiples-of-a and multiples-of-b is
        # multiples-of-lcm(a, b)
        c = backend.mult_order
        base_units = c // (backend.q - 1)  # generator of k* inside Z/c
        gens = [base_units] + [backend.norm_image_generator(h) for h in stabilizer_orders]
        assert all(c % g == 0 for g in gens)
        meet_gen = math.lcm(*gens)
        # numerator = <meet_gen>, denominator = k* = <base_units>
        assert meet_gen % base_units == 0 or base_units % meet_gen == 0
        assert base_units % meet_gen == 0, "numerator must contain the full norm image"
        result = FGAbelianGroup.cyclic(base_units // meet_gen)
        assert result.is_trivial(), "finite-field norms are surjective; quotient must vanish"
        return result

    if isinstance(backend, SymbolicBrauerBackend):
        t = len(backend.quotient_factors)
        moduli = backend._modulus_cols()
        if t == 0:
            return FGAbelianGroup.trivial()
        current = IntMatrix.identity(t)
        for h in stabilizer_orders:
            pre = backend.image_subgroup(h).hstack(moduli)
            current = lattice_intersection(current, pre)
        return lattice_subquotient(image_basis(current), moduli)

    raise BackendUnsupported(f"unknown backend {backend!r}")
