"""Galois descent data: the cyclic Galois group, field backends, twisting
homomorphisms.

A twisted form of a split toric variety is governed by a homomorphism from
the Galois group of a splitting extension into the fan's automorphism group.
Every extension here is cyclic, so the group is Z/d (`GroupSpec`) and a
homomorphism is fixed by the image of the generator 1: its classes up to
conjugacy are the conjugacy classes of fan automorphisms whose order divides
d, with the ray-orbit bookkeeping the cohomology formulas consume.  The
three coefficient backends are:

* RealComplexBackend -- the extension C/R;
* FiniteFieldBackend -- F_{q^d}/F_q with K* cyclic of order q^d - 1 and
  Frobenius acting as multiplication by q;
* SymbolicBrauerBackend -- no field at all, just the finite group
  Q = k*/N(K*) together with, for each subgroup H of the Galois group (named
  by its order, a divisor of the degree), the image in Q of the norms from
  the H-fixed subfield.  Enough to evaluate norm quotients symbolically.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Any, Sequence

from .exact_linalg import (
    FGAbelianGroup,
    IntMatrix,
    _check_int,
    index_mod,
    intersection_mod,
    quotient_mod,
)
from .fan_aut import FanAutGroup, _cycles
from .fans import TooLarge

MAX_GROUP_ORDER = 10_000
_MAX_FACTORED = 2**40  # trial division then needs at most 2**20 divisors


class BackendUnsupported(ValueError):
    """The requested computation needs data this backend does not carry."""


class AssumptionViolated(ValueError):
    """A hypothesis of the norm formula fails for these inputs."""


@dataclass(frozen=True)
class GroupSpec:
    """The cyclic group Z/d of order d: elements 0..d-1 under addition mod d.

    Element 1 is the distinguished generator (complex conjugation, or
    Frobenius).  Construction raises TypeError unless d is exactly an int,
    ValueError when d < 1 and TooLarge when d > MAX_GROUP_ORDER.
    """

    order: int

    def __post_init__(self) -> None:
        # typed errors, so the check also holds under python -O
        _check_int(self.order, "order")
        if not 1 <= self.order <= MAX_GROUP_ORDER:
            raise (ValueError if self.order < 1 else TooLarge)(
                f"cyclic group order must be in 1..{MAX_GROUP_ORDER}, got {self.order}"
            )

    @classmethod
    def cyclic(cls, d: int) -> "GroupSpec":
        return cls(d)

    @property
    def name(self) -> str:
        return f"C{self.order}"

    @property
    def generators(self) -> tuple[int, ...]:
        return (1,) if self.order > 1 else ()


def _check_subgroup_order(h: object, d: int) -> None:
    """ValueError unless h is the order of a subgroup of Z/d: a positive divisor."""
    if type(h) is not int or h < 1 or d % h:
        raise ValueError(f"{h!r} is not the order of a subgroup of Z/{d}")


# ---------------------------------------------------------------------------
# homomorphisms into a fan automorphism group, up to conjugacy


@dataclass(frozen=True)
class HomClass:
    """Conjugacy class of homomorphisms Z/d -> fan automorphisms.

    A homomorphism is fixed by the image h of the generator 1, whose order
    divides d: element g of Z/d goes to h^g.  `generator` is the index in
    `aut.matrices` of h for the canonical representative, the h of least
    index in its conjugacy class, and `orbit_size` the number of conjugates
    of h.  The kernel is the multiples of `order`, the order of h.
    """

    group: GroupSpec
    aut: FanAutGroup
    generator: int
    orbit_size: int

    @property
    def matrix(self) -> IntMatrix:
        """The cocharacter matrix of h."""
        return self.aut.matrices[self.generator]

    @property
    def ray_permutation(self) -> tuple[int, ...]:
        """The ray permutation of h."""
        return self.aut.ray_permutations[self.generator]

    @cached_property
    def order(self) -> int:
        return self.aut.element_order(self.generator)

    @property
    def is_trivial(self) -> bool:
        return self.order == 1

    @cached_property
    def ray_orbits(self) -> tuple[tuple[int, ...], ...]:
        """Orbits of the induced ray action, each sorted, ordered by minimum:
        the cycles of the generator's ray permutation."""
        return tuple(tuple(sorted(cycle)) for cycle in _cycles(self.ray_permutation))


def enumerate_hom_classes(group: GroupSpec, aut: FanAutGroup) -> tuple[HomClass, ...]:
    """All homomorphisms Z/d -> aut, up to conjugation in aut.

    One class per conjugacy class of elements h whose order divides d, as
    `FanAutGroup.classes_dividing` lists them once per d and the group
    keeps them: each class by its least member h, the generator's image,
    and its size.  That walk is one pass over the group's elements whatever
    d is, d entering only through which element orders divide it.  The
    classes come sorted by h; the trivial homomorphism is always present.
    Raises TypeError naming the argument unless group is a GroupSpec and
    aut a FanAutGroup.
    """
    for name, value, kind in (("group", group, GroupSpec), ("aut", aut, FanAutGroup)):
        if not isinstance(value, kind):
            raise TypeError(f"{name} must be a {kind.__name__}, got {type(value).__name__}")
    return tuple(HomClass(group, aut, h, size) for h, size in aut.classes_dividing(group.order))


def kernel_reduction(hom: HomClass) -> HomClass:
    """Factor a homomorphism Z/d -> aut through its kernel.

    The generator's image h has order e dividing d, the kernel is the
    multiples of e, and the quotient is Z/e with g mapping to g mod e.
    Returns the induced injective hom class from Z/e, with the same
    generator h.  It has the same image subgroup of the fan automorphisms,
    so all orbit data agrees with the original.
    """
    return HomClass(GroupSpec.cyclic(hom.order), hom.aut, hom.generator, hom.orbit_size)


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


@lru_cache(maxsize=64)
def _prime_factors(n: int) -> tuple[int, ...]:
    """Distinct prime factors of n in ascending order; () when n < 2.

    Trial division, so n is checked against 2**40 first: TooLarge above it.
    Kept for the last 64 n, since one op checks its q in several places.
    """
    if n > _MAX_FACTORED:
        raise TooLarge(f"cannot factor {n}: only numbers up to 2**40 are factored")
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
    return tuple(out)


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
    q.  Construction raises TypeError unless q and d are exactly ints,
    TooLarge when q exceeds 2**40, and ValueError unless q is a prime power
    and d >= 1.  The norm onto F_{q^e} for e | d
    is multiplication by t = (q^d - 1)/(q^e - 1) on Z/(q^d - 1); t divides
    q^d - 1, so the image has order (q^d - 1)/t = q^e - 1: every
    intermediate norm is onto, and there is nothing to check per divisor of d.
    """

    q: int
    d: int

    def __post_init__(self) -> None:
        # before `_prime_factors`, whose cache answers 3.0 with the entry for 3
        _check_int(self.q, "q")
        _check_int(self.d, "d")
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
        K* = Z/(q^d - 1) is generated by (q^d - 1)/(q^(d/h) - 1).  Raises
        ValueError unless `order` divides d.
        """
        _check_subgroup_order(order, self.d)
        e = self.d // order
        return (self.q**self.d - 1) // (self.q**e - 1)


@dataclass(frozen=True)
class SymbolicBrauerBackend:
    """Norm data of an abstract cyclic extension K/k of degree d.

    quotient_factors presents the finite group Q = k*/N_{K/k}(K*); images
    maps the order h of each subgroup H of Z/d (h divides d, and H is the
    only subgroup of that order) to generators (columns) of the subgroup
    (k* intersect N_{K/K^H}(K*)) / N_{K/k}(K*) of Q.  Each order is listed
    at most once.

    Every lattice of norm data contains the relations diag(factors) Z^t of
    Q, hence c Z^t for c the exponent of Q, so its containments and
    quotients are taken mod c, every entry below c, whatever the data.
    """

    degree: int
    quotient_factors: tuple[int, ...]
    images: tuple[tuple[int, IntMatrix], ...]

    def __post_init__(self) -> None:
        _check_int(self.degree, "degree")
        self.group  # GroupSpec.cyclic rejects a degree below 1
        if any(f < 2 for f in self.quotient_factors):
            raise ValueError(
                f"invariant factors of Q must be at least 2, got {list(self.quotient_factors)}"
            )
        t = len(self.quotient_factors)
        listed: dict[int, IntMatrix] = {}
        for h, gens in self.images:
            _check_subgroup_order(h, self.degree)
            if h in listed:
                raise ValueError(
                    f"two norm images for the subgroup of order {h} of Z/{self.degree}"
                )
            if gens.nrows != t:
                raise ValueError(
                    f"norm image of the subgroup of order {h} needs {t} rows, one per"
                    f" factor of Q, got {gens.nrows}"
                )
            listed[h] = gens
        # monotonicity: larger subgroup of the Galois group means a smaller
        # subfield tower step, hence a larger norm image is *not* possible:
        # ha dividing hb (H_a inside H_b) forces image(hb) inside image(ha).
        # big contains c Z^t, so adding gb's columns leaves its index
        # unchanged exactly when they already lie in big.
        c = math.lcm(*self.quotient_factors)
        for ha, ga in listed.items():
            for hb, gb in listed.items():
                if ha != hb and hb % ha == 0:
                    big = ga.hstack(self._modulus_cols())
                    if index_mod(big, c) != index_mod(big.hstack(gb), c):
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


# ---------------------------------------------------------------------------
# norm quotients


def norm_quotient(backend: FieldBackend, stabilizer_orders: Sequence[int]) -> FGAbelianGroup:
    """The group (k* meet the norm images from all fixed fields) / N_{K/k}(k*).

    `stabilizer_orders` lists, per ray orbit, the order h of the orbit's
    stabilizer in the cyclic Galois group Z/d.  h divides d and names the
    subgroup, the only one of that order; its fixed field, of degree d/h
    over k, is the field of definition of that orbit's coordinate.  Raises
    ValueError unless every order divides d.  Symbolic data is intersected
    and divided mod the exponent of Q, so no entry outgrows Q.
    """
    d = backend.group.order
    for h in stabilizer_orders:
        _check_subgroup_order(h, d)

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
        assert base_units % meet_gen == 0, "numerator must contain the full norm image"
        result = FGAbelianGroup.cyclic(base_units // meet_gen)
        assert result.is_trivial(), "finite-field norms are surjective; quotient must vanish"
        return result

    if isinstance(backend, SymbolicBrauerBackend):
        t = len(backend.quotient_factors)
        moduli = backend._modulus_cols()
        if t == 0:
            return FGAbelianGroup.trivial()
        c = math.lcm(*backend.quotient_factors)
        current = IntMatrix.identity(t)
        for h in stabilizer_orders:
            current = intersection_mod(current, backend.image_subgroup(h).hstack(moduli), c)
        return quotient_mod(current, moduli, c)

    raise BackendUnsupported(f"unknown backend {backend!r}")
