"""First Galois cohomology of tori attached to fans, by three routes.

All computations are exact.  The module implements:

* the involution formula for real tori: conjugation acts on the
  cocharacter lattice Z^n by an integer involution s, and Reiner's
  classification of Z[C_2]-lattices gives H^1 = (Z/2)^b with
  b = (n - tr s) / 2 - rank over F_2 of (1 + s);
* the kernel-of-norm / image-of-(Frobenius - 1) computation for tori over
  finite fields, which compares the orders of the two groups, each an
  `index_mod` mod q^d - 1: they agree, since H^1 is trivial by Lang's
  theorem, and a disagreement raises LangViolated;
* the norm-formula route for cyclic Galois groups, which works on the fan's
  ray coordinates and never touches the cocharacter action directly: over
  R it is one subquotient of Z^rays read off the class-group presentation
  Cl = Z^rays / (ray coordinates), over finite fields the fixed points
  modulo norms Y^G / N Y of Y = Hom(Cl, K*) inside (K*)^rays, one
  `quotient_mod` mod q^d - 1;
* a literal cocycle brute force over finite modules, one primary part at a
  time.

`hom_class_h1`, the value `classify` reports, picks the first two, on the
rank x rank cocharacter matrix, and the norm formula only for symbolic norm
data; `oracle_routes` runs all three routes over a finite field.  The tests
keep the subquotients the first two once built as their references.  Having
genuinely independent routes is the point: they cross-check each other on
every example, so a bug in one presentation cannot silently agree with the
same bug in another.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Sequence

from .exact_linalg import (
    FGAbelianGroup,
    IntMatrix,
    basis_mod,
    congruence_kernel,
    index_mod,
    kernel_basis,
    lattice_subquotient,
    quotient_mod,
    rank_mod_2,
)
from .fan_aut import _check_involution, _cycles, automorphism_group
from .fans import Fan, TooLarge, class_group
from .galois import (
    AssumptionViolated,
    BackendUnsupported,
    FieldBackend,
    FiniteFieldBackend,
    GroupSpec,
    HomClass,
    RealComplexBackend,
    SymbolicBrauerBackend,
    _prime_factors,
    enumerate_hom_classes,
    kernel_reduction,
    norm_quotient,
)


class LangViolated(ArithmeticError):
    """H^1 of a torus over a finite field came out nontrivial, which Lang's
    theorem rules out: a fault in the arithmetic, never in the input."""


# ---------------------------------------------------------------------------
# real tori via the involution formula


def h1_real_involution(s: IntMatrix) -> FGAbelianGroup:
    """H^1 of the real Galois group acting on a torus through an involution.

    `s` is the integer matrix by which complex conjugation twists the
    cocharacter lattice Z^n.  The complex points of the torus split
    equivariantly as (positive reals)^n x (circle)^n; the positive-real
    factor is a Q-vector space, so a finite group has no cohomology there,
    and everything lives on the circles.  Conjugation inverts each circle,
    so on (R/Z)^n the twisted action is z -> -s z.  Feeding the exponential
    sequence 0 -> Z^n -> R^n -> (R/Z)^n -> 0 through the long exact sequence
    (the middle term again has no cohomology) identifies H^1 of the circles
    with H^2 of the two-element group on Z^n acting by -s, and for a cyclic
    group H^2 is fixed vectors modulo norms:

        H^1  =  ker(s + 1 : Z^n -> Z^n)  /  (1 - s) Z^n.

    By Reiner's classification of Z[C_2]-lattices (Proc. AMS 8, 1957), s is
    conjugate in GL(n, Z) to a sum of a trivial blocks (1), b sign blocks
    (-1) and c swap blocks ([[0, 1], [1, 0]]), which add 0, Z/2 and 0 to the
    quotient, so H^1 = (Z/2)^b.  Two invariants give b with no Smith form:
    b + c = (n - tr s) / 2, the rank of 1 - s, and c is the rank over F_2
    of 1 + s, which is 2, 0 and [[1, 1], [1, 1]] on the three blocks.
    """
    ident = _check_involution(s)
    trace = sum(row[i] for i, row in enumerate(s.rows))
    signs = (s.nrows - trace) // 2 - rank_mod_2(s + ident)
    return FGAbelianGroup(0, (2,) * signs)


# ---------------------------------------------------------------------------
# norm-formula route (cyclic Galois group, quotient presentation)


def _permutation_matrix(perm: Sequence[int]) -> IntMatrix:
    n = len(perm)
    cols = []
    for i in range(n):
        col = [0] * n
        col[perm[i]] = 1
        cols.append(tuple(col))
    return IntMatrix.from_cols(cols, n)


def _diagonal_degree(fan: Fan) -> bool:
    """True when the class group is Z and every ray has degree one.

    In that case the ray-coordinate subtorus is one split multiplicative
    group with the plain Galois action, and the norm quotient over the orbit
    stabilizers is the whole answer.  With Cl = Z the ray relations are the
    multiples of one primitive vector, which is the degree row up to sign;
    (1, ..., 1) is primitive, so it is that vector exactly when the rays sum
    to zero.
    """
    return class_group(fan) == FGAbelianGroup.free(1) and not any(map(sum, zip(*fan.rays)))


def _check_degree(degree: int, hom: HomClass) -> None:
    """ValueError naming `backend` unless its extension degree is the order of
    the group `hom` twists by; a check that holds under python -O."""
    if degree != hom.group.order:
        raise ValueError(
            f"backend: extension degree {degree} differs from the order"
            f" {hom.group.order} of the twisting group of hom"
        )


def _check_hom_class(fan: Fan, hom: HomClass, backend: FieldBackend) -> None:
    """ValueError naming `hom` unless it is a hom class of `fan`, and as
    `_check_degree` unless the backend's Galois group has the order of the
    group `hom` twists by.  A class is of a fan when its group was built on
    an equal fan."""
    if hom.aut.fan_key != (fan.rank, fan.rays, fan.max_cones):
        raise ValueError("hom: a hom class of another fan")
    _check_degree(backend.group.order, hom)


def _h1_real_quotient_presentation(fan: Fan, hom: HomClass) -> FGAbelianGroup:
    """H^1 over R from the presentation Cl = Z^rays / im R of the class group.

    R is the rays x rank matrix of ray coordinates and P the ray permutation
    of complex conjugation; G is the group of order two and Hhat is Tate
    cohomology.  The dense torus is the Cox quotient T = X/Y with
    X = (C*)^rays and Y = Hom(Cl, C*).  X is induced orbit by orbit, so
    H^1(X) = 0 (Shapiro and Hilbert 90), and since H^2 = Hhat^0 for a cyclic
    group the long exact sequence gives H^1(T) = ker(Hhat^0(G, Y) ->
    Hhat^0(G, X)).  Only the circles count: C* is (positive reals) x
    (circle) equivariantly and the positive reals are uniquely divisible.
    Conjugation is -1 on the circle R/Z, so up to uniquely divisible parts
    the circles of Y and X are the duals Hom(-, Q/Z) of Cl and Z^rays with
    the generator acting by tau = -P.  Tate duality (Hhat^0 of a dual is the
    dual of Hhat^-1, and Hhat^-1(G, A) = ker(1 + tau) / (tau - 1) A) turns
    the kernel into the dual of coker(Hhat^-1(G, Z^rays) -> Hhat^-1(G, Cl)).  A finite group is
    isomorphic to its dual, and lifting the cokernel to Z^rays gives

      H^1  =  {x : (I - P) x in im R}  /  (ker(I - P) + (I + P) Z^rays + im R).

    P^2 = I puts (I + P) Z^rays inside ker(I - P), so the denominator is
    spanned by ker(I - P) and im R.  Torsion in Cl and fans that are not
    complete need no special case; a fixed ray contributes its unit vector
    through ker(I - P).
    """
    m = fan.num_rays
    p = _permutation_matrix(hom.ray_permutation)
    r = fan.ray_rows
    ident = IntMatrix.identity(m)
    # (x, u) with (I - P) x = R u: the lifts x are the numerator
    pairs = kernel_basis((ident - p).hstack(-r))
    lifts = IntMatrix._trusted(pairs.rows[:m], pairs.ncols)
    return lattice_subquotient(lifts, kernel_basis(ident - p).hstack(r))


def _h1_finite_field_quotient_presentation(
    fan: Fan, hom: HomClass, backend: FiniteFieldBackend
) -> FGAbelianGroup:
    """H^1 over F_q as fixed points modulo norms of Y, all mod q^d - 1.

    Same skeleton as the real case: X = (K*)^rays carries Frobenius
    (multiplication by q) composed with the ray permutation P, Y =
    Hom(Cl, K*) is the subgroup cut out by the ray characters R, and the
    dense torus is X/Y.  X is induced orbit by orbit, so by Shapiro its
    cohomology is that of the orbit stabilizers on K*: H^1(X) = 0 by
    Hilbert 90, and Hhat^0(G, X) = 0 because every norm between finite
    fields is onto.  For a cyclic group H^2 = Hhat^0, so the long exact
    sequence gives H^1(T) = ker(Hhat^0(G, Y) -> Hhat^0(G, X)) = Hhat^0(G, Y)
    = Y^G / N Y.  With N the norm operator sum of (qP)^j:

      numerator   {z : R z = 0, (qP - I) z = 0}  +  c Z^rays
      denominator N {z : R z = 0}  +  c Z^rays

    The fixed lattice is read off the ray orbits.  (qP - I) z = 0 mod c says
    z[perm[i]] = q z[i]: on a cycle i_0 -> i_1 -> ... of length L this gives
    z[i_k] = q^k z[i_0] and (q^L - 1) z[i_0] = 0.  L divides d, so q^L - 1
    divides c, and ker(qP - I) is c Z^rays plus one generator per orbit,

      b_O  =  (c / (q^L - 1)) (e_{i_0} + q e_{i_1} + ... + q^(L-1) e_{i_(L-1)})  mod c.

    With B the rays x orbits matrix of these generators, the numerator is
    B K + c Z^rays for K the congruence kernel of R B mod c.

    Both lattices contain c Z^rays, so every step runs mod c and no entry
    exceeds c: the kernels come from `congruence_kernel`, B K and the
    norms are reduced mod c, and `quotient_mod` divides the two, checking
    that the norms lie in the fixed lattice, with no Smith form: the
    quotient is trivial by Lang's theorem.

    The presentation assumes every torsion factor f of the class group
    invertible on the units K* = Z/c, that is gcd(f, c) = 1; it raises
    AssumptionViolated otherwise.
    """
    q = backend.q
    c = backend.mult_order
    for f in class_group(fan).invariant_factors:
        if math.gcd(f, c) != 1:
            raise AssumptionViolated(
                f"class group torsion factor {f} is not invertible on the unit "
                f"group of {backend.describe()}"
            )
    perm = hom.ray_permutation
    fixed_lattice = _fixed_ray_lattice(fan, perm, q, c)
    y_rows = congruence_kernel(fan.ray_columns, c).rows
    # N Y = sum of (qP)^j Y mod c by Horner's rule; P moves row i to row perm[i]
    norms = y_rows
    for _ in range(backend.d - 1):
        moved = dict(zip(perm, norms))
        norms = tuple(
            tuple((y + q * x) % c for y, x in zip(row, moved[i])) for i, row in enumerate(y_rows)
        )
    return quotient_mod(fixed_lattice, IntMatrix._trusted(norms, fan.num_rays), c)


def _fixed_ray_lattice(fan: Fan, perm: Sequence[int], q: int, c: int) -> IntMatrix:
    """{z : R z = 0, (qP - I) z = 0} + c Z^rays in `basis_mod` form, from
    one generator per cycle of `perm` (see the caller)."""
    m = fan.num_rays
    cycles = _cycles(perm)
    gens = [[0] * m for _ in cycles]
    for gen, cycle in zip(gens, cycles):
        scale, rest = divmod(c, q ** len(cycle) - 1)
        assert rest == 0, "a cycle length that does not divide d"
        for k, i in enumerate(cycle):
            gen[i] = scale * pow(q, k, c) % c
    orbit_gens = IntMatrix.from_cols(gens, m)
    weights = congruence_kernel(fan.ray_columns @ orbit_gens, c)
    fixed = tuple(tuple(x % c for x in row) for row in (orbit_gens @ weights).rows)
    return basis_mod(IntMatrix._trusted(fixed, weights.ncols), c)


def h1_cyclic_norm_formula(
    fan: Fan, hom: HomClass, backend: FieldBackend
) -> FGAbelianGroup:
    """H^1 of the twisted dense torus, computed on the ray-coordinate side.

    `classify` reports it for symbolic data; `oracle_routes` checks F_q by it.
    Over F_q, requires that every class-group torsion factor be prime to
    q^d - 1, the order of the splitting field's units (AssumptionViolated
    otherwise).  Raises ValueError unless `hom` is a hom class of `fan` and
    the backend's Galois group has the order of the group `hom` twists by.

    Symbolic norm data can evaluate only a fan whose class group is Z with
    all ray degrees equal to one, where the answer is the pure norm quotient
    over the ray-orbit stabilizers.  Concrete backends take the quotient
    presentation on every fan, so on projective spaces this route stays
    independent of the `norm_quotient` that `classify projective` reports.
    """
    _check_hom_class(fan, hom, backend)
    if isinstance(backend, SymbolicBrauerBackend):
        if not _diagonal_degree(fan):
            raise BackendUnsupported(
                "symbolic norm data supports only fans with class group Z in degree one"
            )
        # orbit-stabilizer: an orbit of r rays has a stabilizer of order |G| / r
        orders = [hom.group.order // len(orbit) for orbit in hom.ray_orbits]
        return norm_quotient(backend, orders)
    if isinstance(backend, RealComplexBackend):
        return _h1_real_quotient_presentation(fan, hom)
    if isinstance(backend, FiniteFieldBackend):
        return _h1_finite_field_quotient_presentation(fan, hom, backend)
    raise BackendUnsupported(f"no norm-formula route for backend {backend!r}")


# ---------------------------------------------------------------------------
# finite modules and the literal brute force


@dataclass(frozen=True)
class FiniteModule:
    """Finite abelian group prod Z/moduli[i] with a linear action of Z/d.

    `sigma` is the matrix by which the generator 1 acts, so group element a
    acts by sigma^a mod the moduli.
    """

    group: GroupSpec
    moduli: tuple[int, ...]
    sigma: IntMatrix

    def __post_init__(self) -> None:
        # input checks raise ValueError or TypeError, so they also hold under
        # python -O; `brute_force_h1_finite` composes action tables relying
        # on them
        m = self.moduli
        n = len(m)
        sigma = self.sigma
        if not all(mi >= 1 for mi in m):
            raise ValueError(f"moduli must be at least 1, got {m}")
        if not isinstance(sigma, IntMatrix):
            raise TypeError(f"sigma must be an IntMatrix, got {type(sigma).__name__}")
        if sigma.shape != (n, n):
            raise ValueError(f"action matrix of shape {sigma.shape}, expected {(n, n)}")
        # column j must map the relation m[j] e_j into the relations
        if any(x * m[j] % m[i] for i, row in enumerate(sigma.rows) for j, x in enumerate(row)):
            raise ValueError(f"action matrix {sigma} does not descend to the moduli {m}")
        # a -> sigma^a is a homomorphism of Z/d exactly when sigma^d = 1 mod
        # the moduli (a coordinate of modulus 1 compares 0 with 0): d - 1
        # products
        power = self._reduce_matrix(sigma)
        for _ in range(self.group.order - 1):
            power = self._reduce_matrix(power @ sigma)
        if power != self._reduce_matrix(IntMatrix.identity(n)):
            raise ValueError("action is not a homomorphism")

    def _reduce_matrix(self, mat: IntMatrix) -> IntMatrix:
        return IntMatrix._trusted(
            tuple(tuple(x % mod for x in row) for row, mod in zip(mat.rows, self.moduli)),
            mat.ncols,
        )

    @property
    def size(self) -> int:
        return math.prod(self.moduli)

    def elements(self):
        return itertools.product(*[range(mi) for mi in self.moduli])

    def act(self, g: int, v: Sequence[int]) -> tuple[int, ...]:
        """sigma^g v: sigma applied g times, reduced mod the moduli."""
        v = tuple(v)
        for _ in range(g):
            v = tuple(x % mi for x, mi in zip(self.sigma.apply(v), self.moduli))
        return v

    def add(self, u: Sequence[int], v: Sequence[int]) -> tuple[int, ...]:
        return tuple(map(operator.mod, map(operator.add, u, v), self.moduli))

    def scale(self, k: int, v: Sequence[int]) -> tuple[int, ...]:
        return tuple((k * a) % mi for a, mi in zip(v, self.moduli))

    def zero(self) -> tuple[int, ...]:
        return (0,) * len(self.moduli)


def finite_field_torus_module(backend: FiniteFieldBackend, hom: HomClass) -> FiniteModule:
    """The dense-torus module (Z/(q^d-1))^rank with the twisted Frobenius.

    Frobenius, the generator, acts by sigma = q s mod q^d - 1, for s the
    cocharacter matrix of the fan automorphism it maps to.  Raises
    ValueError unless d is the order of the group `hom` twists by.
    """
    _check_degree(backend.d, hom)
    c = backend.mult_order
    s = hom.matrix
    q_s = tuple(tuple(backend.q * x % c for x in row) for row in s.rows)
    return FiniteModule(hom.group, (c,) * s.nrows, IntMatrix._trusted(q_s, s.ncols))


#: Most assignments times |G|^2 cocycle checks `brute_force_h1_finite` may
#: make, counted on the whole module: a bound on the work of its primary parts.
MAX_COCYCLE_CHECKS = 10_000_000


def brute_force_h1_finite(module: FiniteModule) -> FGAbelianGroup:
    """H^1 of Z/d by literal enumeration of cocycles, one primary part at a
    time.

    By CRT the module is the direct sum of its p-primary parts M_p, one per
    prime p of the moduli.  M_p has the moduli p^v_p(m_i) and the same
    sigma, which descends to it because m_i | x_ij m_j implies
    p^v_p(m_i) | x_ij p^v_p(m_j).  Cohomology is additive, so H^1(M) is the
    sum of the H^1(M_p), and each part is enumerated on its own: sum |M_p|
    candidates in place of prod |M_p|.  A p-primary module is its one part,
    and a module of moduli 1 has none.

    Each assignment of the whole module costs up to d^2 cocycle checks, so
    assignments times d^2 bounds the work of every part together; raises
    TooLarge if that exceeds MAX_COCYCLE_CHECKS, before anything is
    enumerated.
    """
    group = module.group
    d = group.order
    count = module.size ** len(group.generators)
    if count * d**2 > MAX_COCYCLE_CHECKS:
        raise TooLarge(
            f"{count} candidate assignments times {d}^2 group pairs"
            f" exceed {MAX_COCYCLE_CHECKS} cocycle checks"
        )
    factors: list[int] = []
    for p in sorted({p for m in module.moduli for p in _prime_factors(m)}):
        # p^v_p(m) = gcd(m, p^k) for any k >= v_p(m), and m < 2^bit_length
        moduli = tuple(math.gcd(m, p ** m.bit_length()) for m in module.moduli)
        factors.extend(_primary_h1_factors(FiniteModule(group, moduli, module.sigma), p))
    return FGAbelianGroup.from_factors(factors)


def _primary_h1_factors(part: FiniteModule, p: int) -> list[int]:
    """The cyclic factors of H^1 of a p-primary module, each a power of p.

    A cocycle c is fixed by its value x = c(1) on the generator sigma:
    c(a + 1) = c(a) + sigma^a x.  Every module element x is extended along
    0 -> 1 -> ... -> d-1, filtered by the closing edge c(0) = c(d-1) +
    sigma^(d-1) x, and the survivors are checked against the identity
    c(a + b) = c(a) + a c(b) on all pairs (a, b); coboundaries are enumerated
    directly.  The quotient's structure is read off by counting p-power
    torsion elements.

    The enumeration runs on element indices (`_IndexedModule`): a cochain
    is one column per group element, holding its value for every candidate
    x at once.  Group elements act through spread-valued tables
    (`_action_tables`), so u + a v over whole columns is
    index.reduced(spread[u] + sact[a][v]): one lookup per element in the
    module's sum table, or one per block of coordinates above rank 2.
    """
    index = _IndexedModule(part.moduli)
    c, boundaries = _cocycle_columns(part, index)
    cocycles = set(zip(*c))
    assert boundaries <= cocycles
    h_order = len(cocycles) // len(boundaries)
    if h_order == 1:
        return []
    # a cocycle is fixed by its value at the generator (d > 1 here), so k z
    # is a coboundary exactly when k z(1) is a coboundary's value there
    at_generator = {b[1] for b in boundaries}

    def killed(k: int) -> int:
        """The number of cocycles whose k-th multiple is a coboundary,
        counted over the generator's column."""
        return sum(map(at_generator.__contains__, index.multiples(k, c[1])))

    # logs[k] = log_p of the size of the p^k-torsion subgroup; the count of
    # cyclic factors of order at least p^k is logs[k] - logs[k-1]
    logs = [0]
    while True:
        logs.append(_exact_log(killed(p ** len(logs)) // len(boundaries), p))
        if logs[-1] == logs[-2]:
            break
    factors: list[int] = []
    for k in range(1, len(logs) - 1):
        multiplicity = (logs[k] - logs[k - 1]) - (logs[k + 1] - logs[k])
        factors.extend([p**k] * multiplicity)
    assert p ** logs[-1] == h_order, f"|H^1| = {h_order} of a {p}-primary module"
    return factors


def _cocycle_columns(
    module: FiniteModule, index: _IndexedModule
) -> tuple[list[list[int]], set[tuple[int, ...]]]:
    """(c, boundaries) for `_primary_h1_factors`: c[a] is the column of
    cocycle values at group element a, one entry per cocycle, and
    boundaries the set of coboundaries, each a tuple of element indices."""
    d = module.group.order
    count = module.size ** len(module.group.generators)
    sact = _action_tables(module, index)
    spread = index.spread.__getitem__

    def spread_of(column: list[int]) -> list[int]:
        return list(map(spread, column))

    def plus_acted(spread_u: list[int], a: int, v: list[int]) -> list[int]:
        """The column u + a v, for u given by its spread codes."""
        return index.reduced(map(operator.add, spread_u, map(sact[a].__getitem__, v)))

    # candidate column x holds c(1) = element x (only c(1) = 0 when d = 1)
    x = index.pool[:count]
    c = [[0] * count]
    for a in range(d - 1):
        c.append(plus_acted(spread_of(c[a]), a, x))
    c = _agreeing(c, [(c[0], plus_acted(spread_of(c[-1]), d - 1, x))])

    def pair_checks(c: list[list[int]]):
        """(c(a + b), c(a) + a c(b)) for every pair, c(a) spread once per a."""
        for a in range(d):
            spread_c = spread_of(c[a])
            for b in range(d):
                yield c[(a + b) % d], plus_acted(spread_c, a, c[b])

    # the coboundary of v is a v + (-v) at every a
    boundaries = set(
        zip(*(index.reduced(map(operator.add, table, index.negative)) for table in sact))
    )
    return _agreeing(c, pair_checks(c)), boundaries


def _agreeing(columns: list[list[int]], checks) -> list[list[int]]:
    """`columns` cut down to the candidates on which every check (lhs, rhs)
    has equal columns; the checks are read before anything is cut."""
    agree = None
    for lhs, rhs in checks:
        if lhs != rhs:
            same = map(operator.eq, lhs, rhs)
            agree = list(same) if agree is None else list(map(operator.and_, agree, same))
    if agree is None:
        return columns
    keep = list(itertools.compress(range(len(agree)), agree))
    return [list(map(column.__getitem__, keep)) for column in columns]


#: A block's sum table (`_IndexedModule`) holds at most this many entries
#: per module element; 4 keeps every module of rank 2 in one block.
_SUM_TABLE_SPAN = 4


class _IndexedModule:
    """The elements of prod Z/moduli[k] as indices: element i is the i-th
    tuple of `itertools.product(range(m_0), ...)`, so coordinate k has the
    place value stride_k = m_{k+1} ... m_{n-1}.

    Element i also has a spread code, `spread[i]`, with coordinate k at the
    place value w_{k+1} ... w_{n-1}, where w_j = 2 m_j - 1: each coordinate
    has room for the sum of two, so two codes add with no carry between
    coordinates, and `reduced` turns such sums into indices.  One table
    over every sum would hold prod w_k entries, nearly 2^n |M|, so the
    coordinates fall into blocks, runs of consecutive coordinates whose
    table of block sums holds at most _SUM_TABLE_SPAN |M| entries.  A
    module of rank 2 is one block, and a sum is one lookup; a larger rank
    takes a few blocks, and a sum is one lookup per block, added.
    `negative[i]` is the spread code of -(element i).  Every index these
    tables and the columns read off them hold is an entry of `pool` =
    list(range(|M|)), so an index is one shared int object, however many
    tables and columns hold it.
    """

    def __init__(self, moduli: Sequence[int]) -> None:
        self.moduli = m = tuple(moduli)
        self.size = math.prod(m)
        self.strides = tuple(math.prod(m[k + 1 :]) for k in range(len(m)))
        self.pool = pool = list(range(self.size))
        widths = [2 * mk - 1 for mk in m]
        places = [math.prod(widths[k + 1 :]) for k in range(len(m))]
        self.span = math.prod(widths)
        self.spread = _place_sums([[x * p for x in range(mk)] for mk, p in zip(m, places)])
        self.negative = _place_sums([[-x % mk * p for x in range(mk)] for mk, p in zip(m, places)])
        runs: list[list[int]] = []  # [start, end) of each block, the top one first
        for k in range(len(m)):
            if runs and math.prod(widths[runs[-1][0] : k + 1]) <= _SUM_TABLE_SPAN * self.size:
                runs[-1][1] = k + 1
            else:
                runs.append([k, k + 1])
        # (place, sums): sums[t] is the index of the reduced block code t,
        # and every partial sum is an index, read off the pool
        self.blocks = []
        for start, end in runs or [[0, 0]]:
            sums = [0]
            for mk, wk, stride in zip(m[start:end], widths[start:end], self.strides[start:end]):
                wrapped = [y % mk * stride for y in range(wk)]
                sums = [pool[v + w] for v in sums for w in wrapped]
            self.blocks.append((math.prod(widths[end:]), sums))

    def reduced(self, codes: Iterable[int]) -> list[int]:
        """The indices of the elements that the sums of two spread codes
        `codes` stand for."""
        if len(self.blocks) == 1:
            return list(map(self.blocks[0][1].__getitem__, codes))
        codes = list(codes)
        parts = []
        for place, sums in self.blocks:
            block_codes = codes
            if place * len(sums) < self.span:
                block_codes = map(operator.mod, block_codes, itertools.repeat(place * len(sums)))
            if place > 1:
                block_codes = map(operator.floordiv, block_codes, itertools.repeat(place))
            parts.append(map(sums.__getitem__, block_codes))
        total = reduce(lambda acc, part: map(operator.add, acc, part), parts)
        return list(map(self.pool.__getitem__, total))

    def table(self, mat: IntMatrix) -> list[int]:
        """table[i] = the index of mat . (element i), reduced mod the moduli;
        built one coordinate row at a time, in element order."""
        total = [0] * self.size
        for row, mk, stride in zip(mat.rows, self.moduli, self.strides):
            steps = [[x * j % mk for j in range(mj)] for x, mj in zip(row, self.moduli)]
            total = list(map(operator.add, total, [v % mk * stride for v in _place_sums(steps)]))
        return list(map(self.pool.__getitem__, total))

    def multiples(self, k: int, indices: Sequence[int]) -> list[int]:
        """The indices of k times the elements `indices`, coordinate by
        coordinate: element i has coordinate (i // stride_j) mod m_j."""
        total = itertools.repeat(0, len(indices))
        for mk, stride in zip(self.moduli, self.strides):
            times = [k * x % mk * stride for x in range(mk)]
            quotients = map(operator.floordiv, indices, itertools.repeat(stride))
            coords = map(operator.mod, quotients, itertools.repeat(mk))
            total = map(operator.add, total, map(times.__getitem__, coords))
        return list(total)


def _place_sums(parts: Sequence[Sequence[int]]) -> list[int]:
    """[a_0 + a_1 + ... for a_0 in parts[0] for a_1 in parts[1] ...], in
    `itertools.product` order."""
    values = [0]
    for part in parts:
        values = [v + a for v in values for a in part]
    return values


def _action_tables(module: FiniteModule, index: _IndexedModule) -> list[list[int]]:
    """tables[a][i] = the spread code of a . (element i) for every group
    element a.

    tables[0] is `index.spread`, and tables[a + 1][i] = tables[a][g[i]] with
    g the generator's index table (`_IndexedModule.table`), so tables[a] is
    the action of sigma^a.  The module checked that sigma preserves the
    moduli and that sigma^d = 1 there.
    """
    tables = [index.spread]
    if module.group.order > 1:
        generator = index.table(module.sigma)
        while len(tables) < module.group.order:
            tables.append(list(map(tables[-1].__getitem__, generator)))
    return tables


def _exact_log(n: int, p: int) -> int:
    k = 0
    while n > 1:
        assert n % p == 0, f"{n} is not a power of {p}"
        n //= p
        k += 1
    return k


# ---------------------------------------------------------------------------
# finite-field tori, kernel-of-norm route


def _h1_finite_field_torus(q: int, d: int, s: IntMatrix) -> FGAbelianGroup:
    """H^1 of Frobenius acting on a torus over F_q split by F_{q^d}, for a
    prime power q and the cocharacter matrix s of the twisting automorphism
    assigned to Frobenius, of order dividing d.

    On the finite module (Z/(q^d - 1))^n the generator acts by sigma = q s,
    and for a cyclic group H^1 = ker(Norm) / im(sigma - 1) with Norm the sum
    of sigma^j.  Modulo c = q^d - 1, sigma^d = q^d s^d = 1, so N (sigma - 1) = sigma^d - 1
    is zero and im(sigma - 1) lies in ker N: H^1 is trivial exactly when the
    two have one order.  Each order is read off one `index_mod`: for a
    matrix A, A's image in (Z/c)^n has c^n / index_mod(A, c) elements and
    its kernel index_mod(A, c).  Lang's theorem (Amer. J. Math. 78, 1956)
    makes every torus over a finite field have trivial H^1, so unequal
    orders are a fault in the arithmetic: LangViolated, also under
    python -O.
    """
    c = q**d - 1
    n = s.nrows
    ident = IntMatrix.identity(n)
    sigma = s.scaled(q)
    norm_op = reduce(lambda acc, _: acc @ sigma + ident, range(d - 1), ident)
    kernel_order = index_mod(norm_op, c)
    image_index = index_mod(sigma - ident, c)
    if kernel_order * image_index != c**n:
        raise LangViolated(
            f"q = {q}, d = {d}: |ker N| = {kernel_order} differs from"
            f" |im(sigma - 1)| = {c**n // image_index}"
        )
    return FGAbelianGroup.trivial()


# ---------------------------------------------------------------------------
# the route each backend takes


def hom_class_h1(fan: Fan, hom: HomClass, backend: FieldBackend) -> FGAbelianGroup:
    """Cohomology of the torus twisted by one homomorphism class.

    Over C/R and F_q it is read off the generator's rank x rank cocharacter
    matrix s: the involution formula, and ker N / im(q s - 1) over F_{q^e},
    the field the kernel fixes, where e = `hom.order` is the order of s.
    Symbolic data gets the norm quotient over the hom's ray-orbit stabilizers.
    Raises ValueError, as `h1_cyclic_norm_formula` does, unless `hom` is a
    hom class of `fan` and the backend's degree is the order of its group.
    """
    _check_hom_class(fan, hom, backend)
    if hom.is_trivial:
        return FGAbelianGroup.trivial()
    s = hom.matrix
    if isinstance(backend, RealComplexBackend):
        return h1_real_involution(s)
    if isinstance(backend, FiniteFieldBackend):
        return _h1_finite_field_torus(backend.q, hom.order, s)
    return h1_cyclic_norm_formula(fan, hom, backend)


def oracle_routes(fan: Fan, backend: FieldBackend) -> tuple[tuple[FGAbelianGroup | str, ...], ...]:
    """H^1 of each twisting class by three routes, over a finite field: one
    row (norm route, closed form, brute force) per class, in `classify_fan`'s
    order.  The closed form is `hom_class_h1`, the value `classify_fan`
    reports; the other two run on the kernel reduction, over F_{q^e} for e
    the class's order.  A route that did not run is its reason: "trivial
    class" (the untwisted brute force; that norm route is the trivial group),
    "skipped (assumption)" (class-group torsion not invertible on the units)
    or "skipped (guard)" (past MAX_COCYCLE_CHECKS).  Raises ValueError
    unless the backend is a finite field."""
    if not isinstance(backend, FiniteFieldBackend):
        raise ValueError("the oracle verb needs a finite-field backend (ff:q,d)")
    rows = []
    for cls in enumerate_hom_classes(backend.group, automorphism_group(fan)):
        closed = hom_class_h1(fan, cls, backend)
        if cls.is_trivial:
            rows.append((FGAbelianGroup.trivial(), closed, "trivial class"))
            continue
        reduced, reduced_backend = kernel_reduction(cls), FiniteFieldBackend(backend.q, cls.order)
        try:
            norm = h1_cyclic_norm_formula(fan, reduced, reduced_backend)
        except AssumptionViolated:
            norm = "skipped (assumption)"
        try:
            brute = brute_force_h1_finite(finite_field_torus_module(reduced_backend, reduced))
        except TooLarge:
            brute = "skipped (guard)"
        rows.append((norm, closed, brute))
    return tuple(rows)
