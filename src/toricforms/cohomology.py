"""First Galois cohomology of tori attached to fans, by three routes.

All computations are exact.  The module implements:

* the involution formula for real tori (conjugation acting on the
  cocharacter lattice by an integer involution);
* the kernel-of-norm / image-of-(Frobenius - 1) computation for tori over
  finite fields;
* the norm-formula route for cyclic Galois groups, which works on the fan's
  ray coordinates and never touches the cocharacter action directly: over
  R it is one subquotient of Z^rays read off the class-group presentation
  Cl = Z^rays / (ray coordinates), over finite fields the fixed points
  modulo norms Y^G / N Y of Y = Hom(Cl, K*) inside (K*)^rays, mod q^d - 1;
* a literal cocycle brute force over finite modules.

`classify` reports the first two, on the rank x rank cocharacter matrix,
and the norm formula only for symbolic norm data.  Having genuinely
independent routes is the point: they cross-check each other on every
example, so a bug in one presentation cannot silently agree with the same
bug in another.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import reduce
from typing import Sequence

from .exact_linalg import (
    FGAbelianGroup,
    IntMatrix,
    basis_mod,
    congruence_kernel,
    kernel_basis,
    lattice_subquotient,
    triangular_subquotient,
)
from .fan_aut import _check_involution
from .fans import Fan, TooLarge, class_group, degree_data
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
    _prime_power_base,
    norm_quotient,
    torsion_factor_invertible,
)


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

    The result is always 2-torsion.
    """
    ident = _check_involution(s)
    fixed = kernel_basis(s + ident)
    result = lattice_subquotient(fixed, ident - s)
    assert all(f == 2 for f in result.invariant_factors)
    assert result.free_rank == 0
    return result


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
    stabilizers is the whole answer.
    """
    deg = degree_data(fan)
    if deg.torsion_moduli or deg.free_rows.nrows != 1:
        return False
    row = deg.free_rows.row(0)
    return all(x == 1 for x in row) or all(x == -1 for x in row)


def _check_degree(degree: int, hom: HomClass) -> None:
    """ValueError naming `backend` unless its extension degree is the order of
    the group `hom` twists by; a check that holds under python -O."""
    if degree != hom.group.order:
        raise ValueError(
            f"backend: extension degree {degree} differs from the order"
            f" {hom.group.order} of the twisting group of hom"
        )


def _check_torsion_assumption(backend: FieldBackend, fan: Fan) -> None:
    cl = class_group(fan)
    for f in cl.invariant_factors:
        if not torsion_factor_invertible(backend, f):
            raise AssumptionViolated(
                f"class group torsion factor {f} is not invertible on the unit "
                f"group of {backend.describe()}"
            )


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
    p = _permutation_matrix(hom.ray_permutation(1))
    r = fan.ray_rows
    ident = IntMatrix.identity(m)
    # (x, u) with (I - P) x = R u: the lifts x are the numerator
    pairs = kernel_basis((ident - p).hstack(-r))
    lifts = IntMatrix(pairs.rows[:m], pairs.ncols)
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

    Both lattices contain c Z^rays, so both bases are kept in the bounded
    triangular form of `basis_mod`, no entry above c: the kernels come
    from `congruence_kernel`, the norms are summed mod c, and
    `triangular_subquotient` divides the two with no Smith form unless the
    quotient is nontrivial.
    """
    q = backend.q
    c = backend.mult_order
    perm = hom.ray_permutation(1)
    ident = IntMatrix.identity(fan.num_rays)
    qp = _permutation_matrix(perm).scaled(q)
    fixed_lattice = congruence_kernel(fan.ray_columns.vstack(qp - ident), c)
    y_rows = congruence_kernel(fan.ray_columns, c).rows
    # N Y = sum of (qP)^j Y mod c by Horner's rule; P moves row i to row perm[i]
    norms = y_rows
    for _ in range(backend.d - 1):
        moved = dict(zip(perm, norms))
        norms = tuple(
            tuple((y + q * x) % c for y, x in zip(row, moved[i])) for i, row in enumerate(y_rows)
        )
    denominator = basis_mod(IntMatrix._trusted(norms, fan.num_rays), c)
    return triangular_subquotient(fixed_lattice, denominator)


def h1_cyclic_norm_formula(
    fan: Fan, hom: HomClass, backend: FieldBackend
) -> FGAbelianGroup:
    """H^1 of the twisted dense torus, computed on the ray-coordinate side.

    `classify` calls it for symbolic data only; elsewhere it is the reference.
    Requires, for concrete backends, that every class-group torsion factor
    act invertibly on the units of the splitting field (AssumptionViolated
    otherwise).  Raises ValueError unless `hom` is a hom class of `fan` and
    the backend's Galois group has the order of the group `hom` twists by.

    Symbolic norm data can evaluate only a fan whose class group is Z with
    all ray degrees equal to one, where the answer is the pure norm quotient
    over the ray-orbit stabilizers.  Concrete backends take the quotient
    presentation on every fan, so on projective spaces this route stays
    independent of the `norm_quotient` that `classify projective` reports.
    """
    if hom.aut.fan != fan:
        raise ValueError("hom: a hom class of another fan")
    _check_degree(backend.group.order, hom)
    if isinstance(backend, SymbolicBrauerBackend):
        if not _diagonal_degree(fan):
            raise BackendUnsupported(
                "symbolic norm data supports only fans with class group Z in degree one"
            )
        # orbit-stabilizer: an orbit of r rays has a stabilizer of order |G| / r
        orders = [hom.group.order // len(orbit) for orbit in hom.ray_orbits]
        return norm_quotient(backend, orders)
    _check_torsion_assumption(backend, fan)
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

    `action[a]` is the matrix by which group element a acts; element 1 is
    the generator sigma, so action[a] is sigma^a mod the moduli.
    """

    group: GroupSpec
    moduli: tuple[int, ...]
    action: tuple[IntMatrix, ...]

    def __post_init__(self) -> None:
        # input checks raise ValueError, so they also hold under python -O;
        # `brute_force_h1_finite` composes action tables relying on them
        m = self.moduli
        n = len(m)
        d = self.group.order
        if not all(mi >= 1 for mi in m):
            raise ValueError(f"moduli must be at least 1, got {m}")
        if len(self.action) != d:
            raise ValueError(f"{len(self.action)} action matrices for a group of order {d}")
        for mat in self.action:
            if mat.shape != (n, n):
                raise ValueError(f"action matrix of shape {mat.shape}, expected {(n, n)}")
            # column j must map the relation m[j] e_j into the relations
            if any(x * m[j] % m[i] for i, row in enumerate(mat.rows) for j, x in enumerate(row)):
                raise ValueError(f"action matrix {mat} does not descend to the moduli {m}")
        if self.action[0] != IntMatrix.identity(n):
            raise ValueError("group element 0 must act as the identity")
        # action[0] = 1 and action[a + 1] = action[a] sigma for every a mod d
        # make action[a] = sigma^a with sigma^d = 1, so the action is
        # multiplicative: one product per element
        sigma = self.action[1 % d]
        for a in range(d):
            prod = self.action[a] @ sigma
            if self._reduce_matrix(prod) != self._reduce_matrix(self.action[(a + 1) % d]):
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
        raw = self.action[g].apply(v)
        return tuple(x % mi for x, mi in zip(raw, self.moduli))

    def add(self, u: Sequence[int], v: Sequence[int]) -> tuple[int, ...]:
        return tuple(map(operator.mod, map(operator.add, u, v), self.moduli))

    def scale(self, k: int, v: Sequence[int]) -> tuple[int, ...]:
        return tuple((k * a) % mi for a, mi in zip(v, self.moduli))

    def zero(self) -> tuple[int, ...]:
        return (0,) * len(self.moduli)


def finite_field_torus_module(backend: FiniteFieldBackend, hom: HomClass) -> FiniteModule:
    """The dense-torus module (Z/(q^d-1))^rank with the twisted Frobenius.

    Group element j (a power of Frobenius) acts by q^j times the cocharacter
    matrix of the fan automorphism it maps to.  Raises ValueError unless d is the
    order of the group `hom` twists by.
    """
    group = hom.group
    _check_degree(backend.d, hom)
    c = backend.mult_order
    n = hom.aut.fan.rank
    mats = []
    for j in range(group.order):
        s = hom.matrix(j)
        mats.append(IntMatrix.from_rows([[(backend.q**j * x) % c for x in row] for row in s.rows]))
    return FiniteModule(group, (c,) * n, tuple(mats))


#: Most assignments times |G|^2 cocycle checks `brute_force_h1_finite` makes.
MAX_COCYCLE_CHECKS = 10_000_000


def brute_force_h1_finite(module: FiniteModule) -> FGAbelianGroup:
    """H^1 of Z/d by literal enumeration of cocycles.

    A cocycle c is fixed by its value x = c(1) on the generator sigma:
    c(a + 1) = c(a) + sigma^a x.  Every module element x is extended along
    0 -> 1 -> ... -> d-1, filtered by the closing edge c(0) = c(d-1) +
    sigma^(d-1) x, and the survivors are checked against the identity
    c(a + b) = c(a) + a c(b) on all pairs (a, b); coboundaries are enumerated
    directly.  The quotient's structure is read off by counting torsion
    elements.  Each assignment costs up to d^2 cocycle checks, so the work
    is bounded by assignments times d^2; raises TooLarge if that exceeds
    MAX_COCYCLE_CHECKS, before anything is enumerated.

    The enumeration runs on element indices (`_IndexedModule`): group
    elements act through index tables (`_action_tables`), and a cochain is
    one column per group element, holding its value for every candidate
    x at once.
    """
    group = module.group
    d = group.order
    count = module.size ** len(group.generators)
    if count * d**2 > MAX_COCYCLE_CHECKS:
        raise TooLarge(
            f"{count} candidate assignments times {d}^2 group pairs"
            f" exceed {MAX_COCYCLE_CHECKS} cocycle checks"
        )
    index = _IndexedModule(module.moduli)
    act = _action_tables(module, index)
    add = index.add

    def acted(a: int, column: list[int]) -> list[int]:
        return list(map(act[a].__getitem__, column))

    # candidate column x holds c(1) = element x (only c(1) = 0 when d = 1)
    x = list(range(count))
    c = [[0] * count]
    for a in range(d - 1):
        c.append(add(c[a], acted(a, x)))
    c = _agreeing(c, [(c[0], add(c[-1], acted(d - 1, x)))])
    c = _agreeing(
        c, ((c[(a + b) % d], add(c[a], acted(a, c[b]))) for a in range(d) for b in range(d))
    )
    cocycles = set(zip(*c))

    minus = index.multiple(-1)
    boundaries = set(zip(*(add(table, minus) for table in act)))
    assert boundaries <= cocycles
    h_order = len(cocycles) // len(boundaries)
    if h_order == 1:
        return FGAbelianGroup.trivial()

    def killed(k: int) -> int:
        """The number of cocycles whose k-th multiple is a coboundary."""
        times_k = index.multiple(k).__getitem__
        return sum(1 for z in cocycles if tuple(map(times_k, z)) in boundaries)

    factors: list[int] = []
    for p in _prime_factors(h_order):
        # logs[k] = log_p of the size of the p^k-torsion subgroup; the count
        # of cyclic factors of order at least p^k is logs[k] - logs[k-1]
        logs = [0]
        while True:
            logs.append(_exact_log(killed(p ** len(logs)) // len(boundaries), p))
            if logs[-1] == logs[-2]:
                break
        for k in range(1, len(logs) - 1):
            multiplicity = (logs[k] - logs[k - 1]) - (logs[k + 1] - logs[k])
            factors.extend([p**k] * multiplicity)
    result = FGAbelianGroup.from_factors(factors)
    assert result.order() == h_order
    return result


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


class _IndexedModule:
    """The elements of prod Z/moduli[k] as indices: element i is the i-th
    tuple of `itertools.product(range(m_0), ...)`, so coordinate k has the
    place value stride_k = m_{k+1} ... m_{n-1}.

    `digits[k][i]` is coordinate k of element i, and `wraps[k][s]` is
    (s mod m_k) stride_k for s < 2 m_k, so a sum of two index lists is one
    lookup pass per coordinate and no tuple is built.
    """

    def __init__(self, moduli: Sequence[int]) -> None:
        self.moduli = tuple(moduli)
        self.size = math.prod(self.moduli)
        self.strides = tuple(math.prod(self.moduli[k + 1 :]) for k in range(len(self.moduli)))
        self.digits = [
            [i // s % m for i in range(self.size)] for m, s in zip(self.moduli, self.strides)
        ]
        self.wraps = [
            [(x % m) * s for x in range(2 * m)] for m, s in zip(self.moduli, self.strides)
        ]

    def add(self, u: Sequence[int], v: Sequence[int]) -> list[int]:
        """The index list of the elementwise sums of two index lists."""
        total = None
        for digit, wrap in zip(self.digits, self.wraps):
            part = map(
                wrap.__getitem__,
                map(operator.add, map(digit.__getitem__, u), map(digit.__getitem__, v)),
            )
            total = part if total is None else map(operator.add, total, part)
        return list(total) if total is not None else [0] * len(u)

    def table(self, mat: IntMatrix) -> list[int]:
        """table[i] = the index of mat . (element i), reduced mod the moduli;
        built one coordinate row at a time, in element order."""
        total = [0] * self.size
        for row, m, stride in zip(mat.rows, self.moduli, self.strides):
            values = [0]
            for x, mj in zip(row, self.moduli):
                steps = [x * d % m for d in range(mj)]
                values = [v + s for v in values for s in steps]
            total = list(map(operator.add, total, [(v % m) * stride for v in values]))
        return total

    def multiple(self, k: int) -> list[int]:
        """multiple[i] = the index of k times element i."""
        return self.table(IntMatrix.identity(len(self.moduli)).scaled(k))


def _action_tables(module: FiniteModule, index: _IndexedModule) -> list[list[int]]:
    """tables[a][i] = the index of a . (element i) for every group element a.

    The generator's table comes from its action matrix
    (`_IndexedModule.table`), and tables[a + 1][i] = tables[a][tables[1][i]]
    is its power.  That is a's action because the module checked that
    action[a] is sigma^a mod the moduli and preserves them.
    """
    tables = [list(range(index.size))]
    if module.group.order > 1:
        tables.append(index.table(module.action[1]))
    while len(tables) < module.group.order:
        tables.append(list(map(tables[-1].__getitem__, tables[1])))
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


def h1_finite_field_torus(q: int, d: int, s: IntMatrix) -> FGAbelianGroup:
    """H^1 of Frobenius acting on a torus over F_q split by F_{q^d}.

    `s` is the cocharacter matrix of the twisting automorphism assigned to
    Frobenius; it must satisfy s^d = 1.  On the finite module
    (Z/(q^d - 1))^n the generator acts by sigma = q s, and for a cyclic
    group H^1 = ker(Norm) / im(sigma - 1) with Norm the sum of sigma^j.
    Raises ValueError, also under python -O, unless q is a prime power,
    d >= 1, s is square and s^d = 1.
    """
    _prime_power_base(q)  # raises ValueError unless q is a prime power
    if d < 1:
        raise ValueError(f"finite-field torus needs degree d >= 1, got d={d}")
    if s.ncols != s.nrows:
        raise ValueError(f"twisting matrix s must be square, got shape {s.shape}")
    if s.power(d) != IntMatrix.identity(s.nrows):
        raise ValueError(f"twisting matrix s must satisfy s^d = 1 for d={d}")
    return _h1_finite_field_torus(q, d, s)


def _h1_finite_field_torus(q: int, d: int, s: IntMatrix) -> FGAbelianGroup:
    """`h1_finite_field_torus` for a checked q and an s of order dividing d."""
    c = q**d - 1
    ident = IntMatrix.identity(s.nrows)
    sigma = s.scaled(q)
    norm_op = reduce(lambda acc, _: acc @ sigma + ident, range(d - 1), ident)
    ker = congruence_kernel(norm_op, c)
    return triangular_subquotient(ker, basis_mod(sigma - ident, c))
