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
    congruence_kernel_basis,
    image_basis,
    kernel_basis,
    lattice_subquotient,
    smith_normal_form,
)
from .fan_aut import NotInvolution
from .fans import Fan, class_group, degree_data
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


class TooLarge(ValueError):
    """A computation would exceed its size guard (brute-force enumeration,
    the partition matrices of a projective classification)."""


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
    n = s.nrows
    ident = IntMatrix.identity(n)
    if s.ncols != n or s @ s != ident:
        raise NotInvolution(f"matrix {s} is not an involution")
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
    lifts = image_basis(IntMatrix(tuple(pairs.rows[:m]), pairs.ncols))
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
    triangular form of `basis_mod`, every entry below c.
    """
    d = backend.d
    q = backend.q
    c = backend.mult_order
    p = _permutation_matrix(hom.ray_permutation(1))
    ident = IntMatrix.identity(fan.num_rays)
    qp = p.scaled(q)
    norm_op = reduce(lambda acc, _: acc @ qp + ident, range(d - 1), ident)
    stacked = smith_normal_form(fan.ray_columns.vstack(qp - ident))
    fixed_lattice = congruence_kernel_basis(stacked, c)
    y_lattice = congruence_kernel_basis(fan.ray_columns_snf, c)
    denominator = basis_mod(norm_op @ y_lattice, c)
    return lattice_subquotient(fixed_lattice, denominator)


def h1_cyclic_norm_formula(
    fan: Fan, hom: HomClass, backend: FieldBackend
) -> FGAbelianGroup:
    """H^1 of the twisted dense torus, computed on the ray-coordinate side.

    `classify` calls it for symbolic data only; elsewhere it is the reference.
    Requires, for concrete backends, that every class-group torsion factor
    act invertibly on the units of the splitting field (AssumptionViolated
    otherwise).  Raises ValueError unless the backend's Galois group has the
    order of the group `hom` twists by.

    When the class group is Z with all ray degrees equal to one, the answer
    is the pure norm quotient over the ray-orbit stabilizers, which is also
    the only shape of input the symbolic backend can evaluate.
    """
    group = hom.group
    _check_degree(backend.group.order, hom)
    if _diagonal_degree(fan):
        # orbit-stabilizer: an orbit of r rays has a stabilizer of order |G| / r
        orders = [group.order // len(orbit) for orbit in hom.ray_orbits]
        return norm_quotient(backend, orders)
    if isinstance(backend, SymbolicBrauerBackend):
        raise BackendUnsupported(
            "symbolic norm data supports only fans with class group Z in degree one"
        )
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
    """Finite abelian group prod Z/moduli[i] with a linear group action.

    The acting group is read only through `order`, `generators` and `mult`
    (element 0 the identity), so any finite group given that way can act,
    not only the cyclic `GroupSpec`.
    """

    group: GroupSpec
    moduli: tuple[int, ...]
    action: tuple[IntMatrix, ...]

    def __post_init__(self) -> None:
        # input checks raise ValueError, so they also hold under python -O;
        # `brute_force_h1_finite` composes action tables relying on them
        m = self.moduli
        n = len(m)
        if not all(mi >= 1 for mi in m):
            raise ValueError(f"moduli must be at least 1, got {m}")
        if len(self.action) != self.group.order:
            raise ValueError(
                f"{len(self.action)} action matrices for a group of order {self.group.order}"
            )
        for mat in self.action:
            if mat.shape != (n, n):
                raise ValueError(f"action matrix of shape {mat.shape}, expected {(n, n)}")
            # column j must map the relation m[j] e_j into the relations
            if any(x * m[j] % m[i] for i, row in enumerate(mat.rows) for j, x in enumerate(row)):
                raise ValueError(f"action matrix {mat} does not descend to the moduli {m}")
        if self.action[0] != IntMatrix.identity(n):
            raise ValueError("group element 0 must act as the identity")
        for a in range(self.group.order):
            for b in range(self.group.order):
                prod = self.action[a] @ self.action[b]
                expect = self.action[self.group.mult(a, b)]
                if self._reduce_matrix(prod) != self._reduce_matrix(expect):
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


def brute_force_h1_finite(module: FiniteModule, guard: int = 10_000_000) -> FGAbelianGroup:
    """H^1 by literal enumeration of cocycles.

    Every assignment of module elements to the group generators is extended
    along the Cayley graph and then checked against the cocycle identity on
    all pairs; coboundaries are enumerated directly.  The quotient's
    structure is read off by counting torsion elements.  Each assignment
    costs up to |G|^2 cocycle checks, so the work is bounded by assignments
    times |G|^2; raises TooLarge if that exceeds `guard`, before anything is
    enumerated.

    Each group element's action is looked up in a table built once per call
    (`_action_tables`), so the enumeration itself does no matrix arithmetic.
    """
    group = module.group
    gens = group.generators if group.generators else ()
    count = module.size ** len(gens)
    if count * group.order**2 > guard:
        raise TooLarge(
            f"{count} candidate assignments times {group.order}^2 group pairs"
            f" exceed the guard {guard}"
        )
    elements = tuple(module.elements())
    position = {v: i for i, v in enumerate(elements)}
    tree = _cayley_spanning_tree(group, gens)
    act = _action_tables(module, elements, position, tree)
    add = module.add
    order = group.order
    edges = [(a, g, group.mult(a, g)) for a in range(order) for g in gens]
    pairs = [(a, b, group.mult(a, b)) for a in range(order) for b in range(order)]

    cocycles: set[tuple[tuple[int, ...], ...]] = set()
    # an assignment gives each generator the position of its module element
    for assignment in itertools.product(range(len(elements)), repeat=len(gens)):
        by_gen = dict(zip(gens, assignment))
        c: list[tuple[int, ...]] = [module.zero()] * order
        for b, a, g in tree:
            c[b] = add(c[a], act[a][by_gen[g]])
        if any(c[b] != add(c[a], act[a][by_gen[g]]) for a, g, b in edges):
            continue
        if all(c[ab] == add(c[a], act[a][position[c[b]]]) for a, b, ab in pairs):
            cocycles.add(tuple(c))

    moduli = module.moduli
    mod, sub = operator.mod, operator.sub
    boundaries = {
        tuple(tuple(map(mod, map(sub, act_a[i], v), moduli)) for act_a in act)
        for i, v in enumerate(elements)
    }
    assert boundaries <= cocycles
    h_order = len(cocycles) // len(boundaries)
    if h_order == 1:
        return FGAbelianGroup.trivial()

    def scaled_in_boundaries(z, k: int) -> bool:
        scaled = tuple(module.scale(k, row) for row in z)
        return scaled in boundaries

    factors: list[int] = []
    for p in _prime_factors(h_order):
        # logs[k] = log_p of the size of the p^k-torsion subgroup; the count
        # of cyclic factors of order at least p^k is logs[k] - logs[k-1]
        logs = [0]
        while True:
            killed = sum(
                1 for z in cocycles if scaled_in_boundaries(z, p ** len(logs))
            )
            logs.append(_exact_log(killed // len(boundaries), p))
            if logs[-1] == logs[-2]:
                break
        for k in range(1, len(logs) - 1):
            multiplicity = (logs[k] - logs[k - 1]) - (logs[k + 1] - logs[k])
            factors.extend([p**k] * multiplicity)
    result = FGAbelianGroup.from_factors(factors)
    assert result.order() == h_order
    return result


def _cayley_spanning_tree(
    group: GroupSpec, gens: Sequence[int]
) -> list[tuple[int, int, int]]:
    """Breadth-first spanning tree of the Cayley graph from the identity.

    Returns edges (b, a, g) with b = a g in visiting order, so every a is
    the identity or an earlier b; there is one edge per non-identity element.
    """
    tree = []
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = group.mult(a, g)
                if b not in seen:
                    seen.add(b)
                    tree.append((b, a, g))
                    nxt.append(b)
        frontier = nxt
    assert len(seen) == group.order, "generators fail to generate"
    return tree


def _action_tables(
    module: FiniteModule,
    elements: Sequence[tuple[int, ...]],
    position: dict[tuple[int, ...], int],
    tree: Sequence[tuple[int, int, int]],
) -> list[list[tuple[int, ...]]]:
    """tables[a][i] = a . elements[i] for every group element a.

    `position` inverts `elements`.  The generators' tables come from
    `FiniteModule.act`; every other element b = a g of the spanning tree is
    composed as tables[b][i] = tables[a][position of tables[g][i]].  That
    equals `act(b, elements[i])` because the module checked that its action
    is a homomorphism mod the moduli and preserves them.  Every entry is one
    of the `elements` tuples, so the tables hold no copies.
    """
    tables: list[list | None] = [None] * module.group.order
    tables[0] = list(elements)
    for g in module.group.generators:
        if tables[g] is None:
            tables[g] = [elements[position[module.act(g, v)]] for v in elements]
    for b, a, g in tree:
        if tables[b] is None:
            outer = tables[a]
            tables[b] = [outer[position[w]] for w in tables[g]]
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
    ker = congruence_kernel_basis(smith_normal_form(norm_op), c)
    im_gens = (sigma - ident).hstack(ident.scaled(c))
    return lattice_subquotient(ker, im_gens)
