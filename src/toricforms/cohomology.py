"""First Galois cohomology of tori attached to fans, by three routes.

All computations are exact.  The module implements:

* the involution formula for real tori (conjugation acting on the
  cocharacter lattice by an integer involution);
* the norm-formula route for cyclic Galois groups, which works on the
  quotient presentation of the dense torus coming from the fan's ray
  coordinates and never touches the cocharacter action directly;
* a literal cocycle brute force over finite modules;
* the kernel-of-norm / image-of-(Frobenius - 1) computation for tori over
  finite fields.

Having genuinely independent routes is the point: they cross-check each
other on every example, so a bug in one presentation cannot silently agree
with the same bug in another.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
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
    rational_solve,
    saturation_basis,
)
from .fans import Fan, class_group, degree_data
from .galois import (
    AssumptionViolated,
    BackendUnsupported,
    FieldBackend,
    FiniteFieldBackend,
    GroupSpec,
    HomClass,
    NonCyclicGroup,
    RealComplexBackend,
    SymbolicBrauerBackend,
    _prime_factors,
    _prime_power_base,
    norm_quotient,
    torsion_factor_invertible,
)


class NotInvolution(ValueError):
    pass


class TooLarge(ValueError):
    """Brute-force enumeration would exceed the configured guard."""


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
# closed subgroups of (R/Z)^m, exactly


@dataclass(frozen=True)
class TorusSubgroup:
    """Closed subgroup of (R/Z)^m: a rational subspace plus finitely many
    rational points (mod Z^m).

    component_basis columns span the identity component's direction (a
    saturated integer basis); lattice_gens are rational vectors whose classes
    generate the component group together with the subspace.
    """

    ambient_dim: int
    component_basis: IntMatrix
    lattice_gens: tuple[tuple[Fraction, ...], ...]

    @property
    def dim(self) -> int:
        return self.component_basis.ncols

    @classmethod
    def from_congruence(cls, c: IntMatrix) -> "TorusSubgroup":
        """The subgroup {z : c z = 0 in (R/Z)^rows} for an integer matrix c."""
        v = kernel_basis(c)
        sat = saturation_basis(c)
        sol = rational_solve(c, sat)
        assert sol is not None, "saturation basis must be attainable"
        x, den = sol
        gens = tuple(tuple(Fraction(t, den) for t in x.col(j)) for j in range(sat.ncols))
        return cls(c.ncols, v, gens)

    def image(self, b: IntMatrix) -> "TorusSubgroup":
        assert b.ncols == self.ambient_dim
        mapped = b @ self.component_basis
        v = saturation_basis(mapped)
        gens = tuple(
            tuple(sum(x * t for x, t in zip(row, g)) for row in b.rows) for g in self.lattice_gens
        )
        return TorusSubgroup(b.nrows, v, gens)

    def _projector(self) -> IntMatrix:
        """Integer matrix with rows a saturated basis of the annihilator of
        the component subspace; its kernel over R is exactly that subspace."""
        return kernel_basis(self.component_basis.transpose).transpose

    def _projected_lattice(self, w: IntMatrix, scale: int) -> list[tuple[int, ...]]:
        cols = []
        for g in self.lattice_gens:
            scaled = [scale * sum(x * t for x, t in zip(row, g)) for row in w.rows]
            assert all(x.denominator == 1 for x in scaled)
            cols.append(tuple(int(x) for x in scaled))
        for j in range(self.ambient_dim):
            cols.append(tuple(scale * w.rows[i][j] for i in range(w.nrows)))
        return cols

    def quotient_by(self, other: "TorusSubgroup") -> FGAbelianGroup:
        """Finite quotient by a closed subgroup with the same identity
        component; raises if the components differ or other is not contained.
        """
        assert self.ambient_dim == other.ambient_dim
        assert self.dim == other.dim, "quotient would not be finite"
        assert rational_solve(self.component_basis, other.component_basis) is not None, (
            "identity components differ"
        )
        w = self._projector()
        scale = 1
        for g in self.lattice_gens + other.lattice_gens:
            for x in g:
                scale = math.lcm(scale, x.denominator)
        ours = self._projected_lattice(w, scale)
        theirs = other._projected_lattice(w, scale)
        num = image_basis(IntMatrix.from_cols(ours, w.nrows))
        return lattice_subquotient(num, IntMatrix.from_cols(theirs, w.nrows))


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


def _check_torsion_assumption(backend: FieldBackend, fan: Fan) -> None:
    cl = class_group(fan)
    for f in cl.invariant_factors:
        if not torsion_factor_invertible(backend, f):
            raise AssumptionViolated(
                f"class group torsion factor {f} is not invertible on the unit "
                f"group of {backend.describe()}"
            )


def _h1_real_quotient_presentation(fan: Fan, hom: HomClass) -> FGAbelianGroup:
    """H^1 over R via the ray-coordinate presentation of the dense torus.

    Write X for the coordinate torus (C*)^rays with conjugation composed
    with the ray permutation P, and Y <= X for the subgroup cut out by the
    ray-character relations (the matrix R of ray coordinates).  The dense
    torus is X/Y, its H^1 injects into H^2 of Y because H^1 of X vanishes
    (Shapiro plus Hilbert 90 orbit by orbit), and the image is the kernel of
    the map to H^2 of X, which is one Brauer class of R per conjugation-fixed
    ray.  On the circle parts this becomes, with all congruences mod Z^rays:

      numerator   z with R z = 0,  (I + P) z = 0,  z_rho = 0 at fixed rays
      denominator (I - P) {z : R z = 0}
    """
    perm = hom.ray_permutation(1)
    m = fan.num_rays
    p = _permutation_matrix(perm)
    r = fan.ray_columns
    ident = IntMatrix.identity(m)
    fixed_rows = [
        tuple(int(j == i) for j in range(m)) for i in range(m) if perm[i] == i
    ]
    c1 = r.vstack(ident + p)
    if fixed_rows:
        c1 = c1.vstack(IntMatrix.from_rows(fixed_rows, m))
    z1 = TorusSubgroup.from_congruence(c1)
    z2 = TorusSubgroup.from_congruence(r).image(ident - p)
    return z1.quotient_by(z2)


def _h1_finite_field_quotient_presentation(
    fan: Fan, hom: HomClass, backend: FiniteFieldBackend
) -> FGAbelianGroup:
    """H^1 over F_q via the ray-coordinate presentation, all mod q^d - 1.

    Same skeleton as the real case: with X = (K*)^rays carrying Frobenius
    (multiplication by q) composed with the ray permutation P, and Y the
    subgroup cut out by the ray characters, H^1 of the dense torus equals
    the kernel of (fixed points mod norms of Y) -> (fixed points mod norms
    of X), because X itself has trivial H^1 in both odd and even degrees
    (Shapiro, Hilbert 90, and triviality of Brauer groups of finite fields).
    Concretely, with N the norm operator sum of (qP)^j:

      numerator   {z : R z = 0, (qP - I) z = 0}  meet  (N Z^rays + c Z^rays)
      denominator N {z : R z = 0}  +  c Z^rays

    Every lattice in sight contains c Z^rays, so all bases are kept in the
    bounded triangular form of `basis_mod`; in particular the intersection is
    taken through a congruence kernel mod c rather than an integer kernel of
    unreduced bases, whose entries can explode.
    """
    d = backend.d
    q = backend.q
    c = backend.mult_order
    m = fan.num_rays
    p = _permutation_matrix(hom.ray_permutation(1))
    r = fan.ray_columns
    ident = IntMatrix.identity(m)
    qp = p.scaled(q)
    norm_op = reduce(lambda acc, _: acc @ qp + ident, range(d - 1), ident)
    # sanity: norm_op == sum of (qP)^j for j < d
    fixed_lattice = congruence_kernel_basis(r.vstack(qp - ident), c)
    norm_image = basis_mod(norm_op, c)
    # z in both lattices iff z = Bx with Bx == B'y (mod c): the c Z^rays slack
    # stays inside either lattice, so congruence solutions suffice
    pair = congruence_kernel_basis(fixed_lattice.hstack(norm_image.scaled(-1)), c)
    coeffs = IntMatrix(tuple(pair.rows[:m]), pair.ncols)
    numerator = basis_mod(fixed_lattice @ coeffs, c)
    y_lattice = congruence_kernel_basis(r, c)
    denominator = basis_mod(norm_op @ y_lattice, c)
    return lattice_subquotient(numerator, denominator)


def h1_cyclic_norm_formula(
    fan: Fan, hom: HomClass, backend: FieldBackend
) -> FGAbelianGroup:
    """H^1 of the twisted dense torus, computed on the ray-coordinate side.

    Requires a cyclic acting group (NonCyclicGroup otherwise) and, for
    concrete backends, that every class-group torsion factor act invertibly
    on the units of the splitting field (AssumptionViolated otherwise).

    When the class group is Z with all ray degrees equal to one, the answer
    is the pure norm quotient over the ray-orbit stabilizers, which is also
    the only shape of input the symbolic backend can evaluate.
    """
    group = hom.group
    if not group.is_cyclic:
        raise NonCyclicGroup(f"{group.name} of order {group.order} is not cyclic")
    assert group.order == backend.group.order, (
        "the twisting group must be the Galois group of the backend extension"
    )
    assert group.order == 1 or group.element_order(1) == group.order, (
        "element 1 must be the distinguished Galois generator"
    )
    if _diagonal_degree(fan):
        stabs = [hom.orbit_stabilizer(orbit) for orbit in hom.ray_orbits]
        return norm_quotient(backend, stabs)
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
    """Finite abelian group prod Z/moduli[i] with a linear group action."""

    group: GroupSpec
    moduli: tuple[int, ...]
    action: tuple[IntMatrix, ...]

    def __post_init__(self) -> None:
        n = len(self.moduli)
        assert all(mi >= 1 for mi in self.moduli)
        assert len(self.action) == self.group.order
        for mat in self.action:
            assert mat.shape == (n, n)
        assert self.action[0] == IntMatrix.identity(n)
        for a in range(self.group.order):
            for b in range(self.group.order):
                prod = self.action[a] @ self.action[b]
                expect = self.action[self.group.mult(a, b)]
                assert self._reduce_matrix(prod) == self._reduce_matrix(expect), (
                    "action is not a homomorphism"
                )

    def _reduce_matrix(self, mat: IntMatrix) -> IntMatrix:
        return IntMatrix.from_rows(
            [
                [mat.rows[i][j] % self.moduli[i] for j in range(len(self.moduli))]
                for i in range(len(self.moduli))
            ]
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
        return tuple((a + b) % mi for a, b, mi in zip(u, v, self.moduli))

    def scale(self, k: int, v: Sequence[int]) -> tuple[int, ...]:
        return tuple((k * a) % mi for a, mi in zip(v, self.moduli))

    def zero(self) -> tuple[int, ...]:
        return (0,) * len(self.moduli)


def finite_field_torus_module(backend: FiniteFieldBackend, hom: HomClass) -> FiniteModule:
    """The dense-torus module (Z/(q^d-1))^rank with the twisted Frobenius.

    Group element j (a power of Frobenius) acts by q^j times the cocharacter
    matrix of the fan automorphism it maps to.
    """
    group = hom.group
    assert group.is_cyclic and group.order == backend.d
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
    structure is read off by counting torsion elements.  Raises TooLarge if
    the assignment space exceeds `guard`.
    """
    group = module.group
    gens = group.generators if group.generators else ()
    count = module.size ** len(gens)
    if count > guard:
        raise TooLarge(f"{count} candidate assignments exceed the guard {guard}")

    # breadth-first spanning of the Cayley graph, fixed once
    parent: dict[int, tuple[int, int]] = {}
    order_of_visit = [0]
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = group.mult(a, g)
                if b not in seen:
                    seen.add(b)
                    parent[b] = (a, g)
                    order_of_visit.append(b)
                    nxt.append(b)
        frontier = nxt
    assert len(seen) == group.order, "generators fail to generate"

    cocycles: set[tuple[tuple[int, ...], ...]] = set()
    for assignment in itertools.product(module.elements(), repeat=len(gens)):
        by_gen = dict(zip(gens, assignment))
        c: list[tuple[int, ...] | None] = [None] * group.order
        c[0] = module.zero()
        ok = True
        for b in order_of_visit[1:]:
            a, g = parent[b]
            c[b] = module.add(c[a], module.act(a, by_gen[g]))
        for a in range(group.order):
            if not ok:
                break
            for g in gens:
                b = group.mult(a, g)
                if c[b] != module.add(c[a], module.act(a, by_gen[g])):
                    ok = False
                    break
        if ok:
            full = True
            for a in range(group.order):
                for b in range(group.order):
                    lhs = c[group.mult(a, b)]
                    rhs = module.add(c[a], module.act(a, c[b]))
                    if lhs != rhs:
                        full = False
                        break
                if not full:
                    break
            if full:
                cocycles.add(tuple(c))

    boundaries: set[tuple[tuple[int, ...], ...]] = set()
    for v in module.elements():
        boundaries.add(
            tuple(
                tuple((x - y) % mi for x, y, mi in zip(module.act(a, v), v, module.moduli))
                for a in range(group.order)
            )
        )
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
    """
    _prime_power_base(q)  # raises ValueError unless q is a prime power
    if d < 1:
        raise ValueError(f"finite-field torus needs degree d >= 1, got d={d}")
    return _h1_frobenius(q, d, s)


def _h1_frobenius(q: int, d: int, s: IntMatrix) -> FGAbelianGroup:
    """`h1_finite_field_torus` for a q and d already checked."""
    c = q**d - 1
    n = s.nrows
    ident = IntMatrix.identity(n)
    assert s.power(d) == ident, "twisting matrix order must divide the field degree"
    sigma = s.scaled(q)
    norm_op = reduce(lambda acc, _: acc @ sigma + ident, range(d - 1), ident)
    ker = congruence_kernel_basis(norm_op, c)
    im_gens = (sigma - ident).hstack(ident.scaled(c))
    return lattice_subquotient(ker, im_gens)


# ---------------------------------------------------------------------------
# orbitwise Hilbert 90 self-check


def shapiro_orbit_h1(
    fan: Fan, hom: HomClass, backend: FieldBackend
) -> tuple[FGAbelianGroup, ...]:
    """Per ray orbit, H^1 of the orbit stabilizer on the splitting units.

    The coordinate torus of the quotient presentation is an induced module,
    so by Shapiro's lemma its H^1 is the product over orbits of
    H^1(stabilizer, K*), and each factor vanishes by Hilbert 90.  Computing
    the factors and asserting triviality validates the induced-module
    bookkeeping that both norm-formula routes rely on.
    """
    out = []
    for orbit in hom.ray_orbits:
        stab = hom.orbit_stabilizer(orbit)
        if isinstance(backend, RealComplexBackend):
            if len(stab) == 2:
                h1 = h1_real_involution(IntMatrix.identity(1))
            else:
                h1 = FGAbelianGroup.trivial()
        elif isinstance(backend, FiniteFieldBackend):
            h = len(stab)
            e = backend.d // h
            # q**e may exceed what `h1_finite_field_torus` factors; the
            # backend already checked q, so q**e is a prime power too
            h1 = _h1_frobenius(backend.q**e, h, IntMatrix.identity(1))
        else:
            raise BackendUnsupported("orbitwise check needs a concrete field backend")
        assert h1.is_trivial(), "Hilbert 90 must hold on every orbit"
        out.append(h1)
    return tuple(out)
