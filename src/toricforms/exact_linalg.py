"""Exact linear algebra over the integers.

Everything here runs on arbitrary-precision Python ints.  The centerpiece is
a deterministic Smith normal form with unimodular transform witnesses, and it
is the only solver: on top of it sit kernels, images, saturations, cokernel
presentations, subquotients of integer lattices and rational solves (answered
as an integer solution over one common denominator), plus a canonical value
type for finitely generated abelian groups.
"""

from __future__ import annotations

import math
import operator
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence


class MembershipError(ValueError):
    """A vector that was required to lie in a lattice does not."""


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) = s*a + t*b and g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix with exact equality.

    Rows are tuples of Python ints, so entries never overflow and equality is
    entry-wise.  Empty matrices keep an explicit column count so shapes stay
    meaningful through degenerate cases (0xn and nx0 both occur in practice:
    fans with as many rays as the rank have trivial class group, lattices may
    have empty bases).
    """

    rows: tuple[tuple[int, ...], ...]
    ncols_hint: int = -1  # meaningful only when rows is empty

    def __post_init__(self) -> None:
        widths = {len(r) for r in self.rows}
        if len(widths) > 1:
            raise ValueError(f"ragged rows: {sorted(widths)}")
        # normalize the hint so dataclass equality/hash see one representation
        object.__setattr__(self, "ncols_hint", len(self.rows[0]) if self.rows else max(self.ncols_hint, 0))

    @classmethod
    def _trusted(cls, rows: tuple[tuple[int, ...], ...], ncols: int) -> "IntMatrix":
        """Matrix from int rows that all have length `ncols`, unchecked.

        Only for results whose shape is known by construction (products,
        transposes, entry-wise maps); everything else goes through the
        checked constructor.
        """
        m = object.__new__(cls)
        m.__dict__.update(rows=rows, ncols_hint=ncols)
        return m

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return self.ncols_hint

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]], ncols: int = -1) -> "IntMatrix":
        return cls(tuple(tuple(int(x) for x in r) for r in rows), ncols)

    @classmethod
    def from_cols(cls, cols: Iterable[Sequence[int]], nrows: int = -1) -> "IntMatrix":
        cols = [tuple(int(x) for x in c) for c in cols]
        if not cols:
            return cls(tuple(() for _ in range(max(nrows, 0))), 0)
        height = len(cols[0])
        if any(len(c) != height for c in cols):
            raise ValueError(f"ragged columns: {sorted({len(c) for c in cols})}")
        return cls._trusted(tuple(zip(*cols)), len(cols))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    @classmethod
    def zero(cls, nrows: int, ncols: int) -> "IntMatrix":
        return cls(tuple((0,) * ncols for _ in range(nrows)), ncols)

    @classmethod
    def diagonal(cls, entries: Sequence[int]) -> "IntMatrix":
        n = len(entries)
        return cls(tuple(tuple(entries[i] if i == j else 0 for j in range(n)) for i in range(n)))

    def entry(self, i: int, j: int) -> int:
        return self.rows[i][j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.rows[i]

    def col(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self.rows)

    def cols(self) -> list[tuple[int, ...]]:
        return [self.col(j) for j in range(self.ncols)]

    @cached_property
    def transpose(self) -> "IntMatrix":
        if not self.rows:
            return IntMatrix._trusted(tuple(() for _ in range(self.ncols)), 0)
        return IntMatrix._trusted(tuple(zip(*self.rows)), self.nrows)

    def is_zero(self) -> bool:
        return all(x == 0 for r in self.rows for x in r)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        assert self.ncols == other.nrows, f"shape mismatch {self.shape} @ {other.shape}"
        ocols = other.ncols
        # columns of `other`; with no rows, each of its columns is empty
        cols = tuple(zip(*other.rows)) if other.rows else ((),) * ocols
        mul = operator.mul
        return IntMatrix._trusted(tuple(tuple(sum(map(mul, r, c)) for c in cols) for r in self.rows), ocols)

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        assert self.shape == other.shape
        return IntMatrix(
            tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows)),
            self.ncols,
        )

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self + (-other)

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(tuple(tuple(-x for x in r) for r in self.rows), self.ncols)

    def scaled(self, c: int) -> "IntMatrix":
        return IntMatrix(tuple(tuple(c * x for x in r) for r in self.rows), self.ncols)

    def apply(self, v: Sequence[int]) -> tuple[int, ...]:
        """Matrix-vector product."""
        assert len(v) == self.ncols
        mul = operator.mul
        return tuple(sum(map(mul, r, v)) for r in self.rows)

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        assert self.nrows == other.nrows
        return IntMatrix(
            tuple(ra + rb for ra, rb in zip(self.rows, other.rows)), self.ncols + other.ncols
        )

    def vstack(self, other: "IntMatrix") -> "IntMatrix":
        assert self.ncols == other.ncols, f"{self.shape} over {other.shape}"
        return IntMatrix(self.rows + other.rows, self.ncols)

    def submatrix_cols(self, js: Sequence[int]) -> "IntMatrix":
        return IntMatrix(tuple(tuple(r[j] for j in js) for r in self.rows), len(js))

    def power(self, k: int) -> "IntMatrix":
        assert self.nrows == self.ncols and k >= 0
        result = IntMatrix.identity(self.nrows)
        base = self
        while k:
            if k & 1:
                result = result @ base
            base = base @ base
            k >>= 1
        return result

    def __str__(self) -> str:
        return "[" + "; ".join(" ".join(str(x) for x in r) for r in self.rows) + "]"


def det(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    assert m.nrows == m.ncols
    n = m.nrows
    if n == 0:
        return 1
    a = [list(r) for r in m.rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


@dataclass(frozen=True)
class SmithDecomposition:
    """Smith normal form u @ m @ v == d with unimodular u, v.

    `d` is diagonal with nonnegative entries in a divisibility chain
    d[0] | d[1] | ... ; `u_inv` and `v_inv` are the exact inverses, carried
    along so callers can read off image and saturation bases without a solve.
    """

    matrix: IntMatrix
    u: IntMatrix
    d: IntMatrix
    v: IntMatrix
    u_inv: IntMatrix
    v_inv: IntMatrix

    @cached_property
    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.d.entry(i, i) for i in range(min(self.d.nrows, self.d.ncols)))

    @cached_property
    def rank(self) -> int:
        return sum(1 for x in self.diagonal if x != 0)

    @cached_property
    def nonunit_factors(self) -> tuple[int, ...]:
        """Diagonal entries that are neither 0 nor 1 (the torsion factors)."""
        return tuple(x for x in self.diagonal if x not in (0, 1))


# Decompositions computed inside the open `_snf_memo_scope`, keyed by matrix;
# None outside every scope, where nothing is kept.
_SNF_MEMO: ContextVar[dict[IntMatrix, SmithDecomposition] | None] = ContextVar(
    "_SNF_MEMO", default=None
)


@contextmanager
def _snf_memo_scope() -> Iterator[None]:
    """Share Smith decompositions among all calls made inside the block.

    The library's top-level entry points run inside this scope, so each
    distinct matrix is factored (and its certificate checked) once per call.
    A nested scope reuses the enclosing one; the memo is dropped when the
    outermost scope exits.  Usable as a decorator.
    """
    if _SNF_MEMO.get() is not None:
        yield
        return
    token = _SNF_MEMO.set({})
    try:
        yield
    finally:
        _SNF_MEMO.reset(token)


def smith_normal_form(m: IntMatrix) -> SmithDecomposition:
    """Smith normal form of an integer matrix, shared within a memo scope.

    Inside `_snf_memo_scope` a matrix equal to one already factored gets the
    decomposition (certified when it was built) back; otherwise it is
    computed by `_compute_smith_normal_form`.
    """
    memo = _SNF_MEMO.get()
    if memo is None:
        return _compute_smith_normal_form(m)
    dec = memo.get(m)
    if dec is None:
        dec = memo[m] = _compute_smith_normal_form(m)
    return dec


def _compute_smith_normal_form(m: IntMatrix) -> SmithDecomposition:
    """Compute and certify the Smith normal form of an integer matrix.

    Deterministic pivot rule: among nonzero entries of the active submatrix,
    pick the one of smallest absolute value, breaking ties by lowest row index
    and then lowest column index.  Row/column operations reduce around the
    pivot; when a remainder appears it becomes the new (strictly smaller)
    pivot, so the process terminates.  Once a pivot divides its whole trailing
    block it is final; signs are normalized at the end.

    Returns:
        SmithDecomposition with u @ m @ v == d, |det u| == |det v| == 1,
        d diagonal, nonnegative, each entry dividing the next.
    """
    nr, nc = m.shape
    a = [list(r) for r in m.rows]
    u = [[int(i == j) for j in range(nr)] for i in range(nr)]
    uinv = [[int(i == j) for j in range(nr)] for i in range(nr)]
    v = [[int(i == j) for j in range(nc)] for i in range(nc)]
    vinv = [[int(i == j) for j in range(nc)] for i in range(nc)]

    def swap_rows(i: int, k: int) -> None:
        if i == k:
            return
        a[i], a[k] = a[k], a[i]
        u[i], u[k] = u[k], u[i]
        for r in uinv:  # inverse picks up the inverse op on columns
            r[i], r[k] = r[k], r[i]

    def swap_cols(j: int, k: int) -> None:
        if j == k:
            return
        for r in a:
            r[j], r[k] = r[k], r[j]
        for r in v:
            r[j], r[k] = r[k], r[j]
        vinv[j], vinv[k] = vinv[k], vinv[j]

    def row_sub(i: int, k: int, q: int) -> None:
        # row_i -= q * row_k
        if q == 0:
            return
        a[i] = [x - q * y for x, y in zip(a[i], a[k])]
        u[i] = [x - q * y for x, y in zip(u[i], u[k])]
        for r in uinv:
            r[k] += q * r[i]

    def col_sub(j: int, k: int, q: int) -> None:
        # col_j -= q * col_k
        if q == 0:
            return
        for r in a:
            r[j] -= q * r[k]
        for r in v:
            r[j] -= q * r[k]
        vinv[k] = [x + q * y for x, y in zip(vinv[k], vinv[j])]

    def negate_row(i: int) -> None:
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]
        for r in uinv:
            r[i] = -r[i]

    t = 0
    bound = min(nr, nc)
    while t < bound:
        pivot = None
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                x = abs(a[i][j])
                if x and (best is None or x < best):
                    best = x
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            restarted = False
            for i in range(t + 1, nr):
                if a[i][t]:
                    row_sub(i, t, a[i][t] // a[t][t])
                    if a[i][t]:
                        swap_rows(t, i)
                        restarted = True
            if restarted:
                continue
            for j in range(t + 1, nc):
                if a[t][j]:
                    col_sub(j, t, a[t][j] // a[t][t])
                    if a[t][j]:
                        swap_cols(t, j)
                        restarted = True
            if restarted:
                continue
            piv = a[t][t]
            bad = None
            for i in range(t + 1, nr):
                if any(x % piv for x in a[i][t + 1 :]):
                    bad = i
                    break
            if bad is None:
                break
            row_sub(t, bad, -1)  # fold row `bad` in; next pass shrinks the pivot
        t += 1
    for i in range(bound):
        if a[i][i] < 0:
            negate_row(i)

    dec = SmithDecomposition(
        matrix=m,
        u=IntMatrix.from_rows(u, nr),
        d=IntMatrix.from_rows(a, nc),
        v=IntMatrix.from_rows(v, nc),
        u_inv=IntMatrix.from_rows(uinv, nr),
        v_inv=IntMatrix.from_rows(vinv, nc),
    )
    assert dec.u @ m @ dec.v == dec.d
    assert dec.u @ dec.u_inv == IntMatrix.identity(nr)
    assert dec.v @ dec.v_inv == IntMatrix.identity(nc)
    diag = dec.diagonal
    assert all(x >= 0 for x in diag)
    for x, y in zip(diag, diag[1:]):
        assert y % x == 0 if x else y == 0, f"broken divisibility chain {diag}"
    return dec


# ---------------------------------------------------------------------------
# finitely generated abelian groups


@dataclass(frozen=True)
class FGAbelianGroup:
    """Finitely generated abelian group in canonical form.

    free_rank copies of Z plus cyclic factors Z/f for the invariant factors,
    each >= 2 and dividing the next.  Two values are equal iff the groups are
    isomorphic.

    >>> FGAbelianGroup.from_factors([2, 3])
    FGAbelianGroup(free_rank=0, invariant_factors=(6,))
    >>> str(FGAbelianGroup(1, (2, 4)))
    'Z + Z/2 + Z/4'
    """

    free_rank: int
    invariant_factors: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        assert self.free_rank >= 0
        for f in self.invariant_factors:
            assert f >= 2, f"invariant factor {f} out of canonical range"
        for x, y in zip(self.invariant_factors, self.invariant_factors[1:]):
            assert y % x == 0, f"non-chain invariant factors {self.invariant_factors}"

    @classmethod
    def trivial(cls) -> "FGAbelianGroup":
        return cls(0, ())

    @classmethod
    def free(cls, rank: int) -> "FGAbelianGroup":
        return cls(rank, ())

    @classmethod
    def cyclic(cls, n: int) -> "FGAbelianGroup":
        assert n >= 1
        return cls(0, ()) if n == 1 else cls(0, (n,))

    @classmethod
    def from_factors(cls, factors: Sequence[int], free_rank: int = 0) -> "FGAbelianGroup":
        """Canonicalize an arbitrary list of cyclic factor sizes.

        Zeros count toward the free rank; the rest are merged into a proper
        divisibility chain (so [2, 3] becomes (6,), and [4, 2, 4] -> (2, 4, 4)).
        """
        free = free_rank + sum(1 for f in factors if f == 0)
        finite = [f for f in factors if f not in (0, 1)]
        for f in finite:
            assert f >= 2
        if not finite:
            return cls(free, ())
        dec = smith_normal_form(IntMatrix.diagonal(finite))
        return cls(free, dec.nonunit_factors)

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.invariant_factors

    def is_finite(self) -> bool:
        return self.free_rank == 0

    def order(self) -> int | None:
        """Group order, or None when infinite."""
        if self.free_rank:
            return None
        return math.prod(self.invariant_factors) if self.invariant_factors else 1

    def exponent(self) -> int | None:
        if self.free_rank:
            return None
        return self.invariant_factors[-1] if self.invariant_factors else 1

    def direct_sum(self, other: "FGAbelianGroup") -> "FGAbelianGroup":
        return FGAbelianGroup.from_factors(
            self.invariant_factors + other.invariant_factors,
            self.free_rank + other.free_rank,
        )

    def __str__(self) -> str:
        parts = ["Z"] * self.free_rank + [f"Z/{f}" for f in self.invariant_factors]
        return " + ".join(parts) if parts else "1"


# ---------------------------------------------------------------------------
# lattice operations


def cokernel_presentation(m: IntMatrix) -> FGAbelianGroup:
    """Z^nrows modulo the column span of m, in canonical form."""
    dec = smith_normal_form(m)
    return FGAbelianGroup(m.nrows - dec.rank, dec.nonunit_factors)


def kernel_basis(m: IntMatrix) -> IntMatrix:
    """Basis (as columns) of the right kernel {x : m @ x = 0}.

    The returned basis spans a saturated sublattice: any integer vector killed
    by m is an integer combination of the columns.
    """
    dec = smith_normal_form(m)
    js = [j for j in range(m.ncols) if j >= len(dec.diagonal) or dec.diagonal[j] == 0]
    return dec.v.submatrix_cols(js)


def image_basis(m: IntMatrix) -> IntMatrix:
    """Basis (as columns) of the lattice generated by the columns of m."""
    dec = smith_normal_form(m)
    cols = []
    for j in range(dec.rank):
        dj = dec.diagonal[j]
        cols.append(tuple(dj * x for x in dec.u_inv.col(j)))
    return IntMatrix.from_cols(cols, m.nrows)


def saturation_basis(m: IntMatrix) -> IntMatrix:
    """Basis of the saturation (Q-span intersected with Z^nrows) of col span."""
    dec = smith_normal_form(m)
    return dec.u_inv.submatrix_cols(list(range(dec.rank)))


def solve_integer(m: IntMatrix, b: Sequence[int]) -> tuple[int, ...] | None:
    """One integer solution x of m @ x = b, or None if none exists."""
    assert len(b) == m.nrows
    dec = smith_normal_form(m)
    c = dec.u.apply(b)
    y = [0] * m.ncols
    for i in range(m.nrows):
        di = dec.diagonal[i] if i < len(dec.diagonal) else 0
        if di == 0:
            if c[i] != 0:
                return None
        else:
            q, r = divmod(c[i], di)
            if r:
                return None
            y[i] = q
    return dec.v.apply(y)


def lattice_subquotient(sup_basis: IntMatrix, sub_gens: IntMatrix) -> FGAbelianGroup:
    """Quotient of the lattice spanned by sup_basis by the span of sub_gens.

    sup_basis must have independent columns; every column of sub_gens must be
    an integer combination of them, else MembershipError.
    """
    dec = smith_normal_form(sup_basis)
    n = sup_basis.ncols
    assert dec.rank == n, "sup_basis columns are dependent"
    # u @ sup_basis @ v == d with d[i][i] != 0 exactly for i < n, so column j
    # lies in the lattice iff row i of u @ sub_gens is divisible by d[i][i]
    # for i < n and zero below; the quotients, mapped back by v, are its
    # coordinates.
    c = dec.u @ sub_gens
    bad = {j for row in c.rows[n:] for j, x in enumerate(row) if x}
    y = []
    for di, row in zip(dec.diagonal, c.rows):
        bad.update(j for j, x in enumerate(row) if x % di)
        y.append(tuple(x // di for x in row))
    if bad:
        raise MembershipError(
            f"column {min(bad)} of the subgroup generators is not in the ambient lattice"
        )
    return cokernel_presentation(dec.v @ IntMatrix(tuple(y), sub_gens.ncols))


def lattice_intersection(gens_a: IntMatrix, gens_b: IntMatrix) -> IntMatrix:
    """Basis of the intersection of the two column-span lattices."""
    assert gens_a.nrows == gens_b.nrows
    ba = image_basis(gens_a)
    bb = image_basis(gens_b)
    if ba.ncols == 0 or bb.ncols == 0:
        return IntMatrix.from_cols([], gens_a.nrows)
    k = kernel_basis(ba.hstack(-bb))
    coeffs_a = IntMatrix(tuple(k.rows[: ba.ncols]), k.ncols)
    return image_basis(ba @ coeffs_a)


def basis_mod(gens: IntMatrix, modulus: int) -> IntMatrix:
    """Triangular basis of the lattice spanned by gens plus modulus * Z^nrows.

    The result is square lower-triangular with positive diagonal entries
    dividing `modulus` and off-diagonal entries in [0, modulus).  Because the
    lattice
    contains modulus * Z^nrows, each elimination step may subtract multiples
    of modulus * e_i, so all intermediate values stay below the modulus; the
    generic elimination behind `image_basis` offers no such bound and can
    blow up on inputs of exactly this shape.
    """
    assert modulus >= 1
    m = gens.nrows
    active = [[x % modulus for x in gens.col(j)] for j in range(gens.ncols)]
    basis_cols: list[list[int]] = []
    for i in range(m):
        piv: list[int] | None = None
        rest: list[list[int]] = []
        for col in active:
            if col[i] == 0:
                rest.append(col)
            elif piv is None:
                piv = col
            else:
                a, b = piv[i], col[i]
                g, s, t = _ext_gcd(a, b)
                u, v = a // g, b // g
                # unimodular on the pair: det [[s, t], [-v, u]] = s*u + t*v = 1
                piv, demoted = (
                    [(s * x + t * y) % modulus for x, y in zip(piv, col)],
                    [(u * y - v * x) % modulus for x, y in zip(piv, col)],
                )
                piv[i] = g  # s*a + t*b exactly; % modulus would keep it anyway
                rest.append(demoted)
        if piv is None:
            piv = [0] * m
            piv[i] = modulus
        else:
            # fold in the implicit generator modulus * e_i the same way
            a = piv[i]
            g, s, _ = _ext_gcd(a, modulus)
            rest.append([(-(modulus // g) * x) % modulus for x in piv])
            piv = [(s * x) % modulus for x in piv]
            piv[i] = g
        basis_cols.append(piv)
        active = rest
    result = IntMatrix.from_cols(basis_cols, m)
    assert all(result.rows[i][j] == 0 for i in range(m) for j in range(i + 1, m))
    assert all(modulus % result.rows[i][i] == 0 for i in range(m))
    return result


def congruence_kernel_basis(m: IntMatrix, modulus: int) -> IntMatrix:
    """Basis of {x in Z^ncols : m @ x == 0 (mod modulus)}.

    Contains modulus * Z^ncols, so the basis is always square of full rank,
    and is returned in the bounded triangular form of `basis_mod`.
    """
    assert modulus >= 1
    stacked = m.hstack(IntMatrix.diagonal([modulus] * m.nrows))
    k = kernel_basis(stacked)
    proj = IntMatrix(tuple(k.rows[: m.ncols]), k.ncols)
    basis = basis_mod(proj, modulus)
    assert basis.ncols == m.ncols
    return basis


# ---------------------------------------------------------------------------
# rational solves, kept integral


def rational_solve(a: IntMatrix, b: IntMatrix) -> tuple[IntMatrix, int] | None:
    """Solve a @ x = b over Q as integers: (x, den) with a @ x == den * b.

    From u @ a @ v == d the system reads d @ y == den * (u @ b) in y =
    v_inv @ x.  `den` is the last nonzero invariant factor of a (1 when a is
    zero); every d_i divides it, so y_i = (den / d_i) * (u @ b)_i is integral
    for i below the rank, and the free coordinates beyond it are pinned to
    zero.  None when a row of u @ b beyond the rank is nonzero, i.e. the
    system is inconsistent over Q.
    """
    assert b.nrows == a.nrows
    dec = smith_normal_form(a)
    r = dec.rank
    den = dec.diagonal[r - 1] if r else 1
    c = dec.u @ b
    if any(any(row) for row in c.rows[r:]):
        return None
    y = tuple(tuple(den // di * t for t in row) for di, row in zip(dec.diagonal, c.rows[:r]))
    x = dec.v @ IntMatrix(y + ((0,) * b.ncols,) * (a.ncols - r), b.ncols)
    assert a @ x == b.scaled(den)
    return x, den
