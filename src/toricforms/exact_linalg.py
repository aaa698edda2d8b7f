"""Exact linear algebra over the integers.

Everything here runs on arbitrary-precision Python ints.  Independence,
determinants, coordinates over Q and inverses come from one fraction-free
elimination, `fraction_free_solve`, and ranks over F_2 from elimination on
bitmasks, `rank_mod_2`.  Lattice questions rest on a deterministic Smith
normal form with unimodular transform witnesses:
kernels, saturations, cokernel presentations and subquotients of integer
lattices, plus a canonical value type for finitely generated abelian
groups.  Lattices that contain c Z^n are handled mod c instead, in the
triangular form of `basis_mod`, whose entries stay below c: their indices
(`index_mod`), congruence kernels, intersections (`intersection_mod`) and
quotients (`quotient_mod`).  A quotient takes no Smith form unless it is
nontrivial, and then only of two such bases.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence


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


def _check_int(value: object, name: str) -> None:
    """TypeError naming `name` unless value is exactly an int (a float or a
    bool is refused, never converted)."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an int, got {type(value).__name__} {value!r}")


def _check_int_entries(vectors: Iterable[Sequence[int]], name: str) -> None:
    """TypeError naming `name` for an entry that is not exactly an int (a
    float, bool or str is refused, never converted)."""
    for v in vectors:
        for x in v:
            if type(x) is not int:
                raise TypeError(f"{name} must have int entries, got {type(x).__name__} {x!r}")


def _int_tuples(vectors: Iterable[Sequence[int]], name: str) -> tuple[tuple[int, ...], ...]:
    """The vectors as tuples, checked by `_check_int_entries`."""
    vectors = tuple(map(tuple, vectors))
    _check_int_entries(vectors, name)
    return vectors


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix with exact equality.

    Rows are tuples of Python ints, so entries never overflow and equality is
    entry-wise; the constructor refuses any other entry with a TypeError
    naming `rows`.  Empty matrices keep an explicit column count so shapes
    stay meaningful through degenerate cases (0xn and nx0 both occur in
    practice: fans with as many rays as the rank have trivial class group,
    lattices may have empty bases).
    """

    rows: tuple[tuple[int, ...], ...]
    ncols_hint: int = -1  # meaningful only when rows is empty

    def __post_init__(self) -> None:
        widths = {len(r) for r in self.rows}
        if len(widths) > 1:
            raise ValueError(f"ragged rows: {sorted(widths)}")
        _check_int_entries(self.rows, "rows")
        # normalize the hint so dataclass equality/hash see one representation
        object.__setattr__(self, "ncols_hint", len(self.rows[0]) if self.rows else max(self.ncols_hint, 0))

    @classmethod
    def _trusted(cls, rows: tuple[tuple[int, ...], ...], ncols: int) -> "IntMatrix":
        """Matrix from int rows that all have length `ncols`, unchecked.

        Only for results whose int entries and shape are known by
        construction (products, sums, stacks, transposes, entry-wise maps);
        everything else goes through the checked constructor.
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
        return cls(tuple(map(tuple, rows)), ncols)

    @classmethod
    def from_cols(cls, cols: Iterable[Sequence[int]], nrows: int = -1) -> "IntMatrix":
        cols = _int_tuples(cols, "cols")
        if not cols:
            return cls(tuple(() for _ in range(max(nrows, 0))), 0)
        height = len(cols[0])
        if any(len(c) != height for c in cols):
            raise ValueError(f"ragged columns: {sorted({len(c) for c in cols})}")
        return cls._trusted(tuple(zip(*cols)), len(cols))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls._trusted(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), n)

    @classmethod
    def zero(cls, nrows: int, ncols: int) -> "IntMatrix":
        return cls._trusted(tuple((0,) * ncols for _ in range(nrows)), ncols)

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
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch: {self.shape} @ {other.shape}")
        ocols = other.ncols
        # columns of `other`; with no rows, each of its columns is empty
        cols = tuple(zip(*other.rows)) if other.rows else ((),) * ocols
        mul = operator.mul
        return IntMatrix._trusted(tuple(tuple(sum(map(mul, r, c)) for c in cols) for r in self.rows), ocols)

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} + {other.shape}")
        return IntMatrix._trusted(
            tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows)),
            self.ncols,
        )

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self + (-other)

    def __neg__(self) -> "IntMatrix":
        return IntMatrix._trusted(tuple(tuple(-x for x in r) for r in self.rows), self.ncols)

    def scaled(self, c: int) -> "IntMatrix":
        _check_int(c, "c")
        return IntMatrix._trusted(tuple(tuple(c * x for x in r) for r in self.rows), self.ncols)

    def apply(self, v: Sequence[int]) -> tuple[int, ...]:
        """Matrix-vector product."""
        if len(v) != self.ncols:
            raise ValueError(f"shape mismatch: {self.shape} @ vector of length {len(v)}")
        mul = operator.mul
        return tuple(sum(map(mul, r, v)) for r in self.rows)

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.nrows != other.nrows:
            raise ValueError(f"shape mismatch: {self.shape} beside {other.shape}")
        return IntMatrix._trusted(
            tuple(ra + rb for ra, rb in zip(self.rows, other.rows)), self.ncols + other.ncols
        )

    def vstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.ncols != other.ncols:
            raise ValueError(f"shape mismatch: {self.shape} over {other.shape}")
        return IntMatrix._trusted(self.rows + other.rows, self.ncols)

    def submatrix_cols(self, js: Sequence[int]) -> "IntMatrix":
        return IntMatrix._trusted(tuple(tuple(r[j] for j in js) for r in self.rows), len(js))

    def __str__(self) -> str:
        return "[" + "; ".join(" ".join(str(x) for x in r) for r in self.rows) + "]"


def fraction_free_solve(a: IntMatrix, b: IntMatrix | None = None) -> tuple[int, IntMatrix | None]:
    """(den, x) with a @ x == den * b, by one forward Bareiss elimination
    (Math. Comp. 22, 1968) of [a | b] with row pivoting, then a fraction-free
    back substitution; every division is exact.

    den is 0 when the columns of a are dependent (x is then None), else up
    to sign the maximal minor of a on the pivot rows: exactly det a when a
    is square.  x is then the unique solution, or None when a column of b
    lies outside the column span of a; without b, den alone is computed and
    x is None.  Raises ValueError when b has not the rows of a.
    """
    n, m = len(a.rows), a.ncols
    if b is None:
        k, rows = 0, [list(r) for r in a.rows]
    elif b.nrows != n:
        raise ValueError(f"b must have the {n} rows of a, got shape {b.shape}")
    else:
        k, rows = b.ncols, [list(r + s) for r, s in zip(a.rows, b.rows)]
    width = m + k
    sign = prev = 1
    for t in range(m):
        if not (t < n and rows[t][t]):
            i = next((i for i in range(t + 1, n) if rows[i][t]), None)
            if i is None:
                return 0, None
            rows[t], rows[i] = rows[i], rows[t]
            sign = -sign
        pivot = rows[t]
        p = pivot[t]
        # only the columns right of the pivot change; below it, column t is
        # never read again
        for r in rows[t + 1 :]:
            f = r[t]
            if f:
                for j in range(t + 1, width):
                    r[j] = (p * r[j] - f * pivot[j]) // prev
            elif p != prev:  # the row is only rescaled, by p / prev
                for j in range(t + 1, width):
                    r[j] = p * r[j] // prev
        prev = p
    den = sign * prev
    # b, if given, is in the span when no row without a pivot has a right-hand side left
    if b is None or any(any(r[m:]) for r in rows[m:]):
        return den, None
    # den * y for the solution y over Q of the pivot rows, integral by
    # Cramer's rule, so every division below is exact
    xs: list[list[int]] = [[]] * m
    for t in range(m - 1, -1, -1):
        r = rows[t]
        acc = [den * c for c in r[m:]]
        for j in range(t + 1, m):
            if r[j]:
                acc = [s - r[j] * y for s, y in zip(acc, xs[j])]
        xs[t] = [s // r[t] for s in acc]
    x = IntMatrix._trusted(tuple(map(tuple, xs)), k)
    assert a @ x == b.scaled(den)
    return den, x


def det(m: IntMatrix) -> int:
    """Exact determinant: `fraction_free_solve` with no right-hand side."""
    if m.nrows != m.ncols:
        raise ValueError(f"det of a non-square {m.shape} matrix")
    return fraction_free_solve(m)[0]


def rank_mod_2(m: IntMatrix) -> int:
    """Rank of m over F_2, by elimination on its rows read as bitmasks; each
    row is cut down by the kept rows until its leading bit is new or it
    vanishes.  No Smith form."""
    kept: dict[int, int] = {}  # leading bit -> kept row
    for row in m.rows:
        bits = sum(1 << j for j, x in enumerate(row) if x & 1)
        while bits:
            lead = bits.bit_length() - 1
            if lead not in kept:
                kept[lead] = bits
                break
            bits ^= kept[lead]
    return len(kept)


def _unimodular_inverse(m: IntMatrix) -> IntMatrix:
    """Exact inverse of a square integer matrix with det ±1: the solution x
    of m @ x == d * I, times d = det m."""
    d, x = fraction_free_solve(m, IntMatrix.identity(m.nrows))
    if d not in (1, -1):
        raise ValueError(f"det is {d}, not ±1: {m}")
    return x if d == 1 else -x


@dataclass(frozen=True)
class SmithDecomposition:
    """Smith normal form u @ m @ v == d with unimodular u, v.

    `d` is diagonal with nonnegative entries in a divisibility chain
    d[0] | d[1] | ... ; `smith_normal_form` certifies u @ m @ v == d and
    |det u| == |det v| == 1.  The exact inverses `u_inv` and `v_inv` are
    computed on first read, each by one `fraction_free_solve` against the
    identity; no library code reads them.
    `smith_normal_form` keeps nothing: a caller asking twice about one
    matrix keeps the decomposition (a `Fan` keeps its ray matrix's).
    """

    matrix: IntMatrix
    u: IntMatrix
    d: IntMatrix
    v: IntMatrix

    @cached_property
    def u_inv(self) -> IntMatrix:
        return _unimodular_inverse(self.u)

    @cached_property
    def v_inv(self) -> IntMatrix:
        return _unimodular_inverse(self.v)

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

    @cached_property
    def cokernel(self) -> "FGAbelianGroup":
        """Z^nrows modulo the column span of the matrix, in canonical form."""
        return FGAbelianGroup(self.matrix.nrows - self.rank, self.nonunit_factors)


def smith_normal_form(m: IntMatrix) -> SmithDecomposition:
    """Compute and certify the Smith normal form of an integer matrix.

    Deterministic pivot rule: among nonzero entries of the active submatrix,
    pick the one of smallest absolute value, breaking ties by lowest row index
    and then lowest column index.  Row/column operations reduce around the
    pivot; when a remainder appears it becomes the new (strictly smaller)
    pivot, so the process terminates.  Once a pivot divides its whole trailing
    block it is final; signs are normalized at the end.

    Returns:
        SmithDecomposition with u @ m @ v == d, |det u| == |det v| == 1,
        d diagonal, nonnegative, each entry dividing the next.  These are
        what the certificate asserts; the elimination tracks only u and v,
        and their inverses are computed on first read.

    Raises:
        TypeError: `m` is not an IntMatrix.
    """
    if not isinstance(m, IntMatrix):
        raise TypeError(f"m must be an IntMatrix, got {type(m).__name__}")
    nr, nc = m.shape
    a = [list(r) for r in m.rows]
    u = [[int(i == j) for j in range(nr)] for i in range(nr)]
    v = [[int(i == j) for j in range(nc)] for i in range(nc)]

    def swap_rows(i: int, k: int) -> None:
        if i == k:
            return
        a[i], a[k] = a[k], a[i]
        u[i], u[k] = u[k], u[i]

    def swap_cols(j: int, k: int) -> None:
        if j == k:
            return
        for r in a:
            r[j], r[k] = r[k], r[j]
        for r in v:
            r[j], r[k] = r[k], r[j]

    def row_sub(i: int, k: int, q: int) -> None:
        # row_i -= q * row_k
        if q == 0:
            return
        a[i] = [x - q * y for x, y in zip(a[i], a[k])]
        u[i] = [x - q * y for x, y in zip(u[i], u[k])]

    def col_sub(j: int, k: int, q: int) -> None:
        # col_j -= q * col_k
        if q == 0:
            return
        for r in a:
            r[j] -= q * r[k]
        for r in v:
            r[j] -= q * r[k]

    def negate_row(i: int) -> None:
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

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
        u=IntMatrix._trusted(tuple(map(tuple, u)), nr),
        d=IntMatrix._trusted(tuple(map(tuple, a)), nc),
        v=IntMatrix._trusted(tuple(map(tuple, v)), nc),
    )
    assert dec.u @ m @ dec.v == dec.d
    assert abs(det(dec.u)) == 1 and abs(det(dec.v)) == 1
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
    isomorphic.  Any other value raises ValueError; a free_rank or factor
    that is not exactly an int, or factors not in a tuple, raise TypeError,
    also under python -O.

    >>> FGAbelianGroup.from_factors([2, 3])
    FGAbelianGroup(free_rank=0, invariant_factors=(6,))
    >>> str(FGAbelianGroup(1, (2, 4)))
    'Z + Z/2 + Z/4'
    """

    free_rank: int
    invariant_factors: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        _check_int(self.free_rank, "free_rank")
        factors = self.invariant_factors
        if type(factors) is not tuple:
            raise TypeError(f"invariant_factors must be a tuple, got {type(factors).__name__} {factors!r}")
        _check_int_entries((factors,), "invariant_factors")
        if self.free_rank < 0:
            raise ValueError(f"free_rank must be >= 0, got {self.free_rank}")
        if any(f < 2 or f % x for x, f in zip((1,) + factors, factors)):
            raise ValueError(
                f"invariant_factors must be >= 2, each dividing the next, got {factors}"
            )

    @classmethod
    def trivial(cls) -> "FGAbelianGroup":
        return cls(0, ())

    @classmethod
    def free(cls, rank: int) -> "FGAbelianGroup":
        return cls(rank, ())

    @classmethod
    def cyclic(cls, n: int) -> "FGAbelianGroup":
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        return cls(0, ()) if n == 1 else cls(0, (n,))

    @classmethod
    def from_factors(cls, factors: Sequence[int], free_rank: int = 0) -> "FGAbelianGroup":
        """Canonicalize an arbitrary list of cyclic factor sizes.

        Zeros count toward the free rank; the rest are merged into a proper
        divisibility chain (so [2, 3] becomes (6,), and [4, 2, 4] -> (2, 4, 4)):
        each passes down the chain as (chain[i], f) = (gcd, lcm), which sorts
        every prime's exponents with nothing factored, and the 1s are dropped.
        Raises ValueError on a negative factor.
        """
        if any(f < 0 for f in factors):
            raise ValueError(f"factors must be >= 0, got {list(factors)}")
        free = free_rank + sum(1 for f in factors if f == 0)
        chain: list[int] = []
        for f in filter(None, factors):
            for i, link in enumerate(chain):
                chain[i], f = math.gcd(link, f), math.lcm(link, f)
            chain.append(f)
        return cls(free, tuple(f for f in chain if f > 1))

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.invariant_factors

    def is_finite(self) -> bool:
        return self.free_rank == 0

    def order(self) -> int | None:
        """Group order, or None when infinite."""
        if self.free_rank:
            return None
        return math.prod(self.invariant_factors) if self.invariant_factors else 1

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
    return smith_normal_form(m).cokernel


def kernel_basis(m: IntMatrix) -> IntMatrix:
    """Basis (as columns) of the right kernel {x : m @ x = 0}.

    The returned basis spans a saturated sublattice: any integer vector killed
    by m is an integer combination of the columns.
    """
    dec = smith_normal_form(m)
    js = [j for j in range(m.ncols) if j >= len(dec.diagonal) or dec.diagonal[j] == 0]
    return dec.v.submatrix_cols(js)


def saturation_basis(dec: SmithDecomposition) -> IntMatrix:
    """Basis of the saturation (Q-span intersected with Z^nrows) of the
    column span of the matrix `dec` factors: the first rank columns of the
    unimodular u^-1, read off m @ v, whose column j is d_j u^-1[:, j]."""
    r = dec.rank
    image = dec.matrix @ dec.v.submatrix_cols(list(range(r)))
    return IntMatrix._trusted(
        tuple(tuple(map(operator.floordiv, row, dec.diagonal)) for row in image.rows), r
    )


def lattice_subquotient(sup_gens: IntMatrix, sub_gens: IntMatrix) -> FGAbelianGroup:
    """Quotient of the lattice L spanned by the columns of sup_gens, which may
    be dependent, by the span of sub_gens.

    Every column of sub_gens must be an integer combination of the columns of
    sup_gens, else MembershipError.
    """
    dec = smith_normal_form(sup_gens)
    r = dec.rank
    # u @ sup_gens @ v == d, so the columns d_i * u^-1[:, i] for i < r are a
    # basis of L.  Column j of sub_gens lies in L iff row i of u @ sub_gens
    # is divisible by d_i for i < r and zero from row r on; the quotients
    # are its coordinates in that basis.
    c = dec.u @ sub_gens
    bad = {j for row in c.rows[r:] for j, x in enumerate(row) if x}
    y = []
    for di, row in zip(dec.diagonal[:r], c.rows):
        bad.update(j for j, x in enumerate(row) if x % di)
        y.append(tuple(x // di for x in row))
    if bad:
        raise MembershipError(
            f"column {min(bad)} of the subgroup generators is not in the ambient lattice"
        )
    return cokernel_presentation(IntMatrix._trusted(tuple(y), sub_gens.ncols))


def basis_mod(gens: IntMatrix, modulus: int) -> IntMatrix:
    """Triangular basis of the lattice spanned by gens plus modulus * Z^nrows.

    The result is square lower-triangular with positive diagonal entries
    dividing `modulus` and off-diagonal entries in [0, modulus).  Because the
    lattice contains modulus * Z^nrows, each elimination step may subtract
    multiples of modulus * e_i, so all intermediate values stay below the
    modulus, whatever the size of the generators; the generic elimination of
    the Smith normal form offers no such bound.
    """
    if modulus < 1:
        raise ValueError(f"modulus must be >= 1, got {modulus}")
    m = gens.nrows
    # an active column holds only its rows from i on: those above are zero
    active = [[x % modulus for x in gens.col(j)] for j in range(gens.ncols)]
    basis_cols: list[list[int]] = []
    for i in range(m):
        piv: list[int] | None = None
        rest: list[list[int]] = []
        for col in active:
            if col[0] == 0:
                rest.append(col)
            elif piv is None:
                piv = col
            else:
                a, b = piv[0], col[0]
                g, s, t = _ext_gcd(a, b)
                u, v = a // g, b // g
                # unimodular on the pair: det [[s, t], [-v, u]] = s*u + t*v = 1
                piv, demoted = (
                    [(s * x + t * y) % modulus for x, y in zip(piv, col)],
                    [(u * y - v * x) % modulus for x, y in zip(piv, col)],
                )
                piv[0] = g  # s*a + t*b exactly; % modulus would keep it anyway
                rest.append(demoted)
        if piv is None:
            piv = [modulus] + [0] * (m - i - 1)
        else:
            # fold in the implicit generator modulus * e_i the same way
            g, s, _ = _ext_gcd(piv[0], modulus)
            rest.append([(-(modulus // g) * x) % modulus for x in piv])
            piv = [(s * x) % modulus for x in piv]
            piv[0] = g
        basis_cols.append([0] * i + piv)
        active = [tail for col in rest if any(tail := col[1:])]
    result = IntMatrix.from_cols(basis_cols, m)
    assert all(result.rows[i][j] == 0 for i in range(m) for j in range(i + 1, m))
    assert all(modulus % result.rows[i][i] == 0 for i in range(m))
    return result


def congruence_kernel(m: IntMatrix, modulus: int) -> IntMatrix:
    """Basis of {x in Z^ncols : m @ x == 0 (mod modulus)}, in the bounded
    triangular form of `basis_mod`.

    With k = m.nrows, the graph lattice {(a, x) : a == m @ x (mod c)} is
    spanned by the columns of [m; I] and c Z^(k + ncols).  Its `basis_mod`
    form is lower triangular, so its columns from k on have zero a-part, and
    by triangularity every (0, x) in the graph lattice is a combination of
    them alone: the trailing ncols x ncols block is a basis of the kernel.
    Every step runs mod c, so no entry exceeds c, and no Smith form is taken.
    """
    k, n = m.shape
    graph = basis_mod(m.vstack(IntMatrix.identity(n)), modulus)
    x_rows = graph.rows[k:]
    # certificate: every column of `graph` lies in the graph lattice, whose
    # index in Z^(k + n) is c^k, so `graph` spans all of it
    assert all(
        (a - b) % modulus == 0
        for top, image in zip(graph.rows, (m @ IntMatrix._trusted(x_rows, k + n)).rows)
        for a, b in zip(top, image)
    )
    assert math.prod(graph.rows[i][i] for i in range(k + n)) == modulus**k
    return IntMatrix._trusted(tuple(row[k:] for row in x_rows), n)


def _diagonal_product(basis: IntMatrix) -> int:
    return math.prod(row[i] for i, row in enumerate(basis.rows))


def index_mod(gens: IntMatrix, modulus: int) -> int:
    """[Z^nrows : im gens + modulus Z^nrows], the product of the diagonal of
    `basis_mod(gens, modulus)`; it divides modulus^nrows."""
    return _diagonal_product(basis_mod(gens, modulus))


def intersection_mod(a: IntMatrix, b: IntMatrix, modulus: int) -> IntMatrix:
    """Basis, in the form of `basis_mod`, of the intersection of
    im a + c Z^n and im b + c Z^n, for c = modulus.

    z lies in both exactly when z = a s + c u = b t + c v, that is when
    a s - b t == 0 (mod c), and then z - a s lies in c Z^n: the
    intersection is a s + c Z^n over the congruence kernel (s, t) of
    [a | -b].  Raises ValueError unless b has the rows of a.
    """
    if a.nrows != b.nrows:
        raise ValueError(f"b must have the {a.nrows} rows of a, got shape {b.shape}")
    kernel = congruence_kernel(a.hstack(-b), modulus)
    return basis_mod(a @ IntMatrix._trusted(kernel.rows[: a.ncols], kernel.ncols), modulus)


def quotient_mod(sup: IntMatrix, sub: IntMatrix, modulus: int) -> FGAbelianGroup:
    """(im sup + c Z^n) / (im sub + c Z^n), for c = modulus.

    The subgroup lies in the ambient lattice exactly when adding its
    generators leaves the ambient index unchanged; MembershipError
    otherwise.  The quotient then has order D = index(sub) / index(sup):
    it is trivial when D = 1, with no Smith form, and otherwise the
    `lattice_subquotient` of the two `basis_mod` bases, whose entries lie
    below c, certified to have order D.  Raises ValueError unless sub has
    the rows of sup.
    """
    if sup.nrows != sub.nrows:
        raise ValueError(f"sub must have the {sup.nrows} rows of sup, got shape {sub.shape}")
    sup_basis, sub_basis = basis_mod(sup, modulus), basis_mod(sub, modulus)
    sup_index = _diagonal_product(sup_basis)
    if index_mod(sup_basis.hstack(sub_basis), modulus) != sup_index:
        raise MembershipError("a column of the subgroup generators is not in the ambient lattice")
    order = _diagonal_product(sub_basis) // sup_index
    if order == 1:
        return FGAbelianGroup.trivial()
    result = lattice_subquotient(sup_basis, sub_basis)
    assert result.order() == order
    return result
