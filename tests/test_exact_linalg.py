"""Integer linear algebra: frozen oracle values and structural properties."""

import ast
import math
import operator
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricforms import exact_linalg
from toricforms.classify import BUILTIN_NAMES, builtin_fan, classify_fan, classify_projective
from toricforms.cohomology import h1_cyclic_norm_formula
from toricforms.fan_aut import automorphism_group
from toricforms.fans import Fan, validate_fan
from toricforms.exact_linalg import (
    FGAbelianGroup,
    IntMatrix,
    MembershipError,
    SmithDecomposition,
    basis_mod,
    cokernel_presentation,
    congruence_kernel,
    det,
    fraction_free_solve,
    index_mod,
    intersection_mod,
    kernel_basis,
    lattice_subquotient,
    quotient_mod,
    saturation_basis,
    smith_normal_form,
)
from toricforms.galois import (
    FiniteFieldBackend,
    RealComplexBackend,
    SymbolicBrauerBackend,
    enumerate_hom_classes,
)

from test_preconditions import expected_lines, optimized_section

M = IntMatrix.from_rows


def test_matrix_basics():
    a = M([[1, 2], [3, 4]])
    assert a.shape == (2, 2)
    assert (a @ IntMatrix.identity(2)) == a
    assert a.transpose.rows == ((1, 3), (2, 4))
    assert (a - a).is_zero()
    assert a.apply((1, 1)) == (3, 7)
    assert a.col(1) == (2, 4)
    b = IntMatrix.from_cols([(1, 3), (2, 4)])
    assert b == a


def test_empty_shapes_are_tracked():
    e = IntMatrix.from_cols([], nrows=3)
    assert e.shape == (3, 0)
    assert e.transpose.shape == (0, 3)
    # equality must not depend on how the ncols hint was supplied
    assert M([[1, 2]]) == IntMatrix(((1, 2),), 2)
    assert IntMatrix.from_cols([(), ()]) == IntMatrix.zero(0, 2)
    # products, transposes and column builds skip the ragged check; they
    # must still equal the checked constructor's matrices
    a = M([[1, 2, 3], [4, 5, 6]])
    assert a @ IntMatrix.zero(3, 0) == IntMatrix.zero(2, 0)
    assert IntMatrix.zero(0, 2) @ a == IntMatrix.zero(0, 3)
    assert a.transpose == M([[1, 4], [2, 5], [3, 6]])
    assert hash(a.transpose) == hash(M([[1, 4], [2, 5], [3, 6]]))


def test_ragged_input_is_a_value_error():
    with pytest.raises(ValueError, match="ragged rows"):
        M([[1, 2], [3]])
    with pytest.raises(ValueError, match="ragged columns"):
        IntMatrix.from_cols([(1, 2), (3,)])


def test_det_frozen_values():
    assert det(M([[1, 2], [3, 4]])) == -2
    assert det(IntMatrix.identity(3)) == 1
    assert det(M([[2, 0], [0, 3]])) == 6
    assert det(M([[1, 1], [1, 1]])) == 0
    assert det(IntMatrix.from_rows([], ncols=0)) == 1


# --- Smith normal form ------------------------------------------------------
# The first two decompositions were worked by hand with the pinned pivot rule
# (smallest absolute value, lowest row then column on ties) and frozen here so
# any drift in the rule is caught, not just wrong diagonals.


def test_snf_frozen_full_decomposition():
    dec = smith_normal_form(M([[2, 4], [6, 8]]))
    assert dec.d == M([[2, 0], [0, 4]])
    assert dec.u == M([[1, 0], [3, -1]])
    assert dec.v == M([[1, -2], [0, 1]])


def test_snf_frozen_tiebreak():
    # two entries of absolute value 1: (0,1) must win over (1,0)
    dec = smith_normal_form(M([[3, 1], [1, 3]]))
    assert dec.d == M([[1, 0], [0, 8]])
    assert dec.u == M([[1, 0], [3, -1]])
    assert dec.v == M([[0, 1], [1, -3]])


def test_snf_frozen_diagonals():
    cases = [
        ([[2, 0], [0, 3]], (1, 6)),
        ([[2, 0], [0, 2]], (2, 2)),
        ([[0, 0], [0, 0]], (0, 0)),
        ([[2, 4, 6]], (2,)),
        ([[2], [4], [6]], (2,)),
        ([[1, 0], [0, 1]], (1, 1)),
    ]
    for rows, diag in cases:
        assert smith_normal_form(M(rows)).diagonal == diag


def _check_snf_contract(m: IntMatrix) -> None:
    dec = smith_normal_form(m)
    assert dec.u @ m @ dec.v == dec.d
    assert abs(det(dec.u)) == 1
    assert abs(det(dec.v)) == 1
    assert dec.u @ dec.u_inv == IntMatrix.identity(m.nrows)
    assert dec.v @ dec.v_inv == IntMatrix.identity(m.ncols)
    assert saturation_basis(dec) == dec.u_inv.submatrix_cols(list(range(dec.rank)))
    diag = dec.diagonal
    assert all(x >= 0 for x in diag)
    for x, y in zip(diag, diag[1:]):
        assert y % x == 0 if x else y == 0
    for i in range(dec.d.nrows):
        for j in range(dec.d.ncols):
            if i != j:
                assert dec.d.entry(i, j) == 0


def test_snf_against_sympy_oracle():
    import sympy
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    cases = [
        [[2, 4, 4], [-6, 6, 12], [10, 4, 16]],
        [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
        [[6, 10], [15, 4]],
        [[0, 2], [3, 0], [0, 0]],
        [[5]],
        [[12, 8, 6], [4, 2, 0]],
    ]
    for rows in cases:
        m = M(rows)
        _check_snf_contract(m)
        ours = [x for x in smith_normal_form(m).diagonal if x]
        theirs = sympy_snf(sympy.Matrix(rows))
        ref = sorted(abs(theirs[i, i]) for i in range(min(theirs.shape)) if theirs[i, i])
        assert sorted(ours) == ref


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.data(),
)
def test_snf_properties_random(nr, nc, data):
    rows = [
        [data.draw(st.integers(-30, 30)) for _ in range(nc)] for _ in range(nr)
    ]
    m = M(rows)
    _check_snf_contract(m)
    # deterministic: recomputation is bitwise identical
    first = smith_normal_form(m)
    second = smith_normal_form(m)
    assert (first.u, first.d, first.v) == (second.u, second.d, second.v)


def _smith_with_tracked_inverses(m: IntMatrix):
    """The elimination `smith_normal_form` replaced, kept as its reference:
    the same pivot rule, with u^-1 and v^-1 carried through every row and
    column operation.  Returns (u, d, v, u_inv, v_inv)."""
    nr, nc = m.shape
    a = [list(r) for r in m.rows]
    u = [[int(i == j) for j in range(nr)] for i in range(nr)]
    uinv = [[int(i == j) for j in range(nr)] for i in range(nr)]
    v = [[int(i == j) for j in range(nc)] for i in range(nc)]
    vinv = [[int(i == j) for j in range(nc)] for i in range(nc)]

    def swap_rows(i, k):
        if i == k:
            return
        a[i], a[k] = a[k], a[i]
        u[i], u[k] = u[k], u[i]
        for r in uinv:  # inverse picks up the inverse op on columns
            r[i], r[k] = r[k], r[i]

    def swap_cols(j, k):
        if j == k:
            return
        for r in a:
            r[j], r[k] = r[k], r[j]
        for r in v:
            r[j], r[k] = r[k], r[j]
        vinv[j], vinv[k] = vinv[k], vinv[j]

    def row_sub(i, k, q):
        if q == 0:
            return
        a[i] = [x - q * y for x, y in zip(a[i], a[k])]
        u[i] = [x - q * y for x, y in zip(u[i], u[k])]
        for r in uinv:
            r[k] += q * r[i]

    def col_sub(j, k, q):
        if q == 0:
            return
        for r in a:
            r[j] -= q * r[k]
        for r in v:
            r[j] -= q * r[k]
        vinv[k] = [x + q * y for x, y in zip(vinv[k], vinv[j])]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]
        for r in uinv:
            r[i] = -r[i]

    t = 0
    bound = min(nr, nc)
    while t < bound:
        nonzero = [(abs(a[i][j]), i, j) for i in range(t, nr) for j in range(t, nc) if a[i][j]]
        if not nonzero:
            break
        _, pi, pj = min(nonzero)
        swap_rows(t, pi)
        swap_cols(t, pj)
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
            bad = next(
                (i for i in range(t + 1, nr) if any(x % piv for x in a[i][t + 1 :])), None
            )
            if bad is None:
                break
            row_sub(t, bad, -1)
        t += 1
    for i in range(bound):
        if a[i][i] < 0:
            negate_row(i)
    return tuple(M(x, n) for x, n in ((u, nr), (a, nc), (v, nc), (uinv, nr), (vinv, nc)))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6), st.booleans(), st.data())
def test_snf_matches_tracked_inverse_reference(nrows, ncols, inner, low_rank, data):
    # a product through a small inner dimension is rank deficient
    if low_rank:
        m = _draw_matrix(data, nrows, inner) @ _draw_matrix(data, inner, ncols)
    else:
        m = IntMatrix.from_rows(
            [[data.draw(st.integers(-30, 30)) for _ in range(ncols)] for _ in range(nrows)],
            ncols=ncols,
        )
    u, d, v, u_inv, v_inv = _smith_with_tracked_inverses(m)
    dec = smith_normal_form(m)
    assert (dec.u, dec.d, dec.v) == (u, d, v)
    assert (dec.u_inv, dec.v_inv) == (u_inv, v_inv)


def test_snf_inverses_do_not_call_smith_normal_form(monkeypatch):
    """The inverses are read inside traced SNF calls (perfbench's hook), so
    computing them must not recurse into `smith_normal_form`."""
    dec = smith_normal_form(M([[3, 1, 4], [1, 5, 9], [2, 6, 5]]))

    def refuse(_m):
        raise AssertionError("smith_normal_form called while inverting")

    monkeypatch.setattr(exact_linalg, "smith_normal_form", refuse)
    assert dec.u @ dec.u_inv == IntMatrix.identity(3)
    assert dec.v @ dec.v_inv == IntMatrix.identity(3)


def test_unimodular_inverse_refuses_other_determinants():
    with pytest.raises(ValueError, match="det is 2"):
        exact_linalg._unimodular_inverse(M([[2, 0], [0, 1]]))
    with pytest.raises(ValueError, match=r"^det is 0, not ±1: \[1 1; 1 1\]$"):
        exact_linalg._unimodular_inverse(M([[1, 1], [1, 1]]))
    assert exact_linalg._unimodular_inverse(M([[0, 1], [1, 0]])) == M([[0, 1], [1, 0]])
    assert exact_linalg._unimodular_inverse(IntMatrix.zero(0, 0)) == IntMatrix.zero(0, 0)


# --- derived lattice operations --------------------------------------------


def test_cokernel_frozen():
    assert cokernel_presentation(M([[2, 0], [0, 3]])) == FGAbelianGroup.cyclic(6)
    assert cokernel_presentation(M([[1], [1], [1]])) == FGAbelianGroup.free(2)
    assert cokernel_presentation(M([[2, 0], [0, 0], [0, 0]])) == FGAbelianGroup(2, (2,))
    assert cokernel_presentation(IntMatrix.identity(4)) == FGAbelianGroup.trivial()


def test_kernel_is_saturated():
    k = kernel_basis(M([[2, 2]]))
    assert k.ncols == 1
    assert k.col(0) in ((1, -1), (-1, 1))
    k2 = kernel_basis(M([[1, 1, 1]]))
    assert k2.ncols == 2
    assert M([[1, 1, 1]]) @ k2 == IntMatrix.zero(1, 2)
    # saturation: the quotient Z^3 / ker has no torsion
    assert cokernel_presentation(k2) == FGAbelianGroup.free(1)


def test_image_and_saturation():
    m = M([[2, 0], [0, 4], [0, 0]])
    sat = saturation_basis(smith_normal_form(m))
    assert lattice_subquotient(sat, m) == FGAbelianGroup.from_factors([2, 4])


def test_lattice_subquotient_frozen():
    i2 = IntMatrix.identity(2)
    assert lattice_subquotient(i2, M([[2, 0], [0, 3]])) == FGAbelianGroup.cyclic(6)
    assert lattice_subquotient(i2, IntMatrix.from_cols([(1, 0)])) == FGAbelianGroup.free(1)
    assert lattice_subquotient(i2, IntMatrix.from_cols([], nrows=2)) == FGAbelianGroup.free(2)
    with pytest.raises(MembershipError):
        lattice_subquotient(i2.scaled(2), IntMatrix.from_cols([(1, 0)]))


def lattice_intersection(gens_a: IntMatrix, gens_b: IntMatrix) -> IntMatrix:
    """The intersection route `intersection_mod` replaced, kept as its
    reference: generators (as columns) of the intersection of the two
    column-span lattices, a @ s for (s, t) over a basis of the integer
    kernel of [a | -b]."""
    if gens_a.nrows != gens_b.nrows:
        raise ValueError(
            f"gens_b must have the {gens_a.nrows} rows of gens_a, got shape {gens_b.shape}"
        )
    k = kernel_basis(gens_a.hstack(-gens_b))
    return gens_a @ IntMatrix(k.rows[: gens_a.ncols], k.ncols)


def test_lattice_intersection_frozen():
    a = IntMatrix.from_cols([(2, 0), (0, 1)])
    b = IntMatrix.from_cols([(3, 0), (0, 1)])
    meet = lattice_intersection(a, b)
    want = IntMatrix.from_cols([(6, 0), (0, 1)])
    assert lattice_subquotient(meet, want) == FGAbelianGroup.trivial()
    assert lattice_subquotient(want, meet) == FGAbelianGroup.trivial()
    # mod 12 the intersection is the same lattice, in `basis_mod` form
    assert intersection_mod(a, b, 12) == want
    assert intersection_mod(M([[2]]), M([[3]]), 12) == M([[6]])
    assert intersection_mod(a, IntMatrix.from_cols([], nrows=2), 12) == IntMatrix.diagonal([12, 12])


def test_congruence_kernel():
    basis = congruence_kernel(M([[1, 1]]), 2)
    assert basis.shape == (2, 2)
    assert abs(det(basis)) == 2
    for j in range(2):
        assert sum(basis.col(j)) % 2 == 0
    # d = (2, 6) mod 12: y_0 in 6Z, y_1 in 2Z, index 12
    basis = congruence_kernel(M([[2, 0], [0, 6]]), 12)
    assert det(basis) == 12 and _lattices_equal(basis, M([[6, 0], [0, 2]]))
    for m, modulus, want in (
        (IntMatrix.zero(0, 3), 12, IntMatrix.identity(3)),
        (IntMatrix.zero(3, 0), 12, IntMatrix.zero(0, 0)),
        (M([[5, 0], [0, 7]]), 1, IntMatrix.identity(2)),
    ):
        assert congruence_kernel(m, modulus) == want


def test_basis_mod_frozen():
    b = basis_mod(IntMatrix.from_cols([(2, 0), (0, 2)]), 4)
    assert b == M([[2, 0], [0, 2]])
    # no generators: the lattice is modulus * Z^n itself
    assert basis_mod(IntMatrix.from_cols([], nrows=3), 6) == IntMatrix.diagonal([6, 6, 6])
    # a unimodular generator set collapses to the identity
    assert basis_mod(M([[1, 7], [0, 1]]), 12) == IntMatrix.identity(2)
    # the index is the diagonal product
    assert index_mod(M([[2, 0], [0, 3]]), 12) == 6
    assert index_mod(IntMatrix.from_cols([], nrows=2), 6) == 36
    assert index_mod(IntMatrix.zero(0, 2), 12) == 1


def _lattices_equal(a: IntMatrix, b: IntMatrix) -> bool:
    return (
        lattice_subquotient(a, b) == FGAbelianGroup.trivial()
        and lattice_subquotient(b, a) == FGAbelianGroup.trivial()
    )


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(0, 5),
    st.sampled_from([1, 2, 3, 4, 6, 12, 63]),
    st.data(),
)
def test_basis_mod_matches_unbounded_route(nrows, ncols, modulus, data):
    entries = st.integers(-9, 9)
    cols = [
        [data.draw(entries) for _ in range(nrows)] for _ in range(ncols)
    ]
    gens = IntMatrix.from_cols(cols, nrows=nrows)
    b = basis_mod(gens, modulus)
    assert b.shape == (nrows, nrows)
    for i in range(nrows):
        assert 1 <= b.rows[i][i] <= modulus and modulus % b.rows[i][i] == 0
        for j in range(nrows):
            if j > i:
                assert b.rows[i][j] == 0
            elif j < i:
                assert 0 <= b.rows[i][j] < modulus
    slack = gens.hstack(IntMatrix.diagonal([modulus] * nrows))
    assert _lattices_equal(b, slack)


def congruence_kernel_basis(dec: SmithDecomposition, modulus: int) -> IntMatrix:
    """The route `congruence_kernel` replaced, kept as its reference: a basis
    of {x : m @ x == 0 (mod modulus)} for m = dec.matrix, read off the Smith
    normal form of m.  From u @ m @ v == d with u unimodular, m x == 0
    (mod c) exactly when y = v_inv @ x has d_j y_j == 0 (mod c) for every j,
    i.e. y_j in (c / gcd(d_j, c)) Z, with d_j = 0 past the rank (scale 1).
    So the kernel is spanned by the columns of v scaled by those factors,
    plus c Z^ncols, returned in the triangular form of `basis_mod`."""
    m = dec.matrix
    scales = [modulus // math.gcd(dj, modulus) for dj in dec.diagonal]
    scales += [1] * (m.ncols - len(scales))
    gens = IntMatrix.from_rows(
        [[x * scale for x, scale in zip(row, scales)] for row in dec.v.rows], m.ncols
    )
    basis = basis_mod(gens, modulus)
    assert all(x % modulus == 0 for row in (m @ basis).rows for x in row)
    assert math.prod(basis.rows[i][i] for i in range(m.ncols)) == math.prod(scales)
    return basis


def _congruence_kernel_by_stacking(m: IntMatrix, modulus: int) -> IntMatrix:
    """The route `congruence_kernel_basis` replaced, kept as a second
    reference: x with m x == 0 (mod c) are the first coordinates of the
    integer kernel of [m | c I]."""
    stacked = m.hstack(IntMatrix.diagonal([modulus] * m.nrows))
    k = kernel_basis(stacked)
    return basis_mod(IntMatrix(tuple(k.rows[: m.ncols]), k.ncols), modulus)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 5),
    st.integers(0, 5),
    st.integers(0, 5),
    st.sampled_from([1, 2, 12, 63, 728, 2400]),
    st.data(),
)
def test_congruence_kernel_matches_stacked_route(nrows, ncols, inner, modulus, data):
    """The graph-lattice kernel spans the lattice both Smith-form references
    span; a product through an inner dimension below both sides is rank
    deficient."""
    entries = st.integers(-30, 30)
    a = IntMatrix.from_rows(
        [[data.draw(entries) for _ in range(inner)] for _ in range(nrows)], ncols=inner
    )
    b = IntMatrix.from_rows(
        [[data.draw(entries) for _ in range(ncols)] for _ in range(inner)], ncols=ncols
    )
    m = a @ b if data.draw(st.booleans()) else IntMatrix.from_rows(
        [[data.draw(entries) for _ in range(ncols)] for _ in range(nrows)], ncols=ncols
    )
    basis = congruence_kernel(m, modulus)
    assert basis.shape == (ncols, ncols)
    assert all(0 <= x <= modulus for row in basis.rows for x in row)
    assert not any(any(row[i + 1 :]) for i, row in enumerate(basis.rows))
    assert _lattices_equal(basis, congruence_kernel_basis(smith_normal_form(m), modulus))
    assert _lattices_equal(basis, _congruence_kernel_by_stacking(m, modulus))


def test_congruence_kernel_entries_bounded():
    m = M([[3, 1, 4, 1], [5, 9, 2, 6]])
    basis = congruence_kernel(m, 63)
    assert all(0 <= x <= 63 for row in basis.rows for x in row)
    for j in range(basis.ncols):
        col = basis.col(j)
        assert all(sum(m.rows[i][k] * col[k] for k in range(4)) % 63 == 0 for i in range(2))


def triangular_subquotient(sup: IntMatrix, sub: IntMatrix) -> FGAbelianGroup:
    """The forward substitution `quotient_mod` replaced, kept as its second
    reference: the quotient of the lattice with basis `sup` by its
    sublattice with basis `sub`, both square lower triangular with positive
    diagonals, as `basis_mod` returns them.

    The coordinates y of sub in sup (sup @ y == sub) come from forward
    substitution with exact division; a column that does not divide is not
    in the lattice, and raises MembershipError naming the first such
    column.  y is lower triangular, so the quotient has order
    D = prod diag(sub) / prod diag(sup) = det y.  It is trivial when D = 1;
    otherwise a group of order D is killed by D, so D Z^n lies in y Z^n and
    the quotient is the cokernel of `basis_mod(y, D)`.  y itself is exact
    and may have entries far above those of either basis.  Raises
    ValueError unless both bases have that shape.
    """
    n = sup.nrows
    for name, basis in (("sup", sup), ("sub", sub)):
        rows = basis.rows
        if basis.shape != (n, n) or any(rows[i][i] <= 0 or any(rows[i][i + 1 :]) for i in range(n)):
            raise ValueError(
                f"{name} must be a {n} x {n} lower-triangular basis with positive"
                f" diagonal, got shape {basis.shape}"
            )
    cols = []
    for j in range(n):
        # rows above j of sub's column j are zero, hence so are its coordinates
        coords = [0] * n
        for i in range(j, n):
            row = sup.rows[i]
            coords[i], rest = divmod(
                sub.rows[i][j] - sum(map(operator.mul, row[j:i], coords[j:i])), row[i]
            )
            if rest:
                raise MembershipError(
                    f"column {j} of the subgroup generators is not in the ambient lattice"
                )
        cols.append(coords)
    y = IntMatrix.from_cols(cols, n)
    assert sup @ y == sub
    order = math.prod(cols[i][i] for i in range(n))
    if order == 1:
        return FGAbelianGroup.trivial()
    result = cokernel_presentation(basis_mod(y, order))
    assert result.order() == order
    return result


def test_triangular_subquotient_frozen():
    """The substitution and `quotient_mod` (mod 12) on the same bases."""
    i2 = IntMatrix.identity(2)
    for subquotient in (triangular_subquotient, lambda sup, sub: quotient_mod(sup, sub, 12)):
        assert subquotient(i2, M([[2, 0], [1, 6]])) == FGAbelianGroup.cyclic(12)
        assert subquotient(i2, M([[2, 0], [0, 6]])) == FGAbelianGroup.from_factors([2, 6])
        assert subquotient(M([[2, 0], [1, 3]]), M([[2, 0], [1, 3]])).is_trivial()
        assert subquotient(IntMatrix.zero(0, 0), IntMatrix.zero(0, 0)).is_trivial()
    # columns 1 and 2 are not in Z + 2Z + 2Z; the substitution names column 1
    with pytest.raises(MembershipError, match="^column 1 "):
        triangular_subquotient(IntMatrix.diagonal([1, 2, 2]), IntMatrix.identity(3))
    with pytest.raises(MembershipError):
        quotient_mod(IntMatrix.diagonal([1, 2, 2]), IntMatrix.identity(3), 12)
    # generators, not bases: 2 and 3 span Z; no subgroup generators leave Z^2 / 4 Z^2
    assert quotient_mod(M([[2, 3]]), M([[1]]), 12).is_trivial()
    assert quotient_mod(i2, IntMatrix.from_cols([], nrows=2), 4) == FGAbelianGroup(0, (4, 4))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 4), st.sampled_from([1, 2, 12, 63, 728]), st.data())
def test_triangular_subquotient_matches_smith_route(n, modulus, data):
    """On random generators of sup and sub, with sub built from members of
    sup and sometimes one arbitrary column, `quotient_mod` gives the group
    that `lattice_subquotient` and the forward substitution
    `triangular_subquotient` give on their `basis_mod` bases, or raises
    MembershipError as both do."""
    entries = st.integers(-30, 30)

    def gens(ncols: int) -> IntMatrix:
        return IntMatrix.from_rows(
            [[data.draw(entries) for _ in range(ncols)] for _ in range(n)], ncols=ncols
        )

    sup_gens = gens(data.draw(st.integers(0, n + 1)))
    sup = basis_mod(sup_gens, modulus)
    members = sup @ gens(data.draw(st.integers(0, n + 1)))
    if members.ncols and data.draw(st.booleans()):
        cols = members.cols()
        cols[data.draw(st.integers(0, len(cols) - 1))] = tuple(
            data.draw(entries) for _ in range(n)
        )
        members = IntMatrix.from_cols(cols, n)
    sub = basis_mod(members, modulus)
    try:
        want = lattice_subquotient(sup, sub)
    except MembershipError as exc:
        with pytest.raises(MembershipError, match=f"^{re.escape(str(exc))}$"):
            triangular_subquotient(sup, sub)
        with pytest.raises(MembershipError):
            quotient_mod(sup_gens, members, modulus)
    else:
        assert quotient_mod(sup_gens, members, modulus) == want
        assert triangular_subquotient(sup, sub) == want


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 4), st.sampled_from([1, 2, 12, 63, 728]), st.data())
def test_intersection_mod_matches_smith_route(n, modulus, data):
    """On random generators a and b, `intersection_mod` spans the lattice
    that `lattice_intersection` gives on im a + c Z^n and im b + c Z^n."""
    entries = st.integers(-30, 30)

    def gens() -> IntMatrix:
        ncols = data.draw(st.integers(0, n + 1))
        return IntMatrix.from_rows(
            [[data.draw(entries) for _ in range(ncols)] for _ in range(n)], ncols=ncols
        )

    slack = IntMatrix.diagonal([modulus] * n)
    a, b = gens(), gens()
    meet = intersection_mod(a, b, modulus)
    want = lattice_intersection(a.hstack(slack), b.hstack(slack))
    assert all(0 <= x <= modulus for row in meet.rows for x in row)
    assert index_mod(meet, modulus) == index_mod(want, modulus)
    assert quotient_mod(meet, want, modulus).is_trivial()
    assert quotient_mod(want, meet, modulus).is_trivial()


# --- abelian group canonical form ------------------------------------------


def test_fg_abelian_group_canonicalization():
    assert FGAbelianGroup.from_factors([2, 3]) == FGAbelianGroup(0, (6,))
    assert FGAbelianGroup.from_factors([4, 6]) == FGAbelianGroup(0, (2, 12))
    assert FGAbelianGroup.from_factors([2, 2]) == FGAbelianGroup(0, (2, 2))
    assert FGAbelianGroup.from_factors([0, 2]) == FGAbelianGroup(1, (2,))
    assert FGAbelianGroup.from_factors([1, 1]) == FGAbelianGroup.trivial()
    assert FGAbelianGroup.cyclic(1).is_trivial()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 72), max_size=6), st.integers(0, 2))
def test_from_factors_is_the_smith_form_of_the_diagonal(factors, free_rank):
    """`from_factors` merges the factors by gcd and lcm; the nonunit
    factors of the Smith form of their diagonal are the reference."""
    finite = [f for f in factors if f not in (0, 1)]
    want = smith_normal_form(IntMatrix.diagonal(finite)).nonunit_factors if finite else ()
    got = FGAbelianGroup.from_factors(factors, free_rank)
    assert got == FGAbelianGroup(free_rank + factors.count(0), want)


def _exponent(g: FGAbelianGroup) -> int | None:
    """Least common multiple of the element orders; None when g is infinite."""
    if g.free_rank:
        return None
    return g.invariant_factors[-1] if g.invariant_factors else 1


def test_fg_abelian_group_queries():
    g = FGAbelianGroup(0, (2, 4))
    assert g.order() == 8
    assert _exponent(g) == 4
    assert _exponent(FGAbelianGroup.free(1)) is None
    assert _exponent(FGAbelianGroup.trivial()) == 1
    assert FGAbelianGroup.free(1).order() is None
    assert str(g) == "Z/2 + Z/4"
    assert str(FGAbelianGroup.trivial()) == "1"
    assert g.direct_sum(FGAbelianGroup.cyclic(3)) == FGAbelianGroup(0, (2, 12))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 12), max_size=5), st.lists(st.integers(0, 12), max_size=5))
def test_direct_sum_matches_factor_concatenation(xs, ys):
    xs = [x for x in xs if x != 1]
    ys = [y for y in ys if y != 1]
    a = FGAbelianGroup.from_factors(xs)
    b = FGAbelianGroup.from_factors(ys)
    assert a.direct_sum(b) == FGAbelianGroup.from_factors(xs + ys)


# --- rational solves ---------------------------------------------------------


def rational_solve(dec: SmithDecomposition, b: IntMatrix) -> tuple[IntMatrix, int] | None:
    """The solve `fraction_free_solve` replaced, kept as its reference:
    a @ x = b over Q as integers, for a = dec.matrix: (x, den) with
    a @ x == den * b.

    From u @ a @ v == d the system reads d @ y == den * (u @ b) in y =
    v_inv @ x.  `den` is the last nonzero invariant factor of a (1 when a is
    zero); every d_i divides it, so y_i = (den / d_i) * (u @ b)_i is integral
    for i below the rank, and the free coordinates beyond it are pinned to
    zero.  None when a row of u @ b beyond the rank is nonzero, i.e. the
    system is inconsistent over Q.
    """
    a = dec.matrix
    if b.nrows != a.nrows:
        raise ValueError(f"b must have the {a.nrows} rows of the matrix, got shape {b.shape}")
    r = dec.rank
    den = dec.diagonal[r - 1] if r else 1
    c = dec.u @ b
    if any(any(row) for row in c.rows[r:]):
        return None
    y = tuple(tuple(den // di * t for t in row) for di, row in zip(dec.diagonal, c.rows[:r]))
    x = dec.v @ IntMatrix(y + ((0,) * b.ncols,) * (a.ncols - r), b.ncols)
    assert a @ x == b.scaled(den)
    return x, den


def _bareiss_det(m: IntMatrix) -> int:
    """The determinant `det` replaced, kept as its reference: a forward
    Bareiss elimination of m alone."""
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


def test_fraction_free_solve_frozen():
    cols = IntMatrix.from_cols
    assert fraction_free_solve(M([[2, 1], [1, 1]]), IntMatrix.identity(2)) == (1, M([[1, -1], [-1, 2]]))
    # den is det a, sign included, and x solves a @ x == den * b
    assert fraction_free_solve(M([[0, 1], [1, 0]]), cols([(2, 3)])) == (-1, cols([(-3, -2)]))
    assert fraction_free_solve(M([[2, 0], [0, 4]]), cols([(1, 2)])) == (8, cols([(4, 4)]))
    # more rows than columns: den is a nonzero maximal minor, up to sign
    assert fraction_free_solve(M([[2], [4]]), cols([(1, 2)])) == (2, M([[1]]))
    assert fraction_free_solve(M([[0], [3]]), cols([(0, 1)])) == (-3, M([[-1]]))
    # dependent columns, and a right-hand side outside the span
    assert fraction_free_solve(M([[1, 1], [1, 1]]), cols([(1, 1)])) == (0, None)
    assert fraction_free_solve(M([[1], [1]]), cols([(0, 1)])) == (1, None)
    # no right-hand side: den alone
    assert fraction_free_solve(M([[1, 2], [3, 4]])) == (-2, None)
    assert fraction_free_solve(M([[1, 2], [2, 4]])) == (0, None)
    # degenerate shapes: no columns are independent, no rows leave any column dependent
    assert fraction_free_solve(IntMatrix.zero(0, 0), IntMatrix.zero(0, 1)) == (1, IntMatrix.zero(0, 1))
    assert fraction_free_solve(IntMatrix.zero(2, 0), IntMatrix.zero(2, 1)) == (1, IntMatrix.zero(0, 1))
    assert fraction_free_solve(IntMatrix.zero(2, 0), cols([(0, 1)])) == (1, None)
    assert fraction_free_solve(IntMatrix.zero(0, 3), IntMatrix.zero(0, 2)) == (0, None)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.integers(0, 2),
    st.booleans(), st.booleans(), st.data(),
)
def test_fraction_free_solve_matches_smith_reference(
    nrows, ncols, inner, nrhs, low_rank, consistent, data
):
    def draw(r: int, c: int) -> IntMatrix:
        return IntMatrix.from_rows([[data.draw(_entries) for _ in range(c)] for _ in range(r)], ncols=c)

    # a product through a small inner dimension has dependent columns
    a = draw(nrows, inner) @ draw(inner, ncols) if low_rank else draw(nrows, ncols)
    b = a @ draw(ncols, nrhs) if consistent else draw(nrows, nrhs)
    den, x = fraction_free_solve(a, b)
    dec = smith_normal_form(a)
    if dec.rank < ncols:
        assert (den, x) == (0, None)
        return
    # den is, up to sign, a maximal minor, so the gcd of all of them divides it
    assert den and den % math.prod(dec.diagonal) == 0
    if nrows == ncols:
        assert den == _bareiss_det(a) == det(a)
    ref = rational_solve(dec, b)
    assert (x is None) == (ref is None)
    if x is not None:
        ref_x, ref_den = ref
        assert a @ x == b.scaled(den)
        assert x.scaled(ref_den) == ref_x.scaled(den)  # the unique solution


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 5), st.booleans(), st.data())
def test_det_matches_bareiss_reference(n, singular, data):
    rows = [[data.draw(_entries) for _ in range(n)] for _ in range(n)]
    singular = singular and n >= 2
    if singular:  # two equal rows
        rows[-1] = list(rows[0])
    m = IntMatrix.from_rows(rows, ncols=n)
    assert det(m) == _bareiss_det(m)
    if singular:
        assert det(m) == 0


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6), st.data())
def test_rank_mod_2_counts_the_odd_smith_factors(nrows, ncols, data):
    """Over F_2 the Smith form keeps its rank: the odd diagonal entries."""
    m = IntMatrix.from_rows(
        [[data.draw(_entries) for _ in range(ncols)] for _ in range(nrows)], ncols=ncols
    )
    assert exact_linalg.rank_mod_2(m) == sum(x % 2 for x in smith_normal_form(m).diagonal)


def _gauss_jordan_solve(a: IntMatrix, b: IntMatrix) -> list[list[Fraction]] | None:
    """Reference solver: a @ x = b over Q by Fraction Gauss-Jordan elimination.

    None if inconsistent; free variables are pinned to zero.
    """
    nr, nc = a.shape
    aug = [[Fraction(x) for x in a.rows[i]] + [Fraction(x) for x in b.rows[i]] for i in range(nr)]
    pivots: list[int] = []
    r = 0
    for c in range(nc):
        pr = next((i for i in range(r, nr) if aug[i][c]), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(nr):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    for i in range(r, nr):
        if any(aug[i][nc:]) and not any(aug[i][:nc]):
            return None
    x = [[Fraction(0)] * b.ncols for _ in range(nc)]
    for i, c in enumerate(pivots):
        for j in range(b.ncols):
            x[c][j] = aug[i][nc + j]
    return x


def test_rational_solve_and_inverse():
    def solve(a, b):
        return rational_solve(smith_normal_form(a), b)

    a = M([[2, 1], [1, 1]])
    assert solve(a, IntMatrix.identity(2)) == (M([[1, -1], [-1, 2]]), 1)
    x, den = solve(M([[2, 0], [0, 4]]), IntMatrix.from_cols([(1, 2)]))
    assert (x, den) == (IntMatrix.from_cols([(2, 2)]), 4)
    assert [Fraction(t, den) for t in x.col(0)] == [Fraction(1, 2), Fraction(1, 2)]
    assert solve(M([[1, 1], [1, 1]]), IntMatrix.from_cols([(0, 1)])) is None
    # degenerate shapes: 0xn is always solvable, nx0 only for b == 0
    assert solve(IntMatrix.zero(0, 3), IntMatrix.zero(0, 2)) == (IntMatrix.zero(3, 2), 1)
    assert solve(IntMatrix.zero(2, 0), IntMatrix.zero(2, 1)) == (IntMatrix.zero(0, 1), 1)
    assert solve(IntMatrix.zero(2, 0), IntMatrix.from_cols([(0, 1)])) is None
    assert solve(IntMatrix.zero(2, 3), IntMatrix.from_cols([(1, 0)])) is None


def _draw_matrix(data, nrows: int, ncols: int) -> IntMatrix:
    return IntMatrix.from_rows(
        [[data.draw(st.integers(-5, 5)) for _ in range(ncols)] for _ in range(nrows)],
        ncols=ncols,
    )


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.integers(0, 2),
    st.booleans(), st.data(),
)
def test_rational_solve_matches_gauss_jordan(nrows, ncols, inner, nrhs, consistent, data):
    # a = p @ q has rank at most `inner`, so small `inner` is rank-deficient
    a = _draw_matrix(data, nrows, inner) @ _draw_matrix(data, inner, ncols)
    if consistent:
        b = a @ _draw_matrix(data, ncols, nrhs)
    else:
        b = _draw_matrix(data, nrows, nrhs)
    want = _gauss_jordan_solve(a, b)
    dec = smith_normal_form(a)
    got = rational_solve(dec, b)
    if want is None:
        assert got is None
        return
    assert got is not None
    x, den = got
    assert den == (dec.diagonal[dec.rank - 1] if dec.rank else 1)
    assert x.shape == (ncols, nrhs)
    assert a @ x == b.scaled(den)
    assert [
        [sum(Fraction(a.rows[i][k]) * want[k][j] for k in range(ncols)) for j in range(nrhs)]
        for i in range(nrows)
    ] == [list(row) for row in b.rows]
    if dec.rank == ncols:  # a unique solution: both solvers must find it
        assert [[Fraction(t, den) for t in row] for row in x.rows] == want


def _library_imports() -> list[tuple[str, int, str]]:
    """(file name, line, top-level module) of every import in the library."""
    sources = sorted(Path(exact_linalg.__file__).parent.glob("*.py"))
    assert len(sources) >= 8
    found = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [(path.name, node.lineno, n.split(".")[0]) for n in names]
    return found


def test_library_imports_no_rational_arithmetic():
    """Every solve stays in integers, by a fraction-free elimination or a
    Smith normal form: no module of the library imports `fractions`."""
    bad = [(f, line) for f, line, module in _library_imports() if module == "fractions"]
    assert not bad, f"imports of fractions at {bad}"


def test_library_imports_no_warnings():
    """Validation answers exactly or refuses with an exception; no verdict
    is partial, so no module of the library imports `warnings`."""
    bad = [(f, line) for f, line, module in _library_imports() if module == "warnings"]
    assert not bad, f"imports of warnings at {bad}"


def test_library_never_reads_smith_inverses():
    """No library code reads `u_inv` or `v_inv`: bases come from m @ v,
    subquotients from u alone, and the certificate checks |det u| and
    |det v|, so the inverses are only ever computed for callers outside."""
    sources = sorted(Path(exact_linalg.__file__).parent.glob("*.py"))
    assert len(sources) >= 8
    bad = [
        (path.name, node.lineno)
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr in ("u_inv", "v_inv")
    ]
    assert not bad, f"u_inv or v_inv read at {bad}"


def test_library_keeps_no_call_scoped_state():
    """Decompositions are owned by the objects they describe, not by a
    context-local memo: no module of the library imports `contextvars`."""
    bad = [(f, line) for f, line, module in _library_imports() if module == "contextvars"]
    assert not bad, f"imports of contextvars at {bad}"


def test_library_writes_indented_json_only_through_the_emitter():
    """No module of the library calls ``json.dumps`` with an ``indent``: the
    stdlib's indented encoder is the pure-Python one, so every indented
    payload goes through ``_jsonout.dumps``."""
    sources = sorted(Path(exact_linalg.__file__).parent.glob("*.py"))
    assert len(sources) >= 8
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if name in ("dumps", "dump") and any(k.arg == "indent" for k in node.keywords):
                pytest.fail(f"{path.name}:{node.lineno} calls {name} with indent=")


# --- integer kernels ---------------------------------------------------------


def _textbook_matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    rows = []
    for i in range(a.nrows):
        row = []
        for j in range(b.ncols):
            acc = 0
            for k in range(a.ncols):
                acc += a.rows[i][k] * b.rows[k][j]
            row.append(acc)
        rows.append(tuple(row))
    return IntMatrix(tuple(rows), b.ncols)


_entries = st.one_of(st.integers(-5, 5), st.integers(-(2**200), 2**200))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.data())
def test_matmul_and_apply_match_triple_loop(n, k, m, data):
    a = IntMatrix.from_rows(
        [[data.draw(_entries) for _ in range(k)] for _ in range(n)], ncols=k
    )
    b = IntMatrix.from_rows(
        [[data.draw(_entries) for _ in range(m)] for _ in range(k)], ncols=m
    )
    product = a @ b
    assert product.shape == (n, m)
    assert product == _textbook_matmul(a, b)
    v = [data.draw(_entries) for _ in range(k)]
    col = IntMatrix.from_rows([[x] for x in v], ncols=1)
    assert a.apply(v) == a.apply(tuple(v)) == _textbook_matmul(a, col).col(0)


def test_matmul_degenerate_shapes():
    assert IntMatrix.zero(3, 0) @ IntMatrix.zero(0, 2) == IntMatrix.zero(3, 2)
    assert (IntMatrix.zero(0, 3) @ IntMatrix.zero(3, 2)).shape == (0, 2)
    assert (M([[1, 2]]) @ IntMatrix.zero(2, 0)).shape == (1, 0)
    assert IntMatrix.zero(2, 0).apply(()) == (0, 0)
    assert IntMatrix.zero(0, 2).apply((1, 2)) == ()
    with pytest.raises(ValueError, match=r"^shape mismatch: \(1, 2\) @ \(1, 2\)$"):
        M([[1, 2]]) @ M([[1, 2]])
    with pytest.raises(ValueError, match=r"^shape mismatch: \(1, 2\) @ vector of length 1$"):
        M([[1, 2]]).apply((1,))



def test_shape_preconditions_survive_optimized_mode():
    """Shapes, moduli and int entries are refused under python -O too."""
    assert optimized_section("linear algebra") == expected_lines("linear algebra")


# --- one decomposition per lattice -------------------------------------------


def _solve_integer(m: IntMatrix, b) -> tuple[int, ...] | None:
    """One integer solution x of m @ x = b, or None if none exists."""
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


def _subquotient_by_column_solves(sup_basis: IntMatrix, sub_gens: IntMatrix):
    coords = []
    for j in range(sub_gens.ncols):
        x = _solve_integer(sup_basis, sub_gens.col(j))
        if x is None:
            return None
        coords.append(x)
    return cokernel_presentation(IntMatrix.from_cols(coords, sup_basis.ncols))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(0, 4), st.data())
def test_lattice_subquotient_matches_column_solves(nrows, ngens, data):
    # ambient generators, dependent whenever there are more than the rank
    ncols = data.draw(st.integers(0, nrows + 2))
    sup = IntMatrix.from_rows(
        [[data.draw(st.integers(-6, 6)) for _ in range(ncols)] for _ in range(nrows)],
        ncols=ncols,
    )
    # the reference needs a basis: the first rank columns of sup @ v are
    # d_j times columns of the unimodular u^-1
    dec = smith_normal_form(sup)
    basis = (sup @ dec.v).submatrix_cols(list(range(dec.rank)))
    # members of the lattice, plus sometimes an arbitrary column
    coeffs = IntMatrix.from_rows(
        [[data.draw(st.integers(-4, 4)) for _ in range(ngens)] for _ in range(ncols)],
        ncols=ngens,
    )
    sub = sup @ coeffs
    if ngens and data.draw(st.booleans()):
        j = data.draw(st.integers(0, ngens - 1))
        col = [data.draw(st.integers(-6, 6)) for _ in range(nrows)]
        cols = sub.cols()
        cols[j] = tuple(col)
        sub = IntMatrix.from_cols(cols, nrows)
    want = _subquotient_by_column_solves(basis, sub)
    if want is None:
        with pytest.raises(MembershipError):
            lattice_subquotient(sup, sub)
    else:
        assert lattice_subquotient(sup, sub) == want


def test_lattice_subquotient_names_first_non_member_column():
    basis = IntMatrix.from_cols([(2, 0, 0), (0, 3, 0)])
    dependent = basis.hstack(IntMatrix.from_cols([(4, -3, 0), (0, 0, 0)]))
    members = [(4, 3, 0), (2, 0, 0)]
    off_span = (0, 0, 1)  # outside even the rational span
    off_lattice = (1, 0, 0)  # in the rational span, not in the lattice
    for sup in (basis, dependent):
        assert lattice_subquotient(sup, IntMatrix.from_cols(members)) == FGAbelianGroup.trivial()
        for bad in (off_span, off_lattice):
            sub = IntMatrix.from_cols([members[0], bad, members[1], bad])
            with pytest.raises(MembershipError, match="column 1 "):
                lattice_subquotient(sup, sub)


# --- no SNF memo: the fan owns its decompositions ---------------------------


@pytest.fixture
def count_decompositions(monkeypatch):
    """Record the matrix of every `smith_normal_form` call, in each library
    module that binds the function by name."""
    computed = []
    original = exact_linalg.smith_normal_form

    def counting(m):
        computed.append(m)
        return original(m)

    for name, module in list(sys.modules.items()):
        if name.startswith("toricforms") and getattr(module, "smith_normal_form", None) is original:
            monkeypatch.setattr(module, "smith_normal_form", counting)
    return computed


def test_smith_normal_form_keeps_no_state():
    first = smith_normal_form(M([[2, 4], [6, 8]]))
    second = smith_normal_form(M([[2, 4], [6, 8]]))
    assert first is not second
    assert (first.u, first.d, first.v) == (second.u, second.d, second.v)
    containers = [
        name
        for name, value in vars(exact_linalg).items()
        if not name.startswith("__") and isinstance(value, (dict, list, set))
    ]
    assert containers == []


def _fresh_builtin(name: str) -> Fan:
    """An equal fan that has factored nothing yet (builtins are cached)."""
    fan = builtin_fan(name)
    return Fan(fan.rank, fan.rays, fan.max_cones)


def test_classify_fan_factors_each_matrix_once(count_decompositions):
    be = FiniteFieldBackend(3, 6)
    fan = _fresh_builtin("surface:C6")
    validate_fan(fan)
    count_decompositions.clear()  # validation is not the subject
    report = classify_fan(fan, be)
    assert report.total is not None
    # every H^1 over F_q is trivial (Lang), so each of the 5 nontrivial
    # classes has a subquotient of index 1, read off the triangular bases
    # mod c with no Smith form; the ray matrix (18 x 2) and its stacks are
    # never factored either
    assert all(entry.value.is_trivial() for entry in report.entries)
    assert count_decompositions == []


@pytest.mark.parametrize(
    "backend",
    [RealComplexBackend(), FiniteFieldBackend(5, 4), FiniteFieldBackend(3, 6)],
    ids=["real", "ff:5,4", "ff:3,6"],
)
def test_classify_fan_factors_only_cocharacter_sized_matrices(count_decompositions, backend):
    """After validation, over C/R and F_q, no factored matrix has more than
    2 rank^2 cells: every H^1 comes from the generator's rank x rank
    matrix, never from the ray coordinates."""
    for name in BUILTIN_NAMES + tuple(f"projective:{n}" for n in (1, 2, 3, 4)):
        fan = _fresh_builtin(name)
        validate_fan(fan)
        count_decompositions.clear()
        classify_fan(fan, backend)
        cells = [m.nrows * m.ncols for m in count_decompositions]
        assert max(cells, default=0) <= 2 * fan.rank**2, name


def test_symbolic_projective_classification_factor_count(count_decompositions):
    """Symbolic norm quotients intersect and divide lattices as generators,
    never re-based first: projective:10 over the Z/4 norm data of the CLI
    tests factors at most 111 matrices (381 when every lattice got one Smith
    form more to become a basis)."""
    backend = SymbolicBrauerBackend(4, (4,), ((2, IntMatrix.from_cols([(2,)])),))
    assert classify_projective(10, backend).total is not None
    assert len(count_decompositions) <= 111


def test_real_norm_route_factor_count(count_decompositions):
    """The ray-coordinate norm route over C/R takes its subquotient straight
    from the lifts' generators: at most 141 Smith forms for every class of
    the 13 surfaces (173 when the lifts were first re-based)."""
    backend = RealComplexBackend()
    total = 0
    for name in BUILTIN_NAMES:
        if not name.startswith("surface:"):
            continue
        fan = _fresh_builtin(name)
        classes = enumerate_hom_classes(backend.group, automorphism_group(fan))
        count_decompositions.clear()
        for cls in classes:
            h1_cyclic_norm_formula(fan, cls, backend)
        total += len(count_decompositions)
    assert total <= 141


def _norm_route_values(fan: Fan, backend: FiniteFieldBackend) -> list[FGAbelianGroup]:
    classes = enumerate_hom_classes(backend.group, automorphism_group(fan))
    return [h1_cyclic_norm_formula(fan, cls, backend) for cls in classes]


@pytest.mark.parametrize("name", ["surface:C6", "surface:D4", "projective:3"])
def test_second_classification_factors_no_cone_or_ray_matrix(count_decompositions, name):
    be = FiniteFieldBackend(3, 2)
    fan = _fresh_builtin(name)
    # the ray-coordinate norm route factors the ray matrix the fan owns,
    # once: its columns' decomposition is the transpose.  No cone matrix is
    # ever factored: cones are asked cone questions, answered by their
    # fraction-free dens.
    first = _norm_route_values(fan, be)
    cones = {fan.cone_matrix(cone) for cone in fan.max_cones}
    assert fan.ray_rows in count_decompositions
    assert fan.ray_columns not in count_decompositions
    assert not cones & set(count_decompositions)
    count_decompositions.clear()
    assert _norm_route_values(fan, be) == first
    report = classify_fan(fan, be)
    assert [entry.value for entry in report.entries] == first
    assert fan.ray_rows not in count_decompositions
    assert not cones & set(count_decompositions)
