"""Integer linear algebra: frozen oracle values and structural properties."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricforms import exact_linalg
from toricforms.classify import builtin_fan, classify_fan
from toricforms.cli import run
from toricforms.exact_linalg import (
    FGAbelianGroup,
    IntMatrix,
    MembershipError,
    basis_mod,
    cokernel_presentation,
    congruence_kernel_basis,
    det,
    image_basis,
    kernel_basis,
    lattice_intersection,
    lattice_subquotient,
    rational_solve,
    saturation_basis,
    smith_normal_form,
    solve_integer,
)
from toricforms.galois import BackendUnsupported, FiniteFieldBackend, GroupSpec

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
    assert a.power(0) == IntMatrix.identity(2)
    assert a.power(2) == a @ a


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
    im = image_basis(m)
    assert im.ncols == 2
    assert lattice_subquotient(im, m) == FGAbelianGroup.trivial()
    sat = saturation_basis(m)
    assert lattice_subquotient(sat, im) == FGAbelianGroup.from_factors([2, 4])


def test_solve_integer():
    a = M([[2, 0], [0, 3]])
    assert solve_integer(a, (4, 9)) == (2, 3)
    assert solve_integer(a, (1, 1)) is None
    x = solve_integer(M([[1, 1]]), (5,))
    assert x is not None and sum(x) == 5
    assert solve_integer(M([[2], [3]]), (2, 3)) == (1,)
    assert solve_integer(M([[2], [3]]), (2, 2)) is None


def test_lattice_subquotient_frozen():
    i2 = IntMatrix.identity(2)
    assert lattice_subquotient(i2, M([[2, 0], [0, 3]])) == FGAbelianGroup.cyclic(6)
    assert lattice_subquotient(i2, IntMatrix.from_cols([(1, 0)])) == FGAbelianGroup.free(1)
    assert lattice_subquotient(i2, IntMatrix.from_cols([], nrows=2)) == FGAbelianGroup.free(2)
    with pytest.raises(MembershipError):
        lattice_subquotient(i2.scaled(2), IntMatrix.from_cols([(1, 0)]))


def test_lattice_intersection_frozen():
    a = IntMatrix.from_cols([(2, 0), (0, 1)])
    b = IntMatrix.from_cols([(3, 0), (0, 1)])
    meet = lattice_intersection(a, b)
    want = IntMatrix.from_cols([(6, 0), (0, 1)])
    assert lattice_subquotient(meet, want) == FGAbelianGroup.trivial()
    assert lattice_subquotient(want, meet) == FGAbelianGroup.trivial()


def test_congruence_kernel():
    basis = congruence_kernel_basis(M([[1, 1]]), 2)
    assert basis.shape == (2, 2)
    assert abs(det(basis)) == 2
    for j in range(2):
        assert sum(basis.col(j)) % 2 == 0


def test_basis_mod_frozen():
    b = basis_mod(IntMatrix.from_cols([(2, 0), (0, 2)]), 4)
    assert b == M([[2, 0], [0, 2]])
    # no generators: the lattice is modulus * Z^n itself
    assert basis_mod(IntMatrix.from_cols([], nrows=3), 6) == IntMatrix.diagonal([6, 6, 6])
    # a unimodular generator set collapses to the identity
    assert basis_mod(M([[1, 7], [0, 1]]), 12) == IntMatrix.identity(2)


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
    assert _lattices_equal(b, image_basis(slack))


def test_congruence_kernel_entries_bounded():
    m = M([[3, 1, 4, 1], [5, 9, 2, 6]])
    basis = congruence_kernel_basis(m, 63)
    assert all(0 <= x <= 63 for row in basis.rows for x in row)
    for j in range(basis.ncols):
        col = basis.col(j)
        assert all(sum(m.rows[i][k] * col[k] for k in range(4)) % 63 == 0 for i in range(2))


# --- abelian group canonical form ------------------------------------------


def test_fg_abelian_group_canonicalization():
    assert FGAbelianGroup.from_factors([2, 3]) == FGAbelianGroup(0, (6,))
    assert FGAbelianGroup.from_factors([4, 6]) == FGAbelianGroup(0, (2, 12))
    assert FGAbelianGroup.from_factors([2, 2]) == FGAbelianGroup(0, (2, 2))
    assert FGAbelianGroup.from_factors([0, 2]) == FGAbelianGroup(1, (2,))
    assert FGAbelianGroup.from_factors([1, 1]) == FGAbelianGroup.trivial()
    assert FGAbelianGroup.cyclic(1).is_trivial()


def test_fg_abelian_group_queries():
    g = FGAbelianGroup(0, (2, 4))
    assert g.order() == 8
    assert g.exponent() == 4
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
    a = M([[2, 1], [1, 1]])
    assert rational_solve(a, IntMatrix.identity(2)) == (M([[1, -1], [-1, 2]]), 1)
    x, den = rational_solve(M([[2, 0], [0, 4]]), IntMatrix.from_cols([(1, 2)]))
    assert (x, den) == (IntMatrix.from_cols([(2, 2)]), 4)
    assert [Fraction(t, den) for t in x.col(0)] == [Fraction(1, 2), Fraction(1, 2)]
    assert rational_solve(M([[1, 1], [1, 1]]), IntMatrix.from_cols([(0, 1)])) is None
    # degenerate shapes: 0xn is always solvable, nx0 only for b == 0
    assert rational_solve(IntMatrix.zero(0, 3), IntMatrix.zero(0, 2)) == (IntMatrix.zero(3, 2), 1)
    assert rational_solve(IntMatrix.zero(2, 0), IntMatrix.zero(2, 1)) == (IntMatrix.zero(0, 1), 1)
    assert rational_solve(IntMatrix.zero(2, 0), IntMatrix.from_cols([(0, 1)])) is None
    assert rational_solve(IntMatrix.zero(2, 3), IntMatrix.from_cols([(1, 0)])) is None


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
    got = rational_solve(a, b)
    if want is None:
        assert got is None
        return
    assert got is not None
    x, den = got
    dec = smith_normal_form(a)
    assert den == (dec.diagonal[dec.rank - 1] if dec.rank else 1)
    assert x.shape == (ncols, nrhs)
    assert a @ x == b.scaled(den)
    assert [
        [sum(Fraction(a.rows[i][k]) * want[k][j] for k in range(ncols)) for j in range(nrhs)]
        for i in range(nrows)
    ] == [list(row) for row in b.rows]
    if dec.rank == ncols:  # a unique solution: both solvers must find it
        assert [[Fraction(t, den) for t in row] for row in x.rows] == want


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
    with pytest.raises(AssertionError):
        M([[1, 2]]) @ M([[1, 2]])
    with pytest.raises(AssertionError):
        M([[1, 2]]).apply((1,))


# --- one decomposition per lattice -------------------------------------------


def _subquotient_by_column_solves(sup_basis: IntMatrix, sub_gens: IntMatrix):
    coords = []
    for j in range(sub_gens.ncols):
        x = solve_integer(sup_basis, sub_gens.col(j))
        if x is None:
            return None
        coords.append(x)
    return cokernel_presentation(IntMatrix.from_cols(coords, sup_basis.ncols))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(0, 4), st.data())
def test_lattice_subquotient_matches_column_solves(nrows, ngens, data):
    ncols = data.draw(st.integers(0, nrows))
    while True:
        sup = IntMatrix.from_rows(
            [[data.draw(st.integers(-6, 6)) for _ in range(ncols)] for _ in range(nrows)],
            ncols=ncols,
        )
        if smith_normal_form(sup).rank == ncols:
            break
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
    want = _subquotient_by_column_solves(sup, sub)
    if want is None:
        with pytest.raises(MembershipError):
            lattice_subquotient(sup, sub)
    else:
        assert lattice_subquotient(sup, sub) == want


def test_lattice_subquotient_names_first_non_member_column():
    sup = IntMatrix.from_cols([(2, 0, 0), (0, 3, 0)])
    members = [(4, 3, 0), (2, 0, 0)]
    off_span = (0, 0, 1)  # outside even the rational span
    off_lattice = (1, 0, 0)  # in the rational span, not in the lattice
    assert lattice_subquotient(sup, IntMatrix.from_cols(members)) == FGAbelianGroup.trivial()
    for bad in (off_span, off_lattice):
        sub = IntMatrix.from_cols([members[0], bad, members[1], bad])
        with pytest.raises(MembershipError, match="column 1 "):
            lattice_subquotient(sup, sub)


# --- call-scoped SNF memo ----------------------------------------------------


@pytest.fixture
def count_decompositions(monkeypatch):
    """Count the decompositions actually computed (memo misses)."""
    computed = []
    worker = exact_linalg._compute_smith_normal_form

    def counting(m):
        computed.append(m)
        return worker(m)

    monkeypatch.setattr(exact_linalg, "_compute_smith_normal_form", counting)
    return computed


def test_snf_outside_any_scope_computes_afresh(count_decompositions):
    m = M([[2, 4], [6, 8]])
    assert exact_linalg._SNF_MEMO.get() is None
    first = smith_normal_form(m)
    second = smith_normal_form(m)
    assert len(count_decompositions) == 2
    assert first is not second
    assert (first.u, first.d, first.v) == (second.u, second.d, second.v)


def test_snf_memo_scope_shares_and_nests(count_decompositions):
    m = M([[2, 4], [6, 8]])
    with exact_linalg._snf_memo_scope():
        first = smith_normal_form(m)
        with exact_linalg._snf_memo_scope():
            assert smith_normal_form(M([[2, 4], [6, 8]])) is first
        assert exact_linalg._SNF_MEMO.get() == {m: first}
        assert smith_normal_form(m) is first
    assert len(count_decompositions) == 1
    assert exact_linalg._SNF_MEMO.get() is None
    smith_normal_form(m)
    assert len(count_decompositions) == 2


def test_snf_memo_dropped_after_entry_points(capsys):
    assert run(["classify", "fan", "--builtin", "hexagon", "--backend", "real"]) == 0
    assert "total forms" in capsys.readouterr().out
    assert exact_linalg._SNF_MEMO.get() is None
    be = FiniteFieldBackend(5, 2)
    classify_fan(builtin_fan("surface:C2"), be.group, be)
    assert exact_linalg._SNF_MEMO.get() is None
    with pytest.raises(BackendUnsupported):  # leaves the scope by an exception
        classify_fan(builtin_fan("hexagon"), GroupSpec.cyclic(3), be)
    assert exact_linalg._SNF_MEMO.get() is None


def test_classify_fan_factors_each_matrix_once(count_decompositions):
    be = FiniteFieldBackend(3, 6)
    fan = builtin_fan("surface:C6")
    count_decompositions.clear()  # builtin construction is not the subject
    report = classify_fan(fan, be.group, be)
    assert report.total is not None
    assert len(count_decompositions) == len(set(count_decompositions))
    assert len(count_decompositions) <= 45
