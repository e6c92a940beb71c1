"""Property tests: the in-place elimination against a copy of the elimination it replaced.

The reference routines below are the earlier `exactlin` ones, kept here only
as an oracle: they reduce every entry mod p on a copy, eliminate over the
whole augmented matrix and read results back through `Mat.entry`.  Only the
field inverse and the right-hand-side column, whose helpers are gone, are
spelled out.  The RREF
is unique, so every result must be equal, on F_2, F_3 and F_101 and on
shapes with no rows or no columns.
"""

import pytest
from hypothesis import given, settings, strategies as st

from taukit import arknit, tautilt as tt
from taukit.algebra import parse_algebra
from taukit.exactlin import (
    Mat,
    PrimeField,
    RrefResult,
    extend_echelon,
    free_columns,
    kernel_basis,
    quotient_coordinates,
    rank,
    rref,
    solve,
    solve_matrix,
)
from tests.conftest import nakayama_rad2
from tests.test_highercat import _nakayama_rad2_ct
from tests.test_tautilt import TRUNCATED_X3

FIELDS = [PrimeField(2), PrimeField(3), PrimeField(101)]
PROPERTY = settings(derandomize=True, database=None, max_examples=150, deadline=None)


# -- the reference routines ---------------------------------------------------


def _ref_rref(m: Mat) -> RrefResult:
    p = m.field.p
    work = [[x % p for x in row] for row in m.data]
    pivots = []
    r = 0
    for c in range(m.cols):
        for pr in range(r, m.rows):
            if work[pr][c]:
                break
        else:
            continue
        work[r], work[pr] = work[pr], work[r]
        row = work[r]
        if row[c] != 1:
            inv = pow(row[c], p - 2, p)
            row[c:] = [(x * inv) % p for x in row[c:]]
        tail = row[c:]
        for i in range(m.rows):
            f = work[i][c]
            if f and i != r:
                work[i][c:] = [(x - f * y) % p for x, y in zip(work[i][c:], tail)]
        pivots.append(c)
        r += 1
        if r == m.rows:
            break
    out = Mat(m.field, m.rows, m.cols, tuple(map(tuple, work)))
    return RrefResult(out, len(pivots), tuple(pivots))


def _ref_echelon(m: Mat) -> RrefResult:
    if m.rows == 0 or m.cols == 0:
        return RrefResult(m, 0, ())
    return _ref_rref(m)


def _ref_kernel_basis(m: Mat) -> list:
    p = m.field.p
    res = _ref_echelon(m)
    pivot_set = set(res.pivots)
    basis = []
    for f in [c for c in range(m.cols) if c not in pivot_set]:
        v = [0] * m.cols
        v[f] = 1
        for r, c in enumerate(res.pivots):
            v[c] = (-res.matrix.entry(r, f)) % p
        basis.append(tuple(v))
    return basis


def _ref_solve(m: Mat, b):
    aug = Mat.hstack(m.field, [m, Mat.from_rows(m.field, [[x] for x in b], cols=1)], rows=m.rows)
    res = _ref_echelon(aug)
    if res.pivots and res.pivots[-1] == m.cols:
        return None
    x = [0] * m.cols
    for r, c in enumerate(res.pivots):
        x[c] = res.matrix.entry(r, m.cols)
    return tuple(x)


def _ref_solve_matrix(m: Mat, bmat: Mat):
    aug = Mat.hstack(m.field, [m, bmat], rows=m.rows)
    res = _ref_echelon(aug)
    if any(c >= m.cols for c in res.pivots):
        return None
    cols = []
    for j in range(bmat.cols):
        x = [0] * m.cols
        for r, c in enumerate(res.pivots):
            x[c] = res.matrix.entry(r, m.cols + j)
        cols.append(tuple(x))
    return Mat.from_columns(m.field, cols, rows=m.cols)


def _ref_mul(a: Mat, b: Mat) -> Mat:
    p = a.field.p
    return Mat(a.field, a.rows, b.cols, tuple(tuple(sum(a.entry(i, k) * b.entry(k, j) for k in range(a.cols)) % p
                                                    for j in range(b.cols)) for i in range(a.rows)))


def _ref_apply(m: Mat, vec) -> tuple:
    return tuple(sum(m.entry(i, k) * vec[k] for k in range(m.cols)) % m.field.p for i in range(m.rows))


def _ref_transpose(m: Mat) -> Mat:
    return Mat(m.field, m.cols, m.rows, tuple(tuple(m.entry(i, j) for i in range(m.rows)) for j in range(m.cols)))


# -- strategies ---------------------------------------------------------------


@st.composite
def matrices(draw, rows=None, cols=None, field=None):
    """A matrix over F_2, F_3 or F_101 with 0 to 5 rows and 0 to 6 columns, often of low rank."""
    field = field or draw(st.sampled_from(FIELDS))
    rows = draw(st.integers(0, 5)) if rows is None else rows
    cols = draw(st.integers(0, 6)) if cols is None else cols
    entry = st.integers(0, field.p - 1)
    if rows and draw(st.booleans()):
        # rows drawn as combinations of a few, so that dependent rows and free columns are common
        base = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=1, max_size=2))
        data = [[sum(c * x for c, x in zip(coeffs, col)) for col in zip(*base)]
                for coeffs in draw(st.lists(st.lists(entry, min_size=len(base), max_size=len(base)),
                                            min_size=rows, max_size=rows))]
    else:
        data = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    return Mat.from_rows(field, data, cols=cols)


@st.composite
def systems(draw):
    """(m, B) with B's columns in m's column space or not, and 0 to 3 of them."""
    m = draw(matrices())
    width = draw(st.integers(0, 3))
    if draw(st.booleans()):
        x = draw(matrices(rows=m.cols, cols=width, field=m.field))
        return m, m.mul(x)
    return m, draw(matrices(rows=m.rows, cols=width, field=m.field))


@st.composite
def products(draw):
    """(a, b, v): a is r x k, b is k x c and v has length k, each of r, k and c often 0."""
    field = draw(st.sampled_from(FIELDS))
    r, k, c = (draw(st.one_of(st.just(0), st.integers(1, 5))) for _ in range(3))
    a, b = draw(matrices(rows=r, cols=k, field=field)), draw(matrices(rows=k, cols=c, field=field))
    return a, b, draw(st.lists(st.integers(-field.p, 2 * field.p), min_size=k, max_size=k))


# -- properties ---------------------------------------------------------------


@PROPERTY
@given(products())
def test_mul_apply_and_transpose_match_the_reference_on_every_shape(product):
    a, b, v = product
    assert a.mul(b) == _ref_mul(a, b)
    assert a.apply(v) == _ref_apply(a, v)
    assert a.transpose() == _ref_transpose(a)
    assert (a.transpose().rows, a.transpose().cols) == (a.cols, a.rows)
    assert a.transpose().transpose() == a


@PROPERTY
@given(matrices())
def test_rref_rank_and_kernel_match_the_reference(m):
    assert rref(m) == _ref_rref(m)
    assert rank(m) == _ref_echelon(m).rank
    assert kernel_basis(m) == _ref_kernel_basis(m)


@PROPERTY
@given(systems())
def test_solve_and_solve_matrix_match_the_reference(system):
    m, bmat = system
    assert solve_matrix(m, bmat) == _ref_solve_matrix(m, bmat)
    for j in range(bmat.cols):
        # a right-hand side is taken as given, outside [0, p) too
        b = [x - m.field.p for x in bmat.col(j)]
        assert solve(m, b) == _ref_solve(m, b)


@PROPERTY
@given(matrices())
def test_free_variable_basis_and_quotient_coordinates_match_the_reference(m):
    # a kernel basis vector is 1 at its free column and every other one is 0 there
    basis = kernel_basis(m)
    free = free_columns(basis)
    assert free == [c for c in range(m.cols) if c not in _ref_echelon(m).pivots]
    assert [[v[f] for f in free] for v in basis] == [[int(a == b) for b in free] for a in free]
    complement, reduce = quotient_coordinates(m)
    echelon = _ref_echelon(Mat.from_rows(m.field, [c[::-1] for c in m.columns()], cols=m.rows))
    assert complement == [c for c in range(m.rows) if m.rows - 1 - c not in echelon.pivots]
    for y in m.columns():
        assert not any(reduce(y))


def _reduces_into(m: Mat, complement: list, y, z) -> bool:
    """Whether z, y's coordinates on the e_c, c in complement, is y modulo the column space of m."""
    p, at = m.field.p, dict(zip(complement, z))
    return _ref_solve(m, [(x - at.get(c, 0)) % p for c, x in enumerate(y)]) is not None


@st.composite
def shaped(draw):
    """A matrix of any shape, 0 x n and n x 0 drawn explicitly too."""
    shape = draw(st.sampled_from(["any", "no rows", "no columns"]))
    return draw(matrices(rows=0 if shape == "no rows" else None, cols=0 if shape == "no columns" else None))


@st.composite
def reductions(draw):
    """(m, y): m of any shape, and y of m's height."""
    m = draw(shaped())
    return m, draw(st.lists(st.integers(0, m.field.p - 1), min_size=m.rows, max_size=m.rows))


@PROPERTY
@given(reductions())
def test_quotient_coordinates_match_the_reference_on_every_shape(system):
    m, y = system
    complement, reduce = quotient_coordinates(m)
    echelon = _ref_echelon(Mat.from_rows(m.field, [c[::-1] for c in m.columns()], cols=m.rows))
    assert complement == [c for c in range(m.rows) if m.rows - 1 - c not in echelon.pivots]
    z = reduce(list(y))
    assert isinstance(z, tuple) and len(z) == len(complement)
    assert _reduces_into(m, complement, y, z)


@PROPERTY
@given(st.sampled_from(FIELDS), st.integers(0, 4), st.integers(0, 5), st.data())
def test_from_rows_reduces_unreduced_and_negative_entries(field, rows, cols, data):
    entry = st.integers(-3 * field.p, 3 * field.p)
    raw = data.draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    got = Mat.from_rows(field, raw, cols=cols)
    assert got == Mat(field, rows, cols, tuple(tuple(int(x) % field.p for x in row) for row in raw))
    assert Mat.from_columns(field, [[row[c] for row in raw] for c in range(cols)], rows=rows) == got


@PROPERTY
@given(shaped(), st.booleans())
def test_from_reduced_columns_equals_from_columns_on_reduced_input(m, as_lists):
    columns = [m.col(j) for j in range(m.cols)]
    assert m.columns() == columns
    if as_lists:
        columns = [list(c) for c in columns]
    got = Mat.from_reduced_columns(m.field, columns, m.rows)
    assert got == Mat.from_columns(m.field, columns, rows=m.rows) == m


@PROPERTY
@given(shaped(), st.data())
def test_from_reduced_columns_rejects_ragged_columns(m, data):
    columns = [list(m.col(j)) for j in range(m.cols)] or [[0] * m.rows]
    j = data.draw(st.integers(0, len(columns) - 1))
    if m.rows and data.draw(st.booleans()):
        columns[j] = columns[j][:-1]
    else:
        columns[j] = columns[j] + [0]
    with pytest.raises(ValueError):
        Mat.from_reduced_columns(m.field, columns, m.rows)
    if len(columns) > 1:
        with pytest.raises(ValueError):
            Mat.from_columns(m.field, columns, rows=m.rows)


@PROPERTY
@given(matrices())
def test_extend_echelon_counts_the_rank_row_by_row(m):
    echelon, grew = {}, []
    for k, row in enumerate(m.data):
        grew.append(extend_echelon(echelon, list(row), m.field.p))
        assert sum(grew) == _ref_echelon(Mat.from_rows(m.field, m.data[:k + 1], cols=m.cols)).rank
    assert sorted(echelon) == list(_ref_echelon(m).pivots)


def test_every_matrix_built_on_the_way_to_a_verdict_has_entries_in_range(monkeypatch):
    # the elimination reduces no entry first: every Mat the census, its Hom tables and a
    # Theorem 1 verdict build must already hold entries in [0, p)
    out_of_range = []
    init = Mat.__init__

    def checked(self, field, rows, cols, data):
        if any(not 0 <= x < field.p for row in data for x in row):
            out_of_range.append(data)
        init(self, field, rows, cols, data)

    monkeypatch.setattr(Mat, "__init__", checked)
    A = nakayama_rad2(5, p=101)
    idx = arknit.knit_indecomposables(A)
    assert tt.verify_theorem1(A, _nakayama_rad2_ct(idx, 5)).counts() == (24, 24)
    x3 = arknit.knit_indecomposables(parse_algebra(TRUNCATED_X3))
    n = len(x3.modules)
    assert all(len(x3.hom_basis(i, j)) == x3.hom_dim(i, j) for i in range(n) for j in range(n))
    assert out_of_range == []
