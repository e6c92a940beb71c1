import random

import pytest

from taukit.exactlin import (
    Mat,
    PrimeField,
    column_space_basis,
    complement_basis,
    kernel_basis,
    quotient_coordinates,
    rank,
    rref,
    solve,
    solve_matrix,
)

F5 = PrimeField(5)
F2 = PrimeField(2)
F101 = PrimeField(101)


def test_field_rejects_composites():
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ValueError):
        PrimeField(1)


def test_rref_identity():
    m = Mat.identity(F5, 2)
    res = rref(m)
    assert res.matrix == m
    assert res.rank == 2
    assert res.pivots == (0, 1)


def test_rref_zero():
    m = Mat.zeros(F5, 2, 2)
    res = rref(m)
    assert res.matrix == m
    assert res.rank == 0
    assert res.pivots == ()


def test_rref_rank_one():
    # second row is 2 * first row mod 5
    m = Mat.from_rows(F5, [[1, 2], [2, 4]])
    res = rref(m)
    assert res.rank == 1
    assert res.pivots == (0,)
    assert res.matrix.row(0) == (1, 2)


def test_rref_idempotent():
    rng = random.Random(0)
    for _ in range(25):
        m = Mat.from_rows(F5, [[rng.randrange(5) for _ in range(4)] for _ in range(3)])
        r1 = rref(m).matrix
        assert rref(r1).matrix == r1


def test_kernel_identity_empty():
    assert kernel_basis(Mat.identity(F5, 3)) == []


def test_kernel_one_one_f2():
    ker = kernel_basis(Mat.from_rows(F2, [[1, 1]]))
    assert ker == [(1, 1)]


def test_kernel_rank_one_f5():
    m = Mat.from_rows(F5, [[1, 2], [2, 4]])
    ker = kernel_basis(m)
    assert len(ker) == 1
    (x, y) = ker[0]
    assert (x + 2 * y) % 5 == 0 and (x, y) != (0, 0)


def test_rank_nullity_random():
    rng = random.Random(1)
    for p in (2, 101):
        field = PrimeField(p)
        for _ in range(30):
            r = rng.randrange(0, 5)
            c = rng.randrange(0, 5)
            m = Mat.from_rows(field, [[rng.randrange(p) for _ in range(c)] for _ in range(r)], cols=c)
            ker = kernel_basis(m)
            assert rank(m) + len(ker) == c
            for v in ker:
                assert all(x == 0 for x in m.apply(v))


def test_solve_identity():
    m = Mat.identity(F5, 3)
    assert solve(m, (1, 2, 3)) == (1, 2, 3)


def test_solve_no_solution():
    m = Mat.zeros(F5, 2, 2)
    assert solve(m, (1, 0)) is None


def test_solve_free_variable_pinned():
    m = Mat.from_rows(F2, [[1, 1]])
    assert solve(m, (1,)) == (1, 0)


def test_solve_round_trip_random():
    rng = random.Random(2)
    for _ in range(40):
        r = rng.randrange(1, 5)
        c = rng.randrange(1, 5)
        m = Mat.from_rows(F101, [[rng.randrange(101) for _ in range(c)] for _ in range(r)])
        x0 = tuple(rng.randrange(101) for _ in range(c))
        b = m.apply(x0)
        x = solve(m, b)
        assert x is not None
        assert m.apply(x) == b


def test_solve_matrix_and_column_space():
    rng = random.Random(3)
    for _ in range(20):
        m = Mat.from_rows(F5, [[rng.randrange(5) for _ in range(3)] for _ in range(4)])
        cs = column_space_basis(m)
        # every column of m solves back through the basis
        x = solve_matrix(cs, m)
        assert x is not None
        assert cs.mul(x) == m


def test_complement_basis_spans():
    m = Mat.from_columns(F5, [(1, 2, 0)], rows=3)
    comp = complement_basis(m)
    full = Mat.hstack(F5, [m, comp])
    assert rank(full) == 3
    assert comp.cols == 2


def test_zero_shape_matrices():
    z = Mat.zeros(F5, 0, 3)
    assert rref(z).rank == 0
    assert len(kernel_basis(z)) == 3
    z2 = Mat.zeros(F5, 3, 0)
    assert rref(z2).rank == 0
    assert kernel_basis(z2) == []
    prod = z2.mul(Mat.zeros(F5, 0, 2))
    assert prod.rows == 3 and prod.cols == 2 and prod.is_zero()


def test_mul_associative_random():
    rng = random.Random(4)
    for _ in range(15):
        a = Mat.from_rows(F101, [[rng.randrange(101) for _ in range(3)] for _ in range(2)])
        b = Mat.from_rows(F101, [[rng.randrange(101) for _ in range(4)] for _ in range(3)])
        c = Mat.from_rows(F101, [[rng.randrange(101) for _ in range(2)] for _ in range(4)])
        assert a.mul(b).mul(c) == a.mul(b.mul(c))


@pytest.mark.parametrize("p", [2, 3, 101])
def test_quotient_coordinates_match_the_complement_and_solve(p):
    # reference: pivots of [basis | I] pick the complement, and solving on
    # [basis | complement] gives the coordinates of y modulo the column space
    field, rng = PrimeField(p), random.Random(p)
    for _ in range(300):
        n, k = rng.randrange(6), rng.randrange(5)
        cols = [tuple(rng.randrange(p) if rng.random() < 0.6 else 0 for _ in range(n)) for _ in range(k)]
        if cols and rng.random() < 0.3:
            cols.append(tuple(sum(c[i] * rng.randrange(p) for c in cols) % p for i in range(n)))
        m = Mat.from_columns(field, cols, rows=n)
        basis = column_space_basis(m)
        piv = rref(Mat.hstack(field, [basis, Mat.identity(field, n)], rows=n)).pivots if n else ()
        expected = [c - basis.cols for c in piv if c >= basis.cols]
        complement, reduce = quotient_coordinates(m)
        assert complement == expected
        comp = Mat.from_columns(field, [tuple(int(r == c) for r in range(n)) for c in expected], rows=n)
        full = Mat.hstack(field, [basis, comp], rows=n)
        for _ in range(3):
            y = tuple(rng.randrange(p) for _ in range(n))
            x = solve(full, y)
            assert reduce(y) == tuple(x[basis.cols:])
