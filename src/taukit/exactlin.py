"""Exact dense linear algebra over prime fields F_p.

Scalars are plain Python ints in [0, p); matrices are immutable tuples of
row tuples.  Zero-row and zero-column matrices are legal everywhere and
behave as zero maps.  Pivoting is deterministic (leftmost pivot, first
nonzero row) so every basis produced downstream is reproducible.

Every entry of a `Mat` lies in [0, p): `from_rows` (and so `from_columns`)
reduces what it is given, the arithmetic methods reduce what they compute,
and the rest only move entries.  The one elimination, `eliminate`, relies on
this: `rref`, `rank`, `kernel_basis`, `solve` and `solve_matrix` copy a
matrix's rows into lists and reduce them in place, with no second pass
mod p.  Code that calls `Mat(...)` directly must pass entries in [0, p).
"""

from __future__ import annotations

from collections import namedtuple


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class PrimeField:
    """The prime field F_p."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"field order must be prime, got {p}")
        self.p = p

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"


class Mat:
    """Immutable matrix over a prime field."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: PrimeField, rows: int, cols: int, data):
        self.field = field
        self.rows = rows
        self.cols = cols
        self.data = data

    @classmethod
    def from_rows(cls, field: PrimeField, rows, cols: int | None = None) -> "Mat":
        p = field.p
        norm = tuple(tuple(int(x) % p for x in r) for r in rows)
        if cols is None:
            if not norm:
                raise ValueError("cols required for a matrix with no rows")
            cols = len(norm[0])
        for r in norm:
            if len(r) != cols:
                raise ValueError("ragged rows")
        return cls(field, len(norm), cols, norm)

    @classmethod
    def zeros(cls, field: PrimeField, rows: int, cols: int) -> "Mat":
        return cls(field, rows, cols, tuple((0,) * cols for _ in range(rows)))

    @classmethod
    def identity(cls, field: PrimeField, n: int) -> "Mat":
        return cls(field, n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @classmethod
    def from_columns(cls, field: PrimeField, columns, rows: int | None = None) -> "Mat":
        cols = list(columns)
        if not cols:
            if rows is None:
                raise ValueError("rows required for a matrix with no columns")
            return cls.zeros(field, rows, 0)
        n = len(cols[0])
        return cls.from_rows(field, [[c[i] for c in cols] for i in range(n)], cols=len(cols))

    def entry(self, i: int, j: int) -> int:
        return self.data[i][j]

    def row(self, i: int):
        return self.data[i]

    def col(self, j: int):
        return tuple(r[j] for r in self.data)

    def columns(self):
        return [self.col(j) for j in range(self.cols)]

    def is_zero(self) -> bool:
        return all(x == 0 for r in self.data for x in r)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Mat)
            and other.field == self.field
            and other.rows == self.rows
            and other.cols == self.cols
            and other.data == self.data
        )

    def __hash__(self) -> int:
        return hash((self.field.p, self.rows, self.cols, self.data))

    def __repr__(self) -> str:
        return f"Mat({self.rows}x{self.cols} over F_{self.field.p}, {list(map(list, self.data))})"

    def mul(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} * {other.rows}x{other.cols}")
        p = self.field.p
        ot = other.data
        out = []
        for r in self.data:
            row = [0] * other.cols
            for k, a in enumerate(r):
                if a:
                    ork = ot[k]
                    for j in range(other.cols):
                        row[j] += a * ork[j]
            out.append(tuple(x % p for x in row))
        return Mat(self.field, self.rows, other.cols, tuple(out))

    def apply(self, vec) -> tuple:
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        p = self.field.p
        return tuple(sum(a * v for a, v in zip(r, vec)) % p for r in self.data)

    def add(self, other: "Mat") -> "Mat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in add")
        p = self.field.p
        return Mat(self.field, self.rows, self.cols,
                   tuple(tuple((a + b) % p for a, b in zip(r1, r2))
                         for r1, r2 in zip(self.data, other.data)))

    def sub(self, other: "Mat") -> "Mat":
        return self.add(other.scale(-1))

    def scale(self, c: int) -> "Mat":
        p = self.field.p
        c %= p
        return Mat(self.field, self.rows, self.cols,
                   tuple(tuple((c * a) % p for a in r) for r in self.data))

    def transpose(self) -> "Mat":
        return Mat(self.field, self.cols, self.rows,
                   tuple(tuple(self.data[i][j] for i in range(self.rows)) for j in range(self.cols)))

    @classmethod
    def hstack(cls, field: PrimeField, mats, rows: int | None = None) -> "Mat":
        mats = list(mats)
        if not mats:
            if rows is None:
                raise ValueError("rows required for empty hstack")
            return cls.zeros(field, rows, 0)
        n = mats[0].rows
        for m in mats:
            if m.rows != n:
                raise ValueError("row count mismatch in hstack")
        data = tuple(tuple(x for m in mats for x in m.data[i]) for i in range(n))
        return cls(field, n, sum(m.cols for m in mats), data)

    @classmethod
    def vstack(cls, field: PrimeField, mats, cols: int | None = None) -> "Mat":
        mats = list(mats)
        if not mats:
            if cols is None:
                raise ValueError("cols required for empty vstack")
            return cls.zeros(field, 0, cols)
        c = mats[0].cols
        for m in mats:
            if m.cols != c:
                raise ValueError("col count mismatch in vstack")
        data = tuple(r for m in mats for r in m.data)
        return cls(field, sum(m.rows for m in mats), c, data)

    @classmethod
    def block_diag(cls, field: PrimeField, mats) -> "Mat":
        mats = list(mats)
        rows = sum(m.rows for m in mats)
        cols = sum(m.cols for m in mats)
        out = [[0] * cols for _ in range(rows)]
        r0 = c0 = 0
        for m in mats:
            for i in range(m.rows):
                out[r0 + i][c0:c0 + m.cols] = list(m.data[i])
            r0 += m.rows
            c0 += m.cols
        return cls(field, rows, cols, tuple(tuple(r) for r in out))


class RrefResult(namedtuple("RrefResult", "matrix rank pivots")):
    __slots__ = ()


def eliminate(work: list, cols: int, p: int) -> list:
    """Bring work to reduced row-echelon form in place and return its pivot columns.

    work is a list of row lists whose entries are already in [0, p), as every
    `Mat` keeps them; no entry is reduced first.  Pivots are sought in the
    first `cols` columns, leftmost pivot and first nonzero row, and each row
    operation acts on the whole row.  Rows are swapped, not copied.
    """
    nrows = len(work)
    pivots = []
    for c in range(cols):
        r = len(pivots)
        if r == nrows:
            break
        for pr in range(r, nrows):
            if work[pr][c]:
                break
        else:
            continue
        row = work[pr]
        work[pr] = work[r]
        work[r] = row
        # every row is zero left of c in the columns still to clear
        if row[c] != 1:
            inv = pow(row[c], p - 2, p)
            row[c:] = [x * inv % p for x in row[c:]]
        tail = row[c:]
        for other in work:
            f = other[c]
            if f and other is not row:
                other[c:] = [(x - f * y) % p for x, y in zip(other[c:], tail)]
        pivots.append(c)
    return pivots


def rref(m: Mat) -> RrefResult:
    """Reduced row-echelon form with leftmost-pivot, first-nonzero-row pivoting."""
    work = [list(r) for r in m.data]
    pivots = eliminate(work, m.cols, m.field.p)
    return RrefResult(Mat(m.field, m.rows, m.cols, tuple(map(tuple, work))), len(pivots), tuple(pivots))


def _pivots(m: Mat) -> list:
    return eliminate([list(r) for r in m.data], m.cols, m.field.p)


def rank(m: Mat) -> int:
    return len(_pivots(m))


def kernel_of_rows(work: list, cols: int, p: int) -> list:
    """`kernel_basis` of the matrix with rows work (entries in [0, p)), which is reduced in place."""
    pivots = eliminate(work, cols, p)
    pivot_set = set(pivots)
    basis = []
    for f in range(cols):
        if f in pivot_set:
            continue
        v = [0] * cols
        v[f] = 1
        for row, c in zip(work, pivots):
            if row[f]:
                v[c] = p - row[f]
        basis.append(tuple(v))
    return basis


def kernel_basis(m: Mat) -> list:
    """Basis of the right null space as a list of column vectors (tuples)."""
    return kernel_of_rows([list(r) for r in m.data], m.cols, m.field.p)


def free_columns(basis) -> list:
    """The free column of each `kernel_of_rows` vector: its last nonzero entry, where every other
    vector of the basis is 0, so a vector of the span has its coordinates there."""
    return [max(q for q, x in enumerate(vec) if x) for vec in basis]


def extend_echelon(echelon: dict, row: list, p: int) -> bool:
    """Reduce row in place against echelon and keep what is left; True when it was independent.

    echelon maps each pivot column c to the tail from c of its row, which has
    a 1 at c.  The entries of row must be in [0, p).
    """
    for c, x in enumerate(row):
        if not x:
            continue
        tail = echelon.get(c)
        if tail is None:
            inv = pow(x, p - 2, p)
            echelon[c] = [y * inv % p for y in row[c:]]
            return True
        row[c:] = [(y - x * z) % p for y, z in zip(row[c:], tail)]
    return False


def _solved_rows(m: Mat, work: list, width: int):
    """The rows of the X with m X = B and free variables 0, or None; work is [m | B], width B's.

    Only m's columns are eliminated: B is in m's column space exactly when
    every row left zero on m is zero on B.
    """
    pivots = eliminate(work, m.cols, m.field.p)
    if any(any(row[m.cols:]) for row in work[len(pivots):]):
        return None
    out = [(0,) * width] * m.cols
    for row, c in zip(work, pivots):
        out[c] = tuple(row[m.cols:])
    return out


def solve(m: Mat, b) -> tuple | None:
    """One solution x of m*x = b with free variables pinned to 0, or None."""
    if len(b) != m.rows:
        raise ValueError("right-hand side length mismatch")
    p = m.field.p
    out = _solved_rows(m, [[*r, int(y) % p] for r, y in zip(m.data, b)], 1)
    return None if out is None else tuple(row[0] for row in out)


def solve_matrix(m: Mat, bmat: Mat) -> Mat | None:
    """Solve m*X = bmat column by column (all or nothing), free variables 0."""
    if bmat.rows != m.rows:
        raise ValueError("right-hand side row count mismatch")
    out = _solved_rows(m, [[*r, *s] for r, s in zip(m.data, bmat.data)], bmat.cols)
    return None if out is None else Mat(m.field, m.cols, bmat.cols, tuple(out))


def column_space_basis(m: Mat) -> Mat:
    """Deterministic basis of the column space: the pivot columns of m."""
    piv = _pivots(m)
    return Mat.from_columns(m.field, [m.col(j) for j in piv], rows=m.rows)


def quotient_coordinates(m: Mat):
    """(complement, reduce): the c with e_c outside U + span(e_0 .. e_{c-1}), U the column
    space of m, and y's coordinates on those e_c modulo U.  The c left out are the last
    nonzero entries of vectors of U: the pivots of its echelon form, coordinates reversed."""
    n, p = m.rows, m.field.p
    work = [[r[j] for r in reversed(m.data)] for j in range(m.cols)]
    pivots = eliminate(work, n, p)
    ends = {n - 1 - c for c in pivots}
    complement = [c for c in range(n) if c not in ends]
    rows = list(zip(pivots, work))

    def reduce(y) -> tuple:
        y = y[::-1]
        for c, row in rows:
            if y[c]:
                y = [(a - y[c] * b) % p for a, b in zip(y, row)]
        return tuple(y[n - 1 - c] for c in complement)

    return complement, reduce
