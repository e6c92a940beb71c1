"""Exact dense linear algebra over prime fields F_p.

Scalars are plain Python ints in [0, p); matrices are immutable tuples of
row tuples.  Zero-row and zero-column matrices are legal everywhere and
behave as zero maps.  Pivoting is deterministic (leftmost pivot, first
nonzero row) so every basis produced downstream is reproducible.
"""

from __future__ import annotations

from collections import namedtuple


def _is_prime(p: int) -> bool:
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
        if not _is_prime(p):
            raise ValueError(f"field order must be prime, got {p}")
        self.p = p

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of zero in F_p")
        return pow(a, self.p - 2, self.p)

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
    def column(cls, field: PrimeField, entries) -> "Mat":
        return cls.from_rows(field, [[x] for x in entries], cols=1)

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

    def is_invertible(self) -> bool:
        return self.rows == self.cols and rref(self).rank == self.rows


class RrefResult(namedtuple("RrefResult", "matrix rank pivots")):
    __slots__ = ()


def rref(m: Mat) -> RrefResult:
    """Reduced row-echelon form with leftmost-pivot, first-nonzero-row pivoting."""
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
        # every row is zero left of c in the columns still to clear
        row = work[r]
        if row[c] != 1:
            inv = m.field.inv(row[c])
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


def _echelon(m: Mat) -> RrefResult:
    """rref(m), except that a matrix with no entries is its own echelon form."""
    if m.rows == 0 or m.cols == 0:
        return RrefResult(m, 0, ())
    return rref(m)


def rank(m: Mat) -> int:
    return _echelon(m).rank


def kernel_basis(m: Mat) -> list:
    """Basis of the right null space as a list of column vectors (tuples)."""
    p = m.field.p
    res = _echelon(m)
    pivot_set = set(res.pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [0] * m.cols
        v[f] = 1
        for r, c in enumerate(res.pivots):
            v[c] = (-res.matrix.entry(r, f)) % p
        basis.append(tuple(v))
    return basis


def free_variable_basis(field: PrimeField, vectors, length: int) -> list:
    """The basis of span(vectors) that `kernel_basis` gives any matrix with that null space.

    Its vector for free column f has a 1 at f, a 0 at every other free column
    and zeros after f.  So it is the reduced echelon form of the independent
    vectors with the column order reversed, sorted by last nonzero column.
    """
    if not vectors:
        return []
    res = rref(Mat.from_rows(field, [v[::-1] for v in vectors], cols=length))
    return [row[::-1] for row in reversed(res.matrix.data[:res.rank])]


def solve(m: Mat, b) -> tuple | None:
    """One solution x of m*x = b with free variables pinned to 0, or None."""
    if len(b) != m.rows:
        raise ValueError("right-hand side length mismatch")
    aug = Mat.hstack(m.field, [m, Mat.column(m.field, b)], rows=m.rows)
    res = _echelon(aug)
    if res.pivots and res.pivots[-1] == m.cols:
        return None
    x = [0] * m.cols
    for r, c in enumerate(res.pivots):
        x[c] = res.matrix.entry(r, m.cols)
    return tuple(x)


def solve_matrix(m: Mat, bmat: Mat) -> Mat | None:
    """Solve m*X = bmat column by column (all or nothing), free variables 0."""
    if bmat.rows != m.rows:
        raise ValueError("right-hand side row count mismatch")
    aug = Mat.hstack(m.field, [m, bmat], rows=m.rows)
    res = _echelon(aug)
    if any(c >= m.cols for c in res.pivots):
        return None
    cols = []
    for j in range(bmat.cols):
        x = [0] * m.cols
        for r, c in enumerate(res.pivots):
            x[c] = res.matrix.entry(r, m.cols + j)
        cols.append(tuple(x))
    return Mat.from_columns(m.field, cols, rows=m.cols)


def column_space_basis(m: Mat) -> Mat:
    """Deterministic basis of the column space: the pivot columns of m."""
    piv = _echelon(m).pivots
    return Mat.from_columns(m.field, [m.col(j) for j in piv], rows=m.rows)


def complement_basis(basis: Mat) -> Mat:
    """Standard basis vectors completing the (full-column-rank) basis to all of F_p^n."""
    n = basis.rows
    aug = Mat.hstack(basis.field, [basis, Mat.identity(basis.field, n)], rows=n)
    piv = _echelon(aug).pivots
    extra = [c - basis.cols for c in piv if c >= basis.cols]
    cols = []
    for j in extra:
        v = [0] * n
        v[j] = 1
        cols.append(tuple(v))
    return Mat.from_columns(basis.field, cols, rows=n)
