import pytest

from taukit.algebra import parse_algebra

LAMBDA3_TEXT = """\
field {p}
vertices 1 2 3
arrow a: 1 -> 2
arrow b: 2 -> 3
relation b*a
"""

SS3_TEXT = """\
field {p}
vertices 1 2 3
"""

A2_TEXT = """\
field {p}
vertices 1 2
arrow a: 1 -> 2
"""

LOOP_TEXT = """\
field {p}
vertices 1
arrow x: 1 -> 1
"""

KRONECKER_TEXT = """\
field {p}
vertices 1 2
arrow a: 1 -> 2
arrow b: 1 -> 2
"""


def nakayama_rad2_text(n, p=101):
    """The spec of A_n / rad^2: the linear quiver 1 -> ... -> n with all length-2 paths zero."""
    lines = [f"field {p}", "vertices " + " ".join(str(i) for i in range(1, n + 1))]
    lines += [f"arrow a{i}: {i} -> {i + 1}" for i in range(1, n)]
    lines += [f"relation a{i + 1}*a{i}" for i in range(1, n - 1)]
    return "\n".join(lines) + "\n"


def nakayama_rad2(n, p=101):
    """A_n / rad^2: the linear quiver 1 -> ... -> n with all length-2 paths zero."""
    return parse_algebra(nakayama_rad2_text(n, p))


def e7_linear_text(p=101):
    """The spec of E7 with the chain 1 -> ... -> 6 oriented linearly and the branch arrow 7 -> 3."""
    lines = [f"field {p}", "vertices " + " ".join(str(i) for i in range(1, 8))]
    lines += [f"arrow a{i}: {i} -> {i + 1}" for i in range(1, 6)] + ["arrow b: 7 -> 3"]
    return "\n".join(lines) + "\n"


def e7_linear(p=101):
    """E7 with the chain 1 -> ... -> 6 oriented linearly and the branch arrow 7 -> 3."""
    return parse_algebra(e7_linear_text(p))


def auslander_linear_text(n, p=101):
    """The spec of the Auslander algebra of kA_n, 1 -> ... -> n: the AR quiver of kA_n with mesh relations.

    Vertex (i, j), 1 <= i <= j <= n, is the interval module, numbered in
    lexicographic order; arrows go right (i, j) -> (i, j + 1) and down
    (i, j) -> (i + 1, j).  Each mesh gives the relation down*right = right*down,
    or down*right = 0 at (i, i), where there is no (i + 1, i).
    """
    cells = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    number = {c: k + 1 for k, c in enumerate(cells)}
    names = iter("abcdefghijklmnopqrstuvwxyz")
    right, down, arrows = {}, {}, []
    for i, j in cells:
        for table, target in ((right, (i, j + 1)), (down, (i + 1, j))):
            if target in number:
                table[(i, j)] = next(names)
                arrows.append(f"arrow {table[(i, j)]}: {number[(i, j)]} -> {number[target]}")
    relations = []
    for i, j in cells:
        if (i, j) in right and (i + 1, j + 1) in number:
            path = f"{down[(i, j + 1)]}*{right[(i, j)]}"
            relations.append(f"relation {path} + -1*{right[(i + 1, j)]}*{down[(i, j)]}"
                             if (i, j) in down else f"relation {path}")
    lines = [f"field {p}", "vertices " + " ".join(map(str, number.values()))]
    return "\n".join(lines + arrows + relations) + "\n"


def auslander_linear(n, p=101):
    """The Auslander algebra of kA_n, linearly oriented (see `auslander_linear_text`)."""
    return parse_algebra(auslander_linear_text(n, p))


def lambda3(p=101):
    return parse_algebra(LAMBDA3_TEXT.format(p=p))


def ss3(p=101):
    return parse_algebra(SS3_TEXT.format(p=p))


def a2(p=101):
    return parse_algebra(A2_TEXT.format(p=p))


def kronecker(p=101):
    return parse_algebra(KRONECKER_TEXT.format(p=p))


@pytest.fixture(scope="session")
def L3():
    return lambda3()


@pytest.fixture(scope="session")
def L3_f2():
    return lambda3(p=2)


@pytest.fixture(scope="session")
def SS3():
    return ss3()


@pytest.fixture(scope="session")
def A2():
    return a2()

D4_TEXT = """\
field {p}
vertices 1 2 3 4
arrow a: 1 -> 4
arrow b: 2 -> 4
arrow c: 3 -> 4
"""


def d4(p=101):
    return parse_algebra(D4_TEXT.format(p=p))


# E7 with the chain 1 -> ... -> 6 oriented linearly and the branch arrow 7 -> 3
CENSUS_ALGEBRAS = {
    "E7-2": lambda: e7_linear(p=2),
    "D4-2": lambda: d4(p=2),
    "D4-101": lambda: d4(p=101),
    "A3": lambda: lambda3(p=101),
    "A5rad2-2": lambda: nakayama_rad2(5, p=2),
    "A5rad2-101": lambda: nakayama_rad2(5, p=101),
    "A7rad2-2": lambda: nakayama_rad2(7, p=2),
    "A7rad2-101": lambda: nakayama_rad2(7, p=101),
}
