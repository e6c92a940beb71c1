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
