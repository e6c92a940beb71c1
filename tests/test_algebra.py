import pytest

from taukit.algebra import (
    NotAdmissibleError,
    SpecError,
    build_algebra,
    opposite,
    parse_algebra,
    parse_spec,
    quotient_by_idempotent,
    serialize_spec,
)
from tests.conftest import KRONECKER_TEXT, LAMBDA3_TEXT, LOOP_TEXT


def test_parse_lambda3():
    spec = parse_spec(LAMBDA3_TEXT.format(p=5))
    assert spec.p == 5
    assert spec.vertices == ("1", "2", "3")
    assert [a.name for a in spec.arrows] == ["a", "b"]
    assert len(spec.relations) == 1
    (rel,) = spec.relations
    assert rel.terms == ((1, ("a", "b")),)
    assert (rel.source, rel.target) == ("1", "3")


def test_parse_requires_field_line():
    with pytest.raises(SpecError):
        parse_spec("vertices 1\n")


def test_parse_rejects_short_relation_path():
    text = "field 5\nvertices 1 2\narrow a: 1 -> 2\nrelation a\n"
    with pytest.raises(SpecError, match="length < 2"):
        parse_spec(text)


def test_parse_rejects_unknown_labels():
    with pytest.raises(SpecError, match="unknown vertex"):
        parse_spec("field 5\nvertices 1\narrow a: 1 -> 2\n")
    with pytest.raises(SpecError, match="unknown arrow"):
        parse_spec("field 5\nvertices 1 2\narrow a: 1 -> 2\nrelation b*a\n")


def test_parse_rejects_non_parallel_relation():
    text = (
        "field 5\nvertices 1 2 3\n"
        "arrow a: 1 -> 2\narrow b: 2 -> 3\narrow c: 1 -> 3\narrow d: 3 -> 3\n"
        "relation b*a + d*c\n"
    )
    # b*a : 1 -> 3 and d*c : 1 -> 3 are parallel, so this parses;
    # mixing with a 2 -> 3 path must fail.
    parse_spec(text)
    bad = (
        "field 5\nvertices 1 2 3\n"
        "arrow a: 1 -> 2\narrow b: 2 -> 3\narrow c: 2 -> 3\n"
        "relation b*a + c*b\n"
    )
    with pytest.raises(SpecError):
        parse_spec(bad)


def test_serialize_round_trip():
    spec = parse_spec(LAMBDA3_TEXT.format(p=5))
    text = serialize_spec(spec)
    assert parse_spec(text) == spec
    # byte-identical modulo whitespace for the fixture
    assert [ln.split() for ln in text.strip().splitlines()] == [
        ln.split() for ln in LAMBDA3_TEXT.format(p=5).strip().splitlines()
    ]


def test_build_lambda3_basis(L3):
    assert L3.dim == 5
    labels = [pth.label() for pth in L3.basis]
    assert labels == ["e_1", "e_2", "e_3", "a", "b"]
    # the relation kills b*a
    ia = L3.basis_index[("1", ("a",))]
    ib = L3.basis_index[("2", ("b",))]
    assert L3.mult_basis(ib, ia) == ()


def test_build_one_vertex():
    alg = parse_algebra("field 7\nvertices 1\n")
    assert alg.dim == 1


def test_loop_not_admissible():
    with pytest.raises(NotAdmissibleError):
        parse_algebra(LOOP_TEXT.format(p=5))


def test_loop_with_relation_admissible():
    alg = parse_algebra(LOOP_TEXT.format(p=5).rstrip() + "\nrelation x*x\n")
    assert alg.dim == 2  # e_1 and x


def test_commutative_square():
    text = (
        "field 5\nvertices 1 2 3 4\n"
        "arrow a: 1 -> 2\narrow b: 2 -> 4\narrow c: 1 -> 3\narrow d: 3 -> 4\n"
        "relation b*a + 4*d*c\n"
    )
    alg = parse_algebra(text)
    # paths: 4 trivial, 4 arrows, and the two length-2 paths collapse to one class
    assert alg.dim == 9
    ia = alg.basis_index[("1", ("a",))]
    ib = alg.basis_index[("2", ("b",))]
    prod = alg.mult_basis(ib, ia)
    assert len(prod) == 1


def test_kronecker_is_admissible():
    alg = parse_algebra(KRONECKER_TEXT.format(p=5))
    assert alg.dim == 4


def test_quotient_by_idempotent(L3):
    q = quotient_by_idempotent(L3, {"1", "2"})
    assert q.vertices == ("3",)
    assert q.dim == 1
    q2 = quotient_by_idempotent(L3, set())
    assert q2 == L3
    q3 = quotient_by_idempotent(L3, {"2"})
    assert q3.vertices == ("1", "3")
    assert q3.dim == 2 and not q3.arrows
    z = quotient_by_idempotent(L3, {"1", "2", "3"})
    assert z.dim == 0


def test_quotient_composition_matches_union(L3):
    via_union = quotient_by_idempotent(L3, {"1", "3"})
    via_steps = quotient_by_idempotent(quotient_by_idempotent(L3, {"1"}), {"3"})
    assert via_union == via_steps


def test_opposite_involution(L3):
    op = opposite(L3)
    assert [a.source for a in op.arrows] == ["2", "3"]
    assert opposite(op) == L3


def test_opposite_is_built_once(L3):
    op = opposite(L3)
    assert opposite(L3) is op
    assert opposite(opposite(op)) is op


def test_opposite_semisimple(SS3):
    assert opposite(SS3) == SS3


def test_dim_is_sum_of_projective_dims(L3):
    total = sum(len(L3.paths_from(v)) for v in L3.vertices)
    assert total == L3.dim


def test_quotient_is_built_once(L3):
    assert quotient_by_idempotent(L3, {"1"}) is quotient_by_idempotent(L3, ["1"])
    assert quotient_by_idempotent(L3, {"1"}) is not quotient_by_idempotent(L3, {"2"})
