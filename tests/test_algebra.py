import glob
import itertools
import os
import random
from collections import Counter

import pytest

from taukit.algebra import (
    Algebra,
    NotAdmissibleError,
    SpecError,
    opposite,
    parse_algebra,
    parse_spec,
    quotient_by_idempotent,
    quotient_by_monomial_ideal,
    serialize_spec,
)
from tests.conftest import (
    KRONECKER_TEXT,
    LAMBDA3_TEXT,
    LOOP_TEXT,
    a2,
    auslander_linear,
    d4,
    e7_linear,
    kronecker,
    lambda3,
    nakayama_rad2,
    ss3,
)
from tests.test_arknit import CYCLE3_RAD2


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


A3_TEXT = "field 101\nvertices 1 2 3\narrow a: 1 -> 2\narrow b: 2 -> 3\n"


@pytest.mark.parametrize("killed, dim, rest", [
    (("1", ("a",)), 4, "arrow b: 2 -> 3\n"),
    (("2", ("b",)), 4, "arrow a: 1 -> 2\n"),
    (("1", ("a", "b")), 5, "arrow a: 1 -> 2\narrow b: 2 -> 3\nrelation b*a\n"),
], ids=["a", "b", "b*a"])
def test_quotient_by_monomial_ideal_on_hereditary_a3(killed, dim, rest):
    # killing an arrow saturates the ideal with b*a and leaves no relation;
    # killing b*a alone writes it as the relation of A3/rad^2
    A = parse_algebra(A3_TEXT)
    Q = quotient_by_monomial_ideal(A, [A.basis[A.basis_index[killed]]])
    assert Q.dim == dim
    assert Q.spec == parse_spec("field 101\nvertices 1 2 3\n" + rest)


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


# -- the build-time gate on the multiplication table -------------------------------

def _reference_gate(alg):
    """The gate as one loop over all dim^3 basis triples, then the unit."""
    n = alg.dim
    for i in range(n):
        for j in range(n):
            for k in range(n):
                left = alg.mult_vec(alg.mult_basis(i, j), ((1, k),))
                right = alg.mult_vec(((1, i),), alg.mult_basis(j, k))
                if left != right:
                    raise AssertionError(f"multiplication not associative at ({i},{j},{k})")
    unit = tuple((1, alg.idempotents[v]) for v in alg.vertices)
    for i in range(n):
        if alg.mult_vec(unit, ((1, i),)) != ((1, i),) or alg.mult_vec(((1, i),), unit) != ((1, i),):
            raise AssertionError("unit fails")


def _raises(gate, alg) -> bool:
    try:
        gate(alg)
    except AssertionError:
        return True
    return False


GATE_ALGEBRAS = {
    "A3": lambda: lambda3(p=101),
    "A5rad2": lambda: nakayama_rad2(5, p=101),
    "auslander3": lambda: auslander_linear(3, p=2),
    "cycle3rad2": lambda: parse_algebra(CYCLE3_RAD2),
}


def _corruptions(alg, rng, count=12):
    """Seeded edits of the stored products, each as (kind, edited table)."""
    p, mult = alg.field.p, alg._mult
    for _ in range(count):
        i, j = key = rng.choice(sorted(mult))
        vec = list(mult[key])
        t = rng.randrange(len(vec))
        block = [k for k, pth in enumerate(alg.basis)
                 if pth.source == alg.basis[j].source and pth.target == alg.basis[i].target]
        off = [k for k in range(alg.dim) if k not in block]
        # a term moved to another vertex block, and a product stored for a pair that does not compose
        if off:
            yield "off-block", {**mult, key: tuple(sorted(vec[:t] + [(1, rng.choice(off))] + vec[t + 1:]))}
        a, b = rng.choice([(a, b) for a in range(alg.dim) for b in range(alg.dim)
                           if alg.basis[b].target != alg.basis[a].source])
        yield "off-block", {**mult, (a, b): ((1, rng.randrange(alg.dim)),)}
        # a composable product changed: one term dropped, or given another coefficient or path
        term = (rng.randrange(1, p), rng.choice(block))
        changed = vec[:t] + ([] if term == vec[t] or rng.random() < 0.3 else [term]) + vec[t + 1:]
        yield "changed", {**mult, key: tuple(sorted(changed))}
        # e_v * x broken, for v the target of x
        x = rng.randrange(alg.dim)
        e = alg.idempotents[alg.basis[x].target]
        yield "unit", {**mult, (e, x): ((2, x),) if p > 2 else ()}


@pytest.mark.parametrize("name", sorted(GATE_ALGEBRAS))
def test_gate_rejects_what_the_dim3_loop_rejects(name):
    alg = GATE_ALGEBRAS[name]()
    good = alg._mult
    raised = Counter()
    for kind, table in _corruptions(alg, random.Random(name)):
        alg._mult = {key: vec for key, vec in table.items() if vec}
        new = _raises(Algebra.check_consistency, alg)
        # off the vertex blocks the gate rejects outright; on them it decides as the loop does
        assert new if kind == "off-block" else new == _raises(_reference_gate, alg), kind
        raised[kind] += new
    alg._mult = good
    alg.check_consistency()
    assert raised["off-block"] and raised["changed"] and raised["unit"] == 12


def test_both_gates_pass_on_every_algebra_its_opposite_and_quotients():
    algebras = [lambda3(), lambda3(p=2), ss3(), a2(), kronecker(), d4(), e7_linear(p=2), nakayama_rad2(5),
                nakayama_rad2(7, p=2), auslander_linear(3, p=2), parse_algebra(CYCLE3_RAD2),
                parse_algebra(LOOP_TEXT.format(p=5).rstrip() + "\nrelation x*x\n")]
    for path in sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "fixtures", "*.alg"))):
        with open(path) as fh:
            algebras.append(parse_algebra(fh.read()))
    algebras += [opposite(alg) for alg in algebras]
    A5 = nakayama_rad2(5)
    algebras += [quotient_by_idempotent(A5, e)
                 for r in range(len(A5.vertices) + 1) for e in itertools.combinations(A5.vertices, r)]
    assert len(algebras) == 2 * 15 + 32
    for alg in algebras:
        alg.check_consistency()
        _reference_gate(alg)
