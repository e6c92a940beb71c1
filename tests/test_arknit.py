import hashlib
import itertools
import json
import random
from collections import Counter

import pytest

from taukit import arknit, modcat as mc
from taukit.algebra import parse_algebra
from taukit.cli import emit_report
from taukit.exactlin import Mat, rank, solve_matrix
from tests.conftest import auslander_linear, d4, e7_linear, kronecker, lambda3, nakayama_rad2
from tests.test_tautilt import CYCLE2_RAD3, TRUNCATED_X3


LAMBDA3_DIMVECS = {(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1)}


def test_knit_semisimple(SS3):
    idx = arknit.knit_indecomposables(SS3)
    assert len(idx.modules) == 3
    assert {m.dim_vector() for m in idx.modules} == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    assert idx.ar_arrows == []
    assert idx.tau_map == {}


def test_knit_lambda3(L3):
    idx = arknit.knit_indecomposables(L3)
    assert len(idx.modules) == 5
    assert {m.dim_vector() for m in idx.modules} == LAMBDA3_DIMVECS


def test_knit_tau_structure(L3):
    idx = arknit.knit_indecomposables(L3)
    by_vec = {m.dim_vector(): i for i, m in enumerate(idx.modules)}
    s1, s2, s3 = by_vec[(1, 0, 0)], by_vec[(0, 1, 0)], by_vec[(0, 0, 1)]
    assert idx.tau_map[s1] == s2  # tau(S1) = S2
    assert idx.tau_map[s2] == s3  # tau(S2) = S3
    assert s1 not in {idx.tau_map.get(k) for k in (s2, s3)}
    # projectives carry no translate
    assert by_vec[(1, 1, 0)] not in idx.tau_map
    assert by_vec[(0, 1, 1)] not in idx.tau_map
    assert s3 not in idx.tau_map


def test_knit_a2(A2):
    idx = arknit.knit_indecomposables(A2)
    assert {m.dim_vector() for m in idx.modules} == {(1, 0), (0, 1), (1, 1)}


def test_knit_matches_brute_force_f2():
    A = lambda3(p=2)
    idx = arknit.knit_indecomposables(A)
    brute = arknit.brute_force_indecomposables(A, {v: 1 for v in A.vertices})
    assert len(brute) == len(idx.modules) == 5
    assert {m.dim_vector() for m in brute} == LAMBDA3_DIMVECS
    for M in brute:
        assert idx.find_iso(M) is not None


def test_brute_force_one_vertex():
    from taukit.algebra import parse_algebra

    K = parse_algebra("field 2\nvertices 1\n")
    mods = arknit.brute_force_indecomposables(K, {"1": 1})
    assert len(mods) == 1 and mods[0].dim_vector() == (1,)
    assert arknit.brute_force_indecomposables(K, {"1": 0}) == []


def test_brute_force_budget():
    A = lambda3(p=101)
    with pytest.raises(arknit.BudgetExceededError):
        arknit.brute_force_indecomposables(A, {v: 4 for v in A.vertices}, budget=10)


def test_kronecker_limit_exceeded():
    A = kronecker(p=2)
    with pytest.raises(arknit.LimitExceededError) as exc:
        arknit.knit_indecomposables(A, max_count=12, max_dim=12)
    assert len(exc.value.partial) > 0


def test_irreducible_multiplicities_lambda3(L3):
    idx = arknit.knit_indecomposables(L3)
    by_vec = {m.dim_vector(): i for i, m in enumerate(idx.modules)}
    mult = {(i, j): a for i, j, a in idx.ar_arrows}
    p1, p2 = by_vec[(1, 1, 0)], by_vec[(0, 1, 1)]
    s1, s2, s3 = by_vec[(1, 0, 0)], by_vec[(0, 1, 0)], by_vec[(0, 0, 1)]
    # the A3 mesh: S3 -> P2 -> S2 -> P1 -> S1
    assert mult.get((s3, p2)) == 1
    assert mult.get((p2, s2)) == 1
    assert mult.get((s2, p1)) == 1
    assert mult.get((p1, s1)) == 1
    assert (s1, p1) not in mult and (s2, p2) not in mult


def test_dot_output(L3, SS3):
    idx = arknit.knit_indecomposables(L3)
    dot = arknit.ar_quiver_dot(idx)
    assert dot.startswith("digraph AR {")
    # exactly the two non-projective indecomposables carry a translate
    assert dot.count("style=dashed") == 2
    idx2 = arknit.knit_indecomposables(SS3)
    dot2 = arknit.ar_quiver_dot(idx2)
    assert dot2.count("->") == 0
    empty = arknit.IndecIndex(SS3, [])
    assert arknit.ar_quiver_dot(empty) == "digraph AR {\n}\n"


def test_knit_per_field_consistency():
    idx2 = arknit.knit_indecomposables(lambda3(p=2))
    idx101 = arknit.knit_indecomposables(lambda3(p=101))
    assert {m.dim_vector() for m in idx2.modules} == {m.dim_vector() for m in idx101.modules}


def test_index_summand_lookup(L3):
    idx = arknit.knit_indecomposables(L3)
    P1 = mc.projective(L3, "1")
    S3 = mc.simple(L3, "3")
    M = mc.direct_sum(L3, [P1, S3, S3]).module
    summands = idx.summand_indices(M)
    assert summands is not None and len(summands) == 3
    assert idx.summand_indices(mc.zero_module(L3)) == []


def test_projectives_and_injectives_match_one_entry(L3):
    idx = arknit.knit_indecomposables(L3)
    for v in L3.vertices:
        for M in (mc.projective(L3, v), mc.injective(L3, v)):
            hits = [i for i, X in enumerate(idx.modules)
                    if X.dim_vector() == M.dim_vector()
                    and mc.iso_between_indecomposables(M, X) is not None]
            assert len(hits) == 1


D4_ROOTS = {
    (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
    (1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1),
    (1, 1, 0, 1), (1, 0, 1, 1), (0, 1, 1, 1),
    (1, 1, 1, 1), (1, 1, 1, 2),
}


def test_knit_d4_subspace_quiver():
    # a non-thin representation-finite fixture: 12 indecomposables, one of
    # them with a 2-dimensional space at the sink
    from tests.conftest import d4

    A = d4(p=101)
    idx = arknit.knit_indecomposables(A)
    assert {m.dim_vector() for m in idx.modules} == D4_ROOTS
    assert len(idx.modules) == 12


def test_knit_d4_matches_brute_force_f2():
    from tests.conftest import d4

    A = d4(p=2)
    idx = arknit.knit_indecomposables(A)
    assert {m.dim_vector() for m in idx.modules} == D4_ROOTS
    bounds = {"1": 1, "2": 1, "3": 1, "4": 2}
    brute = arknit.brute_force_indecomposables(A, bounds)
    assert len(brute) == 12
    for M in brute:
        assert idx.find_iso(M) is not None


def _brute_force_reference(A, max_dims):
    """The enumerator as one loop: every assignment becomes a checked Module."""
    p = A.field.p
    out = []
    for dims in itertools.product(*(range(max_dims.get(v, 0) + 1) for v in A.vertices)):
        if sum(dims) == 0:
            continue
        dim_map = dict(zip(A.vertices, dims))
        shapes = [(a.name, dim_map[a.target], dim_map[a.source]) for a in A.arrows]
        for assignment in itertools.product(*(itertools.product(range(p), repeat=r * c) for _, r, c in shapes)):
            action = {name: Mat.from_rows(A.field, [flat[i * c:(i + 1) * c] for i in range(r)], cols=c)
                      for (name, r, c), flat in zip(shapes, assignment)}
            try:
                M = mc.Module(A, dim_map, action, check=True)
            except ValueError:
                continue
            if mc.is_indecomposable(M) and arknit._iso_index(out, M) is None:
                out.append(M)
    out.sort(key=lambda m: (m.total_dim, m.dim_vector()))
    return out


ORACLE_CASES = {
    "A3-2": (lambda: lambda3(p=2), 1),
    "A3-101": (lambda: lambda3(p=101), 1),
    "D4-2": (lambda: d4(p=2), {"1": 1, "2": 1, "3": 1, "4": 2}),
    "auslander3-2": (lambda: auslander_linear(3, p=2), 1),
    "cycle3rad2-3": (lambda: parse_algebra(CYCLE3_RAD2), 1),
}


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_brute_force_matches_the_plain_loop(name):
    build, bound = ORACLE_CASES[name]
    A = build()
    bounds = bound if isinstance(bound, dict) else {v: bound for v in A.vertices}
    fast = arknit.brute_force_indecomposables(A, bounds)
    assert [M.to_json() for M in fast] == [M.to_json() for M in _brute_force_reference(A, bounds)]


# -- pinned census bytes, the rad^2 oracle, and work done once -------------------

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

# sha256 of the `ar` and `ar --dot` stdout bytes: a change to knitting must
# leave every byte of the census, its AR arrows and its translate as it is
PINNED_CENSUS = {
    "E7-2": ("cce37e57fb38eeafc472ea2d2efe0207294d8930d2a0de8bde731b569a050a64",
             "d8591750073901a64ff282f6e69b4efa8cccf3313964565e2a43ad38fe24d9c7"),
    "D4-2": ("4642b715b0a25e5c3d03d894ed8219ed59e01cd635915bb2b1020efd78f7192f",
             "d63da3e279a931de71cf70ae638c0c5e397df46617ab4bec5fb3b83b06ff29f7"),
    "D4-101": ("7a99191690344e926c4ed9a79f1d4287e2e3e561ce5b34b85038bb859261a847",
               "d63da3e279a931de71cf70ae638c0c5e397df46617ab4bec5fb3b83b06ff29f7"),
    "A3": ("bbfa73c3f9aa55b7fd119b7cd584df271eadbbc86b5c3cbb6d8ba27e16bc5029",
           "a6546b79f2be0f117adb431f90d0021789a646269de8e11f1f01e5dc4f81decc"),
    "A5rad2-2": ("cc420aec0e693ea840c26a4d226ba902fd0cf52a7d173e3e86493926cec01f8f",
                 "4a2ad050524be9db4542ee2b80e59698481636c4affaea0f7b976557a03a31ba"),
    "A5rad2-101": ("cc420aec0e693ea840c26a4d226ba902fd0cf52a7d173e3e86493926cec01f8f",
                   "4a2ad050524be9db4542ee2b80e59698481636c4affaea0f7b976557a03a31ba"),
    "A7rad2-2": ("772f80eba2aaa1930ba4c6be6151a3afdb35b62a59992993fdae1ab1d83a8c86",
                 "3e35f6219c273ea508db4cd184ad43abd55e11ec4a26a9ac2214db06720a5380"),
    "A7rad2-101": ("772f80eba2aaa1930ba4c6be6151a3afdb35b62a59992993fdae1ab1d83a8c86",
                   "3e35f6219c273ea508db4cd184ad43abd55e11ec4a26a9ac2214db06720a5380"),
}


@pytest.fixture(scope="module")
def censuses():
    return {name: arknit.knit_indecomposables(build()) for name, build in CENSUS_ALGEBRAS.items()}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CENSUS_ALGEBRAS))
def test_census_bytes_are_pinned(censuses, name):
    idx = censuses[name]
    assert (_sha(emit_report(idx.to_json())), _sha(arknit.ar_quiver_dot(idx))) == PINNED_CENSUS[name]


def test_e7_census_shape(censuses):
    idx = censuses["E7-2"]
    assert len(idx.modules) == 63
    assert len(idx.ar_arrows) == 102
    assert {a for _, _, a in idx.ar_arrows} == {1}


def _full_span_multiplicities(idx):
    """a(i, j) from the rank of every composite through rad^2, with no early stop."""
    n = len(idx.modules)
    field_ = idx.algebra.field
    rad = {(i, j): arknit._rad_basis(idx, i, j) for i in range(n) for j in range(n)}
    out = {}
    for i in range(n):
        for j in range(n):
            if not rad[(i, j)]:
                continue
            square = [mc.hom_to_vector(h.compose(g))
                      for z in range(n) for g in rad[(i, z)] for h in rad[(z, j)]]
            veclen = len(mc.hom_to_vector(rad[(i, j)][0]))
            sq_rank = rank(Mat.from_rows(field_, square, cols=veclen)) if square else 0
            a = len(rad[(i, j)]) - sq_rank
            if a > 0:
                out[(i, j)] = a
    return out


@pytest.mark.parametrize("name", sorted(CENSUS_ALGEBRAS))
def test_irreducible_multiplicities_match_full_span(censuses, name):
    idx = censuses[name]
    assert arknit.irreducible_multiplicities(idx) == _full_span_multiplicities(idx)


def _record_calls(monkeypatch, names):
    calls = {}
    for name in names:
        log = calls[name] = []
        fn = getattr(mc, name)

        def recorded(M, *args, _fn=fn, _log=log):
            _log.append(M)
            return _fn(M, *args)

        monkeypatch.setattr(mc, name, recorded)
    return calls


@pytest.mark.parametrize("build", [lambda: lambda3(p=101), lambda: nakayama_rad2(5, p=2)],
                         ids=["A3", "A5rad2-2"])
def test_knitting_computes_each_translate_once(monkeypatch, build):
    A = build()
    calls = _record_calls(monkeypatch, ["minimal_presentation", "transpose", "tau", "tau_inv"])
    idx = arknit.knit_indecomposables(A)
    position = {id(X): i for i, X in enumerate(idx.modules)}
    # D M is built in the loop, so it is known by its contents: D D M has M's matrices
    by_content = {json.dumps(X.to_json(), sort_keys=True): i for i, X in enumerate(idx.modules)}

    def members(name, dual):
        return Counter(by_content.get(json.dumps(mc.dual(M).to_json(), sort_keys=True)) if dual
                       else position[id(M)] for M in calls[name] if (id(M) in position) != dual)

    def once(keep):
        return Counter(i for i in range(len(idx.modules)) if keep(i))

    # one presentation of M and one of D M per member; tau M = D Tr M and tau^-1 M = Tr D M
    # each come from one transpose of that presentation, and no other translate is taken
    assert members("minimal_presentation", dual=False) == once(lambda i: True)
    assert members("minimal_presentation", dual=True) == once(lambda i: True)
    assert members("transpose", dual=False) == once(lambda i: not idx.is_projective(i))
    assert members("transpose", dual=True) == once(lambda i: not idx.is_injective(i))
    assert len(calls["minimal_presentation"]) == 2 * len(idx.modules)
    assert calls["tau"] == calls["tau_inv"] == []


@pytest.mark.parametrize("p", [2, 101])
def test_knitting_compares_no_pair_twice(monkeypatch, p):
    # each tau and tau^-1 image is placed by the iso scan that registers it:
    # no later scan of the census, or round-trip check, compares it again
    calls = []
    iso = mc.iso_between_indecomposables

    def recorded(M, N):
        calls.append((M, N))
        return iso(M, N)

    monkeypatch.setattr(mc, "iso_between_indecomposables", recorded)
    arknit.knit_indecomposables(nakayama_rad2(5, p=p))
    pairs = Counter((id(M), id(N)) for M, N in calls)
    assert calls and max(pairs.values()) == 1


def test_composite_outside_the_radical_is_a_defect():
    # k[x]/(x^2) listed twice: the composite P -> P' -> P of two isomorphisms
    # is the identity, which no radical contains
    A = parse_algebra("field 2\nvertices 1\narrow x: 1 -> 1\nrelation x*x\n")
    P = mc.projective(A, "1")
    with pytest.raises(AssertionError):
        arknit.irreducible_multiplicities(arknit.IndecIndex(A, [P, P]))


def test_summand_indices_decompose_each_content_once(monkeypatch, L3):
    idx = arknit.knit_indecomposables(L3)
    calls = _record_calls(monkeypatch, ["decompose"])
    P1, S3 = mc.projective(L3, "1"), mc.simple(L3, "3")
    M, M2 = (mc.direct_sum(L3, [P1, S3, S3]).module for _ in range(2))
    assert M is not M2
    first = idx.summand_indices(M)
    first.append(-1)
    second = idx.summand_indices(M2)
    assert len(calls["decompose"]) == 0
    assert second == first[:-1] and len(second) == 3


# -- summand multiplicities from the AR mesh --------------------------------------

CYCLE3_RAD2 = """\
field 3
vertices 1 2 3
arrow a: 1 -> 2
arrow b: 2 -> 3
arrow c: 3 -> 1
relation b*a
relation c*b
relation a*c
"""

DUAL_NUMBERS = "field 2\nvertices 1\narrow x: 1 -> 1\nrelation x*x\n"

SUMMAND_ALGEBRAS = {
    "A3-2": lambda: lambda3(p=2),
    "A3-101": lambda: lambda3(p=101),
    "A5rad2-2": lambda: nakayama_rad2(5, p=2),
    "A5rad2-101": lambda: nakayama_rad2(5, p=101),
    "D4-2": lambda: d4(p=2),
    "cycle3rad2-3": lambda: parse_algebra(CYCLE3_RAD2),
    "dual-numbers-2": lambda: parse_algebra(DUAL_NUMBERS),
}


def _invertible(field_, n, rng):
    while True:
        g = Mat.from_rows(field_, [[rng.randrange(field_.p) for _ in range(n)]
                                   for _ in range(n)], cols=n)
        if rank(g) == n:
            return g


def _scrambled_sum(idx, rng):
    """A sum of up to 4 census members, conjugated at every vertex by an
    invertible matrix, so no summand sits on its own coordinates."""
    A = idx.algebra
    parts = [rng.choice(idx.modules) for _ in range(rng.randint(1, 4))]
    M = mc.direct_sum(A, parts).module
    g = {v: _invertible(A.field, M.dims[v], rng) for v in A.vertices}
    g_inv = {v: solve_matrix(g[v], Mat.identity(A.field, M.dims[v])) for v in A.vertices}
    action = {a.name: g[a.target].mul(M.action[a.name]).mul(g_inv[a.source]) for a in A.arrows}
    return mc.Module(A, M.dims, action)


def _decompose_oracle(idx, M):
    return sorted(idx.find_iso(X) for X, mult in mc.decompose(M).summands for _ in range(mult))


@pytest.mark.parametrize("name", sorted(SUMMAND_ALGEBRAS))
def test_summand_indices_match_decompose_oracle(name):
    idx = arknit.knit_indecomposables(SUMMAND_ALGEBRAS[name]())
    rng = random.Random(name)
    for _ in range(24):
        M = _scrambled_sum(idx, rng)
        assert idx.summand_indices(M) == _decompose_oracle(idx, M)


def test_summand_indices_reject_a_broken_mesh(censuses):
    idx = censuses["A3"]
    for k, (x, _, _) in enumerate(idx.ar_arrows):
        broken = arknit.IndecIndex(idx.algebra, idx.modules,
                                   idx.ar_arrows[:k] + idx.ar_arrows[k + 1:], dict(idx.tau_map))
        with pytest.raises(AssertionError):
            broken.summand_indices(idx.modules[x])


HOM_ALGEBRAS = {
    "A3-2": lambda: lambda3(p=2),
    "A3-101": lambda: lambda3(p=101),
    "A5rad2-2": lambda: nakayama_rad2(5, p=2),
    "A5rad2-101": lambda: nakayama_rad2(5, p=101),
    "E7-2": lambda: e7_linear(p=2),
    "D4-101": lambda: d4(p=101),
    # End of a member has a radical on these two
    "x3-3": lambda: parse_algebra(TRUNCATED_X3),
    "cycle2rad3-3": lambda: parse_algebra(CYCLE2_RAD3),
    "cycle3rad2-3": lambda: parse_algebra(CYCLE3_RAD2),
    "auslander3-2": lambda: auslander_linear(3, p=2),
}


def _same_maps(first, second):
    return [f.mats for f in first] == [f.mats for f in second]


@pytest.mark.parametrize("name", sorted(HOM_ALGEBRAS))
def test_census_hom_basis_matches_module_hom_basis(name):
    idx = arknit.knit_indecomposables(HOM_ALGEBRAS[name]())
    for i, X in enumerate(idx.modules):
        for j, Y in enumerate(idx.modules):
            assert _same_maps(idx.hom_basis(i, j), mc.hom_basis(X, Y)), (i, j)


@pytest.mark.parametrize("name", ["A5rad2-101", "auslander3-2", "x3-3"])
def test_unknitted_index_hom_basis_matches_module_hom_basis(monkeypatch, name):
    # scrambled sums, a projective twice and the zero module: nothing here was knitted
    A = HOM_ALGEBRAS[name]()
    census, rng = arknit.knit_indecomposables(A), random.Random(name)
    P = mc.projective(A, A.vertices[0])
    mods = [_scrambled_sum(census, rng) for _ in range(5)] + [P, P, mc.zero_module(A)]
    idx = arknit.IndecIndex(A, mods)
    calls = _record_calls(monkeypatch, ["minimal_presentation"])
    for i, X in enumerate(mods):
        for j, Y in enumerate(mods):
            assert _same_maps(idx.hom_basis(i, j), mc.hom_basis(X, Y)), (i, j)
    # the generators of each member are found once, from its presentation
    assert len(calls["minimal_presentation"]) == len(mods)


def test_hom_dim_then_hom_basis_compute_once(monkeypatch, L3):
    solved = []
    solve = arknit.IndecIndex._generator_hom_basis

    def recorded(self, i, j):
        solved.append((i, j))
        return solve(self, i, j)

    monkeypatch.setattr(arknit.IndecIndex, "_generator_hom_basis", recorded)
    idx = arknit.knit_indecomposables(L3)
    knitted = list(solved)
    calls = _record_calls(monkeypatch, ["hom_basis"])
    i, j = 0, len(idx.modules) - 1
    assert idx.hom_dim(i, j) == len(idx.hom_basis(i, j))
    # knitting solved the pair on X_i's generators and filled the one Hom cache
    assert len(calls["hom_basis"]) == 0
    assert knitted.count((i, j)) == 1 and solved == knitted


# -- Ext on the census: one resolution per member and length, bitmask tables ------

EXT_ALGEBRAS = {
    "A3": lambda: lambda3(p=101),
    "A4rad2": lambda: nakayama_rad2(4, p=101),
    "A5rad2": lambda: nakayama_rad2(5, p=101),
}


@pytest.mark.parametrize("name", sorted(EXT_ALGEBRAS))
def test_census_ext_table_matches_modcat(name):
    idx = arknit.knit_indecomposables(EXT_ALGEBRAS[name]())
    n = len(idx.modules)
    for k in range(4):
        for i in range(n):
            for j in range(n):
                assert idx.ext_dim(k, i, j) == mc.ext_dim(k, idx.modules[i], idx.modules[j])
    for k in range(1, 4):
        rows, cols = idx.ext_masks(k)
        for i in range(n):
            for j in range(n):
                assert (rows[i] >> j & 1, cols[j] >> i & 1) == (bool(idx.ext_dim(k, i, j)),) * 2
