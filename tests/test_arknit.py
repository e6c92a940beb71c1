import hashlib
import itertools
import json
import random
from collections import Counter

import pytest

from taukit import arknit, modcat as mc
from taukit.algebra import parse_algebra, quotient_by_idempotent
from taukit.cli import emit_report
from taukit.exactlin import Mat, kernel_of_rows, rank, solve, solve_matrix
from tests.conftest import (CENSUS_ALGEBRAS, LAMBDA3_TEXT, auslander_linear, d4, e7_linear, kronecker, lambda3,
                            nakayama_rad2)
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
    # a cycle, a loop and a non-thin dim vector: entries range over all of F_p^x
    "kronecker-3": (lambda: kronecker(p=3), {"1": 1, "2": 2}),
    "x3-3": (lambda: parse_algebra(TRUNCATED_X3), 2),
    "A3-5": (lambda: lambda3(p=5), {"1": 1, "2": 2, "3": 1}),
}


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_brute_force_matches_the_plain_loop(name):
    build, bound = ORACLE_CASES[name]
    A = build()
    bounds = bound if isinstance(bound, dict) else {v: bound for v in A.vertices}
    fast = arknit.brute_force_indecomposables(A, bounds)
    assert [M.to_json() for M in fast] == [M.to_json() for M in _brute_force_reference(A, bounds)]


def test_brute_force_builds_one_candidate_per_rescaling_orbit(monkeypatch):
    calls = Counter()

    def counted(name):
        inner = getattr(mc, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)
        return wrapper

    for name in ("relations_hold", "is_indecomposable"):
        monkeypatch.setattr(mc, name, counted(name))
    A = lambda3(p=101)
    assert len(arknit.brute_force_indecomposables(A, {v: 1 for v in A.vertices})) == 5
    # 12 walked assignments and the 5 survivors' Module checks; the 5 classes
    assert calls == {"relations_hold": 17, "is_indecomposable": 5}


def test_brute_force_tests_only_candidates_in_one_piece(monkeypatch):
    # over F_2 at bound 2 most walked candidates that pass the relations split into
    # the spans of the pieces their nonzero entries join; none reaches is_indecomposable
    calls = Counter()
    is_indecomposable = mc.is_indecomposable

    def counted(M):
        calls["is_indecomposable"] += 1
        return is_indecomposable(M)

    monkeypatch.setattr(mc, "is_indecomposable", counted)
    A = lambda3(p=2)
    bounds = {v: 2 for v in A.vertices}
    fast = arknit.brute_force_indecomposables(A, bounds)
    assert calls == {"is_indecomposable": 23}  # 98 when only a split support was rejected
    assert [M.to_json() for M in fast] == [M.to_json() for M in _brute_force_reference(A, bounds)]


def _rescaling_orbit_minima(A, dims):
    """The least member of each orbit of flat entries, by applying every basis rescaling."""
    p = A.field.p
    dim_map = dict(zip(A.vertices, dims))
    node = {(v, i): n for n, (v, i) in enumerate((v, i) for v in A.vertices for i in range(dim_map[v]))}
    ends = [(node[a.target, r], node[a.source, c])
            for a in A.arrows for r in range(dim_map[a.target]) for c in range(dim_map[a.source])]
    scalings = list(itertools.product(range(1, p), repeat=len(node)))
    seen, minima = set(), []
    for flat in itertools.product(range(p), repeat=len(ends)):
        if flat in seen:
            continue
        orbit = {tuple(s[u] * x * pow(s[w], -1, p) % p for (u, w), x in zip(ends, flat)) for s in scalings}
        seen |= orbit
        minima.append(min(orbit))
    return sorted(minima)


@pytest.mark.parametrize("build, dims", [
    (lambda: kronecker(p=3), (1, 2)),
    (lambda: kronecker(p=3), (2, 2)),
    (lambda: lambda3(p=3), (1, 2, 1)),
    (lambda: lambda3(p=5), (1, 1, 1)),
    (lambda: d4(p=3), (1, 1, 1, 2)),
    (lambda: parse_algebra(TRUNCATED_X3), (3,)),
    (lambda: parse_algebra("field 5\nvertices 1\narrow x: 1 -> 1\nrelation x*x\n"), (2,)),
], ids=["kronecker-12", "kronecker-22", "A3-121", "A3-5", "D4-1112", "x3-3", "loop-5"])
def test_orbit_walk_yields_each_orbit_minimum_once_in_order(build, dims):
    A = build()
    ends = arknit._entry_ends(A, dims)
    walk = list(arknit._orbit_least(ends, sum(dims), A.field.p))
    assert walk == _rescaling_orbit_minima(A, dims)
    assert len(walk) <= arknit._walk_bound(ends, sum(dims), A.field.p)


# -- pinned census bytes, the rad^2 oracle, and work done once -------------------

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
    # both fields of E7, an Auslander algebra, and three algebras whose tau-orbits are periodic
    "E7-101": ("94aecb0a45c039b58ad6deeeac6ee7db25c442c3c0367a18e3f959645930ae65",
               "d8591750073901a64ff282f6e69b4efa8cccf3313964565e2a43ad38fe24d9c7"),
    "auslander3-2": ("b051a2ae34fc39b5d28de99d3e42e89acb2f9339f5fee37b567e45278ff0c0b5",
                     "7706d19b835d06ba4bff3f48093f479eb86f6e21a18b1a708559e5e9f5ab20a8"),
    "x3-3": ("f797e79da73402a1f558d0811d4de9235d31246d8ce7ea116d81ca83ed48bdb4",
             "fcdeb2899da22d5442c4da952dd3bd773c5438e1c387f24d78166f574696bdcf"),
    "cycle2rad3-3": ("9b8abf083fbff9e12ebb113fb8c0862bf17b2c8fe4d3aa1d3e4146de6eebba6a",
                     "4d0bc348429156292b07f4810afbce8a78362aa9291fc903e9d2b0764a029118"),
    "cycle3rad2-3": ("c28c8b83ddee7a9028c7ca0fbf7aa58e379e4cee1073a409560765f1cb4f7d75",
                     "5238be28394dbeadfe77b8f95dd77fec88e52d20e54b15de80f8b16642fd9e23"),
}


@pytest.fixture(scope="module")
def censuses():
    return {name: arknit.knit_indecomposables(build()) for name, build in CENSUS_ALGEBRAS.items()}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED_CENSUS))
def test_census_bytes_are_pinned(censuses, name):
    idx = censuses[name] if name in censuses else arknit.knit_indecomposables(
        {"E7-101": lambda: e7_linear(p=101), **HOM_ALGEBRAS}[name]())
    assert (_sha(emit_report(idx.to_json())), _sha(arknit.ar_quiver_dot(idx))) == PINNED_CENSUS[name]


def test_e7_census_shape(censuses):
    idx = censuses["E7-2"]
    assert len(idx.modules) == 63
    assert len(idx.ar_arrows) == 102
    assert {a for _, _, a in idx.ar_arrows} == {1}


def _combination(idx, i, j, coords):
    """The map X_i -> X_j with the given coordinates over idx.hom_basis(i, j)."""
    g = mc.ModMap.zero(idx.modules[i], idx.modules[j])
    for c, f in zip(coords, idx.hom_basis(i, j)):
        if c:
            g = g.add(f.scale(c))
    return g


def _radical_basis(idx, i, j):
    """rad(X_i, X_j) as ModMaps, combined from the coordinates `idx.radical` gives."""
    return [_combination(idx, i, j, coords) for coords in idx.radical(i, j)]


def _full_span_multiplicities(idx):
    """a(i, j) from the rank of every composite through rad^2, with no early stop."""
    n = len(idx.modules)
    field_ = idx.algebra.field
    rad = {(i, j): _radical_basis(idx, i, j) for i in range(n) for j in range(n)}
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


# x3-3 and cycle2rad3-3 have members with rad End != 0, which the diagonal path reads
@pytest.mark.parametrize("name", sorted(CENSUS_ALGEBRAS) + ["x3-3", "cycle2rad3-3", "cycle3rad2-3",
                                                            "auslander3-2"])
def test_irreducible_multiplicities_match_full_span(censuses, name):
    idx = censuses[name] if name in CENSUS_ALGEBRAS else arknit.knit_indecomposables(HOM_ALGEBRAS[name]())
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


def _record_knit_sources(monkeypatch):
    """Log of a knit: each minimal_presentation as (module, result), each transpose as
    (module, presentation passed, result), each dual as (module, result), and each
    _Generators with the presentation it was compiled from.  Every object is kept, so no id is reused."""
    log = {"minimal_presentation": [], "transpose": [], "dual": [], "compiled": []}
    presentation, transpose, dual, of = mc.minimal_presentation, mc.transpose, mc.dual, arknit._Generators.of

    def presented(M):
        log["minimal_presentation"].append((M, presentation(M)))
        return log["minimal_presentation"][-1][1]

    def transposed(M, pres=None):
        log["transpose"].append((M, pres, transpose(M, pres)))
        return log["transpose"][-1][2]

    def dualized(M):
        log["dual"].append((M, dual(M)))
        return log["dual"][-1][1]

    def compiled(cls, A, pres):
        log["compiled"].append((of(A, pres), pres))
        return log["compiled"][-1][0]

    monkeypatch.setattr(mc, "minimal_presentation", presented)
    monkeypatch.setattr(mc, "transpose", transposed)
    monkeypatch.setattr(mc, "dual", dualized)
    monkeypatch.setattr(arknit._Generators, "of", classmethod(compiled))
    return log, dual


# the members placed as tau M and as tau^-1 M: on A3 and A5/rad^2 every member is a seed
@pytest.mark.parametrize("build, translates", [(lambda: lambda3(p=101), (0, 0)), (lambda: nakayama_rad2(5, p=2), (0, 0)),
                                           (lambda: d4(p=101), (0, 4)), (lambda: e7_linear(p=2), (20, 25))],
                         ids=["A3", "A5rad2-2", "D4-101", "E7-2"])
def test_knitting_computes_each_translate_once(monkeypatch, build, translates):
    log, dual = _record_knit_sources(monkeypatch)
    calls = _record_calls(monkeypatch, ["tau", "tau_inv"])
    idx = arknit.knit_indecomposables(build())
    n = len(idx.modules)
    position = {id(X): i for i, X in enumerate(idx.modules)}
    # D M is built in the loop, so it is known by its contents: D D M has M's matrices
    by_content = {json.dumps(X.to_json(), sort_keys=True): i for i, X in enumerate(idx.modules)}

    def member_of(M, is_dual):
        """The member that M is (is_dual False) or that M is the dual of, else None."""
        if not is_dual:
            return position.get(id(M))
        return None if id(M) in position else by_content.get(json.dumps(dual(M).to_json(), sort_keys=True))

    # the translates placed as new members: tau^-1 M = Tr D M is the transpose's result itself,
    # and tau M = D Tr M the dual of one, whose presentation it carries for D tau M
    results = {id(Tr): Tr for _, _, Tr in log["transpose"]}
    placed_inv = {position[id(Tr)]: Tr for Tr in results.values() if id(Tr) in position}
    placed_tau = {position[id(D)]: results[id(M)] for M, D in log["dual"]
                  if id(D) in position and id(M) in results}
    compiled = {id(gens): pres for gens, pres in log["compiled"]}
    for is_dual, placed in ((False, placed_inv), (True, placed_tau)):
        computed = {}
        for M, pres in log["minimal_presentation"]:
            i = member_of(M, is_dual)
            if i is not None:
                computed.setdefault(i, []).append(pres)
        passed = {}  # the presentation each transpose of a member (or of its dual) was given
        for M, pres, _ in log["transpose"]:
            i = member_of(M, is_dual)
            if i is not None:
                passed.setdefault(i, []).append(pres)
        for i in range(n):
            # one source each: a carried presentation, or one minimal_presentation call
            if i in placed:
                assert i not in computed, (is_dual, i)
                used = placed[i].presentation
            else:
                assert len(computed.get(i, [])) == 1, (is_dual, i)
                used = computed[i][0]
            assert used is not None
            if is_dual:
                assert passed.get(i, []) == ([] if idx.is_injective(i) else [used]), i
            else:
                assert compiled[id(idx._generators[i])] is used, i
                assert passed.get(i, []) == ([] if idx.is_projective(i) else [used]), i
    assert len(log["minimal_presentation"]) == 2 * n - len(placed_inv) - len(placed_tau)

    def members(is_dual):
        return Counter(i for i in (member_of(M, is_dual) for M, _, _ in log["transpose"]) if i is not None)

    def once(keep):
        return Counter(i for i in range(n) if keep(i))

    # tau M = D Tr M and tau^-1 M = Tr D M each come from one transpose, and no other translate is taken
    assert members(is_dual=False) == once(lambda i: not idx.is_projective(i))
    assert members(is_dual=True) == once(lambda i: not idx.is_injective(i))
    assert len(log["transpose"]) == sum(members(False).values()) + sum(members(True).values())
    assert calls["tau"] == calls["tau_inv"] == []
    assert (len(placed_tau), len(placed_inv)) == translates


@pytest.mark.parametrize("build", [lambda: e7_linear(p=2), lambda: nakayama_rad2(5, p=101)],
                         ids=["E7-2", "A5rad2-101"])
def test_knitting_reads_translates_and_irreducible_maps_off_top_generators(monkeypatch, build):
    # after the seeds, knitting builds no cover, kernel or cokernel module, and
    # direct sums only inside the seed decomposition; the rad^2 spans compose no ModMap
    inside = Counter()
    calls = {name: [] for name in ("projective_cover", "kernel", "cokernel", "direct_sum")}

    def scoped(module, name):
        fn = getattr(module, name)

        def run(*args):
            inside[name] += 1
            try:
                return fn(*args)
            finally:
                inside[name] -= 1

        monkeypatch.setattr(module, name, run)

    def logged(name):
        fn = getattr(mc, name)

        def run(*args):
            calls[name].append((inside["decompose"] > 0, inside["_seed_modules"] > 0))
            return fn(*args)

        monkeypatch.setattr(mc, name, run)

    for name in calls:
        logged(name)
    scoped(mc, "decompose")
    scoped(arknit, "_seed_modules")
    scoped(arknit, "irreducible_multiplicities")
    composed = []
    compose = mc.ModMap.compose

    def recorded(f, g):
        composed.append(inside["irreducible_multiplicities"] > 0)
        return compose(f, g)

    monkeypatch.setattr(mc.ModMap, "compose", recorded)
    arknit.knit_indecomposables(build())
    assert calls["projective_cover"] == []
    assert all(in_decompose or in_seeds for in_decompose, in_seeds in calls["kernel"] + calls["cokernel"])
    assert calls["direct_sum"] and all(in_decompose for in_decompose, _ in calls["direct_sum"])
    assert not any(composed)


@pytest.mark.parametrize("p", [2, 101])
def test_knitting_compares_no_pair_twice(monkeypatch, p):
    # each tau and tau^-1 image is placed by the iso tests of the register call that
    # places it: no later scan of the census, or round-trip check, compares it again.
    # A pair is (the member, by its generators, and the candidate translate)
    calls = []
    iso = arknit._iso_on_generators

    def recorded(gens, M):
        calls.append((gens, M))
        return iso(gens, M)

    monkeypatch.setattr(arknit, "_iso_on_generators", recorded)
    arknit.knit_indecomposables(nakayama_rad2(5, p=p))
    pairs = Counter((id(gens), id(M)) for gens, M in calls)
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


def _conjugated(M, rng):
    """M with its action conjugated at every vertex by a random invertible matrix."""
    A = M.algebra
    g = {v: _invertible(A.field, M.dims[v], rng) for v in A.vertices}
    g_inv = {v: solve_matrix(g[v], Mat.identity(A.field, M.dims[v])) for v in A.vertices}
    action = {a.name: g[a.target].mul(M.action[a.name]).mul(g_inv[a.source]) for a in A.arrows}
    return mc.Module(A, M.dims, action)


def _scrambled_sum(idx, rng):
    """A sum of up to 4 census members, conjugated at every vertex by an
    invertible matrix, so no summand sits on its own coordinates."""
    parts = [rng.choice(idx.modules) for _ in range(rng.randint(1, 4))]
    return _conjugated(mc.direct_sum(idx.algebra, parts).module, rng)


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


def _spans_module_hom(idx, i, j):
    """Whether idx.hom_basis(i, j) is hom_dim(i, j) maps spanning what mc.hom_basis spans, by ranks."""
    X, Y = idx.modules[i], idx.modules[j]
    basis, oracle = idx.hom_basis(i, j), mc.hom_basis(X, Y)
    length = sum(X.dims[v] * Y.dims[v] for v in idx.algebra.vertices)

    def rank_of(maps):
        return rank(Mat.from_rows(idx.algebra.field, [mc.hom_to_vector(f) for f in maps], cols=length))

    return len(basis) == idx.hom_dim(i, j) == len(oracle) == rank_of(basis) == rank_of(oracle) \
        == rank_of(basis + oracle)


@pytest.mark.parametrize("name", sorted(HOM_ALGEBRAS))
def test_census_hom_basis_matches_module_hom_basis(name):
    idx = arknit.knit_indecomposables(HOM_ALGEBRAS[name]())
    for i in range(len(idx.modules)):
        for j in range(len(idx.modules)):
            assert _spans_module_hom(idx, i, j), (i, j)


@pytest.mark.parametrize("name", ["A5rad2-101", "auslander3-2", "x3-3"])
def test_unknitted_index_hom_basis_matches_module_hom_basis(monkeypatch, name):
    # scrambled sums, a projective twice and the zero module: nothing here was knitted
    A = HOM_ALGEBRAS[name]()
    census, rng = arknit.knit_indecomposables(A), random.Random(name)
    P = mc.projective(A, A.vertices[0])
    mods = [_scrambled_sum(census, rng) for _ in range(5)] + [P, P, mc.zero_module(A)]
    idx = arknit.IndecIndex(A, mods)
    calls = _record_calls(monkeypatch, ["minimal_presentation"])
    for i in range(len(mods)):
        for j in range(len(mods)):
            assert _spans_module_hom(idx, i, j), (i, j)
    # the generators of each member are found once, from its presentation
    assert len(calls["minimal_presentation"]) == len(mods)


# -- placing a translate: the iso test on top generators, and sections solved on first read ---


def _isomorphic(X, M):
    return mc.iso_between_indecomposables(X, M) is not None


@pytest.mark.parametrize("name", sorted(set(CENSUS_ALGEBRAS) | set(HOM_ALGEBRAS)))
def test_generator_iso_test_agrees_with_the_module_level_one(name):
    # every ordered pair of members with one dim vector, each member against a scrambled copy of
    # every member of its dim vector, and sums of two members whose dims add up to a member's
    A = {**CENSUS_ALGEBRAS, **HOM_ALGEBRAS}[name]()
    idx, rng = arknit.knit_indecomposables(A), random.Random(name)
    mods = idx.modules
    dims = [X.dim_vector() for X in mods]
    shared = sums = 0
    for i, X in enumerate(mods):
        gens = idx._generator_data(i)
        for j, Y in enumerate(mods):
            if dims[j] != dims[i]:
                continue
            shared += i != j
            scrambled = _conjugated(Y, rng)
            for M in (Y, scrambled):
                assert arknit._iso_on_generators(gens, M) == _isomorphic(X, M) == (i == j), (i, j)
            if i == j:
                assert idx.find_iso(scrambled) == j
        for x, y in itertools.combinations_with_replacement(range(len(mods)), 2):
            if tuple(a + b for a, b in zip(dims[x], dims[y])) == dims[i]:
                M = mc.direct_sum(A, [mods[x], mods[y]]).module
                assert not arknit._iso_on_generators(gens, M) and not _isomorphic(X, M), (i, x, y)
                sums += 1
    # on the 2-cycle with rad^3 = 0, members that are not isomorphic share a dim vector:
    # the two uniserials of length 2, with their tops at either vertex
    assert (shared > 0) == (name == "cycle2rad3-3")
    assert sums > 0


def test_knitting_e7_presents_81_members_and_transposes_112(monkeypatch):
    # the iso tests read each member's presentation from the one the knit keeps for it
    log, _ = _record_knit_sources(monkeypatch)
    idx = arknit.knit_indecomposables(e7_linear(p=2))
    assert (len(log["minimal_presentation"]), len(log["transpose"])) == (81, 112)
    assert len(log["compiled"]) == len(idx.modules)


def test_knitting_e7_and_its_json_solve_no_section(monkeypatch):
    # every End of an E7 member is k, so no Hom basis is read back as maps, and no section is solved
    calls = []
    solve = arknit.solve_matrix

    def recorded(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(arknit, "solve_matrix", recorded)
    idx = arknit.knit_indecomposables(e7_linear(p=2))
    idx.to_json()
    assert calls == []
    assert idx._generator_data(0).sections
    assert len(calls) == len(idx.algebra.vertices)


# sha256 of the matrices at each vertex of every hom_basis(i, j) map, as read through sections
# solved for every member while knitting: solving each on its first read gives the same maps
PINNED_HOM_BASES = {
    "A3-101": "2a059ead7c31635c11ddc0b919ef71e35b34032ac1d75548ed38f7b3d465b56e",
    "A3-2": "2a059ead7c31635c11ddc0b919ef71e35b34032ac1d75548ed38f7b3d465b56e",
    "A5rad2-101": "77c060925c15e66e8c71b063364d67394f08a29e06053a163440af9ec9b52a31",
    "A5rad2-2": "77c060925c15e66e8c71b063364d67394f08a29e06053a163440af9ec9b52a31",
    "D4-101": "518ee5867e78e78d427b8c216b0a410ab22e9a002cfcf28deaa7592213908ae4",
    "E7-2": "1fd27a67d575a05965c3f6656889b29ee4048b0119a1c2da91feac7477e8330f",
    "auslander3-2": "fcf8ebde53a673ee25c059fb35fc594859e7ae0f490196b8ae84188daac013f3",
    "cycle2rad3-3": "3d07cf9e697a6922ba502fdc6313c5a01c01ac329c7936da4c17e7a089c43b22",
    "cycle3rad2-3": "39a678c3d9850069d0826c1101e64bce5a754416f449f55bbaad3e3e837de113",
    "x3-3": "51c923ee98f52bf843c31b5c7cbede80fdfe7d7a83e23cd4c91f9345a454fbcd",
}


@pytest.mark.parametrize("name", sorted(HOM_ALGEBRAS))
def test_hom_bases_read_through_sections_solved_on_first_read_are_pinned(name):
    idx = arknit.knit_indecomposables(HOM_ALGEBRAS[name]())
    n, vertices = len(idx.modules), idx.algebra.vertices
    maps = [[[[f.mats[v].data for v in vertices] for f in idx.hom_basis(i, j)] for j in range(n)] for i in range(n)]
    assert _sha(json.dumps(maps)) == PINNED_HOM_BASES[name]


def _record_solves(monkeypatch):
    solved = []
    solve = arknit.IndecIndex._solve_on_generators

    def recorded(self, i, j):
        solved.append((i, j))
        return solve(self, i, j)

    monkeypatch.setattr(arknit.IndecIndex, "_solve_on_generators", recorded)
    return solved


def test_hom_dim_then_hom_basis_compute_once(monkeypatch, L3):
    solved = _record_solves(monkeypatch)
    idx = arknit.knit_indecomposables(L3)
    n = len(idx.modules)
    for i in range(n):
        for j in range(n):
            idx.hom_dim(i, j)
    requested = list(solved)
    calls = _record_calls(monkeypatch, ["hom_basis"])
    i, j = 0, n - 1
    assert idx.hom_dim(i, j) == len(idx.hom_basis(i, j))
    # hom_dim solved the pair on X_i's generators, and the basis is read back from that solution
    assert len(calls["hom_basis"]) == 0
    assert requested.count((i, j)) == 1 and solved == requested


@pytest.mark.parametrize("name", ["E7-2", "A5rad2-101"])
def test_knitting_solves_each_pair_once_and_reads_back_no_basis(monkeypatch, name):
    solved = _record_solves(monkeypatch)
    idx = arknit.knit_indecomposables(HOM_ALGEBRAS[name]())
    n = len(idx.modules)
    for i in range(n):
        for j in range(n):
            idx.hom_dim(i, j)
    # knitting and then hom_dim solve each ordered pair's system once; only an End of
    # dimension > 1 is read back as maps
    assert sorted(solved) == [(i, j) for i in range(n) for j in range(n)]
    assert all(i == j and idx.hom_dim(i, i) > 1 for i, j in idx._hom_bases)
    requested = list(solved)
    calls = _record_calls(monkeypatch, ["hom_basis"])
    for i in range(n):
        for j in range(n):
            assert len(idx.hom_basis(i, j)) == idx.hom_dim(i, j)
    assert solved == requested and not calls["hom_basis"]


def test_knitting_checks_that_each_end_modulo_its_radical_is_k(monkeypatch):
    # x3-3 has members with End of dimension > 1; a radical too small for one of them stops knitting
    monkeypatch.setattr(mc, "radical_of_endos", lambda field, flat: [])
    with pytest.raises(AssertionError, match="modulo its radical"):
        arknit.knit_indecomposables(HOM_ALGEBRAS["x3-3"]())


@pytest.mark.parametrize("name", sorted(set(CENSUS_ALGEBRAS) | set(HOM_ALGEBRAS)) + ["auslander4-101"])
def test_knitted_arrows_match_both_definitional_counts(censuses, name):
    # the arrows knitted from rad P and tau are a(X, Y) = dim rad(X, Y)/rad^2(X, Y)
    idx = censuses[name] if name in CENSUS_ALGEBRAS else arknit.knit_indecomposables(
        {"auslander4-101": lambda: auslander_linear(4, p=101), **HOM_ALGEBRAS}[name]())
    knitted = {(i, j): a for i, j, a in idx.ar_arrows}
    assert knitted == arknit.irreducible_multiplicities(idx) == _full_span_multiplicities(idx)


PERIODIC = ["x3-3", "cycle2rad3-3", "cycle3rad2-3"]


@pytest.mark.parametrize("name", sorted(HOM_ALGEBRAS))
def test_only_a_periodic_tau_orbit_counts_the_arrows_by_definition(monkeypatch, name):
    # every tau-orbit of a directed census reaches a projective, so its arrows are knitted;
    # k[x]/(x^3) and the cyclic Nakayama algebras have periodic orbits, and count them by rad/rad^2
    counted, knitted = [], []
    count, knit = arknit.irreducible_multiplicities, arknit._knitted_multiplicities

    def counting(idx):
        counted.append(idx)
        return count(idx)

    def knitting(*args):
        knitted.append(knit(*args))
        return knitted[-1]

    monkeypatch.setattr(arknit, "irreducible_multiplicities", counting)
    monkeypatch.setattr(arknit, "_knitted_multiplicities", knitting)
    idx = arknit.knit_indecomposables(HOM_ALGEBRAS[name]())
    periodic = any(_tau_orbit_is_periodic(idx, z) for z in idx.tau_map)
    assert periodic == (name in PERIODIC)
    assert counted == ([idx] if periodic else []) and len(knitted) == 1
    assert (knitted[0] is None) == periodic


def _tau_orbit_is_periodic(idx, z):
    seen = set()
    while z in idx.tau_map and z not in seen:
        seen.add(z)
        z = idx.tau_map[z]
    return z in seen


def test_knitting_e7_solves_only_the_diagonal(monkeypatch):
    # the End(X)/rad = k check solves End of each member; no other Hom space is solved
    solved = _record_solves(monkeypatch)
    idx = arknit.knit_indecomposables(e7_linear(p=2))
    assert sorted(solved) == [(i, i) for i in range(63)] and len(idx.modules) == 63


@pytest.mark.parametrize("shift", [1, -1])
def test_a_seed_multiplicity_of_rad_p_off_by_one_is_incomplete(monkeypatch, shift):
    # rad P(v) of A5/rad^2 is S(v+1); a decomposition that miscounts it breaks the base case
    # sum a(X, P(v)) dim X = dim rad P(v) of the knitted arrows
    seeds, decompose = arknit._seed_modules, mc.decompose
    radicals = []

    def tagged(A):
        whole, layers = seeds(A)
        radicals.extend(id(seed) for v, seed in layers if v is not None)
        return whole, layers

    def miscounted(M):
        cert = decompose(M)
        if id(M) == radicals[0]:
            (X, m), *rest = cert.summands
            cert.summands = ((X, m + shift), *rest)
        return cert

    monkeypatch.setattr(arknit, "_seed_modules", tagged)
    monkeypatch.setattr(mc, "decompose", miscounted)
    with pytest.raises(arknit.KnitIncompleteError, match="rad P"):
        arknit.knit_indecomposables(nakayama_rad2(5, p=2))


def _coordinates(idx, i, j, g):
    """The coordinates of g: X_i -> X_j over idx.hom_basis(i, j)."""
    vec = mc.hom_to_vector(g)
    basis = [mc.hom_to_vector(f) for f in idx.hom_basis(i, j)]
    coords = solve(Mat.from_columns(idx.algebra.field, basis, rows=len(vec)), vec)
    assert coords is not None
    return list(coords)


def _precompose_oracle(idx, F, src, mid, k, op):
    """`precompose`'s matrix, one column per basis map of Hom(+mid, X_k), from composed ModMaps."""
    def hom(i, j):  # the pair whose hom_basis spans Hom(i, j) in the reading at hand
        return (j, i) if op else (i, j)

    parts = {}  # (b, a): F's component between mid[b] and src[a]
    for b, m in enumerate(mid):
        at = 0
        for a, s in enumerate(src):
            n = idx.hom_dim(*hom(s, m))
            parts[(b, a)] = _combination(idx, *hom(s, m), F[b][at:at + n])
            at += n
    columns = []
    for b, m in enumerate(mid):
        for g in idx.hom_basis(*hom(m, k)):
            column = []
            for a, s in enumerate(src):
                composite = parts[(b, a)].compose(g) if op else g.compose(parts[(b, a)])
                column += _coordinates(idx, *hom(s, k), composite)
            columns.append(column)
    return Mat.from_columns(idx.algebra.field, columns,
                            rows=sum(idx.hom_dim(*hom(s, k)) for s in src))


# x3-3 has members whose End has dimension > 1
@pytest.mark.parametrize("name", ["A5rad2-2", "A5rad2-101", "x3-3"])
@pytest.mark.parametrize("op", [False, True], ids=["plain", "op"])
def test_precompose_matches_composed_maps(name, op):
    idx = arknit.knit_indecomposables(HOM_ALGEBRAS[name]())
    n, p = len(idx.modules), idx.algebra.field.p
    rng = random.Random(1717)

    def dim(i, j):  # dim Hom(i, j) in the reading at hand
        return idx.hom_dim(j, i) if op else idx.hom_dim(i, j)

    def reached_from(sources):  # members the sources map to, so that most composites are nonzero
        return [j for j in range(n) if any(dim(i, j) for i in sources)] or list(range(n))

    nonzero = 0
    for _ in range(80):
        src = [rng.randrange(n) for _ in range(rng.randint(1, 3))]
        mid = [rng.choice(reached_from(src)) for _ in range(rng.randint(1, 3))]
        k = rng.choice(reached_from(mid))
        F = [tuple(rng.randrange(p) for s in src for _ in range(dim(s, m))) for m in mid]
        got = idx.precompose(F, src, mid, k, op)
        assert got == _precompose_oracle(idx, F, src, mid, k, op), (src, mid, k)
        nonzero += not got.is_zero()
    assert nonzero >= 20


@pytest.mark.parametrize("name", ["x3-3", "A5rad2-2", "auslander3-2"])
def test_composition_tables_solve_nothing_and_compose_no_maps(monkeypatch, name):
    idx = arknit.knit_indecomposables(HOM_ALGEBRAS[name]())
    n = len(idx.modules)
    # the sections are member data, solved on their first read: read them before the table
    for i in range(n):
        assert idx._generator_data(i).sections is not None

    def refuse(*args):
        raise AssertionError("a composition table solved a system or composed two maps")

    monkeypatch.setattr(arknit, "solve_matrix", refuse)
    monkeypatch.setattr(mc.ModMap, "compose", refuse)
    tables = {(i, j, k): idx.compose(i, j, k) for i in range(n) for j in range(n) for k in range(n)}
    monkeypatch.undo()
    # entry [a][b] holds the coordinates of a o b over hom_basis(i, k)
    for (i, j, k), table in tables.items():
        assert len(table) == idx.hom_dim(j, k)
        for a, row in zip(idx.hom_basis(j, k), table):
            assert len(row) == idx.hom_dim(i, j)
            for b, coords in zip(idx.hom_basis(i, j), row):
                assert _combination(idx, i, k, coords).mats == a.compose(b).mats, (i, j, k)


def test_a_composite_off_its_hom_basis_is_a_defect(monkeypatch):
    # solution 0 of End(X) for the largest X of k[x]/(x^3), shifted by 1 in every entry as it is read back:
    # a composite through it leaves the span of the solutions it should be a combination of
    idx = arknit.knit_indecomposables(HOM_ALGEBRAS["x3-3"]())
    n, p, maps_at = len(idx.modules), idx.algebra.field.p, arknit.IndecIndex._maps_at

    def shifted(self, i, j, w):
        mats = maps_at(self, i, j, w)
        if (i, j) == (n - 1, n - 1):
            mats[0] = [[(y + 1) % p for y in row] for row in mats[0]]
        return mats

    monkeypatch.setattr(arknit.IndecIndex, "_maps_at", shifted)
    tripped = 0
    for i in range(n):
        try:
            idx.compose(i, n - 1, n - 1)
        except AssertionError as exc:
            assert "left the span of its Hom basis" in str(exc)
            tripped += 1
    assert tripped


def _matrix_at(idx, F, src, mid, v):
    """The matrix at v of F: +src -> +mid, assembled from its components as ModMaps."""
    field_ = idx.algebra.field
    blocks = []
    for m, row in zip(mid, F):
        parts, at = [], 0
        for s in src:
            n = idx.hom_dim(s, m)
            parts.append(_combination(idx, s, m, row[at:at + n]).mats[v])
            at += n
        blocks.append(Mat.hstack(field_, parts, rows=idx.modules[m].dims[v]))
    return Mat.vstack(field_, blocks, cols=sum(idx.modules[s].dims[v] for s in src))


# Hom(M, I(v)) is D(M_v), so precomposing into the injective I(v) is F's matrix at v, transposed
@pytest.mark.parametrize("name", ["A5rad2-2", "A5rad2-101", "x3-3", "cycle2rad3-3"])
def test_precompose_into_an_injective_has_the_rank_of_the_vertex_matrix(name):
    idx = arknit.knit_indecomposables(HOM_ALGEBRAS[name]())
    A, n, p = idx.algebra, len(idx.modules), idx.algebra.field.p
    injective = {v: idx.find_iso(mc.injective(A, v)) for v in A.vertices}
    rng = random.Random(1818)
    nonzero = 0
    for _ in range(40):
        src = [rng.randrange(n) for _ in range(rng.randint(1, 3))]
        reached = [j for j in range(n) if any(idx.hom_dim(i, j) for i in src)] or list(range(n))
        mid = [rng.choice(reached) for _ in range(rng.randint(1, 3))]
        F = [tuple(rng.randrange(p) for s in src for _ in range(idx.hom_dim(s, m))) for m in mid]
        for v in A.vertices:
            expected = _matrix_at(idx, F, src, mid, v)
            got = idx.precompose(F, src, mid, injective[v])
            assert (got.rows, got.cols) == (expected.cols, expected.rows), (src, mid, v)
            assert rank(got) == rank(expected), (src, mid, v)
            nonzero += rank(expected) > 0
    assert nonzero >= 20


@pytest.mark.parametrize("name", sorted(HOM_ALGEBRAS))
def test_knitting_flags_the_projective_and_injective_member_of_each_vertex(name):
    idx = arknit.knit_indecomposables(HOM_ALGEBRAS[name]())
    A, n = idx.algebra, len(idx.modules)
    projective = {idx.find_iso(mc.projective(A, v)) for v in A.vertices}
    injective = {idx.find_iso(mc.injective(A, v)) for v in A.vertices}
    assert None not in projective | injective
    assert len(projective) == len(injective) == len(A.vertices)
    assert {i for i in range(n) if idx.is_projective(i)} == projective
    assert {i for i in range(n) if idx.is_injective(i)} == injective
    hand = arknit.IndecIndex(A, list(idx.modules))  # no knitting: each flag is read off the member
    assert {i for i in range(n) if hand.is_projective(i)} == projective
    assert {i for i in range(n) if hand.is_injective(i)} == injective


# -- seeds: P(v), I(v) and S(v) go in as they are, rad P and I/soc I are decomposed --

@pytest.mark.parametrize("name", sorted(HOM_ALGEBRAS))
def test_projective_injective_and_simple_seeds_are_indecomposable(name):
    A = HOM_ALGEBRAS[name]()
    for v in A.vertices:
        for build in (mc.projective, mc.injective, mc.simple):
            assert mc.is_indecomposable(build(A, v)), (build.__name__, v)


def _every_seed(A):
    """All seeds to be decomposed, as (v, seed): P(v), I(v), S(v), then rad P(v) and I(v)/soc I(v)
    for each v, with v given for rad P(v) only."""
    seeds = [(None, build(A, v)) for build in (mc.projective, mc.injective, mc.simple) for v in A.vertices]
    for v in A.vertices:
        I = mc.injective(A, v)
        seeds += [(v, mc.radical_submodule(mc.projective(A, v))[0]),
                  (None, mc.cokernel(mc.submodule_from_columns(I, mc.socle_columns(I))[1])[0])]
    return [], [(v, X) for v, X in seeds if not X.is_zero()]


@pytest.mark.parametrize("name", sorted(HOM_ALGEBRAS))
def test_census_equals_a_knit_that_decomposes_every_seed(monkeypatch, name):
    A = HOM_ALGEBRAS[name]()
    idx = arknit.knit_indecomposables(A)
    monkeypatch.setattr(arknit, "_seed_modules", _every_seed)
    ref = arknit.knit_indecomposables(A)
    assert [X.to_json() for X in idx.modules] == [X.to_json() for X in ref.modules]
    assert (idx.ar_arrows, idx.tau_map) == (ref.ar_arrows, ref.tau_map)


# `perfbench/test_perfbench.py` reads decompose time off knitting these two algebras
@pytest.mark.parametrize("text", [LAMBDA3_TEXT.format(p=101), "field 101\nvertices 1 2 3\narrow a: 1 -> 2\n"
                                  "arrow b: 2 -> 3\n"], ids=["A3rad2-101", "A3-101"])
def test_knitting_still_decomposes_a_seed(monkeypatch, text):
    calls = _record_calls(monkeypatch, ["decompose"])
    arknit.knit_indecomposables(parse_algebra(text))
    assert calls["decompose"]


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


@pytest.mark.parametrize("name", sorted(EXT_ALGEBRAS))
def test_ext_masks_solve_against_no_injective_member(name, monkeypatch):
    # Ext^k(-, I) = 0 for k > 0, so an injective member's column needs no solve
    idx = arknit.knit_indecomposables(EXT_ALGEBRAS[name]())
    injective = [X for i, X in enumerate(idx.modules) if idx.is_injective(i)]
    solve, targets = mc.resolution_ext_dim, []

    def recorded(resolution, k, N):
        targets.append(N)
        return solve(resolution, k, N)

    monkeypatch.setattr(mc, "resolution_ext_dim", recorded)
    for k in range(1, 4):
        idx.ext_masks(k)
    assert targets and not any(N is I for N in targets for I in injective)


# -- the support-quotient tables, read per connected piece of A/<e> -----------------

# the (e, j) with X_j vanishing on e, over every e in Q_0
PIECE_ROWS = {"A5rad2-2": 112, "cycle2rad3-3": 8, "cycle3rad2-3": 18, "D4-101": 52, "auslander3-2": 324}


@pytest.mark.parametrize("name", sorted(PIECE_ROWS))
def test_support_quotient_tables_match_the_whole_quotient(name):
    # A/<e> is the product of the algebras of its pieces, so each tau_2 row and each
    # projective read over one piece is what the whole quotient A/<e> gives
    A = HOM_ALGEBRAS[name]()
    idx = arknit.knit_indecomposables(A)
    rows = 0
    for r in range(len(A.vertices) + 1):
        for e in map(frozenset, itertools.combinations(A.vertices, r)):
            Aq = quotient_by_idempotent(A, e) if e else A
            assert idx.quotient_projectives(e) == tuple(
                idx.find_iso(mc.induce_module(mc.projective(Aq, v), A)) for v in Aq.vertices), e
            for j, X in enumerate(idx.modules):
                if any(X.dims[v] for v in e):
                    continue
                t = mc.induce_module(mc.tau_d(mc.restrict_module(X, Aq), 2), A)
                row = sum(1 << i for i, Y in enumerate(idx.modules)
                          if not any(Y.dims[v] for v in e) and mc.hom_dim(Y, t))
                got, got_row = idx.tau2_row(e, j)
                assert (got_row, got.dim_vector()) == (row, t.dim_vector()), (e, j)
                assert idx.summand_indices(got) == idx.summand_indices(t), (e, j)
                rows += 1
    assert rows == PIECE_ROWS[name]


def test_tau2_row_rejects_a_member_that_does_not_vanish_on_e():
    # X_j = P1 of A5/rad^2 lives on {1, 2}; a walk from its support must not pass
    # through the killed vertex 2 into the piece {1}
    A = nakayama_rad2(5)
    idx = arknit.knit_indecomposables(A)
    j = next(j for j, X in enumerate(idx.modules) if X.dim_vector() == (1, 1, 0, 0, 0))
    for e in (frozenset({"2"}), frozenset({"1", "2"}), frozenset({"2", "4"})):
        with pytest.raises(ValueError, match="does not vanish"):
            idx.tau2_row(e, j)
    assert idx.tau2_row(frozenset({"3"}), j)[1] == idx.tau2_row(frozenset({"3", "4", "5"}), j)[1]


def _check_minimal_presentation(X, pres):
    """Assert that pres is a minimal presentation P1 -> P0 ->> X, against `mc.minimal_presentation(X)`.

    The vertex multisets are those of the minimal one; the cover is onto X at every
    vertex and sends the trivial path of the k-th summand of P0 to basis vector
    generators[k] of X at verts0[k]; and at every vertex the image of P1 under the
    elements is killed by the cover and has the rank of its kernel.
    """
    A, ref = X.algebra, mc.minimal_presentation(X)
    assert (Counter(pres.verts0), Counter(pres.verts1)) == (Counter(ref.verts0), Counter(ref.verts1))
    P0 = mc.direct_sum(A, [mc.projective(A, v) for v in pres.verts0])
    for w in A.vertices:
        assert (pres.cover[w].rows, pres.cover[w].cols) == (X.dims[w], P0.module.dims[w]), w
        assert rank(pres.cover[w]) == X.dims[w], w
    for k, (v, g) in enumerate(zip(pres.verts0, pres.generators)):
        # the basis is breadth-first: the trivial path is the first basis vector of P(v) at v
        trivial = P0.inclusions[k].mats[v].col(0)
        assert pres.cover[v].apply(trivial) == tuple(int(r == g) for r in range(X.dims[v])), k
    images = {w: [] for w in A.vertices}
    for r, u in enumerate(pres.verts1):
        # the generator of P(u) goes to the element that P1's r-th summand names in P0
        y = (0,) * P0.module.dims[u]
        for (k, row), terms in pres.elements.items():
            if row == r:
                P = mc.projective(A, pres.verts0[k])
                for c, word in terms:
                    z = P0.inclusions[k].mats[u].apply(mc.path_action(P, pres.verts0[k], word).col(0))
                    y = tuple(a + c * b for a, b in zip(y, z))
        for q in A.paths_from(u):
            images[q.target].append(mc.path_action(P0.module, u, q.arrows).apply(y))
    for w in A.vertices:
        image = Mat.from_columns(A.field, images[w], rows=P0.module.dims[w])
        assert pres.cover[w].mul(image).is_zero(), w
        assert rank(image) == P0.module.dims[w] - X.dims[w], w


@pytest.mark.parametrize("name", sorted(HOM_ALGEBRAS))
def test_carried_presentations_are_minimal(monkeypatch, name):
    # every transpose in a knit is of an indecomposable non-projective, so the presentation
    # it carries is minimal; each member's own presentation, carried or computed, is too
    log, _ = _record_knit_sources(monkeypatch)
    idx = arknit.knit_indecomposables(HOM_ALGEBRAS[name]())
    monkeypatch.undo()
    for _, _, Tr in log["transpose"]:
        _check_minimal_presentation(Tr, Tr.presentation)
    compiled = {id(gens): pres for gens, pres in log["compiled"]}
    for i, X in enumerate(idx.modules):
        _check_minimal_presentation(X, compiled[id(idx._generators[i])])


def test_knitting_builds_the_carried_presentation_only_of_a_placed_translate(monkeypatch):
    # of the 112 transposes of an E7/F_2 knit, 45 place a new member (20 as tau M, 25 as
    # tau^-1 M), and only those read, and so build, the presentation their transpose carries
    log, _ = _record_knit_sources(monkeypatch)
    arknit.knit_indecomposables(e7_linear(p=2))
    built = [Tr for _, _, Tr in log["transpose"] if not callable(Tr._presentation)]
    assert (len(log["transpose"]), len(built)) == (112, 45)


def _padded(pres):
    """pres with its last relation repeated: a presentation that is not minimal."""
    r = len(pres.verts1) - 1
    extra = {(k, r + 1): terms for (k, q), terms in pres.elements.items() if q == r}
    return mc.Presentation(pres.verts0, pres.verts1 + pres.verts1[r:], {**pres.elements, **extra},
                           pres.cover, pres.generators)


def test_a_carried_presentation_that_is_not_minimal_fails(monkeypatch):
    # the check rejects each padded presentation; and a knit whose transposes carry one
    # transposes it again into a sum with projective summands, which cannot close
    log, _ = _record_knit_sources(monkeypatch)
    arknit.knit_indecomposables(d4(p=101))
    monkeypatch.undo()
    assert log["transpose"]
    for _, _, Tr in log["transpose"]:
        with pytest.raises(AssertionError):
            _check_minimal_presentation(Tr, _padded(Tr.presentation))
    transpose = mc.transpose

    def padded(M, pres=None):
        Tr = transpose(M, pres)
        Tr.presentation = _padded(Tr.presentation)
        return Tr

    monkeypatch.setattr(mc, "transpose", padded)
    with pytest.raises((arknit.LimitExceededError, arknit.KnitIncompleteError)):
        arknit.knit_indecomposables(d4(p=101))


@pytest.mark.parametrize("name", sorted(HOM_ALGEBRAS))
def test_tau_of_a_projective_is_zero_and_builds_no_opposite(monkeypatch, name):
    # over A and over A/<e> for the last vertex e (x3-3 has one vertex: only A); the
    # tau2_row rows equal those of tau taken as D Tr on every module, projectives too
    A = HOM_ALGEBRAS[name]()
    idx = arknit.knit_indecomposables(A)
    quotients = [frozenset()] + ([frozenset(A.vertices[-1:])] if len(A.vertices) > 1 else [])
    opposites = []
    opposite = mc.opposite
    monkeypatch.setattr(mc, "opposite", lambda B: opposites.append(B) or opposite(B))
    projectives = 0
    for e in quotients:
        Aq = quotient_by_idempotent(A, e) if e else A
        for X in idx.modules:
            if any(X.dims[v] for v in e):
                continue
            Y = mc.restrict_module(X, Aq)
            if not mc.minimal_presentation(Y).verts1:
                del opposites[:]
                t = mc.tau(Y)
                assert t.is_zero() and t.algebra is Aq and not opposites
                projectives += 1
    assert projectives >= len(A.vertices)
    monkeypatch.undo()
    members = {e: [j for j, X in enumerate(idx.modules) if not any(X.dims[v] for v in e)] for e in quotients}
    rows = {e: [idx.tau2_row(e, j)[1] for j in members[e]] for e in quotients}
    monkeypatch.setattr(mc, "tau", lambda M: mc.dual(mc.transpose(M)))
    ref = arknit.IndecIndex(A, idx.modules)
    assert rows == {e: [ref.tau2_row(e, j)[1] for j in members[e]] for e in quotients}


def _record_eliminations(monkeypatch):
    """{(i, j): whether solving Hom(X_i, X_j) ran an elimination}, filled as pairs are solved."""
    eliminations, pairs = [], {}
    kernel, solve = arknit.kernel_of_rows, arknit.IndecIndex._solve_on_generators

    def counted(*args):
        eliminations.append(args)
        return kernel(*args)

    def recorded(self, i, j):
        before = len(eliminations)
        out = solve(self, i, j)
        pairs[(i, j)] = len(eliminations) > before
        return out

    monkeypatch.setattr(arknit, "kernel_of_rows", counted)
    monkeypatch.setattr(arknit.IndecIndex, "_solve_on_generators", recorded)
    return pairs


def _zero_at_tops(idx, i, j):
    """Whether X_j is zero at every top vertex of X_i, so that Hom(X_i, X_j) has no unknowns."""
    return not any(idx.modules[j].dims[v] for v in idx._generator_data(i).verts0)


@pytest.mark.parametrize("name", ["E7-2", "A5rad2-101", "auslander3-2", "cycle2rad3-3", "x3-3"])
def test_socle_certificate_skips_only_zero_hom_spaces(monkeypatch, name):
    # a nonzero image of X_i has its socle in soc X_j and its support in supp X_i,
    # so a pair with no vertex of soc X_j in supp X_i is answered with no elimination
    pairs = _record_eliminations(monkeypatch)
    A = HOM_ALGEBRAS[name]()
    idx = arknit.knit_indecomposables(A)
    mods = idx.modules
    for i in range(len(mods)):
        for j in range(len(mods)):
            idx.hom_dim(i, j)
    for j, N in enumerate(mods):
        assert idx._socles[j] == {v for v, cols in mc.socle_columns(N).items() if cols.cols}
    skipped = [pair for pair, eliminated in pairs.items() if not eliminated]
    assert all(mc.hom_dim(mods[i], mods[j]) == 0 for i, j in skipped)
    by_socle = [(i, j) for i, j in skipped if not _zero_at_tops(idx, i, j)]
    assert by_socle == [(i, j) for i, j in skipped if not any(mods[i].dims[v] for v in idx._socles[j])
                        and not _zero_at_tops(idx, i, j)]
    if name == "E7-2":
        assert (len(by_socle), len(pairs)) == (499, 3969)


def test_hand_built_index_reads_socles_and_skips_only_zero_hom_spaces(monkeypatch):
    # an index built without knitting reads each member's socle itself and skips the same pairs
    census = arknit.knit_indecomposables(HOM_ALGEBRAS["A5rad2-101"]())
    pairs = _record_eliminations(monkeypatch)
    idx = arknit.IndecIndex(census.algebra, list(census.modules))
    n = len(idx.modules)
    assert [[idx.hom_dim(i, j) for j in range(n)] for i in range(n)] == \
        [[census.hom_dim(i, j) for j in range(n)] for i in range(n)]
    assert len(pairs) == n * n and idx._socles == census._socles
    skipped = [pair for pair, eliminated in pairs.items() if not eliminated]
    assert any(not _zero_at_tops(idx, i, j) for i, j in skipped)
    assert all(mc.hom_dim(idx.modules[i], idx.modules[j]) == 0 for i, j in skipped)


def _relation_walk(idx, pres, i, j):
    """Hom(X_i, X_j) on the generators of pres, solved as before the stencils: the relations
    walked term by term for every pair, each path action built up from the identity."""
    N, p = idx.modules[j], idx.algebra.field.p
    relations = [[(k, terms) for (k, r), terms in sorted(pres.elements.items()) if r == row]
                 for row in range(len(pres.verts1))]
    at = [0]
    for v in pres.verts0:
        at.append(at[-1] + N.dims[v])
    if not at[-1] or not any(idx.modules[i].dims[v] for v in idx._socle(j)):
        return []
    rows = [[0] * at[-1] for v in pres.verts1 for _ in range(N.dims[v])]
    row_at = 0
    for r, u in enumerate(pres.verts1):
        for k, terms in relations[r]:
            for c, word in terms:
                for t, entries in enumerate(mc.path_action(N, pres.verts0[k], word).data):
                    out = rows[row_at + t]
                    for q, y in enumerate(entries, at[k]):
                        out[q] += c * y
        row_at += N.dims[u]
    rows = [[x % p for x in row] for row in rows]
    return [tuple(x[at[k]:at[k + 1]] for k in range(len(pres.verts0)))
            for x in kernel_of_rows(rows, at[-1], p)]


@pytest.mark.parametrize("name", sorted(set(CENSUS_ALGEBRAS) | set(HOM_ALGEBRAS)))
def test_stencil_solves_match_the_relation_walk(monkeypatch, name):
    log, _ = _record_knit_sources(monkeypatch)
    idx = arknit.knit_indecomposables({**CENSUS_ALGEBRAS, **HOM_ALGEBRAS}[name]())
    monkeypatch.undo()
    compiled = {id(gens): pres for gens, pres in log["compiled"]}
    n = len(idx.modules)
    for i in range(n):
        pres = compiled[id(idx._generator_data(i))]
        for j in range(n):
            expected = _relation_walk(idx, pres, i, j)
            assert idx._solutions(i, j) == idx._solve_on_generators(i, j) == expected, (i, j)
    # each cached path action, built on its cached prefix, is the one built from the identity
    assert idx._actions
    for (j, v, word), action in idx._actions.items():
        assert action == mc.path_action(idx.modules[j], v, word), (j, v, word)
