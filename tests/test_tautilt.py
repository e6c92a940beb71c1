import itertools
import json
from collections import Counter

import pytest

from taukit import arknit, highercat as hc, modcat as mc, tautilt as tt, torsion as tn
from taukit.algebra import parse_algebra, quotient_by_idempotent
from tests.conftest import auslander_linear, nakayama_rad2
from tests.test_highercat import _nakayama_rad2_ct, auslander_ct


@pytest.fixture(scope="module")
def L3idx(L3):
    return arknit.knit_indecomposables(L3)


def by_vec(idx):
    return {m.dim_vector(): i for i, m in enumerate(idx.modules)}


@pytest.fixture(scope="module")
def Cstar(L3idx):
    vecs = by_vec(L3idx)
    return hc.Subcat.of(L3idx, [vecs[(1, 1, 0)], vecs[(0, 1, 1)], vecs[(0, 0, 1)], vecs[(1, 0, 0)]])


def total_dims(idx, indices):
    return tuple(map(sum, zip(*(idx.modules[i].dim_vector() for i in indices))))


def mods(L3idx, *dimvecs):
    vecs = by_vec(L3idx)
    return [L3idx.modules[vecs[dv]] for dv in dimvecs]


def test_add_coresolution_member(L3idx, L3):
    (P1,) = mods(L3idx, (1, 1, 0))
    seq = tt.add_coresolution(P1, P1, 2)
    assert seq is not None
    assert len(seq.modules) == 2 and seq.maps[0].is_iso()


def test_add_coresolution_fixture_walkthrough(L3idx, L3):
    P1, P2, S1, S3 = mods(L3idx, (1, 1, 0), (0, 1, 1), (1, 0, 0), (0, 0, 1))
    T = mc.direct_sum(L3, [P1, P2, S1]).module
    seq = tt.add_coresolution(S3, T, 2)
    assert seq is not None
    assert [m.dim_vector() for m in seq.modules] == [(0, 0, 1), (0, 1, 1), (1, 1, 0), (1, 0, 0)]


def test_add_coresolution_failure(L3idx, L3):
    P1, S1, S3 = mods(L3idx, (1, 1, 0), (1, 0, 0), (0, 0, 1))
    T = mc.direct_sum(L3, [P1, S1]).module
    assert tt.add_coresolution(S3, T, 2) is None


def test_add_coresolution_respects_maxlen(L3idx, L3):
    P1, P2, S1, S3 = mods(L3idx, (1, 1, 0), (0, 1, 1), (1, 0, 0), (0, 0, 1))
    T = mc.direct_sum(L3, [P1, P2, S1]).module
    assert tt.add_coresolution(S3, T, 0) is None
    assert tt.add_coresolution(S3, T, 2) is not None


def test_regular_module_is_tau2_tilting(L3idx, L3):
    reg = mc.regular_module(L3).module
    res = tt.is_support_tau2_tilting(reg, L3idx)
    assert isinstance(res, tt.SupportTau2Cert)
    assert res.support_complement == frozenset()


def test_fixture_module_is_tau2_tilting(L3idx, L3):
    P1, P2, S1 = mods(L3idx, (1, 1, 0), (0, 1, 1), (1, 0, 0))
    T = mc.direct_sum(L3, [P1, P2, S1]).module
    res = tt.is_support_tau2_tilting(T, L3idx)
    assert isinstance(res, tt.SupportTau2Cert)
    assert res.support_complement == frozenset()
    dims = [total_dims(L3idx, term) for term in [res.source] + res.coresolution]
    assert dims[0] == (1, 2, 2)  # the regular module
    assert len(dims) <= 5


def test_s3_is_support_tau2_tilting(L3idx, L3):
    (S3,) = mods(L3idx, (0, 0, 1))
    res = tt.is_support_tau2_tilting(S3, L3idx)
    assert isinstance(res, tt.SupportTau2Cert)
    assert res.support_complement == {"1", "2"}
    assert res.source == (by_vec(L3idx)[(0, 0, 1)],)  # the one-dimensional quotient, as S3


def test_s2_is_support_tau2_tilting_with_support_2(L3idx, L3):
    # over the quotient at its support, S2 becomes the regular module of K
    (S2,) = mods(L3idx, (0, 1, 0))
    res = tt.is_support_tau2_tilting(S2, L3idx)
    assert isinstance(res, tt.SupportTau2Cert)
    assert res.support_complement == {"1", "3"}


def test_tau2_condition_rejects(L3idx, L3):
    # P1 + S3 + S1 has tau2(T) = S3 and Hom(S3, S3) != 0
    P1, S3, S1 = mods(L3idx, (1, 1, 0), (0, 0, 1), (1, 0, 0))
    T = mc.direct_sum(L3, [P1, S3, S1]).module
    res = tt.is_support_tau2_tilting(T, L3idx)
    assert isinstance(res, tt.NotSupportTau2)
    assert "tau2" in res.reason


def test_coresolution_condition_rejects(L3idx, L3):
    # P1 + P2 is faithful with tau2 = 0 but A has no add-coresolution
    P1, P2 = mods(L3idx, (1, 1, 0), (0, 1, 1))
    T = mc.direct_sum(L3, [P1, P2]).module
    res = tt.is_support_tau2_tilting(T, L3idx)
    assert isinstance(res, tt.NotSupportTau2)
    assert "coresolution" in res.reason


def test_is_2_tilting(L3idx, L3):
    reg = mc.regular_module(L3).module
    ok, _ = tt.is_2_tilting(reg, L3)
    assert ok
    P1, P2, S1 = mods(L3idx, (1, 1, 0), (0, 1, 1), (1, 0, 0))
    T = mc.direct_sum(L3, [P1, P2, S1]).module
    ok, cert = tt.is_2_tilting(T, L3)
    assert ok and cert["proj_dim"] == 2
    (S2,) = mods(L3idx, (0, 1, 0))
    ok, cert = tt.is_2_tilting(S2, L3)
    assert not ok
    assert cert["coresolution"] is None


def test_fac_cap_c(L3idx, L3, Cstar):
    vecs = by_vec(L3idx)
    reg = mc.regular_module(L3).module
    assert tt.fac_cap_C(reg, Cstar).members == Cstar.members
    assert tt.fac_cap_C(mc.zero_module(L3), Cstar).members == frozenset()
    P1, P2, S1 = mods(L3idx, (1, 1, 0), (0, 1, 1), (1, 0, 0))
    T = mc.direct_sum(L3, [P1, P2, S1]).module
    got = tt.fac_cap_C(T, Cstar)
    assert got.members == frozenset({vecs[(1, 1, 0)], vecs[(0, 1, 1)], vecs[(1, 0, 0)]})


def test_ext_projective_generator(L3idx, Cstar):
    vecs = by_vec(L3idx)
    empty = hc.Subcat.of(L3idx, [])
    assert tt.ext_projective_generator(empty).is_zero()
    single = hc.Subcat.of(L3idx, [vecs[(0, 0, 1)]])
    gen = tt.ext_projective_generator(single)
    assert gen.dim_vector() == (0, 0, 1)
    gen = tt.ext_projective_generator(Cstar)
    # S1 is not Ext^2-projective against C* (Ext^2(S1, S3) = 1); the generator is A
    expected = sorted([vecs[(1, 1, 0)], vecs[(0, 1, 1)], vecs[(0, 0, 1)]])
    assert L3idx.summand_indices(gen) == expected


def test_annihilator_quotient(L3idx, L3):
    P1, S1 = mods(L3idx, (1, 1, 0), (1, 0, 0))
    U = mc.direct_sum(L3, [P1, S1]).module
    Aq = tt.annihilator_quotient(L3, [U])
    # killing e_3 and b leaves the path algebra of 1 -> 2
    assert Aq.vertices == ("1", "2")
    assert [a.name for a in Aq.arrows] == ["a"]
    assert Aq.dim == 3


def test_quotient_tilting_lemma_on_fixture(L3idx, L3):
    # each tau_2-tilting module with full vertex support is 2-tilting over A/ann T
    P1, P2, S1, S3 = mods(L3idx, (1, 1, 0), (0, 1, 1), (1, 0, 0), (0, 0, 1))
    reg = mc.regular_module(L3).module
    T = mc.direct_sum(L3, [P1, P2, S1]).module
    for module in (reg, T):
        res = tt.is_support_tau2_tilting(module, L3idx)
        assert isinstance(res, tt.SupportTau2Cert)
        if res.support_complement:
            continue
        Aq = tt.annihilator_quotient(L3, [module])
        Tq = mc.restrict_module(module, Aq)
        ok, _ = tt.is_2_tilting(Tq, Aq)
        assert ok


def test_happel_lemma_instance(L3idx, L3):
    # For the 2-tilting module T = P1+P2+S1 and M = S1 with Ext^i(T, M) = 0
    # for i > 0, an add-T coresolution of M of bounded length exists.
    P1, P2, S1 = mods(L3idx, (1, 1, 0), (0, 1, 1), (1, 0, 0))
    T = mc.direct_sum(L3, [P1, P2, S1]).module
    assert mc.ext_dim(1, T, S1) == 0 and mc.ext_dim(2, T, S1) == 0
    seq = tt.add_coresolution(S1, T, 2)
    assert seq is not None and len(seq.modules) == 2


def test_verify_theorem1_lambda3_reports_falsification(L3idx, L3, Cstar):
    # Under the quotient-only reading the correspondence fails on this fixture:
    # S3+S1 passes every check over the quotient at {1,3} (there it is the
    # regular module), but its Fac-class {S3, S1} has orthogonal complement
    # add(P1), which is not 2-contravariantly finite, so only 7 of the 8
    # modules match a 2-ff torsion pair.  The default reading rejects S3+S1
    # because it is not tau_2-rigid over A (see the next test).
    report = tt.verify_theorem1(L3, Cstar, definition="quotient")
    assert not report.ok
    n_mod, n_pairs = report.counts()
    assert (n_mod, n_pairs) == (8, 7)
    vecs = by_vec(L3idx)
    p1, p2, s3, s1 = vecs[(1, 1, 0)], vecs[(0, 1, 1)], vecs[(0, 0, 1)], vecs[(1, 0, 0)]
    witness_key = tuple(sorted([s3, s1]))
    assert any(witness_key in m for m in report.mismatches)
    keys = {key for key, _ in report.tilting}
    # the four pinned correspondences hold
    assert tuple(sorted([p1, p2, s3])) in keys       # A itself
    assert () in keys                                # the zero module
    assert tuple(sorted([p1, p2, s1])) in keys
    assert (s3,) in keys
    assert report.phi[tuple(sorted([p1, p2, s3]))] == tuple(sorted([p1, p2, s3, s1]))
    assert report.phi[()] == ()
    assert report.phi[tuple(sorted([p1, p2, s1]))] == tuple(sorted([p1, p2, s1]))
    assert report.phi[(s3,)] == (s3,)
    # every module except the witness round-trips
    for key, _ in report.tilting:
        if key == witness_key:
            continue
        assert report.psi[report.phi[key]] == key
    # every torsion pair round-trips through its generator
    for p in report.pairs:
        assert report.phi[report.psi[p.T.key()]] == p.T.key()


def test_s3_s1_is_not_tau2_rigid_over_a(L3idx, L3):
    # 0 -> S3 -> P2 -> P1 -> S1 -> 0 gives tau_2 S1 = tau(Omega S1) = tau S2 = S3
    S3, S1 = mods(L3idx, (0, 0, 1), (1, 0, 0))
    assert mc.tau_d(S1, 2).dim_vector() == (0, 0, 1)
    T = mc.direct_sum(L3, [S3, S1]).module
    res = tt.is_support_tau2_tilting(T, L3idx)
    assert isinstance(res, tt.NotSupportTau2)
    assert "rigid over A" in res.reason
    assert isinstance(tt.is_support_tau2_tilting(T, L3idx, definition="quotient"),
                      tt.SupportTau2Cert)


def test_sincere_unfaithful_generator_on_a5_rad2():
    # the Ext^2-projective generator S1+P1+P2+P4+S5 of a 2-ff torsion pair over
    # A5/rad^2 is sincere but not faithful (the arrow 3 -> 4 kills it), so
    # A -> T0 is a left add-T approximation that is not injective
    A = nakayama_rad2(5)
    idx = arknit.knit_indecomposables(A)
    vecs = by_vec(idx)
    dims = [(1, 0, 0, 0, 0), (1, 1, 0, 0, 0), (0, 1, 1, 0, 0), (0, 0, 0, 1, 1), (0, 0, 0, 0, 1)]
    T = mc.direct_sum(A, [idx.modules[vecs[dv]] for dv in dims]).module
    res = tt.is_support_tau2_tilting(T, idx)
    assert isinstance(res, tt.SupportTau2Cert)
    assert res.support_complement == frozenset()
    # the module-level construction shows the first map and agrees term by term
    seq = tt.add_coresolution(mc.regular_module(A).module, [idx.modules[i] for i in res.members],
                              2, mono_start=False)
    assert not seq.maps[0].is_mono()
    assert seq.is_exact(mono_start=False)
    assert [idx.summand_indices(M) for M in seq.modules[1:]] == res.coresolution
    quotient = tt.is_support_tau2_tilting(T, idx, definition="quotient")
    assert isinstance(quotient, tt.NotSupportTau2)
    assert "coresolution" in quotient.reason


def test_unknown_definition_is_rejected(L3idx, L3):
    reg = mc.regular_module(L3).module
    with pytest.raises(ValueError):
        tt.is_support_tau2_tilting(reg, L3idx, definition="faithful")


@pytest.mark.parametrize("definition", tt.DEFINITIONS)
def test_member_list_matches_direct_sum(L3idx, L3, Cstar, definition):
    # census indices are checked as given, with the same verdict as their sum
    members = Cstar.member_list()
    for r in range(len(members) + 1):
        for S in itertools.combinations(members, r):
            summands = [L3idx.modules[i] for i in S]
            as_sum = mc.direct_sum(L3, summands).module if S else mc.zero_module(L3)
            listed = tt.is_support_tau2_tilting(S, L3idx, definition)
            summed = tt.is_support_tau2_tilting(as_sum, L3idx, definition)
            assert type(listed) is type(summed), S
            if isinstance(summed, tt.SupportTau2Cert):
                assert listed == summed
            else:
                assert listed.reason == summed.reason


def test_verify_theorem1_does_not_decompose(L3idx, L3, Cstar, monkeypatch):
    def refuse(M, seed=0):
        raise AssertionError("decompose called on the verify path")

    monkeypatch.setattr(mc, "decompose", refuse)
    report = tt.verify_theorem1(L3, Cstar)
    assert report.ok and report.counts() == (7, 7)


def test_verify_theorem1_semisimple(SS3):
    idx = arknit.knit_indecomposables(SS3)
    C = hc.Subcat.of(idx, range(3))
    report = tt.verify_theorem1(SS3, C)
    assert report.ok
    assert report.counts() == (8, 8)


def test_verify_theorem1_zero_algebra(L3):
    Z = quotient_by_idempotent(L3, set(L3.vertices))
    idx = arknit.knit_indecomposables(Z)
    C = hc.Subcat.of(idx, [])
    report = tt.verify_theorem1(Z, C)
    assert report.ok
    assert report.counts() == (1, 1)


def test_verify_theorem1_budget(L3idx, L3, Cstar):
    with pytest.raises(tn.TooLargeError):
        tt.verify_theorem1(L3, Cstar, max_members=2)


def test_proj_dim_hom_da_equivalence_other_fixtures(SS3, A2):
    # proj.dim M <= 2 iff Hom(DA, tau2 M) = 0, over the remaining fixtures
    for A in (SS3, A2):
        idx = arknit.knit_indecomposables(A)
        coreg = mc.injective_cogenerator(A).module
        for M in idx.modules:
            pd = mc.proj_dim(M)
            lhs = pd is not None and pd <= 2
            rhs = mc.hom_dim(coreg, mc.tau_d(M, 2)) == 0
            assert lhs == rhs


# -- the census-table decision against the module-level constructions ------------------

CYCLE2_RAD3 = """\
field 3
vertices 1 2
arrow a: 1 -> 2
arrow b: 2 -> 1
relation a*b*a
relation b*a*b
"""

TRUNCATED_X3 = "field 3\nvertices 1\narrow x: 1 -> 1\nrelation x*x*x\n"


def _support_complement(idx, S):
    return frozenset(v for v in idx.algebra.vertices
                     if all(idx.modules[i].dims[v] == 0 for i in S))


def _oracle_terms(idx, S, mono_start):
    """The module-level add-T coresolution of A/<e>, run over A/<e>, as census indices."""
    A = idx.algebra
    e = _support_complement(idx, S)
    Aq = quotient_by_idempotent(A, e) if e else A
    summands = [mc.restrict_module(idx.modules[i], Aq) for i in S]
    seq = tt.add_coresolution(mc.regular_module(Aq).module, summands, 2, mono_start=mono_start)
    if seq is None:
        return None
    return [idx.summand_indices(mc.induce_module(M, A)) for M in seq.modules[1:]]


def _table_terms(idx, S, mono_start):
    source = idx.quotient_projectives(_support_complement(idx, S))
    return tt._coresolution(idx, source, S, 2, mono_start)


def _case(name):
    """(census, the member tuples to check) for each oracle case."""
    if name == "A3":
        idx = arknit.knit_indecomposables(nakayama_rad2(3))
        members = _nakayama_rad2_ct(idx, 3).member_list()
    elif name.startswith("A5rad2"):
        idx = arknit.knit_indecomposables(nakayama_rad2(5, int(name.split("-")[1])))
        members = _nakayama_rad2_ct(idx, 5).member_list()
    else:  # End(P_v) has a radical here, so the j = i term of the top matters
        idx = arknit.knit_indecomposables(parse_algebra(CYCLE2_RAD3 if name == "cycle2rad3"
                                                        else TRUNCATED_X3))
        members = list(range(len(idx.modules)))
    subsets = [S for r in range(len(members) + 1) for S in itertools.combinations(members, r)]
    return idx, subsets


@pytest.mark.parametrize("mono_start", [True, False])
@pytest.mark.parametrize("name", ["A3", "A5rad2-2", "A5rad2-101", "cycle2rad3", "x3"])
def test_table_coresolution_matches_module_oracle(name, mono_start):
    idx, subsets = _case(name)
    accepted = 0
    for S in subsets:
        expected = _oracle_terms(idx, S, mono_start)
        assert _table_terms(idx, S, mono_start) == expected, S
        accepted += expected is not None
    assert accepted


def test_table_coresolution_matches_oracle_on_a7_rigid_cliques():
    idx = arknit.knit_indecomposables(nakayama_rad2(7))
    members = _nakayama_rad2_ct(idx, 7).member_list()
    tau2 = {j: mc.tau_d(idx.modules[j], 2) for j in members}
    clash = {(i, j) for i in members for j in members if mc.hom_dim(idx.modules[i], tau2[j])}
    rigid = [S for r in range(len(members) + 1) for S in itertools.combinations(members, r)
             if not any((i, j) in clash for i in S for j in S)]
    assert len(rigid) == 352
    for S in rigid:
        assert _table_terms(idx, S, False) == _oracle_terms(idx, S, False), S


@pytest.mark.parametrize("p", [2, 101])
def test_table_coresolution_matches_oracle_on_auslander_a3_rigid_cliques(p):
    idx = arknit.knit_indecomposables(auslander_linear(3, p))
    members = auslander_ct(idx).member_list()
    tau2 = {j: mc.tau_d(idx.modules[j], 2) for j in members}
    clash = {(i, j) for i in members for j in members if mc.hom_dim(idx.modules[i], tau2[j])}
    rigid = [S for r in range(len(members) + 1) for S in itertools.combinations(members, r)
             if not any((i, j) in clash for i in S for j in S)]
    assert len(rigid) == 232
    for S in rigid:
        assert _table_terms(idx, S, False) == _oracle_terms(idx, S, False), S


@pytest.mark.parametrize("mono_start", [True, False])
@pytest.mark.parametrize("name", ["A3", "A5rad2-2", "A5rad2-101", "cycle2rad3", "x3"])
def test_coresolution_memo_matches_a_fresh_census(name, mono_start):
    # each projective's terms are kept under (p, R(p), maxlen, mono_start); a key that
    # missed a member of R(p) would hand one candidate another's stale terms
    warm, subsets = _case(name)
    fresh, _ = _case(name)
    for S in reversed(subsets):
        _table_terms(warm, S, mono_start)
    entries = len(warm._coresolutions)
    for S in subsets:
        fresh._coresolutions.clear()
        assert _table_terms(warm, S, mono_start) == _table_terms(fresh, S, mono_start), S
    assert len(warm._coresolutions) == entries  # the warm census answered every S from its memo


@pytest.mark.parametrize("definition", tt.DEFINITIONS)
def test_coresolution_checks_its_composites(monkeypatch, definition):
    # a kernel vector that does not kill the map before makes some G o F nonzero
    A = nakayama_rad2(5)
    idx = arknit.knit_indecomposables(A)
    C = _nakayama_rad2_ct(idx, 5)
    kernel_basis = tt.kernel_basis
    monkeypatch.setattr(tt, "kernel_basis",
                        lambda m: [(1,) * m.cols] if m.rows and m.cols else kernel_basis(m))
    with pytest.raises(AssertionError, match="coresolution failed its own exactness check"):
        tt.support_tau2_tilting_modules(A, C, definition=definition)


@pytest.mark.parametrize("p", [2, 101])
def test_tau2_rows_match_module_rigidity_on_a5(p):
    A = nakayama_rad2(5, p)
    idx = arknit.knit_indecomposables(A)
    members = _nakayama_rad2_ct(idx, 5).member_list()
    for r in range(1, len(members) + 1):
        for S in itertools.combinations(members, r):
            T = mc.direct_sum(A, [idx.modules[i] for i in S]).module
            e = _support_complement(idx, S)
            Tq = mc.restrict_module(T, quotient_by_idempotent(A, e)) if e else T
            mask = sum(1 << i for i in S)
            for module, kill in ((T, frozenset()), (Tq, e)):
                rows_rigid = not any(idx.tau2_row(kill, j)[1] & mask for j in S)
                assert rows_rigid == (mc.hom_dim(module, mc.tau_d(module, 2)) == 0), (S, kill)


def _trace_fac_cap_C(T, C):
    """fac_cap_C as it was: X in Fac T exactly when the trace of T in X is X."""
    return {i for i in C.members if mc.trace_from(T, C.host.modules[i])[0].dims == C.host.modules[i].dims}


def test_fac_cap_c_matches_trace_on_a5():
    A = nakayama_rad2(5)
    idx = arknit.knit_indecomposables(A)
    C = _nakayama_rad2_ct(idx, 5)
    for r in range(len(C.members) + 1):
        for S in itertools.combinations(C.member_list(), r):
            T = mc.direct_sum(A, [idx.modules[i] for i in S]).module if S else mc.zero_module(A)
            assert tt.fac_cap_C(S, C).members == _trace_fac_cap_C(T, C), S
            assert tt.fac_cap_C(T, C).members == _trace_fac_cap_C(T, C), S


def test_verify_theorem1_builds_no_module_per_candidate(monkeypatch):
    A = nakayama_rad2(5)
    idx = arknit.knit_indecomposables(A)
    C = _nakayama_rad2_ct(idx, 5)
    inside, seen = [], []

    def only_for_tau2_rows(fn):
        # the tau_2 rows restrict X_j to A/<e>, and the transpose in tau_d takes a cokernel
        def wrapped(*args, **kwargs):
            if not inside:
                raise AssertionError(f"{fn.__name__} reached outside the tau_2 rows")
            return fn(*args, **kwargs)
        return wrapped

    def refuse(*args, **kwargs):
        raise AssertionError("module-level construction on the verify path")

    tau2_row, tau_d = arknit.IndecIndex.tau2_row, mc.tau_d

    def in_tau2_row(self, e, j):
        inside.append(True)
        try:
            return tau2_row(self, e, j)
        finally:
            inside.pop()

    def counted(M, d):
        seen.append((M.algebra.vertices, json.dumps(M.to_json(), sort_keys=True)))
        return tau_d(M, d)

    monkeypatch.setattr(arknit.IndecIndex, "tau2_row", in_tau2_row)
    monkeypatch.setattr(mc, "tau_d", counted)
    for name in ("cokernel", "restrict_module"):
        monkeypatch.setattr(mc, name, only_for_tau2_rows(getattr(mc, name)))
    for owner, name in ((mc, "decompose"), (hc, "left_min_approximation"),
                        (tt, "add_coresolution")):
        monkeypatch.setattr(owner, name, refuse)
    assert tt.verify_theorem1(A, C).counts() == (24, 24)
    assert tt.verify_theorem1(A, C, definition="quotient").counts() == (31, 24)
    # at most once per (support complement, member); the module-level scan made 128 calls
    assert len(seen) == len(set(seen)) < 128


@pytest.mark.parametrize("definition, tau_d_calls, coresolutions", [("quotient", 39, 77),
                                                                     ("ambient", 38, 64)])
def test_verify_theorem1_does_less_work_per_candidate(monkeypatch, definition, tau_d_calls,
                                                      coresolutions):
    # tau_2 X_j is computed once per piece of the quiver of A/<e> that holds X_j, not once
    # per e (74 and 56 tau_d calls), and a member of X passes 2-finiteness with no precompose
    A = nakayama_rad2(5)
    idx = arknit.knit_indecomposables(A)
    C = _nakayama_rad2_ct(idx, 5)
    calls, current = Counter(), []

    def counted(owner, name):
        inner = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    is_2_finite, precompose = tn.is_2_finite, arknit.IndecIndex.precompose

    def finite(X, *args):
        current.append(X.members)
        try:
            return is_2_finite(X, *args)
        finally:
            current.pop()

    def watched(self, F, src, mid, k, op=False):
        if current:
            calls["precompose in is_2_finite"] += 1
            # into k in X only for the kernel of Hom(k, X1) -> Hom(k, M), with src = [M]
            calls["precompose for a member of X"] += k in current[-1] and src[0] in current[-1]
        return precompose(self, F, src, mid, k, op)

    counted(mc, "tau_d")
    counted(tt, "_coresolution")
    monkeypatch.setattr(tn, "is_2_finite", finite)
    monkeypatch.setattr(arknit.IndecIndex, "precompose", watched)
    assert tt.verify_theorem1(A, C, definition=definition).counts()[1] == 24
    assert calls["tau_d"] == tau_d_calls and calls["_coresolution"] == coresolutions
    assert calls["precompose in is_2_finite"] and not calls["precompose for a member of X"]


@pytest.mark.parametrize("definition, runs, counts", [("quotient", 56, (31, 24)),
                                                      ("ambient", 56, (24, 24))])
def test_verify_theorem1_coresolves_each_projective_once_per_reach(monkeypatch, definition, runs,
                                                                   counts):
    # 202 and 181 projectives are looked up across the candidates; only 56 distinct
    # (p, R(p)) are run, and every other lookup is served from the census
    A = nakayama_rad2(5)
    idx = arknit.knit_indecomposables(A)
    C = _nakayama_rad2_ct(idx, 5)
    coresolve, computed = tt._coresolve, []

    def counted(*args):
        computed.append(args[1:3])
        return coresolve(*args)

    monkeypatch.setattr(tt, "_coresolve", counted)
    assert tt.verify_theorem1(A, C, definition=definition).counts() == counts
    assert len(computed) == len(set(computed)) == runs


def test_verify_theorem1_runs_each_member_outside_x_once_per_key(monkeypatch):
    # the 128 finiteness checks look up 475 members M outside X; only 38 distinct
    # (C, side, M, N1, X & N(N1)) are run, and every other lookup is served from the census
    A = nakayama_rad2(5)
    idx = arknit.knit_indecomposables(A)
    C = _nakayama_rad2_ct(idx, 5)
    is_2_finite, outside_member, lookups, runs = tn.is_2_finite, tn._outside_member, [], []

    def finite(X, *args):
        ok, certs = is_2_finite(X, *args)
        lookups.extend(M for M in certs if M not in X.members)
        return ok, certs

    def counted(idx, cs, *key):
        runs.append(key)
        return outside_member(idx, cs, *key)

    monkeypatch.setattr(tn, "is_2_finite", finite)
    monkeypatch.setattr(tn, "_outside_member", counted)
    assert tt.verify_theorem1(A, C).counts() == (24, 24)
    assert len(lookups) == 475
    assert len(runs) == len(set(runs)) == 38


def _reach_by_hom_dim(idx, p, members):
    """R(p) by a depth-first walk over single hom_dim reads."""
    reached, todo = set(), [p]
    while todo:
        s = todo.pop()
        new = [i for i in members if i not in reached and idx.hom_dim(s, i)]
        reached.update(new)
        todo += new
    return tuple(sorted(reached))


@pytest.mark.parametrize("name", ["A5rad2-101", "x3"])
def test_reach_matches_the_hom_chains(name):
    idx, subsets = _case(name)
    for S in subsets:
        for p in range(len(idx.modules)):
            assert tt._reach(idx, p, S) == _reach_by_hom_dim(idx, p, S), (p, S)


def test_verify_theorem1_reads_census_hom_off_the_census(monkeypatch):
    A = nakayama_rad2(5)
    idx = arknit.knit_indecomposables(A)
    C = _nakayama_rad2_ct(idx, 5)
    members, hom_basis, pairs = {id(X) for X in idx.modules}, mc.hom_basis, []

    def recorded(M, N):
        pairs.append((id(M) in members, id(N) in members))
        return hom_basis(M, N)

    monkeypatch.setattr(mc, "hom_basis", recorded)
    assert tt.verify_theorem1(A, C).counts() == (24, 24)
    assert tt.verify_theorem1(A, C, definition="quotient").counts() == (31, 24)
    # module-level Hom still runs on modules outside the census, never between two members
    assert pairs and (True, True) not in pairs


@pytest.fixture(scope="module", params=[2, 101])
def auslander3(request):
    A = auslander_linear(3, request.param)
    idx = arknit.knit_indecomposables(A)
    return A, auslander_ct(idx)


@pytest.mark.parametrize("definition, counts, ok", [("ambient", (40, 40), True),
                                                    ("quotient", (59, 40), False)])
def test_verify_theorem1_on_auslander_algebra_of_a3(auslander3, definition, counts, ok):
    A, C = auslander3
    report = tt.verify_theorem1(A, C, definition=definition)
    assert report.counts() == counts and report.ok is ok


def _rigid_cliques_with_support_rank(idx, C):
    """The S in C with Hom(X_i, tau_2 X_j) = 0 over A for i, j in S and |S| = |supp S|."""
    tau2 = {j: mc.tau_d(idx.modules[j], 2) for j in C.members}
    out = []
    for r in range(len(C.members) + 1):
        for S in itertools.combinations(C.member_list(), r):
            support = len(idx.algebra.vertices) - len(_support_complement(idx, S))
            if len(S) == support and not any(mc.hom_dim(idx.modules[i], tau2[j])
                                              for i in S for j in S):
                out.append(S)
    return out


@pytest.mark.parametrize("family", ["A3rad2", "A5rad2", "auslander3"])
def test_ambient_modules_are_the_rigid_cliques_of_full_support_rank(family):
    # a cross-check recorded as a test, not a rule: the coresolution stays the decision
    if family == "auslander3":
        A = auslander_linear(3)
        idx = arknit.knit_indecomposables(A)
        C = auslander_ct(idx)
    else:
        n = int(family[1])
        A = nakayama_rad2(n)
        idx = arknit.knit_indecomposables(A)
        C = _nakayama_rad2_ct(idx, n)
    keys = [key for key, _ in tt.support_tau2_tilting_modules(A, C)]
    assert keys == sorted(_rigid_cliques_with_support_rank(idx, C))


# -- the support complement off the census support bitmasks, against the old scan ----


def _old_is_support_tau2_tilting(S, idx, definition):
    """The scan as it read before the support bitmasks: e per vertex, before any rigidity."""
    ambient = definition == "ambient"
    e = _support_complement(idx, S)
    mask = sum(1 << i for i in S)

    def rigid(kill):
        return not any(idx.tau2_row(kill, j)[1] & mask for j in S)

    if ambient and not rigid(frozenset()):
        return tt.NotSupportTau2("not tau2-rigid over A: Hom_A(T, tau2 T) nonzero")
    if (e or not ambient) and not rigid(e):
        return tt.NotSupportTau2("Hom(T, tau2 T) nonzero over the support quotient")
    source = idx.quotient_projectives(e)
    terms = tt._coresolution(idx, source, S, 2, mono_start=not ambient)
    if terms is None:
        start = "A/<e>" if ambient else "0 -> A/<e>"
        return tt.NotSupportTau2(f"no add-T coresolution {start} -> T0 -> T1 -> T2 -> 0")
    return tt.SupportTau2Cert(S, e, source, terms)


@pytest.mark.parametrize("definition", tt.DEFINITIONS)
@pytest.mark.parametrize("family", ["A3rad2", "A5rad2", "A7rad2", "A9rad2", "auslander3"])
def test_support_bitmasks_give_the_old_scan(family, definition):
    if family == "auslander3":
        A = auslander_linear(3)
        idx = arknit.knit_indecomposables(A)
        C = auslander_ct(idx)
    else:
        n = int(family[1])
        A = nakayama_rad2(n)
        idx = arknit.knit_indecomposables(A)
        C = _nakayama_rad2_ct(idx, n)
    subsets = [S for r in range(len(C.members) + 1) for S in itertools.combinations(C.member_list(), r)]
    for S in subsets:
        assert tt._support_complement(idx, sum(1 << i for i in S)) == _support_complement(idx, S), S
    old = sorted(((S, res) for S in subsets for res in [_old_is_support_tau2_tilting(S, idx, definition)]
                  if isinstance(res, tt.SupportTau2Cert)), key=lambda t: t[0])
    assert old and tt.support_tau2_tilting_modules(A, C, definition=definition) == old
