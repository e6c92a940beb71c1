"""Acceptance criteria, one test per criterion, printed pass/fail lines.

Run with `pytest tests/test_acceptance.py -v -s`.  Criterion 3 asserts the
full correspondence on Lambda3/C* and on the semisimple fixture, under the
library's default "ambient" reading of support tau_2-tilting: 7 modules
against 7 pairs on Lambda3/C*.  The "quotient" reading, which checks
tau_2-rigidity only over the quotient at the support, also accepts S3+S1 and
gives 8 against 7; that reading is pinned in tests/test_tautilt.py.
"""

import itertools
import json
import time

import pytest

from taukit import arknit, highercat as hc, modcat as mc, tautilt as tt, torsion as tn
from taukit.algebra import NotAdmissibleError, parse_algebra, quotient_by_idempotent
from taukit.cli import main as cli_main
from tests.conftest import KRONECKER_TEXT, LAMBDA3_TEXT, LOOP_TEXT, lambda3, ss3

LAMBDA3_DIMVECS = {(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1)}


@pytest.fixture(scope="module")
def L101():
    return lambda3(p=101)


@pytest.fixture(scope="module")
def idx101(L101):
    return arknit.knit_indecomposables(L101)


@pytest.fixture(scope="module")
def cstar101(idx101):
    vecs = {m.dim_vector(): i for i, m in enumerate(idx101.modules)}
    return hc.Subcat.of(idx101, [vecs[(1, 1, 0)], vecs[(0, 1, 1)], vecs[(0, 0, 1)], vecs[(1, 0, 0)]])


def _vecs(idx):
    return {m.dim_vector(): i for i, m in enumerate(idx.modules)}


def _report(num, desc):
    print(f"CRITERION {num}: PASS - {desc}")


def _core_sequence(idx, C):
    """0 -> S3 -> P2 -> P1 -> S1 -> 0 over the index's algebra."""
    vecs = _vecs(idx)
    S3 = idx.modules[vecs[(0, 0, 1)]]
    P2 = idx.modules[vecs[(0, 1, 1)]]
    P1 = idx.modules[vecs[(1, 1, 0)]]
    S1 = idx.modules[vecs[(1, 0, 0)]]
    (g,) = mc.hom_basis(P2, P1)
    parts = mc.map_parts(g)
    start = parts.kernel_inclusion.compose(mc.iso_between_indecomposables(parts.kernel, S3))
    cover = mc.projective_cover(S1)
    end = cover.compose(mc.iso_between_indecomposables(P1, cover.source))
    seq = hc.ExactSeq([S3, P2, P1, S1], [start, g, end])
    assert seq.is_exact()
    return seq


def _thin_submodules(M):
    """All submodules of a module with dims <= 1 per vertex, including 0 and M."""
    A = M.algebra
    support = [v for v in A.vertices if M.dims[v] == 1]
    assert all(M.dims[v] <= 1 for v in A.vertices)
    subs = []
    for keep in itertools.product([0, 1], repeat=len(support)):
        chosen = {v for v, k in zip(support, keep) if k}
        stable = True
        for a in A.arrows:
            if a.source in chosen and not M.action[a.name].is_zero() and a.target not in chosen:
                stable = False
                break
        if not stable:
            continue
        dims = {v: 1 for v in chosen}
        action = {}
        for a in A.arrows:
            if a.source in chosen and a.target in chosen:
                action[a.name] = M.action[a.name]
        subs.append(mc.Module(A, dims, action))
    return subs


def test_criterion_1_indecomposable_census():
    start = time.monotonic()
    A2f = lambda3(p=2)
    idx2 = arknit.knit_indecomposables(A2f)
    assert len(idx2.modules) == 5
    assert {m.dim_vector() for m in idx2.modules} == LAMBDA3_DIMVECS
    brute = arknit.brute_force_indecomposables(A2f, {v: 1 for v in A2f.vertices})
    assert len(brute) == 5
    for m in brute:
        assert idx2.find_iso(m) is not None
    idx101_local = arknit.knit_indecomposables(lambda3(p=101))
    assert {m.dim_vector() for m in idx101_local.modules} == LAMBDA3_DIMVECS
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"census took {elapsed:.2f}s"
    _report(1, f"5 indecomposables, knitting = brute force, {elapsed:.2f}s")


def test_criterion_2_two_ct_recognition(idx101, cstar101):
    start = time.monotonic()
    assert hc.is_d_cluster_tilting(cstar101, 2).ok
    for drop in cstar101.member_list():
        smaller = hc.Subcat.of(idx101, cstar101.members - {drop})
        assert not hc.is_d_cluster_tilting(smaller, 2).ok
    whole = hc.Subcat.of(idx101, range(len(idx101.modules)))
    rep = hc.is_d_cluster_tilting(whole, 2)
    assert not rep.ok
    vecs = _vecs(idx101)
    assert any(v[:3] == (1, vecs[(1, 0, 0)], vecs[(0, 1, 0)]) for v in rep.violations)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"recognition took {elapsed:.2f}s"
    _report(2, f"C* recognized, every proper subset rejected, witness found, {elapsed:.2f}s")


def test_criterion_3_theorem1_bijection(L101, idx101, cstar101):
    start = time.monotonic()
    ss = ss3(p=101)
    ss_idx = arknit.knit_indecomposables(ss)
    ss_C = hc.Subcat.of(ss_idx, range(3))
    ss_report = tt.verify_theorem1(ss, ss_C)
    assert ss_report.ok and ss_report.counts() == (8, 8)

    report = tt.verify_theorem1(L101, cstar101)
    vecs = _vecs(idx101)
    p1, p2, s3, s1 = vecs[(1, 1, 0)], vecs[(0, 1, 1)], vecs[(0, 0, 1)], vecs[(1, 0, 0)]
    keys = {key for key, _ in report.tilting}
    assert tuple(sorted([p1, p2, s3])) in keys and report.phi[tuple(sorted([p1, p2, s3]))] \
        == tuple(sorted([p1, p2, s3, s1]))
    assert () in keys and report.phi[()] == ()
    assert tuple(sorted([p1, p2, s1])) in keys and report.phi[tuple(sorted([p1, p2, s1]))] \
        == tuple(sorted([p1, p2, s1]))
    assert (s3,) in keys and report.phi[(s3,)] == (s3,)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"verification took {elapsed:.2f}s"
    n_mod, n_pair = report.counts()
    assert report.ok and n_mod == n_pair, (
        f"correspondence falsified on Lambda3/C*: {n_mod} support tau2-tilting modules vs "
        f"{n_pair} 2-ff torsion pairs; witness S3+S1, whose Fac-class complement add(P1) "
        f"is not 2-contravariantly finite")
    _report(3, f"bijection verified on both fixtures, {elapsed:.2f}s")


def test_criterion_4_auslander_smalo(L101, idx101):
    violations = []
    for X in idx101.modules:
        subs = _thin_submodules(X)
        for Y in idx101.modules:
            t2inv = mc.tau_d_inv(Y, 2)
            lhs = mc.hom_dim(t2inv, X) == 0
            rhs = all(mc.ext_dim(2, N, Y) == 0 for N in subs)
            if lhs != rhs:
                violations.append((X.dim_vector(), Y.dim_vector(), lhs, rhs))
    assert not violations, violations
    _report(4, "Hom(tau2inv Y, X) = 0 iff Ext^2(Sub X, Y) = 0 on all 25 pairs")


def test_criterion_5_duality_theorem():
    for p in (2, 101):
        A = lambda3(p=p)
        idx = arknit.knit_indecomposables(A)
        reg = mc.regular_module(A).module
        coreg = mc.injective_cogenerator(A).module
        for M in idx.modules:
            if mc.ext_dim(1, M, reg) != 0:
                continue
            t2 = mc.tau_d(M, 2)
            for N in idx.modules:
                assert mc.stable_hom_dim(M, N) == mc.ext_dim(2, N, t2), \
                    (p, M.dim_vector(), N.dim_vector())
        for N in idx.modules:
            if mc.ext_dim(1, coreg, N) != 0:
                continue
            t2i = mc.tau_d_inv(N, 2)
            for M in idx.modules:
                assert mc.costable_hom_dim(M, N) == mc.ext_dim(2, t2i, M), \
                    (p, M.dim_vector(), N.dim_vector())
    _report(5, "stable-Hom/Ext^2 duality holds at p = 2 and p = 101")


def test_criterion_6_c_resolutions(idx101, cstar101):
    vecs = _vecs(idx101)
    for M in idx101.modules:
        for side in ("right", "left"):
            seq = hc.c_resolution(cstar101, M, side, 2)
            assert len(seq.modules) <= 4  # length at most 1 plus the module itself
            assert hc.hom_exactness_probe(seq, cstar101.modules(), side)
    S2 = idx101.modules[vecs[(0, 1, 0)]]
    right = hc.c_resolution(cstar101, S2, "right", 2)
    assert [m.dim_vector() for m in right.modules] == [(0, 0, 1), (0, 1, 1), (0, 1, 0)]
    left = hc.c_resolution(cstar101, S2, "left", 2)
    assert [m.dim_vector() for m in left.modules] == [(0, 1, 0), (1, 1, 0), (1, 0, 0)]
    _report(6, "all C*-resolutions exist, probe-exact, S2's are the pinned ones")


def _resolution_splices(idx, C):
    """2-exact sequences spliced from the fixture C*-resolutions.

    The only non-member indecomposable is S2, and splicing its right and
    left resolutions gives 0 -> S3 -> P2 -> P1 -> S1 -> 0; unit rescalings
    of its maps are the other resolution-derived representatives.
    """
    core = _core_sequence(idx, C)
    scaled = hc.ExactSeq(list(core.modules),
                         [core.maps[0].scale(3), core.maps[1].scale(7), core.maps[2]])
    assert scaled.is_exact()
    return [core, scaled]


def _two_exact_family(idx, C):
    """Resolution splices plus split-padded variants (for the lift checks)."""
    family = list(_resolution_splices(idx, C))
    core = family[0]
    A = idx.algebra
    for i in C.member_list():
        T = idx.modules[i]
        dsM = mc.direct_sum(A, [core.modules[1], T])
        dsN = mc.direct_sum(A, [core.modules[2], T])
        mid = mc.block_map(dsM, dsN, {(0, 0): core.maps[1], (1, 1): mc.ModMap.identity(T)})
        padded = hc.ExactSeq(
            [core.modules[0], dsM.module, dsN.module, core.modules[3]],
            [dsM.inclusions[0].compose(core.maps[0]), mid,
             core.maps[2].compose(dsN.projections[0])])
        assert padded.is_exact()
        family.append(padded)
    return family


def test_criterion_7_gluing(idx101, cstar101):
    family = _resolution_splices(idx101, cstar101)
    checked = 0
    for seqA in family:
        for seqB in family:
            if seqA.modules[-1] is not seqB.modules[-1]:
                continue
            diag = hc.glue_two_resolutions(cstar101, seqA, seqB)
            assert diag.no_common_summand
            assert diag.split_R and diag.split_S
            checked += 1
    assert checked == len(family) ** 2
    _report(7, f"gluing succeeded with disjoint P, Q on {checked} sequence pairs")


def _split_family(idx, C, T):
    """Split 2-exact sequences 0 -> A -> A+B -> B+C -> C -> 0 with ends in add T."""
    A = idx.algebra
    out = []
    for i in T.member_list():
        for j in T.member_list():
            for k in C.member_list():
                Am, Cm, Bm = idx.modules[i], idx.modules[j], idx.modules[k]
                ds1 = mc.direct_sum(A, [Am, Bm])
                ds2 = mc.direct_sum(A, [Bm, Cm])
                seq = hc.ExactSeq(
                    [Am, ds1.module, ds2.module, Cm],
                    [ds1.inclusions[0],
                     mc.block_map(ds1, ds2, {(0, 1): mc.ModMap.identity(Bm)}),
                     ds2.projections[1]])
                out.append(seq)
    return out


def test_criterion_8_torsion_characterizations(L101, idx101, cstar101):
    pairs = tn.enumerate_2ff_torsion_pairs(cstar101)
    for pair in pairs:
        pair.to_json(include_certs=True)  # raises SequenceFailedError unless T_M -> M -> F_M is exact at each M
    # torsion classes are closed under factors inside C
    for pair in pairs:
        Tmod = mc.direct_sum(L101, pair.T.modules()).module if pair.T.members \
            else mc.zero_module(L101)
        for mi in cstar101.member_list():
            X = idx101.modules[mi]
            tr, _ = mc.trace_from(Tmod, X)
            if tr.dims == X.dims:
                assert mi in pair.T.members
    # pushout lifts on all generated 2-exact sequences with ends in the class
    family = _two_exact_family(idx101, cstar101)
    for pair in pairs:
        candidates = family + _split_family(idx101, cstar101, pair.T)
        for seq in candidates:
            if not (pair.T.contains(seq.modules[0]) and pair.T.contains(seq.modules[-1])):
                continue
            out = tn.pushout_lift_check(pair.T, cstar101, seq)
            assert out.ok, (pair.key(), [m.dim_vector() for m in seq.modules])
    _report(8, f"canonical sequences and pushout lifts hold for all {len(pairs)} pairs")


def test_criterion_9_quotient_tilting(L101, idx101, cstar101):
    report = tt.verify_theorem1(L101, cstar101)
    faithful = 0
    for key, cert in report.tilting:
        if cert.support_complement:
            continue
        T = mc.direct_sum(L101, [idx101.modules[i] for i in key]).module
        if not mc.annihilator_is_zero(T):
            continue
        ok, _ = tt.is_2_tilting(T, L101)
        assert ok, key
        faithful += 1
    assert faithful >= 2  # A itself and P1+P2+S1
    reg = mc.regular_module(L101).module
    coreg = mc.injective_cogenerator(L101).module
    for M in idx101.modules:
        pd = mc.proj_dim(M)
        lhs = pd is not None and pd <= 2
        rhs = mc.hom_dim(coreg, mc.tau_d(M, 2)) == 0
        assert lhs == rhs, M.dim_vector()
    # faithful-case lemma: faithful with Hom(T, tau2 T) = 0 implies proj.dim <= 2
    for key, _ in report.tilting:
        if not key:
            continue
        T = mc.direct_sum(L101, [idx101.modules[i] for i in key]).module
        if not mc.annihilator_is_zero(T):
            continue
        if mc.hom_dim(T, mc.tau_d(T, 2)) == 0:
            pd = mc.proj_dim(T)
            assert pd is not None and pd <= 2
    _report(9, f"{faithful} faithful tau2-tilting modules are 2-tilting; lemma (i) holds")


def test_criterion_10_robustness(L101):
    with pytest.raises(NotAdmissibleError):
        parse_algebra(LOOP_TEXT.format(p=5))
    kron = parse_algebra(KRONECKER_TEXT.format(p=2))
    with pytest.raises(arknit.LimitExceededError) as exc:
        arknit.knit_indecomposables(kron, max_count=16, max_dim=16)
    assert exc.value.partial
    Z = quotient_by_idempotent(L101, set(L101.vertices))
    z_idx = arknit.knit_indecomposables(Z)
    z_C = hc.Subcat.of(z_idx, [])
    z_report = tt.verify_theorem1(Z, z_C)
    assert z_report.ok and z_report.counts() == (1, 1)
    _report(10, "loop rejected, Kronecker limited gracefully, zero algebra is 1-to-1")


def test_criterion_11_determinism(tmp_path, capsys):
    spec = tmp_path / "fixture.alg"
    spec.write_text(LAMBDA3_TEXT.format(p=101))
    args = [str(spec), "verify", "theorem1", "--ct", "1-1-0,0-1-1,0-0-1,1-0-0"]
    code1 = cli_main(list(args))
    out1 = capsys.readouterr().out
    code2 = cli_main(list(args))
    out2 = capsys.readouterr().out
    assert code1 == code2
    assert out1 == out2
    json.loads(out1)
    _report(11, "repeated verification runs are byte-identical")
