import itertools
import random

import pytest

from taukit import arknit, highercat as hc, modcat as mc, tautilt as tt, torsion as tn
from taukit.algebra import parse_algebra
from taukit.exactlin import Mat, kernel_basis, rank
from tests.conftest import auslander_linear, lambda3, nakayama_rad2
from tests.test_arknit import _conjugated
from tests.test_highercat import A5R2_CT, _nakayama_rad2_ct, auslander_ct
from tests.test_tautilt import TRUNCATED_X3


@pytest.fixture(scope="module")
def L3idx(L3):
    return arknit.knit_indecomposables(L3)


def by_vec(idx):
    return {m.dim_vector(): i for i, m in enumerate(idx.modules)}


@pytest.fixture(scope="module")
def Cstar(L3idx):
    vecs = by_vec(L3idx)
    return hc.Subcat.of(L3idx, [vecs[(1, 1, 0)], vecs[(0, 1, 1)], vecs[(0, 0, 1)], vecs[(1, 0, 0)]])


def sub_of(idx, *dimvecs):
    vecs = by_vec(idx)
    return hc.Subcat.of(idx, [vecs[dv] for dv in dimvecs])


def test_right_full_approx_examples(L3idx, Cstar):
    vecs = by_vec(L3idx)
    S3 = L3idx.modules[vecs[(0, 0, 1)]]
    S2 = L3idx.modules[vecs[(0, 1, 0)]]
    X = sub_of(L3idx, (1, 1, 0), (0, 1, 1), (1, 0, 0))  # add(P1+P2+S1)
    f = hc.right_full_approximation(X.modules(), S3).map
    assert f.source.is_zero()
    X2 = sub_of(L3idx, (0, 1, 1))  # add(P2)
    g = hc.right_full_approximation(X2.modules(), S2).map
    assert g.source.dim_vector() == (0, 1, 1)
    assert g.is_epi()


def test_right_full_approx_of_member_splits(L3idx, Cstar):
    vecs = by_vec(L3idx)
    P2 = L3idx.modules[vecs[(0, 1, 1)]]
    f = hc.right_full_approximation(Cstar.modules(), P2).map
    assert f.is_epi()
    assert hc.is_right_approximation(f, Cstar.modules())


def test_is_2_finite_trivial_cases(L3idx, Cstar):
    ok, _ = tn.is_2_finite(Cstar, Cstar, "contra")
    assert ok
    empty = hc.Subcat.of(L3idx, [])
    ok, _ = tn.is_2_finite(empty, Cstar, "contra")
    assert ok
    ok, _ = tn.is_2_finite(empty, Cstar, "co")
    assert ok


def test_is_2_finite_fixture_class(L3idx, Cstar):
    X = sub_of(L3idx, (1, 1, 0), (0, 1, 1), (1, 0, 0))
    for side in ("contra", "co"):
        ok, certs = tn.is_2_finite(X, Cstar, side)
        assert ok
        assert set(certs) == set(Cstar.member_list())


def test_add_p2_not_2_contra_finite(L3idx, Cstar):
    # the kernel S3 of P2 -> P1 admits no X-approximation inside add(P2)
    X = sub_of(L3idx, (0, 1, 1))
    ok, _ = tn.is_2_finite(X, Cstar, "contra")
    assert not ok


def test_torsion_pair_axioms(L3idx, Cstar):
    T = sub_of(L3idx, (1, 1, 0), (0, 1, 1), (1, 0, 0))
    F = sub_of(L3idx, (0, 0, 1))
    ok, witness = tn.is_torsion_pair_2ff(T, F, Cstar)
    assert ok, witness
    # whole and zero
    empty = hc.Subcat.of(L3idx, [])
    assert tn.is_torsion_pair_2ff(Cstar, empty, Cstar)[0]
    assert tn.is_torsion_pair_2ff(empty, Cstar, Cstar)[0]


def test_non_maximal_pair_rejected(L3idx, Cstar):
    T = sub_of(L3idx, (1, 1, 0))  # add(P1) alone
    F = sub_of(L3idx, (0, 1, 1), (0, 0, 1))
    ok, witness = tn.is_torsion_pair_2ff(T, F, Cstar)
    assert not ok


def test_enumeration_lambda3(L3idx, Cstar):
    pairs = tn.enumerate_2ff_torsion_pairs(Cstar)
    vecs = by_vec(L3idx)
    p1, p2, s3, s1 = vecs[(1, 1, 0)], vecs[(0, 1, 1)], vecs[(0, 0, 1)], vecs[(1, 0, 0)]
    keys = {p.key() for p in pairs}
    # hand-derived list: Hom table on {P1,P2,S3,S1} has exactly the arrows
    # P2 -> P1, S3 -> P2, P1 -> S1, which forces these seven pairs
    expected = {
        (tuple(sorted([p1, p2, s3, s1])), ()),
        ((), tuple(sorted([p1, p2, s3, s1]))),
        (tuple(sorted([p1, p2, s1])), (s3,)),
        ((s3,), tuple(sorted([p1, s1]))),
        (tuple(sorted([p1, s1])), tuple(sorted([p2, s3]))),
        (tuple(sorted([p2, s3])), (s1,)),
        ((s1,), tuple(sorted([p1, p2, s3]))),
    }
    assert keys == expected
    assert len(pairs) == 7


def test_enumeration_counts_match_both_fields():
    for p in (2, 101):
        from tests.conftest import lambda3

        A = lambda3(p=p)
        idx = arknit.knit_indecomposables(A)
        vecs = by_vec(idx)
        C = hc.Subcat.of(idx, [vecs[(1, 1, 0)], vecs[(0, 1, 1)], vecs[(0, 0, 1)], vecs[(1, 0, 0)]])
        assert len(tn.enumerate_2ff_torsion_pairs(C)) == 7


def test_enumeration_semisimple(SS3):
    idx = arknit.knit_indecomposables(SS3)
    C = hc.Subcat.of(idx, range(3))
    pairs = tn.enumerate_2ff_torsion_pairs(C)
    assert len(pairs) == 8
    for p in pairs:
        assert p.T.members | p.F.members == C.members
        assert not (p.T.members & p.F.members)


def test_enumeration_zero_algebra(L3):
    from taukit.algebra import quotient_by_idempotent

    Z = quotient_by_idempotent(L3, set(L3.vertices))
    idx = arknit.knit_indecomposables(Z)
    C = hc.Subcat.of(idx, [])
    pairs = tn.enumerate_2ff_torsion_pairs(C)
    assert len(pairs) == 1
    assert pairs[0].T.members == frozenset() and pairs[0].F.members == frozenset()


def test_enumeration_budget(L3idx, Cstar):
    with pytest.raises(tn.TooLargeError):
        tn.enumerate_2ff_torsion_pairs(Cstar, max_members=2)


def _canonical_oracle(pair, M):
    """T_M -> M -> F_M built from the module-level full approximations by T and by F."""
    t_ap = hc.right_full_approximation(pair.T.modules(), M)
    f_ap = hc.left_full_approximation(M, pair.F.modules())
    return hc.ExactSeq([t_ap.source, M, f_ap.target], [t_ap.map, f_ap.map])


def test_canonical_sequences_all_pairs():
    for case in ("A3", "A3-2", "A5rad2-101"):
        C = _ct_case(case)
        for pair in tn.enumerate_2ff_torsion_pairs(C):
            sequences = pair.to_json(include_certs=True)["canonical_sequences"]
            assert list(sequences) == [str(mi) for mi in C.member_list()]
            for mi in C.member_list():
                seq = _canonical_oracle(pair, C.host.modules[mi])
                assert sequences[str(mi)] == [list(X.dim_vector()) for X in seq.modules], (case, mi)
                assert seq.is_exact(mono_start=False, epi_end=False)
                if mi in pair.T.members:
                    assert seq.maps[0].is_epi() and seq.modules[2].is_zero()  # T_M ->> M, and F_M = 0
                if mi in pair.F.members:
                    assert seq.modules[0].is_zero() and seq.maps[1].is_mono()  # T_M = 0, and M >-> F_M


def test_canonical_sequence_member_cases(L3idx, Cstar):
    vecs = by_vec(L3idx)
    pairs = tn.enumerate_2ff_torsion_pairs(Cstar)
    pair = next(p for p in pairs
                if p.T.members == frozenset({vecs[(1, 1, 0)], vecs[(0, 1, 1)], vecs[(1, 0, 0)]}))
    sequences = pair.to_json(include_certs=True)["canonical_sequences"]
    P2, S3 = vecs[(0, 1, 1)], vecs[(0, 0, 1)]
    assert sequences[str(P2)] == [[0, 1, 1], [0, 1, 1], [0, 0, 0]]
    assert _canonical_oracle(pair, L3idx.modules[P2]).maps[0].is_epi()  # T_M ->> M for M in the torsion class
    assert sequences[str(S3)] == [[0, 0, 0], [0, 0, 1], [0, 0, 1]]  # T_M = 0 for M in the torsion-free class
    assert _canonical_oracle(pair, L3idx.modules[S3]).maps[1].is_mono()


def test_canonical_sequence_rejects_a_certificate_with_t_m_zeroed(monkeypatch):
    C = _ct_case("A5rad2-101")
    is_2_finite, tampered = tn.is_2_finite, 0
    for pair in tn.enumerate_2ff_torsion_pairs(C):
        for mi, cert in is_2_finite(pair.T, C, "contra")[1].items():
            if not any(cert.x1):
                continue

            def zeroed(X, C_, side, pair=pair, mi=mi):
                ok, certs = is_2_finite(X, C_, side)
                if X is pair.T and side == "contra":
                    certs = {**certs, mi: tn.FinitenessCert(side, mi, [0] * len(certs[mi].x1), certs[mi].x2)}
                return ok, certs

            monkeypatch.setattr(tn, "is_2_finite", zeroed)
            with pytest.raises(tn.SequenceFailedError):
                pair.to_json(include_certs=True)
            monkeypatch.setattr(tn, "is_2_finite", is_2_finite)
            tampered += 1
    assert tampered == 92


@pytest.mark.parametrize("case", ["A5rad2-101", "kA3-101"])
def test_certificates_build_no_modules(case, monkeypatch):
    pairs = tn.enumerate_2ff_torsion_pairs(_ct_case(case))

    def refuse(*args, **kwargs):
        raise AssertionError("a module was built")

    for module, name in ((mc, "direct_sum"), (mc, "dual"),
                         (hc, "right_full_approximation"), (hc, "left_full_approximation")):
        monkeypatch.setattr(module, name, refuse)
    for pair in pairs:
        pair.to_json(include_certs=True)


@pytest.mark.parametrize("case, conjugated", [("A3", False), ("A5rad2-101", False), ("A3", True),
                                              ("A5rad2-101", True), ("x3", True)],
                         ids=["A3", "A5rad2-101", "A3-conjugated", "A5rad2-101-conjugated", "x3-conjugated"])
def test_hand_built_index_gives_the_knitted_verdicts_and_certificates(case, conjugated):
    # an index with no AR data reads each member's projective and injective flags off its presentations;
    # with each member conjugated at every vertex, its Hom basis changes (on x3 its solutions too, as its
    # members are not thin), and no verdict or certificate may change with it
    C = _ct_case(case)
    census, rng = C.host, random.Random(case)
    hand = arknit.IndecIndex(census.algebra, [_conjugated(X, rng) if conjugated else X for X in census.modules])
    H = hc.Subcat.of(hand, C.members)
    for definition in ("ambient", "quotient"):
        assert (tt.verify_theorem1(hand.algebra, H, definition=definition).to_json(hand)
                == tt.verify_theorem1(census.algebra, C, definition=definition).to_json(census)), definition
    assert ([p.to_json(include_certs=True) for p in tn.enumerate_2ff_torsion_pairs(H)]
            == [p.to_json(include_certs=True) for p in tn.enumerate_2ff_torsion_pairs(C)])


def test_pushout_lift_split_case(L3idx, Cstar):
    vecs = by_vec(L3idx)
    A = L3idx.algebra
    P1 = L3idx.modules[vecs[(1, 1, 0)]]
    P2 = L3idx.modules[vecs[(0, 1, 1)]]
    S1 = L3idx.modules[vecs[(1, 0, 0)]]
    T = sub_of(L3idx, (1, 1, 0), (0, 1, 1), (1, 0, 0))
    # 0 -> P2 -> P2+P1 -> P1+S1 -> S1 -> 0, a sum of split sequences
    ds_mid1 = mc.direct_sum(A, [P2, P1])
    ds_mid2 = mc.direct_sum(A, [P1, S1])
    cover = mc.projective_cover(S1)
    iso = mc.iso_between_indecomposables(P1, cover.source)
    p1_to_s1 = cover.compose(iso)
    f0 = ds_mid1.inclusions[0]
    f1 = mc.block_map(ds_mid1, ds_mid2, {(0, 1): mc.ModMap.identity(P1)})
    f2 = mc.map_from_sum(ds_mid2, [p1_to_s1.scale(0), mc.ModMap.identity(S1)])
    seq = hc.ExactSeq([P2, ds_mid1.module, ds_mid2.module, S1], [f0, f1, f2])
    assert seq.is_exact()
    out = tn.pushout_lift_check(T, Cstar, seq)
    assert out.ok
    assert out.row is seq  # all terms already in add T


def test_pushout_lift_whole_category(L3idx, Cstar):
    # T = C: every 2-exact sequence lifts to itself
    from tests.test_highercat import seq_P3_to_S1

    seq = seq_P3_to_S1(L3idx, Cstar)
    out = tn.pushout_lift_check(Cstar, Cstar, seq)
    assert out.ok


def test_pushout_lift_nontrivial(L3idx, Cstar):
    # T = add(P1+P2+S1), sequence 0 -> S3 -> P2 -> P1 -> S1 -> 0 has both ends
    # in add T?  S3 is not in T, so use ends P2 and S1 via a shifted sequence:
    # 0 -> P2 -> P2+P1 -> P1 -> S1 -> 0 does not exist; instead check the
    # guaranteed lift on a genuine torsion class with a non-member interior.
    vecs = by_vec(L3idx)
    T = sub_of(L3idx, (0, 1, 1), (0, 0, 1))  # add(P2+S3), a torsion class
    A = L3idx.algebra
    P2 = L3idx.modules[vecs[(0, 1, 1)]]
    S3 = L3idx.modules[vecs[(0, 0, 1)]]
    # sum of split sequences: 0 -> S3 -> S3+P2 -> P2+P2 -> P2 -> 0
    ds1 = mc.direct_sum(A, [S3, P2])
    ds2 = mc.direct_sum(A, [P2, P2])
    seq = hc.ExactSeq(
        [S3, ds1.module, ds2.module, P2],
        [ds1.inclusions[0],
         mc.block_map(ds1, ds2, {(0, 1): mc.ModMap.identity(P2)}),
         ds2.projections[1]],
    )
    assert seq.is_exact()
    out = tn.pushout_lift_check(T, Cstar, seq)
    assert out.ok


def test_equivalence_lemma_all_subsets(L3idx, Cstar):
    # 2-covariant finiteness agrees with 2-contravariant finiteness for every
    # (functorially finite) additive subcategory of C*
    import itertools

    members = Cstar.member_list()
    for r in range(len(members) + 1):
        for S in itertools.combinations(members, r):
            X = hc.Subcat.of(L3idx, S)
            contra, _ = tn.is_2_finite(X, Cstar, "contra")
            co, _ = tn.is_2_finite(X, Cstar, "co")
            assert contra == co, S


def test_fac_sub_orthogonality_in_mod_a(L3, L3idx, Cstar):
    # for each enumerated pair, (Fac T, Sub F) is Hom-orthogonal across mod A
    pairs = tn.enumerate_2ff_torsion_pairs(Cstar)
    for pair in pairs:
        Tmod = mc.direct_sum(L3, pair.T.modules()).module if pair.T.members \
            else mc.zero_module(L3)
        Fmod = mc.direct_sum(L3, pair.F.modules()).module if pair.F.members \
            else mc.zero_module(L3)
        for X in L3idx.modules:
            tr, _ = mc.trace_from(Tmod, X)
            in_fac = tr.dims == X.dims
            for Y in L3idx.modules:
                rej, _ = mc.reject_into(Y, Fmod)
                in_sub = rej.is_zero()
                if in_fac and in_sub:
                    assert mc.hom_dim(X, Y) == 0, (pair.key(), X, Y)


def test_add_p1_two_finiteness_fails_exhaustively_over_f2():
    # Machine-exhaustive form of the falsification linchpin: over F_2, no
    # right add(P1)-approximation P1^k -> S1 (k <= 2) together with any probe
    # map P1^j -> P1^k (j <= 2) is Hom(C,-)-exact at the middle for all four
    # members of C*.
    import itertools

    from tests.conftest import lambda3

    A = lambda3(p=2)
    idx = arknit.knit_indecomposables(A)
    vecs = {m.dim_vector(): i for i, m in enumerate(idx.modules)}
    members = [idx.modules[vecs[dv]] for dv in ((1, 1, 0), (0, 1, 1), (0, 0, 1), (1, 0, 0))]
    P1 = idx.modules[vecs[(1, 1, 0)]]
    S1 = idx.modules[vecs[(1, 0, 0)]]
    (cover,) = mc.hom_basis(P1, S1)
    (endo,) = mc.hom_basis(P1, P1)
    found = False
    for k in (1, 2):
        ds_k = mc.direct_sum(A, [P1] * k)
        for mu in itertools.product((0, 1), repeat=k):
            if not any(mu):
                continue
            f = mc.map_from_sum(ds_k, [cover.scale(c) for c in mu])
            if not hc.is_right_approximation(f, [P1]):
                continue
            for j in (0, 1, 2):
                ds_j = mc.direct_sum(A, [P1] * j)
                for flat in itertools.product((0, 1), repeat=k * j):
                    blocks = {}
                    for r in range(k):
                        for c in range(j):
                            if flat[r * j + c]:
                                blocks[(r, c)] = endo
                    g = mc.block_map(ds_j, ds_k, blocks)
                    if not f.compose(g).is_zero():
                        continue
                    if all(_middle_exact_against(C0, ds_j.module, ds_k.module, S1, g, f)
                           for C0 in members):
                        found = True
    assert not found


def test_enumeration_checks_finiteness_only_inside_the_pair_test(Cstar, monkeypatch):
    # the pair test is the finiteness of both halves; enumeration builds F = T^perp, so it
    # does not re-derive the torsion-pair axioms through is_torsion_pair_2ff
    real_finite, real_pair = tn.is_2_finite, tn._halves_not_2_finite
    calls = {"pair": 0, "outside": 0}
    depth = [0]

    def finite(*args):
        if not depth[0]:
            calls["outside"] += 1
        return real_finite(*args)

    def pair(*args):
        calls["pair"] += 1
        depth[0] += 1
        try:
            return real_pair(*args)
        finally:
            depth[0] -= 1

    def refuse(*args):
        raise AssertionError("enumeration re-checked the axioms of a pair it built")

    monkeypatch.setattr(tn, "is_2_finite", finite)
    monkeypatch.setattr(tn, "_halves_not_2_finite", pair)
    monkeypatch.setattr(tn, "is_torsion_pair_2ff", refuse)
    assert len(tn.enumerate_2ff_torsion_pairs(Cstar)) == 7
    assert calls["pair"] >= 7
    assert calls["outside"] == 0


def test_certificates_on_demand_match_is_2_finite(Cstar):
    for pair in tn.enumerate_2ff_torsion_pairs(Cstar):
        certs = pair.to_json(include_certs=True)["finiteness_certificates"]
        assert list(certs) == ["F_co", "F_contra", "T_co", "T_contra"]
        for X, name in ((pair.T, "T"), (pair.F, "F")):
            for side in ("contra", "co"):
                ok, expected = tn.is_2_finite(X, Cstar, side)
                assert ok
                assert certs[f"{name}_{side}"] == {
                    str(mi): cert.chain(Cstar) for mi, cert in sorted(expected.items())}


def _kernel_certificate(X, C, side, M):
    """x1 and x2 of M's certificate from the kernels of Hom(x, X1) -> Hom(x, M), computed on the table."""
    idx, op = C.host, side == "contra"
    xs, cs = X.member_list(), C.member_list()
    counts = {x: idx.hom_dim(x, M) if op else idx.hom_dim(M, x) for x in xs}
    x1 = [x for x in xs for _ in range(counts[x])]
    phi = [tuple(int(c == b) for c in range(counts[x])) for x in xs for b in range(counts[x])]
    x2 = {x: len(kernel_basis(idx.precompose(phi, [M], x1, x, op))) for x in xs}
    return [counts.get(t, 0) for t in cs], [x2.get(t, 0) for t in cs]


@pytest.mark.parametrize("case", ["A5rad2-2", "A5rad2-101", "x3-3"])
def test_members_of_x_get_the_certificate_of_the_kernel_ranks(case):
    # a member M of X passes because phi splits; its certificate is read off Hom dimensions
    if case == "x3-3":  # End of a member has dimension > 1 here
        idx = arknit.knit_indecomposables(parse_algebra(TRUNCATED_X3))
        C = hc.Subcat.of(idx, range(len(idx.modules)))
    else:
        idx = arknit.knit_indecomposables(nakayama_rad2(5, int(case.rsplit("-", 1)[1])))
        vecs = by_vec(idx)
        C = hc.Subcat.of(idx, [vecs[v] for v in A5R2_CT])
    checked = 0
    for r in range(len(C.members) + 1):
        for S in itertools.combinations(C.member_list(), r):
            X = hc.Subcat.of(idx, S)
            for side in ("contra", "co"):
                ok, certs = tn.is_2_finite(X, C, side)
                for M in S:
                    if M in certs:
                        assert (certs[M].x1, certs[M].x2) == _kernel_certificate(X, C, side, M), (S, side, M)
                        checked += 1
                    else:
                        assert not ok
    assert checked


# -- torsion classes by closure, against the subset scan they replaced ------------


def _ct_case(name):
    """A freshly knitted 2-CT subcategory: "A3" (over F_101), "A3-2", "A<n>rad2-<p>", "kA3-<p>" or "x3"."""
    if name in ("A3", "A3-2"):
        idx = arknit.knit_indecomposables(lambda3(2 if name == "A3-2" else 101))
        vecs = by_vec(idx)
        return hc.Subcat.of(idx, [vecs[v] for v in ((1, 1, 0), (0, 1, 1), (0, 0, 1), (1, 0, 0))])
    if name == "x3":  # not 2-CT, but End of a member has dimension > 1
        idx = arknit.knit_indecomposables(parse_algebra(TRUNCATED_X3))
        return hc.Subcat.of(idx, range(len(idx.modules)))
    family, p = name.split("-")
    if family == "kA3":
        return auslander_ct(arknit.knit_indecomposables(auslander_linear(3, int(p))))
    n = int(family[1:family.index("rad2")])
    return _nakayama_rad2_ct(arknit.knit_indecomposables(nakayama_rad2(n, int(p))), n)


def _closed_subsets(C):
    """The subsets S of C with S = perp(S^perp), by a walk over every subset, read off hom_dim."""
    idx, members, out = C.host, C.member_list(), []
    for S in tn.member_subsets(C, 20):
        F = [y for y in members if all(idx.hom_dim(t, y) == 0 for t in S)]
        if {x for x in members if all(idx.hom_dim(x, f) == 0 for f in F)} == set(S):
            out.append((S, tuple(F)))
    return out


def _subset_scan(C):
    """The enumeration as a walk over every subset: each closed one, then both halves' 2-finiteness."""
    idx, pairs = C.host, []
    for S, F in _closed_subsets(C):
        T, F = hc.Subcat.of(idx, S), hc.Subcat.of(idx, F)
        if tn._halves_not_2_finite(T, F, C) is None:
            pairs.append(tn.TorsPair2FF(C, T, F))
    pairs.sort(key=lambda p: p.key())
    return pairs


@pytest.mark.parametrize("case", ["A3", "A5rad2-2", "A5rad2-101", "A7rad2-101", "kA3-2", "kA3-101"])
def test_closure_enumeration_matches_the_subset_scan(case):
    C, fresh = _ct_case(case), _ct_case(case)
    classes = [(tuple(arknit._indices(T)), tuple(arknit._indices(F))) for T, F in tn._torsion_classes(C)]
    assert len(classes) == len(set(classes))
    assert sorted(classes) == sorted(_closed_subsets(fresh))
    pairs, expected = tn.enumerate_2ff_torsion_pairs(C), _subset_scan(fresh)
    assert [p.key() for p in pairs] == [p.key() for p in expected]
    assert ([p.to_json(include_certs=True) for p in pairs]
            == [p.to_json(include_certs=True) for p in expected])


@pytest.mark.parametrize("p", [2, 101])
def test_enumeration_on_auslander_algebra_of_a4(p):
    # |C| = 20, the subset budget; 2098 closed sets, of which 357 have 2-finite halves
    C = auslander_ct(arknit.knit_indecomposables(auslander_linear(4, p)))
    assert len(C.members) == 20
    assert sum(1 for _ in tn._torsion_classes(C)) == 2098
    assert len(tn.enumerate_2ff_torsion_pairs(C)) == 357


def _axiom_witness(T, F, C):
    """The torsion-pair axioms of `is_torsion_pair_2ff`, from single hom_dim reads."""
    idx, members = C.host, C.member_list()
    for t in T.member_list():
        for f in F.member_list():
            if idx.hom_dim(t, f):
                return f"hom({t},{f}) nonzero"
    perp_F = [x for x in members if all(idx.hom_dim(x, f) == 0 for f in F.members)]
    if set(perp_F) != T.members:
        return f"torsion part not maximal: {perp_F}"
    T_perp = [y for y in members if all(idx.hom_dim(t, y) == 0 for t in T.members)]
    if set(T_perp) != F.members:
        return f"torsion-free part not maximal: {T_perp}"
    return None


def test_pair_axioms_read_off_the_hom_masks_keep_their_witnesses(Cstar):
    idx, subsets = Cstar.host, list(tn.member_subsets(Cstar, 20))
    witnesses = set()
    for S in subsets:
        for R in subsets:
            T, F = hc.Subcat.of(idx, S), hc.Subcat.of(idx, R)
            witness = _axiom_witness(T, F, Cstar)
            if witness is None:
                witness = tn._halves_not_2_finite(T, F, Cstar)
            assert tn.is_torsion_pair_2ff(T, F, Cstar) == (witness is None, witness), (S, R)
            witnesses.add(witness and witness.split(":")[0].split("(")[0])
    assert witnesses >= {None, "hom", "torsion part not maximal", "torsion-free part not maximal"}


def _flat(result):
    ok, certs = result
    return ok, {M: (c.side, c.member, c.x1, c.x2) for M, c in certs.items()}


@pytest.mark.parametrize("case", ["A3", "A5rad2-2", "A5rad2-101", "x3", "kA3-101"])
def test_finiteness_memo_matches_a_fresh_census(case):
    # a member M outside X is kept under (C, side, M, N1, X & N(N1)); a key that missed
    # X & N(N1) or the side would hand one X the verdict or certificate of another
    warm, fresh = _ct_case(case), _ct_case(case)
    subsets = list(tn.member_subsets(warm, 20))
    for S in reversed(subsets):
        for side in ("contra", "co"):
            tn.is_2_finite(hc.Subcat.of(warm.host, S), warm, side)
    entries = len(warm.host._finiteness)
    for S in subsets:
        for side in ("contra", "co"):
            fresh.host._finiteness.clear()
            assert (_flat(tn.is_2_finite(hc.Subcat.of(warm.host, S), warm, side))
                    == _flat(tn.is_2_finite(hc.Subcat.of(fresh.host, S), fresh, side))), (S, side)
    assert len(warm.host._finiteness) == entries  # the warm census answered every X from its memo


# -- the module-level 2-finiteness check, kept as an independent reference ------


def _middle_exact_against(C0, X2, X1, M, g, f) -> bool:
    """Exactness of Hom(C0, X2) -> Hom(C0, X1) -> Hom(C0, M) at the middle."""
    A = M.algebra
    field = A.field
    H2 = mc.hom_basis(C0, X2)
    H1 = mc.hom_basis(C0, X1)
    vec_len1 = sum(X1.dims[v] * C0.dims[v] for v in A.vertices)
    vec_lenM = sum(M.dims[v] * C0.dims[v] for v in A.vertices)
    d1 = [mc.hom_to_vector(g.compose(phi)) for phi in H2]
    d2 = [mc.hom_to_vector(f.compose(phi)) for phi in H1]
    m1 = Mat.from_rows(field, d1, cols=vec_len1) if d1 else Mat.zeros(field, 0, vec_len1)
    m2 = Mat.from_rows(field, d2, cols=vec_lenM) if d2 else Mat.zeros(field, 0, vec_lenM)
    return rank(m1) + rank(m2) == len(H1)


def _module_level_2_contra_finite(X_members, C_members: dict):
    """(ok, chains): X2 -> X1 -> M built from full approximations and a kernel."""
    chains = {}
    for mi, M in C_members.items():
        ap1 = hc.right_full_approximation(X_members, M)
        K, incl = mc.kernel(ap1.map)
        ap2 = hc.right_full_approximation(X_members, K)
        g = incl.compose(ap2.map)
        chains[mi] = [list(m.dim_vector()) for m in (ap2.source, ap1.source, M)]
        if not all(_middle_exact_against(C0, ap2.source, ap1.source, M, g, ap1.map)
                   for C0 in C_members.values()):
            return False, chains
    return True, chains


def _module_level_2_finite(X, C, side):
    """The contravariant check on modules; the covariant one on their duals."""
    members = {mi: C.host.modules[mi] for mi in C.member_list()}
    if side == "contra":
        return _module_level_2_contra_finite(X.modules(), members)
    ok, chains = _module_level_2_contra_finite(
        [mc.dual(Y) for Y in X.modules()], {mi: mc.dual(M) for mi, M in members.items()})
    return ok, {mi: chain[::-1] for mi, chain in chains.items()}


@pytest.mark.parametrize("case", ["A3", "A5rad2-2", "A5rad2-101"])
def test_is_2_finite_matches_module_level_check(case):
    if case == "A3":
        idx = arknit.knit_indecomposables(lambda3())
        ct = [(1, 1, 0), (0, 1, 1), (0, 0, 1), (1, 0, 0)]
    else:
        idx = arknit.knit_indecomposables(nakayama_rad2(5, int(case.rsplit("-", 1)[1])))
        ct = A5R2_CT
    vecs = by_vec(idx)
    C = hc.Subcat.of(idx, [vecs[v] for v in ct])
    members = C.member_list()
    verdicts = set()
    for r in range(len(members) + 1):
        for S in itertools.combinations(members, r):
            X = hc.Subcat.of(idx, S)
            for side in ("contra", "co"):
                ok, certs = tn.is_2_finite(X, C, side)
                expected_ok, expected_chains = _module_level_2_finite(X, C, side)
                assert ok == expected_ok, (S, side)
                assert {mi: cert.chain(C) for mi, cert in certs.items()} == expected_chains
                verdicts.add(ok)
    assert verdicts == {True, False}
