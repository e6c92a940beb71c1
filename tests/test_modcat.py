import random

import pytest

from taukit import highercat as hc, modcat as mc
from taukit.algebra import opposite, parse_algebra, quotient_by_idempotent
from taukit.exactlin import Mat, quotient_coordinates, rank
from tests.conftest import auslander_linear, d4, e7_linear, lambda3, nakayama_rad2
from tests.test_arknit import CYCLE3_RAD2, DUAL_NUMBERS
from tests.test_highercat import census_and_ct_members
from tests.test_tautilt import CYCLE2_RAD3, TRUNCATED_X3


@pytest.fixture(scope="module")
def L3mods(L3):
    P = {v: mc.projective(L3, v) for v in L3.vertices}
    S = {v: mc.simple(L3, v) for v in L3.vertices}
    return P, S


def test_projective_dim_vectors(L3, L3mods):
    P, S = L3mods
    assert P["1"].dim_vector() == (1, 1, 0)
    assert P["2"].dim_vector() == (0, 1, 1)
    assert P["3"].dim_vector() == (0, 0, 1)


def test_injective_dim_vectors(L3):
    assert mc.injective(L3, "1").dim_vector() == (1, 0, 0)
    assert mc.injective(L3, "2").dim_vector() == (1, 1, 0)
    assert mc.injective(L3, "3").dim_vector() == (0, 1, 1)


def test_hom_dims_lambda3(L3, L3mods):
    P, S = L3mods
    assert mc.hom_dim(P["2"], P["1"]) == 1
    assert mc.hom_dim(P["1"], P["2"]) == 0
    assert mc.hom_dim(S["3"], P["2"]) == 1
    assert mc.hom_dim(P["2"], S["3"]) == 0
    assert mc.hom_dim(P["1"], S["1"]) == 1
    assert mc.hom_dim(S["1"], P["1"]) == 0


def test_hom_contains_identity(L3, L3mods):
    P, _ = L3mods
    basis = mc.hom_basis(P["1"], P["1"])
    assert len(basis) == 1
    f = basis[0]
    assert f.is_iso()


def test_hom_projective_counts_dims(L3, L3mods):
    # dim Hom(P(v), M) = dim M at v
    P, _ = L3mods
    M = mc.direct_sum(L3, [P["1"], mc.simple(L3, "2")]).module
    for v in L3.vertices:
        assert mc.hom_dim(P[v], M) == M.dims[v]


def test_map_parts_of_nonzero_map(L3, L3mods):
    P, S = L3mods
    (f,) = mc.hom_basis(P["2"], P["1"])
    parts = mc.map_parts(f)
    assert parts.image.dim_vector() == (0, 1, 0)
    assert parts.cokernel.dim_vector() == (1, 0, 0)
    assert parts.kernel.dim_vector() == (0, 0, 1)
    assert mc.is_isomorphic(parts.kernel, S["3"])
    assert mc.is_isomorphic(parts.cokernel, S["1"])


def test_map_parts_identity_and_zero(L3, L3mods):
    P, _ = L3mods
    ident = mc.ModMap.identity(P["1"])
    parts = mc.map_parts(ident)
    assert parts.kernel.is_zero() and parts.cokernel.is_zero()
    zero = mc.ModMap.zero(P["1"], P["2"])
    parts = mc.map_parts(zero)
    assert parts.kernel.dim_vector() == P["1"].dim_vector()
    assert parts.cokernel.dim_vector() == P["2"].dim_vector()


def test_rank_nullity_bookkeeping(L3, L3mods):
    P, S = L3mods
    (f,) = mc.hom_basis(P["2"], P["1"])
    parts = mc.map_parts(f)
    for v in L3.vertices:
        assert parts.kernel.dims[v] + parts.image.dims[v] == P["2"].dims[v]


@pytest.mark.parametrize("make", [lambda3, lambda p: nakayama_rad2(5, p)], ids=["A3", "A5rad2"])
@pytest.mark.parametrize("p", [2, 101])
def test_kernel_and_cokernel_exact_on_census_maps(make, p):
    from taukit import arknit

    mods = arknit.knit_indecomposables(make(p)).modules
    for M in mods:
        for N in mods:
            for f in mc.hom_basis(M, N):
                K, incl = mc.kernel(f)
                Q, proj = mc.cokernel(f)
                for X, g in ((K, incl), (Q, proj)):
                    X.validate()
                    g.validate()
                for v in M.algebra.vertices:
                    r = rank(f.mats[v])
                    assert rank(incl.mats[v]) == K.dims[v] == M.dims[v] - r
                    assert f.mats[v].mul(incl.mats[v]).is_zero()
                    assert rank(proj.mats[v]) == Q.dims[v] == N.dims[v] - r
                    assert proj.mats[v].mul(f.mats[v]).is_zero()
                parts = mc.map_parts(f)
                assert (parts.kernel.dims, parts.kernel.action) == (K.dims, K.action)
                assert parts.kernel_inclusion.mats == incl.mats
                assert (parts.cokernel.dims, parts.cokernel.action) == (Q.dims, Q.action)
                assert parts.cokernel_projection.mats == proj.mats


@pytest.mark.parametrize("case", ["A3", "A5rad2-2", "A5rad2-101"])
def test_factor_through_full_approximation_components(case):
    idx, members = census_and_ct_members(case)
    for M in idx.modules:
        comps = hc.right_full_approximation(members, M).components
        for X in members:
            for g in mc.hom_basis(X, M):
                hs = mc.factor_through(comps, g)
                assert hs is not None and len(hs) == len(comps)
                total = mc.ModMap.zero(X, M)
                for f, h in zip(comps, hs):
                    assert h.source is X and h.target is f.source
                    total = total.add(f.compose(h))
                assert total.sub(g).is_zero()


def test_factor_through_projective_cover(L3, L3mods):
    P, S = L3mods
    for v in L3.vertices:
        cover = mc.projective_cover(S[v])
        split = mc.factor_through([cover], mc.ModMap.identity(S[v]))
        assert (split is None) == (not mc.is_projective(S[v]))
        assert mc.factor_through([mc.projective_cover(P[v])],
                                 mc.ModMap.identity(P[v])) is not None
    assert not mc.is_projective(S["1"])
    assert mc.factor_through([], mc.ModMap.identity(S["1"])) is None


def test_decompose_zero_and_simple(L3, L3mods):
    _, S = L3mods
    z = mc.zero_module(L3)
    cert = mc.decompose(z)
    assert cert.summands == ()
    cert = mc.decompose(S["1"])
    assert len(cert.summands) == 1 and cert.summands[0][1] == 1
    assert cert.iso_to_sum.is_iso()


def test_decompose_direct_sum(L3, L3mods):
    P, S = L3mods
    M = mc.direct_sum(L3, [P["1"], S["3"]]).module
    cert = mc.decompose(M)
    dimvecs = sorted(X.dim_vector() for X, _ in cert.summands)
    assert dimvecs == [(0, 0, 1), (1, 1, 0)]
    assert cert.iso_to_sum.is_iso()


def test_decompose_with_multiplicity_and_base_change(L3, L3mods):
    P, S = L3mods
    ds = mc.direct_sum(L3, [S["2"], P["1"], S["2"]])
    M = ds.module
    # scramble by a random base change to hide the block structure
    rng = random.Random(7)
    field = L3.field
    mats = {}
    for v in L3.vertices:
        n = M.dims[v]
        while True:
            m = Mat.from_rows(field, [[rng.randrange(field.p) for _ in range(n)] for _ in range(n)], cols=n)
            if rank(m) == n:
                mats[v] = m
                break
    action = {a.name: mats[a.target].mul(M.action[a.name]).mul(
        mc.solve_matrix(mats[a.source], Mat.identity(field, M.dims[a.source])))
        for a in L3.arrows}
    scrambled = mc.Module(L3, dict(M.dims), action)
    cert = mc.decompose(scrambled)
    counts = sorted((X.dim_vector(), mult) for X, mult in cert.summands)
    assert counts == [((0, 1, 0), 2), ((1, 1, 0), 1)]


def test_is_isomorphic(L3, L3mods):
    P, S = L3mods
    M = mc.direct_sum(L3, [P["1"], S["3"]]).module
    N = mc.direct_sum(L3, [S["3"], P["1"]]).module
    assert mc.is_isomorphic(M, N)
    other = mc.direct_sum(L3, [S["1"], P["2"]]).module  # same dim vector (1,1,1)
    assert M.dim_vector() == other.dim_vector()
    assert not mc.is_isomorphic(M, other)


def test_projective_cover_of_simple(L3, L3mods):
    P, S = L3mods
    cover = mc.projective_cover(S["1"])
    assert cover.source.dim_vector() == P["1"].dim_vector()
    assert cover.is_epi()
    k = mc.map_parts(cover).kernel
    assert mc.is_isomorphic(k, S["2"])


def test_projective_cover_of_projective_is_iso(L3, L3mods):
    P, _ = L3mods
    cover = mc.projective_cover(P["2"])
    assert cover.is_iso()


def test_injective_envelope_of_simple(L3, L3mods):
    P, S = L3mods
    env = mc.injective_envelope(S["3"])
    assert env.target.dim_vector() == (0, 1, 1)  # I(3) = P(2)
    assert env.is_mono()


def test_syzygies(L3, L3mods):
    P, S = L3mods
    assert mc.syzygy(P["1"], 1).is_zero()
    assert mc.is_isomorphic(mc.syzygy(S["1"], 1), S["2"])
    assert mc.is_isomorphic(mc.syzygy(S["1"], 2), S["3"])
    assert mc.syzygy(S["1"], 3).is_zero()


@pytest.mark.parametrize("make", [lambda3, lambda p: nakayama_rad2(5, p)], ids=["A3", "A5rad2"])
def test_cosyzygy_is_iterated_cokernel_of_injective_envelope(make):
    from taukit import arknit

    for M in arknit.knit_indecomposables(make(101)).modules:
        cur = M
        for k in (1, 2):
            if not cur.is_zero():
                cur = mc.cokernel(mc.injective_envelope(cur))[0]
            assert mc.is_isomorphic(mc.cosyzygy(M, k), cur)


def test_transpose(L3, L3mods):
    P, S = L3mods
    assert mc.transpose(P["1"]).is_zero()
    t = mc.transpose(S["2"])
    assert t.algebra == opposite(L3)
    # coker(e_2 A -> e_3 A) is the simple at 3 over the opposite, so that
    # D Tr S2 = S3 matches the almost split sequence 0 -> S3 -> P2 -> S2 -> 0
    assert t.dim_vector() == (0, 0, 1)
    assert mc.is_isomorphic(mc.dual(t), S["3"])
    # additivity
    M = mc.direct_sum(L3, [S["2"], S["1"]]).module
    tm = mc.transpose(M)
    ts = mc.direct_sum(t.algebra, [mc.transpose(S["2"]), mc.transpose(S["1"])]).module
    assert mc.is_isomorphic(tm, ts)


def test_dual_involution(L3, L3mods):
    P, _ = L3mods
    d = mc.dual(P["1"])
    assert d.dim_vector() == (1, 1, 0)
    dd = mc.dual(d)
    assert dd.algebra == L3
    assert dd.dims == P["1"].dims
    assert all(dd.action[a.name] == P["1"].action[a.name] for a in L3.arrows)


def test_tau_and_tau_inverse(L3, L3mods):
    P, S = L3mods
    assert mc.tau(S["2"]).dim_vector() == (0, 0, 1)
    assert mc.tau(S["1"]).dim_vector() == (0, 1, 0)
    assert mc.tau_d(P["1"], 2).is_zero()
    assert mc.is_isomorphic(mc.tau_d(S["1"], 2), S["3"])
    assert mc.is_isomorphic(mc.tau_d_inv(S["3"], 2), S["1"])
    # tau_inv(tau(M)) = M for non-projectives
    for M in (S["1"], S["2"]):
        assert mc.is_isomorphic(mc.tau_inv(mc.tau(M)), M)


def test_ext_dims(L3, L3mods):
    P, S = L3mods
    assert mc.ext_dim(1, P["1"], S["1"]) == 0
    assert mc.ext_dim(2, P["2"], S["2"]) == 0
    assert mc.ext_dim(1, S["1"], S["2"]) == 1
    assert mc.ext_dim(2, S["1"], S["3"]) == 1
    assert mc.ext_dim(1, S["1"], S["3"]) == 0
    assert mc.ext_dim(0, S["2"], S["2"]) == 1
    assert mc.ext_dim(1, S["2"], S["3"]) == 1


def test_ext_duality(L3):
    # Ext^i_A(M, N) = Ext^i_{A^op}(D N, D M)
    op = opposite(L3)
    mods = [mc.simple(L3, v) for v in L3.vertices] + [mc.projective(L3, v) for v in L3.vertices]
    for M in mods:
        for N in mods:
            for i in range(4):
                assert mc.ext_dim(i, M, N) == mc.ext_dim(i, mc.dual(N), mc.dual(M))


def test_stable_hom(L3, L3mods):
    P, S = L3mods
    assert mc.stable_hom_dim(P["2"], P["1"]) == 0
    assert mc.stable_hom_dim(S["2"], S["2"]) == 1
    assert mc.stable_hom_dim(S["1"], S["1"]) == 1
    assert mc.costable_hom_dim(S["2"], S["2"]) == 1


def test_trace_and_reject(L3, L3mods):
    P, S = L3mods
    M = mc.direct_sum(L3, [P["1"], P["2"], S["1"]]).module
    tr, _ = mc.trace_from(M, M)
    assert tr.dim_vector() == M.dim_vector()
    tr, _ = mc.trace_from(M, S["3"])
    assert tr.is_zero()
    rej, _ = mc.reject_into(S["2"], P["1"])
    assert rej.is_zero()


def test_submodule_from_unstable_columns_is_a_defect(L3, L3mods):
    # the top of P1 is not a submodule: the arrow 1 -> 2 moves it into the radical
    P, _ = L3mods
    top = {"1": Mat.identity(L3.field, 1)}
    with pytest.raises(AssertionError):
        mc.submodule_from_columns(P["1"], top)
    rad, _ = mc.submodule_from_columns(P["1"], mc.radical_columns(P["1"]))
    assert rad.dim_vector() == (0, 1, 0)


def test_annihilators(L3, L3mods):
    P, S = L3mods
    reg = mc.regular_module(L3).module
    assert mc.annihilator_is_zero(reg)
    # P1 + P2 is already faithful: x*e_2 = c_b*b forces c_b = 0
    T = mc.direct_sum(L3, [P["1"], P["2"], S["1"]]).module
    assert mc.annihilator_is_zero(T)
    # P1 + S1 kills e_3 and b
    U = mc.direct_sum(L3, [P["1"], S["1"]]).module
    ann = mc.annihilator_basis([U])
    assert len(ann) == 2
    killed = {L3.basis[k].label() for vec in ann for _, k in vec}
    assert killed == {"e_3", "b"}


def test_proj_dim_and_global_dimension(L3, SS3, A2):
    assert mc.global_dimension(SS3) == 0
    assert mc.global_dimension(A2) == 1
    assert mc.global_dimension(L3) == 2
    S1 = mc.simple(L3, "1")
    assert mc.proj_dim(S1) == 2
    assert mc.proj_dim(mc.simple(L3, "2")) == 1


def test_module_rejects_relation_violation(L3):
    # action with b*a nonzero violates the relation
    act = {"a": Mat.from_rows(L3.field, [[1]]), "b": Mat.from_rows(L3.field, [[1]])}
    with pytest.raises(ValueError):
        mc.Module(L3, {"1": 1, "2": 1, "3": 1}, act)


def test_restrict_and_induce(L3, L3mods):
    _, S = L3mods
    Aq = quotient_by_idempotent(L3, {"1", "2"})
    M = mc.restrict_module(S["3"], Aq)
    assert M.dim_vector() == (1,)
    back = mc.induce_module(M, L3)
    assert back.dim_vector() == (0, 0, 1)


def test_endo_radical_of_regular_module(L3):
    # End(A) = A^op has radical spanned by the arrows
    reg = mc.regular_module(L3).module
    endos = mc.hom_basis(reg, reg)
    assert len(endos) == L3.dim
    flat = [mc.flatten_endo(f) for f in endos]
    rad = mc.radical_of_endos(L3.field, flat)
    assert len(rad) == 2


def test_endo_radical_local_algebra():
    from taukit.algebra import parse_algebra

    A = parse_algebra("field 2\nvertices 1\narrow x: 1 -> 1\nrelation x*x\n")
    reg = mc.regular_module(A).module
    endos = mc.hom_basis(reg, reg)
    assert len(endos) == 2
    rad = mc.radical_of_endos(A.field, [mc.flatten_endo(f) for f in endos])
    assert len(rad) == 1
    assert mc.is_indecomposable(reg)


def test_indecomposability_small_cases(L3, L3mods):
    P, S = L3mods
    for M in list(P.values()) + list(S.values()):
        assert mc.is_indecomposable(M)
    assert not mc.is_indecomposable(mc.direct_sum(L3, [S["1"], S["1"]]).module)
    assert not mc.is_indecomposable(mc.direct_sum(L3, [S["1"], S["2"]]).module)


def test_indecomposability_f2():
    L2 = lambda3(p=2)
    S1 = mc.simple(L2, "1")
    assert mc.is_indecomposable(S1)
    assert not mc.is_indecomposable(mc.direct_sum(L2, [S1, S1]).module)


def test_auslander_smalo_middle_leg(L3):
    # the stable-Hom formulation: Hom(tau2inv Y, X) = 0 iff the stable Hom of
    # tau2inv Y into every submodule of X vanishes
    from taukit import arknit
    from tests.test_acceptance import _thin_submodules

    idx = arknit.knit_indecomposables(L3)
    for X in idx.modules:
        subs = _thin_submodules(X)
        for Y in idx.modules:
            t2inv = mc.tau_d_inv(Y, 2)
            lhs = mc.hom_dim(t2inv, X) == 0
            mid = all(mc.stable_hom_dim(t2inv, N) == 0 for N in subs)
            assert lhs == mid, (X.dim_vector(), Y.dim_vector())


def test_indecomposability_agrees_with_fitting_oracle(L3):
    # cross-check the radical-based test against bounded Fitting splitting
    import random as _random

    from taukit import arknit
    from tests.conftest import d4

    def fitting_says_indecomposable(M):
        try:
            mc._split_once(M, _random.Random(1))
            return False
        except mc.DecompositionError:
            return True

    idx = arknit.knit_indecomposables(L3)
    samples = list(idx.modules)
    samples.append(mc.direct_sum(L3, [idx.modules[0], idx.modules[0]]).module)
    samples.append(mc.direct_sum(L3, [idx.modules[1], idx.modules[3]]).module)
    D4 = d4(p=2)
    idx4 = arknit.knit_indecomposables(D4)
    samples.extend(idx4.modules)
    samples.append(mc.direct_sum(D4, [idx4.modules[-1], idx4.modules[0]]).module)
    for M in samples:
        assert mc.is_indecomposable(M) == fitting_says_indecomposable(M), M.dim_vector()


# -- the top-generator loop against the module-level constructions ----------------


def _module_cover(M):
    """The cover as modules: generators completing the radical, components through path_action."""
    A = M.algebra
    gens = []
    for v, cols in mc.radical_columns(M).items():
        gens += [(v, tuple(int(r == c) for r in range(cols.rows)))
                 for c in quotient_coordinates(cols)[0]]
    ds = mc.direct_sum(A, [mc.projective(A, v) for v, _ in gens])
    components = []
    for (v, vec), inc in zip(gens, ds.inclusions):
        mats = {w: Mat.from_columns(A.field, [mc.path_action(M, v, pth.arrows).apply(vec)
                                              for pth in A.paths_from(v) if pth.target == w], rows=M.dims[w])
                for w in A.vertices}
        components.append(mc.ModMap(inc.source, M, mats, check=False))
    cover = mc.map_from_sum(ds, components) if components else mc.ModMap.zero(ds.module, M)
    return gens, cover


def _module_element_form(A, src_verts, tgt_verts, g):
    """The paths, summand by summand of the target, of each source summand's generator image."""
    def slots(verts, w):
        out, at = [], 0
        for v in verts:
            paths = [pth.arrows for pth in A.paths_from(v) if pth.target == w]
            out.append((at, paths))
            at += len(paths)
        return out

    elements = {}
    for i, v1 in enumerate(src_verts):
        at, paths = slots(src_verts, v1)[i]
        image = g.mats[v1].col(at + paths.index(()))
        for j, (off, tgt_paths) in enumerate(slots(tgt_verts, v1)):
            terms = tuple((image[off + q], word) for q, word in enumerate(tgt_paths) if image[off + q])
            if terms:
                elements[(j, i)] = terms
    return elements


def _module_resolution(M, length):
    """cover -> kernel -> cover -> compose -> element form, as modules, with the kernels."""
    A = M.algebra
    gens, cover = _module_cover(M)
    verts, diffs, kernels = [[v for v, _ in gens]], [], []
    K, incl = mc.kernel(cover)
    for _ in range(length):
        kernels.append(K)
        if K.is_zero():
            break
        kgens, nxt = _module_cover(K)
        verts.append([v for v, _ in kgens])
        diffs.append(_module_element_form(A, verts[-1], verts[-2], incl.compose(nxt)))
        K, incl = mc.kernel(nxt)
    return gens, cover, verts, diffs, kernels


def _module_transpose(M, verts0, verts1, elements):
    """Tr M as direct_sum / block_map / cokernel over opposite projectives."""
    Aop = opposite(M.algebra)
    src = mc.direct_sum(Aop, [mc.projective(Aop, v) for v in verts0])
    tgt = mc.direct_sum(Aop, [mc.projective(Aop, v) for v in verts1])
    blocks = {}
    for (j, i), terms in elements.items():
        P_from, P_to = src.inclusions[j].source, tgt.inclusions[i].source
        mats = {}
        for w in Aop.vertices:
            to_paths = [pth.key() for pth in Aop.paths_from(verts1[i]) if pth.target == w]
            rows = [[0] * P_from.dims[w] for _ in to_paths]
            for c, q in enumerate(pth for pth in Aop.paths_from(verts0[j]) if pth.target == w):
                for coeff, word in terms:
                    for c2, b in Aop.reduce_word(verts1[i], tuple(reversed(word)) + q.arrows):
                        rows[to_paths.index(Aop.basis[b].key())][c] += coeff * c2
            mats[w] = Mat.from_rows(Aop.field, rows, cols=P_from.dims[w])
        blocks[(i, j)] = mc.ModMap(P_from, P_to, mats, check=False)
    return mc.cokernel(mc.block_map(src, tgt, blocks))[0]


def _json(M):
    return M.to_json()


LOOP_ALGEBRAS = {
    "E7-2": lambda: e7_linear(p=2),
    "E7-101": lambda: e7_linear(p=101),
    "D4-101": lambda: d4(p=101),
    "A5rad2-2": lambda: nakayama_rad2(5, p=2),
    "A5rad2-101": lambda: nakayama_rad2(5, p=101),
    "auslander3-2": lambda: auslander_linear(3, p=2),
    "x3-3": lambda: parse_algebra(TRUNCATED_X3),
    "dual-numbers-2": lambda: parse_algebra(DUAL_NUMBERS),
    "cycle2rad3-3": lambda: parse_algebra(CYCLE2_RAD3),
    "cycle3rad2-3": lambda: parse_algebra(CYCLE3_RAD2),
}


@pytest.mark.parametrize("name", sorted(LOOP_ALGEBRAS))
def test_top_generator_loop_matches_module_constructions(name):
    from taukit import arknit

    A = LOOP_ALGEBRAS[name]()
    members = arknit.knit_indecomposables(A).modules
    for M in members + [mc.dual(X) for X in members]:
        gens, cover, verts, diffs, kernels = _module_resolution(M, 3)
        pres = mc.minimal_presentation(M)
        assert (pres.verts0, pres.verts1) == (verts[0], verts[1] if diffs else [])
        assert pres.elements == (diffs[0] if diffs else {})
        assert pres.cover == cover.mats
        assert [tuple(int(r == j) for r in range(M.dims[v])) for v, j in zip(pres.verts0, pres.generators)] \
            == [vec for _, vec in gens]
        Tr = mc.transpose(M)
        assert _json(Tr) == _json(_module_transpose(M, verts[0], pres.verts1, pres.elements))
        assert Tr.algebra is opposite(M.algebra)
        res = mc.projective_resolution(M, 3)
        assert (res.verts, res.diffs) == (verts, diffs)
        for k in (1, 2):
            expected = kernels[k - 1] if k <= len(kernels) else kernels[-1]
            assert _json(mc.syzygy(M, k)) == _json(expected), k
        assert mc.proj_dim(M, 2) == next((k for k, K in enumerate(kernels) if K.is_zero()), None)
