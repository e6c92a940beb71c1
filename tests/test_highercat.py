import ast
import hashlib
import inspect
import itertools
import json

import pytest

from taukit import arknit, highercat as hc, modcat as mc, torsion as tn
from taukit.algebra import parse_algebra
from taukit.exactlin import Mat, rank, solve
from tests.conftest import CENSUS_ALGEBRAS, auslander_linear, lambda3, nakayama_rad2, ss3
from tests.test_acceptance import _split_family, _two_exact_family
from tests.test_d3 import A4_RAD2, _projective_resolution_sequence


@pytest.fixture(scope="module")
def L3idx(L3):
    return arknit.knit_indecomposables(L3)


def by_vec(idx):
    return {m.dim_vector(): i for i, m in enumerate(idx.modules)}


@pytest.fixture(scope="module")
def Cstar(L3idx):
    # add(P1 + P2 + S3 + S1): everything except S2
    vecs = by_vec(L3idx)
    members = [vecs[(1, 1, 0)], vecs[(0, 1, 1)], vecs[(0, 0, 1)], vecs[(1, 0, 0)]]
    return hc.Subcat.of(L3idx, members)


def seq_P3_to_S1(L3idx, Cstar):
    """The 2-exact sequence 0 -> S3 -> P2 -> P1 -> S1 -> 0."""
    vecs = by_vec(L3idx)
    S3 = L3idx.modules[vecs[(0, 0, 1)]]
    P2 = L3idx.modules[vecs[(0, 1, 1)]]
    P1 = L3idx.modules[vecs[(1, 1, 0)]]
    S1 = L3idx.modules[vecs[(1, 0, 0)]]
    (g,) = mc.hom_basis(P2, P1)
    inc = mc.map_parts(g).kernel_inclusion
    iso = mc.iso_between_indecomposables(mc.map_parts(g).kernel, S3)
    start = inc.compose(iso)  # S3 -> P2
    cover = mc.projective_cover(S1)
    iso2 = mc.iso_between_indecomposables(P1, cover.source)
    end = cover.compose(iso2)  # P1 ->> S1
    seq = hc.ExactSeq([S3, P2, P1, S1], [start, g, end])
    assert seq.is_exact()
    return seq


def test_subcat_contains(L3idx, Cstar):
    vecs = by_vec(L3idx)
    P1 = L3idx.modules[vecs[(1, 1, 0)]]
    S3 = L3idx.modules[vecs[(0, 0, 1)]]
    S2 = L3idx.modules[vecs[(0, 1, 0)]]
    M = mc.direct_sum(L3idx.algebra, [P1, S3]).module
    assert Cstar.contains(M)
    assert not Cstar.contains(S2)
    assert Cstar.contains(mc.zero_module(L3idx.algebra))


def test_mod_a_is_1ct(L3idx):
    C = hc.Subcat.of(L3idx, range(len(L3idx.modules)))
    assert hc.is_d_cluster_tilting(C, 1).ok


def test_cstar_is_2ct(Cstar):
    assert hc.is_d_cluster_tilting(Cstar, 2).ok


def test_mod_a_not_2ct_with_witness(L3idx):
    C = hc.Subcat.of(L3idx, range(len(L3idx.modules)))
    rep = hc.is_d_cluster_tilting(C, 2)
    assert not rep.ok
    vecs = by_vec(L3idx)
    s1, s2 = vecs[(1, 0, 0)], vecs[(0, 1, 0)]
    assert any(v[:3] == (1, s1, s2) for v in rep.violations)


def test_cstar_minus_any_member_fails(L3idx, Cstar):
    for drop in Cstar.member_list():
        smaller = hc.Subcat.of(L3idx, Cstar.members - {drop})
        assert not hc.is_d_cluster_tilting(smaller, 2).ok


def test_semisimple_mod_a_is_2ct(SS3):
    idx = arknit.knit_indecomposables(SS3)
    C = hc.Subcat.of(idx, range(3))
    assert hc.is_d_cluster_tilting(C, 2).ok


def test_c_resolution_member_is_identity(L3idx, Cstar):
    vecs = by_vec(L3idx)
    P1 = L3idx.modules[vecs[(1, 1, 0)]]
    seq = hc.c_resolution(Cstar, P1, "right", 2)
    assert len(seq.modules) == 2
    assert seq.maps[0].is_iso()


def test_c_resolution_of_s2(L3idx, Cstar):
    vecs = by_vec(L3idx)
    S2 = L3idx.modules[vecs[(0, 1, 0)]]
    right = hc.c_resolution(Cstar, S2, "right", 2)
    assert [m.dim_vector() for m in right.modules] == [(0, 0, 1), (0, 1, 1), (0, 1, 0)]
    left = hc.c_resolution(Cstar, S2, "left", 2)
    assert [m.dim_vector() for m in left.modules] == [(0, 1, 0), (1, 1, 0), (1, 0, 0)]


def test_c_resolutions_exist_for_all_indecs(L3idx, Cstar):
    for M in L3idx.modules:
        for side in ("right", "left"):
            seq = hc.c_resolution(Cstar, M, side, 2)
            assert len(seq.modules) <= 4
            assert hc.hom_exactness_probe(seq, Cstar.modules(), side)


def test_approximations(L3idx, Cstar):
    vecs = by_vec(L3idx)
    S2 = L3idx.modules[vecs[(0, 1, 0)]]
    approx = hc.right_full_approximation(Cstar.modules(), S2)
    assert approx.source.dim_vector() == (0, 1, 1)  # only P2 maps to S2
    assert hc.is_right_approximation(approx.map, Cstar.modules())
    S3 = L3idx.modules[vecs[(0, 0, 1)]]
    members = [L3idx.modules[vecs[(1, 1, 0)]], L3idx.modules[vecs[(1, 0, 0)]]]
    empty = hc.right_full_approximation(members, S3)
    assert empty.source.is_zero()


def test_minimize_approximation(L3idx, Cstar):
    vecs = by_vec(L3idx)
    S1 = L3idx.modules[vecs[(1, 0, 0)]]
    full = hc.right_full_approximation(Cstar.modules(), S1)
    # full approximation contains P1 (cover) and S1 (identity); minimal is S1 alone
    minimal = hc.minimize_approximation(full)
    assert len(minimal.components) < len(full.components)
    assert hc.is_right_approximation(minimal.map, Cstar.modules())


def _factors_through_left(f, g):
    """Does g: M -> X factor as h f through f: M -> W?"""
    basis = mc.hom_basis(f.target, g.target)
    vecs = [mc.hom_to_vector(h.compose(f)) for h in basis]
    target = mc.hom_to_vector(g)
    field = g.source.algebra.field
    mat = Mat.from_columns(field, vecs, rows=len(target)) if vecs \
        else Mat.zeros(field, len(target), 0)
    return solve(mat, target) is not None


def _is_left_approximation(f, M, members):
    return all(_factors_through_left(f, g) for X in members for g in mc.hom_basis(M, X))


A5R2_CT = [(1, 0, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 0, 1), (1, 1, 0, 0, 0),
           (0, 1, 1, 0, 0), (0, 0, 1, 1, 0), (0, 0, 0, 1, 1)]


def census_and_ct_members(case):
    """The census of A3 or A5/rad^2 over F_p and the members of its 2-CT subcategory."""
    if case == "A3":
        idx = arknit.knit_indecomposables(lambda3())
        ct = [(1, 1, 0), (0, 1, 1), (0, 0, 1), (1, 0, 0)]
    else:
        idx = arknit.knit_indecomposables(nakayama_rad2(5, int(case.rsplit("-", 1)[1])))
        ct = A5R2_CT
    vecs = by_vec(idx)
    return idx, hc.Subcat.of(idx, [vecs[v] for v in ct]).modules()


@pytest.mark.parametrize("case", ["A3", "A5rad2-2", "A5rad2-101"])
def test_left_approximations_through_duality(case):
    idx, members = census_and_ct_members(case)
    A = idx.algebra
    for M in idx.modules:
        full = hc.left_full_approximation(M, members)
        assert full.source.dims == M.dims
        assert _is_left_approximation(full.map, M, members)
        minimal = hc.left_min_approximation(M, members)
        assert _is_left_approximation(minimal.map, M, members)
        comps = minimal.components
        for drop in range(len(comps)):
            rest = comps[:drop] + comps[drop + 1:]
            if rest:
                ds = mc.direct_sum(A, [c.target for c in rest])
                smaller = mc.map_into_sum(ds, rest)
            else:
                smaller = mc.ModMap.zero(M, mc.zero_module(A))
            assert not _is_left_approximation(smaller, M, members)


@pytest.mark.parametrize("case", ["A3", "A5rad2-2", "A5rad2-101"])
def test_right_min_approximations_drop_no_further_copy(case):
    idx, members = census_and_ct_members(case)
    A = idx.algebra
    for M in idx.modules:
        minimal = hc.right_min_approximation(members, M)
        assert minimal.target.dims == M.dims
        assert hc.is_right_approximation(minimal.map, members)
        comps = minimal.components
        for drop in range(len(comps)):
            rest = comps[:drop] + comps[drop + 1:]
            if rest:
                smaller = mc.map_from_sum(mc.direct_sum(A, [c.source for c in rest]), rest)
            else:
                smaller = mc.ModMap.zero(mc.zero_module(A), M)
            assert not hc.is_right_approximation(smaller, members)


def test_hom_exactness_probe_negative(L3idx):
    """0 -> S3 -> P2 -> S2 -> 0 is exact, but Hom(S2, -) and Hom(-, S3) are not."""
    vecs = by_vec(L3idx)
    S3 = L3idx.modules[vecs[(0, 0, 1)]]
    P2 = L3idx.modules[vecs[(0, 1, 1)]]
    S2 = L3idx.modules[vecs[(0, 1, 0)]]
    (g,) = mc.hom_basis(P2, S2)
    parts = mc.map_parts(g)
    start = parts.kernel_inclusion.compose(mc.iso_between_indecomposables(S3, parts.kernel))
    seq = hc.ExactSeq([S3, P2, S2], [start, g])
    assert seq.is_exact()
    assert not hc.hom_exactness_probe(seq, [S2], "right")
    assert not hc.hom_exactness_probe(seq, [S3], "left")
    for side in ("right", "left"):
        assert hc.hom_exactness_probe(seq, [P2], side)


def test_d_pullback_identity(L3idx, Cstar):
    seq = seq_P3_to_S1(L3idx, Cstar)
    f = mc.ModMap.identity(seq.modules[-1])
    out = hc.d_pullback(Cstar, seq, f)
    assert out.lifted.is_exact()
    assert out.connecting.is_exact()
    for mine, theirs in zip(out.lifted.modules[1:], seq.modules[1:]):
        assert mc.is_isomorphic(mine, theirs)


def test_d_pullback_zero(L3idx, Cstar):
    seq = seq_P3_to_S1(L3idx, Cstar)
    z = mc.zero_module(L3idx.algebra)
    f = mc.ModMap.zero(z, seq.modules[-1])
    out = hc.d_pullback(Cstar, seq, f)
    assert out.lifted.is_exact()
    assert out.lifted.modules[-1].is_zero()


def test_d_pullback_along_cover_component(L3idx, Cstar):
    seq = seq_P3_to_S1(L3idx, Cstar)
    vecs = by_vec(L3idx)
    P1 = L3idx.modules[vecs[(1, 1, 0)]]
    S1 = seq.modules[-1]
    (f,) = mc.hom_basis(P1, S1)
    out = hc.d_pullback(Cstar, seq, f)
    assert out.lifted.is_exact()
    assert out.connecting.is_exact()
    assert len(out.verticals) == 3
    # the lift recovered the expected middle terms P2+S3 and P1+P2
    assert out.lifted.modules[1].dim_vector() == (0, 1, 2)
    assert out.lifted.modules[2].dim_vector() == (1, 2, 1)


def test_glue_identical_sequences(L3idx, Cstar):
    seq = seq_P3_to_S1(L3idx, Cstar)
    seq2 = hc.ExactSeq(list(seq.modules), list(seq.maps))
    diag = hc.glue_two_resolutions(Cstar, seq, seq2)
    assert diag.no_common_summand
    assert diag.split_R and diag.split_S


def test_glue_scaled_sequences(L3idx, Cstar):
    seq = seq_P3_to_S1(L3idx, Cstar)
    scaled = hc.ExactSeq(list(seq.modules),
                         [seq.maps[0].scale(3), seq.maps[1].scale(5), seq.maps[2]])
    assert scaled.is_exact()
    diag = hc.glue_two_resolutions(Cstar, seq, scaled)
    assert diag.no_common_summand
    assert diag.split_R and diag.split_S
    assert diag.to_json()["no_common_summand"] is True


def test_glue_rejects_different_algebras(L3idx, Cstar, SS3):
    seq = seq_P3_to_S1(L3idx, Cstar)
    S = mc.simple(SS3, "1")
    other = hc.ExactSeq([S, S, S, S],
                        [mc.ModMap.zero(S, S), mc.ModMap.zero(S, S), mc.ModMap.zero(S, S)])
    with pytest.raises(ValueError):
        hc.glue_two_resolutions(Cstar, seq, other)


def test_glue_split_padded_sequence(L3idx, Cstar):
    # compare the projective resolution with itself padded by a split summand
    seq = seq_P3_to_S1(L3idx, Cstar)
    A = L3idx.algebra
    vecs = by_vec(L3idx)
    P2 = L3idx.modules[vecs[(0, 1, 1)]]
    dsM = mc.direct_sum(A, [seq.modules[1], P2])
    dsN = mc.direct_sum(A, [seq.modules[2], P2])
    padded_mid = mc.block_map(dsM, dsN, {(0, 0): seq.maps[1], (1, 1): mc.ModMap.identity(P2)})
    start = dsM.inclusions[0].compose(seq.maps[0])
    end = seq.maps[2].compose(dsN.projections[0])
    padded = hc.ExactSeq([seq.modules[0], dsM.module, dsN.module, seq.modules[3]],
                         [start, padded_mid, end])
    assert padded.is_exact()
    diag = hc.glue_two_resolutions(Cstar, seq, padded)
    assert diag.no_common_summand
    assert diag.split_R and diag.split_S
    # P' is P with the summands of M' = P2+P2 taken out
    Mp = padded.modules[1]
    assert diag.compact["Pprime"].dim_vector() == tuple(
        p - m for p, m in zip(diag.P.dim_vector(), Mp.dim_vector()))


def _nakayama_rad2_ct(idx, n):
    """The 2-CT subcategory of A_n/rad^2 (n odd): the length-2 modules and the
    odd simples."""
    vecs = by_vec(idx)
    unit = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    dims = [tuple(a + b for a, b in zip(unit[i], unit[i + 1])) for i in range(n - 1)]
    dims += unit[::2]
    return hc.Subcat.of(idx, [vecs[dv] for dv in dims])


@pytest.mark.parametrize("p", [2, 101])
@pytest.mark.parametrize("n", [3, 5, 7])
def test_tau2_sends_ct_members_into_ct_or_zero(n, p):
    # tau_2 S_i = S_{i+2} for odd i < n, and every other member of C goes to 0
    idx = arknit.knit_indecomposables(nakayama_rad2(n, p))
    C = _nakayama_rad2_ct(idx, n)
    assert hc.is_d_cluster_tilting(C, 2).ok
    images = {}
    for i in C.member_list():
        summands = idx.summand_indices(mc.tau_d(idx.modules[i], 2))
        assert len(summands) <= 1 and set(summands) <= C.members, i
        if summands:
            images[idx.modules[i].dim_vector()] = idx.modules[summands[0]].dim_vector()
    unit = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    assert images == {unit[i]: unit[i + 2] for i in range(0, n - 2, 2)}


def auslander_ct(idx):
    """The 2-CT subcategory of a higher Auslander algebra: add of tau_2^-k of the projectives."""
    members = {i for i in range(len(idx.modules)) if idx.is_projective(i)}
    todo = sorted(members)
    while todo:
        new = set(idx.summand_indices(mc.tau_d_inv(idx.modules[todo.pop()], 2))) - members
        members |= new
        todo += sorted(new)
    return hc.Subcat.of(idx, members)


@pytest.mark.parametrize("p", [2, 101])
def test_tau2_sends_auslander_ct_members_into_ct_or_zero(p):
    # tau_2 maps the non-projective members of C onto the non-injective ones (Iyama 2007)
    idx = arknit.knit_indecomposables(auslander_linear(3, p))
    C = auslander_ct(idx)
    assert hc.is_d_cluster_tilting(C, 2).ok and len(C.members) == 10
    images = {}
    for i in C.member_list():
        summands = idx.summand_indices(mc.tau_d(idx.modules[i], 2))
        assert len(summands) <= 1 and set(summands) <= C.members, i
        if summands:
            images[i] = summands[0]
    assert set(images) == {i for i in C.members if not idx.is_projective(i)}
    assert sorted(images.values()) == sorted(i for i in C.members if not idx.is_injective(i))


# -- pinned outputs of the d-pullback and gluing constructions ------------------------


def _digest(records):
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()


def _outcome(build):
    """build()'s JSON record, or the class name of the error it raises."""
    try:
        return build()
    except (hc.FailedResolutionError, hc.NotTwoExactError) as exc:
        return type(exc).__name__


def _glue_case(p):
    idx = arknit.knit_indecomposables(lambda3(p))
    vecs = by_vec(idx)
    C = hc.Subcat.of(idx, [vecs[(1, 1, 0)], vecs[(0, 1, 1)], vecs[(0, 0, 1)], vecs[(1, 0, 0)]])
    return C, _two_exact_family(idx, C)


def _d3_case(p):
    idx = arknit.knit_indecomposables(parse_algebra(A4_RAD2.replace("field 101", f"field {p}")))
    vecs = by_vec(idx)
    C = hc.Subcat.of(idx, [vecs[(1, 1, 0, 0)], vecs[(0, 1, 1, 0)], vecs[(0, 0, 1, 1)],
                           vecs[(0, 0, 0, 1)], vecs[(1, 0, 0, 0)]])
    return C, [_projective_resolution_sequence(idx)]


def _d_pullback_records(C, family):
    """Lifted and connecting rows along every Hom-basis map from a member of C
    into the end term of every sequence."""
    out = []
    for seq in family:
        for X in C.modules():
            for f in mc.hom_basis(X, seq.modules[-1]):
                def build(seq=seq, f=f):
                    dp = hc.d_pullback(C, seq, f)
                    return [dp.lifted.to_json(), dp.connecting.to_json()]
                out.append(_outcome(build))
    return out


# sha256 of the JSON records; a refactor of d_pullback, the gluing grid or the
# pushout lift must leave every byte of their output as it is
PINNED = {
    "glue": "546ef0f3233665340bea7060df574a4fe82e0091028f824148072d21e470cc51",
    "d_pullback": "0cb00395f4e7ad98d49cf43dfba539176df37f5912c39295bf0030c6d3d630bf",
    "pushout_lift": "8b719b73deac2e1ec2e9e5a6d1fc712d0341d00147aeb1f38298d8e42d663163",
}


@pytest.fixture(scope="module")
def glued():
    """field -> (C, the two-exact family, the glued diagram of every ordered pair)."""
    out = {}
    for p in (2, 101):
        C, family = _glue_case(p)
        out[p] = (C, family, [hc.glue_two_resolutions(C, a, b) for a in family for b in family])
    return out


def test_glued_grid_admits_one_q_map(glued):
    # (s_P, s_M): S -> P + M is mono, so at most one Q -> S map fits the grid
    for C, _, diagrams in glued.values():
        for diag in diagrams:
            s_P, s_M = diag.maps["s_P"], diag.maps["s_M"]
            vecs = [mc.hom_to_vector(s_P.compose(f)) + mc.hom_to_vector(s_M.compose(f))
                    for f in mc.hom_basis(diag.Q, diag.S)]
            if vecs:
                assert rank(Mat.from_rows(C.host.algebra.field, vecs, cols=len(vecs[0]))) \
                    == len(vecs)


def test_glue_and_d_pullback_outputs_are_pinned(glued):
    records, pulled = [], []
    for p, (C, family, diagrams) in sorted(glued.items()):
        records += [diag.to_json() for diag in diagrams]
        pulled += _d_pullback_records(C, family)
        pulled += _d_pullback_records(*_d3_case(p))
    assert len(records) == 72 and len(pulled) == 28
    assert _digest(records) == PINNED["glue"]
    assert _digest(pulled) == PINNED["d_pullback"]


def test_pushout_lift_results_are_pinned():
    # the criterion-8 run: every 2-exact sequence with both ends in the torsion class
    C, family = _glue_case(101)
    idx = C.host
    records = []
    for pair in tn.enumerate_2ff_torsion_pairs(C):
        for seq in family + _split_family(idx, C, pair.T):
            if not (pair.T.contains(seq.modules[0]) and pair.T.contains(seq.modules[-1])):
                continue
            out = tn.pushout_lift_check(pair.T, C, seq)
            records.append({
                "ok": out.ok,
                "row": out.row.to_json() if out.row is not None else None,
                "verticals": [mc.hom_to_vector(f) for f in out.verticals or []],
                "obstruction": out.obstruction,
                "low_confidence": out.low_confidence,
            })
    assert len(records) == 146
    assert _digest(records) == PINNED["pushout_lift"]


def test_membership_resolutions_and_gluing_decompose_nothing(monkeypatch):
    # once the census is knitted, every summand count is read off its AR mesh
    C, family = _glue_case(101)

    def refuse(M):
        raise AssertionError("decompose reached")

    monkeypatch.setattr(mc, "decompose", refuse)
    for seq in family:
        assert all(C.contains(m) for m in seq.modules)
    for M in C.host.modules:
        for side in ("right", "left"):
            assert hc.c_resolution(C, M, side, 2).is_exact()
    assert len(_d_pullback_records(C, family)) == 12
    for seqA in family:
        for seqB in family:
            diag = hc.glue_two_resolutions(C, seqA, seqB)
            assert diag.split_R and diag.split_S


def test_highercat_imports_no_random():
    # every lift is an exact factorization; no verdict rests on a seeded search
    imported = set()
    for node in ast.walk(ast.parse(inspect.getsource(hc))):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module.split(".")[0])
    assert "random" not in imported


# -- the d-CT test on the census Ext bitmasks, against the nested-loop scan ------


def _scan_is_d_cluster_tilting(C, d):
    """The d-CT test scanned over host index, member and degree: the oracle."""
    if d < 1:
        raise ValueError("d must be >= 1")
    idx = C.host
    violations = []
    for x in range(len(idx.modules)):
        left_wit = None   # witness that x fails the left orthogonal
        right_wit = None
        for m in C.member_list():
            for i in range(1, d):
                if left_wit is None and idx.ext_dim(i, m, x) != 0:
                    left_wit = (i, m, x, "ext(member, X) nonzero")
                if right_wit is None and idx.ext_dim(i, x, m) != 0:
                    right_wit = (i, x, m, "ext(X, member) nonzero")
        inside = x in C.members
        if inside and left_wit is not None:
            violations.append(left_wit)
        if inside and right_wit is not None:
            violations.append(right_wit)
        if not inside and left_wit is None:
            violations.append((0, x, x, "left orthogonal module missing from C"))
        if not inside and right_wit is None:
            violations.append((0, x, x, "right orthogonal module missing from C"))
    return hc.CTReport(not violations, violations)


# (algebra, d, number of d-CT subcategories): mod A is the one 1-CT
# subcategory, and A5/rad^2 has global dimension 4 and no 3-CT one
CT_SCAN_CASES = {
    "A3-d1": (lambda3, 1, 1),
    "A3-d2": (lambda3, 2, 1),
    "A4rad2-d3": (lambda: parse_algebra(A4_RAD2), 3, 1),
    "SS3-d2": (ss3, 2, 1),
    "A5rad2-2-d2": (lambda: nakayama_rad2(5, p=2), 2, 1),
    "A5rad2-101-d2": (lambda: nakayama_rad2(5, p=101), 2, 1),
    "A5rad2-101-d3": (lambda: nakayama_rad2(5, p=101), 3, 0),
    # 2^13 subsets, 2^5 of them holding every projective and injective member
    "A7rad2-2-d2": (lambda: nakayama_rad2(7, p=2), 2, 1),
}


@pytest.mark.parametrize("case", sorted(CT_SCAN_CASES))
def test_bitmask_ct_check_matches_the_scan_on_every_subset(case):
    build, d, count = CT_SCAN_CASES[case]
    idx = arknit.knit_indecomposables(build())
    n = len(idx.modules)
    found = 0
    for r in range(n + 1):
        for S in itertools.combinations(range(n), r):
            C = hc.Subcat.of(idx, S)
            rep = hc.is_d_cluster_tilting(C, d)
            assert rep == _scan_is_d_cluster_tilting(C, d), S
            found += rep.ok
    assert found == count


def test_subsets_missing_a_required_member_list_the_scan_violations_when_read():
    idx = arknit.knit_indecomposables(nakayama_rad2(7, p=2))
    n, required = len(idx.modules), idx.ct_required_members(2)
    assert required == frozenset(arknit._indices(idx.ct_required(2))) and len(required) == 8
    cases = [frozenset(range(n)) - {x} for x in sorted(required)]
    cases += [frozenset(S) for r in range(3) for S in itertools.combinations(range(n), r)]
    reports = [(hc.Subcat.of(idx, S), hc.is_d_cluster_tilting(hc.Subcat.of(idx, S), 2)) for S in cases]
    assert not any(rep.ok for _, rep in reports)
    for C, rep in reports:
        assert not hasattr(rep, "__dict__")
        assert rep.violations == _scan_is_d_cluster_tilting(C, 2).violations


@pytest.mark.parametrize("name", sorted(CENSUS_ALGEBRAS))
def test_members_required_at_d2_are_the_projectives_and_injectives(name):
    idx = arknit.knit_indecomposables(CENSUS_ALGEBRAS[name]())
    n = len(idx.modules)
    assert idx.ct_required(2) == sum(1 << x for x in range(n) if idx.is_projective(x) or idx.is_injective(x))
    # d = 1 requires every member: mod A is the one 1-CT subcategory
    assert idx.ct_required(1) == (1 << n) - 1
