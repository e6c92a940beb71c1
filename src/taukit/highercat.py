"""Higher cluster-tilting machinery inside mod A.

A subcategory is the additive closure of finitely many indecomposables
from a complete index.  Approximations are component lists, one copy of X
per basis element of Hom(X, M); a minimal one drops in one pass each copy
whose component factors through the others kept, then builds its one sum.
Each d-pullback or gluing stage is a kernel and a minimal approximation of
it, and each lift is one factorization through a stage map: nothing is
searched.  The gluing grid compares its terms as census multisets.

Only the contravariant constructions are implemented: right
approximations, right C-resolutions and Hom(C, -)-exactness.  Each
covariant one is its contravariant twin transported by the duality
D = Hom_K(-, K): mod A -> mod A^op, which turns left approximations of M
by the X into right approximations of D M by the D X.  The left
construction runs the right one on the duals and dualizes the result back.
"""

from __future__ import annotations

from collections import Counter, namedtuple

from . import modcat as mc
from .arknit import IndecIndex
from .exactlin import Mat, rank


class FailedResolutionError(Exception):
    pass


class NotTwoExactError(Exception):
    pass


class Subcat(namedtuple("Subcat", "host members")):
    """add of a set of indecomposables (by index) inside a host category."""

    __slots__ = ()

    @classmethod
    def of(cls, host: IndecIndex, indices) -> "Subcat":
        idxs = frozenset(indices)
        for i in idxs:
            if not 0 <= i < len(host.modules):
                raise ValueError(f"member index {i} out of range")
        return cls(host, idxs)

    def member_list(self):
        return sorted(self.members)

    def modules(self):
        return [self.host.modules[i] for i in self.member_list()]

    def contains(self, M) -> bool:
        """Whether M lies in add of the members."""
        return all(i in self.members for i in self.host.summand_indices(M))

    def key(self):
        return tuple(self.member_list())

    def dim_vectors(self):
        return [list(self.host.modules[i].dim_vector()) for i in self.member_list()]


class ExactSeq:
    """A chain M_0 -> M_1 -> ... -> M_k with consecutive composites zero."""

    def __init__(self, modules: list, maps: list):
        if len(maps) != len(modules) - 1:
            raise ValueError("need one map fewer than modules")
        self.modules = modules
        self.maps = maps

    def is_complex(self) -> bool:
        for f, g in zip(self.maps, self.maps[1:]):
            if not g.compose(f).is_zero():
                return False
        return True

    def is_exact(self, mono_start: bool = True, epi_end: bool = True) -> bool:
        if not self.is_complex():
            return False
        if mono_start and self.maps and not self.maps[0].is_mono():
            return False
        if epi_end and self.maps and not self.maps[-1].is_epi():
            return False
        A = self.modules[0].algebra
        for i in range(1, len(self.modules) - 1):
            f, g = self.maps[i - 1], self.maps[i]
            for v in A.vertices:
                if rank(f.mats[v]) + rank(g.mats[v]) != self.modules[i].dims[v]:
                    return False
        return True

    def to_json(self) -> dict:
        A = self.modules[0].algebra
        return {
            "modules": [list(m.dim_vector()) for m in self.modules],
            "maps": [{v: [list(r) for r in f.mats[v].data] for v in A.vertices}
                     for f in self.maps],
        }


def dual_seq(seq: ExactSeq) -> ExactSeq:
    """D of a chain: the dual modules and maps, in reverse order."""
    return ExactSeq([mc.dual(m) for m in reversed(seq.modules)],
                    [mc.dual_map(f) for f in reversed(seq.maps)])


# -- approximations -------------------------------------------------------------


class Approximation:
    """An approximation kept with its per-copy components."""

    def __init__(self, map: mc.ModMap, components: list):
        self.map = map
        self.components = components

    @property
    def source(self):
        return self.map.source

    @property
    def target(self):
        return self.map.target


def _approximation_from(components, M) -> Approximation:
    """The map from the direct sum of the components' sources to M."""
    if not components:
        return Approximation(mc.ModMap.zero(mc.zero_module(M.algebra), M), [])
    ds = mc.direct_sum(M.algebra, [f.source for f in components])
    return Approximation(mc.map_from_sum(ds, components), components)


def _dual_approximation(approx: Approximation) -> Approximation:
    return Approximation(mc.dual_map(approx.map), [mc.dual_map(f) for f in approx.components])


def _right_components(members, M) -> list:
    """One component per basis hom X -> M, for X among the members."""
    return [g for X in members for g in mc.hom_basis(X, M)]


def right_full_approximation(members, M) -> Approximation:
    """Multiplicity-full right approximation: one copy of X per basis hom X -> M."""
    return _approximation_from(_right_components(members, M), M)


def left_full_approximation(M, members) -> Approximation:
    """Multiplicity-full left approximation M -> X-copies, the dual of the
    right approximation of D M by the D X."""
    duals = [mc.dual(X) for X in members]
    return _dual_approximation(right_full_approximation(duals, mc.dual(M)))


def is_right_approximation(f: mc.ModMap, members) -> bool:
    return all(mc.factor_through([f], g) is not None
               for X in members for g in mc.hom_basis(X, f.target))


def _minimal_components(comps) -> list:
    """Strip summand copies of a right approximation in one pass.

    The kept copies stay an approximation at every step, so copy c can go
    exactly when its component factors through the other kept copies: a map
    through c then reroutes through them, and c's source is one of the
    members.  A copy that must stay is still needed after later drops.
    """
    keep = list(range(len(comps)))
    for c in range(len(comps)):
        rest = [i for i in keep if i != c]
        if mc.factor_through([comps[i] for i in rest], comps[c]) is not None:
            keep = rest
    return [comps[i] for i in keep]


def minimize_approximation(approx: Approximation) -> Approximation:
    return _approximation_from(_minimal_components(approx.components), approx.target)


def right_min_approximation(members, M) -> Approximation:
    """Minimized on the components, so the one direct sum built is the minimal one."""
    return _approximation_from(_minimal_components(_right_components(members, M)), M)


def left_min_approximation(M, members) -> Approximation:
    """Minimal left approximation, the dual of the minimal right one of D M."""
    duals = [mc.dual(X) for X in members]
    return _dual_approximation(right_min_approximation(duals, mc.dual(M)))


# -- d-cluster-tilting ------------------------------------------------------------


class CTReport:
    def __init__(self, ok: bool, violations):
        self.ok = ok
        self._violations = violations  # (degree, candidate, member, side), or a function listing them

    @property
    def violations(self) -> list:
        if callable(self._violations):
            self._violations = self._violations()
        return self._violations

    def __eq__(self, other) -> bool:
        return isinstance(other, CTReport) and (self.ok, self.violations) == (other.ok, other.violations)


def is_d_cluster_tilting(C: Subcat, d: int) -> CTReport:
    """Both Ext-orthogonality equalities, read off the census Ext bitmasks.

    For each host index x, the members m with Ext^i(m, x) != 0 or Ext^i(x, m)
    != 0 for some 0 < i < d are one AND with the member mask and the OR of the
    degrees, kept per d.  A C that leaves out a member of `ct_required(d)`,
    at d = 2 a projective or an injective, fails on one AND before that scan.
    The verdict stops at the first failing x; violations are listed only when
    read.  A witness is the lowest such member at its lowest such degree.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    idx = C.host
    mask = 0
    for m in C.members:
        mask |= 1 << m
    required = idx.ct_required(d)
    if mask & required == required:
        rows, cols = idx.ext_masks_below(d)
        if all(not (rows[x] | cols[x]) & mask if mask >> x & 1 else rows[x] & mask and cols[x] & mask
               for x in range(len(idx.modules))):
            return CTReport(True, [])
    return CTReport(False, lambda: _ct_violations(idx, mask, d))


def _ct_violations(idx, mask: int, d: int) -> list:
    degrees, (right_of, left_of) = [idx.ext_masks(i) for i in range(1, d)], idx.ext_masks_below(d)
    violations = []
    for x in range(len(idx.modules)):
        left, right = left_of[x] & mask, right_of[x] & mask
        if not mask >> x & 1:
            if not left:
                violations.append((0, x, x, "left orthogonal module missing from C"))
            if not right:
                violations.append((0, x, x, "right orthogonal module missing from C"))
            continue
        if left:
            m = (left & -left).bit_length() - 1
            i = next(i for i, (_, cols) in enumerate(degrees, 1) if cols[x] >> m & 1)
            violations.append((i, m, x, "ext(member, X) nonzero"))
        if right:
            m = (right & -right).bit_length() - 1
            i = next(i for i, (rows, _) in enumerate(degrees, 1) if rows[x] >> m & 1)
            violations.append((i, x, m, "ext(X, member) nonzero"))
    return violations


# -- C-resolutions ------------------------------------------------------------------


def c_resolution(C: Subcat, M, side: str, d: int) -> ExactSeq:
    """Right: 0 -> C_{d-1} -> ... -> C_0 -> M -> 0.

    Left: 0 -> M -> C_0 -> ... -> C_{d-1} -> 0, the dual of the right
    resolution of D M by the duals of the members.
    """
    if side not in ("right", "left"):
        raise ValueError("side must be 'right' or 'left'")
    if side == "left":
        duals = [mc.dual(X) for X in C.modules()]
        return dual_seq(_right_resolution(duals, lambda K: C.contains(mc.dual(K)),
                                          mc.dual(M), d))
    return _right_resolution(C.modules(), C.contains, M, d)


def _right_resolution(members, contains, M, d: int) -> ExactSeq:
    """0 -> C_{d-1} -> ... -> C_0 -> M -> 0 from iterated full right
    approximations by the members; contains tests membership in their add."""
    if contains(M):
        seq = ExactSeq([M, M], [mc.ModMap.identity(M)])
        _check_c_exactness(seq, members)
        return seq
    if d < 2:
        raise FailedResolutionError("module outside C admits no length-0 resolution")
    modules = [M]
    maps: list = []
    cur = M
    inclusion = None
    for step in range(d - 1):
        approx = right_full_approximation(members, cur)
        if not approx.map.is_epi():
            raise FailedResolutionError("right approximation is not epi")
        g = approx.map if inclusion is None else inclusion.compose(approx.map)
        modules.insert(0, approx.source)
        maps.insert(0, g)
        K, incl = mc.kernel(approx.map)
        if K.is_zero():
            break
        if step == d - 2:
            if not contains(K):
                raise FailedResolutionError("final kernel not in the subcategory")
            modules.insert(0, K)
            maps.insert(0, incl)
        else:
            cur = K
            inclusion = incl
    seq = ExactSeq(modules, maps)
    if not seq.is_exact():
        raise FailedResolutionError("resolution is not exact")
    _check_c_exactness(seq, members)
    return seq


def hom_exactness_probe(seq: ExactSeq, members, side: str) -> bool:
    """Exactness of the induced hom complexes against every member.

    side 'right': Hom(C, -) applied to the sequence must be exact, including
    injectivity at the first spot and surjectivity at the last.  side 'left':
    Hom(-, C) dually, which is the 'right' probe of the dual sequence
    against the dual members.
    """
    if side == "left":
        return hom_exactness_probe(dual_seq(seq), [mc.dual(X) for X in members], "right")
    A = seq.modules[0].algebra
    field = A.field
    for C0 in members:
        spaces = [mc.hom_basis(C0, m) for m in seq.modules]
        dims = [len(s) for s in spaces]
        ranks = []
        for i, f in enumerate(seq.maps):
            vecs = [mc.hom_to_vector(f.compose(phi)) for phi in spaces[i]]
            length = sum(seq.modules[i + 1].dims[v] * C0.dims[v] for v in A.vertices)
            m = Mat.from_rows(field, vecs, cols=length) if vecs else Mat.zeros(field, 0, length)
            ranks.append(rank(m))
        if not ranks:
            continue
        if ranks[0] != dims[0]:
            return False
        for i in range(1, len(dims) - 1):
            if ranks[i - 1] + ranks[i] != dims[i]:
                return False
        if ranks[-1] != dims[-1]:
            return False
    return True


def _check_c_exactness(seq: ExactSeq, members):
    if not hom_exactness_probe(seq, members, "right"):
        raise FailedResolutionError("hom-exactness probe failed")


# -- the d-pullback construction --------------------------------------------------


def _stage(C: Subcat, phi: mc.ModMap) -> mc.ModMap:
    """The kernel of phi covered from C: its inclusion when the kernel lies in
    C, else the inclusion after a minimal right C-approximation of it."""
    K, incl = mc.kernel(phi)
    if C.contains(K):
        return incl
    approx = right_min_approximation(C.modules(), K)
    if not approx.map.is_epi():
        raise FailedResolutionError("stage approximation is not epi")
    return incl.compose(approx.map)


class DPullback:
    def __init__(self, lifted: ExactSeq, connecting: ExactSeq, verticals: list):
        self.lifted = lifted          # 0 -> Y0 -> X1 -> ... -> X_{d+1} -> 0
        self.connecting = connecting  # 0 -> X1 -> X2+Y1 -> ... -> Y_{d+1} -> 0
        self.verticals = verticals    # X_k -> Y_k for k = 1..d+1


def d_pullback(C: Subcat, seq: ExactSeq, f: mc.ModMap) -> DPullback:
    """Lift a d-exact sequence along a map into its last term.

    Stage k covers the kernel of the connecting-sequence differential
    X_{k+1} + Y_k -> X_{k+2} + Y_{k+1} from C; at the top stage that kernel
    is the plain pullback over Y_{d+1}.  The differentials and the first
    stage map X_1 -> X_2 + Y_1 are the connecting sequence, and the start map
    Y_0 -> X_1 is one factorization through that stage map.  Exactness of
    both output rows is verified.
    """
    d = len(seq.modules) - 2
    if d < 1:
        raise ValueError("sequence too short")
    if not seq.is_exact():
        raise NotTwoExactError("base sequence is not exact")
    for m in seq.modules[1:-1]:
        if not C.contains(m):
            raise NotTwoExactError("interior terms must lie in the subcategory")
    if f.target.dims != seq.modules[-1].dims:
        raise ValueError("f must land in the last term")
    A = seq.modules[0].algebra
    X = {d + 1: f.source}
    c = {d + 1: f}
    h = {}
    modules, maps = [seq.modules[d + 1]], []
    tgt = None  # the previous stage's sum X_{k+2} + Y_{k+1}
    for k in range(d, 0, -1):
        ds = mc.direct_sum(A, [X[k + 1], seq.modules[k]])
        if tgt is None:
            phi = mc.map_from_sum(ds, [c[k + 1], seq.maps[k].scale(-1)])
        else:
            blocks = {
                (0, 0): h[k + 1],
                (1, 0): c[k + 1],
                (1, 1): seq.maps[k].scale(-1),
            }
            phi = mc.block_map(ds, tgt, blocks)
        comp = _stage(C, phi)
        X[k] = comp.source
        h[k] = ds.projections[0].compose(comp)
        c[k] = ds.projections[1].compose(comp)
        modules.insert(0, ds.module)
        maps.insert(0, phi)
        tgt = ds
    Y0 = seq.modules[0]
    lift = mc.factor_through([comp], mc.map_into_sum(tgt, [mc.ModMap.zero(Y0, X[2]),
                                                           seq.maps[0]]))
    if lift is None:
        raise FailedResolutionError("start map does not lift through the first stage")
    s = lift[0]
    lifted = ExactSeq([Y0] + [X[k] for k in range(1, d + 2)],
                      [s] + [h[k] for k in range(1, d + 1)])
    if not lifted.is_exact():
        raise FailedResolutionError("lifted row is not exact")
    for k in range(1, d + 1):
        if not c[k + 1].compose(h[k]).sub(seq.maps[k].compose(c[k])).is_zero():
            raise FailedResolutionError("lifted square does not commute")
    if not seq.maps[0].sub(c[1].compose(s)).is_zero():
        raise FailedResolutionError("start square does not commute")
    connecting = ExactSeq([X[1]] + modules, [comp] + maps)
    if not connecting.is_exact():
        raise FailedResolutionError("connecting sequence is not exact")
    return DPullback(lifted, connecting, [c[k] for k in range(1, d + 2)])


# -- the gluing lemmas ---------------------------------------------------------------


class GlueDiagram:
    def __init__(self, P, Q, R, S, maps: dict, rows: list, columns: list, split_R: bool,
                 split_S: bool, no_common_summand: bool, compact: dict | None):
        self.P = P
        self.Q = Q
        self.R = R
        self.S = S
        self.maps = maps
        self.rows = rows
        self.columns = columns
        self.split_R = split_R
        self.split_S = split_S
        self.no_common_summand = no_common_summand
        self.compact = compact

    def to_json(self) -> dict:
        out = {
            "P": list(self.P.dim_vector()),
            "Q": list(self.Q.dim_vector()),
            "R": list(self.R.dim_vector()),
            "S": list(self.S.dim_vector()),
            "rows": [r.to_json() for r in self.rows],
            "columns": [col.to_json() for col in self.columns],
            "split_R_iso_Q_plus_Mprime": self.split_R,
            "split_S_iso_Q_plus_M": self.split_S,
            "no_common_summand": self.no_common_summand,
        }
        if self.compact is not None:
            out["compact"] = {
                "Pprime": list(self.compact["Pprime"].dim_vector()),
                "sequence": self.compact["sequence"].to_json(),
            }
        return out


def glue_two_resolutions(C: Subcat, seqA: ExactSeq, seqB: ExactSeq) -> GlueDiagram:
    """The commuting grid comparing two 2-exact sequences ending at the same X.

    Built from two stacked lifts: seqB is lifted along N -> X, producing the
    middle row 0 -> L' -> R -> P -> N -> 0, and that row is lifted along
    M -> N, producing 0 -> L' -> Q -> S -> M -> 0.
    """
    if seqA.modules[0].algebra != seqB.modules[0].algebra:
        raise ValueError("sequences live over different algebras")
    if len(seqA.modules) != 4 or len(seqB.modules) != 4:
        raise NotTwoExactError("need sequences 0 -> L -> M -> N -> X -> 0")
    for s in (seqA, seqB):
        if not s.is_exact():
            raise NotTwoExactError("input sequence is not 2-exact")
        for m in s.modules:
            if not C.contains(m):
                raise NotTwoExactError("all terms must lie in the subcategory")
    if C.host.summand_indices(seqA.modules[-1]) != C.host.summand_indices(seqB.modules[-1]):
        raise NotTwoExactError("sequences must end at the same module")
    L, M, N, _ = seqA.modules
    Lp, Mp, Np, _ = seqB.modules
    a0, a1, a2 = seqA.maps

    dp1 = d_pullback(C, seqB, a2)
    # row3: 0 -> L' -> R -> P -> N -> 0 with verticals R -> M', P -> N'
    _, R, P, _ = dp1.lifted.modules
    l_R, r_P, p_N = dp1.lifted.maps
    r_Mp, p_Np = dp1.verticals[0], dp1.verticals[1]

    # column 4: 0 -> L -> S -> P -> N' -> 0 from the stage over
    # K_S = {(p, m): p_Np p = 0 and p_N p = a1 m}
    A = L.algebra
    dsPM = mc.direct_sum(A, [P, M])
    dsNN = mc.direct_sum(A, [Np, N])
    compS = _stage(C, mc.block_map(dsPM, dsNN,
                                   {(0, 0): p_Np, (1, 0): p_N, (1, 1): a1.scale(-1)}))
    S = compS.source
    s_P = dsPM.projections[0].compose(compS)
    s_M = dsPM.projections[1].compose(compS)
    lift = mc.factor_through([compS], mc.map_into_sum(dsPM, [mc.ModMap.zero(L, P), a0]))
    if lift is None:
        raise FailedResolutionError("L does not lift through the S-stage")
    l_S = lift[0]

    # Q: split off M' from R
    if mc.factor_through([r_Mp], mc.ModMap.identity(Mp)) is None:
        raise NotTwoExactError("R does not split over M'")
    Q, q_R = mc.kernel(r_Mp)
    if not C.contains(Q):
        raise NotTwoExactError("split complement Q leaves the subcategory")
    # once column 4 is exact, (s_P, s_M): S -> P + M is mono (s_M l_S = a0 is),
    # so this is the only Q -> S map commuting over P and killed by s_M
    lift = mc.factor_through([compS], mc.map_into_sum(dsPM, [r_P.compose(q_R),
                                                             mc.ModMap.zero(Q, M)]))
    if lift is None:
        raise NotTwoExactError("no Q -> S map compatible with the grid")
    q_S = lift[0]

    row2 = ExactSeq([Q, S, M], [q_S, s_M])
    row3 = dp1.lifted
    col3 = ExactSeq([Q, R, Mp], [q_R, r_Mp])
    col4 = ExactSeq([L, S, P, Np], [l_S, s_P, p_Np])
    checks = {
        "row2": row2.is_exact(mono_start=False, epi_end=True),
        "row3": row3.is_exact(mono_start=True, epi_end=True),
        "col3": col3.is_exact(mono_start=False, epi_end=True),
        "col4": col4.is_exact(mono_start=True, epi_end=True),
    }
    if not all(checks.values()):
        raise NotTwoExactError(f"grid exactness failed: {checks}")
    squares = [
        s_P.compose(q_S).sub(r_P.compose(q_R)),
        a1.compose(s_M).sub(p_N.compose(s_P)),
        seqB.maps[1].compose(r_Mp).sub(p_Np.compose(r_P)),
        a2.compose(p_N).sub(seqB.maps[2].compose(p_Np)),
        a0.sub(s_M.compose(l_S)),
    ]
    if any(not sq.is_zero() for sq in squares):
        raise NotTwoExactError("grid square does not commute")

    # every term lies in add C, so Krull-Schmidt makes iso classes census multisets
    mP, mQ, mR, mS, mM, mMp = (Counter(C.host.summand_indices(X))
                               for X in (P, Q, R, S, M, Mp))
    split_R = mR == mQ + mMp
    split_S = mS == mQ + mM
    no_common = not mP & mQ

    compact = None
    if mMp <= mP:
        Pprime = mc.direct_sum(A, [C.host.modules[i] for i in sorted((mP - mMp).elements())])
        compact = {"Pprime": Pprime.module, "sequence": col4}

    maps = {
        "p_N": p_N, "p_Nprime": p_Np, "s_M": s_M, "s_P": s_P,
        "r_Mprime": r_Mp, "r_P": r_P, "q_S": q_S, "q_R": q_R,
        "l_S": l_S, "l_R": l_R,
    }
    return GlueDiagram(P, Q, R, S, maps, [row2, row3, seqB], [col3, col4, seqA],
                       split_R, split_S, no_common, compact)

