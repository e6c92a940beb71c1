"""Torsion pairs inside a fixed 2-cluster-tilting subcategory.

Candidate torsion classes are subsets of the indecomposables of C; the
2-functorial finiteness conditions are checked with multiplicity-full
approximations, whose failure implies failure for every approximation
(anything else factors through the full one).  Every term of that check
lies in add C, which is equivalent to proj Gamma for Gamma = End_A(+C)
(Auslander), so it is decided on the composition table of Gamma that the
census keeps (`IndecIndex.compose`), building no modules.  The 2-covariant
check is the same one on the opposite table, Gamma^op.
"""

from __future__ import annotations

import itertools
import random

from . import highercat as hc
from . import modcat as mc
from .exactlin import Mat, kernel_basis, rank
from .highercat import ExactSeq, Subcat


# pushout_lift_check's bounds: copies of each member of T, seeded tries per stage
LIFT_MAX_MULT = 3
LIFT_TRIES = 64


class TooLargeError(Exception):
    pass


class SequenceFailedError(Exception):
    """A canonical sequence failed for a supposedly verified pair."""


class FinitenessCert:
    """The probing sequence of one member M of C, as multiplicities over C.

    x1[t] and x2[t] count the copies of the t-th member of C in X1 and X2 of
    X2 -> X1 -> M ("contra"), or in X^1 and X^2 of M -> X^1 -> X^2 ("co").
    """

    def __init__(self, side: str, member: int, x1: list, x2: list):
        self.side = side
        self.member = member
        self.x1 = x1
        self.x2 = x2

    def chain(self, C: Subcat) -> list:
        """The dim vectors of the sequence, in the order of its terms."""
        dims = [C.host.modules[t].dim_vector() for t in C.member_list()]

        def total(mults):
            return [sum(m * d[v] for m, d in zip(mults, dims))
                    for v in range(len(C.host.algebra.vertices))]

        terms = [total(self.x2), total(self.x1),
                 list(C.host.modules[self.member].dim_vector())]
        return terms if self.side == "contra" else terms[::-1]


class _Table:
    """Hom dimensions and composition in Gamma = End(+C), or in Gamma^op.

    Hom^op(i, j) = Hom(j, i) and a o^op b = b o a, so the covariant reading
    of a table entry swaps the roles of the two factors.
    """

    def __init__(self, idx, side: str):
        self.idx, self.op = idx, side == "co"

    def dim(self, i: int, j: int) -> int:
        return len(self.idx.hom_basis(j, i) if self.op else self.idx.hom_basis(i, j))

    def product(self, i: int, j: int, k: int, a: int, b: int) -> tuple:
        """Coordinates of a o b, a in Hom(j, k) and b in Hom(i, j)."""
        if self.op:
            return self.idx.compose(k, j, i)[b][a]
        return self.idx.compose(i, j, k)[a][b]


def is_2_finite(X: Subcat, C: Subcat, side: str):
    """2-contravariant ('contra') or 2-covariant ('co') finiteness of X in C.

    Decided in Gamma = End_A(+C), since add C is equivalent to proj Gamma:
    every term below lies in add C, so the check is linear algebra on the
    composition table of the census (`IndecIndex.compose`); the covariant
    side is the same check on Gamma^op.  For each member M of C, X1 -> M is
    the multiplicity-full right X-approximation and K its kernel.  Hom is
    left exact, so Hom(Y, K) = ker F_Y for F_Y: Hom(Y, X1) -> Hom(Y, M).
    The member passes when, for every C0 in C, each map C0 -> K factors
    through add X, i.e. Hom(C0, X2) -> Hom(C0, X1) -> Hom(C0, M) is exact
    at the middle for the full X-approximation X2 -> K.

    Returns (ok, certificates) where certificates maps each member index of C
    to its `FinitenessCert`.  The check stops at the first member that fails,
    so the certificates are complete only when ok is True.
    """
    if side not in ("contra", "co"):
        raise ValueError("side must be 'contra' or 'co'")
    table = _Table(C.host, side)
    field = C.host.algebra.field
    xs, cs = X.member_list(), C.member_list()
    certs = {}
    for M in cs:
        copies = [(x, b) for x in xs for b in range(table.dim(x, M))]
        kernels = {x: kernel_basis(_restriction(table, field, copies, x, M)) for x in xs}
        certs[M] = FinitenessCert(side, M,
                                  [table.dim(t, M) if t in X.members else 0 for t in cs],
                                  [len(kernels[t]) if t in X.members else 0 for t in cs])
        # a member C0 of X passes: every map C0 -> K factors through C0 itself
        if not all(_kernel_maps_factor(table, field, copies, kernels, C0,
                                       _restriction(table, field, copies, C0, M))
                   for C0 in cs if C0 not in X.members):
            return False, certs
    return True, certs


def _restriction(table, field, copies, Y, M) -> Mat:
    """F_Y: Hom(Y, X1) -> Hom(Y, M), with X1 the sum of the copies (x, b).

    Columns run over the copies and, inside each, over the basis maps Y -> x.
    """
    cols = [table.product(Y, x, M, b, c) for x, b in copies for c in range(table.dim(Y, x))]
    return Mat.from_columns(field, cols, rows=table.dim(Y, M))


def _kernel_maps_factor(table, field, copies, kernels, C0, F) -> bool:
    """Whether the maps C0 -> x' -> K (x' in X) span Hom(C0, K) = ker F."""
    kernel_dim = F.cols - rank(F)
    if kernel_dim == 0:
        return True
    spans = []
    for xp, psis in kernels.items():
        for d in range(table.dim(C0, xp)):
            # the basis maps x' -> x, each composed with the d-th basis map C0 -> x'
            comps = {x: [table.product(C0, xp, x, c, d) for c in range(table.dim(xp, x))]
                     for x in kernels}
            for psi in psis:
                coords = iter(psi)
                vec = []
                for x, _ in copies:
                    block = [0] * table.dim(C0, x)
                    for comp in comps[x]:
                        coef = next(coords)
                        for e, val in enumerate(comp):
                            block[e] += coef * val
                    vec.extend(block)
                spans.append(vec)
    return rank(Mat.from_rows(field, spans, cols=F.cols)) == kernel_dim


class TorsPair2FF:
    def __init__(self, C: Subcat, T: Subcat, F: Subcat):
        self.C = C
        self.T = T
        self.F = F

    def key(self):
        return (self.T.key(), self.F.key())

    def to_json(self, include_certs: bool = False) -> dict:
        out = {
            "torsion": self.T.dim_vectors(),
            "torsion_free": self.F.dim_vectors(),
        }
        if include_certs:
            def chain(seq):
                return [list(m.dim_vector()) for m in seq.modules]

            all_certs = {}
            for X, name in ((self.T, "T"), (self.F, "F")):
                for side in ("contra", "co"):
                    ok, certs = is_2_finite(X, self.C, side)
                    if not ok:
                        raise SequenceFailedError(f"{name} is not 2-{side}variantly finite")
                    all_certs[f"{name}_{side}"] = certs
            out["finiteness_certificates"] = {
                name: {str(mi): cert.chain(self.C) for mi, cert in sorted(certs.items())}
                for name, certs in sorted(all_certs.items())
            }
            out["canonical_sequences"] = {
                str(mi): chain(canonical_sequence(self, self.C.host.modules[mi]))
                for mi in self.C.member_list()
            }
        return out


def is_torsion_pair_2ff(T: Subcat, F: Subcat, C: Subcat):
    """All torsion-pair axioms plus 2-functorial finiteness of both halves.

    Returns (ok, witness) with a human-readable witness on failure.
    """
    idx = C.host
    for t in T.member_list():
        for f in F.member_list():
            if idx.hom_dim(t, f) != 0:
                return False, f"hom({t},{f}) nonzero"
    perp_F = {x for x in C.member_list()
              if all(idx.hom_dim(x, f) == 0 for f in F.member_list())}
    if perp_F != set(T.member_list()):
        return False, f"torsion part not maximal: {sorted(perp_F)}"
    T_perp = {y for y in C.member_list()
              if all(idx.hom_dim(t, y) == 0 for t in T.member_list())}
    if T_perp != set(F.member_list()):
        return False, f"torsion-free part not maximal: {sorted(T_perp)}"
    for X, name in ((T, "T"), (F, "F")):
        for side in ("contra", "co"):
            ok, _ = is_2_finite(X, C, side)
            if not ok:
                return False, f"{name} not 2-{side}variantly finite"
    return True, None


def canonical_sequence(pair: TorsPair2FF, M) -> ExactSeq:
    """T_M -> M -> F_M with the approximation maps, exact at M."""
    t_ap = hc.right_full_approximation(pair.T.modules(), M)
    f_ap = hc.left_full_approximation(M, pair.F.modules())
    comp = f_ap.map.compose(t_ap.map)
    if not comp.is_zero():
        raise SequenceFailedError("composite T_M -> M -> F_M is nonzero")
    A = M.algebra
    for v in A.vertices:
        if rank(t_ap.map.mats[v]) + rank(f_ap.map.mats[v]) != M.dims[v]:
            raise SequenceFailedError("sequence not exact at the middle term")
    return ExactSeq([t_ap.source, M, f_ap.target], [t_ap.map, f_ap.map])


class PushoutLift:
    def __init__(self, ok: bool, row: ExactSeq | None = None, verticals: list | None = None,
                 obstruction: str | None = None, low_confidence: bool = False):
        self.ok = ok
        self.row = row
        self.verticals = verticals
        self.obstruction = obstruction
        self.low_confidence = low_confidence


def _add_objects(T: Subcat):
    """Objects of add T with per-summand multiplicity <= LIFT_MAX_MULT, by total dim."""
    members = T.modules()
    combos = []
    for mults in itertools.product(range(LIFT_MAX_MULT + 1), repeat=len(members)):
        if sum(mults) == 0:
            continue
        total = sum(m * X.total_dim for m, X in zip(mults, members))
        combos.append((total, mults))
    combos.sort()
    A = T.host.algebra
    for _, mults in combos:
        parts = []
        for m, X in zip(mults, members):
            parts.extend([X] * m)
        yield mc.direct_sum(A, parts).module


def pushout_lift_check(T: Subcat, C: Subcat, seq: ExactSeq) -> PushoutLift:
    """Search for a lift 0 -> T0' -> T1' -> T2' -> T3 -> 0 over the sequence.

    The sequence must be 2-exact in C with both end terms in add T.  Rows of
    the found diagram are exact, the verticals commute, and every primed term
    lies in add T.  Exhausting the bounded search yields NO_LIFT with a low
    confidence flag rather than a counterexample claim.
    """
    if len(seq.modules) != 4:
        raise ValueError("need a 4-term sequence")
    if not seq.is_exact():
        raise ValueError("sequence is not 2-exact")
    T0, Xm, Ym, T3 = seq.modules
    if not (T.contains(T0) and T.contains(T3)):
        raise ValueError("end terms must lie in add T")
    A = T0.algebra
    rng = random.Random(0)
    if T.contains(Xm) and T.contains(Ym):
        ident = [mc.ModMap.identity(m) for m in seq.modules]
        return PushoutLift(True, seq, ident)

    w1, w2, w3 = seq.maps  # T0 -> X, X -> Y, Y -> T3

    for T2p in _add_objects(T):
        u = _find_u(T2p, Ym, T3, w3, rng)
        if u is None:
            continue
        v_map = w3.compose(u)
        ker_v = {vx: T2p.dims[vx] - rank(v_map.mats[vx]) for vx in A.vertices}
        for T1p in _add_objects(T):
            lift = _solve_middle_stage(T, seq, T2p, u, v_map, ker_v, T1p, rng)
            if lift is not None:
                return lift
    return PushoutLift(False, obstruction="bounded search exhausted",
                       low_confidence=True)


def _find_u(T2p, Ym, T3, w3, rng):
    """Some u: T2' -> Y with w3 o u epi, by bounded max-rank search."""
    A = Ym.algebra
    hom_u = mc.hom_basis(T2p, Ym)
    if not hom_u:
        return None
    targets = {v: T3.dims[v] for v in A.vertices}

    def hits(cand):
        comp = w3.compose(cand)
        return all(rank(comp.mats[v]) == targets[v] for v in A.vertices)

    for b in hom_u:
        if hits(b):
            return b
    for _ in range(LIFT_TRIES):
        cand = mc.ModMap.zero(T2p, Ym)
        for b in hom_u:
            c = rng.randrange(A.field.p)
            if c:
                cand = cand.add(b.scale(c))
        if hits(cand):
            return cand
    return None


def _solve_middle_stage(T, seq, T2p, u, v_map, ker_v, T1p, rng):
    """Find w: T1' -> T2' and d1: T1' -> X completing the lift, or None."""
    T0, Xm, Ym, T3 = seq.modules
    w1, w2, w3 = seq.maps
    A = T0.algebra
    field = A.field
    basis_w = mc.hom_basis(T1p, T2p)
    basis_d = mc.hom_basis(T1p, Xm)
    if not basis_w:
        return None
    # linear constraints: v o w = 0 and u o w = w2 o d1
    cols = []
    for b in basis_w:
        cols.append(mc.hom_to_vector(v_map.compose(b)) + mc.hom_to_vector(u.compose(b)))
    for b in basis_d:
        zero_part = tuple(0 for _ in mc.hom_to_vector(v_map.compose(basis_w[0])))
        cols.append(zero_part + tuple((-x) % field.p for x in mc.hom_to_vector(w2.compose(b))))
    total_len = len(cols[0])
    mat = Mat.from_columns(field, cols, rows=total_len)
    sols = kernel_basis(mat)
    if not sols:
        return None

    def build(coeffs):
        w = mc.ModMap.zero(T1p, T2p)
        d = mc.ModMap.zero(T1p, Xm)
        for c, b in zip(coeffs[:len(basis_w)], basis_w):
            if c:
                w = w.add(b.scale(c))
        for c, b in zip(coeffs[len(basis_w):], basis_d):
            if c:
                d = d.add(b.scale(c))
        return w, d

    candidates = list(sols)[:LIFT_TRIES]
    rng_combo = []
    for _ in range(LIFT_TRIES):
        coeffs = [0] * (len(basis_w) + len(basis_d))
        for kv in sols:
            c = rng.randrange(field.p)
            if c:
                coeffs = [(x + c * y) % field.p for x, y in zip(coeffs, kv)]
        rng_combo.append(tuple(coeffs))
    for coeffs in candidates + rng_combo:
        w, d1 = build(coeffs)
        if not all(rank(w.mats[v]) == ker_v[v] for v in A.vertices):
            continue
        T0p, iota = mc.kernel(w)
        if not T.contains(T0p):
            continue
        # vertical T0' -> T0 through the mono T0 -> X, unique when it exists
        lift = mc.factor_through([w1], d1.compose(iota))
        if lift is None:
            continue
        d0 = lift[0]
        row = ExactSeq([T0p, T1p, T2p, T3], [iota, w, w3.compose(u)])
        if not row.is_exact():
            continue
        verticals = [d0, d1, u, mc.ModMap.identity(T3)]
        if not w1.compose(d0).sub(d1.compose(iota)).is_zero():
            continue
        if not w2.compose(d1).sub(u.compose(w)).is_zero():
            continue
        return PushoutLift(True, row, verticals)
    return None


def enumerate_2ff_torsion_pairs(C: Subcat, max_members: int = 20) -> list:
    """All 2-functorially-finite torsion pairs in C, canonically ordered."""
    n = len(C.members)
    if n > max_members:
        raise TooLargeError(f"{n} members exceeds the subset budget {max_members}")
    idx = C.host
    pairs = []
    for r in range(n + 1):
        for S in itertools.combinations(C.member_list(), r):
            Sset = set(S)
            F = frozenset(y for y in C.member_list()
                          if all(idx.hom_dim(t, y) == 0 for t in Sset))
            perp_F = {x for x in C.member_list()
                      if all(idx.hom_dim(x, f) == 0 for f in F)}
            if perp_F != Sset:
                continue
            T = Subcat.of(idx, Sset)
            Fsub = Subcat.of(idx, F)
            ok, _ = is_torsion_pair_2ff(T, Fsub, C)
            if not ok:
                continue
            pairs.append(TorsPair2FF(C, T, Fsub))
    pairs.sort(key=lambda p: p.key())
    return pairs
