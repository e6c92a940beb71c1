"""Torsion pairs inside a fixed 2-cluster-tilting subcategory.

The torsion classes of C are the closed sets T = perp(T^perp) of the Galois
connection "Hom(x, y) = 0" on its members.  They are listed by NextClosure
(Ganter 1984) on the census Hom-support bitmasks (`IndecIndex.hom_masks`),
where each perp is a few ANDs, and only they are checked, for the
2-functorial finiteness of both halves.  That check uses multiplicity-full
approximations, whose failure implies failure for every approximation
(anything else factors through the full one).  Every term of it lies in
add C, which is equivalent to proj Gamma for Gamma = End_A(+C) (Auslander),
so it is decided on the composition table of Gamma that the census keeps,
building no modules: each Hom(Y, -) of a map is one
`IndecIndex.precompose` matrix, read in Gamma^op on the contravariant side
and plainly on the covariant side.  A member M of X needs none: the full
approximation X1 -> M contains id_M, so it splits, and its kernel is a
summand of X1 in add X, so M passes.  Each member M of C reads X only
through N1, the members of X with a nonzero Hom to M, and X & N(N1), the
members of X with a nonzero Hom to N1; its verdict and certificate are kept
on the census under (C, side, M, N1, X & N(N1)).
"""

from __future__ import annotations

import itertools
import random

from . import modcat as mc
from .arknit import _indices, _mask, _perp, _union
from .exactlin import Mat, kernel_basis, rank
from .highercat import ExactSeq, Subcat


# pushout_lift_check's bounds: copies of each member of T, seeded tries per stage
LIFT_MAX_MULT = 3
LIFT_TRIES = 64


class TooLargeError(Exception):
    pass


def member_subsets(C: Subcat, max_members: int):
    """Every subset of C's members, by size; past the budget this call raises TooLargeError."""
    _check_budget(C, max_members)
    n, members = len(C.members), C.member_list()
    return itertools.chain.from_iterable(itertools.combinations(members, r) for r in range(n + 1))


def _check_budget(C: Subcat, max_members: int):
    if len(C.members) > max_members:
        raise TooLargeError(f"{len(C.members)} members exceeds the subset budget {max_members}")


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


def is_2_finite(X: Subcat, C: Subcat, side: str):
    """2-contravariant ('contra') or 2-covariant ('co') finiteness of X in C.

    Decided in Gamma = End_A(+C), since add C is equivalent to proj Gamma:
    every term below lies in add C, so each Hom(Y, -) of a map is one
    `IndecIndex.precompose` matrix.  On the contravariant side it is read in
    Gamma^op (h -> F o h); the covariant side is the same check with every
    map reversed, so it reads `precompose` plainly (h -> h o F).  For each
    member M of C, phi: X1 -> M is the multiplicity-full right
    X-approximation, one copy of x per basis map between x and M, and K its
    kernel.  Hom is left exact, so Hom(Y, K) = ker F_Y for
    F_Y: Hom(Y, X1) -> Hom(Y, M).  The kernel rows of the F_x, x in X,
    stacked, are the full X-approximation psi: X2 -> K.  The member passes
    when, for every C0 in C, each map C0 -> K factors through psi, i.e.
    Hom(C0, X2) -> Hom(C0, X1) -> Hom(C0, M) is exact at the middle.  A
    member M of X passes with no linear algebra: phi contains id_M, so it
    splits, and its certificate is read off one table of Hom dimensions,
    x2[t] = sum_y x1[y] dim Hom(t, y) - dim Hom(t, M) (every Hom reversed on
    the covariant side).

    Each member M of C reads X only through N1, the members of X with a
    nonzero Hom to M, and X & N(N1), N(N1) being the members with a nonzero
    Hom to N1: a member x or C0 outside N(N1) has Hom(x, X1) = 0, so it
    adds no kernel rows and passes, and M lies in X exactly when it lies in
    N1.  M's verdict and certificate are kept on the census under
    (C, side, M, N1, X & N(N1)), as bitmasks.  phi and X1 depend on
    (side, M, N1) alone, so the kernel of each F_y, y an x or a C0, is kept
    under (side, M, N1, y) and shared by every X and C that reach it.

    Returns (ok, certificates) where certificates maps each member index of C
    to its `FinitenessCert`.  The check stops at the first member that fails,
    so the certificates are complete only when ok is True.
    """
    if side not in ("contra", "co"):
        raise ValueError("side must be 'contra' or 'co'")
    idx, cs = C.host, C.member_list()
    into = idx.hom_masks()[1 if side == "contra" else 0]  # the x with Hom(x, M) != 0, or Hom(M, x)
    x_mask, c_mask, memo = _mask(X.members), _mask(cs), idx._finiteness
    certs = {}
    for M in cs:
        n1 = x_mask & into[M]
        near = _union(into, n1)  # N(N1)
        key = (c_mask, side, M, n1, x_mask & near)
        if key not in memo:
            memo[key] = (_member_of_x(idx, cs, side, M, n1, x_mask & near) if n1 >> M & 1 else
                         _outside_member(idx, cs, side, M, n1, x_mask & near, c_mask & near & ~x_mask))
        ok, certs[M] = memo[key]
        if not ok:
            return False, certs
    return True, certs


def _member_of_x(idx, cs: list, side: str, M: int, n1: int, near: int) -> tuple:
    """(True, FinitenessCert) of a member M of X, for `is_2_finite`; n1 and near are N1 and X & N(N1).

    phi contains id_M, so it splits and Hom(t, X1) -> Hom(t, M) is onto; K is a
    summand of X1, so psi splits and every map C0 -> K factors through it.
    """
    def dim(x, y):
        return idx.hom_dim(x, y) if side == "contra" else idx.hom_dim(y, x)

    counts = {x: dim(x, M) for x in _indices(n1)}
    x2 = {t: sum(n * dim(t, y) for y, n in counts.items()) - counts.get(t, 0) for t in _indices(near)}
    return True, FinitenessCert(side, M, [counts.get(t, 0) for t in cs], [x2.get(t, 0) for t in cs])


def _outside_member(idx, cs: list, side: str, M: int, n1: int, kernels_at: int, probes: int) -> tuple:
    """(ok, FinitenessCert) of a member M of C outside X, for `is_2_finite`.

    n1 is N1, the members of X that phi: X1 -> M draws on; kernels_at is
    X & N(N1), the members of X that can map to X1, and probes the members C0
    of C outside X that can.  M passes when no map links X and M (K = 0).  A
    member C0 of X is no probe, as every map C0 -> K factors through C0 itself.
    """
    op = side == "contra"
    counts = {x: idx.hom_dim(x, M) if op else idx.hom_dim(M, x) for x in _indices(n1)}
    x1, phi = _copies(counts.items())

    def kernel(y):
        """ker F_y, kept on the census under (side, M, N1, y): phi and X1 depend on nothing else."""
        key = (side, M, n1, y)
        if key not in idx._approximation_kernels:
            idx._approximation_kernels[key] = kernel_basis(idx.precompose(phi, [M], x1, y, op))
        return idx._approximation_kernels[key]

    kernels = {x: kernel(x) for x in _indices(kernels_at)}
    x2 = [x for x, rows in kernels.items() for _ in rows]
    psi = [row for rows in kernels.values() for row in rows]
    cert = FinitenessCert(side, M, [counts.get(t, 0) for t in cs], [len(kernels.get(t, ())) for t in cs])
    for C0 in _indices(probes):
        kernel_dim = len(kernel(C0))
        if kernel_dim and rank(idx.precompose(psi, x1, x2, C0, op)) != kernel_dim:
            return False, cert
    return True, cert


def _copies(counts) -> tuple:
    """n copies of x for each (x, n) in counts, and the unit row of each: copy b is x's b-th basis map."""
    copies = [(x, n, b) for x, n in counts for b in range(n)]
    return [x for x, _, _ in copies], [tuple(int(c == b) for c in range(n)) for _, n, b in copies]


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
            witness = _halves_not_2_finite(self.T, self.F, self.C)
            if witness is not None:
                raise SequenceFailedError(witness)
            all_certs = {f"{name}_{side}": is_2_finite(X, self.C, side)[1]
                         for X, name in ((self.T, "T"), (self.F, "F")) for side in ("contra", "co")}
            out["finiteness_certificates"] = {
                name: {str(mi): cert.chain(self.C) for mi, cert in sorted(certs.items())}
                for name, certs in sorted(all_certs.items())
            }
            out["canonical_sequences"] = {
                str(mi): _canonical_sequence(self.C, all_certs["T_contra"][mi], all_certs["F_co"][mi])
                for mi in self.C.member_list()
            }
        return out


def _canonical_sequence(C: Subcat, t_cert: FinitenessCert, f_cert: FinitenessCert) -> list:
    """The dim vectors of T_M -> M -> F_M, checked exact at M, from M's T_contra and F_co certificates.

    phi: T_M -> M and psi: M -> F_M are the full approximations they count, one copy of x per
    basis map.  Hom(-, I(v)) = D(-)_v for the injective member I(v), so exactness at M is rank phi
    + rank psi = dim M_v at each v, the ranks read off `precompose` into I(v); psi o phi = 0 as Hom(T, F) = 0.
    """
    idx, cs, M = C.host, C.member_list(), t_cert.member
    (t_m, t_rows), (f_m, psi) = (_copies(zip(cs, cert.x1)) for cert in (t_cert, f_cert))
    phi = [tuple(y for row in t_rows for y in row)]  # one row: M is one summand
    for at_phi, at_psi in zip(idx.at_vertices(phi, t_m, [M]), idx.at_vertices(psi, [M], f_m)):
        if rank(at_phi) + rank(at_psi) != at_phi.cols:
            raise SequenceFailedError("sequence not exact at the middle term")
    return t_cert.chain(C)[1:] + f_cert.chain(C)[1:2]


def is_torsion_pair_2ff(T: Subcat, F: Subcat, C: Subcat):
    """All torsion-pair axioms plus 2-functorial finiteness of both halves.

    Returns (ok, witness) with a human-readable witness on failure.
    """
    rows, cols = C.host.hom_masks()
    c_mask, t_mask, f_mask = _mask(C.members), _mask(T.members), _mask(F.members)
    for t in T.member_list():
        if rows[t] & f_mask:
            return False, f"hom({t},{_indices(rows[t] & f_mask)[0]}) nonzero"
    perp_F = _perp(cols, c_mask, f_mask)
    if perp_F != t_mask:
        return False, f"torsion part not maximal: {_indices(perp_F)}"
    T_perp = _perp(rows, c_mask, t_mask)
    if T_perp != f_mask:
        return False, f"torsion-free part not maximal: {_indices(T_perp)}"
    witness = _halves_not_2_finite(T, F, C)
    return witness is None, witness


def _halves_not_2_finite(T: Subcat, F: Subcat, C: Subcat) -> str | None:
    """None when T and F are both 2-contravariantly and 2-covariantly finite in C, else the witness."""
    for X, name in ((T, "T"), (F, "F")):
        for side in ("contra", "co"):
            if not is_2_finite(X, C, side)[0]:
                return f"{name} not 2-{side}variantly finite"
    return None


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

    def hits(cand):
        comp = w3.compose(cand)
        return all(rank(comp.mats[v]) == T3.dims[v] for v in A.vertices)

    for b in hom_u:
        if hits(b):
            return b
    for _ in range(LIFT_TRIES):
        cand = _combination([rng.randrange(A.field.p) for _ in hom_u], hom_u, T2p, Ym)
        if hits(cand):
            return cand
    return None


def _combination(coeffs, basis: list, source, target) -> mc.ModMap:
    """The sum of c * b over the coefficients c and the maps b: source -> target of the basis."""
    out = mc.ModMap.zero(source, target)
    for c, b in zip(coeffs, basis):
        if c:
            out = out.add(b.scale(c))
    return out


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
        w, d1 = _combination(coeffs, basis_w, T1p, T2p), _combination(coeffs[len(basis_w):], basis_d, T1p, Xm)
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


def _torsion_classes(C: Subcat):
    """Each torsion class T = perp(T^perp) of C with F = T^perp, as bitmasks, in lectic order.

    The closed sets of the Galois connection Hom(x, y) = 0, listed by NextClosure
    (Ganter 1984; Ganter-Wille, *Formal Concept Analysis*, 1999): the successor
    of a closed set T is the closure of i and T's members below i, for the
    largest member i outside T whose closure adds no member below i.  The
    last closed set is C itself.
    """
    rows, cols = C.host.hom_masks()
    members, full = C.member_list(), _mask(C.members)

    def closure(T):
        F = _perp(rows, full, T)
        return _perp(cols, full, F), F

    T, F = closure(0)
    yield T, F
    while T != full:
        for i in reversed(members):
            bit = 1 << i
            if T & bit:
                T ^= bit
                continue
            closed, perp = closure(T | bit)
            if closed & (bit - 1) == T:
                T, F = closed, perp
                break
        yield T, F


def enumerate_2ff_torsion_pairs(C: Subcat, max_members: int = 20) -> list:
    """All 2-functorially-finite torsion pairs in C, canonically ordered.

    Only the closed sets T = perp(T^perp) are torsion classes, and
    `_torsion_classes` lists them with F = T^perp, so Hom(T, F) = 0, F = T^perp
    and T = perp F hold by construction: only the 2-finiteness of both halves
    is left to check.
    """
    _check_budget(C, max_members)
    idx = C.host
    pairs = []
    for T, F in _torsion_classes(C):
        T, F = Subcat.of(idx, _indices(T)), Subcat.of(idx, _indices(F))
        if _halves_not_2_finite(T, F, C) is None:
            pairs.append(TorsPair2FF(C, T, F))
    pairs.sort(key=lambda p: p.key())
    return pairs
