"""tau_2-tilting recognition and the correspondence with 2-ff torsion pairs.

Support is handled by the maximal vertex idempotent e killing the module T.
An A/<e>-module is an A-module that e kills, with the same Hom spaces, so T
and A/<e> stay on the census of A: tau_2 is additive, so rigidity is read off
one tau_2 row per (e, summand), and the add-T coresolution of A/<e> is rank
work on Hom-basis blocks (`_coresolution`).  A/<e> is the product of the
algebras of the connected pieces of its quiver, so the census computes each
tau_2 row once per piece, and returns the tau_2 modules up to isomorphism.
Three answers are read off the census with no module built
(Auslander-Reiten-Smalo, *Representation theory of Artin algebras*, I.4 and
II.2; Adachi-Iyama-Reiten, *tau-tilting theory*, section 2):

- the projective P_v of A/<e> is the largest member with top S(v) that e
  kills, since every other such module is a quotient of it;
- a projective of A/<e> has syzygy 0, so its tau_2 = tau Omega is 0 and its
  row is empty;
- a P_v that is a summand of T has the identity as its minimal left add-T
  approximation, with cokernel 0, so it adds [[P_v]] to the coresolution.

Minimal left approximations and cokernels are additive, so the coresolution
of A/<e> = +P_v runs one projective P_v at a time and sums their terms; each
other P_v's run reads only R(P_v), the summands of T it reaches by nonzero
Hom chains inside T, and the census keeps it under that key for every
candidate with the same R(P_v).  Two named
readings of "support tau_2-tilting" are available (`DEFINITIONS`), as higher
analogues of the support tau-tilting pairs of Adachi-Iyama-Reiten,
*tau-tilting theory* (Compos. Math. 2014):

- "ambient" (the default): Hom_A(T, tau_2 T) = 0 over A itself and
  Hom(T, tau_2 T) = 0 over A/<e>, and an exact sequence
  A/<e> -> T0 -> T1 -> T2 -> 0 in add T whose first map is a left
  add(T)-approximation that need not be injective.  This is AIR's d = 1 shape
  (tau-rigid over A, with A -> T0 -> T1 -> 0), where a sincere tau-tilting
  module need not be faithful; Jacobsen-Jorgensen's maximal tau_d-rigid pairs
  likewise ask for tau_d-rigidity over A.
- "quotient": Hom(T, tau_2 T) = 0 over A/<e> only, and a coresolution
  0 -> A/<e> -> T0 -> T1 -> T2 -> 0 in add T.  Every check runs over the
  quotient, never over A.  On A3/rad^2 it accepts S3+S1, which is not
  tau_2-rigid over A (tau_2 S1 = S3), and so breaks the Theorem 1 bijection.
"""

from __future__ import annotations

from . import algebra as algebra_mod
from . import highercat as hc
from . import modcat as mc
from . import torsion as tn
from .algebra import Algebra
from .arknit import _indices, _mask, _union
from .exactlin import Mat, kernel_basis, rank, rref
from .highercat import ExactSeq, Subcat

DEFINITIONS = ("ambient", "quotient")


def _members(T, idx) -> tuple:
    """Sorted census indices of T's summands, one per iso class; T is a Module or indices."""
    if isinstance(T, mc.Module):
        return tuple(sorted(set(idx.summand_indices(T))))
    return tuple(sorted(T))


def add_coresolution(M, T, maxlen: int, mono_start: bool = True) -> ExactSeq | None:
    """0 -> M -> T_0 -> ... -> T_k -> 0 with k <= maxlen and T_i in add T.

    Built from iterated minimal left add(T)-approximations: each T_i receives
    the cokernel of the step before.  None when a step fails to be injective
    or the chain runs past maxlen.  With mono_start=False the first map
    M -> T_0 may fail to be injective, giving the exact sequence
    M -> T_0 -> ... -> T_k -> 0 that starts with a left approximation.
    T is a module, which is decomposed, or the list of its indecomposable
    summands, pairwise non-isomorphic, which is used as given.  This is the
    module-level construction behind `is_2_tilting`; the support tau_2-tilting
    test runs the same recursion on census tables (`_coresolution`).
    """
    if isinstance(T, mc.Module):
        members = [X for X, _ in mc.decompose(T).summands] if not T.is_zero() else []
    else:
        members = list(T)
    if any(X.algebra != M.algebra for X in members):
        raise ValueError("module is not over the given algebra")
    if M.is_zero():
        return ExactSeq([M], [])
    modules = [M]
    maps: list = []
    cur = M
    projection = None
    for step in range(maxlen + 1):
        ap = hc.left_min_approximation(cur, members)
        if (mono_start or step > 0) and not ap.map.is_mono():
            return None
        g = ap.map if projection is None else ap.map.compose(projection)
        modules.append(ap.target)
        maps.append(g)
        Q, proj = mc.cokernel(ap.map)
        if Q.is_zero():
            seq = ExactSeq(modules, maps)
            if not seq.is_exact(mono_start=mono_start):
                raise AssertionError("coresolution failed its own exactness check")
            return seq
        cur = Q
        projection = proj
    return None


def _coresolution(idx, source, members, maxlen: int, mono_start: bool) -> list | None:
    """`add_coresolution` of +source by +members, all census indices, on tables.

    Returns the terms T_0, T_1, ... as sorted census indices with
    multiplicity, or None.  Minimal left approximations and cokernels are
    additive (Auslander-Smalo 1980), so +source has such a coresolution
    exactly when each summand p has one, and its terms are the step-wise sums
    of theirs: the call runs one p at a time and stops at the first that
    fails.  Step k + 1 only holds members that T_k maps to, so p's run reads
    only R(p), the members that p reaches by nonzero Hom chains inside
    +members.  Its result is kept on the census under (p, R(p), maxlen,
    mono_start) and shared by every T with the same R(p) (`_coresolve`).
    A p that is itself a member has the identity as its minimal left add-T
    approximation, with cokernel 0 (Auslander-Reiten-Smalo, I.4), so it adds
    [[p]] with no run.
    """
    memo, terms = idx._coresolutions, []
    for p in source:
        if p in members:
            own = [[p]]
        else:
            key = (p, _reach(idx, p, members), maxlen, mono_start)
            if key not in memo:
                memo[key] = _coresolve(idx, *key)
            own = memo[key]
        if own is None:
            return None
        terms += [[] for _ in own[len(terms):]]
        for term, part in zip(terms, own):
            term += part
    return [sorted(term) for term in terms]


def _reach(idx, p, members) -> tuple:
    """R(p), sorted: the members that p reaches by a chain of nonzero Hom through members.

    A breadth-first search over the `IndecIndex.hom_masks` rows, one frontier at a time.
    """
    rows, inside = idx.hom_masks()[0], _mask(members)
    reached = frontier = rows[p] & inside
    while frontier:
        frontier = _union(rows, frontier) & inside & ~reached
        reached |= frontier
    return tuple(_indices(reached))


def _coresolve(idx, p, members, maxlen: int, mono_start: bool) -> list | None:
    """The add-T coresolution of the one census member X_p, for `_coresolution`.

    A map between sums is one `precompose` row per target summand.  With
    F: T_{k-1} -> T_k the step before (at first the zero map from X_p's
    empty predecessor) and Q its cokernel, Hom(Q, X_i) is K_i, the maps
    T_k -> X_i that kill F, and the minimal left add-T approximation
    Q -> T_{k+1} takes, for each member i, a basis of K_i modulo
    sum_j rad(X_j, X_i) o K_j.  As Hom(M, I(v)) = D(M_v) for the injective
    member I(v), G's rank at v is that of g -> g o G into I(v), with dim T_k
    rows and dim T_{k+1} columns: G is injective when rank F + rank G is the
    row count at every v, and Q = 0 when rank G is the column count.  A
    nonzero G o F at some v is an AssertionError.
    """
    field = idx.algebra.field
    terms: list = []
    prev, cur, F = [], [p], [()]
    F_at, F_ranks = [], [0] * len(idx.modules)  # the empty map: rank 0 at each v, no composite to check
    for step in range(maxlen + 1):
        K = {i: kernel_basis(idx.precompose(F, prev, cur, i)) for i in members}
        nxt, G = [], []
        for i in (i for i in members if K[i]):
            rad = []
            for j in (j for j in members if K[j]):
                rad_ji = idx.radical(j, i)  # read once per (j, i), not once per kappa
                if rad_ji:
                    for kappa in K[j]:
                        via = idx.precompose([kappa], cur, [j], i)
                        rad += [via.apply(r) for r in rad_ji]
            pivots = rref(Mat.from_columns(field, rad + K[i])).pivots
            G += [K[i][c - len(rad)] for c in pivots if c >= len(rad)]
            nxt += [i] * (len(G) - len(nxt))
        G_at = idx.at_vertices(G, cur, nxt)
        ranks = [rank(g) for g in G_at]
        if any(not f.mul(g).is_zero() for f, g in zip(F_at, G_at)):
            raise AssertionError("coresolution failed its own exactness check")
        if (mono_start or step) and any(r + s != g.rows for r, s, g in zip(F_ranks, ranks, G_at)):
            return None
        terms.append(nxt)
        if all(r == g.cols for r, g in zip(ranks, G_at)):
            return terms
        prev, F, F_at, F_ranks, cur = cur, G, G_at, ranks, nxt
    return None


class SupportTau2Cert:
    """members: sorted census indices of the summands of the basic module T;
    support_complement: the vertices e with e.T = 0; source: census indices
    of the projectives of A/<e>, as A-modules; coresolution: T0, T1, ... as
    sorted census indices with multiplicity."""

    def __init__(self, members: tuple, support_complement: frozenset, source: tuple, coresolution: list):
        self.members = members
        self.support_complement = support_complement
        self.source = source
        self.coresolution = coresolution

    def __eq__(self, other) -> bool:
        return isinstance(other, SupportTau2Cert) and (
            (self.members, self.support_complement, self.source, self.coresolution)
            == (other.members, other.support_complement, other.source, other.coresolution))


class NotSupportTau2:
    def __init__(self, reason: str):
        self.reason = reason


def is_support_tau2_tilting(T, idx, definition: str = "ambient"):
    """SupportTau2Cert for a support tau_2-tilting module, NotSupportTau2 otherwise.

    T is a module, placed on the census `idx` with `summand_indices`, or its
    summands as census indices.  No module is built: tau_2 rigidity is one
    AND per summand with an `IndecIndex.tau2_row`, and A/<e> -> T0 -> T1 ->
    T2 -> 0 is `_coresolution` from the projectives of A/<e>.  "ambient" asks
    for tau_2-rigidity over A, read first, and over A/<e>, and lets the
    sequence start with a non-injective left add(T)-approximation;
    "quotient" checks rigidity over A/<e> only and asks for an injective start.
    e is the complement of the union of the summands' `IndecIndex.supports`,
    read after the rigidity over A.
    """
    if definition not in DEFINITIONS:
        raise ValueError(f"unknown definition {definition!r}; expected one of {DEFINITIONS}")
    ambient = definition == "ambient"
    members = _members(T, idx)
    mask = _mask(members)

    def rigid(kill):
        return not any(idx.tau2_row(kill, j)[1] & mask for j in members)

    if ambient and not rigid(frozenset()):
        return NotSupportTau2("not tau2-rigid over A: Hom_A(T, tau2 T) nonzero")
    e = _support_complement(idx, mask)
    # with e empty the quotient is A, so an ambient check has already run over it
    if (e or not ambient) and not rigid(e):
        return NotSupportTau2("Hom(T, tau2 T) nonzero over the support quotient")
    source = idx.quotient_projectives(e)
    terms = _coresolution(idx, source, members, 2, mono_start=not ambient)
    if terms is None:
        start = "A/<e>" if ambient else "0 -> A/<e>"
        return NotSupportTau2(f"no add-T coresolution {start} -> T0 -> T1 -> T2 -> 0")
    return SupportTau2Cert(members, e, source, terms)


def _support_complement(idx, mask: int) -> frozenset:
    """The vertices where every member in the mask vanishes: off the union of their `supports`."""
    support = _union(idx.supports(), mask)
    return frozenset(v for k, v in enumerate(idx.algebra.vertices) if not support >> k & 1)


def is_2_tilting(T, A: Algebra):
    """The three 2-tilting conditions, checked directly.

    Returns (ok, certificate dict).
    """
    if T.algebra != A:
        raise ValueError("module is not over the given algebra")
    cert = {}
    pd = mc.proj_dim(T, cap=8)
    cert["proj_dim"] = pd
    ok = pd is not None and pd <= 2
    e1 = mc.ext_dim(1, T, T)
    e2 = mc.ext_dim(2, T, T)
    cert["ext1"] = e1
    cert["ext2"] = e2
    ok = ok and e1 == 0 and e2 == 0
    reg = mc.regular_module(A).module
    cores = add_coresolution(reg, T, 2)
    cert["coresolution"] = cores
    ok = ok and cores is not None
    return ok, cert


def fac_cap_C(T, C: Subcat) -> Subcat:
    """The subcategory of members of C lying in Fac T.

    T is a module or census indices (see `is_support_tau2_tilting`).  X_k lies
    in Fac T exactly when the maps X_i -> X_k, i in T, together are onto: at
    each vertex v the hom_basis(i, k) matrices span (X_k)_v.  A summand of T
    passes through its identity, and a member that no summand maps to, whose
    `hom_masks` column misses T, fails; only the rest need the ranks.
    """
    idx = C.host
    members = _members(T, idx)
    field, mask, cols = idx.algebra.field, _mask(members), idx.hom_masks()[1]
    keep = []
    for k in C.member_list():
        X = idx.modules[k]
        if mask >> k & 1 or cols[k] & mask and all(
                rank(Mat.hstack(field, [f.mats[v] for i in members for f in idx.hom_basis(i, k)],
                                rows=X.dims[v])) == X.dims[v] for v in idx.algebra.vertices):
            keep.append(k)
    return Subcat.of(idx, keep)


def _ext_projective_members(Tclass: Subcat) -> tuple:
    """Sorted indices of the members X of the class with Ext^2(X, class) = 0."""
    mask = _mask(Tclass.members)
    return tuple(i for i in Tclass.member_list() if not Tclass.host.ext_masks(2)[0][i] & mask)


def ext_projective_generator(Tclass: Subcat):
    """Direct sum of the members X of the class with Ext^2(X, class) = 0."""
    idx = Tclass.host
    return mc.direct_sum(idx.algebra,
                         [idx.modules[i] for i in _ext_projective_members(Tclass)]).module


def annihilator_paths(modules):
    """The annihilator ideal as a set of basis paths, or None if not monomial."""
    mods = list(modules)
    if not mods:
        raise ValueError("need at least one module")
    A = mods[0].algebra
    vecs = mc.annihilator_basis(mods)
    if not vecs:
        return []
    rows = []
    for vec in vecs:
        row = [0] * A.dim
        for c, k in vec:
            row[k] = c
        rows.append(row)
    echelon = rref(Mat.from_rows(A.field, rows, cols=A.dim))
    paths = []
    for r in range(echelon.rank):
        entries = [(k, echelon.matrix.entry(r, k)) for k in range(A.dim)
                   if echelon.matrix.entry(r, k)]
        if len(entries) != 1:
            return None
        paths.append(A.basis[entries[0][0]])
    return paths


def annihilator_quotient(A: Algebra, modules) -> Algebra:
    """A / ann(X) as a bound quiver algebra (monomial annihilators only)."""
    paths = annihilator_paths(modules)
    if paths is None:
        raise algebra_mod.UnsupportedQuotientError("annihilator ideal is not monomial")
    return algebra_mod.quotient_by_monomial_ideal(A, paths)


class CorrespondenceReport:
    def __init__(self, tilting: list, pairs: list, phi: dict, psi: dict, mismatches: list):
        self.tilting = tilting  # (member tuple, SupportTau2Cert)
        self.pairs = pairs      # TorsPair2FF
        self.phi = phi          # member tuple -> torsion-class key
        self.psi = psi          # torsion-class key -> member tuple
        self.mismatches = mismatches

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def counts(self):
        return len(self.tilting), len(self.pairs)

    def to_json(self, host) -> dict:
        def name(indices):
            return [list(host.modules[i].dim_vector()) for i in indices]

        return {
            "support_tau2_tilting": [
                {"summands": name(key), "support_complement": sorted(cert.support_complement)}
                for key, cert in self.tilting
            ],
            "torsion_pairs": [p.to_json() for p in self.pairs],
            "bijection": [
                {"module": name(key), "torsion_class": name(self.phi[key])}
                for key, _ in self.tilting
            ],
            "counts": {"modules": len(self.tilting), "pairs": len(self.pairs)},
            "mismatches": [list(map(str, m)) for m in self.mismatches],
            "ok": self.ok,
        }


def support_tau2_tilting_modules(A: Algebra, C: Subcat, max_members: int = 20,
                                 definition: str = "ambient") -> list:
    """All support tau_2-tilting modules among basic sums of members of C.

    Returns sorted (member tuple, SupportTau2Cert) pairs, under the named
    `definition` (see `is_support_tau2_tilting`), which is called once per
    subset of C.  tau_2 of each member over A must be 0 or a member
    (Iyama 2007), else AssertionError.
    """
    subsets, idx = tn.member_subsets(C, max_members), C.host
    for j in C.member_list():
        t, _ = idx.tau2_row(frozenset(), j)
        if not t.is_zero() and idx.find_iso(t) not in C.members:
            raise AssertionError(f"tau_2 of member {j} is neither 0 nor a member of C")
    tilting = []
    for S in subsets:
        res = is_support_tau2_tilting(S, idx, definition)
        if isinstance(res, SupportTau2Cert):
            tilting.append((S, res))
    tilting.sort(key=lambda t: t[0])
    return tilting


def verify_theorem1(A: Algebra, C: Subcat, max_members: int = 20,
                    definition: str = "ambient") -> CorrespondenceReport:
    """Exhaustively verify the correspondence on a 2-cluster-tilting subcategory.

    Enumerates support tau_2-tilting modules (`support_tau2_tilting_modules`)
    and all 2-ff torsion pairs in C, then checks that Fac(-) cap C and the
    Ext-projective generator are mutually inverse bijections up to iso.
    Generators are tuples of member indices, like the candidates.
    """
    tilting = support_tau2_tilting_modules(A, C, max_members, definition)
    pairs = tn.enumerate_2ff_torsion_pairs(C, max_members=max_members)
    pair_by_T = {p.T.key(): p for p in pairs}
    mismatches = []
    phi = {}
    for key, _ in tilting:
        fac = fac_cap_C(key, C)
        phi[key] = fac.key()
        if fac.key() not in pair_by_T:
            mismatches.append(("phi misses a torsion class", key, fac.key()))
    psi = {}
    tilting_keys = {key for key, _ in tilting}
    for p in pairs:
        gen_key = _ext_projective_members(p.T)
        psi[p.T.key()] = gen_key
        if gen_key not in tilting_keys:
            mismatches.append(("psi misses a tilting module", p.T.key(), gen_key))
    for key, _ in tilting:
        if phi[key] in psi and psi[phi[key]] != key:
            mismatches.append(("psi o phi is not the identity", key, psi[phi[key]]))
    for p in pairs:
        k = psi[p.T.key()]
        if k in phi and phi[k] != p.T.key():
            mismatches.append(("phi o psi is not the identity", p.T.key(), phi[k]))
    if len(tilting) != len(pairs):
        mismatches.append(("counts differ", len(tilting), len(pairs)))
    return CorrespondenceReport(tilting, pairs, phi, psi, mismatches)
