"""tau_2-tilting recognition and the correspondence with 2-ff torsion pairs.

Support is handled by the maximal vertex idempotent e killing the module T;
T is transported to the quotient A/<e>.  Two named readings of "support
tau_2-tilting" are available (`DEFINITIONS`), as higher analogues of the
support tau-tilting pairs of Adachi-Iyama-Reiten, *tau-tilting theory*
(Compos. Math. 2014):

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

import itertools
from dataclasses import dataclass, field

from . import algebra as algebra_mod
from . import highercat as hc
from . import modcat as mc
from . import torsion as tn
from .algebra import Algebra
from .exactlin import Mat, rref
from .highercat import ExactSeq, Subcat
from .torsion import TooLargeError

DEFINITIONS = ("ambient", "quotient")


def _summands(T, A: Algebra) -> list:
    """The indecomposable summands of T, one per iso class.

    A Module T is decomposed.  Any other T is a sequence of pairwise
    non-isomorphic indecomposables (census members, say) and is returned as
    given, with no check that it is one.
    """
    if isinstance(T, mc.Module):
        if T.algebra != A:
            raise ValueError("module is not over the given algebra")
        return [X for X, _ in mc.decompose(T).summands] if not T.is_zero() else []
    summands = list(T)
    if any(X.algebra != A for X in summands):
        raise ValueError("module is not over the given algebra")
    return summands


def add_coresolution(M, T, maxlen: int, mono_start: bool = True) -> ExactSeq | None:
    """0 -> M -> T_0 -> ... -> T_k -> 0 with k <= maxlen and T_i in add T.

    Built from iterated minimal left add(T)-approximations: each T_i receives
    the cokernel of the step before.  None when a step fails to be injective
    or the chain runs past maxlen.  With mono_start=False the first map
    M -> T_0 may fail to be injective, giving the exact sequence
    M -> T_0 -> ... -> T_k -> 0 that starts with a left approximation.
    T is a module, or the list of its indecomposable summands, pairwise
    non-isomorphic, which is then used without being decomposed.
    """
    members = _summands(T, M.algebra)
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


@dataclass
class SupportTau2Cert:
    module: object                 # the basic module over the original algebra
    support_complement: frozenset  # vertices e with e.T = 0
    quotient: Algebra
    quotient_module: object
    coresolution: ExactSeq


@dataclass
class NotSupportTau2:
    reason: str


def is_support_tau2_tilting(T, A: Algebra, definition: str = "ambient"):
    """SupportTau2Cert for a support tau_2-tilting module, NotSupportTau2 otherwise.

    T is a module over A, or the list of its indecomposable summands,
    pairwise non-isomorphic (a tuple of census members, say); a list is used
    as given and never decomposed, and the certificate's module is its direct
    sum.  `definition` names the reading (see the module docstring):
    "ambient" adds tau_2-rigidity over A to the checks over A/<e> and lets the
    sequence A/<e> -> T0 -> T1 -> T2 -> 0 start with a non-injective left
    add(T)-approximation; "quotient" checks rigidity over A/<e> only and asks
    for an injective start.
    """
    if definition not in DEFINITIONS:
        raise ValueError(f"unknown definition {definition!r}; expected one of {DEFINITIONS}")
    ambient = definition == "ambient"
    summands = _summands(T, A)
    basic = mc.direct_sum(A, summands).module if summands else mc.zero_module(A)
    e = frozenset(mc.annihilator_vertices([basic])) if A.vertices else frozenset()
    Aq = algebra_mod.quotient_by_idempotent(A, e)
    Tq = mc.restrict_module(basic, Aq)
    for v in Aq.vertices:
        if Tq.dims[v] == 0:
            raise AssertionError("support complement was not maximal")
    tau2 = mc.tau_d(Tq, 2)
    if mc.hom_dim(Tq, tau2) != 0:
        return NotSupportTau2("Hom(T, tau2 T) nonzero over the support quotient")
    # with e empty the quotient is A, so the check above already ran over A
    if ambient and e and mc.hom_dim(basic, mc.tau_d(basic, 2)) != 0:
        return NotSupportTau2("not tau2-rigid over A: Hom_A(T, tau2 T) nonzero")
    reg = mc.regular_module(Aq).module
    # restriction to A/<e> keeps the summands indecomposable and non-isomorphic
    cores = add_coresolution(reg, [mc.restrict_module(X, Aq) for X in summands], 2,
                             mono_start=not ambient)
    if cores is None:
        start = "A/<e>" if ambient else "0 -> A/<e>"
        return NotSupportTau2(f"no add-T coresolution {start} -> T0 -> T1 -> T2 -> 0")
    return SupportTau2Cert(basic, e, Aq, Tq, cores)


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
    """The subcategory of members of C lying in Fac T."""
    keep = []
    for i in C.member_list():
        X = C.host.modules[i]
        tr, _ = mc.trace_from(T, X)
        if tr.dims == X.dims:
            keep.append(i)
    return Subcat.of(C.host, keep)


def _ext_projective_members(Tclass: Subcat) -> tuple:
    """Sorted indices of the members X of the class with Ext^2(X, class) = 0."""
    mask = sum(1 << j for j in Tclass.members)
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


@dataclass
class CorrespondenceReport:
    tilting: list          # (member tuple, SupportTau2Cert)
    pairs: list            # TorsPair2FF
    phi: dict              # member tuple -> torsion-class key
    psi: dict              # torsion-class key -> member tuple
    mismatches: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def counts(self):
        return len(self.tilting), len(self.pairs)

    def to_json(self, host=None) -> dict:
        def name(indices):
            if host is None:
                return list(indices)
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
    `definition` (see `is_support_tau2_tilting`).  Each candidate is checked
    as its list of members, so no sum is built and decomposed.
    """
    n = len(C.members)
    if n > max_members:
        raise TooLargeError(f"{n} members exceeds the subset budget {max_members}")
    idx = C.host
    tilting = []
    for r in range(n + 1):
        for S in itertools.combinations(C.member_list(), r):
            res = is_support_tau2_tilting([idx.modules[i] for i in S], A, definition)
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
    for key, cert in tilting:
        T = cert.module
        fac = fac_cap_C(T, C)
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
