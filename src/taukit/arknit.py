"""Enumeration of all indecomposables for representation-finite algebras.

The knitting route seeds the index with the projectives, injectives and
simples, which are indecomposable and go in as they are, and the summands of
rad P and I/soc I, the only seeds decomposed; then it closes under the AR
translate in both directions.  The loop takes one minimal presentation of
each M and one of D M: tau M = D Tr M and tau^-1 M = Tr D M are their
transposes, M is projective (injective) when the one of M (D M) has no P1
term, and M's presentation stays with it through the sort as the top
generators that census Hom is solved on.  A translate placed as a new member
brings one of its two presentations from the transpose that made it, which
builds it only then (a new tau^-1 M its own, a new tau M that of D tau M = Tr M),
so only the other goes through `minimal_presentation`; each member's presentation is
kept once, carried or computed.  A translate M is placed by an iso test on top generators
against each member X of its dim vector (Auslander-Reiten-Smalo, I.4 and III.2): Hom(X, M)
is the kernel of Hom(P0, M) -> Hom(P1, M), solved on X's presentation with M's path actions,
and X is isomorphic to M exactly when a solution maps X's tops onto M/rad M (Nakayama).  No
module-level Hom system is built, and the index placed is carried through the sort;
`IndecIndex.find_iso` tests a module against the census the same way.
The irreducible multiplicities a(X, Y) are knitted (Auslander-Reiten-Smalo,
V.1 and VII.1): the arrows into P(v) are the summands of rad P(v), read off
its seed decomposition, and a(X, Y) = a(tau Y, X) for Y not projective, so
each Y reads them off tau Y, down its tau-orbit to a projective.  That needs
End(X)/rad = k, checked on each member with `IndecIndex.radical`.  When a
tau-orbit is periodic (k[x]/(x^3), cyclic Nakayama algebras) the census counts
them by definition instead: a(X, Y) is dim rad(X, Y) minus the rank of the
composites through rad^2, read as the images of X's top generators; each span is
kept as echelon rows that each new composite is reduced against, and stops
growing once it fills rad(X, Y).  Completeness is certified afterwards by mesh
additivity: for every non-projective Z with almost split sequence
0 -> tau Z -> E -> Z -> 0, the middle term read off the multiplicities must
match dimension-wise, and the kept tau^-1 of tau Z must be Z again.
The brute-force enumerator is the independent oracle the tests compare
against, and places its modules by module-level Hom.  It walks one candidate
per orbit of the basis rescalings, the orbit's least member in lex order, and
so returns the list a walk over every matrix would: the first member of an
isomorphism class is least in its orbit.  It rejects a candidate on its raw entries, before building a
module, when a relation fails or when its nonzero entries leave its basis
vectors in more than one piece (then it is the sum of their spans).

Summand multiplicities are read off the certified mesh, with no search:
Y occurs h(Y) - sum_X a(X, Y) h(X) + h(tau Y) times in M, h(Z) = dim Hom(M, Z),
with no tau term for projective Y; a negative count or a dim mismatch is an
AssertionError.  Census Hom is solved once per pair, when first asked, on the source's top generators,
placing each element's cached action on the target into the source's compiled stencil;
hom_dim counts solutions, hom_basis reads each back as a map through sections of each
member's cover, solved on their first read, and compose solves nothing.
A pair is zero with no elimination when X_j is zero at X_i's tops, or when no
vertex of soc X_j lies in supp X_i: a nonzero image of X_i is a submodule of
X_j supported in supp X_i, and its socle lies in soc X_j.  The socle vertices
are the tops of D X_j, which knitting presents anyway; knitting keeps them, and whether
X_j is injective, on the census, and an index built by hand reads both when first asked.
`hom_masks` keeps which Hom spaces are nonzero as one bitmask row and column per member.
Maps between sums of members are rows of Hom-basis coordinates: `precompose`
reads g -> g o F off the compose table, or h -> F o h in its Gamma^op reading.
Into the injective member I(v) it is D of F's matrix at v, as Hom(M, I(v)) = D(M_v).
`tau2_row` keeps tau_2 X_j over A/<e> with the members that map into it, and
`quotient_projectives` the projectives of A/<e>; both are computed once per
connected piece of the quiver of A/<e>, since A/<e> is the product of its pieces' algebras.
"""

from __future__ import annotations

import itertools
from functools import partial

from . import modcat as mc
from .algebra import Algebra, quotient_by_idempotent
from .exactlin import Mat, eliminate, extend_echelon, free_columns, kernel_of_rows, solve_matrix


class LimitExceededError(Exception):
    """Knitting budget hit; the partial index is attached."""

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial or []


class BudgetExceededError(Exception):
    """Brute-force enumeration would exceed the configured work budget.

    The work counted is the bound 2^F p^(E-F) on the rescaling-orbit walk,
    summed over dim vectors: E entries, F of them a spanning forest.
    """


class KnitIncompleteError(Exception):
    """The knitted index failed its completeness certificate."""


class IndecIndex:
    """All indecomposables up to iso, with AR arrows and the translate map."""

    def __init__(self, algebra: Algebra, modules: list, ar_arrows: list | None = None,
                 tau_map: dict | None = None):
        self.algebra = algebra
        self.modules = modules
        self.ar_arrows = [] if ar_arrows is None else ar_arrows  # (source, target, multiplicity)
        self.tau_map = {} if tau_map is None else tau_map  # index -> index, non-projectives only
        self._hom_cache = {}  # (i, j) -> Hom(X_i, X_j) solved on X_i's top generators
        self._hom_bases = {}  # (i, j) -> the maps of the solutions in _hom_cache
        self._ext_cache = {}
        self._resolutions = {}  # (i, length) -> resolution of X_i
        self._hom_masks = None  # (rows, columns) of the nonzero Hom spaces
        self._ext_masks = {}  # k -> (rows, columns)
        self._ext_masks_below = {}  # d -> (rows, columns) over 0 < k < d
        self._ct_required = {}  # d -> bitmask of the members in every d-CT subcategory
        self._ct_required_members = {}  # d -> the same members as a frozenset
        self._supports = None  # i -> bitmask of the vertex positions where X_i is nonzero
        self._compose_cache = {}
        self._radicals = {}  # i -> rad End(X_i) coordinates
        self._quotient_projectives = {}  # e -> indices
        self._tau2 = {}  # (e, j) -> (tau_2 X_j over A/<e>, row), one entry per piece of X_j
        self._coresolutions = {}  # (p, R(p), maxlen, mono_start) -> X_p's coresolution terms, or None
        self._finiteness = {}  # (C, side, M, N1, X & N(N1)) as bitmasks -> (ok, M's FinitenessCert)
        self._approximation_kernels = {}  # (side, M, N1, y) -> ker Hom(y, X1) -> Hom(y, M), X1 -> M from N1
        self._injective = {}  # i -> whether D X_i's minimal presentation has no P1 term
        self._generators = {}  # i -> _Generators of X_i
        self._socles = {}  # i -> the vertices of soc X_i, kept by knitting or read by _socle
        self._actions = {}  # (j, v, word) -> path action on X_j
        self._elements = {}  # (j, v, terms) -> rows of that element's action on X_j, None when zero

    def find_iso(self, M) -> int | None:
        """Index of the entry isomorphic to M, if any, tested on each entry's top generators."""
        return next((i for i, X in enumerate(self.modules)
                     if X.dims == M.dims and _iso_on_generators(self._generator_data(i), M)), None)

    def hom_dim(self, i: int, j: int) -> int:
        return len(self._solutions(i, j))

    def hom_basis(self, i: int, j: int) -> list:
        """A basis of Hom(X_i, X_j) as maps: each solution, in turn, read back through `_maps_at`."""
        if (i, j) not in self._hom_bases:
            X, N, field = self.modules[i], self.modules[j], self.algebra.field
            at = {w: self._maps_at(i, j, w) for w in self.algebra.vertices if X.dims[w] * N.dims[w]}
            self._hom_bases[(i, j)] = [mc.ModMap(X, N, {w: Mat.from_rows(field, m[s], cols=X.dims[w])
                                                        for w, m in at.items()}, check=False)
                                       for s in range(self.hom_dim(i, j))]
        return self._hom_bases[(i, j)]

    def _solutions(self, i: int, j: int) -> list:
        """A basis of Hom(X_i, X_j) as the images (x_k) of X_i's top generators, solved once.

        0 -> Hom(X_i, N) -> Hom(P0, N) -> Hom(P1, N) is exact for the minimal
        presentation P1 -> P0 -> X_i: a map is the images x_k in N_{v_k} of
        the generators, subject to the relations P1 names, evaluated in N
        through its cached path actions.  Each solution is kept as its tuple of x_k.
        """
        if (i, j) not in self._hom_cache:
            self._hom_cache[(i, j)] = self._solve_on_generators(i, j)
        return self._hom_cache[(i, j)]

    def _solve_on_generators(self, i: int, j: int) -> list:
        """`_solutions` of (i, j), with no elimination when N = X_j is zero at X_i's tops or
        no vertex of soc N is in supp X_i: a nonzero image of X_i has its socle in soc N.

        The blocks are the actions on N of the stencil's elements, kept per (j, element)."""
        gens, N = self._generator_data(i), self.modules[j]
        if not any(N.dims[v] for v in gens.verts0) or not any(self.modules[i].dims[v] for v in self._socle(j)):
            return []
        return _hom_on_generators(gens, N, partial(_element_action, N, self._elements, self._actions, j))

    def _maps_at(self, i: int, j: int, w) -> list:
        """Each solution x's matrix at w, as rows: path * g_k goes to path * x_k, through a section at w."""
        gens, p = self._generator_data(i), self.algebra.field.p
        rows, cols = self.modules[j].dims[w], self.modules[i].dims[w]
        out = []
        for x in self._solutions(i, j):
            f = [[0] * cols for _ in range(rows)]
            for k, word, row in gens.sections[w]:
                action = _path_action(self.modules[j], self._actions, j, gens.verts0[k], word)
                for f_r, y in zip(f, action.apply(x[k])):
                    for c, s in enumerate(row if y else ()):
                        f_r[c] += y * s
            out.append([[y % p for y in f_r] for f_r in f])
        return out

    def _generator_data(self, i: int) -> "_Generators":
        if i not in self._generators:
            self._generators[i] = _Generators.of(self.algebra, mc.minimal_presentation(self.modules[i]))
        return self._generators[i]

    def _socle(self, j: int) -> set:
        """The vertices of soc X_j: kept by knitting, else read off X_j once."""
        if j not in self._socles:
            self._socles[j] = {v for v, c in mc.socle_columns(self.modules[j]).items() if c.cols}
        return self._socles[j]

    def compose(self, i: int, j: int, k: int) -> list:
        """Structure constants of Hom(X_j, X_k) x Hom(X_i, X_j) -> Hom(X_i, X_k).

        Entry [a][b] holds the coordinates of a o b in hom_basis(i, k), for a
        in hom_basis(j, k) and b in hom_basis(i, j).  Computed once per triple.
        """
        key = (i, j, k)
        if key not in self._compose_cache:
            self._compose_cache[key] = self._composition_table(i, j, k)
        return self._compose_cache[key]

    def _composition_table(self, i: int, j: int, k: int) -> list:
        """a o b sends each top generator g of X_i to a(b(g)): a solution of (i, k), read at its `free_columns`."""
        first, second, p = self._solutions(i, j), self._solutions(j, k), self.algebra.field.p
        if not first or not second:
            return [[] for _ in second]
        verts0 = self._generator_data(i).verts0
        at = {v: self._maps_at(j, k, v) for v in set(verts0)}
        target = [[y for x in h for y in x] for h in self._solutions(i, k)]
        free = free_columns(target)

        def coordinates(a: int, b: tuple) -> tuple:
            image = [sum(r * y for r, y in zip(row, x)) % p for v, x in zip(verts0, b) for row in at[v][a]]
            coords = tuple(image[f] for f in free)
            if any((y - sum(c * h[q] for c, h in zip(coords, target))) % p for q, y in enumerate(image)):
                raise AssertionError(f"a composite X_{i} -> X_{k} left the span of its Hom basis")
            return coords

        return [[coordinates(a, b) for b in first] for a in range(len(second))]

    def radical(self, i: int, j: int) -> list:
        """Coordinates over hom_basis(i, j) of a basis of rad(X_i, X_j), all of Hom for i != j."""
        if i != j:
            n = self.hom_dim(i, j)
            return [tuple(int(a == b) for b in range(n)) for a in range(n)]
        if i not in self._radicals:
            dim = self.hom_dim(i, i)  # dim 1 means End(X_i) = k: no radical, and no basis to read back
            flat = [mc.flatten_endo(f) for f in self.hom_basis(i, i)] if dim > 1 else []
            rad = mc.radical_of_endos(self.algebra.field, flat)
            if dim - len(rad) != 1:
                raise AssertionError(f"End(X_{i}) modulo its radical is not the ground field")
            self._radicals[i] = rad
        return self._radicals[i]

    def precompose(self, F, src, mid, k, op: bool = False) -> Mat:
        """The matrix of g -> g o F, Hom(+mid, X_k) -> Hom(+src, X_k), for F: +src -> +mid.

        A map from a sum of census members into X_k is a row: its coordinates
        in the hom_basis of each summand and k, in turn.  F is one such row per
        summand of mid.  The entries are read off the compose table.  With op
        the reading is in Gamma^op, where Hom^op(i, j) = Hom(j, i) and
        g o^op f = f o g: F: +mid -> +src, each row now over the hom_basis
        of its mid summand and each src summand, and the result is the
        matrix of h -> F o h, Hom(X_k, +mid) -> Hom(X_k, +src).
        """
        field, solved = self.algebra.field, self._hom_cache
        heights, widths = [], []  # dim Hom(s, k) and Hom(m, k) in the reading at hand, off the solved pairs
        for dims, summands in ((heights, src), (widths, mid)):
            for t in summands:
                key = (k, t) if op else (t, k)
                dims.append(len(solved[key] if key in solved else self._solutions(*key)))
        rows, cols = sum(heights), sum(widths)
        if not rows * cols:
            return Mat.zeros(field, rows, cols)
        out, col = [[0] * cols for _ in range(rows)], 0
        for m, row, w in zip(mid, F, widths):
            at = row_at = 0
            for s, h in zip(src, heights):
                key = (m, s) if op else (s, m)
                n = len(solved[key] if key in solved else self._solutions(*key))
                f, at, row_at = row[at:at + n], at + n, row_at + h
                if not any(f):
                    continue
                block = out[row_at - h:row_at]
                table = self.compose(k, m, s) if op else self.compose(s, m, k)
                for e, y in enumerate(f):
                    if not y:
                        continue
                    # F's e-th basis map composed with each basis map of Hom(+mid, X_k), in turn
                    for c, coords in enumerate(table[e] if op else [r[e] for r in table], col):
                        for out_t, z in zip(block, coords):
                            out_t[c] += y * z
            col += w
        return Mat.from_rows(field, out, cols=cols)

    def quotient_projectives(self, e: frozenset) -> tuple:
        """Census indices of the indecomposable projectives of A/<e>, read as A-modules.

        A/<e> is the product of the algebras A/<V - c> of the pieces c of its
        quiver, and the projective of a product at v is that of the factor
        holding v, up to isomorphism.  So each piece's projectives are placed
        on the census once, over A/<V - c>, and each e reads them, in vertex order.
        """
        if e not in self._quotient_projectives:
            A = self.algebra
            pieces = _pieces(A, e)
            if len(pieces) > 1:
                found = {}
                for c in pieces:
                    found.update(zip([v for v in A.vertices if v in c],
                                     self.quotient_projectives(frozenset(A.vertices) - c)))
                self._quotient_projectives[e] = tuple(found[v] for v in A.vertices if v not in e)
            else:
                Aq = quotient_by_idempotent(A, e) if e else A
                found = [self.find_iso(mc.induce_module(mc.projective(Aq, v), A)) for v in Aq.vertices]
                if None in found:
                    raise AssertionError(f"a projective of A/<{sorted(e)}> is missing from the census")
                self._quotient_projectives[e] = tuple(found)
        return self._quotient_projectives[e]

    def tau2_row(self, e: frozenset, j: int) -> tuple:
        """tau_2 X_j over A/<e> as an A-module, and the bitmask of the i with Hom(X_i, it) != 0.

        X_j must vanish on e, else ValueError.  A/<e> is the product of the
        algebras A/<V - c> of the pieces c of its quiver, and the indecomposable
        X_j lives in one of them; Hom, tau and projectives over a product are
        those of the factor.  So tau_2 is computed over A/<V - c>, once per
        (c, j), and each e reads it: the module is returned up to isomorphism.
        Hom between modules that e kills is the same over A and over A/<e>, so
        the row is read over A, only at the X_i that vanish off c: an X_i that
        e kills and that maps into tau_2 X_j lives in c.
        """
        if (e, j) not in self._tau2:
            A, X = self.algebra, self.modules[j]
            if any(X.dims[v] for v in e):
                raise ValueError(f"X_{j} does not vanish on {sorted(e)}")
            rest = frozenset(A.vertices) - _piece(A, e, [v for v in A.vertices if X.dims[v]])
            if (rest, j) not in self._tau2:
                Aq = quotient_by_idempotent(A, rest) if rest else A
                t = mc.induce_module(mc.tau_d(mc.restrict_module(X, Aq), 2), A)
                row = _mask(i for i, Y in enumerate(self.modules)
                            if not any(Y.dims[v] for v in rest) and mc.hom_dim(Y, t))
                self._tau2[(rest, j)] = (t, row)
            self._tau2[(e, j)] = self._tau2[(rest, j)]
        return self._tau2[(e, j)]

    def ext_dim(self, k: int, i: int, j: int) -> int:
        if k < 0:
            raise ValueError("k must be >= 0")
        if k == 0:
            return self.hom_dim(i, j)
        key = (k, i, j)
        if key not in self._ext_cache:
            if (i, k + 1) not in self._resolutions:
                self._resolutions[(i, k + 1)] = mc.projective_resolution(self.modules[i], k + 1)
            self._ext_cache[key] = mc.resolution_ext_dim(self._resolutions[(i, k + 1)], k, self.modules[j])
        return self._ext_cache[key]

    def hom_masks(self) -> tuple:
        """Bitmask rows[x] of the m with Hom(X_x, X_m) != 0, and columns[m] of those x."""
        if self._hom_masks is None:
            self._hom_masks = _masks(len(self.modules), self.hom_dim)
        return self._hom_masks

    def ext_masks(self, k: int) -> tuple:
        """Bitmask rows[x] of the m with Ext^k(X_x, X_m) != 0, and columns[m] of those x.

        Ext^k(-, I) = 0 for k > 0 and an injective member I, so its column is
        read with no `ext_dim` call.
        """
        if k not in self._ext_masks:
            self._ext_masks[k] = _masks(len(self.modules),
                                        lambda x, m: not (k and self.is_injective(m)) and self.ext_dim(k, x, m))
        return self._ext_masks[k]

    def ext_masks_below(self, d: int) -> tuple:
        """The OR over 0 < k < d of the `ext_masks` rows, and of their columns, kept per d."""
        if d not in self._ext_masks_below:
            below = ([0] * len(self.modules),) * 2
            for k in range(1, d):
                below = tuple([a | b for a, b in zip(*pair)] for pair in zip(below, self.ext_masks(k)))
            self._ext_masks_below[d] = below
        return self._ext_masks_below[d]

    def ct_required(self, d: int) -> int:
        """Bitmask of the x with Ext^k(x, -) = 0 or Ext^k(-, x) = 0 for all 0 < k < d, kept per d.

        Each such x lies in every d-cluster-tilting C, since C holds every X
        with Ext^k(X, C) = 0, and every X with Ext^k(C, X) = 0, for 0 < k < d.
        At d = 2 these are the projective and the injective members.
        """
        if d not in self._ct_required:
            rows, cols = self.ext_masks_below(d)
            self._ct_required[d] = _mask(x for x, (r, c) in enumerate(zip(rows, cols)) if not r or not c)
        return self._ct_required[d]

    def ct_required_members(self, d: int) -> frozenset:
        """The indices of `ct_required(d)`, kept per d: a C holds them all by one set inclusion."""
        if d not in self._ct_required_members:
            self._ct_required_members[d] = frozenset(_indices(self.ct_required(d)))
        return self._ct_required_members[d]

    def supports(self) -> list:
        """Bitmask of the vertex positions, in `algebra.vertices` order, where X_i is nonzero, per i."""
        if self._supports is None:
            vertices = self.algebra.vertices
            self._supports = [_mask(k for k, v in enumerate(vertices) if X.dims[v]) for X in self.modules]
        return self._supports

    def is_projective(self, i: int) -> bool:
        return not self._generator_data(i).verts1

    def is_injective(self, i: int) -> bool:
        """Whether D X_i's minimal presentation has no P1 term: kept by knitting, else read once."""
        if i not in self._injective:
            self._injective[i] = not mc.minimal_presentation(mc.dual(self.modules[i])).verts1
        return self._injective[i]

    def at_vertices(self, F, src, mid) -> list:
        """The `precompose` of F into each injective member I(v): D of F's matrix at v, v in turn."""
        return [self.precompose(F, src, mid, k) for k in range(len(self.modules)) if self.is_injective(k)]

    def summand_indices(self, M) -> list:
        """Index (with multiplicity) of each indecomposable summand of M, sorted.

        m_Y = h(Y) - sum_X a(X, Y) h(X) + h(tau Y), h(Z) = dim Hom(M, Z): Hom(M, -)
        on the almost split sequence ending at Y (on rad Y -> Y for projective Y)
        is exact but for Hom(M, Y)/rad(M, Y), of dimension m_Y.  An m_Y < 0, or
        summands whose dims do not add up to M's, is an AssertionError.
        """
        h = [mc.hom_dim(M, X) for X in self.modules]
        mult = list(h)
        for x, y, a in self.ar_arrows:
            mult[y] -= a * h[x]
        for y, t in self.tau_map.items():
            mult[y] += h[t]
        dims = tuple(sum(m * X.dims[v] for m, X in zip(mult, self.modules)) for v in M.algebra.vertices)
        if min(mult, default=0) < 0 or dims != M.dim_vector():
            raise AssertionError(f"AR mesh multiplicities {mult} do not rebuild M")
        return [y for y, m in enumerate(mult) for _ in range(m)]

    def to_json(self) -> dict:
        return {
            "modules": [m.to_json() for m in self.modules],
            "dim_vectors": [list(m.dim_vector()) for m in self.modules],
            "ar_arrows": [list(a) for a in self.ar_arrows],
            "tau": {str(k): v for k, v in sorted(self.tau_map.items())},
        }


def _mask(indices) -> int:
    out = 0
    for i in indices:
        out |= 1 << i
    return out


def _indices(mask: int) -> list:
    """The census indices set in a bitmask, ascending."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _union(table: list, mask: int) -> int:
    """The OR of table[m] over the m in the mask."""
    out = 0
    while mask:
        low = mask & -mask
        out |= table[low.bit_length() - 1]
        mask ^= low
    return out


def _perp(table: list, within: int, mask: int) -> int:
    """The members in `within` outside table[m] for each m in the mask.

    On the `IndecIndex.hom_masks` rows this is S^perp, the y with Hom(S, y) = 0;
    on its columns, perp S, the x with Hom(x, S) = 0.
    """
    return within & ~_union(table, mask)


def _masks(n: int, nonzero) -> tuple:
    """Bitmask rows[x] of the m < n with nonzero(x, m), and columns[m] of those x."""
    rows = [_mask(m for m in range(n) if nonzero(x, m)) for x in range(n)]
    return rows, [_mask(x for x in range(n) if rows[x] >> m & 1) for m in range(n)]


class _Generators:
    """The top generators of a module X, from its minimal presentation P1 -> P0 ->> X.

    Generator k is tops[k] = (v, j), basis vector j of X at v = verts0[k].  stencil
    lists the nonzero blocks of the relations: (r, k, verts0[k], terms) when the r-th
    summand P(verts1[r]) of P1 has the element terms of paths from verts0[k] in its
    image at summand k of P0.  sections[w] is a right inverse of the cover at
    vertex w, as its nonzero rows (k, path, row) over the basis path * g_k of (P0)_w;
    it is solved on its first read, since only `IndecIndex._maps_at` reads it.
    """

    def __init__(self, A: Algebra, tops: list, verts1: list, stencil: list, cover: dict):
        self.algebra = A
        self.tops = tops
        self.verts0 = [v for v, _ in tops]
        self.verts1 = verts1
        self.stencil = stencil
        self.cover = cover
        self._sections = None

    @classmethod
    def of(cls, A: Algebra, pres) -> "_Generators":
        stencil = [(r, k, pres.verts0[k], terms) for (k, r), terms in pres.elements.items()]
        return cls(A, list(zip(pres.verts0, pres.generators)), list(pres.verts1), stencil, pres.cover)

    @property
    def sections(self) -> dict:
        if self._sections is None:
            A, self._sections = self.algebra, {}
            for w in A.vertices:
                labels = [(k, pth.arrows) for k, v in enumerate(self.verts0)
                          for pth in A.paths_from(v) if pth.target == w]
                right = solve_matrix(self.cover[w], Mat.identity(A.field, self.cover[w].rows))
                self._sections[w] = [(k, word, row) for (k, word), row in zip(labels, right.data) if any(row)]
        return self._sections


def _path_action(X, paths: dict, j, v, word) -> Mat:
    """The action on X of the path word from v, one `Mat.mul` onto its prefix's.

    paths keeps each action by (j, v, word), j naming X."""
    key = (j, v, word)
    if key not in paths:
        if len(word) > 1:
            paths[key] = X.action[word[-1]].mul(_path_action(X, paths, j, v, word[:-1]))
        else:
            paths[key] = X.action[word[0]] if word else Mat.identity(X.algebra.field, X.dims[v])
    return paths[key]


def _element_action(X, elements: dict, paths: dict, j, v, terms) -> tuple | None:
    """The rows of the combination terms of paths from v acting on X, None when it is zero.

    elements keeps each by (j, v, terms), and paths the path actions, j naming X."""
    key = (j, v, terms)
    if key not in elements:
        if len(terms) == 1 and terms[0][0] == 1:
            rows = _path_action(X, paths, j, v, terms[0][1]).data
        else:
            p, acc = X.algebra.field.p, None
            for c, word in terms:
                data = _path_action(X, paths, j, v, word).data
                acc = [[c * y for y in row] for row in data] if acc is None else \
                    [[a + c * y for a, y in zip(out, row)] for out, row in zip(acc, data)]
            rows = tuple(tuple(y % p for y in row) for row in acc)
        elements[key] = rows if any(map(any, rows)) else None
    return elements[key]


def _hom_on_generators(gens: _Generators, N, block) -> list:
    """A basis of Hom(X, N) as the images (x_k) in N of X's top generators gens, each a tuple.

    0 -> Hom(X, N) -> Hom(P0, N) -> Hom(P1, N) is exact for the minimal
    presentation P1 -> P0 -> X (Auslander-Reiten-Smalo, I.4 and III.2): the rows
    are X's stencil, each block the rows block(v, terms) of that element's action
    on N, None when it is zero."""
    at = [0]
    for v in gens.verts0:
        at.append(at[-1] + N.dims[v])
    row_at = [0]
    for u in gens.verts1:
        row_at.append(row_at[-1] + N.dims[u])
    rows = [[0] * at[-1] for _ in range(row_at[-1])]
    for r, k, v, terms in gens.stencil:
        rows_of = block(v, terms)
        if rows_of:
            start, end = at[k], at[k + 1]
            for out, entries in zip(rows[row_at[r]:row_at[r + 1]], rows_of):
                out[start:end] = entries
    return [tuple(x[at[k]:at[k + 1]] for k in range(len(gens.verts0)))
            for x in kernel_of_rows(rows, at[-1], N.algebra.field.p)]


def _iso_on_generators(gens: _Generators, M) -> bool:
    """Whether the indecomposable X with top generators gens, of M's dim vector, is isomorphic to M.

    Hom(X, M) is solved on gens (`_hom_on_generators`).  A solution whose images
    span M/rad M at every vertex is onto M (Nakayama), so an isomorphism, the dims
    being equal.  The non-isomorphisms form rad(X, M), a proper subspace when
    X and M are isomorphic, so the basis holds an isomorphism when there is one.
    """
    A, p = M.algebra, M.algebra.field.p
    solutions = _hom_on_generators(gens, M, partial(_element_action, M, {}, {}, None))
    if not solutions:
        return False
    # rad M at v is spanned by the columns of the arrows into v
    radical = {v: [c for a in A.arrows if a.target == v for c in zip(*M.action[a.name].data)]
               for v in A.vertices if M.dims[v]}

    def onto(x) -> bool:
        for v, columns in radical.items():
            rows = [list(c) for c in columns] + [list(y) for y, u in zip(x, gens.verts0) if u == v]
            if len(eliminate(rows, M.dims[v], p)) < M.dims[v]:
                return False
        return True

    return any(map(onto, solutions))


def _iso_index(modules, M, dim_vectors=None) -> int | None:
    """Index of the first of the indecomposables isomorphic to M, if any, by module-level Hom.

    The brute-force oracle places its modules with it, so it shares no Hom code
    with knitting.  dim_vectors[i] is the dim vector of modules[i]; a caller that
    scans a growing list keeps it next to the list, else it is read off each module.
    """
    dims = M.dim_vector()
    if dim_vectors is None:
        dim_vectors = [X.dim_vector() for X in modules]
    for i, d in enumerate(dim_vectors):
        if d == dims and mc.iso_between_indecomposables(M, modules[i]) is not None:
            return i
    return None


def _seed_modules(A: Algebra) -> tuple:
    """The seeds that are indecomposable, and those that may split, as (v, seed).

    P(v), I(v) and S(v) are indecomposable: the endomorphism rings of P(v)
    and I(v) are e_v A e_v or its opposite, local as e_v is primitive, and
    S(v) is simple.  rad P(v) and I(v)/soc I(v) can be sums, and are decomposed;
    v is the vertex of the seed rad P(v), and None for I(v)/soc I(v).
    """
    projectives = [mc.projective(A, v) for v in A.vertices]
    injectives = [mc.injective(A, v) for v in A.vertices]
    layers = []
    for v, P, I in zip(A.vertices, projectives, injectives):
        radP, _ = mc.radical_submodule(P)
        if not radP.is_zero():
            layers.append((v, radP))
        soc, inc = mc.submodule_from_columns(I, mc.socle_columns(I))
        quot, _ = mc.cokernel(inc)
        if not quot.is_zero():
            layers.append((None, quot))
    return projectives + injectives + [mc.simple(A, v) for v in A.vertices], layers


def knit_indecomposables(A: Algebra, max_count: int = 64, max_dim: int = 64) -> IndecIndex:
    """Complete indecomposable census for a representation-finite algebra."""
    if max_count <= 0 or max_dim <= 0:
        raise ValueError("limits must be positive")
    found: list = []
    found_dims: list = []  # found_dims[i] is the dim vector of found[i]
    carried: dict = {}  # i -> the transposes carrying the presentations of found[i] and of D found[i]
    presentations: dict = {}  # i -> the presentation of found[i], carried or computed, once
    generators: dict = {}  # i -> the _Generators of that presentation

    def presentation_of(i: int):
        if i not in presentations:
            own = carried[i][0]
            presentations[i] = own.presentation if own else mc.minimal_presentation(found[i])
        return presentations[i]

    def generators_of(i: int) -> _Generators:
        if i not in generators:
            generators[i] = _Generators.of(A, presentation_of(i))
        return generators[i]

    def register(M, carriers=(None, None)) -> int | None:
        """The index in found of the member isomorphic to M, placing M if it is new.

        A member of M's dim vector is tested on its top generators (`_iso_on_generators`).
        carriers are the transposes whose `presentation` a new M keeps, for M and for D M,
        None where there is none; it is read only once M is placed."""
        if M.is_zero():
            return None
        if M.total_dim > max_dim:
            raise LimitExceededError(
                f"module of dimension {M.total_dim} exceeds max_dim={max_dim}", partial=found)
        dims = M.dim_vector()
        k = next((i for i, d in enumerate(found_dims)
                  if d == dims and _iso_on_generators(generators_of(i), M)), None)
        if k is not None:
            return k
        found.append(M)
        found_dims.append(dims)
        carried[len(found) - 1] = carriers
        if len(found) > max_count:
            raise LimitExceededError(f"more than max_count={max_count} indecomposables", partial=found)
        return len(found) - 1

    # decompose(X) is [(X, 1)] for an indecomposable X, so the census is the one
    # that decomposing every seed gives, module for module and in the same order
    whole, layers = _seed_modules(A)
    for X in whole:
        register(X)
    radicals = {}  # v -> {index in found: multiplicity of that summand of rad P(v)}
    for v, seed in layers:
        summands = {register(X): m for X, m in mc.decompose(seed).summands}
        if v is not None:
            radicals[v] = summands

    # for each M in found: D M's presentation (its tops are soc M, and M is injective when
    # it has no P1), and the indices in found of tau M and tau^-1 M, None when not taken.
    # M and D M are indecomposable and not projective when transposed, so the presentation
    # each transpose carries is minimal: a new tau M = D Tr M keeps it for D tau M = Tr M,
    # and a new tau^-1 M = Tr D M for itself
    records = []
    while len(records) < len(found):
        i = len(records)
        M, pres, of_dual = found[i], presentation_of(i), carried[i][1]
        DM = mc.dual(M)
        dual_pres = of_dual.presentation if of_dual else mc.minimal_presentation(DM)
        t = s = None
        if pres.verts1:
            Tr = mc.transpose(M, pres)
            t = register(mc.dual(Tr), (None, Tr))
        if dual_pres.verts1:
            TrD = mc.transpose(DM, dual_pres)
            s = register(TrD, (TrD, None))
        records.append((dual_pres, t, s))

    order = sorted(range(len(found)), key=lambda i: (found[i].total_dim, found_dims[i]))
    place = {i: z for z, i in enumerate(order)}
    idx = IndecIndex(A, [found[i] for i in order])
    inverses = []
    for z, i in enumerate(order):
        dual_pres, t, s = records[i]
        idx._injective[z] = not dual_pres.verts1
        idx._generators[z] = generators_of(i)
        idx._socles[z] = set(dual_pres.verts0)
        if not idx.is_projective(z):
            if t is None:
                raise KnitIncompleteError("tau image missing from index")
            idx.tau_map[z] = place[t]
        inverses.append(place.get(s))
    _certify_and_mesh(idx, inverses, {v: {place[x]: m for x, m in summands.items()}
                                      for v, summands in radicals.items()})
    return idx


def irreducible_multiplicities(idx: IndecIndex) -> dict:
    """a(X, Y) = dim rad(X,Y)/rad^2(X,Y) for all ordered pairs in the index.

    A map out of X_i is read as the images of X_i's top generators g_k: off the
    diagonal g(g_k) is a slice of g's solution, and h o g sends g_k to h's matrix at
    v_k, read back once per (z, j, v_k), applied to it; rad End is `idx.radical`.
    The composites through X_z are added one z at a time, z ascending over the
    bits of a mask of the z with rad(X_i, X_z) != 0 ANDed with one of the z with
    rad(X_z, X_j) != 0, each reduced against the echelon rows of the span so far
    (`extend_echelon`), since only its rank is read; the scan stops once the
    span fills rad(X, Y).  All of one z's
    composites go in before the rank is compared, so a span larger than
    rad(X, Y), which means a composite left the radical, is a defect that is
    still seen.  Hom(X_i, X_z) is zero with no elimination when soc X_z misses
    supp X_i (`IndecIndex._solve_on_generators`).
    """
    n, p = len(idx.modules), idx.algebra.field.p
    endos = [_radical_endos(idx, i) for i in range(n)]
    dims = [[len(endos[i]) if i == j else idx.hom_dim(i, j) for j in range(n)] for i in range(n)]
    read_back = {}

    def at(z, j, v) -> list:
        """Each basis map of rad(X_z, X_j) at v, as rows."""
        if (z, j, v) not in read_back:
            read_back[(z, j, v)] = [h[v].data for h in endos[z]] if z == j else idx._maps_at(z, j, v)
        return read_back[(z, j, v)]

    into = [_mask(z for z in range(n) if dims[z][j]) for j in range(n)]
    out = {}
    for i in range(n):
        tops = idx._generator_data(i).tops
        images = [[[tuple(row[j] for row in g[v].data) for v, j in tops] for g in endos[i]] if z == i
                  else idx._solutions(i, z) for z in range(n)]
        reach = _mask(z for z in range(n) if images[z])  # the z with rad(X_i, X_z) != 0
        for j in range(n):
            dim = dims[i][j]
            if dim == 0:
                continue
            echelon, sq_rank, through = {}, 0, reach & into[j]
            while through:
                z = (through & -through).bit_length() - 1
                through &= through - 1
                hs = [at(z, j, v) for v, _ in tops]
                for gz in images[z]:
                    for h in range(dims[z][j]):
                        row = [sum(a * b for a, b in zip(r, x)) % p for hv, x in zip(hs, gz) for r in hv[h]]
                        sq_rank += extend_echelon(echelon, row, p)
                if sq_rank >= dim:
                    break
            if sq_rank > dim:
                raise AssertionError(f"composites X_{i} -> X_{j} through rad^2 span more than rad")
            if sq_rank < dim:
                out[(i, j)] = dim - sq_rank
    return out


def _radical_endos(idx: IndecIndex, i: int) -> list:
    """The matrices at each vertex of the basis of rad End(X_i) that `idx.radical` gives."""
    rad, p = idx.radical(i, i), idx.algebra.field.p
    flat = [mc.hom_to_vector(f) for f in idx.hom_basis(i, i)] if rad else []
    return [mc.vector_to_hom(idx.modules[i], idx.modules[i],
                             tuple(sum(c * x for c, x in zip(coords, col)) % p for col in zip(*flat))).mats
            for coords in rad]


def _knitted_multiplicities(idx: IndecIndex, inverses: list, radicals: dict) -> dict | None:
    """a(X, Y) knitted from rad P and tau, None when some tau-orbit never reaches a projective.

    With End/rad = k on every member (Auslander-Reiten-Smalo, V.1 and VII.1): the
    arrows into P(v) are the summands of rad P(v), radicals[v] as {index: multiplicity};
    for Y not projective, the almost split sequence 0 -> tau Y -> E -> Y -> 0 has as
    E the successors of T = tau Y, so a(X, Y) = a(T, X).  Those are the projectives P
    with T in rad P, a(P, Y) its multiplicity there, and the tau^-1 W for W -> T with W
    not injective, a(tau^-1 W, Y) = a(W, T).  So each Y reads tau Y's arrows, down its
    tau-orbit to a projective.  A rad P(v) whose summands' dims do not add up to
    P(v)'s less the top is a KnitIncompleteError.
    """
    n, vertices = len(idx.modules), idx.algebra.vertices
    into = {}  # y -> {x: a(X_x, X_y)}
    above = {}  # x -> {projective z: multiplicity of X_x in rad X_z}
    for z in range(n):
        if not idx.is_projective(z):
            continue
        (v,) = idx._generator_data(z).verts0
        into[z] = radicals.get(v, {})
        dims = [d - (w == v) for w, d in zip(vertices, idx.modules[z].dim_vector())]
        for x, m in into[z].items():
            above.setdefault(x, {})[z] = m
            dims = [d - m * e for d, e in zip(dims, idx.modules[x].dim_vector())]
        if any(dims):
            raise KnitIncompleteError(f"the summands of rad P({v}) do not add up to it")
    for y in range(n):
        orbit = []
        while y not in into:
            if y in orbit:
                return None
            orbit.append(y)
            y = idx.tau_map[y]
        for y in reversed(orbit):
            t = idx.tau_map[y]
            into[y] = dict(above.get(t, {}))
            into[y].update((inverses[w], a) for w, a in into[t].items() if inverses[w] is not None)
    return {(x, y): a for y, arrows in into.items() for x, a in arrows.items()}


def _certify_and_mesh(idx: IndecIndex, inverses: list, radicals: dict):
    """Mesh additivity and the tau round trip; inverses[i] is the index of tau^-1 X_i or None.

    The arrows are knitted (`_knitted_multiplicities`) when every tau-orbit reaches a
    projective, else counted by `irreducible_multiplicities`; either way End(X)/rad = k
    is checked on every member, one `idx.radical` each."""
    for i in range(len(idx.modules)):
        idx.radical(i, i)
    mult = _knitted_multiplicities(idx, inverses, radicals)
    if mult is None:
        mult = irreducible_multiplicities(idx)
    idx.ar_arrows = sorted((i, j, a) for (i, j), a in mult.items())
    # mesh additivity: dims(tau Z) + dims(Z) = sum of middle-term dims
    for z, M in enumerate(idx.modules):
        if idx.is_projective(z):
            continue
        t = idx.tau_map[z]
        lhs = [a + b for a, b in zip(idx.modules[t].dim_vector(), M.dim_vector())]
        rhs = [0] * len(lhs)
        for (i, j), a in mult.items():
            if j == z:
                for k, d in enumerate(idx.modules[i].dim_vector()):
                    rhs[k] += a * d
        if lhs != rhs:
            raise KnitIncompleteError(
                f"mesh at index {z} fails: middle {rhs} vs tau+self {lhs}")
        if inverses[t] != z:
            raise KnitIncompleteError(f"tau round trip fails at index {z}")


def brute_force_indecomposables(A: Algebra, max_dims: dict, budget: int = 2 ** 22) -> list:
    """All indecomposables with dim vector <= max_dims, by raw enumeration.

    Per dim vector it walks the least member of each orbit of the basis
    rescalings (`_orbit_least`), in lex order of the flat entries.  An
    isomorphism class is a union of such orbits, and the first member of a
    class in lex order is least in its own orbit, so the kept module of each
    class, and the order of the list, are those of a walk over every matrix.
    """
    p = A.field.p
    bounds = [max_dims.get(v, 0) for v in A.vertices]
    plans = [(dims, _entry_ends(A, dims)) for dims in itertools.product(*(range(b + 1) for b in bounds))]
    total_work = sum(_walk_bound(ends, sum(dims), p) for dims, ends in plans)
    if total_work > budget:
        raise BudgetExceededError(f"enumeration needs {total_work} module candidates")
    names = [a.name for a in A.arrows]
    out: list = []
    out_dims: list = []  # out_dims[i] is the dim vector of out[i]
    for dims, ends in plans:
        if sum(dims) == 0:
            continue
        dim_map = dict(zip(A.vertices, dims))
        shapes = [(dim_map[a.target], dim_map[a.source]) for a in A.arrows]
        starts = list(itertools.accumulate((r * c for r, c in shapes), initial=0))
        for flat in _orbit_least(ends, sum(dims), p):
            # each arrow's matrix as row tuples
            assignment = [tuple(flat[o + i * c:o + (i + 1) * c] for i in range(r))
                          for o, (r, c) in zip(starts, shapes)]
            rows = dict(zip(names, assignment))
            if not mc.relations_hold(A, dim_map, rows):
                continue
            if not _one_piece(ends, flat, sum(dims)):
                continue
            action = {a.name: Mat.from_rows(A.field, m, cols=c)
                      for a, m, (_, c) in zip(A.arrows, assignment, shapes)}
            M = mc.Module(A, dim_map, action, check=True)
            if not mc.is_indecomposable(M):
                continue
            if _iso_index(out, M, out_dims) is not None:
                continue
            out.append(M)
            out_dims.append(M.dim_vector())
    out.sort(key=lambda m: (m.total_dim, m.dim_vector()))
    return out


def _entry_ends(A: Algebra, dims: tuple) -> list:
    """The two basis vectors each matrix entry joins, in walk order: arrow by arrow, row-major.

    Basis vector i at the vertex with index k is number sum(dims[:k]) + i;
    entry (r, c) of an arrow s -> t joins the r-th vector at t and the c-th at s.
    """
    first = list(itertools.accumulate(dims, initial=0))
    ends = []
    for a in A.arrows:
        s, t = A.vertex_index[a.source], A.vertex_index[a.target]
        ends += [(first[t] + r, first[s] + c) for r in range(dims[t]) for c in range(dims[s])]
    return ends


def _orbit_least(ends: list, nodes: int, p: int):
    """The least member of each rescaling orbit of flat entries, once each, in lex order.

    Rescaling basis vector u by l_u turns the entry x joining u and w into
    l_u x / l_w.  `comp` labels the pieces that the earlier nonzero entries
    join.  An entry across two pieces can be made 1 by rescaling one piece,
    which moves no earlier entry, so it takes 0 or 1 and a 1 joins them.
    An entry inside one piece (a loop's diagonal too) is fixed by every
    rescaling that fixes the earlier entries, so it takes every value.
    """
    flat = [0] * len(ends)

    def walk(k, comp):
        if k == len(ends):
            yield tuple(flat)
            return
        u, w = ends[k]
        cu, cw = comp[u], comp[w]
        if cu == cw:
            for x in range(p):
                flat[k] = x
                yield from walk(k + 1, comp)
            return
        flat[k] = 0
        yield from walk(k + 1, comp)
        flat[k] = 1
        yield from walk(k + 1, tuple(cu if c == cw else c for c in comp))

    return walk(0, tuple(range(nodes)))


def _walk_bound(ends: list, nodes: int, p: int) -> int:
    """2^F p^(E-F) >= the walk's length: E entries, F of them a spanning forest taken in walk order.

    No subset of the entries before a forest entry joins its ends, so the
    walk gives it two values in every branch.
    """
    comp, forest = list(range(nodes)), 0
    for u, w in ends:
        cu, cw = comp[u], comp[w]
        if cu != cw:
            forest += 1
            comp = [cu if c == cw else c for c in comp]
    return 2 ** forest * p ** (len(ends) - forest)


def _one_piece(ends: list, flat: tuple, nodes: int) -> bool:
    """Whether the nonzero entries join all the basis vectors into one piece.

    The span of the basis vectors of a piece is closed under every arrow, so
    with two pieces or more the candidate is the sum of their spans.
    """
    comp, pieces = list(range(nodes)), nodes
    for (u, w), x in zip(ends, flat):
        cu, cw = comp[u], comp[w]
        if x and cu != cw:
            comp = [cu if c == cw else c for c in comp]
            pieces -= 1
    return pieces == 1


def _piece(A: Algebra, e: frozenset, start) -> frozenset:
    """The vertices that arrows avoiding e join to the vertices in start."""
    piece, grew = set(start), True
    while grew:
        grew = False
        for a in A.arrows:
            if a.source not in e and a.target not in e and (a.source in piece) != (a.target in piece):
                piece.update((a.source, a.target))
                grew = True
    return frozenset(piece)


def _pieces(A: Algebra, e: frozenset) -> list:
    """The vertex sets of the connected pieces of the quiver of A/<e>."""
    out = []
    for v in A.vertices:
        if v not in e and not any(v in c for c in out):
            out.append(_piece(A, e, [v]))
    return out


def ar_quiver_dot(idx: IndecIndex) -> str:
    """The AR quiver in DOT format; tau is drawn dashed."""
    lines = ["digraph AR {"]
    for i, M in enumerate(idx.modules):
        label = "(" + ",".join(str(d) for d in M.dim_vector()) + ")"
        lines.append(f'  m{i} [label="{label}"];')
    for i, j, a in idx.ar_arrows:
        attr = f' [label="{a}"]' if a > 1 else ""
        lines.append(f"  m{i} -> m{j}{attr};")
    for z in sorted(idx.tau_map):
        lines.append(f"  m{z} -> m{idx.tau_map[z]} [style=dashed, constraint=false];")
    lines.append("}")
    return "\n".join(lines) + "\n"
