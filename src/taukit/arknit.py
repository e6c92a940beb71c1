"""Enumeration of all indecomposables for representation-finite algebras.

The knitting route seeds the index with the projectives, injectives,
simples and the radical/socle layers of those, then closes under the AR
translate in both directions.  The loop takes one minimal presentation of
each M and one of D M: tau M = D Tr M and tau^-1 M = Tr D M are their
transposes, M is projective (injective) when the one of M (D M) has no P1
term, and M's presentation stays with it through the sort as the top
generators that census Hom is solved on.  Each translate is placed by the
one iso scan that registers it, and its index is carried through the sort.
Completeness is certified afterwards by mesh additivity: for every
non-projective Z with almost split sequence 0 -> tau Z -> E -> Z -> 0, the
middle term recomputed from irreducible-map multiplicities must match
dimension-wise, and the kept tau^-1 of tau Z must be Z again.  The
irreducible multiplicity a(X, Y) is dim rad(X, Y) minus the rank of the
composites through rad^2; each span stops growing once it fills rad(X, Y).
The brute-force enumerator is the independent oracle the tests compare
against.  It rejects a candidate on its raw entries, before building a
module, when a relation fails or when its support falls apart into pieces
that no nonzero arrow joins (then it is the sum of those pieces).

Summand multiplicities are read off the certified mesh, with no search:
Y occurs h(Y) - sum_X a(X, Y) h(X) + h(tau Y) times in M, h(Z) = dim Hom(M, Z),
with no tau term for projective Y; a negative count or a dim mismatch is an
AssertionError.  The one Hom cache holds bases, solved on the source's top
generators and knitting fills it; hom_dim is a basis length.
Maps between sums of members are rows of Hom-basis coordinates: `precompose`
reads g -> g o F off the compose table and `map_at` gives one vertex's matrix.
`tau2_row` keeps tau_2 X_j over A/<e> with the members that map into it.
"""

from __future__ import annotations

import itertools

from . import modcat as mc
from .algebra import Algebra, quotient_by_idempotent
from .exactlin import Mat, free_variable_basis, kernel_basis, rref, solve_matrix


class LimitExceededError(Exception):
    """Knitting budget hit; the partial index is attached."""

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial or []


class BudgetExceededError(Exception):
    """Brute-force enumeration would exceed the configured work budget."""


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
        self._hom_cache = {}  # (i, j) -> Hom basis
        self._ext_cache = {}
        self._resolutions = {}  # (i, length) -> resolution of X_i
        self._ext_masks = {}  # k -> (rows, columns)
        self._compose_cache = {}
        self._radicals = {}  # i -> rad End(X_i) coordinates
        self._quotient_projectives = {}  # e -> indices
        self._tau2 = {}  # (e, j) -> (tau_2 X_j over A/<e>, row)
        self._proj_flags = []
        self._inj_flags = []
        self._generators = {}  # i -> _Generators of X_i
        self._actions = {}  # (j, v, word) -> path action on X_j

    def find_iso(self, M) -> int | None:
        """Index of the entry isomorphic to the indecomposable M, if any."""
        return _iso_index(self.modules, M)

    def hom_dim(self, i: int, j: int) -> int:
        return len(self.hom_basis(i, j))

    def hom_basis(self, i: int, j: int) -> list:
        """The `mc.hom_basis` of Hom(X_i, X_j), computed once from X_i's top generators.

        0 -> Hom(X_i, N) -> Hom(P0, N) -> Hom(P1, N) is exact for the minimal
        presentation P1 -> P0 -> X_i: a map is the images x_k in N_{v_k} of
        the generators, subject to the relations P1 names, evaluated in N
        through its cached path actions.  Each solution x sends path * g_k to
        path * x_k, read through a section of the cover at each vertex; the
        basis is then put in the free-variable form of `mc.hom_basis`.
        """
        if (i, j) not in self._hom_cache:
            self._hom_cache[(i, j)] = self._generator_hom_basis(i, j)
        return self._hom_cache[(i, j)]

    def _generator_hom_basis(self, i: int, j: int) -> list:
        gens, X, N = self._generator_data(i), self.modules[i], self.modules[j]
        A, p = self.algebra, self.algebra.field.p
        at = [0]
        for v in gens.verts0:
            at.append(at[-1] + N.dims[v])
        if not at[-1]:
            return []
        rows = [[0] * at[-1] for v in gens.verts1 for _ in range(N.dims[v])]
        row_at = 0
        for r, u in enumerate(gens.verts1):
            for k, terms in gens.relations[r]:
                for c, word in terms:
                    for t, entries in enumerate(self._path_action(j, gens.verts0[k], word).data):
                        out = rows[row_at + t]
                        for q, y in enumerate(entries, at[k]):
                            out[q] += c * y
            row_at += N.dims[u]
        vectors = []
        for x in kernel_basis(Mat.from_rows(A.field, rows, cols=at[-1])):
            flat = []
            for w in A.vertices:
                if not X.dims[w] * N.dims[w]:
                    continue
                images = [(self._path_action(j, gens.verts0[k], word).apply(x[at[k]:at[k + 1]]), row)
                          for k, word, row in gens.sections[w]]
                for r in range(N.dims[w]):
                    f_r = [0] * X.dims[w]
                    for image, row in images:
                        for c, y in enumerate(row if image[r] else ()):
                            f_r[c] += image[r] * y
                    flat.extend(y % p for y in f_r)
            vectors.append(flat)
        length = sum(X.dims[w] * N.dims[w] for w in A.vertices)
        return [mc.vector_to_hom(X, N, vec) for vec in free_variable_basis(A.field, vectors, length)]

    def _generator_data(self, i: int) -> "_Generators":
        if i not in self._generators:
            self._generators[i] = _Generators.of(mc.minimal_presentation(self.modules[i]))
        return self._generators[i]

    def _path_action(self, j: int, v, word) -> Mat:
        key = (j, v, word)
        if key not in self._actions:
            self._actions[key] = mc.path_action(self.modules[j], v, word)
        return self._actions[key]

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
        first, second = self.hom_basis(i, j), self.hom_basis(j, k)
        products = [mc.hom_to_vector(a.compose(b)) for a in second for b in first]
        if not products:
            return [[] for _ in second]
        target = self.hom_basis(i, k)
        field_ = self.algebra.field
        rows = len(products[0])
        span = Mat.from_columns(field_, [mc.hom_to_vector(h) for h in target], rows=rows)
        coords = solve_matrix(span, Mat.from_columns(field_, products, rows=rows))
        if coords is None:
            raise AssertionError(f"a composite X_{i} -> X_{k} left the span of its Hom basis")
        cols = coords.columns()
        return [cols[a * len(first):(a + 1) * len(first)] for a in range(len(second))]

    def radical(self, i: int, j: int) -> list:
        """Coordinates over hom_basis(i, j) of a basis of rad(X_i, X_j), all of Hom for i != j."""
        if i != j:
            n = self.hom_dim(i, j)
            return [tuple(int(a == b) for b in range(n)) for a in range(n)]
        if i not in self._radicals:
            flat = [mc.flatten_endo(f) for f in self.hom_basis(i, i)]
            rad = mc.radical_of_endos(self.algebra.field, flat)
            if len(flat) - len(rad) != 1:
                raise AssertionError(f"End(X_{i}) modulo its radical is not the ground field")
            self._radicals[i] = rad
        return self._radicals[i]

    def precompose(self, F, src, mid, k) -> Mat:
        """The matrix of g -> g o F, Hom(+mid, X_k) -> Hom(+src, X_k), for F: +src -> +mid.

        A map from a sum of census members into X_k is a row: its coordinates
        in the hom_basis of each summand and k, in turn.  F is one such row per
        summand of mid.  The entries are read off the compose table.
        """
        row_at, col_at = self._offsets(src, k), self._offsets(mid, k)
        out = [[0] * col_at[-1] for _ in range(row_at[-1])]
        for b, m in enumerate(mid):
            f_at = self._offsets(src, m)
            for a, s in enumerate(src):
                f = F[b][f_at[a]:f_at[a + 1]]
                table = self.compose(s, m, k) if any(f) else ()
                for c, products in enumerate(table):
                    for y, coords in zip(f, products):
                        for t, z in enumerate(coords if y else ()):
                            out[row_at[a] + t][col_at[b] + c] += y * z
        return Mat.from_rows(self.algebra.field, out, cols=col_at[-1])

    def _offsets(self, summands, k) -> list:
        """Where the block of each summand starts in a row into X_k, and the row length."""
        out = [0]
        for s in summands:
            out.append(out[-1] + self.hom_dim(s, k))
        return out

    def map_at(self, F, src, tgt, v) -> Mat:
        """The matrix at vertex v of F: +src -> +tgt, one `precompose` row per tgt summand."""
        rows = []
        for b, t in enumerate(tgt):
            for r in range(self.modules[t].dims[v]):
                row, at = [], 0
                for s in src:
                    entries = [0] * self.modules[s].dims[v]
                    for coef, f in zip(F[b][at:], self.hom_basis(s, t)):
                        for q, x in enumerate(f.mats[v].data[r] if coef else ()):
                            entries[q] += coef * x
                    at += self.hom_dim(s, t)
                    row += entries
                rows.append(row)
        return Mat.from_rows(self.algebra.field, rows, cols=sum(self.modules[s].dims[v] for s in src))

    def quotient_projectives(self, e: frozenset) -> tuple:
        """Census indices of the indecomposable projectives of A/<e>, read as A-modules."""
        if e not in self._quotient_projectives:
            Aq = quotient_by_idempotent(self.algebra, e) if e else self.algebra
            found = [self.find_iso(mc.induce_module(mc.projective(Aq, v), self.algebra))
                     for v in Aq.vertices]
            if None in found:
                raise AssertionError(f"a projective of A/<{sorted(e)}> is missing from the census")
            self._quotient_projectives[e] = tuple(found)
        return self._quotient_projectives[e]

    def tau2_row(self, e: frozenset, j: int) -> tuple:
        """tau_2 X_j over A/<e> as an A-module, and the bitmask of the i with Hom(X_i, it) != 0.

        X_j must vanish on e.  Hom between modules that e kills is the same over
        A and over A/<e>, so the row is read over A, only at the X_i that vanish
        on e.  Computed once per (e, j).
        """
        if (e, j) not in self._tau2:
            Aq = quotient_by_idempotent(self.algebra, e) if e else self.algebra
            t = mc.induce_module(mc.tau_d(mc.restrict_module(self.modules[j], Aq), 2), self.algebra)
            row = sum(1 << i for i, Y in enumerate(self.modules)
                      if not any(Y.dims[v] for v in e) and mc.hom_dim(Y, t))
            self._tau2[(e, j)] = (t, row)
        return self._tau2[(e, j)]

    def ext_dim(self, k: int, i: int, j: int) -> int:
        key = (k, i, j)
        if key not in self._ext_cache:
            if k <= 0:
                self._ext_cache[key] = mc.ext_dim(k, self.modules[i], self.modules[j])
            else:
                if (i, k + 1) not in self._resolutions:
                    self._resolutions[(i, k + 1)] = mc.projective_resolution(self.modules[i], k + 1)
                res = self._resolutions[(i, k + 1)]
                self._ext_cache[key] = mc.resolution_ext_dim(res, k, self.modules[j])
        return self._ext_cache[key]

    def ext_masks(self, k: int) -> tuple:
        """Bitmask rows[x] of the m with Ext^k(X_x, X_m) != 0, and columns[m] of those x."""
        if k not in self._ext_masks:
            ids = range(len(self.modules))
            rows = [sum(1 << m for m in ids if self.ext_dim(k, x, m)) for x in ids]
            self._ext_masks[k] = (rows, [sum(1 << x for x in ids if rows[x] >> m & 1) for m in ids])
        return self._ext_masks[k]

    def is_projective(self, i: int) -> bool:
        return self._proj_flags[i]

    def is_injective(self, i: int) -> bool:
        return self._inj_flags[i]

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


class _Generators:
    """The top generators of a module X, from its minimal presentation P1 -> P0 ->> X.

    Generator k lives at verts0[k].  relations[r] lists, for the r-th summand
    P(verts1[r]) of P1, the (k, terms) of its image in P0.  sections[w] is a
    right inverse of the cover at vertex w, as its nonzero rows (k, path, row)
    over the basis path * g_k of (P0)_w.
    """

    def __init__(self, verts0: list, verts1: list, relations: list, sections: dict):
        self.verts0 = verts0
        self.verts1 = verts1
        self.relations = relations
        self.sections = sections

    @classmethod
    def of(cls, pres) -> "_Generators":
        A, cover = pres.cover.target.algebra, pres.cover
        relations = [[(k, terms) for (k, r), terms in sorted(pres.elements.items()) if r == row]
                     for row in range(len(pres.verts1))]
        sections = {}
        for w in A.vertices:
            labels = [(k, pth.arrows) for k, v in enumerate(pres.verts0)
                      for pth in A.paths_from(v) if pth.target == w]
            right = solve_matrix(cover.mats[w], Mat.identity(A.field, cover.target.dims[w]))
            sections[w] = [(k, word, row) for (k, word), row in zip(labels, right.data) if any(row)]
        return cls(list(pres.verts0), list(pres.verts1), relations, sections)


def _iso_index(modules, M) -> int | None:
    """Index of the first of the indecomposables isomorphic to M, if any."""
    for i, X in enumerate(modules):
        if X.dim_vector() == M.dim_vector() and mc.iso_between_indecomposables(M, X) is not None:
            return i
    return None


def _seed_modules(A: Algebra):
    seeds = []
    for v in A.vertices:
        seeds.append(mc.projective(A, v))
    for v in A.vertices:
        seeds.append(mc.injective(A, v))
    for v in A.vertices:
        seeds.append(mc.simple(A, v))
    for v in A.vertices:
        P = mc.projective(A, v)
        radP, _ = mc.radical_submodule(P)
        if not radP.is_zero():
            seeds.append(radP)
        I = mc.injective(A, v)
        soc, inc = mc.submodule_from_columns(I, mc.socle_columns(I))
        quot, _ = mc.cokernel(inc)
        if not quot.is_zero():
            seeds.append(quot)
    return seeds


def knit_indecomposables(A: Algebra, max_count: int = 64, max_dim: int = 64) -> IndecIndex:
    """Complete indecomposable census for a representation-finite algebra."""
    if max_count <= 0 or max_dim <= 0:
        raise ValueError("limits must be positive")
    found: list = []

    def register(M) -> int | None:
        """The index in found of the member isomorphic to M, placing M if it is new."""
        if M.is_zero():
            return None
        if M.total_dim > max_dim:
            raise LimitExceededError(
                f"module of dimension {M.total_dim} exceeds max_dim={max_dim}", partial=found)
        k = _iso_index(found, M)
        if k is not None:
            return k
        found.append(M)
        if len(found) > max_count:
            raise LimitExceededError(f"more than max_count={max_count} indecomposables", partial=found)
        return len(found) - 1

    for seed in _seed_modules(A):
        for X, _ in mc.decompose(seed).summands:
            register(X)

    # for each M in found: its presentation, whether it is injective (D M's presentation
    # has no P1), and the indices in found of tau M and tau^-1 M, None when not taken
    records = []
    while len(records) < len(found):
        M = found[len(records)]
        pres = mc.minimal_presentation(M)
        DM = mc.dual(M)
        dual_pres = mc.minimal_presentation(DM)
        records.append((pres, not dual_pres.verts1,
                        register(mc.dual(mc.transpose(M, pres))) if pres.verts1 else None,
                        register(mc.transpose(DM, dual_pres)) if dual_pres.verts1 else None))

    order = sorted(range(len(found)), key=lambda i: (found[i].total_dim, found[i].dim_vector()))
    place = {i: z for z, i in enumerate(order)}
    idx = IndecIndex(A, [found[i] for i in order])
    inverses = []
    for z, i in enumerate(order):
        pres, injective, t, s = records[i]
        idx._proj_flags.append(not pres.verts1)
        idx._inj_flags.append(injective)
        idx._generators[z] = _Generators.of(pres)
        if pres.verts1:
            if t is None:
                raise KnitIncompleteError("tau image missing from index")
            idx.tau_map[z] = place[t]
        inverses.append(place.get(s))
    _certify_and_mesh(idx, inverses)
    return idx


def _rad_basis(idx: IndecIndex, i: int, j: int) -> list:
    """A basis of the radical rad(X_i, X_j) (all of Hom for i != j)."""
    homs = idx.hom_basis(i, j)
    if i != j:
        return homs
    flat = [mc.flatten_endo(f) for f in homs]
    field_ = idx.algebra.field
    rad_coords = mc.radical_of_endos(field_, flat)
    rad_maps = []
    for coords in rad_coords:
        g = mc.ModMap.zero(idx.modules[i], idx.modules[j])
        for c, f in zip(coords, homs):
            if c:
                g = g.add(f.scale(c))
        rad_maps.append(g)
    return rad_maps


def irreducible_multiplicities(idx: IndecIndex) -> dict:
    """a(X, Y) = dim rad(X,Y)/rad^2(X,Y) for all ordered pairs in the index.

    The composites h o g through X_z are added one z at a time, keeping only
    an echelon basis of their span, and the span stops growing once it fills
    rad(X, Y).  A span larger than rad(X, Y) means a composite left the
    radical, which is a defect.
    """
    n = len(idx.modules)
    field_ = idx.algebra.field
    rad = {(i, j): _rad_basis(idx, i, j) for i in range(n) for j in range(n)}
    out = {}
    for i in range(n):
        for j in range(n):
            dim = len(rad[(i, j)])
            if dim == 0:
                continue
            veclen = len(mc.hom_to_vector(rad[(i, j)][0]))
            span, sq_rank = [], 0
            for z in range(n):
                square = [mc.hom_to_vector(h.compose(g)) for g in rad[(i, z)] for h in rad[(z, j)]]
                if not square:
                    continue
                echelon = rref(Mat.from_rows(field_, span + square, cols=veclen))
                sq_rank = echelon.rank
                if sq_rank >= dim:
                    break
                span = list(echelon.matrix.data[:sq_rank])
            if sq_rank > dim:
                raise AssertionError(f"composites X_{i} -> X_{j} through rad^2 span more than rad")
            if sq_rank < dim:
                out[(i, j)] = dim - sq_rank
    return out


def _certify_and_mesh(idx: IndecIndex, inverses: list):
    """Mesh additivity and the tau round trip; inverses[i] is the index of tau^-1 X_i or None."""
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
    """All indecomposables with dim vector <= max_dims, by raw enumeration."""
    p = A.field.p
    bounds = [max_dims.get(v, 0) for v in A.vertices]
    total_work = 0
    vectors = list(itertools.product(*(range(b + 1) for b in bounds)))
    for dims in vectors:
        entries = sum(dims[A.vertex_index[a.target]] * dims[A.vertex_index[a.source]]
                      for a in A.arrows)
        total_work += p ** entries
    if total_work > budget:
        raise BudgetExceededError(f"enumeration needs {total_work} module candidates")
    names = [a.name for a in A.arrows]
    out: list = []
    for dims in vectors:
        if sum(dims) == 0:
            continue
        dim_map = dict(zip(A.vertices, dims))
        support = [v for v in A.vertices if dim_map[v]]
        shapes = [(dim_map[a.target], dim_map[a.source]) for a in A.arrows]
        # every matrix of each arrow, as row tuples
        choices = [[tuple(flat[i * c:(i + 1) * c] for i in range(r))
                    for flat in itertools.product(range(p), repeat=r * c)] for r, c in shapes]
        for assignment in itertools.product(*choices):
            rows = dict(zip(names, assignment))
            if not mc.relations_hold(A, dim_map, rows):
                continue
            if not _connected(support, [a for a, m in zip(A.arrows, assignment) if any(map(any, m))]):
                continue
            action = {a.name: Mat.from_rows(A.field, m, cols=c)
                      for a, m, (_, c) in zip(A.arrows, assignment, shapes)}
            M = mc.Module(A, dim_map, action, check=True)
            if not mc.is_indecomposable(M):
                continue
            if _iso_index(out, M) is not None:
                continue
            out.append(M)
    out.sort(key=lambda m: (m.total_dim, m.dim_vector()))
    return out


def _connected(vertices: list, arrows: list) -> bool:
    """Whether the arrows join the vertices into one piece (True for no vertices)."""
    reach = set(vertices[:1])
    grew = True
    while grew:
        grew = False
        for a in arrows:
            if (a.source in reach) != (a.target in reach):
                reach.update((a.source, a.target))
                grew = True
    return len(reach) == len(vertices)


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
