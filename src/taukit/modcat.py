"""The module category mod A for a bound quiver algebra A.

Modules are representations: one matrix per arrow over the base prime
field.  Everything downstream (Hom, Ext, approximations, translates) is
exact linear algebra on these matrices.  All objects are immutable by
convention; functions return fresh values.

Minimal presentations, resolutions, syzygies and projective dimensions come
from one loop on top generators (`_resolve`) that builds no module for any
term, and `transpose` takes its cokernel on matrices built from that element form.
"""

from __future__ import annotations

import random
from itertools import accumulate

from .algebra import Algebra, opposite
from .exactlin import (
    Mat,
    column_space_basis,
    free_columns,
    kernel_basis,
    quotient_coordinates,
    rank,
    solve,
    solve_matrix,
)

# seed of the random End(M) combinations that decompose tries when splitting M
DECOMPOSE_SEED = 0


class DecompositionError(Exception):
    """A decomposable module resisted every splitting attempt."""


class Module:
    """A finite-dimensional representation of a bound quiver algebra."""

    __slots__ = ("algebra", "dims", "action", "total_dim", "presentation")

    def __init__(self, A: Algebra, dims: dict, action: dict, check: bool = True):
        self.algebra = A
        self.presentation = None  # a projective presentation its maker read off, if any (see `transpose`)
        self.dims = {v: int(dims.get(v, 0)) for v in A.vertices}
        self.action = {}
        for a in A.arrows:
            m = action.get(a.name)
            if m is None:
                m = Mat.zeros(A.field, self.dims[a.target], self.dims[a.source])
            self.action[a.name] = m
        self.total_dim = sum(self.dims.values())
        if check:
            self.validate()

    def validate(self):
        A = self.algebra
        for v, d in self.dims.items():
            if d < 0:
                raise ValueError("negative dimension")
        for a in A.arrows:
            m = self.action[a.name]
            if (m.rows, m.cols) != (self.dims[a.target], self.dims[a.source]):
                raise ValueError(f"matrix shape mismatch for arrow {a.name}")
        if not relations_hold(A, self.dims, {name: m.data for name, m in self.action.items()}):
            raise ValueError("module does not satisfy the algebra relations")

    def dim_vector(self) -> tuple:
        return tuple(self.dims[v] for v in self.algebra.vertices)

    def is_zero(self) -> bool:
        return self.total_dim == 0

    def __repr__(self) -> str:
        return f"Module{self.dim_vector()}"

    def to_json(self) -> dict:
        return {
            "dims": {v: self.dims[v] for v in self.algebra.vertices},
            "action": {a.name: [list(r) for r in self.action[a.name].data] for a in self.algebra.arrows},
        }


class ModMap:
    """A morphism of modules: one matrix per vertex intertwining the actions."""

    __slots__ = ("source", "target", "mats")

    def __init__(self, source: Module, target: Module, mats: dict, check: bool = True):
        self.source = source
        self.target = target
        A = source.algebra
        self.mats = {}
        for v in A.vertices:
            m = mats.get(v)
            if m is None:
                m = Mat.zeros(A.field, target.dims[v], source.dims[v])
            self.mats[v] = m
        if check:
            self.validate()

    def validate(self):
        A = self.source.algebra
        if A != self.target.algebra:
            raise ValueError("morphism between modules over different algebras")
        for v in A.vertices:
            m = self.mats[v]
            if (m.rows, m.cols) != (self.target.dims[v], self.source.dims[v]):
                raise ValueError(f"morphism matrix shape mismatch at vertex {v}")
        for a in A.arrows:
            left = self.mats[a.target].mul(self.source.action[a.name])
            right = self.target.action[a.name].mul(self.mats[a.source])
            if left != right:
                raise ValueError(f"morphism does not intertwine arrow {a.name}")

    def compose(self, other: "ModMap") -> "ModMap":
        """self after other."""
        if other.target.dims != self.source.dims:
            raise ValueError("composition dimension mismatch")
        mats = {v: self.mats[v].mul(other.mats[v]) for v in self.source.algebra.vertices}
        return ModMap(other.source, self.target, mats, check=False)

    def add(self, other: "ModMap") -> "ModMap":
        return ModMap(self.source, self.target,
                      {v: self.mats[v].add(other.mats[v]) for v in self.mats}, check=False)

    def scale(self, c: int) -> "ModMap":
        return ModMap(self.source, self.target,
                      {v: self.mats[v].scale(c) for v in self.mats}, check=False)

    def sub(self, other: "ModMap") -> "ModMap":
        return self.add(other.scale(-1))

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.mats.values())

    def is_iso(self) -> bool:
        return all(m.rows == m.cols and rank(m) == m.rows for m in self.mats.values())

    def is_mono(self) -> bool:
        return all(rank(m) == m.cols for m in self.mats.values())

    def is_epi(self) -> bool:
        return all(rank(m) == m.rows for m in self.mats.values())

    def __repr__(self) -> str:
        return f"ModMap({self.source!r} -> {self.target!r})"

    @classmethod
    def identity(cls, M: Module) -> "ModMap":
        return cls(M, M, {v: Mat.identity(M.algebra.field, M.dims[v]) for v in M.algebra.vertices}, check=False)

    @classmethod
    def zero(cls, M: Module, N: Module) -> "ModMap":
        return cls(M, N, {}, check=False)


def relations_hold(A: Algebra, dims: dict, rows: dict) -> bool:
    """Whether arrow matrices, given as row tuples by arrow name, satisfy A's relations.

    `Module.validate` runs it on `Mat.data`, and the brute-force enumerator
    on the raw entries of a candidate before it builds any module.
    """
    p = A.field.p
    for rel in A.spec.relations:
        d_s = dims[rel.source]
        acc = [[0] * d_s for _ in range(dims[rel.target])]
        for coeff, word in rel.terms:
            cur = rows[word[0]]
            for name in word[1:]:
                nxt = []
                for row in rows[name]:
                    out = [0] * d_s
                    for a, prev in zip(row, cur):
                        for c, y in enumerate(prev if a else ()):
                            out[c] += a * y
                    nxt.append(out)
                cur = nxt
            for out, row in zip(acc, cur):
                for c, y in enumerate(row):
                    out[c] += coeff * y
        if any(y % p for out in acc for y in out):
            return False
    return True


def zero_module(A: Algebra) -> Module:
    return Module(A, {}, {}, check=False)


def simple(A: Algebra, v) -> Module:
    if v not in A.vertex_index:
        raise ValueError(f"unknown vertex {v!r}")
    return Module(A, {v: 1}, {}, check=True)


def path_action(M: Module, source, arrows) -> Mat:
    """Matrix of the path acting on M (source vertex space to target space)."""
    A = M.algebra
    out = Mat.identity(A.field, M.dims[source])
    at = source
    for name in arrows:
        arrow = A.arrow_by_name[name]
        if arrow.source != at:
            raise ValueError("path does not compose")
        out = M.action[name].mul(out)
        at = arrow.target
    return out


def element_action(M: Module, terms, source, target) -> Mat:
    """Matrix of a combination of parallel paths (list of (coeff, word))."""
    acc = Mat.zeros(M.algebra.field, M.dims[target], M.dims[source])
    for coeff, word in terms:
        acc = acc.add(path_action(M, source, word).scale(coeff))
    return acc


class DirectSum:
    def __init__(self, module: Module, inclusions: list, projections: list):
        self.module = module
        self.inclusions = inclusions
        self.projections = projections


def direct_sum(A: Algebra, modules) -> DirectSum:
    modules = list(modules)
    dims = {v: sum(m.dims[v] for m in modules) for v in A.vertices}
    action = {}
    for a in A.arrows:
        action[a.name] = Mat.block_diag(A.field, [m.action[a.name] for m in modules]) \
            if modules else Mat.zeros(A.field, 0, 0)
    total = Module(A, dims, action, check=False)
    inclusions, projections = [], []
    offsets = {v: 0 for v in A.vertices}
    for m in modules:
        inc_mats, proj_mats = {}, {}
        for v in A.vertices:
            n, d, off = dims[v], m.dims[v], offsets[v]
            inc = [[1 if i == off + j else 0 for j in range(d)] for i in range(n)]
            inc_mats[v] = Mat.from_rows(A.field, inc, cols=d)
            proj_mats[v] = inc_mats[v].transpose()
            offsets[v] = off + d
        inclusions.append(ModMap(m, total, inc_mats, check=False))
        projections.append(ModMap(total, m, proj_mats, check=False))
    return DirectSum(total, inclusions, projections)


def map_from_sum(ds: DirectSum, components) -> ModMap:
    """The map out of a direct sum with the given component maps (common target)."""
    target = components[0].target if components else None
    if target is None:
        raise ValueError("need at least one component")
    A = ds.module.algebra
    mats = {v: Mat.hstack(A.field, [c.mats[v] for c in components], rows=target.dims[v])
            for v in A.vertices}
    return ModMap(ds.module, target, mats, check=False)


def map_into_sum(ds: DirectSum, components) -> ModMap:
    source = components[0].source if components else None
    if source is None:
        raise ValueError("need at least one component")
    A = ds.module.algebra
    mats = {v: Mat.vstack(A.field, [c.mats[v] for c in components], cols=source.dims[v])
            for v in A.vertices}
    return ModMap(source, ds.module, mats, check=False)


def block_map(src: DirectSum, tgt: DirectSum, blocks: dict) -> ModMap:
    """Map between direct sums from a dict (target index, source index) -> ModMap."""
    A = src.module.algebra
    src_mods = [inc.source for inc in src.inclusions]
    tgt_mods = [inc.source for inc in tgt.inclusions]
    mats = {}
    for v in A.vertices:
        grid = [[0] * src.module.dims[v] for _ in range(tgt.module.dims[v])]
        roff = 0
        for i, ti in enumerate(tgt_mods):
            coff = 0
            for j, sj in enumerate(src_mods):
                f = blocks.get((i, j))
                if f is not None:
                    blk = f.mats[v]
                    for r in range(blk.rows):
                        for c in range(blk.cols):
                            grid[roff + r][coff + c] = blk.entry(r, c)
                coff += sj.dims[v]
            roff += ti.dims[v]
        mats[v] = Mat.from_rows(A.field, grid, cols=src.module.dims[v])
    return ModMap(src.module, tgt.module, mats, check=False)


# -- Hom spaces ---------------------------------------------------------------


def hom_basis(M: Module, N: Module):
    """A deterministic basis of Hom_A(M, N) as a list of ModMaps."""
    A = M.algebra
    if A != N.algebra:
        raise ValueError("modules over different algebras")
    offsets = {}
    total = 0
    for v in A.vertices:
        offsets[v] = total
        total += N.dims[v] * M.dims[v]
    if total == 0:
        return []
    rows = []
    for a in A.arrows:
        u, w = a.source, a.target
        Ma, Na = M.action[a.name], N.action[a.name]
        # constraint f_w * Ma - Na * f_u = 0, entry (i, j) with i < N.dims[w], j < M.dims[u]
        for i in range(N.dims[w]):
            for j in range(M.dims[u]):
                row = [0] * total
                for k in range(M.dims[w]):
                    row[offsets[w] + i * M.dims[w] + k] = (row[offsets[w] + i * M.dims[w] + k]
                                                           + Ma.entry(k, j)) % A.field.p
                for l in range(N.dims[u]):
                    row[offsets[u] + l * M.dims[u] + j] = (row[offsets[u] + l * M.dims[u] + j]
                                                           - Na.entry(i, l)) % A.field.p
                rows.append(row)
    mat = Mat.from_rows(A.field, rows, cols=total) if rows else Mat.zeros(A.field, 0, total)
    return [vector_to_hom(M, N, vec) for vec in kernel_basis(mat)]


def hom_dim(M: Module, N: Module) -> int:
    return len(hom_basis(M, N))


def hom_to_vector(f: ModMap) -> tuple:
    out = []
    for v in f.source.algebra.vertices:
        for row in f.mats[v].data:
            out.extend(row)
    return tuple(out)


def vector_to_hom(M: Module, N: Module, vec) -> ModMap:
    """The map M -> N whose `hom_to_vector` is vec, a tuple with entries in [0, p)."""
    A = M.algebra
    mats, at = {}, 0
    for v in A.vertices:
        d_n, d_m = N.dims[v], M.dims[v]
        mats[v] = Mat(A.field, d_n, d_m, tuple(vec[at + i * d_m:at + (i + 1) * d_m] for i in range(d_n)))
        at += d_n * d_m
    return ModMap(M, N, mats, check=False)


def factor_through(maps, g: ModMap) -> list | None:
    """Maps h_i: M -> X_i with sum f_i h_i = g, for f_i: X_i -> N and g: M -> N.

    Hom(M, X_1 + ... + X_k) is read as the sum of the Hom(M, X_i), so no direct
    sum is built and one linear system decides the factorization.  None when g
    does not factor.
    """
    bases = [hom_basis(g.source, f.source) for f in maps]
    target_vec = hom_to_vector(g)
    cols = [hom_to_vector(f.compose(h)) for f, basis in zip(maps, bases) for h in basis]
    field = g.source.algebra.field
    mat = Mat.from_columns(field, cols, rows=len(target_vec)) if cols \
        else Mat.zeros(field, len(target_vec), 0)
    sol = solve(mat, target_vec)
    if sol is None:
        return None
    out = []
    coeffs = iter(sol)
    for f, basis in zip(maps, bases):
        h = ModMap.zero(g.source, f.source)
        for b in basis:
            c = next(coeffs)
            if c:
                h = h.add(b.scale(c))
        out.append(h)
    return out


# -- kernels, images, cokernels ----------------------------------------------


class MapParts:
    def __init__(self, kernel: Module, kernel_inclusion: ModMap, image: Module, image_epi: ModMap,
                 image_mono: ModMap, cokernel: Module, cokernel_projection: ModMap):
        self.kernel = kernel
        self.kernel_inclusion = kernel_inclusion
        self.image = image
        self.image_epi = image_epi
        self.image_mono = image_mono
        self.cokernel = cokernel
        self.cokernel_projection = cokernel_projection


def _stable_subspace(big: Module, basis: dict):
    """The submodule of `big` with the given arrow-stable basis, and its inclusion."""
    A = big.algebra
    action = {}
    for a in A.arrows:
        sol = solve_matrix(basis[a.target], big.action[a.name].mul(basis[a.source]))
        if sol is None:
            raise AssertionError("subspace is not arrow-stable")
        action[a.name] = sol
    sub = Module(A, {v: basis[v].cols for v in A.vertices}, action, check=False)
    return sub, ModMap(sub, big, basis, check=False)


def kernel(f: ModMap):
    """Pointwise kernel of f with its induced arrow action: (K, inclusion K -> source)."""
    A = f.source.algebra
    M = f.source
    kbas = {v: Mat.from_columns(A.field, kernel_basis(f.mats[v]), rows=M.dims[v])
            for v in A.vertices}
    return _stable_subspace(M, kbas)


def cokernel(f: ModMap):
    """Pointwise cokernel of f with its induced arrow action: (Q, projection target -> Q)."""
    A = f.source.algebra
    N = f.target
    complement, reduce, action = _cokernel(A, N.action, f.mats)
    Q = Module(A, {v: len(complement[v]) for v in A.vertices}, action, check=False)
    proj = {v: _projection(A.field, complement[v], reduce[v], N.dims[v]) for v in A.vertices}
    return Q, ModMap(N, Q, proj, check=False)


def _cokernel(A: Algebra, action: dict, image: dict):
    """The cokernel of the spans image[v] in a representation: at each v, the standard basis
    vectors complement[v] that complete the image, reduce[v] reading coordinates on them,
    and the induced action."""
    complement, reduce = {}, {}
    for v in A.vertices:
        complement[v], reduce[v] = quotient_coordinates(image[v])
    quotient = {}
    for a in A.arrows:
        cols = [reduce[a.target](action[a.name].col(c)) for c in complement[a.source]]
        quotient[a.name] = Mat.from_columns(A.field, cols, rows=len(complement[a.target]))
    return complement, reduce, quotient


def _projection(field, complement: list, reduce, n: int) -> Mat:
    """The matrix of F^n ->> F^n / U on the coordinates of `quotient_coordinates`: column c is the
    unit vector of c's place in complement when c is there, else e_c reduced modulo U."""
    rows = [[0] * n for _ in complement]
    for q, c in enumerate(complement):
        rows[q][c] = 1
    for c in set(range(n)).difference(complement):
        for row, y in zip(rows, reduce(tuple(int(r == c) for r in range(n)))):
            row[c] = y
    return Mat(field, len(rows), n, tuple(map(tuple, rows)))


def map_parts(f: ModMap) -> MapParts:
    """Pointwise kernel, image and cokernel with their induced arrow actions."""
    A = f.source.algebra
    ibas = {v: column_space_basis(f.mats[v]) for v in A.vertices}
    image, img_mono = _stable_subspace(f.target, ibas)
    img_epi = ModMap(f.source, image, {v: solve_matrix(ibas[v], f.mats[v]) for v in A.vertices},
                     check=False)
    return MapParts(*kernel(f), image, img_epi, img_mono, *cokernel(f))


def submodule_from_columns(M: Module, columns: dict):
    """Smallest description of the submodule spanned by the given columns.

    columns maps vertex -> Mat whose columns lie in M at that vertex; every
    caller passes an arrow-stable span, so an unstable one is a defect and
    raises AssertionError.  Returns (module, inclusion).
    """
    A = M.algebra
    return _stable_subspace(M, {v: column_space_basis(columns[v]) if v in columns
                                else Mat.zeros(A.field, M.dims[v], 0) for v in A.vertices})


def trace_from(T: Module, M: Module):
    """The trace of T in M: the sum of images of all maps T -> M."""
    A = M.algebra
    cols = {v: [] for v in A.vertices}
    for f in hom_basis(T, M):
        for v in A.vertices:
            cols[v].append(f.mats[v])
    stacked = {v: Mat.hstack(A.field, cols[v], rows=M.dims[v]) if cols[v]
               else Mat.zeros(A.field, M.dims[v], 0) for v in A.vertices}
    return submodule_from_columns(M, stacked)


def reject_into(M: Module, F: Module):
    """The reject of F in M: the intersection of kernels of all maps M -> F."""
    A = M.algebra
    homs = hom_basis(M, F)
    cols = {}
    for v in A.vertices:
        stack = Mat.vstack(A.field, [f.mats[v] for f in homs], cols=M.dims[v]) if homs \
            else Mat.zeros(A.field, 0, M.dims[v])
        cols[v] = Mat.from_columns(A.field, kernel_basis(stack), rows=M.dims[v])
    return submodule_from_columns(M, cols)


# -- duality and projectives --------------------------------------------------


def dual(M: Module) -> Module:
    """D(M) = Hom_K(M, K) as a module over the opposite algebra."""
    A = M.algebra
    Aop = opposite(A)
    action = {a.name: M.action[a.name].transpose() for a in A.arrows}
    return Module(Aop, dict(M.dims), action, check=False)


def dual_map(f: ModMap) -> ModMap:
    return ModMap(dual(f.target), dual(f.source),
                  {v: f.mats[v].transpose() for v in f.mats}, check=False)


def projective(A: Algebra, v) -> Module:
    """P(v) = A e_v as a representation."""
    if v not in A.vertex_index:
        raise ValueError(f"unknown vertex {v!r}")
    cache = getattr(A, "_taukit_proj_cache", None)
    if cache is None:
        cache = {}
        A._taukit_proj_cache = cache
    if v in cache:
        return cache[v]
    paths = A.paths_from(v)
    by_target: dict = {w: [] for w in A.vertices}
    for pth in paths:
        by_target[pth.target].append(pth)
    pos = {}
    for w in A.vertices:
        for i, pth in enumerate(by_target[w]):
            pos[pth.key()] = i
    dims = {w: len(by_target[w]) for w in A.vertices}
    action = {}
    for a in A.arrows:
        rows = [[0] * dims[a.source] for _ in range(dims[a.target])]
        for c, pth in enumerate(by_target[a.source]):
            for coeff, bidx in A.reduce_word(v, pth.arrows + (a.name,)):
                q = A.basis[bidx]
                rows[pos[q.key()]][c] = (rows[pos[q.key()]][c] + coeff) % A.field.p
        action[a.name] = Mat.from_rows(A.field, rows, cols=dims[a.source])
    P = Module(A, dims, action, check=True)
    cache[v] = P
    return P


def injective(A: Algebra, v) -> Module:
    """I(v) = D(e_v A), computed as the dual of the opposite projective."""
    return dual(projective(opposite(A), v))


def regular_module(A: Algebra):
    """A as a left module over itself, as the direct sum of the projectives."""
    return direct_sum(A, [projective(A, v) for v in A.vertices])


def injective_cogenerator(A: Algebra):
    """D(A) as the direct sum of the indecomposable injectives."""
    return direct_sum(A, [injective(A, v) for v in A.vertices])


def radical_columns(M: Module) -> dict:
    A = M.algebra
    cols = {}
    for v in A.vertices:
        incoming = [M.action[a.name] for a in A.arrows if a.target == v]
        cols[v] = Mat.hstack(A.field, incoming, rows=M.dims[v]) if incoming \
            else Mat.zeros(A.field, M.dims[v], 0)
    return cols


def radical_submodule(M: Module):
    return submodule_from_columns(M, radical_columns(M))


def socle_columns(M: Module) -> dict:
    A = M.algebra
    cols = {}
    for v in A.vertices:
        outgoing = [M.action[a.name] for a in A.arrows if a.source == v]
        stack = Mat.vstack(A.field, outgoing, cols=M.dims[v]) if outgoing \
            else Mat.zeros(A.field, 0, M.dims[v])
        cols[v] = Mat.from_columns(A.field, kernel_basis(stack), rows=M.dims[v])
    return cols


def projective_cover(M: Module) -> ModMap:
    """The minimal surjection P(M) ->> M from a projective module, on M's top generators."""
    A = M.algebra
    tops = _top(A, M.dims, M.action)
    P = direct_sum(A, [projective(A, v) for v, _ in tops]).module
    cover = ModMap(P, M, _cover(A, M.dims, M.action, tops)[0], check=False)
    if not cover.is_epi():
        raise AssertionError("projective cover failed to be surjective")
    return cover


def injective_envelope(M: Module) -> ModMap:
    """The minimal injection M -> I(M), via duality."""
    cover = projective_cover(dual(M))
    env = dual_map(cover)
    # dual of the dual is literally M again
    return ModMap(M, env.target, env.mats, check=False)


def is_projective(M: Module) -> bool:
    return not minimal_presentation(M).verts1


def syzygy(M: Module, k: int = 1) -> Module:
    """The k-th syzygy: the k-th kernel of the minimal projective resolution."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return M
    last = _resolve(M, k)[4]
    return zero_module(M.algebra) if last is None else Module(M.algebra, *last, check=False)


def cosyzygy(M: Module, k: int = 1) -> Module:
    """The k-th cosyzygy, D of the k-th syzygy of D M."""
    return dual(syzygy(dual(M), k))


# -- presentations, transpose, translates -------------------------------------


def _top(A: Algebra, dims: dict, action: dict) -> list:
    """The top generators (v, j), basis vector j at v: at each vertex, the
    standard basis vectors that complete a basis of the radical."""
    return [(v, c) for v in A.vertices for c in quotient_coordinates(Mat.hstack(
        A.field, [action[a.name] for a in A.arrows if a.target == v], rows=dims[v]))[0]]


def _cover(A: Algebra, dims: dict, action: dict, tops: list):
    """The cover P ->> X on the tops (v_k, j_k), one matrix per vertex, and its labels: the
    basis of P at w is path * g_k over the paths v_k -> w in basis order, summand by
    summand, labels[w] lists those (k, path), and that column is the path's action on g_k."""
    cols = {w: [] for w in A.vertices}
    labels = {w: [] for w in A.vertices}
    for k, (v, j) in enumerate(tops):
        images = {(): tuple(int(r == j) for r in range(dims[v]))}
        for pth in A.paths_from(v):
            cols[pth.target].append(_word_image(action, images, pth.arrows))
            labels[pth.target].append((k, pth.arrows))
    return {w: Mat.from_columns(A.field, cols[w], rows=dims[w]) for w in A.vertices}, labels


def _word_image(action: dict, images: dict, word: tuple) -> tuple:
    """A vector's image under the path word, from the images of the word's prefixes."""
    if word not in images:
        images[word] = action[word[-1]].apply(_word_image(action, images, word[:-1]))
    return images[word]


def _kernel_action(A: Algebra, verts: list, kbas: dict) -> dict:
    """The action on ker(P ->> X) in its `kernel_basis` kbas[w], P the sum of the P(v), v in
    verts, acting block-diagonally by the cached projectives; coordinates are read at the `free_columns`."""
    free = {w: free_columns(kbas[w]) for w in A.vertices}
    action, acts = {}, _projective_sum_action(A, verts)
    for a in A.arrows:
        cols = [[y[f] for f in free[a.target]] for y in map(acts[a.name].apply, kbas[a.source])]
        action[a.name] = Mat.from_columns(A.field, cols, rows=len(kbas[a.target]))
    return action


def _projective_sum_action(A: Algebra, verts) -> dict:
    """Each arrow's action on the sum of the P(v), v in verts, block-diagonal; kept per algebra and verts."""
    cache = A.__dict__.setdefault("_taukit_sum_cache", {})
    key = tuple(verts)
    if key not in cache:
        cache[key] = {a.name: Mat.block_diag(A.field, [projective(A, v).action[a.name] for v in verts])
                      for a in A.arrows}
    return cache[key]


def _element_form(tops: list, kbas: dict, labels: dict) -> dict:
    """elements[(k, i)]: the paths, by summand k of P, of the kernel vector that top i names."""
    elements = {}
    for i, (v, j) in enumerate(tops):
        for (k, word), c in zip(labels[v], kbas[v][j]):
            if c:
                elements.setdefault((k, i), []).append((c, word))
    return {key: tuple(terms) for key, terms in elements.items()}


def _resolve(M: Module, length: int):
    """The top-generator loop: P_0 .. P_length of M's minimal projective resolution.

    P_k covers X_k (X_0 = M) on its top; X_{k+1} = ker(P_k ->> X_k) is held in the
    `kernel_basis` at each vertex, where its own top gives P_{k+1} -> P_k in element
    form.  Returns (verts, diffs, covers, tops of M, (dims, action) of the last X_k or None).
    """
    A = M.algebra
    dims, action = M.dims, M.action
    tops = first = _top(A, dims, action)
    verts, diffs, covers = [[v for v, _ in tops]], [], []
    for _ in range(length):
        mats, labels = _cover(A, dims, action, tops)
        covers.append(mats)
        kbas = {w: kernel_basis(mats[w]) for w in A.vertices}
        dims = {w: len(kbas[w]) for w in A.vertices}
        if not any(dims.values()):
            return verts, diffs, covers, first, None
        action = _kernel_action(A, verts[-1], kbas)
        tops = _top(A, dims, action)
        verts.append([v for v, _ in tops])
        diffs.append(_element_form(tops, kbas, labels))
    return verts, diffs, covers, first, (dims, action)


class Presentation:
    """Minimal projective presentation P1 -> P0 -> M -> 0 in element form.

    verts0/verts1 list the projective summand vertices; elements[(j, i)] is
    the combination of paths verts0[j] -> verts1[i] defining the component
    P(verts1[i]) -> P(verts0[j]) by right multiplication.  Generator j of M is
    basis vector generators[j] of M at verts0[j], and cover[w] is the matrix
    of P0 ->> M at w.  M is projective exactly when verts1 is empty.
    """

    def __init__(self, verts0: list, verts1: list, elements: dict, cover: dict, generators: list):
        self.verts0 = verts0
        self.verts1 = verts1
        self.elements = elements
        self.cover = cover
        self.generators = generators


def minimal_presentation(M: Module) -> Presentation:
    verts, diffs, covers, tops, _ = _resolve(M, 1)
    return Presentation(verts[0], verts[1] if diffs else [], diffs[0] if diffs else {}, covers[0],
                        [j for _, j in tops])


def transpose(M: Module, pres: Presentation | None = None) -> Module:
    """Tr M over the opposite algebra: the cokernel of P0* -> P1* for M's minimal presentation,
    where an element P(verts1[i]) -> P(verts0[j]) dualizes to right multiplication by it on
    opposite projectives.  Each block is built once, straight from pres.elements.

    The result carries P0* -> P1* ->> Tr M as its `presentation`: the elements reversed,
    the cover read off the cokernel, and as generators the trivial paths of P1*, which lie
    outside the image (it is in rad P1*) and so are basis vectors of Tr M.  This
    presentation is minimal when M has no projective summand (Auslander-Reiten-Smalo, IV.1)."""
    Aop = opposite(M.algebra)
    if pres is None:
        pres = minimal_presentation(M)
    src, tgt = ({w: list(accumulate((projective(Aop, v).dims[w] for v in verts), initial=0))
                 for w in Aop.vertices} for verts in (pres.verts0, pres.verts1))
    grid = {w: [[0] * src[w][-1] for _ in range(tgt[w][-1])] for w in Aop.vertices}
    for (j, i), terms in pres.elements.items():
        for w, block in _right_mult_map(Aop, pres.verts0[j], pres.verts1[i], terms).items():
            for r, row in enumerate(block, tgt[w][i]):
                grid[w][r][src[w][j]:src[w][j + 1]] = row
    image = {w: Mat.from_rows(Aop.field, grid[w], cols=src[w][-1]) for w in Aop.vertices}
    complement, reduce, quotient = _cokernel(Aop, _projective_sum_action(Aop, pres.verts1), image)
    Tr = Module(Aop, {w: len(complement[w]) for w in Aop.vertices}, quotient, check=False)
    cover = {w: _projection(Aop.field, complement[w], reduce[w], tgt[w][-1]) for w in Aop.vertices}
    # the basis is breadth-first, so the trivial path is the first basis vector of P_op(v) at v
    generators = [complement[v].index(tgt[v][i]) for i, v in enumerate(pres.verts1)]
    Tr.presentation = Presentation(list(pres.verts1), list(pres.verts0),
                                   {(i, j): tuple((c, tuple(reversed(word))) for c, word in terms)
                                    for (j, i), terms in pres.elements.items()}, cover, generators)
    return Tr


def _right_mult_map(Aop: Algebra, v_from, v_to, terms) -> dict:
    """Right multiplication P_op(v_from) -> P_op(v_to) by an element of paths v_to -> v_from
    of the original algebra (so an element of opposite paths v_to -> v_from reversed),
    as the rows of its matrix over the opposite path bases at each vertex; kept per algebra."""
    cache = Aop.__dict__.setdefault("_taukit_right_mult_cache", {})
    key = (v_from, v_to, terms)
    if key not in cache:
        cache[key] = _right_mult_rows(Aop, v_from, v_to, terms)
    return cache[key]


def _right_mult_rows(Aop: Algebra, v_from, v_to, terms) -> dict:
    p = Aop.field.p
    pos, col = {}, dict.fromkeys(Aop.vertices, 0)
    for pth in Aop.paths_from(v_to):
        pos[pth.key()] = col[pth.target]
        col[pth.target] += 1
    width = projective(Aop, v_from).dims
    rows = {w: [[0] * width[w] for _ in range(col[w])] for w in Aop.vertices}
    col = dict.fromkeys(Aop.vertices, 0)
    for q in Aop.paths_from(v_from):
        w, c = q.target, col[q.target]
        col[w] += 1
        for coeff, word in terms:
            for c2, bidx in Aop.reduce_word(v_to, tuple(reversed(word)) + q.arrows):
                r = pos[Aop.basis[bidx].key()]
                rows[w][r][c] = (rows[w][r][c] + coeff * c2) % p
    return rows


def tau(M: Module) -> Module:
    """The Auslander-Reiten translate D Tr M; zero on a projective, with no opposite algebra built."""
    pres = minimal_presentation(M)
    return dual(transpose(M, pres)) if pres.verts1 else zero_module(M.algebra)


def tau_inv(M: Module) -> Module:
    """The inverse translate Tr D M."""
    return transpose(dual(M))


def tau_d(M: Module, d: int) -> Module:
    """The higher translate: tau of the (d-1)-st syzygy."""
    if d < 1:
        raise ValueError("d must be >= 1")
    return tau(syzygy(M, d - 1))


def tau_d_inv(M: Module, d: int) -> Module:
    if d < 1:
        raise ValueError("d must be >= 1")
    return tau_inv(cosyzygy(M, d - 1))


# -- Ext and homological dimensions -------------------------------------------


class Resolution:
    """A minimal projective resolution in element form, possibly shorter than asked."""

    def __init__(self, verts: list, diffs: list):
        self.verts = verts  # verts[k] lists the summand vertices of P_k
        self.diffs = diffs  # diffs[k] is the element form of P_k -> P_{k-1}, for k >= 1


def projective_resolution(M: Module, length: int) -> Resolution:
    verts, diffs = _resolve(M, length)[:2]
    return Resolution(verts, diffs)


def _hom_complex_diff(A: Algebra, N: Module, src_verts, tgt_verts, elements) -> Mat:
    """Matrix of Hom(P_{k-1}, N) -> Hom(P_k, N), using Hom(P(v), N) = N_v."""
    src_off, total_src = {}, 0
    for j, v in enumerate(tgt_verts):
        src_off[j] = total_src
        total_src += N.dims[v]
    tgt_off, total_tgt = {}, 0
    for i, v in enumerate(src_verts):
        tgt_off[i] = total_tgt
        total_tgt += N.dims[v]
    rows = [[0] * total_src for _ in range(total_tgt)]
    for (j, i), terms in elements.items():
        blk = element_action(N, terms, tgt_verts[j], src_verts[i])
        for r in range(blk.rows):
            for c in range(blk.cols):
                rows[tgt_off[i] + r][src_off[j] + c] = blk.entry(r, c)
    return Mat.from_rows(A.field, rows, cols=total_src)


def ext_dim(i: int, M: Module, N: Module) -> int:
    """dim_K Ext^i_A(M, N), as cohomology of Hom(P_*, N)."""
    if i < 0:
        raise ValueError("i must be >= 0")
    if i == 0:
        return hom_dim(M, N)
    return resolution_ext_dim(projective_resolution(M, i + 1), i, N)


def resolution_ext_dim(res: Resolution, i: int, N: Module) -> int:
    """dim Ext^i(M, N) for i >= 1, read off a resolution of M of length at least i + 1."""
    if i >= len(res.verts):
        return 0
    dim_hom_i = sum(N.dims[v] for v in res.verts[i])
    d_in = _hom_complex_diff(N.algebra, N, res.verts[i], res.verts[i - 1], res.diffs[i - 1])
    rank_in = rank(d_in)
    if i < len(res.diffs):
        d_out = _hom_complex_diff(N.algebra, N, res.verts[i + 1], res.verts[i], res.diffs[i])
        rank_out = rank(d_out)
    else:
        rank_out = 0
    return dim_hom_i - rank_in - rank_out


def proj_dim(M: Module, cap: int = 32) -> int | None:
    """Projective dimension, or None when it exceeds the cap: where the resolution loop stops."""
    verts, _, _, _, last = _resolve(M, cap + 1)
    return len(verts) - 1 if last is None else None


def global_dimension(A: Algebra) -> int | None:
    """Max projective dimension of the simples, or None past `proj_dim`'s cap."""
    best = 0
    for v in A.vertices:
        d = proj_dim(simple(A, v))
        if d is None:
            return None
        best = max(best, d)
    return best


def stable_hom_dim(M: Module, N: Module) -> int:
    """dim of Hom(M, N) modulo maps factoring through a projective."""
    homs = hom_basis(M, N)
    if not homs:
        return 0
    cover = projective_cover(N)
    through = [cover.compose(g) for g in hom_basis(M, cover.source)]
    vecs = [hom_to_vector(t) for t in through]
    A = M.algebra
    mat = Mat.from_rows(A.field, vecs, cols=len(hom_to_vector(homs[0]))) if vecs \
        else Mat.zeros(A.field, 0, len(hom_to_vector(homs[0])))
    return len(homs) - rank(mat)


def costable_hom_dim(M: Module, N: Module) -> int:
    """dim of Hom(M, N) modulo maps factoring through an injective, which is
    the stable Hom(D N, D M)."""
    return stable_hom_dim(dual(N), dual(M))


# -- annihilators ---------------------------------------------------------------


def annihilator_basis(modules) -> list:
    """Basis of ann(X) = {a in A : aX = 0} as sparse vectors over the path basis."""
    modules = list(modules)
    if not modules:
        raise ValueError("need at least one module")
    A = modules[0].algebra
    n = A.dim
    rows = []
    for M in modules:
        actions = [path_action(M, pth.source, pth.arrows) for pth in A.basis]
        for v in A.vertices:
            for w in A.vertices:
                idxs = [k for k, pth in enumerate(A.basis) if pth.source == v and pth.target == w]
                if not idxs:
                    continue
                for r in range(M.dims[w]):
                    for c in range(M.dims[v]):
                        row = [0] * n
                        for k in idxs:
                            row[k] = actions[k].entry(r, c)
                        rows.append(row)
    mat = Mat.from_rows(A.field, rows, cols=n) if rows else Mat.zeros(A.field, 0, n)
    out = []
    for vec in kernel_basis(mat):
        out.append(tuple((c, k) for k, c in enumerate(vec) if c))
    return out


def annihilator_is_zero(M: Module) -> bool:
    return not annihilator_basis([M])


# -- transport along idempotent quotients --------------------------------------


def restrict_module(M: Module, Aq: Algebra) -> Module:
    """Transport a module annihilated by the killed vertices to A/<e>."""
    for v in M.algebra.vertices:
        if v not in Aq.vertex_index and M.dims[v] != 0:
            raise ValueError(f"module not annihilated at killed vertex {v}")
    dims = {v: M.dims[v] for v in Aq.vertices}
    action = {a.name: M.action[a.name] for a in Aq.arrows}
    return Module(Aq, dims, action, check=True)


def induce_module(M: Module, A: Algebra) -> Module:
    """Transport a module over A/<e> back to A (zero at killed vertices)."""
    dims = {v: M.dims.get(v, 0) for v in A.vertices}
    action = {}
    for a in A.arrows:
        if a.name in M.algebra.arrow_by_name:
            action[a.name] = M.action[a.name]
    return Module(A, dims, action, check=True)


# -- endomorphism rings, radicals, decomposition -------------------------------


def flatten_endo(f: ModMap) -> Mat:
    A = f.source.algebra
    return Mat.block_diag(A.field, [f.mats[v] for v in A.vertices])


def _int_trace_power(mat: Mat, e: int, mod: int) -> int:
    """Trace of the e-th power of an integer lift of mat, computed mod `mod`."""
    n = mat.rows
    cur = [[mat.entry(i, j) % mod for j in range(n)] for i in range(n)]
    result = None
    exp = e
    base = cur

    def mul(a, b):
        out = [[0] * n for _ in range(n)]
        for i in range(n):
            ai = a[i]
            oi = out[i]
            for k in range(n):
                x = ai[k]
                if x:
                    bk = b[k]
                    for j in range(n):
                        oi[j] = (oi[j] + x * bk[j]) % mod
        return out

    while exp:
        if exp & 1:
            result = base if result is None else mul(result, base)
        exp >>= 1
        if exp:
            base = mul(base, base)
    if result is None:
        result = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    return sum(result[i][i] for i in range(n)) % mod


def radical_of_endos(field, flat_basis) -> list:
    """Jacobson radical of the span of the given n x n matrices (a subalgebra).

    Returns coordinate vectors over the given basis.  Uses the trace-form
    chain with p-power traces of integer lifts, which is exact over prime
    fields in any characteristic.
    """
    k = len(flat_basis)
    if k == 0:
        return []
    n = flat_basis[0].rows
    p = field.p
    # current subspace: coordinate vectors over flat_basis
    coords = [tuple(1 if i == j else 0 for j in range(k)) for i in range(k)]

    def realize(vec) -> Mat:
        acc = Mat.zeros(field, n, n)
        for c, b in zip(vec, flat_basis):
            if c:
                acc = acc.add(b.scale(c))
        return acc

    exp = 1
    level = 0
    while True:
        mats = [realize(v) for v in coords]
        mod = p ** (level + 1)
        rows = []
        for y in mats:
            row = []
            for x in mats:
                t = _int_trace_power(x.mul(y), exp, mod)
                if t % (p ** level):
                    raise AssertionError("trace chain divisibility failed")
                row.append((t // (p ** level)) % p)
            rows.append(row)
        mat = Mat.from_rows(field, rows, cols=len(coords)) if rows else Mat.zeros(field, 0, len(coords))
        ker = kernel_basis(mat)
        new_coords = []
        for kv in ker:
            acc = [0] * k
            for c, base_vec in zip(kv, coords):
                if c:
                    for idx, entry in enumerate(base_vec):
                        acc[idx] = (acc[idx] + c * entry) % p
            new_coords.append(tuple(acc))
        coords = new_coords
        if exp >= n or not coords:
            break
        exp *= p
        level += 1
    return coords


def is_indecomposable(M: Module) -> bool:
    """Local-endomorphism-ring test via the radical of End(M)."""
    if M.is_zero():
        return False
    endos = hom_basis(M, M)
    if len(endos) == 1:
        return True
    field = M.algebra.field
    flat = [flatten_endo(f) for f in endos]
    rad_coords = radical_of_endos(field, flat)
    comp_idx, reduce_vec = quotient_coordinates(Mat.from_columns(field, rad_coords, rows=len(flat)))
    q = len(comp_idx)
    if q == 1:
        return True

    # structure constants of the quotient B = End/rad in the complement basis
    def flat_of(j):
        return flat[comp_idx[j]]

    def coords_of_product(i, j):
        prod = flat_of(i).mul(flat_of(j))
        full = _coords_in_span(field, flat, prod)
        return reduce_vec(full)

    table = {(i, j): coords_of_product(i, j) for i in range(q) for j in range(q)}
    for i in range(q):
        for j in range(i + 1, q):
            if table[(i, j)] != table[(j, i)]:
                return False  # noncommutative semisimple quotient: not a division ring
    # Frobenius fixed space: B is a field iff x -> x^p fixes only one dimension
    frob_cols = []
    for j in range(q):
        vec = tuple(1 if t == j else 0 for t in range(q))
        frob_cols.append(_quotient_power(vec, field.p, table, q, field.p))
    frob = Mat.from_columns(field, frob_cols, rows=q)
    delta = frob.sub(Mat.identity(field, q))
    fixed = len(kernel_basis(delta))
    return fixed == 1


def _quotient_mult(x, y, table, q, p):
    out = [0] * q
    for i, ci in enumerate(x):
        if ci:
            for j, cj in enumerate(y):
                if cj:
                    for t, c in enumerate(table[(i, j)]):
                        out[t] = (out[t] + ci * cj * c) % p
    return tuple(out)


def _quotient_power(x, e, table, q, p):
    result = None
    base = x
    while e:
        if e & 1:
            result = base if result is None else _quotient_mult(result, base, table, q, p)
        e >>= 1
        if e:
            base = _quotient_mult(base, base, table, q, p)
    return result if result is not None else x


def _coords_in_span(field, flat_basis, target: Mat):
    cols = []
    for b in flat_basis:
        cols.append(tuple(x for row in b.data for x in row))
    mat = Mat.from_columns(field, cols, rows=target.rows * target.cols)
    vec = tuple(x for row in target.data for x in row)
    sol = solve(mat, vec)
    if sol is None:
        raise AssertionError("product left the endomorphism algebra span")
    return sol


class DecompCert:
    """Indecomposable summands with multiplicities and an explicit iso to the sum."""

    def __init__(self, summands: tuple, iso_to_sum: ModMap, sum: Module):
        self.summands = summands  # of (Module, multiplicity)
        self.iso_to_sum = iso_to_sum
        self.sum = sum


def _fitting_split(M: Module, f: ModMap):
    """Try to split M along the stable kernel/image of f; None if trivial."""
    n = M.total_dim
    g = f
    r_prev = None
    for _ in range(n.bit_length() + 1):
        r = sum(rank(g.mats[v]) for v in M.algebra.vertices)
        if r == r_prev:
            break
        r_prev = r
        g = g.compose(g)
    r = sum(rank(g.mats[v]) for v in M.algebra.vertices)
    if r == 0 or r == n:
        return None
    parts = map_parts(g)
    return (parts.kernel, parts.kernel_inclusion), (parts.image, parts.image_mono)


def _min_poly_roots(M: Module, f: ModMap):
    """Roots in F_p of the minimal polynomial of f acting on M."""
    field = M.algebra.field
    p = field.p
    flat = flatten_endo(f)
    n = flat.rows
    powers = [Mat.identity(field, n)]
    while True:
        powers.append(powers[-1].mul(flat))
        vecs = [tuple(x for row in m.data for x in row) for m in powers]
        mat = Mat.from_columns(field, vecs[:-1], rows=n * n)
        sol = solve(mat, vecs[-1])
        if sol is not None:
            coeffs = list(sol) + [(-1) % p]  # monic up to sign; roots unaffected
            break
    roots = []
    for lam in range(p):
        acc = 0
        powl = 1
        for c in coeffs:
            acc = (acc + c * powl) % p
            powl = (powl * lam) % p
        if acc == 0:
            roots.append(lam)
    return roots


def _split_candidates(M: Module, endos, rng):
    for f in endos:
        yield f
    for i in range(len(endos)):
        for j in range(i + 1, len(endos)):
            yield endos[i].add(endos[j])
    for _ in range(256):
        f = ModMap.zero(M, M)
        for g in endos:
            f = f.add(g.scale(rng.randrange(M.algebra.field.p)))
        yield f


def _split_once(M: Module, rng):
    """Find a nontrivial direct-sum splitting of a decomposable module."""
    endos = hom_basis(M, M)
    ident = ModMap.identity(M)
    for f in _split_candidates(M, endos, rng):
        for lam in _min_poly_roots(M, f):
            shifted = f.sub(ident.scale(lam))
            split = _fitting_split(M, shifted)
            if split is not None:
                return split
    raise DecompositionError("no splitting found for a decomposable module")


def decompose(M: Module) -> DecompCert:
    """Krull-Schmidt decomposition with an explicit isomorphism certificate."""
    A = M.algebra
    rng = random.Random(DECOMPOSE_SEED)

    def rec(X: Module):
        """Returns (list of indecomposable modules, iso X -> direct sum of them)."""
        if X.is_zero():
            ds = direct_sum(A, [])
            return [], ModMap(X, ds.module, {}, check=False)
        if is_indecomposable(X):
            ds = direct_sum(A, [X])
            return [X], ds.inclusions[0]
        (K, inc_k), (I, inc_i) = _split_once(X, rng)
        field = A.field
        mats = {}
        for v in A.vertices:
            full = Mat.hstack(field, [inc_k.mats[v], inc_i.mats[v]], rows=X.dims[v])
            mats[v] = solve_matrix(full, Mat.identity(field, X.dims[v]))
        pair = direct_sum(A, [K, I])
        iso_pair = ModMap(X, pair.module, mats, check=False)
        subs_k, iso_k = rec(K)
        subs_i, iso_i = rec(I)
        flat = subs_k + subs_i
        ds_flat = direct_sum(A, flat)
        ds_k = direct_sum(A, subs_k)
        ds_i = direct_sum(A, subs_i)
        blocks = {}
        nk = len(subs_k)
        for t in range(nk):
            blocks[(t, 0)] = ds_k.projections[t].compose(iso_k)
        for t in range(len(subs_i)):
            blocks[(nk + t, 1)] = ds_i.projections[t].compose(iso_i)
        spread = block_map(pair, ds_flat, blocks)
        return flat, spread.compose(iso_pair)

    flat, iso_flat = rec(M)
    # group isomorphic summands behind one representative each
    reps = []  # (Module, [flat indices])
    iso_to_rep = {}
    for idx, X in enumerate(flat):
        placed = False
        for r, (R, members) in enumerate(reps):
            g = iso_between_indecomposables(X, R)
            if g is not None:
                members.append(idx)
                iso_to_rep[idx] = g
                placed = True
                break
        if not placed:
            reps.append((X, [idx]))
            iso_to_rep[idx] = ModMap.identity(X)
    order = sorted(range(len(reps)), key=lambda r: (reps[r][0].dim_vector(), r))
    summands = tuple((reps[r][0], len(reps[r][1])) for r in order)
    copies = []
    slot_of_flat = {}
    for r in order:
        R, members = reps[r]
        for m in members:
            slot_of_flat[m] = len(copies)
            copies.append(R)
    ds_src = direct_sum(A, flat)
    ds_tgt = direct_sum(A, copies)
    blocks = {(slot_of_flat[idx], idx): iso_to_rep[idx] for idx in range(len(flat))}
    regroup = block_map(ds_src, ds_tgt, blocks)
    iso = regroup.compose(iso_flat)
    if not iso.is_iso():
        raise AssertionError("decomposition certificate is not an isomorphism")
    return DecompCert(summands, iso, ds_tgt.module)


def iso_between_indecomposables(M: Module, N: Module) -> ModMap | None:
    """An isomorphism between indecomposables, or None.

    Any basis of Hom(M, N) contains an iso when one exists, because the
    non-isomorphisms form a proper subspace for indecomposables.
    """
    if M.dim_vector() != N.dim_vector():
        return None
    for f in hom_basis(M, N):
        if f.is_iso():
            return f
    return None


def is_isomorphic(M: Module, N: Module) -> bool:
    if M.algebra != N.algebra:
        raise ValueError("modules over different algebras")
    if M.dim_vector() != N.dim_vector():
        return False
    if M.is_zero():
        return True
    cm = decompose(M)
    cn = decompose(N)
    if len(cm.summands) != len(cn.summands):
        return False
    used = [False] * len(cn.summands)
    for X, mult in cm.summands:
        found = False
        for j, (Y, mult2) in enumerate(cn.summands):
            if used[j] or mult != mult2:
                continue
            if iso_between_indecomposables(X, Y) is not None:
                used[j] = True
                found = True
                break
        if not found:
            return False
    return True
