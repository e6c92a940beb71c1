"""The module category mod A for a bound quiver algebra A.

Modules are representations: one matrix per arrow over the base prime
field.  Everything downstream (Hom, Ext, approximations, translates) is
exact linear algebra on these matrices.  All objects are immutable by
convention; functions return fresh values.
"""

from __future__ import annotations

import random

from .algebra import Algebra, opposite
from .exactlin import (
    Mat,
    column_space_basis,
    complement_basis,
    kernel_basis,
    rank,
    rref,
    solve,
    solve_matrix,
)

# seed of the random End(M) combinations that decompose tries when splitting M
DECOMPOSE_SEED = 0


class DecompositionError(Exception):
    """A decomposable module resisted every splitting attempt."""


class Module:
    """A finite-dimensional representation of a bound quiver algebra."""

    __slots__ = ("algebra", "dims", "action", "total_dim")

    def __init__(self, A: Algebra, dims: dict, action: dict, check: bool = True):
        self.algebra = A
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

    def support(self):
        return [v for v in self.algebra.vertices if self.dims[v] > 0]

    def __repr__(self) -> str:
        return f"Module{self.dim_vector()}"

    def to_json(self) -> dict:
        return {
            "dims": {v: self.dims[v] for v in self.algebra.vertices},
            "action": {a.name: [list(r) for r in self.action[a.name].data] for a in self.algebra.arrows},
        }

    @classmethod
    def from_json(cls, A: Algebra, data: dict) -> "Module":
        dims = {v: int(n) for v, n in data.get("dims", {}).items()}
        action = {}
        for name, rows in data.get("action", {}).items():
            arrow = A.arrow_by_name.get(name)
            if arrow is None:
                raise ValueError(f"unknown arrow {name!r}")
            action[name] = Mat.from_rows(A.field, rows, cols=dims.get(arrow.source, 0))
        return cls(A, dims, action)


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
    field = A.field
    N = f.target
    cbas, proj = {}, {}
    for v in A.vertices:
        ibas = column_space_basis(f.mats[v])
        comp = complement_basis(ibas)
        cbas[v] = comp
        full = Mat.hstack(field, [ibas, comp], rows=N.dims[v])
        inv = solve_matrix(full, Mat.identity(field, N.dims[v]))
        proj[v] = Mat.from_rows(field, [inv.data[i] for i in range(ibas.cols, N.dims[v])],
                                cols=N.dims[v]) if N.dims[v] else Mat.zeros(field, 0, 0)
    action = {a.name: proj[a.target].mul(N.action[a.name]).mul(cbas[a.source]) for a in A.arrows}
    Q = Module(A, {v: cbas[v].cols for v in A.vertices}, action, check=False)
    return Q, ModMap(N, Q, proj, check=False)


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
    """The minimal surjection P(M) ->> M from a projective module."""
    A = M.algebra
    field = A.field
    rad = {v: column_space_basis(cols) for v, cols in radical_columns(M).items()}
    gens = []  # (vertex, column vector in M at that vertex)
    for v in A.vertices:
        comp = complement_basis(rad[v])
        for j in range(comp.cols):
            gens.append((v, comp.col(j)))
    summands = [projective(A, v) for v, _ in gens]
    ds = direct_sum(A, summands)
    components = []
    for (v, vec), P in zip(gens, summands):
        paths = A.paths_from(v)
        by_target: dict = {w: [] for w in A.vertices}
        for pth in paths:
            by_target[pth.target].append(pth)
        mats = {}
        for w in A.vertices:
            cols = [path_action(M, v, pth.arrows).apply(vec) for pth in by_target[w]]
            mats[w] = Mat.from_columns(field, cols, rows=M.dims[w])
        components.append(ModMap(P, M, mats, check=False))
    if not components:
        cover = ModMap.zero(ds.module, M)
    else:
        cover = map_from_sum(ds, components)
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
    if M.is_zero():
        return True
    return kernel(projective_cover(M))[0].is_zero()


def syzygy(M: Module, k: int = 1) -> Module:
    """The k-th syzygy: iterated kernels of minimal projective covers."""
    if k < 0:
        raise ValueError("k must be >= 0")
    cur = M
    for _ in range(k):
        if cur.is_zero():
            return cur
        cur, _ = kernel(projective_cover(cur))
    return cur


def cosyzygy(M: Module, k: int = 1) -> Module:
    """The k-th cosyzygy, D of the k-th syzygy of D M."""
    return dual(syzygy(dual(M), k))


# -- presentations, transpose, translates -------------------------------------


class Presentation:
    """Minimal projective presentation P1 -> P0 -> M -> 0 in element form.

    verts0/verts1 list the projective summand vertices; elements[(j, i)] is
    the combination of paths verts0[j] -> verts1[i] defining the component
    P(verts1[i]) -> P(verts0[j]) by right multiplication.  cover is P0 ->> M.
    M is projective exactly when verts1 is empty.
    """

    def __init__(self, verts0: list, verts1: list, elements: dict, cover: ModMap):
        self.verts0 = verts0
        self.verts1 = verts1
        self.elements = elements
        self.cover = cover


def _cover_summand_vertices(cover: ModMap) -> list:
    M = cover.target
    A = M.algebra
    rad = {v: column_space_basis(cols) for v, cols in radical_columns(M).items()}
    out = []
    for v in A.vertices:
        out.extend([v] * (M.dims[v] - rad[v].cols))
    return out


def minimal_presentation(M: Module) -> Presentation:
    A = M.algebra
    cover0 = projective_cover(M)
    verts0 = _cover_summand_vertices(cover0)
    K, incl = kernel(cover0)
    cover1 = projective_cover(K)
    verts1 = _cover_summand_vertices(cover1)
    g = incl.compose(cover1)  # P1 -> P0
    elements = _element_form(A, verts1, verts0, g)
    return Presentation(verts0, verts1, elements, cover0)


def _element_form(A: Algebra, src_verts, tgt_verts, g: ModMap) -> dict:
    """Read off the defining algebra elements of a map between projective sums."""
    # offsets of each summand inside the per-vertex blocks of the direct sums
    def layout(verts):
        paths_of = {v: A.paths_from(v) for v in set(verts)}
        offsets = {w: 0 for w in A.vertices}
        slots = []  # per summand: dict w -> (offset, paths at w)
        for v in verts:
            per = {}
            for w in A.vertices:
                mine = [pth for pth in paths_of[v] if pth.target == w]
                per[w] = (offsets[w], mine)
                offsets[w] += len(mine)
            slots.append(per)
        return slots

    src_slots = layout(src_verts)
    tgt_slots = layout(tgt_verts)
    elements = {}
    for i, v1 in enumerate(src_verts):
        off_triv, triv_paths = src_slots[i][v1]
        col = None
        for idx, pth in enumerate(triv_paths):
            if not pth.arrows:
                col = off_triv + idx
                break
        if col is None:
            raise AssertionError("projective summand lost its trivial path")
        image = g.mats[v1].col(col)
        for j, v0 in enumerate(tgt_verts):
            off, paths_here = tgt_slots[j][v1]
            terms = []
            for idx, pth in enumerate(paths_here):
                c = image[off + idx]
                if c:
                    terms.append((c, pth.arrows))
            if terms:
                elements[(j, i)] = tuple(terms)
    return elements


def transpose(M: Module, pres: Presentation | None = None) -> Module:
    """Tr M over the opposite algebra, from M's minimal projective presentation pres."""
    Aop = opposite(M.algebra)
    if pres is None:
        pres = minimal_presentation(M)
    src = direct_sum(Aop, [projective(Aop, v) for v in pres.verts0])
    tgt = direct_sum(Aop, [projective(Aop, v) for v in pres.verts1])
    blocks = {}
    for (j, i), terms in pres.elements.items():
        # component P_op(verts0[j]) -> P_op(verts1[i]): right multiplication by
        # the reversed element, realized on opposite path bases
        blocks[(i, j)] = _right_mult_map(Aop, pres.verts0[j], pres.verts1[i], terms)
    gstar = block_map(src, tgt, blocks)
    return cokernel(gstar)[0]


def _right_mult_map(Aop: Algebra, v_from, v_to, terms) -> ModMap:
    """Right multiplication on opposite projectives by an element of paths v_to -> v_from
    of the original algebra (so an element of opposite paths v_to -> v_from reversed)."""
    P_from = projective(Aop, v_from)
    P_to = projective(Aop, v_to)
    by_target_from: dict = {w: [] for w in Aop.vertices}
    for pth in Aop.paths_from(v_from):
        by_target_from[pth.target].append(pth)
    by_target_to: dict = {w: [] for w in Aop.vertices}
    pos_to: dict = {}
    for pth in Aop.paths_from(v_to):
        by_target_to[pth.target].append(pth)
        pos_to[pth.key()] = len(by_target_to[pth.target]) - 1
    mats = {}
    for w in Aop.vertices:
        rows = [[0] * len(by_target_from[w]) for _ in range(len(by_target_to[w]))]
        for c, q in enumerate(by_target_from[w]):
            for coeff, word in terms:
                op_word = tuple(reversed(word))
                for c2, bidx in Aop.reduce_word(v_to, op_word + q.arrows):
                    res = Aop.basis[bidx]
                    rows[pos_to[res.key()]][c] = (rows[pos_to[res.key()]][c] + coeff * c2) % Aop.field.p
        mats[w] = Mat.from_rows(Aop.field, rows, cols=len(by_target_from[w]))
    return ModMap(P_from, P_to, mats, check=False)


def tau(M: Module) -> Module:
    """The Auslander-Reiten translate D Tr M."""
    return dual(transpose(M))


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
    A = M.algebra
    verts = []
    diffs = []
    cover = projective_cover(M)
    verts.append(_cover_summand_vertices(cover))
    K, incl = kernel(cover)
    for _ in range(length):
        if K.is_zero():
            break
        nxt = projective_cover(K)
        verts.append(_cover_summand_vertices(nxt))
        g = incl.compose(nxt)
        diffs.append(_element_form(A, verts[-1], verts[-2], g))
        K, incl = kernel(nxt)
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
    """Projective dimension, or None when it exceeds the cap."""
    if M.is_zero():
        return 0
    cur = M
    for k in range(cap + 1):
        if is_projective(cur):
            return k
        cur = syzygy(cur, 1)
    return None


def global_dimension(A: Algebra, cap: int = 32) -> int | None:
    """Max projective dimension of the simples, or None past the cap."""
    best = 0
    for v in A.vertices:
        d = proj_dim(simple(A, v), cap)
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


def annihilator_vertices(modules) -> set:
    """Vertices whose trivial paths annihilate every module in the family."""
    modules = list(modules)
    if not modules:
        raise ValueError("need at least one module")
    A = modules[0].algebra
    return {v for v in A.vertices if all(M.dims[v] == 0 for M in modules)}


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


def _endo_quotient_structure(field, flat_basis, rad_coords):
    """Complement basis of the radical and multiplication on the quotient."""
    k = len(flat_basis)
    rad_mat = Mat.from_rows(field, rad_coords, cols=k) if rad_coords else Mat.zeros(field, 0, k)
    echelon = rref(rad_mat)
    pivot = set(echelon.pivots)
    comp_idx = [j for j in range(k) if j not in pivot]
    # quotient coordinates: full coordinate vector reduced by echelon rows, then restricted
    mat = echelon.matrix

    def reduce_vec(vec):
        vec = list(vec)
        for r, c in enumerate(echelon.pivots):
            f = vec[c] % field.p
            if f:
                row = mat.row(r)
                vec = [(x - f * y) % field.p for x, y in zip(vec, row)]
        return tuple(vec[j] for j in comp_idx)

    return comp_idx, reduce_vec


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
    comp_idx, reduce_vec = _endo_quotient_structure(field, flat, rad_coords)
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
        split = _fitting_split(M, f)
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
