"""The presentation, transpose and cokernel kernels of `modcat` against copies of the ones they replaced.

The reference routines below are the earlier ones, kept here only as an
oracle: they build every matrix through `Mat.from_rows`/`Mat.from_columns`,
which reduce entries mod p again, read a top off a `Mat.hstack` of the
incoming arrows, and read each quotient coordinate through a `reduce`
closure, the projection's too, one unit vector at a time.  On every census
member and its dual the new kernels must give the same matrices, entry for
entry, over F_2, F_3 and F_101 and where the module is zero at a vertex.
"""

from itertools import accumulate

import pytest

from taukit import arknit, modcat as mc
from taukit.algebra import opposite
from taukit.exactlin import Mat, eliminate, free_columns, kernel_basis
from tests.test_arknit import HOM_ALGEBRAS


# -- the reference routines ---------------------------------------------------


def _ref_quotient_coordinates(m: Mat):
    n, p = m.rows, m.field.p
    if not n or not m.cols:
        return list(range(n)), tuple
    work = [[r[j] for r in reversed(m.data)] for j in range(m.cols)]
    pivots = eliminate(work, n, p)
    ends = {n - 1 - c for c in pivots}
    complement = [c for c in range(n) if c not in ends]
    rows = list(zip(pivots, work))

    def reduce(y) -> tuple:
        y = y[::-1]
        for c, row in rows:
            if y[c]:
                y = [(a - y[c] * b) % p for a, b in zip(y, row)]
        return tuple(y[n - 1 - c] for c in complement)

    return complement, reduce


def _ref_top(A, dims, action):
    return [(v, c) for v in A.vertices if dims[v] for c in _ref_quotient_coordinates(Mat.hstack(
        A.field, [action[a.name] for a in A.arrows if a.target == v], rows=dims[v]))[0]]


def _ref_word_image(action, images, word):
    if word not in images:
        images[word] = action[word[-1]].apply(_ref_word_image(action, images, word[:-1]))
    return images[word]


def _ref_cover(A, dims, action, tops):
    cols = {w: [] for w in A.vertices}
    labels = {w: [] for w in A.vertices}
    for k, (v, j) in enumerate(tops):
        images = {(): tuple(int(r == j) for r in range(dims[v]))}
        for pth in A.paths_from(v):
            cols[pth.target].append(_ref_word_image(action, images, pth.arrows))
            labels[pth.target].append((k, pth.arrows))
    return {w: Mat.from_columns(A.field, cols[w], rows=dims[w]) for w in A.vertices}, labels


def _ref_projective_sum_action(A, verts):
    return {a.name: Mat.block_diag(A.field, [mc.projective(A, v).action[a.name] for v in verts])
            for a in A.arrows}


def _ref_kernel_action(A, verts, kbas):
    free = {w: free_columns(kbas[w]) for w in A.vertices}
    action, acts = {}, _ref_projective_sum_action(A, verts)
    for a in A.arrows:
        cols = [[y[f] for f in free[a.target]] for y in map(acts[a.name].apply, kbas[a.source])]
        action[a.name] = Mat.from_columns(A.field, cols, rows=len(kbas[a.target]))
    return action


def _ref_cokernel_parts(A, action, image):
    complement, reduce = {}, {}
    for v in A.vertices:
        complement[v], reduce[v] = _ref_quotient_coordinates(image[v])
    quotient = {}
    for a in A.arrows:
        cols = [reduce[a.target](action[a.name].col(c)) for c in complement[a.source]]
        quotient[a.name] = Mat.from_columns(A.field, cols, rows=len(complement[a.target]))
    return complement, reduce, quotient


def _ref_projection(field, complement, reduce, n):
    rows = [[0] * n for _ in complement]
    for q, c in enumerate(complement):
        rows[q][c] = 1
    for c in set(range(n)).difference(complement):
        for row, y in zip(rows, reduce(tuple(int(r == c) for r in range(n)))):
            row[c] = y
    return Mat(field, len(rows), n, tuple(map(tuple, rows)))


def _ref_cokernel(f):
    A, N = f.source.algebra, f.target
    complement, reduce, action = _ref_cokernel_parts(A, N.action, f.mats)
    dims = {v: len(complement[v]) for v in A.vertices}
    proj = {v: _ref_projection(A.field, complement[v], reduce[v], N.dims[v]) for v in A.vertices}
    return dims, action, proj


def _ref_right_mult_rows(Aop, v_from, v_to, terms):
    p = Aop.field.p
    pos, col = {}, dict.fromkeys(Aop.vertices, 0)
    for pth in Aop.paths_from(v_to):
        pos[pth.key()] = col[pth.target]
        col[pth.target] += 1
    width = mc.projective(Aop, v_from).dims
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


def _ref_transpose(M, pres):
    """(dims, action, carried presentation) of Tr M, the presentation built at once."""
    Aop = opposite(M.algebra)
    src, tgt = ({w: list(accumulate((mc.projective(Aop, v).dims[w] for v in verts), initial=0))
                 for w in Aop.vertices} for verts in (pres.verts0, pres.verts1))
    grid = {w: [[0] * src[w][-1] for _ in range(tgt[w][-1])] for w in Aop.vertices}
    for (j, i), terms in pres.elements.items():
        for w, block in _ref_right_mult_rows(Aop, pres.verts0[j], pres.verts1[i], terms).items():
            for r, row in enumerate(block, tgt[w][i]):
                grid[w][r][src[w][j]:src[w][j + 1]] = row
    image = {w: Mat.from_rows(Aop.field, grid[w], cols=src[w][-1]) for w in Aop.vertices}
    complement, reduce, quotient = _ref_cokernel_parts(Aop, _ref_projective_sum_action(Aop, pres.verts1), image)
    cover = {w: _ref_projection(Aop.field, complement[w], reduce[w], tgt[w][-1]) for w in Aop.vertices}
    generators = [complement[v].index(tgt[v][i]) for i, v in enumerate(pres.verts1)]
    carried = mc.Presentation(list(pres.verts1), list(pres.verts0),
                              {(i, j): tuple((c, tuple(reversed(word))) for c, word in terms)
                               for (j, i), terms in pres.elements.items()}, cover, generators)
    return {w: len(complement[w]) for w in Aop.vertices}, quotient, carried


# -- the comparison -----------------------------------------------------------


class _Compared:
    """Asserts Mats equal in shape and data with entries in [0, p), and counts the empty shapes seen."""

    def __init__(self):
        self.no_rows = self.no_columns = 0

    def same(self, got: Mat, want: Mat):
        assert (got.field, got.rows, got.cols, got.data) == (want.field, want.rows, want.cols, want.data)
        assert all(0 <= x < got.field.p for r in got.data for x in r)
        self.no_rows += not got.rows
        self.no_columns += not got.cols

    def maps(self, got: dict, want: dict):
        assert got.keys() == want.keys()
        for key in want:
            self.same(got[key], want[key])


def _check_presentation_kernels(M, seen: _Compared):
    """_top, _cover and _kernel_action down two steps of M's resolution, each on the reference's input."""
    A, dims, action = M.algebra, M.dims, M.action
    for _ in range(2):
        tops = _ref_top(A, dims, action)
        assert mc._top(A, dims, action) == tops
        mats, labels = _ref_cover(A, dims, action, tops)
        got, got_labels = mc._cover(A, dims, action, tops)
        seen.maps(got, mats)
        assert got_labels == labels
        kbas = {w: kernel_basis(mats[w]) for w in A.vertices}
        dims = {w: len(kbas[w]) for w in A.vertices}
        verts = [v for v, _ in tops]
        action = _ref_kernel_action(A, verts, kbas)
        seen.maps(mc._kernel_action(A, verts, kbas), action)


def _check_cokernels(M, seen: _Compared):
    """cokernel (_cokernel and _projection) of the radical and socle inclusions and of the cover."""
    maps = [mc.radical_submodule(M)[1], mc.submodule_from_columns(M, mc.socle_columns(M))[1],
            mc.projective_cover(M), mc.ModMap.identity(M), mc.ModMap.zero(M, M)]
    for f in maps:
        Q, proj = mc.cokernel(f)
        dims, action, mats = _ref_cokernel(f)
        assert Q.dims == dims
        seen.maps(Q.action, action)
        seen.maps(proj.mats, mats)


def _check_transpose(M, seen: _Compared):
    pres = mc.minimal_presentation(M)
    Tr = mc.transpose(M, pres)
    dims, action, carried = _ref_transpose(M, pres)
    assert Tr.dims == dims
    seen.maps(Tr.action, action)
    got = Tr.presentation
    assert (got.verts0, got.verts1, got.elements, got.generators) == \
        (carried.verts0, carried.verts1, carried.elements, carried.generators)
    seen.maps(got.cover, carried.cover)


@pytest.mark.parametrize("name", sorted(HOM_ALGEBRAS))
def test_kernels_match_the_reference_on_every_member_and_its_dual(name):
    idx = arknit.knit_indecomposables(HOM_ALGEBRAS[name]())
    seen = _Compared()
    for X in idx.modules:
        for M in (X, mc.dual(X)):
            _check_presentation_kernels(M, seen)
            _check_cokernels(M, seen)
            _check_transpose(M, seen)
    # the projectives transpose to 0 and the identity's cokernel is 0, so every algebra has both
    assert seen.no_rows and seen.no_columns

