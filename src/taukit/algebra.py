"""Bound quiver algebras A = KQ/I over a prime field.

An algebra is described by a small text format (one declaration per line,
``#`` starts a comment)::

    field 101
    vertices 1 2 3
    arrow a: 1 -> 2
    arrow b: 2 -> 3
    relation b*a

Paths are written right to left (``b*a`` means "a then b") and relations
are K-combinations of parallel paths of length >= 2, with coefficients
defaulting to 1.  The basis of KQ/I is computed by breadth-first path
enumeration with linear reduction of the relation span; construction
terminates only when a whole path length dies, which certifies that the
ideal is admissible.
"""

from __future__ import annotations

from collections import namedtuple

from .exactlin import Mat, PrimeField, rref


class SpecError(Exception):
    """Malformed algebra spec text; carries the offending line and column."""

    def __init__(self, message: str, line: int = 0, col: int = 1):
        super().__init__(f"line {line}, col {col}: {message}" if line else message)
        self.line = line
        self.col = col
        self.message = message


class NotAdmissibleError(Exception):
    """Path basis construction did not terminate below the length bound."""


class UnsupportedQuotientError(Exception):
    """Two-sided ideal quotient outside the supported (monomial) class."""


class Arrow(namedtuple("Arrow", "name source target")):
    __slots__ = ()


class Relation(namedtuple("Relation", "terms source target")):
    """A K-combination of parallel paths; each term is (coeff, arrows).

    The arrows tuple is in application order (first arrow applied first).
    """

    __slots__ = ()


class QuiverSpec(namedtuple("QuiverSpec", "p vertices arrows relations")):
    __slots__ = ()


class Path(namedtuple("Path", "source target arrows")):
    """A residue path: source and target vertices plus arrows in application order."""

    __slots__ = ()

    @property
    def length(self) -> int:
        return len(self.arrows)

    def key(self):
        return (self.source, self.arrows)

    def label(self) -> str:
        if not self.arrows:
            return f"e_{self.source}"
        return "*".join(reversed(self.arrows))


def _split_terms(rest: str):
    return [t.strip() for t in rest.split("+")]


def parse_spec(text: str) -> QuiverSpec:
    """Parse the algebra spec text format into a QuiverSpec."""
    p = None
    vertices: list = []
    arrows: list = []
    raw_relations: list = []
    seen_vertices = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        keyword = parts[0]
        rest = parts[1] if len(parts) > 1 else ""
        if keyword == "field":
            if p is not None:
                raise SpecError("duplicate field line", lineno)
            try:
                p = int(rest.strip())
            except ValueError:
                raise SpecError(f"bad field order {rest.strip()!r}", lineno) from None
        elif keyword == "vertices":
            if seen_vertices:
                raise SpecError("duplicate vertices line", lineno)
            seen_vertices = True
            vertices = rest.split()
            if len(set(vertices)) != len(vertices):
                raise SpecError("vertex labels must be unique", lineno)
        elif keyword == "arrow":
            m = rest.split(":", 1)
            if len(m) != 2:
                raise SpecError("expected 'arrow <name>: <src> -> <tgt>'", lineno)
            name = m[0].strip()
            ends = m[1].split("->")
            if len(ends) != 2:
                raise SpecError("expected '<src> -> <tgt>'", lineno, col=len(m[0]) + 2)
            arrows.append((name, ends[0].strip(), ends[1].strip(), lineno))
        elif keyword == "relation":
            raw_relations.append((rest, lineno))
        else:
            raise SpecError(f"unknown declaration {keyword!r}", lineno)

    if p is None:
        raise SpecError("missing field line")
    if not seen_vertices:
        raise SpecError("missing vertices line")
    try:
        field = PrimeField(p)
    except ValueError as exc:
        raise SpecError(str(exc)) from None

    vset = set(vertices)
    arrow_names = [a[0] for a in arrows]
    if len(set(arrow_names)) != len(arrow_names):
        raise SpecError("arrow names must be unique")
    arrow_objs = []
    arrow_by_name = {}
    for name, src, tgt, lineno in arrows:
        if src not in vset:
            raise SpecError(f"unknown vertex {src!r}", lineno)
        if tgt not in vset:
            raise SpecError(f"unknown vertex {tgt!r}", lineno)
        a = Arrow(name, src, tgt)
        arrow_objs.append(a)
        arrow_by_name[name] = a

    relations = []
    for rest, lineno in raw_relations:
        terms = []
        for term in _split_terms(rest):
            if not term:
                raise SpecError("empty relation term", lineno)
            factors = [f.strip() for f in term.split("*")]
            coeff = 1
            if factors and factors[0] not in arrow_by_name:
                try:
                    coeff = int(factors[0])
                except ValueError:
                    raise SpecError(f"unknown arrow {factors[0]!r}", lineno) from None
                factors = factors[1:]
            if not factors:
                raise SpecError("relation term has no path", lineno)
            for f in factors:
                if f not in arrow_by_name:
                    raise SpecError(f"unknown arrow {f!r}", lineno)
            # written right to left: last written factor is applied first
            word = tuple(reversed(factors))
            if len(word) < 2:
                raise SpecError("relation path has length < 2 (ideal not admissible)", lineno)
            for x, y in zip(word, word[1:]):
                if arrow_by_name[x].target != arrow_by_name[y].source:
                    raise SpecError(f"path {term!r} does not compose", lineno)
            coeff %= p
            if coeff == 0:
                raise SpecError("zero coefficient in relation", lineno)
            src = arrow_by_name[word[0]].source
            tgt = arrow_by_name[word[-1]].target
            terms.append((coeff, word, src, tgt))
        srcs = {t[2] for t in terms}
        tgts = {t[3] for t in terms}
        if len(srcs) != 1 or len(tgts) != 1:
            raise SpecError("relation mixes non-parallel paths", lineno)
        norm = tuple(sorted((c, w) for c, w, _, _ in terms))
        relations.append(Relation(norm, srcs.pop(), tgts.pop()))

    return QuiverSpec(p, tuple(vertices), tuple(arrow_objs), tuple(sorted(relations, key=lambda r: r.terms)))


def serialize_spec(spec: QuiverSpec) -> str:
    """Emit spec text in the same grammar parse_spec reads."""
    lines = [f"field {spec.p}"]
    lines.append("vertices " + " ".join(spec.vertices) if spec.vertices else "vertices")
    for a in spec.arrows:
        lines.append(f"arrow {a.name}: {a.source} -> {a.target}")
    for rel in spec.relations:
        parts = []
        for coeff, word in rel.terms:
            path_txt = "*".join(reversed(word))
            parts.append(path_txt if coeff == 1 else f"{coeff}*{path_txt}")
        lines.append("relation " + " + ".join(parts))
    return "\n".join(lines) + "\n"


class Algebra:
    """A bound quiver algebra with explicit path basis and multiplication table."""

    def __init__(self, spec: QuiverSpec, basis, reduction, nil_degree: int):
        self.spec = spec
        self.field = PrimeField(spec.p)
        self.vertices = spec.vertices
        self.vertex_index = {v: i for i, v in enumerate(spec.vertices)}
        self.arrows = spec.arrows
        self.arrow_by_name = {a.name: a for a in spec.arrows}
        self.arrow_index = {a.name: i for i, a in enumerate(spec.arrows)}
        self.basis = tuple(basis)
        self.basis_index = {pth.key(): i for i, pth in enumerate(self.basis)}
        self.reduction = reduction  # path key -> tuple of (coeff, basis index)
        self.nil_degree = nil_degree
        self.dim = len(self.basis)
        self.idempotents = {}
        for v in spec.vertices:
            key = (v, ())
            if key not in self.basis_index:
                raise AssertionError("trivial path missing from basis")
            self.idempotents[v] = self.basis_index[key]
        self._mult = {}
        self._build_mult_table()

    # -- construction helpers -------------------------------------------------

    def _build_mult_table(self):
        for j, q in enumerate(self.basis):
            for i, pth in enumerate(self.basis):
                if q.target != pth.source:
                    continue
                vec = self.reduce_word(q.source, q.arrows + pth.arrows)
                if vec:
                    self._mult[(i, j)] = vec

    def reduce_word(self, source: str, arrows: tuple):
        """Residue of the path (source; arrows) as a sparse vector over the basis."""
        if len(arrows) >= self.nil_degree:
            return ()
        key = (source, arrows)
        if key in self.basis_index:
            return ((1, self.basis_index[key]),)
        if key in self.reduction:
            return self.reduction[key]
        raise AssertionError(f"unknown path {key}")

    # -- algebra structure -----------------------------------------------------

    def mult_basis(self, i: int, j: int):
        """Sparse product basis[i] * basis[j] ("first j, then i")."""
        return self._mult.get((i, j), ())

    def mult_vec(self, x, y):
        """Product of sparse vectors (lists of (coeff, basis index))."""
        p = self.field.p
        acc: dict = {}
        for cx, i in x:
            for cy, j in y:
                for cm, k in self.mult_basis(i, j):
                    acc[k] = (acc.get(k, 0) + cx * cy * cm) % p
        return tuple(sorted((c, k) for k, c in acc.items() if c))

    def paths_from(self, v: str):
        """Basis paths with source v, in basis order (a basis of A e_v)."""
        return [pth for pth in self.basis if pth.source == v]

    def check_consistency(self):
        """Grading, associativity and unit checks on the basis (build-time gate).

        Every stored product basis[i] * basis[j] must belong to a composable
        pair and lie in its vertex block: each term has the source of j and
        the target of i.  On such a table both sides of (i * j) * k = i * (j * k)
        vanish unless k, j, i compose, so associativity is checked on the
        composable triples alone, which decides exactly what the check on all
        dim^3 triples decides.
        """
        basis = self.basis
        for (i, j), vec in self._mult.items():
            if basis[j].target != basis[i].source or any(
                    basis[k].source != basis[j].source or basis[k].target != basis[i].target
                    for _, k in vec):
                raise AssertionError(f"product ({i},{j}) leaves its vertex block")
        ending: dict = {v: [] for v in self.vertices}
        for k, pth in enumerate(basis):
            ending[pth.target].append(k)
        for i, pth in enumerate(basis):
            for j in ending[pth.source]:
                for k in ending[basis[j].source]:
                    left = self.mult_vec(self.mult_basis(i, j), ((1, k),))
                    right = self.mult_vec(((1, i),), self.mult_basis(j, k))
                    if left != right:
                        raise AssertionError(f"multiplication not associative at ({i},{j},{k})")
        unit = tuple((1, self.idempotents[v]) for v in self.vertices)
        for i in range(self.dim):
            if self.mult_vec(unit, ((1, i),)) != ((1, i),):
                raise AssertionError("unit fails on the left")
            if self.mult_vec(((1, i),), unit) != ((1, i),):
                raise AssertionError("unit fails on the right")

    def __eq__(self, other) -> bool:
        return isinstance(other, Algebra) and other.spec == self.spec

    def __hash__(self) -> int:
        return hash(self.spec)

    def __repr__(self) -> str:
        return f"Algebra(dim={self.dim}, vertices={list(self.vertices)}, p={self.spec.p})"


def _enumerate_paths(spec: QuiverSpec, max_len: int):
    """Paths by length, each as a Path, in deterministic generation order."""
    by_source: dict = {v: [] for v in spec.vertices}
    for a in spec.arrows:
        by_source[a.source].append(a)
    levels = [[Path(v, v, ()) for v in spec.vertices]]
    total = len(levels[0])
    for _ in range(max_len):
        nxt = []
        for pth in levels[-1]:
            for a in by_source.get(pth.target, ()):
                nxt.append(Path(pth.source, a.target, pth.arrows + (a.name,)))
        total += len(nxt)
        if total > 200000:
            raise NotAdmissibleError("path count exceeded budget; ideal is likely not admissible")
        levels.append(nxt)
        if not nxt:
            break
    return levels


def _relation_elements(spec: QuiverSpec, levels, bound, use_min: bool):
    """All u*r*v with combined degree within bound.

    With use_min the bound applies to the shortest term (for truncated
    generators); otherwise to the longest term (for full generators).
    """
    paths_by_target: dict = {}
    paths_by_source: dict = {}
    for level in levels:
        for pth in level:
            paths_by_target.setdefault(pth.target, []).append(pth)
            paths_by_source.setdefault(pth.source, []).append(pth)
    out = []
    for rel in spec.relations:
        lens = [len(w) for _, w in rel.terms]
        ref_len = min(lens) if use_min else max(lens)
        for v in paths_by_target.get(rel.source, ()):
            if v.length + ref_len > bound:
                continue
            for u in paths_by_source.get(rel.target, ()):
                if v.length + ref_len + u.length > bound:
                    continue
                terms = []
                for coeff, word in rel.terms:
                    terms.append((coeff, v.source, v.arrows + word + u.arrows))
                out.append(terms)
    return out


def build_algebra(spec: QuiverSpec) -> Algebra:
    """Construct KQ/I; raises NotAdmissibleError if no path length dies below 64."""
    for bound in range(2, 65):
        levels = _enumerate_paths(spec, bound)
        if len(levels) <= bound:
            # path enumeration itself died out: quiver has no paths this long
            nil = len(levels)
        else:
            all_paths = [pth for level in levels for pth in level]
            col_of = {pth.key(): c for c, pth in enumerate(all_paths)}
            field = PrimeField(spec.p)
            gens = _relation_elements(spec, levels, bound, use_min=False)
            rows = []
            for terms in gens:
                row = [0] * len(all_paths)
                for coeff, src, word in terms:
                    row[col_of[(src, word)]] = (row[col_of[(src, word)]] + coeff) % spec.p
                rows.append(row)
            echelon = rref(Mat.from_rows(field, rows, cols=len(all_paths))) if rows else None
            nil = None
            for ell in range(2, bound + 1):
                level_paths = levels[ell] if ell < len(levels) else []
                if all(_in_row_span(echelon, col_of[pth.key()], len(all_paths), spec.p) for pth in level_paths):
                    nil = ell
                    break
            if nil is None:
                continue
        return _finish_build(spec, nil)
    raise NotAdmissibleError("no path length dies below 64; ideal not certified admissible")


def _in_row_span(echelon, col: int, ncols: int, p: int) -> bool:
    if echelon is None:
        return False
    residual = [0] * ncols
    residual[col] = 1
    mat = echelon.matrix
    for r, c in enumerate(echelon.pivots):
        f = residual[c] % p
        if f:
            row = mat.row(r)
            residual = [(x - f * y) % p for x, y in zip(residual, row)]
    return all(x == 0 for x in residual)


def _finish_build(spec: QuiverSpec, nil: int) -> Algebra:
    field = PrimeField(spec.p)
    levels = _enumerate_paths(spec, nil - 1)
    short_paths = [pth for level in levels[:nil] for pth in level]
    col_of = {pth.key(): c for c, pth in enumerate(short_paths)}
    gens = _relation_elements(spec, levels, nil - 1, use_min=True)
    rows = []
    for terms in gens:
        row = [0] * len(short_paths)
        nonzero = False
        for coeff, src, word in terms:
            if len(word) < nil:
                row[col_of[(src, word)]] = (row[col_of[(src, word)]] + coeff) % spec.p
                nonzero = True
        if nonzero:
            rows.append(row)
    if rows:
        res = rref(Mat.from_rows(field, rows, cols=len(short_paths)))
        pivot_cols = set(res.pivots)
        reduction = {}
        for r, c in enumerate(res.pivots):
            pth = short_paths[c]
            if pth.length < 2:
                raise AssertionError("trivial path or arrow reduced away")
            vec = []
            for j in range(len(short_paths)):
                if j != c and res.matrix.entry(r, j):
                    vec.append(((-res.matrix.entry(r, j)) % spec.p, j))
            reduction[pth.key()] = vec
    else:
        pivot_cols = set()
        reduction = {}
    basis = [pth for c, pth in enumerate(short_paths) if c not in pivot_cols]
    basis_pos = {pth.key(): i for i, pth in enumerate(basis)}
    final_reduction = {}
    for key, vec in reduction.items():
        final_reduction[key] = tuple(sorted((coeff, basis_pos[short_paths[j].key()]) for coeff, j in vec))
    alg = Algebra(spec, basis, final_reduction, nil)
    alg.check_consistency()
    return alg


def parse_algebra(text: str) -> Algebra:
    return build_algebra(parse_spec(text))


_OPPOSITE_CACHE: dict = {}


def opposite(algebra: Algebra) -> Algebra:
    """The opposite algebra: arrows and relation paths reversed.

    Each opposite is built once per spec and remembered in both directions:
    later calls return the same Algebra objects, and the opposite of the
    opposite is the algebra it was first built from.
    """
    spec = algebra.spec
    if spec in _OPPOSITE_CACHE:
        return _OPPOSITE_CACHE[spec]
    arrows = tuple(Arrow(a.name, a.target, a.source) for a in spec.arrows)
    relations = []
    for rel in spec.relations:
        terms = tuple(sorted((c, tuple(reversed(w))) for c, w in rel.terms))
        relations.append(Relation(terms, rel.target, rel.source))
    op_spec = QuiverSpec(spec.p, spec.vertices, arrows, tuple(sorted(relations, key=lambda r: r.terms)))
    op = algebra if op_spec == spec else build_algebra(op_spec)
    _OPPOSITE_CACHE[spec] = op
    _OPPOSITE_CACHE[op_spec] = algebra
    return op


_QUOTIENT_CACHE: dict = {}


def quotient_by_idempotent(algebra: Algebra, kill) -> Algebra:
    """A/<e> for e the sum of trivial paths at the given vertices.

    Each quotient is built once per (spec, vertex set); later calls return
    the same Algebra object.
    """
    kill = frozenset(kill)
    key = (algebra.spec, kill)
    if key in _QUOTIENT_CACHE:
        return _QUOTIENT_CACHE[key]
    unknown = kill - set(algebra.vertices)
    if unknown:
        raise ValueError(f"unknown vertices {sorted(unknown)}")
    spec = algebra.spec
    vertices = tuple(v for v in spec.vertices if v not in kill)
    arrows = tuple(a for a in spec.arrows if a.source not in kill and a.target not in kill)
    alive = {a.name for a in arrows}
    relations = []
    for rel in spec.relations:
        if rel.source in kill or rel.target in kill:
            continue
        terms = tuple((c, w) for c, w in rel.terms if all(x in alive for x in w))
        if terms:
            relations.append(Relation(terms, rel.source, rel.target))
    new_spec = QuiverSpec(spec.p, vertices, arrows, tuple(sorted(relations, key=lambda r: r.terms)))
    _QUOTIENT_CACHE[key] = build_algebra(new_spec)
    return _QUOTIENT_CACHE[key]


def quotient_by_monomial_ideal(algebra: Algebra, kill_paths) -> Algebra:
    """A/J for J the two-sided ideal spanned by the given basis paths.

    The span must already be an ideal whose saturation stays monomial;
    anything else raises UnsupportedQuotientError.
    """
    kill = {pth.key() for pth in kill_paths}
    changed = True
    while changed:
        changed = False
        for key in list(kill):
            src, word = key
            pth = algebra.basis[algebra.basis_index[key]]
            for a in algebra.arrows:
                if a.source == pth.target:
                    vec = algebra.reduce_word(src, word + (a.name,))
                    changed |= _absorb_product(algebra, vec, kill)
                if a.target == src:
                    vec = algebra.reduce_word(a.source, (a.name,) + word)
                    changed |= _absorb_product(algebra, vec, kill)
    kill_vertices = {src for src, word in kill if not word}
    kill_arrows = {word[0] for src, word in kill if len(word) == 1}
    spec = algebra.spec
    vertices = tuple(v for v in spec.vertices if v not in kill_vertices)
    arrows = tuple(a for a in spec.arrows
                   if a.name not in kill_arrows and a.source not in kill_vertices and a.target not in kill_vertices)
    alive = {a.name for a in arrows}
    relations = []
    for rel in spec.relations:
        terms = tuple((c, w) for c, w in rel.terms if all(x in alive for x in w))
        if terms:
            relations.append(Relation(terms, rel.source, rel.target))
    for src, word in sorted(kill):
        if len(word) >= 2 and all(x in alive for x in word):
            tgt = algebra.basis[algebra.basis_index[(src, word)]].target
            relations.append(Relation(((1, word),), src, tgt))
    new_spec = QuiverSpec(spec.p, vertices, arrows, tuple(sorted(relations, key=lambda r: r.terms)))
    return build_algebra(new_spec)


def _absorb_product(algebra: Algebra, vec, kill) -> bool:
    """Fold a product of an ideal path with an arrow back into the kill set."""
    live = [(c, k) for c, k in vec if algebra.basis[k].key() not in kill]
    if not live:
        return False
    if len(live) == 1:
        kill.add(algebra.basis[live[0][1]].key())
        return True
    raise UnsupportedQuotientError("ideal saturation leaves the monomial class")
