"""Seeded inputs, commands and label-invariant output summaries.

A quiver is described structurally: vertex positions 0..n-1, arrows as
(name, source position, target position) and zero relations as arrow-name
paths in application order.  `render` writes it in taukit's spec format.
Seed 0 is the canonical labelling (vertex i+1 at position i, declared in
order, arrows under their structural names); any other seed permutes the
vertex names, their declaration order and the arrow names, which gives an
isomorphic algebra.  `Labelling.canonical_dims` maps a dimension vector the
CLI prints back to position order, so outputs of different seeds can be
compared through `summarize`.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Quiver:
    field: int
    n: int
    arrows: tuple      # (name, source position, target position)
    relations: tuple   # arrow-name paths, application order


def linear(n: int, p: int) -> Quiver:
    """The hereditary path algebra of 1 -> 2 -> ... -> n."""
    return Quiver(p, n, tuple((f"a{i + 1}", i, i + 1) for i in range(n - 1)), ())


def nakayama_rad2(n: int, p: int) -> Quiver:
    """A_n / rad^2: the linear quiver with all paths of length 2 zero."""
    relations = tuple((f"a{i + 1}", f"a{i + 2}") for i in range(n - 2))
    return Quiver(p, n, linear(n, p).arrows, relations)


def e7_linear(p: int) -> Quiver:
    """E7 with the chain 1 -> ... -> 6 oriented linearly and the branch arrow 7 -> 3."""
    arrows = tuple((f"a{i + 1}", i, i + 1) for i in range(5)) + (("b", 6, 2),)
    return Quiver(p, 7, arrows, ())


@dataclass(frozen=True)
class Labelling:
    names: tuple        # names[pos] = vertex name at structural position pos
    declared: tuple     # positions in the order their vertices are declared
    arrow_names: dict   # structural arrow name -> name used in the spec

    def canonical_dims(self, dims) -> list:
        """Dimension vector in declaration order -> dimension vector in position order."""
        out = [0] * len(self.names)
        for k, d in enumerate(dims):
            out[self.declared[k]] = d
        return out

    def declared_dims(self, canonical) -> list:
        return [canonical[pos] for pos in self.declared]

    def canonical_vertex(self, name: str) -> int:
        return self.names.index(name) + 1


def labelling(q: Quiver, seed: int) -> Labelling:
    structural = [a[0] for a in q.arrows]
    if seed == 0:
        return Labelling(tuple(str(i + 1) for i in range(q.n)), tuple(range(q.n)),
                         {a: a for a in structural})
    rng = random.Random(seed)
    names = [str(i + 1) for i in range(q.n)]
    rng.shuffle(names)
    declared = list(range(q.n))
    rng.shuffle(declared)
    renamed = list(structural)
    rng.shuffle(renamed)
    return Labelling(tuple(names), tuple(declared), dict(zip(structural, renamed)))


def render(q: Quiver, lab: Labelling) -> str:
    """The spec text of q under a labelling; relations are written right to left."""
    lines = [f"field {q.field}", "vertices " + " ".join(lab.names[pos] for pos in lab.declared)]
    for name, s, t in q.arrows:
        lines.append(f"arrow {lab.arrow_names[name]}: {lab.names[s]} -> {lab.names[t]}")
    for path in q.relations:
        lines.append("relation " + "*".join(lab.arrow_names[a] for a in reversed(path)))
    return "\n".join(lines) + "\n"


def dim_name(dims) -> str:
    return "-".join(str(d) for d in dims)


# -- commands and workloads -----------------------------------------------------------


@dataclass(frozen=True)
class Command:
    """One `python -m taukit SPEC ARGS...` call.

    `spec` is the name of a generated input of the workload or a path (from
    the checkout root) of a fixture.  `ct` lists canonical dimension vectors
    that are passed as `--ct`, in the spec's labelling.  `kind` selects the
    label-invariant summary of the output.
    """

    spec: str
    args: tuple
    kind: str
    ct: tuple = ()

    def argv(self, spec_path: str, lab: Labelling | None) -> list:
        out = [spec_path, *self.args]
        if self.ct:
            gens = [lab.declared_dims(c) if lab else list(c) for c in self.ct]
            out += ["--ct", ",".join(dim_name(g) for g in gens)]
        return out


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    inputs: dict      # generated spec name -> (family, size, field)
    commands: tuple


def _unit(n, i):
    return tuple(1 if k == i else 0 for k in range(n))


def _pair(n, i):
    return tuple(1 if k in (i, i + 1) else 0 for k in range(n))


# The unique 2-cluster-tilting subcategory of A5/rad^2: the simples at odd
# vertices and every length-2 module.
A5_CT = tuple(_unit(5, i) for i in (0, 2, 4)) + tuple(_pair(5, i) for i in range(4))
A3_CT = "1-1-0,0-1-1,0-0-1,1-0-0"
A3 = "fixtures/a3_zero_relation.alg"
SEMISIMPLE = "fixtures/semisimple3.alg"

WORKLOADS = {
    w.name: w for w in (
        Workload(
            "verify-a5r2",
            "the headline verify theorem1 verdict at the largest size that finishes in seconds; "
            "decompose-bound",
            {"a5r2": ("nakayama_rad2", 5, 101)},
            (Command("a5r2", ("verify", "theorem1"), "verify", A5_CT),),
        ),
        Workload(
            "census-e7f2",
            "AR census over F_2 bound by Hom, tau and exactlin; no subset scan, so "
            "verifier-only changes must leave it flat",
            {"e7f2": ("e7_linear", 7, 2)},
            (Command("e7f2", ("ar",), "ar"),),
        ),
        Workload(
            "ctfind-a7r2",
            "2^13 subsets scanned by is_d_cluster_tilting over cached Ext lookups, one 2-CT "
            "found; no verifier or decompose work",
            {"a7r2": ("nakayama_rad2", 7, 101)},
            (Command("a7r2", ("ctfind", "--d", "2"), "ctfind"),),
        ),
        Workload(
            "readme-fixtures",
            "every README command on the small fixtures, one process each, so interpreter "
            "start, import and parsing dominate",
            {},
            (
                Command(A3, ("info",), "bytes"),
                Command(A3, ("indecs", "--oracle"), "bytes"),
                Command(A3, ("ar", "--dot"), "bytes"),
                Command(A3, ("ctfind", "--d", "2"), "bytes"),
                Command(A3, ("ctcheck", "--gens", A3_CT), "bytes"),
                Command(A3, ("torsion", "enum", "--ct", A3_CT), "bytes"),
                Command(A3, ("tau2", "enum", "--ct", A3_CT), "bytes"),
                Command(A3, ("verify", "theorem1", "--ct", A3_CT), "bytes"),
                Command(SEMISIMPLE, ("verify", "theorem1", "--ct", "1-0-0,0-1-0,0-0-1"), "bytes"),
            ),
        ),
    )
}

FAMILIES = {
    "linear": linear,
    "nakayama_rad2": nakayama_rad2,
    "e7_linear": lambda size, p: e7_linear(p),
}


def generate(w: Workload, seed: int) -> dict:
    """Generated spec name -> (spec text, labelling) for one seed."""
    out = {}
    for name, (family, size, p) in w.inputs.items():
        q = FAMILIES[family](size, p)
        lab = labelling(q, seed)
        out[name] = (render(q, lab), lab)
    return out


# -- label-invariant summaries --------------------------------------------------------


def summarize(kind: str, stdout: bytes, lab: Labelling | None):
    """What a command printed on a generated input, with every vertex label
    mapped to position order.

    Returns None for outputs that are gated by their bytes alone.
    """
    if kind == "bytes":
        return None
    report = json.loads(stdout)
    if kind == "verify":
        def names(mods):
            return sorted(lab.canonical_dims(d) for d in mods)

        return {
            "counts": report["counts"],
            "ok": report["ok"],
            "mismatches": len(report["mismatches"]),
            "modules": sorted(
                [names(m["summands"]),
                 sorted(lab.canonical_vertex(v) for v in m["support_complement"])]
                for m in report["support_tau2_tilting"]),
            "pairs": sorted([names(p["torsion"]), names(p["torsion_free"])]
                            for p in report["torsion_pairs"]),
            "bijection": sorted([names(b["module"]), names(b["torsion_class"])]
                                for b in report["bijection"]),
        }
    if kind == "ar":
        dvs = [lab.canonical_dims(d) for d in report["dim_vectors"]]
        return {
            "indecomposables": len(dvs),
            "dim_vectors": sorted(dvs),
            "ar_arrows": sorted([dvs[i], dvs[j], a] for i, j, a in report["ar_arrows"]),
            "tau": sorted([dvs[int(k)], dvs[v]] for k, v in report["tau"].items()),
        }
    if kind == "ctfind":
        def parse(name):
            return lab.canonical_dims([int(x) for x in name.split("-")])

        return {
            "d": report["d"],
            "subcategories": sorted(sorted(parse(n) for n in sub)
                                    for sub in report["subcategories"]),
        }
    raise ValueError(f"unknown summary kind {kind!r}")
