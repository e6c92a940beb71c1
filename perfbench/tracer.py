"""Traced child: run `taukit.cli.main(argv)` in-process with per-layer wrappers.

Usage: python tracer.py OUT.json SPEC ARGS...   (PYTHONPATH must reach taukit)

Wrappers are installed from outside the package.  A function is replaced in
every loaded `taukit.*` module whose global names it, because modules bind
names with `from .exactlin import rref` and the like; methods are replaced on
their class.  A span wrapper keeps a stack of open spans, so each call's self
time is its duration minus that of the traced calls nested in it.  Spans are
aggregated in memory per (parent, name) edge and written to OUT.json when the
command ends; stdout is left to the CLI, so it can be gated like an untraced
run.  Per-call lookups made millions of times (the IndecIndex Hom/Ext caches,
Subcat.contains) are only counted.
"""

from __future__ import annotations

import json
import sys
import time

# (module, attribute path, metric name, mode); mode is "span" or "count".
TARGETS = [
    ("exactlin", "rref", "exactlin.rref", "span"),
    ("exactlin", "solve", "exactlin.solve", "span"),
    ("exactlin", "solve_matrix", "exactlin.solve_matrix", "span"),
    ("exactlin", "kernel_basis", "exactlin.kernel_basis", "span"),
    ("exactlin", "Mat.mul", "exactlin.Mat.mul", "span"),
    ("exactlin", "Mat.from_rows", "exactlin.Mat.from_rows", "span"),
    ("exactlin", "Mat.from_columns", "exactlin.Mat.from_columns", "span"),
    ("algebra", "build_algebra", "algebra.build_algebra", "span"),
    ("algebra", "quotient_by_idempotent", "algebra.quotient_by_idempotent", "span"),
    ("algebra", "opposite", "algebra.opposite", "span"),
    ("modcat", "decompose", "modcat.decompose", "span"),
    ("modcat", "is_indecomposable", "modcat.is_indecomposable", "span"),
    ("modcat", "hom_basis", "modcat.hom_basis", "span"),
    ("modcat", "ext_dim", "modcat.ext_dim", "span"),
    ("modcat", "tau_d", "modcat.tau_d", "span"),
    ("modcat", "map_parts", "modcat.map_parts", "span"),
    ("modcat", "direct_sum", "modcat.direct_sum", "span"),
    ("modcat", "iso_between_indecomposables", "modcat.iso_between_indecomposables", "span"),
    ("modcat", "tau", "modcat.tau", "span"),
    ("modcat", "tau_inv", "modcat.tau_inv", "span"),
    ("modcat", "transpose", "modcat.transpose", "span"),
    ("modcat", "projective_cover", "modcat.projective_cover", "span"),
    ("arknit", "knit_indecomposables", "arknit.knit_indecomposables", "span"),
    ("arknit", "irreducible_multiplicities", "arknit.irreducible_multiplicities", "span"),
    ("arknit", "brute_force_indecomposables", "arknit.brute_force_indecomposables", "span"),
    ("arknit", "IndecIndex.hom_dim", "arknit.IndecIndex.hom_dim", "count"),
    ("arknit", "IndecIndex.ext_dim", "arknit.IndecIndex.ext_dim", "count"),
    ("arknit", "IndecIndex.find_iso", "arknit.IndecIndex.find_iso", "span"),
    ("arknit", "IndecIndex.summand_indices", "arknit.IndecIndex.summand_indices", "span"),
    ("highercat", "is_d_cluster_tilting", "highercat.is_d_cluster_tilting", "span"),
    ("highercat", "left_min_approximation", "highercat.left_min_approximation", "span"),
    ("highercat", "minimize_approximation", "highercat.minimize_approximation", "span"),
    ("highercat", "right_full_approximation", "highercat.right_full_approximation", "span"),
    ("highercat", "left_full_approximation", "highercat.left_full_approximation", "span"),
    ("highercat", "Subcat.contains", "highercat.Subcat.contains", "count"),
    ("torsion", "enumerate_2ff_torsion_pairs", "torsion.enumerate_2ff_torsion_pairs", "span"),
    ("torsion", "is_torsion_pair_2ff", "torsion.is_torsion_pair_2ff", "span"),
    ("torsion", "is_2_finite", "torsion.is_2_finite", "span"),
    ("tautilt", "verify_theorem1", "tautilt.verify_theorem1", "span"),
    ("tautilt", "is_support_tau2_tilting", "tautilt.is_support_tau2_tilting", "span"),
    ("tautilt", "add_coresolution", "tautilt.add_coresolution", "span"),
    ("tautilt", "fac_cap_C", "tautilt.fac_cap_C", "span"),
    ("tautilt", "ext_projective_generator", "tautilt.ext_projective_generator", "span"),
] + [("cli", f"cmd_{c}", f"cli.{c}", "span") for c in
     ("info", "indecs", "ar", "ctfind", "ctcheck", "torsion", "tau2", "verify")]

# A call counts as accepted when this holds for its result.
ACCEPT = {
    "torsion.is_torsion_pair_2ff": lambda r: bool(r[0]),
    "tautilt.is_support_tau2_tilting": lambda r: type(r).__name__ == "SupportTau2Cert",
    "highercat.is_d_cluster_tilting": lambda r: bool(r.ok),
}
# Extra work measure accumulated per call from the arguments.
WEIGH = {"exactlin.rref": lambda m, *_: m.rows * m.cols}
# Results kept to the end: the census objects, whose cache sizes give hit rates.
KEEP = {"arknit.knit_indecomposables"}

ROOT = "<root>"


class Tracer:
    def __init__(self):
        self.stack = [[ROOT, 0.0]]      # open spans: [name, time of traced children]
        self.edges = {}                 # (parent, name) -> values in FIELDS order
        self.counts = {}                # name -> [calls] for count-only targets
        self.indexes = []               # IndecIndex objects built, for cache sizes

    def span(self, fn, name):
        stack, edges = self.stack, self.edges
        accept, weigh = ACCEPT.get(name), WEIGH.get(name)
        kept = self.indexes if name in KEEP else None
        clock = time.perf_counter
        depth = [0]

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            depth[0] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                depth[0] -= 1
                stack.pop()
                parent[1] += dt
                rec = edges.get((parent[0], name))
                if rec is None:
                    rec = edges[(parent[0], name)] = [0, 0.0, 0.0, 0, 0]
                rec[0] += 1
                if depth[0] == 0:       # inclusive time of the outermost call only
                    rec[1] += dt
                rec[2] += dt - frame[1]
                if weigh is not None:
                    rec[4] += weigh(*args)
            if accept is not None and accept(result):
                rec[3] += 1
            if kept is not None:
                kept.append(result)
            return result

        return traced

    def count(self, fn, name):
        cell = self.counts.setdefault(name, [0])

        def counted(*args):
            cell[0] += 1
            return fn(*args)

        return counted

    def install(self):
        """Replace every target in the loaded taukit modules."""
        modules = {n: m for n, m in sys.modules.items()
                   if n == "taukit" or n.startswith("taukit.")}
        for mod_name, path, name, mode in TARGETS:
            owner = modules[f"taukit.{mod_name}"]
            wrap = self.span if mode == "span" else self.count
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(wrap(raw.__func__, name)))
                else:
                    setattr(cls, attr, wrap(raw, name))
                continue
            original = getattr(owner, path)
            wrapped = wrap(original, name)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def report(self) -> dict:
        return {
            "edges": [[parent, name, *rec] for (parent, name), rec in sorted(self.edges.items())],
            "counts": {name: cell[0] for name, cell in self.counts.items()},
            "hom_cache_entries": sum(len(i._hom_cache) for i in self.indexes),
            "ext_cache_entries": sum(len(i._ext_cache) for i in self.indexes),
        }


# -- per-layer metrics ------------------------------------------------------------------

# Which end-to-end metric each layer should move, and on which workload.
LAYER_MOVES = {
    "exactlin": "wall_s on verify-a5r2 (rref, from_rows) and census-e7f2 (mul)",
    "algebra": "setup_s everywhere; wall_s on verify-a5r2 (one quotient per candidate)",
    "modcat": "wall_s on verify-a5r2 (decompose) and census-e7f2 (tau, Hom)",
    "arknit": "wall_s on census-e7f2 and ctfind-a7r2 (Ext cache); peak_rss_mb everywhere; "
              "wall_s on readme-fixtures (oracle)",
    "highercat": "wall_s on ctfind-a7r2; approximations move wall_s on verify-a5r2",
    "torsion": "wall_s on verify-a5r2",
    "tautilt": "wall_s on verify-a5r2; none on census-e7f2",
    "cli": "wall_s and setup_s on readme-fixtures; wall_s on ctfind-a7r2",
    "trace": "none: traced wall time minus untraced wall time",
}

CLI_COMMANDS = ("info", "indecs", "ar", "ctfind", "ctcheck", "torsion", "tau2", "verify")

PER_LAYER = [
    "exactlin.rref.calls", "exactlin.rref.self_s", "exactlin.rref.cells",
    "exactlin.solve.calls", "exactlin.solve_matrix.calls", "exactlin.kernel_basis.calls",
    "exactlin.Mat.mul.calls", "exactlin.Mat.mul.self_s",
    "exactlin.Mat.from_rows.calls", "exactlin.Mat.from_rows.self_s",
    "exactlin.Mat.from_columns.calls",
    "algebra.build_algebra.calls", "algebra.build_algebra.s",
    "algebra.quotient_by_idempotent.calls", "algebra.quotient_by_idempotent.s",
    "algebra.opposite.calls",
    *(f"modcat.{f}.{k}" for f in ("decompose", "is_indecomposable", "hom_basis", "ext_dim",
                                  "tau_d", "map_parts", "direct_sum",
                                  "iso_between_indecomposables")
      for k in ("calls", "s")),
    "modcat.decompose.self_s", "modcat.tau.calls", "modcat.tau_inv.calls",
    "modcat.transpose.s", "modcat.projective_cover.calls",
    "arknit.knit_indecomposables.s", "arknit.irreducible_multiplicities.s",
    "arknit.brute_force_indecomposables.s",
    "arknit.IndecIndex.hom_dim.calls", "arknit.IndecIndex.ext_dim.calls",
    "arknit.hom_cache.hit_rate", "arknit.ext_cache.hit_rate",
    "arknit.IndecIndex.find_iso.calls", "arknit.IndecIndex.find_iso.s",
    "arknit.IndecIndex.summand_indices.calls", "arknit.IndecIndex.summand_indices.s",
    "highercat.is_d_cluster_tilting.calls", "highercat.is_d_cluster_tilting.s",
    "highercat.left_min_approximation.calls", "highercat.left_min_approximation.s",
    "highercat.minimize_approximation.s", "highercat.right_full_approximation.calls",
    "highercat.left_full_approximation.calls", "highercat.Subcat.contains.calls",
    "torsion.enumerate_2ff_torsion_pairs.s", "torsion.is_torsion_pair_2ff.calls",
    "torsion.pairs.accepted", "torsion.accept_ratio",
    "torsion.is_2_finite.calls", "torsion.is_2_finite.s",
    "tautilt.verify_theorem1.s", "tautilt.is_support_tau2_tilting.calls",
    "tautilt.is_support_tau2_tilting.s", "tautilt.accept_ratio",
    "tautilt.add_coresolution.calls", "tautilt.add_coresolution.s",
    "tautilt.fac_cap_C.s", "tautilt.ext_projective_generator.s",
    "cli.import_s", *(f"cli.{c}.s" for c in CLI_COMMANDS),
    "cli.ctfind.subsets", "cli.ctfind.found_ratio",
    "trace.overhead_s",
]


def unit_of(metric: str) -> tuple:
    """(unit, better) of a per-layer metric, from its last name component."""
    last = metric.rsplit(".", 1)[1]
    if last in ("hit_rate", "accept_ratio", "found_ratio"):
        return "ratio", "higher"
    if last in ("s", "self_s", "import_s", "overhead_s"):
        return "s", "lower"
    if last == "accepted":
        return "count", "higher"
    return "count", "lower"


FIELDS = ("calls", "s", "self_s", "accepted", "weight")


def _add(acc: dict, key, rec):
    total = acc.setdefault(key, [0] * len(rec))
    for k, v in enumerate(rec):
        total[k] += v


def merge(reports) -> dict:
    """Sum the reports of the commands of one workload, per edge and per name."""
    edges, totals = {}, {}
    out = {"import_s": 0.0, "hom_cache_entries": 0, "ext_cache_entries": 0}
    for rep in reports:
        for parent, name, *rec in rep["edges"]:
            _add(edges, (parent, name), rec)
            _add(totals, name, rec)
        for name, calls in rep["counts"].items():
            _add(totals, name, [calls, 0, 0, 0, 0])
        for k in out:
            out[k] += rep[k]
    out["edges"] = edges
    out["totals"] = {name: dict(zip(FIELDS, rec)) for name, rec in totals.items()}
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _hit_rate(entries, calls) -> float:
    """1 - (cache entries after the run / calls); 0 when the cache was not used."""
    return 1 - entries / calls if calls else 0.0


def layer_metrics(merged: dict, overhead_s: float) -> dict:
    """Every PER_LAYER metric; a layer that did no work reports 0."""
    totals = merged["totals"]

    def get(name, key):
        return totals.get(name, {}).get(key, 0)

    ctfind = merged["edges"].get(("cli.ctfind", "highercat.is_d_cluster_tilting"), [0] * 5)
    special = {
        "exactlin.rref.cells": get("exactlin.rref", "weight"),
        "arknit.hom_cache.hit_rate": _hit_rate(merged["hom_cache_entries"],
                                               get("arknit.IndecIndex.hom_dim", "calls")),
        "arknit.ext_cache.hit_rate": _hit_rate(merged["ext_cache_entries"],
                                               get("arknit.IndecIndex.ext_dim", "calls")),
        "torsion.pairs.accepted": get("torsion.is_torsion_pair_2ff", "accepted"),
        "torsion.accept_ratio": _ratio(get("torsion.is_torsion_pair_2ff", "accepted"),
                                       get("torsion.is_torsion_pair_2ff", "calls")),
        "tautilt.accept_ratio": _ratio(get("tautilt.is_support_tau2_tilting", "accepted"),
                                       get("tautilt.is_support_tau2_tilting", "calls")),
        "cli.import_s": merged["import_s"],
        "cli.ctfind.subsets": ctfind[0],
        "cli.ctfind.found_ratio": _ratio(ctfind[3], ctfind[0]),
        "trace.overhead_s": overhead_s,
    }
    out = {}
    for metric in PER_LAYER:
        if metric in special:
            value = special[metric]
        else:
            name, key = metric.rsplit(".", 1)
            value = get(name, key)
        out[metric] = {"value": value, "unit": unit_of(metric)[0]}
    return out


def main(argv) -> int:
    out_path, cli_argv = argv[0], argv[1:]
    t0 = time.perf_counter()
    import taukit.cli
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    code = taukit.cli.main(cli_argv)
    sys.stdout.flush()
    report = tracer.report()
    report["import_s"] = import_s
    with open(out_path, "w") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
