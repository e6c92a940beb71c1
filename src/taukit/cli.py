"""Command-line interface.

Usage:
    taukit SPEC_FILE info [--echo-spec]
    taukit SPEC_FILE indecs [--oracle] [--oracle-bound N]
    taukit SPEC_FILE ar [--dot]
    taukit SPEC_FILE ctfind [--d D]
    taukit SPEC_FILE ctcheck --gens LIST [--d D]
    taukit SPEC_FILE torsion enum --ct LIST
    taukit SPEC_FILE tau2 enum --ct LIST
    taukit SPEC_FILE verify theorem1 --ct LIST

Generators are named by dim vector, entries joined by dashes (e.g. 1-1-0);
an ambiguous name takes an index suffix like 1-1-0#2.  Reports are JSON on
stdout (DOT for `ar --dot`); identical runs produce byte-identical output.
Exit codes: 0 success, 2 falsification witness, 3 budget or limit hit,
4 usage error, 5 internal error (a failed self-check of the computation,
including knitting's, or any other ValueError).
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys

from . import arknit, modcat as mc, tautilt as tt, torsion as tn
from .algebra import NotAdmissibleError, SpecError, build_algebra, parse_spec, serialize_spec
from .exactlin import is_prime
from .highercat import NotTwoExactError, Subcat, is_d_cluster_tilting

EXIT_OK = 0
EXIT_FALSIFIED = 2
EXIT_BUDGET = 3
EXIT_USAGE = 4
EXIT_INTERNAL = 5


class UsageError(Exception):
    pass


def emit_report(result, fmt: str = "json") -> str:
    """Stable-order rendering; identical input gives byte-identical output."""
    if fmt == "dot":
        return result
    return json.dumps(result, indent=2, sort_keys=False) + "\n"


def _write(text: str, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _check_options(args):
    """Reject option values that no command can run with, before any work starts."""
    for name, low in (("max_indec", 1), ("max_dim", 1), ("subset_budget", 0), ("d", 1), ("oracle_bound", 1)):
        if getattr(args, name, low) < low:
            raise UsageError(f"{name.replace('_', '-')} must be >= {low}")
    if args.field is not None and not is_prime(args.field):
        raise UsageError(f"field order must be prime, got {args.field}")


def _load_algebra(args):
    try:
        with open(args.spec_path) as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read spec file: {exc}") from None
    if args.field is not None:
        # read the text as if its field line said args.field, so coefficients reduce mod it
        text = "".join(f"field {args.field}\n" if line.split("#", 1)[0].split()[:1] == ["field"]
                       else line for line in text.splitlines(keepends=True))
    return build_algebra(parse_spec(text))


def _index(A, args):
    return arknit.knit_indecomposables(A, max_count=args.max_indec, max_dim=args.max_dim)


def _resolve_generators(idx, text: str):
    """Resolve comma-separated dim-vector names against the index."""
    out = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        token, sep, suffix = token.partition("#")
        try:
            pick = int(suffix) if sep else None
            dims = tuple(int(x) for x in token.split("-"))
        except ValueError:
            raise UsageError(f"bad generator name {token + sep + suffix!r}") from None
        matches = [i for i, m in enumerate(idx.modules) if m.dim_vector() == dims]
        if not matches:
            raise UsageError(f"no indecomposable with dim vector {token}")
        if pick is None:
            if len(matches) > 1:
                raise UsageError(
                    f"ambiguous dim vector {token}: use a suffix #0..#{len(matches) - 1}")
            pick = 0
        elif not 0 <= pick < len(matches):
            raise UsageError(
                f"suffix #{pick} out of range for {token}: use #0..#{len(matches) - 1}")
        out.append(matches[pick])
    return out


def _dimvec_name(m) -> str:
    return "-".join(str(d) for d in m.dim_vector())


def cmd_info(args) -> int:
    A = _load_algebra(args)
    report = {
        "dim": A.dim,
        "vertices": len(A.vertices),
        "arrows": len(A.arrows),
        "field": A.spec.p,
        "gldim": mc.global_dimension(A),
    }
    if args.echo_spec:
        report["spec"] = serialize_spec(A.spec)
    _write(emit_report(report), args.out)
    return EXIT_OK


def cmd_indecs(args) -> int:
    A = _load_algebra(args)
    idx = _index(A, args)
    report = {
        "count": len(idx.modules),
        "dim_vectors": [list(m.dim_vector()) for m in idx.modules],
    }
    code = EXIT_OK
    if args.oracle:
        bounds = {v: args.oracle_bound for v in A.vertices}
        brute = arknit.brute_force_indecomposables(A, bounds)
        capped = [m for m in idx.modules
                  if all(m.dims[v] <= args.oracle_bound for v in A.vertices)]
        matched = len(brute) == len(capped) and all(
            idx.find_iso(m) is not None for m in brute)
        report["oracle"] = {
            "count": len(brute),
            "dim_vectors": [list(m.dim_vector()) for m in brute],
            "matches_knitting": matched,
        }
        if not matched:
            code = EXIT_FALSIFIED
    _write(emit_report(report), args.out)
    return code


def cmd_ar(args) -> int:
    A = _load_algebra(args)
    idx = _index(A, args)
    if args.dot:
        _write(emit_report(arknit.ar_quiver_dot(idx), fmt="dot"), args.out)
    else:
        _write(emit_report(idx.to_json()), args.out)
    return EXIT_OK


def cmd_ctfind(args) -> int:
    A = _load_algebra(args)
    idx = _index(A, args)
    n = len(idx.modules)
    if n > args.subset_budget:
        raise tn.TooLargeError(f"{n} indecomposables exceed the subset budget")
    found = []
    for r in range(n + 1):
        for S in itertools.combinations(range(n), r):
            # indices drawn from range(n) need no check from Subcat.of
            if is_d_cluster_tilting(Subcat(idx, frozenset(S)), args.d).ok:
                found.append([_dimvec_name(idx.modules[i]) for i in S])
    _write(emit_report({"d": args.d, "subcategories": found}), args.out)
    return EXIT_OK


def cmd_ctcheck(args) -> int:
    A = _load_algebra(args)
    idx = _index(A, args)
    members = _resolve_generators(idx, args.gens)
    rep = is_d_cluster_tilting(Subcat.of(idx, members), args.d)
    report = {
        "d": args.d,
        "members": [_dimvec_name(idx.modules[i]) for i in sorted(members)],
        "is_cluster_tilting": rep.ok,
        "violations": [list(map(str, v)) for v in rep.violations],
    }
    _write(emit_report(report), args.out)
    return EXIT_OK


def _ct_subcat(idx, args):
    members = _resolve_generators(idx, args.ct)
    C = Subcat.of(idx, members)
    rep = is_d_cluster_tilting(C, 2)
    if not rep.ok:
        raise UsageError("given generators do not span a 2-cluster-tilting subcategory")
    return C


def cmd_torsion(args) -> int:
    A = _load_algebra(args)
    idx = _index(A, args)
    C = _ct_subcat(idx, args)
    pairs = tn.enumerate_2ff_torsion_pairs(C, max_members=args.subset_budget)
    _write(emit_report({"pairs": [p.to_json(include_certs=args.certs) for p in pairs]}),
           args.out)
    return EXIT_OK


def cmd_tau2(args) -> int:
    A = _load_algebra(args)
    idx = _index(A, args)
    C = _ct_subcat(idx, args)
    # the CLI reports the quotient-only reading, so its output matches earlier versions
    tilting = tt.support_tau2_tilting_modules(A, C, max_members=args.subset_budget,
                                              definition="quotient")
    modules = [
        {
            "summands": [list(idx.modules[i].dim_vector()) for i in key],
            "rank": len(key),
            "support_complement": sorted(cert.support_complement),
        }
        for key, cert in tilting
    ]
    _write(emit_report({"modules": modules}), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    A = _load_algebra(args)
    idx = _index(A, args)
    C = _ct_subcat(idx, args)
    # the CLI reports the quotient-only reading, so its output matches earlier versions
    report = tt.verify_theorem1(A, C, max_members=args.subset_budget, definition="quotient")
    _write(emit_report(report.to_json(host=idx)), args.out)
    return EXIT_OK if report.ok else EXIT_FALSIFIED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="taukit", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("spec_path", help="algebra spec file")
    parser.add_argument("--field", type=int, default=None, help="read the spec as if its field line said this prime")
    parser.add_argument("--max-indec", dest="max_indec", type=int, default=64)
    parser.add_argument("--max-dim", dest="max_dim", type=int, default=64)
    parser.add_argument("--subset-budget", dest="subset_budget", type=int, default=20)
    parser.add_argument("--out", default=None, help="write the report to this path")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="algebra summary")
    p.add_argument("--echo-spec", dest="echo_spec", action="store_true")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("indecs", help="indecomposable census by knitting")
    p.add_argument("--oracle", action="store_true", help="cross-check by brute force")
    p.add_argument("--oracle-bound", dest="oracle_bound", type=int, default=1)
    p.set_defaults(func=cmd_indecs)

    p = sub.add_parser("ar", help="AR quiver")
    p.add_argument("--dot", action="store_true")
    p.set_defaults(func=cmd_ar)

    p = sub.add_parser("ctfind", help="test each subset for d-cluster-tilting on Ext tables")
    p.add_argument("--d", type=int, default=2)
    p.set_defaults(func=cmd_ctfind)

    p = sub.add_parser("ctcheck", help="check a candidate d-cluster-tilting subcategory")
    p.add_argument("--gens", required=True)
    p.add_argument("--d", type=int, default=2)
    p.set_defaults(func=cmd_ctcheck)

    p = sub.add_parser("torsion", help="torsion-pair commands")
    p.add_argument("action", choices=["enum"])
    p.add_argument("--ct", required=True, help="generators of the 2-CT subcategory")
    p.add_argument("--certs", action="store_true",
                   help="include finiteness certificates and canonical sequences")
    p.set_defaults(func=cmd_torsion)

    p = sub.add_parser("tau2", help="support tau2-tilting commands")
    p.add_argument("action", choices=["enum"])
    p.add_argument("--ct", required=True)
    p.set_defaults(func=cmd_tau2)

    p = sub.add_parser("verify", help="verify the main correspondence")
    p.add_argument("action", choices=["theorem1"])
    p.add_argument("--ct", required=True)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        _check_options(args)
        return args.func(args)
    except (UsageError, SpecError, NotAdmissibleError) as exc:
        sys.stdout.write(emit_report({"error": type(exc).__name__, "detail": str(exc)}))
        return EXIT_USAGE
    except (arknit.LimitExceededError, arknit.BudgetExceededError,
            tn.TooLargeError) as exc:
        sys.stdout.write(emit_report({"error": type(exc).__name__, "detail": str(exc)}))
        return EXIT_BUDGET
    except (AssertionError, mc.DecompositionError, NotTwoExactError,
            tn.SequenceFailedError, arknit.KnitIncompleteError, ValueError) as exc:
        sys.stdout.write(emit_report({"error": type(exc).__name__, "detail": str(exc)}))
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
