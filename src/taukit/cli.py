"""Command-line interface.

Usage:
    taukit [GLOBAL OPTIONS] SPEC_FILE [GLOBAL OPTIONS] COMMAND ...
    taukit SPEC_FILE info [--echo-spec]
    taukit SPEC_FILE indecs [--oracle] [--oracle-bound N]
    taukit SPEC_FILE ar [--dot]
    taukit SPEC_FILE ctfind [--d D]
    taukit SPEC_FILE ctcheck --gens LIST [--d D]
    taukit SPEC_FILE torsion enum --ct LIST [--certs]
    taukit SPEC_FILE tau2 enum --ct LIST
    taukit SPEC_FILE verify theorem1 --ct LIST
    taukit -h | --help

Global options, given before the command word:
    --field Q            read the spec as if its field line said the prime Q
    --max-indec N        knit at most N indecomposables (default 64)
    --max-dim N          knit no module of dimension above N (default 64)
    --subset-budget N    refuse a subset scan over more than N members (default 20)
    --out PATH           write the report to PATH instead of stdout

An option takes its value as `--opt V` or `--opt=V`, a unique prefix names
it, the last of a repeated option counts, and `--` ends the options.
Generators are named by dim vector, entries joined by dashes (e.g. 1-1-0);
an ambiguous name takes an index suffix like 1-1-0#2.  Reports are JSON on
stdout (DOT for `ar --dot`); identical runs produce byte-identical output.
Exit codes: 0 success, 2 falsification witness, 3 budget or limit hit,
4 usage error, 5 internal error (a failed self-check of the computation,
including knitting's, or any other ValueError).  An argv that this usage
does not allow is reported on stderr; every other error is a JSON record
on stdout.
"""

from __future__ import annotations

import errno
import gc
import itertools
import os
import re
import sys
import types

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
    """Stable-order rendering; identical input gives byte-identical output.

    The JSON is byte for byte `json.dumps(result, indent=2) + "\\n"`, written
    without the json module: a report holds only dicts with str keys, lists
    and tuples, str, int, bool and None, and anything else is a TypeError.
    """
    if fmt == "dot":
        return result
    out = []
    _render(result, out, "\n")
    out.append("\n")
    return "".join(out)


# json.dumps's escapes: the short ones, else \uXXXX, astral characters as a surrogate pair
_ESCAPES = {'"': '\\"', "\\": "\\\\", "\b": "\\b", "\f": "\\f", "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def _escape(c: str) -> str:
    if c in _ESCAPES:
        return _ESCAPES[c]
    if " " <= c <= "~":
        return c
    n = ord(c)
    if n > 0xFFFF:
        n -= 0x10000
        return f"\\u{0xD800 | n >> 10:04x}\\u{0xDC00 | n & 0x3FF:04x}"
    return f"\\u{n:04x}"


def _string(s: str) -> str:
    if s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
        return '"' + s + '"'
    return '"' + "".join(map(_escape, s)) + '"'


_CONSTANTS = {None: "null", True: "true", False: "false"}


def _render(obj, out: list, nl: str):
    """Append obj as json.dumps(indent=2) writes it at the depth whose line break is nl."""
    if obj is None or obj is True or obj is False:
        out.append(_CONSTANTS[obj])
    elif isinstance(obj, str):
        out.append(_string(obj))
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for item in obj:
            out.append(sep)
            _render(item, out, inner)
            sep = "," + inner
        out.append(nl + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for k, v in obj.items():
            if not isinstance(k, str):
                raise TypeError(f"keys must be str, not {type(k).__name__}")
            out.append(sep)
            out.append(_string(k))
            out.append(": ")
            _render(v, out, inner)
            sep = "," + inner
        out.append(nl + "}")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _check_out(path: str):
    """Reject an --out path that cannot be written, without creating or truncating it.

    An existing path must be writable and not a directory; a new one needs a
    writable directory to go in.
    """
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif os.path.exists(path):
        code = 0 if os.access(path, os.W_OK) else errno.EACCES
    elif not os.path.isdir(parent):
        code = errno.ENOENT
    else:
        code = 0 if os.access(parent, os.W_OK | os.X_OK) else errno.EACCES
    if code:
        raise UsageError(f"cannot write report: {OSError(code, os.strerror(code), path)}")


def _write(text: str, out_path):
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write report: {exc}") from None
    else:
        sys.stdout.write(text)


def _check_options(args):
    """Reject option values that no command can run with, before any work starts."""
    for name, low in (("max_indec", 1), ("max_dim", 1), ("subset_budget", 0), ("d", 1), ("oracle_bound", 1)):
        if getattr(args, name, low) < low:
            raise UsageError(f"{name.replace('_', '-')} must be >= {low}")
    if args.field is not None and not is_prime(args.field):
        raise UsageError(f"field order must be prime, got {args.field}")
    if args.out:
        _check_out(args.out)


def _load_algebra(args):
    try:
        with open(args.spec_path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
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
    found, make, d = [], tuple.__new__, args.d
    for r in range(n + 1):
        # indices drawn from range(n) need no check from Subcat.of, nor the namedtuple's Python-level __new__
        for members in map(frozenset, itertools.combinations(range(n), r)):
            C = make(Subcat, (idx, members))
            if is_d_cluster_tilting(C, d).ok:
                found.append([_dimvec_name(idx.modules[i]) for i in sorted(C.members)])
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


# The command line.  Each command word maps to the actions it takes (none for
# most) and to its own options; None maps to the global options, which go
# before the command word.  An option maps to its type and default, and sets
# the attribute named by its word with "-" read as "_"; type bool is a flag,
# and a REQUIRED default must be given.
REQUIRED = object()
OPTIONS = {
    None: ((), {"--field": (int, None), "--max-indec": (int, 64), "--max-dim": (int, 64),
                "--subset-budget": (int, 20), "--out": (str, None)}),
    "info": ((), {"--echo-spec": (bool, False)}),
    "indecs": ((), {"--oracle": (bool, False), "--oracle-bound": (int, 1)}),
    "ar": ((), {"--dot": (bool, False)}),
    "ctfind": ((), {"--d": (int, 2)}),
    "ctcheck": ((), {"--gens": (str, REQUIRED), "--d": (int, 2)}),
    "torsion": (("enum",), {"--ct": (str, REQUIRED), "--certs": (bool, False)}),
    "tau2": (("enum",), {"--ct": (str, REQUIRED)}),
    "verify": (("theorem1",), {"--ct": (str, REQUIRED)}),
}


def _option(token: str, options: dict):
    """The option that token names, exactly or by a unique prefix, and its `=` value or None.

    The option is a key of options or "--help", "" for an unknown one, and
    None for a token that reads as a word: one that does not start with "-",
    "-" itself, a negative number, or one holding a space.
    """
    if not token.startswith("-") or token == "-":
        return None, None
    name, eq, value = token.partition("=")
    value = value if eq else None
    if name == "-h":
        return "--help", value
    if name in options:
        return name, value
    hits = [opt for opt in (*options, "--help") if opt.startswith(name)] if name.startswith("--") else []
    if len(hits) > 1:
        raise UsageError(f"ambiguous option: {name} could match {', '.join(hits)}")
    if hits:
        return hits[0], value
    if re.match(r"^-\d+$|^-\d*\.\d+$", token) or " " in token:
        return None, None
    return "", None


def _choose(what: str, word: str, choices):
    if word not in choices:
        raise UsageError(f"argument {what}: invalid choice: {word!r} "
                         f"(choose from {', '.join(map(repr, choices))})")


def _dest(opt: str) -> str:
    return opt[2:].replace("-", "_")


def _defaults(options: dict) -> dict:
    return {_dest(opt): default for opt, (_, default) in options.items()}


def parse_args(argv):
    """The arguments that argv gives, as attributes, or None when it asks for help.

    Raises UsageError for an argv that the usage block does not allow.
    """
    actions, options = OPTIONS[None]
    values = _defaults(options)
    words, extras = [], []
    literal = False  # true after "--": every later token is a word
    tokens = iter(argv)
    for token in tokens:
        if token == "--" and not literal:
            literal = True
            continue
        opt, value = (None, None) if literal else _option(token, options)
        if opt is None:  # the spec path, the command word, its action, or an extra word
            if len(words) == 1:
                _choose("command", token, [c for c in OPTIONS if c])
                actions, options = OPTIONS[token]
                values.update(_defaults(options))
            elif len(words) == 2 and actions:
                _choose("action", token, actions)
            elif words:
                extras.append(token)
                continue
            words.append(token)
        elif not opt:
            extras.append(token)
        else:
            kind = bool if opt == "--help" else options[opt][0]
            if kind is bool:
                if value is not None:
                    raise UsageError(f"argument {opt}: ignored explicit argument {value!r}")
                if opt == "--help":
                    return None
                value = True
            elif value is None:
                value = next(tokens, None)
                if value is None or _option(value, options)[0] is not None:
                    raise UsageError(f"argument {opt}: expected one argument")
            if kind is int:
                try:
                    value = int(value)
                except ValueError:
                    raise UsageError(f"argument {opt}: invalid int value: {value!r}") from None
            values[_dest(opt)] = value
    names = ("spec_path", "command", "action")[:2 + bool(actions)]
    missing = [*names[len(words):], *(opt for opt in options if values[_dest(opt)] is REQUIRED)]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise UsageError(f"unrecognized arguments: {' '.join(extras)}")
    values.update(zip(names, words))
    values["func"] = globals()["cmd_" + values["command"]]
    return types.SimpleNamespace(**values)


def main(argv=None) -> int:
    """Run the command that argv names and return its exit code.

    The cyclic garbage collector is off while the command runs, and the
    caller's setting comes back on return: a command builds many small tuples
    and few reference cycles, so reference counting frees what it drops and
    the collector's passes find almost nothing.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if enabled:
            gc.enable()


def _run(argv) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        sys.stderr.write(f"taukit: error: {exc} (see taukit --help)\n")
        return EXIT_USAGE
    if args is None:
        sys.stdout.write(__doc__ or "")
        return EXIT_OK
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
