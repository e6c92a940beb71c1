"""The CLI's option table parses argv as the argparse parser it replaced did.

`build_parser` below is that parser, kept as the reference: an argv it
accepts must give the same attributes from `cli.parse_args`, and an argv it
rejects must make `cli.main` exit 4 with nothing on stdout.
"""

import argparse
import re

import pytest

from taukit import cli

A3 = "fixtures/a3_zero_relation.alg"
CT = "1-1-0,0-1-1,0-0-1,1-0-0"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="taukit", description=cli.__doc__,
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
    p.set_defaults(func=cli.cmd_info)

    p = sub.add_parser("indecs", help="indecomposable census by knitting")
    p.add_argument("--oracle", action="store_true", help="cross-check by brute force")
    p.add_argument("--oracle-bound", dest="oracle_bound", type=int, default=1)
    p.set_defaults(func=cli.cmd_indecs)

    p = sub.add_parser("ar", help="AR quiver")
    p.add_argument("--dot", action="store_true")
    p.set_defaults(func=cli.cmd_ar)

    p = sub.add_parser("ctfind", help="test each subset for d-cluster-tilting on Ext tables")
    p.add_argument("--d", type=int, default=2)
    p.set_defaults(func=cli.cmd_ctfind)

    p = sub.add_parser("ctcheck", help="check a candidate d-cluster-tilting subcategory")
    p.add_argument("--gens", required=True)
    p.add_argument("--d", type=int, default=2)
    p.set_defaults(func=cli.cmd_ctcheck)

    p = sub.add_parser("torsion", help="torsion-pair commands")
    p.add_argument("action", choices=["enum"])
    p.add_argument("--ct", required=True, help="generators of the 2-CT subcategory")
    p.add_argument("--certs", action="store_true",
                   help="include finiteness certificates and canonical sequences")
    p.set_defaults(func=cli.cmd_torsion)

    p = sub.add_parser("tau2", help="support tau2-tilting commands")
    p.add_argument("action", choices=["enum"])
    p.add_argument("--ct", required=True)
    p.set_defaults(func=cli.cmd_tau2)

    p = sub.add_parser("verify", help="verify the main correspondence")
    p.add_argument("action", choices=["theorem1"])
    p.add_argument("--ct", required=True)
    p.set_defaults(func=cli.cmd_verify)
    return parser


README_COMMANDS = [
    [A3, "info"],
    [A3, "indecs", "--oracle"],
    [A3, "ar", "--dot"],
    [A3, "ctfind", "--d", "2"],
    [A3, "ctcheck", "--gens", CT],
    [A3, "torsion", "enum", "--ct", CT],
    [A3, "tau2", "enum", "--ct", CT],
    [A3, "verify", "theorem1", "--ct", CT],
]

# (global option, value) and (command, option, value, the rest of that command's argv)
GLOBAL_VALUES = [("--field", "2"), ("--max-indec", "10"), ("--max-dim", "12"),
                 ("--subset-budget", "4"), ("--out", "report.json")]
COMMAND_VALUES = [("indecs", "--oracle-bound", "2", []), ("ctfind", "--d", "3", []),
                  ("ctcheck", "--gens", CT, []), ("ctcheck", "--d", "1", ["--gens", CT]),
                  ("torsion", "--ct", CT, ["enum"]), ("tau2", "--ct", CT, ["enum"]),
                  ("verify", "--ct", CT, ["theorem1"])]

ACCEPTED = [
    *README_COMMANDS,
    [A3, "info", "--echo-spec"],
    [A3, "torsion", "enum", "--ct", CT, "--certs"],
    [A3, "torsion", "--certs", "--ct", CT, "enum"],
    *([A3, opt, value, "info"] for opt, value in GLOBAL_VALUES),
    *([A3, f"{opt}={value}", "info"] for opt, value in GLOBAL_VALUES),
    *([A3, cmd, opt, value, *rest] for cmd, opt, value, rest in COMMAND_VALUES),
    *([A3, cmd, f"{opt}={value}", *rest] for cmd, opt, value, rest in COMMAND_VALUES),
    ["--field", "2", A3, "indecs"],
    ["--field", "2", A3, "--max-dim", "9", "indecs"],
    [A3, "--subset", "3", "ctfind"],
    [A3, "--max-i", "9", "--o=x", "indecs", "--oracle-b", "2", "--oracle"],
    [A3, "torsion", "enum", "--ct", CT, "--cer"],
    [A3, "--field", "2", "--field", "3", "ctfind", "--d", "1", "--d=2"],
    [A3, "ctcheck", "--gens", "1-0-0", "--gens", CT],
    [A3, "--subset-budget", "-1", "ctfind"],
    [A3, "ctfind", "--d", "-1"],
    [A3, "ctcheck", "--gens=", "--d", "2"],
    [A3, "ctcheck", "--gens", "1-1-0 #2"],
    ["", "info"],
    ["-", "info"],
]

REJECTED = [
    [],
    [A3],
    [A3, "bogus"],
    [A3, "Info"],
    [A3, "torsion", "bogus", "--ct", CT],
    [A3, "verify", "enum", "--ct", CT],
    [A3, "--bogus", "info"],
    [A3, "info", "--dot"],
    [A3, "-x", "info"],
    [A3, "--max", "3", "info"],
    [A3, "ctfind", "--max", "3"],
    [A3, "torsion", "enum", "--c", CT],
    [A3, "indecs", "--or"],
    [A3, "--field"],
    [A3, "--field", "info"],
    [A3, "ctfind", "--d"],
    [A3, "ctcheck", "--gens", "--d", "2"],
    [A3, "ctcheck", "--gens", "-1-0"],
    [A3, "--field", "x", "info"],
    [A3, "--field=2.0", "info"],
    [A3, "ctfind", "--d", "two"],
    [A3, "indecs", "--oracle-bound="],
    [A3, "info", "--echo-spec=1"],
    [A3, "ctcheck"],
    [A3, "ctcheck", "--d", "2"],
    [A3, "torsion", "enum"],
    [A3, "tau2", "--ct", CT],
    [A3, "verify", "--ct", CT],
    [A3, "info", "--field", "2"],
    [A3, "ctfind", "--out", "x"],
    [A3, "info", "extra"],
    [A3, "verify", "theorem1", "theorem1", "--ct", CT],
    [A3, "extra", "info"],
    ["info"],
    ["--field", "2"],
]


def _reference(argv):
    """The namespace argparse gives for argv, or None when it rejects argv."""
    try:
        return vars(build_parser().parse_args(argv))
    except SystemExit as exc:
        assert exc.code == 2
        return None


@pytest.mark.parametrize("argv", ACCEPTED, ids=" ".join)
def test_accepted_argv_gives_the_reference_attributes(argv, capsys):
    expect = _reference(argv)
    assert expect is not None
    args = vars(cli.parse_args(argv))
    assert args == expect
    assert args["func"] is getattr(cli, "cmd_" + args["command"])


@pytest.mark.parametrize("argv", REJECTED, ids=" ".join)
def test_rejected_argv_exits_4_with_nothing_on_stdout(argv, capsys):
    assert _reference(argv) is None
    capsys.readouterr()
    assert cli.main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("taukit: error: ")


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["--he"], [A3, "-h"], [A3, "torsion", "--help"],
                                  [A3, "info", "extra", "--help"]], ids=" ".join)
def test_help_prints_the_module_docstring(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 0
    capsys.readouterr()
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == cli.__doc__
    assert captured.err == ""


def test_main_dispatches_to_the_module_global_at_call_time(capsys, monkeypatch):
    # span wrappers replace cmd_<command> on the module after it is imported
    seen = []
    monkeypatch.setattr(cli, "cmd_info", lambda args: seen.append(args.spec_path) or 0)
    assert cli.main([A3, "info"]) == 0
    assert seen == [A3]


def test_usage_names_every_option():
    usage = cli.__doc__
    for command, (actions, options) in cli.OPTIONS.items():
        for opt in options:
            assert re.search(rf"{re.escape(opt)}\b", usage), opt
        if command:
            assert re.search(rf"SPEC_FILE {command} {' '.join(actions)}".rstrip() + r"\b", usage), command
    assert "taukit SPEC_FILE torsion enum --ct LIST [--certs]" in usage
