import gc
import hashlib
import itertools
import json
import os
import subprocess
import sys
from collections import Counter

import pytest

from taukit import arknit, cli, modcat as mc
from taukit.cli import main
from tests.conftest import (KRONECKER_TEXT, LAMBDA3_TEXT, LOOP_TEXT, SS3_TEXT, auslander_linear_text,
                            nakayama_rad2_text)

CSTAR = "1-1-0,0-1-1,0-0-1,1-0-0"


@pytest.fixture()
def lambda3_file(tmp_path):
    path = tmp_path / "lambda3.alg"
    path.write_text(LAMBDA3_TEXT.format(p=101))
    return str(path)


@pytest.fixture()
def ss3_file(tmp_path):
    path = tmp_path / "ss3.alg"
    path.write_text(SS3_TEXT.format(p=101))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_info(lambda3_file, capsys):
    code, out = run_cli(capsys, lambda3_file, "info")
    assert code == 0
    data = json.loads(out)
    assert data["dim"] == 5
    assert data["vertices"] == 3
    assert data["gldim"] == 2


def test_info_echo_spec_round_trip(lambda3_file, capsys):
    code, out = run_cli(capsys, lambda3_file, "info", "--echo-spec")
    assert code == 0
    data = json.loads(out)
    from taukit.algebra import parse_spec

    assert parse_spec(data["spec"]) == parse_spec(LAMBDA3_TEXT.format(p=101))


def test_indecs_with_oracle(lambda3_file, capsys):
    code, out = run_cli(capsys, lambda3_file, "--field", "2", "indecs", "--oracle")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 5
    assert data["oracle"]["matches_knitting"] is True


SQUARE_TEXT = """\
field {p}
vertices 1 2 3 4
arrow a: 1 -> 2
arrow b: 2 -> 4
arrow c: 1 -> 3
arrow d: 3 -> 4
relation b*a + {coeff}*d*c
"""


@pytest.mark.parametrize("q", [2, 3])
def test_field_option_reads_the_spec_over_that_field(tmp_path, capsys, q):
    # -1 is 100 mod 101 but 1 mod 2: the commutativity relation must keep both terms
    over_101 = tmp_path / "square101.alg"
    over_101.write_text(SQUARE_TEXT.format(p=101, coeff=-1))
    over_q = tmp_path / f"square{q}.alg"
    over_q.write_text(SQUARE_TEXT.format(p=q, coeff=-1))
    for argv in (("indecs",), ("info", "--echo-spec")):
        assert run_cli(capsys, str(over_101), "--field", str(q), *argv) == \
            run_cli(capsys, str(over_q), *argv)
    assert json.loads(run_cli(capsys, str(over_101), "--field", "2", "indecs")[1])["count"] == 11


def test_field_option_rejects_a_coefficient_that_vanishes(tmp_path, capsys):
    path = tmp_path / "square.alg"
    path.write_text(SQUARE_TEXT.format(p=101, coeff=3))
    code, out = run_cli(capsys, str(path), "--field", "3", "info")
    assert code == 4
    assert json.loads(out) == {"error": "SpecError",
                               "detail": "line 7, col 1: zero coefficient in relation"}


def test_indecs_oracle_over_f101(tmp_path, capsys):
    path = tmp_path / "a5r2.alg"
    path.write_text(nakayama_rad2_text(5, p=101))
    code, out = run_cli(capsys, str(path), "indecs", "--oracle")
    assert code == 0
    data = json.loads(out)
    assert data["oracle"]["count"] == data["count"] == 9
    assert data["oracle"]["matches_knitting"] is True


def test_indecs_loop_not_admissible(tmp_path, capsys):
    path = tmp_path / "loop.alg"
    path.write_text(LOOP_TEXT.format(p=5))
    code, out = run_cli(capsys, str(path), "indecs")
    assert code == 4
    assert json.loads(out)["error"] == "NotAdmissibleError"


def test_indecs_kronecker_limit(tmp_path, capsys):
    path = tmp_path / "kron.alg"
    path.write_text(KRONECKER_TEXT.format(p=2))
    code, out = run_cli(capsys, str(path), "--max-indec", "10", "--max-dim", "12", "indecs")
    assert code == 3
    assert json.loads(out)["error"] == "LimitExceededError"


def test_ar_dot(lambda3_file, capsys):
    code, out = run_cli(capsys, lambda3_file, "ar", "--dot")
    assert code == 0
    assert out.startswith("digraph AR {")


def test_ctcheck(lambda3_file, capsys):
    code, out = run_cli(capsys, lambda3_file, "ctcheck", "--gens", CSTAR)
    assert code == 0
    data = json.loads(out)
    assert data["is_cluster_tilting"] is True
    code, out = run_cli(capsys, lambda3_file, "ctcheck", "--gens", "1-1-0,0-1-1")
    data = json.loads(out)
    assert data["is_cluster_tilting"] is False
    assert data["violations"]


def test_ctfind_lambda3(lambda3_file, capsys):
    code, out = run_cli(capsys, lambda3_file, "ctfind", "--d", "2")
    assert code == 0
    data = json.loads(out)
    # exactly one 2-cluster-tilting subcategory exists
    assert data["subcategories"] == [["0-0-1", "1-0-0", "0-1-1", "1-1-0"]]


# the one 2-CT subcategory of A7/rad^2: the odd simples and the length-2 modules
A7R2_CT = ["0-0-0-0-0-0-1", "0-0-0-0-1-0-0", "0-0-1-0-0-0-0", "1-0-0-0-0-0-0",
           "0-0-0-0-0-1-1", "0-0-0-0-1-1-0", "0-0-0-1-1-0-0", "0-0-1-1-0-0-0",
           "0-1-1-0-0-0-0", "1-1-0-0-0-0-0"]


@pytest.fixture()
def a7r2_file(tmp_path):
    path = tmp_path / "a7r2.alg"
    path.write_text(nakayama_rad2_text(7))
    return str(path)


def test_ctfind_a7r2(a7r2_file, capsys):
    code, out = run_cli(capsys, a7r2_file, "ctfind", "--d", "2")
    assert code == 0
    assert json.loads(out) == {"d": 2, "subcategories": [A7R2_CT]}


def test_ctfind_builds_one_resolution_per_member_and_length(a7r2_file, capsys, monkeypatch):
    built = Counter()
    resolve = mc.projective_resolution

    def counted(M, length):
        built[(id(M), length)] += 1
        return resolve(M, length)

    monkeypatch.setattr(mc, "projective_resolution", counted)
    code, _ = run_cli(capsys, a7r2_file, "ctfind", "--d", "2")
    assert code == 0
    # 13 indecomposables, each resolved once to length 2 for Ext^1
    assert len(built) == 13 and set(built.values()) == {1}


def test_ctfind_checks_every_subset_once_in_order(a7r2_file, capsys, monkeypatch):
    # the benchmark's ctfind workloads count one check per subset of the 13 members
    checked = []
    check = cli.is_d_cluster_tilting

    def counted(C, d):
        checked.append(sorted(C.members))
        return check(C, d)

    monkeypatch.setattr(cli, "is_d_cluster_tilting", counted)
    code, out = run_cli(capsys, a7r2_file, "ctfind", "--d", "2")
    assert code == 0 and json.loads(out) == {"d": 2, "subcategories": [A7R2_CT]}
    assert len(checked) == 2 ** 13
    assert checked == [list(S) for r in range(14) for S in itertools.combinations(range(13), r)]


def test_ctfind_reads_the_ext_tables_only_for_subsets_holding_the_required_members(a7r2_file, capsys,
                                                                                   monkeypatch):
    # A7/rad^2 has 13 members, 8 of them projective or injective: 2^5 subsets hold all 8
    read = []
    below = arknit.IndecIndex.ext_masks_below

    def counted(self, d):
        read.append(d)
        return below(self, d)

    monkeypatch.setattr(arknit.IndecIndex, "ext_masks_below", counted)
    code, out = run_cli(capsys, a7r2_file, "ctfind", "--d", "2")
    assert code == 0 and json.loads(out) == {"d": 2, "subcategories": [A7R2_CT]}
    # one more read builds ct_required(2) itself
    assert read == [2] * (2 ** 5 + 1)


@pytest.mark.parametrize("argv", [("ctfind", "--d", "0"),
                                  ("ctcheck", "--gens", "1-0-0", "--d", "0")])
def test_d_below_one_is_a_usage_error(lambda3_file, capsys, monkeypatch, argv):
    def refuse(self, k):
        raise AssertionError("Ext table built before the d check")

    monkeypatch.setattr(arknit.IndecIndex, "ext_masks", refuse)
    code, out = run_cli(capsys, lambda3_file, *argv)
    assert code == 4
    assert json.loads(out) == {"error": "UsageError", "detail": "d must be >= 1"}


@pytest.mark.parametrize("argv, detail", [
    (("--max-indec", "0", "indecs"), "max-indec must be >= 1"),
    (("--max-dim", "0", "ar"), "max-dim must be >= 1"),
    (("--field", "6", "info"), "field order must be prime, got 6"),
    (("--subset-budget", "-1", "ctfind"), "subset-budget must be >= 0"),
    (("indecs", "--oracle", "--oracle-bound", "0"), "oracle-bound must be >= 1"),
], ids=["max-indec", "max-dim", "field", "subset-budget", "oracle-bound"])
def test_bad_option_is_a_usage_error(lambda3_file, capsys, monkeypatch, argv, detail):
    def refuse(spec):
        raise AssertionError("algebra built before the option check")

    monkeypatch.setattr(cli, "build_algebra", refuse)
    code, out = run_cli(capsys, lambda3_file, *argv)
    assert code == 4
    assert json.loads(out) == {"error": "UsageError", "detail": detail}


@pytest.mark.parametrize("command", ["torsion", "tau2", "verify"])
def test_bad_action_is_a_usage_error(lambda3_file, capsys, command):
    code = main([lambda3_file, command, "bogus", "--ct", CSTAR])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert "invalid choice: 'bogus'" in captured.err


def test_ctfind_subset_budget_overrun_is_the_subset_scans_budget_error(lambda3_file, capsys):
    code, out = run_cli(capsys, lambda3_file, "--subset-budget", "4", "ctfind")
    assert code == 3
    assert json.loads(out) == {"error": "TooLargeError",
                               "detail": "5 indecomposables exceed the subset budget"}


A3_TEXT = """\
field 101
vertices 1 2 3
arrow a: 1 -> 2
arrow b: 2 -> 3
"""


def test_ctcheck_witnesses_are_pinned(tmp_path, capsys):
    # all six indecomposables of hereditary A3: mod A is not 2-CT, and the
    # sha256 of the report pins every witness and its order
    path = tmp_path / "a3.alg"
    path.write_text(A3_TEXT)
    code, out = run_cli(capsys, str(path), "ctcheck", "--d", "2",
                        "--gens", "1-0-0,0-1-0,0-0-1,1-1-0,0-1-1,1-1-1")
    assert code == 0
    assert json.loads(out)["is_cluster_tilting"] is False
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "583dea45468b389898e0c174862f281e3450ce98d544e2e63ff38bba8251a8d2")


def test_torsion_enum(lambda3_file, capsys):
    code, out = run_cli(capsys, lambda3_file, "torsion", "enum", "--ct", CSTAR)
    assert code == 0
    data = json.loads(out)
    assert len(data["pairs"]) == 7


def test_tau2_enum(lambda3_file, capsys):
    # the CLI lists support tau_2-tilting modules under the quotient-only
    # reading, which counts S3+S1; the library default (rigid over A) gives 7
    code, out = run_cli(capsys, lambda3_file, "tau2", "enum", "--ct", CSTAR)
    assert code == 0
    data = json.loads(out)
    assert len(data["modules"]) == 8


def test_tau2_enum_does_not_enumerate_torsion_pairs(lambda3_file, capsys, monkeypatch):
    from taukit import torsion as tn

    def refuse(*args, **kwargs):
        raise AssertionError("tau2 enum enumerated torsion pairs")

    monkeypatch.setattr(tn, "enumerate_2ff_torsion_pairs", refuse)
    code, out = run_cli(capsys, lambda3_file, "tau2", "enum", "--ct", CSTAR)
    assert code == 0
    assert len(json.loads(out)["modules"]) == 8


def test_verify_theorem1_reports_witness(lambda3_file, capsys):
    code, out = run_cli(capsys, lambda3_file, "verify", "theorem1", "--ct", CSTAR)
    # under the quotient-only reading the CLI reports, the fixture falsifies the
    # correspondence with witness S3+S1, which is not tau_2-rigid over A; the
    # library default rejects S3+S1 and finds 7 modules against 7 pairs
    assert code == 2
    data = json.loads(out)
    assert data["ok"] is False
    assert data["counts"] == {"modules": 8, "pairs": 7}


@pytest.mark.parametrize("error", ["AssertionError", "DecompositionError",
                                   "NotTwoExactError", "SequenceFailedError",
                                   "KnitIncompleteError", "ValueError"])
def test_internal_error_is_reported_as_its_own_class(lambda3_file, capsys, monkeypatch, error):
    from taukit import arknit, highercat, modcat, tautilt, torsion

    classes = {"AssertionError": AssertionError, "DecompositionError": modcat.DecompositionError,
               "NotTwoExactError": highercat.NotTwoExactError,
               "SequenceFailedError": torsion.SequenceFailedError,
               "KnitIncompleteError": arknit.KnitIncompleteError, "ValueError": ValueError}

    def fail(*args, **kwargs):
        raise classes[error]("a self-check failed")

    monkeypatch.setattr(tautilt, "verify_theorem1", fail)
    code = main([lambda3_file, "verify", "theorem1", "--ct", CSTAR])
    captured = capsys.readouterr()
    assert code == 5
    assert json.loads(captured.out) == {"error": error, "detail": "a self-check failed"}
    assert captured.err == ""


def test_verify_theorem1_semisimple(ss3_file, capsys):
    code, out = run_cli(capsys, ss3_file, "verify", "theorem1",
                        "--ct", "1-0-0,0-1-0,0-0-1")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert data["counts"] == {"modules": 8, "pairs": 8}


def test_verify_determinism(lambda3_file, capsys):
    _, out1 = run_cli(capsys, lambda3_file, "verify", "theorem1", "--ct", CSTAR)
    _, out2 = run_cli(capsys, lambda3_file, "verify", "theorem1", "--ct", CSTAR)
    assert out1 == out2


def test_bad_generator_name(lambda3_file, capsys):
    code, out = run_cli(capsys, lambda3_file, "ctcheck", "--gens", "9-9-9")
    assert code == 4
    assert "error" in json.loads(out)


@pytest.mark.parametrize("gens", ["1-1-0#3", "1-1-0#-1,0-1-1,0-0-1,1-0-0", "1-1-0#x"])
def test_generator_suffix_out_of_range(lambda3_file, capsys, gens):
    code, out = run_cli(capsys, lambda3_file, "ctcheck", "--gens", gens)
    assert code == 4
    assert json.loads(out)["error"] == "UsageError"


def test_missing_file(capsys):
    code, out = run_cli(capsys, "/nonexistent/path.alg", "info")
    assert code == 4


def test_output_file(lambda3_file, tmp_path, capsys):
    target = tmp_path / "report.json"
    code, _ = run_cli(capsys, lambda3_file, "--out", str(target), "info")
    assert code == 0
    assert json.loads(target.read_text())["dim"] == 5


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_unwritable_output_file_is_a_usage_error(lambda3_file, tmp_path, capsys, where):
    target = tmp_path / "missing" / "report.json" if where == "missing-dir" else tmp_path
    code = main([lambda3_file, "--out", str(target), "info"])
    captured = capsys.readouterr()
    assert code == 4
    report = json.loads(captured.out)
    assert report["error"] == "UsageError"
    assert report["detail"].startswith("cannot write report: ")
    assert captured.err == ""


def test_unwritable_output_file_is_refused_before_any_work(lambda3_file, tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("knitting ran before --out was checked")

    monkeypatch.setattr(arknit, "knit_indecomposables", refuse)
    code = main([lambda3_file, "--out", str(tmp_path / "missing" / "x.json"), "ar"])
    captured = capsys.readouterr()
    assert code == 4
    assert json.loads(captured.out) == {
        "error": "UsageError",
        "detail": f"cannot write report: [Errno 2] No such file or directory: "
                  f"'{tmp_path / 'missing' / 'x.json'}'"}
    assert captured.err == ""


def test_failed_command_neither_creates_nor_truncates_the_output_file(tmp_path, capsys):
    bad = tmp_path / "bad.alg"
    bad.write_text("field 101\nvertex 1\narrow a 1 2\n")
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    old.write_text("kept\n")
    for target in (new, old):
        code = main([str(bad), "--out", str(target), "info"])
        assert code == 4
        assert json.loads(capsys.readouterr().out)["error"] == "SpecError"
    assert not new.exists()
    assert old.read_text() == "kept\n"


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("argv, fail, expected", [
    (["info"], None, 0),
    (["verify", "theorem1", "--ct", CSTAR], None, 2),
    (["info", "--no-such-option"], None, 4),
    (["--field", "4", "info"], None, 4),
    (["info"], ValueError("a self-check failed"), 5),
    (["info"], KeyboardInterrupt(), KeyboardInterrupt),
], ids=["ok", "falsified", "bad-argv", "bad-option-value", "internal", "escapes"])
def test_main_runs_without_the_cyclic_collector_and_restores_it(lambda3_file, capsys, monkeypatch,
                                                                 enabled, argv, fail, expected):
    seen, check = [], cli._check_options

    def probe(args):
        seen.append(gc.isenabled())
        if fail is not None:
            raise fail
        check(args)

    monkeypatch.setattr(cli, "_check_options", probe)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if expected is KeyboardInterrupt:
            with pytest.raises(KeyboardInterrupt):
                main([lambda3_file, *argv])
        else:
            assert main([lambda3_file, *argv]) == expected
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()
    # a command runs with the collector off; an argv that does not parse runs none
    assert seen == ([] if argv[-1] == "--no-such-option" else [False])


def test_spec_file_that_is_not_utf8_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "latin1.alg"
    path.write_bytes(LAMBDA3_TEXT.format(p=101).encode() + "# caf\xe9\n".encode("latin-1"))
    code = main([str(path), "info"])
    captured = capsys.readouterr()
    assert code == 4
    report = json.loads(captured.out)
    assert report["error"] == "UsageError"
    assert report["detail"].startswith("cannot read spec file: ")
    assert captured.err == ""


def test_module_entry_point(lambda3_file):
    proc = subprocess.run(
        [sys.executable, "-m", "taukit", lambda3_file, "info"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["dim"] == 5


def test_cli_imports_no_dataclasses_inspect_or_typing():
    # every command pays for its imports; -S keeps site .pth files from preloading any
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, taukit.cli; print(sorted({'dataclasses', 'inspect', 'typing', 'argparse', 'gettext',"
         " 'json'} & set(sys.modules)))"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_ar_json_dump(lambda3_file, capsys):
    code, out = run_cli(capsys, lambda3_file, "ar")
    assert code == 0
    data = json.loads(out)
    assert len(data["modules"]) == 5
    assert data["tau"] == {"1": 0, "2": 1}
    assert all(len(a) == 3 for a in data["ar_arrows"])


def test_emit_report_empty_enumeration():
    from taukit.cli import emit_report

    assert emit_report({"pairs": []}) == '{\n  "pairs": []\n}\n'


def test_bundled_fixture_file(capsys):
    import os

    path = os.path.join(os.path.dirname(__file__), "..", "fixtures", "a3_zero_relation.alg")
    code, out = run_cli(capsys, path, "info")
    assert code == 0
    assert json.loads(out)["dim"] == 5


def test_torsion_enum_with_certificates(lambda3_file, capsys):
    code, out = run_cli(capsys, lambda3_file, "torsion", "enum", "--ct", CSTAR, "--certs")
    assert code == 0
    data = json.loads(out)
    pair = data["pairs"][0]
    assert set(pair["finiteness_certificates"]) == {"T_contra", "T_co", "F_contra", "F_co"}
    assert len(pair["canonical_sequences"]) == 4


def _rad2_ct(n):
    """The --ct names of the 2-CT subcategory of A_n/rad^2 (n odd): the length-2 modules and the odd simples."""
    unit = [[int(j == i) for j in range(n)] for i in range(n)]
    dims = [[a + b for a, b in zip(unit[i], unit[i + 1])] for i in range(n - 1)] + unit[::2]
    return ",".join("-".join(map(str, d)) for d in dims)


# the 2-CT subcategory of kA_3's Auslander algebra: add of the tau_2^-k of the projectives
KA3_CT = ("0-0-0-0-0-1,0-0-0-1-0-0,1-0-0-0-0-0,0-0-0-0-1-1,0-0-0-1-1-0,0-1-0-1-0-0,"
          "1-1-0-0-0-0,0-0-1-0-1-1,1-1-1-0-0-0,0-1-1-1-1-0")
A5R2_CERTS = "657a1c7a574fe2ac345858f7c44d06acba4e80954130a007dc032bd0e6911a4f"
A7R2_CERTS = "1d815fb78eebf2509bbfa37a61e3657075bee23cf4664459b107e2039299c892"
KA3_CERTS = "52bef2214184bd5e25273eb908e7c6fccff970c216b31fa106aedf6ff0114fc7"
CERTS_CASES = {
    "A3-fixture": (None, CSTAR, "c464dbf6546fee9f3909ed63b721fddbabaf48c3f65a25ae98e29aa7a41c8e4e"),
    "A5rad2-2": (nakayama_rad2_text(5, 2), _rad2_ct(5), A5R2_CERTS),
    "A5rad2-101": (nakayama_rad2_text(5, 101), _rad2_ct(5), A5R2_CERTS),
    "A7rad2-2": (nakayama_rad2_text(7, 2), _rad2_ct(7), A7R2_CERTS),
    "A7rad2-101": (nakayama_rad2_text(7, 101), _rad2_ct(7), A7R2_CERTS),
    "kA3-2": (auslander_linear_text(3, 2), KA3_CT, KA3_CERTS),
    "kA3-101": (auslander_linear_text(3, 101), KA3_CT, KA3_CERTS),
}


@pytest.mark.parametrize("case", list(CERTS_CASES))
def test_torsion_enum_certs_bytes(case, tmp_path, capsys):
    """The sha256 of `torsion enum --certs` stdout, pinned from the release before the canonical
    sequences were read off the finiteness certificates."""
    text, ct, digest = CERTS_CASES[case]
    path = os.path.join(os.path.dirname(__file__), "..", "fixtures", "a3_zero_relation.alg")
    if text is not None:
        path = tmp_path / "a.alg"
        path.write_text(text)
    code, out = run_cli(capsys, str(path), "torsion", "enum", "--certs", "--ct", ct)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
