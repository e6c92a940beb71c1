"""Property tests: the CLI's report writer against `json.dumps(obj, indent=2)`.

`cli.emit_report` writes its JSON without the json module, and must give the
same bytes as `json.dumps(obj, indent=2) + "\\n"` on every report: nested
dicts with str keys, lists and tuples of str, int, bool and None, with json's
escaping of every string.  Anything else is a TypeError.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from taukit import cli
from tests.conftest import LAMBDA3_TEXT, e7_linear_text, nakayama_rad2_text

PROPERTY = settings(derandomize=True, database=None, max_examples=300, deadline=None)

# characters that json escapes or that sit at the edges of the plain ASCII range
SPECIAL = ['"', "\\", "/", "\n", "\r", "\t", "\b", "\f", "\x00", "\x1f", " ", "~", "\x7f", "\x80",
           "\u00e9", "\u2028", "\uffff", "\ud800", "\udfff", "\U00010000", "\U0001f600", "\U0010ffff"]
TEXT = st.text(st.one_of(st.sampled_from(SPECIAL), st.characters()), max_size=8)
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.sampled_from([0, 1, -1, 2**64, -2**70]),
                    TEXT)
REPORTS = st.recursive(
    SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(TEXT, inner, max_size=4)),
    max_leaves=20)


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


@PROPERTY
@given(REPORTS)
def test_writer_equals_json_dumps_with_indent_2(obj):
    assert cli.emit_report(obj) == _dumps(obj)


CASES = [
    {}, [], (), {"a": {}}, {"a": []}, [[]], [{}], [[], {}, [[]], {"x": {"y": []}}],
    [True, 1, False, 0, None], {"t": True, "one": 1}, [-1, -0, 10**40, -10**40, 2**63],
    ['"', "\\", '\\"', "\n", "\x00", "\x7f", "\u00e9", "\U0001f600", "\ud83d", "a\tb\rc\bd\fe", "plain text"],
    {'"': 1, "\\": 2, "\n": 3, "\x00": 4, "\x7f": 5, "\u00e9": 6, "\U0001f600": 7},
    ("tuple", ("nested", ())),
]


@pytest.mark.parametrize("obj", CASES, ids=range(len(CASES)))
def test_writer_equals_json_dumps_on_drawn_edge_cases(obj):
    assert cli.emit_report(obj) == _dumps(obj)


@pytest.mark.parametrize("obj", [1.0, {1, 2}, [0, 0.5], {"a": {"b": frozenset()}}, {1: "int key"},
                                 {None: "null key"}, b"bytes"])
def test_writer_refuses_what_a_report_does_not_hold(obj):
    with pytest.raises(TypeError):
        cli.emit_report(obj)


@pytest.mark.parametrize("spec, argv", [
    (e7_linear_text(2), ["ar"]),
    (nakayama_rad2_text(5), ["verify", "theorem1", "--ct",
                             "1-0-0-0-0,0-0-1-0-0,0-0-0-0-1,1-1-0-0-0,0-1-1-0-0,0-0-1-1-0,0-0-0-1-1"]),
    (LAMBDA3_TEXT.format(p=101), ["info", "--echo-spec"]),
    (LAMBDA3_TEXT.format(p=101), ["ctcheck", "--gens", "1-1-0#7"]),
], ids=["ar-e7f2", "verify-a5r2", "info-echo-spec", "error-record"])
def test_writer_equals_json_dumps_on_real_reports(spec, argv, tmp_path, capsys, monkeypatch):
    reports = []

    def recording(result, fmt="json"):
        reports.append(result)
        return emit(result, fmt)

    emit = cli.emit_report
    monkeypatch.setattr(cli, "emit_report", recording)
    path = tmp_path / "spec.alg"
    path.write_text(spec)
    cli.main([str(path), *argv])
    (report,) = reports
    assert capsys.readouterr().out == emit(report) == _dumps(report)
