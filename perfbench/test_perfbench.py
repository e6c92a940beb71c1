"""Quick checks of the benchmark itself on tiny instances (A3/rad^2, A3 hereditary).

    python3 -m pytest perfbench -q
"""

import json
import shutil
import statistics
import subprocess
import sys

import pytest

import run
import tracer
import workloads as wl

TINY = wl.Workload(
    "tiny",
    "A3/rad^2 and hereditary A3",
    {"a3r2": ("nakayama_rad2", 3, 101), "a3": ("linear", 3, 101)},
    (
        wl.Command("a3r2", ("verify", "theorem1"), "verify",
                   ((1, 1, 0), (0, 1, 1), (0, 0, 1), (1, 0, 0))),
        wl.Command("a3r2", ("ctfind", "--d", "2"), "ctfind"),
        wl.Command("a3", ("ar",), "ar"),
    ),
)


@pytest.fixture(scope="module")
def expected():
    return run.record(TINY)


def test_generator_is_seeded_and_isomorphic():
    q = wl.nakayama_rad2(3, 101)
    assert wl.render(q, wl.labelling(q, 0)) == (
        "field 101\nvertices 1 2 3\narrow a1: 1 -> 2\narrow a2: 2 -> 3\nrelation a2*a1\n")
    assert wl.generate(TINY, 5) == wl.generate(TINY, 5)
    q = wl.e7_linear(2)
    lab = wl.labelling(q, 11)
    text = wl.render(q, lab)
    assert text != wl.render(q, wl.labelling(q, 0))
    position = {name: pos for pos, name in enumerate(lab.names)}
    declared = text.splitlines()[1].split()[1:]
    assert sorted(position[v] for v in declared) == list(range(7))
    arrows = {(position[s], position[t]) for line in text.splitlines()[2:]
              for s, _, t in [line.split(": ")[1].split()]}
    assert arrows == {(s, t) for _, s, t in q.arrows}
    assert lab.canonical_dims(lab.declared_dims([1, 2, 3, 4, 5, 6, 7])) == [1, 2, 3, 4, 5, 6, 7]


def test_recorded_verdicts(expected):
    # The A3 falsification of criterion 3 is the documented verdict: exit 2.
    assert [e["exit"] for e in expected] == [2, 0, 0]


@pytest.mark.parametrize("seed", [0, 3])
def test_gate_passes_isomorphic_inputs(expected, seed):
    result = run.run(TINY, seed, 0.1, False, expected)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == run.SETUP_PROBES + len(TINY.commands)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    # One repetition: its time is scaled by the calibration blocks around it.
    info = result["info"]
    cals = info["calibration_samples"]
    assert result["metrics"]["wall_s"]["value"] == pytest.approx(
        info["wall_samples"][0] * run.CAL_REF_S / statistics.mean(cals[0] + cals[1]))


@pytest.mark.parametrize("seed", [0, 3])
def test_wrong_output_is_counted_as_failed(expected, seed):
    wrong = [dict(e) for e in expected]
    wrong[0]["sha256"] = "0" * 64
    wrong[0]["summary"] = dict(wrong[0]["summary"], counts={"modules": 7, "pairs": 7})
    result = run.run(TINY, seed, 0.1, False, wrong)
    assert not result["correct"]
    assert result["failed"] == 1
    assert result["metrics"]["wall_s"]["value"] is None      # no timing from a failed run
    assert result["metrics"]["setup_s"]["value"] > 0


def test_wrong_exit_code_is_counted_as_failed(expected):
    wrong = [dict(e) for e in expected]
    wrong[0]["exit"] = 0
    assert run.run(TINY, 0, 0.1, False, wrong)["failed"] == 1


def test_traced_run_reports_every_layer(expected):
    result = run.run(TINY, 3, 0.1, True, expected)
    assert result["correct"], "traced stdout must match the untraced gate"
    metrics = result["metrics"]
    assert list(metrics) == tracer.PER_LAYER
    assert all(isinstance(m["value"], (int, float)) for m in metrics.values())
    assert metrics["tautilt.is_support_tau2_tilting.calls"]["value"] > 0
    assert metrics["exactlin.rref.calls"]["value"] > 0
    assert metrics["exactlin.rref.cells"]["value"] >= metrics["exactlin.rref.calls"]["value"]
    assert metrics["cli.ctfind.subsets"]["value"] == 2 ** 5
    assert metrics["cli.info.s"]["value"] == 0
    assert 0 < metrics["arknit.hom_cache.hit_rate"]["value"] < 1
    assert 0 < metrics["modcat.decompose.self_s"]["value"] <= metrics["modcat.decompose.s"]["value"]


def test_benchmark_json_matches_the_code():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                          "per_layer"}
    assert bench["workloads"] == [{"name": n, "why": w.why} for n, w in wl.WORKLOADS.items()]
    assert [m["name"] for m in bench["end_to_end"]] == ["wall_s", "cpu_s", "setup_s",
                                                        "peak_rss_mb"]
    assert bench["per_layer"] == [
        {"name": m, "unit": tracer.unit_of(m)[0], "better": tracer.unit_of(m)[1]}
        for m in tracer.PER_LAYER]
    assert json.loads(run.EXPECTED.read_text()).keys() == wl.WORKLOADS.keys()


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify-a5r2",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
