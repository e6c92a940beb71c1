"""Every seed-0 benchmark command, run in process, prints the bytes the benchmark recorded.

The specs are generated by `perfbench/workloads.py`, and each command's exit
code and stdout sha256 are compared with `perfbench/expected.json`, so a
change that alters any benchmark output fails here before the benchmark runs.
The same commands also bound the reference cycles a command leaves behind.
"""

import contextlib
import gc
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from taukit import cli

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = json.loads((ROOT / "perfbench" / "expected.json").read_text())


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


wl = _load_workloads()


def _seed0_commands(name, tmp_path):
    """Each seed-0 command of the workload as (argv, its expected.json record)."""
    w = wl.WORKLOADS[name]
    specs = {}
    for spec_name, (text, lab) in wl.generate(w, 0).items():
        path = tmp_path / f"{spec_name}.alg"
        path.write_text(text)
        specs[spec_name] = (str(path), lab)
    assert len(EXPECTED[name]) == len(w.commands)
    for cmd, expect in zip(w.commands, EXPECTED[name]):
        path, lab = specs.get(cmd.spec, (str(ROOT / cmd.spec), None))
        yield cmd.argv(path, lab), expect


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_seed0_benchmark_commands_print_the_recorded_bytes(name, tmp_path):
    for argv, expect in _seed0_commands(name, tmp_path):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        assert (code, digest) == (expect["exit"], expect["sha256"]), expect["argv"]


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_seed0_benchmark_commands_leave_few_reference_cycles(name, tmp_path):
    # cli.main runs each command with the cyclic collector off, which pays only while the
    # objects a command builds seldom form cycles; a run leaves about a hundred today
    was = gc.isenabled()
    gc.disable()
    try:
        for argv, expect in _seed0_commands(name, tmp_path):
            gc.collect()
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(argv)
            assert gc.collect() < 2000, expect["argv"]
    finally:
        if was:
            gc.enable()
