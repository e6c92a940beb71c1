"""taukit benchmark: time the real CLI on seeded workloads and gate its output.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record      # rewrite expected.json from seed 0
    python3 perfbench/run.py --describe    # workloads, inputs and layer map as JSON

It measures the checkout it sits in and imports nothing from taukit
itself.  Every command runs as `python -m taukit SPEC ...` in a fresh
interpreter, one child at a time, so no warm cache (the opposite-algebra and
projective caches in modcat) carries from one command into the next.  A run:

1. writes the workload's specs, generated from the seed (workloads.py);
2. spawns one untimed interpreter that compiles the package;
3. repeats the workload's commands until the next repetition would end past
   --seconds (at least once).  Before each repetition, and then until there
   are SETUP_PROBES of them, a fresh interpreter imports taukit and parses
   the specs.  CAL_BLOCKS calibration blocks (`calibrate`, fixed pure-Python
   work that does not touch taukit) run before the first repetition and
   after each one;
4. reports, as medians over repetitions, wall_s (summed spawn-to-exit time
   of the commands), cpu_s (their child user+system CPU, from os.wait4) and
   setup_s (the probe's spawn-to-exit time), each scaled to the reference
   host speed: multiplied by CAL_REF_S / the mean time of the calibration
   blocks just before and just after its repetition.  A shared host runs
   the same code up to 60% slower for seconds to minutes at a time, in CPU
   time as much as in wall time; the calibration slows with it, so the
   scaled times track the program and not the host.  peak_rss_mb is the
   largest child peak resident set.  The unscaled samples are printed with
   the provenance;
5. with --trace 1, runs each command once more in tracer.py and reports the
   per-layer metrics instead, with trace.overhead_s = traced wall - median
   unscaled wall.

Every child is gated: exit code, a traceback on stderr, a timeout, and its
stdout, by sha256 at seed 0 and on fixture inputs, else by the
label-invariant summary recorded in expected.json.  A failed child counts in
`failed` and its repetition is left out of the medians: a metric with no
passing sample is null, never a number.
The last stdout line is the result object; the line before it records the
provenance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import tracer
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
SETUP_PROBES = 7
# Seconds one calibration block takes on a quiet host (Intel Xeon vCPU,
# CPython 3): the speed that wall_s, cpu_s and setup_s are scaled to.
CAL_REF_S = 0.065
CAL_BLOCKS = 3
RUN_LIMIT_S = 170.0
PROBE = ("import sys, taukit\n"
         "for path in sys.argv[1:]:\n"
         "    with open(path) as fh:\n"
         "        taukit.parse_algebra(fh.read())\n")


class RunError(Exception):
    """The checkout cannot run the benchmark."""


@dataclass
class Child:
    code: int | None     # None after a timeout
    wall: float
    cpu: float
    rss_kb: int
    stdout: bytes
    stderr: bytes


class Runner:
    """Spawns children one at a time inside a work directory, under one deadline."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        # Children may cache bytecode, as an installed package does: the
        # untimed first spawn of a run compiles the package once.
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        self.env["PYTHONHASHSEED"] = "0"
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))

    def spawn(self, argv) -> Child:
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        timed_out = []
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)

            def on_alarm(signum, frame):
                timed_out.append(True)
                proc.kill()

            previous = signal.signal(signal.SIGALRM, on_alarm)
            signal.setitimer(signal.ITIMER_REAL, max(0.01, self.deadline - time.monotonic()))
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:       # interrupted: leave no child behind
                proc.kill()
                proc.wait()
                raise
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(None if timed_out else proc.returncode, wall,
                     usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                     out_path.read_bytes(), err_path.read_bytes())


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def gate(child: Child, expect: dict, kind: str, lab, by_digest: bool) -> str | None:
    """Why the child failed, or None when its output is the recorded one."""
    if child.code is None:
        return "timeout"
    if b"Traceback (most recent call last)" in child.stderr:
        return "traceback"
    if child.code != expect["exit"]:
        return f"exit code {child.code}, expected {expect['exit']}"
    if by_digest:
        if sha256(child.stdout) != expect["sha256"]:
            return "stdout differs from the recorded digest"
        return None
    try:
        summary = wl.summarize(kind, child.stdout, lab)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
    if json.loads(json.dumps(summary)) != expect["summary"]:
        return "label-invariant summary differs from the recorded one"
    return None


class Bench:
    """One workload at one seed: its inputs, its commands and their gate."""

    def __init__(self, workload: wl.Workload, seed: int, runner: Runner, expected: list):
        self.w, self.seed, self.runner, self.expected = workload, seed, runner, expected
        self.attempted = self.failed = 0
        self.specs = {}
        for name, (text, lab) in wl.generate(workload, seed).items():
            path = runner.work / f"{name}.alg"
            path.write_text(text)
            self.specs[name] = (str(path.relative_to(ROOT)), lab)

    def resolve(self, cmd: wl.Command):
        if cmd.spec in self.specs:
            return self.specs[cmd.spec]
        if not (ROOT / cmd.spec).is_file():
            raise RunError(f"missing input {cmd.spec}")
        return cmd.spec, None

    def spec_paths(self) -> list:
        return sorted({self.resolve(c)[0] for c in self.w.commands})

    def count(self, ok: bool, what: str, reason: str | None = None) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAIL {self.w.name} seed {self.seed}: {what}: {reason}", file=sys.stderr)
        return ok

    def probe(self) -> Child | None:
        child = self.runner.spawn([sys.executable, "-c", PROBE, *self.spec_paths()])
        ok = child.code == 0 and not child.stderr
        reason = "timeout" if child.code is None else child.stderr.decode(errors="replace")[-400:]
        return child if self.count(ok, "set-up probe", reason) else None

    def command(self, k: int, prefix: list) -> Child | None:
        cmd = self.w.commands[k]
        path, lab = self.resolve(cmd)
        argv = cmd.argv(path, lab)
        child = self.runner.spawn([*prefix, *argv])
        reason = gate(child, self.expected[k], cmd.kind, lab, lab is None or self.seed == 0)
        return child if self.count(reason is None, " ".join(argv), reason) else None

    def iteration(self, prefix: list):
        """All commands once; the children, or None if any failed."""
        children = [self.command(k, prefix) for k in range(len(self.w.commands))]
        return None if None in children else children


def calibrate(n: int = 40, rounds: int = 12, p: int = 101) -> float:
    """Seconds taken by a fixed interpreter-bound workload that never touches taukit.

    Gauss-Jordan elimination over F_p of `rounds` pseudo-random n x n
    matrices, with list, tuple and dict traffic like the program's own.
    """
    t0 = time.perf_counter()
    for r in range(rounds):
        x, rows = r + 1, []
        for _ in range(n):
            row = []
            for _ in range(n):
                x = (x * 1103515245 + 12345) % 2147483648
                row.append(x % p)
            rows.append(row)
        rank = 0
        for col in range(n):
            pivot = next((i for i in range(rank, n) if rows[i][col]), None)
            if pivot is None:
                continue
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            inv = pow(rows[rank][col], p - 2, p)
            rows[rank] = [v * inv % p for v in rows[rank]]
            for i in range(n):
                f = rows[i][col]
                if i != rank and f:
                    rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
            rank += 1
        counts = {}
        for row in rows:
            counts[tuple(row)] = counts.get(tuple(row), 0) + 1
    return time.perf_counter() - t0


def median_or_none(values):
    return statistics.median(values) if values else None


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(bench: Bench, seconds: float) -> tuple:
    """The end-to-end metrics of the untraced repetitions, and run details."""
    cli = [sys.executable, "-m", "taukit"]
    bench.runner.spawn([sys.executable, "-c", PROBE])      # compiles the package
    setups, passing, runs = [], [], 0
    cals = [[calibrate() for _ in range(CAL_BLOCKS)]]

    def probe():
        child = bench.probe()
        return child.wall if child else None

    def scale() -> float:
        """Host speed factor from the calibration blocks around the last step."""
        return CAL_REF_S / statistics.mean(cals[-2] + cals[-1])

    # One set-up probe before each repetition, topped up afterwards, so that
    # setup_s samples the same stretch of machine time as wall_s.
    start = time.perf_counter()
    while True:
        setup = probe()
        children = bench.iteration(cli)
        cals.append([calibrate() for _ in range(CAL_BLOCKS)])
        runs += 1
        if setup is not None:
            setups.append((setup, scale()))
        if children:
            passing.append((children, scale()))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / runs > seconds:
            break
    for _ in range(SETUP_PROBES - runs):
        setup = probe()
        cals.append([calibrate() for _ in range(CAL_BLOCKS)])
        if setup is not None:
            setups.append((setup, scale()))
    walls = [(sum(c.wall for c in it), k) for it, k in passing]
    cpus = [(sum(c.cpu for c in it), k) for it, k in passing]
    rss = [c.rss_kb for it, _ in passing for c in it]

    def scaled(samples):
        return median_or_none([t * k for t, k in samples])

    metrics = {
        "wall_s": metric(scaled(walls), "s"),
        "cpu_s": metric(scaled(cpus), "s"),
        "setup_s": metric(scaled(setups), "s"),
        "peak_rss_mb": metric(max(rss) / 1024 if rss else None, "MB"),
    }
    info = {"repetitions": runs, "passing_repetitions": len(passing),
            "unscaled_wall_s": median_or_none([t for t, _ in walls]),
            "wall_samples": [t for t, _ in walls], "setup_samples": [t for t, _ in setups],
            "calibration_samples": cals}
    return metrics, info


def trace_layers(bench: Bench, wall_s) -> dict:
    """Per-layer metrics from one traced repetition, each command in its own child."""
    out = bench.runner.work / "trace.json"
    reports, traced = [], []
    for k in range(len(bench.w.commands)):
        child = bench.command(k, [sys.executable, str(HERE / "tracer.py"), str(out)])
        if child:
            traced.append(child.wall)
            reports.append(json.loads(out.read_text()))
    if len(reports) < len(bench.w.commands) or wall_s is None:
        return {m: metric(None, tracer.unit_of(m)[0]) for m in tracer.PER_LAYER}
    return tracer.layer_metrics(tracer.merge(reports), sum(traced) - wall_s)


def provenance() -> dict:
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
        else:
            commit = ref
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "pythonhashseed": "0",
    }


def load_expected() -> dict:
    if not EXPECTED.is_file():
        raise RunError("perfbench/expected.json is missing; run with --record")
    return json.loads(EXPECTED.read_text())


class WorkDir:
    """A private scratch directory inside the checkout, removed on exit."""

    def __enter__(self) -> Path:
        self.path = ROOT / ".perfbench_work" / str(os.getpid())
        self.path.mkdir(parents=True, exist_ok=True)
        return self.path

    def __exit__(self, *exc):
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.path.parent.rmdir()
        except OSError:
            pass


def run(w: wl.Workload, seed: int, seconds: float, trace: bool, expected: list) -> dict:
    """One benchmark run; the result object the benchmark prints last, plus "info"."""
    with WorkDir() as work:
        bench = Bench(w, seed, Runner(work, time.monotonic() + RUN_LIMIT_S), expected)
        metrics, info = measure(bench, seconds)
        if trace:
            metrics = trace_layers(bench, info["unscaled_wall_s"])
    return {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
        "info": info,
    }


def record(w: wl.Workload) -> list:
    """Seed-0 exit code, digest and summary of every command of a workload."""
    out = []
    with WorkDir() as work:
        runner = Runner(work, time.monotonic() + 3600)
        bench = Bench(w, 0, runner, [])
        for cmd in w.commands:
            path, lab = bench.resolve(cmd)
            child = runner.spawn([sys.executable, "-m", "taukit", *cmd.argv(path, lab)])
            if child.code is None or child.stderr:
                raise RunError(f"{w.name}: {cmd.args} failed: {child.stderr[-400:]!r}")
            out.append({
                "argv": cmd.argv(Path(path).name if lab else path, lab),
                "exit": child.code,
                "sha256": sha256(child.stdout),
                "bytes": len(child.stdout),
                "summary": wl.summarize(cmd.kind, child.stdout, lab),
            })
    return out


def describe() -> dict:
    return {
        "workloads": {
            name: {
                "why": w.why,
                "inputs": {k: dict(zip(("family", "size", "field"), v))
                           for k, v in w.inputs.items()},
                "commands": [["taukit", *c.argv(c.spec, None)] for c in w.commands],
            }
            for name, w in wl.WORKLOADS.items()
        },
        "layer_moves": tracer.LAYER_MOVES,
        "per_layer": tracer.PER_LAYER,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--describe", action="store_true")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.describe:
        print(json.dumps(describe(), indent=2))
        return 0
    try:
        if not (ROOT / "src" / "taukit" / "__init__.py").is_file():
            raise RunError(f"no taukit sources under {ROOT / 'src'}")
        if args.record:
            expected = {name: record(w) for name, w in wl.WORKLOADS.items()}
            EXPECTED.write_text(json.dumps(expected, indent=1) + "\n")
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        result = run(wl.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                     load_expected()[args.workload])
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    info = dict(provenance(), workload=args.workload, seed=args.seed, **result.pop("info"))
    print(json.dumps({"provenance": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
