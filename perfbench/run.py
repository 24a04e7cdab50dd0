"""Benchmark of fracstep convergence studies, run through the public CLI.

    python3 perfbench/run.py --workload fode-exact --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn
    python3 perfbench/run.py --workload all --tiny     # smoke sizes, no golden check
    python3 perfbench/run.py --record-golden           # re-record the golden tables

Run from anywhere; fracstep is imported from the ``src/`` directory beside
``perfbench/``.  Each repetition runs in a fresh interpreter
(``perfbench/child.py``), so every repetition pays import time and cold
caches as a CLI user does.  The seed picks the workload's variant
(``workloads.py``).  After a warm-up interpreter, the run repeats the
study until ``--seconds`` is used up (at least ``MIN_REPS`` times); every
repetition times its own set-up too.  Children are pinned to the allowed
CPUs in turn.  Every output table is checked against its golden table
(``golden.py``).

With ``--trace 0`` the end-to-end metrics are printed, each the median over
the repetitions.  Times are scaled to a reference host speed: each is
multiplied by ``CAL_REF_S`` over the child's calibration time ``cal_s``
(``child.py``), so drift in the speed of a shared host's CPUs cancels while a
slower program still reads slower.  The unscaled medians are printed as
comments.  With ``--trace 1`` repetitions alternate between untraced
and traced (``tracer.py``); the per-layer metrics are medians over the
traced repetitions, the tracing overhead is the median traced minus the
median untraced wall time, and the traced tables must be byte-identical to
the untraced ones.
The last line of output is one JSON object: correct, attempted, failed and
metrics.  Outputs go to ``perfbench/_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from golden import compare, golden_path
from tracer import LAYER_METRICS, summarize
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "_out"

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
MIN_REPS = 3
STOP_STARTING_S = 150  # no repetition is started that is predicted to end later
CHILD_LIMIT_S = 170  # hard limit for every child, counted from the workload's start
# child.py's calibration loop takes this long at the reference host speed (a
# 2-vCPU Xeon VM at 2.0 GHz, Python 3.11); scaled times are seconds at that speed
CAL_REF_S = 0.04


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(SRC),
        # One study worker and one BLAS thread: the studies are GIL-bound, and
        # two pool threads on two cores make wave-selfref take 12-16 s instead
        # of 8.5-9.5 s, too unsteady to bound.  One busy thread also leaves
        # the second core to the benchmark's own process.
        FRACSTEP_WORKERS="1",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
    )
    return env


def scaled(rec: dict, key: str) -> float:
    """The record's time ``key`` at the reference host speed."""
    return rec[key] * CAL_REF_S / rec["cal_s"]


def run_child(t_start: float, cpu: int, *args: str) -> dict:
    timeout = CHILD_LIMIT_S - (time.perf_counter() - t_start)
    if timeout <= 1:
        raise ChildFailed("no time left")
    cmd = [sys.executable, str(BENCH / "child.py"), "--src", str(SRC), "--cpu", str(cpu), *args]
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"timed out after {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise ChildFailed(f"exit {proc.returncode}: {tail[0]}")
    return json.loads(lines[-1])


def median(values):
    return statistics.median(values) if values else 0.0


class Bench:
    """One workload at one variant: runs repetitions and checks tables.  Each
    workload config holds one study section, so one repetition writes one
    table and counts as one attempt."""

    def __init__(self, name: str, seed: int, tiny: bool):
        self.w = WORKLOADS[name]
        self.variant = self.w.variant(seed)
        self.check = not tiny  # compare tables against the goldens
        self.dir = OUT / name
        self.dir.mkdir(parents=True, exist_ok=True)
        self.config = self.dir / "config.ini"
        self.config.write_text(self.w.config_text(self.variant, tiny))
        self.golden = golden_path(self.w.name, self.variant)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.t_start = time.perf_counter()
        self.cpus = sorted(os.sched_getaffinity(0))
        self.children = 0

    def child(self, *args: str) -> dict:
        cpu = self.cpus[self.children % len(self.cpus)]
        self.children += 1
        return run_child(self.t_start, cpu, *args)

    def rep(self, index: int, trace_file: Path | None = None):
        """Run the study once; returns (timing record, table text), either
        None when the repetition failed."""
        out = self.dir / f"rep{index}.csv"
        out.unlink(missing_ok=True)
        args = ["--subcommand", self.w.subcommand, "--config", str(self.config), "--out", str(out)]
        if trace_file is not None:
            args += ["--trace", str(trace_file)]
        self.attempted += 1
        try:
            rec = self.child("--mode", "run", *args)
        except ChildFailed as exc:
            return self._fail(index, str(exc)), None
        if rec["rc"] != 0 or not out.is_file():
            return self._fail(index, f"CLI exit {rec['rc']}, no table"), None
        table = out.read_text()
        if self.check:
            why = compare(table, self.golden.read_text())
            if why:
                self._fail(index, why)
        return rec, table

    def _fail(self, index: int, why: str) -> None:
        self.failed += 1
        self.problems.append(f"rep {index}: {why}")

    def run(self, seconds: float, trace: bool) -> dict:
        self.t_start = time.perf_counter()
        info = self.child("--mode", "info")  # warm-up: byte-compiles and pages in the libraries
        start = time.perf_counter()
        plain, traced, durations = [], [], []
        first_table = None
        index = 0
        while True:
            use_trace = trace and index % 2 == 1
            trace_file = self.dir / f"trace{index}.json" if use_trace else None
            t0 = time.perf_counter()
            rec, table = self.rep(index, trace_file)
            durations.append(time.perf_counter() - t0)
            if rec is not None:
                if use_trace:
                    traced.append((rec, summarize(json.loads(trace_file.read_text()))))
                else:
                    plain.append(rec)
            if trace and table is not None:
                if first_table is None:
                    first_table = table
                elif table != first_table:
                    self._fail(index, "table bytes differ between traced and untraced repetitions")
            index += 1
            now = time.perf_counter()
            predicted = now - start + median(durations)
            if now - self.t_start + median(durations) > STOP_STARTING_S:
                break
            if index >= MIN_REPS and predicted > seconds:
                break
        return self._result(info, plain, traced, trace)

    def _result(self, info, plain, traced, trace: bool) -> dict:
        if trace:
            per_rep = [m for _, m in traced]
            metrics = {name: median([m[name] for m in per_rep]) for name in per_rep[0]} if per_rep else {}
            wall_plain = median([scaled(r, "wall_s") for r in plain])
            wall_traced = median([scaled(r, "wall_s") for r, _ in traced])
            metrics["trace.overhead_s"] = wall_traced - wall_plain
            metrics["trace.overhead_frac"] = (wall_traced - wall_plain) / wall_plain if wall_plain else 0.0
            units = LAYER_METRICS
            samples = len(traced)
        else:
            metrics = {
                "wall_s": median([scaled(r, "wall_s") for r in plain]),
                "setup_s": median([scaled(r, "setup_s") for r in plain]),
                "cpu_s": median([scaled(r, "cpu_s") for r in plain]),
                "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
            }
            units = END_TO_END
            samples = len(plain)
        walls = sorted(scaled(r, "wall_s") for r in plain)
        print(f"# workload {self.w.name}, variant {self.variant}: {self.w.why}")
        print(f"# env {json.dumps(info)}")
        print(f"# repetitions: {len(plain)} untraced, {len(traced)} traced")
        if walls:
            # with fewer than 11 samples no percentile has ten samples beyond it,
            # so the spread is given as min and max
            print(f"# wall_s untraced: median {median(walls):.4f} s, min {walls[0]:.4f} s, max {walls[-1]:.4f} s (n={len(walls)})")
            raw = {k: median([r[k] for r in plain]) for k in ("wall_s", "cpu_s", "setup_s", "cal_s")}
            print(f"# unscaled medians: {json.dumps(raw)}; reference cal_s {CAL_REF_S}")
            print(f"# unscaled wall_s, cal_s per repetition: {json.dumps([[r['wall_s'], r['cal_s']] for r in plain])}")
        for name in units:
            print(f"{self.w.name} {name} = {metrics.get(name, 0.0):.6g} {units[name]} (median, n={samples})")
        print(f"{self.w.name} fail_rate = {self.failed}/{self.attempted}")
        for p in self.problems:
            print(f"# FAIL {p}")
        correct = self.failed == 0 and samples > 0
        return {
            "correct": correct,
            "attempted": max(self.attempted, 1),
            "failed": self.failed if correct else max(self.failed, 1),
            "metrics": {name: {"value": metrics.get(name, 0.0), "unit": units[name]} for name in units},
        }


def record_golden() -> int:
    """Record the golden table of every workload variant."""
    for name, w in WORKLOADS.items():
        for variant in range(len(w.menu)):
            bench = Bench(name, variant, tiny=False)
            bench.check = False
            rec, table = bench.rep(0)
            if rec is None:
                print(f"error: {name} variant {variant}: {bench.problems}", file=sys.stderr)
                return 1
            bench.golden.write_text(table)
            print(f"{name} variant {variant}: recorded {bench.golden.name} ({rec['wall_s']:.2f} s)")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true", help="smoke sizes; tables are not checked against goldens")
    ap.add_argument("--record-golden", action="store_true")
    args = ap.parse_args(argv)

    if not (SRC / "fracstep" / "cli.py").is_file():
        print(f"error: no fracstep sources at {SRC}; run from a fracstep checkout", file=sys.stderr)
        return 2
    if args.record_golden:
        return record_golden()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    benches = [Bench(n, args.seed, args.tiny) for n in names]
    missing = [str(b.golden) for b in benches if not b.golden.is_file()]
    if missing and not args.tiny:
        print(f"error: golden tables missing: {missing}", file=sys.stderr)
        return 2
    for b in benches:
        result = b.run(args.seconds, bool(args.trace))
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
