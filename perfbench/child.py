"""One benchmark repetition in a fresh interpreter.

    python3 perfbench/child.py --src src --cpu 0 --mode run --subcommand fode --config c.ini --out t.csv [--trace t.json]

Imports fracstep from the ``src/`` directory named by PYTHONPATH, parses the
config, runs the study through the public CLI entry point
``fracstep.cli.main`` and prints one JSON line with the timings.  ``--mode
info`` reports library versions and thread settings instead.

The interpreter pins itself to the CPU named by ``--cpu`` before anything is
timed.  ``run`` also reports ``cal_s``: the mean time of a fixed calibration
loop, run ``CAL_SAMPLES`` times on the same CPU before and after the study.
On a shared host the speed of a CPU drifts by tens of percent over seconds
and minutes; the caller divides the timings by ``cal_s`` to take that drift
out.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path


CAL_SAMPLES = 4


def _calibration_loop() -> float:
    """Seconds for a fixed loop made of the two kinds of work the studies do,
    about equal in time: scalar float code in the interpreter (special
    functions, list updates) and numpy history sums over a (steps x dofs)
    array.  Host contention slows the two differently; timed together they
    track every workload better than either alone."""
    import numpy as np  # already imported by fracstep; not part of the set-up

    hist = np.linspace(0.0, 1.0, 1025 * 40).reshape(1025, 40)
    kernel = np.linspace(1.0, 2.0, 1025)
    t0 = time.perf_counter()
    acc = 0.0
    recent = [0.0] * 64
    for k in range(1, 50_000):
        x = k * 1e-4
        acc += math.exp(-x) * math.lgamma(x + 1.0) / (1.0 + x * x)
        recent[k & 63] = acc * 0.5
    for n in range(100, 1024, 4):
        acc += float(((hist[:n] - hist[0]).T @ kernel[n:0:-1]).sum())
    return time.perf_counter() - t0


def _calibrate() -> list[float]:
    return [_calibration_loop() for _ in range(CAL_SAMPLES)]


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        r = resource.getrusage(who)
        total += r.ru_utime + r.ru_stime
    return total


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return max(resource.getrusage(w).ru_maxrss for w in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def _info(fracstep_file: str) -> dict:
    import numpy
    import scipy

    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except Exception:  # noqa: BLE001 - version probe only
        pass
    threads = {k: os.environ.get(k) for k in ("FRACSTEP_WORKERS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "threads": threads,
        "fracstep": fracstep_file,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=["run", "info"], default="run")
    ap.add_argument("--subcommand")
    ap.add_argument("--config")
    ap.add_argument("--out")
    ap.add_argument("--trace", help="write the per-layer trace to this JSON file")
    ap.add_argument("--src", required=True, help="the src/ directory fracstep must come from")
    ap.add_argument("--cpu", type=int, required=True, help="the CPU to pin to")
    args = ap.parse_args()
    os.sched_setaffinity(0, {args.cpu})

    t0 = time.perf_counter()
    import fracstep
    import fracstep.cli

    parse = getattr(fracstep, "parse_config", None)
    if args.config and parse is not None:
        parse(args.config)
    setup_s = time.perf_counter() - t0

    src = Path(args.src).resolve()
    if src not in Path(fracstep.__file__).resolve().parents:
        print(f"fracstep imported from {fracstep.__file__}, not from {src}", file=sys.stderr)
        return 3
    if args.mode == "info":
        print(json.dumps(_info(fracstep.__file__)))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer  # perfbench/ is the script directory

        tracer = Tracer(run_id=f"{os.getpid()}")
        tracer.install()

    cal = _calibrate()
    cpu0 = _cpu_s()
    t1 = time.perf_counter()
    rc = fracstep.cli.main([args.subcommand, "--config", args.config, "--out", args.out])
    wall_s = time.perf_counter() - t1
    cpu_s = _cpu_s() - cpu0
    cal += _calibrate()
    if tracer is not None:
        tracer.dump(args.trace)
    print(json.dumps({
        "rc": rc, "setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s,
        "peak_rss_mb": _peak_rss_mb(), "cal_s": statistics.mean(cal),
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
