"""Smoke check of the benchmark itself (about a minute):

    python3 perfbench/smoke.py

1. BENCHMARK.json has the documented shape and names the metrics run.py
   prints.
2. Every workload runs at tiny sizes with tracing off and on; each prints
   every end-to-end (trace 0) or per-layer (trace 1) metric with its unit,
   reports correct, and the traced tables are byte-identical to the untraced
   ones (run.py counts a difference as a failure).
3. In a directory holding only BENCHMARK.json and perfbench/, run.py exits
   non-zero without printing a result.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_spec(spec: dict) -> list[str]:
    errs = []
    if set(spec) != {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}:
        errs.append(f"keys: {sorted(spec)}")
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    errs += [f"bad or repeated name {n}" for n in names if not NAME.match(n) or names.count(n) > 1]
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            errs.append(f"workload {w['name']}")
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            errs.append(f"end_to_end {m['name']}")
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT.match(m["unit"]) or m["better"] not in ("lower", "higher"):
            errs.append(f"metric {m['name']}")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["bound"] < max(m["bound"] for m in spec["end_to_end"]):
        errs.append("setup_s must exist, in s, with the largest bound")
    if not 1 <= spec["run_seconds"] <= 60 or (4 + 22 * len(spec["workloads"])) * (spec["run_seconds"] + 2) > 3420:
        errs.append("run_seconds does not fit the time budget")
    return errs


def results(args: list[str]) -> list[dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args], capture_output=True, text=True, timeout=900
    )
    if proc.returncode != 0:
        raise SystemExit(f"run.py {' '.join(args)} failed:\n{proc.stderr}")
    print(proc.stdout, end="")
    return [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errs = check_spec(spec)
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for trace in (0, 1):
        got = results(["--workload", "all", "--tiny", "--seed", "0", "--seconds", "1", "--trace", str(trace)])
        if len(got) != len(spec["workloads"]):
            errs.append(f"trace {trace}: {len(got)} results for {len(spec['workloads'])} workloads")
        for res in got:
            units = {k: v["unit"] for k, v in res["metrics"].items()}
            if units != wanted[trace]:
                errs.append(f"trace {trace}: metrics {sorted(units)} differ from BENCHMARK.json")
            if not (res["correct"] and res["failed"] == 0 and res["attempted"] >= 1):
                errs.append(f"trace {trace}: not correct: {res}")

    bare = BENCH / "_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = subprocess.run(
        [*spec["command"], "--workload", spec["workloads"][0]["name"], "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    if proc.returncode == 0 or "{" in proc.stdout:
        errs.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")

    for e in errs:
        print(f"SMOKE FAIL: {e}")
    print("smoke: ok" if not errs else f"smoke: {len(errs)} failure(s)")
    return 1 if errs else 0


if __name__ == "__main__":
    raise SystemExit(main())
