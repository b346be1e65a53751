#!/usr/bin/env python3
"""Self-test of the benchmark, on the short (--smoke) workload variants.

Usage (from the root of a checkout):

    python3 perfbench/selftest.py

For every workload it checks that
  * every metric BENCHMARK.json declares is printed, with its unit, and
    nothing else is;
  * two runs with the same seed give identical simulated metrics;
  * a different seed changes them;
  * the traced run reproduces the untraced run's simulated results (run.py
    fails otherwise) and its spans account for its wall time within 5%;
and that the benchmark refuses to run, without printing a result, in a
directory holding only BENCHMARK.json and the benchmark's own files.
Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True
import run  # noqa: E402  (the benchmark itself: workload names, build dir)

# End-to-end metrics exact for a given seed, plus the request counts.
SIMULATED = ("sim_tput_cps", "sim_lat_p50_ms", "sim_lat_p999_ms", "failed_pct",
             "sim_knee_cps", "unavail_ms")

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT,
          script: Path = HERE / "run.py",
          env: dict | None = None) -> tuple[int, dict | None, str]:
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        result = json.loads(lines[-1])
    return proc.returncode, result, proc.stderr[-2000:]


def check_units(result: dict, declared: list[dict], what: str) -> None:
    want = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    expect(set(got) == set(want),
           f"{what}: prints exactly the declared metrics "
           f"(missing {sorted(set(want) - set(got))}, "
           f"extra {sorted(set(got) - set(want))})")
    bad = [k for k, v in got.items()
           if k in want and (v.get("unit") != want[k]
                             or not isinstance(v.get("value"), (int, float)))]
    expect(not bad, f"{what}: every metric has a number and its unit {bad}")


def simulated(result: dict) -> dict:
    out = {k: result["metrics"][k]["value"] for k in SIMULATED}
    out["attempted"] = result["attempted"]
    out["failed"] = result["failed"]
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in run.WORKLOADS:
        rc, a, err = bench(workload, 1, 0)
        expect(rc == 0 and a is not None, f"{workload}: untraced run {err}")
        if a is None:
            continue
        check_units(a, spec["end_to_end"], f"{workload} --trace 0")
        _, b, _ = bench(workload, 1, 0)
        expect(b is not None and simulated(a) == simulated(b),
               f"{workload}: same seed, same simulated metrics")
        _, c, _ = bench(workload, 2, 0)
        expect(c is not None and simulated(a) != simulated(c),
               f"{workload}: another seed changes the simulated metrics")
        rc, t, err = bench(workload, 1, 1)
        expect(rc == 0 and t is not None,
               f"{workload}: traced run matches the untraced one {err}")
        if t is None:
            continue
        check_units(t, spec["per_layer"], f"{workload} --trace 1")
        expect((t["attempted"], t["failed"]) == (a["attempted"], a["failed"]),
               f"{workload}: traced and untraced request counts agree")
        unaccounted = t["metrics"]["trace.unaccounted_pct"]["value"]
        expect(abs(unaccounted) < 5.0,
               f"{workload}: spans account for the traced wall time "
               f"({unaccounted:.2f}% left)")

    # Without the simulator's sources the benchmark must fail cleanly.
    bare = run.build_dir() / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    rc, result, _ = bench(run.WORKLOADS[0], 1, 0, cwd=bare,
                          script=bare / HERE.name / "run.py", env=env)
    expect(rc != 0 and result is None,
           "refuses to run without the simulator's sources")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
