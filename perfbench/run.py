#!/usr/bin/env python3
"""End-to-end benchmark of the consensus simulator.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the simulator and the benchmark driver from source (CMake, into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench), then measures
one workload for about S seconds:

* --trace 0: repeated untraced runs, each one process making one
  harness::run_scenario call plus the library oracle. Host metrics are
  robust statistics over the runs (see NOTES.md); simulated metrics are
  exact for the seed, and every run must reproduce them. A counting pass of
  the benchmark's own driver (traced_run.cpp, timing off) supplies request
  accounting, the knee and unavailability, after checking that it
  reproduces the same simulated results.
* --trace 1: pairs of one untraced run and one traced run of that driver,
  which times every call into each layer from outside. Per-layer metrics
  are medians over the traced runs; the traced run must reproduce the
  untraced run's simulated results exactly.

Every run is checked (run_scenario's consistency flag, the library oracle,
request accounting). Any failure prints the detail to stderr and exits 1
without a result. Otherwise the last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.

Reports land in <build>/out: the first untraced run's RunReport as
caesar-run-report/1 JSON (readable by tools/bench_diff.py) and the traced
run's span sample as Chrome trace-event JSON (opens in Perfetto).
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("caesar-wan-ramp", "mencius-lan-saturation", "mencius-wan-powerloss")
MIN_RUNS = 3
RUN_TIMEOUT_S = 120
# The host rate is scaled to a machine on which perfbench_driver's calibration walk
# takes this long (about what it takes on a quiet 2 GHz VM core).
CALIB_REF_S = 0.1

# Units of every metric the benchmark prints (see BENCHMARK.json).
E2E_UNITS = {
    "setup_s": "s",
    "host_kcmds_per_s": "kcmd/s",
    "peak_rss_mb": "MB",
    "sim_tput_cps": "cmd/s",
    "sim_lat_p50_ms": "ms",
    "sim_lat_p999_ms": "ms",
    "failed_pct": "%",
    "sim_knee_cps": "cmd/s",
    "unavail_ms": "ms",
}
LAYER_UNITS = {
    "sim.events": "count",
    "sim.events_per_cmd": "ratio",
    "sim.loop_self_s": "s",
    "sim.ns_per_event": "ns",
    "net.msgs_per_cmd": "ratio",
    "net.bytes_per_cmd": "bytes",
    "net.frames_per_msg": "ratio",
    "runtime.cpu_util_max": "ratio",
    "runtime.cpu_util_mean": "ratio",
    "runtime.queue_depth_p99": "count",
    "runtime.ops_per_batch": "ratio",
    "runtime.submit_s": "s",
    "runtime.send_s": "s",
    "runtime.deliver_s": "s",
    "proto.on_message_s": "s",
    "proto.propose_s": "s",
    "proto.timer_s": "s",
    "proto.on_catchup_s": "s",
    "proto.self_s": "s",
    "proto.us_per_cmd": "us",
    "proto.fast_path_pct": "%",
    "proto.retries_per_cmd": "ratio",
    "proto.slow_per_cmd": "ratio",
    "proto.waits_per_cmd": "ratio",
    "proto.recoveries": "count",
    "proto.wait_p50_ms": "ms",
    "proto.propose_p50_ms": "ms",
    "proto.retry_p50_ms": "ms",
    "proto.deliver_p50_ms": "ms",
    "rsm.apply_s": "s",
    "rsm.log_record_s": "s",
    "rsm.applies": "count",
    "harness.oracle_s": "s",
    "harness.mirror_s": "s",
    "harness.mirror_entries": "count",
    "harness.setup_s": "s",
    "harness.report_s": "s",
    "workload.on_delivery_s": "s",
    "workload.attempted": "count",
    "workload.shed": "count",
    "workload.dropped": "count",
    "workload.in_flight_end": "count",
    "storage.wal_appends_per_cmd": "ratio",
    "storage.fsyncs_per_cmd": "ratio",
    "storage.snapshots": "count",
    "storage.truncated_segments": "count",
    "storage.disk_bytes": "bytes",
    "storage.restart_s": "s",
    "recovery.catchup_requests": "count",
    "recovery.catchup_chunks": "count",
    "recovery.catchup_commands": "count",
    "recovery.catchup_ms": "ms",
    "trace.wall_s": "s",
    "trace.unaccounted_pct": "%",
    "trace.overhead_ratio": "ratio",
}


class BenchError(Exception):
    """A build failure, a failed correctness gate or a driver crash."""


def build_dir() -> Path:
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(bdir: Path) -> Path:
    """Configures (once) and builds perfbench_driver; returns its path."""
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "-j", "4"])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd) + "\n"
                             + proc.stdout[-4000:] + proc.stderr[-4000:])
    return bdir / "perfbench_driver"


def run_driver(exe: Path, mode: str, args: argparse.Namespace, bdir: Path,
               extra: list[str] | None = None) -> dict:
    cmd = [str(exe), mode, "--workload", args.workload, "--seed", str(args.seed),
           "--data", str(bdir / "data")]
    if args.smoke:
        cmd.append("--smoke")
    cmd += extra or []
    if mode == "plain":
        # Set-up time counts from here: process start, binary load, the
        # scenario registry and build()/validation.
        cmd += ["--spawn-ns", str(time.monotonic_ns())]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"driver {mode} exited {proc.returncode}: "
                         + proc.stderr[-4000:])
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if not out["correct"]:
        raise BenchError(f"correctness gate failed ({mode} run, "
                         f"{args.workload}, seed {args.seed}): {out['detail']}")
    return out


def check_same(what: str, a: dict, b: dict) -> None:
    """Simulated results must be identical; names the first differing key."""
    if a == b:
        return
    diff = [k for k in sorted(set(a) | set(b)) if a.get(k) != b.get(k)]
    raise BenchError(f"{what}: simulated results differ in {diff[:5]}: "
                     + ", ".join(f"{k}={a.get(k)!r} vs {b.get(k)!r}"
                                 for k in diff[:3]))


def timed_loop(seconds: float, body) -> int:
    """Calls body() until `seconds` have passed (at least MIN_RUNS times),
    never starting a call the slowest one so far could not finish in time."""
    start = time.monotonic()
    slowest = 0.0
    runs = 0
    while True:
        t0 = time.monotonic()
        body()
        runs += 1
        slowest = max(slowest, time.monotonic() - t0)
        if runs >= MIN_RUNS and time.monotonic() + slowest > start + seconds:
            return runs


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def describe(acct: dict, plain: dict, workload: str, seed: int) -> None:
    """Failure accounting and every ratio with its base."""
    a = acct
    print(f"{workload} seed={seed}: attempted {a['attempted']} = completed "
          f"{a['completed']} + shed {a['shed']} + dropped at a crashed site "
          f"{a['dropped_at_crash']} + dropped with no site up "
          f"{a['dropped_no_site']} + in flight at end {a['in_flight_end']}")
    print(f"  failed_pct = failed {a['failed']} (shed + dropped) / attempted "
          f"{a['attempted']}; {a['in_flight_end']} still in flight at the end "
          f"are not counted as failed")
    print(f"  sim latency over {plain['lat_samples']} measured completions; "
          f"sim_tput_cps over the measurement window")


def measure_untraced(exe: Path, args: argparse.Namespace, bdir: Path) -> dict:
    out_dir = bdir / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    # The counting pass runs first; it also warms the page cache for the
    # timed runs.
    count = run_driver(exe, "count", args, bdir)
    runs: list[dict] = []

    def one() -> None:
        extra = ["--report", str(out_dir / f"{stem}.report.json")] if not runs else []
        runs.append(run_driver(exe, "plain", args, bdir, extra))

    timed_loop(args.seconds, one)
    for r in runs[1:]:
        check_same("two runs of one seed", runs[0]["fingerprint"], r["fingerprint"])
    check_same("counting driver vs run_scenario", runs[0]["fingerprint"],
               count["fingerprint"])
    if count["unavail_ms"] < 0:
        raise BenchError("nothing completed after the workload's disruption")

    med = lambda key: statistics.median(r[key] for r in runs)
    # The machine's speed drifts with other work on it, by up to 2x within
    # minutes. Each run also times a fixed calibration walk (driver.cpp,
    # calibrate()) right after its oracle; the host rate uses run time over
    # calibration time, which moves far less, scaled to a machine on which
    # the walk takes CALIB_REF_S.
    ratio = statistics.median(
        (r["run_s"] + r["oracle_s"]) / r["calib_s"] for r in runs)
    host_rate = runs[0]["completed"] / (ratio * CALIB_REF_S) / 1000.0
    acct = count["accounting"]
    first = runs[0]
    describe(acct, first, args.workload, args.seed)
    print(f"  host_kcmds_per_s = completed {first['completed']} / (wall of "
          f"run_scenario + oracle, {med('run_s') + med('oracle_s'):.3f} s, "
          f"over calibration walk, {med('calib_s') * 1000:.1f} ms: median "
          f"{ratio:.2f} over {len(runs)} runs, x {CALIB_REF_S * 1000:.0f} ms)")
    (out_dir / f"{stem}.trace0.json").write_text(
        json.dumps({"count": count, "runs": runs}, indent=1))
    metrics = {
        "setup_s": med("setup_s"),
        "host_kcmds_per_s": host_rate,
        "peak_rss_mb": med("peak_rss_mb"),
        "sim_tput_cps": first["sim_tput_cps"],
        "sim_lat_p50_ms": first["sim_lat_p50_ms"],
        "sim_lat_p999_ms": first["sim_lat_p999_ms"],
        "failed_pct": 100.0 * acct["failed"] / acct["attempted"],
        "sim_knee_cps": count["knee_cps"],
        "unavail_ms": count["unavail_ms"],
    }
    return {"correct": True, "attempted": acct["attempted"],
            "failed": acct["failed"],
            "metrics": {k: metric(v, E2E_UNITS[k]) for k, v in metrics.items()}}


def measure_traced(exe: Path, args: argparse.Namespace, bdir: Path) -> dict:
    out_dir = bdir / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    pairs: list[tuple[dict, dict]] = []

    def one() -> None:
        plain = run_driver(exe, "plain", args, bdir)
        extra = ["--trace-out", str(out_dir / f"{stem}.trace.json")] if not pairs else []
        traced = run_driver(exe, "traced", args, bdir, extra)
        check_same("traced vs untraced run", plain["fingerprint"],
                   traced["fingerprint"])
        pairs.append((plain, traced))

    timed_loop(args.seconds, one)
    layers = {
        name: statistics.median(t["layers"][name] for _, t in pairs)
        for name in pairs[0][1]["layers"]
    }
    layers["trace.overhead_ratio"] = statistics.median(
        t["wall_s"] / (p["run_s"] + p["oracle_s"]) for p, t in pairs)
    missing = set(LAYER_UNITS) - set(layers)
    if missing:
        raise BenchError(f"driver did not report {sorted(missing)}")
    traced = pairs[0][1]
    describe(traced["accounting"], pairs[0][0], args.workload, args.seed)
    print(f"  traced/untraced wall {layers['trace.overhead_ratio']:.3f} "
          f"(median over {len(pairs)} pairs); spans leave "
          f"{layers['trace.unaccounted_pct']:.2f}% of traced wall unaccounted")
    (out_dir / f"{stem}.trace1.json").write_text(
        json.dumps({"pairs": [{"plain": p, "traced": t} for p, t in pairs]},
                   indent=1))
    acct = traced["accounting"]
    return {"correct": True, "attempted": acct["attempted"],
            "failed": acct["failed"],
            "metrics": {k: metric(layers[k], LAYER_UNITS[k])
                        for k in sorted(LAYER_UNITS)}}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="short workload variants (the self-test uses them)")
    args = ap.parse_args()
    try:
        if not (ROOT / "src" / "harness" / "scenario.h").is_file():
            raise BenchError(f"no simulator sources under {ROOT / 'src'}")
        bdir = build_dir()
        exe = build(bdir)
        result = (measure_traced if args.trace else measure_untraced)(exe, args, bdir)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError,
            KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr, flush=True)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
