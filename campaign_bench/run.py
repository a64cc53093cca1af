#!/usr/bin/env python3
"""Campaign benchmark: cold actnet campaigns timed end to end and per layer.

Run from the repository root:

    python3 campaign_bench/run.py --workload paper_campaign --seed 1 \
        --seconds 30 --trace 0

Builds the program under test from this checkout (the repository's own
CMake build, libraries only, then the driver in campaign_bench/) under
.bench_build/, pins every ACTNET_* knob to its default, and runs cold units
of the workload on nproc worker threads (nproc/2 for the fabric) until
--seconds have passed (at least two units, so the simulated-output digest
can be checked for repeatability). Each unit is one driver process on a fresh
throwaway cache.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
and traced units (ACTNET_METRICS=1 ACTNET_PROFILE=1) and reports the
per-layer metrics plus obs.trace_overhead. Human-readable lines go first;
the last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Any failed experiment or output check makes the exit code nonzero.
"""

import argparse
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build"
BUILD_TYPE = "RelWithDebInfo"

WORKLOADS = ("paper_campaign", "fat_tree_probes", "partitioned_fabric")

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "experiment_p50_ms": "ms",
    "experiment_p95_ms": "ms",
}

# Per-layer metrics, reported for every workload; 0 where the workload does
# not run that layer (e.g. mpi.* on partitioned_fabric, sim.partition.* on
# the other two).
PER_LAYER = {
    "core.jobs.executed": "count",
    "core.worker_utilization": "ratio",
    "core.job_wall_sum_s": "s",
    "core.measure.calibration.busy_s": "s",
    "core.measure.calibration.events": "count",
    "core.measure.impact.busy_s": "s",
    "core.measure.impact.events": "count",
    "core.measure.baseline.busy_s": "s",
    "core.measure.baseline.events": "count",
    "core.measure.degradation.busy_s": "s",
    "core.measure.degradation.events": "count",
    "core.measure.pair.busy_s": "s",
    "core.measure.pair.events": "count",
    "core.db.open_ms": "ms",
    "core.db.flush_ms": "ms",
    "core.cache.misses": "count",
    "core.models.predict_ms": "ms",
    "core.models.queue_mae_pct": "pct",
    "core.models.queue_under10_share": "ratio",
    "sim.events_executed": "count",
    "sim.events_scheduled": "count",
    "sim.events_unexecuted": "count",
    "sim.events_per_host_s": "1/s",
    "sim.ladder.spills": "count",
    "sim.heap_peak": "count",
    "prof.engine.self_s": "s",
    "sim.partition.windows": "count",
    "sim.partition.barrier_stalls": "count",
    "sim.partition.channel_msgs": "count",
    "sim.partition.events_per_window": "ratio",
    "sim.partition.serial_wall_s": "s",
    "sim.partition.speedup": "ratio",
    "fabric.packets": "count",
    "fabric.port.depth_peak": "count",
    "net.messages": "count",
    "net.packets": "count",
    "net.packets_per_message": "ratio",
    "net.events_per_message": "ratio",
    "net.link.drr_rounds": "count",
    "net.fastpath.trains": "count",
    "net.fastpath.fallbacks": "count",
    "net.flowfwd.messages": "count",
    "net.flowfwd.engaged_share": "ratio",
    "net.flowfwd.demotion_share": "ratio",
    "net.flowfwd.fallback_packets": "count",
    "prof.net.self_s": "s",
    "mpi.sends_eager": "count",
    "mpi.sends_rendezvous": "count",
    "mpi.unexpected_queue_peak": "count",
    "mpi.unexpected_depth_mean": "ratio",
    "prof.mpi.self_s": "s",
    "obs.trace_overhead": "ratio",
}

# Every ACTNET_* knob the timed run sees; anything else inherited is dropped.
# Values are the program's defaults (the cache is set per unit).
PINNED_ENV = {
    "ACTNET_SCHEDULER": "ladder",
    "ACTNET_FASTPATH": "1",
    "ACTNET_FLOWFWD": "on",
    "ACTNET_PARTITIONS": "1",
    "ACTNET_TRACE": "",
    "ACTNET_METRICS": "0",
    "ACTNET_PROFILE": "0",
    "ACTNET_TELEMETRY": "",
    "ACTNET_LOG": "warn",
}
TRACED_ENV = {"ACTNET_METRICS": "1", "ACTNET_PROFILE": "1"}

MIN_UNITS = 2
UNIT_TIMEOUT_S = 170
HARD_LIMIT_S = 150
# A last unit may end this far past --seconds: long units (a cold paper
# campaign is ~10 s) would otherwise leave a third of the window unused.
OVERSHOOT = 1.15


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def sh(cmd):
    """Runs a build step with its output on stderr; raises on failure."""
    subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)


def build(jobs):
    """Builds the actnet libraries and the driver; returns the driver path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise RuntimeError(f"no actnet source tree at {ROOT}")
    BUILD.mkdir(exist_ok=True)
    lib_dir = BUILD / "actnet"
    drv_dir = BUILD / "driver"
    with open(BUILD / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (lib_dir / "CMakeCache.txt").is_file():
            sh(["cmake", "-S", str(ROOT), "-B", str(lib_dir),
                f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}", "-DBUILD_TESTING=OFF",
                "-DACTNET_BUILD_TESTS=OFF", "-DACTNET_BUILD_BENCH=OFF",
                "-DACTNET_BUILD_EXAMPLES=OFF"])
        sh(["cmake", "--build", str(lib_dir), "--target", "actnet_valid",
            "-j", str(jobs)])
        sh(["cmake", "-S", str(BENCH_DIR), "-B", str(drv_dir),
            f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}", f"-DACTNET_SOURCE_DIR={ROOT}",
            f"-DACTNET_BUILD_DIR={lib_dir}"])
        sh(["cmake", "--build", str(drv_dir), "-j", str(jobs)])
    return drv_dir / "campaign_driver"


def pinned_env(traced):
    env = {k: v for k, v in os.environ.items() if not k.startswith("ACTNET_")}
    env.update(PINNED_ENV)
    if traced:
        env.update(TRACED_ENV)
    return env


class UnitFailed(RuntimeError):
    pass


def run_unit(driver, args, jobs, index, traced, scoped):
    """Runs one driver process on a fresh scratch dir; returns its JSON."""
    scratch = BUILD / "scratch" / f"{os.getpid()}-{index}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    env = pinned_env(traced)
    env["ACTNET_CACHE"] = str(scratch / "default_cache.tsv")
    env["ACTNET_JOBS"] = str(jobs)
    cmd = [str(driver), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--jobs={jobs}", f"--scratch={scratch}",
           f"--tolerances={ROOT / 'valid' / 'tolerances.json'}"]
    if index == 0 and not traced:  # warm-up work must not reach the counters
        cmd.append("--warmup")
    if scoped:
        cmd.append("--scoped")
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=UNIT_TIMEOUT_S)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise UnitFailed(f"driver exited {proc.returncode}")
    return json.loads(lines[-1])


def nearest_rank(values, q):
    ordered = sorted(values)
    k = max(0, min(len(ordered) - 1, int(round(q * len(ordered) + 0.5)) - 1))
    return ordered[k]


def run_units(driver, args, jobs, modes):
    """Runs units cycling through `modes` ((traced, scoped) pairs) until
    --seconds have passed or the next full cycle would end well past them
    (at least MIN_UNITS units and one full cycle); returns [(mode, unit)]."""
    done = []
    t0 = time.monotonic()
    min_units = max(MIN_UNITS, len(modes))
    while True:
        mode = modes[len(done) % len(modes)]
        done.append((mode, run_unit(driver, args, jobs, len(done), *mode)))
        elapsed = time.monotonic() - t0
        per_unit = elapsed / len(done)
        if len(done) % len(modes) != 0:
            continue
        next_end = elapsed + per_unit * len(modes)
        if len(done) >= min_units and (elapsed >= args.seconds or
                                       next_end > args.seconds * OVERSHOOT):
            return done
        if next_end > HARD_LIMIT_S:  # slow host: keep under the time limit
            return done


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest inputs (the benchmark's own test)")
    args = ap.parse_args()

    jobs = nproc()
    if args.workload == "partitioned_fabric":
        # Window barriers at nproc workers collapse when anything else
        # wants a core: with four busy threads beside it on 4 vCPUs, the
        # fabric's run went from 0.1 s to 24-26 s at 4 workers and not at
        # all at 2. Half the cores keep the barriers and channels in play.
        jobs = max(1, jobs // 2)
    try:
        driver = build(nproc())
    except (RuntimeError, subprocess.CalledProcessError, OSError) as e:
        log(f"campaign_bench: build failed: {e}")
        return 2

    print(f"campaign_bench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}"
          f"{' tiny' if args.tiny else ''}")
    print(f"settings: nproc={nproc()} workers={jobs} build={BUILD_TYPE} "
          + " ".join(f"{k}={v!r}" for k, v in sorted(PINNED_ENV.items()))
          + " ACTNET_CACHE=<fresh per unit>")
    if args.trace:
        print("traced units: " + " ".join(f"{k}={v}" for k, v in
                                          sorted(TRACED_ENV.items())))

    modes = [(False, True), (True, True)] if args.trace else [(False, False)]
    try:
        done = run_units(driver, args, jobs, modes)
    except (UnitFailed, subprocess.TimeoutExpired, json.JSONDecodeError) as e:
        log(f"campaign_bench: unit failed: {e}")
        return 1

    units = [u for _, u in done]
    failures = []
    for i, u in enumerate(units):
        for c in u["checks"]:
            if not c["ok"]:
                failures.append(f"unit {i}: {c['name']} ({c['detail']})")
    digests = {u["digest"] for u in units}
    if len(digests) != 1:
        failures.append(f"simulated-output digest differs across units of "
                        f"seed {args.seed}: {sorted(digests)}")
    attempted = sum(u["attempted"] for u in units)
    failed = sum(u["failed_experiments"] for u in units) + len(failures)

    if args.trace:
        plain = [u for (traced, _), u in done if not traced]
        traced = [u for (traced, _), u in done if traced]
        values = {}
        for name in PER_LAYER:
            samples = [u["layers"].get(name, 0.0) for u in traced]
            values[name] = statistics.median(samples)
        values["obs.trace_overhead"] = (
            statistics.median(u["wall_s"] for u in traced) /
            statistics.median(u["wall_s"] for u in plain))
        table = PER_LAYER
        print(f"units: {len(plain)} untraced + {len(traced)} traced")
    else:
        exp_ms = [x for u in units for x in u["experiments_ms"]]
        values = {
            "wall_s": statistics.median(u["wall_s"] for u in units),
            # Each unit's median set-up, then the median over units.
            "setup_s": statistics.median(statistics.median(u["setup_s"])
                                         for u in units),
            "peak_rss_mb": statistics.median(u["peak_rss_mb"] for u in units),
            "experiment_p50_ms": statistics.median(exp_ms),
            # Each unit's own p95 (the tail within one cold campaign), then
            # the median over units, so a single host hiccup cannot set it.
            "experiment_p95_ms": statistics.median(
                nearest_rank(u["experiments_ms"], 0.95) for u in units),
        }
        table = END_TO_END
        print(f"units: {len(units)}; experiments: {len(exp_ms)} samples "
              f"(p50 pooled; p95 per unit of "
              f"{len(units[0]['experiments_ms'])}, median over units)")

    for name, unit in table.items():
        print(f"  {name:34s} {values[name]:.6g} {unit}")
    print(f"  {'fail_ratio':34s} {failed / max(attempted, 1):.6g} "
          f"({failed} failed of {attempted} attempted)")
    extras = sorted({k for u in units for k in u["extra"]})
    for k in extras:
        v = statistics.median(u["extra"][k] for u in units if k in u["extra"])
        print(f"  {k:34s} {v:.6g}")
    print(f"  {'digest':34s} {' '.join(sorted(digests))}")
    print("  unit walls (s): " + " ".join(f"{u['wall_s']:.3f}" for u in units))
    for f in failures:
        print(f"CHECK FAILED: {f}")

    result = {
        "correct": failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in table.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
