"""Benchmark hpascal: four workloads, end-to-end metrics, and a traced per-layer run.

    python3 perfbench/run.py                          # every workload, one process each
    python3 perfbench/run.py --workload locate --seed 3 --seconds 25 --trace 1

A single workload runs in this process: it imports hpascal and builds its
seeded inputs several times (set-up), runs whole timed passes while the
next should still end within --seconds (at least one), checks every
pass's outputs outside the clock, and with --trace 1 adds one traced
pass for the per-layer figures.  Human-readable lines come first; the
last line of stdout is one JSON object.  The exit code is 0 only when every gate passed.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import tracing
import workloads
from hostspeed import Region
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 41
M_MMAP_THRESHOLD = -3  # glibc's mallopt parameter
MMAP_THRESHOLD = 128 * 1024  # glibc's starting value

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
# Figures only some workloads have; the traced run reports them unbounded.
WORKLOAD_UNITS = {
    "cells_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "query_samples": "count",
    "verified_share": "ratio",
    "fail_share": "ratio",
}
PER_LAYER = {
    **tracing.LAYER_UNITS,
    "trace.overhead_s": "s",
    "host.scale": "ratio",
    "host.raw_wall_s": "s",
    **{f"workload.{name}": unit for name, unit in WORKLOAD_UNITS.items()},
}


def git_commit(root: Path) -> str:
    """HEAD of the checkout; 'unknown' outside a git work tree or without git."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def pin_mmap_threshold() -> bool:
    """Have glibc serve every block over MMAP_THRESHOLD by mmap for the whole run.

    By default glibc raises its mmap threshold once a large block is freed,
    after which freed rows go back to a heap whose resident pages depend on
    the run's history: identical locate runs peaked anywhere from 183 to
    212 MB.  With the threshold fixed, a freed row's pages return at once,
    so peak RSS follows the data that is live.  False where there is no
    glibc; the allocator's own policy then stands.
    """
    try:
        return ctypes.CDLL(None).mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1
    except (OSError, AttributeError):
        return False


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fp:
            for line in fp:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args, mmap_pinned: bool) -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "commit": git_commit(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "mmap_threshold": MMAP_THRESHOLD if mmap_pinned else "allocator default",
    }


def run_workload(args) -> int:
    wl = WORKLOADS[args.workload]
    mmap_pinned = pin_mmap_threshold()
    setups = []
    for _ in range(SETUP_REPEATS):
        with Region() as region:
            workloads.purge_library()
            lib = workloads.library()
            inputs = wl.make_inputs(args.seed)
        setups.append(region)

    passes, outs = [], []
    attempted = failed = 0
    # whole passes while the next one, at the median pass's real time, still fits
    while not passes or sum(p.wall_s for p in passes) + statistics.median(
            p.wall_s for p in passes) <= args.seconds:
        with Region() as region:
            out = wl.run_pass(lib, inputs)
        passes.append(region)
        outs.append(out)
        a, f = wl.check(lib, inputs, out)
        attempted, failed = attempted + a, failed + f
    # before final_check, whose row rebuilds would otherwise set the peak
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    a, f = wl.final_check(lib, inputs, outs)
    attempted, failed = attempted + a, failed + f
    pass_times = [p.seconds for p in passes]
    wall_s = statistics.median(pass_times)
    extras = {**wl.extras(inputs, outs, pass_times, [p.scale for p in passes]),
              "fail_share": failed / attempted}

    if args.trace:
        tracer = tracing.Tracer(f"{args.workload}-seed{args.seed}")
        with tracing.instrument(lib, tracer), Region() as traced:
            out = wl.run_pass(lib, inputs)
        a, f = wl.check(lib, inputs, out)
        attempted, failed = attempted + a, failed + f
        export_counts = ((out.bytes, out.cells) if isinstance(out, workloads.ExportPass)
                         else (0, 0))
        values = {
            **tracing.layer_metrics(tracer.spans, *export_counts),
            "trace.overhead_s": traced.seconds - wall_s,
            "host.scale": statistics.median(p.scale for p in passes),
            "host.raw_wall_s": statistics.median(p.wall_s for p in passes),
            **{f"workload.{k}": extras.get(k, 0) for k in WORKLOAD_UNITS},
        }
        units = PER_LAYER
    else:
        values = {
            "setup_s": statistics.median(r.seconds for r in setups),
            "wall_s": wall_s,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END

    env = environment(args, mmap_pinned)
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"passes {len(passes)}: " + " ".join(f"{p.seconds:.4f}" for p in passes)
          + " s at reference speed; raw " + " ".join(f"{p.wall_s:.4f}" for p in passes)
          + " s; host scale " + " ".join(f"{p.scale:.3f}" for p in passes))
    shown = {**values, **{k: v for k, v in extras.items() if not args.trace}}
    for name, value in shown.items():
        print(f"{name} {value:.6g} {units.get(name) or WORKLOAD_UNITS[name]}")
    print(f"attempted {attempted} failed {failed}")

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.write(OUT_DIR / f"{stem}.spans.jsonl")
    record = {
        "env": env,
        "pass_s": pass_times,
        "pass_raw_s": [p.wall_s for p in passes],
        "pass_scale": [p.scale for p in passes],
        "setup_s": [r.seconds for r in setups],
        "setup_raw_s": [r.wall_s for r in setups],
        "extras": extras,
        "attempted": attempted,
        "failed": failed,
        "metrics": values,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS belongs to that workload."""
    worst = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        done = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)])
        worst = max(worst, done.returncode)
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    run_seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    parser.add_argument("--seconds", type=float, default=run_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = ROOT / "src"
    if not (src / "hpascal" / "__init__.py").is_file():
        print(f"perfbench: no hpascal package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
