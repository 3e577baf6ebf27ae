"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/spread.py --seeds 1-10                     # every workload, untraced
    python3 perfbench/spread.py --seeds 1-5 --trace 1
    python3 perfbench/spread.py --seeds 1-10 --out perfbench/baseline.json

Runs are one at a time, seeds in the outer loop so slow spells of the
host fall on every workload alike; each run measures run_seconds of
BENCHMARK.json, as the benchmark is run for its results.  For each metric it prints the
median, the quartiles (statistics.quantiles, n=4) and the spread, the
interquartile distance as a share of the median; an end-to-end spread
at or above a third of its bound in BENCHMARK.json is flagged.  --out
merges the summary into a JSON file, under "trace0" or "trace1".
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarise(values: list[float]) -> dict[str, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    workloads = [w["name"] for w in config["workloads"]]
    seconds = config["run_seconds"]

    values: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    units: dict[str, str] = {}
    env = None
    for seed in args.seeds:
        for workload in workloads:
            cmd = [*config["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(args.trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            if done.returncode or not lines:
                print(done.stdout + done.stderr, file=sys.stderr)
                print(f"{workload} seed {seed}: exit {done.returncode}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            record = json.loads(
                (BENCH_DIR / "out" / f"{workload}-seed{seed}-trace{args.trace}.json").read_text())
            env = env or {k: v for k, v in record["env"].items()
                          if k not in ("workload", "seed")}
            shown = []
            for name, m in result["metrics"].items():
                values[workload].setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
                if not args.trace:
                    shown.append(f"{name}={m['value']:.4g}")
            print(f"{workload} seed {seed}: " + " ".join(shown), flush=True)

    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    summary = {}
    for workload, metrics in values.items():
        summary[workload] = {"seeds": args.seeds, "metrics": {}}
        for name, vals in metrics.items():
            s = {"unit": units[name], **summarise(vals)}
            summary[workload]["metrics"][name] = s
            flag = ""
            if name in bounds and s["spread"] >= bounds[name] / 3:
                flag = f"  <-- at or above a third of bound {bounds[name]}"
            print(f"{workload:10s} {name:32s} median {s['median']:.6g} {units[name]} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f}{flag}")

    if args.out:
        merged = json.loads(args.out.read_text()) if args.out.exists() else {}
        section = merged.setdefault(f"trace{args.trace}", {})
        section["env"] = env
        section["seconds"] = seconds
        section.setdefault("workloads", {}).update(summary)
        args.out.write_text(json.dumps(merged, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
