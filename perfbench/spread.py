"""Run the benchmark over several seeds and report each metric's quartile spread.

    python3 perfbench/spread.py --seeds 10 --workloads hard-solve covers
    python3 perfbench/spread.py --seeds 10 --record perfbench/record.json

Runs one workload at a time, one process at a time, with the run_seconds of
BENCHMARK.json. For each end-to-end metric it prints the median, the first
and third quartiles (statistics.quantiles, n=4) and their distance as a share
of the median, next to the metric's bound. --record also writes the machine,
these figures as a baseline, and the per-layer table (which end-to-end metric
on which workload each per-layer metric should move).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import metrics
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stdout}")
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--workloads", nargs="+", default=list(workloads.WORKLOADS))
    ap.add_argument("--record", type=Path)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    baseline = {}
    for workload in args.workloads:
        values: dict[str, list[float]] = {m[0]: [] for m in metrics.END_TO_END}
        for seed in range(args.seeds):
            result = run_once(workload, seed, seconds)
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
        baseline[workload] = {}
        for name, unit, _better, bound in metrics.END_TO_END:
            q1, med, q3, spread = metrics.quartile_spread(values[name])
            baseline[workload][name] = {"unit": unit, "median": med, "q1": q1, "q3": q3,
                                        "spread": spread, "values": values[name]}
            print(f"  {name:12s} median {med:10.4f} {unit:3s} q1 {q1:10.4f} q3 {q3:10.4f} "
                  f"spread {spread:.3f} (bound {bound}, a third is {bound / 3:.3f})", flush=True)
    if args.record:
        record = {
            "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                        "platform": platform.platform()},
            "run_seconds": seconds,
            "timings": "reference seconds: scaled by the host-speed probe (hostspeed.py)",
            "seeds": list(range(args.seeds)),
            "baseline": baseline,
            "layer_effects": [
                {"metric": name, "unit": unit, "moves": [f"{m} on {w}" for m, w in moves],
                 **({"note": metrics.LAYER_NOTES[name]} if name in metrics.LAYER_NOTES else {})}
                for name, unit, _better, moves in metrics.PER_LAYER
            ],
        }
        args.record.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
