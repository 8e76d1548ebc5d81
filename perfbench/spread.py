"""Run-to-run spread of the end-to-end metrics, checked against the bounds.

    python3 perfbench/spread.py --workload verify-claims --seeds 1-10

Runs ``run.py --trace 0`` once per seed, one run at a time, and prints for
each end-to-end metric its median and the distance between its first and
third quartile (``statistics.quantiles(values, n=4)``) as a share of the
median, next to a third of the metric's bound in BENCHMARK.json.  Each
run lasts BENCHMARK.json's run_seconds.  Exits 1 if a run fails or a
spread exceeds a third of its bound.  ``--json PATH`` also writes every
run's metrics; baseline.json's end-to-end figures were computed from them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="perfbench/spread.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, type=seed_range, help="e.g. 1-10")
    p.add_argument("--json", help="write every run's metrics here")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=180)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            print(f"seed {seed}: run failed with exit {proc.returncode}")
            return 1
        result = json.loads(lines[-1])
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: " + ", ".join(
            f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()), flush=True)

    ok = True
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        steady = spread < bound / 3
        ok &= steady
        print(f"{name:12s} median {median:10.5g}  spread {spread:7.2%}  "
              f"bound/3 {bound / 3:7.2%}  {'ok' if steady else 'TOO WIDE'}")
    if args.json:
        Path(args.json).parent.mkdir(parents=True, exist_ok=True)
        Path(args.json).write_text(json.dumps(runs, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
