"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workload eval-stream --seeds 1-10

Runs bench/run.py once per seed (--trace 0, --seconds from BENCHMARK.json),
one run at a time, and prints per metric the median, the interquartile range as
a share of the median (`statistics.quantiles(values, n=4)`), and that share
against the metric's bound in BENCHMARK.json; then the same spread of the raw
(uncalibrated) times, for comparison.  Exits 1 if a run fails or a spread
exceeds its bound.
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


def seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="range 'a-b' or list 'a,b,c'")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    raw: dict[str, list[float]] = {}
    ok = True
    for seed in seeds(args.seeds):
        proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
                               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                              stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        for line in lines:
            if line.startswith("raw."):
                name, value = line[4:].split()[:2]
                raw.setdefault(name, []).append(float(value))
        ok &= proc.returncode == 0 and result["correct"]
        row = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed}: " + " ".join(f"{k}={v:.5g}" for k, v in row.items()), flush=True)
        for k, v in row.items():
            values.setdefault(k, []).append(v)
    for name, vals in values.items():
        q1, q2, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / q2
        bound = bounds[name]
        ok &= share <= bound
        print(f"{name:14s} median {q2:.5g}  iqr/median {share:.4f}  bound {bound}"
              f"  ({share / bound:.2f} of bound)")
    for name, vals in raw.items():
        q1, q2, q3 = statistics.quantiles(vals, n=4)
        print(f"raw.{name:10s} median {q2:.5g}  iqr/median {(q3 - q1) / q2:.4f}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
