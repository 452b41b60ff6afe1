"""Check that one workload's end-to-end metrics are steady on this machine.

    python3 bench/steady.py --workload closed_form --runs 10 --first-seed 1

Runs ``bench/run.py`` once per seed (first-seed, first-seed + 1, ...), one run
after another, for the run length in BENCHMARK.json.  For every end-to-end
metric it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``), the spread (Q3 - Q1) / median and that
spread as a share of the metric's bound.  A spread below a third of the bound
is marked ``ok``.  It also prints the share of failed operations of each run,
which must be the same in every run.  Run from the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {name: [] for name in bounds}
    shares = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: outputs are wrong\n{proc.stderr}", file=sys.stderr)
            return 1
        shares.append(result["failed"] / result["attempted"])
        line = [f"seed {seed:3d}"]
        for name in bounds:
            v = result["metrics"][name]["value"]
            values[name].append(v)
            line.append(f"{name}={v:.5g}")
        print("  ".join(line) + f"  failed={result['failed']}/{result['attempted']}", flush=True)

    print(f"\n{args.workload}: {args.runs} runs")
    print(f"{'metric':14s} {'median':>11s} {'Q1':>11s} {'Q3':>11s} {'spread':>8s} {'bound':>6s}  share")
    steady = True
    for name, vs in values.items():
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med
        share = spread / bounds[name]
        ok = share < 1 / 3
        steady = steady and ok
        print(f"{name:14s} {med:11.5g} {q1:11.5g} {q3:11.5g} {spread:8.2%} {bounds[name]:6.2f}  "
              f"{share:5.2f} {'ok' if ok else 'WIDE'}")
    same_share = len(set(shares)) == 1
    print(f"failed share {sorted(set(shares))}: {'same in every run' if same_share else 'DIFFERS'}")
    return 0 if steady and same_share else 1


if __name__ == "__main__":
    sys.exit(main())
