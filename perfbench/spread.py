#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--workload W ...] [--seeds 0-9] [--seconds S]

Runs `perfbench/run.py --trace 0` once per seed for each workload (all
workloads by default) and prints, per end-to-end metric, the median of the
runs, the quartiles from `statistics.quantiles(values, n=4)`, the spread
(q3 - q1) / median, and the metric's bound from BENCHMARK.json. A spread
is flagged when it exceeds a third of the bound (setup_s is exempt from
the spread rule, but its median still counts when two sets are compared).
Runs with failed operations are listed and left out of the statistics.
Run it from the root of a checkout. Writes the per-run values to
`.bench_out/spread-<workload>.json`.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    spec = json.loads(Path("BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", default="0-9", help="inclusive range, e.g. 0-9 or 100-104")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in seeds_of(args.seeds):
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            )
            if out.returncode != 0:
                print(f"{workload} seed {seed}: run failed (exit {out.returncode})")
                ok = False
                continue
            result = json.loads(out.stdout.splitlines()[-1])
            if not result["correct"]:
                # A run with failed operations measured something else;
                # it is reported, not folded into the spread.
                print(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} failed")
                ok = False
                continue
            runs.append({"seed": seed, **result})
        Path(".bench_out").mkdir(exist_ok=True)
        Path(f".bench_out/spread-{workload}.json").write_text(json.dumps(runs, indent=1))
        if len(runs) < 2:
            continue
        print(f"{workload}: {len(runs)} runs of {args.seconds} s")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if name == "setup_s" or spread <= bound / 3 else "  <-- over bound/3"
            ok = ok and (name == "setup_s" or spread <= bound)
            print(f"  {name:26s} median {statistics.median(values):.6g}  q1 {q1:.6g}  "
                  f"q3 {q3:.6g}  spread {spread:.4f}  bound {bound}{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
