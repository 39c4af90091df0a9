#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload gate-relay --seeds 1 2 3 4 5

Runs the benchmark once per seed (untraced, with BENCHMARK.json's
`run_seconds`) and prints, for every end-to-end figure a run prints, the
median of the runs and the distance between the first and third quartile as
a share of that median, next to the bound BENCHMARK.json gives it (`-` for
a figure it does not bound).  Use it to check that the benchmark is steady
before trusting a comparison, and before bounding another figure.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        cmd = [*bench["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        cmd[0] = sys.executable if cmd[0] in ("python", "python3") else cmd[0]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        lines = proc.stdout.splitlines()
        if not json.loads(lines[-1])["correct"]:
            print(f"seed {seed}: incorrect output", file=sys.stderr)
            return 1
        figures = json.loads(next(line for line in lines if line.startswith("figures "))[8:])
        for name, value in figures.items():
            values.setdefault(name, []).append(value)
        print(f"seed {seed}: " + "  ".join(f"{k}={v:.4f}" for k, v in figures.items()))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for name, vals in values.items():
        med = statistics.median(vals)
        if not med:
            continue  # failed_ratio reads 0
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        bound = bounds.get(name)
        mark = "  WIDE" if bound is not None and spread > bound / 3 else ""
        print(f"{args.workload:11} {name:18} median {med:12.4f}  spread {spread:.4f}  "
              f"bound {'-' if bound is None else f'{bound:.2f}'}{mark}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
