#!/usr/bin/env python3
"""tmkit benchmark: one workload, one client, one operation at a time.

    python3 perfbench/run.py --workload large-doc --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository; the benchmark imports tmkit from
`src/` and reads the corpus from `corpus/`.  It prints human-readable lines
and, as its last line, one JSON object with `correct`, `attempted`, `failed`
and `metrics`.  With `--trace 0` the metrics are the end-to-end ones; with
`--trace 1` every input runs untraced and then traced, and the metrics are
per layer.
A traced run also writes its spans to `perfbench/out/`, which
`perfbench/report.py` summarises.  See perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # neither the benchmark nor tmkit leaves bytecode behind

from spans import OP, Tracer, layer_table, per_op, plain_call, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_REPS = 5
WORKLOADS = ("corpus-cli", "large-doc", "gate-relay", "small-docs")


def metric_units(kind: str) -> dict[str, str]:
    """The metrics BENCHMARK.json names under `kind` (`end_to_end` or
    `per_layer`), with their units: the JSON line reports exactly these."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in bench[kind]}


# p99.9 is left out: on small-docs it would rest on a dozen samples of
# thousands and follow every pause of the machine.
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest ladder percentile with at least ten samples beyond it
    (nearest rank), and its value."""
    ordered = sorted(latencies)
    n = len(ordered)
    p = next((p for p in TAIL_LADDER if n * (100 - p) / 100 >= 10), TAIL_LADDER[-1])
    return p, ordered[max(1, math.ceil(p * n / 100)) - 1]


def environment() -> dict:
    from workloads import CLI_PREFIX

    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "cli_command": [Path(CLI_PREFIX[0]).name, *CLI_PREFIX[1:]],
        "cli_env": {"PYTHONPATH": "src"},
    }


def measure(workload, seconds: float, tracer) -> dict:
    """Closed loop for `seconds`.  With a tracer, every input runs twice in
    a row, untraced and then traced, so both halves see the same inputs and
    conditions."""
    result = {"untraced": [], "traced": [], "by_class": {}, "bytes": 0, "attempted": 0,
              "failed": 0, "failures": [], "sizes": {}, "checked": 0, "probes": {}}
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        traced = tracer is not None and i % 2 == 1
        k = i // 2 if tracer is not None else i  # which input
        span = tracer.enter(OP, i) if traced else None
        start = time.perf_counter()
        try:
            nbytes, out = workload.op(k, tracer.call if traced else plain_call)
            error = None
        except Exception as exc:  # any exception fails the operation
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if traced:
            tracer.exit(span)
        if error is None:
            try:
                sizes = workload.check(k, out)
            except Exception as exc:  # a Mismatch, or output the oracle cannot read
                error = f"oracle mismatch: {type(exc).__name__}: {exc}"
        result["attempted"] += 1
        if error is not None:
            result["failed"] += 1
            if len(result["failures"]) < 3:
                result["failures"].append(f"op {i}: {error}")
        else:
            result["traced" if traced else "untraced"].append(elapsed * 1000)
            result["bytes"] += nbytes
            if not traced:
                result["by_class"].setdefault(workload.key(k), []).append(elapsed * 1000)
            if traced:
                result["checked"] += 1
                for name, value in sizes.items():
                    result["sizes"][name] = result["sizes"].get(name, 0) + value
        if traced:
            beside(workload, k, tracer, result)
        i += 1
    return result


def beside(workload, k: int, tracer, result: dict) -> None:
    """Layers a workload measures beside a traced operation rather than
    inside it: corpus-cli's in-process `cli.run` and interpreter probes."""
    if not hasattr(workload, "beside"):
        return
    result["attempted"] += 1
    try:
        out, probes = workload.beside(k, tracer.call)
        workload.check(k, out)
    except Exception as exc:  # a failure or an oracle mismatch
        result["failed"] += 1
        result["failures"].append(f"beside op {k}: {type(exc).__name__}: {exc}")
        return
    for name, ms in probes.items():
        result["probes"].setdefault(name, []).append(ms)


def summarise(latencies: list[float], nbytes: int) -> dict:
    if not latencies:
        return {"n": 0}
    p, value = tail(latencies)
    return {
        "n": len(latencies),
        "latency_p50_ms": statistics.median(latencies),
        "tail_percentile": p,
        "latency_tail_ms": value,
        "throughput_kib_s": nbytes / 1024 / (sum(latencies) / 1000),
    }


def set_up(args):
    """Import tmkit and the workloads afresh, build the inputs from the seed
    and run one checked warm-up operation, so lazy set-up is paid before
    timing.  Returns the seconds taken and the workload."""
    for name in [m for m in sys.modules if m in ("workloads", "gen") or m.split(".")[0] == "tmkit"]:
        del sys.modules[name]
    start = time.perf_counter()
    workloads = importlib.import_module("workloads")
    workload = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    workload.check(0, workload.op(0, plain_call)[1])
    return time.perf_counter() - start, workload


def run_one(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    setups, workload = [], None
    for _ in range(SETUP_REPS):
        del workload  # the previous set-up's inputs and modules go first
        gc.collect()
        seconds, workload = set_up(args)
        setups.append(seconds)
    setup_s = statistics.median(setups)

    env = environment()
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    tracer = Tracer() if args.trace else None
    res = measure(workload, args.seconds, tracer)
    attempted, failed = res["attempted"], res["failed"]
    correct = failed == 0 and attempted > 0
    for line in res["failures"]:
        print(f"FAILED {line}")

    if not args.trace:
        base = summarise(res["untraced"], res["bytes"])
        n = base["n"]
        floors = [min(v) for v in res["by_class"].values()]
        rows = [
            ("latency_p50_ms", base.get("latency_p50_ms", 0.0), "ms", f"n={n}"),
            ("latency_tail_ms", base.get("latency_tail_ms", 0.0), "ms",
             f"p{base.get('tail_percentile', 0):g}, n={n}"),
            ("latency_floor_ms", statistics.fmean(floors) if floors else 0.0, "ms",
             f"mean over {len(floors)} input classes of the fastest, n={n}"),
            ("throughput_kib_s", base.get("throughput_kib_s", 0.0), "KiB/s", f"n={n}"),
            ("failed_ratio", failed / max(attempted, 1), "ratio", f"{failed} of {attempted} attempted"),
            ("peak_rss_mib", workload.peak_rss_mib(), "MiB",
             "largest tmkit child" if args.workload == "corpus-cli" else "this process"),
            ("setup_s", setup_s, "s", f"median of {SETUP_REPS}"),
        ]
        for name, value, unit, note in rows:
            print(f"{name:18} {value:12.4f} {unit:6}  ({note})")
        values = {name: value for name, value, _, _ in rows}
        print("figures " + json.dumps(values))  # all of them, for spread.py
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in metric_units("end_to_end").items()}
    else:
        values = traced_metrics(workload, tracer, res, env, args)
        # a function the workload does not call reads 0
        metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
                   for name, unit in metric_units("per_layer").items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def growth_probe(workload, tracer) -> dict:
    """Per function: median self ms per operation in the traced run, and on
    one run of the workload's larger probe input, with both inputs' labels."""
    probe = workload.probe()
    if probe is None:
        return {}
    big, (base_label, big_label) = probe
    big_tracer = Tracer()
    big.check(0, big.op(0, big_tracer.call)[1])
    large = self_times(big_tracer.spans)[0]
    base = per_op(tracer.spans)
    return {fn: (statistics.median(base[fn]), large[fn], base_label, big_label)
            for fn in large if fn in base}


def traced_metrics(workload, tracer, res, env, args) -> dict:
    untraced = summarise(res["untraced"], 0)
    traced = summarise(res["traced"], 0)
    growth = growth_probe(workload, tracer)
    dump = {
        "workload": args.workload,
        "seed": args.seed,
        "environment": env,
        "spans": tracer.spans,
        "probes": res["probes"],
        "untraced_ms": res["untraced"],
        "traced_ms": res["traced"],
        "growth": growth,
    }
    path = OUT / f"spans-{args.workload}.json"
    OUT.mkdir(exist_ok=True)
    path.write_text(json.dumps(dump), encoding="utf-8")

    table = layer_table(dump)
    _, calls, ops = self_times(tracer.spans)
    ops = max(ops, 1)
    values = {"cli.interpreter_ms": table.get("cli.interpreter_ms", 0.0),
              "cli.import_ms": table.get("cli.import_ms", 0.0),
              "bench.self_ms": table["bench.self_ms"]}
    for fn, n in calls.items():
        values[f"{fn}.ms"] = table.get(fn, 0.0)
        values[f"{fn}.calls"] = n / ops
        values[f"{fn}.failed"] = tracer.failed.get(fn, 0)
    for name, total in res["sizes"].items():
        values[name] = total / max(res["checked"], 1)
    for fn, (small, large, small_at, large_at) in growth.items():
        values[f"{fn}.growth"] = large / small if small else 0.0
        print(f"growth {fn:30} {large / small if small else 0:8.2f}x  "
              f"({small:.2f} ms at {small_at} -> {large:.2f} ms at {large_at})")
    if untraced["n"] and traced["n"]:
        overhead = traced["latency_p50_ms"] - untraced["latency_p50_ms"]
        values["trace.overhead_ms"] = overhead
        values["trace.overhead_pct"] = 100 * overhead / untraced["latency_p50_ms"]
        print(f"latency_p50_ms untraced {untraced['latency_p50_ms']:.4f} (n={untraced['n']}), "
              f"traced {traced['latency_p50_ms']:.4f} (n={traced['n']}), "
              f"overhead {overhead:.4f} ms ({values['trace.overhead_pct']:.2f} %)")
    for name, ms in sorted(table.items(), key=lambda kv: -kv[1]):
        print(f"self {name:34} {ms:10.4f} ms/op")
    print(f"spans written to {path.relative_to(ROOT)}")
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in ("src/tmkit/__init__.py", "corpus/mentcare.tm") if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: {', '.join(missing)} not found under {ROOT}; run from a tmkit checkout",
              file=sys.stderr)
        return 2
    if args.workload != "all":
        return run_one(args)
    # each workload in its own process, so peak memory stays per workload
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True)
        print(proc.stdout, end="")
        print(proc.stderr, end="", file=sys.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
