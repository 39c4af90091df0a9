#!/usr/bin/env python3
"""Per-layer self time of each workload, read from traced runs' span dumps.

    python3 perfbench/run.py --workload gate-relay --trace 1
    python3 perfbench/report.py                 # every dump in perfbench/out/
    python3 perfbench/report.py perfbench/out/spans-gate-relay.json

For every workload it prints each layer's self time per operation and
`bench.self_ms`, the benchmark's own share, so the rows add up to the mean
wall time of a traced operation.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from spans import OP, layer_table


def main(argv: list[str]) -> int:
    paths = [Path(p) for p in argv] or sorted((Path(__file__).parent / "out").glob("spans-*.json"))
    if not paths:
        print("no span dumps: run perfbench/run.py with --trace 1 first", file=sys.stderr)
        return 2
    for path in paths:
        dump = json.loads(path.read_text(encoding="utf-8"))
        walls = [(end - start) / 1e6 for name, start, end, _, _ in dump["spans"] if name == OP]
        wall = sum(walls) / max(len(walls), 1)
        table = layer_table(dump)
        print(f"{dump['workload']}  seed {dump['seed']}  {len(walls)} traced operations, "
              f"mean wall {wall:.4f} ms")
        for name, ms in sorted(table.items(), key=lambda kv: -kv[1]):
            print(f"  {name:34} {ms:10.4f} ms/op  {100 * ms / wall if wall else 0:6.1f} %")
        print(f"  {'sum':34} {sum(table.values()):10.4f} ms/op")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
