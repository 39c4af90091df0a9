"""Spans around the benchmark's own calls into tmkit, and their self times.

tmkit itself carries no instrumentation: every span is opened by the
benchmark around one call into a module's public function.  Spans are kept
in memory as ``(name, start_ns, end_ns, parent_index, op_id)`` and written
once, when the run ends.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict
from time import perf_counter_ns

OP = "op"  # the span around one whole operation


def plain_call(name, fn, *args, **kwargs):
    """The untraced counterpart of `Tracer.call`."""
    return fn(*args, **kwargs)


class Tracer:
    """Records one span per `call`, nested under the span open at the time."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.failed: Counter = Counter()
        self._parent: int | None = None
        self._op = -1

    # Spans are tuples of strings and ints, which the garbage collector stops
    # tracking; a growing list of lists would make every collection slower.
    def enter(self, name: str, op: int | None = None) -> int:
        if op is not None:
            self._op = op
        index = len(self.spans)
        self.spans.append((name, perf_counter_ns(), 0, self._parent, self._op))
        self._parent = index
        return index

    def exit(self, index: int) -> None:
        name, start, _, parent, op = self.spans[index]
        self.spans[index] = (name, start, perf_counter_ns(), parent, op)
        self._parent = parent

    def call(self, name, fn, *args, **kwargs):
        index = self.enter(name)
        try:
            return fn(*args, **kwargs)
        except BaseException:
            self.failed[name] += 1
            raise
        finally:
            self.exit(index)


def _self_ms(spans: list) -> list[float]:
    """Each span's duration minus the part its children cover, in ms."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_ns[parent] += end - start
    return [(end - start - child_ns[i]) / 1e6 for i, (_, start, end, _, _) in enumerate(spans)]


def self_times(spans: list) -> tuple[dict[str, float], dict[str, int], int]:
    """Per span name: total self time in ms and number of spans; plus the
    number of operations."""
    self_ms: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for span, ms in zip(spans, _self_ms(spans)):
        self_ms[span[0]] += ms
        calls[span[0]] += 1
    return dict(self_ms), dict(calls), calls[OP]


def per_op(spans: list) -> dict[str, list[float]]:
    """Per span name: its self time summed within each operation, in ms."""
    sums: dict[tuple, float] = defaultdict(float)
    for span, ms in zip(spans, _self_ms(spans)):
        sums[span[4], span[0]] += ms
    out: dict[str, list[float]] = defaultdict(list)
    for (_, name), ms in sums.items():
        out[name].append(ms)
    return dict(out)


def layer_table(dump: dict) -> dict[str, float]:
    """Self time per operation (ms) of every traced function, plus
    `bench.self_ms`: the part of an operation's wall time no layer covers.

    Layers measured beside the operation rather than inside it (corpus-cli's
    in-process `cli.run` spans and its interpreter/import probes, which stand
    in for the phases of the child process) are subtracted from the
    operation's self time, so the layers plus bench add up to the wall time."""
    self_ms, _, ops = self_times(dump["spans"])
    ops = max(ops, 1)
    table = {name: ms / ops for name, ms in self_ms.items() if name != OP}
    beside = {name for name, _, _, parent, _ in dump["spans"] if parent is None and name != OP}
    probes = {name: statistics.median(v) for name, v in dump.get("probes", {}).items() if v}
    table.update(probes)
    own = self_ms.get(OP, 0.0) / ops - sum(table[n] for n in beside) - sum(probes.values())
    table["bench.self_ms"] = own
    return table
