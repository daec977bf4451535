"""Span tracing of the otfdm modules from outside, with no source change.

`Tracer` replaces the names the runners call with timing wrappers:

- in `otfdm.harness`, every function imported from another otfdm module,
  plus `SeededRng`;
- in `otfdm.transmitter`, `modulate`, `make_rs_core`, `build_rs_block`
  and `dft`;
- in `otfdm.receiver`, `modulate`.

Each call records a span (name, start, end, parent span, trial) in memory.
The trial id is the `stream_id` of the latest `SeededRng` the harness built.
The runner call itself is recorded by `Tracer.runner`, so every other span
nests under one runner span. Leaving the `with` block restores every
original name.
"""

from __future__ import annotations

import inspect
import json
from collections import defaultdict
from time import perf_counter

MODULES = ("harness", "transmitter", "sequences", "numerics", "channel",
           "receiver")


def _targets():
    """[(module object, attribute name), ...] of every name to wrap."""
    import otfdm.harness
    import otfdm.receiver
    import otfdm.transmitter

    names = []
    for attr, obj in vars(otfdm.harness).items():
        owner = getattr(obj, "__module__", "")
        if (inspect.isfunction(obj) or obj is otfdm.harness.SeededRng) and \
                owner.startswith("otfdm.") and owner != "otfdm.harness":
            names.append((otfdm.harness, attr))
    names += [(otfdm.transmitter, attr) for attr in
              ("modulate", "make_rs_core", "build_rs_block", "dft")]
    names.append((otfdm.receiver, "modulate"))
    return names


def _span_name(obj) -> str:
    return f"{obj.__module__.rsplit('.', 1)[-1]}.{obj.__name__}"


class Tracer:
    """Context manager that wraps the otfdm call sites and records spans.

    `spans` holds (name, start_s, end_s, parent index or -1, trial) tuples;
    `counts` holds work counts computed from the wrapped calls' arguments
    and results (channel gain samples, convolutions, multiply-accumulates).
    """

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self.trial = -1
        self._stack: list = []
        self._saved: list = []

    def __enter__(self):
        for module, attr in _targets():
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return False

    def _open(self):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index, parent, perf_counter()

    def _close(self, name, index, parent, start):
        end = perf_counter()
        self._stack.pop()
        self.spans[index] = (name, start, end, parent, self.trial)

    def _wrap(self, original):
        name = _span_name(original)
        count = _COUNTERS.get(name)
        is_rng = name == "numerics.SeededRng"

        def traced(*args, **kwargs):
            index, parent, start = self._open()
            try:
                out = original(*args, **kwargs)
                if is_rng:
                    self.trial = out.stream_id
            finally:
                self._close(name, index, parent, start)
            if count is not None:
                count(self.counts, args, out)
            return out

        return traced

    def runner(self, name: str, fn, *args):
        """Call a runner as the root span `harness.<name>`."""
        index, parent, start = self._open()
        try:
            return fn(*args)
        finally:
            self._close(f"harness.{name}", index, parent, start)

    def write_jsonl(self, path) -> None:
        """Write the spans, one JSON object a line, times in microseconds."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="ascii") as fh:
            for name, start, end, parent, trial in self.spans:
                fh.write(json.dumps({
                    "name": name, "start_us": (start - t0) * 1e6,
                    "end_us": (end - t0) * 1e6, "parent": parent,
                    "trial": trial}) + "\n")


def _count_gains(counts, args, ch):
    counts["channel.gain_samples"] += ch.gains.size


def _count_apply(counts, args, out):
    signal, ch = args[0], args[1]
    taps = ch.kernels.shape[0]
    counts["channel.apply_channel.convolutions"] += taps
    counts["channel.apply_channel.macs"] += taps * len(signal) * ch.ir_len


_COUNTERS = {
    "channel.tdlc_realization": _count_gains,
    "channel.hst_realization": _count_gains,
    "channel.flat_realization": _count_gains,
    "channel.apply_channel": _count_apply,
}


class Profile:
    """Self-time table and work counts summed over several traced passes."""

    def __init__(self):
        self.table = defaultdict(lambda: [0, 0.0, 0.0])
        self.runner_wall = 0.0
        self.runner_children = 0.0
        self.counts = defaultdict(int)

    def add(self, tracer: Tracer) -> None:
        table, wall, children = self_times(tracer.spans)
        for name, row in table.items():
            for i, value in enumerate(row):
                self.table[name][i] += value
        self.runner_wall += wall
        self.runner_children += children
        for key, value in tracer.counts.items():
            self.counts[key] += value

    def module_self(self) -> dict:
        """Self seconds per module, keyed by the span name's prefix."""
        out = dict.fromkeys(MODULES, 0.0)
        for name, (_, _, self_s) in self.table.items():
            out[name.split(".", 1)[0]] += self_s
        return out


def self_times(spans):
    """Per span name: [calls, inclusive seconds, self seconds]; plus the
    runner wall time and the time of the runners' direct children."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    table = defaultdict(lambda: [0, 0.0, 0.0])
    runner_wall = runner_children = 0.0
    for i, (name, start, end, parent, _) in enumerate(spans):
        row = table[name]
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - child_time[i]
        if parent < 0:
            runner_wall += end - start
            runner_children += child_time[i]
    return table, runner_wall, runner_children
