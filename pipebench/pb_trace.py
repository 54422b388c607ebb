"""Span tracing for the pipeline benchmark, installed from outside the program.

A :class:`Tracer` wraps public entry points of each layer (and the few
private ones that mark a layer boundary, such as the server's apply
step) with a recorder that keeps one span per call in memory::

    [name, start_ns, end_ns, parent, block_id, n]

``parent`` is the index of the enclosing span on the same thread (-1 for
a root), ``block_id`` the ingest block's sequence number (-1 when the
call is not tied to a block; children inherit it) and ``n`` the call's
size (events, bytes or segments).  Timestamps come from
``time.perf_counter_ns``, the system-wide monotonic clock, so server and
generator spans share one time line.

Run as a script, this module is the traced server launcher: it installs
the server-side wrappers, runs the CLI's ``serve``, and writes the spans
out when the server exits::

    python pipebench/pb_trace.py --spans SPANS.json serve SPECS [serve options]
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

Span = Tuple[str, int, int, int, int, int]

DISTINCT_STRIDE = 8


class _Json:
    """Stand-in for the ``json`` module whose ``loads`` is traced."""

    def __init__(self, module, loads) -> None:
        self._module = module
        self.loads = loads

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """Records spans from wrapped callables; see the module docstring."""

    def __init__(self) -> None:
        self._spans: Dict[int, Span] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        #: Extra sums measured at a boundary (e.g. distinct values).
        self.sums: Dict[str, float] = defaultdict(float)
        self._patched: List[Tuple[object, str, object]] = []

    def traced(
        self,
        fn: Callable,
        name: str,
        size: Optional[Callable] = None,
        block: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` recording one span per call.

        ``size(args, result)`` gives the span's ``n``; ``block(args)`` its
        block id; ``after(args, result)`` runs once the span has closed,
        so its cost stays out of the span.
        """
        spans, ids, local, clock = self._spans, self._ids, self._local, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            parent, inherited = stack[-1] if stack else (-1, -1)
            span_id = next(ids)
            block_id = block(args) if block is not None else inherited
            stack.append((span_id, block_id))
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                n = size(args, result) if size is not None else 0
                spans[span_id] = (name, start, end, parent, block_id, n)
                if after is not None:
                    after(args, result)

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap(self, owner, attr: str, name: str, **hooks) -> None:
        """Replace ``owner.attr`` (function, method or classmethod)."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patched.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(self.traced(raw.__func__, name, **hooks)))
        else:
            setattr(owner, attr, self.traced(raw, name, **hooks))

    def restore(self) -> None:
        """Put back everything :meth:`wrap` replaced."""
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    def spans(self) -> List[Optional[Span]]:
        """Spans indexed by id (``None`` for a span still open)."""
        snapshot = dict(self._spans)
        count = max(snapshot) + 1 if snapshot else 0
        return [snapshot.get(i) for i in range(count)]

    def dump(self, path: str) -> None:
        with open(path, "w") as out:
            json.dump({"spans": self.spans(), "sums": dict(self.sums)}, out)


def _len_arg(index: int) -> Callable:
    return lambda args, result: len(args[index])


def _len_result(args, result) -> int:
    return len(result) if result is not None else 0


def install_server(tracer: Tracer) -> None:
    """Wrap every layer the server and an in-process Monitor run through."""
    from repro.core import qlove, summary
    from repro.series import index
    from repro.service import binary, monitor, protocol, server
    from repro.sketches import exact
    from repro.store import query, store

    # wire: decoding and encoding only (never the blocking socket read).
    protocol.json = _Json(
        protocol.json,
        tracer.traced(protocol.json.loads, "wire.decode", size=_len_arg(0)),
    )
    tracer.wrap(binary, "decode_request", "wire.decode", size=_len_arg(1))
    tracer.wrap(protocol, "encode_message", "wire.encode", size=_len_result)
    tracer.wrap(binary, "encode_response", "wire.encode", size=_len_result)
    # server: queue boundary (put blocks on backpressure; get is the
    # consumer's idle time), the consumer's apply step, drain waits.
    tracer.wrap(
        server.IngestQueue, "put", "server.put",
        size=lambda args, result: len(args[1][2]),
        block=lambda args: args[1][1] if args[1][1] is not None else -1,
    )
    tracer.wrap(server.IngestQueue, "get", "server.get")
    tracer.wrap(
        server.TelemetryServer, "_apply", "server.apply",
        size=lambda args, result: len(args[3]),
        block=lambda args: args[2] if args[2] is not None else -1,
    )
    tracer.wrap(server.TelemetryServer, "_wait_drained", "server.drain_wait")
    # monitor
    tracer.wrap(monitor.Monitor, "observe_batch", "monitor.observe_batch", size=_len_arg(2))
    tracer.wrap(monitor.MetricChannel, "_seal", "monitor.seal")
    tracer.wrap(monitor.Monitor, "save", "monitor.save")
    tracer.wrap(monitor.Monitor, "snapshot", "monitor.snapshot")
    tracer.wrap(monitor.Monitor, "results", "monitor.results")

    # core: the fused Level-1 kernel, seal (Level-2) and query.  The
    # distinct-value share of the kernel's input is sampled on every
    # DISTINCT_STRIDE-th call; counting every call would double the
    # kernel's own np.unique.
    extend_calls = itertools.count()

    def distinct(args, result) -> None:
        if next(extend_calls) % DISTINCT_STRIDE:
            return
        values = args[1]
        tracer.sums["core.extend_values"] += len(values)
        tracer.sums["core.extend_distinct"] += len(np.unique(values))

    tracer.wrap(summary.SubWindowBuilder, "extend", "core.extend", size=_len_arg(1), after=distinct)
    tracer.wrap(qlove.QLOVEPolicy, "seal_subwindow", "core.seal")
    tracer.wrap(qlove.QLOVEPolicy, "query", "core.query")
    # sketches: the exact policy and state (de)serialisation.
    tracer.wrap(exact.ExactPolicy, "accumulate_batch", "sketches.exact_accumulate", size=_len_arg(1))
    tracer.wrap(exact.ExactPolicy, "query", "sketches.exact_query")
    tracer.wrap(qlove.QLOVEPolicy, "to_state", "sketches.to_state")
    tracer.wrap(exact.ExactPolicy, "to_state", "sketches.to_state")
    # No workload restores an exact policy (nothing evicts or resurrects it).
    tracer.wrap(qlove.QLOVEPolicy, "from_state", "sketches.from_state")
    # series
    tracer.wrap(index.SeriesIndex, "observe_batch", "series.observe_batch", size=_len_arg(2))
    tracer.wrap(index.SeriesIndex, "group_by", "series.group_by")
    # store
    tracer.wrap(store.SegmentStore, "append", "store.append")
    for fn in ("query_range", "query_at", "query_series"):
        tracer.wrap(query, fn, "store.query")


def install_client(tracer: Tracer) -> None:
    """Wrap the generator's client calls and its request encoding."""
    from repro.service import binary, client, protocol

    tracer.wrap(client.TelemetryClient, "observe", "client.observe", size=_len_arg(2))
    tracer.wrap(protocol, "encode_message", "client.encode", size=_len_result)
    tracer.wrap(binary, "encode_request", "client.encode", size=_len_result)


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
#: Root spans that are the ingest consumer's work and its idle time.
INGEST_ROOTS = ("server.apply", "monitor.observe_batch")
IDLE_ROOT = "server.get"


def _clipped(start: int, end: int, windows: Sequence[Tuple[int, int]]) -> int:
    return sum(max(0, min(end, hi) - max(start, lo)) for lo, hi in windows)


def analyse(span_lists: Sequence[Sequence[Optional[Span]]], windows: Sequence[Tuple[int, int]],
            since: int = 0) -> dict:
    """Per-name counts, sizes, self times and durations, plus the consumer's
    busy and idle time inside the ingest ``windows``.

    Apart from busy and idle time, spans that start before ``since``
    (set-up warm-up calls and an untimed prefill) are left out.  A span's self time is its
    duration minus its children's durations.  Each list in
    ``span_lists`` comes from one process (parents index into their own
    list).
    """
    count: Dict[str, int] = defaultdict(int)
    size: Dict[str, int] = defaultdict(int)
    self_ns: Dict[str, int] = defaultdict(int)
    durations: Dict[str, List[float]] = defaultdict(list)
    busy_ns = idle_ns = 0
    total = 0
    for spans in span_lists:
        child_ns = [0] * len(spans)
        for span in spans:
            if span is not None and span[3] >= 0:
                child_ns[span[3]] += span[2] - span[1]
        for i, span in enumerate(spans):
            if span is None:
                continue
            name, start, end, parent = span[0], span[1], span[2], span[3]
            if parent < 0 and name in INGEST_ROOTS:
                busy_ns += _clipped(start, end, windows)
            elif parent < 0 and name == IDLE_ROOT:
                idle_ns += _clipped(start, end, windows)
            if start < since:
                continue
            total += 1
            count[name] += 1
            size[name] += span[5]
            self_ns[name] += end - start - child_ns[i]
            durations[name].append((end - start) / 1e6)
    return {
        "count": dict(count),
        "size": dict(size),
        "self_s": {name: ns / 1e9 for name, ns in self_ns.items()},
        "duration_ms": dict(durations),
        "busy_s": busy_ns / 1e9,
        "idle_s": idle_ns / 1e9,
        "window_s": sum(hi - lo for lo, hi in windows) / 1e9,
        "spans": total,
    }


def load(path: str) -> Tuple[List[Optional[Span]], Dict[str, float]]:
    with open(path) as source:
        data = json.load(source)
    return data["spans"], data["sums"]


def main(argv: List[str]) -> int:
    if len(argv) < 3 or argv[0] != "--spans":
        print("usage: pb_trace.py --spans PATH serve SPECS [serve options]", file=sys.stderr)
        return 2
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    from repro.evalkit import cli

    tracer = Tracer()
    install_server(tracer)
    try:
        return cli.main(argv[2:])
    finally:
        tracer.dump(argv[1])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
