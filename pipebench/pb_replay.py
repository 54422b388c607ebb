"""The offline replay every run is checked against, and the read mix.

The replay feeds the same seeded rounds, block by block, into an
in-process :class:`~repro.service.Monitor` (plus a
:class:`~repro.store.HistoryWriter` when the workload records history)
and answers every read the run made.  It runs round by round in the
idle gap after each measured round, untimed, so the measured rounds
spread over the whole run and average over more host-speed phases.

Two substitutions keep the replay fast without changing a byte of any
answer, as the repository's equivalence batteries pin: labeled metrics
replay without the eviction cap (evicted series resurrect
bit-identically), and exact metrics replay on the ``dict`` frequency
map instead of the red-black tree (identical results).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from pb_common import DATASET, Read, RunRecord, Workload, canonical, round_seed, value_error_pct

#: Windows up to this many events have every evaluation checked against
#: exact quantiles; a window ten times larger, every tenth evaluation.
EXACT_EVENTS_PER_CHECK = 100_000


def round_generator(workload: Workload, seed: int, round_index: int, host: str = "127.0.0.1",
                    port: int = 0, **kwargs):
    """The ``LoadGenerator`` of one round; round ``-1`` is the prefill."""
    from repro.service.client import LoadGenerator

    prefill = round_index < 0
    return LoadGenerator(
        host, port,
        dataset=DATASET,
        events=workload.prefill_events if prefill else workload.round_events,
        seed=round_seed(seed, round_index),
        block_size=workload.prefill_block_size if prefill else workload.block_size,
        **kwargs,
    )


def round_values(workload: Workload, seed: int, round_index: int) -> np.ndarray:
    """The events of one round: exactly what ``LoadGenerator.run`` sends."""
    return round_generator(workload, seed, round_index).event_sequence()


def labelsets(workload: Workload) -> List[Dict[str, str]]:
    from repro.series.labels import deterministic_labelsets

    schema = next(spec["labels"] for spec in workload.specs if spec.get("labels"))
    return deterministic_labelsets(schema, workload.series, workload.fanout)


def periods_after(workload: Workload, metric: str, round_index: int) -> int:
    spec = next(spec for spec in workload.specs if spec["name"] == metric)
    return workload.events_before(round_index + 1) // spec["window"]["period"]


def read_request(workload: Workload, read: Read, round_index: int) -> Tuple[str, tuple, dict]:
    """``(method, args, kwargs)`` of a read, shared by the client and the
    in-process monitor so both are asked exactly the same question."""
    if read.op == "snapshot":
        return "snapshot", (), {}
    if read.op == "results":
        if workload.labeled:
            labels = labelsets(workload)[read.arg % workload.series]
            return "results", (read.metric,), {"labels": labels}
        return "results", (read.metric,), {}
    if read.op == "history":
        end = periods_after(workload, read.metric, round_index)
        return "history", (read.metric,), {"start": max(0, end - read.arg), "end": end}
    if read.op == "group_by":
        return "group_by", (read.metric, list(read.arg)), {}
    if read.op in ("seen_counts", "space_report"):
        return read.op, (), {}
    raise ValueError(f"unknown read op {read.op!r}")


def read_key(workload: Workload, read: Read, round_index: int) -> str:
    method, args, kwargs = read_request(workload, read, round_index)
    return repr((round_index, method, args, sorted(kwargs.items())))


def final_reads(workload: Workload) -> List[Read]:
    """Untimed reads after the last round whose answers carry every
    evaluation: each metric's results, or a labeled metric's snapshot
    (the latest evaluation of every series)."""
    if workload.labeled:
        return [Read("snapshot")]
    return [Read("results", name) for name in workload.metric_names()]


class Replay:
    """The offline monitor, fed round by round."""

    def __init__(self, workload: Workload, store_dir: Optional[Path]) -> None:
        from repro.service import MetricSpec, Monitor

        self.workload = workload
        self.monitor = Monitor()
        for data in workload.specs:
            data = dict(data)
            if data.get("series"):
                data["series"] = {k: v for k, v in data["series"].items() if k != "max_active"}
            if data.get("policy") == "exact":
                data["policy_params"] = {"backend": "dict"}
            self.monitor.register(MetricSpec.from_dict(data))
        self.writer = None
        if workload.history:
            from repro.store import HistoryWriter

            self.writer = HistoryWriter(str(store_dir))
            self.writer.attach(self.monitor)
        self._labelsets = labelsets(workload) if workload.labeled else None

    def feed(self, values: np.ndarray, block_size: int) -> None:
        from repro.series.labels import series_slice

        workload = self.workload
        for offset in range(0, len(values), block_size):
            block = values[offset : offset + block_size]
            for name in workload.metric_names():
                if self._labelsets is None:
                    self.monitor.observe_batch(name, block)
                    continue
                for j, labels in enumerate(self._labelsets):
                    sub = series_slice(block, offset, workload.series, j)
                    if len(sub):
                        self.monitor.observe_batch(name, sub, labels=labels)

    def answer(self, read: Read, round_index: int):
        method, args, kwargs = read_request(self.workload, read, round_index)
        if method == "history":
            from repro.store.query import query_range

            return query_range(self.writer.store, args[0], kwargs["start"], kwargs["end"])
        return getattr(self.monitor, method)(*args, **kwargs)

    def close(self) -> None:
        if self.writer is not None:
            self.writer.close()


class Checker:
    """Replays a run round by round and holds it to the served answers.

    Every mismatch is a failed op on the :class:`RunRecord`.  Value
    errors are the paper's relative value error of the QLOVE answers
    against exact quantiles computed here from the replayed events.
    """

    def __init__(self, workload: Workload, seed: int, record: RunRecord, store_dir: Optional[Path]) -> None:
        self.workload, self.seed, self.record = workload, seed, record
        self.replay = Replay(workload, store_dir)
        self._qlove = {
            spec["name"]: max(1, spec["window"]["size"] // EXACT_EVENTS_PER_CHECK)
            for spec in workload.specs
            if spec.get("policy", "qlove") == "qlove" and not spec.get("labels")
        }
        self._checked = dict.fromkeys(self._qlove, 0)
        self._keep = max(spec["window"]["size"] for spec in workload.specs)
        self._tail = np.empty(0)
        self._tail_start = 0
        self._stream: List[np.ndarray] = []

    def round(self, r: int, served: Dict[str, List[bytes]]) -> None:
        """Replay round ``r`` (``-1``: the prefill) and compare the
        answers served after it."""
        workload = self.workload
        values = round_values(workload, self.seed, r)
        self.replay.feed(values, workload.prefill_block_size if r < 0 else workload.block_size)
        for read in dict.fromkeys(workload.reads_after(r)):
            key = read_key(workload, read, r)
            expected = canonical(self.replay.answer(read, r), read.op)
            for got in served.get(key, []):
                if got != expected:
                    self.record.fail(f"round {r} {read.op} {read.metric}: served answer differs from replay")
        if workload.labeled:
            self._stream.append(values)
            return
        tail = np.concatenate([self._tail, values])
        for name, stride in self._qlove.items():
            results = self.replay.monitor.results(name)
            for result in results[self._checked[name]:]:
                if result.index % stride == 0:
                    stop = int(result.end) - self._tail_start
                    window = tail[stop - result.window_count : stop]
                    self.record.value_errors.extend(value_error_pct(result.result, window))
            self._checked[name] = len(results)
        drop = max(0, len(tail) - self._keep)
        self._tail, self._tail_start = tail[drop:], self._tail_start + drop

    def finish(self, final: Dict[str, bytes]) -> None:
        """Compare the :func:`final_reads` answers (keyed by read key
        with round -1) and, for labeled workloads, take the value errors
        of every series' latest evaluation."""
        try:
            for read in final_reads(self.workload):
                key = read_key(self.workload, read, -1)
                expected = self.replay.answer(read, -1)
                if final.get(key) != canonical(expected, read.op):
                    self.record.fail(f"final {read.op} {read.metric or ''} differs from replay")
            if self.workload.labeled:
                self._series_errors(json.loads(final[read_key(self.workload, Read("snapshot"), -1)]))
        finally:
            self.replay.close()

    def _series_errors(self, snapshot: dict) -> None:
        """Each series' latest evaluation covers its last sealed period."""
        workload = self.workload
        spec = workload.specs[0]
        period = spec["window"]["period"]
        stream = np.concatenate(self._stream)
        sealed = len(stream) // workload.series // period * period
        for j, labels in enumerate(labelsets(workload)):
            estimates = snapshot[spec["name"]][self.replay.monitor.series_route(spec["name"], labels)]
            window = stream[j :: workload.series][sealed - period : sealed]
            self.record.value_errors.extend(
                value_error_pct({float(phi): value for phi, value in estimates.items()}, window)
            )
