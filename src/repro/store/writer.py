"""``HistoryWriter``: the sink wiring Monitor period boundaries to a store.

The glue between the live layer and the durable one: attach a writer to a
:class:`~repro.service.monitor.Monitor` and every metric's per-period
delta state (a fresh shadow policy sealed at each boundary — see
:meth:`MetricChannel.attach_recorder
<repro.service.monitor.MetricChannel.attach_recorder>`) is appended to a
:class:`~repro.store.store.SegmentStore` as one durable segment.  The
``python -m repro monitor --history DIR`` path and the TelemetryServer's
``--history`` flag both run through here, so offline and live ingestion
write byte-compatible stores.

Checkpoint/resume composes: the recorder's mid-period state rides in the
monitor checkpoint, and :meth:`SegmentStore.append
<repro.store.store.SegmentStore.append>` skips already-committed periods
idempotently, so a crash between a segment append and the next checkpoint
replays harmlessly on resume.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

from repro.store.segment import Segment
from repro.store.store import RetentionPolicy, SegmentStore


class HistoryWriter:
    """Persists every attached metric's period deltas as segments.

    Parameters
    ----------
    store:
        An open :class:`~repro.store.store.SegmentStore`, or a directory
        path to open one at (created when missing).
    retention:
        :class:`~repro.store.store.RetentionPolicy` (or its dict form)
        for the opened store — only valid with a path; an existing store
        keeps its own policy.
    maintain_every:
        Run :meth:`SegmentStore.maintain` (compaction + pruning) after
        every this-many appended segments; ``None`` leaves maintenance to
        explicit :meth:`maintain` calls.
    """

    def __init__(
        self,
        store: Union[SegmentStore, str],
        *,
        retention: Optional[RetentionPolicy] = None,
        maintain_every: Optional[int] = None,
    ) -> None:
        if isinstance(store, SegmentStore):
            if retention is not None:
                raise ValueError(
                    "pass retention only with a directory path; an open "
                    "SegmentStore already carries its policy"
                )
            self.store = store
        elif isinstance(store, str):
            self.store = SegmentStore(store, retention=retention)
        else:
            raise TypeError(
                f"store must be a SegmentStore or a directory path, got "
                f"{type(store).__name__}"
            )
        if maintain_every is not None and (
            not isinstance(maintain_every, int)
            or isinstance(maintain_every, bool)
            or maintain_every < 1
        ):
            raise ValueError(
                f"maintain_every must be a positive int or None, got "
                f"{maintain_every!r}"
            )
        self.maintain_every = maintain_every
        self.segments_written = 0
        self._since_maintenance = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, monitor) -> None:
        """Record every metric registered on ``monitor`` into the store.

        Registers each spec with the store (spec equality is enforced for
        metrics the store already holds) and attaches a per-period
        recorder to each channel.  Call once, after the monitor's metrics
        are registered — metrics registered later need their own
        :meth:`attach_metric` call.
        """
        for spec in monitor.specs():
            self.attach_metric(monitor, spec.name)

    def attach_metric(self, monitor, name: str) -> None:
        """Record one of ``monitor``'s metrics into the store.

        A labeled metric attaches per *series*: every labelset that
        exists now or materialises later registers its derived per-series
        spec with the store and records segments under its canonical
        series key, so historical group-by queries can decode the
        labels back out of the store.
        """
        spec = next((s for s in monitor.specs() if s.name == name), None)
        if spec is None:
            raise KeyError(
                f"metric {name!r} is not registered on the monitor; "
                f"registered: {monitor.metrics() or '(none)'}"
            )
        if spec.labels is not None:
            monitor.attach_series_history(name, self._series_binder(spec))
            return
        self.store.register(spec)
        monitor.attach_recorder(name, self._sink)

    def _series_binder(self, spec):
        """The per-series binder for one labeled family: registers the
        series' derived spec on first touch and routes its segments to
        the shared sink (keyed by series key)."""

        def binder(series_key: str):
            self.store.register(spec.for_series(series_key))
            return self._sink

        return binder

    # ------------------------------------------------------------------
    # The period-boundary sink
    # ------------------------------------------------------------------
    def _sink(self, metric: str, period: int, count: int, state: Dict) -> None:
        appended = self.store.append(
            Segment(
                metric=metric,
                start_period=period,
                end_period=period + 1,
                count=count,
                state=state,
            )
        )
        if appended:
            self.segments_written += 1
            self._since_maintenance += 1
            if (
                self.maintain_every is not None
                and self._since_maintenance >= self.maintain_every
            ):
                self._since_maintenance = 0
                self.store.maintain()

    # ------------------------------------------------------------------
    # Maintenance / lifecycle
    # ------------------------------------------------------------------
    def maintain(self) -> Dict[str, int]:
        """One explicit compaction + retention pass over the store."""
        self._since_maintenance = 0
        return self.store.maintain()

    def stats(self) -> Dict:
        """Writer counters plus the underlying store's accounting."""
        stats = self.store.stats()
        stats["segments_written"] = self.segments_written
        return stats

    def close(self) -> None:
        """Flush and close the store's log handles."""
        self.store.close()

    def __enter__(self) -> "HistoryWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
