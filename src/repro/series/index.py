"""``SeriesIndex``: one lazily-instantiated channel per observed labelset.

The high-cardinality heart of the labeled-series subsystem: a labeled
:class:`~repro.service.spec.MetricSpec` owns one index, and every
distinct labelset that arrives materialises one
:class:`~repro.service.monitor.MetricChannel` on first touch.  Channels
live in hash shards (the Fibonacci key hash of
:func:`~repro.streaming.partition.hash_shard_of_key`), purely an
internal bucketing — shard count never influences any answer.

**Eviction is deterministic.**  Recency is measured in *observation
ticks* (a monotonic per-index counter), never wall-clock time, so a run
is a pure function of its event stream: with ``max_active`` set, the
least-recently-observed series is evicted when a new series would exceed
the bound; with ``idle_ttl`` set, series idle for more than that many
ticks are evicted whenever a new series materialises.  Evicting parks
the series' own channel, untouched, outside the active shards — a
pointer move, no serialisation — so an evicted series loses nothing: it
still answers snapshots and group-by queries from its parked channel,
and the next observation *resurrects* it by moving the same channel
(history recorder still attached) back — eviction on/off cannot change
any result, a property the group-by equivalence battery pins.  Eviction
bounds the *active* set (the LRU/TTL working set); it does not shrink
memory.

History recording composes: attach a binder (see
:meth:`SeriesIndex.attach_history`) and every series — including ones
materialised or resurrected later — records per-period segments under
its series key.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro import serde
from repro.series.labels import LabelItems, canonical_labelset, series_key
from repro.service.spec import MetricSpec
from repro.streaming.partition import hash_shard_of_key

#: State-format version written by :meth:`SeriesIndex.to_state`.
SERIES_INDEX_STATE_VERSION = 1

#: History binder: ``binder(series_key) -> sink`` — called once per
#: materialised series; registers the derived per-series spec wherever
#: segments will land and returns the ``sink(metric, period, count,
#: state)`` to record into (the series key is substituted for ``metric``).
HistoryBinder = Callable[[str], Callable[[str, int, int, dict], None]]

#: Default internal shard count (overridden by the spec's series options).
DEFAULT_SHARDS = 4


class _Entry:
    """One series (active or evicted): its channel, labels and recency
    tick (meaningful while active)."""

    __slots__ = ("channel", "labels", "touch")

    def __init__(self, channel, labels: LabelItems, touch: int) -> None:
        self.channel = channel
        self.labels = labels
        self.touch = touch


def _space_bytes(entry: _Entry) -> int:
    """The 8-bytes-per-state-variable memory estimate of one series."""
    return int(entry.channel.policy.space_variables()) * 8


class SeriesIndex:
    """The per-labelset channel index of one labeled metric family.

    Built by :meth:`Monitor.register <repro.service.monitor.Monitor.register>`
    for specs with a label schema; drive it through the monitor
    (``observe(name, value, labels=...)``).  Options come from the
    spec's ``series`` mapping: ``shards``, ``max_active``, ``idle_ttl``.
    """

    def __init__(self, spec: MetricSpec, emit_partial: bool = False) -> None:
        if spec.labels is None:
            raise ValueError(
                f"metric {spec.name!r} has no label schema; a SeriesIndex "
                "fronts labeled metrics only (declare labels=[...])"
            )
        self.spec = spec
        self._emit_partial = emit_partial
        options = spec.series or {}
        self.n_shards = int(options.get("shards", DEFAULT_SHARDS))
        self.max_active: Optional[int] = options.get("max_active")  # type: ignore[assignment]
        self.idle_ttl: Optional[int] = options.get("idle_ttl")  # type: ignore[assignment]
        self._shards: List[Dict[str, _Entry]] = [{} for _ in range(self.n_shards)]
        self._evicted: Dict[str, _Entry] = {}
        #: Lazy-deletion LRU heap of ``(touch, key)``; stale pairs (the
        #: entry has been touched since, or evicted) are skipped on pop.
        self._lru: List[Tuple[int, str]] = []
        self._tick = 0
        self._created = 0
        self._evictions = 0
        self._resurrections = 0
        self._history_binder: Optional[HistoryBinder] = None

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def observe(self, labels: object, value: float) -> None:
        """Fold one element into the labelset's series (creating it)."""
        self._entry_for(labels).channel.observe(value)

    def observe_batch(self, labels: object, values: np.ndarray) -> None:
        """Bulk-ingest one series' value array (creating the series)."""
        self._entry_for(labels).channel.observe_batch(values)

    def _entry_for(self, labels: object) -> _Entry:
        items = canonical_labelset(labels, self.spec.labels, self.spec.name)
        key = series_key(self.spec.name, items)
        shard = self._shards[hash_shard_of_key(key, self.n_shards)]
        self._tick += 1
        entry = shard.get(key)
        if entry is None:
            entry = self._materialise(shard, key, items)
        entry.touch = self._tick
        heapq.heappush(self._lru, (entry.touch, key))
        return entry

    def _materialise(
        self, shard: Dict[str, _Entry], key: str, items: LabelItems
    ) -> _Entry:
        """Create or resurrect the series for ``key``, then evict."""
        from repro.service.monitor import MetricChannel

        entry = self._evicted.pop(key, None)
        if entry is not None:
            # The parked channel comes back as it left (recorder included).
            entry.touch = self._tick
            self._resurrections += 1
        else:
            channel = MetricChannel(self.spec, emit_partial=self._emit_partial)
            if self._history_binder is not None:
                channel.attach_recorder(self._series_sink(key))
            entry = _Entry(channel, items, self._tick)
            self._created += 1
        shard[key] = entry
        self._evict_stale(keep=key)
        return entry

    # ------------------------------------------------------------------
    # Eviction / resurrection
    # ------------------------------------------------------------------
    def _evict_stale(self, keep: str) -> None:
        """Apply the TTL and LRU bounds (deterministic, tick-based)."""
        if self.idle_ttl is not None:
            # ``keep`` was touched this tick, so its current heap pair
            # never falls below the horizon; stale pairs are skipped.
            horizon = self._tick - self.idle_ttl
            while self._lru and self._lru[0][0] < horizon:
                touch, key = heapq.heappop(self._lru)
                entry = self._active_entry(key)
                if entry is not None and entry.touch == touch and key != keep:
                    self._evict(key)
        if self.max_active is not None:
            while self.active_count() > self.max_active and self._lru:
                touch, key = heapq.heappop(self._lru)
                entry = self._active_entry(key)
                if entry is None or entry.touch != touch:
                    continue  # stale pair (touched again, or evicted)
                if key == keep:
                    # The current pair of the just-touched series is the
                    # heap minimum only when it is the sole live series;
                    # it never evicts itself.
                    heapq.heappush(self._lru, (touch, key))
                    break
                self._evict(key)

    def _active_entry(self, key: str) -> Optional[_Entry]:
        return self._shards[hash_shard_of_key(key, self.n_shards)].get(key)

    def _evict(self, key: str) -> None:
        """Park one active series' channel outside the active shards."""
        shard = self._shards[hash_shard_of_key(key, self.n_shards)]
        self._evicted[key] = shard.pop(key)
        self._evictions += 1

    def evict_idle(self) -> int:
        """Explicitly evict every series idle beyond ``idle_ttl``; returns
        how many (a no-op without a TTL — eviction otherwise runs when
        new series materialise)."""
        if self.idle_ttl is None:
            return 0
        before = self._evictions
        horizon = self._tick - self.idle_ttl
        for key, entry in sorted(self._iter_active()):
            if entry.touch < horizon:
                self._evict(key)
        return self._evictions - before

    # ------------------------------------------------------------------
    # History recording
    # ------------------------------------------------------------------
    def attach_history(self, binder: HistoryBinder) -> None:
        """Record every series' per-period deltas via ``binder``.

        ``binder(series_key)`` is invoked once per series (existing ones
        now, later creations as they materialise); it must register the
        derived spec with its store and return the history sink.  Attach
        before ingesting — existing series, active or evicted, attach
        immediately and reject mid-period attachment exactly like
        :meth:`MetricChannel.attach_recorder` (series restored from a
        checkpoint saved while recording resume their staged recorder).
        """
        if self._history_binder is not None:
            raise ValueError(
                f"metric {self.spec.name!r} already records history; one "
                "history binder per series index"
            )
        self._history_binder = binder
        for key, entry in self._iter_all():
            entry.channel.attach_recorder(self._series_sink(key))

    def _series_sink(self, key: str):
        """The channel-facing sink: substitutes the series key for the
        channel's (family) metric name before handing to the binder's
        sink, so segments land under the series key."""
        sink = self._history_binder(key)

        def wrapped(_metric: str, period: int, count: int, state: dict) -> None:
            sink(key, period, count, state)

        return wrapped

    # ------------------------------------------------------------------
    # Introspection / query surface
    # ------------------------------------------------------------------
    def active_count(self) -> int:
        return sum(len(shard) for shard in self._shards)

    def evicted_count(self) -> int:
        return len(self._evicted)

    def _iter_active(self) -> Iterator[Tuple[str, _Entry]]:
        for shard in self._shards:
            yield from shard.items()

    def _iter_all(self) -> List[Tuple[str, _Entry]]:
        """Every series, active or evicted, in canonical key order."""
        rows = list(self._iter_active())
        rows.extend(self._evicted.items())
        rows.sort(key=lambda row: row[0])
        return rows

    def series(self) -> List[str]:
        """Every known series key (active + evicted), sorted."""
        return [key for key, _ in self._iter_all()]

    def members(self) -> List[Tuple[str, _Entry, bool]]:
        """All series in canonical key order: ``(key, entry, evicted)``.

        The group-by engine and snapshots iterate this, so every answer
        is ordered by canonical series key regardless of shard layout or
        eviction history.
        """
        return [
            (key, entry, key in self._evicted) for key, entry in self._iter_all()
        ]

    def seen(self) -> int:
        """Total elements ingested across all series (active + evicted)."""
        return sum(entry.channel.seen for _, entry in self._iter_all())

    def snapshot(self) -> Dict[str, Optional[Dict[float, float]]]:
        """Latest ``{phi: estimate}`` per series key (evicted included)."""
        result: Dict[str, Optional[Dict[float, float]]] = {}
        for key, entry in self._iter_all():
            latest = entry.channel.latest
            result[key] = dict(latest.result) if latest else None
        return result

    def results(self, labels: object):
        """One series' emitted evaluations (evicted series answer too)."""
        items = canonical_labelset(labels, self.spec.labels, self.spec.name)
        key = series_key(self.spec.name, items)
        entry = self._active_entry(key) or self._evicted.get(key)
        if entry is None:
            raise KeyError(
                f"metric {self.spec.name!r}: no series {key!r} has been "
                f"observed; known series: {self.series() or '(none)'}"
            )
        return list(entry.channel.results)

    def group_by(self, by, quantiles=None) -> dict:
        """Merged quantiles per label-subset group — see
        :func:`repro.series.groupby.group_by_live`."""
        from repro.series.groupby import group_by_live

        return group_by_live(self, by, quantiles)

    def stats(self) -> Dict[str, object]:
        """Cardinality counters and a memory estimate.

        ``memory_estimate_bytes`` counts every series' policy state
        variables at 8 bytes each — ``active_space * 8`` for active
        series plus ``evicted_state_bytes``, the same estimate for the
        evicted ones (which stay resident as parked channels; earlier
        releases reported their serialised JSON size here).  An
        order-of-magnitude planning figure, not an exact RSS.
        """
        active_space = sum(
            entry.channel.policy.space_variables()
            for _, entry in self._iter_active()
        )
        evicted_bytes = sum(
            _space_bytes(entry) for entry in self._evicted.values()
        )
        return {
            "active": self.active_count(),
            "evicted": self.evicted_count(),
            "created": self._created,
            "evictions": self._evictions,
            "resurrections": self._resurrections,
            "shards": self.n_shards,
            "max_active": self.max_active,
            "idle_ttl": self.idle_ttl,
            "active_space": int(active_space),
            "evicted_state_bytes": int(evicted_bytes),
            "memory_estimate_bytes": int(active_space) * 8 + int(evicted_bytes),
        }

    def report(self) -> Dict[str, object]:
        """The family's ``space_report`` entry: totals over all series
        plus the cardinality stats (shape-compatible with a channel's
        report, so shared renderers work unchanged)."""
        evaluations = sum(
            len(entry.channel.results) for _, entry in self._iter_all()
        )
        peak = sum(
            entry.channel.policy.peak_space_variables()
            for _, entry in self._iter_active()
        )
        stats = self.stats()
        return {
            "policy": self.spec.policy,
            "window": {
                "size": self.spec.window.size,
                "period": self.spec.window.period,
            },
            "labels": list(self.spec.labels),
            "seen": self.seen(),
            "evaluations": evaluations,
            "space": stats["active_space"],
            "peak_space": int(peak),
            "series": stats,
        }

    # ------------------------------------------------------------------
    # Fleet composition
    # ------------------------------------------------------------------
    def merge_from(self, other: "SeriesIndex") -> None:
        """Fold another index's series into this one (donor unchanged).

        Series present on both sides merge channel-wise (the universal
        merge contract); series only the donor knows are adopted via a
        serde round-trip (bit-identical clone).  Donor eviction state is
        irrelevant — evicted series contribute exactly like active ones.
        """
        if other.spec.to_dict() != self.spec.to_dict():
            raise ValueError(
                f"cannot merge series of metric {other.spec.name!r} into "
                f"{self.spec.name!r}: specs differ"
            )
        from repro.service.monitor import MetricChannel

        for key, entry in other._iter_all():
            donor = entry.channel
            mine = self._active_entry(key)
            if mine is None and key in self._evicted:
                # Resurrect, merge, and leave active (it was just touched).
                mine = self._entry_for(dict(self._evicted[key].labels))
            if mine is not None:
                mine.channel.merge_from(donor)
            else:
                adopted = MetricChannel.from_state(
                    donor.to_state(), emit_partial=self._emit_partial
                )
                if self._history_binder is not None:
                    adopted.attach_recorder(self._series_sink(key))
                self._tick += 1
                new_entry = _Entry(adopted, entry.labels, self._tick)
                self._shards[hash_shard_of_key(key, self.n_shards)][key] = new_entry
                heapq.heappush(self._lru, (new_entry.touch, key))
                self._created += 1
                self._evict_stale(keep=key)

    def reset(self) -> None:
        """Drop every series (active and evicted); the schema stays."""
        for shard in self._shards:
            shard.clear()
        self._evicted.clear()
        self._lru.clear()
        self._tick = 0

    # ------------------------------------------------------------------
    # Durable state
    # ------------------------------------------------------------------
    def to_state(self) -> dict:
        """The full index: every series (evicted or active), ticks, counters."""
        return serde.resolve(self._lazy_state())

    def _lazy_state(self) -> dict:
        """:meth:`to_state` with its series rows still unbuilt (generators
        :func:`repro.serde.write_json` encodes one row at a time)."""
        state = serde.header("series_index", SERIES_INDEX_STATE_VERSION)
        state["spec"] = serde.as_native(self.spec.to_dict())
        state["tick"] = int(self._tick)
        state["created"] = int(self._created)
        state["evictions"] = int(self._evictions)
        state["resurrections"] = int(self._resurrections)
        state["active"] = (
            {
                "key": key,
                "labels": [[n, v] for n, v in entry.labels],
                "touch": int(entry.touch),
                "channel": entry.channel.to_state(),
            }
            for key, entry in sorted(self._iter_active())
        )
        # Evicted rows keep their established layout ('state' plus a
        # 'bytes' estimate), so older releases still load the checkpoint.
        state["evicted"] = (
            {
                "key": key,
                "labels": [[n, v] for n, v in entry.labels],
                "state": entry.channel.to_state(),
                "bytes": _space_bytes(entry),
            }
            for key, entry in sorted(self._evicted.items())
        )
        return state

    @classmethod
    def from_state(cls, state: dict, emit_partial: bool = False) -> "SeriesIndex":
        """Rebuild an index whose future behaviour — including eviction
        decisions — is indistinguishable from the saved one's."""
        from repro.service.monitor import MetricChannel

        serde.check_state(
            state, "series_index", SERIES_INDEX_STATE_VERSION, "series index"
        )
        required = ("spec", "tick", "active", "evicted")
        serde.require_fields(state, required, "series index")
        serde.warn_unknown_fields(
            state,
            required + ("created", "evictions", "resurrections"),
            "series index",
        )
        try:
            spec = MetricSpec.from_dict(state["spec"])
        except ValueError as exc:
            raise serde.StateError(
                f"series index: invalid spec in state: {exc}"
            ) from None
        index = cls(spec, emit_partial=emit_partial)
        index._tick = int(state["tick"])
        index._created = int(state.get("created", 0))
        index._evictions = int(state.get("evictions", 0))
        index._resurrections = int(state.get("resurrections", 0))
        for row in state["active"]:
            key = row["key"]
            items = tuple((str(n), str(v)) for n, v in row["labels"])
            channel = MetricChannel.from_state(
                row["channel"], emit_partial=emit_partial
            )
            entry = _Entry(channel, items, int(row["touch"]))
            index._shards[hash_shard_of_key(key, index.n_shards)][key] = entry
            heapq.heappush(index._lru, (entry.touch, key))
        for row in state["evicted"]:
            items = tuple((str(n), str(v)) for n, v in row["labels"])
            channel = MetricChannel.from_state(
                row["state"], emit_partial=emit_partial
            )
            index._evicted[row["key"]] = _Entry(channel, items, 0)
        return index
