"""Group-by quantile queries: merge per-series policies per label subset.

Answers ``quantiles(latency) group by region`` against a live
:class:`~repro.series.index.SeriesIndex` (:func:`group_by_live`) or a
historical :class:`~repro.store.store.SegmentStore` holding per-series
segment logs (:func:`group_by_store`).  Both build each group's answer
by folding the member series' policies together through the universal
merge contract, in canonical series-key order, without ever expiring —
the same discipline as :mod:`repro.store.query`, so for time-composable
policies a group's answer is **bit-identical** to an offline run that
ingested the group's member streams concatenated in that same order
(the property the group-by equivalence battery pins, across seeds,
shard counts and eviction on/off).

Live donors are never mutated: each group's first member is cloned
through the serde path (a bit-identical twin) to serve as the merge
master, and :meth:`QuantilePolicy.merge` leaves donors untouched, so a
query is a pure read.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.series.labels import LabelItems, encode_labelset, try_parse_series_key
from repro.sketches.registry import policy_from_state


def _validated_by(by: object, schema: Sequence[str], metric: str) -> Tuple[str, ...]:
    """Validate the group-by label subset against the metric's schema."""
    if isinstance(by, str):
        by = [by]
    if not isinstance(by, Sequence) or not by:
        raise ValueError(
            f"metric {metric!r}: group_by takes a non-empty list of label "
            f"names, got {by!r}"
        )
    unknown = sorted(set(by) - set(schema))
    if unknown:
        raise ValueError(
            f"metric {metric!r}: cannot group by unknown label(s) {unknown}; "
            f"the schema is {sorted(schema)}"
        )
    duplicates = sorted({name for name in by if list(by).count(name) > 1})
    if duplicates:
        raise ValueError(
            f"metric {metric!r}: duplicate group-by label(s) {duplicates}"
        )
    return tuple(sorted(by))


def _group_items(labels: LabelItems, by: Tuple[str, ...]) -> LabelItems:
    """The member's group key: its labels restricted to ``by`` (canonical
    order is preserved because ``labels`` is already sorted)."""
    return tuple((name, value) for name, value in labels if name in by)


def _select(answer: Dict[float, float], quantiles, metric: str) -> Dict[float, float]:
    """Restrict a policy answer to the requested quantiles (all if None)."""
    if quantiles is None:
        return dict(answer)
    selected: Dict[float, float] = {}
    for phi in quantiles:
        key = float(phi)
        if key not in answer:
            raise ValueError(
                f"metric {metric!r}: quantile {key} is not tracked; the "
                f"sketch answers {sorted(answer)} — group-by can only read "
                "quantiles the metric was configured with"
            )
        selected[key] = answer[key]
    return selected


def group_by_live(index, by, quantiles: Optional[Sequence[float]] = None) -> Dict[str, Any]:
    """Current-window group-by over a live (or checkpointed) index.

    Every known series — active or evicted — contributes its full
    current state (sealed sub-windows plus in-flight events).  Returns a
    JSON-safe result dict::

        {"metric": ..., "by": ["region"],
         "groups": [{"key": {"region": "eu"}, "series": 3, "evicted": 1,
                     "count": 1234, "quantiles": {"0.99": 41.5}}, ...]}

    Groups are ordered by their canonical encoded key.
    """
    by = _validated_by(by, index.spec.labels, index.spec.name)
    grouped: Dict[str, Dict[str, Any]] = {}
    for _key, entry, evicted in index.members():
        items = _group_items(entry.labels, by)
        enc = encode_labelset(items)
        bucket = grouped.setdefault(
            enc, {"items": items, "members": [], "evicted": 0, "count": 0}
        )
        channel = entry.channel
        bucket["members"].append(channel.policy)
        bucket["evicted"] += evicted
        bucket["count"] += sum(channel._counts) + channel._in_flight
    groups: List[Dict[str, Any]] = []
    for enc in sorted(grouped):
        bucket = grouped[enc]
        members = bucket["members"]
        # Clone the first member bit-identically; later members merge in
        # directly (merge never mutates its donor).
        master = policy_from_state(members[0].to_state())
        for donor in members[1:]:
            master.merge(donor)
        answer = _select(master.query(), quantiles, index.spec.name)
        groups.append(
            {
                "key": {name: value for name, value in bucket["items"]},
                "series": len(members),
                "evicted": int(bucket["evicted"]),
                "count": int(bucket["count"]),
                "quantiles": {
                    repr(phi): float(value) for phi, value in sorted(answer.items())
                },
            }
        )
    return {"metric": index.spec.name, "by": list(by), "groups": groups}


def group_by_store(
    store,
    metric: str,
    by,
    start: int,
    end: int,
    quantiles: Optional[Sequence[float]] = None,
) -> Dict[str, Any]:
    """Historical group-by: periods ``[start, end)`` of a labeled family.

    Scans the store for series keys of ``metric`` (written by a
    ``--history`` run with labeled specs), decodes their labelsets,
    groups by the ``by`` subset, and merges each member's covering
    segments in time order, then members in canonical key order — the
    same bit-identity discipline as :func:`group_by_live`.  Series whose
    labelsets were length-capped into hashes cannot be grouped
    historically and raise with the offending keys.
    """
    from repro.store.query import rebuild_policy
    from repro.store.store import StoreError

    members: List[Tuple[str, Dict[str, str]]] = []
    hashed: List[str] = []
    for key in store.metrics():
        parsed = try_parse_series_key(key)
        if parsed is None or parsed.metric != metric:
            continue
        if parsed.hashed:
            hashed.append(key)
            continue
        members.append((key, parsed.labels))
    if hashed:
        raise StoreError(
            f"metric {metric!r}: series {sorted(hashed)} were stored under "
            "length-capped (hashed) keys and their labels cannot be "
            "recovered for grouping; query them individually, or keep "
            "labelset encodings under the length cap"
        )
    if not members:
        raise StoreError(
            f"no labeled series of metric {metric!r} in this store; "
            f"stored metrics: {store.metrics() or '(none)'} — labeled "
            "history is written by 'monitor'/'serve' runs whose specs "
            "declare labels"
        )
    schema = sorted({name for _, labels in members for name in labels})
    by = _validated_by(by, schema, metric)
    grouped: Dict[str, Dict[str, Any]] = {}
    for key, labels in sorted(members):
        items = tuple((name, labels[name]) for name in sorted(labels) if name in by)
        enc = encode_labelset(items)
        bucket = grouped.setdefault(
            enc, {"items": items, "keys": [], "count": 0, "segments": 0}
        )
        bucket["keys"].append(key)
    groups: List[Dict[str, Any]] = []
    for enc in sorted(grouped):
        bucket = grouped[enc]
        master = None
        for key in bucket["keys"]:  # canonical order (members pre-sorted)
            segments = store.covering(key, start, end)
            bucket["segments"] += len(segments)
            bucket["count"] += sum(segment.count for segment in segments)
            for segment in segments:
                delta = rebuild_policy(segment)
                if master is None:
                    master = delta
                else:
                    master.merge(delta)
        answer = master.query()
        if quantiles is not None:
            try:
                answer = _select(answer, quantiles, metric)
            except ValueError as exc:
                raise StoreError(str(exc)) from None
        groups.append(
            {
                "key": {name: value for name, value in bucket["items"]},
                "series": len(bucket["keys"]),
                "count": int(bucket["count"]),
                "segments_merged": int(bucket["segments"]),
                "quantiles": {
                    repr(phi): float(value) for phi, value in sorted(answer.items())
                },
            }
        )
    return {
        "metric": metric,
        "by": list(by),
        "start_period": int(start),
        "end_period": int(end),
        "groups": groups,
    }


def render_group_result(result: Dict[str, Any]) -> str:
    """A group-by answer as stable, byte-diffable text (the CLI form).

    One header line, then one block per group; the same renderer backs
    local-store and live-server answers so their bytes match.
    """
    header = f"{result['metric']} group by {','.join(result['by'])}"
    if "start_period" in result:
        header += f" periods [{result['start_period']}, {result['end_period']})"
    lines = [header]
    for group in result["groups"]:
        key = ",".join(f"{name}={value}" for name, value in sorted(group["key"].items()))
        parts = [f"series={group['series']}", f"count={group['count']}"]
        if "evicted" in group:
            parts.append(f"evicted={group['evicted']}")
        if "segments_merged" in group:
            parts.append(f"segments={group['segments_merged']}")
        lines.append(f"  {{{key}}} " + " ".join(parts))
        for phi, value in group["quantiles"].items():
            lines.append(f"    p{phi}: {value!r}")
    return "\n".join(lines) + "\n"
