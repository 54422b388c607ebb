"""``Monitor.save`` streams its checkpoint through the C JSON encoder.

The file is built one channel state / series row at a time, and must
still equal the one-shot encoding of :meth:`Monitor.to_state` byte for
byte — the form every earlier checkpoint had and every loader reads.
"""

import json

from repro.service.monitor import Monitor
from repro.service.spec import MetricSpec

from tests.series.conftest import (
    battery_labelsets,
    ingest_round_robin,
    make_family_spec,
    stream_values,
)


def saved_bytes(monitor, tmp_path):
    path = str(tmp_path / "ckpt.json")
    monitor.save(path)
    with open(path, "rb") as handle:
        return handle.read()


def one_shot(monitor):
    encoded = json.dumps(monitor.to_state(), separators=(",", ":")) + "\n"
    return encoded.encode("utf-8")


def test_unlabeled_qlove_and_exact(tmp_path):
    monitor = Monitor()
    monitor.register(
        MetricSpec(name="rtt", quantiles=[0.5, 0.99],
                   window={"size": 400, "period": 100}, policy="qlove")
    )
    monitor.register(
        MetricSpec(name="rtt.exact", quantiles=[0.5, 0.9],
                   window={"size": 400, "period": 100}, policy="exact")
    )
    values = stream_values(0, 1_050)
    monitor.observe_batch("rtt", values)
    monitor.observe_batch("rtt.exact", values)
    assert saved_bytes(monitor, tmp_path) == one_shot(monitor)


def test_labeled_with_evicted_series_and_history(tmp_path):
    from repro.store import HistoryWriter

    monitor = Monitor()
    monitor.register(
        make_family_spec("qlove", name="lat", window={"size": 40, "period": 10},
                         series={"max_active": 2})
    )
    monitor.register(
        MetricSpec(name="rtt", quantiles=[0.5],
                   window={"size": 40, "period": 10}, policy="exact")
    )
    with HistoryWriter(str(tmp_path / "hist")) as writer:
        writer.attach(monitor)
        ingest_round_robin(
            monitor, "lat", stream_values(1, 213), battery_labelsets(fanout=3)
        )
        monitor.observe_batch("rtt", stream_values(2, 57))
        stats = monitor.series_stats("lat")
        assert stats["active"] == 2 and stats["evicted"] == 4
        state = monitor.to_state()
        rows = state["series_families"][0]["evicted"]
        assert all("history" in row["state"] for row in rows)
        assert saved_bytes(monitor, tmp_path) == one_shot(monitor)


def test_moment_empty_in_flight_carries_infinities(tmp_path):
    monitor = Monitor()
    monitor.register(
        MetricSpec(name="m", quantiles=[0.5, 0.9], window={"size": 40, "period": 10},
                   policy="moment", policy_params={"k": 8})
    )
    monitor.observe_batch("m", stream_values(3, 30))  # ends on a boundary
    encoded = one_shot(monitor)
    assert b"Infinity" in encoded and b"-Infinity" in encoded
    assert saved_bytes(monitor, tmp_path) == encoded
    restored = Monitor.load(str(tmp_path / "ckpt.json"))
    assert saved_bytes(restored, tmp_path) == encoded
