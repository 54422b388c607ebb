"""Monitor's labeled surface: registration, routing, checkpoints.

Pins the facade contract: labeled and unlabeled metrics share one
namespace and one registration order, every mis-routed observation is
rejected with the fix in the message, and a v2 checkpoint carries the
whole series index — while v1 (pre-labels) checkpoints still load.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro import serde
from repro.service.monitor import Monitor
from repro.service.spec import MetricSpec

from tests.series.conftest import (
    battery_labelsets,
    ingest_round_robin,
    make_family_spec,
    stream_values,
)

LS = battery_labelsets(fanout=2, hosts_per_region=1)  # two series


def labeled_spec(**kwargs):
    return make_family_spec(
        "exact", name="lat", window={"size": 40, "period": 10}, **kwargs
    )


def plain_spec(name="rtt"):
    return MetricSpec(
        name=name, quantiles=[0.5], window={"size": 40, "period": 10},
        policy="exact",
    )


def mixed_monitor() -> Monitor:
    monitor = Monitor()
    monitor.register(plain_spec())
    monitor.register(labeled_spec())
    return monitor


class TestRegistration:
    def test_labeled_spec_registers_a_family(self):
        monitor = mixed_monitor()
        assert monitor.metrics() == ["rtt", "lat"]
        assert monitor.labeled_metrics() == ["lat"]
        assert "lat" in monitor and len(monitor) == 2
        assert monitor.specs()[1].labels == ("host", "region")

    def test_dict_form_round_trips_labels_and_series_options(self):
        monitor = Monitor()
        spec = monitor.register(
            {
                "name": "lat",
                "quantiles": [0.5],
                "window": {"size": 40, "period": 10},
                "policy": "exact",
                "labels": ["region"],
                "series": {"max_active": 8},
            }
        )
        assert spec.labels == ("region",)
        assert spec.series == {"max_active": 8}
        assert MetricSpec.from_dict(spec.to_dict()) == spec

    def test_duplicate_name_across_kinds_rejected(self):
        monitor = Monitor()
        monitor.register(labeled_spec())
        with pytest.raises(ValueError, match="already registered"):
            monitor.register(plain_spec(name="lat"))

    def test_on_result_rejected_for_labeled_metrics(self):
        monitor = Monitor()
        with pytest.raises(ValueError, match="not\\s+supported on labeled"):
            monitor.register(labeled_spec(), on_result=lambda *a: None)
        monitor.register(labeled_spec())
        with pytest.raises(ValueError, match="group_by"):
            monitor.on_result("lat", lambda *a: None)

    def test_attach_recorder_points_to_series_history(self):
        monitor = Monitor()
        monitor.register(labeled_spec())
        with pytest.raises(ValueError, match="attach_series_history"):
            monitor.attach_recorder("lat", lambda *a: None)

    def test_series_options_without_labels_rejected(self):
        with pytest.raises(ValueError, match="only valid on\\s+a labeled"):
            MetricSpec(
                name="x", quantiles=[0.5], window={"size": 10, "period": 5},
                series={"shards": 2},
            )


class TestObservationRouting:
    def test_labeled_metric_requires_labels(self):
        monitor = mixed_monitor()
        with pytest.raises(ValueError, match=r"pass\s+labels="):
            monitor.observe("lat", 1.0)
        with pytest.raises(ValueError, match=r"pass\s+labels="):
            monitor.observe_batch("lat", np.ones(3))

    def test_unlabeled_metric_rejects_labels(self):
        monitor = mixed_monitor()
        with pytest.raises(ValueError, match="not labeled"):
            monitor.observe("rtt", 1.0, labels=LS[0])
        with pytest.raises(ValueError, match="not labeled"):
            monitor.observe_batch("rtt", np.ones(3), labels=LS[0])

    def test_labelset_must_match_schema(self):
        monitor = mixed_monitor()
        with pytest.raises(ValueError, match="missing label"):
            monitor.observe("lat", 1.0, labels={"region": "eu"})
        with pytest.raises(ValueError, match="unknown label"):
            monitor.observe(
                "lat", 1.0,
                labels={"region": "eu", "host": "a", "zone": "z"},
            )

    def test_unknown_metric_is_a_key_error(self):
        with pytest.raises(KeyError, match="unknown metric"):
            mixed_monitor().observe("nope", 1.0)

    def test_series_route_is_the_canonical_key(self):
        monitor = mixed_monitor()
        route = monitor.series_route("lat", {"host": "a", "region": "eu"})
        assert route == "lat{host=a,region=eu}"
        with pytest.raises(ValueError, match="missing label"):
            monitor.series_route("lat", {"region": "eu"})
        with pytest.raises(ValueError, match="not labeled"):
            monitor.series_route("rtt", {"region": "eu"})


class TestQuerySurface:
    def test_snapshot_nests_labeled_metrics_in_key_order(self):
        monitor = mixed_monitor()
        monitor.observe_batch("rtt", stream_values(0, 40))
        ingest_round_robin(monitor, "lat", stream_values(1, 80), LS)
        snapshot = monitor.snapshot()
        assert list(snapshot) == ["rtt", "lat"]
        assert isinstance(snapshot["rtt"], dict)  # {phi: estimate}
        keys = list(snapshot["lat"])
        assert keys == sorted(keys) and len(keys) == 2
        assert all(isinstance(v, dict) for v in snapshot["lat"].values())

    def test_results_routing_both_directions(self):
        monitor = mixed_monitor()
        # 160 events -> 80 per series; window 40/10 => evaluations at
        # elements 40, 50, 60, 70, 80 of each series.
        ingest_round_robin(monitor, "lat", stream_values(1, 160), LS)
        assert len(monitor.results("lat", labels=LS[0])) == 5
        with pytest.raises(ValueError, match="pass labels="):
            monitor.results("lat")
        with pytest.raises(ValueError, match="drop labels="):
            monitor.results("rtt", labels=LS[0])

    def test_group_by_on_unlabeled_metric_is_actionable(self):
        with pytest.raises(ValueError, match="not labeled"):
            mixed_monitor().group_by("rtt", "region")
        with pytest.raises(KeyError, match="unknown metric"):
            mixed_monitor().group_by("nope", "region")

    def test_seen_counts_and_len_cover_families(self):
        monitor = mixed_monitor()
        monitor.observe_batch("rtt", stream_values(0, 17))
        ingest_round_robin(monitor, "lat", stream_values(1, 23), LS)
        assert monitor.seen_counts() == {"rtt": 17, "lat": 23}

    def test_space_report_has_a_series_block(self):
        monitor = mixed_monitor()
        ingest_round_robin(monitor, "lat", stream_values(1, 30), LS)
        report = monitor.space_report()
        assert "series" not in report["rtt"]
        series = report["lat"]["series"]
        assert series["active"] == 2 and series["created"] == 2
        assert report["lat"]["labels"] == ["host", "region"]

    def test_series_stats_counters(self):
        monitor = Monitor()
        monitor.register(labeled_spec(series={"max_active": 1}))
        ingest_round_robin(monitor, "lat", stream_values(2, 40), LS)
        stats = monitor.series_stats("lat")
        assert stats["active"] == 1
        assert stats["evictions"] > 0 and stats["resurrections"] > 0
        with pytest.raises(ValueError, match="not labeled"):
            mixed_monitor().series_stats("rtt")


class TestMergeAndReset:
    def test_merge_folds_families(self):
        values = stream_values(3, 80)
        left, right, whole = mixed_monitor(), mixed_monitor(), mixed_monitor()
        ingest_round_robin(left, "lat", values[:40], LS)
        ingest_round_robin(right, "lat", values[40:], LS)
        ingest_round_robin(whole, "lat", values, LS)
        left.merge(right)
        assert left.seen_counts()["lat"] == 80
        # Exact policy: shard-and-merge reproduces the unsplit stream's
        # current-window answer (merge emits no evaluation of its own, so
        # the comparison reads the policies, not `latest`).
        assert (
            left.group_by("lat", ["host", "region"])["groups"]
            == whole.group_by("lat", ["host", "region"])["groups"]
        )

    def test_merge_missing_family_is_rejected(self):
        left = Monitor()
        left.register(plain_spec())
        with pytest.raises(ValueError, match="not registered"):
            left.merge(mixed_monitor())

    def test_reset_clears_series_but_keeps_registration(self):
        monitor = mixed_monitor()
        ingest_round_robin(monitor, "lat", stream_values(0, 20), LS)
        monitor.reset()
        assert monitor.seen_counts() == {"rtt": 0, "lat": 0}
        assert monitor.snapshot()["lat"] == {}
        assert monitor.labeled_metrics() == ["lat"]


class TestCheckpointRoundTrip:
    def fill(self, monitor):
        # Per-series streams stay period-aligned: Exact answers (which
        # group_by reads) exist only at period boundaries.
        monitor.observe_batch("rtt", stream_values(0, 55))
        ingest_round_robin(monitor, "lat", stream_values(1, 100), LS)

    def test_save_load_preserves_families_and_order(self, tmp_path):
        monitor = Monitor()
        monitor.register(labeled_spec(series={"max_active": 1}))
        monitor.register(plain_spec())
        self.fill(monitor)
        path = str(tmp_path / "ckpt.json")
        monitor.save(path)
        restored = Monitor.load(path)
        assert restored.metrics() == ["lat", "rtt"]
        assert restored.snapshot() == monitor.snapshot()
        assert restored.series_stats("lat") == monitor.series_stats("lat")
        assert restored.group_by("lat", "region") == monitor.group_by(
            "lat", "region"
        )

    def test_resumed_monitor_continues_bit_identically(self, tmp_path):
        monitor = mixed_monitor()
        self.fill(monitor)
        path = str(tmp_path / "ckpt.json")
        monitor.save(path)
        restored = Monitor.load(path)
        tail = stream_values(9, 60)
        for m in (monitor, restored):
            ingest_round_robin(m, "lat", tail, LS)
            m.observe_batch("rtt", tail)
        assert restored.snapshot() == monitor.snapshot()
        assert restored.results("lat", labels=LS[1]) == monitor.results(
            "lat", labels=LS[1]
        )

    def test_checkpoint_with_json_state_rows_resumes_byte_identically(
        self, tmp_path
    ):
        # The fixture holds evicted series as 'state' rows with a 'bytes'
        # field counting their JSON size: the checkpoint an index that
        # kept evicted series as state dicts wrote after observing
        # stream_values(11, 210) round-robin over ROSTER.
        roster = battery_labelsets(fanout=2, hosts_per_region=2)
        spec = make_family_spec(
            "qlove", name="lat", window={"size": 40, "period": 10},
            series={"max_active": 2},
        )
        head, tail = stream_values(11, 210), stream_values(12, 120)

        def feed(monitor, values, offset):
            for i, value in enumerate(values, start=offset):
                monitor.observe("lat", float(value), labels=roster[i % len(roster)])

        uninterrupted = Monitor()
        uninterrupted.register(spec)
        feed(uninterrupted, head, 0)
        fixture = os.path.join(
            os.path.dirname(__file__), "data", "labeled_checkpoint_json_rows.json"
        )
        resumed = Monitor.load(fixture)
        with open(fixture, encoding="utf-8") as handle:
            rows = json.load(handle)["series_families"][0]["evicted"]
        assert len(rows) == 2 and all({"state", "bytes"} <= set(r) for r in rows)
        assert resumed.snapshot() == uninterrupted.snapshot()
        feed(uninterrupted, tail, len(head))
        feed(resumed, tail, len(head))
        paths = [str(tmp_path / name) for name in ("a.json", "b.json")]
        uninterrupted.save(paths[0])
        resumed.save(paths[1])
        with open(paths[0], "rb") as a, open(paths[1], "rb") as b:
            assert a.read() == b.read()

    def test_v1_checkpoint_without_families_still_loads(self):
        monitor = Monitor()
        monitor.register(plain_spec())
        monitor.observe_batch("rtt", stream_values(0, 45))
        state = monitor.to_state()
        del state["series_families"]
        del state["order"]
        state["version"] = 1
        restored = Monitor.from_state(state)
        assert restored.metrics() == ["rtt"]
        assert restored.snapshot() == monitor.snapshot()

    def test_corrupt_order_is_actionable(self):
        monitor = mixed_monitor()
        state = monitor.to_state()
        state["order"] = ["rtt"]
        with pytest.raises(serde.StateError, match="exactly once"):
            Monitor.from_state(state)
        state["order"] = ["rtt", "lat", "rtt"]
        with pytest.raises(serde.StateError, match="exactly once"):
            Monitor.from_state(state)
