"""SeriesIndex lifecycle: lazy creation, deterministic eviction, serde.

The pinned property throughout: eviction parks a series' own channel
and resurrection moves it back, so no sequence of evictions and
resurrections can change any answer — and the index's future behaviour
after ``from_state`` is indistinguishable from the saved instance's.
"""

import pytest

from repro import serde
from repro.series import SeriesIndex
from repro.service.spec import MetricSpec

from tests.series.conftest import make_family_spec, stream_values


def small_spec(series=None, **kwargs):
    """A quick labeled spec: tiny window so evaluations actually emit."""
    return make_family_spec(
        "exact", window={"size": 40, "period": 10}, series=series, **kwargs
    )


def fill(index, values, labelsets):
    for i, value in enumerate(values):
        index.observe(labelsets[i % len(labelsets)], float(value))


LS = [
    {"region": "eu", "host": "a"},
    {"region": "eu", "host": "b"},
    {"region": "us", "host": "c"},
]


class TestLifecycle:
    def test_rejects_unlabeled_spec(self):
        plain = MetricSpec(
            name="m", quantiles=[0.5], window={"size": 10, "period": 5}
        )
        with pytest.raises(ValueError, match="no label schema"):
            SeriesIndex(plain)

    def test_series_materialise_lazily_per_labelset(self):
        index = SeriesIndex(small_spec())
        assert index.active_count() == 0
        index.observe(LS[0], 1.0)
        index.observe(LS[0], 2.0)
        assert index.active_count() == 1
        index.observe(LS[1], 3.0)
        assert index.active_count() == 2
        assert index.stats()["created"] == 2

    def test_series_and_snapshot_are_canonically_ordered(self):
        index = SeriesIndex(small_spec())
        fill(index, stream_values(0, 30), [LS[2], LS[0], LS[1]])
        keys = index.series()
        assert keys == sorted(keys)
        assert list(index.snapshot()) == keys

    def test_seen_totals_all_series(self):
        index = SeriesIndex(small_spec())
        fill(index, stream_values(0, 31), LS)
        assert index.seen() == 31

    def test_results_for_unknown_series_names_the_known_ones(self):
        index = SeriesIndex(small_spec())
        index.observe(LS[0], 1.0)
        with pytest.raises(KeyError, match="known series"):
            index.results({"region": "eu", "host": "zzz"})

    def test_results_validates_the_labelset(self):
        index = SeriesIndex(small_spec())
        with pytest.raises(ValueError, match="missing label"):
            index.results({"region": "eu"})

    def test_observe_batch_matches_elementwise_observe(self):
        values = stream_values(3, 25)
        one = SeriesIndex(small_spec())
        one.observe_batch(LS[0], values)
        other = SeriesIndex(small_spec())
        for value in values:
            other.observe(LS[0], float(value))
        assert one.snapshot() == other.snapshot()
        assert one.results(LS[0]) == other.results(LS[0])


class TestEviction:
    def test_lru_evicts_least_recently_observed(self):
        index = SeriesIndex(small_spec(series={"max_active": 2}))
        index.observe(LS[0], 1.0)
        index.observe(LS[1], 2.0)
        index.observe(LS[0], 3.0)  # LS[1] is now the LRU series
        index.observe(LS[2], 4.0)  # third series: something must go
        assert index.active_count() == 2
        assert index.evicted_count() == 1
        sealed = [k for k in index.series() if index._active_entry(k) is None]
        assert sealed == ["m_exact{host=b,region=eu}"]

    def test_evicted_series_still_answers_everything(self):
        index = SeriesIndex(small_spec(series={"max_active": 1}))
        fill(index, stream_values(1, 40), [LS[0]])
        before_snapshot = index.snapshot()
        before_results = index.results(LS[0])
        index.observe(LS[1], 1.0)  # evicts LS[0]
        assert index.evicted_count() == 1
        assert index.seen() == 41
        key = "m_exact{host=a,region=eu}"
        assert index.snapshot()[key] == before_snapshot[key]
        assert index.results(LS[0]) == before_results

    def test_resurrection_is_bit_identical(self):
        values = stream_values(2, 90)
        thrash = SeriesIndex(small_spec(series={"max_active": 1}))
        fill(thrash, values, LS)  # every observation evicts the previous
        calm = SeriesIndex(small_spec())
        fill(calm, values, LS)
        assert thrash.snapshot() == calm.snapshot()
        for ls in LS:
            assert thrash.results(ls) == calm.results(ls)
        stats = thrash.stats()
        assert stats["evictions"] > 0 and stats["resurrections"] > 0

    def test_idle_ttl_evicts_on_materialisation(self):
        index = SeriesIndex(small_spec(series={"idle_ttl": 3}))
        index.observe(LS[0], 1.0)
        for _ in range(4):
            index.observe(LS[1], 2.0)
        # LS[0] is idle past the TTL; a new series triggers the sweep.
        index.observe(LS[2], 3.0)
        assert index._active_entry("m_exact{host=a,region=eu}") is None
        assert index.evicted_count() == 1

    def test_evict_idle_is_explicit_and_counts(self):
        index = SeriesIndex(small_spec(series={"idle_ttl": 2}))
        index.observe(LS[0], 1.0)
        for _ in range(5):
            index.observe(LS[1], 2.0)
        assert index.evict_idle() == 1
        assert index.active_count() == 1

    def test_evict_idle_without_ttl_is_a_noop(self):
        index = SeriesIndex(small_spec())
        index.observe(LS[0], 1.0)
        assert index.evict_idle() == 0
        assert index.active_count() == 1

    def test_sole_series_never_evicts_itself(self):
        index = SeriesIndex(small_spec(series={"max_active": 1}))
        for value in stream_values(0, 50):
            index.observe(LS[0], float(value))
        assert index.active_count() == 1
        assert index.stats()["evictions"] == 0


class TestEvictionDoesNoSerialisation:
    def test_thrash_moves_the_same_channel_objects(self, monkeypatch):
        from repro.service.monitor import MetricChannel

        index = SeriesIndex(small_spec(series={"max_active": 1}))
        fill(index, stream_values(3, 3), LS)  # create all three series
        channels = {
            key: entry.channel for key, entry in index._iter_all()
        }

        def refuse(*args, **kwargs):
            raise AssertionError("eviction must not serialise a channel")

        monkeypatch.setattr(MetricChannel, "to_state", refuse)
        monkeypatch.setattr(MetricChannel, "from_state", classmethod(refuse))
        fill(index, stream_values(4, 60), LS)  # every call evicts + resurrects
        monkeypatch.undo()
        assert index.series() == sorted(channels)
        for key, entry in index._iter_all():
            assert entry.channel is channels[key]
        stats = index.stats()
        assert (stats["created"], stats["evictions"], stats["resurrections"]) == (
            3, 62, 60
        )
        assert (stats["active"], stats["evicted"]) == (1, 2)

    def test_evicted_estimate_is_eight_bytes_per_state_variable(self):
        index = SeriesIndex(small_spec(series={"max_active": 1}))
        fill(index, stream_values(0, 50), LS)
        evicted_space = sum(
            entry.channel.policy.space_variables()
            for _, entry, evicted in index.members()
            if evicted
        )
        stats = index.stats()
        assert stats["evicted_state_bytes"] == evicted_space * 8 > 0
        rows = index.to_state()["evicted"]
        assert sum(row["bytes"] for row in rows) == stats["evicted_state_bytes"]


class TestShardInvariance:
    @pytest.mark.parametrize("shards", [1, 3, 8])
    def test_answers_independent_of_shard_count(self, shards):
        values = stream_values(7, 60)
        sharded = SeriesIndex(small_spec(series={"shards": shards}))
        fill(sharded, values, LS)
        reference = SeriesIndex(small_spec())
        fill(reference, values, LS)
        assert sharded.snapshot() == reference.snapshot()
        assert sharded.group_by("region") == reference.group_by("region")
        assert sharded.stats()["shards"] == shards


class TestStats:
    def test_counters_and_memory_estimate(self):
        index = SeriesIndex(small_spec(series={"max_active": 2}))
        fill(index, stream_values(0, 50), LS)
        stats = index.stats()
        assert stats["active"] == 2
        assert stats["evicted"] == 1
        assert stats["created"] == 3
        assert stats["max_active"] == 2 and stats["idle_ttl"] is None
        assert stats["active_space"] > 0
        assert stats["evicted_state_bytes"] > 0
        assert stats["memory_estimate_bytes"] == (
            stats["active_space"] * 8 + stats["evicted_state_bytes"]
        )

    def test_report_is_channel_shape_compatible_plus_series_block(self):
        index = SeriesIndex(small_spec())
        fill(index, stream_values(0, 45), LS)
        report = index.report()
        for field in ("policy", "window", "seen", "evaluations", "space",
                      "peak_space"):
            assert field in report
        assert report["labels"] == ["host", "region"]
        assert report["seen"] == 45
        assert report["series"]["active"] == 3


class TestSerde:
    def test_round_trip_preserves_every_answer(self):
        index = SeriesIndex(small_spec(series={"max_active": 2}))
        fill(index, stream_values(5, 70), LS)
        restored = SeriesIndex.from_state(index.to_state())
        assert restored.snapshot() == index.snapshot()
        assert restored.stats() == index.stats()
        assert restored.series() == index.series()
        for ls in LS:
            assert restored.results(ls) == index.results(ls)

    def test_future_behaviour_indistinguishable_after_restore(self):
        head, tail = stream_values(6, 60), stream_values(16, 60)
        index = SeriesIndex(small_spec(series={"max_active": 2}))
        fill(index, head, LS)
        restored = SeriesIndex.from_state(index.to_state())
        fill(index, tail, LS)
        fill(restored, tail, LS)
        assert restored.snapshot() == index.snapshot()
        assert restored.stats() == index.stats()

    def test_state_is_json_safe(self):
        import json

        index = SeriesIndex(small_spec(series={"max_active": 1}))
        fill(index, stream_values(0, 30), LS)
        state = json.loads(json.dumps(index.to_state()))
        assert SeriesIndex.from_state(state).snapshot() == index.snapshot()

    def test_invalid_spec_in_state_is_actionable(self):
        index = SeriesIndex(small_spec())
        state = index.to_state()
        state["spec"]["policy"] = "nope"
        with pytest.raises(serde.StateError, match="invalid spec"):
            SeriesIndex.from_state(state)

    def test_missing_field_is_actionable(self):
        state = SeriesIndex(small_spec()).to_state()
        del state["tick"]
        with pytest.raises(serde.StateError, match="tick"):
            SeriesIndex.from_state(state)


class TestMergeFrom:
    def test_disjoint_series_are_adopted_bit_identically(self):
        left = SeriesIndex(small_spec())
        right = SeriesIndex(small_spec())
        fill(left, stream_values(0, 40), [LS[0]])
        fill(right, stream_values(1, 40), [LS[1], LS[2]])
        left.merge_from(right)
        assert len(left.series()) == 3
        assert left.series() == sorted(left.series())
        assert left.results(LS[1]) == right.results(LS[1])
        # Donor untouched.
        assert right.active_count() == 2

    def test_overlapping_series_merge_channelwise(self):
        values = stream_values(4, 40)
        left = SeriesIndex(small_spec())
        right = SeriesIndex(small_spec())
        fill(left, values[:20], [LS[0]])
        fill(right, values[20:], [LS[0]])
        left.merge_from(right)
        assert left.seen() == 40

    def test_evicted_series_contribute_like_active_ones(self):
        values = stream_values(9, 60)
        sealed = SeriesIndex(small_spec(series={"max_active": 1}))
        fill(sealed, values, LS)  # two of three end up evicted
        assert sealed.evicted_count() == 2
        target = SeriesIndex(small_spec(series={"max_active": 1}))
        target.merge_from(sealed)
        # Every donor series arrived with its full answer, sealed or not —
        # and matches an eviction-free run of the same stream.
        assert target.seen() == sealed.seen()
        calm = SeriesIndex(small_spec())
        fill(calm, values, LS)
        assert target.snapshot() == calm.snapshot()

    def test_spec_mismatch_is_rejected(self):
        left = SeriesIndex(small_spec())
        right = SeriesIndex(small_spec(series={"max_active": 5}))
        with pytest.raises(ValueError, match="specs differ"):
            left.merge_from(right)


class TestHistoryAttachment:
    def test_second_binder_is_rejected(self):
        index = SeriesIndex(small_spec())
        binder = lambda key: (lambda *args: None)  # noqa: E731
        index.attach_history(binder)
        with pytest.raises(ValueError, match="already records history"):
            index.attach_history(binder)

    def test_binder_called_once_per_materialised_series(self):
        bound = []
        index = SeriesIndex(small_spec())
        index.attach_history(lambda key: bound.append(key) or (lambda *a: None))
        fill(index, stream_values(0, 9), LS)
        assert sorted(bound) == index.series()


class TestReset:
    def test_reset_drops_series_but_keeps_schema(self):
        index = SeriesIndex(small_spec(series={"max_active": 1}))
        fill(index, stream_values(0, 30), LS)
        index.reset()
        assert index.active_count() == 0 and index.evicted_count() == 0
        assert index.series() == []
        index.observe(LS[0], 1.0)
        assert index.seen() == 1
