"""Metrics: fixed-bucket histograms, snapshot files, cross-writer aggregation."""

from __future__ import annotations

import json

import pytest

from repro.telemetry.metrics import (
    DEFAULT_BUCKETS,
    Histogram,
    MetricsRegistry,
    NULL_METRICS,
    aggregate_snapshots,
    read_metrics,
    read_snapshots,
)


class TestHistogram:
    def test_observations_land_in_their_buckets(self):
        histogram = Histogram(buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            histogram.observe(value)
        assert histogram.counts == [1, 2, 1, 1]  # last cell is overflow
        assert histogram.count == 5
        assert histogram.total == pytest.approx(56.05)
        assert histogram.max == 50.0
        assert histogram.mean() == pytest.approx(56.05 / 5)

    def test_quantiles_read_off_bucket_bounds(self):
        histogram = Histogram(buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 5.0):
            histogram.observe(value)
        assert histogram.quantile(0.5) == 1.0  # 2nd of 4 obs is in the 1.0 bucket
        assert histogram.quantile(1.0) == 10.0
        histogram.observe(99.0)  # overflow bucket reports the observed max
        assert histogram.quantile(1.0) == 99.0
        assert Histogram().quantile(0.5) == 0.0

    def test_merge_is_elementwise_and_guards_boundaries(self):
        a, b = Histogram(), Histogram()
        a.observe(0.01)
        b.observe(0.02)
        b.observe(5.0)
        a.merge(b)
        assert a.count == 3
        assert a.total == pytest.approx(5.03)
        assert a.max == 5.0
        with pytest.raises(ValueError, match="bucket boundaries"):
            a.merge(Histogram(buckets=(1.0, 2.0)))

    def test_dict_round_trip(self):
        histogram = Histogram()
        for value in (0.003, 0.2, 7.5):
            histogram.observe(value)
        clone = Histogram.from_dict(histogram.as_dict())
        assert clone.buckets == DEFAULT_BUCKETS
        assert clone.counts == histogram.counts
        assert clone.count == histogram.count
        assert clone.total == pytest.approx(histogram.total)
        with pytest.raises(ValueError, match="length mismatch"):
            Histogram.from_dict({"buckets": [1.0], "counts": [1, 2, 3, 4],
                                 "count": 1, "sum": 0.5, "max": 0.5})


class TestRegistryAndSnapshots:
    def test_counters_gauges_histograms(self):
        registry = MetricsRegistry()
        registry.inc("jobs")
        registry.inc("jobs", 2.0)
        registry.gauge("depth", 7)
        registry.observe("latency", 0.02)
        assert registry.counters["jobs"] == 3.0
        assert registry.gauges["depth"][0] == 7.0
        assert registry.histograms["latency"].count == 1

    def test_snapshot_aggregate_round_trip(self, tmp_path):
        """Two writers publish; the aggregate sums counters and histogram
        buckets and keeps the freshest gauge sample."""
        first = MetricsRegistry()
        first.inc("worker.executed", 3)
        first.gauge("spool.queue_depth", 5)
        first.observe("execute_seconds", 0.2)
        first.write_snapshot(tmp_path, "w1")

        second = MetricsRegistry()
        second.inc("worker.executed", 4)
        second.gauge("spool.queue_depth", 2)  # written later => wins
        second.observe("execute_seconds", 0.4)
        second.observe("execute_seconds", 0.02)
        second.write_snapshot(tmp_path, "w2")

        aggregated = read_metrics(tmp_path)
        assert aggregated["writers"] == 2
        assert aggregated["counters"]["worker.executed"] == 7.0
        assert aggregated["gauges"]["spool.queue_depth"]["value"] == 2.0
        merged = aggregated["histograms"]["execute_seconds"]
        assert merged.count == 3
        assert merged.total == pytest.approx(0.62)

    def test_snapshot_overwrites_in_place(self, tmp_path):
        registry = MetricsRegistry()
        registry.inc("n")
        registry.write_snapshot(tmp_path, "w")
        registry.inc("n")
        registry.write_snapshot(tmp_path, "w")
        files = list(tmp_path.glob("metrics-*.json"))
        assert len(files) == 1  # atomic replace, no temp debris
        assert not list(tmp_path.glob("*.tmp"))
        (snapshot,) = read_snapshots(tmp_path)
        assert snapshot["counters"]["n"] == 2.0

    def test_snapshot_file_is_the_compact_json_of_the_snapshot(self, tmp_path):
        registry = MetricsRegistry()
        registry.inc("n", 3)
        registry.observe("execute_seconds", 0.25)
        snapshot = registry.snapshot("w")
        registry.snapshot = lambda writer: snapshot
        path = registry.write_snapshot(tmp_path, "w")
        expected = json.dumps(snapshot, separators=(",", ":"))
        assert path.read_bytes() == expected.encode("utf-8")

    def test_torn_snapshot_is_skipped(self, tmp_path):
        MetricsRegistry().write_snapshot(tmp_path, "good")
        (tmp_path / "metrics-bad.json").write_text('{"cou', encoding="utf-8")
        snapshots = read_snapshots(tmp_path)
        assert len(snapshots) == 1
        assert snapshots[0]["writer"] == "good"

    def test_aggregate_of_nothing(self, tmp_path):
        assert aggregate_snapshots([]) == {
            "writers": 0, "counters": {}, "gauges": {}, "histograms": {},
        }
        assert read_metrics(tmp_path / "missing")["writers"] == 0

    def test_snapshot_payload_is_json_stable(self, tmp_path):
        registry = MetricsRegistry()
        registry.inc("b")
        registry.inc("a")
        path = registry.write_snapshot(tmp_path, "w")
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert list(payload["counters"]) == ["a", "b"]  # sorted keys


class TestNullMetrics:
    def test_null_registry_stays_empty(self):
        NULL_METRICS.inc("x")
        NULL_METRICS.gauge("y", 1)
        NULL_METRICS.observe("z", 0.5)
        assert NULL_METRICS.counters == {}
        assert NULL_METRICS.gauges == {}
        assert NULL_METRICS.histograms == {}

    def test_null_registry_never_snapshots(self, tmp_path):
        with pytest.raises(RuntimeError):
            NULL_METRICS.write_snapshot(tmp_path, "w")
