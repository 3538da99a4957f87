"""Process-local metrics with cross-process snapshot aggregation.

A :class:`MetricsRegistry` is cheap, in-memory and owned by one process:
counters (monotone totals — jobs executed, dedupe hits, requeues), gauges
(last-value-wins samples — queue depth, in-flight count) and fixed-bucket
histograms (distributions — claim latency, execute duration).  No shared
state, no locks: every service process keeps its own registry and
periodically drops an atomic JSON **snapshot** file into the telemetry
directory (``metrics-<writer>.json``, one file per writer, written
temp-file + ``os.replace`` exactly like every other shared artifact in the
service).  Readers — ``repro status``, tests, dashboards — aggregate the
snapshots: counters and histogram buckets sum across writers, gauges keep
the freshest sample per name.

Fixed buckets are what make histograms mergeable without coordination:
every registry uses the same boundaries (:data:`DEFAULT_BUCKETS`, a
log-spaced 1ms..60s ladder sized for queue/execute latencies), so
aggregation is element-wise addition and quantiles are read off the merged
cumulative counts.

Disabled runs use :data:`NULL_METRICS` — method stubs, nothing allocated —
mirroring :data:`~repro.sim.profiling.NULL_PROFILER`: instrumented code
calls the registry unconditionally and a disabled service pays a handful
of empty method calls per job.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from bisect import bisect_left
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

__all__ = [
    "DEFAULT_BUCKETS",
    "Histogram",
    "MetricsRegistry",
    "NULL_METRICS",
    "NullMetrics",
    "aggregate_snapshots",
    "read_metrics",
    "read_snapshots",
]

#: Log-spaced latency ladder (seconds).  Values above the last bound land
#: in an overflow bucket, so ``counts`` has ``len(buckets) + 1`` cells.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

_SNAPSHOT_GLOB = "metrics-*.json"


class Histogram:
    """Fixed-bucket histogram: counts per upper bound, plus sum/count/max."""

    __slots__ = ("buckets", "counts", "count", "total", "max")

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS):
        self.buckets: Tuple[float, ...] = tuple(buckets)
        self.counts: List[int] = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.total = 0.0
        self.max = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.total += value
        if value > self.max:
            self.max = value

    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate q-quantile read off the bucket boundaries.

        Returns the upper bound of the bucket holding the q-th observation
        (the histogram's resolution limit); the overflow bucket reports the
        observed ``max``.
        """
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for index, bucket_count in enumerate(self.counts):
            seen += bucket_count
            if seen >= rank and bucket_count:
                if index < len(self.buckets):
                    return self.buckets[index]
                return self.max
        return self.max

    def merge(self, other: "Histogram") -> None:
        if other.buckets != self.buckets:
            raise ValueError(
                "cannot merge histograms with different bucket boundaries"
            )
        for index, value in enumerate(other.counts):
            self.counts[index] += value
        self.count += other.count
        self.total += other.total
        if other.max > self.max:
            self.max = other.max

    def as_dict(self) -> dict:
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "count": self.count,
            "sum": round(self.total, 9),
            "max": round(self.max, 9),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Histogram":
        histogram = cls(payload["buckets"])
        counts = [int(c) for c in payload["counts"]]
        if len(counts) != len(histogram.counts):
            raise ValueError("histogram payload counts/buckets length mismatch")
        histogram.counts = counts
        histogram.count = int(payload["count"])
        histogram.total = float(payload["sum"])
        histogram.max = float(payload["max"])
        return histogram


class MetricsRegistry:
    """One process's counters, gauges and histograms."""

    enabled = True

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS):
        self.buckets = tuple(buckets)
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, Tuple[float, float]] = {}  # name -> (value, t)
        self.histograms: Dict[str, Histogram] = {}

    def inc(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = (float(value), time.time())

    def observe(self, name: str, value: float) -> None:
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram(self.buckets)
        histogram.observe(value)

    # ------------------------------------------------------------------ #
    # snapshots
    # ------------------------------------------------------------------ #
    def snapshot(self, writer: Optional[str] = None) -> dict:
        """This registry's state as a JSON-stable snapshot payload."""
        return {
            "writer": writer,
            "pid": os.getpid(),
            "time": time.time(),
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "gauges": {
                k: {"value": v, "time": t}
                for k, (v, t) in sorted(self.gauges.items())
            },
            "histograms": {
                k: h.as_dict() for k, h in sorted(self.histograms.items())
            },
        }

    def write_snapshot(self, root: Union[str, Path], writer: str) -> Path:
        """Atomically publish this registry's snapshot for aggregation."""
        root = Path(root)
        root.mkdir(parents=True, exist_ok=True)
        target = root / f"metrics-{writer}.json"
        fd, tmp_name = tempfile.mkstemp(dir=root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(self.snapshot(writer), separators=(",", ":")))
            os.replace(tmp_name, target)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return target


class NullMetrics(MetricsRegistry):
    """No-op registry for disabled telemetry; every method is a stub."""

    enabled = False

    def inc(self, name: str, amount: float = 1.0) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def write_snapshot(self, root, writer) -> Path:  # pragma: no cover
        raise RuntimeError("NullMetrics does not write snapshots")


#: Shared no-op instance; its tables stay empty by construction.
NULL_METRICS = NullMetrics()


def read_snapshots(root: Union[str, Path]) -> List[dict]:
    """Every writer's latest snapshot in the telemetry directory."""
    root = Path(root)
    snapshots: List[dict] = []
    if not root.exists():
        return snapshots
    for path in sorted(root.glob(_SNAPSHOT_GLOB)):
        try:
            with path.open("r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, json.JSONDecodeError):
            continue  # torn write races are the reader's problem to skip
        if isinstance(payload, dict):
            snapshots.append(payload)
    return snapshots


def aggregate_snapshots(snapshots: Iterable[dict]) -> dict:
    """Fold per-writer snapshots into one service-wide view.

    Counters sum (each writer reports its own monotone totals), histogram
    buckets sum element-wise (same fixed boundaries everywhere), and each
    gauge keeps the sample with the freshest timestamp — a queue-depth
    gauge is a point-in-time fact, not an additive quantity.
    """
    counters: Dict[str, float] = {}
    gauges: Dict[str, Dict[str, float]] = {}
    histograms: Dict[str, Histogram] = {}
    writers = 0
    for snapshot in snapshots:
        writers += 1
        for name, value in snapshot.get("counters", {}).items():
            counters[name] = counters.get(name, 0.0) + float(value)
        for name, sample in snapshot.get("gauges", {}).items():
            current = gauges.get(name)
            if current is None or sample.get("time", 0.0) >= current["time"]:
                gauges[name] = {
                    "value": float(sample["value"]),
                    "time": float(sample.get("time", 0.0)),
                }
        for name, payload in snapshot.get("histograms", {}).items():
            try:
                incoming = Histogram.from_dict(payload)
            except (KeyError, TypeError, ValueError):
                continue
            existing = histograms.get(name)
            if existing is None:
                histograms[name] = incoming
            else:
                existing.merge(incoming)
    return {
        "writers": writers,
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(gauges.items())),
        "histograms": dict(sorted(histograms.items())),
    }


def read_metrics(root: Union[str, Path]) -> dict:
    """Aggregate every snapshot in a telemetry directory (one call)."""
    return aggregate_snapshots(read_snapshots(root))
