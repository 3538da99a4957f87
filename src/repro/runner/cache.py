"""Content-addressed on-disk cache for simulation results.

Results are stored as one JSON file per job under
``<root>/<fp[:2]>/<fp>.json`` where ``fp`` is the job's SHA-256 content
fingerprint (config + behaviours + groups + seed).  Because the engine is
deterministic, a cache hit is *exactly* the result a fresh run would produce
— JSON float serialisation round-trips bit-exactly — a property pinned by the
runner test-suite.

Writes are atomic (temp file + ``os.replace``) so concurrent runner
processes sharing one cache directory can never observe a torn file; the
worst case under a write race is both processes writing the same content.
Entries that are corrupt anyway (a disk that filled up, a process killed
mid-``fsync``, stray garbage) are treated as misses and *quarantined* — the
damaged file is renamed to ``<name>.corrupt`` so it is never re-parsed and
cannot shadow the fresh result the re-run stores.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Optional, Union

from repro.runner.jobs import (
    RESULT_PAYLOAD_VERSION,
    SimulationJob,
    result_from_payload,
    result_to_payload,
)
from repro.sim.engine import SimulationResult
from repro.telemetry.metrics import NULL_METRICS

__all__ = ["ResultCache"]


class ResultCache:
    """Disk-backed, content-addressed store of simulation results.

    Parameters
    ----------
    root:
        Cache directory (created lazily on first store).

    The local ``hits``/``misses`` counters always run; ``metrics`` is an
    optional :class:`~repro.telemetry.metrics.MetricsRegistry` (assigned by
    telemetry-enabled owners like service workers) that additionally feeds
    the cross-process ``cache.*`` counters.
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.metrics = NULL_METRICS

    # ------------------------------------------------------------------ #
    # layout
    # ------------------------------------------------------------------ #
    def path_for(self, fingerprint: str) -> Path:
        """The file a result with this fingerprint is stored at."""
        return self.root / fingerprint[:2] / f"{fingerprint}.json"

    def __len__(self) -> int:
        """Number of results currently stored."""
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))

    # ------------------------------------------------------------------ #
    # get / put
    # ------------------------------------------------------------------ #
    def get(
        self, job: SimulationJob, fingerprint: Optional[str] = None
    ) -> Optional[SimulationResult]:
        """The cached result for ``job``, or ``None`` on a miss.

        ``fingerprint`` may be passed when the caller already computed it
        (the runner does, to dedupe batches).
        """
        fingerprint = fingerprint or job.fingerprint()
        path = self.path_for(fingerprint)
        try:
            with path.open("r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            self._miss()
            return None
        except (json.JSONDecodeError, UnicodeDecodeError, OSError):
            # Truncated or garbage entry (disk full, killed process):
            # quarantine it and miss; the re-run stores a fresh result.
            self._quarantine(path)
            self._miss()
            return None
        if not isinstance(payload, dict):
            self._quarantine(path)
            self._miss()
            return None
        if payload.get("version") != RESULT_PAYLOAD_VERSION:
            self._miss()
            return None
        try:
            # Jobs outside the simulation families (service fault-injection
            # doubles, future job types) may carry their own payload codec;
            # simulation jobs use the shared one.
            loader = getattr(job, "result_from_payload", None)
            if loader is not None:
                result = loader(payload)
            else:
                result = result_from_payload(payload, job.config)
        except (KeyError, TypeError, ValueError):
            # Parseable JSON with a mangled payload is corruption too.
            self._quarantine(path)
            self._miss()
            return None
        self.hits += 1
        self.metrics.inc("cache.hits")
        return result

    def _miss(self) -> None:
        self.misses += 1
        self.metrics.inc("cache.misses")

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry aside (best effort, never raises)."""
        try:
            os.replace(path, path.with_suffix(".corrupt"))
        except OSError:
            pass
        self.metrics.inc("cache.quarantined")

    def put(
        self,
        job: SimulationJob,
        result: SimulationResult,
        fingerprint: Optional[str] = None,
    ) -> Path:
        """Store ``result`` under ``job``'s fingerprint and return the path."""
        fingerprint = fingerprint or job.fingerprint()
        path = self.path_for(fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        dumper = getattr(job, "result_to_payload", None)
        payload = dumper(result) if dumper is not None else result_to_payload(result)
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=f".{fingerprint[:8]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                # One C-encoded string: ``json.dump`` streams through the
                # pure-Python iterencode path: same bytes, ~3x the time.
                handle.write(json.dumps(payload, separators=(",", ":")))
            os.replace(tmp_name, path)
        except BaseException:
            # Cover *any* OSError from the unlink, not just a missing file:
            # on exotic filesystems ``os.replace`` itself can fail after a
            # successful dump (EXDEV, EPERM, quota), and the temp file must
            # not leak just because its cleanup hit e.g. a permission error.
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path

    # ------------------------------------------------------------------ #
    # maintenance
    # ------------------------------------------------------------------ #
    def corrupt_count(self) -> int:
        """Number of quarantined ``.corrupt`` entries currently on disk."""
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("*/*.corrupt"))

    def clear(self) -> int:
        """Delete every stored result *and* quarantined ``.corrupt`` file.

        Returns the number of files removed (results plus quarantine
        entries); without the quarantine sweep, ``.corrupt`` files — which
        ``__len__`` never counts — would accumulate forever.
        """
        removed = 0
        if not self.root.exists():
            return 0
        for pattern in ("*/*.json", "*/*.corrupt"):
            for entry in self.root.glob(pattern):
                entry.unlink(missing_ok=True)
                removed += 1
        return removed

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"ResultCache(root={str(self.root)!r}, hits={self.hits}, misses={self.misses})"
