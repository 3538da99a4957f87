"""The scheduler: submissions, streaming completion and fault recovery.

:class:`Scheduler` is the client half of the service.  A submission is a
batch of content-addressed jobs (round-engine or swarm — anything with
``fingerprint()``/``execute()``); the scheduler

* **dedupes** it three ways before any work happens: within the batch (one
  entry per fingerprint), against the shared sqlite-indexed store (one
  ``probe_many`` query answers "already computed", however many submitters
  filled the store), and against the spool (a job another submitter already
  queued or a worker already claimed is awaited, not re-queued — enqueue
  itself is exclusive, so even a perfect race cannot double-queue);
* **streams** completions as they land: :meth:`Submission.stream` yields
  ``(fingerprint, result)`` in completion order by polling the store index,
  which is what lets an atlas report render progressively instead of after
  the last straggler;
* **recovers** from every failure mode a long-running service meets:

  - *worker death* — stale heartbeat ⇒ the dead worker's claimed jobs are
    re-queued (survivability: jobs are re-mapped to live workers, never
    lost);
  - *job timeout* — a claim older than ``job_timeout`` is pulled back to
    pending (the original worker may still finish it; results are
    idempotent, so the race is harmless);
  - *job error* — workers report exceptions through the spool; the
    scheduler retries with exponential backoff up to ``max_attempts``,
    then surfaces the job as failed (``results(strict=True)`` raises a
    :class:`ServiceError` naming every failed fingerprint).

The scheduler holds all retry/backoff state in memory; the spool and the
store hold everything that must survive *it* dying — a fresh scheduler
pointed at the same directories simply resubmits and converges on the
already-computed results.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.service.spool import Spool
from repro.service.store import IndexedResultStore
from repro.telemetry import NULL_TELEMETRY
from repro.utils.logging import get_logger

__all__ = [
    "ServiceConfig",
    "ServiceError",
    "ServiceStats",
    "Scheduler",
    "Submission",
]

_LOGGER = get_logger("service.scheduler")


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of the scheduling/recovery machinery."""

    #: Seconds a claimed job may run before it is pulled back to pending.
    job_timeout: float = 300.0
    #: Total execution attempts per job (first try + retries).
    max_attempts: int = 3
    #: Base of the exponential retry backoff (``base * 2**(attempt-1)``).
    backoff_base: float = 0.25
    #: Ceiling on the per-retry backoff delay.
    backoff_max: float = 10.0
    #: Heartbeat age beyond which a worker counts as dead.
    liveness_timeout: float = 5.0
    #: Seconds a worker that has *never* heartbeated stays presumed-alive,
    #: judged from its registration/claim mtimes.  A freshly spawned worker
    #: (registered, mid-import, not yet through its first loop iteration)
    #: has ``heartbeat_age == inf``; without the grace window the dead-worker
    #: sweep would re-queue its claims out from under it.
    registration_grace: float = 10.0
    #: Seconds between scheduler poll sweeps while streaming.
    poll_interval: float = 0.05

    def backoff_delay(self, attempt: int) -> float:
        """Delay before re-queueing after the ``attempt``-th failure."""
        return min(self.backoff_max, self.backoff_base * (2 ** max(0, attempt - 1)))


class ServiceError(RuntimeError):
    """A submission could not be completed; carries per-job failures."""

    def __init__(self, message: str, failures: Optional[Dict[str, str]] = None):
        super().__init__(message)
        self.failures = dict(failures or {})


@dataclass(frozen=True)
class ServiceStats:
    """Point-in-time service metrics (the ``RunnerStats`` of the service)."""

    queue_depth: int = 0
    in_flight: int = 0
    completed: int = 0
    failed: int = 0
    retries: int = 0
    cache_hits: int = 0
    executed: int = 0
    workers_alive: int = 0
    workers_dead: int = 0

    def render(self) -> str:
        """One status line (the ``serve``/``submit`` ticker format)."""
        return (
            f"queue={self.queue_depth} in-flight={self.in_flight} "
            f"done={self.completed} failed={self.failed} retries={self.retries} "
            f"workers={self.workers_alive}+{self.workers_dead}dead"
        )


class Scheduler:
    """Client handle on a service: a spool for work, a store for results."""

    def __init__(
        self,
        spool_root: Union[str, Path],
        cache_dir: Union[str, Path, None] = None,
        store: Optional[IndexedResultStore] = None,
        config: Optional[ServiceConfig] = None,
        telemetry=None,
    ):
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.spool = Spool(spool_root, telemetry=self.telemetry)
        if store is not None:
            self.store = store
        elif cache_dir is not None:
            self.store = IndexedResultStore(cache_dir)
        else:
            raise ValueError("Scheduler needs a cache_dir or an explicit store")
        self.config = config or ServiceConfig()

    def submit(self, jobs: Sequence[object]) -> "Submission":
        """Queue what is missing, await what exists; returns the handle."""
        return Submission(self, list(jobs))

    def service_stats(self) -> ServiceStats:
        """Spool-level metrics only (no submission attached)."""
        workers = self.spool.workers(
            self.config.liveness_timeout,
            registration_grace=self.config.registration_grace,
        )
        return ServiceStats(
            queue_depth=self.spool.queue_depth(),
            in_flight=self.spool.in_flight(),
            workers_alive=sum(1 for w in workers if w.alive),
            workers_dead=sum(1 for w in workers if not w.alive),
        )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"Scheduler(spool={self.spool!r}, store={self.store!r})"


@dataclass
class _JobState:
    """Scheduler-side bookkeeping for one unique fingerprint."""

    job: object
    attempts: int = 0
    #: Monotonic deadline before which a retry must not be re-queued.
    eligible_at: float = 0.0
    deferred: bool = False
    first_claimed: Optional[float] = None


class Submission:
    """One submitted batch: dedupe accounting + streaming completion."""

    def __init__(self, scheduler: Scheduler, jobs: List[object]):
        self.scheduler = scheduler
        self.telemetry = scheduler.telemetry
        self.jobs = jobs
        self.fingerprints: List[str] = [job.fingerprint() for job in jobs]
        # Batch-level dedupe: one state per unique fingerprint, first job wins.
        self.states: Dict[str, _JobState] = {}
        order: List[str] = []
        for fingerprint, job in zip(self.fingerprints, jobs):
            if fingerprint not in self.states:
                self.states[fingerprint] = _JobState(job=job)
                order.append(fingerprint)
        self.order = order
        self.deduplicated = len(jobs) - len(order)

        # Store-level dedupe: one indexed query, not len(order) file stats.
        store = scheduler.store
        cached = store.probe_many(order)
        self.initial_hits = len(cached)
        self.completed: Dict[str, object] = {}
        self.failures: Dict[str, str] = {}
        self.retries = 0
        self.enqueued = 0
        self._ready = [fp for fp in order if fp in cached]

        metrics = self.telemetry.metrics
        metrics.inc("scheduler.submitted", float(len(order)))
        if self.deduplicated:
            metrics.inc("dedupe.batch", float(self.deduplicated))
        if self.initial_hits:
            metrics.inc("dedupe.store_hits", float(self.initial_hits))

        # Spool-level dedupe: skip what another submitter queued or a
        # worker holds; enqueue itself is exclusive, so races are safe.
        spool = scheduler.spool
        for fingerprint in order:
            self.telemetry.emit(
                "submit", fingerprint=fingerprint, cached=fingerprint in cached
            )
            if fingerprint in cached:
                continue
            state = self.states[fingerprint]
            if spool.is_queued_or_claimed(fingerprint):
                metrics.inc("dedupe.spool_skips")
                continue
            if spool.enqueue(fingerprint, state.job):
                self.enqueued += 1
        self.telemetry.flush()

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def total_unique(self) -> int:
        return len(self.order)

    def pending_fingerprints(self) -> List[str]:
        return [
            fp
            for fp in self.order
            if fp not in self.completed and fp not in self.failures
        ]

    def stats(self) -> ServiceStats:
        spool = self.scheduler.spool
        config = self.scheduler.config
        workers = spool.workers(
            config.liveness_timeout,
            registration_grace=config.registration_grace,
        )
        executed = max(0, len(self.completed) - self.initial_hits)
        return ServiceStats(
            queue_depth=spool.queue_depth(),
            in_flight=spool.in_flight(),
            completed=len(self.completed),
            failed=len(self.failures),
            retries=self.retries,
            cache_hits=self.initial_hits,
            executed=executed,
            workers_alive=sum(1 for w in workers if w.alive),
            workers_dead=sum(1 for w in workers if not w.alive),
        )

    # ------------------------------------------------------------------ #
    # the recovery/completion pump
    # ------------------------------------------------------------------ #
    def _collect(self, fingerprint: str) -> Optional[object]:
        """Fetch one completed result from the store (None if torn)."""
        state = self.states[fingerprint]
        result = self.scheduler.store.get(state.job, fingerprint)
        if result is None:
            # Index said present but the file is gone/corrupt: drop the
            # stale row and let the pump re-queue the job.
            self.scheduler.store.forget([fingerprint])
            return None
        self.completed[fingerprint] = result
        self.telemetry.emit(
            "complete", fingerprint=fingerprint, attempts=state.attempts
        )
        self.telemetry.metrics.inc("scheduler.completed")
        return result

    def _fail_or_defer(self, fingerprint: str, reason: str, now: float) -> None:
        """Count one failed attempt; defer a retry or mark terminal."""
        state = self.states[fingerprint]
        state.attempts += 1
        config = self.scheduler.config
        if state.attempts >= config.max_attempts:
            self.failures[fingerprint] = (
                f"{reason} (attempt {state.attempts}/{config.max_attempts}, "
                f"retries exhausted)"
            )
            self.telemetry.emit(
                "failed",
                fingerprint=fingerprint,
                reason=reason,
                attempts=state.attempts,
            )
            self.telemetry.metrics.inc("scheduler.failed")
            _LOGGER.warning("job %s failed terminally: %s", fingerprint[:12], reason)
            return
        self.retries += 1
        state.deferred = True
        state.eligible_at = now + config.backoff_delay(state.attempts)
        self.telemetry.emit(
            "retry",
            fingerprint=fingerprint,
            reason=reason,
            attempt=state.attempts,
            delay=round(state.eligible_at - now, 6),
        )
        self.telemetry.metrics.inc("scheduler.retries")
        _LOGGER.info(
            "job %s: %s — retry %d/%d in %.2fs",
            fingerprint[:12],
            reason,
            state.attempts,
            config.max_attempts - 1,
            state.eligible_at - now,
        )

    def _pump(self) -> List[Tuple[str, object]]:
        """One recovery + completion sweep; returns newly completed pairs."""
        scheduler = self.scheduler
        spool = scheduler.spool
        store = scheduler.store
        config = scheduler.config
        now = time.time()
        fresh: List[Tuple[str, object]] = []

        pending = self.pending_fingerprints()
        if not pending:
            return fresh

        # Snapshot pending, then claims, then (step 1) the store: a job only
        # moves forward along pending -> claimed -> stored, so it shows up
        # in at least one of the three.  In any other order a worker's claim
        # landing between two listings hides the job from both, and the
        # orphan sweep below would queue a duplicate of a running job.
        queued_now = {
            entry.stem for entry in spool.pending_dir.glob("*.job")
        } if spool.pending_dir.exists() else set()
        claims = spool.claimed_jobs()

        # 1. Completions: one indexed query over everything still awaited.
        for fingerprint in store.probe_many(pending):
            result = self._collect(fingerprint)
            if result is not None:
                self.states[fingerprint].deferred = False
                fresh.append((fingerprint, result))
        pending = [fp for fp in pending if fp not in self.completed]
        if not pending:
            return fresh
        awaiting = set(pending)

        # 2. Reported execution errors -> bounded retry with backoff.
        # One directory listing finds them all; per-job reads only follow
        # for errors this submission actually owns.
        for fingerprint in spool.error_fingerprints():
            if fingerprint not in awaiting:
                continue
            error = spool.take_error(fingerprint)
            if error is not None:
                self._fail_or_defer(
                    fingerprint, f"execution failed: {error.get('error')}", now
                )

        # 3. Worker liveness: re-queue every claim a dead worker holds.
        # The registration grace keeps never-heartbeated (still starting)
        # workers out of the dead set — see ServiceConfig.registration_grace.
        # Claims this sweep moves back to pending count as queued below.
        dead = {
            info.worker_id
            for info in spool.workers(
                config.liveness_timeout,
                registration_grace=config.registration_grace,
            )
            if not info.alive
        }
        claimed_now = set()
        for worker_id, fingerprints in claims.items():
            if worker_id in dead:
                for fingerprint in fingerprints:
                    if fingerprint not in awaiting:
                        continue
                    if spool.release_claim(
                        worker_id, fingerprint, reason="dead-worker"
                    ):
                        queued_now.add(fingerprint)
                        self.retries += 1
                        self.states[fingerprint].first_claimed = None
                        _LOGGER.warning(
                            "worker %s is dead; re-queued job %s",
                            worker_id,
                            fingerprint[:12],
                        )
            else:
                claimed_now.update(fingerprints)

        # 4. Job timeout: a claim held too long goes back to pending.
        for fingerprint in list(awaiting):
            state = self.states[fingerprint]
            if fingerprint in claimed_now:
                if state.first_claimed is None:
                    state.first_claimed = now
                elif now - state.first_claimed > config.job_timeout:
                    self.telemetry.emit(
                        "timeout",
                        fingerprint=fingerprint,
                        held_for=round(now - state.first_claimed, 6),
                    )
                    for worker_id, fingerprints in claims.items():
                        if fingerprint in fingerprints:
                            if spool.release_claim(
                                worker_id, fingerprint, reason="timeout"
                            ):
                                queued_now.add(fingerprint)
                            break
                    state.first_claimed = None
                    self._fail_or_defer(
                        fingerprint,
                        f"timed out after {config.job_timeout:.1f}s in flight",
                        now,
                    )
            else:
                state.first_claimed = None

        # 5. Deferred retries whose backoff expired -> re-queue.
        # 6. Orphans (dropped claims, undecodable job files) -> re-queue.
        for fingerprint in list(awaiting):
            if fingerprint in self.failures:
                continue
            state = self.states[fingerprint]
            if state.deferred:
                if now >= state.eligible_at:
                    state.deferred = False
                    # A timed-out job was already released back to pending
                    # (and may even be claimed again): only enqueue if it is
                    # genuinely absent, or the queue grows a duplicate.
                    if fingerprint not in queued_now and fingerprint not in claimed_now:
                        if spool.enqueue(fingerprint, state.job):
                            self.enqueued += 1
                continue
            if fingerprint not in queued_now and fingerprint not in claimed_now:
                # Not stored, not queued, not in flight, not deferred:
                # it fell through a crack — put it back (idempotent).
                if spool.enqueue(fingerprint, state.job):
                    self.enqueued += 1

        metrics = self.telemetry.metrics
        metrics.gauge("spool.queue_depth", spool.queue_depth())
        metrics.gauge("spool.in_flight", spool.in_flight())
        self.telemetry.flush()
        return fresh

    # ------------------------------------------------------------------ #
    # streaming / collection
    # ------------------------------------------------------------------ #
    def stream(
        self, timeout: Optional[float] = None
    ) -> Iterator[Tuple[str, object]]:
        """Yield ``(fingerprint, result)`` in completion order.

        Pre-cached results come first (they are already done); the rest
        arrive as workers complete them.  The iterator ends when every
        unique job has completed *or failed terminally* — check
        :attr:`failures` (or call :meth:`results` with ``strict=True``)
        afterwards.  ``timeout`` bounds the total wait.
        """
        deadline = None if timeout is None else time.time() + timeout
        for fingerprint in self._ready:
            result = self._collect(fingerprint)
            if result is not None:
                yield fingerprint, result
        self._ready = []
        config = self.scheduler.config
        while self.pending_fingerprints():
            for pair in self._pump():
                yield pair
            if not self.pending_fingerprints():
                break
            if deadline is not None and time.time() > deadline:
                raise ServiceError(
                    f"submission timed out with {len(self.pending_fingerprints())} "
                    f"of {self.total_unique} jobs incomplete "
                    f"({self.stats().render()})",
                    failures=self.failures,
                )
            time.sleep(config.poll_interval)

    def wait(self, timeout: Optional[float] = None) -> "Submission":
        """Drive :meth:`stream` to completion (results kept on the handle)."""
        for _ in self.stream(timeout=timeout):
            pass
        return self

    def results(
        self, timeout: Optional[float] = None, strict: bool = True
    ) -> List[object]:
        """All results **in submitted job order** (duplicates fanned out).

        With ``strict`` (default) raises :class:`ServiceError` if any job
        failed terminally; otherwise failed positions hold ``None``.
        """
        self.wait(timeout=timeout)
        if strict and self.failures:
            summary = "; ".join(
                f"{fp[:12]}: {message}"
                for fp, message in sorted(self.failures.items())
            )
            raise ServiceError(
                f"{len(self.failures)} of {self.total_unique} jobs failed "
                f"terminally: {summary}",
                failures=self.failures,
            )
        return [self.completed.get(fp) for fp in self.fingerprints]
