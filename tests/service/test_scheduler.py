"""Tests for the scheduler: dedupe, streaming, retry and fault recovery."""

from __future__ import annotations

import time
from dataclasses import replace

import pytest

from repro.service import (
    Scheduler,
    ServiceConfig,
    ServiceError,
    ServiceRunner,
    WorkerPool,
    worker_main,
)
from repro.service.testing import EchoJob, FailJob, WorkerKillJob

#: Fast-converging knobs for inline (single-process) scheduler tests.
FAST = ServiceConfig(
    job_timeout=30.0,
    max_attempts=2,
    backoff_base=0.01,
    backoff_max=0.05,
    liveness_timeout=5.0,
    poll_interval=0.01,
)


@pytest.fixture
def dirs(tmp_path):
    return str(tmp_path / "spool"), str(tmp_path / "cache")


def drain(dirs, worker_id: str = "inline") -> int:
    """Run one in-process worker until the queue stays empty."""
    spool_root, cache_dir = dirs
    return worker_main(
        spool_root, cache_dir, worker_id=worker_id, poll_interval=0.01, max_idle=0.05
    )


class TestSubmissionDedupe:
    def test_batch_store_and_results_in_job_order(self, dirs):
        scheduler = Scheduler(dirs[0], cache_dir=dirs[1], config=FAST)
        jobs = [EchoJob("a"), EchoJob("a"), EchoJob("b")]
        submission = scheduler.submit(jobs)
        assert submission.deduplicated == 1
        assert submission.enqueued == 2
        assert drain(dirs) == 2
        assert submission.results(timeout=5) == ["echo:a", "echo:a", "echo:b"]
        stats = submission.stats()
        assert stats.completed == 2
        assert stats.executed == 2
        assert stats.failed == 0

    def test_warm_store_answers_without_queueing(self, dirs):
        scheduler = Scheduler(dirs[0], cache_dir=dirs[1], config=FAST)
        jobs = [EchoJob("a"), EchoJob("b")]
        scheduler.submit(jobs)
        drain(dirs)

        scheduler.store.query_count = 0
        warm = scheduler.submit(jobs)
        assert warm.initial_hits == 2
        assert warm.enqueued == 0
        # The store-level dedupe was one indexed query, not per-job stats.
        assert scheduler.store.query_count == 1
        assert warm.results(timeout=5) == ["echo:a", "echo:b"]
        assert warm.stats().executed == 0
        assert warm.stats().cache_hits == 2

    def test_concurrent_submitters_share_one_queue_and_index(self, dirs):
        """Two schedulers on the same directories: the second submission
        queues nothing (spool-level dedupe), and both converge on the same
        results through the shared sqlite index."""
        first = Scheduler(dirs[0], cache_dir=dirs[1], config=FAST)
        second = Scheduler(dirs[0], cache_dir=dirs[1], config=FAST)
        jobs = [EchoJob("a"), EchoJob("b")]
        sub_a = first.submit(jobs)
        sub_b = second.submit(jobs)
        assert sub_a.enqueued == 2
        assert sub_b.enqueued == 0  # awaits the first submitter's jobs
        assert first.spool.queue_depth() == 2
        drain(dirs)
        assert sub_a.results(timeout=5) == sub_b.results(timeout=5)

    def test_enqueue_race_cannot_double_queue(self, dirs):
        scheduler = Scheduler(dirs[0], cache_dir=dirs[1], config=FAST)
        job = EchoJob("a")
        assert scheduler.spool.enqueue(job.fingerprint(), job) is True
        # A submission arriving after the raw enqueue just awaits it.
        submission = scheduler.submit([job])
        assert submission.enqueued == 0
        assert scheduler.spool.queue_depth() == 1


class TestRetryAndFailure:
    def test_failing_job_retries_then_exhausts(self, dirs):
        scheduler = Scheduler(dirs[0], cache_dir=dirs[1], config=FAST)
        submission = scheduler.submit([FailJob("x"), EchoJob("ok")])
        deadline = time.time() + 10
        while not submission.failures and time.time() < deadline:
            drain(dirs)
            submission._pump()
            time.sleep(0.02)
        (message,) = submission.failures.values()
        assert "retries exhausted" in message
        assert "injected failure" in message
        assert submission.retries == FAST.max_attempts - 1
        # strict results surface the failure; non-strict fill None.
        with pytest.raises(ServiceError) as excinfo:
            submission.results(timeout=5)
        assert FailJob("x").fingerprint() in excinfo.value.failures
        assert submission.results(timeout=5, strict=False) == [None, "echo:ok"]

    def test_stream_timeout_raises_service_error(self, dirs):
        scheduler = Scheduler(dirs[0], cache_dir=dirs[1], config=FAST)
        submission = scheduler.submit([EchoJob("never")])  # no workers running
        with pytest.raises(ServiceError, match="timed out"):
            list(submission.stream(timeout=0.2))

    def test_backoff_delay_is_exponential_and_capped(self):
        config = ServiceConfig(backoff_base=0.25, backoff_max=1.0)
        assert config.backoff_delay(1) == 0.25
        assert config.backoff_delay(2) == 0.5
        assert config.backoff_delay(3) == 1.0
        assert config.backoff_delay(10) == 1.0


class TestFaultRecovery:
    def test_dead_worker_claim_is_requeued(self, dirs):
        # registration_grace=0 restores the pre-grace reading: a claimer
        # that never registered is dead immediately.  (With the default
        # grace it would be presumed a still-starting worker for a few
        # seconds first — pinned by the telemetry/compaction suite.)
        config = replace(FAST, registration_grace=0.0)
        scheduler = Scheduler(dirs[0], cache_dir=dirs[1], config=config)
        submission = scheduler.submit([EchoJob("a")])
        assert scheduler.spool.claim("ghost") is not None
        assert scheduler.spool.queue_depth() == 0
        submission._pump()
        assert scheduler.spool.queue_depth() == 1
        assert submission.retries == 1
        drain(dirs)
        assert submission.results(timeout=5) == ["echo:a"]

    def test_claim_racing_the_pump_is_not_queued_twice(self, dirs):
        """A worker claims a pending job while the pump lists the spool: the
        job is in flight, not orphaned, so no duplicate is queued."""
        scheduler = Scheduler(dirs[0], cache_dir=dirs[1], config=FAST)
        spool = scheduler.spool
        submission = scheduler.submit([EchoJob("a")])
        spool.register_worker("w1")
        listing = spool.claimed_jobs
        raced = []

        def claim_after_first_listing():
            claims = listing()
            if not raced:
                raced.append(spool.claim("w1"))
            return claims

        spool.claimed_jobs = claim_after_first_listing
        submission._pump()
        assert raced[0] is not None
        assert submission.enqueued == 1
        assert spool.queue_depth() == 0
        assert submission.retries == 0

    def test_dead_worker_requeue_claimed_at_once_is_counted_once(self, dirs):
        """The dead worker's job is re-queued and a survivor claims it before
        the pump ends: one counted retry and no duplicate in the queue."""
        config = replace(FAST, registration_grace=0.0)
        scheduler = Scheduler(dirs[0], cache_dir=dirs[1], config=config)
        spool = scheduler.spool
        submission = scheduler.submit([EchoJob("a")])
        assert spool.claim("ghost") is not None
        spool.register_worker("survivor")
        release = spool.release_claim

        def release_then_claim(*args, **kwargs):
            released = release(*args, **kwargs)
            assert spool.claim("survivor") is not None
            return released

        spool.release_claim = release_then_claim
        submission._pump()
        assert submission.retries == 1
        assert submission.enqueued == 1
        assert spool.queue_depth() == 0
        assert spool.claimed_jobs() == {"survivor": [EchoJob("a").fingerprint()]}

    def test_job_timeout_requeues_and_exhausts(self, dirs):
        """A claim held past job_timeout goes back to pending; repeated
        timeouts burn the attempt budget and fail terminally."""
        config = ServiceConfig(
            job_timeout=0.05,
            max_attempts=2,
            backoff_base=0.01,
            backoff_max=0.02,
            liveness_timeout=60.0,  # the worker *is* alive, just stuck
            poll_interval=0.01,
        )
        scheduler = Scheduler(dirs[0], cache_dir=dirs[1], config=config)
        spool = scheduler.spool
        submission = scheduler.submit([EchoJob("stuck")])
        spool.register_worker("w1")

        timeouts = 0
        deadline = time.time() + 10
        while not submission.failures and time.time() < deadline:
            spool.heartbeat("w1")
            if spool.queue_depth():
                spool.claim("w1")  # "execute" forever: never finish
                timeouts += 1
            submission._pump()
            time.sleep(0.02)
        (message,) = submission.failures.values()
        assert "timed out" in message
        assert timeouts == config.max_attempts
        with pytest.raises(ServiceError):
            submission.results(timeout=1)

    def test_torn_store_entry_is_recomputed(self, dirs):
        # Index row present but payload file gone: the pump forgets the
        # stale row and re-queues the job instead of failing the batch.
        scheduler = Scheduler(dirs[0], cache_dir=dirs[1], config=FAST)
        job = EchoJob("torn")
        scheduler.submit([job])
        drain(dirs)
        scheduler.store.path_for(job.fingerprint()).unlink()
        submission = scheduler.submit([job])
        assert submission.initial_hits == 1  # the index over-reported...
        drain(dirs)

        def pump_and_drain():
            submission._pump()
            drain(dirs)

        deadline = time.time() + 5
        while not submission.completed and time.time() < deadline:
            pump_and_drain()
        assert submission.results(timeout=5) == ["echo:torn"]


class TestWorkerPoolIntegration:
    def test_killed_worker_jobs_survive(self, tmp_path):
        """The satellite scenario: a worker SIGKILLed mid-job; its claim is
        re-queued onto the survivor and the submission still completes."""
        spool_root = str(tmp_path / "spool")
        cache_dir = str(tmp_path / "cache")
        config = ServiceConfig(
            job_timeout=30.0,
            max_attempts=3,
            backoff_base=0.01,
            backoff_max=0.05,
            liveness_timeout=0.5,
            poll_interval=0.02,
        )
        scheduler = Scheduler(spool_root, cache_dir=cache_dir, config=config)
        jobs = [
            WorkerKillJob("bomb", marker_dir=str(tmp_path / "kills"), max_kills=1)
        ] + [EchoJob(f"job-{i}") for i in range(4)]
        with WorkerPool(spool_root, cache_dir, workers=2, poll_interval=0.02) as pool:
            submission = scheduler.submit(jobs)
            results = submission.results(timeout=60)
            assert pool.alive_count() >= 1
        assert results[0] == "kill:bomb:survived"
        assert sorted(results[1:]) == sorted(f"echo:job-{i}" for i in range(4))
        # Exactly one worker died on the bomb, and the scheduler saw it.
        assert len(list((tmp_path / "kills").iterdir())) == 1
        assert submission.retries >= 1

    def test_pool_stop_reaps_workers(self, tmp_path):
        pool = WorkerPool(
            str(tmp_path / "spool"), str(tmp_path / "cache"), workers=2,
            poll_interval=0.02,
        )
        pool.start()
        assert pool.alive_count() == 2
        pool.stop(timeout=10)
        assert pool.alive_count() == 0
        assert not pool.spool.stop_requested()  # cleared for the next serve


class TestServiceRunner:
    def test_runner_facade_matches_direct_results(self, dirs):
        scheduler = Scheduler(dirs[0], cache_dir=dirs[1], config=FAST)
        seen = []
        runner = ServiceRunner(
            scheduler,
            timeout=30,
            progress=lambda fp, result, done, total: seen.append((done, total)),
        )
        jobs = [EchoJob("a"), EchoJob("b"), EchoJob("a")]
        with WorkerPool(dirs[0], dirs[1], workers=1, poll_interval=0.02):
            results = runner.run(jobs)
        assert results == ["echo:a", "echo:b", "echo:a"]
        assert seen == [(1, 2), (2, 2)]
        stats = runner.stats()
        assert stats.executed == 2
        assert stats.deduplicated == 1
        assert stats.cache_hits == 0

        # Warm re-run: everything is a cache hit, nothing executes, and no
        # workers are even needed.
        assert runner.run(jobs) == results
        assert runner.stats().executed == 2
        assert runner.stats().cache_hits == 2

    def test_empty_batch_short_circuits(self, dirs):
        scheduler = Scheduler(dirs[0], cache_dir=dirs[1], config=FAST)
        assert ServiceRunner(scheduler).run([]) == []


class TestSchedulerConstruction:
    def test_requires_store_or_cache_dir(self, tmp_path):
        with pytest.raises(ValueError):
            Scheduler(tmp_path / "spool")

    def test_service_stats_render_format(self, dirs):
        scheduler = Scheduler(dirs[0], cache_dir=dirs[1], config=FAST)
        line = scheduler.service_stats().render()
        assert line == (
            "queue=0 in-flight=0 done=0 failed=0 retries=0 workers=0+0dead"
        )
