"""Execution backends for the experiment runner.

Two interchangeable strategies execute a batch of
:class:`~repro.runner.jobs.SimulationJob`\\ s:

* :class:`SerialExecutor` — run in-process through
  :func:`~repro.runner.jobs.execute_jobs`.  Zero overhead, always
  available; the default.  Under the ``vec`` engine it steps same-config
  jobs together in one numpy batch, with byte-identical results.
* :class:`ProcessExecutor` — fan the batch out over a
  :mod:`multiprocessing` pool.  Jobs and results are plain picklable values,
  and every job carries its own seed, so results are identical to a serial
  run regardless of worker count or scheduling (pinned by the runner tests).

Both return results **in job order**, which is what lets callers aggregate
(sums, win counts) in exactly the order the pre-runner code did — keeping
floating-point accumulation, and therefore every figure, bit-identical.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import List, Optional, Protocol, Sequence

from repro.runner.jobs import SimulationJob, execute_jobs
from repro.sim.engine import SimulationResult

__all__ = [
    "Executor",
    "SerialExecutor",
    "ProcessExecutor",
    "JobExecutionError",
    "default_job_count",
]


class JobExecutionError(RuntimeError):
    """A job failed (or its worker died) during batch execution.

    Carries the failed job's content ``fingerprint`` so a thousand-job batch
    failure points at the one job to re-run, instead of an anonymous
    traceback from somewhere inside a worker.
    """

    def __init__(self, message: str, fingerprint: Optional[str] = None):
        super().__init__(message)
        self.fingerprint = fingerprint

    def __reduce__(self):
        # Exceptions pickle by args; keep the fingerprint across the
        # worker -> parent process boundary.
        return (type(self), (self.args[0], self.fingerprint))


def describe_job(job) -> str:
    """A short human-readable identity for a job, for error messages."""
    spec = getattr(job, "spec", None)
    if spec is not None and getattr(spec, "name", None):
        return f"scenario {spec.name!r}, seed {job.seed}"
    config = getattr(job, "config", None)
    if config is not None and hasattr(config, "n_peers"):
        return (
            f"{config.n_peers} peers x {getattr(config, 'rounds', '?')} rounds, "
            f"seed {job.seed}"
        )
    return f"seed {getattr(job, 'seed', None)}"


def default_job_count() -> int:
    """Worker count used when the caller asks for "all cores".

    Respects the process's CPU affinity mask where the platform exposes it
    (``os.sched_getaffinity``), so cgroup-limited CI containers get the
    cores they may actually run on rather than the machine's full count.
    """
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):
        return max(1, os.cpu_count() or 1)


class Executor(Protocol):
    """Anything that can execute a batch of jobs in order."""

    def run(self, jobs: Sequence[SimulationJob]) -> List[SimulationResult]:
        """Execute ``jobs`` and return their results in the same order."""
        ...  # pragma: no cover - protocol


class SerialExecutor:
    """Execute jobs in the calling process (see :func:`execute_jobs`)."""

    def run(self, jobs: Sequence[SimulationJob]) -> List[SimulationResult]:
        return execute_jobs(jobs)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return "SerialExecutor()"


def _execute_job(job: SimulationJob) -> SimulationResult:
    """Module-level trampoline so pool workers can unpickle the callable."""
    try:
        return job.execute()
    except Exception as error:
        # Attach the job's identity: a bare worker exception says nothing
        # about *which* of a thousand batched jobs failed.
        fingerprint = job.fingerprint()
        raise JobExecutionError(
            f"job {fingerprint[:12]} ({describe_job(job)}) failed: "
            f"{type(error).__name__}: {error}",
            fingerprint=fingerprint,
        ) from error


class ProcessExecutor:
    """Execute jobs on a process pool.

    Parameters
    ----------
    processes:
        Worker count; ``None`` uses every available core.
    chunksize:
        Jobs handed to a worker per dispatch; ``None`` picks a size that
        gives each worker a handful of dispatches per batch (good
        load-balancing without drowning in IPC).

    A pool is created per :meth:`run` call and torn down afterwards, so no
    worker processes outlive a batch.  Batches smaller than two jobs (or a
    single worker) short-circuit to in-process execution.

    Failure behaviour: a job that raises surfaces as a
    :class:`JobExecutionError` naming the job's fingerprint and scenario,
    and a worker that *dies* mid-batch (OOM-killed, segfault, ``SIGKILL``)
    raises instead of hanging the batch forever — the pool backend is
    :class:`concurrent.futures.ProcessPoolExecutor`, whose broken-pool
    detection ``multiprocessing.Pool.map`` lacks.
    """

    def __init__(self, processes: Optional[int] = None, chunksize: Optional[int] = None):
        if processes is not None and processes < 1:
            raise ValueError("processes must be >= 1")
        if chunksize is not None and chunksize < 1:
            raise ValueError("chunksize must be >= 1")
        self.processes = processes if processes is not None else default_job_count()
        self.chunksize = chunksize

    def run(self, jobs: Sequence[SimulationJob]) -> List[SimulationResult]:
        jobs = list(jobs)
        if len(jobs) < 2 or self.processes < 2:
            return execute_jobs(jobs)
        workers = min(self.processes, len(jobs))
        chunksize = self.chunksize
        if chunksize is None:
            chunksize = max(1, len(jobs) // (workers * 4))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            try:
                return list(pool.map(_execute_job, jobs, chunksize=chunksize))
            except BrokenProcessPool as error:
                raise JobExecutionError(
                    f"a worker process died mid-batch while executing "
                    f"{len(jobs)} jobs (killed or crashed); the batch is "
                    f"incomplete — re-run it (cached results are kept)"
                ) from error

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"ProcessExecutor(processes={self.processes})"
