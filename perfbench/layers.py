"""Traced stand-ins for the program's layer objects.

Each class subclasses a public type of ``repro`` and wraps the calls a
workload makes into that layer in a :class:`~tracer.Tracer` span, so the
benchmark times every layer from outside without any hook in ``src/``.
Untraced passes use the plain classes; only traced passes build these.

Span names are the layer vocabulary the per-layer metrics use:

* ``core`` — ``PRAStudy.run`` (job build + score aggregation)
* ``runner`` — ``ExperimentRunner.run`` / ``ServiceRunner.run``
  (fingerprint + dedupe + result fan-out)
* ``cache.get`` / ``cache.put`` — ``ResultCache`` reads and writes
* ``executor`` — ``SerialExecutor.run``; ``sim`` — one job's engine run
* ``atlas.compile`` — ``AtlasSpec.jobs``; ``atlas.report`` — ``build_report``
* ``service.submit`` — ``Scheduler.submit``; ``service.stream`` — one
  step of ``Submission.stream`` (poll sleeps are its self time)
* ``store.probe_many`` / ``store.get`` — the sqlite-indexed store
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, List

from repro.runner.cache import ResultCache
from repro.runner.executors import SerialExecutor
from repro.runner.runner import ExperimentRunner
from repro.service.runner import ServiceRunner
from repro.service.scheduler import Scheduler, Submission
from repro.service.store import IndexedResultStore
from repro.sim.engine import profiled_simulation
from repro.sim.profiling import profile_seconds_of, top_level_phases

from tracer import Tracer


@contextmanager
def patched(owner, name: str, replacement):
    """Temporarily replace attribute ``name`` of ``owner``."""
    original = getattr(owner, name)
    setattr(owner, name, replacement)
    try:
        yield
    finally:
        setattr(owner, name, original)


class TracedCache(ResultCache):
    """A fresh result cache whose reads and writes are spans."""

    def __init__(self, root, tracer: Tracer):
        super().__init__(root)
        self.tracer = tracer
        self.read_fingerprints: List[str] = []
        self.written_paths: List = []

    def get(self, job, fingerprint=None):
        with self.tracer.span("cache.get"):
            result = super().get(job, fingerprint)
        if result is not None:
            self.read_fingerprints.append(fingerprint or job.fingerprint())
        return result

    def put(self, job, result, fingerprint=None):
        with self.tracer.span("cache.put"):
            path = super().put(job, result, fingerprint)
        self.written_paths.append(path)
        return path

    def bytes_read(self) -> int:
        return sum(self.path_for(fp).stat().st_size for fp in self.read_fingerprints)

    def bytes_written(self) -> int:
        return sum(path.stat().st_size for path in self.written_paths)


class TracedExecutor(SerialExecutor):
    """Serial execution with one ``sim`` span and one phase table per job.

    Jobs run through :func:`~repro.sim.engine.profiled_simulation` — the
    engine :func:`~repro.sim.engine.simulate` picks, with its phase timers
    on — which yields the same result as ``job.execute()``; the benchmark's
    output checks compare traced and untraced scores to hold it to that.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.phase_seconds: Dict[str, float] = {}
        self.peer_rounds = 0

    def run(self, jobs):
        with self.tracer.span("executor"):
            return [self._execute(job) for job in jobs]

    def _execute(self, job):
        with self.tracer.span("sim"):
            simulation = profiled_simulation(
                job.config,
                list(job.behaviors),
                groups=list(job.groups) if job.groups is not None else None,
                seed=job.seed,
            )
            result = simulation.run()
        for phase, seconds in top_level_phases(profile_seconds_of(simulation)).items():
            self.phase_seconds[phase] = self.phase_seconds.get(phase, 0.0) + seconds
        self.peer_rounds += job.config.n_peers * result.rounds_executed
        return result


class _RunnerSpan:
    """Mixin: each batch a runner executes is one ``runner`` span."""

    tracer: Tracer
    jobs_submitted = 0

    def run(self, jobs):
        jobs = list(jobs)
        self.jobs_submitted += len(jobs)
        with self.tracer.span("runner"):
            return super().run(jobs)


class TracedRunner(_RunnerSpan, ExperimentRunner):
    def __init__(self, tracer: Tracer, **kwargs):
        super().__init__(**kwargs)
        self.tracer = tracer


class TracedServiceRunner(_RunnerSpan, ServiceRunner):
    def __init__(self, scheduler, tracer: Tracer, **kwargs):
        super().__init__(scheduler, **kwargs)
        self.tracer = tracer


class TracedStore(IndexedResultStore):
    """The scheduler-side store: probes and result reads are spans."""

    def __init__(self, root, tracer: Tracer):
        super().__init__(root)
        self.tracer = tracer
        self.read_fingerprints: List[str] = []

    def probe_many(self, fingerprints):
        with self.tracer.span("store.probe_many"):
            return super().probe_many(fingerprints)

    def get(self, job, fingerprint=None):
        with self.tracer.span("store.get"):
            result = super().get(job, fingerprint)
        if result is not None:
            self.read_fingerprints.append(fingerprint or job.fingerprint())
        return result

    def bytes_read(self) -> int:
        return sum(self.path_for(fp).stat().st_size for fp in self.read_fingerprints)


class TracedSubmission(Submission):
    def stream(self, timeout=None):
        tracer = self.scheduler.tracer
        inner = super().stream(timeout=timeout)
        while True:
            with tracer.span("service.stream"):
                try:
                    item = next(inner)
                except StopIteration:
                    return
            yield item


class TracedScheduler(Scheduler):
    def __init__(self, spool_root, tracer: Tracer, **kwargs):
        super().__init__(spool_root, **kwargs)
        self.tracer = tracer

    def submit(self, jobs):
        with self.tracer.span("service.submit"):
            return TracedSubmission(self, list(jobs))
