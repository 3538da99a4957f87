"""The runner's vec batch path, end to end through the result cache.

Under the ``vec`` engine the in-process executors step same-config jobs
together (:func:`repro.runner.jobs.execute_jobs`).  Batching must be
invisible: the same sweep run batched and per job yields identical PRA
scores and byte-identical cache files.  Other engines never enter the
batch path.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict

import pytest

from repro.core.pra import PRAConfig
from repro.core.space import DesignSpace
from repro.core.study import PRAStudy
from repro.runner import ExperimentRunner, ProcessExecutor, ResultCache, SerialExecutor
from repro.sim.config import SimulationConfig
from repro.sim.engine import using_engine
from repro.sim.population_vec import VecSimulation

PROTOCOLS = DesignSpace.default().sample(5, seed=3)
CONFIG = PRAConfig(
    sim=SimulationConfig.smoke(), performance_runs=2, encounter_runs=1, seed=4
)


class PerJobExecutor:
    """Runs every job on its own, the way the pre-batching executor did."""

    def run(self, jobs):
        return [job.execute() for job in jobs]


def sweep(cache_root: Path, executor, engine: str):
    PRAStudy.clear_memo()
    runner = ExperimentRunner(executor=executor, cache=ResultCache(cache_root))
    with using_engine(engine):
        return PRAStudy(PROTOCOLS, CONFIG, runner=runner).run(use_cache=False)


def cache_files(root: Path) -> Dict[str, bytes]:
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


@pytest.fixture
def batch_sizes(monkeypatch):
    sizes = []
    real_batch = VecSimulation.batch.__func__

    def recording_batch(cls, config, members):
        sizes.append(len(members))
        return real_batch(cls, config, members)

    monkeypatch.setattr(VecSimulation, "batch", classmethod(recording_batch))
    return sizes


@pytest.mark.parametrize(
    "executor", [SerialExecutor(), ProcessExecutor(processes=1)], ids=repr
)
def test_batched_sweep_equals_per_job_sweep(tmp_path, batch_sizes, executor):
    batched = sweep(tmp_path / "batched", executor, "vec")
    # The three runner calls (performance, robustness, aggressiveness)
    # each ran as one batch.
    n = len(PROTOCOLS)
    assert batch_sizes == [n * CONFIG.performance_runs, n * (n - 1) // 2, n * (n - 1)]
    per_job = sweep(tmp_path / "per-job", PerJobExecutor(), "vec")

    assert batched.performance_raw == per_job.performance_raw
    assert batched.performance == per_job.performance
    assert batched.robustness == per_job.robustness
    assert batched.aggressiveness == per_job.aggressiveness
    files = cache_files(tmp_path / "batched")
    assert len(files) == sum(batch_sizes)
    assert files == cache_files(tmp_path / "per-job")


def test_fast_engine_never_enters_the_batch_path(tmp_path, monkeypatch):
    def refuse(cls, *args, **kwargs):
        raise AssertionError("the batch path ran under the fast engine")

    monkeypatch.setattr(VecSimulation, "batch", classmethod(refuse))
    batched = sweep(tmp_path / "serial", SerialExecutor(), "fast")
    per_job = sweep(tmp_path / "per-job", PerJobExecutor(), "fast")
    assert batched.performance == per_job.performance
    assert cache_files(tmp_path / "serial") == cache_files(tmp_path / "per-job")
