"""Unit tests for the experiment runner: jobs, executors, dedupe, defaults."""

from __future__ import annotations

import json

import pytest

from repro.core.protocol import bittorrent_reference, sort_s
from repro.runner import (
    ExperimentRunner,
    ProcessExecutor,
    SerialExecutor,
    SimulationJob,
    configure_default_runner,
    get_default_runner,
    set_default_runner,
    using_runner,
)
from repro.runner.jobs import result_to_payload
from repro.sim.bandwidth import ConstantBandwidth, EmpiricalBandwidth
from repro.sim.config import SimulationConfig


@pytest.fixture(autouse=True)
def reset_default_runner():
    """Keep the process-wide default runner pristine across tests."""
    set_default_runner(None)
    yield
    set_default_runner(None)


def make_job(seed: int = 0, rounds: int = 6, **config_changes) -> SimulationJob:
    config = SimulationConfig(n_peers=6, rounds=rounds, **config_changes)
    return SimulationJob(
        config=config, behaviors=(bittorrent_reference().behavior,), seed=seed
    )


class TestSimulationJob:
    def test_execute_matches_direct_simulation(self):
        from repro.sim.population_fast import FastPopulationSimulation

        job = make_job(seed=42)
        direct = FastPopulationSimulation(
            job.config, list(job.behaviors), groups=None, seed=42
        ).run()
        assert job.execute().records == direct.records

    def test_fingerprint_is_stable_and_content_sensitive(self):
        job = make_job(seed=1)
        assert job.fingerprint() == make_job(seed=1).fingerprint()
        assert job.fingerprint() != make_job(seed=2).fingerprint()
        assert job.fingerprint() != make_job(seed=1, rounds=7).fingerprint()
        other_behavior = SimulationJob(
            config=job.config, behaviors=(sort_s().behavior,), seed=1
        )
        assert job.fingerprint() != other_behavior.fingerprint()

    def test_fingerprint_sees_group_labels(self):
        config = SimulationConfig(n_peers=4, rounds=5)
        behaviors = (bittorrent_reference().behavior, sort_s().behavior) * 2
        plain = SimulationJob(config=config, behaviors=behaviors, seed=0)
        grouped = SimulationJob(
            config=config, behaviors=behaviors, groups=("A", "B", "A", "B"), seed=0
        )
        assert plain.fingerprint() != grouped.fingerprint()

    def test_fingerprint_distinguishes_bandwidth_distributions(self):
        base = SimulationConfig(n_peers=4, rounds=5)
        constant = base.with_(bandwidth=ConstantBandwidth(50.0))
        empirical = base.with_(
            bandwidth=EmpiricalBandwidth([(0.5, 10.0), (0.5, 100.0)])
        )
        other_empirical = base.with_(
            bandwidth=EmpiricalBandwidth([(0.5, 20.0), (0.5, 100.0)])
        )
        behaviors = (bittorrent_reference().behavior,)
        fingerprints = {
            SimulationJob(config=c, behaviors=behaviors, seed=0).fingerprint()
            for c in (base, constant, empirical, other_empirical)
        }
        assert len(fingerprints) == 4

    def test_rejects_empty_behaviors(self):
        with pytest.raises(ValueError):
            SimulationJob(config=SimulationConfig(n_peers=4, rounds=5), behaviors=())


class TestPopulationCacheKeys:
    """The job hash must see the population-dynamics fields (regression).

    Without this, a cached fixed-population result would be served for a
    variable-population job (or for a variable job with different arrival
    parameters) that hashes identically otherwise.
    """

    @staticmethod
    def _population(arrival_rate: float = 0.5, departure_rate: float = 0.02):
        from repro.sim.dynamics import (
            ArrivalProcess,
            DepartureProcess,
            PopulationDynamics,
        )

        return PopulationDynamics(
            arrival=ArrivalProcess(kind="poisson", rate=arrival_rate),
            departure=DepartureProcess(rate=departure_rate),
        )

    def test_variable_job_never_shares_the_fixed_jobs_key(self):
        fixed = make_job(seed=0)
        variable = SimulationJob(
            config=fixed.config.with_(population=self._population()),
            behaviors=fixed.behaviors,
            seed=0,
        )
        assert fixed.fingerprint() != variable.fingerprint()
        assert "population" in variable.payload()["config"]
        assert "population" not in fixed.payload()["config"]

    def test_jobs_differing_only_in_arrival_rate_get_distinct_keys(self):
        jobs = [
            make_job(seed=0, population=self._population(arrival_rate=rate))
            for rate in (0.25, 0.5)
        ]
        assert jobs[0].fingerprint() != jobs[1].fingerprint()

    def test_specs_differing_only_in_arrival_rate_get_distinct_keys(self):
        from repro.scenarios.spec import ArrivalSpec, PopulationSpec, ScenarioSpec

        def spec(size: float) -> ScenarioSpec:
            return ScenarioSpec(
                name="arrival-rate-probe",
                population=PopulationSpec(size=10),
                arrival=ArrivalSpec(kind="poisson", churn_rate=0.01, size=size),
                rounds=20,
            )

        slow, fast = spec(0.02), spec(0.04)
        assert slow.fingerprint() != fast.fingerprint()
        job_slow = slow.compile("smoke", seed=0)
        job_fast = fast.compile("smoke", seed=0)
        assert job_slow.fingerprint() != job_fast.fingerprint()

    def test_cached_fixed_result_not_served_for_variable_job(self, tmp_path):
        from repro.runner.cache import ResultCache

        fixed = make_job(seed=3)
        variable = SimulationJob(
            config=fixed.config.with_(population=self._population()),
            behaviors=fixed.behaviors,
            seed=3,
        )
        cache = ResultCache(tmp_path)
        cache.put(fixed, fixed.execute())
        assert cache.get(variable) is None
        assert cache.get(fixed) is not None

    def test_variable_result_round_trips_through_the_cache(self, tmp_path):
        from repro.runner.cache import ResultCache

        job = make_job(seed=5, rounds=12, population=self._population())
        cache = ResultCache(tmp_path)
        fresh = job.execute()
        cache.put(job, fresh)
        cached = cache.get(job)
        assert cached is not None
        assert cached.records == fresh.records
        assert cached.active_counts == fresh.active_counts
        assert cached.total_arrivals == fresh.total_arrivals
        assert cached.total_departures == fresh.total_departures
        assert [r.cohort for r in cached.records] == [
            r.cohort for r in fresh.records
        ]
        assert [r.rounds_present for r in cached.records] == [
            r.rounds_present for r in fresh.records
        ]


class TestExecutors:
    def test_serial_and_process_executors_agree(self):
        jobs = [make_job(seed=s) for s in range(4)]
        serial = SerialExecutor().run(jobs)
        parallel = ProcessExecutor(processes=2).run(jobs)
        assert [r.records for r in serial] == [r.records for r in parallel]

    def test_process_executor_preserves_job_order(self):
        jobs = [make_job(seed=s, rounds=4 + (s % 3)) for s in range(6)]
        results = ProcessExecutor(processes=2).run(jobs)
        assert [r.rounds_executed for r in results] == [4 + (s % 3) for s in range(6)]

    def test_process_executor_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            ProcessExecutor(processes=0)
        with pytest.raises(ValueError):
            ProcessExecutor(chunksize=0)


class TestExperimentRunner:
    def test_empty_batch(self):
        assert ExperimentRunner().run([]) == []

    def test_batch_dedupe_runs_identical_jobs_once(self):
        runner = ExperimentRunner()
        job = make_job(seed=3)
        results = runner.run([job, make_job(seed=3), job])
        assert runner.jobs_executed == 1
        assert runner.jobs_deduplicated == 2
        assert results[0].records == results[1].records == results[2].records

    def test_cache_round_trip_across_runner_instances(self, tmp_path):
        job = make_job(seed=9)
        first = ExperimentRunner(cache_dir=tmp_path)
        fresh = first.run_one(job)
        assert first.cache_misses == 1 and first.jobs_executed == 1

        second = ExperimentRunner(cache_dir=tmp_path)
        warm = second.run_one(job)
        assert second.cache_hits == 1 and second.jobs_executed == 0
        assert warm.records == fresh.records
        assert warm.config is job.config  # config reattached from the job

    def test_cache_layout_is_content_addressed(self, tmp_path):
        runner = ExperimentRunner(cache_dir=tmp_path)
        job = make_job(seed=4)
        runner.run_one(job)
        fingerprint = job.fingerprint()
        expected = tmp_path / fingerprint[:2] / f"{fingerprint}.json"
        assert expected.is_file()
        assert len(runner.cache) == 1

    def test_cache_file_is_the_compact_json_of_the_payload(self, tmp_path):
        runner = ExperimentRunner(cache_dir=tmp_path)
        job = make_job(seed=6)
        result = runner.run_one(job)
        stored = runner.cache.path_for(job.fingerprint()).read_bytes()
        expected = json.dumps(result_to_payload(result), separators=(",", ":"))
        assert stored == expected.encode("utf-8")

    def test_corrupt_cache_entry_is_a_miss(self, tmp_path):
        runner = ExperimentRunner(cache_dir=tmp_path)
        job = make_job(seed=5)
        fresh = runner.run_one(job)
        path = runner.cache.path_for(job.fingerprint())
        path.write_text("{not json", encoding="utf-8")
        again = runner.run_one(job)
        assert again.records == fresh.records

    def test_parallel_cached_runner_matches_serial_uncached(self, tmp_path):
        jobs = [make_job(seed=s) for s in range(5)]
        serial = ExperimentRunner().run(jobs)
        parallel = ExperimentRunner(jobs=2, cache_dir=tmp_path).run(jobs)
        assert [r.records for r in serial] == [r.records for r in parallel]


class TestDefaultRunner:
    def test_default_runner_is_created_lazily_and_reused(self):
        runner = get_default_runner()
        assert get_default_runner() is runner

    def test_configure_default_runner_installs(self, tmp_path):
        runner = configure_default_runner(jobs=1, cache_dir=tmp_path)
        assert get_default_runner() is runner
        assert runner.cache is not None

    def test_using_runner_restores_previous(self):
        outer = configure_default_runner()
        inner = ExperimentRunner()
        with using_runner(inner):
            assert get_default_runner() is inner
        assert get_default_runner() is outer

    def test_env_configuration(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_JOBS", "2")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        set_default_runner(None)
        runner = get_default_runner()
        assert isinstance(runner.executor, ProcessExecutor)
        assert runner.cache is not None and runner.cache.root == tmp_path


class TestCacheCorruptionQuarantine:
    """Corrupt cache entries behave as misses and are quarantined, not fatal."""

    def _poison(self, runner, job, text: str):
        path = runner.cache.path_for(job.fingerprint())
        path.write_text(text, encoding="utf-8")
        return path

    def test_torn_file_is_a_miss_and_quarantined(self, tmp_path):
        runner = ExperimentRunner(cache_dir=tmp_path)
        job = make_job(seed=21)
        fresh = runner.run_one(job)
        path = runner.cache.path_for(job.fingerprint())
        # Tear the entry: a valid prefix cut off mid-stream (disk full /
        # killed process).
        torn = path.read_text(encoding="utf-8")[: len(path.read_text(encoding="utf-8")) // 2]
        path.write_text(torn, encoding="utf-8")
        again = runner.run_one(job)
        assert again.records == fresh.records
        # The torn bytes were moved aside and a fresh entry re-stored.
        assert path.with_suffix(".corrupt").read_text(encoding="utf-8") == torn
        assert path.is_file()
        assert runner.run_one(job).records == fresh.records  # now a clean hit

    def test_garbage_non_dict_json_is_a_miss(self, tmp_path):
        runner = ExperimentRunner(cache_dir=tmp_path)
        job = make_job(seed=22)
        fresh = runner.run_one(job)
        path = self._poison(runner, job, "[1, 2, 3]")
        again = runner.run_one(job)  # previously crashed: list has no .get
        assert again.records == fresh.records
        assert path.is_file()

    def test_mangled_payload_is_a_miss(self, tmp_path):
        runner = ExperimentRunner(cache_dir=tmp_path)
        job = make_job(seed=23)
        fresh = runner.run_one(job)
        path = self._poison(
            runner, job, '{"version": 1, "records": [{"peer_id": "zap"}]}'
        )
        again = runner.run_one(job)
        assert again.records == fresh.records
        assert path.is_file()

    def test_quarantine_moves_file_aside(self, tmp_path):
        from repro.runner.cache import ResultCache

        cache = ResultCache(tmp_path)
        job = make_job(seed=24)
        path = cache.path_for(job.fingerprint())
        path.parent.mkdir(parents=True)
        path.write_text("{not json", encoding="utf-8")
        assert cache.get(job) is None
        assert cache.misses == 1
        assert not path.exists()
        quarantined = path.with_suffix(".corrupt")
        assert quarantined.is_file()
        assert quarantined.read_text(encoding="utf-8") == "{not json"
        # Quarantined files do not count as stored results.
        assert len(cache) == 0


class TestDefaultJobCount:
    def test_respects_cpu_affinity_mask(self, monkeypatch):
        import repro.runner.executors as executors

        monkeypatch.setattr(
            executors.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False
        )
        assert executors.default_job_count() == 3

    def test_falls_back_to_cpu_count(self, monkeypatch):
        import repro.runner.executors as executors

        def unavailable(pid):
            raise OSError("no affinity on this platform")

        monkeypatch.setattr(
            executors.os, "sched_getaffinity", unavailable, raising=False
        )
        monkeypatch.setattr(executors.os, "cpu_count", lambda: 5)
        assert executors.default_job_count() == 5

    def test_at_least_one(self, monkeypatch):
        import repro.runner.executors as executors

        def unavailable(pid):
            raise OSError("unavailable")

        monkeypatch.setattr(
            executors.os, "sched_getaffinity", unavailable, raising=False
        )
        monkeypatch.setattr(executors.os, "cpu_count", lambda: None)
        assert executors.default_job_count() == 1


class TestCacheMaintenance:
    """clear() sweeps quarantine files too, and put() never leaks temps."""

    def test_clear_removes_results_and_corrupt_files(self, tmp_path):
        from repro.runner.cache import ResultCache

        cache = ResultCache(tmp_path)
        stored = make_job(seed=30)
        cache.put(stored, stored.execute())
        poisoned = make_job(seed=31)
        bad_path = cache.path_for(poisoned.fingerprint())
        bad_path.parent.mkdir(parents=True, exist_ok=True)
        bad_path.write_text("{not json", encoding="utf-8")
        assert cache.get(poisoned) is None  # quarantines the garbage
        assert cache.corrupt_count() == 1

        removed = cache.clear()
        assert removed == 2  # one result + one .corrupt file
        assert len(cache) == 0
        assert cache.corrupt_count() == 0
        assert list(tmp_path.glob("*/*")) == []

    def test_corrupt_count_on_missing_root(self, tmp_path):
        from repro.runner.cache import ResultCache

        cache = ResultCache(tmp_path / "never-created")
        assert cache.corrupt_count() == 0
        assert cache.clear() == 0

    def test_put_cleans_temp_file_when_replace_fails(self, tmp_path, monkeypatch):
        import repro.runner.cache as cache_module
        from repro.runner.cache import ResultCache

        cache = ResultCache(tmp_path)
        job = make_job(seed=32)
        result = job.execute()

        def refuse(src, dst):
            raise PermissionError("replace refused")  # an OSError, not ENOENT

        monkeypatch.setattr(cache_module.os, "replace", refuse)
        with pytest.raises(PermissionError):
            cache.put(job, result)
        # The temp file must not leak even though the failure was not a
        # missing-file error.
        leftovers = [p for p in tmp_path.rglob("*") if p.is_file()]
        assert leftovers == []


class TestExecutorFailureAttribution:
    """Worker failures name the job; dead workers raise instead of hanging."""

    def test_failed_job_raises_attributed_error(self, tmp_path):
        from repro.runner.executors import JobExecutionError
        from repro.service.testing import FailJob

        jobs = [FailJob("first"), FailJob("second")]
        with pytest.raises(JobExecutionError) as excinfo:
            ProcessExecutor(processes=2).run(jobs)
        error = excinfo.value
        assert error.fingerprint in {job.fingerprint() for job in jobs}
        assert error.fingerprint[:12] in str(error)
        assert "RuntimeError: injected failure" in str(error)

    def test_attributed_error_survives_pickling(self):
        import pickle

        from repro.runner.executors import JobExecutionError

        error = JobExecutionError("job abc failed", fingerprint="abc123")
        clone = pickle.loads(pickle.dumps(error))
        assert isinstance(clone, JobExecutionError)
        assert clone.fingerprint == "abc123"
        assert str(clone) == str(error)

    def test_dead_worker_raises_instead_of_hanging(self, tmp_path):
        from repro.runner.executors import JobExecutionError
        from repro.service.testing import EchoJob, WorkerKillJob

        jobs = [
            WorkerKillJob("bomb", marker_dir=str(tmp_path / "kills"), max_kills=99)
        ] + [EchoJob(f"pad-{i}") for i in range(3)]
        with pytest.raises(JobExecutionError, match="worker process died"):
            ProcessExecutor(processes=2).run(jobs)

    def test_describe_job_names_scenario_and_config(self):
        from types import SimpleNamespace

        from repro.runner.executors import describe_job

        scenario_job = SimpleNamespace(
            spec=SimpleNamespace(name="colluders"), seed=7
        )
        assert describe_job(scenario_job) == "scenario 'colluders', seed 7"
        sim_job = make_job(seed=5)
        assert describe_job(sim_job) == "6 peers x 6 rounds, seed 5"
