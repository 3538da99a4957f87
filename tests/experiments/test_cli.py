"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import EXPERIMENTS, main
from repro.runner import get_default_runner, set_default_runner
from repro.runner.runner import ENV_CACHE_DIR, ENV_JOBS


@pytest.fixture
def pristine_runner():
    """Reset the process-wide default runner around a CLI invocation."""
    set_default_runner(None)
    yield
    set_default_runner(None)


class TestCliList:
    def test_list_prints_every_experiment(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in output

    def test_registry_covers_all_paper_artifacts(self):
        expected = {
            "figure1", "figure2", "figure3", "figure4", "figure5", "figure6",
            "figure7", "figure8", "figure9", "figure10", "table2", "table3",
            "section2", "split-check", "churn-check", "scenarios", "atlas",
            "cross-substrate",
        }
        assert expected == set(EXPERIMENTS)


class TestCliRun:
    def test_run_unscaled_experiment(self, capsys):
        assert main(["run", "figure1"]) == 0
        assert "BitTorrent Dilemma" in capsys.readouterr().out

    def test_run_table2(self, capsys):
        assert main(["run", "table2"]) == 0
        assert "BarterCast" in capsys.readouterr().out

    def test_run_scaled_experiment_smoke(self, capsys):
        assert main(["run", "figure8", "--scale", "smoke"]) == 0
        assert "Pearson" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "figure99"])

    def test_unknown_scale_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "figure2", "--scale", "enormous"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_verbose_flag(self, capsys):
        assert main(["-v", "run", "table2"]) == 0


class TestCliScenario:
    def test_list_shows_registry(self, capsys):
        from repro.scenarios import scenario_names

        assert main(["scenario", "--list"]) == 0
        output = capsys.readouterr().out
        assert len(scenario_names()) >= 6
        for name in scenario_names():
            assert name in output

    def test_bare_scenario_command_lists(self, capsys):
        assert main(["scenario"]) == 0
        assert "flash-crowd" in capsys.readouterr().out

    def test_run_named_scenario_smoke(self, capsys):
        assert main(["scenario", "flash-crowd", "--scale", "smoke"]) == 0
        output = capsys.readouterr().out
        assert "flash-crowd" in output
        assert "throughput" in output

    def test_second_invocation_served_from_cache(self, tmp_path, capsys, pristine_runner):
        argv = [
            "scenario", "flash-crowd", "--scale", "smoke",
            "--jobs", "1", "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        set_default_runner(None)
        assert main(argv) == 0
        warm = capsys.readouterr().out
        # Deterministic table, and every job answered by the cache.
        assert warm.splitlines()[:-1] == cold.splitlines()[:-1]
        assert "0 misses (0 simulated)" in warm

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            main(["scenario", "does-not-exist", "--scale", "smoke"])

    def test_bad_reps_rejected(self):
        with pytest.raises(SystemExit):
            main(["scenario", "baseline", "--scale", "smoke", "--reps", "0"])


class TestCliAtlas:
    ARGS = [
        "atlas", "--scale", "smoke",
        "--protocol-axes", "ranking=I1,I5",
        "--scenarios", "baseline,colluding-whitewash",
        "--reps", "1",
    ]

    def test_atlas_prints_ranking_and_heatmaps(self, capsys):
        assert main(self.ARGS) == 0
        output = capsys.readouterr().out
        assert "robustness ranking" in output
        assert "protocol x workload heat map" in output
        assert "per-group PRA heat map" in output
        assert "colluding-whitewash:colluder" in output
        # The paper codes resolved onto the swept protocols.
        assert "I1" in output and "I5" in output

    def test_atlas_output_is_deterministic(self, capsys):
        assert main(self.ARGS) == 0
        first = capsys.readouterr().out
        assert main(self.ARGS) == 0
        assert capsys.readouterr().out == first

    def test_atlas_writes_csv(self, tmp_path, capsys):
        target = tmp_path / "atlas.csv"
        assert main(self.ARGS + ["--csv", str(target)]) == 0
        lines = target.read_text().splitlines()
        assert lines[0].startswith("protocol,scenario,group,cohort")
        assert len(lines) > 1

    def test_atlas_served_from_cache_on_rerun(self, tmp_path, capsys, pristine_runner):
        argv = self.ARGS + ["--jobs", "1", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        set_default_runner(None)
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert ", 0 simulated" in warm
        # Identical report either way.
        assert [l for l in warm.splitlines() if not l.startswith("grid:")] == [
            l for l in cold.splitlines() if not l.startswith("grid:")
        ]

    def test_atlas_rejects_bad_axes_and_scenarios(self):
        with pytest.raises(SystemExit):
            main(["atlas", "--protocol-axes", "warp=9"])
        with pytest.raises(SystemExit):
            main(["atlas", "--scenarios", "no-such-scenario", "--scale", "smoke"])
        with pytest.raises(SystemExit):
            main(["atlas", "--reps", "0", "--scale", "smoke"])
        # Grid validation errors surface as CLI errors, not tracebacks.
        with pytest.raises(SystemExit):
            main(
                ["atlas", "--scenarios", "baseline,baseline",
                 "--protocol-axes", "ranking=I1", "--scale", "smoke"]
            )


class TestCliRunnerConfiguration:
    def test_env_only_configuration_is_honoured(
        self, tmp_path, capsys, monkeypatch, pristine_runner
    ):
        """REPRO_JOBS/REPRO_CACHE_DIR alone must configure the runner (no flags)."""
        from repro.runner.executors import SerialExecutor

        monkeypatch.setenv(ENV_JOBS, "1")
        monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path))
        assert main(["scenario", "baseline", "--scale", "smoke"]) == 0
        runner = get_default_runner()
        assert runner.cache is not None
        assert str(runner.cache.root) == str(tmp_path)
        assert isinstance(runner.executor, SerialExecutor)
        # The run went through the env-configured cache.
        assert runner.jobs_executed > 0
        assert "cache:" in capsys.readouterr().out

    def test_env_jobs_selects_parallel_executor(
        self, monkeypatch, capsys, pristine_runner
    ):
        from repro.runner.executors import ProcessExecutor

        monkeypatch.setenv(ENV_JOBS, "2")
        monkeypatch.delenv(ENV_CACHE_DIR, raising=False)
        assert main(["scenario", "baseline", "--scale", "smoke"]) == 0
        runner = get_default_runner()
        assert isinstance(runner.executor, ProcessExecutor)
        assert runner.executor.processes == 2

    def test_flag_overrides_env(self, monkeypatch, capsys, pristine_runner):
        from repro.runner.executors import SerialExecutor

        monkeypatch.setenv(ENV_JOBS, "4")
        assert main(["scenario", "baseline", "--scale", "smoke", "--jobs", "1"]) == 0
        assert isinstance(get_default_runner().executor, SerialExecutor)

    def test_invalid_env_jobs_is_a_cli_error(self, monkeypatch, pristine_runner):
        monkeypatch.setenv(ENV_JOBS, "many")
        with pytest.raises(SystemExit):
            main(["scenario", "baseline", "--scale", "smoke"])


class TestCliEngineAndProfile:
    @pytest.fixture(autouse=True)
    def pristine_engine(self):
        """Reset the process-wide engine selection around each test.

        The ``--engine`` flag intentionally exports ``REPRO_SIM_ENGINE``
        (worker processes inherit it), so the environment must be popped
        explicitly — monkeypatch records nothing for a var that was absent
        before the test set it.
        """
        import os

        from repro.sim.engine import ENV_ENGINE, set_default_engine

        os.environ.pop(ENV_ENGINE, None)
        set_default_engine(None)
        yield
        set_default_engine(None)
        os.environ.pop(ENV_ENGINE, None)

    def test_engine_flag_sets_default_and_env(self, capsys):
        import os

        from repro.sim.engine import ENV_ENGINE, default_engine

        assert main(
            ["scenario", "whitewash-churn", "--scale", "smoke",
             "--engine", "reference"]
        ) == 0
        assert default_engine() == "reference"
        assert os.environ[ENV_ENGINE] == "reference"

    def test_engines_render_identical_scenario_output(self, capsys):
        assert main(["scenario", "whitewash-churn", "--scale", "smoke"]) == 0
        fast_output = capsys.readouterr().out
        assert main(
            ["scenario", "whitewash-churn", "--scale", "smoke",
             "--engine", "reference"]
        ) == 0
        reference_output = capsys.readouterr().out
        assert fast_output == reference_output

    def test_unknown_engine_rejected(self):
        with pytest.raises(SystemExit):
            main(["scenario", "whitewash-churn", "--engine", "warp"])

    def test_invalid_env_engine_is_a_cli_error(self, monkeypatch):
        from repro.sim.engine import ENV_ENGINE

        monkeypatch.setenv(ENV_ENGINE, "warp")
        with pytest.raises(SystemExit):
            main(["scenario", "whitewash-churn", "--scale", "smoke"])

    def test_reference_engine_covers_dynamics_scenarios(self, capsys):
        """A reference-engine run of a ScenarioDynamics scenario completes."""
        assert main(["scenario", "flash-crowd", "--scale", "smoke"]) == 0
        fast_output = capsys.readouterr().out
        assert main(
            ["scenario", "flash-crowd", "--scale", "smoke",
             "--engine", "reference"]
        ) == 0
        assert capsys.readouterr().out == fast_output

    def test_profile_prints_phase_timings(self, capsys):
        assert main(
            ["scenario", "whitewash-churn", "--scale", "smoke", "--profile"]
        ) == 0
        output = capsys.readouterr().out
        assert "engine fast" in output
        # The fast engines record the legacy "population" phase; reports
        # render it under the canonical name "churn".
        for phase in ("churn", "decision", "transfer", "ms/round"):
            assert phase in output

    def test_profile_honours_engine_override(self, capsys):
        assert main(
            ["scenario", "growing-swarm", "--scale", "smoke",
             "--engine", "reference", "--profile"]
        ) == 0
        assert "engine reference" in capsys.readouterr().out

    def test_profile_covers_fixed_population_scenarios(self, capsys):
        assert main(
            ["scenario", "flash-crowd", "--scale", "smoke", "--profile"]
        ) == 0
        output = capsys.readouterr().out
        assert "(fixed)" in output
        assert "[fused decision+transfer]" in output
        for phase in ("churn", "decision", "transfer", "ms/round"):
            assert phase in output

    def test_fixed_profile_runs_on_reference_engine(self, capsys):
        """Every engine profiles fixed-population scenarios too."""
        assert main(
            ["scenario", "flash-crowd", "--scale", "smoke",
             "--engine", "reference", "--profile"]
        ) == 0
        output = capsys.readouterr().out
        assert "engine reference" in output
        assert "(fixed)" in output
        # The reference engine runs its phases separately: no fused label.
        assert "[fused decision+transfer]" not in output
        for phase in ("churn", "decision", "transfer"):
            assert phase in output


class TestCliSwarmSubstrate:
    def test_scenario_runs_on_swarm_substrate(self, capsys):
        assert main(
            ["scenario", "burst-churn", "--scale", "smoke",
             "--substrate", "swarm"]
        ) == 0
        output = capsys.readouterr().out
        assert "burst-churn" in output
        assert "censored" in output

    def test_swarm_scenario_served_from_cache(self, tmp_path, capsys, pristine_runner):
        argv = [
            "scenario", "baseline", "--scale", "smoke", "--substrate", "swarm",
            "--jobs", "1", "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        set_default_runner(None)
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert warm.splitlines()[:-1] == cold.splitlines()[:-1]
        assert "0 misses (0 simulated)" in warm

    def test_profile_rejected_on_swarm_substrate(self):
        with pytest.raises(SystemExit):
            main(
                ["scenario", "baseline", "--scale", "smoke",
                 "--substrate", "swarm", "--profile"]
            )

    def test_unknown_substrate_rejected(self):
        with pytest.raises(SystemExit):
            main(["scenario", "baseline", "--substrate", "packets"])

    def test_atlas_runs_on_swarm_substrate(self, capsys):
        assert main(
            ["atlas", "--scale", "smoke", "--substrate", "swarm",
             "--protocol-axes", "ranking=I1,I5",
             "--scenarios", "baseline,colluding-whitewash", "--reps", "1"]
        ) == 0
        output = capsys.readouterr().out
        assert "swarm robustness atlas" in output
        assert "I1" in output and "I5" in output

    def test_atlas_swarm_csv(self, tmp_path, capsys):
        target = tmp_path / "swarm_atlas.csv"
        assert main(
            ["atlas", "--scale", "smoke", "--substrate", "swarm",
             "--protocol-axes", "ranking=I1,I5",
             "--scenarios", "baseline,colluding-whitewash", "--reps", "1",
             "--csv", str(target)]
        ) == 0
        lines = target.read_text().splitlines()
        assert lines[0] == "scenario,protocol,censored_mean_time,relative_score"
        assert len(lines) == 5

    def test_cross_substrate_experiment_runs(self, capsys):
        assert main(
            ["run", "cross-substrate", "--scale", "smoke"]
        ) == 0
        output = capsys.readouterr().out
        assert "Spearman" in output


class TestCliService:
    def test_serve_stop_writes_sentinel(self, tmp_path, capsys):
        root = tmp_path / "svc"
        assert main(["serve", "--root", str(root), "--stop"]) == 0
        assert "stop requested" in capsys.readouterr().out
        assert (root / "stop").exists()

    def test_serve_with_max_idle_drains_and_exits(self, tmp_path, capsys):
        root = tmp_path / "svc"
        assert main(
            ["serve", "--root", str(root), "--workers", "1",
             "--max-idle", "0.2", "--stats-interval", "0.05"]
        ) == 0
        output = capsys.readouterr().out
        assert "serving 1 workers" in output
        assert "serve: queue=" in output
        assert "shutting down" in output

    def test_submit_micro_grid_through_ephemeral_workers(self, tmp_path, capsys):
        root = tmp_path / "svc"
        argv = [
            "submit", "--root", str(root),
            "--protocol-axes", "ranking=I1,I5",
            "--scenarios", "baseline,colluders",
            "--scale", "smoke", "--workers", "2", "--timeout", "180",
        ]
        assert main(argv) == 0
        output = capsys.readouterr().out
        assert "submitting 4 cells x 2 reps" in output
        assert "cell 4/4 complete" in output
        assert "robustness atlas" in output
        assert "8 simulated" in output

        # Warm re-submit: every cell streams straight from the store.
        target = tmp_path / "atlas.csv"
        assert main(argv + ["--csv", str(target)]) == 0
        output = capsys.readouterr().out
        assert "cell 4/4 complete" in output
        assert "0 simulated" in output
        assert "8 cached" in output
        lines = target.read_text().splitlines()
        assert lines[0].startswith("protocol,scenario")

    def test_service_commands_reject_bad_input(self, tmp_path):
        root = str(tmp_path / "svc")
        with pytest.raises(SystemExit):
            main(["serve", "--root", root, "--workers", "0"])
        with pytest.raises(SystemExit):
            main(["submit", "--root", root, "--reps", "0"])
        with pytest.raises(SystemExit):
            main(["submit", "--root", root, "--scenarios", " ,"])
        with pytest.raises(SystemExit):
            main(["submit", "--root", root, "--protocol-axes", "nonsense"])
        with pytest.raises(SystemExit):
            main(["submit", "--root", root, "--scenarios", "no-such-scenario"])
