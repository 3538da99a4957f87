"""Span accounting of the benchmark's own tracer, on tiny workloads.

    python3 -m pytest perfbench -q

Checks that child spans nest inside their parents, that self times
partition a span tree, that the named layers leave no more than the
benchmark's tolerance of a traced pass's ``wall_s`` to the catch-all spans
(and that the check fires when they do), and that every metric a run
prints is declared in ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import time

import pytest

import run
from tracer import Tracer, percentile
from workloads import AtlasService, PassResult, PRASweep, VecSweep, atlas_experiment, layer_seconds

SPEC = json.loads(run.SPEC_PATH.read_text())
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]


class TinyPRA(PRASweep):
    protocol_count = 5


class TinyVec(VecSweep):
    protocol_count = 5


class TinyAtlas(AtlasService):
    def prepare(self) -> float:
        seconds = super().prepare()
        self.spec = atlas_experiment.make_spec("smoke", seed=self.seed, repetitions=1)
        return seconds


def spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_self_times_partition_a_nested_trace():
    tracer = Tracer()
    with tracer.span("pass"):
        spin(0.002)
        with tracer.span("core"):
            spin(0.002)
            for _ in range(3):
                with tracer.span("runner"):
                    with tracer.span("sim"):
                        spin(0.001)
    root = 0
    assert tracer.nesting_violations() == []
    own = tracer.self_times(root)
    assert set(own) == {"pass", "core", "runner", "sim"}
    assert sum(own.values()) == pytest.approx(tracer.spans[root].duration, abs=1e-9)
    assert own["sim"] == pytest.approx(sum(tracer.durations("sim")), abs=1e-12)
    assert all(value >= 0.0 for value in own.values())


def traced_pass(core_s: float, runner_s: float) -> PassResult:
    """One traced pass: ``core_s`` of catch-all time around ``runner_s`` of layer time."""
    tracer = Tracer()
    with tracer.span("pass"):
        with tracer.span("core"):
            spin(core_s)
            with tracer.span("runner"):
                spin(runner_s)
    wall = tracer.spans[0].duration
    return PassResult(wall_s=wall, cpu_s=wall, unique_jobs=1, layers=layer_seconds(tracer, 0))


def test_accounting_flags_time_no_layer_covers():
    assert run.accounting_problems([traced_pass(core_s=0.0005, runner_s=0.02)]) == []
    problems = run.accounting_problems(
        [traced_pass(core_s=0.0005, runner_s=0.02), traced_pass(core_s=0.02, runner_s=0.002)]
    )
    assert len(problems) == 1 and problems[0].startswith("traced pass 1:")


def test_a_failed_traced_pass_still_yields_metrics():
    failed = PassResult(wall_s=0.01, cpu_s=0.01, unique_jobs=1, failed=1)
    ok = traced_pass(core_s=0.0005, runner_s=0.01)
    assert run.accounting_problems([failed, ok]) == []
    metrics = run.per_layer_metrics([ok], [failed, ok], PER_LAYER)
    assert metrics["trace.unattributed_share"] == pytest.approx(
        ok.layers["trace.unattributed_s"] / ok.wall_s
    )


def test_percentile_interpolates():
    assert percentile([], 0.5) == 0.0
    assert percentile([3.0, 1.0, 2.0], 0.5) == 2.0
    assert percentile([0.0, 10.0], 0.9) == pytest.approx(9.0)


@pytest.fixture(autouse=True)
def one_setup(monkeypatch):
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)


@pytest.mark.parametrize("workload_cls", [TinyPRA, TinyAtlas, TinyVec])
def test_traced_pass_accounts_for_wall(workload_cls, tmp_path):
    tracer = Tracer()
    workload = workload_cls(3, tmp_path, run.SRC, tracer)
    metrics, attempted, failed, problems, passes = run.measure(
        workload, seconds=0, trace=True, spec=SPEC
    )
    assert problems == []
    assert failed == 0 and attempted > 0
    assert list(metrics) == PER_LAYER
    assert tracer.nesting_violations() == []
    roots = [i for i, span in enumerate(tracer.spans) if span.parent is None]
    assert len(roots) >= run.MIN_TRACED_PASSES
    for p in passes:
        if p.layers:
            assert p.layers["trace.unattributed_s"] <= run.ACCOUNTING_TOLERANCE * p.wall_s
    assert 0.0 < metrics["trace.unattributed_share"] <= run.ACCOUNTING_TOLERANCE
    assert metrics["trace.overhead_ratio"] > 0.0
    assert metrics["sim.execute_s"] > 0.0


def test_untraced_run_prints_the_end_to_end_metrics(tmp_path):
    workload = TinyPRA(3, tmp_path, run.SRC, Tracer())
    metrics, attempted, failed, problems, _ = run.measure(
        workload, seconds=0, trace=False, spec=SPEC
    )
    assert problems == [] and failed == 0
    assert list(metrics) == END_TO_END
    assert all(value > 0.0 for value in metrics.values())
    assert workload.tracer.spans == []
