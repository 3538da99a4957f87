"""Batch identity of the vec engine's batch axis.

``VecSimulation.batch`` steps several same-config simulations in one set
of state arrays.  The contract is byte-identity: every member's result
payload equals the payload of running that member alone, whatever else
is in the batch and in whatever order — otherwise a cached result would
depend on what its job happened to be batched with.  The single-run
bytes themselves are pinned in ``test_vec_digest_pin.py``.
"""

from __future__ import annotations

import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.space import DesignSpace
from repro.runner import jobs as jobs_module
from repro.runner.jobs import SimulationJob, execute_jobs, result_to_payload
from repro.sim.bandwidth import UniformBandwidth
from repro.sim.config import SimulationConfig
from repro.sim.dynamics import (
    ArrivalProcess,
    BehaviorShift,
    ChurnWave,
    DepartureProcess,
    PopulationDynamics,
    ScenarioDynamics,
)
from repro.sim.engine import using_engine
from repro.sim.population_vec import VecSimulation

SPACE = DesignSpace.default()
protocols = st.integers(0, len(SPACE) - 1).map(lambda i: SPACE[i].behavior)
#: A narrow seed range, so batches often hold duplicate seeds.
seeds = st.integers(0, 3)


def payload_bytes(result) -> str:
    return json.dumps(result_to_payload(result), sort_keys=True)


def solo(config, member) -> str:
    behaviors, groups, seed = member
    return payload_bytes(VecSimulation(config, behaviors, groups, seed=seed).run())


@st.composite
def members(draw, n_peers: int):
    """One batch member: a homogeneous run or a two-group encounter."""
    first = draw(protocols)
    if draw(st.booleans()):
        return [first], None, draw(seeds)
    second = draw(protocols)
    split = draw(st.integers(1, n_peers - 1))
    behaviors = [first] * split + [second] * (n_peers - split)
    groups = ["A"] * split + ["B"] * (n_peers - split)
    return behaviors, groups, draw(seeds)


@st.composite
def fixed_configs(draw):
    return SimulationConfig(
        n_peers=draw(st.integers(3, 12)),
        rounds=draw(st.integers(3, 14)),
        churn_rate=draw(st.sampled_from([0.0, 0.15])),
        requests_per_round=draw(st.integers(1, 3)),
        discovery_per_round=draw(st.integers(0, 3)),
        bandwidth=UniformBandwidth(20.0, 200.0),
    )


@st.composite
def scenario_configs(draw):
    """Fixed populations with behaviour shifts and independent/correlated waves."""
    n = 8
    dynamics = ScenarioDynamics(
        initial_capacities=(
            tuple(float(c) for c in draw(st.lists(
                st.integers(10, 300), min_size=n, max_size=n,
            )))
            if draw(st.booleans())
            else None
        ),
        churn_waves=(
            ChurnWave(start=draw(st.integers(0, 6)), rounds=3, intensity=0.3),
            ChurnWave(
                start=draw(st.integers(0, 6)), rounds=2,
                intensity=draw(st.sampled_from([0.1, 0.25, 0.5])),
                correlated=True,
            ),
        ),
        behavior_shifts=(
            BehaviorShift(
                round=draw(st.integers(0, 8)),
                peer_ids=tuple(draw(st.sets(st.integers(0, n - 1), min_size=1))),
                behavior=draw(protocols),
                group=draw(st.sampled_from([None, "shifted"])),
            ),
        ),
    )
    return SimulationConfig(
        n_peers=n, rounds=10, churn_rate=draw(st.sampled_from([0.0, 0.05])),
        requests_per_round=2, dynamics=dynamics,
    )


@st.composite
def batches(draw, configs=fixed_configs()):
    config = draw(configs)
    size = draw(st.integers(2, 20))
    return config, draw(st.lists(members(config.n_peers), min_size=size, max_size=size))


def assert_batch_identity(config, batch, order):
    """Batched payloads equal solo payloads, and reordering changes none."""
    batched = [payload_bytes(r) for r in VecSimulation.batch(config, batch).run_all()]
    for member, payload in zip(batch, batched):
        assert payload == solo(config, member)
    permuted = VecSimulation.batch(config, [batch[i] for i in order]).run_all()
    for index, result in zip(order, permuted):
        assert payload_bytes(result) == batched[index]


@settings(max_examples=25, deadline=None)
@given(data=st.data(), case=batches())
def test_batched_results_are_byte_identical_to_solo_runs(data, case):
    config, batch = case
    order = data.draw(st.permutations(range(len(batch))))
    assert_batch_identity(config, batch, order)


@settings(max_examples=10, deadline=None)
@given(data=st.data(), case=batches(scenario_configs()))
def test_scenario_dynamics_batches_are_byte_identical(data, case):
    config, batch = case
    order = data.draw(st.permutations(range(len(batch))))
    assert_batch_identity(config, batch, order)


@settings(max_examples=10, deadline=None)
@given(case=batches(), cap_sims=st.integers(1, 6))
def test_execute_jobs_splits_a_group_at_the_peer_cap(case, cap_sims):
    config, batch = case
    jobs = [
        SimulationJob(config, tuple(behaviors), groups, seed)
        for behaviors, groups, seed in batch
    ]
    sizes = []
    real_batch = VecSimulation.batch.__func__

    def recording_batch(cls, config, members):
        sizes.append(len(members))
        return real_batch(cls, config, members)

    with mock.patch.object(
        jobs_module, "VEC_BATCH_PEERS", cap_sims * config.n_peers
    ), mock.patch.object(VecSimulation, "batch", classmethod(recording_batch)):
        with using_engine("vec"):
            results = execute_jobs(jobs)
            expected = [payload_bytes(job.execute()) for job in jobs]
    assert sum(sizes) == len(jobs)
    assert max(sizes) <= cap_sims
    assert len(sizes) == -(-len(jobs) // cap_sims)
    assert [payload_bytes(r) for r in results] == expected


def variable_config() -> SimulationConfig:
    return SimulationConfig(
        n_peers=6, rounds=8,
        population=PopulationDynamics(
            arrival=ArrivalProcess(kind="poisson", rate=0.5),
            departure=DepartureProcess(rate=0.05),
        ),
    )


def test_variable_population_runs_one_simulation_per_instance():
    behavior = SPACE[0].behavior
    with pytest.raises(ValueError, match="variable-population"):
        VecSimulation.batch(variable_config(), [([behavior], None, 1)] * 2)


def test_run_needs_a_batch_of_one():
    config = SimulationConfig(n_peers=4, rounds=3)
    batch = VecSimulation.batch(config, [([SPACE[0].behavior], None, s) for s in (1, 2)])
    with pytest.raises(ValueError, match="run_all"):
        batch.run()


def test_execute_jobs_mixes_batched_and_unbatched_jobs_in_order():
    behavior = SPACE[5].behavior
    fixed = SimulationConfig(n_peers=5, rounds=6)
    other = SimulationConfig(n_peers=7, rounds=6)
    jobs = [
        SimulationJob(fixed, (behavior,), None, 1),
        SimulationJob(variable_config(), (behavior,), None, 2),
        SimulationJob(other, (behavior,), None, 3),
        SimulationJob(fixed, (behavior,), None, 4),
        SimulationJob(variable_config(), (behavior,), None, 5),
    ]
    with using_engine("vec"):
        results = execute_jobs(jobs)
        expected = [payload_bytes(job.execute()) for job in jobs]
    assert [payload_bytes(r) for r in results] == expected
