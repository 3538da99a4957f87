"""Tests for engine-level scenario dynamics (waves, shifts, pinned capacities)."""

from __future__ import annotations

import random

import pytest

from repro.sim.bandwidth import ConstantBandwidth, MultiClassBandwidth
from repro.sim.behavior import PeerBehavior
from repro.sim.churn import apply_correlated_churn
from repro.sim.config import SimulationConfig
from repro.sim.dynamics import BehaviorShift, ChurnWave, ScenarioDynamics
from repro.sim.engine import simulate
from repro.sim.history import InteractionHistory
from repro.sim.peer import PeerState


def make_peers(count: int, capacity: float = 50.0):
    return [
        PeerState(
            peer_id=i,
            upload_capacity=capacity,
            behavior=PeerBehavior(),
            history=InteractionHistory(),
        )
        for i in range(count)
    ]


class TestChurnWave:
    def test_covers_window(self):
        wave = ChurnWave(start=5, rounds=3, intensity=0.2)
        assert not wave.covers(4)
        assert wave.covers(5) and wave.covers(7)
        assert not wave.covers(8)

    def test_round_trip(self):
        wave = ChurnWave(start=2, rounds=4, intensity=0.5, correlated=True)
        assert ChurnWave.from_dict(wave.as_dict()) == wave

    def test_validation(self):
        with pytest.raises(ValueError):
            ChurnWave(start=-1)
        with pytest.raises(ValueError):
            ChurnWave(start=0, rounds=0)
        with pytest.raises(ValueError):
            ChurnWave(start=0, intensity=0.0)
        with pytest.raises(ValueError):
            ChurnWave(start=0, intensity=1.0)  # independent must stay < 1
        # correlated intensity of exactly 1 (whole swarm) is allowed
        ChurnWave(start=0, intensity=1.0, correlated=True)


class TestBehaviorShift:
    def test_round_trip(self):
        shift = BehaviorShift(
            round=7, peer_ids=(0, 3, 5), behavior=PeerBehavior.free_rider(),
            group="freerider",
        )
        assert BehaviorShift.from_dict(shift.as_dict()) == shift

    def test_validation(self):
        with pytest.raises(ValueError):
            BehaviorShift(round=1, peer_ids=(), behavior=PeerBehavior())
        with pytest.raises(ValueError):
            BehaviorShift(round=1, peer_ids=(1, 1), behavior=PeerBehavior())
        with pytest.raises(ValueError):
            BehaviorShift(round=-1, peer_ids=(0,), behavior=PeerBehavior())


class TestScenarioDynamics:
    def test_round_trip_full(self):
        dynamics = ScenarioDynamics(
            initial_capacities=(10.0, 20.0, 30.0),
            churn_waves=(
                ChurnWave(start=1, rounds=2, intensity=0.3, correlated=True),
                ChurnWave(start=4, rounds=1, intensity=0.05),
            ),
            behavior_shifts=(
                BehaviorShift(round=2, peer_ids=(1,), behavior=PeerBehavior()),
            ),
        )
        assert ScenarioDynamics.from_dict(dynamics.as_dict()) == dynamics

    def test_trivial(self):
        assert ScenarioDynamics().is_trivial()
        assert not ScenarioDynamics(churn_waves=(ChurnWave(start=0),)).is_trivial()

    def test_round_lookups(self):
        dynamics = ScenarioDynamics(
            churn_waves=(
                ChurnWave(start=3, rounds=2, intensity=0.1),
                ChurnWave(start=4, rounds=1, intensity=0.2),
                ChurnWave(start=3, rounds=1, intensity=0.5, correlated=True),
            )
        )
        assert dynamics.extra_rate(3) == pytest.approx(0.1)
        assert dynamics.extra_rate(4) == pytest.approx(0.3)
        assert dynamics.extra_rate(5) == 0.0
        assert dynamics.correlated_fraction(3) == pytest.approx(0.5)
        assert dynamics.correlated_fraction(4) == 0.0

    def test_config_validates_capacity_length(self):
        with pytest.raises(ValueError):
            SimulationConfig(
                n_peers=5,
                rounds=20,
                dynamics=ScenarioDynamics(initial_capacities=(10.0,) * 4),
            )

    def test_config_validates_shift_peer_ids(self):
        shift = BehaviorShift(round=1, peer_ids=(7,), behavior=PeerBehavior())
        with pytest.raises(ValueError):
            SimulationConfig(
                n_peers=5, rounds=20, dynamics=ScenarioDynamics(behavior_shifts=(shift,))
            )


class TestApplyCorrelatedChurn:
    def test_replaces_exact_fraction(self):
        peers = make_peers(10)
        churned = apply_correlated_churn(
            peers, 0.4, 3, random.Random(0), ConstantBandwidth(25.0)
        )
        assert len(churned) == 4
        assert len(set(churned)) == 4
        for pid in churned:
            assert peers[pid].joined_round == 3
            assert peers[pid].upload_capacity == 25.0

    def test_positive_fraction_churns_at_least_one(self):
        peers = make_peers(10)
        churned = apply_correlated_churn(
            peers, 0.01, 1, random.Random(0), ConstantBandwidth(25.0)
        )
        assert len(churned) == 1

    def test_zero_fraction_is_noop(self):
        peers = make_peers(4)
        assert apply_correlated_churn(
            peers, 0.0, 1, random.Random(0), ConstantBandwidth(25.0)
        ) == []

    def test_survivors_forget_churned(self):
        peers = make_peers(6)
        peers[0].history.record(2, 1, 5.0)
        peers[0].loyalty[1] = 3
        peers[0].pending_requests.add(1)
        rng = random.Random(4)
        churned = apply_correlated_churn(peers, 1.0 / 6.0, 3, rng, ConstantBandwidth(25.0))
        if 1 in churned:
            assert peers[0].history.amount_from(1, 2) == 0.0
            assert peers[0].loyalty_of(1) == 0
            assert 1 not in peers[0].pending_requests

    def test_exclude_removes_ids_from_the_draw(self):
        # Batch size stays relative to the full population, but excluded
        # slots (already churned this round) can never be drawn again.
        for seed in range(20):
            peers = make_peers(10)
            churned = apply_correlated_churn(
                peers, 0.5, 1, random.Random(seed), ConstantBandwidth(25.0),
                exclude=(0, 1, 2),
            )
            assert len(churned) == 5
            assert not set(churned) & {0, 1, 2}

    def test_exclude_clamps_batch_to_eligible_pool(self):
        peers = make_peers(4)
        churned = apply_correlated_churn(
            peers, 1.0, 1, random.Random(0), ConstantBandwidth(25.0),
            exclude=(0, 1, 2),
        )
        assert churned == [3]

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            apply_correlated_churn(
                make_peers(4), 1.5, 1, random.Random(0), ConstantBandwidth(25.0)
            )


class TestEngineDynamics:
    def test_trivial_dynamics_is_bit_identical_to_none(self):
        base = SimulationConfig(n_peers=10, rounds=15, churn_rate=0.05)
        with_trivial = base.with_(dynamics=ScenarioDynamics())
        plain = simulate(base, [PeerBehavior()], seed=11)
        gated = simulate(with_trivial, [PeerBehavior()], seed=11)
        assert plain.records == gated.records
        assert plain.churn_events == gated.churn_events

    def test_initial_capacities_are_pinned(self):
        capacities = tuple(float(10 * (i + 1)) for i in range(6))
        config = SimulationConfig(
            n_peers=6,
            rounds=16,
            dynamics=ScenarioDynamics(initial_capacities=capacities),
        )
        result = simulate(config, [PeerBehavior()], seed=0)
        assert tuple(r.upload_capacity for r in result.records) == capacities

    def test_correlated_wave_churns_exact_batch(self):
        config = SimulationConfig(
            n_peers=10,
            rounds=20,
            dynamics=ScenarioDynamics(
                churn_waves=(ChurnWave(start=5, rounds=1, intensity=0.5, correlated=True),)
            ),
        )
        result = simulate(config, [PeerBehavior()], seed=2)
        assert result.churn_events == 5

    def test_independent_wave_raises_churn(self):
        config = SimulationConfig(
            n_peers=16,
            rounds=40,
            dynamics=ScenarioDynamics(
                churn_waves=(ChurnWave(start=0, rounds=40, intensity=0.3),)
            ),
        )
        result = simulate(config, [PeerBehavior()], seed=3)
        # Expect roughly 0.3 * 16 * 40 = 192 churn events; far above zero.
        assert result.churn_events > 100

    def test_behavior_shift_switches_protocol_and_group(self):
        shift = BehaviorShift(
            round=0,
            peer_ids=(0, 1),
            behavior=PeerBehavior.free_rider(),
            group="freerider",
        )
        config = SimulationConfig(
            n_peers=8, rounds=20, dynamics=ScenarioDynamics(behavior_shifts=(shift,))
        )
        result = simulate(config, [PeerBehavior()], seed=5)
        shifted = [r for r in result.records if r.peer_id in (0, 1)]
        assert all(r.group == "freerider" for r in shifted)
        assert all(r.behavior_label == PeerBehavior.free_rider().label() for r in shifted)
        # A peer free-riding from round 0 never uploads anything.
        assert all(r.uploaded == 0.0 for r in shifted)

    def test_mid_run_shift_stops_contributions(self):
        shift = BehaviorShift(
            round=10, peer_ids=(0,), behavior=PeerBehavior.free_rider()
        )
        config = SimulationConfig(n_peers=8, rounds=30)
        shifted_config = config.with_(
            dynamics=ScenarioDynamics(behavior_shifts=(shift,))
        )
        baseline = simulate(config, [PeerBehavior()], seed=7)
        shifted = simulate(shifted_config, [PeerBehavior()], seed=7)
        base_up = next(r for r in baseline.records if r.peer_id == 0).uploaded
        shift_up = next(r for r in shifted.records if r.peer_id == 0).uploaded
        assert 0.0 < shift_up < base_up

    def test_dynamics_runs_are_deterministic(self):
        config = SimulationConfig(
            n_peers=10,
            rounds=25,
            churn_rate=0.02,
            dynamics=ScenarioDynamics(
                initial_capacities=(40.0,) * 10,
                churn_waves=(
                    ChurnWave(start=4, rounds=2, intensity=0.3, correlated=True),
                    ChurnWave(start=12, rounds=3, intensity=0.1),
                ),
                behavior_shifts=(
                    BehaviorShift(
                        round=8, peer_ids=(2, 5), behavior=PeerBehavior.colluder(),
                        group="colluder",
                    ),
                ),
            ),
        )
        first = simulate(config, [PeerBehavior()], seed=9)
        second = simulate(config, [PeerBehavior()], seed=9)
        assert first.records == second.records
        assert first.churn_events == second.churn_events


class TestMultiClassBandwidth:
    def test_samples_stay_on_class_grid(self):
        distribution = MultiClassBandwidth([(0.5, 10.0), (0.3, 50.0), (0.2, 400.0)])
        rng = random.Random(0)
        values = {distribution.sample(rng) for _ in range(200)}
        assert values <= {10.0, 50.0, 400.0}
        assert len(values) == 3

    def test_mean(self):
        distribution = MultiClassBandwidth([(0.5, 10.0), (0.5, 30.0)])
        assert distribution.mean() == pytest.approx(20.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            MultiClassBandwidth([])
        with pytest.raises(ValueError):
            MultiClassBandwidth([(0.5, 10.0)])  # fractions must sum to 1
        with pytest.raises(ValueError):
            MultiClassBandwidth([(1.0, -5.0)])


class TestPopulationDynamicsTypes:
    def test_arrival_process_round_trips(self):
        from repro.sim.dynamics import ArrivalProcess

        for process in (
            ArrivalProcess(),
            ArrivalProcess(kind="poisson", rate=0.75, start=3),
            ArrivalProcess(kind="flash", start=5, count=7, duration=2),
            ArrivalProcess(kind="whitewash", rate=0.6),
            ArrivalProcess(kind="poisson", rate=1.0, group="newcomer"),
        ):
            assert ArrivalProcess.from_dict(process.as_dict()) == process

    def test_arrival_process_validation(self):
        from repro.sim.dynamics import ArrivalProcess

        with pytest.raises(ValueError):
            ArrivalProcess(kind="teleport")
        with pytest.raises(ValueError):
            ArrivalProcess(kind="poisson", rate=0.0)
        with pytest.raises(ValueError):
            ArrivalProcess(kind="whitewash", rate=1.5)
        with pytest.raises(ValueError):
            ArrivalProcess(kind="flash", count=0)

    def test_flash_schedule_spreads_the_batch(self):
        from repro.sim.dynamics import ArrivalProcess

        process = ArrivalProcess(kind="flash", start=4, count=7, duration=3)
        schedule = [process.flash_count_for_round(r) for r in range(10)]
        assert schedule == [0, 0, 0, 0, 3, 2, 2, 0, 0, 0]
        assert sum(schedule) == 7
        # Non-flash kinds never schedule anything.
        assert ArrivalProcess(kind="poisson", rate=1.0).flash_count_for_round(4) == 0

    def test_departure_process_round_trips_and_validates(self):
        from repro.sim.dynamics import DepartureProcess

        process = DepartureProcess(rate=0.05, mode="replace", min_active=4)
        assert DepartureProcess.from_dict(process.as_dict()) == process
        with pytest.raises(ValueError):
            DepartureProcess(rate=1.0)
        with pytest.raises(ValueError):
            DepartureProcess(rate=0.1, mode="vanish")
        with pytest.raises(ValueError):
            DepartureProcess(rate=0.1, min_active=1)

    def test_population_dynamics_round_trips_and_triviality(self):
        from repro.sim.dynamics import (
            ArrivalProcess,
            DepartureProcess,
            PopulationDynamics,
        )

        bundle = PopulationDynamics(
            arrival=ArrivalProcess(kind="poisson", rate=0.5),
            departure=DepartureProcess(rate=0.02),
            max_active=40,
        )
        assert PopulationDynamics.from_dict(bundle.as_dict()) == bundle
        assert not bundle.is_trivial()
        assert PopulationDynamics().is_trivial()
        # Whitewash arrivals are coupled to a shrink departure process.
        with pytest.raises(ValueError):
            PopulationDynamics(arrival=ArrivalProcess(kind="whitewash", rate=0.5))
        with pytest.raises(ValueError):
            PopulationDynamics(
                arrival=ArrivalProcess(kind="whitewash", rate=0.5),
                departure=DepartureProcess(rate=0.1, mode="replace"),
            )
        # Replacement departures blend identities per slot; they are only
        # the fixed-population churn model, which has no arrivals.
        with pytest.raises(ValueError):
            PopulationDynamics(
                arrival=ArrivalProcess(kind="poisson", rate=0.5),
                departure=DepartureProcess(rate=0.1, mode="replace"),
            )
        PopulationDynamics(departure=DepartureProcess(rate=0.1, mode="replace"))

    def test_population_config_validation(self):
        from repro.sim.dynamics import (
            ArrivalProcess,
            DepartureProcess,
            PopulationDynamics,
        )

        bundle = PopulationDynamics(
            arrival=ArrivalProcess(kind="poisson", rate=0.5),
            departure=DepartureProcess(rate=0.02),
        )
        config = SimulationConfig(n_peers=10, rounds=20, population=bundle)
        assert config.is_variable_population
        assert not SimulationConfig(n_peers=10, rounds=20).is_variable_population
        with pytest.raises(ValueError):  # population owns departures
            SimulationConfig(n_peers=10, rounds=20, churn_rate=0.1, population=bundle)
        with pytest.raises(ValueError):  # waves/shifts address fixed slots
            SimulationConfig(
                n_peers=10,
                rounds=20,
                population=bundle,
                dynamics=ScenarioDynamics(churn_waves=(ChurnWave(start=2),)),
            )
        with pytest.raises(ValueError):  # cap below the initial population
            SimulationConfig(
                n_peers=10,
                rounds=20,
                population=PopulationDynamics(
                    arrival=ArrivalProcess(kind="poisson", rate=0.5),
                    max_active=5,
                ),
            )
