"""Tests for imitation dynamics and the evolutionary-stability check."""

from __future__ import annotations

import pytest

from repro.core.evolution import (
    EvolutionConfig,
    ImitationDynamics,
    is_evolutionarily_stable,
)
from repro.core.protocol import Protocol, bittorrent_reference, loyal_when_needed
from repro.sim.behavior import PeerBehavior
from repro.sim.bandwidth import ConstantBandwidth
from repro.sim.config import SimulationConfig


def freerider() -> Protocol:
    return Protocol(
        PeerBehavior(stranger_policy="defect", stranger_count=1, allocation="freeride"),
        name="Freerider",
    )


@pytest.fixture
def config() -> EvolutionConfig:
    return EvolutionConfig(
        sim=SimulationConfig(n_peers=10, rounds=20, bandwidth=ConstantBandwidth(100.0)),
        generations=5,
        imitation_rate=0.5,
        mutation_rate=0.0,
        seed=0,
    )


class TestEvolutionConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"generations": 0},
            {"imitation_rate": 1.5},
            {"mutation_rate": -0.1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            EvolutionConfig(sim=SimulationConfig.smoke(), **kwargs)


class TestImitationDynamics:
    def test_requires_two_distinct_protocols(self, config):
        with pytest.raises(ValueError):
            ImitationDynamics([bittorrent_reference()], config)
        with pytest.raises(ValueError):
            ImitationDynamics([bittorrent_reference(), bittorrent_reference()], config)

    def test_unknown_initial_share_rejected(self, config):
        with pytest.raises(ValueError):
            ImitationDynamics(
                [bittorrent_reference(), freerider()], config,
                initial_shares={"nope": 1.0},
            )

    def test_shares_sum_to_one_every_generation(self, config):
        result = ImitationDynamics(
            [bittorrent_reference(), loyal_when_needed(), freerider()], config
        ).run()
        assert len(result.records) == config.generations
        for record in result.records:
            assert sum(record.shares.values()) == pytest.approx(1.0)

    def test_cooperators_displace_freeriders(self, config):
        result = ImitationDynamics(
            [bittorrent_reference(), freerider()], config
        ).run()
        final = result.final_shares()
        assert final[bittorrent_reference().key] > final[freerider().key]
        assert result.dominant_protocol() == bittorrent_reference().key

    def test_share_trajectory_length(self, config):
        result = ImitationDynamics([bittorrent_reference(), freerider()], config).run()
        trajectory = result.share_trajectory(freerider().key)
        assert len(trajectory) == config.generations
        assert trajectory[0] == pytest.approx(0.5)

    def test_mutation_keeps_extinct_protocols_reachable(self, config):
        mutating = EvolutionConfig(
            sim=config.sim, generations=5, imitation_rate=0.5, mutation_rate=0.3, seed=1
        )
        result = ImitationDynamics(
            [bittorrent_reference(), freerider()], mutating,
            initial_shares={bittorrent_reference().key: 1.0, freerider().key: 0.0},
        ).run()
        # With a high mutation rate the freerider reappears at some point.
        assert any(share > 0 for share in result.share_trajectory(freerider().key))

    def test_deterministic_given_seed(self, config):
        a = ImitationDynamics([bittorrent_reference(), freerider()], config).run()
        b = ImitationDynamics([bittorrent_reference(), freerider()], config).run()
        assert a.final_shares() == b.final_shares()

    def test_generations_run_on_the_selected_engine(self, config, monkeypatch):
        """Each generation dispatches through simulate(), so --engine holds."""
        from repro.sim.engine import using_engine
        from repro.sim.population_vec import VecSimulation

        runs = []
        original_run = VecSimulation.run

        def spy(self):
            runs.append(self.config)
            return original_run(self)

        monkeypatch.setattr(VecSimulation, "run", spy)
        with using_engine("vec"):
            ImitationDynamics([bittorrent_reference(), freerider()], config).run()
        assert runs == [config.sim] * config.generations


class TestEvolutionaryStability:
    def test_cooperator_resists_freerider_invasion(self, config):
        assert is_evolutionarily_stable(bittorrent_reference(), freerider(), config)

    def test_freerider_does_not_resist_cooperator_invasion(self, config):
        assert not is_evolutionarily_stable(
            freerider(), bittorrent_reference(), config, invader_share=0.3
        )

    def test_parameter_validation(self, config):
        with pytest.raises(ValueError):
            is_evolutionarily_stable(
                bittorrent_reference(), freerider(), config, invader_share=0.6
            )
        with pytest.raises(ValueError):
            is_evolutionarily_stable(
                bittorrent_reference(), freerider(), config, survival_threshold=0.0
            )
