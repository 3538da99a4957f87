"""Tests for the cycle-based simulation engine, through :func:`simulate`."""

from __future__ import annotations

import pytest

from repro.sim.bandwidth import ConstantBandwidth
from repro.sim.behavior import PeerBehavior
from repro.sim.config import SimulationConfig
from repro.sim.engine import simulate


def bt_like() -> PeerBehavior:
    return PeerBehavior(
        stranger_policy="periodic", stranger_count=1, ranking="fastest",
        partner_count=3, allocation="equal_split",
    )


def full_defector() -> PeerBehavior:
    return PeerBehavior(
        stranger_policy="defect", stranger_count=1, ranking="fastest",
        partner_count=3, allocation="freeride",
    )


@pytest.fixture
def config() -> SimulationConfig:
    return SimulationConfig(n_peers=8, rounds=15, bandwidth=ConstantBandwidth(100.0))


class TestConstruction:
    def test_single_behavior_broadcast(self, config):
        result = simulate(config, [bt_like()], seed=0)
        assert len(result.records) == config.n_peers
        assert {r.behavior_label for r in result.records} == {bt_like().label()}

    def test_behavior_count_mismatch_rejected(self, config):
        with pytest.raises(ValueError):
            simulate(config, [bt_like()] * 3, seed=0)

    def test_group_count_mismatch_rejected(self, config):
        with pytest.raises(ValueError):
            simulate(config, [bt_like()], groups=["a", "b"], seed=0)

    def test_capacities_drawn_from_distribution(self, config):
        result = simulate(config, [bt_like()], seed=0)
        assert all(r.upload_capacity == 100.0 for r in result.records)


class TestConservationAndAccounting:
    def test_total_download_equals_total_upload(self, config):
        result = simulate(config, [bt_like()], seed=1)
        downloaded = sum(r.downloaded for r in result.records)
        uploaded = sum(r.uploaded for r in result.records)
        assert downloaded == pytest.approx(uploaded)

    def test_upload_never_exceeds_capacity(self, config):
        result = simulate(config, [bt_like()], seed=1)
        for record in result.records:
            assert record.uploaded <= record.upload_capacity * config.rounds + 1e-6

    def test_utilization_in_unit_interval(self, config):
        result = simulate(config, [bt_like()], seed=2)
        assert 0.0 <= result.utilization() <= 1.0

    def test_warmup_rounds_excluded_from_metrics(self):
        config = SimulationConfig(
            n_peers=8, rounds=20, warmup_rounds=10, bandwidth=ConstantBandwidth(100.0)
        )
        full = SimulationConfig(n_peers=8, rounds=20, bandwidth=ConstantBandwidth(100.0))
        with_warmup = simulate(config, [bt_like()], seed=3)
        without_warmup = simulate(full, [bt_like()], seed=3)
        assert sum(r.downloaded for r in with_warmup.records) < sum(
            r.downloaded for r in without_warmup.records
        )


class TestBehaviouralContrast:
    def test_cooperators_outperform_full_defectors_in_throughput(self, config):
        cooperative = simulate(config, [bt_like()], seed=4)
        defecting = simulate(config, [full_defector()], seed=4)
        assert cooperative.throughput > defecting.throughput

    def test_full_defectors_upload_nothing(self, config):
        result = simulate(config, [full_defector()], seed=5)
        assert result.utilization() == 0.0

    def test_encounter_group_metrics(self, config):
        n = config.n_peers
        behaviors = [bt_like()] * (n // 2) + [full_defector()] * (n - n // 2)
        groups = ["coop"] * (n // 2) + ["defect"] * (n - n // 2)
        result = simulate(config, behaviors, groups, seed=6)
        assert set(result.groups()) == {"coop", "defect"}
        assert result.group_mean_download("coop") > result.group_mean_download("defect")

    def test_explicit_refusals_counted_for_defect_policy(self, config):
        result = simulate(config, [full_defector()], seed=7)
        assert result.total_explicit_refusals > 0


class TestDeterminismAndChurn:
    def test_same_seed_same_result(self, config):
        a = simulate(config, [bt_like()], seed=11)
        b = simulate(config, [bt_like()], seed=11)
        assert [r.downloaded for r in a.records] == [r.downloaded for r in b.records]

    def test_different_seeds_differ(self, config):
        a = simulate(config, [bt_like()], seed=11)
        b = simulate(config, [bt_like()], seed=12)
        assert [r.downloaded for r in a.records] != [r.downloaded for r in b.records]

    def test_churn_counted(self):
        config = SimulationConfig(
            n_peers=8, rounds=30, churn_rate=0.2, bandwidth=ConstantBandwidth(100.0)
        )
        result = simulate(config, [bt_like()], seed=13)
        assert result.churn_events > 0

    def test_churned_population_still_transfers(self):
        config = SimulationConfig(
            n_peers=8, rounds=30, churn_rate=0.1, bandwidth=ConstantBandwidth(100.0)
        )
        result = simulate(config, [bt_like()], seed=14)
        assert result.throughput > 0.0


class TestResultApi:
    def test_records_one_per_peer(self, config):
        result = simulate(config, [bt_like()], seed=15)
        assert len(result.records) == config.n_peers
        assert result.rounds_executed == config.rounds

    def test_mean_download_per_peer(self, config):
        result = simulate(config, [bt_like()], seed=15)
        expected = sum(r.downloaded for r in result.records) / config.n_peers
        assert result.mean_download_per_peer == pytest.approx(expected)

    def test_group_metrics_contains_utilization(self, config):
        result = simulate(config, [bt_like()], seed=16)
        metrics = result.group_metrics()["default"]
        assert 0.0 <= metrics.upload_utilization <= 1.0
        assert metrics.peer_count == config.n_peers
