"""Golden-equivalence suite: optimised engine vs frozen reference engine.

The fast population engine
(:class:`repro.sim.population_fast.FastPopulationSimulation`, the default
of :func:`repro.sim.engine.simulate`) inlines the policy logic and
restructures the round loop for speed; these tests prove it reproduces the
seed engine's outputs **bit-identically** on fixed-population configs and
fixed seeds.  The oracle is :class:`tests.sim.reference.ReferenceSimulation`,
a self-contained frozen snapshot of the seed implementation — any engine or
policy change that perturbs a single random draw or float operation fails
here.  ``test_population_differential.py`` holds the reference population
engine to the same oracle.
"""

from __future__ import annotations

import pytest

from repro.core.protocol import (
    birds_protocol,
    bittorrent_reference,
    loyal_when_needed,
    random_ranking_protocol,
    sort_s,
)
from repro.sim.behavior import PeerBehavior
from repro.sim.config import SimulationConfig
from repro.sim.engine import simulate

from tests.sim.reference import ReferenceSimulation

#: Protocol variants covering every ranking function, every stranger policy
#: and every allocation policy at least once (well beyond the required five).
VARIANTS = {
    "bittorrent": bittorrent_reference().behavior,
    "birds": birds_protocol().behavior,
    "loyal_when_needed": loyal_when_needed().behavior,
    "sort_s": sort_s().behavior,
    "random_ranking": random_ranking_protocol().behavior,
    "defect_propshare_adaptive": PeerBehavior(
        stranger_policy="defect",
        stranger_count=2,
        candidate_policy="tf2t",
        ranking="adaptive",
        partner_count=3,
        allocation="prop_share",
    ),
    "none_freeride": PeerBehavior(
        stranger_policy="none",
        stranger_count=0,
        candidate_policy="tft",
        ranking="fastest",
        partner_count=2,
        allocation="freeride",
    ),
    "when_needed_no_partners": PeerBehavior(
        stranger_policy="when_needed",
        stranger_count=3,
        candidate_policy="tf2t",
        ranking="loyal",
        partner_count=0,
        allocation="equal_split",
        stranger_period=2,
    ),
    "periodic_slow_propshare": PeerBehavior(
        stranger_policy="periodic",
        stranger_count=2,
        candidate_policy="tf2t",
        ranking="slowest",
        partner_count=5,
        allocation="prop_share",
        stranger_period=3,
    ),
}


def assert_identical_results(result, reference):
    """Every output of the two runs must match exactly (no tolerances)."""
    assert result.records == reference.records
    assert result.rounds_executed == reference.rounds_executed
    assert result.churn_events == reference.churn_events
    assert result.total_explicit_refusals == reference.total_explicit_refusals
    # Derived metrics follow from the records, but assert the headline ones
    # explicitly so a failure names the quantity the figures consume.
    assert result.throughput == reference.throughput
    assert result.utilization() == reference.utilization()


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("seed", [0, 7])
def test_homogeneous_equivalence(variant, seed):
    behavior = VARIANTS[variant]
    config = SimulationConfig(n_peers=12, rounds=30)
    optimised = simulate(config, [behavior], seed=seed, engine="fast")
    reference = ReferenceSimulation(config, [behavior], seed=seed).run()
    assert_identical_results(optimised, reference)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_churn_and_warmup_equivalence(variant):
    behavior = VARIANTS[variant]
    config = SimulationConfig(
        n_peers=10, rounds=25, churn_rate=0.05, warmup_rounds=5
    )
    optimised = simulate(config, [behavior], seed=11, engine="fast")
    reference = ReferenceSimulation(config, [behavior], seed=11).run()
    assert_identical_results(optimised, reference)


@pytest.mark.parametrize(
    "pair",
    [
        ("bittorrent", "sort_s"),
        ("birds", "none_freeride"),
        ("loyal_when_needed", "defect_propshare_adaptive"),
        ("random_ranking", "periodic_slow_propshare"),
        ("sort_s", "when_needed_no_partners"),
    ],
    ids=lambda pair: f"{pair[0]}-vs-{pair[1]}",
)
def test_encounter_equivalence(pair):
    """Mixed-group (PRA encounter) populations must also match exactly."""
    behavior_a, behavior_b = VARIANTS[pair[0]], VARIANTS[pair[1]]
    config = SimulationConfig(n_peers=10, rounds=20)
    behaviors = [behavior_a] * 5 + [behavior_b] * 5
    groups = ["A"] * 5 + ["B"] * 5
    optimised = simulate(config, behaviors, groups, seed=3, engine="fast")
    reference = ReferenceSimulation(config, behaviors, groups, seed=3).run()
    assert_identical_results(optimised, reference)
    assert optimised.group_mean_download("A") == reference.group_mean_download("A")
    assert optimised.group_mean_download("B") == reference.group_mean_download("B")


def test_no_discovery_no_requests_equivalence():
    """Degenerate communication settings exercise the skipped-sample paths."""
    config = SimulationConfig(
        n_peers=8, rounds=20, requests_per_round=0, discovery_per_round=0
    )
    behavior = VARIANTS["bittorrent"]
    optimised = simulate(config, [behavior], seed=5, engine="fast")
    reference = ReferenceSimulation(config, [behavior], seed=5).run()
    assert_identical_results(optimised, reference)


def test_tight_stranger_cap_equivalence():
    config = SimulationConfig(
        n_peers=12, rounds=25, discovery_per_round=3, stranger_bandwidth_cap=0.2
    )
    behavior = VARIANTS["periodic_slow_propshare"]
    optimised = simulate(config, [behavior], seed=17, engine="fast")
    reference = ReferenceSimulation(config, [behavior], seed=17).run()
    assert_identical_results(optimised, reference)


@pytest.mark.parametrize("variant", ["bittorrent", "defect_propshare_adaptive"])
def test_two_round_history_equivalence(variant):
    """history_rounds=2 forces the engine's buffered (non-fused) phase-2 path."""
    config = SimulationConfig(n_peers=10, rounds=25, history_rounds=2)
    behavior = VARIANTS[variant]
    optimised = simulate(config, [behavior], seed=13, engine="fast")
    reference = ReferenceSimulation(config, [behavior], seed=13).run()
    assert_identical_results(optimised, reference)


@pytest.mark.parametrize("variant", ["bittorrent", "sort_s", "periodic_slow_propshare"])
def test_paper_scale_population_equivalence(variant):
    """n_peers=50 exercises random.sample's selection-set branch (n > 21)."""
    config = SimulationConfig(n_peers=50, rounds=12)
    behavior = VARIANTS[variant]
    optimised = simulate(config, [behavior], seed=23, engine="fast")
    reference = ReferenceSimulation(config, [behavior], seed=23).run()
    assert_identical_results(optimised, reference)


def test_many_requests_and_discoveries_equivalence():
    """requests/discovery > 2 exercise the k>2 pool-copy sampling loop."""
    config = SimulationConfig(
        n_peers=14, rounds=20, requests_per_round=4, discovery_per_round=5
    )
    behavior = VARIANTS["loyal_when_needed"]
    optimised = simulate(config, [behavior], seed=29, engine="fast")
    reference = ReferenceSimulation(config, [behavior], seed=29).run()
    assert_identical_results(optimised, reference)
