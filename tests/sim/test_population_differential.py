"""Differential suite: the population engines vs the frozen seed engine.

Three parts:

1. **Fixed-population equivalence** — every case of the golden-equivalence
   suite, run on the fixed config as given *and* on its explicit variable
   twin (no arrivals, departures in ``"replace"`` mode), must reproduce the
   frozen seed engine (:mod:`tests.sim.reference`) **bit-for-bit**.  The
   comparison includes the full serialised result payload, so a single
   diverging random draw or float operation fails here.

2. **Pinned scenario-dynamics runs** — six fixed-population configs with
   :class:`~repro.sim.dynamics.ScenarioDynamics` (overlapping independent
   and correlated waves, behaviour shifts with group relabels, pinned
   capacities under churn, a two-round history window, a warmup window,
   a wider swarm) are pinned by the SHA-256 of their serialised result
   payloads.  The pins were taken from the retired fixed-population
   engine, which was the only replica implementation of these dynamics
   before the population engines took them over.

3. **Pinned variable-count runs** — six genuinely variable configurations
   (growth, capped growth, flash arrivals, pure shrink, whitewashing, and
   a mixed-group encounter under growth) are pinned the same way.

Any intentional change to the engines' draw order or semantics must update
these pins.  Every case runs on **both** replica engines — the reference
:class:`~repro.sim.population.PopulationSimulation` and the optimised
:class:`~repro.sim.population_fast.FastPopulationSimulation` — via the
``engine_cls`` fixture, so the optimised hot path is held to exactly the
same pins as the spec it replaces (see also
``tests/sim/test_population_fast_differential.py`` for the hypothesis
differential between the two).
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.runner.jobs import result_to_payload
from repro.sim.bandwidth import TwoClassBandwidth
from repro.sim.config import SimulationConfig
from repro.sim.dynamics import (
    ArrivalProcess,
    BehaviorShift,
    ChurnWave,
    DepartureProcess,
    PopulationDynamics,
    ScenarioDynamics,
)
from repro.sim.engine import simulate
from repro.sim.population import PopulationSimulation
from repro.sim.population_fast import FastPopulationSimulation

from tests.sim.reference import ReferenceSimulation
from tests.sim.test_engine_equivalence import VARIANTS, assert_identical_results

#: Both replica engines, held to identical behaviour.
POPULATION_ENGINES = {
    "reference": PopulationSimulation,
    "fast": FastPopulationSimulation,
}


@pytest.fixture(params=sorted(POPULATION_ENGINES))
def engine_cls(request):
    """The replica engine class under test."""
    return POPULATION_ENGINES[request.param]


def as_variable_twin(config: SimulationConfig) -> SimulationConfig:
    """The variable-population twin of a fixed-population config.

    ``churn_rate`` becomes a replacement-mode :class:`DepartureProcess` at
    the same rate with no arrivals — the degenerate bundle every fixed
    config is executed as.
    """
    return config.with_(
        churn_rate=0.0,
        population=PopulationDynamics(
            departure=DepartureProcess(rate=config.churn_rate, mode="replace")
        ),
    )


def assert_bit_identical(variable_result, fixed_result):
    """Results must match on every output, including the cache payload."""
    assert_identical_results(variable_result, fixed_result)
    assert variable_result.active_counts is None
    assert variable_result.total_arrivals == 0
    assert variable_result.total_departures == 0
    # The serialised payloads are what the result cache stores; equal
    # payloads mean the two runs are indistinguishable byte-for-byte.
    assert result_to_payload(variable_result) == result_to_payload(fixed_result)


def run_both(engine_cls, config, behaviors, groups=None, seed=None):
    """``(twin run, oracle run)``; the config as given must match too."""
    fixed = ReferenceSimulation(config, behaviors, groups, seed=seed).run()
    direct = engine_cls(config, behaviors, groups, seed=seed).run()
    assert direct.config is config
    assert_bit_identical(direct, fixed)
    variable = engine_cls(
        as_variable_twin(config), behaviors, groups, seed=seed
    ).run()
    return variable, fixed


# ---------------------------------------------------------------------- #
# part 1: the golden-equivalence cases, replayed differentially
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("seed", [0, 7])
def test_homogeneous_differential(engine_cls, variant, seed):
    config = SimulationConfig(n_peers=12, rounds=30)
    variable, fixed = run_both(engine_cls, config, [VARIANTS[variant]], seed=seed)
    assert_bit_identical(variable, fixed)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_churn_as_replacement_differential(engine_cls, variant):
    """The crux: replacement-mode departures == legacy churn, draw for draw."""
    config = SimulationConfig(n_peers=10, rounds=25, churn_rate=0.05, warmup_rounds=5)
    variable, fixed = run_both(engine_cls, config, [VARIANTS[variant]], seed=11)
    assert_bit_identical(variable, fixed)


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
def test_encounter_differential(engine_cls, pair):
    config = SimulationConfig(n_peers=10, rounds=20, churn_rate=0.02)
    behaviors = [VARIANTS[pair[0]]] * 5 + [VARIANTS[pair[1]]] * 5
    groups = ["A"] * 5 + ["B"] * 5
    variable, fixed = run_both(engine_cls, config, behaviors, groups, seed=3)
    assert_bit_identical(variable, fixed)
    assert variable.group_mean_download("A") == fixed.group_mean_download("A")
    assert variable.group_mean_download("B") == fixed.group_mean_download("B")


def test_no_discovery_no_requests_differential(engine_cls):
    config = SimulationConfig(
        n_peers=8, rounds=20, requests_per_round=0, discovery_per_round=0
    )
    variable, fixed = run_both(engine_cls, config, [VARIANTS["bittorrent"]], seed=5)
    assert_bit_identical(variable, fixed)


def test_tight_stranger_cap_differential(engine_cls):
    config = SimulationConfig(
        n_peers=12, rounds=25, discovery_per_round=3, stranger_bandwidth_cap=0.2
    )
    variable, fixed = run_both(
        engine_cls, config, [VARIANTS["periodic_slow_propshare"]], seed=17
    )
    assert_bit_identical(variable, fixed)


@pytest.mark.parametrize("variant", ["bittorrent", "defect_propshare_adaptive"])
def test_two_round_history_differential(engine_cls, variant):
    config = SimulationConfig(n_peers=10, rounds=25, history_rounds=2, churn_rate=0.03)
    variable, fixed = run_both(engine_cls, config, [VARIANTS[variant]], seed=13)
    assert_bit_identical(variable, fixed)


@pytest.mark.parametrize("variant", ["bittorrent", "sort_s", "periodic_slow_propshare"])
def test_paper_scale_population_differential(engine_cls, variant):
    config = SimulationConfig(n_peers=50, rounds=12, churn_rate=0.01)
    variable, fixed = run_both(engine_cls, config, [VARIANTS[variant]], seed=23)
    assert_bit_identical(variable, fixed)


def test_many_requests_and_discoveries_differential(engine_cls):
    config = SimulationConfig(
        n_peers=14, rounds=20, requests_per_round=4, discovery_per_round=5
    )
    variable, fixed = run_both(
        engine_cls, config, [VARIANTS["loyal_when_needed"]], seed=29
    )
    assert_bit_identical(variable, fixed)


def test_simulate_dispatches_by_population():
    """simulate() runs both config shapes; only variable runs report counts."""
    fixed_config = SimulationConfig(n_peers=8, rounds=16)
    variable_config = fixed_config.with_(
        population=PopulationDynamics(
            arrival=ArrivalProcess(kind="poisson", rate=0.4),
            departure=DepartureProcess(rate=0.02),
        )
    )
    fixed = simulate(fixed_config, [VARIANTS["bittorrent"]], seed=1)
    variable = simulate(variable_config, [VARIANTS["bittorrent"]], seed=1)
    assert fixed.active_counts is None
    assert variable.active_counts is not None
    assert len(variable.active_counts) == variable_config.rounds


def _payload_digest(result) -> str:
    blob = json.dumps(result_to_payload(result), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------- #
# part 2: scenario-dynamics runs pinned by result fingerprint
# ---------------------------------------------------------------------- #
def _dynamics_case(name):
    """``name -> (config, behaviors, groups, seed)`` for the pinned runs."""
    bittorrent = VARIANTS["bittorrent"]
    if name == "overlapping-waves":
        dynamics = ScenarioDynamics(
            churn_waves=(
                ChurnWave(start=4, rounds=10, intensity=0.08),
                ChurnWave(start=8, rounds=6, intensity=0.12),
                ChurnWave(start=10, rounds=3, intensity=0.25, correlated=True),
                ChurnWave(start=11, rounds=4, intensity=0.2, correlated=True),
            ),
        )
        config = SimulationConfig(
            n_peers=12, rounds=30, churn_rate=0.02, dynamics=dynamics
        )
        return config, [bittorrent], None, 31
    if name == "shift-relabel":
        # Peer 0 shifts twice: relabelled at round 0, then back to
        # BitTorrent (keeping its new label) mid-run.
        dynamics = ScenarioDynamics(
            behavior_shifts=(
                BehaviorShift(
                    round=0, peer_ids=(0, 4, 7),
                    behavior=VARIANTS["none_freeride"], group="riders",
                ),
                BehaviorShift(
                    round=12, peer_ids=(1, 2, 8),
                    behavior=VARIANTS["defect_propshare_adaptive"],
                    group="defectors",
                ),
                BehaviorShift(round=12, peer_ids=(0,), behavior=bittorrent),
            ),
        )
        config = SimulationConfig(
            n_peers=10, rounds=25, churn_rate=0.03, dynamics=dynamics
        )
        behaviors = [bittorrent] * 5 + [VARIANTS["loyal_when_needed"]] * 5
        groups = ["A"] * 5 + ["B"] * 5
        return config, behaviors, groups, 37
    if name == "pinned-capacities-churn":
        dynamics = ScenarioDynamics(
            initial_capacities=tuple(float(20 + 15 * i) for i in range(14))
        )
        config = SimulationConfig(
            n_peers=14, rounds=25, churn_rate=0.06, dynamics=dynamics,
            bandwidth=TwoClassBandwidth(30.0, 300.0, 0.25),
        )
        return config, [VARIANTS["sort_s"]], None, 41
    if name == "two-round-history":
        dynamics = ScenarioDynamics(
            churn_waves=(
                ChurnWave(start=5, rounds=4, intensity=0.15),
                ChurnWave(start=7, rounds=2, intensity=0.3, correlated=True),
            ),
            behavior_shifts=(
                BehaviorShift(
                    round=10, peer_ids=(3, 5),
                    behavior=VARIANTS["periodic_slow_propshare"],
                ),
            ),
        )
        config = SimulationConfig(
            n_peers=10, rounds=24, history_rounds=2, churn_rate=0.02,
            dynamics=dynamics,
        )
        return config, [VARIANTS["defect_propshare_adaptive"]], None, 43
    if name == "warmup":
        dynamics = ScenarioDynamics(
            initial_capacities=tuple(float(40 + 5 * i) for i in range(12)),
            churn_waves=(
                ChurnWave(start=3, rounds=3, intensity=0.5, correlated=True),
                ChurnWave(start=9, rounds=5, intensity=0.1),
            ),
            behavior_shifts=(
                BehaviorShift(
                    round=8, peer_ids=(2, 6, 10), behavior=VARIANTS["birds"],
                    group="late",
                ),
            ),
        )
        config = SimulationConfig(
            n_peers=12, rounds=26, warmup_rounds=6, dynamics=dynamics
        )
        return config, [bittorrent], None, 47
    if name == "wide-swarm":
        # n - 1 > 21 takes random.sample's selection-set branch.
        dynamics = ScenarioDynamics(
            churn_waves=(
                ChurnWave(start=2, rounds=4, intensity=0.1, correlated=True),
                ChurnWave(start=3, rounds=5, intensity=0.05),
            ),
            behavior_shifts=(
                BehaviorShift(
                    round=6, peer_ids=tuple(range(0, 30, 3)),
                    behavior=VARIANTS["random_ranking"], group="shifted",
                ),
            ),
        )
        config = SimulationConfig(
            n_peers=30, rounds=14, churn_rate=0.01, requests_per_round=2,
            discovery_per_round=3, dynamics=dynamics,
        )
        behaviors = [VARIANTS["when_needed_no_partners"], bittorrent] * 15
        return config, behaviors, None, 53
    raise KeyError(name)


#: case -> sha256 prefix of the serialised result payload, computed on the
#: retired fixed-population engine before the population engines took over
#: scenario dynamics.  Update only for an intentional semantic change.
GOLDEN_DYNAMICS = {
    "overlapping-waves": "33ddf645f5665cc5",
    "shift-relabel": "141d17e186fc72b6",
    "pinned-capacities-churn": "2ad4753c38724ec1",
    "two-round-history": "caf65db6fcef9902",
    "warmup": "02bd5957cea67a8f",
    "wide-swarm": "87f038fa5eab4d06",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_DYNAMICS))
def test_dynamics_run_pinned_by_fingerprint(engine_cls, name):
    config, behaviors, groups, seed = _dynamics_case(name)
    result = engine_cls(config, behaviors, groups, seed=seed).run()
    assert _payload_digest(result).startswith(GOLDEN_DYNAMICS[name])
    # The caller's config comes back untouched, and the record shape is
    # the fixed-population one.
    assert result.config is config
    assert result.active_counts is None
    assert len(result.records) == config.n_peers


# ---------------------------------------------------------------------- #
# part 3: variable-count runs pinned by result fingerprint
# ---------------------------------------------------------------------- #

def _variable_case(name):
    """``name -> (config, behaviors, groups, seed)`` for the pinned runs."""
    bittorrent = VARIANTS["bittorrent"]
    if name == "poisson-growth":
        config = SimulationConfig(
            n_peers=10,
            rounds=30,
            population=PopulationDynamics(
                arrival=ArrivalProcess(kind="poisson", rate=0.5),
                departure=DepartureProcess(rate=0.02),
            ),
        )
        return config, [bittorrent], None, 3
    if name == "capped-growth":
        config = SimulationConfig(
            n_peers=10,
            rounds=30,
            population=PopulationDynamics(
                arrival=ArrivalProcess(kind="poisson", rate=1.0),
                departure=DepartureProcess(rate=0.01),
                max_active=15,
            ),
        )
        return config, [bittorrent], None, 7
    if name == "flash-arrivals":
        config = SimulationConfig(
            n_peers=8,
            rounds=24,
            population=PopulationDynamics(
                arrival=ArrivalProcess(kind="flash", start=8, count=6, duration=3),
            ),
        )
        return config, [VARIANTS["sort_s"]], None, 11
    if name == "pure-shrink":
        config = SimulationConfig(
            n_peers=14,
            rounds=30,
            population=PopulationDynamics(
                departure=DepartureProcess(rate=0.06, min_active=4),
            ),
        )
        return config, [VARIANTS["loyal_when_needed"]], None, 13
    if name == "whitewash":
        config = SimulationConfig(
            n_peers=12,
            rounds=30,
            population=PopulationDynamics(
                arrival=ArrivalProcess(kind="whitewash", rate=0.75),
                departure=DepartureProcess(rate=0.08),
            ),
        )
        return config, [bittorrent], None, 17
    if name == "encounter-growth":
        config = SimulationConfig(
            n_peers=10,
            rounds=25,
            warmup_rounds=5,
            population=PopulationDynamics(
                arrival=ArrivalProcess(kind="poisson", rate=0.4),
                departure=DepartureProcess(rate=0.03),
            ),
        )
        behaviors = [bittorrent] * 5 + [VARIANTS["defect_propshare_adaptive"]] * 5
        groups = ["A"] * 5 + ["B"] * 5
        return config, behaviors, groups, 19
    raise KeyError(name)


#: case -> sha256 prefix of the serialised result payload.  These pin the
#: variable engine's full draw order and accounting; update them only for
#: an intentional semantic change (which also invalidates cached results).
GOLDEN_VARIABLE = {
    "poisson-growth": "f705f2085eff3d2a",
    "capped-growth": "518bdce4d363112d",
    "flash-arrivals": "c87c7e443341931f",
    "pure-shrink": "a2b8c3cb35e56ade",
    "whitewash": "2a30499526c5a058",
    "encounter-growth": "ef55537079d1b1f1",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_VARIABLE))
def test_variable_run_pinned_by_fingerprint(engine_cls, name):
    config, behaviors, groups, seed = _variable_case(name)
    result = engine_cls(config, behaviors, groups, seed=seed).run()
    assert _payload_digest(result).startswith(GOLDEN_VARIABLE[name])
    # Re-running must reproduce the digest (determinism backs the pin).
    again = engine_cls(config, behaviors, groups, seed=seed).run()
    assert _payload_digest(again) == _payload_digest(result)


@pytest.mark.parametrize("name", sorted(GOLDEN_VARIABLE))
def test_variable_run_population_accounting(engine_cls, name):
    """Structural invariants of every pinned variable case."""
    config, behaviors, groups, seed = _variable_case(name)
    result = engine_cls(config, behaviors, groups, seed=seed).run()
    population = config.population
    assert result.active_counts is not None
    assert len(result.active_counts) == config.rounds
    assert all(count >= 2 for count in result.active_counts)
    if population.max_active:
        assert all(count <= population.max_active for count in result.active_counts)
    # Identities: every record is unique, initial + arrivals accounted.
    ids = [record.peer_id for record in result.records]
    assert len(ids) == len(set(ids))
    assert len(result.records) == config.n_peers + result.total_arrivals
    departed = [r for r in result.records if r.departed_round is not None]
    assert len(departed) == result.total_departures
    # The end-of-run bookkeeping must agree with the timeline.
    assert result.final_active_count == len(result.records) - len(departed)
