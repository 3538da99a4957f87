"""Differential tests: optimised vs reference population engine.

The pinned-fingerprint and fixed-population equivalence cases run on both
engines in ``test_population_differential.py``; this module adds the parts
specific to the two-engine architecture:

* a **hypothesis differential** — randomly drawn
  :class:`~repro.sim.dynamics.PopulationDynamics` bundles or fixed
  populations with random churn and
  :class:`~repro.sim.dynamics.ScenarioDynamics` bundles, behaviour mixes
  and seeds, with the full serialised result payloads of
  :class:`~repro.sim.population_fast.FastPopulationSimulation` and
  :class:`~repro.sim.population.PopulationSimulation` compared for
  equality (bit-identity, not tolerance);
* the positional-skip sampler's draw-equivalence with ``Random.sample``;
* :func:`repro.sim.engine.simulate` dispatch: fast by default, the
  ``reference`` engine via argument, :func:`set_default_engine` and
  the ``REPRO_SIM_ENGINE`` environment variable — with the engine choice
  provably absent from the job fingerprint (results are interchangeable,
  so cached entries must be too);
* the per-phase profiling hooks used by the CLI ``--profile`` flag.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runner.jobs import SimulationJob, result_to_payload
from repro.sim.config import SimulationConfig
from repro.sim.dynamics import (
    ArrivalProcess,
    BehaviorShift,
    ChurnWave,
    DepartureProcess,
    PopulationDynamics,
    ScenarioDynamics,
)
from repro.sim.engine import (
    ENGINE_CHOICES,
    ENV_ENGINE,
    default_engine,
    set_default_engine,
    simulate,
)
from repro.sim.population import PopulationSimulation
from repro.sim.population_fast import FastPopulationSimulation, _sample_skip

from tests.property.test_property_population import behaviors, population_dynamics
from tests.sim.reference import ReferenceSimulation
from tests.sim.test_engine_equivalence import VARIANTS


@pytest.fixture
def pristine_engine():
    """Reset the process-wide default engine around a test."""
    set_default_engine(None)
    yield
    set_default_engine(None)


# ---------------------------------------------------------------------- #
# hypothesis differential: fast engine vs reference engine
# ---------------------------------------------------------------------- #
@st.composite
def churn_waves(draw, rounds: int):
    """One independent or correlated wave inside the run."""
    correlated = draw(st.booleans())
    return ChurnWave(
        start=draw(st.integers(min_value=0, max_value=rounds - 1)),
        rounds=draw(st.integers(min_value=1, max_value=5)),
        intensity=draw(
            st.floats(min_value=0.05, max_value=1.0 if correlated else 0.6)
        ),
        correlated=correlated,
    )


@st.composite
def scenario_dynamics(draw, n_peers: int, rounds: int):
    """A random ScenarioDynamics bundle: waves, shifts, pinned capacities."""
    capacities = draw(
        st.none()
        | st.lists(
            st.floats(min_value=5.0, max_value=400.0),
            min_size=n_peers,
            max_size=n_peers,
        ).map(tuple)
    )
    shifts = draw(
        st.lists(
            st.builds(
                BehaviorShift,
                round=st.integers(min_value=0, max_value=rounds - 1),
                peer_ids=st.sets(
                    st.integers(min_value=0, max_value=n_peers - 1),
                    min_size=1,
                    max_size=n_peers,
                ).map(lambda ids: tuple(sorted(ids))),
                behavior=behaviors,
                group=st.sampled_from([None, "shifted", "colluder"]),
            ),
            max_size=3,
        )
    )
    return ScenarioDynamics(
        initial_capacities=capacities,
        churn_waves=tuple(draw(st.lists(churn_waves(rounds), max_size=3))),
        behavior_shifts=tuple(shifts),
    )


@st.composite
def differential_runs(draw):
    """``(config, behavior, seed)``: a variable population, or a fixed one
    with random churn and scenario dynamics."""
    n = draw(st.integers(min_value=4, max_value=12))
    rounds = draw(st.integers(min_value=5, max_value=20))
    if draw(st.booleans()):
        shape = {"population": draw(population_dynamics())}
    else:
        shape = {
            "churn_rate": draw(st.floats(min_value=0.0, max_value=0.1)),
            "dynamics": draw(scenario_dynamics(n, rounds)),
        }
    config = SimulationConfig(
        n_peers=n,
        rounds=rounds,
        warmup_rounds=draw(st.integers(min_value=0, max_value=4)),
        **shape,
    )
    return (
        config,
        draw(behaviors),
        draw(st.integers(min_value=0, max_value=2**32 - 1)),
    )


class TestFastEngineDifferential:
    @given(differential_runs())
    @settings(max_examples=80, deadline=None)
    def test_bit_identical_to_reference_engine(self, run):
        """Random bundles, seeds and behaviours: full payloads must match."""
        config, behavior, seed = run
        reference = PopulationSimulation(config, [behavior], seed=seed).run()
        fast = FastPopulationSimulation(config, [behavior], seed=seed).run()
        assert result_to_payload(fast) == result_to_payload(reference)
        assert fast.active_counts == reference.active_counts
        assert fast.churn_events == reference.churn_events

    @given(differential_runs(), st.sampled_from(sorted(VARIANTS)))
    @settings(max_examples=30, deadline=None)
    def test_bit_identical_on_mixed_groups(self, run, variant_name):
        """Two-group encounters under random dynamics must also match."""
        config, behavior, seed = run
        half = config.n_peers // 2
        mix = [behavior] * half + [VARIANTS[variant_name]] * (config.n_peers - half)
        groups = ["A"] * half + ["B"] * (config.n_peers - half)
        reference = PopulationSimulation(config, mix, groups, seed=seed).run()
        fast = FastPopulationSimulation(config, mix, groups, seed=seed).run()
        assert result_to_payload(fast) == result_to_payload(reference)


class TestSampleSkip:
    @given(
        n=st.integers(min_value=2, max_value=60),
        idx_seed=st.integers(min_value=0, max_value=2**16),
        k_seed=st.integers(min_value=0, max_value=2**16),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_stdlib_sample_on_materialised_others(
        self, n, idx_seed, k_seed, seed
    ):
        """Positional-skip draws == Random.sample on the others list."""
        active_ids = list(range(100, 100 + n))
        idx = idx_seed % n
        others = active_ids[:idx] + active_ids[idx + 1 :]
        k = 1 + k_seed % len(others)
        expected = random.Random(seed).sample(others, k)
        got = _sample_skip(
            random.Random(seed).getrandbits, active_ids, idx, len(others), k
        )
        assert got == expected


# ---------------------------------------------------------------------- #
# engine dispatch and the reference escape hatch
# ---------------------------------------------------------------------- #
VARIABLE_CONFIG = SimulationConfig(
    n_peers=8,
    rounds=16,
    population=PopulationDynamics(
        arrival=ArrivalProcess(kind="poisson", rate=0.4),
        departure=DepartureProcess(rate=0.03),
    ),
)


class TestEngineDispatch:
    def test_choices_are_fast_reference_and_vec(self):
        assert ENGINE_CHOICES == ("fast", "reference", "vec")

    def test_default_engine_is_fast(self, pristine_engine, monkeypatch):
        monkeypatch.delenv(ENV_ENGINE, raising=False)
        assert default_engine() == "fast"

    def test_engine_argument_selects_bit_identical_paths(self):
        behavior = VARIANTS["bittorrent"]
        fast = simulate(VARIABLE_CONFIG, [behavior], seed=2, engine="fast")
        reference = simulate(VARIABLE_CONFIG, [behavior], seed=2, engine="reference")
        assert result_to_payload(fast) == result_to_payload(reference)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            simulate(VARIABLE_CONFIG, [VARIANTS["bittorrent"]], seed=0, engine="warp")
        with pytest.raises(ValueError, match="unknown engine"):
            set_default_engine("warp")

    def test_set_default_engine_governs_dispatch(self, pristine_engine):
        set_default_engine("reference")
        assert default_engine() == "reference"
        set_default_engine(None)
        assert default_engine() in ENGINE_CHOICES

    def test_env_variable_governs_dispatch(self, pristine_engine, monkeypatch):
        monkeypatch.setenv(ENV_ENGINE, "reference")
        assert default_engine() == "reference"
        # An explicit set_default_engine overrides the environment.
        set_default_engine("fast")
        assert default_engine() == "fast"

    def test_reference_dispatch_for_fixed_population(self):
        """Reference-engine fixed runs equal the frozen seed oracle."""
        config = SimulationConfig(n_peers=8, rounds=12)
        behavior = VARIANTS["bittorrent"]
        via_simulate = simulate(config, [behavior], seed=5, engine="reference")
        direct = ReferenceSimulation(config, [behavior], seed=5).run()
        assert result_to_payload(via_simulate) == result_to_payload(direct)

    def test_reference_engine_is_total_over_scenario_dynamics(self):
        """Both replica engines run ScenarioDynamics configs identically.

        A reference-engine sweep over a mixed scenario grid must not abort
        on the fixed-population scenarios that carry ScenarioDynamics.
        """
        from repro.scenarios import get_scenario

        job = get_scenario("flash-crowd").compile(scale="smoke", seed=3)
        assert job.config.dynamics is not None
        behaviors = list(job.behaviors)
        groups = list(job.groups) if job.groups is not None else None
        fast = simulate(job.config, behaviors, groups, seed=3, engine="fast")
        reference = simulate(
            job.config, behaviors, groups, seed=3, engine="reference"
        )
        assert result_to_payload(fast) == result_to_payload(reference)

    def test_fingerprint_is_engine_independent(self):
        """Engine choice must never split the result cache."""
        job = SimulationJob(
            config=VARIABLE_CONFIG, behaviors=(VARIANTS["bittorrent"],), seed=9
        )
        fingerprint = job.fingerprint()
        assert "engine" not in job.payload()["config"]
        # Both engines produce the payload stored under that fingerprint.
        fast = simulate(VARIABLE_CONFIG, [VARIANTS["bittorrent"]], seed=9)
        reference = simulate(
            VARIABLE_CONFIG, [VARIANTS["bittorrent"]], seed=9, engine="reference"
        )
        assert result_to_payload(fast) == result_to_payload(reference)
        assert job.fingerprint() == fingerprint


class TestProfileHooks:
    @pytest.mark.parametrize(
        "engine_cls", [PopulationSimulation, FastPopulationSimulation]
    )
    def test_profile_collects_phase_seconds(self, engine_cls):
        sim = engine_cls(
            VARIABLE_CONFIG, [VARIANTS["bittorrent"]], seed=1, profile=True
        )
        sim.run()
        assert set(sim.phase_seconds) == {"population", "decision", "transfer"}
        assert all(value >= 0.0 for value in sim.phase_seconds.values())
        assert sum(sim.phase_seconds.values()) > 0.0

    @pytest.mark.parametrize(
        "engine_cls", [PopulationSimulation, FastPopulationSimulation]
    )
    def test_profiling_does_not_perturb_results(self, engine_cls):
        behavior = VARIANTS["bittorrent"]
        plain = engine_cls(VARIABLE_CONFIG, [behavior], seed=3).run()
        profiled = engine_cls(
            VARIABLE_CONFIG, [behavior], seed=3, profile=True
        ).run()
        assert result_to_payload(plain) == result_to_payload(profiled)
