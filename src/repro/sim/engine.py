"""Engine dispatch and the run result of the cycle-based model (§4.3.1).

One simulation executes a population of peers, each running a
:class:`~repro.sim.behavior.PeerBehavior`, for a configured number of rounds.
Every round proceeds in two phases:

1. **Decision phase** — each peer, using only information available at the
   start of the round, (a) builds its candidate list from recent
   interactions, (b) ranks the candidates and selects up to ``k`` partners,
   (c) applies its stranger policy to recent contacts it has no history
   with, (d) divides its upload capacity over the chosen targets according to
   its allocation policy, and (e) issues discovery/service requests to random
   peers.

2. **Transfer phase** — all allocations are applied simultaneously: the
   receiving peers record the interactions (including explicit zero-amount
   refusals), transfer accounting is updated, loyalty counters and adaptive
   aspiration levels are refreshed, and the requests issued this round become
   the targets' pending contacts for the next round.

The two-phase structure removes any dependence on peer iteration order within
a round, which keeps runs reproducible and unbiased.  Churn, arrivals and
scenario dynamics are applied at the start of each round.

A fixed population is the degenerate case of a variable one (replacement
churn, no arrivals), so one model has one pair of replica engines:
:class:`~repro.sim.population_fast.FastPopulationSimulation`, the optimised
hot path, and :class:`~repro.sim.population.PopulationSimulation`, the
readable reference it is proven bit-identical against.  The numpy batch
engine :class:`~repro.sim.population_vec.VecSimulation` samples the same
process with different draws.  This module holds what they share: the
:class:`SimulationResult` they return and the name→engine dispatch
(:func:`simulate`, :func:`profiled_simulation`, :func:`using_engine`).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.sim.behavior import PeerBehavior
from repro.sim.config import SimulationConfig
from repro.sim.metrics import (
    CohortMetrics,
    GroupCohortMetrics,
    GroupMetrics,
    PeerRecord,
    compute_cohort_metrics,
    compute_group_cohort_metrics,
    compute_group_metrics,
    population_throughput,
)

__all__ = [
    "ENGINE_CHOICES",
    "ENV_ENGINE",
    "FUSED_HISTORY_MIN",
    "SimulationResult",
    "default_engine",
    "population_engine_class",
    "profiled_simulation",
    "set_default_engine",
    "simulate",
    "using_engine",
]

#: Smallest history window for which the optimised engine fuses the
#: decision and transfer phases (decisions only ever read rounds r-1/r-2,
#: and creating the round-r bucket evicts at most round r-3, so later
#: peers' decisions are unaffected).  The CLI profiler reads this to label
#: its coarse buckets; the fast population engine branches on it.
FUSED_HISTORY_MIN = 3


@dataclass
class SimulationResult:
    """Outcome of one simulation run.

    The population fields keep their defaults on fixed-population runs;
    variable-population runs record the per-round active count and the
    arrival/departure totals, and their ``records`` include every identity
    that ever existed (departed ones carry their final accounting), so
    transfer totals balance across population change.
    """

    config: SimulationConfig
    records: List[PeerRecord]
    rounds_executed: int
    churn_events: int = 0
    total_explicit_refusals: int = 0
    #: Active population at the end of each round (variable runs only).
    active_counts: Optional[Tuple[int, ...]] = None
    total_arrivals: int = 0
    total_departures: int = 0

    @property
    def measured_rounds(self) -> int:
        return self.config.measured_rounds

    @property
    def final_active_count(self) -> int:
        """Active peers at the end of the run."""
        if self.active_counts is not None:
            return self.active_counts[-1]
        return self.config.n_peers

    @property
    def throughput(self) -> float:
        """Population throughput per measured round (the Performance metric)."""
        return population_throughput(self.records, self.measured_rounds)

    @property
    def mean_download_per_peer(self) -> float:
        """Average cumulative download per peer over the measured rounds."""
        if not self.records:
            return 0.0
        return sum(r.downloaded for r in self.records) / len(self.records)

    def group_metrics(self) -> Dict[str, GroupMetrics]:
        """Aggregate metrics per protocol group."""
        return compute_group_metrics(self.records, self.measured_rounds)

    def group_mean_download(self, group: str) -> float:
        """Average per-peer download of one group (KeyError if absent)."""
        return self.group_metrics()[group].mean_downloaded

    def groups(self) -> List[str]:
        """The distinct group labels present, sorted."""
        return sorted({r.group for r in self.records})

    def cohort_metrics(self) -> Dict[str, CohortMetrics]:
        """Per-cohort metrics normalised by peer-rounds of presence."""
        return compute_cohort_metrics(self.records, self.measured_rounds)

    def group_cohort_metrics(self) -> Dict[Tuple[str, str], GroupCohortMetrics]:
        """Per-(group, cohort) PRA measures, download shares and departure
        rates — who wins inside an adversarial workload.  Defined for fixed
        and variable populations (fixed runs have a single ``"initial"``
        cohort)."""
        return compute_group_cohort_metrics(self.records, self.measured_rounds)

    def download_per_peer_round(self) -> float:
        """Total download per peer-round of presence across the whole run.

        The scale-free performance figure the robustness atlas compares
        across protocols and workloads: on fixed runs it equals
        ``throughput / n_peers``; on variable runs each identity only
        counts for the measured rounds it was actually present.
        """
        total = sum(r.downloaded for r in self.records)
        peer_rounds = sum(
            r.rounds_present if r.rounds_present is not None else self.measured_rounds
            for r in self.records
        )
        return total / peer_rounds if peer_rounds else 0.0

    def utilization(self) -> float:
        """Fraction of total upload capacity actually used across the run.

        On variable-population runs each identity's capacity is weighted by
        the measured rounds it was actually present, so a peer that joined
        late (or left early) is not charged for capacity it never had in
        the swarm.
        """
        if any(r.rounds_present is not None for r in self.records):
            capacity = sum(
                r.upload_capacity
                * (
                    r.rounds_present
                    if r.rounds_present is not None
                    else self.measured_rounds
                )
                for r in self.records
            )
        else:
            capacity = (
                sum(r.upload_capacity for r in self.records) * self.measured_rounds
            )
        if capacity <= 0:
            return 0.0
        return sum(r.uploaded for r in self.records) / capacity


# ---------------------------------------------------------------------- #
# engine dispatch
# ---------------------------------------------------------------------- #
#: Engine implementations selectable per run: ``"fast"`` is the optimised
#: population engine (the default), ``"reference"`` its readable spec
#: (:class:`~repro.sim.population.PopulationSimulation`), and ``"vec"`` the
#: numpy batch engine for very large swarms.  ``fast`` and ``reference``
#: produce bit-identical results — the golden-equivalence and differential
#: suites enforce it.  ``vec`` samples the same stochastic
#: process with different random draws; the ``tests/statistical/`` harness
#: pins its distributional equivalence.  The choice therefore never affects
#: the modelled process (or a result's cache fingerprint), only wall-clock
#: time and, for ``vec``, the per-seed draw sequence.
ENGINE_CHOICES = ("fast", "reference", "vec")

#: Environment variable selecting the process-wide default engine.  Worker
#: processes inherit it, so a CLI ``--engine`` override also governs
#: simulations fanned out by the parallel runner.
ENV_ENGINE = "REPRO_SIM_ENGINE"

_default_engine: Optional[str] = None


def _validate_engine(engine: str) -> None:
    if engine not in ENGINE_CHOICES:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {ENGINE_CHOICES}"
        )


def default_engine() -> str:
    """The engine :func:`simulate` uses when none is requested explicitly.

    Resolution order: :func:`set_default_engine`, then the
    ``REPRO_SIM_ENGINE`` environment variable, then ``"fast"``.
    """
    if _default_engine is not None:
        return _default_engine
    env = os.environ.get(ENV_ENGINE)
    if env:
        _validate_engine(env)
        return env
    return "fast"


def set_default_engine(engine: Optional[str]) -> None:
    """Set the process-wide default engine (``None`` restores env/fast)."""
    global _default_engine
    if engine is not None:
        _validate_engine(engine)
    _default_engine = engine


@contextmanager
def using_engine(engine: Optional[str]):
    """Scope an engine choice: set it on entry, restore the state on exit.

    Saves and restores *both* the process-wide default and the
    ``REPRO_SIM_ENGINE`` environment variable — the latter is what worker
    processes spawned inside the scope inherit, so a scoped choice also
    governs simulations fanned out by the parallel runner.  ``None`` is a
    no-op scope (the caller had no preference), which lets callers write
    ``with using_engine(maybe_engine):`` unconditionally.
    """
    if engine is None:
        yield
        return
    _validate_engine(engine)
    saved_default = _default_engine
    saved_env = os.environ.get(ENV_ENGINE)
    set_default_engine(engine)
    os.environ[ENV_ENGINE] = engine
    try:
        yield
    finally:
        set_default_engine(saved_default)
        if saved_env is None:
            os.environ.pop(ENV_ENGINE, None)
        else:
            os.environ[ENV_ENGINE] = saved_env


def population_engine_class(engine: Optional[str] = None):
    """The engine class the given choice dispatches to, for any config.

    This is the single source of the name→class mapping: :func:`simulate`
    and :func:`profiled_simulation` both resolve through it.
    """
    if engine is None:
        engine = default_engine()
    else:
        _validate_engine(engine)
    # Imported lazily: the population engines depend on this module.
    if engine == "reference":
        from repro.sim.population import PopulationSimulation

        return PopulationSimulation
    if engine == "vec":
        from repro.sim.population_vec import VecSimulation

        return VecSimulation
    from repro.sim.population_fast import FastPopulationSimulation

    return FastPopulationSimulation


def profiled_simulation(
    config: SimulationConfig,
    behaviors: Sequence[PeerBehavior],
    groups: Optional[Sequence[str]] = None,
    seed: Optional[int] = None,
    engine: Optional[str] = None,
):
    """Construct (not run) a profiling-enabled simulation for ``config``.

    Every engine profiles every config shape.  After ``.run()`` the
    instance's ``phase_seconds`` holds the per-phase wall-clock table —
    feed it to :func:`repro.sim.profiling.phases_payload` /
    :func:`repro.sim.profiling.render_phases`.
    """
    engine_cls = population_engine_class(engine)
    return engine_cls(config, behaviors, groups=groups, seed=seed, profile=True)


def simulate(
    config: SimulationConfig,
    behaviors: Sequence[PeerBehavior],
    groups: Optional[Sequence[str]] = None,
    seed: Optional[int] = None,
    engine: Optional[str] = None,
) -> SimulationResult:
    """Run one simulation of ``config`` on the selected engine.

    ``engine`` (default: :func:`default_engine`) picks the implementation,
    whatever the config's shape — fixed or variable population, with or
    without scenario dynamics:

    * ``"fast"`` — :class:`~repro.sim.population_fast.FastPopulationSimulation`;
    * ``"reference"`` — :class:`~repro.sim.population.PopulationSimulation`,
      bit-identical to ``fast``;
    * ``"vec"`` — :class:`~repro.sim.population_vec.VecSimulation`, whose
      results are statistically equivalent to the replica engines (same
      stochastic process, different random draws) rather than
      bit-identical; the ``tests/statistical/`` harness enforces the
      envelope.
    """
    engine_cls = population_engine_class(engine)
    return engine_cls(config, behaviors, groups=groups, seed=seed).run()
