"""Cycle-based P2P simulation model (Section 4.3.1 of the paper).

This sub-package implements the simulation substrate on which the Design
Space Analysis of Section 4 executes protocol variants:

* time consists of rounds; in each round every peer selects partners from a
  candidate list built from recent interactions, decides how to treat
  strangers, and divides its upload capacity over the chosen targets;
* peers are initialised with upload capacities drawn from a Piatek-style
  bandwidth distribution (:mod:`repro.sim.bandwidth`);
* a peer's behaviour is fully described by a :class:`~repro.sim.behavior.PeerBehavior`
  (stranger policy, candidate list, ranking function, number of partners and
  resource-allocation policy) — exactly the dimensions actualised in
  Section 4.2;
* optional churn replaces peers with fresh ones at a configurable per-round
  rate (used for the §4.4 churn check).

The engine (:mod:`repro.sim.engine`) is deliberately lightweight — plain
dictionaries, no per-message objects — so the PRA tournament can run tens of
thousands of simulations in a benchmark session.

Three engines are selectable.  Each population model ships two replica
engines proven bit-identical: an optimised hot path
(:class:`~repro.sim.engine.Simulation` for fixed populations,
:class:`~repro.sim.population_fast.FastPopulationSimulation` for variable
ones) and a reference implementation (:mod:`repro.sim.reference`,
:class:`~repro.sim.population.PopulationSimulation`).  The third,
:class:`~repro.sim.population_vec.VecSimulation`, executes whole rounds as
numpy batch operations for 10k–100k-peer swarms; it samples the same
stochastic process with different random draws and is gated by the
``tests/statistical/`` equivalence harness rather than bit-identity.
:func:`simulate` dispatches onto the optimised replica engines by default;
``engine="reference"`` / ``engine="vec"``, :func:`set_default_engine` or
``REPRO_SIM_ENGINE`` select the other paths.
"""

from repro.sim.bandwidth import (
    BandwidthDistribution,
    ConstantBandwidth,
    EmpiricalBandwidth,
    TwoClassBandwidth,
    UniformBandwidth,
    piatek_distribution,
)
from repro.sim.behavior import (
    ALLOCATION_POLICIES,
    CANDIDATE_POLICIES,
    RANKING_FUNCTIONS,
    STRANGER_POLICIES,
    PeerBehavior,
)
from repro.sim.config import SimulationConfig
from repro.sim.dynamics import ArrivalProcess, DepartureProcess, PopulationDynamics
from repro.sim.engine import (
    ENGINE_CHOICES,
    Simulation,
    SimulationResult,
    default_engine,
    set_default_engine,
    simulate,
)
from repro.sim.history import InteractionHistory
from repro.sim.metrics import (
    CohortMetrics,
    GroupMetrics,
    compute_cohort_metrics,
    compute_group_metrics,
    population_throughput,
)
from repro.sim.peer import PeerState
from repro.sim.population import PopulationSimulation
from repro.sim.population_fast import FastPopulationSimulation

__all__ = [
    "BandwidthDistribution",
    "ConstantBandwidth",
    "EmpiricalBandwidth",
    "TwoClassBandwidth",
    "UniformBandwidth",
    "piatek_distribution",
    "PeerBehavior",
    "STRANGER_POLICIES",
    "CANDIDATE_POLICIES",
    "RANKING_FUNCTIONS",
    "ALLOCATION_POLICIES",
    "SimulationConfig",
    "Simulation",
    "SimulationResult",
    "simulate",
    "ENGINE_CHOICES",
    "default_engine",
    "set_default_engine",
    "ArrivalProcess",
    "DepartureProcess",
    "PopulationDynamics",
    "PopulationSimulation",
    "FastPopulationSimulation",
    "VecSimulation",
    "InteractionHistory",
    "PeerState",
    "GroupMetrics",
    "CohortMetrics",
    "compute_group_metrics",
    "compute_cohort_metrics",
    "population_throughput",
]


def __getattr__(name):
    # VecSimulation loads numpy; resolve it on first use (PEP 562) so the
    # pure-Python engines import without it.
    if name == "VecSimulation":
        from repro.sim.population_vec import VecSimulation

        return VecSimulation
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
