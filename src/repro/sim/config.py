"""Simulation configuration.

:class:`SimulationConfig` holds every tunable of the cycle-based simulator.
The defaults follow the paper's setup (Section 4.3): 50 peers — "a good
approximation of an average BitTorrent swarm-size" — interacting for 500
rounds, with upload capacities drawn from a Piatek-style bandwidth
distribution, and no churn unless requested.

Smaller presets (:meth:`SimulationConfig.small`, :meth:`SimulationConfig.smoke`)
are provided for tests and benchmarks; the per-experiment scaling actually
used is recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.sim.bandwidth import BandwidthDistribution, piatek_distribution
from repro.sim.dynamics import PopulationDynamics, ScenarioDynamics

__all__ = ["SimulationConfig"]


@dataclass(frozen=True)
class SimulationConfig:
    """Parameters of one cycle-based simulation run.

    Parameters
    ----------
    n_peers:
        Number of peers in the swarm.
    rounds:
        Number of simulated rounds.
    bandwidth:
        Upload-capacity distribution; ``None`` selects the Piatek-style
        default.
    churn_rate:
        Per-peer per-round probability of being replaced by a fresh peer
        (0 disables churn).  The §4.4 churn check uses 0.01 and 0.1.
    requests_per_round:
        Number of discovery/service requests each peer issues per round;
        incoming requests are the primary way strangers learn about each
        other.
    discovery_per_round:
        Number of additional random peers each peer discovers per round
        (tracker/gossip stand-in).
    warmup_rounds:
        Rounds excluded from throughput accounting (bootstrap transient).
    stranger_bandwidth_cap:
        Maximum fraction of capacity spent on strangers per round.
    history_rounds:
        Rounds of interaction history retained per peer (must cover the
        largest candidate window, i.e. at least 2).
    aspiration_smoothing:
        Exponential smoothing factor of the Sort Adaptive aspiration level.
    dynamics:
        Optional compiled scenario dynamics of a fixed population (churn
        waves, behaviour shifts, pinned initial capacities; see
        :mod:`repro.sim.dynamics`), executed by the population step of
        every engine.  ``None`` — the default — runs plain replacement
        churn at ``churn_rate``, bit-identical to the frozen seed engine.
    population:
        Optional variable-population dynamics (true arrivals/departures;
        see :class:`~repro.sim.dynamics.PopulationDynamics`).  With a
        non-trivial bundle ``n_peers`` is the *initial* population and the
        active set grows and shrinks over the run; without one the
        population is fixed.  Mutually exclusive with ``churn_rate`` and
        ``dynamics`` (the population process owns all arrivals and
        departures).
    """

    n_peers: int = 50
    rounds: int = 500
    bandwidth: Optional[BandwidthDistribution] = None
    churn_rate: float = 0.0
    requests_per_round: int = 1
    discovery_per_round: int = 2
    warmup_rounds: int = 0
    stranger_bandwidth_cap: float = 0.5
    history_rounds: int = 3
    aspiration_smoothing: float = 0.25
    dynamics: Optional[ScenarioDynamics] = None
    population: Optional[PopulationDynamics] = None

    def __post_init__(self) -> None:
        if self.n_peers < 2:
            raise ValueError("n_peers must be at least 2")
        if self.rounds < 1:
            raise ValueError("rounds must be at least 1")
        if not 0.0 <= self.churn_rate < 1.0:
            raise ValueError("churn_rate must be in [0, 1)")
        if self.requests_per_round < 0:
            raise ValueError("requests_per_round must be >= 0")
        if self.discovery_per_round < 0:
            raise ValueError("discovery_per_round must be >= 0")
        if not 0 <= self.warmup_rounds < self.rounds:
            raise ValueError("warmup_rounds must be in [0, rounds)")
        if not 0.0 <= self.stranger_bandwidth_cap <= 1.0:
            raise ValueError("stranger_bandwidth_cap must be in [0, 1]")
        if self.history_rounds < 2:
            raise ValueError("history_rounds must be at least 2 (TF2T window)")
        if not 0.0 < self.aspiration_smoothing <= 1.0:
            raise ValueError("aspiration_smoothing must be in (0, 1]")
        if self.dynamics is not None:
            capacities = self.dynamics.initial_capacities
            if capacities is not None and len(capacities) != self.n_peers:
                raise ValueError(
                    f"dynamics pins {len(capacities)} initial capacities "
                    f"for {self.n_peers} peers"
                )
            if self.dynamics.max_peer_id() >= self.n_peers:
                raise ValueError(
                    "dynamics references peer id "
                    f"{self.dynamics.max_peer_id()} outside [0, {self.n_peers})"
                )
        if self.population is not None and not self.population.is_trivial():
            if self.churn_rate != 0.0:
                raise ValueError(
                    "population dynamics and churn_rate are mutually exclusive; "
                    "express departures via the DepartureProcess"
                )
            if self.dynamics is not None:
                raise ValueError(
                    "population dynamics and scenario dynamics are mutually "
                    "exclusive (waves and shifts address fixed peer slots)"
                )
            if 0 < self.population.max_active < self.n_peers:
                raise ValueError(
                    f"max_active ({self.population.max_active}) must not be "
                    f"below the initial population ({self.n_peers})"
                )

    @property
    def is_variable_population(self) -> bool:
        """Whether the population size can change (a non-trivial bundle)."""
        return self.population is not None and not self.population.is_trivial()

    def distribution(self) -> BandwidthDistribution:
        """The effective bandwidth distribution (Piatek-style by default)."""
        return self.bandwidth if self.bandwidth is not None else piatek_distribution()

    def with_(self, **changes) -> "SimulationConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)

    @property
    def measured_rounds(self) -> int:
        """Number of rounds included in throughput accounting."""
        return self.rounds - self.warmup_rounds

    # ------------------------------------------------------------------ #
    # presets
    # ------------------------------------------------------------------ #
    @classmethod
    def paper(cls) -> "SimulationConfig":
        """The configuration used by the paper's PRA experiments (50 peers, 500 rounds)."""
        return cls(n_peers=50, rounds=500)

    @classmethod
    def small(cls) -> "SimulationConfig":
        """A reduced configuration suitable for benchmark sweeps."""
        return cls(n_peers=16, rounds=40)

    @classmethod
    def smoke(cls) -> "SimulationConfig":
        """A minimal configuration for fast unit tests."""
        return cls(n_peers=10, rounds=15)
