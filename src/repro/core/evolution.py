"""Evolutionary (imitation) dynamics over protocol populations.

The PRA quantification asks how a *fixed* mix of two protocols fares; a
complementary question — studied by the evolutionary game-theory line of work
the paper builds on (Axelrod; Feldman et al.) — is what happens when peers
*switch* protocols over time, imitating whichever protocol is currently doing
best.  This module implements discrete-generation imitation dynamics on top
of the cycle-based simulator:

1. every generation, the current protocol shares are realised as a concrete
   peer population and one simulation is run;
2. each protocol's *fitness* is the average download of the peers running it;
3. every peer then reconsiders its protocol: with probability
   ``imitation_rate`` it compares itself against a uniformly chosen
   role-model peer and adopts the role model's protocol if that protocol's
   fitness is higher (the classic pairwise imitate-the-better rule, so
   imitation pressure is proportional to a protocol's population share and
   its payoff advantage); with probability ``mutation_rate`` it switches to a
   uniformly random protocol from the menu (exploration / new entrants);
4. repeat for a configured number of generations.

:meth:`ImitationDynamics.run` records the share trajectory;
:func:`is_evolutionarily_stable` uses it to check whether a protocol resists
a small invading share — the dynamic counterpart of the paper's Appendix
Nash-equilibrium argument, and the ablation benchmark shows Birds resisting a
BitTorrent invasion this way.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.protocol import Protocol
from repro.sim.config import SimulationConfig
from repro.sim.engine import simulate
from repro.utils.rng import derive_seed

__all__ = [
    "EvolutionConfig",
    "GenerationRecord",
    "EvolutionResult",
    "ImitationDynamics",
    "is_evolutionarily_stable",
]


@dataclass(frozen=True)
class EvolutionConfig:
    """Parameters of an imitation-dynamics run.

    Parameters
    ----------
    sim:
        Simulation parameters of each generation's run.
    generations:
        Number of generations simulated.
    imitation_rate:
        Per-peer probability of reconsidering its protocol each generation.
    mutation_rate:
        Per-peer probability of switching to a uniformly random protocol
        (applied after imitation; models exploration and new entrants).
    seed:
        Master seed; each generation derives its own simulation seed.
    """

    sim: SimulationConfig
    generations: int = 20
    imitation_rate: float = 0.3
    mutation_rate: float = 0.01
    seed: int = 0

    def __post_init__(self) -> None:
        if self.generations < 1:
            raise ValueError("generations must be >= 1")
        if not 0.0 <= self.imitation_rate <= 1.0:
            raise ValueError("imitation_rate must be in [0, 1]")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError("mutation_rate must be in [0, 1]")


@dataclass(frozen=True)
class GenerationRecord:
    """Shares and fitness of every protocol in one generation."""

    generation: int
    shares: Dict[str, float]
    fitness: Dict[str, float]


@dataclass
class EvolutionResult:
    """Trajectory of an imitation-dynamics run."""

    protocols: List[Protocol]
    records: List[GenerationRecord]

    def share_trajectory(self, key: str) -> List[float]:
        """Per-generation population share of one protocol."""
        return [record.shares.get(key, 0.0) for record in self.records]

    def final_shares(self) -> Dict[str, float]:
        """Shares after the last generation."""
        return dict(self.records[-1].shares)

    def dominant_protocol(self) -> str:
        """Key of the protocol with the largest final share."""
        final = self.final_shares()
        return max(final, key=lambda key: final[key])


class ImitationDynamics:
    """Discrete-generation imitation dynamics over a protocol menu.

    Parameters
    ----------
    protocols:
        The menu of protocols peers can run (keys must be unique).
    config:
        Dynamics parameters.
    initial_shares:
        Optional initial population shares keyed by protocol key; defaults to
        a uniform split.  Shares are normalised and realised as integer peer
        counts (every protocol with a positive share gets at least one peer
        when space allows).
    """

    def __init__(
        self,
        protocols: Sequence[Protocol],
        config: EvolutionConfig,
        initial_shares: Optional[Dict[str, float]] = None,
    ):
        keys = [p.key for p in protocols]
        if len(protocols) < 2:
            raise ValueError("imitation dynamics needs at least two protocols")
        if len(set(keys)) != len(keys):
            raise ValueError("protocol keys must be unique")
        self.protocols = list(protocols)
        self.config = config
        self._by_key = {p.key: p for p in self.protocols}
        if initial_shares is None:
            initial_shares = {key: 1.0 / len(keys) for key in keys}
        unknown = set(initial_shares) - set(keys)
        if unknown:
            raise ValueError(f"initial_shares refer to unknown protocols: {sorted(unknown)}")
        total = sum(max(0.0, share) for share in initial_shares.values())
        if total <= 0:
            raise ValueError("initial_shares must contain at least one positive share")
        self._initial_shares = {
            key: max(0.0, initial_shares.get(key, 0.0)) / total for key in keys
        }
        self._rng = random.Random(config.seed)

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _realise_population(self, shares: Dict[str, float]) -> List[str]:
        """Turn fractional shares into a concrete per-peer protocol assignment."""
        n = self.config.sim.n_peers
        counts = {key: int(share * n) for key, share in shares.items()}
        # Give every positive share at least one peer while space remains.
        for key, share in shares.items():
            if share > 0 and counts[key] == 0 and sum(counts.values()) < n:
                counts[key] = 1
        # Distribute any remaining peers to the largest shares.
        remaining = n - sum(counts.values())
        order = sorted(shares, key=lambda key: shares[key], reverse=True)
        index = 0
        while remaining > 0 and order:
            counts[order[index % len(order)]] += 1
            remaining -= 1
            index += 1
        assignment: List[str] = []
        for key in sorted(counts):
            assignment.extend([key] * counts[key])
        return assignment[:n]

    def _run_generation(self, assignment: List[str], generation: int) -> Dict[str, float]:
        behaviors = [self._by_key[key].behavior for key in assignment]
        seed = derive_seed(self.config.seed, f"evolution/generation/{generation}")
        result = simulate(self.config.sim, behaviors, groups=assignment, seed=seed)
        metrics = result.group_metrics()
        return {key: metrics[key].mean_downloaded for key in metrics}

    def _update_assignment(
        self, assignment: List[str], fitness: Dict[str, float]
    ) -> List[str]:
        keys = list(self._by_key)
        updated: List[str] = []
        for current in assignment:
            choice = current
            if self._rng.random() < self.config.imitation_rate:
                # Pairwise imitation: compare against a uniformly chosen
                # role-model peer and adopt its protocol if that protocol's
                # average download this generation was strictly higher.
                role_model = self._rng.choice(assignment)
                if fitness.get(role_model, 0.0) > fitness.get(current, 0.0):
                    choice = role_model
            if self._rng.random() < self.config.mutation_rate:
                choice = self._rng.choice(keys)
            updated.append(choice)
        return updated

    @staticmethod
    def _shares_of(assignment: List[str]) -> Dict[str, float]:
        n = len(assignment)
        shares: Dict[str, float] = {}
        for key in assignment:
            shares[key] = shares.get(key, 0.0) + 1.0 / n
        return shares

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def run(self) -> EvolutionResult:
        """Run the configured number of generations and return the trajectory."""
        assignment = self._realise_population(self._initial_shares)
        records: List[GenerationRecord] = []
        for generation in range(self.config.generations):
            fitness = self._run_generation(assignment, generation)
            shares = self._shares_of(assignment)
            records.append(
                GenerationRecord(
                    generation=generation,
                    shares={key: shares.get(key, 0.0) for key in self._by_key},
                    fitness={key: fitness.get(key, 0.0) for key in self._by_key},
                )
            )
            assignment = self._update_assignment(assignment, fitness)
        return EvolutionResult(protocols=self.protocols, records=records)


def is_evolutionarily_stable(
    resident: Protocol,
    invader: Protocol,
    config: EvolutionConfig,
    invader_share: float = 0.1,
    survival_threshold: float = 0.5,
) -> bool:
    """Whether ``resident`` keeps the majority against a small ``invader`` share.

    Runs the imitation dynamics starting from ``1 - invader_share`` residents
    and returns ``True`` when the resident still holds at least
    ``survival_threshold`` of the population after the final generation —
    the dynamic analogue of the Appendix's "a deviant does not gain" check.
    """
    if not 0.0 < invader_share < 0.5:
        raise ValueError("invader_share must be in (0, 0.5)")
    if not 0.0 < survival_threshold <= 1.0:
        raise ValueError("survival_threshold must be in (0, 1]")
    dynamics = ImitationDynamics(
        [resident, invader],
        config,
        initial_shares={resident.key: 1.0 - invader_share, invader.key: invader_share},
    )
    result = dynamics.run()
    return result.final_shares()[resident.key] >= survival_threshold
