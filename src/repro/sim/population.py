"""The reference population engine — the readable spec of the round model.

This module is the **reference implementation** of the cycle-based round
model (§4.3.1): it executes the round loop through the live policy modules
with no micro-optimisation, which makes it the spec the optimised hot path
(:class:`repro.sim.population_fast.FastPopulationSimulation`) is proven
bit-identical against by the differential suite.  Production runs dispatch
to the fast engine; keep this one straightforward and readable.

:class:`PopulationSimulation` runs the two-phase decision/transfer round
over a **mutable active set**.  A fixed population is the degenerate case:
replacement churn at ``config.churn_rate`` and no arrivals, optionally with
:class:`~repro.sim.dynamics.ScenarioDynamics` (churn waves, behaviour
shifts, pinned initial capacities) on top.  A variable population carries a
:class:`~repro.sim.dynamics.PopulationDynamics` bundle: arrivals create
genuinely new identities mid-run (fresh peer ids, empty history, default
aspiration) and departures in ``"shrink"`` mode remove identities for good —
survivors forget them, and their final accounting is preserved in the run's
records.  That covers scenarios whose population *size* changes: growing
swarms, flash crowds of real newcomers, and Sybil-style whitewashing where
departing peers re-enter under fresh identities to shed their reputation.

Round structure:

1. **Population step** — behaviour shifts scheduled for the round fire
   first; then departures are drawn per active peer (replacement or
   true-shrink semantics per the
   :class:`~repro.sim.dynamics.DepartureProcess`, with independent churn
   waves added to the replacement rate), correlated waves replace a batch
   of the remaining peers, whitewash rejoins are drawn per departure, and
   exogenous arrivals (Poisson stream or scheduled flash batch) join,
   capped by ``max_active``.  New identities participate from this round
   on.
2. **Decision phase** — every active peer decides via the live policy
   modules (:mod:`repro.sim.policies`); candidate and discovery structures
   are rebuilt from the current active set each round.
3. **Transfer phase** — buffered allocations are applied simultaneously,
   then loyalty, aspiration and pending requests are refreshed.

Determinism and equivalence
---------------------------
The engine consumes its single :class:`random.Random` in a pinned order
(initial capacity draws unless pinned; per round, independent departure
draws in active order, the correlated-wave sample, whitewash draws in
departure order, the arrival-count draw, then one capacity draw per
admitted arrival, then the decision draws), so runs are bit-reproducible
per seed.  On fixed populations the population step collapses to
:func:`repro.sim.churn.apply_churn` (plus
:func:`~repro.sim.churn.apply_correlated_churn` for correlated waves), and
the golden-equivalence suite (``tests/sim/test_engine_equivalence.py``)
proves the results bit-identical to the frozen seed engine kept under
``tests/sim/reference.py``.

Fixed-population runs report legacy-shaped records (no cohort or presence
fields).  The records of a variable run include **every identity that ever
existed** (departed identities keep their final accounting, so transfer
totals balance across population change), each labelled with its join-time
cohort and the measured rounds it was present — the inputs
:func:`repro.sim.metrics.compute_cohort_metrics` normalises into
per-peer-round PRA measures comparable across varying population sizes.
"""

from __future__ import annotations

import random
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.sim.behavior import PeerBehavior
from repro.sim.churn import (
    apply_churn,
    apply_correlated_churn,
    apply_true_departures,
    sample_poisson,
)
from repro.sim.config import SimulationConfig
from repro.sim.dynamics import BehaviorShift, DepartureProcess, PopulationDynamics
from repro.sim.engine import SimulationResult
from repro.sim.metrics import PeerRecord
from repro.sim.peer import PeerState
from repro.sim.policies.allocation import allocate_upload
from repro.sim.policies.candidate import candidate_list
from repro.sim.policies.ranking import rank_candidates
from repro.sim.policies.stranger import stranger_decision

__all__ = ["PopulationSimulation"]


class PopulationSimulation:
    """A cycle-based simulation over a fixed or variable peer population.

    Parameters
    ----------
    config:
        Run parameters.  Without a non-trivial
        :class:`~repro.sim.dynamics.PopulationDynamics` bundle the
        population is fixed: replacement churn at ``config.churn_rate``, no
        arrivals, plus any :class:`~repro.sim.dynamics.ScenarioDynamics`.
        With one, ``config.n_peers`` is the *initial* population.
    behaviors:
        Either one behaviour per initial peer (``len == n_peers``) or a
        single behaviour broadcast to the entire initial population.
        Arrivals without an explicit behaviour/group override cycle through
        the initial per-peer pattern, so a heterogeneous mix is preserved
        as the swarm grows.
    groups:
        Optional group label per initial peer (same length rules).  PRA
        encounters label the two sub-populations so their utilities can be
        compared; homogeneous runs can omit this.
    seed:
        Seed of the run's private random generator.
    profile:
        Accumulate wall-clock per-phase round timings in ``phase_seconds``.
    """

    def __init__(
        self,
        config: SimulationConfig,
        behaviors: Sequence[PeerBehavior],
        groups: Optional[Sequence[str]] = None,
        seed: Optional[int] = None,
        profile: bool = False,
    ):
        if config.is_variable_population:
            population = config.population
        else:
            # A fixed population is the degenerate bundle: replacement
            # departures at the config's churn rate and no arrivals.
            population = PopulationDynamics(
                departure=DepartureProcess(rate=config.churn_rate, mode="replace")
            )
        self.config = config
        self._population = population
        self._rng = random.Random(seed)

        behaviors = list(behaviors)
        if len(behaviors) == 1:
            behaviors = behaviors * config.n_peers
        if len(behaviors) != config.n_peers:
            raise ValueError(
                f"expected 1 or {config.n_peers} behaviors, got {len(behaviors)}"
            )

        if groups is None:
            group_labels = ["default"] * config.n_peers
        else:
            group_labels = list(groups)
            if len(group_labels) == 1:
                group_labels = group_labels * config.n_peers
            if len(group_labels) != config.n_peers:
                raise ValueError(
                    f"expected 1 or {config.n_peers} group labels, got {len(group_labels)}"
                )

        self._initial_behaviors = behaviors
        self._initial_groups = group_labels
        self._distribution = config.distribution()

        # Scenario dynamics (waves, shifts, pinned capacities) only ever
        # ride on fixed populations: the config forbids them next to a
        # non-trivial population bundle.
        dynamics = config.dynamics
        if dynamics is not None and dynamics.is_trivial():
            dynamics = None
        self._dynamics = dynamics
        pinned = dynamics.initial_capacities if dynamics is not None else None

        # The initial population, one capacity draw per peer in id order
        # unless the dynamics pin the capacities.
        self._active: List[PeerState] = []
        for peer_id in range(config.n_peers):
            self._active.append(
                PeerState.spawn(
                    peer_id=peer_id,
                    upload_capacity=(
                        pinned[peer_id]
                        if pinned is not None
                        else self._distribution.sample(self._rng)
                    ),
                    behavior=behaviors[peer_id],
                    group=group_labels[peer_id],
                    joined_round=0,
                    cohort="initial",
                    history_rounds=config.history_rounds,
                )
            )
        #: Every identity ever created, in creation (= id) order.  Active
        #: and departed peers alike; records are emitted from this list.
        self._all_peers: List[PeerState] = list(self._active)
        self._next_id = config.n_peers

        self._measured_down: Dict[int, float] = {
            p.peer_id: 0.0 for p in self._active
        }
        self._measured_up: Dict[int, float] = {p.peer_id: 0.0 for p in self._active}
        #: Measured rounds each identity was active (variable runs only).
        self._presence: Dict[int, int] = {p.peer_id: 0 for p in self._active}

        self._churn_events = 0
        self._explicit_refusals = 0
        self._arrivals = 0
        self._departures = 0
        self._active_counts: List[int] = []

        # The degenerate bundle — no arrivals, replacement departures — is
        # the fixed-population churn model; the run then reports a
        # legacy-shaped result, bit-identical to the frozen seed engine's.
        self._legacy = (
            population.arrival.is_none() and population.departure.mode == "replace"
        )

        self._profile = profile
        #: Wall-clock seconds per round phase, populated when ``profile``.
        self.phase_seconds: Dict[str, float] = {
            "population": 0.0,
            "decision": 0.0,
            "transfer": 0.0,
        }

    # ------------------------------------------------------------------ #
    # population step
    # ------------------------------------------------------------------ #
    def _spawn(
        self,
        capacity: float,
        behavior: PeerBehavior,
        group: str,
        round_index: int,
        cohort: str,
    ) -> PeerState:
        """Create a genuinely new identity and admit it to the active set."""
        peer = PeerState.spawn(
            peer_id=self._next_id,
            upload_capacity=capacity,
            behavior=behavior,
            group=group,
            joined_round=round_index,
            cohort=cohort,
            history_rounds=self.config.history_rounds,
        )
        self._next_id += 1
        self._active.append(peer)
        self._all_peers.append(peer)
        self._measured_down[peer.peer_id] = 0.0
        self._measured_up[peer.peer_id] = 0.0
        self._presence[peer.peer_id] = 0
        self._arrivals += 1
        self._churn_events += 1
        return peer

    def _spawn_arrival(self, round_index: int) -> PeerState:
        """Admit one exogenous newcomer (Poisson stream or flash batch)."""
        arrival = self._population.arrival
        new_id = self._next_id
        n_initial = self.config.n_peers
        behavior = (
            arrival.behavior
            if arrival.behavior is not None
            else self._initial_behaviors[new_id % n_initial]
        )
        group = (
            arrival.group
            if arrival.group is not None
            else self._initial_groups[new_id % n_initial]
        )
        return self._spawn(
            capacity=self._distribution.sample(self._rng),
            behavior=behavior,
            group=group,
            round_index=round_index,
            cohort="arrival",
        )

    def _apply_shift(self, shift: BehaviorShift) -> None:
        """Switch the shift's peers to its behaviour (and group) in place.

        Shifts only exist on fixed populations, where peer ids index
        ``_all_peers``; identity, history and capacity are kept.
        """
        behavior = shift.behavior
        for pid in shift.peer_ids:
            peer = self._all_peers[pid]
            peer.behavior = behavior
            if shift.group is not None:
                peer.group = shift.group

    def _on_departures(self, departed_ids: List[int]) -> None:
        """Hook: true departures just removed ``departed_ids`` from the
        active set (and any rejoins/arrivals of the round have not spawned
        yet).  The reference engine needs no bookkeeping; the optimised
        engine invalidates its incremental membership structures here."""

    def _admissible(self, requested: int) -> int:
        """Clamp an arrival count to the ``max_active`` capacity cap."""
        cap = self._population.max_active
        if cap <= 0:
            return requested
        return max(0, min(requested, cap - len(self._active)))

    def _population_step(self, round_index: int) -> Tuple[List[int], List[int]]:
        """Run shifts/departures/rejoins/arrivals; returns ``(churned, departed)``.

        ``churned`` are identities reset in place by replacement-mode
        departures and correlated waves; ``departed`` are identities removed
        for good by true departures.  The reference round loop ignores the
        return value; the optimised engine uses it to patch its incremental
        structures.
        """
        population = self._population
        departure = population.departure
        arrival = population.arrival
        rng = self._rng
        churned_ids: List[int] = []
        departed_ids: List[int] = []

        dynamics = self._dynamics
        rate = departure.rate
        if dynamics is not None:
            # Behaviour shifts fire at the start of the round, before churn
            # and decisions, so the new protocol governs this round.
            for shift in dynamics.shifts_for_round(round_index):
                self._apply_shift(shift)
            extra = dynamics.extra_rate(round_index)
            if extra > 0.0:
                rate = min(rate + extra, 1.0 - 1e-9)

        if rate > 0.0 or departure.group_rates:
            if departure.mode == "replace":
                churned_ids = apply_churn(
                    self._active,
                    rate,
                    round_index,
                    rng,
                    self._distribution,
                )
                self._churn_events += len(churned_ids)
            else:
                departed = apply_true_departures(
                    self._active,
                    rate,
                    round_index,
                    rng,
                    min_active=departure.min_active,
                    extra_rates=departure.extra_rates(),
                )
                if departed:
                    departed_ids = [peer.peer_id for peer in departed]
                    self._departures += len(departed)
                    self._churn_events += len(departed)
                    # Fires before any whitewash rejoin spawns, so
                    # subclasses see the membership change first.
                    self._on_departures(departed_ids)
                    if arrival.kind == "whitewash":
                        # A whitewashing node re-enters immediately: same
                        # capacity, behaviour and group, but a fresh
                        # identity nobody has history with.  With targeted
                        # whitewashing only the named groups rejoin (and
                        # only they consume a rejoin draw), so honest
                        # departures leave for good.
                        for peer in departed:
                            if not arrival.whitewashes(peer.group):
                                continue
                            if rng.random() < arrival.rate:
                                self._spawn(
                                    capacity=peer.upload_capacity,
                                    behavior=peer.behavior,
                                    group=peer.group,
                                    round_index=round_index,
                                    cohort="whitewash",
                                )
        if dynamics is not None:
            fraction = dynamics.correlated_fraction(round_index)
            if fraction > 0.0:
                batch = apply_correlated_churn(
                    self._active,
                    fraction,
                    round_index,
                    rng,
                    self._distribution,
                    exclude=churned_ids,
                )
                self._churn_events += len(batch)
                churned_ids += batch

        if arrival.kind == "poisson":
            if round_index >= arrival.start:
                # The count is always drawn (even when the cap admits
                # nobody) so the random stream does not depend on the
                # current population state.
                count = self._admissible(sample_poisson(rng, arrival.rate))
                for _ in range(count):
                    self._spawn_arrival(round_index)
        elif arrival.kind == "flash":
            count = self._admissible(arrival.flash_count_for_round(round_index))
            for _ in range(count):
                self._spawn_arrival(round_index)
        return churned_ids, departed_ids

    # ------------------------------------------------------------------ #
    # round processing (reference-engine semantics over the active set)
    # ------------------------------------------------------------------ #
    def _decide_peer(
        self, peer: PeerState, round_index: int, active_ids: List[int]
    ) -> Tuple[Dict[int, float], List[int]]:
        config = self.config
        behavior = peer.behavior

        candidates = candidate_list(peer, round_index)
        ranked = rank_candidates(peer, candidates, round_index, self._rng)
        partners = ranked[: behavior.partner_count]
        partner_set = set(partners)

        pool = set(peer.pending_requests)
        if config.discovery_per_round > 0 and len(active_ids) > 1:
            others = [pid for pid in active_ids if pid != peer.peer_id]
            sample_size = min(config.discovery_per_round, len(others))
            pool.update(self._rng.sample(others, sample_size))
        pool.discard(peer.peer_id)
        pool -= partner_set
        pool -= candidates
        stranger_pool = sorted(pool)

        decision = stranger_decision(
            peer, stranger_pool, len(partners), round_index, self._rng
        )

        allocation = allocate_upload(
            peer,
            partners,
            decision.cooperate,
            round_index,
            stranger_bandwidth_cap=config.stranger_bandwidth_cap,
        )
        for refused in decision.refuse:
            allocation.setdefault(refused, 0.0)
            self._explicit_refusals += 1

        request_targets: List[int] = []
        if config.requests_per_round > 0 and len(active_ids) > 1:
            eligible = [
                pid
                for pid in active_ids
                if pid != peer.peer_id and pid not in partner_set
            ]
            if eligible:
                sample_size = min(config.requests_per_round, len(eligible))
                request_targets = self._rng.sample(eligible, sample_size)

        return allocation, request_targets

    def _run_round(self, round_index: int) -> None:
        config = self.config
        profile = self._profile
        if profile:
            tick = perf_counter()
        self._population_step(round_index)
        if profile:
            now = perf_counter()
            self.phase_seconds["population"] += now - tick
            tick = now

        active = self._active
        active_ids = [peer.peer_id for peer in active]
        self._active_counts.append(len(active))

        measuring = round_index >= config.warmup_rounds
        if measuring and not self._legacy:
            presence = self._presence
            for pid in active_ids:
                presence[pid] += 1

        peers_by_id = {peer.peer_id: peer for peer in active}
        decisions: List[Tuple[PeerState, Dict[int, float]]] = []
        incoming_requests: Dict[int, Set[int]] = {pid: set() for pid in active_ids}
        for peer in active:
            allocation, request_targets = self._decide_peer(
                peer, round_index, active_ids
            )
            decisions.append((peer, allocation))
            for target in request_targets:
                incoming_requests[target].add(peer.peer_id)
        if profile:
            now = perf_counter()
            self.phase_seconds["decision"] += now - tick
            tick = now

        measured_down = self._measured_down
        measured_up = self._measured_up
        for peer, allocation in decisions:
            for target_id, amount in allocation.items():
                target = peers_by_id[target_id]
                target.history.record(round_index, peer.peer_id, amount)
                if amount > 0.0:
                    target.total_downloaded += amount
                    peer.total_uploaded += amount
                    if measuring:
                        measured_down[target_id] += amount
                        measured_up[peer.peer_id] += amount

        for peer in active:
            peer.update_loyalty(round_index)
            received = peer.history.total_received(round_index)
            peer.update_aspiration(received, smoothing=config.aspiration_smoothing)
            peer.pending_requests = incoming_requests[peer.peer_id]
        if profile:
            self.phase_seconds["transfer"] += perf_counter() - tick

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def run(self) -> SimulationResult:
        """Execute all rounds and return the :class:`SimulationResult`."""
        for round_index in range(self.config.rounds):
            self._run_round(round_index)

        legacy = self._legacy
        records: List[PeerRecord] = []
        for peer in self._all_peers:
            pid = peer.peer_id
            if legacy:
                # Legacy-shaped records: bit-identical to the seed engine.
                record = PeerRecord(
                    peer_id=pid,
                    group=peer.group,
                    upload_capacity=peer.upload_capacity,
                    behavior_label=peer.behavior.label(),
                    downloaded=self._measured_down[pid],
                    uploaded=self._measured_up[pid],
                )
            else:
                record = PeerRecord(
                    peer_id=pid,
                    group=peer.group,
                    upload_capacity=peer.upload_capacity,
                    behavior_label=peer.behavior.label(),
                    downloaded=self._measured_down[pid],
                    uploaded=self._measured_up[pid],
                    cohort=peer.cohort,
                    joined_round=peer.joined_round,
                    departed_round=peer.departed_round,
                    rounds_present=self._presence[pid],
                )
            records.append(record)
        return SimulationResult(
            config=self.config,
            records=records,
            rounds_executed=self.config.rounds,
            churn_events=self._churn_events,
            total_explicit_refusals=self._explicit_refusals,
            active_counts=None if legacy else tuple(self._active_counts),
            total_arrivals=self._arrivals,
            total_departures=self._departures,
        )
