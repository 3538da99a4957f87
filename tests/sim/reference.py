"""Golden reference implementation of the cycle-based simulation engine.

This module is a **frozen, self-contained snapshot** of the seed engine
(the seed's fixed-population round loop plus the seed versions of the
history container and the four policy functions) taken immediately before
the hot-path optimisation pass.  It is a test oracle, not a runtime engine:
the golden-equivalence test suite (``tests/sim/test_engine_equivalence.py``)
runs :class:`ReferenceSimulation` and the population engines
(:mod:`repro.sim.population_fast`, :mod:`repro.sim.population`) on
fixed-population configs with identical seeds and asserts bit-identical
:class:`~repro.sim.engine.SimulationResult` outputs.

Because of that role this module deliberately does **not** import the live
policy modules or :class:`~repro.sim.history.InteractionHistory` — any future
change to those must be proven equivalent against this snapshot, not silently
inherited by it.  Do not "clean up" or optimise this file; it is the spec.

The only shared dependencies are pure data/value types whose behaviour is
pinned by their own unit tests: :class:`~repro.sim.config.SimulationConfig`,
:class:`~repro.sim.behavior.PeerBehavior`, the bandwidth distributions, the
metric containers and :func:`repro.sim.churn.apply_churn`.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.sim.behavior import PeerBehavior
from repro.sim.churn import apply_churn
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimulationResult
from repro.sim.metrics import PeerRecord

__all__ = ["ReferenceSimulation"]


class _ReferenceHistory:
    """Seed snapshot of :class:`repro.sim.history.InteractionHistory`."""

    def __init__(self, max_rounds: int = 3):
        if max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        self.max_rounds = int(max_rounds)
        self._rounds: "OrderedDict[int, Dict[int, float]]" = OrderedDict()

    def record(self, round_index: int, sender: int, amount: float) -> None:
        if amount < 0:
            raise ValueError(f"amount must be >= 0, got {amount}")
        bucket = self._rounds.get(round_index)
        if bucket is None:
            bucket = {}
            self._rounds[round_index] = bucket
            self._trim()
        bucket[sender] = bucket.get(sender, 0.0) + float(amount)

    def _trim(self) -> None:
        while len(self._rounds) > self.max_rounds:
            self._rounds.popitem(last=False)

    def forget_peer(self, peer_id: int) -> None:
        for bucket in self._rounds.values():
            bucket.pop(peer_id, None)

    def clear(self) -> None:
        self._rounds.clear()

    def senders_in_window(self, current_round: int, window: int) -> Set[int]:
        if window < 1:
            raise ValueError("window must be >= 1")
        senders: Set[int] = set()
        for round_index in range(current_round - window, current_round):
            bucket = self._rounds.get(round_index)
            if bucket:
                senders.update(bucket.keys())
        return senders

    def amount_from(self, sender: int, round_index: int) -> float:
        bucket = self._rounds.get(round_index)
        if not bucket:
            return 0.0
        return bucket.get(sender, 0.0)

    def received_in_window(self, sender: int, current_round: int, window: int) -> float:
        total = 0.0
        for round_index in range(current_round - window, current_round):
            total += self.amount_from(sender, round_index)
        return total

    def observed_rate(self, sender: int, current_round: int, window: int) -> float:
        if window < 1:
            raise ValueError("window must be >= 1")
        return self.received_in_window(sender, current_round, window) / window

    def total_received(self, round_index: int) -> float:
        bucket = self._rounds.get(round_index)
        if not bucket:
            return 0.0
        return sum(bucket.values())

    def interactions_in_round(self, round_index: int) -> Dict[int, float]:
        return dict(self._rounds.get(round_index, {}))


class _ReferencePeer:
    """Seed snapshot of :class:`repro.sim.peer.PeerState` (engine-facing subset)."""

    __slots__ = (
        "peer_id",
        "upload_capacity",
        "behavior",
        "group",
        "history",
        "loyalty",
        "aspiration",
        "pending_requests",
        "total_downloaded",
        "total_uploaded",
        "joined_round",
    )

    def __init__(
        self,
        peer_id: int,
        upload_capacity: float,
        behavior: PeerBehavior,
        group: str,
        history: _ReferenceHistory,
    ):
        if upload_capacity <= 0:
            raise ValueError("upload_capacity must be positive")
        self.peer_id = peer_id
        self.upload_capacity = upload_capacity
        self.behavior = behavior
        self.group = group
        self.history = history
        self.loyalty: Dict[int, int] = {}
        self.aspiration = upload_capacity / max(1, behavior.total_slots)
        self.pending_requests: Set[int] = set()
        self.total_downloaded = 0.0
        self.total_uploaded = 0.0
        self.joined_round = 0

    def update_loyalty(self, round_index: int) -> None:
        interactions = self.history.interactions_in_round(round_index)
        givers = {peer for peer, amount in interactions.items() if amount > 0}
        for peer in givers:
            self.loyalty[peer] = self.loyalty.get(peer, 0) + 1
        for peer in list(self.loyalty.keys()):
            if peer not in givers:
                self.loyalty[peer] = 0

    def loyalty_of(self, peer_id: int) -> int:
        return self.loyalty.get(peer_id, 0)

    def update_aspiration(self, received_this_round: float, smoothing: float = 0.25) -> None:
        if not 0.0 < smoothing <= 1.0:
            raise ValueError("smoothing must be in (0, 1]")
        per_slot = received_this_round / max(1, self.behavior.total_slots)
        self.aspiration = (1.0 - smoothing) * self.aspiration + smoothing * per_slot

    def reset_for_rejoin(self, round_index: int) -> None:
        self.history.clear()
        self.loyalty.clear()
        self.pending_requests.clear()
        self.aspiration = self.upload_capacity / max(1, self.behavior.total_slots)
        self.joined_round = round_index


# ---------------------------------------------------------------------- #
# seed policy functions (verbatim semantics)
# ---------------------------------------------------------------------- #
def _candidate_list(peer: _ReferencePeer, current_round: int) -> Set[int]:
    window = peer.behavior.candidate_window
    candidates = peer.history.senders_in_window(current_round, window)
    candidates.discard(peer.peer_id)
    return candidates


def _observed_rates(peer: _ReferencePeer, candidates, current_round: int) -> dict:
    window = peer.behavior.candidate_window
    return {
        candidate: peer.history.observed_rate(candidate, current_round, window)
        for candidate in candidates
    }


def _rank_candidates(
    peer: _ReferencePeer, candidates, current_round: int, rng: random.Random
) -> List[int]:
    pool = list(candidates)
    if not pool:
        return []
    rng.shuffle(pool)

    ranking = peer.behavior.ranking
    if ranking == "random":
        return pool

    rates = _observed_rates(peer, pool, current_round)

    if ranking == "fastest":
        pool.sort(key=lambda c: rates[c], reverse=True)
    elif ranking == "slowest":
        pool.sort(key=lambda c: rates[c])
    elif ranking == "proximity":
        own_rate = peer.upload_capacity / max(1, peer.behavior.total_slots)
        pool.sort(key=lambda c: abs(rates[c] - own_rate))
    elif ranking == "adaptive":
        aspiration = peer.aspiration
        pool.sort(key=lambda c: abs(rates[c] - aspiration))
    elif ranking == "loyal":
        pool.sort(key=lambda c: (-peer.loyalty_of(c), -rates[c]))
    else:  # pragma: no cover - guarded by PeerBehavior validation
        raise ValueError(f"unknown ranking function {ranking!r}")
    return pool


def _pick(pool, preferred, count: int, rng: random.Random) -> List[int]:
    if count <= 0 or not pool:
        return []
    preferred_set = set(preferred)
    first = [p for p in pool if p in preferred_set]
    rest = [p for p in pool if p not in preferred_set]
    rng.shuffle(first)
    rng.shuffle(rest)
    ordered = first + rest
    return ordered[:count]


def _stranger_decision(
    peer: _ReferencePeer,
    stranger_pool,
    selected_partner_count: int,
    current_round: int,
    rng: random.Random,
) -> Tuple[List[int], List[int]]:
    """Returns ``(cooperate, refuse)``."""
    behavior = peer.behavior
    policy = behavior.stranger_policy
    h = behavior.stranger_count
    requesters = [p for p in stranger_pool if p in peer.pending_requests]

    if policy == "none":
        return [], []

    if policy == "defect":
        refusals = _pick(requesters, requesters, max(1, h), rng)
        return [], refusals

    if policy == "periodic":
        if current_round % behavior.stranger_period != 0:
            return [], []
        return _pick(stranger_pool, requesters, h, rng), []

    if policy == "when_needed":
        if selected_partner_count >= behavior.partner_count:
            return [], []
        return _pick(stranger_pool, requesters, h, rng), []

    raise ValueError(f"unknown stranger policy {policy!r}")  # pragma: no cover


def _allocate_upload(
    peer: _ReferencePeer,
    partners,
    strangers,
    current_round: int,
    stranger_bandwidth_cap: float = 0.5,
) -> Dict[int, float]:
    if not 0.0 <= stranger_bandwidth_cap <= 1.0:
        raise ValueError("stranger_bandwidth_cap must be in [0, 1]")

    behavior = peer.behavior
    allocation: Dict[int, float] = {}
    active_slots = len(partners) + len(strangers)
    if active_slots == 0:
        return allocation
    per_slot = peer.upload_capacity / active_slots

    if strangers:
        stranger_budget = min(
            per_slot * len(strangers),
            stranger_bandwidth_cap * peer.upload_capacity,
        )
        per_stranger = stranger_budget / len(strangers)
        for stranger in strangers:
            allocation[stranger] = per_stranger

    if not partners:
        return allocation

    policy = behavior.allocation
    if policy == "freeride":
        for partner in partners:
            allocation[partner] = 0.0
        return allocation

    if policy == "equal_split":
        for partner in partners:
            allocation[partner] = per_slot
        return allocation

    if policy == "prop_share":
        window = behavior.candidate_window
        contributions = {
            partner: peer.history.received_in_window(partner, current_round, window)
            for partner in partners
        }
        total_contribution = sum(contributions.values())
        budget = per_slot * len(partners)
        if total_contribution <= 0.0:
            for partner in partners:
                allocation[partner] = 0.0
            return allocation
        for partner in partners:
            allocation[partner] = budget * contributions[partner] / total_contribution
        return allocation

    raise ValueError(f"unknown allocation policy {policy!r}")  # pragma: no cover


class ReferenceSimulation:
    """The seed engine, verbatim: slow, simple and trusted.

    Constructor signature and :meth:`run` mirror the population engines'
    (less ``profile``); given the same fixed-population
    ``(config, behaviors, groups, seed)`` they must produce bit-identical
    :class:`~repro.sim.engine.SimulationResult` values.
    """

    def __init__(
        self,
        config: SimulationConfig,
        behaviors: Sequence[PeerBehavior],
        groups: Optional[Sequence[str]] = None,
        seed: Optional[int] = None,
    ):
        self.config = config
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

        distribution = config.distribution()
        self.peers: List[_ReferencePeer] = []
        for peer_id in range(config.n_peers):
            capacity = distribution.sample(self._rng)
            self.peers.append(
                _ReferencePeer(
                    peer_id=peer_id,
                    upload_capacity=capacity,
                    behavior=behaviors[peer_id],
                    group=group_labels[peer_id],
                    history=_ReferenceHistory(max_rounds=config.history_rounds),
                )
            )
        self._peer_ids = [p.peer_id for p in self.peers]
        self._churn_events = 0
        self._explicit_refusals = 0
        self._measured_down: Dict[int, float] = {pid: 0.0 for pid in self._peer_ids}
        self._measured_up: Dict[int, float] = {pid: 0.0 for pid in self._peer_ids}

    # ------------------------------------------------------------------ #
    # round processing
    # ------------------------------------------------------------------ #
    def _decide_peer(
        self, peer: _ReferencePeer, round_index: int
    ) -> Tuple[Dict[int, float], List[int]]:
        config = self.config
        behavior = peer.behavior

        candidates = _candidate_list(peer, round_index)
        ranked = _rank_candidates(peer, candidates, round_index, self._rng)
        partners = ranked[: behavior.partner_count]
        partner_set = set(partners)

        pool = set(peer.pending_requests)
        if config.discovery_per_round > 0 and len(self._peer_ids) > 1:
            others = [pid for pid in self._peer_ids if pid != peer.peer_id]
            sample_size = min(config.discovery_per_round, len(others))
            pool.update(self._rng.sample(others, sample_size))
        pool.discard(peer.peer_id)
        pool -= partner_set
        pool -= candidates
        stranger_pool = sorted(pool)

        cooperate, refuse = _stranger_decision(
            peer, stranger_pool, len(partners), round_index, self._rng
        )

        allocation = _allocate_upload(
            peer,
            partners,
            cooperate,
            round_index,
            stranger_bandwidth_cap=config.stranger_bandwidth_cap,
        )
        for refused in refuse:
            allocation.setdefault(refused, 0.0)
            self._explicit_refusals += 1

        request_targets: List[int] = []
        if config.requests_per_round > 0 and len(self._peer_ids) > 1:
            eligible = [
                pid
                for pid in self._peer_ids
                if pid != peer.peer_id and pid not in partner_set
            ]
            if eligible:
                sample_size = min(config.requests_per_round, len(eligible))
                request_targets = self._rng.sample(eligible, sample_size)

        return allocation, request_targets

    def _run_round(self, round_index: int) -> None:
        config = self.config
        peers_by_id = {p.peer_id: p for p in self.peers}

        if config.churn_rate > 0.0:
            churned = apply_churn(
                self.peers,
                config.churn_rate,
                round_index,
                self._rng,
                config.distribution(),
            )
            self._churn_events += len(churned)

        decisions: List[Tuple[_ReferencePeer, Dict[int, float]]] = []
        incoming_requests: Dict[int, set] = {pid: set() for pid in self._peer_ids}
        for peer in self.peers:
            allocation, request_targets = self._decide_peer(peer, round_index)
            decisions.append((peer, allocation))
            for target in request_targets:
                incoming_requests[target].add(peer.peer_id)

        measuring = round_index >= config.warmup_rounds
        for peer, allocation in decisions:
            for target_id, amount in allocation.items():
                target = peers_by_id[target_id]
                target.history.record(round_index, peer.peer_id, amount)
                if amount > 0.0:
                    target.total_downloaded += amount
                    peer.total_uploaded += amount
                    if measuring:
                        self._measured_down[target_id] += amount
                        self._measured_up[peer.peer_id] += amount

        for peer in self.peers:
            peer.update_loyalty(round_index)
            received = peer.history.total_received(round_index)
            peer.update_aspiration(received, smoothing=config.aspiration_smoothing)
            peer.pending_requests = incoming_requests[peer.peer_id]

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def run(self) -> SimulationResult:
        """Execute all rounds and return the :class:`SimulationResult`."""
        for round_index in range(self.config.rounds):
            self._run_round(round_index)

        records = [
            PeerRecord(
                peer_id=peer.peer_id,
                group=peer.group,
                upload_capacity=peer.upload_capacity,
                behavior_label=peer.behavior.label(),
                downloaded=self._measured_down[peer.peer_id],
                uploaded=self._measured_up[peer.peer_id],
            )
            for peer in self.peers
        ]
        return SimulationResult(
            config=self.config,
            records=records,
            rounds_executed=self.config.rounds,
            churn_events=self._churn_events,
            total_explicit_refusals=self._explicit_refusals,
        )
