"""The optimised population engine (the hot path of every replica run).

:class:`FastPopulationSimulation` executes exactly the semantics of the
reference :class:`repro.sim.population.PopulationSimulation` — fixed
populations with their scenario dynamics, and true arrivals and departures
over a mutable active set — optimised as follows:

* the policy logic of :mod:`repro.sim.policies` is inlined into the round
  loop, with behaviour constants unpacked per identity (and re-unpacked
  when a scenario behaviour shift fires) and the random draws of
  ``Random.shuffle``/``Random.sample`` generated by the exact inline
  replicas in :mod:`repro.sim._round_core` — crucially the candidate set is
  still built with the reference's exact set operations, because even the
  hash-table *layout* of a set (which depends on how it was constructed)
  determines iteration order and hence how the tie-breaking shuffle
  permutes the pool;
* transfer accounting uses flat arrays indexed by peer id (ids are
  allocated densely, so arrays simply grow as identities spawn),
  allocations are applied as grouped ``(targets, amount)`` batches through
  the shared transfer core, and with a history window of three or more
  rounds transfers are fused into the decision pass (decisions only ever
  read rounds ``r-1``/``r-2`` and creating the round-``r`` bucket evicts
  at most round ``r-3``, so later peers' decisions are unaffected);
* loyalty streaks are tracked lazily as ``(last giving round, streak)``
  pairs, patched — not rebuilt — when identities churn, depart or arrive;
* the discovery/candidate structures are maintained **incrementally**: the
  active-id list and the id→position index are patched on arrival (an
  append) and rebuilt only on rounds whose population step actually
  removed identities — on fixed populations they are never rebuilt at
  all.  Per-peer "all other peers" lists are never materialised: discovery
  and request samples are drawn positionally from the active-id list,
  skipping the deciding peer's slot with the same draws CPython's
  ``Random.sample`` would have made on the materialised list;
* stranger-pool construction and candidate ranking are skipped on rounds
  where the peer's policy cannot use them (every skipped code path is one
  that makes no random draw, so the stream stays aligned).

The population step itself (behaviour shifts, replacement churn and churn
waves, departure draws, whitewash rejoins, Poisson and flash arrivals) is
inherited from the reference engine, so the two engines cannot disagree
about population semantics by construction; the decision and transfer
phases are proven bit-identical by the differential suite
(``tests/sim/test_population_differential.py`` runs both engines over the
same cases and pins, and the hypothesis differential draws random
:class:`~repro.sim.dynamics.PopulationDynamics` and
:class:`~repro.sim.dynamics.ScenarioDynamics` bundles).
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.sim._round_core import (
    SAMPLE_POOL_COPY_MAX,
    apply_transfer_groups,
    behavior_info,
    inline_sample,
    inline_shuffle,
    sample_skip as _sample_skip,
)
from repro.sim.behavior import PeerBehavior
from repro.sim.config import SimulationConfig
from repro.sim.engine import FUSED_HISTORY_MIN, SimulationResult
from repro.sim.metrics import PeerRecord
from repro.sim.population import PopulationSimulation

__all__ = ["FastPopulationSimulation"]


class FastPopulationSimulation(PopulationSimulation):
    """Optimised drop-in replacement for :class:`PopulationSimulation`.

    Same constructor, same semantics, bit-identical results; only the
    wall-clock differs.  ``profile=True`` accumulates per-phase timings in
    ``phase_seconds`` (population / decision / transfer).  The buckets are
    coarse by design: with a history window of three or more rounds the
    decision and transfer phases are fused, so the ``decision`` bucket
    includes the transfer application and the ``transfer`` bucket covers
    only the end-of-round bookkeeping (loyalty streaks, aspiration, pending
    requests).
    """

    def __init__(
        self,
        config: SimulationConfig,
        behaviors: Sequence[PeerBehavior],
        groups: Optional[Sequence[str]] = None,
        seed: Optional[int] = None,
        profile: bool = False,
    ):
        super().__init__(config, behaviors, groups=groups, seed=seed, profile=profile)
        n = config.n_peers
        # Flat transfer accounting indexed by peer id (ids are dense and
        # allocated in spawn order, so the arrays grow by appending).
        self._down: List[float] = [0.0] * n
        self._up: List[float] = [0.0] * n
        if config.warmup_rounds > 0:
            self._life_down: List[float] = [0.0] * n
            self._life_up: List[float] = [0.0] * n
        else:
            self._life_down = self._down
            self._life_up = self._up
        self._present: List[int] = [0] * n
        # Direct references to each identity's history round-map; the dict
        # object is stable for the identity's whole lifetime (replacement
        # churn clears it in place).
        self._rounds_by_pid = [p.history._rounds for p in self._active]
        # Lazy loyalty streaks: per peer, the last round each known peer
        # delivered a positive amount and the length of the current streak.
        # loyalty_of(c) at round r is streak[c] if last_give[c] == r - 1.
        self._last_give: List[Dict[int, int]] = [{} for _ in range(n)]
        self._streak: List[Dict[int, int]] = [{} for _ in range(n)]
        self._binfo = [behavior_info(p.behavior) for p in self._active]
        self._slots_div = [max(1, p.behavior.total_slots) for p in self._active]
        # Incrementally maintained discovery structures: the active-id list
        # in active order and the id -> position index.  Arrivals append;
        # only true departures force a rebuild (see _run_round).
        self._active_ids: List[int] = [p.peer_id for p in self._active]
        self._pos: Dict[int, int] = {
            pid: i for i, pid in enumerate(self._active_ids)
        }
        self._members_dirty = False
        # Ids are allocated densely and arrivals append, so until the first
        # true departure every active id equals its position (always, on a
        # fixed population) and position lookups can be skipped.
        self._ids_are_positions = True
        # Persistent per-round bucket cache indexed by peer id.  Only active
        # peers can receive transfers, so resetting the active slots at the
        # end of each round restores the all-None invariant in O(active) —
        # allocating a fresh list per round would cost O(total ids ever).
        self._round_buckets: List[Optional[Dict[int, float]]] = [None] * n

    # ------------------------------------------------------------------ #
    # population step hooks
    # ------------------------------------------------------------------ #
    def _apply_shift(self, shift):
        super()._apply_shift(shift)
        info = behavior_info(shift.behavior)
        slots = max(1, shift.behavior.total_slots)
        for pid in shift.peer_ids:
            self._binfo[pid] = info
            self._slots_div[pid] = slots

    def _on_departures(self, departed_ids):
        # Membership shrank at arbitrary positions: the active-id list and
        # position index are stale until the rebuild at the start of the
        # decision phase, and same-round spawns must not patch them.
        self._members_dirty = True
        self._ids_are_positions = False

    def _spawn(self, capacity, behavior, group, round_index, cohort):
        peer = super()._spawn(capacity, behavior, group, round_index, cohort)
        self._down.append(0.0)
        self._up.append(0.0)
        if self._life_down is not self._down:
            self._life_down.append(0.0)
            self._life_up.append(0.0)
        self._present.append(0)
        self._rounds_by_pid.append(peer.history._rounds)
        self._last_give.append({})
        self._streak.append({})
        self._binfo.append(behavior_info(peer.behavior))
        self._slots_div.append(max(1, peer.behavior.total_slots))
        self._round_buckets.append(None)
        if not self._members_dirty:
            # An arrival is an append in active order: patch in place.
            self._pos[peer.peer_id] = len(self._active_ids)
            self._active_ids.append(peer.peer_id)
        return peer

    # ------------------------------------------------------------------ #
    # round processing
    # ------------------------------------------------------------------ #
    def _run_round(self, round_index: int) -> None:
        config = self.config
        rng = self._rng
        getrandbits = rng.getrandbits
        profile = self._profile
        if profile:
            tick = perf_counter()

        churned, departed = self._population_step(round_index)

        last_give = self._last_give
        streak = self._streak
        if churned:
            # Replacement-mode churn keeps the membership but resets the
            # churned identities; mirror the forgetting in the lazy
            # loyalty structures (apply_churn handles history/pending).
            churned_set = set(churned)
            for pid in self._active_ids:
                if pid in churned_set:
                    last_give[pid].clear()
                    streak[pid].clear()
                else:
                    give_map = last_give[pid]
                    streak_map = streak[pid]
                    for gone in churned_set:
                        if gone in give_map:
                            del give_map[gone]
                            del streak_map[gone]
        if departed:
            # _on_departures already marked the membership dirty.
            for peer in self._active:
                give_map = last_give[peer.peer_id]
                if give_map:
                    streak_map = streak[peer.peer_id]
                    for gone in departed:
                        if gone in give_map:
                            del give_map[gone]
                            del streak_map[gone]
            for gone in departed:
                last_give[gone].clear()
                streak[gone].clear()
        if self._members_dirty:
            self._active_ids = [p.peer_id for p in self._active]
            self._pos = {pid: i for i, pid in enumerate(self._active_ids)}
            self._members_dirty = False

        if profile:
            now = perf_counter()
            self.phase_seconds["population"] += now - tick
            tick = now

        active = self._active
        active_ids = self._active_ids
        pos = self._pos
        ids_are_positions = self._ids_are_positions
        n = len(active)
        self._active_counts.append(n)

        measuring = round_index >= config.warmup_rounds
        if measuring and not self._legacy:
            present = self._present
            for pid in active_ids:
                present[pid] += 1

        discovery = config.discovery_per_round
        requests = config.requests_per_round
        stranger_cap = config.stranger_bandwidth_cap
        history_cap = config.history_rounds
        m1 = n - 1
        discovery_size = discovery if discovery < m1 else m1
        do_discovery = discovery > 0 and n > 1
        do_requests = requests > 0 and n > 1
        single_request = requests == 1
        # Discovery draws of one or two ids can skip the deciding peer's
        # slot positionally (same draws as the materialised "others" list,
        # whose size must stay inside the pool-copy branch).
        fast_discovery = (
            do_discovery and discovery_size <= 2 and m1 <= SAMPLE_POOL_COPY_MAX
        )
        disc_bits1 = m1.bit_length()
        disc_bits2 = (n - 2).bit_length() if n > 2 else 0
        previous_round = round_index - 1
        fused = history_cap >= FUSED_HISTORY_MIN

        rounds_by_pid = self._rounds_by_pid
        binfo = self._binfo
        slots_div = self._slots_div
        measured_down = self._down
        measured_up = self._up
        lifetime_down = self._life_down
        lifetime_up = self._life_up
        split_accounting = lifetime_down is not measured_down
        explicit_refusals = self._explicit_refusals

        round_buckets = self._round_buckets
        incoming: List[set] = [set() for _ in range(n)]
        decisions: List[Tuple[int, list]] = []
        decisions_append = decisions.append

        for idx in range(n):
            peer = active[idx]
            pid = peer.peer_id
            history_rounds = rounds_by_pid[pid]
            (
                window,
                k,
                ranking,
                alloc_policy,
                s_policy,
                h,
                s_period,
            ) = binfo[pid]

            # --- candidate list (C) --------------------------------------- #
            # Built with the reference's exact set operations — inserting
            # from ``.keys()`` views element-by-element — because
            # ``set(dict)`` presizes its hash table differently, which
            # changes set iteration order and hence how the tie-breaking
            # shuffle permutes the candidate pool.
            bucket_prev = history_rounds.get(previous_round)
            candidates: set = set()
            if window == 1:
                bucket_old = None
                if bucket_prev:
                    candidates.update(bucket_prev.keys())
            else:
                bucket_old = history_rounds.get(round_index - 2)
                if bucket_old:
                    candidates.update(bucket_old.keys())
                if bucket_prev:
                    candidates.update(bucket_prev.keys())
            if candidates:
                candidates.discard(pid)

            # --- ranking (I) and partner selection ------------------------ #
            if candidates:
                pool = list(candidates)
                if len(pool) > 1:
                    inline_shuffle(getrandbits, pool)
                    if k > 0 and ranking != "random":
                        keys: Dict[int, object] = {}
                        if ranking == "fastest" or ranking == "slowest":
                            if window == 1:
                                for c in pool:
                                    keys[c] = bucket_prev.get(c, 0.0)
                            else:
                                for c in pool:
                                    total = (
                                        bucket_old.get(c, 0.0) if bucket_old else 0.0
                                    )
                                    if bucket_prev:
                                        total += bucket_prev.get(c, 0.0)
                                    keys[c] = total / 2
                            pool.sort(
                                key=keys.__getitem__, reverse=ranking == "fastest"
                            )
                        elif ranking == "loyal":
                            give_map = last_give[pid]
                            streak_map = streak[pid]
                            if window == 1:
                                for c in pool:
                                    keys[c] = (
                                        -streak_map[c]
                                        if give_map.get(c) == previous_round
                                        else 0,
                                        -bucket_prev.get(c, 0.0),
                                    )
                            else:
                                for c in pool:
                                    total = (
                                        bucket_old.get(c, 0.0) if bucket_old else 0.0
                                    )
                                    if bucket_prev:
                                        total += bucket_prev.get(c, 0.0)
                                    keys[c] = (
                                        -streak_map[c]
                                        if give_map.get(c) == previous_round
                                        else 0,
                                        -(total / 2),
                                    )
                            pool.sort(key=keys.__getitem__)
                        else:  # proximity / adaptive: distance to a target rate
                            target_rate = (
                                peer.upload_capacity / slots_div[pid]
                                if ranking == "proximity"
                                else peer.aspiration
                            )
                            if window == 1:
                                for c in pool:
                                    keys[c] = abs(
                                        bucket_prev.get(c, 0.0) - target_rate
                                    )
                            else:
                                for c in pool:
                                    total = (
                                        bucket_old.get(c, 0.0) if bucket_old else 0.0
                                    )
                                    if bucket_prev:
                                        total += bucket_prev.get(c, 0.0)
                                    keys[c] = abs(total / 2 - target_rate)
                            pool.sort(key=keys.__getitem__)
                if len(pool) > k:
                    partners = pool[:k]
                else:
                    partners = pool
                partner_set = set(partners) if partners else ()
            else:
                partners = []
                partner_set = ()

            # --- stranger policy (B) -------------------------------------- #
            # The discovery sample is always drawn (even when the stranger
            # policy cannot use it) so the random stream stays identical to
            # the reference engine's.
            if do_discovery:
                if fast_discovery:
                    j = getrandbits(disc_bits1)
                    while j >= m1:
                        j = getrandbits(disc_bits1)
                    first = active_ids[j] if j < idx else active_ids[j + 1]
                    if discovery_size == 1:
                        sampled = [first]
                    else:
                        m2 = m1 - 1
                        j2 = getrandbits(disc_bits2)
                        while j2 >= m2:
                            j2 = getrandbits(disc_bits2)
                        if j2 == j:
                            j2 = m2
                        sampled = [
                            first,
                            active_ids[j2] if j2 < idx else active_ids[j2 + 1],
                        ]
                else:
                    sampled = _sample_skip(
                        getrandbits, active_ids, idx, m1, discovery_size
                    )
            else:
                sampled = None

            cooperate: List[int] = []
            refuse: List[int] = []
            pending = peer.pending_requests
            if s_policy == "defect":
                if pending:
                    refuse = sorted(
                        p
                        for p in pending
                        if p not in partner_set and p not in candidates
                    )
                    if refuse:
                        if len(refuse) > 1:
                            inline_shuffle(getrandbits, refuse)
                        cutoff = h if h > 0 else 1
                        if len(refuse) > cutoff:
                            del refuse[cutoff:]
            elif (s_policy == "periodic" and round_index % s_period == 0) or (
                s_policy == "when_needed" and len(partners) < k
            ):
                pool2 = set(pending)
                if sampled:
                    pool2.update(sampled)
                pool2.discard(pid)
                if partner_set:
                    pool2.difference_update(partner_set)
                pool2 -= candidates
                if pool2:
                    stranger_pool = sorted(pool2)
                    requesters = [p for p in stranger_pool if p in pending]
                    rest = [p for p in stranger_pool if p not in pending]
                    if len(requesters) > 1:
                        inline_shuffle(getrandbits, requesters)
                    if len(rest) > 1:
                        inline_shuffle(getrandbits, rest)
                    cooperate = requesters + rest
                    if len(cooperate) > h:
                        del cooperate[h:]

            # --- allocation (R) ------------------------------------------- #
            groups: List[Tuple[Sequence[int], float]] = []
            n_partners = len(partners)
            n_coop = len(cooperate)
            active_slots = n_partners + n_coop
            if active_slots:
                capacity = peer.upload_capacity
                per_slot = capacity / active_slots
                if n_coop:
                    stranger_budget = per_slot * n_coop
                    capped = stranger_cap * capacity
                    if capped < stranger_budget:
                        stranger_budget = capped
                    groups.append((cooperate, stranger_budget / n_coop))
                if n_partners:
                    if alloc_policy == "equal_split":
                        groups.append((partners, per_slot))
                    elif alloc_policy == "freeride":
                        groups.append((partners, 0.0))
                    else:  # prop_share
                        contributions = []
                        total_contribution = 0.0
                        for p in partners:
                            total = bucket_old.get(p, 0.0) if bucket_old else 0.0
                            if bucket_prev:
                                total += bucket_prev.get(p, 0.0)
                            contributions.append(total)
                            total_contribution += total
                        if total_contribution <= 0.0:
                            groups.append((partners, 0.0))
                        else:
                            budget = per_slot * n_partners
                            for p, contribution in zip(partners, contributions):
                                groups.append(
                                    ((p,), budget * contribution / total_contribution)
                                )
            if refuse:
                groups.append((refuse, 0.0))
                explicit_refusals += len(refuse)

            # --- transfers (applied now when fused, else buffered) --------- #
            if fused:
                if groups:
                    apply_transfer_groups(
                        groups, pid, round_buckets, rounds_by_pid,
                        round_index, history_cap,
                        measured_down, measured_up, lifetime_down, lifetime_up,
                        measuring, split_accounting,
                    )
            elif groups:
                decisions_append((pid, groups))

            # --- discovery / service requests for the next round ----------- #
            if do_requests:
                if partner_set:
                    n_eligible = m1 - len(partner_set)
                    if n_eligible > 0:
                        if single_request:
                            # One draw of randbelow(n_eligible) — identical
                            # to sampling from the materialised eligible
                            # list — then map it to the j-th non-partner by
                            # stepping past the few blocked positions
                            # (order statistics over the sorted blockers)
                            # instead of walking the whole active list.
                            bits = n_eligible.bit_length()
                            j = getrandbits(bits)
                            while j >= n_eligible:
                                j = getrandbits(bits)
                            if ids_are_positions:
                                blocked = sorted([*partners, idx])
                            else:
                                blocked = [pos[p] for p in partners]
                                blocked.append(idx)
                                blocked.sort()
                            for blocked_idx in blocked:
                                if blocked_idx <= j:
                                    j += 1
                            incoming[j].add(pid)
                        else:
                            eligible = [
                                q
                                for q in active_ids
                                if q != pid and q not in partner_set
                            ]
                            size = (
                                requests if requests < n_eligible else n_eligible
                            )
                            for target in inline_sample(getrandbits, eligible, size):
                                incoming[pos[target]].add(pid)
                else:
                    if single_request:
                        j = getrandbits(disc_bits1)
                        while j >= m1:
                            j = getrandbits(disc_bits1)
                        incoming[j if j < idx else j + 1].add(pid)
                    else:
                        size = requests if requests < m1 else m1
                        for target in _sample_skip(
                            getrandbits, active_ids, idx, m1, size
                        ):
                            incoming[pos[target]].add(pid)

        self._explicit_refusals = explicit_refusals
        if profile:
            now = perf_counter()
            self.phase_seconds["decision"] += now - tick
            tick = now

        # Phase 2 (only when not fused): apply the buffered transfers.
        if not fused:
            for pid, groups in decisions:
                apply_transfer_groups(
                    groups, pid, round_buckets, rounds_by_pid,
                    round_index, history_cap,
                    measured_down, measured_up, lifetime_down, lifetime_up,
                    measuring, split_accounting,
                )

        smoothing = config.aspiration_smoothing
        keep = 1.0 - smoothing
        for i in range(n):
            peer = active[i]
            pid = peer.peer_id
            bucket = round_buckets[pid]
            if bucket:
                give_map = last_give[pid]
                streak_map = streak[pid]
                received = 0.0
                for sender, amount in bucket.items():
                    received += amount
                    if amount > 0.0:
                        if give_map.get(sender) == previous_round:
                            streak_map[sender] += 1
                        else:
                            streak_map[sender] = 1
                        give_map[sender] = round_index
                peer.aspiration = keep * peer.aspiration + smoothing * (
                    received / slots_div[pid]
                )
            else:
                peer.aspiration = keep * peer.aspiration
            peer.pending_requests = incoming[i]
            round_buckets[pid] = None
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
        down = self._down
        up = self._up
        life_down = self._life_down
        life_up = self._life_up
        present = self._present
        records: List[PeerRecord] = []
        for peer in self._all_peers:
            pid = peer.peer_id
            # Flush lifetime transfer accounting back onto the peer state.
            peer.total_downloaded = life_down[pid]
            peer.total_uploaded = life_up[pid]
            if legacy:
                record = PeerRecord(
                    peer_id=pid,
                    group=peer.group,
                    upload_capacity=peer.upload_capacity,
                    behavior_label=peer.behavior.label(),
                    downloaded=down[pid],
                    uploaded=up[pid],
                )
            else:
                record = PeerRecord(
                    peer_id=pid,
                    group=peer.group,
                    upload_capacity=peer.upload_capacity,
                    behavior_label=peer.behavior.label(),
                    downloaded=down[pid],
                    uploaded=up[pid],
                    cohort=peer.cohort,
                    joined_round=peer.joined_round,
                    departed_round=peer.departed_round,
                    rounds_present=present[pid],
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
