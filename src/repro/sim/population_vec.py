"""The vectorised batch engine (numpy whole-round array operations).

:class:`VecSimulation` is the third engine of the library: it executes the
same two-phase round structure as the reference engines, but reshapes the
peer-at-a-time control flow into whole-batch numpy array operations over
flat peer-id-indexed state matrices.  Rounds/sec stays roughly flat in
population size up to the sorting terms, which is what makes 10k–100k-peer
swarms reachable — the pure-python engines collapse roughly 4× per
population doubling.

Statistical equivalence, not bit-identity
-----------------------------------------
Unlike the ``fast``/``reference`` pair — which consume the identical
Mersenne-Twister stream and are proven **bit-identical** — this engine
draws its randomness from a numpy ``Generator``.  Per-run results therefore
differ from the replica engines in their random draws while sampling from
the *same stochastic process*: every decision rule (candidate windows,
ranking keys, stranger policies, allocation arithmetic, arrival/departure
processes) is implemented with the same mathematics, and only tie-breaking
and sampling randomness differ.  The contract is enforced by the
``tests/statistical/`` suite: per-seed-batch distributional comparisons
(two-sample KS tests on download shares, per-cohort PRA and eviction-rate
tolerances) between ``vec`` and ``fast`` across the whole scenario
registry, with pinned thresholds that fail loudly on drift.

Job cache fingerprints do not include the engine, so the result cache
does not tell engines apart: a cache warmed under ``vec`` answers later
``fast`` (or ``reference``) requests for the same job with the *vec*
draws, and vice versa.  Both are draws from the same process, but they
are not the bytes the other engine would compute — keep one cache
directory per engine when per-seed replica identity matters.

Batch axis
----------
One instance can step ``B`` independent simulations of one fixed-
population config at once (:meth:`VecSimulation.batch`).  They share one
set of state arrays: simulation ``b`` owns the peer ids
``[b*n, (b+1)*n)``, and every candidate, stranger, discovery and request
target stays inside its own id range, so the simulations never interact.
Each simulation keeps the random streams of its own seed, and every
sampling site draws each simulation's slice from that simulation's
streams in the order a solo run draws it — a single run is simply a batch
of one, and every batched result is **byte-identical** to the result of
running that simulation alone, whatever it was batched with.  The batch
amortises numpy's per-call overhead, which dominates at the paper's
small swarm sizes (16-50 peers); :func:`repro.runner.jobs.execute_jobs`
forms the batches.  Variable-population configs run one simulation per
instance.

Sampling without redraws
------------------------
Discovery and request targets are drawn by exact positional sampling:
per row and column, one uniform index ``j`` over the positions still
eligible, as ``floor(u * high)`` of one ``Generator.random`` draw, mapped
to the ``j``-th eligible position (:func:`_kth_free` past the row itself
and its earlier columns, then a sorted skip past the row's partners).
Every draw site therefore makes exactly one draw call per simulation per
column, whatever the pools look like — no rejection rounds, no fallback
stream — and that fixed call pattern is what keeps each simulation's
stream in solo-run order inside a batch.

State layout
------------
All per-peer state lives in dense peer-id-indexed arrays (capacity,
aspiration, behaviour/group codes, cohort, join/departure rounds, transfer
accounting), grown geometrically as identities arrive.  Relational state is
kept as flat COO edge lists:

* **history** — the last two rounds of interactions as pair-key-sorted
  ``(packed key, amount)`` arrays — CSR-style: grouped by receiver,
  senders ascending within each group (candidate windows never look
  further back); zero-amount refusals are included, exactly as the
  reference records them; departures compact the arrays in place;
* **loyalty streaks** — ``(packed key, streak)`` pairs for peers whose
  sender delivered a positive amount in the immediately preceding round
  (the only state the Sort-Loyal key can observe) — maintained only when
  a Sort-Loyal behaviour is registered, since nothing else observes it;
* **pending requests** — ``(target, requester)`` pairs issued last round.

Each round, candidate selection, ranking, partner cutoffs, stranger pools,
allocation and transfer accounting are computed with the grouped partial-
selection kernels of :mod:`repro.sim._vec_kernels` (``np.argpartition``
top-k over per-peer segments with exact lexicographic tie-breaking — see
that module for the exactness contract) plus ``np.bincount`` group
operations over these edge lists; population change
(replacement churn, scenario waves and shifts, true departures with
``min_active`` truncation, whitewash rejoins, Poisson/flash arrivals with
the ``max_active`` cap) is applied as batched array updates.

The engine accepts **both** population models: fixed-slot configs
(including non-trivial :class:`~repro.sim.dynamics.ScenarioDynamics`) and
variable-population configs (any :class:`~repro.sim.dynamics.ArrivalProcess`
/ :class:`~repro.sim.dynamics.DepartureProcess` combination), so the whole
scenario registry can run vectorised.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.sim._vec_kernels import (
    ScratchBuffers,
    grouped_topk,
    merge_sorted_histories,
    segment_bounds,
)
from repro.sim.behavior import PeerBehavior
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimulationResult
from repro.sim.metrics import PeerRecord
from repro.sim.profiling import profiler_for

__all__ = ["VecSimulation"]

# Compact behaviour-dimension codes used by the per-edge branch masks.
_RANK_CODES = {
    "fastest": 0, "slowest": 1, "proximity": 2,
    "adaptive": 3, "loyal": 4, "random": 5,
}
_ALLOC_CODES = {"equal_split": 0, "prop_share": 1, "freeride": 2}
_SPOL_CODES = {"none": 0, "periodic": 1, "when_needed": 2, "defect": 3}

_COHORT_INITIAL = 0
_COHORT_ARRIVAL = 1
_COHORT_WHITEWASH = 2
_COHORT_LABELS = ("initial", "arrival", "whitewash")

_EMPTY_I = np.empty(0, dtype=np.int64)
_EMPTY_F = np.empty(0, dtype=np.float64)

#: Peer-pair edges are keyed as ``(a << 32) | b``.  Peer ids stay far below
#: 2**31, so the packing is collision-free, order-preserving per ``a``, and
#: independent of the current id bound — sorted key arrays stay valid as
#: the population grows.
_KEY_SHIFT = 32
_KEY_MASK = (1 << _KEY_SHIFT) - 1


def _pair_keys(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a << _KEY_SHIFT) | b


def _member(query: np.ndarray, sorted_keys: np.ndarray) -> np.ndarray:
    """Membership of ``query`` in ``sorted_keys`` (both int64 key arrays)."""
    if query.size == 0 or sorted_keys.size == 0:
        return np.zeros(query.shape, dtype=bool)
    j = np.searchsorted(sorted_keys, query)
    hit = np.zeros(query.shape, dtype=bool)
    valid = j < sorted_keys.size
    hit[valid] = sorted_keys[j[valid]] == query[valid]
    return hit


def _group_offsets(counts: np.ndarray) -> np.ndarray:
    """Exclusive prefix sums: start offset of each group in a grouped sort."""
    offsets = np.empty(counts.size, dtype=np.int64)
    offsets[0] = 0
    np.cumsum(counts[:-1], out=offsets[1:])
    return offsets


def _kth_free(j: np.ndarray, free: List[np.ndarray]) -> np.ndarray:
    """Per row, the ``j``-th value not blocked; then block it.

    ``free`` holds one array per blocked value of each row: ``free[i][r]``
    counts the unblocked values below row ``r``'s ``i``-th blocked value
    (the blocked values themselves are never needed, nor their order).  A
    blocked value lies below the ``j``-th unblocked one exactly when its
    count is ``<= j``, so the answer is ``j`` plus the number of such
    counts.  Blocking the answer lowers the count of every blocked value
    above it by one, and the answer's own count is ``j``: ``free`` is
    updated to that in place.
    """
    value = j.copy()
    for i, counts in enumerate(free):
        passed = counts <= j
        value += passed
        free[i] = counts - ~passed
    free.append(j)
    return value


#: One simulation of a batch: ``(behaviors, groups, seed)`` with the same
#: broadcast conventions as :class:`VecSimulation`'s constructor.
BatchMember = Tuple[Sequence[PeerBehavior], Optional[Sequence[str]], Optional[int]]


def _broadcast(values: Sequence, n: int, what: str) -> list:
    values = list(values)
    if len(values) == 1:
        values = values * n
    if len(values) != n:
        raise ValueError(f"expected 1 or {n} {what}, got {len(values)}")
    return values


class VecSimulation:
    """One simulation run executed as whole-round numpy batch operations.

    Parameters mirror :class:`repro.sim.population.PopulationSimulation`:
    ``behaviors`` and ``groups`` follow the one-or-n broadcast convention
    over the initial population, ``seed`` pins the run's random draws (numpy ``Generator``
    for array draws plus a ``random.Random`` for capacity sampling — runs
    are bit-reproducible per seed *within this engine*, but not against the
    replica engines; see the module docstring), and ``profile`` accumulates
    wall-clock per-phase timings in ``phase_seconds``.

    :meth:`batch` builds an instance that steps several same-config
    simulations together; :meth:`run_all` returns their results in member
    order, each byte-identical to a solo run of that member.
    """

    def __init__(
        self,
        config: SimulationConfig,
        behaviors: Sequence[PeerBehavior],
        groups: Optional[Sequence[str]] = None,
        seed: Optional[int] = None,
        profile: bool = False,
    ):
        self._setup(config, [(behaviors, groups, seed)], profile)

    @classmethod
    def batch(
        cls,
        config: SimulationConfig,
        members: Sequence[BatchMember],
    ) -> "VecSimulation":
        """An instance stepping one simulation per member in lockstep.

        Batches of more than one member need a fixed-population config
        (the variable-population id space grows per simulation).
        """
        simulation = cls.__new__(cls)
        simulation._setup(config, list(members), False)
        return simulation

    def _setup(
        self,
        config: SimulationConfig,
        members: List[BatchMember],
        profile: bool,
    ) -> None:
        if not members:
            raise ValueError("a batch needs at least one simulation")
        self.config = config
        self._variable = config.is_variable_population
        if self._variable and len(members) > 1:
            raise ValueError(
                "variable-population configs run one simulation per instance"
            )
        self._population = config.population if self._variable else None
        dynamics = config.dynamics
        if dynamics is not None and dynamics.is_trivial():
            dynamics = None
        self._dynamics = dynamics

        n = config.n_peers
        batch = len(members)
        total = batch * n
        #: Simulations stepped together; simulation ``b`` owns the ids (and,
        #: since fixed-population ids never move, the active positions)
        #: ``[b*n, (b+1)*n)``.
        self._batch = batch
        self._n = n
        self._rngs = [np.random.default_rng(seed) for _, _, seed in members]
        # Capacity draws go through BandwidthDistribution.sample, which
        # expects a stdlib Random; an independent deterministic stream.
        self._py_rngs = [random.Random(seed) for _, _, seed in members]
        self._distribution = config.distribution()

        member_behaviors = []
        member_groups = []
        for behaviors, groups, _ in members:
            member_behaviors.append(_broadcast(behaviors, n, "behaviors"))
            member_groups.append(
                ["default"] * n
                if groups is None
                else _broadcast(groups, n, "group labels")
            )

        # ---- behaviour / group registries ----------------------------- #
        # Every behaviour and group label the run can ever reference is
        # known at construction (initial population, arrival overrides,
        # scenario shifts), so the per-code lookup tables are frozen here.
        self._b_objects: List[PeerBehavior] = []
        self._b_index: Dict[PeerBehavior, int] = {}
        self._g_labels: List[str] = []
        self._g_index: Dict[str, int] = {}

        init_bcodes = np.array(
            [self._register_behavior(b) for bs in member_behaviors for b in bs],
            dtype=np.int64,
        )
        init_gcodes = np.array(
            [self._register_group(g) for gs in member_groups for g in gs],
            dtype=np.int64,
        )
        self._init_bcode_pattern = init_bcodes
        self._init_gcode_pattern = init_gcodes

        if self._population is not None:
            arrival = self._population.arrival
            if arrival.behavior is not None:
                self._register_behavior(arrival.behavior)
            if arrival.group is not None:
                self._register_group(arrival.group)

        # Behaviour shifts grouped by round, with codes precomputed; every
        # simulation of the batch shifts its own copy of the peers.
        self._shifts_by_round: Dict[int, list] = {}
        if dynamics is not None:
            offsets = np.arange(batch, dtype=np.int64)[:, None] * n
            for shift in dynamics.behavior_shifts:
                bcode = self._register_behavior(shift.behavior)
                gcode = (
                    self._register_group(shift.group)
                    if shift.group is not None
                    else None
                )
                peer_ids = np.array(shift.peer_ids, dtype=np.int64)
                self._shifts_by_round.setdefault(shift.round, []).append(
                    ((offsets + peer_ids).ravel(), bcode, gcode)
                )

        self._freeze_tables()

        # ---- dense peer-id-indexed state ------------------------------ #
        capacity0 = max(16, 2 * total)
        self._alloc_len = capacity0
        self._capacity = np.zeros(capacity0)
        self._aspiration = np.zeros(capacity0)
        self._bcode = np.zeros(capacity0, dtype=np.int64)
        self._gcode = np.zeros(capacity0, dtype=np.int64)
        self._cohort = np.zeros(capacity0, dtype=np.int64)
        self._joined = np.zeros(capacity0, dtype=np.int64)
        self._departed = np.full(capacity0, -1, dtype=np.int64)
        self._presence = np.zeros(capacity0, dtype=np.int64)
        self._m_down = np.zeros(capacity0)
        self._m_up = np.zeros(capacity0)

        self._next_id = total
        self._active_ids = np.arange(total, dtype=np.int64)

        pinned = dynamics.initial_capacities if dynamics is not None else None
        if pinned is not None:
            caps = np.tile(np.array(pinned, dtype=np.float64), batch)
        else:
            caps = self._sample_capacities(self._active_ids)
        self._capacity[:total] = caps
        self._bcode[:total] = init_bcodes
        self._gcode[:total] = init_gcodes
        self._aspiration[:total] = caps / self._b_slots[init_bcodes]

        # Persistent id->local-position scratch.  Only ever read through
        # an *active* id (relational state is purged on departure), so a
        # per-round ``pos[ids] = arange(n)`` refresh suffices — no O(id
        # bound) ``full(-1)`` rebuild, which matters under sustained
        # whitewash churn where the id space grows a few percent per round.
        self._pos = np.zeros(capacity0, dtype=np.int64)
        self._iota = np.arange(capacity0, dtype=np.int64)
        self._scratch = ScratchBuffers()

        # ---- relational state as pair-key-sorted edge lists ----------- #
        # History rounds are ``(sorted packed (receiver, sender) keys,
        # amounts)`` — the sort groups edges by receiver, which is what
        # the grouped kernels consume directly.
        self._hist_prev: Tuple[np.ndarray, np.ndarray] = (_EMPTY_I, _EMPTY_F)
        self._hist_old: Tuple[np.ndarray, np.ndarray] = (_EMPTY_I, _EMPTY_F)
        # Loyalty streaks: (sorted pair keys, streak values), keyed by
        # ``_pair_keys(receiver, sender)``.
        self._streak: Tuple[np.ndarray, np.ndarray] = (_EMPTY_I, _EMPTY_I)
        self._pending: Tuple[np.ndarray, np.ndarray] = (_EMPTY_I, _EMPTY_I)

        # Per-simulation event counters.
        self._churn_events = np.zeros(batch, dtype=np.int64)
        self._explicit_refusals = np.zeros(batch, dtype=np.int64)
        self._arrivals = 0
        self._departures = 0
        self._active_counts: List[int] = []

        # Legacy-shaped results: fixed-population runs, and the degenerate
        # variable bundle (no arrivals, replacement departures) — exactly
        # the cases where the replica engines emit legacy records.
        self._legacy_records = self._population is None or (
            self._population.arrival.is_none()
            and self._population.departure.mode == "replace"
        )

        #: Per-phase wall-clock instrumentation (no-op unless ``profile``);
        #: see :mod:`repro.sim.profiling` for the phase vocabulary.
        self.profiler = profiler_for(profile)

    @property
    def phase_seconds(self) -> Dict[str, float]:
        """Top-level phase breakdown (churn/decision/allocation/transfer/
        metrics), empty unless the run was constructed with ``profile``."""
        return self.profiler.top_level()

    # ------------------------------------------------------------------ #
    # registries
    # ------------------------------------------------------------------ #
    def _register_behavior(self, behavior: PeerBehavior) -> int:
        code = self._b_index.get(behavior)
        if code is None:
            code = len(self._b_objects)
            self._b_index[behavior] = code
            self._b_objects.append(behavior)
        return code

    def _register_group(self, label: str) -> int:
        code = self._g_index.get(label)
        if code is None:
            code = len(self._g_labels)
            self._g_index[label] = code
            self._g_labels.append(label)
        return code

    def _freeze_tables(self) -> None:
        bs = self._b_objects
        self._b_window = np.array([b.candidate_window for b in bs], dtype=np.int64)
        self._b_k = np.array([b.partner_count for b in bs], dtype=np.int64)
        self._b_rank = np.array([_RANK_CODES[b.ranking] for b in bs], dtype=np.int64)
        self._b_alloc = np.array(
            [_ALLOC_CODES[b.allocation] for b in bs], dtype=np.int64
        )
        self._b_spol = np.array(
            [_SPOL_CODES[b.stranger_policy] for b in bs], dtype=np.int64
        )
        self._b_h = np.array([b.stranger_count for b in bs], dtype=np.int64)
        self._b_period = np.array([b.stranger_period for b in bs], dtype=np.int64)
        self._b_slots = np.array(
            [max(1, b.total_slots) for b in bs], dtype=np.int64
        )
        self._b_labels = [b.label() for b in bs]
        # Loyalty streaks are observable only through the Sort-Loyal
        # ranking key; when no registered behaviour uses it, the engine
        # skips streak maintenance entirely.
        self._has_loyal = bool((self._b_rank == _RANK_CODES["loyal"]).any())

        n_groups = len(self._g_labels)
        self._g_extra = np.zeros(n_groups)
        self._g_whitewash = np.ones(n_groups, dtype=bool)
        if self._population is not None:
            extra = self._population.departure.extra_rates()
            if extra:
                for label, surcharge in extra.items():
                    code = self._g_index.get(label)
                    if code is not None:
                        self._g_extra[code] = surcharge
            targeted = self._population.arrival.whitewash_groups
            if targeted:
                self._g_whitewash[:] = False
                for label in targeted:
                    code = self._g_index.get(label)
                    if code is not None:
                        self._g_whitewash[code] = True

    # ------------------------------------------------------------------ #
    # dense-state growth
    # ------------------------------------------------------------------ #
    def _ensure(self, needed: int) -> None:
        if needed <= self._alloc_len:
            return
        new_len = self._alloc_len
        while new_len < needed:
            new_len *= 2
        pad = new_len - self._alloc_len
        self._capacity = np.concatenate([self._capacity, np.zeros(pad)])
        self._aspiration = np.concatenate([self._aspiration, np.zeros(pad)])
        self._bcode = np.concatenate(
            [self._bcode, np.zeros(pad, dtype=np.int64)]
        )
        self._gcode = np.concatenate(
            [self._gcode, np.zeros(pad, dtype=np.int64)]
        )
        self._cohort = np.concatenate(
            [self._cohort, np.zeros(pad, dtype=np.int64)]
        )
        self._joined = np.concatenate(
            [self._joined, np.zeros(pad, dtype=np.int64)]
        )
        self._departed = np.concatenate(
            [self._departed, np.full(pad, -1, dtype=np.int64)]
        )
        self._presence = np.concatenate(
            [self._presence, np.zeros(pad, dtype=np.int64)]
        )
        self._m_down = np.concatenate([self._m_down, np.zeros(pad)])
        self._m_up = np.concatenate([self._m_up, np.zeros(pad)])
        self._pos = np.concatenate([self._pos, np.zeros(pad, dtype=np.int64)])
        self._iota = np.arange(new_len, dtype=np.int64)
        self._alloc_len = new_len

    # ------------------------------------------------------------------ #
    # relational-state maintenance
    # ------------------------------------------------------------------ #
    def _forget(self, gone: np.ndarray) -> None:
        """Erase ``gone`` identities from history, streaks and pending.

        Dropping edges on *both* sides covers every forgetting rule of the
        replica engines at once: the departed/churned identity's own state
        is cleared (it is the receiver side of its history and streaks) and
        every survivor forgets it (the sender side, and either side of a
        pending pair).
        """
        gone_mask = np.zeros(self._next_id, dtype=bool)
        gone_mask[gone] = True
        for attr in ("_hist_prev", "_hist_old"):
            keys, amt = getattr(self, attr)
            if keys.size:
                keep = ~(
                    gone_mask[keys >> _KEY_SHIFT] | gone_mask[keys & _KEY_MASK]
                )
                if not keep.all():
                    # Boolean compaction: the surviving edges are copied
                    # into fresh dense arrays (still key-sorted), so
                    # departed identities never linger as dead rows.
                    setattr(self, attr, (keys[keep], amt[keep]))
        s_keys, s_val = self._streak
        if s_keys.size:
            keep = ~(
                gone_mask[s_keys >> _KEY_SHIFT] | gone_mask[s_keys & _KEY_MASK]
            )
            if not keep.all():
                self._streak = (s_keys[keep], s_val[keep])
        p_tgt, p_req = self._pending
        if p_tgt.size:
            keep = ~(gone_mask[p_tgt] | gone_mask[p_req])
            if not keep.all():
                self._pending = (p_tgt[keep], p_req[keep])

    def _streak_lookup(self, recv: np.ndarray, send: np.ndarray) -> np.ndarray:
        """Current loyalty streak per (recv, send) pair (0 when absent)."""
        out = np.zeros(recv.size)
        s_keys, s_val = self._streak
        if s_keys.size and recv.size:
            query = _pair_keys(recv, send)
            j = np.minimum(np.searchsorted(s_keys, query), s_keys.size - 1)
            hit = s_keys[j] == query
            out[hit] = s_val[j[hit]]
        return out

    # ------------------------------------------------------------------ #
    # per-simulation random draws
    # ------------------------------------------------------------------ #
    # Every draw site hands the helpers below the *owners* of the values it
    # needs — the ids (equivalently, in a fixed population, the active
    # positions) the draws are for, grouped by simulation in simulation
    # order.  Each simulation's slice then comes from its own streams, in
    # the same order and with the same sizes as in a solo run; a batch of
    # one passes straight through to the single stream.
    def _sim_counts(self, owners: np.ndarray) -> List[int]:
        """Per-simulation counts of ``owners`` (ids grouped by simulation)."""
        if self._batch == 1:
            return [owners.size]
        return np.bincount(owners // self._n, minlength=self._batch).tolist()

    def _tally(self, counter: np.ndarray, owners: np.ndarray) -> None:
        """Add one event per owner to its simulation's ``counter`` entry."""
        counter += self._sim_counts(owners)

    def _uniform(self, owners: np.ndarray) -> np.ndarray:
        """One uniform ``[0, 1)`` draw per owner."""
        parts = [
            rng.random(count)
            for rng, count in zip(self._rngs, self._sim_counts(owners))
            if count
        ]
        if len(parts) == 1:
            return parts[0]
        return np.concatenate(parts) if parts else _EMPTY_F

    def _indices(self, owners: np.ndarray, high) -> np.ndarray:
        """One uniform integer in ``[0, high)`` per owner (``high`` >= 1).

        ``floor(u * high)`` of a :meth:`_uniform` draw: ``u <= 1 - 2**-53``,
        so the rounded product stays below any ``high < 2**53``.
        """
        return (self._uniform(owners) * high).astype(np.int64)

    def _sample_capacities(self, owners: np.ndarray) -> np.ndarray:
        """One upload capacity per owner from the bandwidth distribution."""
        caps: List[float] = []
        for py_rng, count in zip(self._py_rngs, self._sim_counts(owners)):
            if count:
                caps += self._distribution.sample_population(count, py_rng)
        return np.array(caps, dtype=np.float64)

    # ------------------------------------------------------------------ #
    # population step
    # ------------------------------------------------------------------ #
    def _apply_replacement(self, churned: np.ndarray, round_index: int) -> None:
        """Replacement churn: fresh identity takes over the slot in place."""
        caps = self._sample_capacities(churned)
        self._capacity[churned] = caps
        self._aspiration[churned] = caps / self._b_slots[self._bcode[churned]]
        self._joined[churned] = round_index
        self._forget(churned)
        self._tally(self._churn_events, churned)

    def _spawn_batch(
        self,
        caps: np.ndarray,
        bcodes: np.ndarray,
        gcodes: np.ndarray,
        cohort: int,
        round_index: int,
    ) -> None:
        count = caps.size
        if count == 0:
            return
        start = self._next_id
        end = start + count
        self._ensure(end)
        idx = np.arange(start, end, dtype=np.int64)
        self._capacity[idx] = caps
        self._bcode[idx] = bcodes
        self._gcode[idx] = gcodes
        self._cohort[idx] = cohort
        self._joined[idx] = round_index
        self._aspiration[idx] = caps / self._b_slots[bcodes]
        self._next_id = end
        self._active_ids = np.concatenate([self._active_ids, idx])
        self._arrivals += count
        self._churn_events += count

    def _spawn_arrivals(self, count: int, round_index: int) -> None:
        if count <= 0:
            return
        arrival = self._population.arrival
        idx = np.arange(self._next_id, self._next_id + count, dtype=np.int64)
        cycle = idx % self.config.n_peers
        if arrival.behavior is not None:
            bcodes = np.full(count, self._b_index[arrival.behavior], dtype=np.int64)
        else:
            bcodes = self._init_bcode_pattern[cycle]
        if arrival.group is not None:
            gcodes = np.full(count, self._g_index[arrival.group], dtype=np.int64)
        else:
            gcodes = self._init_gcode_pattern[cycle]
        self._spawn_batch(
            self._sample_capacities(idx), bcodes, gcodes,
            _COHORT_ARRIVAL, round_index,
        )

    def _admissible(self, requested: int) -> int:
        cap = self._population.max_active
        if cap <= 0:
            return requested
        return max(0, min(requested, cap - self._active_ids.size))

    def _population_step_variable(self, round_index: int) -> None:
        population = self._population
        departure = population.departure
        arrival = population.arrival
        ids = self._active_ids
        n = ids.size
        rng = self._rngs[0]  # variable populations run one simulation

        if departure.rate > 0.0 or departure.group_rates:
            if departure.mode == "replace":
                mask = rng.random(n) < departure.rate
                churned = ids[mask]
                if churned.size:
                    self._apply_replacement(churned, round_index)
            else:
                if departure.group_rates:
                    probs = departure.rate + self._g_extra[self._gcode[ids]]
                    mask = rng.random(n) < probs
                else:
                    mask = rng.random(n) < departure.rate
                if mask.any():
                    allowed = n - departure.min_active
                    if allowed <= 0:
                        mask[:] = False
                    else:
                        chosen = np.nonzero(mask)[0]
                        if chosen.size > allowed:
                            # Keep the earliest draws in active order, as
                            # the reference truncation does.
                            mask[chosen[allowed:]] = False
                if mask.any():
                    departed = ids[mask]
                    self._departed[departed] = round_index
                    self._departures += departed.size
                    self._churn_events += departed.size
                    self._active_ids = ids[~mask]
                    self._forget(departed)
                    if arrival.kind == "whitewash":
                        eligible = departed[
                            self._g_whitewash[self._gcode[departed]]
                        ]
                        if eligible.size:
                            rejoin = eligible[
                                rng.random(eligible.size) < arrival.rate
                            ]
                            if rejoin.size:
                                self._spawn_batch(
                                    self._capacity[rejoin],
                                    self._bcode[rejoin],
                                    self._gcode[rejoin],
                                    _COHORT_WHITEWASH,
                                    round_index,
                                )

        if arrival.kind == "poisson":
            if round_index >= arrival.start:
                count = self._admissible(int(rng.poisson(arrival.rate)))
                self._spawn_arrivals(count, round_index)
        elif arrival.kind == "flash":
            count = self._admissible(arrival.flash_count_for_round(round_index))
            self._spawn_arrivals(count, round_index)

    def _population_step_fixed(self, round_index: int) -> None:
        dynamics = self._dynamics
        churn_rate = self.config.churn_rate
        if dynamics is not None:
            for peer_ids, bcode, gcode in self._shifts_by_round.get(
                round_index, ()
            ):
                self._bcode[peer_ids] = bcode
                if gcode is not None:
                    self._gcode[peer_ids] = gcode
            extra = dynamics.extra_rate(round_index)
            if extra > 0.0:
                churn_rate = min(churn_rate + extra, 1.0 - 1e-9)

        ids = self._active_ids
        churned = _EMPTY_I
        if churn_rate > 0.0:
            mask = self._uniform(ids) < churn_rate
            churned = ids[mask]
            if churned.size:
                self._apply_replacement(churned, round_index)
        if dynamics is not None:
            fraction = dynamics.correlated_fraction(round_index)
            if fraction > 0.0:
                n = self._n
                count = round(fraction * n)
                if count < 1:
                    count = 1
                pool = ids[~np.isin(ids, churned)] if churned.size else ids
                # Fixed-population ids are sorted, so each simulation's
                # pool is one contiguous run of ``pool``.
                cuts = np.searchsorted(pool, np.arange(1, self._batch) * n)
                picks = [
                    rng.choice(own, size=min(count, own.size), replace=False)
                    for rng, own in zip(self._rngs, np.split(pool, cuts))
                    if own.size
                ]
                if picks:
                    self._apply_replacement(np.concatenate(picks), round_index)

    # ------------------------------------------------------------------ #
    # vectorised sampling helpers
    # ------------------------------------------------------------------ #
    def _sample_others(self, rows: np.ndarray, size: int, n: int) -> np.ndarray:
        """Per row, ``size`` distinct positions of its simulation, not the row.

        ``n`` is the per-simulation active count.  Column ``c`` draws one
        index uniform over the ``n - 1 - c`` positions still free (not the
        row, not an earlier column) and takes that free position
        (:func:`_kth_free`), which is exactly sampling without replacement.
        Positions are global, so each simulation's counts are offset by its
        first position.
        """
        first = rows - rows % n
        free = [rows]  # the row itself is the one blocked position
        out = np.empty((rows.size, size), dtype=np.int64)
        for column in range(size):
            j = first + self._indices(rows, n - 1 - column)
            out[:, column] = _kth_free(j, free)
        return out

    def _draw_requests(
        self,
        ids: np.ndarray,
        n: int,
        n_partners: np.ndarray,
        partner_keys: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Next round's pending ``(target, requester)`` pairs.

        Each peer requests ``requests_per_round`` distinct targets drawn
        uniformly from the active peers of its simulation (``n`` per
        simulation) that are neither itself nor one of its current
        partners.  A draw is an index among the non-partner positions,
        mapped past the row's earlier targets and itself
        (:func:`_kth_free`), then past its partners.  Pairs come back
        grouped by requester, so by simulation.
        """
        requests = self.config.requests_per_round
        eligible = (n - 1) - n_partners
        rows = np.nonzero(eligible > 0)[0]
        if rows.size == 0:
            return _EMPTY_I, _EMPTY_I
        quota = np.minimum(requests, eligible[rows])

        # Partners in position space: ``partner_keys`` is grouped by row
        # and, since active ids ascend, sorted by position within a row,
        # so ``skip[k]`` (target minus its rank in the row) counts the
        # non-partner positions below partner ``k`` — the partners' side
        # of :func:`_kth_free`'s counts.
        size = n_partners.size
        row_of = np.repeat(self._iota[:size], n_partners)
        target = self._pos[partner_keys & _KEY_MASK]
        below = np.bincount(row_of[target < row_of], minlength=size)
        skip = target + np.repeat(_group_offsets(n_partners), n_partners)
        skip -= np.arange(partner_keys.size, dtype=np.int64)
        # The row itself, counted among its non-partner positions.
        free = [rows - below[rows]]

        first = rows - rows % n
        chosen = np.empty((rows.size, int(quota.max())), dtype=np.int64)
        live = np.arange(rows.size)
        at_row = np.empty(size, dtype=np.int64)
        for column in range(chosen.shape[1]):
            if column:
                keep = quota[live] > column
                live = live[keep]
                free = [counts[keep] for counts in free]
            row = rows[live]
            j = first[live] + self._indices(row, eligible[row] - column)
            j = _kth_free(j, free)
            # Then past the partners: one step per partner counted ``<= j``.
            at_row[row] = j
            passed = row_of[skip <= at_row[row_of]]
            j += np.bincount(passed, minlength=size)[row]
            chosen[live, column] = j
        targets = chosen[np.arange(chosen.shape[1]) < quota[:, None]]
        return ids[targets], ids[np.repeat(rows, quota)]

    def _select(
        self,
        owners: np.ndarray,
        quota: np.ndarray,
        primary: np.ndarray,
        tie: np.ndarray,
        secondary: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Indices of each owner's top-``quota`` edges (:func:`grouped_topk`).

        ``owners`` are the edges' owning ids, sorted; ``quota`` is indexed
        by active position.  The selected indices feed order-sensitive
        float sums, so each simulation's must come back in the order its
        solo run gets them.  ``grouped_topk`` orders its output differently
        on its top-1 path (taken when no segment needs more than one edge)
        than on its general path, so the simulations of a batch are split
        by the path their solo run would take; within one path, each
        simulation's relative order does not depend on the rest.
        """
        starts, widths = segment_bounds(owners)
        k = quota[self._pos[owners[starts]]]
        if self._batch > 1:
            seg_sim = owners[starts] // self._n
            sim_k = np.zeros(self._batch, dtype=np.int64)
            np.maximum.at(sim_k, seg_sim, np.minimum(k, widths))
            seg_top1 = (sim_k <= 1)[seg_sim]
            if seg_top1.any() and not seg_top1.all():
                sub = np.flatnonzero(np.repeat(seg_top1, widths))
                sub_starts, sub_widths = segment_bounds(owners[sub])
                top1 = sub[
                    grouped_topk(
                        sub_starts, sub_widths, k[seg_top1],
                        primary[sub], tie[sub],
                        None if secondary is None else secondary[sub],
                        self._scratch,
                    )
                ]
                wide = ~seg_top1
                return np.concatenate([
                    top1,
                    grouped_topk(
                        starts[wide], widths[wide], k[wide],
                        primary, tie, secondary, self._scratch,
                    ),
                ])
        return grouped_topk(
            starts, widths, k, primary, tie, secondary, self._scratch
        )

    # ------------------------------------------------------------------ #
    # round processing
    # ------------------------------------------------------------------ #
    def _run_round(self, round_index: int) -> None:
        prof = self.profiler
        prof.tick()
        if self._variable:
            self._population_step_variable(round_index)
        else:
            self._population_step_fixed(round_index)
        prof.lap("churn")

        config = self.config
        ids = self._active_ids
        n = ids.size
        n_sim = n // self._batch  # active peers per simulation
        self._active_counts.append(n_sim)
        measuring = round_index >= config.warmup_rounds
        if measuring and not self._legacy_records:
            self._presence[ids] += 1

        pos = self._pos
        pos[ids] = self._iota[:n]

        bcodes = self._bcode[ids]
        window = self._b_window[bcodes]
        k = self._b_k[bcodes]

        # ---- candidate edges (dimension C) ---------------------------- #
        # Both history rounds are kept pair-key-sorted, so the candidate
        # aggregation is a stable merge + segment reduce (timsort's best
        # case on two sorted runs) — no unique/scatter indirection, and
        # the merged keys come out grouped by receiver for the kernels.
        prev_keys, prev_amt = self._hist_prev
        old_keys, old_amt = self._hist_old
        if old_keys.size:
            in_window = self._b_window[self._bcode[old_keys >> _KEY_SHIFT]] == 2
            old_keys = old_keys[in_window]
            old_amt = old_amt[in_window]
        cand_keys, cand_val = merge_sorted_histories(
            prev_keys, prev_amt, old_keys, old_amt
        )
        cand_recv = cand_keys >> _KEY_SHIFT
        cand_send = cand_keys & _KEY_MASK
        prof.lap("decision.candidates")

        # ---- ranking (I) and partner selection ------------------------ #
        # The candidate edges arrive grouped by receiver (key-sorted), so
        # partner cutoffs are a grouped partial selection: only each
        # receiver's top-``k`` slice is ever fully sorted.
        n_edges = cand_recv.size
        if n_edges:
            edge_local = pos[cand_recv]
            rate = cand_val / window[edge_local]
            rank = self._b_rank[self._bcode[cand_recv]]
            primary = np.zeros(n_edges)
            secondary = None
            m = rank == 0  # fastest: highest rate first
            primary[m] = -rate[m]
            m = rank == 1  # slowest
            primary[m] = rate[m]
            m = rank == 2  # proximity to own per-slot rate
            if m.any():
                target = (
                    self._capacity[cand_recv[m]]
                    / self._b_slots[self._bcode[cand_recv[m]]]
                )
                primary[m] = np.abs(rate[m] - target)
            m = rank == 3  # adaptive: proximity to aspiration
            if m.any():
                primary[m] = np.abs(
                    rate[m] - self._aspiration[cand_recv[m]]
                )
            if self._has_loyal:
                m = rank == 4  # loyal: longest active streak, then fastest
                if m.any():
                    secondary = np.zeros(n_edges)
                    primary[m] = -self._streak_lookup(
                        cand_recv[m], cand_send[m]
                    )
                    secondary[m] = -rate[m]
            tie = self._uniform(cand_recv)
            m = rank == 5  # random: rank by the tie draw itself
            if m.any():
                primary[m] = tie[m]
            selected = self._select(cand_recv, k, primary, tie, secondary)
            part_recv = cand_recv[selected]
            part_dst = cand_send[selected]
            part_val = cand_val[selected]
            partner_keys = np.sort(cand_keys[selected])
        else:
            part_recv = _EMPTY_I
            part_dst = _EMPTY_I
            part_val = _EMPTY_F
            partner_keys = _EMPTY_I

        n_partners = np.bincount(pos[part_recv], minlength=n)
        prof.lap("decision.rank")

        # ---- stranger policy (B) -------------------------------------- #
        spol = self._b_spol[bcodes]
        h = self._b_h[bcodes]
        coop_now = np.zeros(n, dtype=bool)
        m = spol == 1  # periodic
        if m.any():
            coop_now[m] = (round_index % self._b_period[bcodes[m]]) == 0
        m = spol == 2  # when_needed
        if m.any():
            coop_now[m] = n_partners[m] < k[m]
        defect = spol == 3

        pend_tgt, pend_req = self._pending
        pool_peer = _EMPTY_I
        pool_cand = _EMPTY_I
        pool_isreq = _EMPTY_F
        if pend_tgt.size:
            pend_local = pos[pend_tgt]
            from_pending = coop_now[pend_local]
            if from_pending.any():
                pool_peer = pend_tgt[from_pending]
                pool_cand = pend_req[from_pending]
                pool_isreq = np.ones(pool_peer.size)
        discovery = config.discovery_per_round
        coop_rows = np.nonzero(coop_now)[0]
        if discovery > 0 and n_sim > 1 and coop_rows.size:
            sample_size = min(discovery, n_sim - 1)
            sampled = self._sample_others(coop_rows, sample_size, n_sim)
            sampled_peer = np.repeat(ids[coop_rows], sample_size)
            sampled_cand = ids[sampled.ravel()]
            pool_peer = np.concatenate([pool_peer, sampled_peer])
            pool_cand = np.concatenate([pool_cand, sampled_cand])
            pool_isreq = np.concatenate(
                [pool_isreq, np.zeros(sampled_peer.size)]
            )

        if pool_peer.size:
            # Current partners are a subset of the candidate set, so one
            # membership probe against ``cand_keys`` excludes both.
            pool_keys = _pair_keys(pool_peer, pool_cand)
            keep = ~_member(pool_keys, cand_keys)
            pool_keys = pool_keys[keep]
            pool_isreq = pool_isreq[keep]
        if pool_peer.size and pool_keys.size:
            unique_keys, inverse = np.unique(pool_keys, return_inverse=True)
            is_requester = (
                np.bincount(
                    inverse, weights=pool_isreq, minlength=unique_keys.size
                )
                > 0
            )
            stranger_peer = unique_keys >> _KEY_SHIFT
            stranger_cand = unique_keys & _KEY_MASK
            tie = self._uniform(stranger_peer)
            # Requesters sort strictly before discoveries; folding the
            # flag into the tie (tie < 1) gives one exact composite key.
            primary = np.where(is_requester, 0.0, 1.0) + tie
            selected = self._select(stranger_peer, h, primary, tie)
            coop_peer = stranger_peer[selected]
            coop_dst = stranger_cand[selected]
        else:
            coop_peer = _EMPTY_I
            coop_dst = _EMPTY_I
        n_coop = np.bincount(pos[coop_peer], minlength=n)

        # Defect: explicitly refuse up to max(1, h) surviving requesters.
        refuse_peer = _EMPTY_I
        refuse_dst = _EMPTY_I
        if pend_tgt.size and defect.any():
            from_pending = defect[pos[pend_tgt]]
            if from_pending.any():
                rf_peer = pend_tgt[from_pending]
                rf_cand = pend_req[from_pending]
                rf_keys = _pair_keys(rf_peer, rf_cand)
                keep = ~_member(rf_keys, cand_keys)
                rf_peer = rf_peer[keep]
                rf_cand = rf_cand[keep]
                if rf_peer.size:
                    rf_local = pos[rf_peer]
                    tie = self._uniform(rf_peer)
                    order = np.lexsort((tie, rf_local))
                    sorted_local = rf_local[order]
                    counts = np.bincount(rf_local, minlength=n)
                    within = (
                        np.arange(rf_peer.size, dtype=np.int64)
                        - _group_offsets(counts)[sorted_local]
                    )
                    cutoff = np.maximum(h, 1)
                    selected = order[within < cutoff[sorted_local]]
                    refuse_peer = rf_peer[selected]
                    refuse_dst = rf_cand[selected]
                    self._tally(self._explicit_refusals, refuse_peer)
        prof.lap("decision.strangers")

        # ---- allocation (R) ------------------------------------------- #
        active_slots = n_partners + n_coop
        cap_active = self._capacity[ids]
        per_slot = np.zeros(n)
        has_slots = active_slots > 0
        per_slot[has_slots] = cap_active[has_slots] / active_slots[has_slots]
        stranger_budget = np.minimum(
            per_slot * n_coop, config.stranger_bandwidth_cap * cap_active
        )
        coop_share = np.zeros(n)
        has_coop = n_coop > 0
        coop_share[has_coop] = stranger_budget[has_coop] / n_coop[has_coop]
        coop_amt = coop_share[pos[coop_peer]]

        part_amt = np.zeros(part_recv.size)
        if part_recv.size:
            part_local = pos[part_recv]
            alloc = self._b_alloc[self._bcode[part_recv]]
            m = alloc == 0  # equal_split
            part_amt[m] = per_slot[part_local[m]]
            m = alloc == 1  # prop_share
            if m.any():
                contrib_total = np.bincount(
                    part_local[m], weights=part_val[m], minlength=n
                )
                edge_total = contrib_total[part_local[m]]
                budget = per_slot[part_local[m]] * n_partners[part_local[m]]
                share = np.zeros(edge_total.size)
                positive = edge_total > 0
                share[positive] = (
                    budget[positive]
                    * part_val[m][positive]
                    / edge_total[positive]
                )
                part_amt[m] = share
            # alloc == 2 (freeride): zero-amount interactions.
        prof.lap("allocation")

        # ---- transfer phase ------------------------------------------- #
        t_src = np.concatenate([coop_peer, part_recv, refuse_peer])
        t_dst = np.concatenate([coop_dst, part_dst, refuse_dst])
        t_amt = np.concatenate(
            [coop_amt, part_amt, np.zeros(refuse_peer.size)]
        )

        # Store the round key-sorted so next round's candidate merge and
        # the grouped kernels consume it directly.
        hist_keys = _pair_keys(t_dst, t_src)
        horder = np.argsort(hist_keys)
        self._hist_old = self._hist_prev
        self._hist_prev = (hist_keys[horder], t_amt[horder])
        prof.lap("transfer.history")

        gave = t_amt > 0.0
        any_gave = bool(gave.any())
        if measuring and any_gave:
            # Accumulate in active-position space and scatter once —
            # per-round cost tracks the live population, not the
            # monotonically growing id bound.
            self._m_down[ids] += np.bincount(
                pos[t_dst[gave]], weights=t_amt[gave], minlength=n
            )
            self._m_up[ids] += np.bincount(
                pos[t_src[gave]], weights=t_amt[gave], minlength=n
            )
        received = np.bincount(pos[t_dst], weights=t_amt, minlength=n)
        smoothing = config.aspiration_smoothing
        self._aspiration[ids] = (1.0 - smoothing) * self._aspiration[
            ids
        ] + smoothing * (received / self._b_slots[bcodes])
        prof.lap("transfer.accounting")

        if self._has_loyal:
            if any_gave:
                giver_dst = t_dst[gave]
                giver_src = t_src[gave]
                streak = (
                    self._streak_lookup(giver_dst, giver_src) + 1
                ).astype(np.int64)
                streak_keys = hist_keys[gave]
                order = np.argsort(streak_keys)
                self._streak = (streak_keys[order], streak[order])
            else:
                self._streak = (_EMPTY_I, _EMPTY_I)
        prof.lap("transfer.streaks")

        if config.requests_per_round > 0 and n_sim > 1:
            self._pending = self._draw_requests(
                ids, n_sim, n_partners, partner_keys
            )
        else:
            self._pending = (_EMPTY_I, _EMPTY_I)
        prof.lap("transfer.requests")

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def run(self) -> SimulationResult:
        """Execute all rounds and return the :class:`SimulationResult`."""
        if self._batch != 1:
            raise ValueError(
                f"this instance steps {self._batch} simulations; use run_all()"
            )
        return self.run_all()[0]

    def run_all(self) -> List[SimulationResult]:
        """Execute all rounds; one result per simulation, in member order."""
        for round_index in range(self.config.rounds):
            self._run_round(round_index)

        self.profiler.tick()
        try:
            return [self._build_result(sim) for sim in range(self._batch)]
        finally:
            self.profiler.lap("metrics")

    def _build_result(self, sim: int) -> SimulationResult:
        legacy = self._legacy_records
        count = self._next_id // self._batch
        lo, hi = sim * count, (sim + 1) * count
        # Bulk ``.tolist()`` conversions: element-at-a-time numpy scalar
        # boxing dominated result building at 100k+ identities.
        g_labels = self._g_labels
        b_labels = self._b_labels
        groups = self._gcode[lo:hi].tolist()
        labels = self._bcode[lo:hi].tolist()
        caps = self._capacity[lo:hi].tolist()
        downs = self._m_down[lo:hi].tolist()
        ups = self._m_up[lo:hi].tolist()
        # Positional construction — the frozen dataclass pays an
        # ``object.__setattr__`` per field either way, but skipping the
        # keyword machinery is ~30% cheaper at 100k+ records.  Argument
        # order mirrors the PeerRecord field order.
        if legacy:
            records: List[PeerRecord] = [
                PeerRecord(pid, g_labels[gc], cap, b_labels[bc], down, up)
                for pid, (gc, cap, bc, down, up) in enumerate(
                    zip(groups, caps, labels, downs, ups)
                )
            ]
        else:
            cohorts = self._cohort[lo:hi].tolist()
            joins = self._joined[lo:hi].tolist()
            departs = self._departed[lo:hi].tolist()
            presence = self._presence[lo:hi].tolist()
            records = [
                PeerRecord(
                    pid, g_labels[gc], cap, b_labels[bc], down, up,
                    _COHORT_LABELS[cohort], joined,
                    departed if departed >= 0 else None, present,
                )
                for pid, (
                    gc, cap, bc, down, up, cohort, joined, departed, present,
                ) in enumerate(
                    zip(
                        groups, caps, labels, downs, ups,
                        cohorts, joins, departs, presence,
                    )
                )
            ]
        return SimulationResult(
            config=self.config,
            records=records,
            rounds_executed=self.config.rounds,
            churn_events=int(self._churn_events[sim]),
            total_explicit_refusals=int(self._explicit_refusals[sim]),
            active_counts=None if legacy else tuple(self._active_counts),
            total_arrivals=self._arrivals,
            total_departures=self._departures,
        )
