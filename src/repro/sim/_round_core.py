"""Round-core kernels of the optimised population engine.

:class:`repro.sim.population_fast.FastPopulationSimulation` executes the
per-peer decision/transfer round with the micro-optimisations below; this
module holds its draw-exact primitives and transfer core, kept apart from
the round loop so each can be checked against the stdlib on its own:

* :func:`inline_shuffle` / :func:`inline_sample` — local replicas of
  CPython's ``Random.shuffle`` / ``Random.sample`` driven by a bound
  ``getrandbits``.  They make **exactly** the same draws as the stdlib
  (same ``getrandbits`` calls, same rejection loops), which is what keeps
  the optimised engine bit-identical to the reference implementations
  while skipping the stdlib's per-call overhead;
* :func:`sample_skip` — :func:`inline_sample` over an id list minus one
  position, mapping drawn indices past the skipped slot instead of
  materialising the deciding peer's "all other peers" list;
* :func:`round_bucket` — fetch-or-create of a peer's history bucket for the
  current round, trimming exactly as ``InteractionHistory.record`` would;
* :func:`apply_transfer_groups` — the per-peer transfer core: applies one
  decision's ``(targets, amount)`` groups into the targets' history buckets
  and the flat transfer-accounting arrays, with optional split
  lifetime/measured accounting;
* :func:`behavior_info` — the per-peer behaviour constants unpacked into a
  tuple the round loop destructures instead of touching attribute lookups.

Everything here is deliberately allocation-light and branch-predictable;
any change must keep the golden-equivalence and differential suites green
(they compare full serialised result payloads, so a single diverging draw
or float operation fails them).
"""

from __future__ import annotations

from math import ceil as _ceil, log as _log
from typing import Dict, List, Sequence, Tuple

from repro.sim.behavior import PeerBehavior

__all__ = [
    "SAMPLE_POOL_COPY_MAX",
    "sample_setsize",
    "inline_shuffle",
    "inline_sample",
    "sample_skip",
    "round_bucket",
    "apply_transfer_groups",
    "behavior_info",
]

#: Largest population size for which CPython's ``Random.sample`` uses its
#: pool-copy algorithm for small draws (``k <= 5``): the stdlib computes
#: ``setsize = 21`` (growing only for ``k > 5``) and copies the population
#: whenever ``n <= setsize``.  Below this bound a one- or two-element sample
#: can be replicated with one or two ``randbelow`` draws and **no pool
#: copy** — the "fast discovery" shortcut the optimised engine takes.
#: Above it (or for larger ``k``) the draw pattern changes, so the shortcut
#: must not be used; :func:`inline_sample` handles the general case.
SAMPLE_POOL_COPY_MAX = 21


def sample_setsize(k: int) -> int:
    """CPython's ``Random.sample`` pool-copy threshold for a draw of ``k``.

    ``sample`` copies the population whenever ``n <= setsize`` and uses the
    selection-set algorithm otherwise; every replica of its draws must
    branch on exactly this value.
    """
    setsize = SAMPLE_POOL_COPY_MAX
    if k > 5:
        setsize += 4 ** _ceil(_log(k * 3, 4))
    return setsize


def inline_shuffle(getrandbits, x: list) -> None:
    """``random.Random.shuffle`` via its bound ``getrandbits``."""
    for i in range(len(x) - 1, 0, -1):
        m = i + 1
        bits = m.bit_length()
        j = getrandbits(bits)
        while j >= m:
            j = getrandbits(bits)
        x[i], x[j] = x[j], x[i]


def inline_sample(getrandbits, population: Sequence[int], k: int) -> List[int]:
    """``random.Random.sample`` via its bound ``getrandbits`` (k >= 1)."""
    n = len(population)
    if n <= sample_setsize(k):
        # Pool-copy algorithm; the k == 1 / k == 2 fast paths avoid copying
        # the population while making the identical draws.
        bits = n.bit_length()
        j = getrandbits(bits)
        while j >= n:
            j = getrandbits(bits)
        if k == 1:
            return [population[j]]
        if k == 2:
            m = n - 1
            bits = m.bit_length()
            j2 = getrandbits(bits)
            while j2 >= m:
                j2 = getrandbits(bits)
            return [
                population[j],
                population[j2] if j2 != j else population[m],
            ]
        pool = list(population)
        result = [pool[j]]
        pool[j] = pool[n - 1]
        for i in range(1, k):
            m = n - i
            bits = m.bit_length()
            j = getrandbits(bits)
            while j >= m:
                j = getrandbits(bits)
            result.append(pool[j])
            pool[j] = pool[m - 1]
        return result
    # Selection-set algorithm (large population, small k).
    bits = n.bit_length()
    result = []
    selected = set()
    add = selected.add
    for _ in range(k):
        j = getrandbits(bits)
        while j >= n:
            j = getrandbits(bits)
        while j in selected:
            j = getrandbits(bits)
            while j >= n:
                j = getrandbits(bits)
        add(j)
        result.append(population[j])
    return result


def sample_skip(
    getrandbits, ids: List[int], idx: int, n_others: int, k: int
) -> List[int]:
    """``inline_sample`` over ``ids`` minus position ``idx``.

    Replicates the draws of sampling ``k`` ids from the deciding peer's
    "others" list (the id list with its own slot removed) without
    materialising that list: the selection-set branch maps drawn indices
    positionally past the skipped slot, and only the small pool-copy branch
    (population below CPython's set-size threshold) builds the list.
    """
    if n_others <= sample_setsize(k):
        others = ids[:idx] + ids[idx + 1 :]
        return inline_sample(getrandbits, others, k)
    # Selection-set algorithm (large population, small k) with positional
    # index mapping instead of a materialised population.
    bits = n_others.bit_length()
    result = []
    selected = set()
    add = selected.add
    for _ in range(k):
        j = getrandbits(bits)
        while j >= n_others:
            j = getrandbits(bits)
        while j in selected:
            j = getrandbits(bits)
            while j >= n_others:
                j = getrandbits(bits)
        add(j)
        result.append(ids[j] if j < idx else ids[j + 1])
    return result


def round_bucket(
    round_buckets,
    rounds_by_pid: list,
    target: int,
    round_index: int,
    history_cap: int,
) -> Dict[int, float]:
    """Fetch-or-create ``target``'s history bucket for ``round_index``.

    Creates and trims exactly as ``InteractionHistory.record`` would, and
    caches the bucket in ``round_buckets`` (a list preset with ``None``
    indexed by peer id) so subsequent senders skip this path.  Called at
    most once per (target, round).
    """
    target_rounds = rounds_by_pid[target]
    bucket = target_rounds.get(round_index)
    if bucket is None:
        bucket = {}
        target_rounds[round_index] = bucket
        while len(target_rounds) > history_cap:
            target_rounds.popitem(last=False)
    round_buckets[target] = bucket
    return bucket


def apply_transfer_groups(
    groups: List[Tuple[Sequence[int], float]],
    pid: int,
    round_buckets,
    rounds_by_pid: list,
    round_index: int,
    history_cap: int,
    measured_down: List[float],
    measured_up: List[float],
    lifetime_down: List[float],
    lifetime_up: List[float],
    measuring: bool,
    split_accounting: bool,
) -> None:
    """Apply one peer's decision — its ``(targets, amount)`` groups — in place.

    Writes each amount into the target's history bucket for this round (a
    plain assignment: within one round each (sender, target) pair occurs at
    most once) and accumulates positive amounts into the flat accounting
    arrays.  With ``split_accounting`` the lifetime arrays are distinct from
    the measured (post-warmup) arrays and both are maintained; otherwise
    they alias and one update suffices.  The group order — strangers,
    partners, refusals — is the reference engines' dict insertion order, so
    float accumulation order is preserved exactly.
    """
    for targets, amount in groups:
        if amount > 0.0:
            for t in targets:
                bucket = round_buckets[t]
                if bucket is None:
                    bucket = round_bucket(
                        round_buckets, rounds_by_pid, t, round_index, history_cap
                    )
                bucket[pid] = amount
                if split_accounting:
                    lifetime_down[t] += amount
                    lifetime_up[pid] += amount
                    if measuring:
                        measured_down[t] += amount
                        measured_up[pid] += amount
                else:
                    measured_down[t] += amount
                    measured_up[pid] += amount
        else:
            for t in targets:
                bucket = round_buckets[t]
                if bucket is None:
                    bucket = round_bucket(
                        round_buckets, rounds_by_pid, t, round_index, history_cap
                    )
                bucket[pid] = 0.0


def behavior_info(behavior: PeerBehavior) -> tuple:
    """The behaviour constants the round loop destructures per peer.

    Returns ``(candidate_window, partner_count, ranking, allocation,
    stranger_policy, stranger_count, stranger_period)``.
    """
    return (
        behavior.candidate_window,
        behavior.partner_count,
        behavior.ranking,
        behavior.allocation,
        behavior.stranger_policy,
        behavior.stranger_count,
        behavior.stranger_period,
    )
