"""Exact positional sampling in the vec engine.

Discovery (``_sample_others``) and request targets (``_draw_requests``)
draw one uniform index per row and column and map it to the index-th
position that is not blocked (:func:`~repro.sim.population_vec._kth_free`
for the row itself and its earlier columns, then a sorted skip over the
row's partners).  These tests hold that mapping to brute-force
enumeration, check the sampled targets' invariants on real runs, and
check that the targets are uniform over the eligible positions.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from scipy import stats

from repro.runner.jobs import result_to_payload
from repro.sim.behavior import PeerBehavior
from repro.sim.config import SimulationConfig
from repro.sim.dynamics import ArrivalProcess, DepartureProcess, PopulationDynamics
from repro.sim.population_vec import VecSimulation, _kth_free


def free_counts(blocked):
    """``_kth_free``'s counts for a blocked set: unblocked values below each."""
    ordered = sorted(blocked)
    return [value - ordered.index(value) for value in blocked]


def test_kth_free_matches_brute_force_enumeration():
    rng = np.random.default_rng(2024)
    cases = 0
    for width in range(1, 7):
        rows = 500
        sizes = rng.integers(width + 1, 40, size=rows)
        blocked = [
            rng.choice(size, size=width, replace=False).tolist() for size in sizes
        ]
        j = np.array(
            [rng.integers(0, size - width) for size in sizes], dtype=np.int64
        )
        free = list(np.array([free_counts(b) for b in blocked]).T)
        value = _kth_free(j, free)
        grown = np.array(free).T
        for r in range(rows):
            allowed = sorted(set(range(sizes[r])) - set(blocked[r]))
            assert value[r] == allowed[j[r]]
            assert grown[r].tolist() == free_counts(blocked[r] + [allowed[j[r]]])
            cases += 1
    assert cases == 3000


def test_kth_free_sequence_samples_without_replacement():
    """Chained columns, as ``_sample_others`` runs them, never repeat."""
    rng = np.random.default_rng(7)
    n = 9
    rows = np.arange(n, dtype=np.int64)
    free = [rows]
    taken = [set([r]) for r in range(n)]
    for column in range(n - 1):
        j = rng.integers(0, n - 1 - column, size=n)
        value = _kth_free(j, free)
        for r in range(n):
            assert value[r] not in taken[r]
            taken[r].add(int(value[r]))
    assert all(t == set(range(n)) for t in taken)


def test_index_draw_stays_below_high_at_the_largest_uniform():
    """``floor(u * high) < high`` at ``u = 1 - 2**-53``, powers of two too."""
    u_max = np.nextafter(1.0, 0.0)
    assert u_max == 1.0 - 2.0 ** -53
    highs = sorted(
        {1, 2, 3, 5, 7, 15, 16, 17, 1000, 4095, 4096, 4097, 99991}
        | {2 ** k + d for k in range(1, 53) for d in (-1, 0, 1)}
    )
    high = np.array([h for h in highs if h < 2 ** 53], dtype=np.int64)
    sim = VecSimulation(SimulationConfig(n_peers=4, rounds=1), [PeerBehavior()], seed=0)
    sim._uniform = lambda owners: np.full(owners.size, u_max)
    drawn = sim._indices(np.zeros(high.size, dtype=np.int64), high)
    assert (drawn < high).all()
    assert (drawn == high - 1).all()


# ---------------------------------------------------------------------- #
# invariants of the sampled targets on real runs
# ---------------------------------------------------------------------- #
class CheckedSimulation(VecSimulation):
    """Checks every discovery and request sample a run draws."""

    def _sample_others(self, rows, size, n):
        out = super()._sample_others(rows, size, n)
        first = rows - rows % n
        assert (out >= first[:, None]).all() and (out < (first + n)[:, None]).all()
        assert (out != rows[:, None]).all()
        for row in out:
            assert len(set(row.tolist())) == size
        self.discovery_samples += out.size
        return out

    def _draw_requests(self, ids, n, n_partners, partner_keys):
        target, requester = super()._draw_requests(ids, n, n_partners, partner_keys)
        partners = set(partner_keys.tolist())
        pos = self._pos
        per_requester = {}
        for t, r in zip(target.tolist(), requester.tolist()):
            assert t != r
            assert (r << 32) | t not in partners
            assert pos[t] // n == pos[r] // n  # same simulation
            per_requester.setdefault(r, []).append(t)
        eligible = (n - 1) - n_partners
        for r, targets in per_requester.items():
            assert len(set(targets)) == len(targets)
            assert len(targets) == min(
                self.config.requests_per_round, eligible[pos[r]]
            )
        # Every peer with an eligible target requests, grouped by requester.
        assert len(per_requester) == int((eligible > 0).sum())
        assert (np.diff(pos[requester]) >= 0).all()
        self.request_samples += target.size
        return target, requester


def crowded_behaviors(n):
    """``n`` behaviours cycling partner counts 5, 4, 3, 0, 1, 2, so the
    eligible request pools of small swarms range down to empty."""
    counts = (5, 4, 3, 0, 1, 2)
    return [
        PeerBehavior(
            stranger_policy="periodic", stranger_count=2, ranking="fastest",
            partner_count=counts[i % len(counts)], allocation="equal_split",
        )
        for i in range(n)
    ]


def checked_batch(config, members):
    sim = CheckedSimulation.__new__(CheckedSimulation)
    sim._setup(config, members, False)
    sim.discovery_samples = sim.request_samples = 0
    return sim


def test_fixed_batch_targets_are_distinct_foreign_and_in_simulation():
    config = SimulationConfig(
        n_peers=7, rounds=25, requests_per_round=3, discovery_per_round=3,
        churn_rate=0.05,
    )
    members = [(crowded_behaviors(7), None, seed) for seed in range(5)]
    sim = checked_batch(config, members)
    sim.run_all()
    assert sim.discovery_samples > 0 and sim.request_samples > 0


def test_variable_population_targets_map_through_positions():
    """Departures make ids differ from positions; targets must still hold."""
    config = SimulationConfig(
        n_peers=12, rounds=30, requests_per_round=2, discovery_per_round=2,
        population=PopulationDynamics(
            arrival=ArrivalProcess(kind="poisson", rate=1.0),
            departure=DepartureProcess(rate=0.08),
            max_active=25,
        ),
    )
    sim = checked_batch(config, [(crowded_behaviors(12), None, 3)])
    result = sim.run_all()[0]
    assert result.total_departures > 0
    assert sim.discovery_samples > 0 and sim.request_samples > 0


# ---------------------------------------------------------------------- #
# uniformity for a fixed blocked set
# ---------------------------------------------------------------------- #
def idle_simulation(n, requests=0, seed=0):
    config = SimulationConfig(n_peers=n, rounds=1, requests_per_round=requests)
    sim = VecSimulation(config, [PeerBehavior()], seed=seed)
    sim._pos[:n] = np.arange(n)
    return sim


def test_request_targets_are_uniform_over_eligible_positions():
    n = 10
    sim = idle_simulation(n, requests=2, seed=11)
    ids = np.arange(n, dtype=np.int64)
    # Row 3 has partners {1, 5, 6, 8}; row 7 has partner {0}.
    partner_keys = np.array(
        [(3 << 32) | p for p in (1, 5, 6, 8)] + [(7 << 32) | 0], dtype=np.int64
    )
    n_partners = np.bincount(partner_keys >> 32, minlength=n)
    pairs = {3: [], 7: []}
    for _ in range(3000):
        target, requester = sim._draw_requests(ids, n, n_partners, partner_keys)
        for row in pairs:
            pairs[row].append(tuple(target[requester == row].tolist()))
    for row, partners in ((3, {1, 5, 6, 8}), (7, {0})):
        eligible = [t for t in range(n) if t != row and t not in partners]
        ordered = [(a, b) for a in eligible for b in eligible if a != b]
        counts = [pairs[row].count(pair) for pair in ordered]
        assert sum(counts) == 3000  # every draw was an eligible ordered pair
        assert stats.chisquare(counts).pvalue > 1e-3


def test_discovery_targets_are_uniform_over_other_positions():
    n = 8
    sim = idle_simulation(n, seed=5)
    rows = np.array([0, 4, 7], dtype=np.int64)
    draws = np.concatenate(
        [sim._sample_others(rows, 2, n)[None] for _ in range(3000)]
    )
    for i, row in enumerate(rows.tolist()):
        others = [t for t in range(n) if t != row]
        ordered = [(a, b) for a in others for b in others if a != b]
        seen = [tuple(pair) for pair in draws[:, i].tolist()]
        counts = [seen.count(pair) for pair in ordered]
        assert sum(counts) == 3000
        assert stats.chisquare(counts).pvalue > 1e-3


# ---------------------------------------------------------------------- #
# batch identity where the request pools are tiny
# ---------------------------------------------------------------------- #
def payload_bytes(result) -> str:
    return json.dumps(result_to_payload(result), sort_keys=True)


@pytest.mark.parametrize("n_peers", [3, 5, 7])
def test_tiny_request_pools_stay_per_simulation(n_peers):
    """Pools of zero or one eligible target draw from each run's own stream."""
    config = SimulationConfig(
        n_peers=n_peers, rounds=20, requests_per_round=4, discovery_per_round=4,
    )
    members = [(crowded_behaviors(n_peers), None, seed) for seed in (4, 1, 4, 9)]
    solo = [
        payload_bytes(VecSimulation(config, b, g, seed=s).run())
        for b, g, s in members
    ]
    for order in ([0, 1, 2, 3], [3, 1, 0, 2]):
        batch = VecSimulation.batch(config, [members[i] for i in order]).run_all()
        assert [payload_bytes(r) for r in batch] == [solo[i] for i in order]

