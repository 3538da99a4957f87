"""Throughput benchmarks of the two simulation substrates.

These are not paper figures; they track the cost of the building blocks every
experiment is made of (one cycle-simulator run and one piece-level swarm run)
so performance regressions in the substrates are visible independently of the
experiment drivers.
"""

from __future__ import annotations

from repro.bittorrent.config import SwarmConfig
from repro.bittorrent.swarm import SwarmSimulation
from repro.bittorrent.variants import reference_bittorrent as bt_client
from repro.core.protocol import bittorrent_reference
from repro.sim.config import SimulationConfig
from repro.sim.engine import simulate


def test_cycle_simulator_single_run(benchmark):
    config = SimulationConfig(n_peers=50, rounds=100)

    def run():
        return simulate(config, [bittorrent_reference().behavior], seed=1)

    result = benchmark(run)
    assert result.throughput > 0


def test_swarm_simulator_single_run(benchmark):
    config = SwarmConfig.paper()

    def run():
        return SwarmSimulation(config, [bt_client()], seed=1).run()

    result = benchmark(run)
    assert result.completion_fraction() == 1.0
