"""Measure the vec engine's per-simulation cost against batch size.

    PYTHONPATH=src python benchmarks/vec_batch_curve.py --peers 16 --rounds 40

Steps ``VecSimulation.batch`` batches of growing total peer counts (each
simulation ``--peers`` peers, BitTorrent-like behaviour, distinct seeds)
and prints, per total, the best-of-``--repeats`` wall time of one batch
and its share per simulation.  The knee of this curve is where
``repro.runner.jobs.VEC_BATCH_PEERS`` should sit for that simulation size.
"""

from __future__ import annotations

import argparse
import time

from repro.sim.behavior import PeerBehavior
from repro.sim.config import SimulationConfig
from repro.sim.population_vec import VecSimulation

DEFAULT_TOTALS = (16, 64, 256, 512, 1024, 2048, 4096)


def batch_seconds(config: SimulationConfig, sims: int, repeats: int) -> float:
    behavior = PeerBehavior(
        stranger_policy="periodic", stranger_count=1, ranking="fastest",
        partner_count=4, allocation="equal_split",
    )
    members = [([behavior], None, seed) for seed in range(sims)]
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        VecSimulation.batch(config, members).run_all()
        best = min(best, time.perf_counter() - start)
    return best


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--peers", type=int, default=16, help="peers per simulation")
    parser.add_argument("--rounds", type=int, default=40)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument(
        "--totals", type=int, nargs="+", default=list(DEFAULT_TOTALS),
        help="total peers per batch (rounded down to whole simulations)",
    )
    args = parser.parse_args()
    config = SimulationConfig(n_peers=args.peers, rounds=args.rounds)
    print(f"{'peers':>7} {'sims':>5} {'batch ms':>10} {'ms/sim':>8}")
    for total in args.totals:
        sims = max(1, total // args.peers)
        seconds = batch_seconds(config, sims, args.repeats)
        print(f"{sims * args.peers:>7} {sims:>5} {seconds * 1e3:>10.1f} "
              f"{seconds * 1e3 / sims:>8.2f}")


if __name__ == "__main__":
    main()
