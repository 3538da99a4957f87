"""Byte-level pins of single-run ``VecSimulation`` results.

The vec engine is held to the replica engines only distributionally
(``tests/statistical/``), so nothing else would notice a change to its
draw order.  These pins hash the serialised result payload of five
single runs — one per population shape the engine supports — so that any
change to which random numbers are drawn, in which order, or how they are
accumulated shows up here.  A batch of one must stay byte-identical to
these runs; the statistical thresholds were calibrated on them.

Update a digest only for an intentional change to the vec engine's
semantics or draw order (it also invalidates every cached vec result).

The digests were taken on numpy 2.4 (Python 3.11).  They were last
re-taken when rejection-sampled discovery and request targets gave way to
exact positional sampling (one uniform draw per row and column).  numpy
does not promise that ``Generator`` streams or float reductions stay
bit-identical across releases (NEP 19), so the pins skip on any other
numpy major.minor rather than fail for a reason outside this code base;
CI runs them on a pinned numpy 2.4.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.runner.jobs import result_to_payload
from repro.sim.bandwidth import TwoClassBandwidth, UniformBandwidth
from repro.sim.behavior import PeerBehavior
from repro.sim.config import SimulationConfig
from repro.sim.dynamics import (
    ArrivalProcess,
    BehaviorShift,
    ChurnWave,
    DepartureProcess,
    PopulationDynamics,
    ScenarioDynamics,
)
from repro.sim.population_vec import VecSimulation


def payload_digest(result) -> str:
    blob = json.dumps(result_to_payload(result), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def bittorrent() -> PeerBehavior:
    return PeerBehavior(
        stranger_policy="periodic", stranger_count=1, ranking="fastest",
        partner_count=4, allocation="equal_split",
    )


def mixed_behaviors() -> list:
    """Eight behaviours covering every ranking, allocation and stranger code."""
    return [
        bittorrent(),
        PeerBehavior(
            stranger_policy="defect", stranger_count=2, ranking="slowest",
            partner_count=3, allocation="freeride",
        ),
        PeerBehavior(
            stranger_policy="when_needed", stranger_count=2,
            candidate_policy="tf2t", ranking="proximity", partner_count=2,
            allocation="prop_share",
        ),
        PeerBehavior(
            stranger_policy="periodic", stranger_count=3, ranking="adaptive",
            partner_count=5, allocation="prop_share",
        ),
        PeerBehavior(
            stranger_policy="when_needed", stranger_count=1, ranking="loyal",
            partner_count=2, allocation="equal_split",
        ),
        PeerBehavior(
            stranger_policy="periodic", stranger_count=1,
            candidate_policy="tf2t", ranking="random", partner_count=1,
            allocation="equal_split",
        ),
        PeerBehavior(
            stranger_policy="none", stranger_count=0, ranking="fastest",
            partner_count=0, allocation="freeride",
        ),
        PeerBehavior(
            stranger_policy="defect", stranger_count=0, ranking="fastest",
            partner_count=9, allocation="prop_share",
        ),
    ]


def _case(name):
    """``name -> (config, behaviors, groups, seed)``."""
    if name == "homogeneous-fixed":
        config = SimulationConfig(n_peers=16, rounds=40)
        return config, [bittorrent()], None, 11
    if name == "two-group-encounter":
        config = SimulationConfig(n_peers=16, rounds=40)
        other = PeerBehavior(
            stranger_policy="defect", stranger_count=1, ranking="loyal",
            partner_count=3, allocation="prop_share",
        )
        return config, [bittorrent()] * 8 + [other] * 8, ["A"] * 8 + ["B"] * 8, 5
    if name == "churn":
        config = SimulationConfig(
            n_peers=24, rounds=40, churn_rate=0.05,
            bandwidth=UniformBandwidth(20.0, 200.0),
        )
        behaviors = mixed_behaviors() * 3
        return config, behaviors, None, 23
    if name == "scenario-dynamics":
        shifted = PeerBehavior(
            stranger_policy="defect", stranger_count=1, ranking="random",
            partner_count=2, allocation="freeride",
        )
        dynamics = ScenarioDynamics(
            initial_capacities=tuple(float(50 + 10 * i) for i in range(16)),
            churn_waves=(
                ChurnWave(start=8, rounds=4, intensity=0.2),
                ChurnWave(start=20, rounds=2, intensity=0.25, correlated=True),
            ),
            behavior_shifts=(
                BehaviorShift(round=12, peer_ids=(0, 3, 5, 9), behavior=shifted,
                              group="shifted"),
                BehaviorShift(round=25, peer_ids=(1, 2), behavior=bittorrent()),
            ),
        )
        config = SimulationConfig(
            n_peers=16, rounds=36, churn_rate=0.02, dynamics=dynamics,
            bandwidth=TwoClassBandwidth(30.0, 300.0, 0.25),
        )
        behaviors = mixed_behaviors() * 2
        groups = ["left"] * 8 + ["right"] * 8
        return config, behaviors, groups, 7
    if name == "variable-arrivals":
        config = SimulationConfig(
            n_peers=12, rounds=30,
            population=PopulationDynamics(
                arrival=ArrivalProcess(kind="poisson", rate=0.8),
                departure=DepartureProcess(rate=0.04),
                max_active=30,
            ),
        )
        return config, mixed_behaviors()[:6] * 2, None, 31
    raise KeyError(name)


#: numpy major.minor the digests below were taken on.
PINNED_NUMPY = (2, 4)

#: case -> sha256 of the ``result_to_payload`` JSON of its single run.
GOLDEN_VEC = {
    "homogeneous-fixed": (
        "70911f1563b64a7111c6206cd61de843"
        "559a5f2b6cd61da18b61f7b7f9356480"
    ),
    "two-group-encounter": (
        "0de80b716aef0722209442cfbab0e5be"
        "465f7e02c2c15091fd3d4bda29bd1f3c"
    ),
    "churn": (
        "c2649bef1a5a03ac6085621912ef430f"
        "1e937c7295a9f20cdca7aecdf1447d5b"
    ),
    "scenario-dynamics": (
        "8d9fef8141cd1b5dee972b2940420b92"
        "4a61f24fb919ccfcfd26b5f8dc562cec"
    ),
    "variable-arrivals": (
        "cd386fb02bdc2537adf49bade4eb322c"
        "83b978ecd8b74a590be3c327d035b926"
    ),
}


@pytest.mark.skipif(
    tuple(int(part) for part in np.__version__.split(".")[:2]) != PINNED_NUMPY,
    reason="vec digests were taken on numpy %d.%d" % PINNED_NUMPY,
)
@pytest.mark.parametrize("name", sorted(GOLDEN_VEC))
def test_single_vec_run_pinned(name):
    config, behaviors, groups, seed = _case(name)
    result = VecSimulation(config, behaviors, groups, seed=seed).run()
    assert payload_digest(result) == GOLDEN_VEC[name]
