"""Simulation jobs: the unit of work scheduled by the experiment runner.

A :class:`SimulationJob` is a fully-specified, picklable description of one
cycle-based simulation run — configuration, behaviours, group labels and
seed.  Two jobs with the same content produce bit-identical results (the
engine is deterministic given a seed), which is what makes the
content-addressed result cache sound: the job's :meth:`fingerprint` *is* the
result's identity.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bittorrent.swarm import SwarmPeerRecord, SwarmResult
from repro.sim.bandwidth import (
    BandwidthDistribution,
    ConstantBandwidth,
    EmpiricalBandwidth,
    MultiClassBandwidth,
    TwoClassBandwidth,
    UniformBandwidth,
)
from repro.sim.behavior import PeerBehavior
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimulationResult, default_engine, simulate
from repro.sim.metrics import PeerRecord

__all__ = [
    "SimulationJob",
    "execute_jobs",
    "result_to_payload",
    "result_from_payload",
]

#: Bump when the cached result payload layout changes.
RESULT_PAYLOAD_VERSION = 1


def _bandwidth_payload(distribution: BandwidthDistribution) -> Dict[str, object]:
    """A lossless, JSON-stable description of a bandwidth distribution.

    ``repr`` is not enough here: :class:`EmpiricalBandwidth` collapses its
    bucket table in ``repr``, and two different tables must not share a cache
    key.  Unknown distribution subclasses fall back to ``repr`` — adequate as
    long as their ``repr`` encodes their parameters.
    """
    if isinstance(distribution, ConstantBandwidth):
        return {"type": "constant", "capacity": distribution.capacity}
    if isinstance(distribution, UniformBandwidth):
        return {"type": "uniform", "low": distribution.low, "high": distribution.high}
    if isinstance(distribution, TwoClassBandwidth):
        return {
            "type": "two_class",
            "slow": distribution.slow_capacity,
            "fast": distribution.fast_capacity,
            "fast_fraction": distribution.fast_fraction,
        }
    if isinstance(distribution, MultiClassBandwidth):
        return {"type": "multi_class", "classes": distribution.classes}
    if isinstance(distribution, EmpiricalBandwidth):
        return {"type": "empirical", "buckets": distribution.buckets}
    return {"type": "repr", "repr": repr(distribution)}


@dataclass(frozen=True)
class SimulationJob:
    """One simulation run, described by value.

    Parameters
    ----------
    config:
        The simulation configuration.
    behaviors:
        One behaviour per peer, or a single behaviour broadcast to the whole
        population (same convention as :func:`~repro.sim.engine.simulate`).
    groups:
        Optional group label per peer (or a single broadcast label).
    seed:
        Seed of the run's private random generator.
    """

    config: SimulationConfig
    behaviors: Tuple[PeerBehavior, ...]
    groups: Optional[Tuple[str, ...]] = None
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.behaviors:
            raise ValueError("a job needs at least one behavior")
        # Normalise list inputs so jobs are hashable/picklable values.
        if not isinstance(self.behaviors, tuple):
            object.__setattr__(self, "behaviors", tuple(self.behaviors))
        if self.groups is not None and not isinstance(self.groups, tuple):
            object.__setattr__(self, "groups", tuple(self.groups))

    # ------------------------------------------------------------------ #
    # identity
    # ------------------------------------------------------------------ #
    def payload(self) -> Dict[str, object]:
        """Everything that determines the run outcome, as JSON-stable data."""
        config = self.config
        config_payload: Dict[str, object] = {
            "n_peers": config.n_peers,
            "rounds": config.rounds,
            "bandwidth": _bandwidth_payload(config.distribution()),
            "churn_rate": config.churn_rate,
            "requests_per_round": config.requests_per_round,
            "discovery_per_round": config.discovery_per_round,
            "warmup_rounds": config.warmup_rounds,
            "stranger_bandwidth_cap": config.stranger_bandwidth_cap,
            "history_rounds": config.history_rounds,
            "aspiration_smoothing": config.aspiration_smoothing,
        }
        # Only present for scenario runs, so every pre-scenario fingerprint
        # (and the cache entries stored under it) stays valid.
        if config.dynamics is not None and not config.dynamics.is_trivial():
            config_payload["dynamics"] = config.dynamics.as_dict()
        # Population dynamics likewise only appear when non-trivial: a
        # variable-population job must never share a cache key with the
        # fixed-population job it otherwise looks like (and two variable
        # jobs differing only in, say, arrival rate must differ too).
        if config.population is not None and not config.population.is_trivial():
            config_payload["population"] = config.population.as_dict()
        return {
            "config": config_payload,
            "behaviors": [behavior.as_dict() for behavior in self.behaviors],
            "groups": list(self.groups) if self.groups is not None else None,
            "seed": self.seed,
        }

    def fingerprint(self) -> str:
        """Content hash identifying this job (and therefore its result)."""
        blob = json.dumps(self.payload(), sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def execute(self) -> SimulationResult:
        """Run the simulation described by this job.

        Runs on the selected engine (:func:`~repro.sim.engine.simulate`),
        which takes fixed and variable populations alike.
        """
        return simulate(
            self.config, list(self.behaviors), groups=self.groups, seed=self.seed
        )


# ---------------------------------------------------------------------- #
# batch execution
# ---------------------------------------------------------------------- #
#: Most peers one vec batch steps at once (simulations x peers each).
#: Sits at or past the knee of the per-simulation cost curve measured by
#: ``benchmarks/vec_batch_curve.py`` (40 rounds, best of 7; 2-vCPU x86_64,
#: Python 3.11, numpy 2.4), in ms per simulation by total peers in the
#: batch:
#:
#:   peers per simulation    alone   ~1024   ~2048   ~4096   ~8192   12800
#:   16                       23.9    2.10    1.48    1.31    1.36    1.37
#:   50                       22.5    4.65    4.78    4.50    4.18    4.13
#:   200                      36.8   19.6    16.7    15.5    14.3    13.7
#:
#: At 16 peers (the paper's bench size) the curve is flat past ~2048; at
#: 50 and 200 peers, batches three times larger buy another 8-11% for
#: three times the batch's state memory.  Past the knee the per-simulation
#: random draws (one generator call per simulation per draw site and
#: column) dominate, so larger batches mostly hold more state, which grows
#: linearly in peers.  Sizes other than these three are interpolated, not
#: measured.
VEC_BATCH_PEERS = 4096


def execute_jobs(jobs: Sequence[SimulationJob]) -> List[object]:
    """Execute ``jobs`` in this process; results in job order.

    Returns exactly what ``[job.execute() for job in jobs]`` returns, and
    runs just that for every engine but ``vec``.  Under ``vec`` (resolved
    as :func:`simulate` resolves it, through
    :func:`~repro.sim.engine.default_engine`), fixed-population
    :class:`SimulationJob`\\ s of equal config are stepped together in
    :meth:`~repro.sim.population_vec.VecSimulation.batch` batches of at
    most :data:`VEC_BATCH_PEERS` peers.  Every batched result is
    byte-identical to the job's own ``execute()``, so batching never
    changes what a fingerprint maps to.
    """
    jobs = list(jobs)
    if default_engine() != "vec":
        return [job.execute() for job in jobs]
    from repro.sim.population_vec import VecSimulation

    results: List[object] = [None] * len(jobs)
    batches: Dict[SimulationConfig, List[int]] = {}
    for index, job in enumerate(jobs):
        if isinstance(job, SimulationJob) and not job.config.is_variable_population:
            batches.setdefault(job.config, []).append(index)
        else:
            results[index] = job.execute()
    for config, indices in batches.items():
        per_batch = max(1, VEC_BATCH_PEERS // config.n_peers)
        count = -(-len(indices) // per_batch)  # batches, split evenly
        for part in range(count):
            lo = part * len(indices) // count
            chunk = indices[lo:(part + 1) * len(indices) // count]
            members = [
                (list(jobs[i].behaviors), jobs[i].groups, jobs[i].seed)
                for i in chunk
            ]
            batch = VecSimulation.batch(config, members).run_all()
            for index, result in zip(chunk, batch):
                results[index] = result
    return results


# ---------------------------------------------------------------------- #
# result (de)serialisation for the on-disk cache
# ---------------------------------------------------------------------- #
def _swarm_result_to_payload(result: SwarmResult) -> Dict[str, object]:
    """JSON-stable payload of a packet-level swarm result.

    Distinguished from abstract-engine payloads by ``"kind": "swarm"`` — a
    key no round-engine payload has ever carried, so the two result shapes
    can never be confused in the shared cache.
    """
    records = [
        {
            "peer_id": r.peer_id,
            "variant": r.variant,
            "upload_capacity": r.upload_capacity,
            "download_time": r.download_time,
            "group": r.group,
            "capacity_class": r.capacity_class,
            "cohort": r.cohort,
            "joined_tick": r.joined_tick,
            "departed_tick": r.departed_tick,
            "downloaded_kb": r.downloaded_kb,
        }
        for r in result.records
    ]
    return {
        "version": RESULT_PAYLOAD_VERSION,
        "kind": "swarm",
        "records": records,
        "ticks_executed": result.ticks_executed,
        "total_transferred_kb": result.total_transferred_kb,
        "arrivals": result.arrivals,
        "departures": result.departures,
        "peak_active": result.peak_active,
    }


def _swarm_result_from_payload(payload: Dict[str, object], config) -> SwarmResult:
    records = []
    for raw in payload["records"]:
        download_time = raw["download_time"]
        departed = raw.get("departed_tick")
        capacity_class = raw.get("capacity_class")
        records.append(
            SwarmPeerRecord(
                peer_id=int(raw["peer_id"]),
                variant=str(raw["variant"]),
                upload_capacity=float(raw["upload_capacity"]),
                download_time=(
                    float(download_time) if download_time is not None else None
                ),
                group=str(raw.get("group", "default")),
                capacity_class=(
                    str(capacity_class) if capacity_class is not None else None
                ),
                cohort=str(raw.get("cohort", "initial")),
                joined_tick=int(raw.get("joined_tick", 0)),
                departed_tick=int(departed) if departed is not None else None,
                downloaded_kb=float(raw.get("downloaded_kb", 0.0)),
            )
        )
    return SwarmResult(
        config=config,
        records=records,
        ticks_executed=int(payload["ticks_executed"]),
        total_transferred_kb=float(payload.get("total_transferred_kb", 0.0)),
        arrivals=int(payload.get("arrivals", 0)),
        departures=int(payload.get("departures", 0)),
        peak_active=int(payload.get("peak_active", 0)),
    )


def result_to_payload(result) -> Dict[str, object]:
    """JSON-stable payload of a result (config omitted — the job carries it).

    Fixed-population results serialise exactly as before (every pinned
    fingerprint stays valid); variable-population results — recognised by a
    recorded active-count timeline — additionally carry the per-record
    identity lifecycle and a ``population`` summary block.  Swarm results
    get their own payload shape, tagged ``"kind": "swarm"``.
    """
    if isinstance(result, SwarmResult):
        return _swarm_result_to_payload(result)
    variable = result.active_counts is not None
    records = []
    for record in result.records:
        raw: Dict[str, object] = {
            "peer_id": record.peer_id,
            "group": record.group,
            "upload_capacity": record.upload_capacity,
            "behavior_label": record.behavior_label,
            "downloaded": record.downloaded,
            "uploaded": record.uploaded,
        }
        if variable:
            raw["cohort"] = record.cohort
            raw["joined_round"] = record.joined_round
            raw["departed_round"] = record.departed_round
            raw["rounds_present"] = record.rounds_present
        records.append(raw)
    payload: Dict[str, object] = {
        "version": RESULT_PAYLOAD_VERSION,
        "records": records,
        "rounds_executed": result.rounds_executed,
        "churn_events": result.churn_events,
        "total_explicit_refusals": result.total_explicit_refusals,
    }
    if variable:
        payload["population"] = {
            "active_counts": list(result.active_counts),
            "total_arrivals": result.total_arrivals,
            "total_departures": result.total_departures,
        }
    return payload


def result_from_payload(payload: Dict[str, object], config):
    """Rebuild a result cached by :func:`result_to_payload`.

    The ``config`` comes from the job being looked up, so the reconstructed
    result is indistinguishable from a fresh run.  Swarm payloads (tagged
    ``"kind": "swarm"``) rebuild a :class:`~repro.bittorrent.swarm.SwarmResult`;
    everything else rebuilds a :class:`SimulationResult`.
    """
    if payload.get("kind") == "swarm":
        return _swarm_result_from_payload(payload, config)
    records: List[PeerRecord] = []
    for raw in payload["records"]:
        departed = raw.get("departed_round")
        present = raw.get("rounds_present")
        records.append(
            PeerRecord(
                peer_id=int(raw["peer_id"]),
                group=str(raw["group"]),
                upload_capacity=float(raw["upload_capacity"]),
                behavior_label=str(raw["behavior_label"]),
                downloaded=float(raw["downloaded"]),
                uploaded=float(raw["uploaded"]),
                cohort=str(raw.get("cohort", "initial")),
                joined_round=int(raw.get("joined_round", 0)),
                departed_round=int(departed) if departed is not None else None,
                rounds_present=int(present) if present is not None else None,
            )
        )
    population = payload.get("population")
    return SimulationResult(
        config=config,
        records=records,
        rounds_executed=int(payload["rounds_executed"]),
        churn_events=int(payload["churn_events"]),
        total_explicit_refusals=int(payload["total_explicit_refusals"]),
        active_counts=(
            tuple(int(c) for c in population["active_counts"])
            if population is not None
            else None
        ),
        total_arrivals=int(population["total_arrivals"]) if population else 0,
        total_departures=int(population["total_departures"]) if population else 0,
    )
