"""Population-engine benchmark: fixed, reference, fast and vec engines.

Times up to four engines on matched ``(n_peers, rounds)`` workloads:

* a **fixed-population** run of the workload's replacement-churn twin
  through :func:`repro.sim.engine.simulate` (the fast population engine) —
  the ceiling the variable workload is chasing;
* the **reference** variable-population engine
  (:class:`repro.sim.population.PopulationSimulation`);
* the optimised variable-population engine
  (:class:`repro.sim.population_fast.FastPopulationSimulation`);
* the numpy batch engine
  (:class:`repro.sim.population_vec.VecSimulation`) — statistically
  equivalent rather than bit-identical, gated by ``tests/statistical/``.

The variable workload is the ``whitewash-churn`` scenario's dynamics at
full strength (4% true departures per round, 90% of them re-entering under
fresh identities), the hardest steady case for incremental structures:
membership changes almost every round.

Engines are selected per case size: the reference engine drops out beyond
a few hundred peers and everything but vec drops out at the 10k scale tier
(timing a pure-python engine for minutes would measure patience, not
progress).  Every case that times both variable replica engines also
re-asserts their bit-identity — a speedup measured on diverging results
would be meaningless.  The vec engine is exempt from that check by design;
its gate is the distributional harness.

Results are **appended** to ``BENCH_population.json`` at the repository
root: one entry per (commit, grid), each a machine-readable record (config,
seconds, rounds/sec, speedups).  Re-running on the same commit replaces
that commit's entry; running on a new commit appends — the file itself
carries the tracked perf trajectory rather than being overwritten per run.
Legacy single-run files migrate automatically.

Vec runs are profiled (the profiler's per-round cost is unmeasurable at
bench scales), so every trajectory entry carries the per-phase breakdown
of its best run; the standalone runner compares fresh numbers against the
previous same-grid entry and prints those breakdowns when a case regresses.

Run the full bench grid (the acceptance gate asserts >= 2x fast-vs-
reference on the 200-peer/400-round headline case) plus the scale grids
(>= 3x vec-vs-fast at 1000 peers, 10k- and 100k-peer floors)::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_population.py -s

or standalone, e.g. the tiny CI perf-smoke grid::

    PYTHONPATH=src python benchmarks/test_bench_population.py --grid smoke
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.core.protocol import bittorrent_reference
from repro.runner.jobs import result_to_payload
from repro.sim.config import SimulationConfig
from repro.sim.dynamics import ArrivalProcess, DepartureProcess, PopulationDynamics
from repro.sim.engine import simulate
from repro.sim.population import PopulationSimulation
from repro.sim.population_fast import FastPopulationSimulation
from repro.sim.population_vec import VecSimulation
from repro.sim.profiling import payload_seconds, render_phases

#: (n_peers, rounds) grids; "bench" ends with the acceptance headline case,
#: "scale" carries the 1k/10k swarm tier that only the vec engine can hold,
#: and "scale-100k" the 100k-peer tier the chunked-history kernels unlock.
GRIDS: Dict[str, List[Tuple[int, int]]] = {
    "smoke": [(30, 40), (50, 60)],
    "bench": [(50, 200), (100, 300), (200, 400)],
    "scale": [(1000, 60), (10000, 20)],
    "scale-100k": [(100_000, 5)],
}

#: The acceptance-gated case: 200 peers, 400 rounds of whitewash churn.
HEADLINE_CASE = (200, 400)

#: Minimum fast-vs-reference speedup required on the headline case.
HEADLINE_SPEEDUP_FLOOR = 2.0

#: The vec acceptance case: 1000 peers, 60 rounds of whitewash churn.
VEC_HEADLINE_CASE = (1000, 60)

#: Minimum vec-vs-fast speedup on the vec headline case.  Measured ~17x
#: with the partial-selection kernels; the gate sits well below that so
#: shared-runner noise cannot flake it.
VEC_SPEEDUP_FLOOR = 3.0

#: Absolute floors for the vec-only tiers.  Measured ~72 r/s at 10k and
#: ~5 r/s at 100k on the reference machine; the gates sit far below so a
#: slow shared runner cannot flake them, while the trajectory entries in
#: ``BENCH_population.json`` carry the real numbers.
VEC_10K_RPS_FLOOR = 30.0
VEC_100K_RPS_FLOOR = 2.0

#: A case regresses when its rounds/sec fall below this fraction of the
#: previous same-grid trajectory entry; the standalone runner then prints
#: the stored per-phase breakdowns so the regression is attributable.
REGRESSION_RATIO = 0.85

#: Above this population only the vec engine is timed.
VEC_ONLY_MIN_PEERS = 2000

#: Above this population the pure-python reference engine is skipped.
REFERENCE_MAX_PEERS = 500

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_population.json"

#: Whitewash-churn dynamics at scenario strength (see the registry entry).
WHITEWASH_DEPARTURE_RATE = 0.04
WHITEWASH_REJOIN_RATE = 0.9

ENGINE_ORDER = ("fixed", "population_reference", "population_fast", "population_vec")


def _whitewash_config(n_peers: int, rounds: int) -> SimulationConfig:
    return SimulationConfig(
        n_peers=n_peers,
        rounds=rounds,
        population=PopulationDynamics(
            arrival=ArrivalProcess(kind="whitewash", rate=WHITEWASH_REJOIN_RATE),
            departure=DepartureProcess(rate=WHITEWASH_DEPARTURE_RATE),
        ),
    )


def _fixed_twin_config(n_peers: int, rounds: int) -> SimulationConfig:
    """The fixed-population twin: same size, legacy replacement churn."""
    return SimulationConfig(
        n_peers=n_peers, rounds=rounds, churn_rate=WHITEWASH_DEPARTURE_RATE
    )


def engines_for_case(n_peers: int) -> Tuple[str, ...]:
    """Which engines a case of ``n_peers`` can afford to time."""
    if n_peers >= VEC_ONLY_MIN_PEERS:
        return ("population_vec",)
    if n_peers > REFERENCE_MAX_PEERS:
        return ("fixed", "population_fast", "population_vec")
    return ENGINE_ORDER


def _time_run(run, repeats: int = 3) -> Tuple[float, object, object]:
    """Best-of-``repeats`` wall-clock seconds for one full run.

    ``run()`` returns ``(result, simulation)``.  Returns ``(seconds,
    result, simulation)`` of the best repeat, so a profiled engine's phase
    table can be read off the winning run.
    """
    best = float("inf")
    result = None
    best_sim = None
    for _ in range(repeats):
        start = time.perf_counter()
        run_result, simulation = run()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best, result, best_sim = elapsed, run_result, simulation
    return best, result, best_sim


def run_case(
    n_peers: int,
    rounds: int,
    seed: int = 0,
    repeats: int = 3,
    engines: Optional[Tuple[str, ...]] = None,
) -> dict:
    """Benchmark the selected engines on one matched configuration."""
    if engines is None:
        engines = engines_for_case(n_peers)
    behavior = bittorrent_reference().behavior
    variable_config = _whitewash_config(n_peers, rounds)
    fixed_config = _fixed_twin_config(n_peers, rounds)

    def engine_run(engine_cls, **kwargs):
        simulation = engine_cls(variable_config, [behavior], seed=seed, **kwargs)
        return simulation.run(), simulation

    runs = {
        "fixed": lambda: (simulate(fixed_config, [behavior], seed=seed), None),
        "population_reference": lambda: engine_run(PopulationSimulation),
        "population_fast": lambda: engine_run(FastPopulationSimulation),
        # Profiled: the real profiler's per-round cost is a few perf_counter
        # calls, unmeasurable at these scales, and it buys every trajectory
        # entry a per-phase attribution of the vec time.
        "population_vec": lambda: engine_run(VecSimulation, profile=True),
    }
    timings: Dict[str, float] = {}
    results: Dict[str, object] = {}
    sims: Dict[str, object] = {}
    for name in engines:
        timings[name], results[name], sims[name] = _time_run(
            runs[name], repeats
        )

    case = {
        "config": {
            "n_peers": n_peers,
            "rounds": rounds,
            "seed": seed,
            "workload": "whitewash-churn",
            "departure_rate": WHITEWASH_DEPARTURE_RATE,
            "whitewash_rate": WHITEWASH_REJOIN_RATE,
        },
        "engines": {
            name: {
                "seconds": round(seconds, 4),
                "rounds_per_sec": round(rounds / seconds, 1),
            }
            for name, seconds in timings.items()
        },
    }
    if "population_vec" in timings:
        case["engines"]["population_vec"]["profile"] = sims[
            "population_vec"
        ].profiler.as_payload(rounds)
    if {"population_reference", "population_fast"} <= timings.keys():
        case["speedup_fast_vs_reference"] = round(
            timings["population_reference"] / timings["population_fast"], 2
        )
        case["bit_identical"] = result_to_payload(
            results["population_fast"]
        ) == result_to_payload(results["population_reference"])
    if {"population_fast", "population_vec"} <= timings.keys():
        case["speedup_vec_vs_fast"] = round(
            timings["population_fast"] / timings["population_vec"], 2
        )
    return case


def current_commit() -> Optional[str]:
    """The commit this run measures (CI env, then git; ``None`` if unknown)."""
    sha = os.environ.get("GITHUB_SHA")
    if sha:
        return sha
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def run_grid(grid: str, repeats: int = 3) -> dict:
    """Benchmark every case of ``grid`` into one trajectory entry."""
    cases = [run_case(n, rounds, repeats=repeats) for n, rounds in GRIDS[grid]]
    return {
        "commit": current_commit(),
        "grid": grid,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cases": cases,
    }


def load_history(output: Path) -> dict:
    """The trajectory stored at ``output`` (empty or legacy files migrate).

    The pre-trajectory layout was a single run's payload with top-level
    ``cases``; it becomes the first entry, with an unknown commit.
    """
    if not output.exists():
        return {"benchmark": "population-engines", "entries": []}
    data = json.loads(output.read_text(encoding="utf-8"))
    if "entries" in data:
        return data
    legacy = {key: data[key] for key in ("grid", "python", "machine", "cases")}
    legacy["commit"] = data.get("commit")
    return {
        "benchmark": data.get("benchmark", "population-engines"),
        "entries": [legacy],
    }


def append_entry(entry: dict, output: Path) -> dict:
    """Append ``entry`` to the trajectory at ``output`` (keyed by commit).

    An existing entry for the same (commit, grid) is replaced — re-running
    on one commit refreshes its measurement instead of duplicating it — and
    anything else is preserved, so the file accumulates one entry per
    benchmarked commit.  Returns the written trajectory.
    """
    history = load_history(output)
    key = (entry.get("commit"), entry["grid"])
    history["entries"] = [
        existing
        for existing in history["entries"]
        if (existing.get("commit"), existing["grid"]) != key
    ]
    history["entries"].append(entry)
    output.write_text(json.dumps(history, indent=2) + "\n", encoding="utf-8")
    return history


def previous_grid_entry(history: dict, grid: str) -> Optional[dict]:
    """The latest stored trajectory entry for ``grid`` (``None`` if first)."""
    entries = [e for e in history["entries"] if e["grid"] == grid]
    return entries[-1] if entries else None


def detect_regressions(
    previous: dict, payload: dict, ratio: float = REGRESSION_RATIO
) -> List[dict]:
    """Cases whose rounds/sec fell below ``ratio`` x the previous entry.

    Each finding carries the current and previous stored phase payloads
    (when the engine records them), so the caller can print an attributable
    per-phase breakdown instead of a bare number.
    """
    prev_cases = {
        (c["config"]["n_peers"], c["config"]["rounds"]): c
        for c in previous["cases"]
    }
    regressions: List[dict] = []
    for case in payload["cases"]:
        key = (case["config"]["n_peers"], case["config"]["rounds"])
        prev = prev_cases.get(key)
        if prev is None:
            continue
        for name, timing in case["engines"].items():
            prev_timing = prev["engines"].get(name)
            if not prev_timing:
                continue
            if timing["rounds_per_sec"] < ratio * prev_timing["rounds_per_sec"]:
                regressions.append(
                    {
                        "case": key,
                        "engine": name,
                        "previous_rps": prev_timing["rounds_per_sec"],
                        "current_rps": timing["rounds_per_sec"],
                        "profile": timing.get("profile"),
                        "previous_profile": prev_timing.get("profile"),
                    }
                )
    return regressions


def _print_regressions(regressions: List[dict]) -> None:
    for reg in regressions:
        n_peers, rounds = reg["case"]
        print(
            f"REGRESSION: {reg['engine']} on {n_peers} peers x {rounds} "
            f"rounds: {reg['previous_rps']} -> {reg['current_rps']} r/s"
        )
        for label, profile in (
            ("current", reg["profile"]),
            ("previous", reg["previous_profile"]),
        ):
            if profile:
                print(f"  {label} per-phase breakdown:")
                print(
                    render_phases(
                        payload_seconds(profile),
                        rounds=profile.get("rounds"),
                        indent="  ",
                    )
                )


def _render(payload: dict) -> str:
    commit = payload.get("commit") or "unknown"
    lines = [
        f"commit {commit[:12]}  grid {payload['grid']}",
        f"{'peers':>6} {'rounds':>6} {'fixed r/s':>10} {'ref r/s':>10} "
        f"{'fast r/s':>10} {'vec r/s':>10} {'fast/ref':>9} {'vec/fast':>9} "
        f"{'identical':>9}"
    ]
    for case in payload["cases"]:
        config = case["config"]
        engines = case["engines"]

        def rps(name: str) -> str:
            timing = engines.get(name)
            return f"{timing['rounds_per_sec']:.1f}" if timing else "-"

        fast_ref = case.get("speedup_fast_vs_reference")
        vec_fast = case.get("speedup_vec_vs_fast")
        identical = case.get("bit_identical")
        lines.append(
            f"{config['n_peers']:>6} {config['rounds']:>6} "
            f"{rps('fixed'):>10} {rps('population_reference'):>10} "
            f"{rps('population_fast'):>10} {rps('population_vec'):>10} "
            f"{f'{fast_ref:.2f}x' if fast_ref is not None else '-':>9} "
            f"{f'{vec_fast:.2f}x' if vec_fast is not None else '-':>9} "
            f"{str(identical) if identical is not None else '-':>9}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------- #
# pytest entry points (bench grid + acceptance gates)
# ---------------------------------------------------------------------- #
def test_population_engines_bench_grid():
    payload = run_grid("bench")
    history = append_entry(payload, DEFAULT_OUTPUT)
    print()
    print(_render(payload))
    print(
        f"wrote {DEFAULT_OUTPUT} "
        f"({len(history['entries'])} trajectory entries)"
    )

    assert all(
        case["bit_identical"]
        for case in payload["cases"]
        if "bit_identical" in case
    )
    headline = next(
        case
        for case in payload["cases"]
        if (case["config"]["n_peers"], case["config"]["rounds"]) == HEADLINE_CASE
    )
    assert headline["speedup_fast_vs_reference"] >= HEADLINE_SPEEDUP_FLOOR, (
        f"fast variable-population engine must be >= "
        f"{HEADLINE_SPEEDUP_FLOOR}x the reference on "
        f"{HEADLINE_CASE[0]} peers / {HEADLINE_CASE[1]} rounds, got "
        f"{headline['speedup_fast_vs_reference']}x"
    )


def test_vec_engine_scale_grid():
    """The 1k/10k swarm tier: vec must beat fast at 1k and hold 10k."""
    payload = run_grid("scale")
    history = append_entry(payload, DEFAULT_OUTPUT)
    print()
    print(_render(payload))
    print(
        f"wrote {DEFAULT_OUTPUT} "
        f"({len(history['entries'])} trajectory entries)"
    )

    headline = next(
        case
        for case in payload["cases"]
        if (case["config"]["n_peers"], case["config"]["rounds"])
        == VEC_HEADLINE_CASE
    )
    assert headline["speedup_vec_vs_fast"] >= VEC_SPEEDUP_FLOOR, (
        f"vec engine must be >= {VEC_SPEEDUP_FLOOR}x the fast engine on "
        f"{VEC_HEADLINE_CASE[0]} peers / {VEC_HEADLINE_CASE[1]} rounds, got "
        f"{headline['speedup_vec_vs_fast']}x"
    )
    ten_k = next(
        case for case in payload["cases"] if case["config"]["n_peers"] >= 10_000
    )
    assert (
        ten_k["engines"]["population_vec"]["rounds_per_sec"]
        >= VEC_10K_RPS_FLOOR
    ), (
        f"vec engine must hold >= {VEC_10K_RPS_FLOOR} rounds/sec on the "
        f"10k-peer tier, got "
        f"{ten_k['engines']['population_vec']['rounds_per_sec']}"
    )
    # 10k is vec-only: no other engine may sneak into (and stall) the tier.
    assert set(ten_k["engines"]) == {"population_vec"}


def test_vec_engine_scale_100k_grid():
    """The 100k-peer tier the chunked-history kernels unlock."""
    payload = run_grid("scale-100k")
    history = append_entry(payload, DEFAULT_OUTPUT)
    print()
    print(_render(payload))
    print(
        f"wrote {DEFAULT_OUTPUT} "
        f"({len(history['entries'])} trajectory entries)"
    )

    (case,) = payload["cases"]
    assert set(case["engines"]) == {"population_vec"}
    vec = case["engines"]["population_vec"]
    assert vec["rounds_per_sec"] >= VEC_100K_RPS_FLOOR, (
        f"vec engine must hold >= {VEC_100K_RPS_FLOOR} rounds/sec on the "
        f"100k-peer tier, got {vec['rounds_per_sec']}"
    )
    # Every trajectory entry carries the phase attribution of its best run.
    assert set(vec["profile"]["phases"]) >= {"decision", "transfer"}


# ---------------------------------------------------------------------- #
# standalone entry point (CI perf-smoke)
# ---------------------------------------------------------------------- #
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--grid", default="bench", choices=sorted(GRIDS))
    parser.add_argument(
        "--output", type=Path, default=DEFAULT_OUTPUT, metavar="FILE"
    )
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    previous = previous_grid_entry(load_history(args.output), args.grid)
    payload = run_grid(args.grid, repeats=args.repeats)
    history = append_entry(payload, args.output)
    print(_render(payload))
    print(f"wrote {args.output} ({len(history['entries'])} trajectory entries)")
    if previous is not None:
        # Attributable, not blocking: shared-runner noise makes absolute
        # wall-clock gates flake, so a slowdown prints its phase breakdown
        # (which phase grew) and leaves the verdict to the reader.
        _print_regressions(detect_regressions(previous, payload))
    if not all(
        case["bit_identical"]
        for case in payload["cases"]
        if "bit_identical" in case
    ):
        print("ERROR: engines diverged", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
