"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload pra-sweep --seed 1 --seconds 25 --trace 0

Run from the root of a checkout (the program is imported from ``src/``).
The run sets the workload up ``SETUP_SAMPLES`` times, then repeats whole
passes — each one submits a batch and waits for all of it — for about
``--seconds`` seconds, checks the outputs outside the timed region and
prints one line per metric, then a JSON result as the last line.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics from the traced ones; ``trace.overhead_ratio`` is the
traced over the untraced median ``wall_s``.  A traced pass fails the
output checks when its catch-all spans keep more than
``ACCOUNTING_TOLERANCE`` of its ``wall_s``.  Spans are written to
``.perfbench/traces/`` when the run ends.

``peak_rss_mb`` is the driving process's peak resident memory plus, on
``atlas-service``, the largest sum of the service workers' peaks in one
pass.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path
from statistics import median
from typing import Dict, List

from tracer import Tracer, percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Set-ups per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5
#: Passes a run always makes, whatever ``--seconds`` says.
MIN_PASSES = 3
#: Traced (and untraced) passes a ``--trace 1`` run always makes.
MIN_TRACED_PASSES = 2
#: Largest share of a traced pass's wall_s that the catch-all spans
#: (``workloads.CATCH_ALL``) may keep as self time.  Past it, the named layer
#: spans no longer explain where the pass spends its time.  The share is
#: 0.1-1.5% at HEAD, so an engine several times faster still passes.
ACCOUNTING_TOLERANCE = 0.10

#: Per-layer percentiles pooled over every traced pass's per-job samples.
PERCENTILES = {
    "sim.execute_ms.p50": ("sim_ms", 0.50),
    "sim.execute_ms.p99": ("sim_ms", 0.99),
    "service.queue_wait_ms.p50": ("queue_wait_ms", 0.50),
    "service.queue_wait_ms.p90": ("queue_wait_ms", 0.90),
    "service.execute_ms.p50": ("execute_ms", 0.50),
    "service.execute_ms.p90": ("execute_ms", 0.90),
    "service.store_ms.p50": ("store_ms", 0.50),
    "service.store_ms.p90": ("store_ms", 0.90),
}

#: Environment knobs of the program that would change what a workload runs.
PROGRAM_ENV = ("REPRO_SIM_ENGINE", "REPRO_JOBS", "REPRO_CACHE_DIR")


def load_spec() -> dict:
    with SPEC_PATH.open("r", encoding="utf-8") as handle:
        return json.load(handle)


def run_passes(workload, seconds: float, trace: bool):
    """Closed loop: one pass at a time until the time budget is spent."""
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        tracing = trace and len(untraced) > len(traced)
        (traced if tracing else untraced).append(workload.run_pass(tracing))
        count = len(untraced) + len(traced)
        elapsed = time.perf_counter() - start
        if trace:
            enough = min(len(untraced), len(traced)) >= MIN_TRACED_PASSES
        else:
            enough = count >= MIN_PASSES
        # Start another pass only if it is expected to end within budget.
        if enough and elapsed + elapsed / count > seconds:
            return untraced, traced


def end_to_end_metrics(passes, setups, client_peak_mb) -> Dict[str, float]:
    return {
        "wall_s": median(p.wall_s for p in passes),
        "jobs_per_s": median(p.unique_jobs / p.wall_s for p in passes),
        "cpu_s": median(p.cpu_s for p in passes),
        "setup_s": median(setups),
        "peak_rss_mb": client_peak_mb + max(p.worker_peak_mb for p in passes),
    }


def per_layer_metrics(untraced, traced, names) -> Dict[str, float]:
    metrics: Dict[str, float] = {}
    for name in names:
        if name in PERCENTILES:
            key, q = PERCENTILES[name]
            pooled = [v for p in traced for v in p.samples.get(key, ())]
            metrics[name] = percentile(pooled, q)
        else:
            metrics[name] = median(p.layers.get(name, 0.0) for p in traced)
    split = [p for p in traced if p.layers]
    metrics["trace.unattributed_share"] = (
        median(p.layers["trace.unattributed_s"] / p.wall_s for p in split) if split else 0.0
    )
    traced_wall = median(p.wall_s for p in traced)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_ratio"] = traced_wall / median(p.wall_s for p in untraced)
    return metrics


def accounting_problems(traced) -> List[str]:
    """Traced passes whose named layers leave too much of wall_s unexplained.

    A pass that failed has no layer split; its failure is already counted.
    """
    problems = []
    for index, p in enumerate(traced):
        if not p.layers:
            continue
        unattributed = p.layers["trace.unattributed_s"]
        if unattributed > ACCOUNTING_TOLERANCE * p.wall_s:
            problems.append(
                f"traced pass {index}: {unattributed:.4f}s of {p.wall_s:.4f}s wall "
                "is self time of catch-all spans, not of a named layer"
            )
    return problems


def measure(workload, seconds: float, trace: bool, spec: dict):
    """Set up, run passes and check outputs.

    Returns ``(metrics, attempted, failed, problems, passes)``.
    """
    setups = [workload.setup_seconds() for _ in range(SETUP_SAMPLES)]
    untraced, traced = run_passes(workload, seconds, trace)
    client_peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    passes = untraced + traced
    problems = workload.check(passes)
    if trace:
        names = [m["name"] for m in spec["per_layer"]]
        metrics = per_layer_metrics(untraced, traced, names)
        problems += accounting_problems(traced)
        metrics = {name: metrics[name] for name in names}
    else:
        metrics = end_to_end_metrics(untraced, setups, client_peak_mb)
    attempted = sum(p.unique_jobs for p in passes)
    failed = sum(p.failed for p in passes)
    return metrics, attempted, failed, problems, passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir() or not SPEC_PATH.is_file():
        print(
            f"perfbench: {SRC / 'repro'} or {SPEC_PATH} is missing; "
            "run from the root of a repository checkout",
            file=sys.stderr,
        )
        return 2
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        print(f"perfbench: unknown workload {args.workload!r}; one of {workloads}", file=sys.stderr)
        return 2
    for variable in PROGRAM_ENV:
        os.environ.pop(variable, None)
    sys.path.insert(0, str(SRC))

    from workloads import WORKLOADS

    tracer = Tracer()
    workdir = ROOT / ".perfbench" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, SRC, tracer)
        metrics, attempted, failed, problems, passes = measure(
            workload, args.seconds, bool(args.trace), spec
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        tracer.write(ROOT / ".perfbench" / "traces" / f"{args.workload}-seed{args.seed}.jsonl")

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace}")
    walls = sorted(p.wall_s for p in passes)
    print(
        f"# {len(passes)} passes, wall_s min {walls[0]:.4f} "
        f"median {median(walls):.4f} max {walls[-1]:.4f}"
    )
    for name, value in metrics.items():
        print(f"{name:<28} {value:>14.6g} {units[name]}")
    print(f"{'error_rate':<28} {failed / attempted:>14.6g} ratio ({failed}/{attempted} jobs)")
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
