"""Stability mode: run workloads repeatedly and compare spreads with bounds.

    python3 perfbench/stability.py --runs 10 --sets 2
    python3 perfbench/stability.py --workloads vec-sweep --runs 5 --sets 1

For each set and workload, ``run.py`` runs ``--runs`` times, each with
another seed.  For every end-to-end metric the report gives the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread —
the interquartile distance as a share of the median — against the
metric's bound from ``BENCHMARK.json``.  A spread above a third of the
bound is flagged ``WIDE``, above the bound ``FAIL``; ``setup_s`` is held
to the same rule.  With two sets, the second set's median is also compared
with the first's: worse by more than the bound is ``FAIL``.  Runs last
``run_seconds`` of ``BENCHMARK.json``; set 1 uses seeds 1..N, set 2 the
next N.
Raw results are written to ``.perfbench/stability.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    completed = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", "0",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=False,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{completed.stderr}")
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: output check failed:\n{completed.stderr}")
    return result


def spread(values: List[float]) -> Dict[str, float]:
    q1, q2, q3 = quantiles(values, n=4)
    mid = median(values)
    return {"median": mid, "q1": q1, "q3": q3, "spread": (q3 - q1) / mid if mid else 0.0}


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = parser.parse_args(argv)

    metrics = spec["end_to_end"]
    raw: Dict[str, List[List[dict]]] = {}
    status = 0
    for workload in args.workloads.split(","):
        sets = []
        for set_index in range(args.sets):
            seeds = range(1 + set_index * args.runs, 1 + (set_index + 1) * args.runs)
            runs = [run_once(workload, seed, spec["run_seconds"]) for seed in seeds]
            sets.append(runs)
            print(f"\n{workload} set {set_index + 1} (seeds {seeds.start}-{seeds.stop - 1})")
            print(f"  {'metric':<12} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>7} {'bound':>6}")
            for metric in metrics:
                values = [r["metrics"][metric["name"]]["value"] for r in runs]
                s = spread(values)
                flag = ""
                if s["spread"] > metric["bound"]:
                    flag, status = "FAIL", 1
                elif s["spread"] > metric["bound"] / 3:
                    flag = "WIDE"
                print(
                    f"  {metric['name']:<12} {s['median']:>11.5g} {s['q1']:>11.5g} "
                    f"{s['q3']:>11.5g} {s['spread']:>7.3f} {metric['bound']:>6.2f} {flag}"
                )
        if args.sets == 2:
            print(f"\n{workload}: second set's median vs first's")
            for metric in metrics:
                first, second = (
                    median(r["metrics"][metric["name"]]["value"] for r in runs)
                    for runs in sets
                )
                change = worse_by(first, second, metric["better"])
                flag = ""
                if change > metric["bound"]:
                    flag, status = "FAIL", 1
                print(f"  {metric['name']:<12} worse by {change:+.3f} (bound {metric['bound']:.2f}) {flag}")
        raw[workload] = sets
    out = ROOT / ".perfbench" / "stability.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(raw, indent=1))
    return status


if __name__ == "__main__":
    sys.exit(main())
