"""Command-line interface: regenerate any table or figure of the paper.

Usage::

    python -m repro.cli list
    python -m repro.cli run figure2 --scale bench
    python -m repro.cli run table3 --scale smoke --seed 7
    python -m repro.cli run figure5 --scale bench --jobs 4 --cache-dir .repro-cache
    python -m repro.cli all --scale smoke
    python -m repro.cli scenario --list
    python -m repro.cli scenario flash-crowd --scale smoke --jobs 0 --cache-dir .repro-cache
    python -m repro atlas --scenarios baseline,whitewash-churn,colluding-whitewash
    python -m repro atlas --protocol-axes "ranking=I1,I5;allocation=R1,R2" --csv atlas.csv
    python -m repro serve --root .repro-service --workers 4
    python -m repro submit --root .repro-service --scenarios baseline,colluders
    python -m repro serve --root .repro-service --stop
    python -m repro serve --root .repro-service --telemetry .repro-service/telemetry
    python -m repro status --root .repro-service --telemetry .repro-service/telemetry
    python -m repro trace --telemetry .repro-service/telemetry

(``python -m repro`` is a shorthand for ``python -m repro.cli``.)

Each experiment prints the plain-text rows/series corresponding to the
paper's table or figure; the scale argument selects the run budget (see
:mod:`repro.experiments.base` and EXPERIMENTS.md).  ``--jobs`` fans the
underlying simulations out over worker processes and ``--cache-dir`` reuses
results across invocations via the content-addressed result cache
(:mod:`repro.runner`); neither changes any number that is printed.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
from types import ModuleType
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.runner.runner import ENV_CACHE_DIR, ENV_JOBS, jobs_from_env
from repro.scenarios import SUBSTRATE_CHOICES, get_scenario, all_scenarios
from repro.sim.engine import (
    ENGINE_CHOICES,
    ENV_ENGINE,
    default_engine,
    set_default_engine,
)

from repro.experiments import base
from repro.utils.logging import configure_logging, configure_progress_logging

__all__ = ["main", "EXPERIMENTS"]

Runner = Callable[[str, int], str]


def _experiment_module(name: str) -> ModuleType:
    """The experiment module ``repro.experiments.<name>``, imported on use.

    Several experiment modules load numpy (and through the stats helpers
    scipy) at import time; importing them only when their verb runs keeps
    ``list`` and the service verbs light.
    """
    return importlib.import_module(f"repro.experiments.{name}")


def _scaled(name: str) -> Runner:
    def runner(scale: str, seed: int) -> str:
        module = _experiment_module(name)
        return module.render(module.run(scale=scale, seed=seed))

    return runner


def _unscaled(name: str) -> Runner:
    def runner(scale: str, seed: int) -> str:  # scale/seed intentionally unused
        module = _experiment_module(name)
        return module.render(module.run())

    return runner


#: Experiment name -> (description, runner).
EXPERIMENTS: Dict[str, Tuple[str, Runner]] = {
    "figure1": ("BitTorrent Dilemma and Birds payoff matrices", _unscaled("figure1")),
    "section2": ("Analytical expected-win model and Nash verdicts", _unscaled("section2_analytic")),
    "table2": ("Existing systems mapped to the generic design space", _unscaled("table2")),
    "figure2": ("Robustness vs Performance scatter", _scaled("figure2")),
    "figure3": ("Performance vs number of partners", _scaled("figure3")),
    "figure4": ("Robustness vs number of partners", _scaled("figure4")),
    "figure5": ("Robustness CCDF per stranger policy", _scaled("figure5")),
    "figure6": ("Robustness per resource-allocation policy", _scaled("figure6")),
    "figure7": ("Robustness per ranking function", _scaled("figure7")),
    "figure8": ("Robustness vs Aggressiveness correlation", _scaled("figure8")),
    "table3": ("Regression of PRA measures on design dimensions", _scaled("table3")),
    "split-check": ("50/50 vs 90/10 robustness consistency", _scaled("robustness_split_check")),
    "churn-check": ("Performance under churn", _scaled("churn_check")),
    "figure9": ("Swarm encounters between client variants", _scaled("figure9")),
    "figure10": ("Homogeneous-swarm client performance", _scaled("figure10")),
    "scenarios": ("Named workload scenarios side by side", _scaled("scenario_sweep")),
    "atlas": ("Protocol x workload robustness atlas", _scaled("atlas")),
    "cross-substrate": (
        "Protocol rankings compared across the rounds and swarm substrates",
        _scaled("cross_substrate"),
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the tables and figures of the DSA paper (SIGCOMM 2011).",
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="enable progress logging"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list available experiments")

    run_parser = subparsers.add_parser("run", help="run one experiment")
    run_parser.add_argument("experiment", choices=sorted(EXPERIMENTS))
    run_parser.add_argument(
        "--scale", default="bench", choices=("smoke", "bench", "paper"),
        help="run budget (default: bench)",
    )
    run_parser.add_argument("--seed", type=int, default=0, help="master seed")
    _add_runner_arguments(run_parser)

    all_parser = subparsers.add_parser("all", help="run every experiment")
    all_parser.add_argument(
        "--scale", default="smoke", choices=("smoke", "bench", "paper"),
        help="run budget (default: smoke)",
    )
    all_parser.add_argument("--seed", type=int, default=0, help="master seed")
    _add_runner_arguments(all_parser)

    scenario_parser = subparsers.add_parser(
        "scenario", help="run one named workload scenario (or list the registry)"
    )
    scenario_parser.add_argument(
        "name", nargs="?", default=None,
        help="registered scenario name (omit with --list)",
    )
    scenario_parser.add_argument(
        "--list", action="store_true", dest="list_scenarios",
        help="list the registered scenarios and exit",
    )
    scenario_parser.add_argument(
        "--scale", default="bench", choices=("smoke", "bench", "paper"),
        help="run budget (default: bench)",
    )
    scenario_parser.add_argument("--seed", type=int, default=0, help="master seed")
    scenario_parser.add_argument(
        "--reps", type=int, default=None, metavar="N",
        help="independent repetitions (default: per-scale)",
    )
    scenario_parser.add_argument(
        "--substrate", default="rounds", choices=SUBSTRATE_CHOICES,
        help="execution substrate: 'rounds' compiles the scenario onto the "
             "abstract round engines, 'swarm' onto the packet-level "
             "BitTorrent simulator (default: rounds)",
    )
    scenario_parser.add_argument(
        "--profile", action="store_true",
        help="run one profiled simulation of the scenario and print "
             "per-phase (churn/decision/allocation/transfer/metrics) round "
             "timings instead of the sweep; the vec engine adds dotted "
             "sub-phase attribution, the fixed fast engine reports coarse "
             "fused buckets",
    )
    _add_runner_arguments(scenario_parser)

    atlas_parser = subparsers.add_parser(
        "atlas",
        help="sweep protocol axes across workload scenarios and print the "
             "robustness ranking and heat maps",
    )
    atlas_parser.add_argument(
        "--protocol-axes", default=None, metavar="AXES",
        help="swept behaviour axes, e.g. 'ranking=I1,I5;allocation=R1,R2' "
             "(field values and paper codes mix freely; default: the micro "
             "ranking x allocation axes)",
    )
    atlas_parser.add_argument(
        "--scenarios", default=None, metavar="NAMES",
        help="comma-separated registered scenario names "
             "(default: the adversarial column set)",
    )
    atlas_parser.add_argument(
        "--scale", default="smoke", choices=("smoke", "bench", "paper"),
        help="run budget per cell (default: smoke)",
    )
    atlas_parser.add_argument("--seed", type=int, default=0, help="master seed")
    atlas_parser.add_argument(
        "--reps", type=int, default=None, metavar="N",
        help="independent repetitions per cell (default: per-scale)",
    )
    atlas_parser.add_argument(
        "--substrate", default="rounds", choices=SUBSTRATE_CHOICES,
        help="execution substrate for every grid cell (default: rounds)",
    )
    atlas_parser.add_argument(
        "--csv", default=None, metavar="FILE",
        help="also write the long-form CSV heat map to FILE",
    )
    atlas_parser.add_argument(
        "--profile", action="store_true",
        help="additionally run one profiled repetition per grid cell "
             "(serially, bypassing the cache) and append the per-cell and "
             "aggregated per-phase breakdown to the report",
    )
    _add_runner_arguments(atlas_parser)

    serve_parser = subparsers.add_parser(
        "serve",
        help="run persistent service workers against a spool directory "
             "(the worker half of atlas-as-a-service)",
    )
    _add_service_arguments(serve_parser)
    serve_parser.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="persistent worker processes to run (default: 2)",
    )
    serve_parser.add_argument(
        "--max-idle", type=float, default=None, metavar="SEC",
        help="exit after the queue has been empty this long "
             "(default: serve until stopped)",
    )
    serve_parser.add_argument(
        "--stats-interval", type=float, default=2.0, metavar="SEC",
        help="seconds between service status lines (default: 2)",
    )
    serve_parser.add_argument(
        "--stop", action="store_true",
        help="raise the stop sentinel for every worker on this spool "
             "and exit (stops a running serve)",
    )
    serve_parser.add_argument(
        "--compact-interval", type=float, default=None, metavar="SEC",
        help="garbage-collect spool debris (stale heartbeat files, orphaned "
             "claim dirs, consumed stop sentinels, old error files) every "
             "SEC seconds (default: no compaction)",
    )
    serve_parser.add_argument(
        "--engine", default=None, choices=ENGINE_CHOICES,
        help="simulation engine the workers execute with "
             "(default: REPRO_SIM_ENGINE or fast)",
    )

    submit_parser = subparsers.add_parser(
        "submit",
        help="submit an atlas grid to the service and stream the report "
             "progressively as cells complete",
    )
    _add_service_arguments(submit_parser)
    submit_parser.add_argument(
        "--protocol-axes", default=None, metavar="AXES",
        help="swept behaviour axes, e.g. 'ranking=I1,I5;allocation=R1,R2' "
             "(default: the micro ranking x allocation axes)",
    )
    submit_parser.add_argument(
        "--scenarios", default=None, metavar="NAMES",
        help="comma-separated registered scenario names "
             "(default: the adversarial column set)",
    )
    submit_parser.add_argument(
        "--scale", default="smoke", choices=("smoke", "bench", "paper"),
        help="run budget per cell (default: smoke)",
    )
    submit_parser.add_argument("--seed", type=int, default=0, help="master seed")
    submit_parser.add_argument(
        "--reps", type=int, default=None, metavar="N",
        help="independent repetitions per cell (default: per-scale)",
    )
    submit_parser.add_argument(
        "--substrate", default="rounds", choices=SUBSTRATE_CHOICES,
        help="execution substrate for every grid cell (default: rounds)",
    )
    submit_parser.add_argument(
        "--csv", default=None, metavar="FILE",
        help="also write the long-form CSV heat map to FILE",
    )
    submit_parser.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="spawn N ephemeral local workers for this submission "
             "(default: 0 — rely on a running `repro serve`)",
    )
    submit_parser.add_argument(
        "--timeout", type=float, default=None, metavar="SEC",
        help="fail the submission if not complete within SEC "
             "(default: wait indefinitely)",
    )
    submit_parser.add_argument(
        "--engine", default=None, choices=ENGINE_CHOICES,
        help="simulation engine for ephemeral --workers (a running serve "
             "keeps its own; default: REPRO_SIM_ENGINE or fast)",
    )

    status_parser = subparsers.add_parser(
        "status",
        help="print a live view of a service spool: workers and heartbeat "
             "ages, queue depth, and aggregated telemetry metrics",
    )
    _add_service_arguments(status_parser)
    status_parser.add_argument(
        "--liveness-timeout", type=float, default=5.0, metavar="SEC",
        help="heartbeat age beyond which a worker reads as dead (default: 5)",
    )

    trace_parser = subparsers.add_parser(
        "trace",
        help="render per-job timelines and a critical-path summary from a "
             "telemetry directory's merged event log",
    )
    trace_parser.add_argument(
        "--telemetry", default=None, metavar="DIR", required=True,
        help="telemetry directory the traced serve/submit wrote "
             "(their --telemetry argument)",
    )
    trace_parser.add_argument(
        "--jobs-limit", type=int, default=20, metavar="N",
        help="render at most N per-job timelines, 0 for all (default: 20)",
    )
    trace_parser.add_argument(
        "--jsonl", default=None, metavar="FILE",
        help="also write the merged, time-ordered event log to FILE "
             "(one JSON record per line — the CI artifact format)",
    )
    return parser


def _add_service_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--root", default=".repro-service", metavar="DIR",
        help="service spool directory shared by workers and submitters "
             "(default: .repro-service)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="sqlite-indexed shared result store "
             "(default: <root>/cache)",
    )
    parser.add_argument(
        "--telemetry", default=None, metavar="DIR",
        help="enable structured job tracing + metrics, written to DIR "
             "(read back with `repro status`/`repro trace`; default: off)",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress routine progress output (stats ticker, per-cell "
             "progress lines); warnings and the final report still print",
    )


def _add_runner_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="parallel simulation worker processes (1 = serial, 0 = all cores; "
             "default: REPRO_JOBS or 1)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="content-addressed simulation result cache shared across "
             "invocations (default: REPRO_CACHE_DIR or disabled)",
    )
    parser.add_argument(
        "--engine", default=None, choices=ENGINE_CHOICES,
        help="simulation engine: fast and reference are bit-identical "
             "replicas; vec is the numpy batch engine for large swarms, "
             "statistically equivalent but not draw-for-draw identical "
             "(default: REPRO_SIM_ENGINE or fast)",
    )


def _profile_scenario(spec, scale: str, seed: int) -> int:
    """Run one profiled simulation of ``spec`` and print per-phase timings.

    Every engine profiles fixed and variable scenarios alike.  The fast
    engine's buckets are coarse: with a history window of three or more
    rounds it fuses the decision and transfer phases, so the ``decision``
    bucket includes the transfer application and ``transfer`` covers only
    the end-of-round bookkeeping (the run line says so).  The vec engine
    adds dotted sub-phase attribution.
    """
    from repro.sim.engine import FUSED_HISTORY_MIN, profiled_simulation
    from repro.sim.profiling import profile_seconds_of, render_phases

    job = spec.compile(scale=scale, seed=seed)
    engine = default_engine()
    simulation = profiled_simulation(
        job.config,
        list(job.behaviors),
        groups=list(job.groups) if job.groups is not None else None,
        seed=job.seed,
    )
    result = simulation.run()
    rounds = result.rounds_executed
    fused = engine == "fast" and job.config.history_rounds >= FUSED_HISTORY_MIN
    print(
        f"profile: scenario {spec.name} (scale {scale}, seed {seed}, "
        f"engine {engine})"
    )
    if job.config.is_variable_population:
        summary = (
            f"rounds: {rounds}  peers: {job.config.n_peers} -> "
            f"{result.final_active_count}  arrivals: {result.total_arrivals}  "
            f"departures: {result.total_departures}"
        )
    else:
        summary = (
            f"rounds: {rounds}  peers: {job.config.n_peers} (fixed)  "
            f"churn events: {result.churn_events}"
        )
    print(summary + ("  [fused decision+transfer]" if fused else ""))
    print(render_phases(profile_seconds_of(simulation), rounds=rounds))
    return 0


def _service_paths(args) -> Tuple[str, str]:
    """(spool root, cache dir) for the service commands."""
    root = args.root
    cache_dir = args.cache_dir or os.path.join(root, "cache")
    return root, cache_dir


def _serve(parser, args) -> int:
    """Run (or stop) persistent service workers on a spool directory."""
    import time

    from repro.service import Scheduler, Spool, WorkerPool
    from repro.telemetry import telemetry_for
    from repro.utils.logging import get_progress_logger

    progress = get_progress_logger("serve")
    root, cache_dir = _service_paths(args)
    spool = Spool(root)
    if args.stop:
        spool.request_stop()
        print(f"stop requested for workers on {root}")
        return 0
    if args.workers < 1:
        parser.error(f"--workers must be >= 1, got {args.workers}")
    if args.stats_interval <= 0:
        parser.error("--stats-interval must be > 0")
    if args.compact_interval is not None and args.compact_interval <= 0:
        parser.error("--compact-interval must be > 0")
    telemetry = telemetry_for(args.telemetry)
    scheduler = Scheduler(root, cache_dir=cache_dir, telemetry=telemetry)
    pool = WorkerPool(
        root, cache_dir, workers=args.workers, telemetry_dir=args.telemetry
    )
    pool.start()
    progress.info(
        "serving %d workers on %s (store: %s); stop with "
        "`repro serve --root %s --stop`",
        args.workers, root, cache_dir, root,
    )
    config = scheduler.config
    idle_since = time.time()
    last_compact = time.time()
    try:
        while True:
            stats = scheduler.service_stats()
            progress.info("serve: %s", stats.render())
            if spool.stop_requested():
                break
            if (
                args.compact_interval is not None
                and time.time() - last_compact > args.compact_interval
            ):
                last_compact = time.time()
                removed = spool.compact(
                    liveness_timeout=config.liveness_timeout
                )
                total = sum(removed.values())
                if total:
                    progress.info(
                        "compacted spool: removed %d stale entries (%s)",
                        total,
                        ", ".join(
                            f"{k}={v}" for k, v in removed.items() if v
                        ),
                    )
            if stats.queue_depth or stats.in_flight:
                idle_since = time.time()
            elif args.max_idle is not None and time.time() - idle_since > args.max_idle:
                progress.info("idle for %.1fs; shutting down", args.max_idle)
                break
            time.sleep(args.stats_interval)
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        progress.warning("interrupted; shutting down")
    finally:
        pool.stop()
        telemetry.close()
    return 0


def _submit(parser, args) -> int:
    """Submit an atlas grid through the service, streaming cell completions."""
    from contextlib import ExitStack

    from repro.core.design_space import parse_axes
    from repro.service import Scheduler, ServiceError, WorkerPool
    from repro.service.atlas import run_atlas_service
    from repro.telemetry import telemetry_for
    from repro.utils.logging import get_progress_logger

    atlas_experiment = _experiment_module("atlas")
    axes = None
    if args.protocol_axes is not None:
        try:
            axes = parse_axes(args.protocol_axes)
        except ValueError as error:
            parser.error(str(error))
    scenarios = None
    if args.scenarios is not None:
        scenarios = [
            name.strip() for name in args.scenarios.split(",") if name.strip()
        ]
        if not scenarios:
            parser.error("--scenarios names no scenarios")
    if args.reps is not None and args.reps < 1:
        parser.error(f"--reps must be >= 1, got {args.reps}")
    if args.workers < 0:
        parser.error(f"--workers must be >= 0, got {args.workers}")
    try:
        spec = atlas_experiment.make_spec(
            scale=args.scale,
            seed=args.seed,
            scenarios=scenarios,
            axes=axes,
            repetitions=args.reps,
        )
    except KeyError as error:
        parser.error(str(error.args[0]))
    except ValueError as error:
        parser.error(str(error))

    root, cache_dir = _service_paths(args)
    telemetry = telemetry_for(args.telemetry)
    scheduler = Scheduler(root, cache_dir=cache_dir, telemetry=telemetry)
    cells = len(spec.cells())
    progress = get_progress_logger("submit")
    progress.info(
        "submitting %d cells x %d reps to %s (store: %s)",
        cells, spec.repetitions, root, cache_dir,
    )
    with ExitStack() as stack:
        stack.callback(telemetry.close)
        if args.workers:
            pool = WorkerPool(
                root,
                cache_dir,
                workers=args.workers,
                telemetry_dir=args.telemetry,
            )
            stack.enter_context(pool)
        try:
            outcome = run_atlas_service(
                spec,
                scheduler,
                substrate=args.substrate,
                timeout=args.timeout,
            )
        except ServiceError as error:
            print(f"submission failed: {error}", flush=True)
            return 1
    if args.substrate == "swarm":
        print(atlas_experiment.render_swarm(outcome))
    else:
        print(atlas_experiment.render(outcome))
    if args.csv is not None:
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write(outcome.csv())
        print(f"wrote {args.csv}")
    return 0


def _status(parser, args) -> int:
    """Print a live view of a service spool (workers, queue, metrics)."""
    from repro.service import IndexedResultStore, Spool
    from repro.telemetry.report import render_status

    root, cache_dir = _service_paths(args)
    if not os.path.isdir(root):
        parser.error(f"no spool directory at {root}")
    store = IndexedResultStore(cache_dir) if os.path.isdir(cache_dir) else None
    try:
        print(
            render_status(
                Spool(root),
                store=store,
                telemetry_root=args.telemetry,
                liveness_timeout=args.liveness_timeout,
            )
        )
    finally:
        if store is not None:
            store.close()
    return 0


def _trace(parser, args) -> int:
    """Render job timelines + critical path from a telemetry directory."""
    from repro.telemetry import read_events, write_merged
    from repro.telemetry.report import render_trace

    if not os.path.isdir(args.telemetry):
        parser.error(f"no telemetry directory at {args.telemetry}")
    if args.jobs_limit < 0:
        parser.error(f"--jobs-limit must be >= 0, got {args.jobs_limit}")
    events = read_events(args.telemetry)
    jobs_limit = args.jobs_limit if args.jobs_limit else None
    print(render_trace(events, jobs_limit=jobs_limit))
    if args.jsonl is not None:
        count = write_merged(events, args.jsonl)
        print(f"wrote {count} merged events to {args.jsonl}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.verbose:
        configure_logging()
    # Progress lines (stats ticker, per-cell completions) are routed
    # through the repro.progress logger; --quiet raises its level.
    configure_progress_logging(quiet=getattr(args, "quiet", False))

    engine = getattr(args, "engine", None)
    if engine is not None:
        # Govern this process and any worker processes the runner spawns.
        set_default_engine(engine)
        os.environ[ENV_ENGINE] = engine
    else:
        # Surface a bad REPRO_SIM_ENGINE as a CLI error up front instead of
        # a traceback from deep inside the run (or from every worker).
        try:
            default_engine()
        except ValueError as error:
            parser.error(str(error))

    flag_jobs = getattr(args, "jobs", None)
    flag_cache_dir = getattr(args, "cache_dir", None)
    # Configure the runner whenever parallelism/caching is requested via a
    # flag *or* the environment: REPRO_JOBS/REPRO_CACHE_DIR alone must not
    # silently fall through to the lazy default path (which a library call
    # may already have initialised by the time experiments run).
    if (
        flag_jobs is not None
        or flag_cache_dir
        or os.environ.get(ENV_JOBS)
        or os.environ.get(ENV_CACHE_DIR)
    ):
        if flag_jobs is not None and flag_jobs < 0:
            parser.error(f"--jobs must be >= 0, got {flag_jobs}")
        # A flag that was not given keeps its environment-variable default,
        # so e.g. REPRO_JOBS=8 plus --cache-dir still runs parallel.
        if flag_jobs is not None:
            jobs = flag_jobs
        else:
            try:
                jobs = jobs_from_env()
            except ValueError as error:
                parser.error(str(error))
        cache_dir = flag_cache_dir or os.environ.get(ENV_CACHE_DIR) or None
        base.configure_runner(jobs=jobs, cache_dir=cache_dir)

    if args.command == "list":
        width = max(len(name) for name in EXPERIMENTS)
        for name in sorted(EXPERIMENTS):
            description, _runner = EXPERIMENTS[name]
            print(f"{name.ljust(width)}  {description}")
        return 0

    if args.command == "run":
        _description, runner = EXPERIMENTS[args.experiment]
        print(runner(args.scale, args.seed))
        return 0

    if args.command == "all":
        for name in sorted(EXPERIMENTS):
            _description, runner = EXPERIMENTS[name]
            print(f"===== {name} =====")
            print(runner(args.scale, args.seed))
            print()
        return 0

    if args.command == "scenario":
        if args.list_scenarios or args.name is None:
            width = max(len(spec.name) for spec in all_scenarios())
            for spec in all_scenarios():
                print(f"{spec.name.ljust(width)}  {spec.description}")
            return 0
        try:
            spec = get_scenario(args.name)
        except KeyError as error:
            parser.error(str(error.args[0]))
        if args.reps is not None and args.reps < 1:
            parser.error(f"--reps must be >= 1, got {args.reps}")
        if args.profile:
            if args.substrate != "rounds":
                parser.error(
                    "--profile is a round-engine instrument; drop "
                    "--substrate swarm"
                )
            return _profile_scenario(spec, args.scale, args.seed)
        scenario_sweep = _experiment_module("scenario_sweep")
        if args.substrate == "swarm":
            swarm_result = scenario_sweep.run_swarm(
                scale=args.scale,
                seed=args.seed,
                scenarios=[args.name],
                repetitions=args.reps,
            )
            print(scenario_sweep.render_swarm(swarm_result))
        else:
            result = scenario_sweep.run(
                scale=args.scale,
                seed=args.seed,
                scenarios=[args.name],
                repetitions=args.reps,
            )
            print(scenario_sweep.render(result))
        runner_stats = base.experiment_runner()
        if runner_stats.cache is not None:
            print(
                f"cache: {runner_stats.cache_hits} hits, "
                f"{runner_stats.cache_misses} misses "
                f"({runner_stats.jobs_executed} simulated)"
            )
        return 0

    if args.command == "atlas":
        from repro.core.design_space import parse_axes

        atlas_experiment = _experiment_module("atlas")
        axes = None
        if args.protocol_axes is not None:
            try:
                axes = parse_axes(args.protocol_axes)
            except ValueError as error:
                parser.error(str(error))
        scenarios = None
        if args.scenarios is not None:
            scenarios = [
                name.strip() for name in args.scenarios.split(",") if name.strip()
            ]
            if not scenarios:
                parser.error("--scenarios names no scenarios")
        if args.reps is not None and args.reps < 1:
            parser.error(f"--reps must be >= 1, got {args.reps}")
        # Resolve the whole declaration up front: unknown scenarios and grid
        # validation problems are usage errors, while failures inside the
        # run itself keep their tracebacks.
        try:
            spec = atlas_experiment.make_spec(
                scale=args.scale,
                seed=args.seed,
                scenarios=scenarios,
                axes=axes,
                repetitions=args.reps,
            )
        except KeyError as error:
            parser.error(str(error.args[0]))
        except ValueError as error:
            parser.error(str(error))
        if args.substrate == "swarm":
            if args.profile:
                parser.error(
                    "--profile is a round-engine instrument; drop "
                    "--substrate swarm"
                )
            outcome = atlas_experiment.run_swarm(spec=spec)
            print(atlas_experiment.render_swarm(outcome))
        else:
            outcome = atlas_experiment.run(spec=spec, profile=args.profile)
            print(atlas_experiment.render(outcome))
        if args.csv is not None:
            with open(args.csv, "w", encoding="utf-8") as handle:
                handle.write(outcome.csv())
            print(f"wrote {args.csv}")
        return 0

    if args.command == "serve":
        return _serve(parser, args)

    if args.command == "submit":
        return _submit(parser, args)

    if args.command == "status":
        return _status(parser, args)

    if args.command == "trace":
        return _trace(parser, args)

    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
