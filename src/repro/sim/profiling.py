"""Per-phase wall-clock instrumentation for the simulation engines.

The engines' hot loops are linear pipelines (population churn -> decision
-> allocation -> transfer -> metrics), so the profiler is built around a
*split timer*: :meth:`PhaseProfiler.tick` marks a reference point and each
:meth:`PhaseProfiler.lap` charges the elapsed time since the previous
mark to a named phase.  Scoped blocks outside a linear flow can use the
:meth:`PhaseProfiler.phase` context manager instead; both styles
accumulate into the same per-phase table.

Phase names are free-form.  Dotted names (``"decision.rank"``) denote
sub-phases: they roll up into their top-level phase in
:meth:`PhaseProfiler.top_level`, which reporting surfaces use for the
coarse (churn / decision / allocation / transfer / metrics) breakdown
while keeping the fine-grained attribution available.

Near-zero overhead when disabled
--------------------------------
Engines never branch on a ``profile`` flag in the hot loop; they call the
profiler unconditionally.  A disabled run is handed :data:`NULL_PROFILER`,
whose methods are no-op stubs — the per-round cost is a handful of empty
method calls, unmeasurable against even a 1000-rounds/sec engine.  Use
:func:`profiler_for` to pick the implementation from a boolean.

The machine-readable payload (:meth:`PhaseProfiler.as_payload`) is what
``BENCH_population.json`` entries, the ``--profile`` CLI surfaces and the
sweep/atlas reports embed, so a regression can always be attributed to a
phase after the fact.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterable, Mapping, Optional, Sequence

__all__ = [
    "CANONICAL_PHASES",
    "NULL_PROFILER",
    "NullProfiler",
    "PhaseProfiler",
    "aggregate_phases",
    "payload_seconds",
    "phases_payload",
    "profile_seconds_of",
    "profiler_for",
    "render_phases",
    "top_level_phases",
]

#: Canonical engine phases, in pipeline order.  Engines may emit any subset
#: (the fast engine fuses decision+transfer for long history windows) and
#: may refine them with dotted sub-phases; reporting orders known phases
#: first and appends unknown names alphabetically.
CANONICAL_PHASES = ("churn", "decision", "allocation", "transfer", "metrics")

#: Legacy phase names still emitted by the pure-python engines, mapped to
#: their canonical successors for mixed-engine reports.
LEGACY_PHASE_ALIASES = {"population": "churn"}


def _phase_sort_key(name: str):
    top = name.split(".", 1)[0]
    try:
        rank = CANONICAL_PHASES.index(top)
    except ValueError:
        rank = len(CANONICAL_PHASES)
    return (rank, name)


def top_level_phases(seconds: Mapping[str, float]) -> Dict[str, float]:
    """Roll dotted sub-phases up into their top-level phase.

    ``{"decision.rank": 1.0, "decision.select": 0.5}`` becomes
    ``{"decision": 1.5}``; legacy names are translated via
    :data:`LEGACY_PHASE_ALIASES`.
    """
    rolled: Dict[str, float] = {}
    for name, value in seconds.items():
        top = name.split(".", 1)[0]
        top = LEGACY_PHASE_ALIASES.get(top, top)
        rolled[top] = rolled.get(top, 0.0) + value
    return dict(sorted(rolled.items(), key=lambda kv: _phase_sort_key(kv[0])))


def aggregate_phases(
    breakdowns: Iterable[Mapping[str, float]],
) -> Dict[str, float]:
    """Sum several phase tables into one (for sweep/atlas roll-ups)."""
    total: Dict[str, float] = {}
    for breakdown in breakdowns:
        for name, value in breakdown.items():
            total[name] = total.get(name, 0.0) + value
    return dict(sorted(total.items(), key=lambda kv: _phase_sort_key(kv[0])))


def profile_seconds_of(simulation) -> Dict[str, float]:
    """The finest-grained phase table a profiled engine exposes.

    The vec engine records dotted sub-phases on its ``profiler``; the
    pure-python engines keep a flat ``phase_seconds`` dict (whose
    ``phase_seconds`` property on the vec engine would collapse the
    sub-phase attribution).  Returns a copy.
    """
    profiler = getattr(simulation, "profiler", None)
    if profiler is not None:
        return dict(profiler.seconds)
    return dict(simulation.phase_seconds)


def phases_payload(
    seconds: Mapping[str, float], rounds: Optional[int] = None
) -> dict:
    """Machine-readable breakdown of a phase table.

    The common serialisation for bench entries, ``--profile`` CLI output
    and sweep/atlas run reports: top-level roll-ups under ``"phases"``,
    dotted sub-phases (when present) under ``"subphases"``, and a
    per-round normalisation when ``rounds`` is known.  Works on any phase
    mapping — a :class:`PhaseProfiler`'s ``seconds`` or the plain
    ``phase_seconds`` dict of the pure-python engines.
    """
    rolled = top_level_phases(seconds)
    payload = {
        "phases": {name: round(value, 6) for name, value in rolled.items()},
        "total_seconds": round(sum(seconds.values()), 6),
    }
    fine = {
        name: round(value, 6)
        for name, value in sorted(
            seconds.items(), key=lambda kv: _phase_sort_key(kv[0])
        )
        if "." in name
    }
    if fine:
        payload["subphases"] = fine
    if rounds:
        payload["rounds"] = rounds
        payload["ms_per_round"] = {
            name: round(value / rounds * 1e3, 4)
            for name, value in rolled.items()
        }
    return payload


def payload_seconds(payload: Mapping) -> Dict[str, float]:
    """Reconstruct the finest-grained seconds table from a phase payload.

    Inverse of :func:`phases_payload` for rendering/aggregation: dotted
    sub-phases replace their share of the top-level roll-up so nothing is
    double-counted when the table is rolled up again.
    """
    seconds: Dict[str, float] = dict(payload["phases"])
    for name, value in payload.get("subphases", {}).items():
        top = name.split(".", 1)[0]
        if top in seconds:
            seconds[top] = max(0.0, seconds[top] - value)
        seconds[name] = value
    return seconds


def render_phases(
    seconds: Mapping[str, float],
    rounds: Optional[int] = None,
    indent: str = "",
) -> str:
    """Fixed-width text table of a phase breakdown.

    ``rounds`` adds a ms/round column; shares are of the summed phases.
    Dotted sub-phases are listed under their top-level roll-up.
    """
    rolled = top_level_phases(seconds)
    total = sum(rolled.values())
    subs: Dict[str, Dict[str, float]] = {}
    for name, value in seconds.items():
        if "." in name:
            top, sub = name.split(".", 1)
            top = LEGACY_PHASE_ALIASES.get(top, top)
            subs.setdefault(top, {})[sub] = value

    per_round = f" {'ms/round':>9}" if rounds else ""
    lines = [f"{indent}{'phase':<22} {'seconds':>9}{per_round} {'share':>7}"]

    def row(label: str, value: float, width: int = 22) -> str:
        share = value / total if total > 0 else 0.0
        cells = f"{indent}{label:<{width}} {value:>9.4f}"
        if rounds:
            cells += f" {value / rounds * 1e3:>9.3f}"
        return cells + f" {share:>6.1%}"

    for name, value in rolled.items():
        lines.append(row(name, value))
        for sub, sub_value in sorted(subs.get(name, {}).items()):
            lines.append(row(f"  .{sub}", sub_value))
    lines.append(row("total", total))
    return "\n".join(lines)


class PhaseProfiler:
    """Accumulates wall-clock seconds per named phase.

    Two usage styles, freely mixed::

        prof.tick()                 # linear flows: mark, then lap
        churn_step()
        prof.lap("churn")
        decide()
        prof.lap("decision")

        with prof.phase("metrics"):  # scoped blocks
            build_records()
    """

    __slots__ = ("seconds", "_mark")

    #: Real profiler; :class:`NullProfiler` overrides this to ``False`` so
    #: engines can skip building auxiliary diagnostics when disabled.
    enabled = True

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self._mark = perf_counter()

    def tick(self) -> None:
        """Set the reference point for the next :meth:`lap`."""
        self._mark = perf_counter()

    def lap(self, name: str) -> None:
        """Charge the time since the last mark to ``name`` and re-mark."""
        now = perf_counter()
        self.seconds[name] = self.seconds.get(name, 0.0) + (now - self._mark)
        self._mark = now

    @contextmanager
    def phase(self, name: str):
        """Scoped alternative to tick/lap; does not disturb the mark."""
        start = perf_counter()
        try:
            yield
        finally:
            elapsed = perf_counter() - start
            self.seconds[name] = self.seconds.get(name, 0.0) + elapsed

    def add(self, name: str, value: float) -> None:
        self.seconds[name] = self.seconds.get(name, 0.0) + value

    def merge(self, other: Mapping[str, float]) -> None:
        """Fold another phase table (or profiler ``.seconds``) into this one."""
        for name, value in other.items():
            self.add(name, value)

    def total(self) -> float:
        return sum(self.seconds.values())

    def top_level(self) -> Dict[str, float]:
        return top_level_phases(self.seconds)

    def as_payload(self, rounds: Optional[int] = None) -> dict:
        """Machine-readable breakdown for bench entries and run reports."""
        return phases_payload(self.seconds, rounds=rounds)

    def render(self, rounds: Optional[int] = None, indent: str = "") -> str:
        return render_phases(self.seconds, rounds=rounds, indent=indent)


class NullProfiler(PhaseProfiler):
    """No-op profiler handed to unprofiled runs; every method is a stub."""

    __slots__ = ()

    enabled = False

    def tick(self) -> None:
        pass

    def lap(self, name: str) -> None:
        pass

    @contextmanager
    def phase(self, name: str):
        yield

    def add(self, name: str, value: float) -> None:
        pass

    def merge(self, other: Mapping[str, float]) -> None:
        pass


#: Shared no-op instance; its ``seconds`` stays empty by construction, so
#: sharing one across every unprofiled simulation is safe.
NULL_PROFILER = NullProfiler()


def profiler_for(enabled: bool) -> PhaseProfiler:
    """A fresh recording profiler, or the shared no-op one."""
    return PhaseProfiler() if enabled else NULL_PROFILER
