"""Engine-level workload dynamics: churn waves and behaviour shifts.

The scenario subsystem (:mod:`repro.scenarios`) describes dynamic and
adversarial workloads declaratively; this module holds the *compiled* form
those descriptions reduce to — plain, hashable value types the simulation
engine executes directly:

* :class:`ChurnWave` — a window of rounds with elevated departures, either
  *independent* (an extra per-peer departure probability layered on top of
  the base ``churn_rate``) or *correlated* (an exact fraction of the swarm
  replaced together each wave round, modelling flash crowds and
  failure bursts);
* :class:`BehaviorShift` — at a given round, a fixed set of peers switches
  to a new :class:`~repro.sim.behavior.PeerBehavior` (free-rider waves,
  colluding groups switching on);
* :class:`ScenarioDynamics` — the bundle attached to a
  :class:`~repro.sim.config.SimulationConfig`, optionally also pinning the
  initial per-peer upload capacities (heterogeneous class populations).

On top of the fixed-slot dynamics this module also defines the
*variable-population* primitives.  Both kinds are executed by the population
step of the replica engines
(:class:`~repro.sim.population.PopulationSimulation` and its optimised
subclass) and by the vec engine:

* :class:`ArrivalProcess` — how genuinely new identities enter the swarm
  mid-run (Poisson stream, a scheduled flash batch, or whitewash rejoins
  where departing peers immediately re-enter under fresh identities);
* :class:`DepartureProcess` — how identities leave (true departures that
  shrink the active set, or the legacy replacement semantics that keep the
  population size fixed);
* :class:`PopulationDynamics` — the bundle attached to
  :class:`~repro.sim.config.SimulationConfig.population`.

All types are frozen, hashable and JSON round-trippable, so a configured
dynamics bundle participates in the runner's content-addressed result cache
exactly like every other simulation parameter.  A config whose ``dynamics``
and ``population`` are ``None`` executes plain replacement churn —
bit-identical to the frozen seed engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.sim.behavior import PeerBehavior

__all__ = [
    "ChurnWave",
    "BehaviorShift",
    "ScenarioDynamics",
    "ArrivalProcess",
    "DepartureProcess",
    "PopulationDynamics",
    "ARRIVAL_PROCESS_KINDS",
    "DEPARTURE_MODES",
]

#: Arrival-process kinds understood by the variable-population engine.
ARRIVAL_PROCESS_KINDS = ("none", "poisson", "flash", "whitewash")

#: Departure modes: true departures vs legacy identity replacement.
DEPARTURE_MODES = ("shrink", "replace")


@dataclass(frozen=True)
class ChurnWave:
    """A window of rounds with elevated churn.

    Parameters
    ----------
    start:
        First round of the wave (0-based, inclusive).
    rounds:
        Number of consecutive rounds the wave lasts.
    intensity:
        For an independent wave, the extra per-peer departure probability
        during each wave round; for a correlated wave, the exact fraction of
        the swarm replaced together each wave round.
    correlated:
        Whether departures are drawn as one correlated batch (flash crowd /
        correlated failure) instead of independent per-peer coin flips.
    """

    start: int
    rounds: int = 1
    intensity: float = 0.1
    correlated: bool = False

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError("start must be >= 0")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.correlated:
            if not 0.0 < self.intensity <= 1.0:
                raise ValueError("correlated intensity must be in (0, 1]")
        elif not 0.0 < self.intensity < 1.0:
            raise ValueError("independent intensity must be in (0, 1)")

    def covers(self, round_index: int) -> bool:
        """Whether ``round_index`` falls inside this wave."""
        return self.start <= round_index < self.start + self.rounds

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly representation."""
        return {
            "start": self.start,
            "rounds": self.rounds,
            "intensity": self.intensity,
            "correlated": self.correlated,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ChurnWave":
        """Inverse of :meth:`as_dict`."""
        return cls(
            start=int(data["start"]),
            rounds=int(data["rounds"]),
            intensity=float(data["intensity"]),
            correlated=bool(data["correlated"]),
        )


@dataclass(frozen=True)
class BehaviorShift:
    """A set of peers switching behaviour at a fixed round.

    The shift is applied at the *start* of ``round`` (before churn and
    decisions), so the new behaviour governs that round's decisions.  The
    affected peers keep their identity, history and capacity — only the
    protocol they execute (and optionally their group label) changes.
    """

    round: int
    peer_ids: Tuple[int, ...]
    behavior: PeerBehavior
    group: Optional[str] = None

    def __post_init__(self) -> None:
        if self.round < 0:
            raise ValueError("round must be >= 0")
        if not isinstance(self.peer_ids, tuple):
            object.__setattr__(self, "peer_ids", tuple(self.peer_ids))
        if not self.peer_ids:
            raise ValueError("a behavior shift needs at least one peer id")
        if len(set(self.peer_ids)) != len(self.peer_ids):
            raise ValueError("peer_ids must be distinct")
        if min(self.peer_ids) < 0:
            raise ValueError("peer ids must be >= 0")

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly representation."""
        return {
            "round": self.round,
            "peer_ids": list(self.peer_ids),
            "behavior": self.behavior.as_dict(),
            "group": self.group,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "BehaviorShift":
        """Inverse of :meth:`as_dict`."""
        group = data.get("group")
        return cls(
            round=int(data["round"]),
            peer_ids=tuple(int(p) for p in data["peer_ids"]),
            behavior=PeerBehavior.from_dict(data["behavior"]),
            group=str(group) if group is not None else None,
        )


@dataclass(frozen=True)
class ScenarioDynamics:
    """The compiled dynamics of one scenario, as executed by the engine.

    Parameters
    ----------
    initial_capacities:
        Optional explicit per-peer upload capacities (length ``n_peers``).
        When given, the engine uses them verbatim instead of sampling from
        the bandwidth distribution — heterogeneous class populations get
        exact class shares rather than probabilistic ones.  Churn
        replacements still sample from the configured distribution.
    churn_waves:
        Churn waves layered on top of the base ``churn_rate``.  Waves may
        overlap; independent intensities add, and every correlated wave
        covering a round triggers its own batch replacement.
    behavior_shifts:
        Behaviour switches applied at the start of their round.
    """

    initial_capacities: Optional[Tuple[float, ...]] = None
    churn_waves: Tuple[ChurnWave, ...] = ()
    behavior_shifts: Tuple[BehaviorShift, ...] = ()

    def __post_init__(self) -> None:
        if self.initial_capacities is not None:
            if not isinstance(self.initial_capacities, tuple):
                object.__setattr__(
                    self, "initial_capacities", tuple(self.initial_capacities)
                )
            if any(c <= 0 for c in self.initial_capacities):
                raise ValueError("initial capacities must be positive")
        if not isinstance(self.churn_waves, tuple):
            object.__setattr__(self, "churn_waves", tuple(self.churn_waves))
        if not isinstance(self.behavior_shifts, tuple):
            object.__setattr__(self, "behavior_shifts", tuple(self.behavior_shifts))

    def is_trivial(self) -> bool:
        """Whether this bundle changes nothing over the legacy path."""
        return (
            self.initial_capacities is None
            and not self.churn_waves
            and not self.behavior_shifts
        )

    # ------------------------------------------------------------------ #
    # round lookups (engine helpers)
    # ------------------------------------------------------------------ #
    def extra_rate(self, round_index: int) -> float:
        """Summed independent-wave intensity covering ``round_index``."""
        return sum(
            w.intensity
            for w in self.churn_waves
            if not w.correlated and w.covers(round_index)
        )

    def correlated_fraction(self, round_index: int) -> float:
        """Summed correlated-wave fraction covering ``round_index`` (capped at 1)."""
        fraction = sum(
            w.intensity
            for w in self.churn_waves
            if w.correlated and w.covers(round_index)
        )
        return min(1.0, fraction)

    def shifts_for_round(self, round_index: int) -> List[BehaviorShift]:
        """The behaviour shifts firing at ``round_index`` (declaration order)."""
        return [s for s in self.behavior_shifts if s.round == round_index]

    def max_peer_id(self) -> int:
        """Largest peer id referenced by any shift (-1 when none are)."""
        ids = [pid for shift in self.behavior_shifts for pid in shift.peer_ids]
        return max(ids) if ids else -1

    # ------------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------------ #
    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly representation (round-trips via :meth:`from_dict`)."""
        return {
            "initial_capacities": (
                list(self.initial_capacities)
                if self.initial_capacities is not None
                else None
            ),
            "churn_waves": [w.as_dict() for w in self.churn_waves],
            "behavior_shifts": [s.as_dict() for s in self.behavior_shifts],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ScenarioDynamics":
        """Inverse of :meth:`as_dict`."""
        capacities = data.get("initial_capacities")
        return cls(
            initial_capacities=(
                tuple(float(c) for c in capacities) if capacities is not None else None
            ),
            churn_waves=tuple(
                ChurnWave.from_dict(w) for w in data.get("churn_waves", ())
            ),
            behavior_shifts=tuple(
                BehaviorShift.from_dict(s) for s in data.get("behavior_shifts", ())
            ),
        )


# ---------------------------------------------------------------------- #
# variable-population primitives
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class ArrivalProcess:
    """How genuinely new identities enter the swarm mid-run.

    Parameters
    ----------
    kind:
        ``"none"`` — no arrivals;
        ``"poisson"`` — a Poisson stream with expectation ``rate`` arrivals
        per round (independent across rounds);
        ``"flash"`` — a scheduled batch of ``count`` arrivals starting at
        round ``start``, spread evenly over ``duration`` rounds (a flash
        crowd of genuine newcomers, not identity replacements);
        ``"whitewash"`` — no exogenous arrivals; instead each *departing*
        peer immediately re-enters under a fresh identity with probability
        ``rate`` (Sybil-style whitewashing: same node, same capacity and
        behaviour, but a blank reputation).
    rate:
        Poisson: expected arrivals per round (> 0).  Whitewash: probability
        in (0, 1] that a departure rejoins under a new identity.
    start:
        First round arrivals may occur (flash: the batch round).
    count:
        Flash only: total number of arrivals in the batch.
    duration:
        Flash only: number of rounds the batch is spread over.
    behavior, group:
        Behaviour/group label given to newcomers.  ``None`` (the default)
        cycles newcomers through the initial population's per-peer
        behaviour/group pattern, preserving the declared mix.
    whitewash_groups:
        Whitewash only: restrict rejoins to departures whose group label is
        in this tuple (*targeted* identity churn — e.g. only a colluder
        clique sheds its reputation; honest departures leave for good).
        Empty (the default) whitewashes every departure.
    """

    kind: str = "none"
    rate: float = 0.0
    start: int = 0
    count: int = 0
    duration: int = 1
    behavior: Optional[PeerBehavior] = None
    group: Optional[str] = None
    whitewash_groups: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ARRIVAL_PROCESS_KINDS:
            raise ValueError(
                f"unknown arrival kind {self.kind!r}; "
                f"expected one of {ARRIVAL_PROCESS_KINDS}"
            )
        if self.start < 0:
            raise ValueError("start must be >= 0")
        if self.duration < 1:
            raise ValueError("duration must be >= 1")
        if self.kind == "poisson":
            if self.rate <= 0.0:
                raise ValueError("poisson arrivals need rate > 0")
            # Fail at declaration time rather than mid-run: sample_poisson
            # rejects rates whose exp(-rate) underflows.
            from repro.sim.churn import MAX_POISSON_RATE

            if self.rate > MAX_POISSON_RATE:
                raise ValueError(
                    f"poisson arrival rate must be <= {MAX_POISSON_RATE:g} "
                    "per round (sampling would be biased beyond that)"
                )
        if self.kind == "whitewash" and not 0.0 < self.rate <= 1.0:
            raise ValueError("whitewash rate must be in (0, 1]")
        if self.kind == "flash" and self.count < 1:
            raise ValueError("flash arrivals need count >= 1")
        if not isinstance(self.whitewash_groups, tuple):
            object.__setattr__(self, "whitewash_groups", tuple(self.whitewash_groups))
        if self.whitewash_groups:
            if self.kind != "whitewash":
                raise ValueError("whitewash_groups requires kind 'whitewash'")
            if len(set(self.whitewash_groups)) != len(self.whitewash_groups):
                raise ValueError("whitewash_groups must be distinct")

    def whitewashes(self, group: str) -> bool:
        """Whether a departure from ``group`` is eligible to rejoin."""
        return not self.whitewash_groups or group in self.whitewash_groups

    def is_none(self) -> bool:
        """Whether this process never produces an arrival."""
        return self.kind == "none"

    def flash_count_for_round(self, round_index: int) -> int:
        """Scheduled flash arrivals joining at ``round_index`` (0 otherwise).

        The batch is spread as evenly as possible over ``duration`` rounds
        starting at ``start``, earlier rounds receiving the remainder.
        """
        if self.kind != "flash":
            return 0
        offset = round_index - self.start
        if not 0 <= offset < self.duration:
            return 0
        base, remainder = divmod(self.count, self.duration)
        return base + (1 if offset < remainder else 0)

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly representation."""
        data: Dict[str, object] = {
            "kind": self.kind,
            "rate": self.rate,
            "start": self.start,
            "count": self.count,
            "duration": self.duration,
            "behavior": self.behavior.as_dict() if self.behavior else None,
            "group": self.group,
        }
        # Omitted at its default so every pre-targeting fingerprint (and
        # the cache entries stored under it) stays valid.
        if self.whitewash_groups:
            data["whitewash_groups"] = list(self.whitewash_groups)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ArrivalProcess":
        """Inverse of :meth:`as_dict`."""
        behavior = data.get("behavior")
        group = data.get("group")
        return cls(
            kind=str(data["kind"]),
            rate=float(data.get("rate", 0.0)),
            start=int(data.get("start", 0)),
            count=int(data.get("count", 0)),
            duration=int(data.get("duration", 1)),
            behavior=PeerBehavior.from_dict(behavior) if behavior else None,
            group=str(group) if group is not None else None,
            whitewash_groups=tuple(
                str(g) for g in data.get("whitewash_groups", ())
            ),
        )


@dataclass(frozen=True)
class DepartureProcess:
    """How identities leave the swarm.

    Parameters
    ----------
    rate:
        Per-peer per-round departure probability (0 disables departures
        unless ``group_rates`` adds targeted ones).
    mode:
        ``"shrink"`` — departures genuinely leave and the active set
        shrinks; ``"replace"`` — the legacy semantics: the departed slot is
        immediately taken by a fresh identity with a resampled capacity,
        exactly as :func:`repro.sim.churn.apply_churn` does (the
        fixed-population churn model).
    min_active:
        Floor on the active population; once departures would push the
        active count below it, the remaining departures of that round are
        suppressed (a swarm never dissolves below a viable core).
    group_rates:
        Per-group departure-rate surcharges as sorted ``(group, extra)``
        pairs — *targeted* identity churn: peers in a named group depart
        with probability ``rate + extra``.  Shrink mode only; combined with
        a group-targeted whitewash arrival this models adversaries that
        deliberately cycle identities to shed their reputation.
    """

    rate: float = 0.0
    mode: str = "shrink"
    min_active: int = 2
    group_rates: Tuple[Tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate < 1.0:
            raise ValueError("departure rate must be in [0, 1)")
        if self.mode not in DEPARTURE_MODES:
            raise ValueError(
                f"unknown departure mode {self.mode!r}; "
                f"expected one of {DEPARTURE_MODES}"
            )
        if self.min_active < 2:
            raise ValueError("min_active must be at least 2")
        if not isinstance(self.group_rates, tuple):
            object.__setattr__(
                self, "group_rates", tuple(tuple(pair) for pair in self.group_rates)
            )
        if self.group_rates:
            if self.mode != "shrink":
                raise ValueError("group_rates require 'shrink' departures")
            groups = [group for group, _extra in self.group_rates]
            if len(set(groups)) != len(groups):
                raise ValueError("group_rates groups must be distinct")
            for group, extra in self.group_rates:
                if not 0.0 < extra < 1.0 or not self.rate + extra < 1.0:
                    raise ValueError(
                        f"group rate for {group!r} must keep the combined "
                        f"rate in (0, 1), got {self.rate} + {extra}"
                    )
            # Canonical order: fingerprints must not depend on declaration
            # order of the same targeting.
            object.__setattr__(
                self, "group_rates", tuple(sorted(self.group_rates))
            )

    def extra_rates(self) -> Optional[Dict[str, float]]:
        """The targeted surcharges as a mapping (``None`` when untargeted)."""
        if not self.group_rates:
            return None
        return dict(self.group_rates)

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly representation."""
        data: Dict[str, object] = {
            "rate": self.rate,
            "mode": self.mode,
            "min_active": self.min_active,
        }
        # Omitted at its default so pre-targeting fingerprints stay valid.
        if self.group_rates:
            data["group_rates"] = [list(pair) for pair in self.group_rates]
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "DepartureProcess":
        """Inverse of :meth:`as_dict`."""
        return cls(
            rate=float(data.get("rate", 0.0)),
            mode=str(data.get("mode", "shrink")),
            min_active=int(data.get("min_active", 2)),
            group_rates=tuple(
                (str(group), float(extra))
                for group, extra in data.get("group_rates", ())
            ),
        )


@dataclass(frozen=True)
class PopulationDynamics:
    """The variable-population bundle of one simulation.

    Attaching a non-trivial ``PopulationDynamics`` to a
    :class:`~repro.sim.config.SimulationConfig` makes the population
    variable: arrivals create genuinely new identities with fresh peer ids,
    and departures in ``"shrink"`` mode remove identities for good.
    ``max_active`` caps the active population (a tracker's capacity limit);
    0 means unbounded.

    The degenerate bundle — no arrivals, ``"replace"`` departures — is the
    fixed-population churn model expressed in this vocabulary; the engines
    run every fixed config as that bundle (at ``config.churn_rate``), and
    the differential suite proves the explicit twin reproduces the fixed
    config bit-for-bit.
    """

    arrival: ArrivalProcess = field(default_factory=ArrivalProcess)
    departure: DepartureProcess = field(default_factory=DepartureProcess)
    max_active: int = 0

    def __post_init__(self) -> None:
        if self.max_active < 0:
            raise ValueError("max_active must be >= 0 (0 means unbounded)")
        if self.arrival.kind == "whitewash" and (
            self.departure.rate <= 0.0 and not self.departure.group_rates
        ):
            raise ValueError("whitewash arrivals need a positive departure rate")
        if not self.arrival.is_none() and self.departure.mode != "shrink":
            # Replacement departures swap identities in-place per slot, so a
            # slot's record would blend several identities — incoherent next
            # to arrival records that each carry one identity's lifecycle.
            # "replace" is the fixed-population churn model, which has no
            # arrivals.
            raise ValueError(
                "arrival processes require 'shrink' departures; 'replace' "
                "mode is the degenerate no-arrival churn model"
            )

    def is_trivial(self) -> bool:
        """Whether this bundle changes nothing over the legacy path."""
        return (
            self.arrival.is_none()
            and self.departure.rate == 0.0
            and not self.departure.group_rates
        )

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly representation (round-trips via :meth:`from_dict`)."""
        return {
            "arrival": self.arrival.as_dict(),
            "departure": self.departure.as_dict(),
            "max_active": self.max_active,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "PopulationDynamics":
        """Inverse of :meth:`as_dict`."""
        return cls(
            arrival=ArrivalProcess.from_dict(data["arrival"]),
            departure=DepartureProcess.from_dict(data["departure"]),
            max_active=int(data.get("max_active", 0)),
        )
