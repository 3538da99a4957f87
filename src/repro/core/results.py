"""Result containers for PRA studies.

A :class:`PRAStudyResult` holds, for every protocol in a study, its
(normalised) Performance, Robustness and Aggressiveness values together with
the protocol's design-space coordinates.  It is the single data structure
consumed by every Section 4.4 figure and by the Table 3 regression, and it is
JSON round-trippable so an expensive sweep can be persisted and re-analysed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.protocol import Protocol
from repro.utils.serialization import dump_json, load_json

__all__ = ["PRAStudyResult"]


@dataclass
class PRAStudyResult:
    """Per-protocol PRA scores plus study metadata.

    All score dictionaries are keyed by :attr:`Protocol.key`.
    """

    protocols: List[Protocol]
    performance_raw: Dict[str, float]
    performance: Dict[str, float]
    robustness: Dict[str, float]
    aggressiveness: Dict[str, float]
    metadata: Dict[str, object] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.protocols)

    def protocol_by_key(self, key: str) -> Protocol:
        """Return the protocol with the given key (raises ``KeyError`` if absent)."""
        for protocol in self.protocols:
            if protocol.key == key:
                return protocol
        raise KeyError(key)

    def keys(self) -> List[str]:
        """Protocol keys in study order."""
        return [p.key for p in self.protocols]

    def scores_of(self, key: str) -> Tuple[float, float, float]:
        """``(performance, robustness, aggressiveness)`` of one protocol."""
        return (
            self.performance[key],
            self.robustness[key],
            self.aggressiveness[key],
        )

    def rows(self) -> List[Dict[str, object]]:
        """One flat record per protocol (coordinates + scores), for tables/regression."""
        records: List[Dict[str, object]] = []
        for protocol in self.protocols:
            record: Dict[str, object] = {"key": protocol.key, "label": protocol.label}
            record.update(protocol.coordinates())
            record["performance"] = self.performance[protocol.key]
            record["robustness"] = self.robustness[protocol.key]
            record["aggressiveness"] = self.aggressiveness[protocol.key]
            records.append(record)
        return records

    # ------------------------------------------------------------------ #
    # rankings and summary statistics used by the Section 4.4 narrative
    # ------------------------------------------------------------------ #
    def _ranked(self, scores: Dict[str, float]) -> List[Tuple[str, float]]:
        return sorted(scores.items(), key=lambda item: item[1], reverse=True)

    def top_by_performance(self, count: int = 10) -> List[Tuple[str, float]]:
        """The ``count`` best-performing protocols as ``(key, score)`` pairs."""
        return self._ranked(self.performance)[:count]

    def top_by_robustness(self, count: int = 10) -> List[Tuple[str, float]]:
        """The ``count`` most robust protocols as ``(key, score)`` pairs."""
        return self._ranked(self.robustness)[:count]

    def top_by_aggressiveness(self, count: int = 10) -> List[Tuple[str, float]]:
        """The ``count`` most aggressive protocols as ``(key, score)`` pairs."""
        return self._ranked(self.aggressiveness)[:count]

    def rank_of(self, key: str, measure: str = "performance") -> int:
        """1-based rank of a protocol under the given measure."""
        scores = getattr(self, measure)
        if key not in scores:
            raise KeyError(key)
        ranked = self._ranked(scores)
        for position, (candidate, _score) in enumerate(ranked, start=1):
            if candidate == key:
                return position
        raise KeyError(key)  # pragma: no cover - unreachable

    def robustness_aggressiveness_correlation(self) -> float:
        """Pearson correlation between robustness and aggressiveness (Figure 8)."""
        from repro.stats.correlation import pearson_correlation  # loads numpy

        keys = self.keys()
        return pearson_correlation(
            [self.robustness[k] for k in keys],
            [self.aggressiveness[k] for k in keys],
        )

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly representation of the whole study."""
        return {
            "protocols": [p.as_dict() for p in self.protocols],
            "performance_raw": self.performance_raw,
            "performance": self.performance,
            "robustness": self.robustness,
            "aggressiveness": self.aggressiveness,
            "metadata": self.metadata,
        }

    def save(self, path: Union[str, Path]) -> Path:
        """Persist the study result as JSON."""
        return dump_json(self.to_dict(), path)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "PRAStudyResult":
        """Inverse of :meth:`to_dict`."""
        protocols = [Protocol.from_dict(p) for p in data["protocols"]]
        return cls(
            protocols=protocols,
            performance_raw={str(k): float(v) for k, v in data["performance_raw"].items()},
            performance={str(k): float(v) for k, v in data["performance"].items()},
            robustness={str(k): float(v) for k, v in data["robustness"].items()},
            aggressiveness={str(k): float(v) for k, v in data["aggressiveness"].items()},
            metadata=dict(data.get("metadata", {})),
        )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "PRAStudyResult":
        """Load a study result previously written by :meth:`save`."""
        return cls.from_dict(load_json(path))
