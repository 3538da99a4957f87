"""JSON serialization helpers for experiment results.

Experiment drivers persist intermediate results (for example the PRA study
shared by Figures 2-8 and Table 3) as JSON so repeated figure generation does
not repeat the expensive sweep.  The helpers here convert the dataclass /
numpy-laden result objects used internally into plain JSON-compatible
structures and back.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from enum import Enum
from pathlib import Path
from typing import Any, Union

__all__ = ["to_jsonable", "dump_json", "load_json"]


def to_jsonable(obj: Any) -> Any:
    """Recursively convert ``obj`` into JSON-serialisable builtins.

    Handles dataclasses, enums, numpy scalars and arrays, mappings, sets and
    sequences.  Unknown objects are passed through unchanged (``json.dump``
    will raise if they are genuinely unserialisable, which is the desired
    loud failure).
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, Enum):
        return obj.value
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            field.name: to_jsonable(getattr(obj, field.name))
            for field in dataclasses.fields(obj)
        }
    # A process that never imported numpy holds no numpy values.
    np = sys.modules.get("numpy")
    if np is not None:
        if isinstance(obj, np.ndarray):
            return [to_jsonable(x) for x in obj.tolist()]
        if isinstance(obj, np.integer):
            return int(obj)
        if isinstance(obj, np.floating):
            return float(obj)
        if isinstance(obj, np.bool_):
            return bool(obj)
    if isinstance(obj, dict):
        return {str(key): to_jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [to_jsonable(x) for x in obj]
    if isinstance(obj, Path):
        return str(obj)
    return obj


def dump_json(obj: Any, path: Union[str, Path], indent: int = 2) -> Path:
    """Serialise ``obj`` to JSON at ``path``, creating parent directories.

    Returns the path written, as a :class:`~pathlib.Path`.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w", encoding="utf-8") as handle:
        json.dump(to_jsonable(obj), handle, indent=indent, sort_keys=True)
        handle.write("\n")
    return target


def load_json(path: Union[str, Path]) -> Any:
    """Load JSON from ``path`` and return the parsed structure."""
    with Path(path).open("r", encoding="utf-8") as handle:
        return json.load(handle)
