"""The benchmark's own in-memory span tracer.

A span records a name, a start and end time (``perf_counter`` seconds)
and the index of the span that was open when it started.  Spans nest
strictly — the harness is single-threaded on the driving side — so the
open spans form a stack.  A span's *self time* is its duration minus the
part of it its child spans cover; summing self times over every span
under a root therefore reproduces the root's duration, which is how the
benchmark attributes a pass's wall-clock to layers.

Spans stay in memory while a run measures and are written out once, when
it ends (:meth:`Tracer.write`), so tracing costs no I/O inside a pass.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union


@dataclass
class Span:
    name: str
    start: float
    end: Optional[float]
    parent: Optional[int]

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start


class Tracer:
    """Collects nested spans in memory."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = Span(name, perf_counter(), None, parent)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record.end = perf_counter()
            self._stack.pop()

    def wrap(self, function, name: str):
        """``function`` with every call recorded as a span called ``name``."""

        def traced(*args, **kwargs):
            with self.span(name):
                return function(*args, **kwargs)

        return traced

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def children(self) -> Dict[int, List[int]]:
        tree: Dict[int, List[int]] = {}
        for index, span in enumerate(self.spans):
            if span.parent is not None:
                tree.setdefault(span.parent, []).append(index)
        return tree

    def descendants(self, root: int) -> List[int]:
        """``root`` and every span below it."""
        tree = self.children()
        found, frontier = [], [root]
        while frontier:
            index = frontier.pop()
            found.append(index)
            frontier.extend(tree.get(index, ()))
        return sorted(found)

    def self_time(self, index: int, tree: Optional[Dict[int, List[int]]] = None) -> float:
        """Duration of span ``index`` minus the union of its children's intervals."""
        tree = self.children() if tree is None else tree
        span = self.spans[index]
        intervals = sorted(
            (max(self.spans[c].start, span.start), min(self.spans[c].end, span.end))
            for c in tree.get(index, ())
        )
        covered, cursor = 0.0, span.start
        for start, end in intervals:
            start = max(start, cursor)
            if end > start:
                covered += end - start
                cursor = end
        return span.duration - covered

    def self_times(self, root: int) -> Dict[str, float]:
        """Self time per span name over ``root`` and everything below it."""
        tree = self.children()
        totals: Dict[str, float] = {}
        for index in self.descendants(root):
            name = self.spans[index].name
            totals[name] = totals.get(name, 0.0) + self.self_time(index, tree)
        return totals

    def durations(self, name: str, root: Optional[int] = None) -> List[float]:
        indices = range(len(self.spans)) if root is None else self.descendants(root)
        return [self.spans[i].duration for i in indices if self.spans[i].name == name]

    def nesting_violations(self) -> List[Tuple[int, int]]:
        """(child, parent) pairs whose child interval leaks out of its parent."""
        bad = []
        for index, span in enumerate(self.spans):
            if span.parent is None:
                continue
            parent = self.spans[span.parent]
            if span.end is None or parent.end is None:
                bad.append((index, span.parent))
            elif span.start < parent.start or span.end > parent.end:
                bad.append((index, span.parent))
        return bad

    def write(self, path: Union[str, Path]) -> None:
        """Write every span as one JSON line (name, start, end, parent)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": span.parent,
                        }
                    )
                    + "\n"
                )


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) of ``values`` by linear interpolation; 0 if empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)
