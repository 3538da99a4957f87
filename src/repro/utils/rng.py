"""Deterministic random-number management.

Every stochastic component in the library draws randomness from a
``random.Random`` or ``numpy.random.Generator`` instance that is derived from
an explicit seed.  Nothing in the library touches the global random state, so
experiments are reproducible bit-for-bit given a seed, and independent
simulation runs can be derived from a single master seed without correlation.

The helpers here implement a simple, stable seed-derivation scheme based on
hashing the parent seed together with a string "path" (for example
``"pra/robustness/protocol-1732/run-3"``).  Hashing with :mod:`hashlib` is
used instead of Python's built-in :func:`hash` because the latter is salted
per process and therefore not reproducible across runs.
"""

from __future__ import annotations

import hashlib
import random
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # numpy is imported only when a numpy generator is asked for
    import numpy as np

__all__ = ["derive_seed", "spawn_rng", "spawn_numpy_rng", "RngFactory"]

#: Upper bound (exclusive) for derived seeds.  Chosen to fit comfortably in
#: both Python ints and numpy's ``SeedSequence`` entropy words.
_SEED_SPACE = 2**63


def derive_seed(master_seed: int, path: str) -> int:
    """Derive a child seed from ``master_seed`` and a label ``path``.

    The derivation is deterministic across processes and Python versions.

    Parameters
    ----------
    master_seed:
        The parent seed.  Any integer is accepted (negative values are
        folded into the positive range).
    path:
        A label identifying the consumer of the child seed, e.g.
        ``"performance/protocol-17/run-4"``.

    Returns
    -------
    int
        A non-negative integer strictly less than ``2**63``.
    """
    digest = hashlib.sha256(f"{int(master_seed)}::{path}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % _SEED_SPACE


def spawn_rng(master_seed: int, path: str) -> random.Random:
    """Return a :class:`random.Random` seeded from ``master_seed`` and ``path``."""
    return random.Random(derive_seed(master_seed, path))


def spawn_numpy_rng(master_seed: int, path: str) -> np.random.Generator:
    """Return a numpy :class:`~numpy.random.Generator` derived from the seed path."""
    import numpy as np

    return np.random.default_rng(derive_seed(master_seed, path))


class RngFactory:
    """Factory producing independent random generators from one master seed.

    The factory remembers the master seed and hands out child generators
    keyed by string paths.  Asking twice for the same path returns
    *independently seeded but identically initialised* generators, which is
    the property experiment code relies on for reproducibility.

    Examples
    --------
    >>> factory = RngFactory(42)
    >>> r1 = factory.random("run-0")
    >>> r2 = factory.random("run-0")
    >>> r1.random() == r2.random()
    True
    >>> factory.seed_for("run-0") != factory.seed_for("run-1")
    True
    """

    def __init__(self, master_seed: int):
        self._master_seed = int(master_seed)

    @property
    def master_seed(self) -> int:
        """The master seed this factory derives everything from."""
        return self._master_seed

    def seed_for(self, path: str) -> int:
        """Return the derived integer seed for ``path``."""
        return derive_seed(self._master_seed, path)

    def random(self, path: str) -> random.Random:
        """Return a ``random.Random`` for ``path``."""
        return spawn_rng(self._master_seed, path)

    def numpy(self, path: str) -> np.random.Generator:
        """Return a numpy ``Generator`` for ``path``."""
        return spawn_numpy_rng(self._master_seed, path)

    def child(self, path: str) -> "RngFactory":
        """Return a new factory whose master seed is derived from ``path``.

        Useful for handing a whole sub-experiment its own seed namespace.
        """
        return RngFactory(self.seed_for(path))

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"RngFactory(master_seed={self._master_seed})"


def coerce_rng(rng: Optional[random.Random], seed: Optional[int] = None) -> random.Random:
    """Return ``rng`` if given, else a new ``random.Random`` seeded with ``seed``.

    This is the conventional argument-normalisation helper used by simulator
    entry points that accept either an explicit generator or a seed.
    """
    if rng is not None:
        return rng
    return random.Random(seed)
