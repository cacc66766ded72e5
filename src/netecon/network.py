"""Stochastic input-output networks: constructors and validation.

The wiring of the firm economy is a row-stochastic matrix ``w`` where
``w[i, j]`` is the share of good ``j`` among the intermediate inputs used by
firm ``i``.  Every constructor returns an :class:`IONetwork` whose rows sum to
one up to machine precision and whose entries are non-negative.  Networks are
treated as immutable after construction, so they can be shared freely between
concurrent workers.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "IONetwork",
    "build_plain_network",
    "build_random_exponential_network",
    "load_network",
]

ROW_SUM_TOL = 1e-12
#: row sums that deviate more than this on file load trigger a renormalization warning
LOAD_RENORM_TOL = 1e-9


@dataclass(eq=False)
class IONetwork:
    """A validated row-stochastic input-output matrix.

    Attributes:
        n: number of firms (sectors).
        w: (n, n) array of non-negative input shares, each row summing to 1.
    """

    n: int
    w: np.ndarray

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("network needs at least one firm (n >= 1)")
        w = np.asarray(self.w, dtype=float)
        if w.shape != (self.n, self.n):
            raise ValueError(f"weight matrix must be {self.n}x{self.n}, got {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ValueError("non-finite input share")
        if np.any(w < 0):
            raise ValueError("negative input share")
        row_sums = w.sum(axis=1)
        if np.any(np.abs(row_sums - 1.0) > ROW_SUM_TOL):
            raise ValueError("rows of the input-output matrix must sum to one")
        self.w = w


def _normalized(raw: np.ndarray) -> np.ndarray:
    return raw / raw.sum(axis=1, keepdims=True)


def build_plain_network(n: int) -> IONetwork:
    """Uniform network, all shares equal to 1/n (eigenvalues 1 and 0)."""
    if n < 1:
        raise ValueError("network needs at least one firm (n >= 1)")
    return IONetwork(n, np.full((n, n), 1.0 / n))


def build_random_exponential_network(n: int, seed: int) -> IONetwork:
    """Rows of i.i.d. unit-mean exponential draws, normalized to sum to one.

    Deterministic for a fixed seed.
    """
    if n < 1:
        raise ValueError("network needs at least one firm (n >= 1)")
    rng = np.random.default_rng(seed)
    raw = rng.exponential(1.0, size=(n, n))
    return IONetwork(n, _normalized(raw))


def load_network(path) -> IONetwork:
    """Load a network from CSV: n lines of n comma-separated non-negative reals.

    Rows are renormalized to sum to one; a warning is recorded when any row sum
    deviates from one by more than 1e-9 (real input-output tables carry
    rounding error).  Missing, unreadable or malformed files, non-square
    tables, negative entries and all-zero rows are rejected with ValueError.
    """
    try:
        raw = np.loadtxt(path, delimiter=",", ndmin=2, dtype=float)
    except OSError as exc:
        raise ValueError(f"cannot read network CSV {path!r}: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"malformed network CSV {path!r}: {exc}") from exc
    if raw.ndim != 2 or raw.shape[0] != raw.shape[1]:
        raise ValueError(f"network CSV must be square, got shape {raw.shape}")
    if not np.all(np.isfinite(raw)):
        raise ValueError("network CSV contains non-finite entries")
    if np.any(raw < 0):
        raise ValueError("negative input share")
    row_sums = raw.sum(axis=1)
    if np.any(row_sums == 0):
        raise ValueError("all-zero row in network CSV")
    if np.any(np.abs(row_sums - 1.0) > LOAD_RENORM_TOL):
        warnings.warn(
            "row sums deviate from one by more than 1e-9; rows renormalized",
            stacklevel=2,
        )
    return IONetwork(raw.shape[0], _normalized(raw))

