"""Vectorized Monte Carlo auction resolution.

Ties are realized by drawing a uniform winner among the tied top bidders
(an unbiased realization of the equal-split rule), so per-draw win counts
are integers.  Sums and sums of squares accumulate in exact integer
arithmetic, which makes aggregation order-independent: chunked, parallel
and serial runs produce bit-identical statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .samplers import RngStream

CHUNK = 1 << 16

# Most bid cells (bidders x rows x objects) per chunk: 32 MB of float64 base
# and as much int64 eps.  Chunks keep CHUNK rows while k*n <= 32.
CELLS = 32 * CHUNK

_EPS_FLOOR = np.iinfo(np.int64).min


def win_counts(base: np.ndarray, eps: np.ndarray | None, gen: np.random.Generator) -> np.ndarray:
    """Per-bidder object counts for a stack of sealed-bid auctions.

    base has shape (k, N, n); eps, when given, holds the integer
    infinitesimal coefficients used to break base-amount ties.  Each object
    is awarded to exactly one of its top bidders, chosen uniformly.
    Returns an int64 array of shape (k, N).
    """
    top = base.max(axis=0)
    at_top = base == top
    if eps is not None:
        masked = np.where(at_top, eps, _EPS_FLOOR)
        at_top = masked == masked.max(axis=0)
    ties = at_top.sum(axis=0)
    pick = (gen.random(top.shape) * ties).astype(np.int64)
    order = np.cumsum(at_top, axis=0) - 1
    winner = at_top & (order == pick)
    return winner.sum(axis=2).astype(np.int64)


def chunks(total: int, size: int = CHUNK):
    """Split a sample count into (index, length) work units."""
    for index, start in enumerate(range(0, total, size)):
        yield index, min(size, total - start)


@dataclass
class WinTally:
    """Exact accumulator of integer per-draw win counts for k bidders."""

    k: int
    count: int = 0
    sums: list[int] = field(default_factory=list)
    squares: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.sums:
            self.sums = [0] * self.k
            self.squares = [0] * self.k

    def add(self, wins: np.ndarray) -> None:
        self.count += wins.shape[1]
        for b in range(self.k):
            col = wins[b]
            self.sums[b] += int(col.sum())
            self.squares[b] += int((col * col).sum())

    def mean(self, bidder: int) -> float:
        return self.sums[bidder] / self.count

    def stderr(self, bidder: int) -> float:
        if self.count < 2:
            return math.inf
        s, q, n = self.sums[bidder], self.squares[bidder], self.count
        var = (q - s * s / n) / (n - 1)
        return math.sqrt(max(var, 0.0) / n)


def play(k: int, n: int, samples: int, seed: int, stack: Callable) -> WinTally:
    """Tally k bidders' wins over ``samples`` seeded auctions of n objects.

    Chunk i draws from its own ``RngStream(seed, i)``: ``stack(rng, length)``
    returns the chunk's (base, eps) bid stack of shape (k, length, n), and
    its ties are then realized on the same generator.  A chunk holds at most
    CHUNK rows, and at most CELLS cells unless one row alone is larger.
    """
    tally = WinTally(k)
    rows = min(CHUNK, max(1, CELLS // (k * n)))
    for index, length in chunks(samples, rows):
        rng = RngStream(seed, index)
        base, eps = stack(rng, length)
        tally.add(win_counts(base, eps, rng.generator))
    return tally
