"""Vectorized Monte Carlo auction resolution.

``play`` runs chunks of at most CELLS bid cells, which fit a per-core L2
cache, and chunk i draws from ``RngStream(seed, i)``.  Ties are realized by
drawing a uniform winner among the tied top bidders (an unbiased
realization of the equal-split rule), so per-draw win counts are integers.
Sums and sums of squares accumulate in exact integer arithmetic, which
makes aggregation order-independent: chunked, parallel and serial runs
produce bit-identical statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .samplers import RngStream

# sample_graph's trials per chunk and ks_distance's points per block, not play's
CHUNK = 1 << 16

# Most bid cells (bidders x rows x objects) per play chunk: 1 MB of float64
CELLS = 1 << 17

# Most bid cells win_counts resolves at once: half a chunk
BLOCK_CELLS = 1 << 16


def win_counts(base: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    """Per-bidder object counts for a stack of sealed-bid auctions.

    base has shape (k, N, n), and only its order matters: bids that compare
    equal tie.  Each tied object goes to its top bidder of rank
    floor(u * ties), u being one ``gen.random`` variate per tied object in
    row-major (row, object) order; a tie-free stack draws nothing.  Blocks
    of rows of about BLOCK_CELLS cells are resolved in turn, so temporaries
    stay small whatever N is and the counts and generator state match one
    pass.  Returns an int64 array of shape (k, N).
    """
    k, rows, n = base.shape
    wins = np.zeros((k, rows), dtype=np.int64)
    step = max(1, BLOCK_CELLS // (k * n))
    for start in range(0, rows, step):
        block = slice(start, start + step)
        _resolve(base[:, block], gen, wins[:, block])
    return wins


def _resolve(base: np.ndarray, gen: np.random.Generator, wins: np.ndarray) -> None:
    """Add one row block's counts to ``wins``, drawing one variate per tied object."""
    k, rows, n = base.shape
    at_top = base == base.max(axis=0)
    # credit every top bidder: uint8 einsum sums are exact up to 255 objects
    for start in range(0, n, 255):
        wins += np.einsum("brn->br", at_top[..., start:start + 255].view(np.uint8))
    # one bidder keeps each shared object's credit, the others lose theirs
    shared = np.flatnonzero(at_top.sum(axis=0, dtype=np.min_scalar_type(k)) > 1)
    if shared.size == 0:
        return
    tied = at_top.reshape(k, -1)[:, shared]
    pick = (gen.random(shared.size) * tied.sum(axis=0)).astype(np.int64)
    winner = tied & (np.cumsum(tied, axis=0) - 1 == pick)
    bidder, column = np.nonzero(tied & ~winner)
    losses = np.bincount(bidder * rows + shared[column] // n, minlength=k * rows)
    wins -= losses.reshape(k, rows)


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


def chunk_rows(k: int, n: int) -> int:
    """Rows per play chunk: as many as fit in CELLS cells, and at least one."""
    return max(1, CELLS // (k * n))


def play(
    n: int, samples: int, seed: int, bidders: Sequence[Callable], keep=None
) -> tuple[WinTally, np.ndarray | None]:
    """Tally the wins of ``len(bidders)`` bidders over ``samples`` seeded
    auctions of n objects; returns ``(tally, kept)``.

    One (k, rows, n) float64 buffer, rows being ``chunk_rows(k, n)`` or
    ``samples`` if fewer, serves every chunk.  Chunk i draws from its own
    ``RngStream(seed, i)``: each ``bidders[b](rng, plane)``, in bidder
    order, fills bidder b's plane, a C-contiguous (length, n) view of the
    buffer, in place; the chunk's ties are then realized on the same
    generator, bids that compare equal tying.  With ``keep`` = b, ``kept``
    holds bidder b's rows in sample order, else it is None.  A filler that
    keeps draws past its call must copy them.
    """
    k = len(bidders)
    tally = WinTally(k)
    rows = chunk_rows(k, n)
    buffer = np.empty((k, min(rows, samples), n))
    kept = None if keep is None else np.empty((samples, n))
    for index, start in enumerate(range(0, samples, rows)):
        rng = RngStream(seed, index)
        base = buffer[:, :samples - start]
        for fill, plane in zip(bidders, base):
            fill(rng, plane)
        if kept is not None:
            kept[start:start + rows] = base[keep]
        tally.add(win_counts(base, rng.generator))
    return tally, kept
