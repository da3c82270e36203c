"""Vectorized Monte Carlo auction resolution.

Every sampled tally runs through ``tally_chunks``, whose chunk i draws from
``RngStream(seed, i)``; ``play``'s chunks hold at most CELLS bid cells,
which fit a per-core L2 cache.  Ties are realized by
drawing a uniform winner among the tied top bidders (an unbiased
realization of the equal-split rule), so per-draw win counts are integers.
Sums and sums of squares accumulate in exact integer arithmetic, which
makes aggregation order-independent: adding the same chunks' counts in
any order gives bit-identical statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .samplers import RngStream, row_planes

# sample_leaves's trials per chunk, not play's
CHUNK = 1 << 16

# Most bid cells (bidders x rows x objects) per play chunk: 1 MB of float64
CELLS = 1 << 17


def win_counts(base: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    """Per-bidder object counts for a stack of sealed-bid auctions.

    base has shape (k, N, n), in any layout, and only its order matters:
    bids that compare equal tie.  Each tied object goes to its top bidder
    of rank floor(u * ties), u being one ``gen.random`` variate per tied
    object in (row, object) order; a tie-free stack draws nothing.  Returns
    an int64 array of shape (k, N).
    """
    k, rows, n = base.shape
    at_top = base == base.max(axis=0)
    # each tied object keeps only its drawn top bidder; tie counts take the
    # least dtype that holds k, so a chunk's temporaries stay small
    count = np.min_scalar_type(k)
    ties = at_top.sum(axis=0, dtype=count) > 1
    if ties.any():  # flatnonzero copies a column-major mask
        row, obj = np.divmod(np.flatnonzero(ties), n)
        tied = at_top[:, row, obj]
        pick = (gen.random(row.size) * tied.sum(axis=0)).astype(count)
        at_top[:, row, obj] = tied & (np.cumsum(tied, axis=0, dtype=count) == pick + 1)
    wins = np.zeros((k, rows), dtype=np.int64)
    # uint8 einsum sums are exact up to 255 objects
    for start in range(0, n, 255):
        wins += np.einsum("brn->br", at_top[..., start:start + 255].view(np.uint8))
    return wins


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


def tally_chunks(k: int, total: int, rows: int, seed: int, body: Callable) -> tuple[WinTally, dict]:
    """Tally ``total`` samples of k bidders in chunks of ``rows``: chunk i,
    from sample ``start`` on, adds ``body(RngStream(seed, i), start,
    length)``, its (k, length) int wins, in chunk order.  Returns the tally
    and the layout run, ``{"chunks": count, "chunk_rows": rows}``."""
    tally, starts = WinTally(k), range(0, total, rows)
    for index, start in enumerate(starts):
        tally.add(body(RngStream(seed, index), start, min(rows, total - start)))
    return tally, {"chunks": len(starts), "chunk_rows": rows}


def play(
    n: int, samples: int, seed: int, bidders: Sequence[Callable], keep=None
) -> tuple[WinTally, dict, np.ndarray | None]:
    """Tally the wins of ``len(bidders)`` bidders over ``samples`` seeded
    auctions of n objects; returns ``(tally, layout, kept)``, ``layout``
    being ``tally_chunks``'s.

    Every chunk of ``tally_chunks`` reuses one flat buffer of k * rows * n
    float64 cells, rows being ``chunk_rows(k, n)`` or ``samples`` if fewer:
    on the chunk's stream each ``bidders[b](rng, plane)``, in bidder order,
    fills bidder b's plane of ``row_planes(buffer, k, length, n)`` in place
    (column-major if ``by_columns(length, n)``), and the ties are then
    realized on the same generator, bids that compare equal tying.  With
    ``keep`` = (b, columns), ``kept`` holds those columns of bidder b's rows
    in sample order, laid out by ``by_columns`` for their width, else it is
    None.  Fillers must copy draws kept past their call.
    """
    k = len(bidders)
    rows = chunk_rows(k, n)
    buffer = np.empty(k * min(rows, samples) * n)
    kept = None if keep is None else row_planes(np.empty(samples * len(keep[1])), 1, samples, len(keep[1]))[0]

    def chunk(rng: RngStream, start: int, length: int) -> np.ndarray:
        base = row_planes(buffer, k, length, n)
        for fill, plane in zip(bidders, base):
            fill(rng, plane)
        if kept is not None:
            kept[start:start + length] = base[keep[0]][:, keep[1]]
        return win_counts(base, rng.generator)

    tally, layout = tally_chunks(k, samples, rows, seed, chunk)
    return tally, layout, kept
