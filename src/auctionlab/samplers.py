"""Seeded generators realizing the optimal bidding distributions.

Vectorized draws (``size=N``) return float arrays for Monte Carlo work: the
draws of their row blocks, ``_row_blocks(N, n)`` of at most BLOCK cells, made in
turn on one generator, each built to total 1, checked within SUM_TOLERANCE and
rid of zero bids.  A scalar draw is one such row rebuilt exactly: a BidSequence
of Fractions whose total is exactly 1.  Narrow rows (``by_columns``) are drawn
column-major, bit for bit as row-major.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction

import numpy as np

from .engine import Bid, BidSequence
from .errors import DomainError, InvariantError, LengthMismatch, NotMultiple, SizeLimitExceeded

ONE_THIRD = 1.0 / 3.0

_PERMS3 = np.array(list(itertools.permutations(range(3))), dtype=np.intp)

SUM_TOLERANCE = 1e-12

# Most simplex bidders on the gamma path (k != 3): a Gamma(1/(k-1)) draw is 0 with probability
# near 2**(-1074/(k-1)), so 0.94% of rows are redrawn at k = 83, 1.06% at 84 and nearly all at 200.
MAX_SIMPLEX_K = 83

# Most cells in one row block of a vectorized draw: 512 KiB of float64
BLOCK = 1 << 16


def _exact(row: np.ndarray, total: Fraction) -> list[Fraction]:
    """The positive floats of ``row`` as Fractions, scaled exactly to sum to ``total``."""
    fracs = [Fraction(x) for x in row.tolist()]
    scale = total / sum(fracs)
    return [f * scale for f in fracs]


def _unit_total(bids: list[Fraction]) -> BidSequence:
    seq = BidSequence(tuple(Bid(b) for b in bids))
    if seq.base_total != 1:
        raise InvariantError(f"exact draw totals {seq.base_total}, not 1")
    return seq


class RngStream:
    """Deterministic random stream: identical (seed, stream) pairs replay
    identical draw sequences bit for bit.  Parallel work should use one
    stream id per task."""

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed)
        self.stream = int(stream)
        self._gen = np.random.default_rng(
            [self.seed % 2**64, self.stream % 2**64]
        )

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream={self.stream})"

    @property
    def generator(self) -> np.random.Generator:
        return self._gen


def _gen_of(rng) -> np.random.Generator:
    if isinstance(rng, RngStream):
        return rng.generator
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError("rng must be an RngStream or numpy Generator")


def triple_from_uniforms(u: float, v: float, w: float, perm_index: int = 0):
    """Deterministic core of the triple draw, for given unit-cube inputs.

    The range d = max - min has CDF 27*d**3, so d = (1/3) * u**(1/3);
    conditional on d, the minimum is uniform on [0, 1/3 - d] and the middle
    value uniform on [min, min + d].  ``perm_index`` selects one of the six
    assignments of (min, middle, max) to the coordinates.
    """
    d = ONE_THIRD * float(u) ** (1.0 / 3.0)
    lo = float(v) * (ONE_THIRD - d)
    mid = lo + float(w) * d
    vals = (lo, mid, lo + d)
    p = _PERMS3[perm_index % 6]
    return (vals[p[0]], vals[p[1]], vals[p[2]])


def draw_triple(rng, size: int | None = None):
    """Sample (x, y, z) from the joint triple density on [0, 1/3]^3.

    Uses the range decomposition above rather than rejection: the density is
    unbounded where max - min approaches 1/3, so no finite rejection
    envelope exists.  Returns a 3-tuple, or an (N, 3) array when ``size``
    is given: the tuple is the array's one row.
    """
    gen, rows = _gen_of(rng), _rows_out(None, 1 if size is None else size, 3)
    for block in _row_blocks(len(rows), 3):
        _fill_triple(gen, rows[block])
    return tuple(rows[0].tolist()) if size is None else rows


def _fill_triple(gen: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Write one block of triple draws into the (N, 3) array ``out``: u, v and w into its
    columns, then (min, middle, max), permuted by ``integers(0, 6, N)``."""
    for column in out.T:  # u, v, w
        _random_into(gen, column)
    u, v, w = columns = out.T
    lo, mid, hi = vals = np.empty((3, len(out)))
    np.cbrt(u, out=hi)
    hi *= ONE_THIRD  # the range d
    np.subtract(ONE_THIRD, hi, out=lo)
    lo *= v
    np.multiply(w, hi, out=mid)
    mid += lo
    hi += lo
    # row i's coordinate c is vals.flat[_PERMS3[perm[i], c] * rows + i]
    perm, row, index = gen.integers(0, 6, len(out)), np.arange(len(out)), np.empty(len(out), np.intp)
    for c, column in enumerate(columns):  # in-range indices: "clip" takes without a buffer copy
        _PERMS3[:, c].take(perm, out=index, mode="clip")
        index *= len(out)
        index += row
        vals.take(index, out=column, mode="clip")
    return out


def draw_two_bidder(n: int, rng, size: int | None = None, out: np.ndarray | None = None):
    """Sample an n-bid sequence whose every coordinate is uniform on [0, 2/n]
    and whose total is exactly 1.

    Even n = 2m: one uniform draw b on [0, 2/n]; m copies of b followed by
    m copies of 2/n - b.  Odd n = 2m+1: m-1 copies of each, then the three
    bids derived from a triple draw.  For n = 3 the paired bids vanish and
    the sequence is the derived triple alone.  A zero bid, of measure zero,
    is resampled away.  Vectorized rows are built to total 1, not divided by
    their sums, and checked within SUM_TOLERANCE.  ``out``, a C- or
    F-contiguous (size, n) float64 array, else a new one laid out by
    ``by_columns``, receives the rows of a vectorized draw and is returned.
    A scalar draw is one row made exact: the pair (b, 2/n - b) to total 2/n, the triple 3/n.
    """
    if n < 2:
        raise DomainError("need at least two objects")
    gen = _gen_of(rng)
    if size is not None or out is not None:
        return _two_bidder_array(n, gen, _rows_out(out, size, n))
    row = _two_bidder_array(n, gen, np.empty((1, n)))[0]
    pairs = n // 2 - n % 2
    b, c = _exact(row[[0, pairs]], Fraction(2, n)) if pairs else (None, None)
    triple = _exact(row[2 * pairs:], Fraction(3, n)) if n % 2 else []
    return _unit_total([b] * pairs + [c] * pairs + triple)


def by_columns(rows: int, n: int) -> bool:
    """Whether (rows, n) bid rows are stored column-major: rows of 2-15 cells, at least 128
    rows per cell, where a pass down whole columns beats numpy's short per-row loops."""
    return 1 < n < 16 and rows >= 128 * n


def row_planes(cells: np.ndarray, k: int, rows: int, n: int) -> np.ndarray:
    """The first k * rows * n of the flat ``cells`` as k (rows, n) planes,
    each the transpose of an (n, rows) block when ``by_columns(rows, n)``."""
    cells = cells[:k * rows * n]
    return cells.reshape(k, n, rows).swapaxes(1, 2) if by_columns(rows, n) else cells.reshape(k, rows, n)


def _rows_out(out: np.ndarray | None, size, n: int) -> np.ndarray:
    """The array a vectorized draw fills: ``out`` once checked, else a new one of ``size`` rows."""
    if out is None:
        try:
            rows = -1 if isinstance(size, bool) else operator.index(size)
        except TypeError:
            rows = -1
        if rows < 0:
            raise DomainError(f"size must be an integer >= 0, not {size!r}")
        return row_planes(np.empty(rows * n), 1, rows, n)[0]
    fits = isinstance(out, np.ndarray) and out.dtype == np.float64
    if not (fits and (out.flags.c_contiguous or out.flags.f_contiguous)) or out.shape != (size, n):
        raise LengthMismatch(f"out must be a C- or F-contiguous float64 array of shape ({size}, {n})")
    return out


def _row_blocks(rows: int, width: int) -> list[slice]:
    """Slices covering ``rows`` rows, each of at most BLOCK cells of ``width`` and at least one row."""
    step = max(1, BLOCK // max(1, width))
    return [slice(start, start + step) for start in range(0, rows, step)]


def _random_into(gen: np.random.Generator, view: np.ndarray) -> None:
    """``gen.random`` into one block's ``view`` in C order: in place, else through one temporary."""
    if view.flags.c_contiguous:
        gen.random(out=view)
    else:
        view[...] = gen.random(view.shape)


def two_bidder_columns(n: int) -> list[tuple[int, float | None]]:
    """``draw_two_bidder(n)``'s column layout: each column's (source, about), its values being
    column ``source``'s, or their mirror fl(about - x) if ``about`` is not None.  Runs of column
    0 and of its mirror about 2/n, then any triple; a source names itself before its one mirror."""
    pairs = n // 2 - n % 2
    return [(0, None)] * pairs + [(0, 2.0 / n)] * pairs + [(c, None) for c in range(2 * pairs, n)]


def _two_bidder_array(n: int, gen: np.random.Generator, out: np.ndarray) -> np.ndarray:
    pairs = n // 2 - n % 2
    for block in _row_blocks(len(out), n):
        rows = out[block]
        _random_into(gen, rows[:, 0])  # n = 3 draws b too, and the triple overwrites it
        rows[:, 0] *= 2.0 / n
        rows[:, 1:pairs] = rows[:, :1]
        np.subtract(2.0 / n, rows[:, :1], out=rows[:, pairs:2 * pairs])
        if n % 2:
            triple = _fill_triple(gen, rows[:, 2 * pairs:])
            triple -= triple[:, [1, 2, 0]]  # x - y, y - z, z - x
            triple += ONE_THIRD
            triple *= 3.0 / n
        _unit_rows(rows, gen, lambda g, m: draw_two_bidder(n, g, m))
    return out


def draw_simplex(k: int, rng, size: int | None = None):
    """Sample k positive reals summing to 1 from the simplex bid density:
    ``draw_k_bidder(k, k, rng, size)``, or its one row when ``size`` is None.

    Each coordinate's CDF is t ** (1/(k-1)).  k = 3 takes squared sphere
    coordinates (``_sphere_rows``); other k normalize Gamma(1/(k-1)) draws,
    Gamma(1 + 1/(k-1)) * U**(k-1) by Stuart's identity.  Rows with a zero
    bid are resampled, and k above MAX_SIMPLEX_K raises SizeLimitExceeded.
    """
    return draw_k_bidder(k, k, rng, 1)[0] if size is None else draw_k_bidder(k, k, rng, size)


def _simplex_gammas(gen: np.random.Generator, rows: np.ndarray, m: int) -> None:
    """Fill one block's (size, k) ``rows`` with Gamma(a = 1/(k-1)) variates, Gamma(1 + a) *
    U**(1/a), divided by m times their sums: the uniforms in C order, then the gammas."""
    k = rows.shape[1]
    _random_into(gen, rows)
    rows **= k - 1
    rows *= gen.standard_gamma(1.0 + 1.0 / (k - 1), rows.shape)
    rows /= (m * _row_sums(rows))[:, None]


def _sphere_rows(gen: np.random.Generator, rows: np.ndarray, m: int) -> None:
    """Fill one block's (size, 3) ``rows`` with Dirichlet(1/2, 1/2, 1/2) rows over m: squared
    coordinates of a uniform point on the sphere, whose height is uniform (Archimedes): U**2,
    then 1 - U**2 split as cos**2, sin**2 of (pi/2) V, which are 0 only at V = 0 (1 - cos(pi V)
    is 0 below V = 3e-9).  U, then V, go into the first two columns as one (2, size) call fills them."""
    _random_into(gen, rows.T[:2])
    a, b, c = rows.T  # U in a, V in b
    b *= np.pi / 2
    np.sin(b, out=c)
    np.cos(b, out=b)
    a *= a
    rest = np.subtract(1.0, a)
    rest /= m
    a /= m
    for bid in (b, c):
        bid *= bid
        bid *= rest


def k_bidder_columns(n: int, k: int) -> list[tuple[int, None]]:
    """``draw_k_bidder(n, k)``'s layout, as ``two_bidder_columns``: every group of k copies the first."""
    return [(c, None) for c in range(k)] * (n // k)


def draw_k_bidder(n: int, k: int, rng, size: int | None = None, out: np.ndarray | None = None):
    """Sample an n-bid sequence with per-coordinate CDF ((n/k)*b)**(1/(k-1)).

    Requires k | n and k <= MAX_SIMPLEX_K.  One simplex draw is copied to
    all m = n/k groups of k objects, scaled by 1/m: a vectorized gamma row
    (k != 3) divides once, by m times its sum.  ``out`` takes the rows of a
    vectorized draw as in ``draw_two_bidder``.  A scalar draw is one row of
    ``draw_simplex(k)`` in Fractions, scaled exactly to total 1/m.
    """
    if k < 2:
        raise DomainError("need at least two bidders")
    if k > MAX_SIMPLEX_K:
        raise SizeLimitExceeded(f"a simplex draw of {k} bidders exceeds the {MAX_SIMPLEX_K}-bidder limit")
    if n % k:
        raise NotMultiple(f"{k} bidders do not divide {n} objects")
    m = n // k
    gen = _gen_of(rng)
    if size is None and out is None:
        return _unit_total(_exact(draw_simplex(k, gen), Fraction(1, m)) * m)
    out = _rows_out(out, size, n)
    for block in _row_blocks(len(out), n):
        rows = out[block]
        (_sphere_rows if k == 3 else _simplex_gammas)(gen, rows[:, :k], m)
        groups = rows.T.reshape(m, k, -1)  # splitting rows.T's first axis copies in neither layout
        groups[1:] = groups[:1]
        _unit_rows(rows, gen, lambda g, s: draw_k_bidder(n, k, g, s))
    return out


def _row_sums(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=1)`` of a C-ordered ``a`` bit for bit, in any layout.
    numpy reduces each row on its own, so ``by_columns`` shapes go down the
    columns (0.14-0.5x the time; other shapes measured 0.8-11x), in numpy's
    pairwise order: from +0.0 left to right below 8 cells, else
    ((c0+c1)+(c2+c3))+((c4+c5)+(c6+c7)), then the rest in order.  Others
    sum a C-ordered copy: numpy adds F-ordered rows in turn."""
    rows, n = a.shape
    if not by_columns(rows, n):
        return np.ascontiguousarray(a).sum(axis=1)
    c = a.T
    total = np.add(c[0], 0.0)
    if n >= 8:
        total += c[1]
        total += c[2] + c[3]
        total += (c[4] + c[5]) + (c[6] + c[7])
    for column in c[8 if n >= 8 else 1:]:
        total += column
    return total


def row_sum_error(rows: np.ndarray) -> float:
    """max |s - 1| over ``_row_sums(rows)``, as max(max s - 1, 1 - min s), summed row block
    by row block; 0.0 for no rows."""
    top = bottom = 1.0
    for block in _row_blocks(*rows.shape):
        sums = _row_sums(rows[block])
        top, bottom = sums.max(initial=top), sums.min(initial=bottom)
    return float(max(top - 1.0, 1.0 - bottom))


def _unit_rows(out: np.ndarray, gen, redraw) -> None:
    """Check that one block's rows total 1 within SUM_TOLERANCE; redraw those with a zero bid."""
    error = row_sum_error(out)
    if not error <= SUM_TOLERANCE:
        raise InvariantError(f"sampled rows miss a unit total by {error}")
    while not out.min() > 0.0:
        bad = np.any(out <= 0.0, axis=1)
        out[bad] = redraw(gen, int(bad.sum()))
