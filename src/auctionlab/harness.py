"""Scenario orchestration: Monte Carlo estimates, exact baselines and
empirical-distribution statistics.

Bidder 0 is the adversary in every mode; bidders 1..k-1 are the
disadvantaged bidders playing the library strategy for the mode.  Reports
are deterministic: identical scenarios reproduce identical estimates and
statistics (only the elapsed-time metadata varies).

Each ``MODES`` runner returns ``(tally, exact, ks, counters)``, and only
``estimate`` builds a ``Report`` from them: the ``WinTally`` of the draws or
trials, the per-bidder exact values, the KS table (None without ``ks_stats``)
and ``meta["counters"]``.  Group mode samples nothing: no tally or counters.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, NamedTuple, Optional

import numpy as np

from ._version import VERSION
from .adversary import GroupAuction, group_wins, wins_vs_marginal
from .engine import MAX_VALUE_DIGITS, Bid, as_fraction
from .errors import DomainError, EmptySample, LengthMismatch, NotMultiple, ScenarioError, SizeLimitExceeded
from .marginals import MarginalSpec, marginal_cdf
from .montecarlo import play
from .position_randomized import _adversary_places, _ladder_places, _place_wins, check_ladder
from .samplers import MAX_SIMPLEX_K, draw_k_bidder, draw_two_bidder, k_bidder_columns, row_sum_error
from .samplers import _row_blocks, two_bidder_columns
from .sequential import _run_exact, check_size, check_unit, sample_leaves, scripted_strategy, steady_strategy

# two-sided 99.9% Kolmogorov-Smirnov critical value: KS_FACTOR / sqrt(N)
KS_FACTOR = 1.95

# Most samples x objects a KS run draws: 256 MiB of float64, all held by verify
# but only the layout's source columns by simulate.  It also caps bidders x
# objects in one sampled row, the least a chunk holds.
KS_CELLS = 1 << 25

# Most columns, one report entry each, a KS table scores: 2^16 two-bidder
# columns of one sample take about 1.2 s and 115 MB, and print 9.7 MB.
KS_COLUMNS = 1 << 16

# Most bidders in group mode, one exact report entry each: 2^16 take 1.2 s and
# 100 MB and print 6.7 MB of JSON, and 10^6 once took 6.4 s and 1.1 GB.
MAX_GROUP_K = 1 << 16


@dataclass(frozen=True)
class AdversaryPlan:
    """How bidder 0 plays: a library strategy by name, or fixed amounts
    ("fixed": per object, per group, or a per-round script in sequential
    mode).  ``MODES`` lists the kinds each mode accepts.  Bids become
    Fractions by ``as_fraction``, which refuses NaN, inf and non-amounts."""

    kind: str
    bids: Optional[tuple[Fraction, ...]] = None

    def __post_init__(self) -> None:
        if self.bids is not None:
            object.__setattr__(self, "bids", tuple(as_fraction(b) for b in self.bids))

    @classmethod
    def fixed(cls, amounts) -> "AdversaryPlan":
        return cls("fixed", amounts)


@dataclass(frozen=True)
class Scenario:
    """One verification run: a mode, auction size, adversary and sampling
    plan.  Without an adversary, the mode's first kind in ``MODES`` plays."""

    mode: str
    n: int
    k: int = 2
    adversary: Optional[AdversaryPlan] = None
    samples: int = 1_000_000
    seed: int = 0
    group_sizes: Optional[tuple] = None
    ks_stats: bool = False

    def __post_init__(self) -> None:
        if self.adversary is None and self.mode in MODES:
            object.__setattr__(self, "adversary", AdversaryPlan(MODES[self.mode].kinds[0]))

    def validate(self) -> None:
        for name in ("n", "k", "samples", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not hasattr(type(value), "__index__"):  # True is no count
                raise ScenarioError(f"{name} must be an integer: {value!r}")
        mode, n, k = self.mode, self.n, self.k
        if mode not in MODES:
            raise ScenarioError(f"unknown mode {mode!r}; choose from {tuple(MODES)}")
        if k < 2:
            raise ScenarioError("need at least two bidders")
        if self.samples < 1:
            raise ScenarioError("need at least one sample")
        if mode == "two-bidder" and k != 2:
            raise ScenarioError("two-bidder mode requires k = 2")
        if mode != "group" and n < k:
            raise ScenarioError(f"{mode} mode requires n >= k")
        if mode in ("k-bidder", "sequential") and n % k:
            raise ScenarioError(f"{mode} mode requires k | n")
        if mode == "sequential":
            check_size(n, k)
        if self.ks_stats and mode not in ("two-bidder", "k-bidder"):
            raise ScenarioError(f"KS statistics need a sampled marginal; {mode} mode has none")
        if self.group_sizes is not None and mode != "group":
            raise ScenarioError(f"group_sizes apply to group mode only, not {mode} mode")
        if mode in ("two-bidder", "k-bidder", "position-randomized") and k * n > KS_CELLS:
            raise SizeLimitExceeded(
                f"a sampled row of {k} bidders x {n} objects exceeds the "
                f"{KS_CELLS:,}-cell limit"
            )
        if mode == "position-randomized":
            check_ladder(n, k)
        if mode == "k-bidder" and k > MAX_SIMPLEX_K:
            raise SizeLimitExceeded(f"k-bidder draws of {k} bidders exceed the {MAX_SIMPLEX_K}-bidder limit")
        if self.ks_stats and n > KS_COLUMNS:
            raise SizeLimitExceeded(f"a KS table of {n:,} columns exceeds the {KS_COLUMNS:,}-column limit")
        if self.ks_stats and self.samples * n > KS_CELLS:
            raise SizeLimitExceeded(
                f"a KS table of {self.samples} samples x {n} objects exceeds the "
                f"{KS_CELLS:,}-cell limit; use at most {KS_CELLS // n:,} samples"
            )
        if mode == "group":
            if k > MAX_GROUP_K:
                raise SizeLimitExceeded(f"group mode of {k:,} bidders exceeds the {MAX_GROUP_K:,}-bidder limit")
            sizes = [as_fraction(s) for s in self.group_sizes or ()]
            if not (sizes and all(s > 0 for s in sizes)):
                raise ScenarioError("group mode requires positive group_sizes")
            if sum(sizes) != n:
                raise ScenarioError(f"group mode requires n = {sum(sizes)}, the group_sizes total")
        kind, bids = self.adversary.kind, self.adversary.bids
        if kind != "fixed" and bids is not None:
            raise ScenarioError(f"adversary kind {kind!r} takes no bids; only 'fixed' does")
        if kind not in MODES[mode].kinds:
            raise ScenarioError(
                f"adversary kind {kind!r} not supported in {mode} mode; "
                f"choose from {MODES[mode].kinds}"
            )
        if kind != "fixed":
            return
        if mode == "sequential":
            if bids is None or any(b < 0 or b > 1 for b in bids):
                raise ScenarioError("fixed adversary needs a bid script of amounts in [0, 1]")
            check_unit([bids] + [(Fraction(k, n),)] * (k - 1), n)  # the k - 1 steady scripts
            return
        count = len(self.group_sizes) if mode == "group" else n
        if bids is None or len(bids) != count:
            unit = "group amounts" if mode == "group" else "amounts"
            raise ScenarioError(f"fixed adversary needs {count} {unit}")
        if mode != "group" and (any(b < 0 for b in bids) or sum(bids) > 1):
            raise ScenarioError("fixed adversary amounts must be nonnegative and total at most 1")

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode,
            "n": self.n,
            "k": self.k,
            "adversary": {"kind": self.adversary.kind, "bids": _fractions_json(self.adversary.bids)},
            "samples": self.samples,
            "seed": self.seed,
            "group_sizes": _fractions_json(self.group_sizes),
        }


def _printable(value: Fraction) -> tuple[int, int]:
    """``value``'s numerator and denominator, or SizeLimitExceeded if either has too many digits to print."""
    for part in (value.numerator, value.denominator):
        if part.bit_length() > 3 * MAX_VALUE_DIGITS and abs(part) >= 10**MAX_VALUE_DIGITS:
            raise SizeLimitExceeded(f"an exact value runs to about {int(math.log10(abs(part))) + 1:,} digits, "
                                    f"past the {MAX_VALUE_DIGITS:,} that can be printed")
    return value.numerator, value.denominator


def fraction_json(value: Optional[Fraction]) -> Optional[dict]:
    """Lossless rational serialization: numerator/denominator plus decimal.
    A value past the digits or the float range it prints in raises SizeLimitExceeded."""
    if value is None:
        return None
    num, den = _printable(value)
    try:
        decimal = format(float(value), ".17g")
    except OverflowError:
        scale = math.log10(abs(num)) - math.log10(den)
        raise SizeLimitExceeded(f"an exact value of about 10^{scale:.1f} is past the float range") from None
    return {"num": num, "den": den, "decimal": decimal}


def _fractions_json(values) -> Optional[list]:
    return None if values is None else [fraction_json(as_fraction(v)) for v in values]


@dataclass(frozen=True)
class BidderEstimate:
    bidder: int
    mean: float
    stderr: float


@dataclass
class Report:
    """Estimates, exact values and statistics from one scenario run."""

    scenario: Scenario
    estimates: tuple[BidderEstimate, ...]
    exact: tuple[Optional[Fraction], ...]
    statistics: dict
    meta: dict

    def to_json_dict(self) -> dict:
        return {
            "scenario": self.scenario.to_json_dict(),
            "estimates": [asdict(e) for e in self.estimates],
            "exact": [fraction_json(f) for f in self.exact],
            "statistics": self.statistics,
            "meta": self.meta,
        }

    def to_csv_rows(self) -> list[list]:
        rows = [["bidder", "mean", "stderr", "exact_num", "exact_den"]]
        means = {e.bidder: e for e in self.estimates}
        for b in range(max(len(self.exact), len(self.estimates))):
            est = means.get(b)
            exact = self.exact[b] if b < len(self.exact) else None
            rows.append([b] + (["", ""] if est is None else [repr(est.mean), repr(est.stderr)])
                        + (["", ""] if exact is None else list(_printable(exact))))
        return rows


def ks_distance(sample, cdf: Callable) -> float:
    """Two-sided Kolmogorov-Smirnov distance between a sample's empirical
    CDF and ``cdf``: the largest of i/N - F(x_i) and F(x_i) - (i-1)/N over
    the sorted points x_1 <= ... <= x_N.

    ``cdf`` must map an array elementwise: it is called once per block of
    ``samplers.BLOCK`` sorted sample points, and an output of any other shape raises
    LengthMismatch.  An ascending sample is scored as it is, unsorted and
    unchanged.  The statistic assumes a continuous ``cdf``: one that steps
    exactly where the sample does scores 1/N, not 0.  A sample that is not
    1-D raises LengthMismatch, and a NaN sample point or cdf value DomainError.
    """
    if np.ndim(sample) != 1:
        raise LengthMismatch(f"a KS sample must be 1-D, got shape {np.shape(sample)}")
    values = np.asarray(sample, dtype=float)
    if not all((np.diff(values[b.start:b.stop + 1]) >= 0).all() for b in _row_blocks(values.size, 1)):
        values = np.sort(values)  # a sample with a NaN is not ascending
    size = values.size
    if size == 0:
        raise EmptySample("cannot compute a KS distance on an empty sample")
    distance = 0.0
    for rows in _row_blocks(size, 1):
        block, start = values[rows], rows.start
        theory = np.asarray(cdf(block), dtype=float)
        if theory.shape != block.shape:
            raise LengthMismatch(
                f"cdf returned shape {theory.shape} for a sample of shape {block.shape}"
            )
        gap = np.arange(start + 1, start + block.size + 1, dtype=float)
        gap /= size
        gap -= theory
        del theory
        top = float(gap.max())
        if math.isnan(top):  # a NaN point or cdf value, which Python's max() would drop
            raise DomainError(f"NaN in the sample or its cdf at sorted points {start + 1}..{start + block.size}")
        # F(x_i) - (i-1)/N is 1/N - (i/N - F(x_i)), so one array serves both sides
        distance = max(distance, top, 1.0 / size - float(gap.min()))
        del gap
    return distance


def estimate(scenario: Scenario) -> Report:
    """Run a scenario: Monte Carlo estimates plus exact values where a
    closed form exists."""
    scenario.validate()
    start = time.perf_counter()
    tally, exact, ks, counters = MODES[scenario.mode].run(scenario)
    bidders = range(0 if tally is None else tally.k)
    estimates = tuple(BidderEstimate(b, tally.mean(b), tally.stderr(b)) for b in bidders)
    meta = {"seed": scenario.seed, "samples": 0 if tally is None else tally.count}
    if counters is not None:
        meta["counters"] = counters
    meta.update(version=VERSION, elapsed_s=time.perf_counter() - start)
    return Report(scenario, estimates, tuple(exact), {"ks": ks}, meta)


def _disadvantaged_split(n, adversary_value: Fraction, k: int) -> list[Fraction]:
    """Exact per-bidder values: the k-1 symmetric bidders share n - value."""
    share = (as_fraction(n) - adversary_value) / (k - 1)
    return [adversary_value] + [share] * (k - 1)


def _fixed(row: np.ndarray) -> Callable:
    """A filler that sets every row of its plane to ``row``."""
    def fill(rng, plane):
        plane[...] = row
    return fill


def _permuted(row: np.ndarray) -> Callable:
    """A filler that puts ``row`` in every row of its plane, each shuffled.  Up to 8 cells, one
    ``integers(0, n!)`` per row picks a permutation of range(n) in ``itertools.permutations`` order,
    from a table of uint32 codes with position j's rank in bits 3j..3j+2; past 8, ``permuted`` shuffles."""
    n = len(row)
    if n > 8:
        def fill(rng, plane):
            plane[...] = row
            rng.generator.permuted(plane, axis=1, out=plane)
        return fill
    perms = np.zeros((1, 0), dtype=np.uint8)
    for m in range(1, n + 1):  # each first rank i, then range(m - 1)'s perms shifted past i
        perms = np.concatenate([np.insert(perms + (perms >= i), 0, i, axis=1) for i in range(m)])
    codes = np.einsum("ij,j->i", perms, 8 ** np.arange(n, dtype=np.uint32), dtype=np.uint32, casting="unsafe")

    def fill(rng, plane):
        code = codes[rng.generator.integers(0, len(codes), size=len(plane))]
        for j, column in enumerate(plane.T):
            row.take((code >> 3 * j) & 7, out=column, mode="clip")  # clip: no buffered copy
    return fill


def sampled_mode(k: int) -> str:
    """The mode whose sampler draws the optimal marginal of k bidders."""
    return "two-bidder" if k == 2 else "k-bidder"


def marginal_draw(mode: str, n: int, k: int) -> tuple[Callable, list[tuple]]:
    """``(draw, columns)``: the vectorized sampler of a two-bidder or k-bidder mode,
    ``draw(rng, size, out=None)``, and the column layout of its rows."""
    if mode == "two-bidder":
        return partial(draw_two_bidder, n), two_bidder_columns(n)
    return partial(draw_k_bidder, n, k), k_bidder_columns(n, k)


def _marginal_mode(scenario: Scenario):
    n, k = scenario.n, scenario.k
    spec = MarginalSpec(n, k)
    draw, columns = marginal_draw(scenario.mode, n, k)
    bidders = [lambda rng, plane: draw(rng, len(plane), plane)] * k
    if scenario.adversary.kind == "fixed":
        adversary_value = wins_vs_marginal(spec, list(scenario.adversary.bids))
        bidders[0] = _fixed(np.array([float(b) for b in scenario.adversary.bids]))
    else:
        adversary_value = Fraction(n, k)
    exact = _disadvantaged_split(n, adversary_value, k)
    if not scenario.ks_stats:
        tally, layout, _ = play(n, scenario.samples, scenario.seed, bidders)
        return tally, exact, None, layout
    # the last bidder's draws make the KS table: play keeps their source columns, and
    # the row-sum error is the worst of each chunk's full rows
    kept, errors = list(dict.fromkeys(source for source, _ in columns)), []
    bidders[-1] = lambda rng, plane: errors.append(row_sum_error(draw(rng, len(plane), plane)))
    tally, layout, draws = play(n, scenario.samples, scenario.seed, bidders, keep=(k - 1, kept))
    columns = [(kept.index(source), about) for source, about in columns]
    return tally, exact, ks_table(draws, spec, columns, max(errors)), layout


def ks_table(draws: np.ndarray, spec: MarginalSpec, columns: list[tuple], max_sum_error=None) -> dict:
    """KS distance of each of a sampler's ``columns`` (its (source, about)
    layout, as ``samplers.two_bidder_columns``; sources index ``draws``) from
    the closed-form marginal, with the 99.9% critical value, and the worst
    row-sum error (``row_sum_error(draws)`` unless given).  Each source column
    is sorted once, and a copy takes its source's distance.  A mirror is
    scored from fl(about - sorted[::-1]), its own column sorted, bit for bit."""
    if not draws.size:
        raise EmptySample("cannot compute a KS table on an empty sample")
    threshold = KS_FACTOR / math.sqrt(draws.shape[0])
    cdf = partial(marginal_cdf, spec)
    distinct, scored = list(dict.fromkeys(columns)), {}
    for source in dict.fromkeys(source for source, _ in distinct):
        values = np.sort(draws[:, source])
        for about in [a for s, a in distinct if s == source]:
            if about is not None:  # fl(about - x) falls as x rises
                values = values[::-1]
                np.subtract(about, values, out=values)
            scored[source, about] = ks_distance(values, cdf)
        del values  # freed before the next source is sorted
    entries = [
        {"coordinate": c, "distance": d, "threshold": threshold, "passed": d <= threshold}
        for c, d in enumerate(scored[column] for column in columns)
    ]
    return {"entries": entries, "max_sum_error": row_sum_error(draws) if max_sum_error is None else max_sum_error}


def _position_mode(scenario: Scenario):
    n, k, bids = scenario.n, scenario.k, scenario.adversary.bids
    places = _adversary_places(n) if bids is None else _ladder_places(map(Bid, bids), n, k)
    # rank i stands at place 2i: places order and tie as the bids do against the ladder
    ladder_row = np.arange(2, 2 * n + 1, 2, dtype=float)
    bidders = [_fixed(np.array(places, dtype=float))] + [_permuted(ladder_row)] * (k - 1)
    tally, layout, _ = play(n, scenario.samples, scenario.seed, bidders)
    return tally, _disadvantaged_split(n, _place_wins(k, n, places), k), None, layout


def _sequential_mode(scenario: Scenario):
    n, k = scenario.n, scenario.k
    if scenario.adversary.kind == "fixed":
        opponent = scripted_strategy(list(scenario.adversary.bids))
    else:
        opponent = steady_strategy(n, k)
    strategies = [opponent] + [steady_strategy(n, k) for _ in range(k - 1)]
    # one exact walk gives the exact values and the final states the trials draw
    run = _run_exact(strategies, n, k)
    tally = sample_leaves(run, scenario.samples, scenario.seed)
    counters = {
        "peak_states": run.peak_states,
        "state_rounds": run.state_rounds,
        "trials": tally.count,
        "leaves": len(run.wins),
    }
    return tally, run.expected, None, counters


def _group_mode(scenario: Scenario):
    sizes = tuple(as_fraction(s) for s in scenario.group_sizes)
    auction = GroupAuction(sizes, scenario.k)
    value = group_wins(auction, list(scenario.adversary.bids))
    # no sampler exists for the grouped joint distribution; exact values only
    return None, _disadvantaged_split(auction.total, value, scenario.k), None, None


class Mode(NamedTuple):
    run: Callable  # scenario -> (tally or None, exact values, KS table or None, meta counters or None)
    kinds: tuple[str, ...]  # the adversary kinds it accepts, the first by default


MODES = {
    "two-bidder": Mode(_marginal_mode, ("copycat", "fixed")),
    "k-bidder": Mode(_marginal_mode, ("copycat", "fixed")),
    "position-randomized": Mode(_position_mode, ("dp-optimal", "undercut", "fixed")),
    "sequential": Mode(_sequential_mode, ("steady", "fixed")),
    "group": Mode(_group_mode, ("fixed",)),
}


@dataclass(frozen=True)
class CopycatEstimate:
    """Monte Carlo mean and standard error of the copycat adversary's wins."""

    mean: float
    stderr: float
    expected: Fraction
    samples: int

    @property
    def within(self) -> float:
        """Multiples of stderr separating the estimate from its expectation.

        Zero when the gap itself is zero, as the paired even-n construction's
        zero variance allows; inf for any other gap over a zero or inf stderr.
        """
        gap = abs(self.mean - float(self.expected))
        if gap == 0.0:
            return 0.0
        return gap / self.stderr if 0 < self.stderr < math.inf else math.inf


def copycat_value(spec: MarginalSpec, samples: int = 1_000_000, seed: int = 0) -> CopycatEstimate:
    """Estimate the adversary's wins when every bidder, adversary included,
    draws from the optimal strategy for (n, k): bidder 0 of the copycat
    scenario's ``estimate``.

    By symmetry of the zero-sum auction the expectation is exactly n/k.
    Requires k = 2 (any n) or k | n, matching the available samplers.
    """
    n, k = spec.n, spec.k
    if k != 2 and n % k:
        raise NotMultiple(f"no sampler for k={k}, n={n}: k must divide n")
    first = estimate(Scenario(sampled_mode(k), n, k, samples=samples, seed=seed)).estimates[0]
    return CopycatEstimate(first.mean, first.stderr, Fraction(n, k), samples)
