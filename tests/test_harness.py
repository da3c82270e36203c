import itertools
import math
import random
import tracemalloc
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from scipy import stats

from auctionlab import (
    AdversaryPlan,
    Bid,
    DomainError,
    EmptySample,
    LengthMismatch,
    MarginalSpec,
    RngStream,
    Scenario,
    ScenarioError,
    SizeLimitExceeded,
    draw_k_bidder,
    draw_two_bidder,
    estimate,
    initial_bids,
    ks_distance,
    marginal_cdf,
)
from auctionlab import harness, montecarlo, position_randomized, samplers, verify
from auctionlab.montecarlo import WinTally, play, win_counts
from auctionlab.samplers import MAX_SIMPLEX_K


class TestKsDistance:
    def test_single_sample_at_median(self):
        assert ks_distance([0.5], lambda v: np.clip(np.asarray(v), 0, 1)) == 0.5

    def test_matching_step_function_scores_one_over_n(self):
        # F(x_i) - (i-1)/N is the empirical CDF's jump at each point
        sample = [1.0, 2.0, 3.0, 4.0]

        def step_cdf(v):
            v = np.asarray(v, dtype=float)
            return np.floor(np.clip(v, 0, 4)) / 4.0

        assert ks_distance(sample, step_cdf) == 0.25

    def test_agrees_with_scipy_two_sided_statistic(self):
        # 200,000 rows span four BLOCK blocks
        draws = draw_k_bidder(6, 3, RngStream(9), size=200_000)
        cdf = partial(marginal_cdf, MarginalSpec(6, 3))
        for c in range(6):
            want = stats.ks_1samp(draws[:, c], cdf).statistic
            assert ks_distance(draws[:, c], cdf) == pytest.approx(want, rel=0, abs=1e-12)

    def test_self_drawn_sample_within_critical_value(self):
        gen = np.random.default_rng(77)
        sample = gen.random(100_000)
        dist = ks_distance(sample, lambda v: np.clip(v, 0, 1))
        assert dist <= 1.95 / math.sqrt(100_000)

    def test_empty_sample(self):
        with pytest.raises(EmptySample):
            ks_distance([], lambda v: v)

    def test_cdf_output_shape_must_match_sample(self):
        # the cdf is called once per block of sorted points, never per point
        with pytest.raises(LengthMismatch, match=r"shape \(\) for a sample of shape \(1,\)"):
            ks_distance([0.5], lambda v: 0.5)
        with pytest.raises(LengthMismatch):
            ks_distance([0.1, 0.2, 0.3], lambda v: np.clip(v, 0, 1)[:-1])

    @pytest.mark.parametrize("shape", [(5, 1), (1, 5), ()])
    def test_sample_must_be_one_dimensional(self, shape):
        # a column or row vector once escaped as numpy's plain ValueError, a
        # scalar as an AxisError
        with pytest.raises(LengthMismatch, match="1-D"):
            ks_distance(np.full(shape, 0.5), lambda v: np.clip(v, 0, 1))

    def test_nan_raises_instead_of_scoring_zero(self):
        # a NaN block maximum loses every comparison in Python's max(), so a
        # NaN point or cdf value used to add nothing to the statistic
        spec = MarginalSpec(4, 2)
        with pytest.raises(DomainError):
            harness.ks_table(np.full((1_000, 4), math.nan), spec, alone(4))
        half = np.random.default_rng(5).random(1_000)
        half[::2] = math.nan
        with pytest.raises(DomainError, match="NaN in the sample or its cdf"):
            ks_distance(half, lambda v: np.clip(v, 0, 1))
        with pytest.raises(DomainError, match="NaN in the sample or its cdf"):
            ks_distance([0.1, 0.2, 0.3], lambda v: np.where(v > 0.25, math.nan, v))

    def test_ascending_sample_is_scored_as_it_is(self):
        # no sorted copy and no write: ks_table passes sorted and mirrored columns
        sample = np.sort(np.random.default_rng(8).random(8 * samplers.BLOCK + 5))
        before = sample.tobytes()
        cdf = lambda v: np.clip(v, 0, 1)  # noqa: E731
        distance, peak = traced_peak(lambda: ks_distance(sample, cdf))
        assert sample.tobytes() == before
        assert peak < sample.nbytes / 2
        assert distance == ks_distance(np.random.default_rng(9).permutation(sample), cdf)
        assert distance == ks_distance(sample[::-1].copy()[::-1], cdf)  # a reversed view

    def test_cdf_called_once_per_block(self, monkeypatch):
        calls = []

        def cdf(v):
            calls.append(v.size)
            return np.clip(v, 0, 1)

        ks_distance(np.random.default_rng(3).random(2 * samplers.BLOCK + 1), cdf)
        assert calls == [samplers.BLOCK, samplers.BLOCK, 1]
        # samplers._row_blocks owns the block size
        monkeypatch.setattr(samplers, "BLOCK", 5)
        calls.clear()
        ks_distance(np.random.default_rng(3).random(12), cdf)
        assert calls == [5, 5, 2]


# every memory case draws a 16 MiB table
MEMORY_CELLS = 1 << 21
MEMORY_CASES = [(2, 2), (3, 2), (5, 2), (7, 2), (21, 2), (3, 3), (6, 3), (4, 4), (8, 4), (64, 4), (83, 83)]

# a few ks_distance blocks of BLOCK float64 points
KS_BLOCKS = 4 * samplers.BLOCK * 8


def traced_peak(run):
    """run()'s result and the peak bytes traced while it ran."""
    tracemalloc.start()
    try:
        return run(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def sampler(n, k):
    """The vectorized sampler of (n, k) and its column layout."""
    return harness.marginal_draw(harness.sampled_mode(k), n, k)


def memory_draws(n, k):
    draw, _ = sampler(n, k)
    return draw(RngStream(8), MEMORY_CELLS // n)


class TestKsMemory:
    """A KS run holds its draws plus about one column: the samplers write
    in place beside block scratch, and ks_table scores one sorted source
    column at a time in blocks."""

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_draws_peak_within_a_tenth_over_their_size_plus_a_mib(self, order):
        # the scratch a draw holds beside its rows, in either layout; row-major
        # (21, 2) once paid a column when numpy copied an overlapping operand
        scratch = {}
        for n, k in MEMORY_CASES:
            out = np.empty((MEMORY_CELLS // n, n), order=order)
            draw, _ = sampler(n, k)
            _, peak = traced_peak(lambda: draw(RngStream(8), len(out), out))
            scratch[n, k] = peak / out.nbytes
        assert max(scratch.values()) <= 0.1 + 2**20 / (MEMORY_CELLS * 8), scratch

    def test_redrawn_rows_hold_no_mask_of_the_table(self):
        # at k = 83 about 1% of rows hold a zero bid and are redrawn; a mask of every
        # cell, as _unit_rows once built, is an eighth of the table
        out = np.empty((MEMORY_CELLS // MAX_SIMPLEX_K, MAX_SIMPLEX_K))
        draw, _ = sampler(MAX_SIMPLEX_K, MAX_SIMPLEX_K)
        _, peak = traced_peak(lambda: draw(RngStream(8), len(out), out))
        assert peak < out.nbytes / 8, peak / out.nbytes

    def test_allocating_draws_peak_within_a_tenth_over_their_size_plus_a_mib(self):
        ratios = {}
        for n, k in MEMORY_CASES:
            draws, peak = traced_peak(lambda: memory_draws(n, k))
            ratios[n, k] = (peak - 2**20) / draws.nbytes
        assert max(ratios.values()) <= 1.1, ratios

    def test_ks_table_peaks_within_one_sorted_column_and_blocks(self):
        extra = {}
        for n, k in MEMORY_CASES:
            draws = memory_draws(n, k)
            _, peak = traced_peak(lambda: harness.ks_table(draws, MarginalSpec(n, k), sampler(n, k)[1]))
            extra[n, k] = (peak - len(draws) * 8) / KS_BLOCKS
        assert max(extra.values()) <= 1.0, extra

    @pytest.mark.parametrize("n,k", [(5, 2), (21, 2), (6, 3), (4, 4)])
    def test_marginal_suite_peaks_within_its_table_a_column_and_4_mib(self, n, k):
        rows = MEMORY_CELLS // n
        checks, peak = traced_peak(lambda: verify.marginal_suite(n, k, samples=rows, seed=8))
        assert len(checks) == n + 1
        assert peak <= rows * (n + 1) * 8 + 4 * 2**20, peak / (rows * n * 8)

    @pytest.mark.parametrize("mode,n,k,sources", [
        ("two-bidder", 8, 2, 1), ("two-bidder", 7, 2, 4), ("two-bidder", 3, 2, 3),
        ("k-bidder", 6, 3, 3), ("k-bidder", 8, 4, 4), ("k-bidder", 4, 2, 2),
    ])
    def test_simulate_keeps_only_the_source_columns(self, monkeypatch, mode, n, k, sources):
        kept = []

        def recording(draws, *args):
            kept.append(draws.shape)
            return ks_table(draws, *args)

        ks_table = harness.ks_table
        monkeypatch.setattr(harness, "ks_table", recording)
        samples = 3 * montecarlo.chunk_rows(k, n) + 5
        report = estimate(Scenario(mode, n, k, samples=samples, seed=4, ks_stats=True))
        assert kept == [(samples, sources)]
        assert len(report.statistics["ks"]["entries"]) == n


def ks_reference(draws, n, k):
    """ks_table's distances, one ks_distance per column."""
    cdf = partial(marginal_cdf, MarginalSpec(n, k))
    return [ks_distance(draws[:, c], cdf) for c in range(draws.shape[1])]


def alone(n):
    """A layout of n columns, each its own source."""
    return [(c, None) for c in range(n)]


def table_distances(draws, n, k, columns):
    return [e["distance"] for e in harness.ks_table(draws, MarginalSpec(n, k), columns)["entries"]]


def count_ks_calls(monkeypatch):
    calls = []

    def counted(sample, cdf):
        calls.append(sample.size)
        return ks_distance(sample, cdf)

    monkeypatch.setattr(harness, "ks_distance", counted)
    return calls


# two-bidder n = 2..9, and k-bidder (k * m, k) for k = 2..5 and m = 1..3
LAYOUT_CASES = [("two-bidder", n, 2) for n in range(2, 10)] + [
    ("k-bidder", k * m, k) for k in range(2, 6) for m in range(1, 4)
]


class TestKsCopies:
    """ks_table scores each source column of a sampler's declared layout
    once: a copy takes its source's distance, and a mirror is scored from
    its reflected sorted source."""

    @pytest.mark.parametrize("n, k", [(4, 2), (5, 2), (7, 2), (64, 2), (6, 3), (12, 3), (64, 4)])
    @pytest.mark.parametrize("layout", [np.ascontiguousarray, np.asfortranarray])
    def test_matches_per_column_reference(self, n, k, layout):
        # two ks_distance blocks and a partial third
        rows = 2 * samplers.BLOCK + 7
        draw, columns = sampler(n, k)
        draws = layout(draw(RngStream(8), rows))
        assert table_distances(draws, n, k, columns) == ks_reference(draws, n, k)

    @pytest.mark.parametrize("n, k, calls", [(64, 2, 2), (12, 3, 3), (7, 2, 5), (5, 2, 5)])
    def test_one_call_per_distinct_column(self, n, k, calls, monkeypatch):
        draw, columns = sampler(n, k)
        draws = draw(RngStream(8), 5_000)
        counted = count_ks_calls(monkeypatch)
        harness.ks_table(draws, MarginalSpec(n, k), columns)
        assert len(counted) == calls

    def test_undeclared_copies_are_scored_alone(self, monkeypatch):
        # an equal column the layout does not name as a copy is scored: ks_table guesses no copies
        draws = np.random.default_rng(4).random((3_000, 4)) / 2
        draws[:, 3] = draws[:, 0]
        counted = count_ks_calls(monkeypatch)
        assert table_distances(draws, 4, 2, alone(4)) == ks_reference(draws, 4, 2)
        assert len(counted) == 4

    @pytest.mark.parametrize("mode, n, k", LAYOUT_CASES)
    @pytest.mark.parametrize("side", ["rows", "columns"])
    def test_declared_layout_holds(self, monkeypatch, mode, n, k, side):
        # either side of by_columns, and with row 3 redrawn after a planted zero bid
        rows = 128 * n - (side == "rows")
        real = samplers._unit_rows
        planted = []

        def plant_zero(out, gen, redraw):
            if not planted:
                planted.append(True)
                out[3] = [0.0] + [1.0 / (n - 1)] * (n - 1)
            return real(out, gen, redraw)

        monkeypatch.setattr(samplers, "_unit_rows", plant_zero)
        draw, columns = harness.marginal_draw(mode, n, k)
        draws = draw(RngStream(12, n), rows)
        assert samplers.by_columns(rows, n) == (side == "columns") == draws.flags.f_contiguous
        assert planted and draws[3].min() > 0.0
        assert len(columns) == n
        for c, (source, about) in enumerate(columns):
            assert columns[source] == (source, None)
            if about is None:
                assert draws[:, c].tobytes() == draws[:, source].tobytes()
                continue
            assert mode == "two-bidder" and about == 2.0 / n
            assert draws[:, c].tobytes() == np.subtract(about, draws[:, source]).tobytes()
            reflected = np.subtract(about, np.sort(draws[:, source])[::-1])
            assert reflected.tobytes() == np.sort(draws[:, c]).tobytes()

    def test_empty_table_raises(self):
        # an all-NaN table's DomainError is checked with ks_distance's NaN cases
        with pytest.raises(EmptySample):
            harness.ks_table(np.empty((0, 4)), MarginalSpec(4, 2), alone(4))


def chunk_samples(k, n):
    """Three full play chunks and a partial fourth."""
    return 3 * montecarlo.chunk_rows(k, n) + 5


CHUNK_CASES = [
    Scenario("position-randomized", 8, 3, AdversaryPlan("undercut"), samples=chunk_samples(3, 8)),
    Scenario("k-bidder", 6, 3, samples=chunk_samples(3, 6)),
    Scenario("k-bidder", 16, 4, samples=chunk_samples(4, 16)),
    Scenario("two-bidder", 5, samples=chunk_samples(2, 5)),
    Scenario(
        "two-bidder", 8, adversary=AdversaryPlan.fixed(["1/8"] * 8), samples=chunk_samples(2, 8)
    ),
]


class TestChunkMemory:
    """A Monte Carlo run holds one reused chunk stack, and win_counts
    resolves it in one pass."""

    @pytest.mark.parametrize("scenario", CHUNK_CASES, ids=lambda sc: f"{sc.mode}-{sc.n}-{sc.k}")
    def test_estimate_peaks_within_one_and_three_quarter_chunk_stacks(self, scenario):
        _, peak = traced_peak(lambda: estimate(scenario))
        stack_bytes = scenario.k * montecarlo.chunk_rows(scenario.k, scenario.n) * scenario.n * 8
        assert peak <= 1.75 * stack_bytes, peak / stack_bytes


class TestPermutedFiller:
    """Position mode's ladder filler: a table of every permutation up to 8
    cells, ``Generator.permuted`` past them."""

    @staticmethod
    def planes(n, rows):
        # one row-major plane, and one column-major plane of the same shape
        return [np.empty((rows, n)), samplers.row_planes(np.empty(rows * n), 1, rows, n)[0]]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_rows_are_the_drawn_permutations_in_lexicographic_order(self, n):
        row = np.arange(2.0, 2 * n + 1, 2)
        perms = [list(p) for p in itertools.permutations(range(n))]
        fill = harness._permuted(row)
        for plane in self.planes(n, 200 * n):
            fill(RngStream(n, 3), plane)
            twin = RngStream(n, 3).generator.integers(0, math.factorial(n), size=len(plane))
            assert np.array_equal(plane, np.array([row[perms[i]] for i in twin]))

    def test_past_eight_cells_rows_are_permuted(self):
        row = np.arange(2.0, 19, 2)
        for plane in self.planes(9, 2000):
            harness._permuted(row)(RngStream(9, 4), plane)
            twin = np.tile(row, (len(plane), 1))
            RngStream(9, 4).generator.permuted(twin, axis=1, out=twin)
            assert np.array_equal(plane, twin)

    def test_four_cell_permutations_are_uniform(self):
        # chi-square over all 24 permutations of one 48,000-row plane, at 99.9%
        row = np.arange(4.0)
        plane = np.empty((48_000, 4))
        harness._permuted(row)(RngStream(2024, 0), plane)
        index = {p: i for i, p in enumerate(itertools.permutations(range(4)))}
        counts = np.bincount([index[tuple(r)] for r in plane.astype(int).tolist()], minlength=24)
        assert stats.chisquare(counts).pvalue > 0.001


class TestKsOffsets:
    def test_ks_columns_follow_chunk_streams(self):
        # the partial last chunk lands at row 2 * rows
        n, seed = 5, 13
        rows = montecarlo.chunk_rows(2, n)
        samples = 2 * rows + 7
        with_ks = estimate(Scenario("two-bidder", n, samples=samples, seed=seed, ks_stats=True))
        without = estimate(Scenario("two-bidder", n, samples=samples, seed=seed))
        assert with_ks.estimates == without.estimates
        last = []
        for index, start in enumerate(range(0, samples, rows)):
            length = min(rows, samples - start)
            rng = RngStream(seed, index)
            draw_two_bidder(n, rng, size=length)  # the adversary's copycat draw
            last.append(draw_two_bidder(n, rng, size=length))
        # every column scored on its own, with no layout: the kept source columns give the same table
        expected = harness.ks_table(np.concatenate(last), MarginalSpec(n, 2), alone(n))
        assert with_ks.statistics["ks"] == expected


class TestWinCounts:
    def test_per_draw_totals_equal_object_count(self):
        gen = np.random.default_rng(5)
        base = gen.random((3, 500, 4))
        base[1, :250] = base[0, :250]  # force plenty of ties
        wins = win_counts(base, gen)
        assert wins.shape == (3, 500)
        assert np.all(wins.sum(axis=0) == 4)

    def test_tie_sampling_is_fair(self):
        base = np.full((2, 40_000, 1), 0.5)
        gen = np.random.default_rng(9)
        wins = win_counts(base, gen)
        share = wins[0].mean()
        assert abs(share - 0.5) < 3 * 0.5 / math.sqrt(40_000)

    def test_play_fills_every_sample_once_per_stream(self):
        # chunk i fills its rows from stream i, bidders in order
        rows = montecarlo.chunk_rows(2, 3)
        samples = 2 * rows + 7
        calls = []

        def recording(b):
            def fill(rng, plane):
                calls.append((rng.stream, b, plane.shape))
                plane[...] = b
            return fill

        tally, layout, kept = play(3, samples, 5, [recording(0), recording(1)], keep=(1, [0, 1, 2]))
        lengths = [rows, rows, 7]
        assert calls == [(i, b, (length, 3)) for i, length in enumerate(lengths) for b in (0, 1)]
        assert tally.count == samples and tally.sums == [0, 3 * samples]
        assert layout == {"chunks": 3, "chunk_rows": rows}
        assert kept.shape == (samples, 3) and np.all(kept == 1)

    def test_large_position_chunk_stays_within_cell_budget(self, monkeypatch):
        # CELLS // (k * n) = 4 rows per chunk, so 75 chunks
        shapes = []

        def recording(base, gen):
            shapes.append(base.shape)
            return win_counts(base, gen)

        monkeypatch.setattr(montecarlo, "win_counts", recording)
        scenario = Scenario(
            "position-randomized", 10_000, 3, AdversaryPlan("dp-optimal"), 300, 3
        )
        report = estimate(scenario)
        assert len(shapes) > 1
        assert all(k * rows * n <= montecarlo.CELLS for k, rows, n in shapes)
        assert sum(rows for _, rows, _ in shapes) == 300
        assert math.fsum(e.mean for e in report.estimates) == pytest.approx(10_000)

    @pytest.mark.parametrize(
        "k,n",
        [(2, 1), (2, 5), (3, 6), (7, 9), (2, montecarlo.CELLS // 2),
         (2, montecarlo.CELLS // 2 + 1), (3, 50_000)],
    )
    def test_play_stacks_fit_the_cell_budget(self, monkeypatch, k, n):
        # a row wider than CELLS cells makes a one-row chunk
        shapes = []

        def recording(base, gen):
            shapes.append(base.shape)
            return np.zeros(base.shape[:2], dtype=np.int64)

        monkeypatch.setattr(montecarlo, "win_counts", recording)
        rows = montecarlo.chunk_rows(k, n)
        samples = 2 * rows + 1
        tally, _, _ = play(n, samples, 1, [lambda rng, plane: None] * k)
        assert [r for _, r, _ in shapes] == [rows, rows, 1] and tally.count == samples
        assert all(r >= 1 and (r == 1 or k * r * n <= montecarlo.CELLS) for _, r, _ in shapes)
        assert all((kk, nn) == (k, n) for kk, _, nn in shapes)

    def test_tally_matches_numpy(self):
        gen = np.random.default_rng(4)
        wins = gen.integers(0, 5, size=(2, 1000))
        tally = WinTally(2)
        tally.add(wins[:, :600])
        tally.add(wins[:, 600:])
        assert tally.mean(0) == pytest.approx(wins[0].mean())
        assert tally.stderr(0) == pytest.approx(
            wins[0].std(ddof=1) / math.sqrt(1000)
        )


class TestScenarioValidation:
    @pytest.mark.parametrize("mode", ["position-randomized", "sequential", "group"])
    def test_ks_only_in_sampled_marginal_modes(self, mode):
        with pytest.raises(ScenarioError, match="KS statistics"):
            Scenario(mode, 4, 2, ks_stats=True).validate()

    @pytest.mark.parametrize("mode", ["two-bidder", "k-bidder", "position-randomized", "sequential"])
    def test_group_sizes_only_in_group_mode(self, mode):
        with pytest.raises(ScenarioError, match="group_sizes"):
            Scenario(mode, 4, 2, group_sizes=(1, 3)).validate()

    def test_unknown_mode(self):
        with pytest.raises(ScenarioError):
            Scenario(mode="auction", n=4).validate()

    def test_two_bidder_needs_k2(self):
        with pytest.raises(ScenarioError):
            Scenario(mode="two-bidder", n=4, k=3).validate()

    def test_k_bidder_needs_divisibility(self):
        with pytest.raises(ScenarioError):
            Scenario(mode="k-bidder", n=5, k=3).validate()

    def test_fixed_needs_matching_length(self):
        with pytest.raises(ScenarioError):
            Scenario(
                mode="two-bidder",
                n=4,
                adversary=AdversaryPlan.fixed([Fraction(1, 4)] * 3),
            ).validate()

    @pytest.mark.parametrize(
        "field,value",
        [("n", 4.0), ("k", 3.0), ("samples", 10.5), ("seed", 1.5), ("n", Fraction(4)),
         ("samples", True), ("n", True), ("k", True), ("seed", False)],
    )
    def test_sizes_and_seed_must_be_integers(self, field, value):
        # floats once escaped as TypeErrors, and seed 1.5 ran as seed 1; samples=True
        # ran one sample and printed "samples": true
        sizes = {"n": 6, "k": 3, "samples": 10, "seed": np.int64(1)}
        Scenario("k-bidder", **sizes).validate()
        with pytest.raises(ScenarioError, match=f"{field} must be an integer"):
            Scenario("k-bidder", **{**sizes, field: value}).validate()

    def test_fixed_over_budget(self):
        with pytest.raises(ScenarioError):
            Scenario(
                mode="two-bidder",
                n=2,
                adversary=AdversaryPlan.fixed([Fraction(3, 4), Fraction(1, 2)]),
            ).validate()

    def test_group_needs_sizes(self):
        with pytest.raises(ScenarioError):
            Scenario(
                mode="group",
                n=3,
                adversary=AdversaryPlan.fixed([Fraction(1, 3)]),
            ).validate()

    def test_group_n_must_equal_sizes_total(self):
        plan = AdversaryPlan.fixed([Fraction(1, 3), Fraction(1, 3)])
        Scenario("group", 3, 2, plan, group_sizes=(1, 2)).validate()
        for n in (4, 7):
            with pytest.raises(ScenarioError, match="n = 3"):
                Scenario("group", n, 2, plan, group_sizes=(1, 2)).validate()

    @pytest.mark.parametrize("script", [["-1", "0.5"], ["2", "2", "2", "2"], ["0.5", "1.01"]])
    def test_sequential_script_amounts_in_unit_range(self, script):
        with pytest.raises(ScenarioError, match=r"in \[0, 1\]"):
            Scenario("sequential", 4, 2, AdversaryPlan.fixed(script)).validate()

    @pytest.mark.parametrize(
        "mode, n, k, bids, extra",
        [
            ("two-bidder", 4, 2, (0.5, 0.25, 0.25, 0.0), {}),
            ("k-bidder", 4, 2, (0.5, 0.25, 0.25, 0.0), {}),
            ("position-randomized", 4, 2, (0.5, 0.25, 0.25, 0.0), {}),
            ("sequential", 4, 2, (0.5, 0.5, 0.0, 0.0), {}),
            ("group", 3, 2, (0.25, 0.25), {"group_sizes": (1, 2)}),
        ],
        ids=["two-bidder", "k-bidder", "position-randomized", "sequential", "group"],
    )
    def test_fixed_bids_become_fractions_when_the_plan_is_made(self, mode, n, k, bids, extra):
        # float bids were once kept as floats, so a NaN passed validate and
        # estimate's exact values came out as floats
        plan = AdversaryPlan("fixed", bids)
        assert plan == AdversaryPlan.fixed(bids)
        assert all(type(b) is Fraction for b in plan.bids)
        report = estimate(Scenario(mode, n, k, plan, samples=100, **extra))
        assert all(type(value) is Fraction for value in report.exact)
        for bad in ("x", math.nan, math.inf):
            with pytest.raises(DomainError, match="not a finite exact amount"):
                Scenario(mode, n, k, AdversaryPlan("fixed", (bad,) + bids[1:]), **extra)

    def test_sequential_script_zero_and_one_allowed(self):
        Scenario("sequential", 4, 2, AdversaryPlan.fixed(["0", "1", "0.5"])).validate()

    def test_position_adversary_kinds(self):
        with pytest.raises(ScenarioError):
            Scenario(mode="position-randomized", n=4, adversary=AdversaryPlan("copycat")).validate()

    @pytest.mark.parametrize("kind", ["copycat", "undercut", "steady"])
    def test_bids_only_with_fixed(self, kind):
        plan = AdversaryPlan(kind, (Fraction(1, 2), Fraction(1, 2)))
        for mode in ("two-bidder", "position-randomized", "sequential"):
            with pytest.raises(ScenarioError, match="takes no bids"):
                Scenario(mode, 2, 2, plan).validate()

    def test_ks_table_size_limit(self):
        limit = harness.KS_CELLS // 8
        Scenario("k-bidder", 8, 2, samples=limit, ks_stats=True).validate()
        with pytest.raises(SizeLimitExceeded, match="cell limit"):
            Scenario("k-bidder", 8, 2, samples=limit + 1, ks_stats=True).validate()
        # no KS table, no limit
        Scenario("k-bidder", 8, 2, samples=limit + 1).validate()

    def test_ks_table_column_limit(self):
        # one sample keeps samples x n under the cell cap, but the report holds an entry per column
        Scenario("two-bidder", harness.KS_COLUMNS, samples=1, ks_stats=True).validate()
        for mode, k in (("two-bidder", 2), ("k-bidder", 2)):
            with pytest.raises(SizeLimitExceeded, match="65,536-column limit"):
                Scenario(mode, harness.KS_COLUMNS + 2, k, samples=1, ks_stats=True).validate()
        # no KS table, no column limit
        Scenario("two-bidder", harness.KS_COLUMNS + 2, samples=1).validate()

    def test_sampled_row_size_limit(self):
        # one row of k x n bids is the least a chunk holds: 3.2 GB here
        with pytest.raises(SizeLimitExceeded, match="cell limit"):
            Scenario("k-bidder", 20_000, 20_000, samples=10).validate()
        half = harness.KS_CELLS // 2
        Scenario("two-bidder", half, samples=10).validate()
        with pytest.raises(SizeLimitExceeded, match="cell limit"):
            Scenario("two-bidder", half + 1, samples=10).validate()
        undercut = AdversaryPlan("undercut")
        Scenario("position-randomized", 10**6, 3, undercut, samples=10).validate()
        with pytest.raises(SizeLimitExceeded, match="cell limit"):
            Scenario("position-randomized", harness.KS_CELLS // 3 + 1, 3, undercut).validate()

    def test_oversized_ladder_is_refused_before_any_work(self, monkeypatch):
        # (10**7, 3) holds about 2.1e8 digits; only estimate used to refuse it
        with pytest.raises(SizeLimitExceeded, match="ladder limit of 20,000,000"):
            Scenario("position-randomized", 10**7, 3).validate()
        monkeypatch.setattr(position_randomized, "MAX_LADDER_DIGITS", 15)
        Scenario("position-randomized", 8, 2).validate()
        for kind in ("dp-optimal", "undercut"):
            with pytest.raises(SizeLimitExceeded, match="ladder limit of 15"):
                Scenario("position-randomized", 9, 2, AdversaryPlan(kind)).validate()
        # the other modes build no ladder
        Scenario("two-bidder", 9, 2).validate()

    def test_simplex_bidder_limit(self):
        # past MAX_SIMPLEX_K nearly every k-bidder row would hold an underflowed gamma
        Scenario("k-bidder", MAX_SIMPLEX_K, MAX_SIMPLEX_K, samples=10).validate()
        with pytest.raises(SizeLimitExceeded, match="bidder limit"):
            Scenario("k-bidder", 200, 200, samples=1000).validate()
        with pytest.raises(SizeLimitExceeded, match="bidder limit"):
            Scenario("k-bidder", 2 * (MAX_SIMPLEX_K + 1), MAX_SIMPLEX_K + 1).validate()


def small_scenario(**overrides):
    settings = dict(
        mode="two-bidder",
        n=4,
        k=2,
        adversary=AdversaryPlan.fixed([Fraction(1, 4)] * 4),
        samples=20_000,
        seed=11,
    )
    settings.update(overrides)
    return Scenario(**settings)


class TestEstimate:
    def test_fixed_two_bidder_exact_and_estimates(self):
        report = estimate(small_scenario())
        assert report.exact == (Fraction(2), Fraction(2))
        assert report.estimates[0].mean == pytest.approx(2.0, abs=0.05)
        assert {e.bidder for e in report.estimates} == {0, 1}

    def test_reports_are_deterministic(self):
        a = estimate(small_scenario()).to_json_dict()
        b = estimate(small_scenario()).to_json_dict()
        a["meta"].pop("elapsed_s")
        b["meta"].pop("elapsed_s")
        assert a == b

    def test_seed_changes_estimates(self):
        a = estimate(small_scenario(adversary=AdversaryPlan("copycat"), n=5, seed=1))
        b = estimate(small_scenario(adversary=AdversaryPlan("copycat"), n=5, seed=2))
        assert a.estimates[0].mean != b.estimates[0].mean

    def test_ks_statistics_present_when_requested(self):
        report = estimate(small_scenario(ks_stats=True))
        table = report.statistics["ks"]
        assert len(table["entries"]) == 4
        assert table["max_sum_error"] <= 1e-12
        assert all(e["distance"] >= 0 for e in table["entries"])

    def test_position_mode_exact_fields(self):
        report = estimate(
            small_scenario(
                mode="position-randomized",
                adversary=AdversaryPlan("dp-optimal"),
                samples=50_000,
            )
        )
        assert report.exact[0] == Fraction(9, 4)
        assert report.exact[1] == Fraction(7, 4)
        assert report.estimates[0].mean == pytest.approx(2.25, abs=0.05)

    def test_large_position_run_scores_from_the_ladder(self):
        # undercut takes (W - 1)/n**2, and the ladder against itself ties
        # every rank, which splits the n objects evenly
        n, k = 10_000, 3
        ladder = initial_bids(n, k)
        cases = [
            (AdversaryPlan("undercut"), Fraction(ladder.weight_total - 1, n**2)),
            (AdversaryPlan.fixed(ladder.bids), Fraction(n, k)),
        ]
        for plan, value in cases:
            report = estimate(Scenario("position-randomized", n, k, plan, 1_000, 17))
            assert report.exact[0] == value
            assert report.exact[1] == report.exact[2] == (n - value) / 2
            for est, exact in zip(report.estimates, report.exact):
                assert abs(est.mean - float(exact)) <= 5 * est.stderr

    def test_amounts_one_float_apart_stay_distinct(self):
        # ladder[0] + 1e-30 has the double of ladder[0] but beats it; a run
        # that placed float amounts scored it a tie and sat about 8 stderr low
        ladder = initial_bids(6, 3).bids
        amounts = [ladder[0] + Fraction(1, 10**30), *ladder[1:5], ladder[5] - Fraction(1, 1000)]
        assert float(amounts[0]) == float(ladder[0])
        report = estimate(
            Scenario("position-randomized", 6, 3, AdversaryPlan.fixed(amounts), 100_000, 1)
        )
        first = report.estimates[0]
        assert abs(first.mean - float(report.exact[0])) <= 3 * first.stderr

    @pytest.mark.parametrize("n,k", [(n, k) for k in range(2, 6) for n in range(k, 13)])
    def test_ladder_places_order_and_tie_as_bids(self, n, k):
        # position mode plays places against ranks at 2i: amounts one double
        # from a rank, equal amounts in distinct Fraction objects and eps
        # past int64 must place as the bids compare
        ladder = initial_bids(n, k)
        tiny = Fraction(1, 10**30)
        bases = [Fraction(0), Fraction(1, 91), Fraction(1)]
        for c in ladder.bids:
            assert float(c - tiny) == float(c) == float(c + tiny)
            bases += [c - tiny, Fraction(c.numerator, c.denominator), c + tiny]
        bids = [Bid(b, e) for b in bases for e in (-(2**70), -1, 0, 1, 2**63, 2**70)]
        random.Random(n * k).shuffle(bids)
        places = position_randomized._ladder_places(bids, n, k)
        for bid, place in zip(bids, places):
            for i, c in enumerate(ladder.bids, 1):
                assert (place < 2 * i) == (bid < Bid(c)), (bid, i)
                assert (place == 2 * i) == (bid == Bid(c)), (bid, i)

    def test_undercut_matches_dp_value(self):
        report = estimate(
            small_scenario(
                mode="position-randomized",
                adversary=AdversaryPlan("undercut"),
                samples=10_000,
            )
        )
        assert report.exact[0] == Fraction(9, 4)

    def test_sequential_mode(self):
        report = estimate(
            small_scenario(
                mode="sequential",
                adversary=AdversaryPlan.fixed(["0.6", "0.4", "0.4", "0.4"]),
                samples=500,
            )
        )
        assert report.exact == (Fraction(2), Fraction(2))
        assert report.meta["samples"] == 500
        assert report.estimates[1].mean >= 2.0

    def test_sequential_counters(self):
        # all-steady (6,2) visits 1 + 2 + 3 + 4 + 3 + 2 merged states and
        # ends on one
        report = estimate(Scenario("sequential", 6, 2, samples=300, seed=4))
        assert report.meta["samples"] == 300
        assert report.meta["counters"] == {
            "peak_states": 4, "state_rounds": 15, "trials": 300, "leaves": 1,
        }
        assert all(type(v) is int for v in report.meta["counters"].values())
        assert set(estimate(small_scenario()).meta["counters"]) == {"chunks", "chunk_rows"}

    @pytest.mark.parametrize(
        "scenario",
        [
            Scenario("two-bidder", 5, samples=30_000),
            Scenario("k-bidder", 6, 3, samples=20_000),
            Scenario("position-randomized", 8, 3, AdversaryPlan("undercut"), samples=20_000),
        ],
        ids=lambda sc: sc.mode,
    )
    def test_play_counters_report_the_chunk_layout(self, monkeypatch, scenario):
        shapes = []

        def recording(base, gen):
            shapes.append(base.shape)
            return win_counts(base, gen)

        monkeypatch.setattr(montecarlo, "win_counts", recording)
        counters = estimate(scenario).meta["counters"]
        rows = montecarlo.chunk_rows(scenario.k, scenario.n)
        assert counters == {"chunks": math.ceil(scenario.samples / rows), "chunk_rows": rows}
        assert counters["chunks"] == len(shapes) > 1
        assert shapes[0][1] == rows

    @pytest.mark.parametrize("scenario", [
        Scenario("two-bidder", 5, samples=2_500, ks_stats=True),
        Scenario("k-bidder", 6, 3, samples=2_500),
        Scenario("position-randomized", 8, 3, AdversaryPlan("undercut"), samples=2_500),
    ], ids=lambda sc: sc.mode)
    def test_counters_follow_the_loop(self, monkeypatch, scenario):
        # play's own chunk rule, wherever it comes from, is what meta reports
        monkeypatch.setattr(montecarlo, "chunk_rows", lambda k, n: 1_000)
        report = estimate(scenario)
        assert report.meta["counters"] == {"chunks": 3, "chunk_rows": 1_000}
        assert report.meta["samples"] == 2_500

    def test_sequential_samples_are_trials(self):
        # no cap: every sample is one trial
        report = estimate(Scenario("sequential", 4, 2, samples=20_001, seed=4))
        assert report.meta["samples"] == report.meta["counters"]["trials"] == 20_001

    def test_group_mode_exact_only(self):
        report = estimate(
            Scenario(
                mode="group",
                n=3,
                k=2,
                adversary=AdversaryPlan.fixed([Fraction(1, 3), Fraction(1, 3)]),
                group_sizes=(1, 2),
            )
        )
        assert report.exact == (Fraction(3, 2), Fraction(3, 2))
        assert report.estimates == ()

    def test_mean_bounds(self):
        report = estimate(small_scenario(adversary=AdversaryPlan("copycat")))
        for est in report.estimates:
            assert 0.0 <= est.mean <= 4.0

    def test_json_schema_keys(self):
        payload = estimate(small_scenario()).to_json_dict()
        assert set(payload) == {"scenario", "estimates", "exact", "statistics", "meta"}
        assert payload["exact"][0] == {"num": 2, "den": 1, "decimal": "2"}
        assert set(payload["meta"]) == {"seed", "samples", "counters", "version", "elapsed_s"}

    def test_csv_rows(self):
        rows = estimate(small_scenario()).to_csv_rows()
        assert rows[0] == ["bidder", "mean", "stderr", "exact_num", "exact_den"]
        assert len(rows) == 3
        assert rows[1][0] == 0


class TestGroupLimit:
    @pytest.mark.parametrize("k", [10**6, 10**20])
    def test_many_bidders_refused_before_any_value(self, monkeypatch, k):
        # 10^20 once escaped as a plain OverflowError; 10^6 took 6.4 s and 1.1 GB
        def untouched(*args):
            raise AssertionError("scored past the bidder limit")

        monkeypatch.setattr(harness, "group_wins", untouched)
        monkeypatch.setattr(harness, "_disadvantaged_split", untouched)
        scenario = Scenario("group", 3, k, AdversaryPlan.fixed([0.3, 0.3]), group_sizes=(1, 2))
        with pytest.raises(SizeLimitExceeded, match=f"^group mode of {k:,} bidders exceeds the 65,536-bidder limit$"):
            estimate(scenario)

    def test_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(harness, "MAX_GROUP_K", 4)
        plan = AdversaryPlan.fixed([Fraction(1, 3)] * 2)
        assert len(estimate(Scenario("group", 3, 4, plan, group_sizes=(1, 2))).exact) == 4
        with pytest.raises(SizeLimitExceeded, match="4-bidder limit"):
            Scenario("group", 3, 5, plan, group_sizes=(1, 2)).validate()


class TestPrintLimits:
    # Python prints an int of at most 4,300 digits; a longer one, or a decimal
    # past the float range, once escaped as a plain ValueError or OverflowError
    @pytest.mark.parametrize("value", [
        Fraction(1, 10**4300), Fraction(10**4300), Fraction(-7 * 10**5000, 3), Fraction(1, 2**7400 * 3**4650),
    ])
    def test_values_with_too_many_digits_are_refused(self, value):
        with pytest.raises(SizeLimitExceeded, match="digits, past the 4,300 that can be printed"):
            harness.fraction_json(value)
        report = harness.Report(small_scenario(), (), (Fraction(1), value), {}, {})
        with pytest.raises(SizeLimitExceeded, match="digits, past the 4,300 that can be printed"):
            report.to_csv_rows()

    def test_values_at_the_digit_limit_print(self):
        value = Fraction(-(10**4300 - 1), 10**4300 - 3)
        assert harness.fraction_json(value) == {"num": value.numerator, "den": value.denominator, "decimal": "-1"}
        report = harness.Report(small_scenario(), (), (value,), {}, {})
        assert report.to_csv_rows()[1][3:] == [value.numerator, value.denominator]
        assert len(str(value.denominator)) == 4300

    def test_values_past_the_float_range_are_refused_in_json_only(self):
        for value in (Fraction(10**400), Fraction(-(10**310), 7)):
            with pytest.raises(SizeLimitExceeded, match=r"about 10\^\d+\.\d is past the float range"):
                harness.fraction_json(value)
            report = harness.Report(small_scenario(), (), (value,), {}, {})
            assert report.to_csv_rows()[1][3:] == [value.numerator, value.denominator]
        assert harness.fraction_json(Fraction(1, 10**400))["decimal"] == "0"


class TestZeroSumPerDraw:
    def test_exact_engine_resolution_by_chunks(self):
        # the harness realizes ties by sampling, so per-draw wins are
        # integers that always total n
        gen = np.random.default_rng(31)
        base = np.stack([gen.random((200, 6)), gen.random((200, 6))])
        base[1, ::3] = base[0, ::3]
        wins = win_counts(base, gen)
        assert np.all(wins.sum(axis=0) == 6)


class TestKBidderCopycatSymmetry:
    def test_every_bidder_near_even_share(self):
        report = estimate(
            Scenario(
                mode="k-bidder",
                n=6,
                k=3,
                adversary=AdversaryPlan("copycat"),
                samples=100_000,
                seed=21,
            )
        )
        assert report.exact == (Fraction(2),) * 3
        for est in report.estimates:
            assert abs(est.mean - 2.0) <= 3 * est.stderr
