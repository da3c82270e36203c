import math
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from auctionlab import (
    DomainError,
    InvariantError,
    LengthMismatch,
    MarginalSpec,
    NotMultiple,
    RngStream,
    SizeLimitExceeded,
    draw_k_bidder,
    draw_simplex,
    draw_triple,
    draw_two_bidder,
    marginal_cdf,
    pair_density,
    spread_density,
    triple_density,
    triple_from_uniforms,
    validate_sequence,
)
from auctionlab import cli, samplers
from auctionlab.harness import KS_FACTOR, ks_distance
from auctionlab.samplers import MAX_SIMPLEX_K, ONE_THIRD, SUM_TOLERANCE, _row_sums, _unit_rows, row_sum_error

N_KS = 200_000
KS_THRESHOLD = KS_FACTOR / math.sqrt(N_KS)


def range_mass_quadrature(d):
    """Integral of the triple density over {max - min <= d}, reduced to the
    ordered region: the middle coordinate integrates to (hi - lo) because the
    density depends only on the range (6 orderings)."""

    def inner(lo):
        top = min(lo + d, 1 / 3)
        val, _ = integrate.quad(
            lambda hi: (hi - lo) * spread_density(2 * (hi - lo)), lo, top, limit=200
        )
        return val

    val, _ = integrate.quad(inner, 0.0, 1 / 3, limit=200)
    return 6 * val


class TestTripleDecompositionOracle:
    """Pre-verification of the sampler's range decomposition against
    quadrature of the density itself."""

    @pytest.mark.parametrize("d", [0.05, 0.1, 1 / 6, 0.25, 0.32])
    def test_range_cdf_is_27_d_cubed(self, d):
        assert range_mass_quadrature(d) == pytest.approx(27 * d**3, abs=1e-9)

    def test_density_constant_given_range(self):
        # conditional on the range, (min, middle) carry no density variation
        d = 0.21
        reference = triple_density(0.0, 0.0 + 0.07, d)
        for lo in (0.0, 0.04, 0.11):
            for mid_frac in (0.13, 0.55, 0.92):
                val = triple_density(lo, lo + mid_frac * d, lo + d)
                assert val == pytest.approx(reference)


class TestTripleFromUniforms:
    def test_unit_input_forces_full_range(self):
        x, y, z = triple_from_uniforms(1.0, 0.0, 0.5)
        assert max(x, y, z) - min(x, y, z) == pytest.approx(1 / 3)

    def test_one_eighth_forces_half_range(self):
        x, y, z = triple_from_uniforms(1 / 8, 0.3, 0.5)
        assert max(x, y, z) - min(x, y, z) == pytest.approx(1 / 6)

    def test_permutations_cover_all_orders(self):
        seen = {triple_from_uniforms(0.5, 0.5, 0.5, p) for p in range(6)}
        assert len(seen) == 6


class TestDrawTriple:
    def test_within_cube(self):
        tri = draw_triple(RngStream(5), size=1000)
        assert tri.shape == (1000, 3)
        assert np.all(tri >= 0.0) and np.all(tri <= 1 / 3)

    def test_scalar_draw(self):
        x, y, z = draw_triple(RngStream(5))
        assert 0 <= min(x, y, z) and max(x, y, z) <= 1 / 3

    def test_empirical_range_cdf(self):
        tri = draw_triple(RngStream(6), size=N_KS)
        rng_vals = tri.max(axis=1) - tri.min(axis=1)
        dist = ks_distance(rng_vals, lambda v: 27 * np.clip(v, 0, 1 / 3) ** 3)
        assert dist <= KS_THRESHOLD

    def test_difference_coordinate_uniform(self):
        # each (3/n)-scaled bid coordinate is built from x - y + 1/3, which
        # must be uniform on [0, 2/3]
        tri = draw_triple(RngStream(7), size=N_KS)
        t = tri[:, 0] - tri[:, 1] + 1 / 3
        dist = ks_distance(t, lambda v: np.clip(v / (2 / 3), 0, 1))
        assert dist <= KS_THRESHOLD

    def test_pair_histogram_matches_closed_density(self):
        # chi-squared on the 16 interior cells of a 6x6 grid over (x, y)
        edges = np.linspace(0.0, 1 / 3, 7)
        tri = draw_triple(RngStream(8), size=N_KS)
        counts, _, _ = np.histogram2d(tri[:, 0], tri[:, 1], bins=[edges, edges])
        interior = [(i, j) for i in range(1, 5) for j in range(1, 5)]
        expected, observed = [], []
        for i, j in interior:
            prob, _ = integrate.dblquad(
                pair_density, edges[i], edges[i + 1],
                lambda _x: edges[j], lambda _x: edges[j + 1],
                epsabs=1e-10,
            )
            expected.append(prob * N_KS)
            observed.append(counts[i, j])
        rest_expected = N_KS - sum(expected)
        rest_observed = N_KS - sum(observed)
        chi2 = sum(
            (o - e) ** 2 / e
            for o, e in zip(observed + [rest_observed], expected + [rest_expected])
        )
        assert chi2 < stats.chi2.ppf(0.999, len(interior))


class TestDrawTwoBidder:
    def test_even_structure(self):
        seq = draw_two_bidder(4, RngStream(9))
        b = [bid.base for bid in seq.bids]
        assert b[0] == b[1] and b[2] == b[3]
        assert b[0] + b[2] == Fraction(1, 2)
        assert seq.base_total == 1
        validate_sequence(seq)

    def test_odd_structure(self):
        seq = draw_two_bidder(5, RngStream(10))
        b = [bid.base for bid in seq.bids]
        assert b[0] + b[1] == Fraction(2, 5)
        assert sum(b[2:]) == Fraction(3, 5)
        assert seq.base_total == 1

    def test_three_objects_is_pure_triple(self):
        seq = draw_two_bidder(3, RngStream(11))
        assert seq.base_total == 1
        assert all(0 < bid.base < Fraction(2, 3) for bid in seq.bids)

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            draw_two_bidder(1, RngStream(0))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 15, 16, 101, 10_001])
    def test_vectorized_rows_sum_to_one(self, n):
        # rows are built to total 1 (pairs 2/n, the triple 3/n), not divided by their sums
        size = 20_000 if n <= 101 else 50
        draws = draw_two_bidder(n, RngStream(12), size=size)
        assert draws.shape == (size, n)
        assert np.max(np.abs(draws.sum(axis=1) - 1.0)) <= 8 * np.finfo(float).eps
        assert np.all(draws > 0.0)

    @pytest.mark.parametrize("n", [4, 5, 3])
    def test_marginals_match_cdf(self, n):
        spec = MarginalSpec(n, 2)
        draws = draw_two_bidder(n, RngStream(13), size=N_KS)
        for c in range(n):
            assert ks_distance(draws[:, c], partial(marginal_cdf, spec)) <= KS_THRESHOLD


def assert_capped_unit_rows(rows, n, cap):
    """Positive rows of n bids that total 1 within SUM_TOLERANCE, none
    above the cap by more than a row total's rounding."""
    assert rows.shape[1] == n
    assert rows.min() > 0.0
    assert np.max(np.abs(rows.sum(axis=1) - 1.0)) <= SUM_TOLERANCE
    assert rows.max() <= cap * (1.0 + SUM_TOLERANCE)


class TestSampledRowProperties:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.integers(2, 12), st.integers(1, 500), st.integers(0, 2**32 - 1))
    def test_two_bidder_rows(self, n, size, seed):
        rows = draw_two_bidder(n, RngStream(seed), size=size)
        assert rows.shape[0] == size
        assert_capped_unit_rows(rows, n, 2.0 / n)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.integers(2, 4), st.integers(1, 4), st.integers(1, 500), st.integers(0, 2**32 - 1))
    def test_k_bidder_rows(self, k, groups, size, seed):
        n = k * groups
        rows = draw_k_bidder(n, k, RngStream(seed), size=size)
        assert rows.shape[0] == size
        assert_capped_unit_rows(rows, n, k / n)


class TestDrawSimplex:
    def test_sum_and_positivity(self):
        draws = draw_simplex(3, RngStream(14), size=20_000)
        assert np.max(np.abs(draws.sum(axis=1) - 1.0)) <= 1e-12
        assert np.all(draws > 0.0)

    def test_two_coordinates_uniform(self):
        draws = draw_simplex(2, RngStream(15), size=N_KS)
        dist = ks_distance(draws[:, 0], lambda v: np.clip(v, 0, 1))
        assert dist <= KS_THRESHOLD

    def test_three_bidder_quantile(self):
        # P(b_1 <= 1/4) = sqrt(1/4) = 1/2 when n = k = 3
        draws = draw_simplex(3, RngStream(16), size=N_KS)
        p = np.mean(draws[:, 0] <= 0.25)
        stderr = math.sqrt(0.5 * 0.5 / N_KS)
        assert abs(p - 0.5) <= 3 * stderr

    def test_scalar(self):
        vals = draw_simplex(4, RngStream(17))
        assert vals.shape == (4,)
        assert math.fsum(vals) == pytest.approx(1.0, abs=1e-12)


class TestThreeBidderJointLaw:
    """The k = 3 rows are squared coordinates of a point on the sphere.  These
    oracles check the joint law, which per-coordinate KS cannot see, against
    the Dirichlet(1/2, 1/2, 1/2) moment and normalized Gamma(1/2) rows."""

    N = 400_000

    @pytest.fixture(scope="class")
    def rows(self):
        return draw_simplex(3, RngStream(46), size=self.N)

    @pytest.fixture(scope="class")
    def gamma_rows(self):
        g = np.random.default_rng(47).standard_gamma(0.5, (self.N, 3))
        return g / g.sum(axis=1, keepdims=True)

    def test_product_moment(self, rows):
        # E[b0 b1] = a**2 / (A (A + 1)) = (1/4) / ((3/2)(5/2)) = 1/15
        product = rows[:, 0] * rows[:, 1]
        stderr = product.std(ddof=1) / math.sqrt(self.N)
        assert abs(product.mean() - 1 / 15) <= 5 * stderr

    @pytest.mark.parametrize(
        "statistic",
        [lambda r: r.max(axis=1), lambda r: r[:, 0] * r[:, 1]],
        ids=["max", "product"],
    )
    def test_matches_normalized_gammas(self, rows, gamma_rows, statistic):
        assert stats.ks_2samp(statistic(rows), statistic(gamma_rows)).pvalue >= 0.001


class TestDrawKBidder:
    def test_not_multiple(self):
        with pytest.raises(NotMultiple):
            draw_k_bidder(5, 3, RngStream(0))

    def test_group_replication(self):
        seq = draw_k_bidder(6, 3, RngStream(18))
        b = [bid.base for bid in seq.bids]
        assert b[:3] == b[3:]
        assert seq.base_total == 1
        validate_sequence(seq)

    def test_n_equals_k_matches_simplex_sampler(self):
        seq = draw_k_bidder(3, 3, RngStream(19))
        direct = draw_simplex(3, RngStream(19))
        assert [float(b.base) for b in seq.bids] == pytest.approx(list(direct))

    def test_marginal_quantile(self):
        # P(b_1 <= 1/8) = sqrt((6/3) * (1/8)) = 1/2 at n=6, k=3
        draws = draw_k_bidder(6, 3, RngStream(20), size=N_KS)
        p = np.mean(draws[:, 0] <= 1 / 8)
        stderr = math.sqrt(0.5 * 0.5 / N_KS)
        assert abs(p - 0.5) <= 3 * stderr

    @pytest.mark.parametrize("n,k", [(6, 3), (4, 4)])
    def test_marginals_match_cdf(self, n, k):
        spec = MarginalSpec(n, k)
        draws = draw_k_bidder(n, k, RngStream(21), size=N_KS)
        for c in range(n):
            assert ks_distance(draws[:, c], partial(marginal_cdf, spec)) <= KS_THRESHOLD


class TestDeterminism:
    def test_identical_streams_identical_draws(self):
        a = draw_two_bidder(5, RngStream(42, 3), size=1000)
        b = draw_two_bidder(5, RngStream(42, 3), size=1000)
        assert np.array_equal(a, b)

    def test_scalar_replay(self):
        assert draw_two_bidder(5, RngStream(42, 3)) == draw_two_bidder(
            5, RngStream(42, 3)
        )

    def test_distinct_streams_differ(self):
        a = draw_two_bidder(5, RngStream(42, 0), size=10)
        b = draw_two_bidder(5, RngStream(42, 1), size=10)
        assert not np.array_equal(a, b)

    def test_sequential_draws_advance(self):
        rng = RngStream(1)
        assert draw_triple(rng) != draw_triple(rng)


class TestUnitRows:
    def test_row_far_from_unit_total_is_a_bug(self):
        rows = np.array([[0.25, 0.25, 0.5], [0.3, 0.4, 0.4]])  # second sums to 1.1
        with pytest.raises(InvariantError) as info:
            _unit_rows(rows, np.random.default_rng(0), None)
        assert not isinstance(info.value, ValueError)

    def test_cli_reports_a_failed_invariant_as_a_bug(self, monkeypatch, capsys):
        monkeypatch.setattr(samplers, "SUM_TOLERANCE", -1.0)
        argv = ["simulate", "--mode", "two-bidder", "--n", "4", "--samples", "10"]
        assert cli.main(argv) == 2
        assert "InvariantError" in capsys.readouterr().err


class TestRowSums:
    @pytest.mark.parametrize("n", [*range(1, 141), 255, 256, 257, 1000])
    def test_equals_numpy_bit_for_bit(self, n):
        # two of row_sum_error's BLOCK-cell row blocks and 3 more rows, so it crosses block
        # boundaries; mixed magnitudes and signs make a reordered sum show
        gen = np.random.default_rng(n)
        wide = gen.standard_normal(((1 << 17) // n + 3, n + 3))
        wide *= 10.0 ** gen.integers(-8, 9, wide.shape)
        wide[:2] = -0.0  # numpy's sum starts from +0.0
        contiguous = np.ascontiguousarray(wide[:, :n])
        if n >= 8:
            assert not np.array_equal(np.add.accumulate(contiguous, axis=1)[:, -1], contiguous.sum(axis=1))
        for a in (contiguous, wide[:, 3:], contiguous[:0], contiguous[5:6]):
            assert _row_sums(a).tobytes() == a.sum(axis=1).tobytes()
            # a column-major copy sums as the row-major one does
            assert _row_sums(np.asfortranarray(a)).tobytes() == a.sum(axis=1).tobytes()
            if len(a):  # the benchmark oracle's recomputation, compared with !=
                assert row_sum_error(a) == float(np.abs(a.sum(axis=1) - 1).max())
        assert row_sum_error(contiguous[:0]) == 0.0


def vector_sampler(n, k):
    """The sampler a Monte Carlo chunk uses for (n, k): two-bidder for k = 2."""
    return partial(draw_two_bidder, n) if k == 2 else partial(draw_k_bidder, n, k)


class PlantedUniform(np.random.Generator):
    """A PCG64 generator whose first ``random`` draw has ``tiny`` at flat index ``at``."""

    def __init__(self, seed, tiny, at):
        super().__init__(np.random.PCG64(seed))
        self.plant = (tiny, at)

    def random(self, *args, **kwargs):
        u = super().random(*args, **kwargs)
        if self.plant is not None:
            tiny, at = self.plant
            u.flat[at] = tiny
            self.plant = None
        return u


def exact_rebuild(n, k, gen):
    """The exact bids a scalar draw makes of ``gen``'s next one-row vectorized
    draw: pairs (b, 2/n - b) scaled to total 2/n and the odd-n triple to 3/n,
    or one simplex row scaled to total 1/m and copied to the m = n/k groups."""
    if k > 2:
        group = [Fraction(x) for x in draw_k_bidder(k, k, gen, 1)[0]]
        return [g / (n // k) / sum(group) for g in group] * (n // k)
    row = [Fraction(x) for x in draw_two_bidder(n, gen, 1)[0]]
    pairs = n // 2 if n % 2 == 0 else (n - 3) // 2
    bids = [row[i] * Fraction(2, n) / (row[0] + row[pairs]) for i in (0, pairs) for _ in range(pairs)]
    triple = row[2 * pairs:]
    return bids + [t * Fraction(3, n) / sum(triple) for t in triple]


class TestScalarDraws:
    """A scalar draw is one row of the vectorized sampler, rebuilt exactly."""

    @pytest.mark.parametrize("n,k", [(2, 2), (3, 2), (4, 2), (5, 2), (9, 2), (6, 3), (8, 4), (9, 3)])
    def test_scalar_draw_is_the_exact_rebuild_of_a_one_row_draw(self, n, k):
        for seed in range(5):
            gen, twin = np.random.default_rng(seed), np.random.default_rng(seed)
            seq = draw_two_bidder(n, gen) if k == 2 else draw_k_bidder(n, k, gen)
            bids = [bid.base for bid in seq.bids]
            assert bids == exact_rebuild(n, k, twin)
            assert sum(bids) == 1 and min(bids) > 0
            assert gen.bit_generator.state == twin.bit_generator.state

    def test_zero_bid_is_redrawn(self):
        # b = 0 gives the row (0, 0, 1/2, 1/2); _unit_rows redraws it as the stream's next row
        gen = PlantedUniform(48, 0.0, at=0)
        bids = [bid.base for bid in draw_two_bidder(4, gen).bids]
        twin = np.random.default_rng(48)
        draw_two_bidder(4, twin, 1)
        assert bids == exact_rebuild(4, 2, twin)
        assert min(bids) > 0
        assert gen.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("seed", [6, 11, 29])  # seeds where np.cbrt and u ** (1/3) differ
    def test_triple_is_one_vectorized_row(self, seed):
        gen, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        assert draw_triple(gen) == tuple(draw_triple(twin, 1)[0])
        assert gen.bit_generator.state == twin.bit_generator.state

    def test_vectorized_triple_matches_triple_from_uniforms(self):
        # _fill_triple draws u, v, w as whole columns, then the permutations.  np.cbrt and
        # u ** (1/3) may differ by an ulp of the range d; a coordinate near 0 built from
        # 1/3 - d then moves by many of its own ulps, but never by more than an ulp of 1/3
        size = 1_000
        rows = draw_triple(np.random.default_rng(50), size)
        twin = np.random.default_rng(50)
        u, v, w = twin.random(size), twin.random(size), twin.random(size)
        perm = twin.integers(0, 6, size)
        want = np.array([triple_from_uniforms(*args) for args in zip(u, v, w, perm)])
        assert np.abs(rows - want).max() <= np.spacing(ONE_THIRD)


OUT_CASES = [(n, 2) for n in range(2, 12)] + [(6, 3), (8, 4), (9, 3)]


class TestDrawIntoOut:
    @pytest.mark.parametrize("n,k", OUT_CASES)
    def test_out_gets_the_allocating_draws_bit_for_bit(self, n, k):
        draw = vector_sampler(n, k)
        want = draw(RngStream(41, n), 3_000)
        out = np.full((3_000, n), np.nan)
        assert draw(RngStream(41, n), 3_000, out) is out
        assert out.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n,k", [(6, 2), (6, 3)])
    @pytest.mark.parametrize(
        "out",
        [
            np.empty((10, 5)),
            np.empty((9, 6)),
            np.empty((10, 6), dtype=np.float32),
            np.empty((10, 12))[:, ::2],
            [[0.0] * 6] * 10,
        ],
        ids=["columns", "rows", "float32", "strided", "list"],
    )
    def test_bad_out_is_refused(self, n, k, out):
        with pytest.raises(LengthMismatch, match=r"out must be a C- or F-contiguous float64 array"):
            vector_sampler(n, k)(RngStream(0), 10, out)

    @pytest.mark.parametrize("n,k", OUT_CASES + [(15, 2), (16, 2), (15, 3), (15, 5)])
    @pytest.mark.parametrize("rows", ["ten", "below", "at"])
    def test_every_layout_gets_the_same_bits(self, n, k, rows):
        # by_columns flips at 128 rows per cell, so an allocating draw of 128 n rows is
        # column-major for n < 16; either layout of out must hold the same bits
        size = {"ten": 10, "below": 128 * n - 1, "at": 128 * n}[rows]
        draw = vector_sampler(n, k)
        want = draw(RngStream(44, n), size)
        assert samplers.by_columns(size, n) == (rows == "at" and n < 16)
        assert want.flags.f_contiguous == samplers.by_columns(size, n)
        for out in (np.full((size, n), np.nan), np.full((n, size), np.nan).T):
            assert draw(RngStream(44, n), size, out) is out
            assert out.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "draw",
        [
            partial(draw_two_bidder, 5),
            partial(draw_k_bidder, 6, 3),
            partial(draw_k_bidder, 8, 4),
            lambda rng, size: draw_simplex(3, rng, size),
            draw_triple,
        ],
        ids=["two-bidder", "k-bidder-3", "k-bidder-4", "simplex", "triple"],
    )
    @pytest.mark.parametrize("size", [2.5, np.float64(3.0), "3", -1, np.int64(-2), True, False])
    def test_bad_size_is_refused(self, draw, size):
        with pytest.raises(DomainError, match=r"size must be an integer >= 0"):
            draw(RngStream(0), size)

    @pytest.mark.parametrize("n,k", [(5, 2), (6, 3), (3, 3)])
    def test_no_rows(self, n, k):
        assert vector_sampler(n, k)(RngStream(0), 0).shape == (0, n)
        assert draw_simplex(k, RngStream(0), size=0).shape == (0, k)

    def test_out_needs_a_size(self):
        with pytest.raises(LengthMismatch):
            draw_two_bidder(6, RngStream(0), out=np.empty((10, 6)))

    @pytest.mark.parametrize(
        "n,k,zero_row",
        [(4, 2, [0.0, 0.0, 0.5, 0.5]), (6, 3, [0.0, 0.25, 0.25, 0.0, 0.25, 0.25])],
    )
    def test_zero_bid_redraw_lands_in_out(self, monkeypatch, n, k, zero_row):
        # both samplers hand their rows to _unit_rows, which redraws zero bids
        real = samplers._unit_rows
        planted = []

        def plant_zero_row(out, gen, redraw):
            if not planted:  # the first call gets a zero bid; the redraw's is left alone
                planted.append(True)
                out[3] = zero_row
            return real(out, gen, redraw)

        monkeypatch.setattr(samplers, "_unit_rows", plant_zero_row)
        out = np.empty((8, n))
        assert vector_sampler(n, k)(RngStream(42), 8, out) is out
        monkeypatch.setattr(samplers, "_unit_rows", real)
        # the redrawn row is the stream's next one-row draw; the others are untouched
        rng = RngStream(42)
        want = vector_sampler(n, k)(rng, 8)
        want[3] = vector_sampler(n, k)(rng, 1)[0]
        assert out.tobytes() == want.tobytes()
        assert out.min() > 0.0

    @pytest.mark.parametrize("tiny", [0.0, 1e-200])
    def test_underflowing_uniform_redraws_its_row(self, tiny):
        # U**(k-1) of the planted uniform is 0, so row 3's second gamma is 0
        rows = draw_k_bidder(8, 4, PlantedUniform(43, tiny, at=3 * 4 + 1), 8)
        assert rows.min() > 0.0
        assert np.max(np.abs(rows.sum(axis=1) - 1.0)) <= SUM_TOLERANCE
        twin = np.random.default_rng(43)
        want = draw_k_bidder(8, 4, twin, 8)
        want[3] = draw_k_bidder(8, 4, twin, 1)[0]
        assert rows.tobytes() == want.tobytes()

    @pytest.mark.parametrize("tiny", [0.0, 1e-200])
    def test_zero_height_redraws_its_row(self, tiny):
        # the k = 3 draw takes 8 heights U, then 8 angles V: row 3's first bid U**2 is 0
        rows = draw_k_bidder(6, 3, PlantedUniform(43, tiny, at=3), 8)
        assert rows.min() > 0.0
        assert np.max(np.abs(rows.sum(axis=1) - 1.0)) <= SUM_TOLERANCE
        twin = np.random.default_rng(43)
        want = draw_k_bidder(6, 3, twin, 8)
        want[3] = draw_k_bidder(6, 3, twin, 1)[0]
        assert rows.tobytes() == want.tobytes()

    def test_smallest_angle_keeps_every_bid(self):
        # V = 2**-53 leaves sin**2 near 3e-32; (1 - cos(pi V)) / 2 would round it to 0
        gen = PlantedUniform(43, 2.0**-53, at=8 + 3)
        rows = draw_k_bidder(6, 3, gen, 8)
        assert 0.0 < rows[3].min() < 1e-30
        assert rows.min() > 0.0
        twin = np.random.default_rng(43)
        draw_k_bidder(6, 3, twin, 8)
        assert gen.bit_generator.state == twin.bit_generator.state  # no row was redrawn


# The full-array samplers from before draws went block by block, frozen as the reference
# a one-block draw matches bit for bit, generator state included.


def reference_triple(gen, size):
    lo, mid, hi = vals = np.empty((3, size))
    for row in (hi, lo, mid):  # u, v, w
        gen.random(out=row)
    np.cbrt(hi, out=hi)
    hi *= ONE_THIRD
    lo *= ONE_THIRD - hi
    mid *= hi
    mid += lo
    hi += lo
    perm = gen.integers(0, 6, size)
    return vals[samplers._PERMS3[perm], np.arange(size)[:, None]]


def reference_two_bidder(n, gen, size):
    b1 = gen.random(size) * (2.0 / n)
    pairs = n // 2 if n % 2 == 0 else (n - 3) // 2
    rows = np.empty((size, n))
    rows[:, :pairs] = b1[:, None]
    rows[:, pairs:2 * pairs] = 2.0 / n - b1[:, None]
    if n % 2:
        x, y, z = reference_triple(gen, size).T
        for c, bid in enumerate([x - y, y - z, z - x], start=2 * pairs):
            bid += ONE_THIRD
            bid *= 3.0 / n
            rows[:, c] = bid
    return rows


def reference_sphere(gen, size, m):
    a, b, c = abc = np.empty((3, size))
    gen.random(out=abc[:2])
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
    return abc.T


def reference_gammas(k, gen, size, m):
    u = gen.random((size, k))
    u **= k - 1
    u *= gen.standard_gamma(1.0 + 1.0 / (k - 1), u.shape)
    return u / (m * u.sum(axis=1))[:, None]


def reference_rows(n, k, gen, size):
    if k == 2:
        return reference_two_bidder(n, gen, size)
    m = n // k
    return np.tile(reference_sphere(gen, size, m) if k == 3 else reference_gammas(k, gen, size, m), m)


def block_rows(size, block):
    """The row counts of a draw of ``size`` rows cut into blocks of ``block`` rows."""
    return [min(block, size - start) for start in range(0, size, block)]


class TestBlockDraws:
    """A vectorized draw is the draws of its row blocks of B rows, made in turn on one
    generator: B = BLOCK // n, or BLOCK // 3 for draw_triple.  A one-block draw is the
    frozen full-array reference's."""

    @staticmethod
    def check(draw, block, reference, out=None):
        for size in (1, block - 1, block, block + 1, 3 * block + 7):
            gen, twin, ref = (np.random.default_rng([size, block]) for _ in range(3))
            rows = draw(gen, size) if out is None else draw(gen, size, out(size))
            want = np.concatenate([draw(twin, part) for part in block_rows(size, block)])
            assert np.ascontiguousarray(rows).tobytes() == want.tobytes(), size
            assert gen.bit_generator.state == twin.bit_generator.state
            if size <= block:
                assert np.ascontiguousarray(rows).tobytes() == reference(ref, size).tobytes(), size
                assert gen.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("n,k", [(2, 2), (3, 2), (7, 2), (3, 3), (6, 3), (4, 4), (10, 5)])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_a_draw_is_its_blocks_drawn_in_turn(self, n, k, order):
        def out(size):
            return np.empty((size, n), order=order)

        self.check(vector_sampler(n, k), samplers.BLOCK // n, partial(reference_rows, n, k), out)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_a_triple_draw_is_its_blocks_drawn_in_turn(self, monkeypatch, order):
        # draw_triple takes no out: its layout follows by_columns, pinned here to one order
        monkeypatch.setattr(samplers, "by_columns", lambda rows, n: order == "F")
        assert draw_triple(np.random.default_rng(0), 5).flags[f"{order}_CONTIGUOUS"]
        self.check(draw_triple, samplers.BLOCK // 3, reference_triple)

    @pytest.mark.parametrize("n,k", [(4, 2), (6, 3)])
    def test_a_zero_bid_is_redrawn_before_the_next_block(self, n, k):
        # the first block's row 3 gets a zero bid; its redraw precedes the second block's variates
        block, draw = samplers.BLOCK // n, vector_sampler(n, k)
        rows = draw(PlantedUniform(49, 0.0, at=3), block + 5)
        twin = np.random.default_rng(49)
        first = draw(twin, block)
        first[3] = draw(twin, 1)[0]
        want = np.concatenate([first, draw(twin, 5)])
        assert np.ascontiguousarray(rows).tobytes() == want.tobytes()
        assert rows.min() > 0.0

    @pytest.mark.parametrize(
        "draw",
        [
            lambda gen, size: gen.random(size),
            lambda gen, size: gen.integers(0, 6, size),
            lambda gen, size: gen.standard_gamma(1.0 + 1.0 / 3, size),
            lambda gen, size: gen.standard_gamma(1.0 + 1.0 / (MAX_SIMPLEX_K - 1), size),
        ],
        ids=["random", "integers", "gamma-4", "gamma-max"],
    )
    def test_block_by_block_calls_continue_one_stream(self, draw):
        # integers(0, 6) takes 32-bit halves: one left over from a call is the next call's first
        for parts in [(1, 1, 1), (3, 4), (5, 6, 7), (1_000, 1), (21_845, 21_846, 3)]:
            gen, twin = np.random.default_rng(17), np.random.default_rng(17)
            for g in (gen, twin):
                g.integers(0, 6, 1)
            whole = draw(gen, sum(parts))
            split = np.concatenate([draw(twin, part) for part in parts])
            assert whole.tobytes() == split.tobytes(), parts
            assert gen.bit_generator.state == twin.bit_generator.state


class TestSimplexBidderLimit:
    def test_limit_is_the_last_k_with_at_most_one_percent_redrawn_rows(self):
        def redrawn(k):  # 1 - (1 - 2**(-1074/(k-1)))**k
            return -math.expm1(k * math.log1p(-(2.0 ** (-1074 / (k - 1)))))

        assert redrawn(MAX_SIMPLEX_K) <= 0.01 < redrawn(MAX_SIMPLEX_K + 1)

    def test_limit_draws(self):
        rows = draw_simplex(MAX_SIMPLEX_K, RngStream(44), size=500)
        assert rows.min() > 0.0
        assert np.max(np.abs(rows.sum(axis=1) - 1.0)) <= SUM_TOLERANCE

    @pytest.mark.parametrize(
        "draw",
        [
            partial(draw_simplex, MAX_SIMPLEX_K + 1),
            partial(draw_simplex, MAX_SIMPLEX_K + 1, size=10),
            partial(draw_k_bidder, 200, 200),
            partial(draw_k_bidder, 400, 200, size=1000),
        ],
        ids=["simplex", "simplex-rows", "k-bidder", "k-bidder-rows"],
    )
    def test_more_bidders_are_refused_before_any_draw(self, draw):
        gen = np.random.default_rng(45)
        with pytest.raises(SizeLimitExceeded, match="bidder limit"):
            draw(gen)
        assert gen.bit_generator.state == np.random.default_rng(45).bit_generator.state


class TestGroupScaling:
    def test_groups_are_the_scaled_simplex_draw(self):
        seq = draw_k_bidder(6, 3, RngStream(33))
        direct = draw_simplex(3, RngStream(33))
        group = [float(b.base) for b in seq.bids[:3]]
        assert group == pytest.approx([v / 2 for v in direct])


class TestSeedHandling:
    def test_negative_seed_is_deterministic(self):
        a = draw_two_bidder(4, RngStream(-3, 1), size=50)
        b = draw_two_bidder(4, RngStream(-3, 1), size=50)
        assert np.array_equal(a, b)


NOT_AN_RNG = "^rng must be an RngStream or numpy Generator$"


@pytest.mark.parametrize("call,error,message", [
    (lambda: samplers._gen_of(7), TypeError, NOT_AN_RNG),
    (lambda: draw_two_bidder(4, np.random.RandomState(0)), TypeError, NOT_AN_RNG),
    (lambda: draw_k_bidder(4, 1, RngStream(0)), DomainError, "^need at least two bidders$"),
], ids=["int-rng", "legacy-rng", "one-bidder"])
def test_input_errors(call, error, message):
    with pytest.raises(error, match=message) as raised:
        call()
    assert type(raised.value) is error
