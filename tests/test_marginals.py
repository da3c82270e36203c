import math

import numpy as np
import pytest
from scipy import integrate

from auctionlab import (
    DomainError,
    MarginalSpec,
    marginal_cdf,
    pair_density,
    simplex_density,
    simplex_normalizer,
    spread_density,
    triple_density,
)


class TestMarginalCdf:
    def test_two_bidder_is_linear(self):
        assert marginal_cdf(MarginalSpec(4, 2), 0.25) == pytest.approx(0.5)

    def test_three_bidder_square_root(self):
        assert marginal_cdf(MarginalSpec(3, 3), 0.25) == pytest.approx(0.5)

    def test_one_above_cap(self):
        assert marginal_cdf(MarginalSpec(4, 2), 0.6) == 1.0

    def test_domain(self):
        spec = MarginalSpec(4, 2)
        with pytest.raises(DomainError):
            marginal_cdf(spec, -0.1)
        with pytest.raises(DomainError):
            marginal_cdf(spec, 1.1)

    @pytest.mark.parametrize("n,k", [(4, 2), (5, 2), (6, 3), (4, 4), (12, 5)])
    def test_shape(self, n, k):
        spec = MarginalSpec(n, k)
        grid = np.linspace(0.0, 1.0, 401)
        vals = [marginal_cdf(spec, b) for b in grid]
        assert vals[0] == 0.0
        assert vals[-1] == 1.0
        assert all(b <= a for a, b in zip(vals[1:], vals))  # nondecreasing
        cap = k / n
        assert marginal_cdf(spec, cap) == 1.0
        # continuity at the cap: just below it the CDF is already near 1
        assert marginal_cdf(spec, cap * (1 - 1e-9)) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("n,k", [(4, 2), (5, 2), (6, 3), (4, 4), (12, 5)])
    def test_array_matches_math_pow(self, n, k):
        spec = MarginalSpec(n, k)
        cap = k / n
        grid = np.concatenate([np.linspace(0.0, 1.0, 401), [0.0, cap, cap * (1 - 1e-9)]])
        vals = marginal_cdf(spec, grid)
        assert isinstance(vals, np.ndarray) and vals.shape == grid.shape
        for b, v in zip(grid, vals):
            want = 1.0 if b >= cap else math.pow((n / k) * b, 1.0 / (k - 1))
            assert v == pytest.approx(want, rel=1e-15, abs=0.0)
        assert vals[grid >= cap].tolist() == [1.0] * int(np.sum(grid >= cap))
        assert vals[grid == 0.0].tolist() == [0.0, 0.0]

    def test_array_keeps_shape(self):
        grid = np.linspace(0.0, 1.0, 12).reshape(3, 4)
        assert marginal_cdf(MarginalSpec(6, 3), grid).shape == (3, 4)

    def test_one_bad_element_raises(self):
        spec = MarginalSpec(6, 3)
        with pytest.raises(DomainError):
            marginal_cdf(spec, np.array([0.1, 0.2, 1.5, 0.3]))
        with pytest.raises(DomainError):
            marginal_cdf(spec, [0.1, -1e-12])

    def test_nan_raises(self):
        # NaN fails every comparison, so a check for < 0 or > 1 let it through
        spec = MarginalSpec(6, 3)
        for b in (math.nan, np.array([0.1, math.nan, 0.3]), np.full(4, math.nan)):
            with pytest.raises(DomainError, match="nan outside"):
                marginal_cdf(spec, b)

    def test_zero_d_input_gives_float(self):
        spec = MarginalSpec(6, 3)
        for b in (np.array(0.2), np.float64(0.2), 0.2):
            value = marginal_cdf(spec, b)
            assert type(value) is float
            assert value == math.sqrt(2 * 0.2)
        assert type(marginal_cdf(spec, np.array(0.9))) is float

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            MarginalSpec(3, 1)
        with pytest.raises(ValueError):
            MarginalSpec(2, 3)


class TestSpreadDensity:
    def test_zero(self):
        assert spread_density(0.0) == 0.0

    def test_third(self):
        assert spread_density(1 / 3) == pytest.approx(13.5)

    def test_half(self):
        assert spread_density(0.5) == pytest.approx(40.5)

    def test_domain(self):
        with pytest.raises(DomainError):
            spread_density(2 / 3)
        with pytest.raises(DomainError):
            spread_density(-0.01)


class TestTripleDensity:
    def test_origin(self):
        assert triple_density(0.0, 0.0, 0.0) == 0.0

    def test_spread_one_third(self):
        assert triple_density(1 / 6, 0.0, 0.0) == pytest.approx(13.5)

    def test_symmetric_point(self):
        assert triple_density(1 / 3, 1 / 3, 1 / 3) == 0.0

    def test_pole_is_signaled_infinite(self):
        assert triple_density(0.0, 1 / 3, 0.2) == math.inf

    def test_outside_cube(self):
        with pytest.raises(DomainError):
            triple_density(0.4, 0.0, 0.0)

    def test_depends_on_spread_only(self):
        assert triple_density(0.05, 0.15, 0.25) == triple_density(0.25, 0.15, 0.05)


def quad_over_z(x, y):
    val, _ = integrate.quad(
        lambda z: triple_density(x, y, z),
        0.0,
        1 / 3,
        points=[min(x, y), max(x, y)],
        limit=200,
        epsabs=1e-12,
        epsrel=1e-12,
    )
    return val


class TestPairDensity:
    def test_diagonal_closed_value(self):
        # at x = y = 1/6 the closed form collapses to 4.5 * (ln 4 - 1)
        assert pair_density(1 / 6, 1 / 6) == pytest.approx(4.5 * (math.log(4) - 1))
        assert pair_density(1 / 6, 1 / 6) == pytest.approx(1.7383246250395077)

    def test_symmetry(self):
        assert pair_density(0.25, 0.10) == pair_density(0.10, 0.25)

    @pytest.mark.parametrize("x,y", [(0.25, 0.10), (1 / 6, 1 / 6), (0.08, 0.31), (0.30, 0.05)])
    def test_matches_quadrature(self, x, y):
        assert pair_density(x, y) == pytest.approx(quad_over_z(x, y), abs=1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            pair_density(0.0, 0.1)
        with pytest.raises(DomainError):
            pair_density(0.1, 1 / 3)


class TestSimplexDensity:
    def test_two_bidder_constant(self):
        assert simplex_density(2, [0.3, 0.7]) == pytest.approx(1.0)

    def test_three_bidder_center(self):
        assert simplex_density(3, [1 / 3, 1 / 3, 1 / 3]) == pytest.approx(
            math.sqrt(27) / (2 * math.pi)
        )

    def test_three_bidder_off_center(self):
        expected = 1.0 / (2 * math.pi * math.sqrt(0.5 * 0.25 * 0.25))
        assert simplex_density(3, [0.5, 0.25, 0.25]) == pytest.approx(expected)

    def test_off_simplex(self):
        with pytest.raises(DomainError):
            simplex_density(3, [0.5, 0.25, 0.3])
        with pytest.raises(DomainError):
            simplex_density(3, [0.5, 0.5, 0.0])
        with pytest.raises(DomainError):
            simplex_density(3, [0.5, 0.5])

    def test_normalizer_values(self):
        assert simplex_normalizer(2) == pytest.approx(1.0)
        assert simplex_normalizer(3) == pytest.approx(2 * math.pi)


class TestDensityNormalization:
    def test_triple_density_integrates_to_one(self):
        from auctionlab.verify import triple_cube_integral

        assert abs(triple_cube_integral(nodes_xy=120, nodes_z=40) - 1.0) <= 1e-3

    def test_simplex_density_integrates_to_one(self):
        from auctionlab.verify import simplex_normalizer_quadrature

        for k in (2, 3, 4):
            ratio = simplex_normalizer_quadrature(k) / simplex_normalizer(k)
            assert ratio == pytest.approx(1.0, abs=1e-3)


@pytest.mark.parametrize("k", [1, 0, -2])
def test_simplex_normalizer_needs_two_bidders(k):
    with pytest.raises(DomainError, match="^need at least two bidders$") as raised:
        simplex_normalizer(k)
    assert type(raised.value) is DomainError
