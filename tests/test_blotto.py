"""Two-bidder cross-check against a result that does not depend on this
paper: with k = 2 the one-shot game is continuous Colonel Blotto with equal
budgets (Gross & Wagner 1950; Roberson 2006, Economic Theory 29:1-24).  Its
equilibrium gives each side n/2 objects in expectation, and every battlefield
marginal is Uniform(0, 2/n)."""

from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from auctionlab import (
    AdversaryPlan,
    MarginalSpec,
    RngStream,
    Scenario,
    draw_two_bidder,
    estimate,
    marginal_cdf,
)

SIZES = (2, 3, 4, 5, 7, 8)
SAMPLES = 100_000
LEVEL = 0.001  # the suite's 99.9% KS level


@pytest.mark.parametrize("n", SIZES)
def test_sampler_columns_are_uniform(n):
    draws = draw_two_bidder(n, RngStream(500 + n, 0), size=SAMPLES)
    for c in range(n):
        result = stats.kstest(draws[:, c], "uniform", args=(0.0, 2.0 / n))
        assert result.pvalue >= LEVEL, f"column {c}: D = {result.statistic}"


@pytest.mark.parametrize("n", SIZES)
def test_marginal_cdf_is_uniform(n):
    spec = MarginalSpec(n, 2)
    grid = np.linspace(0.0, 2.0 / n, 65)[:-1]
    assert np.array_equal(marginal_cdf(spec, grid), grid * n / 2)
    assert all(marginal_cdf(spec, float(b)) == float(b) * n / 2 for b in grid)
    assert marginal_cdf(spec, 2.0 / n) == 1.0


@pytest.mark.parametrize("n", SIZES)
def test_copycat_exact_values_are_half(n):
    report = estimate(Scenario("two-bidder", n, 2, AdversaryPlan("copycat"), 1_000, 1))
    assert report.exact == (Fraction(n, 2), Fraction(n, 2))
