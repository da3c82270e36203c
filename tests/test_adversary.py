import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auctionlab import (
    DomainError,
    GroupAuction,
    LengthMismatch,
    MarginalSpec,
    NotMultiple,
    OverBudget,
    RngStream,
    Scenario,
    ScenarioError,
    SizeLimitExceeded,
    copycat_value,
    draw_two_bidder,
    estimate,
    group_wins,
    wins_vs_marginal,
)
from auctionlab import harness


@st.composite
def exact_splits(draw):
    """A MarginalSpec and an exact split of at most the unit budget: small
    integer weights over their total, or over a larger denominator that
    leaves part of the budget unspent."""
    k = draw(st.integers(2, 5))
    n = draw(st.integers(k, 12))
    weights = draw(st.lists(st.integers(0, 8), min_size=n, max_size=n))
    unspent = draw(st.sampled_from((0, 0, 1, sum(weights))))
    scale = max(sum(weights) + unspent, 1)
    return MarginalSpec(n, k), [Fraction(w, scale) for w in weights]


class TestWinsVsMarginal:
    def test_even_split_two_bidder(self):
        spec = MarginalSpec(4, 2)
        value = wins_vs_marginal(spec, [Fraction(1, 4)] * 4)
        assert value == Fraction(2)

    def test_two_capped_wins(self):
        spec = MarginalSpec(4, 2)
        value = wins_vs_marginal(spec, [Fraction(1, 2), Fraction(1, 2), 0, 0])
        assert value == Fraction(2)

    def test_three_bidder_even_split(self):
        spec = MarginalSpec(3, 3)
        assert wins_vs_marginal(spec, [Fraction(1, 3)] * 3) == Fraction(1)

    def test_over_budget(self):
        with pytest.raises(OverBudget):
            wins_vs_marginal(MarginalSpec(4, 2), [Fraction(1, 2)] * 4)

    def test_negative_amount(self):
        with pytest.raises(DomainError):
            wins_vs_marginal(MarginalSpec(4, 2), [Fraction(-1, 4), 0, 0, 0])

    def test_float_inputs_give_float(self):
        value = wins_vs_marginal(MarginalSpec(4, 2), [0.25, 0.25, 0.25, 0.25])
        assert isinstance(value, float) and value == pytest.approx(2.0)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(exact_splits())
    def test_upper_bound_and_equality_condition(self, case):
        spec, amounts = case
        value = wins_vs_marginal(spec, amounts)
        assert isinstance(value, Fraction)
        assert value <= Fraction(spec.n, spec.k)
        saturated = sum(amounts) == 1 and all(a <= spec.cap for a in amounts)
        assert (value == Fraction(spec.n, spec.k)) == saturated

    def test_closed_form_matches_sampler_monte_carlo(self):
        # links the linear closed form to the actual two-bidder sampler
        spec = MarginalSpec(5, 2)
        amounts = [Fraction(3, 10), Fraction(1, 5), Fraction(1, 5), Fraction(1, 10), Fraction(1, 10)]
        exact = wins_vs_marginal(spec, amounts)
        samples = 200_000
        draws = draw_two_bidder(5, RngStream(23), size=samples)
        a = np.array([float(x) for x in amounts])
        wins = (a > draws).sum(axis=1)
        mean = wins.mean()
        stderr = wins.std(ddof=1) / math.sqrt(samples)
        assert abs(mean - float(exact)) <= 3 * stderr


class TestGroupWins:
    def test_two_groups(self):
        auction = GroupAuction((1, 2), 2)
        value = group_wins(auction, [Fraction(1, 3), Fraction(1, 3)])
        assert value == Fraction(3, 2)

    def test_all_zero(self):
        assert group_wins(GroupAuction((1, 2), 2), [0, 0]) == 0

    def test_three_unit_groups(self):
        assert group_wins(GroupAuction((1, 1, 1), 3), [Fraction(1, 3)] * 3) == 1

    def test_cap_enforced(self):
        with pytest.raises(DomainError):
            group_wins(GroupAuction((1, 2), 2), [Fraction(3, 4), 0])

    def test_over_budget(self):
        with pytest.raises(OverBudget):
            group_wins(GroupAuction((2, 2), 2), [Fraction(1, 2), Fraction(1, 2)])

    def test_float_amounts_need_k_and_sizes_in_float_range(self):
        # float(k) once escaped as a plain OverflowError; exact amounts need no floats
        for auction in (GroupAuction((1, 2), 10**400), GroupAuction((10**400, 2), 2)):
            with pytest.raises(DomainError, match="within the float range"):
                group_wins(auction, [0.3, 0.3])
        assert group_wins(GroupAuction((1, 2), 10**400), [Fraction(3, 10)] * 2) == Fraction(27, 10**401)

    def test_feasible_maximum_is_n_over_k(self):
        rng = random.Random(5)
        for _ in range(100):
            m = rng.randint(1, 4)
            k = rng.randint(2, 4)
            sizes = tuple(Fraction(rng.randint(1, 8), rng.randint(1, 3)) for _ in range(m))
            auction = GroupAuction(sizes, k)
            n = auction.total
            cap = Fraction(k) / n
            # random feasible point: scale a random direction to the budget
            direction = [Fraction(rng.randint(0, 6)) for _ in range(m)]
            spend = sum(s * d for s, d in zip(sizes, direction))
            if spend == 0:
                continue
            lam = min(Fraction(1) / spend, min(cap / d for d in direction if d > 0))
            amounts = [d * lam for d in direction]
            assert group_wins(auction, amounts) <= n / Fraction(k)
            # spending the whole budget below the cap attains the maximum
            assert group_wins(auction, [Fraction(1) / n] * m) == n / Fraction(k)


class TestCopycat:
    def test_not_multiple(self):
        with pytest.raises(NotMultiple):
            copycat_value(MarginalSpec(5, 3), samples=100)

    def test_two_bidder_even(self):
        r = copycat_value(MarginalSpec(4, 2), samples=100_000, seed=1)
        assert r.expected == Fraction(2)
        assert r.within <= 3.0

    def test_two_bidder_odd(self):
        r = copycat_value(MarginalSpec(5, 2), samples=100_000, seed=2)
        assert r.expected == Fraction(5, 2)
        assert r.within <= 3.0

    def test_three_bidder(self):
        r = copycat_value(MarginalSpec(3, 3), samples=100_000, seed=3)
        assert r.expected == Fraction(1)
        assert r.within <= 3.0

    def test_deterministic(self):
        a = copycat_value(MarginalSpec(6, 3), samples=50_000, seed=9)
        b = copycat_value(MarginalSpec(6, 3), samples=50_000, seed=9)
        assert (a.mean, a.stderr) == (b.mean, b.stderr)

    @pytest.mark.parametrize("n,k,mode", [(5, 2, "two-bidder"), (6, 3, "k-bidder")])
    def test_is_bidder_0_of_the_copycat_estimate(self, n, k, mode):
        r = copycat_value(MarginalSpec(n, k), samples=20_000, seed=4)
        first = estimate(Scenario(mode, n, k, samples=20_000, seed=4)).estimates[0]
        assert (r.mean, r.stderr, r.samples) == (first.mean, first.stderr, 20_000)

    def test_one_sample_gap_is_not_within(self):
        # below two samples stderr is inf, and a nonzero gap must not score 0;
        # one draw's win count is a whole number, so several seeds give gaps
        results = [copycat_value(MarginalSpec(3, 3), samples=1, seed=s) for s in range(10)]
        assert {r.stderr for r in results} == {math.inf}
        gaps = [r for r in results if r.mean != 1.0]
        assert gaps and all(r.within == math.inf for r in gaps)
        assert harness.CopycatEstimate(1.0, math.inf, Fraction(1), 1).within == 0.0

    def test_refuses_zero_samples(self):
        with pytest.raises(ScenarioError, match="at least one sample"):
            copycat_value(MarginalSpec(4, 2), samples=0)

    def test_refuses_a_row_over_the_cell_limit(self):
        # refused before the first chunk is allocated
        with pytest.raises(SizeLimitExceeded):
            copycat_value(MarginalSpec(harness.KS_CELLS // 2 + 1, 2), samples=1)


@pytest.mark.parametrize("call,error,message", [
    (lambda: wins_vs_marginal(MarginalSpec(4, 2), [0.25] * 3), LengthMismatch, "^expected 4 amounts, got 3$"),
    (lambda: group_wins(GroupAuction((1, 2), 2), [0.5]), LengthMismatch, "^expected 2 amounts, got 1$"),
    (lambda: GroupAuction((), 2), DomainError, "^need at least one group$"),
    (lambda: GroupAuction((1, 0), 2), DomainError, "^group sizes must be positive$"),
    (lambda: GroupAuction((1, 2), 1), DomainError, "^need at least two bidders$"),
], ids=["marginal-length", "group-length", "no-groups", "zero-size", "one-bidder"])
def test_input_errors(call, error, message):
    with pytest.raises(error, match=message) as raised:
        call()
    assert type(raised.value) is error
