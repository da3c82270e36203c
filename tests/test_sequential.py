import itertools
from fractions import Fraction

import numpy as np
import pytest

from auctionlab import (
    NotMultiple,
    OverBudget,
    SizeLimitExceeded,
    ZeroBid,
    pass_strategy,
    run_sequential,
    scripted_strategy,
    steady_strategy,
)
from auctionlab import sequential


class TestSteadyStrategy:
    def test_requires_divisibility(self):
        with pytest.raises(NotMultiple):
            steady_strategy(5, 2)

    def test_single_round_all_in(self):
        # n = k: the steady bidder stakes the whole budget on round one
        wins = run_sequential([steady_strategy(2, 2), pass_strategy], 2, 2)
        assert wins[0] == 1

    def test_passes_after_exhaustion(self):
        # against a passive opponent the steady bidder wins exactly n/k and
        # the remaining objects go unsold
        wins = run_sequential([steady_strategy(4, 2), pass_strategy], 4, 2)
        assert wins == (Fraction(2), Fraction(0))


class TestRunSequential:
    def test_hand_simulated_script(self):
        # opponent takes round 1 at 0.6, then 0.4 each round; steady outbids
        # 0.5 > 0.4 in rounds 2 and 3, is exhausted, and the opponent takes
        # round 4
        opponent = scripted_strategy([0.6, 0.4, 0.4, 0.4])
        wins = run_sequential([opponent, steady_strategy(4, 2)], 4, 2)
        assert wins == (Fraction(2), Fraction(2))

    def test_steady_mirror_match_splits_evenly(self):
        wins = run_sequential([steady_strategy(4, 2), steady_strategy(4, 2)], 4, 2)
        assert wins == (Fraction(2), Fraction(2))

    def test_three_way_mirror_match(self):
        strategies = [steady_strategy(6, 3) for _ in range(3)]
        assert run_sequential(strategies, 6, 3) == (Fraction(2),) * 3

    def test_script_over_budget_becomes_pass(self):
        # the scripted bidder takes round 1 at 0.6, loses round 2 to the
        # steady 0.5, and with 0.4 left cannot cover its scripted 0.5 bids
        opponent = scripted_strategy([0.6, 0.4, 0.5, 0.5])
        wins = run_sequential([opponent, steady_strategy(4, 2)], 4, 2)
        assert wins[0] == 1 and wins[1] == 2

    def test_raw_strategy_over_budget_raises(self):
        greedy = lambda view: Fraction(2)
        with pytest.raises(OverBudget):
            run_sequential([greedy, steady_strategy(4, 2)], 4, 2)

    def test_zero_bid_raises(self):
        zero = lambda view: Fraction(0)
        with pytest.raises(ZeroBid):
            run_sequential([zero, steady_strategy(4, 2)], 4, 2)

    def test_strategy_count_checked(self):
        with pytest.raises(ValueError):
            run_sequential([steady_strategy(4, 2)], 4, 2)

    def test_expected_wins_never_exceed_objects(self):
        opponent = scripted_strategy([0.5, 0.5, 0.5, 0.5])
        wins = run_sequential([opponent, steady_strategy(4, 2)], 4, 2)
        assert sum(wins) <= 4
        assert wins[1] >= 2


class TestSampledMode:
    def test_deterministic_given_seed(self):
        opponent = scripted_strategy([0.5, 0.5, 0.5, 0.5])
        strategies = [opponent, steady_strategy(4, 2)]
        a = run_sequential(strategies, 4, 2, seed=5, mode="sample")
        b = run_sequential(strategies, 4, 2, seed=5, mode="sample")
        assert a == b

    def test_sampled_mean_approaches_exact(self):
        opponent = scripted_strategy([0.5, 0.5, 0.5, 0.5])
        strategies = [opponent, steady_strategy(4, 2)]
        exact = run_sequential(strategies, 4, 2)
        totals = np.zeros(2)
        trials = 400
        for t in range(trials):
            totals += run_sequential(strategies, 4, 2, seed=t, mode="sample")
        means = totals / trials
        assert abs(means[0] - float(exact[0])) < 0.2
        assert means[1] >= 2.0  # the floor holds on every trajectory

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            run_sequential([pass_strategy, pass_strategy], 2, 2, mode="oops")


class TestSteadyFloor:
    def test_exhaustive_coarse_grid(self):
        # every scripted opponent over {pass, 1/4, 2/4, 3/4, 1} for n = 2
        target = Fraction(1)
        for script in itertools.product([0, 0.25, 0.5, 0.75, 1.0], repeat=2):
            opponent = scripted_strategy(list(script))
            wins = run_sequential([opponent, steady_strategy(2, 2)], 2, 2)
            assert wins[1] >= target

    @pytest.mark.parametrize("n,k,trials", [(4, 2, 300), (6, 3, 100)])
    def test_randomized_opponents(self, n, k, trials):
        gen = np.random.default_rng(123)
        target = Fraction(n, k)
        for _ in range(trials):
            scripts = [
                scripted_strategy(
                    [Fraction(int(v), 16) for v in gen.integers(0, 17, size=n)]
                )
                for _ in range(k - 1)
            ]
            wins = run_sequential(scripts + [steady_strategy(n, k)], n, k)
            assert wins[-1] >= target

    def test_budget_conservation(self):
        # total prices paid by one bidder never exceed the unit budget:
        # reconstruct payments from a sampled trajectory's history by
        # re-running with a recording strategy
        payments = []

        def recording(view):
            if view.round_index > 1:
                last = view.history[-1]
                if last.winner is not None:
                    payments.append((last.winner, last.price))
            return Fraction(1, 2) if view.budget >= Fraction(1, 2) else None

        opponent = scripted_strategy([0.6, 0.6, 0.3, 0.3])
        run_sequential([opponent, recording], 4, 2, seed=1, mode="sample")
        spent = {}
        for bidder, price in payments:
            spent[bidder] = spent.get(bidder, Fraction(0)) + price
        assert all(total <= 1 for total in spent.values())


class TestStateCap:
    def test_cap_refuses_a_round_with_too_many_states(self, monkeypatch):
        # all-steady (6,2) branches into C(6,3) = 20 tied histories
        strategies = [steady_strategy(6, 2), steady_strategy(6, 2)]
        monkeypatch.setattr(sequential, "MAX_STATES", 20)
        assert run_sequential(strategies, 6, 2) == (Fraction(3), Fraction(3))
        monkeypatch.setattr(sequential, "MAX_STATES", 19)
        with pytest.raises(SizeLimitExceeded, match="19 states"):
            run_sequential(strategies, 6, 2)

    def test_cap_does_not_bound_sampled_mode(self, monkeypatch):
        monkeypatch.setattr(sequential, "MAX_STATES", 1)
        strategies = [steady_strategy(6, 2), steady_strategy(6, 2)]
        assert sum(run_sequential(strategies, 6, 2, seed=3, mode="sample")) == 6
