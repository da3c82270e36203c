import itertools
import math
import time
import tracemalloc
from fractions import Fraction

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auctionlab import (
    AdversaryPlan,
    DomainError,
    LengthMismatch,
    NotMultiple,
    OverBudget,
    Scenario,
    ScenarioError,
    SizeLimitExceeded,
    ZeroBid,
    estimate,
    pass_strategy,
    run_sequential,
    scripted_strategy,
    steady_strategy,
)
from auctionlab import sequential, verify
from auctionlab.montecarlo import WinTally
from auctionlab.samplers import RngStream


def unmarked(strategy):
    """The same bids behind a plain callable, which carries no script, so
    the run asks it for every bid and keeps one state per history."""
    return lambda view, s=strategy: s(view)


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
        with pytest.raises(LengthMismatch):
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
        with pytest.raises(ScenarioError):
            run_sequential([pass_strategy, pass_strategy], 2, 2, mode="oops")

    def test_integer_seed_taken_mod_2_64(self):
        # as RngStream takes it: seed -s draws as 2**64 - s does
        profile = tie_heavy(4, 2, ["1/2", "1/2", 0, 0])
        runs = [
            [run_sequential(profile, 4, 2, seed=seed, mode="sample") for seed in seeds]
            for seeds in (range(-1, -21, -1), [np.int64(-s) for s in range(1, 21)],
                          range(2**64 - 1, 2**64 - 21, -1))
        ]
        assert runs[0] == runs[1] == runs[2]
        assert len(set(runs[0])) > 1

    def test_other_seed_material_passes_unchanged(self):
        profile = tie_heavy(4, 2, ["1/2", "1/2", 0, 0])
        for seed in ([1, 2], [2**64 + 3], np.random.SeedSequence(9)):
            walk = sequential._history_walk(profile, 4, 2, np.random.default_rng(seed))
            assert run_sequential(profile, 4, 2, seed=seed, mode="sample") == walk.wins[0]

    def test_sampled_scripted_run_calls_no_strategy(self):
        calls = []

        def counted(strategy):
            @functools.wraps(strategy)  # copies the script
            def wrapper(view):
                calls.append(view)
                return strategy(view)

            return wrapper

        profile = [counted(s) for s in tie_heavy(6, 3, ["1/3", "1/2", "1/3", "1/3", "1/6", "1/3"])]
        profile[1] = counted(pass_strategy)
        for seed in range(10):
            run_sequential(profile, 6, 3, seed=seed, mode="sample")
        assert calls == []

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_long_sampled_all_steady_run(self, seed):
        # each steady bidder wins exactly n/k on every branch; a sampled run
        # once copied its history every round, so this one took minutes
        n = 200_000
        profile = [steady_strategy(n, 2)] * 2
        assert run_sequential(profile, n, 2, seed=seed, mode="sample") == (n // 2, n // 2)

    def test_rounds_refused_before_any_bid(self):
        views = []

        def recording(view):
            views.append(view)

        with pytest.raises(SizeLimitExceeded, match="rounds exceed"):
            run_sequential([recording] * 2, sequential.MAX_STATE_ROUNDS + 1, 2, mode="sample")
        assert views == []

    @pytest.mark.parametrize("mode", ["exact", "sample"])
    @pytest.mark.parametrize("n", [-1, -2, 2.0, Fraction(2), True])
    def test_round_count_must_be_a_nonnegative_integer(self, n, mode):
        # script[:n] once made n = -1 play two of these three rounds
        s = scripted_strategy(["0.5", "0.25", "0.25"])
        with pytest.raises(DomainError, match="round count"):
            run_sequential([s, s], n, 2, mode=mode)


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
        # all-steady (6,2) branches into C(6,3) = 20 tied histories when the
        # strategies are wrapped in plain callables, which keep the history walk
        strategies = [unmarked(steady_strategy(6, 2)), unmarked(steady_strategy(6, 2))]
        monkeypatch.setattr(sequential, "MAX_STATES", 20)
        assert run_sequential(strategies, 6, 2) == (Fraction(3), Fraction(3))
        monkeypatch.setattr(sequential, "MAX_STATES", 19)
        with pytest.raises(SizeLimitExceeded, match="19 states"):
            run_sequential(strategies, 6, 2)

    def test_cap_refuses_a_merged_round_with_too_many_states(self, monkeypatch):
        # merged on (budgets, wins), all-steady (6,2) peaks at 4 states after
        # round 3: win counts (3,0), (2,1), (1,2) and (0,3)
        strategies = [steady_strategy(6, 2), steady_strategy(6, 2)]
        monkeypatch.setattr(sequential, "MAX_STATES", 4)
        assert run_sequential(strategies, 6, 2) == (Fraction(3), Fraction(3))
        monkeypatch.setattr(sequential, "MAX_STATES", 3)
        with pytest.raises(SizeLimitExceeded, match="round 3 exceeds 3 states"):
            run_sequential(strategies, 6, 2)

    def test_work_bound_refuses_a_run_with_too_many_state_visits(self, monkeypatch):
        # all-steady (6,2) visits 1 + 2 + 3 + 4 + 3 + 2 = 15 merged states,
        # and 1 + 2 + 4 + 8 + 14 + 20 = 49 histories
        merged = [steady_strategy(6, 2), steady_strategy(6, 2)]
        walked = [unmarked(s) for s in merged]
        for profile, visits in ((merged, 15), (walked, 49)):
            monkeypatch.setattr(sequential, "MAX_STATE_ROUNDS", visits)
            assert run_sequential(profile, 6, 2) == (Fraction(3), Fraction(3))
            monkeypatch.setattr(sequential, "MAX_STATE_ROUNDS", visits - 1)
            with pytest.raises(SizeLimitExceeded, match=f"exceeds {visits - 1} state-visits .* round 6"):
                run_sequential(profile, 6, 2)

    def test_more_rounds_than_state_visits_refused_before_any_work(self, monkeypatch):
        # every round visits a state: 8 rounds cannot fit in 7 visits
        def untouched(*args, **kwargs):
            raise AssertionError("built before the round check")

        monkeypatch.setattr(sequential, "MAX_STATE_ROUNDS", 7)
        monkeypatch.setattr(sequential, "_unit_table", untouched)
        monkeypatch.setattr(verify, "_unit_table", untouched)
        monkeypatch.setattr(verify, "_block_walk", untouched)
        refusal = "8 rounds exceed the 7 state-visits"
        with pytest.raises(SizeLimitExceeded, match=refusal):
            run_sequential([steady_strategy(8, 2), steady_strategy(8, 2)], 8, 2)
        with pytest.raises(SizeLimitExceeded, match=refusal):
            Scenario("sequential", 8, 2, samples=10).validate()
        with pytest.raises(SizeLimitExceeded, match=refusal):
            verify.sequential_suite(8, 2, trials=10)

    def test_both_walks_refuse_as_soon_as_a_round_passes_the_cap(self, monkeypatch):
        # all-steady (8,8) bids 1 each: round 1 ends on 8 states, and round 2's
        # parents add 7, 6, 5, 4, ... merged states or 7 histories each; with
        # 20 states of 8 bidders a round, both walks stop at the first parent
        # past 20, the merged walk its fourth and the history walk its third
        calls = []
        real_round = sequential._round

        def counted(*args):
            calls.append(args)
            return real_round(*args)

        monkeypatch.setattr(sequential, "_round", counted)
        monkeypatch.setattr(sequential, "MAX_CELLS", 8 * 20)
        message = "^exact round 2 exceeds 20 states of 8 bidders, past 160 budget and win cells$"
        merged = [steady_strategy(8, 8)] * 8
        for profile, parents in ((merged, 4), ([unmarked(s) for s in merged], 3)):
            calls.clear()
            with pytest.raises(SizeLimitExceeded, match=message):
                run_sequential(profile, 8, 8)
            assert len(calls) == 1 + parents

    def test_many_bidders_refused_at_once_and_small(self):
        # all-steady (160,160) once held 50,000 states of 160 bidders before
        # its refusal: 25 s and 1.8 GB
        start = time.perf_counter()
        with pytest.raises(SizeLimitExceeded, match="exact round 3 exceeds 13107 states of 160 bidders"):
            run_sequential([steady_strategy(160, 160)] * 160, 160, 160)
        assert time.perf_counter() - start < 3.0
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimitExceeded):
                estimate(Scenario("sequential", 160, 160, samples=10))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 150 * 2**20, peak / 2**20

    @pytest.mark.parametrize("n,k", [(2_000, 2_000), (500_000, 500_000), (3_000, 1_000), (10, 1_500)])
    def test_tables_and_children_past_the_cell_limit_refused_before_any_walk(self, monkeypatch, n, k):
        # an n x k bid table or one state's k x k children past MAX_CELLS
        def untouched(*args, **kwargs):
            raise AssertionError("walked past the cell limit")

        for name in ("_unit_table", "_merged_walk", "_history_walk"):
            monkeypatch.setattr(sequential, name, untouched)
        refusal = f"^{n:,} rounds of {k:,} bidders pass the 2,097,152-cell limit"
        profile = [pass_strategy] * k
        for mode in ("exact", "sample"):
            with pytest.raises(SizeLimitExceeded, match=refusal):
                run_sequential(profile, n, k, mode=mode)
        if n % k == 0:
            with pytest.raises(SizeLimitExceeded, match=refusal):
                estimate(Scenario("sequential", n, k, samples=10))

    def test_no_bidders_hold_no_cells(self):
        # the cell cap divides by the bidder count
        assert run_sequential([], 3, 0) == ()

    def test_cap_does_not_bound_sampled_mode(self, monkeypatch):
        monkeypatch.setattr(sequential, "MAX_STATES", 1)
        strategies = [steady_strategy(6, 2), steady_strategy(6, 2)]
        assert sum(run_sequential(strategies, 6, 2, seed=3, mode="sample")) == 6


class TestUnitLimit:
    """A merged walk's unit is refused, before any lcm is built, on the
    bound sum(log10(d)) over its distinct denominators d."""

    # 200 distinct 4,000-digit denominators: a unit of up to about 8e5 digits
    WIDE = [Fraction(1, 10**3999 + 2 * i + 1) for i in range(200)]

    def test_wide_denominators_refused_before_any_lcm(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("built an lcm past the unit limit")

        monkeypatch.setattr(sequential.math, "lcm", refuse)
        profile = [scripted_strategy(self.WIDE), steady_strategy(200, 2)]
        with pytest.raises(SizeLimitExceeded, match="limit of 100,000 digits"):
            run_sequential(profile, 200, 2)
        with pytest.raises(SizeLimitExceeded, match="limit of 100,000 digits"):
            Scenario("sequential", 200, 2, AdversaryPlan.fixed(self.WIDE), samples=10).validate()

    def test_digits_times_runs_limit(self, monkeypatch):
        # four runs of 1/1000 (four amount objects) and a steady run of 1/2:
        # log10(1000) + log10(2) = 3.30 digits times 5 runs = 16.5
        script = [Fraction(1, 1000) for _ in range(4)]
        profile = [scripted_strategy(script), steady_strategy(4, 2)]
        monkeypatch.setattr(sequential, "MAX_UNIT_RUN_DIGITS", 17)
        assert run_sequential(profile, 4, 2) == (Fraction(2), Fraction(2))
        monkeypatch.setattr(sequential, "MAX_UNIT_RUN_DIGITS", 16)
        with pytest.raises(SizeLimitExceeded, match="or 16 digits x runs"):
            run_sequential(profile, 4, 2)
        with pytest.raises(SizeLimitExceeded, match="or 16 digits x runs"):
            Scenario("sequential", 4, 2, AdversaryPlan.fixed(script), samples=10).validate()

    def test_steady_scripts_stay_far_below_the_limits(self):
        n = sequential.MAX_STATE_ROUNDS
        runs = sequential.check_unit([steady_strategy(n, 4)._script] * 4, n)
        assert len(runs) == 4
        assert 4 * math.log10(n) < sequential.MAX_UNIT_RUN_DIGITS / 1e6


class TestMarkov:
    def test_library_strategies_are_marked(self):
        # the mark is the per-round script each library strategy carries
        assert steady_strategy(4, 2)._script == (Fraction(1, 2),) * 4
        assert scripted_strategy([0.5, None, 0])._script == (Fraction(1, 2), 0, 0)
        assert pass_strategy._script == ()
        assert sequential._scripts([steady_strategy(4, 2), pass_strategy]) is not None
        assert sequential._scripts([steady_strategy(4, 2), unmarked(pass_strategy)]) is None

    def test_mark_survives_functools_wraps(self):
        inner = steady_strategy(4, 2)

        @functools.wraps(inner)
        def counted(view):
            return inner(view)

        assert sequential._scripts([counted, pass_strategy]) == [inner._script, ()]

    def test_markov_views_see_no_history_and_custom_ones_do(self):
        # a scripted profile is walked from its scripts, so no strategy is
        # asked for a bid; a custom callable is asked with the full history
        def recorder(views):
            return lambda view: views.append(view) or None

        merged, walked = [], []
        marked = recorder(merged)
        marked._script = ()
        run_sequential([marked, steady_strategy(4, 2)], 4, 2)
        run_sequential([recorder(walked), steady_strategy(4, 2)], 4, 2)
        assert merged == []
        assert [len(view.history) for view in walked] == [0, 1, 2, 3]

    @pytest.mark.parametrize("n,k", [(24, 2), (12, 3)])
    def test_all_steady_reaches_n_over_k(self, n, k):
        wins = run_sequential([steady_strategy(n, k) for _ in range(k)], n, k)
        assert all(type(w) is Fraction for w in wins)
        assert wins == (Fraction(n, k),) * k

    # each profile's ExactRun: (peak_states, state_rounds, wins, weights, scale)
    PINNED_RUNS = {
        "steady_24_2": (13, 168, [(12, 12)], [8388608], 8388608),
        "steady_12_3": (19, 124, [(4, 4, 4)], [7558272], 7558272),
        "script_vs_steady_8_4": (7, 28, [(2, 2, 2, 2)], [648], 648),
        "quarters_7_3": (19, 72, [
            (4, 3, 0), (4, 2, 1), (4, 1, 2), (4, 0, 3), (3, 4, 0), (3, 3, 1), (3, 2, 2), (3, 1, 3),
            (3, 0, 4), (2, 4, 1), (2, 3, 2), (2, 2, 3), (2, 1, 4), (1, 4, 2), (1, 3, 3), (1, 2, 4),
            (0, 4, 3), (0, 3, 4),
        ], [379, 1137, 1137, 379, 379, 1120, 1680, 1120, 379, 1137, 1680, 1680, 1137, 1137, 1120,
            1137, 379, 379], 17496),
    }

    @pytest.mark.parametrize("name", sorted(PINNED_RUNS))
    def test_exact_run_fields_are_pinned(self, name):
        # the merged walk's counters, final states in order and integer weights
        script = ["0.3", "0.1", "0.2", "0.05", "0.15", "0.1", "0.05", "0.05"]
        profiles = {
            "steady_24_2": ([steady_strategy(24, 2)] * 2, 24, 2),
            "steady_12_3": ([steady_strategy(12, 3)] * 3, 12, 3),
            "script_vs_steady_8_4": ([scripted_strategy(script)] + [steady_strategy(8, 4)] * 3, 8, 4),
            # three bidders bid 1/4 in every round: ties of two and three all the way
            "quarters_7_3": ([scripted_strategy(["1/4"] * 7)] * 3, 7, 3),
        }
        run = sequential._run_exact(*profiles[name])
        assert tuple(run) == self.PINNED_RUNS[name]

    @pytest.mark.parametrize(
        "n,k", [(8, 2), (12, 2), (6, 3), (9, 3), (8, 4), (5, 5), (6, 6)]
    )
    def test_merged_walk_equals_history_walk_all_steady(self, n, k):
        profile = [steady_strategy(n, k) for _ in range(k)]
        assert run_sequential(profile, n, k) == run_sequential(
            [unmarked(s) for s in profile], n, k
        )

    def test_round_passes_a_bid_over_budget(self):
        # bidder 1's 5 units exceed its 4: bidder 0 wins at 3, and with no
        # bid in budget the object goes unsold and draws nothing
        gen = np.random.default_rng(0)
        state = gen.bit_generator.state
        assert sequential._round([3, 5], (4, 4), (0, 0), gen) == (3, (0,), [((1, 4), (1, 0))])
        assert gen.bit_generator.state == state
        unsold = (None, (None,), (((4, 4), (0, 0)),))
        assert sequential._round([5, 5], (4, 4), (0, 0), gen) == unsold
        assert gen.bit_generator.state == state

    def test_units_are_the_lcm_of_the_script_denominators(self):
        scripts = [(Fraction(1, 4), Fraction(0), Fraction(1, 6)), (Fraction(1, 3),)]
        unit, table = sequential._unit_table(scripts, 4)
        assert unit == 12
        assert table == [(3, 4), (0, 0), (2, 0), (0, 0)]

    def test_units_convert_runs_of_one_object_as_equal_amounts(self):
        # a run of one Fraction object converts once; the same amounts in
        # distinct objects, a negative amount and rounds past n convert
        # alike, and the second script's quarter sets the unit with them
        third, sixth = Fraction(1, 3), Fraction(1, 6)
        shared = (third, third, sixth, sixth, third, Fraction(-1, 2), Fraction(1, 5))
        fresh = tuple(Fraction(a.numerator, a.denominator) for a in shared)
        quarter = (third, third, Fraction(1, 4))
        table = [(4, 4), (4, 4), (2, 3), (2, 0), (4, 0), (0, 0)]
        assert sequential._unit_table([shared, quarter], 6) == (12, table)
        assert sequential._unit_table([fresh, quarter], 6) == (12, table)


class TestBlockWalk:
    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("k", range(2, 5))
    def test_reaches_the_final_wins_of_each_trials_merged_walk(self, n, k):
        # bids on a 12-unit budget: 0 passes, 13 is always over budget and
        # 6 twice spends it all; a third of the rounds give every bidder one
        # amount, so ties of two to four bidders are common
        gen = np.random.default_rng(100 + 10 * n + k)
        tables = gen.choice([0, 2, 3, 4, 6, 13], size=(60, n, k))
        tied = gen.random((60, n)) < 1 / 3
        tables[tied] = tables[tied][:, :1]
        trial, wins = sequential._block_walk(12, tables, k)
        assert len(trial) > len(tables)  # some trial ends on more than one state
        for t, table in enumerate(tables.tolist()):
            reached = {tuple(w) for w in wins[trial == t].tolist()}
            assert reached == set(sequential._merged_walk(12, table, k).wins)


EIGHTHS = st.integers(0, 8).map(lambda v: Fraction(v, 8))

# eighths, thirds and sevenths tie with each other and with the exact binary
# floats; other floats carry denominators up to 2**1074
MIXED_AMOUNTS = st.one_of(
    EIGHTHS,
    st.integers(0, 3).map(lambda v: Fraction(v, 3)),
    st.integers(0, 7).map(lambda v: Fraction(v, 7)),
    st.sampled_from([0.25, 0.5, 0.75, 1 / 3, 0.1]),
    st.floats(0, 1),
)


@st.composite
def scripted_profiles(draw, amounts=EIGHTHS):
    """k <= 3 scripted bidders over n <= 6 rounds bidding ``amounts`` (0
    passes; multiples of 1/8 by default), plus a steady last bidder when
    k | n, so ties are common."""
    k = draw(st.integers(2, 3), label="k")
    n = draw(st.integers(1, 6), label="n")
    scripts = st.lists(amounts, min_size=n, max_size=n)
    profile = [scripted_strategy(draw(scripts, label=f"script {b}")) for b in range(k)]
    if n % k == 0 and draw(st.booleans(), label="steady"):
        profile[-1] = steady_strategy(n, k)
    return n, k, profile


class TestMarkovProperty:
    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(scripted_profiles())
    def test_merged_walk_ends_where_the_history_walk_ends(self, case):
        # the batched trials draw from the merged walk's final states, so
        # their win counts must have the history walk's exact distribution
        n, k, profile = case
        walked = [unmarked(s) for s in profile]
        assert sequential._scripts(walked) is None
        merged = sequential._run_exact(profile, n, k)
        history = sequential._run_exact(walked, n, k)
        assert all(type(w) is Fraction for w in merged.expected)
        assert merged.expected == history.expected == run_sequential(walked, n, k)
        assert final_wins(merged) == final_wins(history)
        assert sum(final_wins(merged).values()) == 1
        sampled = {run_sequential(walked, n, k, seed=s, mode="sample") for s in range(20)}
        assert sampled <= set(final_wins(merged))

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(scripted_profiles(MIXED_AMOUNTS))
    def test_integer_walk_equals_history_walk_on_mixed_denominators(self, case):
        n, k, profile = case
        merged = run_sequential(profile, n, k)
        assert all(type(w) is Fraction for w in merged)
        assert merged == run_sequential([unmarked(s) for s in profile], n, k)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(scripted_profiles(MIXED_AMOUNTS), st.integers(0, 2**32))
    def test_sampled_run_draws_as_the_history_walk(self, case, seed):
        # both walks list tied winners in bidder order and draw only when
        # the object is sold, so one seed picks the same branch in each
        n, k, profile = case
        walked = [unmarked(s) for s in profile]
        for s in range(seed, seed + 5):
            history = sequential._history_walk(walked, n, k, np.random.default_rng(s))
            assert run_sequential(profile, n, k, seed=s, mode="sample") == history.wins[0]


def final_wins(run):
    """An exact run's chance of each final win vector, summed over the
    states that end with it."""
    chances = {}
    for wins, weight in zip(run.wins, run.weights):
        chances[wins] = chances.get(wins, 0) + Fraction(weight, run.scale)
    return chances


def tie_heavy(n, k, script):
    """An opponent playing ``script`` against k - 1 steady bidders."""
    return [scripted_strategy(script)] + [steady_strategy(n, k) for _ in range(k - 1)]


class TestBatchedSampling:
    # seed picked once, before any result was seen
    SEED = 20_240_917
    TRIALS = 100_000

    @pytest.mark.parametrize(
        "n,k,script",
        [
            (4, 2, ["1/2", "1/2", 0, 0]),
            (6, 3, ["1/3"] * 3 + [0] * 3),
            (6, 3, ["1/3", "1/2", "1/3", "1/3", "1/6", "1/3"]),
            (6, 2, ["1/3", "1/3", "1/3", "1/3", "1/3", "1/3"]),
            (8, 4, ["1/2", "1/2", "1/4", "1/4", "1/4", "1/4", 0, "1/4"]),
        ],
    )
    def test_batched_means_near_exact(self, n, k, script):
        profile = tie_heavy(n, k, script)
        run = sequential._run_exact(profile, n, k)
        tally = sequential.sample_leaves(run, self.TRIALS, self.SEED)
        assert tally.count == self.TRIALS
        for b, exact in enumerate(run.expected):
            assert abs(tally.mean(b) - float(exact)) <= 5 * tally.stderr(b)
        assert sum(tally.sums) <= n * self.TRIALS

    def test_deterministic_given_seed_and_chunked(self):
        profile = tie_heavy(6, 3, ["1/3"] * 3 + [0] * 3)
        run = sequential._run_exact(profile, 6, 3)
        trials = 65_636
        a = sequential.sample_leaves(run, trials, 5)
        b = sequential.sample_leaves(run, trials, 5)
        assert (a.count, a.sums, a.squares) == (b.count, b.sums, b.squares)
        assert a.count == trials

    def test_multinomial_tally_is_pinned(self):
        # one multinomial(trials, chance) on RngStream(seed, 0) counts the
        # trials per final state; these sums were recorded with it
        profile = tie_heavy(8, 4, ["1/2", "1/2", "1/4", "1/4", "1/4", "1/4", 0, "1/4"])
        run = sequential._run_exact(profile, 8, 4)
        tally = sequential.sample_leaves(run, 65_636, 5)
        assert (tally.count, tally.sums, tally.squares) == (
            65_636, [94_301] + [131_272] * 3, [151_631] + [262_544] * 3
        )

    @pytest.mark.parametrize("seed", [0, 5, -3])
    def test_tally_matches_the_per_trial_wins(self, seed):
        # the counts' sums and squares equal WinTally.add over the explicit
        # wins matrix that repeats each final state as often as it is drawn;
        # three 1/4 scripts at (6,3) end on 19 final states
        run = sequential._run_exact([scripted_strategy(["1/4"] * 6)] * 3, 6, 3)
        trials = 10_000
        chance = [float(weight / run.scale) for weight in run.weights]
        counts = RngStream(seed, 0).generator.multinomial(trials, chance)
        assert np.count_nonzero(counts) == len(run.wins) == 19
        explicit = WinTally(3)
        explicit.add(np.repeat(np.array(run.wins, dtype=np.int64).T, counts, axis=1))
        tally = sequential.sample_leaves(run, trials, seed)
        assert (tally.count, tally.sums, tally.squares) == (explicit.count, explicit.sums, explicit.squares)

    def test_huge_trial_counts_take_one_draw(self):
        profile = tie_heavy(8, 4, ["1/2", "1/2", "1/4", "1/4", "1/4", "1/4", 0, "1/4"])
        run = sequential._run_exact(profile, 8, 4)
        start = time.perf_counter()
        tally = sequential.sample_leaves(run, 10**18, 5)
        assert time.perf_counter() - start < 1.0
        assert tally.count == 10**18
        assert tally.sums[1:] == [2 * 10**18] * 3
        assert abs(tally.mean(0) - 23 / 16) <= 5 * tally.stderr(0)

    def test_all_steady_ends_on_one_state(self):
        # all-steady (6,2) holds 1, 2, 3, 4, 3, 2 states before rounds 1..6
        # and ends on one, (3, 3) wins with both budgets spent; the history
        # walk ends on its C(6, 3) orders of winners, each with (3, 3)
        run = sequential._run_exact([steady_strategy(6, 2)] * 2, 6, 2)
        assert (run.peak_states, run.state_rounds) == (4, 15)
        assert run.wins == [(3, 3)] and run.weights == [run.scale]
        history = sequential._run_exact([unmarked(steady_strategy(6, 2))] * 2, 6, 2)
        assert len(history.wins) == 20 and history.scale == 1
        assert final_wins(history) == final_wins(run) == {(3, 3): 1}


def test_pass_strategy_called_directly_passes():
    # the walk reads its empty script and never calls it
    view = sequential.RoundView(0, 2, 2, 1, (Fraction(1), Fraction(1)), (0, 0), ())
    assert pass_strategy(view) is None
