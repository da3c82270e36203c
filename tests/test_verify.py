import re
from fractions import Fraction
from types import SimpleNamespace

import pytest

from auctionlab import RngStream, ScenarioError, SizeLimitExceeded, scripted_strategy, sequential
from auctionlab import steady_strategy
from auctionlab import samplers, verify
from auctionlab.verify import run_suite


class TestRunSuite:
    def test_marginals(self):
        checks = run_suite("marginals", n=4, k=2, samples=50_000, seed=1)
        assert all(c.passed for c in checks)
        assert any(c.name == "max_sum_error" for c in checks)

    def test_copycat(self):
        checks = run_suite("copycat", n=6, k=3, samples=50_000, seed=2)
        assert all(c.passed for c in checks)

    def test_sequential(self):
        checks = run_suite("sequential", n=4, k=2, samples=300, seed=3)
        assert all(c.passed for c in checks)

    def test_position(self):
        checks = run_suite("position")
        assert all(c.passed for c in checks)
        assert "ladder_scoring_mismatches" in {c.name for c in checks}

    @pytest.mark.parametrize("name, mutant", [
        # scoring off by one
        ("_place_wins", lambda real: lambda k, n, places: real(k, n, places) + 1),
        # the closed form starting at place 3, one eps over rank 1, not below it
        ("_adversary_places", lambda real: lambda n: [3, *real(n)[1:]]),
    ], ids=["place-wins-plus-one", "adversary-places-from-3"])
    def test_position_catches_a_broken_closed_form(self, monkeypatch, name, mutant):
        monkeypatch.setattr(verify, name, mutant(getattr(verify, name)))
        rows = {c.name: c for c in verify.position_suite(max_n=6, max_k=3)}
        assert not rows["ladder_scoring_mismatches"].passed
        assert rows["ladder_scoring_mismatches"].value == 9  # every (n, k) in range
        assert rows["best_response_formula_mismatches"].passed
        assert rows["undercut_value_mismatches"].passed

    def test_unknown_suite(self):
        with pytest.raises(ScenarioError):
            run_suite("bogus")

    @pytest.mark.parametrize("suite", ["marginals", "copycat", "sequential", "all"])
    def test_fractional_seed_refused_before_drawing(self, monkeypatch, suite):
        # RngStream(1.5) once drew seed 1's checks
        monkeypatch.setattr(verify, "RngStream", None)
        monkeypatch.setattr(verify, "copycat_value", None)
        with pytest.raises(ScenarioError, match="^seed must be an integer: 1.5$"):
            run_suite(suite, n=4, k=2, samples=1_000, seed=1.5)

    def test_marginal_suite_refuses_fractional_seed_before_drawing(self, monkeypatch):
        monkeypatch.setattr(verify, "RngStream", None)
        with pytest.raises(ScenarioError, match="^seed must be an integer: 1.5$"):
            verify.marginal_suite(4, 2, 1_000, seed=1.5)


class TestSequentialSuite:
    @pytest.mark.parametrize("n,k,seed", [(4, 2, 0), (6, 3, 5), (9, 3, -1), (8, 4, 2)])
    def test_blocks_draw_what_one_call_per_script_draws(self, monkeypatch, n, k, seed):
        # three trials a block, so seven trials take blocks of 3, 3 and 1
        monkeypatch.setattr(samplers, "BLOCK", 3 * (k - 1) * n)
        streams, walked, blocks = [], [], []
        real_stream, real_walk = verify.RngStream, verify._block_walk

        def stream(*args):
            streams.append(real_stream(*args))

            def integers(*bounds, size):
                blocks.append(size)
                return streams[-1].generator.integers(*bounds, size=size)

            return SimpleNamespace(generator=SimpleNamespace(integers=integers))

        def walk(unit, tables, k):
            walked.extend(as_budget_shares(unit, table) for table in tables.tolist())
            return real_walk(unit, tables, k)

        monkeypatch.setattr(verify, "RngStream", stream)
        monkeypatch.setattr(verify, "_block_walk", walk)
        assert verify.sequential_suite(n, k, 7, seed)[0].passed
        gen = RngStream(seed, 777).generator
        expected = []
        for _ in range(7):
            scripts = [tuple(Fraction(int(v), 32) for v in gen.integers(0, 33, size=n))
                       for _ in range(k - 1)]
            scripts.append(steady_strategy(n, k)._script)
            expected.append(as_budget_shares(*sequential._unit_table(scripts, n)))
        assert walked == expected
        assert blocks == [(3, k - 1, n), (3, k - 1, n), (1, k - 1, n)]
        assert streams[0].generator.bit_generator.state == gen.bit_generator.state

    @pytest.mark.parametrize("args,message", [
        ((4, 2, 0), "^need at least one sample$"),
        ((4, 2, -3), "^need at least one sample$"),
        ((4, 1), "^need at least two bidders$"),
        ((4, 2, 2.5), "^samples must be an integer: 2.5$"),
        ((4, 2, 10, 1.5), "^seed must be an integer: 1.5$"),
        ((6, 4), "^sequential mode requires k [|] n$"),
    ], ids=["no-trials", "negative-trials", "one-bidder", "fractional-trials", "fractional-seed",
            "k-not-dividing-n"])
    def test_refuses_what_the_cli_refuses_before_drawing(self, monkeypatch, args, message):
        monkeypatch.setattr(verify, "RngStream", None)
        with pytest.raises(ScenarioError, match=message):
            verify.sequential_suite(*args)

    def test_catches_a_steady_bid_one_step_short(self, monkeypatch):
        # 1/6 - 1/32 buys seven objects, one past the 12/2 floor, once
        # the opponent's budget is spent
        assert verify.sequential_suite(12, 2, 20, seed=3)[0].passed
        monkeypatch.setattr(verify, "steady_strategy",
                            lambda n, k: scripted_strategy([Fraction(k, n) - Fraction(1, 32)] * n))
        row, = verify.sequential_suite(12, 2, 20, seed=3)
        assert row.value > 0 and not row.passed

    @pytest.mark.parametrize(
        "n,k,rounds,trials,seed", [(12, 2, 12, 200, 8), (24, 3, 24, 100, 4), (4, 2, 3, 300, 1)]
    )
    def test_counts_the_violations_of_a_fraction_script_loop(
        self, monkeypatch, n, k, rounds, trials, seed
    ):
        # the suite's integer tables against one exact run per trial over
        # Fraction scripts drawn from the same stream, with a steady bid
        # 1/32 short for ``rounds`` rounds: at (12, 2) and (24, 3) every
        # trial breaks the floor, at (4, 2) passing the last round only a few
        short = lambda n, k: scripted_strategy([Fraction(k, n) - Fraction(1, 32)] * rounds)
        monkeypatch.setattr(verify, "steady_strategy", short)
        gen = RngStream(seed, 777).generator
        violations = 0
        for _ in range(trials):
            scripts = [
                scripted_strategy([Fraction(int(v), 32) for v in gen.integers(0, 33, size=n)])
                for _ in range(k - 1)
            ]
            run = sequential._run_exact(scripts + [short(n, k)], n, k)
            violations += any(wins[-1] != n // k for wins in run.wins)
        row, = verify.sequential_suite(n, k, trials, seed)
        assert row.value == violations > 0

    @pytest.mark.parametrize("limit,value,message", [
        ("MAX_STATE_ROUNDS", 15, "^exact run exceeds 15 state-visits .* at round 4$"),
        ("MAX_CELLS", 36, "^exact round 4 exceeds 12 states of 3 bidders, past 36 budget and win cells$"),
    ], ids=["state-visits", "cells"])
    def test_refuses_as_the_merged_walk_of_the_trial_past_a_cap_first(self, monkeypatch, limit, value, message):
        # opponents bidding 7, 8 or 9 thirty-seconds against the steady 8
        # tie often; each trial's merged walk raises at its own round, the
        # first trial's later than the block's earliest
        real_stream, real_walk = verify.RngStream, verify._block_walk
        blocks = []

        def stream(*args):
            gen = real_stream(*args).generator
            return SimpleNamespace(generator=SimpleNamespace(
                integers=lambda low, high, size: gen.integers(7, 10, size=size)))

        def walk(unit, tables, k):
            blocks.append((unit, tables.tolist()))
            return real_walk(unit, tables, k)

        monkeypatch.setattr(verify, "RngStream", stream)
        monkeypatch.setattr(verify, "_block_walk", walk)
        monkeypatch.setattr(sequential, limit, value)
        with pytest.raises(SizeLimitExceeded, match=message) as refused:
            verify.sequential_suite(12, 3, 200, seed=5)
        (unit, tables), = blocks
        raised = []
        for table in tables:
            try:
                sequential._merged_walk(unit, table, 3)
            except SizeLimitExceeded as error:
                # a round's state-visit limit is checked before its state cap
                kind = "state-visits" not in str(error)
                raised.append((int(re.search(r"round (\d+)", str(error))[1]), kind, str(error)))
        assert len(raised) > 1 and raised[0] > min(raised)
        assert str(refused.value) == min(raised)[2]


def as_budget_shares(unit, table):
    """Each round's integer bids as exact fractions of the starting budget."""
    return [tuple(Fraction(a, unit) for a in bids) for bids in table]
