from fractions import Fraction

import pytest

from auctionlab import RngStream, ScenarioError, scripted_strategy, verify
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

    def test_position_catches_off_by_one_ladder_scoring(self, monkeypatch):
        real = verify.ladder_wins
        off_by_one = lambda k, bids, ladder: real(k, bids, ladder) + 1
        monkeypatch.setattr(verify, "ladder_wins", off_by_one)
        rows = {c.name: c for c in verify.position_suite(max_n=6, max_k=3)}
        assert not rows["ladder_scoring_mismatches"].passed
        assert rows["ladder_scoring_mismatches"].value == 9  # every (n, k) in range
        assert rows["best_response_formula_mismatches"].passed
        assert rows["undercut_value_mismatches"].passed

    def test_unknown_suite(self):
        with pytest.raises(ScenarioError):
            run_suite("bogus")


class TestSequentialSuite:
    @pytest.mark.parametrize("n,k,seed", [(4, 2, 0), (6, 3, 5), (9, 3, -1), (8, 4, 2)])
    def test_blocks_draw_what_one_call_per_script_draws(self, monkeypatch, n, k, seed):
        # three trials a block, so seven trials take blocks of 3, 3 and 1
        monkeypatch.setattr(verify, "CHUNK", 3 * (k - 1) * n)
        streams, drawn = [], []
        real_stream, real_run = verify.RngStream, verify._run_exact

        def stream(*args):
            streams.append(real_stream(*args))
            return streams[-1]

        def run(strategies, n, k):
            drawn.append([s._script for s in strategies[:-1]])
            return real_run(strategies, n, k)

        monkeypatch.setattr(verify, "RngStream", stream)
        monkeypatch.setattr(verify, "_run_exact", run)
        assert verify.sequential_suite(n, k, 7, seed)[0].passed
        gen = RngStream(seed, 777).generator
        expected = [
            [tuple(Fraction(int(v), 32) for v in gen.integers(0, 33, size=n)) for _ in range(k - 1)]
            for _ in range(7)
        ]
        assert drawn == expected
        assert streams[0].generator.bit_generator.state == gen.bit_generator.state

    @pytest.mark.parametrize("trials", [0, -3])
    def test_refuses_no_trials_before_drawing(self, monkeypatch, trials):
        monkeypatch.setattr(verify, "RngStream", None)
        with pytest.raises(ScenarioError, match="^need at least one sample$"):
            verify.sequential_suite(4, 2, trials)

    def test_catches_a_steady_bid_one_step_short(self, monkeypatch):
        # 1/6 - 1/32 buys seven objects, one past the 12/2 floor, once
        # the opponent's budget is spent
        assert verify.sequential_suite(12, 2, 20, seed=3)[0].passed
        monkeypatch.setattr(verify, "steady_strategy",
                            lambda n, k: scripted_strategy([Fraction(k, n) - Fraction(1, 32)] * n))
        row, = verify.sequential_suite(12, 2, 20, seed=3)
        assert row.value > 0 and not row.passed
