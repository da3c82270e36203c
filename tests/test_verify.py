import pytest

from auctionlab import ScenarioError, verify
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
