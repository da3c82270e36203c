"""Same-seed outputs pinned to values recorded with auctionlab 0.1.0.

``position_dp_optimal`` was re-recorded when ``best_response`` switched to
its closed-form witness, a different multiset with the same exact value;
``test_pinned_means_near_exact`` holds every entry to its exact values.

The Monte Carlo modes, ``copycat_value`` and ``marginal_suite`` consume
their random streams in a fixed order (per chunk: adversary, bidders
1..k-1, then tie realization), so a fixed seed must keep reproducing these
numbers bit for bit.  Means and standard errors are compared exactly.  KS
distances may move by one ULP at k >= 3, where numpy's ``power`` and
Python's ``**`` can round differently, so they get 1e-15.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from auctionlab import AdversaryPlan, MarginalSpec, Scenario, copycat_value, estimate
from auctionlab.verify import marginal_suite

PINNED = json.loads((Path(__file__).parent / "pinned_values.json").read_text())
SAMPLES = 70_000  # two chunks: 65,536 + 4,464 rows
KS_TOLERANCE = 1e-15

SCENARIOS = {
    "two_bidder_copycat_ks": Scenario(
        "two-bidder", 5, 2, AdversaryPlan("copycat"), SAMPLES, 11, ks_stats=True
    ),
    "two_bidder_fixed": Scenario(
        "two-bidder", 4, 2,
        AdversaryPlan.fixed([Fraction(1, 10), Fraction(1, 5), Fraction(3, 10), Fraction(2, 5)]),
        SAMPLES, 12,
    ),
    "k_bidder_copycat_ks": Scenario(
        "k-bidder", 6, 3, AdversaryPlan("copycat"), SAMPLES, 13, ks_stats=True
    ),
    "k_bidder_fixed": Scenario(
        "k-bidder", 6, 3, AdversaryPlan.fixed([Fraction(1, 6)] * 6), SAMPLES, 14
    ),
    "position_undercut": Scenario(
        "position-randomized", 5, 2, AdversaryPlan("undercut"), SAMPLES, 15
    ),
    "position_dp_optimal": Scenario(
        "position-randomized", 6, 3, AdversaryPlan("dp-optimal"), SAMPLES, 16
    ),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_estimate_report(name):
    pinned = PINNED["reports"][name]
    report = estimate(SCENARIOS[name]).to_json_dict()
    ks = report["statistics"]["ks"]
    pinned_ks = pinned["statistics"]["ks"]
    if pinned_ks is not None:
        assert len(ks["entries"]) == len(pinned_ks["entries"])
        for got, want in zip(ks["entries"], pinned_ks["entries"]):
            assert got["distance"] == pytest.approx(want["distance"], rel=0, abs=KS_TOLERANCE)
            got["distance"] = want["distance"]
    # meta may grow observability keys; the pinned ones must not change
    report["meta"] = {key: report["meta"][key] for key in pinned["meta"]}
    assert report == pinned


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_pinned_means_near_exact(name):
    pinned = PINNED["reports"][name]
    for est, exact in zip(pinned["estimates"], pinned["exact"]):
        gap = abs(est["mean"] - exact["num"] / exact["den"])
        assert gap <= 5 * est["stderr"]


@pytest.mark.parametrize("n,k", [(5, 2), (6, 3)])
def test_copycat_value(n, k):
    pinned = PINNED["copycat_value"][f"{n}_{k}"]
    result = copycat_value(MarginalSpec(n, k), samples=pinned["samples"], seed=pinned["seed"])
    assert (result.mean, result.stderr) == (pinned["mean"], pinned["stderr"])


def test_marginal_suite():
    checks = marginal_suite(6, 3, 50_000, 19)
    assert [c.name for c in checks] == [row[0] for row in PINNED["marginal_suite_6_3"]]
    for check, (name, value, threshold, passed) in zip(checks, PINNED["marginal_suite_6_3"]):
        assert check.value == pytest.approx(value, rel=0, abs=KS_TOLERANCE)
        assert (check.threshold, check.passed) == (threshold, passed)
