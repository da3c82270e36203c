"""Same-seed outputs pinned to values recorded with auctionlab 0.1.0.

``position_dp_optimal`` was re-recorded when ``best_response`` switched to
its closed-form witness, a different multiset with the same exact value;
``test_pinned_means_near_exact`` holds every entry to its exact values.

The Monte Carlo modes, ``copycat_value`` and ``marginal_suite`` consume
their random streams in a fixed order (per chunk: adversary, bidders
1..k-1, then tie realization), so a fixed seed must keep reproducing these
numbers bit for bit.  Means and standard errors are compared exactly.  KS
distances may move by one ULP at k >= 3, where numpy's ``power`` and
Python's ``**`` can round differently, so they get 1e-15.  They were
re-recorded when ``ks_distance`` became the two-sided statistic, which
moved each up by at most 1/N; no draw changed.

Two changes of random-number use re-recorded five entries: ties now draw
one variate per tied object instead of one per object, and the simplex
gammas are drawn as Gamma(1 + 1/(k-1)) * U**(k-1) with one normalization.
The reports ``k_bidder_copycat_ks``, ``k_bidder_fixed`` and
``position_dp_optimal`` (whose k = 3 ranks can tie), ``copycat_value``
``6_3`` and ``marginal_suite_6_3`` moved; the two-bidder reports,
``position_undercut`` (k = 2 ranks cannot tie), ``copycat_value`` ``5_2``
and every ``sequential`` entry did not.

Sizing ``play``'s chunks by ``montecarlo.CELLS`` bid cells instead of
65,536 rows moved every chunk boundary and re-recorded seven entries: the
reports ``two_bidder_copycat_ks``, ``k_bidder_copycat_ks``,
``k_bidder_fixed``, ``position_undercut`` and ``position_dp_optimal``, and
``copycat_value`` ``5_2`` and ``6_3``.  ``two_bidder_fixed`` (its adversary
wins exactly 2 on every draw), ``marginal_suite_6_3`` (drawn outside
``play``) and every ``sequential`` entry did not move.

Drawing the k = 3 simplex rows in closed form, as squared coordinates of
a uniform point on the sphere (two uniforms per row instead of three
uniforms and three gammas), re-recorded four entries: the reports
``k_bidder_copycat_ks`` and ``k_bidder_fixed``, ``copycat_value`` ``6_3``
and ``marginal_suite_6_3``.  ``k_bidder_4_copycat_ks`` was recorded before
that change, so it pins the gamma path that every k != 3 keeps; it and
every other entry did not move.

Storing narrow bid rows column-major (``samplers.by_columns``: chunks,
sampler draws and the KS rows of 2-15 cells with at least 128 rows per
cell) moved no entry; it changes memory order only, not random-number use
or arithmetic.  ``two_bidder_15_copycat_ks`` and ``k_bidder_16_4_fixed``
were recorded just before that change: the first spans 16 column-major
chunks of 4,369 rows and a 96-row row-major one, and the second stays
row-major on the gamma path throughout.

Building two-bidder rows to total 1, instead of dividing each row by its
float sum again, consumed the same random numbers.  Even-n rows, whose
float sums were already exactly 1, did not move; odd-n cells moved by at
most 2 ULP below n = 15 and at most 4 at n = 15 and n = 101.  It
re-recorded two fields, the ``max_sum_error`` of ``two_bidder_copycat_ks``
(3.33e-16 to 2.22e-16) and of ``two_bidder_15_copycat_ks`` (8.88e-16 to
4.44e-16).  Every estimate stayed bit for bit; three n = 15 KS distances
moved by at most 1.1e-16, inside their 1e-15 tolerance, and were left as
recorded.

Drawing position mode's ladder rows up to 8 objects from a table of all
n! permutations, one ``integers(0, n!)`` per row instead of
``Generator.permuted``, re-recorded the reports ``position_undercut`` and
``position_dp_optimal``.  ``position_9_3_undercut`` was recorded just before
that change: past 8 objects the filler still calls ``permuted``, so it did
not move, and nor did any other entry.

Drawing a vectorized sampler's rows as the draws of its row blocks of
``samplers.BLOCK // n`` rows, made in turn, each with its own checks and
zero-bid redraws, re-recorded ``marginal_suite_6_3``: its 50,000 rows of
n = 6 are five blocks, where the variates of each stage were once drawn
for the whole table first.  No report moved, since a ``play`` chunk holds
at most ``BLOCK // n`` rows and so is drawn as one block.

The ``sequential`` section pins ``run_sequential``: exact Fractions for
all-steady and random-script profiles, sampled win tuples for tie-heavy
profiles, and one sequential ``estimate`` report.  Drawing sampled trials
from the exact walk's final states, one variate per trial, renamed that
report's ``graph_nodes`` counter to ``leaves``; its all-steady profile ends
on one state, so its estimates did not move.  Counting the trials that end
in each final state with one multinomial draw on ``RngStream(seed, 0)``,
instead of one variate per trial in chunks of 65,536, did not move it
either: one final state takes every trial.
"""

import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from auctionlab import (
    AdversaryPlan,
    MarginalSpec,
    Scenario,
    copycat_value,
    estimate,
    run_sequential,
    scripted_strategy,
    steady_strategy,
)
from auctionlab.verify import marginal_suite

PINNED = json.loads((Path(__file__).parent / "pinned_values.json").read_text())
SAMPLES = 70_000  # 5 to 35 play chunks of montecarlo.chunk_rows(k, n) rows
KS_TOLERANCE = 1e-15

SCENARIOS = {
    "two_bidder_copycat_ks": Scenario(
        "two-bidder", 5, 2, AdversaryPlan("copycat"), SAMPLES, 11, ks_stats=True
    ),
    "two_bidder_15_copycat_ks": Scenario(
        "two-bidder", 15, 2, AdversaryPlan("copycat"), SAMPLES, 23, ks_stats=True
    ),
    "two_bidder_fixed": Scenario(
        "two-bidder", 4, 2,
        AdversaryPlan.fixed([Fraction(1, 10), Fraction(1, 5), Fraction(3, 10), Fraction(2, 5)]),
        SAMPLES, 12,
    ),
    "k_bidder_copycat_ks": Scenario(
        "k-bidder", 6, 3, AdversaryPlan("copycat"), SAMPLES, 13, ks_stats=True
    ),
    "k_bidder_4_copycat_ks": Scenario(
        "k-bidder", 8, 4, AdversaryPlan("copycat"), SAMPLES, 22, ks_stats=True
    ),
    "k_bidder_fixed": Scenario(
        "k-bidder", 6, 3, AdversaryPlan.fixed([Fraction(1, 6)] * 6), SAMPLES, 14
    ),
    "k_bidder_16_4_fixed": Scenario(
        "k-bidder", 16, 4,
        AdversaryPlan.fixed([Fraction(1, 32)] * 8 + [Fraction(3, 32)] * 8), SAMPLES, 24,
    ),
    "position_undercut": Scenario(
        "position-randomized", 5, 2, AdversaryPlan("undercut"), SAMPLES, 15
    ),
    "position_dp_optimal": Scenario(
        "position-randomized", 6, 3, AdversaryPlan("dp-optimal"), SAMPLES, 16
    ),
    "position_9_3_undercut": Scenario(
        "position-randomized", 9, 3, AdversaryPlan("undercut"), SAMPLES, 25
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


SEQUENTIAL_REPORT = Scenario("sequential", 6, 3, AdversaryPlan("steady"), 500, 21)


def steady_profile(n, k):
    return [steady_strategy(n, k) for _ in range(k)]


def random_script_profiles(n, k, count=20):
    """Scripted opponents bidding multiples of 1/8 (0 passes) against one
    steady bidder; steady bids k/n = 1/2 at (4,2) and (6,3), so ties are
    common."""
    gen = np.random.default_rng([n, k, 31])
    for _ in range(count):
        scripts = [
            scripted_strategy([Fraction(int(v), 8) for v in gen.integers(0, 9, size=n)])
            for _ in range(k - 1)
        ]
        yield scripts + [steady_strategy(n, k)]


def tie_heavy_profile(n, k):
    """An opponent that ties the steady bidders at k/n for the first n/2
    rounds and then passes, so who wins each tie decides every count and
    whether the last rounds go unsold."""
    script = [Fraction(k, n)] * (n // 2) + [0] * (n - n // 2)
    return [scripted_strategy(script)] + steady_profile(n, k)[1:]


def as_text(values):
    return [str(v) for v in values]


@pytest.mark.parametrize("n,k", [(6, 2), (8, 2), (6, 3)])
def test_sequential_exact_steady(n, k):
    wins = run_sequential(steady_profile(n, k), n, k, mode="exact")
    assert all(type(w) is Fraction for w in wins)
    assert as_text(wins) == PINNED["sequential"]["exact_steady"][f"{n}_{k}"]


@pytest.mark.parametrize("n,k", [(4, 2), (6, 3)])
def test_sequential_exact_random_scripts(n, k):
    got = [
        as_text(run_sequential(profile, n, k, mode="exact"))
        for profile in random_script_profiles(n, k)
    ]
    assert got == PINNED["sequential"]["exact_random_scripts"][f"{n}_{k}"]


@pytest.mark.parametrize("n,k", [(4, 2), (6, 3)])
def test_sequential_sampled_wins(n, k):
    profile = tie_heavy_profile(n, k)
    got = [list(run_sequential(profile, n, k, seed=s, mode="sample")) for s in range(50)]
    assert all(type(w) is int for wins in got for w in wins)
    assert got == PINNED["sequential"]["sample_tie_heavy"][f"{n}_{k}"]


def test_sequential_report():
    report = estimate(SEQUENTIAL_REPORT).to_json_dict()
    del report["meta"]["elapsed_s"]
    assert report == PINNED["sequential"]["report_6_3"]
