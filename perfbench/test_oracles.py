"""Each benchmark oracle accepts the right value and rejects a perturbed one.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_oracles.py
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracles  # noqa: E402
import workloads  # noqa: E402
from auctionlab import Bid, ks_distance, marginal_cdf, MarginalSpec  # noqa: E402
from auctionlab.verify import Check  # noqa: E402


def test_estimate_band():
    assert oracles.check_estimate("e", 2.0 + 4.9e-3, 1e-3, Fraction(2)) == []
    assert oracles.check_estimate("e", 2.0 + 5.1e-3, 1e-3, Fraction(2))
    assert oracles.check_estimate("e", 2.0, 0.0, Fraction(2)) == []
    assert oracles.check_estimate("e", math.nextafter(2.0, 3.0), 0.0, Fraction(2))
    assert oracles.check_estimate("e", float("nan"), 1e-3, Fraction(2))


def test_means_total():
    assert oracles.check_total("t", [2.5, 2.5], 5) == []
    assert oracles.check_total("t", [2.5, 2.5 + 1e-6], 5)


def test_exact_values():
    assert oracles.check_exact("x", (Fraction(9, 4),), (Fraction(9, 4),)) == []
    assert oracles.check_exact("x", (Fraction(9, 4) + Fraction(1, 10**12),), (Fraction(9, 4),))


def test_best_response_formula_from_integers():
    # values pinned by the library's own tests, derived here without it
    assert oracles.best_response_value(4, 2) == Fraction(9, 4)
    assert oracles.best_response_value(3, 3) == Fraction(13, 9)
    assert oracles.best_response_value(8, 3) == Fraction(203, 64)


def test_saturating_capped_split():
    assert oracles.saturating_capped([Fraction(1, 4)] * 4, 4, 2)
    assert not oracles.saturating_capped([Fraction(1, 8)] * 4 + [Fraction(1, 2)], 5, 2)
    assert not oracles.saturating_capped([Fraction(1, 5)] * 4, 4, 2)


def _witness(*bases):
    return tuple(Bid(Fraction(b), 1) for b in bases)


def test_witness():
    value = Fraction(9, 4)
    good = _witness(0, Fraction(2, 10), Fraction(3, 10), Fraction(4, 10))
    assert oracles.check_witness("w", good, 4, 2, value) == []
    assert oracles.check_witness("w", good, 4, 2, value + Fraction(1, 4))
    overspent = _witness(Fraction(1, 10), Fraction(2, 10), Fraction(3, 10), Fraction(4, 10))
    assert oracles.check_witness("w", overspent, 4, 2, Fraction(10, 4))
    off_ladder = _witness(0, Fraction(2, 10), Fraction(3, 10), Fraction(7, 20))
    assert oracles.check_witness("w", off_ladder, 4, 2, value)
    assert oracles.check_witness("w", good[:3], 4, 2, value)
    no_tick = good[:3] + (Bid(Fraction(4, 10), 0),)
    assert oracles.check_witness("w", no_tick, 4, 2, value)


def _uniform_coordinate(n: int, size: int) -> np.ndarray:
    # the two-bidder marginal is uniform on [0, 2/n]; drawn without the library
    return np.random.default_rng(5).random(size) * (2.0 / n)


def test_ks_recomputation_matches_library_statistic():
    n, size = 5, 20_000
    column = _uniform_coordinate(n, size)
    spec = MarginalSpec(n, 2)
    library = ks_distance(column, lambda v: np.array([marginal_cdf(spec, x) for x in v]))
    right, two_sided = oracles.ks_variants(column, n, 2)
    assert abs(library - right) <= oracles.KS_MATCH
    assert right <= two_sided <= right + 1.0 / size


def test_ks_entry():
    n, size = 5, 20_000
    recomputed = oracles.ks_variants(_uniform_coordinate(n, size), n, 2)
    threshold = oracles.ks_threshold(size)
    distance = recomputed[0]
    assert oracles.check_ks_entry("k", distance, threshold, True, size, recomputed) == []
    assert oracles.check_ks_entry("k", recomputed[1], threshold, True, size, recomputed) == []
    assert oracles.check_ks_entry("k", distance + 1e-9, threshold, True, size, recomputed)
    assert oracles.check_ks_entry("k", distance, threshold * 1.001, True, size, recomputed)
    assert oracles.check_ks_entry("k", distance, threshold, False, size, recomputed)
    assert oracles.check_ks_entry("k", 2.5 * threshold, threshold, False, size)


def test_sum_error():
    assert oracles.check_sum_error("s", 4e-16, 4e-16) == []
    assert oracles.check_sum_error("s", 2e-12)
    assert oracles.check_sum_error("s", 4e-16, 2e-16)


def test_zero_checks():
    assert oracles.check_zero_checks("z", [Check("a", 0.0, 0.0, True)]) == []
    assert oracles.check_zero_checks("z", [Check("a", 1.0, 0.0, False)])
    assert oracles.check_zero_checks("z", [])


def test_verify_operation_rejects_a_perturbed_report():
    op = workloads._verify_marginals_op(5, 2, seed=3)
    code, text = op.run()
    assert op.check((code, text)) == []
    payload = json.loads(text)
    payload["checks"][2]["value"] += 1e-9
    assert op.check((code, json.dumps(payload)))
    assert op.check((1, text))


def test_determinism_operation_rejects_a_changed_repeat():
    op = workloads._determinism("d", lambda: 1.0, lambda first: [])
    assert op.check((1.0, 1.0)) == []
    assert op.check((1.0, math.nextafter(1.0, 2.0)))
    assert op.check((math.nextafter(1.0, 2.0),) * 2)


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
