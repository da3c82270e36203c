"""Correctness oracles computed by the benchmark, apart from the library.

Every function returns a list of problems; an empty list means the value
passed.  The oracles only take plain numbers, Fractions and numpy arrays,
so ``test_oracles.py`` can feed them perturbed values.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# An estimate is accepted within Z_SCORE standard errors of its exact value.
# Two-sided, a correct sampler misses this band with probability 5.7e-7 per
# check, so a seed that trips it points at the program, not at chance.
Z_SCORE = 5.0

# Critical value factor of the KS statistic the library reports: threshold
# KS_FACTOR / sqrt(N).  A correct sampler exceeds 2x that threshold with
# probability below 1e-12, while the 1x threshold fails 0.1% of seeds.
KS_FACTOR = 1.95
KS_SANITY_MULTIPLE = 2.0
SUM_TOLERANCE = 1e-12
KS_MATCH = 1e-12
MEAN_SUM_SLACK = 1e-9


def game_value(n: int, k: int) -> Fraction:
    """n/k: what each bidder wins when the disadvantaged play optimally."""
    return Fraction(n, k)


def ladder_weight(n: int, k: int) -> int:
    return sum(i ** (k - 1) for i in range(1, n + 1))


def best_response_value(n: int, k: int) -> Fraction:
    """(sum_i i**(k-1) - 1) / n**(k-1), from integers."""
    return Fraction(ladder_weight(n, k) - 1, n ** (k - 1))


def check_estimate(label: str, mean: float, stderr: float, target) -> list[str]:
    """mean lies within Z_SCORE standard errors of target; exactly equal
    when stderr is 0."""
    target = float(target)
    if not (math.isfinite(mean) and math.isfinite(stderr)) or stderr < 0:
        return [f"{label}: mean {mean!r} stderr {stderr!r} not finite"]
    gap = abs(mean - target)
    if stderr == 0.0:
        return [] if gap == 0.0 else [f"{label}: mean {mean!r} != {target!r} at stderr 0"]
    if gap > Z_SCORE * stderr:
        return [f"{label}: mean {mean!r} is {gap / stderr:.2f} stderr from {target!r}"]
    return []


def check_total(label: str, means, n: int) -> list[str]:
    """Every draw awards all n objects, so the bidders' means add up to n."""
    total = math.fsum(means)
    if abs(total - n) > MEAN_SUM_SLACK:
        return [f"{label}: means total {total!r}, not {n}"]
    return []


def check_exact(label: str, values, expected) -> list[str]:
    """Exact Fraction equality, element by element."""
    values = tuple(values)
    expected = tuple(expected)
    if values != expected:
        return [f"{label}: exact {[str(v) for v in values]} != {[str(e) for e in expected]}"]
    return []


def saturating_capped(amounts, n: int, k: int) -> bool:
    """The split spends the whole budget with no amount above the cap k/n."""
    cap = Fraction(k, n)
    return sum(amounts) == 1 and all(0 <= a <= cap for a in amounts)


def marginal_cdf_vec(values: np.ndarray, n: int, k: int) -> np.ndarray:
    """min(1, (n b / k) ** (1/(k-1))), vectorized."""
    return np.minimum(1.0, (values * (n / k)) ** (1.0 / (k - 1)))


def ks_variants(column: np.ndarray, n: int, k: int) -> tuple[float, float]:
    """KS distance of one coordinate against the closed-form marginal.

    Returns the right-limit statistic max |F(x_i) - i/N| and the two-sided
    max(D+, D-).  They differ by at most 1/N; a reported value may be
    either, so a change to the two-sided form still passes.
    """
    values = np.sort(np.asarray(column, dtype=float))
    size = values.size
    theory = marginal_cdf_vec(values, n, k)
    upper = np.arange(1, size + 1) / size
    lower = np.arange(0, size) / size
    right = float(np.max(np.abs(theory - upper)))
    two_sided = float(max(np.max(upper - theory), np.max(theory - lower)))
    return right, two_sided


def ks_threshold(samples: int) -> float:
    return KS_FACTOR / math.sqrt(samples)


def check_ks_entry(label: str, distance: float, threshold: float, passed: bool,
                   samples: int, recomputed=None) -> list[str]:
    """One reported KS row: threshold is 1.95/sqrt(N), the pass flag agrees
    with it, the distance is sane, and, when the draws are known, the
    distance equals one of the recomputed variants."""
    problems = []
    expected_threshold = ks_threshold(samples)
    if not math.isclose(threshold, expected_threshold, rel_tol=1e-12, abs_tol=0.0):
        problems.append(f"{label}: threshold {threshold!r} != {expected_threshold!r}")
    if bool(passed) != (distance <= threshold):
        problems.append(f"{label}: passed={passed} disagrees with {distance!r} <= {threshold!r}")
    if not 0.0 <= distance <= KS_SANITY_MULTIPLE * expected_threshold:
        problems.append(f"{label}: distance {distance!r} beyond {KS_SANITY_MULTIPLE}x threshold")
    if recomputed is not None and min(abs(distance - r) for r in recomputed) > KS_MATCH:
        problems.append(f"{label}: distance {distance!r} != recomputed {recomputed}")
    return problems


def row_sum_error(draws: np.ndarray) -> float:
    return float(np.max(np.abs(draws.sum(axis=1) - 1.0)))


def check_sum_error(label: str, reported: float, recomputed=None) -> list[str]:
    problems = []
    if not 0.0 <= reported <= SUM_TOLERANCE:
        problems.append(f"{label}: row-sum error {reported!r} > {SUM_TOLERANCE}")
    if recomputed is not None and reported != recomputed:
        problems.append(f"{label}: row-sum error {reported!r} != recomputed {recomputed!r}")
    return problems


def check_witness(label: str, witness, n: int, k: int, value: Fraction) -> list[str]:
    """The best-response witness: n bids, each the bare infinitesimal or a
    ladder value i**(k-1)/W one infinitesimal up, spending at most W-1
    units, and winning exactly ``value`` against uniformly placed ladders
    (a bid one tick above rank i beats k-1 opponents w.p. (i/n)**(k-1))."""
    weight = ladder_weight(n, k)
    rank_of = {Fraction(i ** (k - 1), weight): i for i in range(1, n + 1)}
    if len(witness) != n:
        return [f"{label}: witness has {len(witness)} bids, not {n}"]
    units = 0
    wins = Fraction(0)
    for bid in witness:
        if bid.eps != 1:
            return [f"{label}: witness bid {bid} is not one infinitesimal up"]
        if bid.base == 0:
            continue
        rank = rank_of.get(bid.base)
        if rank is None:
            return [f"{label}: witness base {bid.base} is not a ladder value"]
        units += rank ** (k - 1)
        wins += Fraction(rank ** (k - 1), n ** (k - 1))
    problems = []
    if units > weight - 1:
        problems.append(f"{label}: witness spends {units} of {weight - 1} units")
    if wins != value:
        problems.append(f"{label}: witness wins {wins}, reported {value}")
    return problems


def check_zero_checks(label: str, checks) -> list[str]:
    """A verify suite whose checks all count mismatches: each must be 0."""
    problems = []
    if not checks:
        problems.append(f"{label}: no checks returned")
    for check in checks:
        if check.value != 0 or not check.passed:
            problems.append(f"{label}: {check.name} = {check.value!r} (passed={check.passed})")
    return problems
