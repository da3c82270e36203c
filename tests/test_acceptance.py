"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; the
whole suite completes in a couple of minutes on a laptop.
"""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from auctionlab import (
    Bid,
    BidSequence,
    MarginalSpec,
    PermutationMarginals,
    best_response,
    copycat_value,
    draw_two_bidder,
    expected_wins_perm,
    initial_bids,
    rank_win_expectation,
    scripted_strategy,
    steady_strategy,
    undercut_sequence,
    wins_vs_marginal,
)
from auctionlab.montecarlo import CHUNK, WinTally, tally_chunks, win_counts
from auctionlab.sequential import _run_exact
from auctionlab.verify import (
    marginal_suite,
    pair_density_quadrature,
    triple_cube_integral,
)
from auctionlab.marginals import pair_density

SAMPLES = 1_000_000


def report(criterion: str, passed: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert passed, line


def feasible_capped_sequences(n: int, count: int, rng: random.Random):
    """Random exact-rational bid vectors with sum 1 and every entry <= 2/n."""
    cap = Fraction(2, n)
    out = []
    while len(out) < count:
        weights = [rng.randint(0, 50) for _ in range(n)]
        total = sum(weights)
        if total == 0:
            continue
        amounts = [Fraction(w, total) for w in weights]
        if all(a <= cap for a in amounts):
            out.append(amounts)
    return out


def c1_tallies(n: int, rows, samples: int) -> list:
    """One tally per fixed adversary row against shared two-bidder draws:
    CHUNK rows per chunk, chunk i drawn from RngStream(101 + n, i), each
    row's ties realized on that chunk's generator in turn.  One tally of
    2R columns holds the R rows' wins, bidder pair by pair."""

    def chunk(stream, start, length):
        draws = draw_two_bidder(n, stream, size=length)
        return np.concatenate([
            win_counts(np.stack([np.broadcast_to(row, (length, n)), draws]), stream.generator)
            for row in rows
        ])

    tally, _ = tally_chunks(2 * len(rows), samples, CHUNK, 101 + n, chunk)
    return [
        WinTally(2, tally.count, tally.sums[b:b + 2], tally.squares[b:b + 2])
        for b in range(0, tally.k, 2)
    ]


def test_c1_draws_are_pinned():
    # c1's own chunk layout, not play's: these sums were recorded with it
    (tally,) = c1_tallies(5, [np.full(5, 0.2)], CHUNK + 10)
    assert (tally.count, tally.sums, tally.squares) == (
        65_546, [163_897, 163_833], [426_209, 425_889]
    )


def test_c1_two_bidder_optimality():
    """Saturating adversaries win exactly n/2, and Monte Carlo against the
    two-bidder sampler agrees within three standard errors."""
    rng = random.Random(2024)
    all_ok = True
    for n in (2, 3, 4, 5, 8, 9):
        spec = MarginalSpec(n, 2)
        sequences = feasible_capped_sequences(n, 20, rng)
        for amounts in sequences:
            assert wins_vs_marginal(spec, amounts) == Fraction(n, 2)
        rows = [np.array([float(a) for a in amounts]) for amounts in sequences]
        for tally in c1_tallies(n, rows, SAMPLES):
            gap = abs(tally.mean(0) - n / 2)
            band = 3 * tally.stderr(0)
            all_ok &= gap <= band and band <= 0.005 * n
    report("1 two-bidder optimality", all_ok)


def test_c2_marginal_correctness():
    """Per-coordinate KS distance at N = 1e6 stays under 1.95/sqrt(N) and
    every drawn sequence sums to 1 within 1e-12."""
    all_ok = True
    details = []
    for n, k in ((4, 2), (5, 2), (3, 3), (6, 3), (4, 4)):
        checks = marginal_suite(n, k, samples=SAMPLES, seed=404)
        worst = max(c.value / c.threshold for c in checks if c.name.startswith("ks"))
        details.append(f"({n},{k}) worst KS ratio {worst:.2f}")
        all_ok &= all(c.passed for c in checks)
    report("2 marginal correctness", all_ok, "; ".join(details))


def test_c3_triple_density_and_pair_marginal():
    """The triple density integrates to 1 within 1e-3 and its closed-form
    pair marginal matches quadrature within 1e-9 at 100 interior points."""
    integral = triple_cube_integral()
    ok_integral = abs(integral - 1.0) <= 1e-3
    offsets = (np.arange(10) + 0.5) / 30.0
    worst = 0.0
    for x in offsets:
        for y in offsets:
            worst = max(worst, abs(pair_density(x, y) - pair_density_quadrature(x, y)))
    ok_pair = worst <= 1e-9
    report(
        "3 triple density",
        ok_integral and ok_pair,
        f"integral {integral:.6f}, worst pair gap {worst:.2e}",
    )


def test_c4_position_randomized_exact_bound():
    """best_response equals (weight_total - 1)/n**(k-1) exactly and matches
    the undercut sequence's exact evaluation for all 2<=k<=5, k<=n<=12."""
    all_ok = True
    for k in range(2, 6):
        for n in range(k, 13):
            ladder = initial_bids(n, k)
            response = best_response(n, k)
            formula = Fraction(ladder.weight_total - 1, n ** (k - 1))
            undercut_value = expected_wins_perm(
                k,
                undercut_sequence(ladder.as_sequence()),
                ladder.as_sequence(),
                PermutationMarginals.identity(n),
                PermutationMarginals.uniform(n),
            )
            all_ok &= response.value == formula == undercut_value
    all_ok &= best_response(4, 2).value == Fraction(9, 4)
    all_ok &= best_response(3, 3).value == Fraction(13, 9)
    report("4 position-randomized exact bound", all_ok)


def _random_doubly_stochastic(n, rng):
    perms = [rng.sample(range(n), n) for _ in range(n)]
    weights = [Fraction(rng.randint(1, 9)) for _ in range(n)]
    total = sum(weights)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for weight, perm in zip(weights, perms):
        for i, j in enumerate(perm):
            rows[i][j] += weight / total
    return PermutationMarginals(rows)


def test_c5_permutation_marginal_properties():
    """On 200 random instances with disjoint bid values: no permutation
    equals any permutation for the adversary, and the uniform permutation
    dominates for the disadvantaged side."""
    rng = random.Random(55)
    all_ok = True
    for _ in range(200):
        n, k = rng.randint(2, 6), rng.randint(2, 4)
        a = BidSequence(
            tuple(Bid(Fraction(2 * rng.randint(1, 45) + 1, 97)) for _ in range(n))
        )
        b = BidSequence(
            tuple(Bid(Fraction(2 * rng.randint(1, 40), 89)) for _ in range(n))
        )
        ident = PermutationMarginals.identity(n)
        unif = PermutationMarginals.uniform(n)
        w2 = expected_wins_perm(k, a, b, ident, unif)
        w3 = expected_wins_perm(k, a, b, _random_doubly_stochastic(n, rng), unif)
        w1 = expected_wins_perm(k, a, b, unif, _random_doubly_stochastic(n, rng))
        all_ok &= w2 == w3 and w1 >= w2
    report("5 permutation-marginal identities", all_ok)


def test_c6_rank_win_oracle():
    """The tie summation agrees exactly with brute-force enumeration over
    all opponent placements and tie splits."""
    all_ok = True
    for k in range(2, 5):
        for n in range(k, 7):
            for p in range(1, n + 1):
                total = Fraction(0)
                for combo in itertools.product(range(1, n + 1), repeat=k - 1):
                    if any(rank > p for rank in combo):
                        continue
                    ties = sum(1 for rank in combo if rank == p)
                    total += Fraction(1, ties + 1)
                brute = total / n ** (k - 1)
                all_ok &= rank_win_expectation(n, k, p) == brute
    report("6 rank-win enumeration", all_ok)


def test_c7_sequential_floor():
    """The steady bidder collects exactly n/k objects in every final state
    of the exact walk, against the full eighth-grid of scripts (n=4, k=2)
    and against 1e4 randomized scripts for (4,2) and (6,3)."""
    all_ok = True
    grid = [Fraction(j, 8) for j in range(9)]  # 0 means pass
    for script in itertools.product(grid, repeat=4):
        run = _run_exact([scripted_strategy(script), steady_strategy(4, 2)], 4, 2)
        all_ok &= all(wins[1] == 2 for wins in run.wins)
    for n, k in ((4, 2), (6, 3)):
        gen = np.random.default_rng([n, k, 9])
        target = Fraction(n, k)
        for _ in range(10_000):
            scripts = [
                scripted_strategy(
                    [Fraction(int(v), 32) for v in gen.integers(0, 33, size=n)]
                )
                for _ in range(k - 1)
            ]
            run = _run_exact(scripts + [steady_strategy(n, k)], n, k)
            all_ok &= all(wins[-1] == target for wins in run.wins)
    report("7 sequential steady floor", all_ok)


def test_c8_copycat_optimality():
    """Copycat runs at N = 1e6 land within three standard errors of n/k."""
    all_ok = True
    details = []
    for n, k in ((3, 3), (6, 3), (4, 2)):
        result = copycat_value(MarginalSpec(n, k), samples=SAMPLES, seed=808)
        all_ok &= result.within <= 3.0
        details.append(f"({n},{k}) mean {result.mean:.4f} vs {n}/{k}")
    report("8 copycat optimality", all_ok, "; ".join(details))
