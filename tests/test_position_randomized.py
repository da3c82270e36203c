import functools
import itertools
import random
from fractions import Fraction
from math import comb, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auctionlab import (
    Bid,
    BidSequence,
    DomainError,
    Infeasible,
    LengthMismatch,
    NotDoublyStochastic,
    PermutationMarginals,
    SizeLimitExceeded,
    best_response,
    expected_wins_perm,
    initial_bids,
    rank_win_expectation,
    undercut_sequence,
    validate_sequence,
)
from auctionlab import position_randomized
from auctionlab.position_randomized import _ladder_places, _place_wins


class TestInitialBids:
    def test_four_two(self):
        ladder = initial_bids(4, 2)
        assert ladder.weight_total == 10
        assert ladder.bids == (
            Fraction(1, 10),
            Fraction(1, 5),
            Fraction(3, 10),
            Fraction(2, 5),
        )

    def test_three_three(self):
        ladder = initial_bids(3, 3)
        assert ladder.weight_total == 14
        assert ladder.bids == (Fraction(1, 14), Fraction(2, 7), Fraction(9, 14))

    def test_two_two(self):
        ladder = initial_bids(2, 2)
        assert ladder.weight_total == 3
        assert ladder.bids == (Fraction(1, 3), Fraction(2, 3))

    @pytest.mark.parametrize("n,k", [(4, 2), (7, 3), (12, 5)])
    def test_invariants(self, n, k):
        ladder = initial_bids(n, k)
        assert sum(ladder.bids) == 1
        assert all(b > 0 for b in ladder.bids)
        assert all(a < b for a, b in zip(ladder.bids, ladder.bids[1:]))
        validate_sequence(ladder.as_sequence())

    def test_size_limit(self, monkeypatch):
        # (8, 2) holds 8 * 2 * log10(8) = 14.4 digits, (9, 2) 17.2
        monkeypatch.setattr(position_randomized, "MAX_LADDER_DIGITS", 15)
        assert initial_bids(8, 2).n == 8
        with pytest.raises(SizeLimitExceeded):
            initial_bids(9, 2)
        with pytest.raises(SizeLimitExceeded):
            best_response(9, 2)

    def test_limit_messages_name_n_by_its_power_of_ten(self):
        # an n of 5,001 digits once failed to print, so a plain ValueError
        # escaped where SizeLimitExceeded was meant
        for build in (initial_bids, best_response):
            with pytest.raises(SizeLimitExceeded, match=r"n = 10\^5000\.0, k = 2 ladder run to"):
                build(10**5000, 2)
        with pytest.raises(SizeLimitExceeded, match=r"n = 10\^6\.3, k = 3 ladder holds"):
            initial_bids(2 * 10**6, 3)

    def test_k_past_float_range_is_refused(self):
        # k * log10(n) once overflowed to a plain OverflowError past k ~ 1e308
        for build in (initial_bids, best_response):
            with pytest.raises(SizeLimitExceeded, match=r"n = 10\^401\.0, k = 10\^400\.0 ladder run to about 10\^402\.6 digits"):
                build(10**401, 10**400)
        # a k of 5,001 digits would not print in full
        with pytest.raises(SizeLimitExceeded, match=r"k = 10\^5000\.0 ladder"):
            initial_bids(10**5001, 10**5000)

    def test_ladder_limit_on_an_n_past_float_range(self):
        # n * digits once overflowed to a plain OverflowError past n ~ 1e308
        with pytest.raises(SizeLimitExceeded, match=r"about 10\^402\.9 digits, past the ladder limit"):
            initial_bids(10**400, 2)

    def test_value_digit_limit(self):
        # weight_total < n**k: refused once n**k may need 4,300 digits or more
        for n, k in ((10**2150, 2), (1500, 1500)):
            with pytest.raises(SizeLimitExceeded, match="can be printed"):
                initial_bids(n, k)


def brute_rank_win(n, k, p):
    """Enumerate the k-1 opponents' uniform rank placements and tie splits."""
    total = Fraction(0)
    for combo in itertools.product(range(1, n + 1), repeat=k - 1):
        if any(rank > p for rank in combo):
            continue
        ties = sum(1 for rank in combo if rank == p)
        total += Fraction(1, ties + 1)
    return total / n ** (k - 1)


class TestRankWinExpectation:
    def test_examples(self):
        assert rank_win_expectation(4, 2, 2) == Fraction(3, 8)
        assert rank_win_expectation(4, 2, 1) == Fraction(1, 8)
        assert rank_win_expectation(3, 3, 3) == Fraction(19, 27)

    def test_matches_brute_force_enumeration(self):
        for k in range(2, 5):
            for n in range(k, 7):
                for p in range(1, n + 1):
                    assert rank_win_expectation(n, k, p) == brute_rank_win(n, k, p)

    def test_matches_telescoped_form(self):
        # the closed form against the sum over tying opponents it telescopes from
        for k in range(2, 8):
            for n in range(k, 30):
                for p in range(1, n + 1):
                    tie_sum = sum(
                        Fraction(comb(k - 1, i), i + 1)
                        * Fraction(1, n) ** i
                        * Fraction(p - 1, n) ** (k - 1 - i)
                        for i in range(k)
                    )
                    assert rank_win_expectation(n, k, p) == tie_sum

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            rank_win_expectation(4, 2, 5)


class TestPermutationMarginals:
    def test_identity_and_uniform(self):
        ident = PermutationMarginals.identity(3)
        assert ident[0, 0] == 1 and ident[0, 1] == 0
        unif = PermutationMarginals.uniform(3)
        assert unif[2, 1] == Fraction(1, 3)

    def test_row_sum_violation(self):
        with pytest.raises(NotDoublyStochastic):
            PermutationMarginals([[Fraction(1, 2), 0], [0, 1]])

    def test_column_sum_violation(self):
        half = Fraction(1, 2)
        with pytest.raises(NotDoublyStochastic):
            PermutationMarginals([[half, half], [half + half, 0]])

    def test_negative_entry(self):
        with pytest.raises(NotDoublyStochastic):
            PermutationMarginals([[Fraction(3, 2), Fraction(-1, 2)], [Fraction(-1, 2), Fraction(3, 2)]])

    def test_not_square(self):
        with pytest.raises(LengthMismatch):
            PermutationMarginals([[1, 0]])

    @pytest.mark.parametrize("rows,message", [
        ([[Fraction(3, 2), Fraction(-1, 2)], [Fraction(-1, 2), Fraction(3, 2)]],
         "entries must be nonnegative"),
        ([[Fraction(1, 2), 0], [0, 1]], "row sums to 1/2, not 1"),
        ([[1, 1], [0, 0]], "row sums to 2, not 1"),
        ([[Fraction(1, 2), Fraction(1, 2)], [1, 0]], "column 0 sums to 3/2, not 1"),
        ([["1/3", "2/3"], ["1/3", "0.6666"]], "row sums to 14999/15000, not 1"),
        ([["1/3", "2/3"], ["1/3", "2/3"]], "column 0 sums to 2/3, not 1"),
        # rows are checked in order, each for its sign before its sum, then the columns
        ([[Fraction(1, 3), 0], [-1, 2]], "row sums to 1/3, not 1"),
        ([[-1, 2], [Fraction(1, 3), 0]], "entries must be nonnegative"),
        ([[2, -1], [-1, 2]], "entries must be nonnegative"),
        ([[Fraction(1, 4), Fraction(3, 4)], [Fraction(1, 4), Fraction(3, 4)]], "column 0 sums to 1/2, not 1"),
    ])
    def test_error_messages(self, rows, message):
        with pytest.raises(NotDoublyStochastic) as caught:
            PermutationMarginals(rows)
        assert str(caught.value) == message

    def test_accepts_int_float_str_and_fraction_entries(self):
        mixed = PermutationMarginals([[1, 0, 0], [0, 0.25, "3/4"], [0, Fraction(3, 4), "0.25"]])
        exact = [[Fraction(1), Fraction(0), Fraction(0)],
                 [Fraction(0), Fraction(1, 4), Fraction(3, 4)],
                 [Fraction(0), Fraction(3, 4), Fraction(1, 4)]]
        assert mixed == PermutationMarginals(exact)
        assert mixed.rows == tuple(map(tuple, exact))
        assert all(type(v) is Fraction for row in mixed.rows for v in row)
        assert mixed[1, 2] == Fraction(3, 4) and type(mixed[1, 2]) is Fraction
        assert mixed.column(1) == (0, Fraction(1, 4), Fraction(3, 4))
        assert all(type(v) is Fraction for v in mixed.column(1))
        assert all(type(v) is Fraction for row in PermutationMarginals.identity(3).rows for v in row)


def random_doubly_stochastic(n, rng):
    perms = [rng.sample(range(n), n) for _ in range(n)]
    weights = [Fraction(rng.randint(1, 9)) for _ in range(n)]
    total = sum(weights)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for weight, perm in zip(weights, perms):
        for i, j in enumerate(perm):
            rows[i][j] += weight / total
    return PermutationMarginals(rows)


def disjoint_instance(rng, n):
    # odd/97 versus even/89 numerators can never collide
    a = BidSequence(tuple(Bid(Fraction(2 * rng.randint(1, 45) + 1, 97)) for _ in range(n)))
    b = BidSequence(tuple(Bid(Fraction(2 * rng.randint(1, 40), 89)) for _ in range(n)))
    return a, b


class TestExpectedWinsPerm:
    def test_hand_enumerated_two_object_case(self):
        a = BidSequence.of(0.4, 0.6)
        b = BidSequence.of(0.3, 0.7)
        value = expected_wins_perm(
            2, a, b, PermutationMarginals.identity(2), PermutationMarginals.uniform(2)
        )
        assert value == Fraction(1)

    def test_uniform_adversary_same_value(self):
        a = BidSequence.of(0.4, 0.6)
        b = BidSequence.of(0.3, 0.7)
        value = expected_wins_perm(
            2, a, b, PermutationMarginals.uniform(2), PermutationMarginals.uniform(2)
        )
        assert value == Fraction(1)

    def test_feasibility_is_what_limits_the_up_shift(self):
        # shifting every ladder bid up one infinitesimal would win 3/2 of the
        # 2 objects, but busts the budget; the feasible undercut variant
        # (lowest bid shifted down) is evaluated in TestUndercut and wins 1
        ladder = initial_bids(2, 2).as_sequence()
        shifted = BidSequence(tuple(Bid(b.base, 1) for b in ladder.bids))
        assert not shifted.is_feasible
        value = expected_wins_perm(
            2,
            shifted,
            ladder,
            PermutationMarginals.identity(2),
            PermutationMarginals.uniform(2),
        )
        assert value == Fraction(3, 2)

    def test_size_mismatch(self):
        a = BidSequence.of(0.4, 0.6)
        with pytest.raises(LengthMismatch):
            expected_wins_perm(
                2,
                a,
                BidSequence.of(0.5),
                PermutationMarginals.identity(2),
                PermutationMarginals.uniform(2),
            )

    def test_no_permutation_equals_any_permutation(self):
        # with uniformly permuting opponents the adversary's own marginals
        # are irrelevant
        rng = random.Random(29)
        for _ in range(50):
            n, k = rng.randint(2, 6), rng.randint(2, 4)
            a, b = disjoint_instance(rng, n)
            ident = PermutationMarginals.identity(n)
            unif = PermutationMarginals.uniform(n)
            w2 = expected_wins_perm(k, a, b, ident, unif)
            w3 = expected_wins_perm(k, a, b, random_doubly_stochastic(n, rng), unif)
            assert w2 == w3

    def test_uniform_adversary_dominates_against_any_marginals(self):
        rng = random.Random(31)
        for _ in range(50):
            n, k = rng.randint(2, 6), rng.randint(2, 4)
            a, b = disjoint_instance(rng, n)
            ident = PermutationMarginals.identity(n)
            unif = PermutationMarginals.uniform(n)
            w1 = expected_wins_perm(k, a, b, unif, random_doubly_stochastic(n, rng))
            w2 = expected_wins_perm(k, a, b, ident, unif)
            assert w1 >= w2

    def test_matches_the_plain_fraction_formula(self):
        rng = random.Random(97)
        for _ in range(200):
            k, n = rng.randint(2, 5), rng.randint(1, 7)
            a, b = tied_instance(rng, n)
            q, p = (
                rng.choice([PermutationMarginals.identity(n), PermutationMarginals.uniform(n),
                            random_doubly_stochastic(n, rng), random_doubly_stochastic(n, rng)])
                for _ in range(2)
            )
            assert expected_wins_perm(k, a, b, q, p) == reference_wins_perm(k, a, b, q.rows, p.rows), (
                k, [str(x) for x in a.bids], [str(x) for x in b.bids], q.rows, p.rows
            )

    @pytest.mark.parametrize("k", [1, 0, -1, True, 2.0, 2.5, "3"])
    def test_refuses_fewer_than_two_or_non_integer_bidders(self, k):
        ladder = initial_bids(2, 2)
        seq = ladder.as_sequence()
        with pytest.raises(DomainError):
            expected_wins_perm(k, seq, seq, PermutationMarginals.identity(2), PermutationMarginals.uniform(2))


def tied_instance(rng, n):
    """Bids on denominators 3, 4, 7 and 12 with eps in -2..2; about half
    the adversary's bids copy an opponent bid, exactly or with its base."""
    def bid():
        den = rng.choice((3, 4, 7, 12))
        return Bid(Fraction(rng.randint(0, den), den), rng.randint(-2, 2))

    b = [bid() for _ in range(n)]
    a = [rng.choice([bid, lambda: rng.choice(b), lambda: Bid(rng.choice(b).base, rng.randint(-2, 2))])()
         for _ in range(n)]
    return BidSequence(tuple(a)), BidSequence(tuple(b))


def reference_wins_perm(k, a_init, b_init, q_rows, p_rows):
    """The matrix formula one Fraction at a time, comparing Bids: for each
    object r and each adversary bid q placed there with chance Q[q][r], the
    bid beats each opponent with P mass ``beat`` and ties with ``tie``, and
    wins with chance sum_i C(k-1, i) / (i+1) * tie**i * beat**(k-1-i)."""
    n = len(a_init.bids)
    total = Fraction(0)
    for r in range(n):
        for q in range(n):
            weight = q_rows[q][r]
            if weight == 0:
                continue
            bid = a_init.bids[q]
            beat = sum((p_rows[j][r] for j, other in enumerate(b_init.bids) if other < bid), Fraction(0))
            tie = sum((p_rows[j][r] for j, other in enumerate(b_init.bids) if other == bid), Fraction(0))
            total += weight * sum(
                (Fraction(comb(k - 1, i), i + 1) * tie**i * beat ** (k - 1 - i) for i in range(k)),
                Fraction(0),
            )
    return total


def oracle_candidates(ladder):
    """Every bid the oracle lets the adversary place against the ladder:
    each ladder value (rank 1 included) one infinitesimal up, exactly tied,
    and one or n-1 infinitesimals down (the undercut shift); the midpoint
    between each pair of neighbouring ladder values and between 0 and the
    lowest; and the bare infinitesimal.  Sorted by (base, eps)."""
    n = ladder.n
    out = {Bid(Fraction(0), 1)}
    for c in ladder.bids:
        out |= {Bid(c, 1), Bid(c, 0), Bid(c, -1), Bid(c, -(n - 1))}
    for lo, hi in zip((Fraction(0),) + ladder.bids, ladder.bids):
        out.add(Bid((lo + hi) / 2))
    return sorted(out)


def oracle_scores(k, ladder, candidates):
    """Each candidate's expected wins on its own object.  With identity Q
    and uniform P every bid meets the same uniformly placed opponents, so a
    multiset scores the sum of its bids' scores, and n copies of one bid
    score n times that bid."""
    n = ladder.n
    opponents = ladder.as_sequence()
    ident = PermutationMarginals.identity(n)
    unif = PermutationMarginals.uniform(n)
    return {
        bid: expected_wins_perm(k, BidSequence((bid,) * n), opponents, ident, unif) / n
        for bid in candidates
    }


def exhaustive_best(n, k):
    """The best value over every multiset of n oracle candidates that
    ``BidSequence.is_feasible`` accepts, and one multiset attaining it.

    Bases and scores are scaled to integers for speed.  Candidates are taken
    in (base, eps) order, so once the picks so far plus the cheapest
    possible rest exceed base total 1, no later candidate can complete a
    feasible multiset either."""
    ladder = initial_bids(n, k)
    candidates = oracle_candidates(ladder)
    score = oracle_scores(k, ladder, candidates)
    scale = lcm(*(v.denominator for v in score.values()))
    budget = 2 * ladder.weight_total  # midpoints have denominator 2W
    costs = [int(b.base * budget) for b in candidates]
    gains = [int(score[b] * scale) for b in candidates]
    best = [-1, None]
    picked = []

    def extend(start, cost, gain):
        if len(picked) == n:
            if gain > best[0] and BidSequence(tuple(picked)).is_feasible:
                best[:] = [gain, tuple(picked)]
            return
        left = n - len(picked)
        for i in range(start, len(candidates)):
            if cost + left * costs[i] > budget:
                break
            picked.append(candidates[i])
            extend(i, cost + costs[i], gain + gains[i])
            picked.pop()

    extend(0, 0, 0)
    return Fraction(best[0], scale), best[1]


def exhaustive_best_value(n, k):
    return exhaustive_best(n, k)[0]


class TestOracle:
    def test_candidates_cover_the_richer_set(self):
        ladder = initial_bids(3, 2)
        candidates = oracle_candidates(ladder)
        sixth, third, half = Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)
        for bid in (
            Bid(Fraction(0), 1),
            Bid(sixth, 1),
            Bid(sixth, 0),
            Bid(sixth, -2),
            Bid(half, -1),
            Bid(sixth / 2),
            Bid((third + half) / 2),
        ):
            assert bid in candidates
        assert len(candidates) == 1 + 3 * 4 + 3

    def test_summed_scores_match_full_sequence_scoring(self):
        rng = random.Random(41)
        for n in range(2, 6):
            for k in range(2, n + 1):
                ladder = initial_bids(n, k)
                candidates = oracle_candidates(ladder)
                score = oracle_scores(k, ladder, candidates)
                for _ in range(6):
                    combo = tuple(rng.choice(candidates) for _ in range(n))
                    full = expected_wins_perm(
                        k,
                        BidSequence(combo),
                        ladder.as_sequence(),
                        PermutationMarginals.identity(n),
                        PermutationMarginals.uniform(n),
                    )
                    assert sum(score[b] for b in combo) == full


class TestBestResponse:
    def test_four_two(self):
        response = best_response(4, 2)
        assert response.value == Fraction(9, 4)
        bases = sorted(b.base for b in response.witness)
        assert bases == [0, Fraction(1, 5), Fraction(3, 10), Fraction(2, 5)]
        assert all(b.eps == 1 for b in response.witness)

    def test_three_three(self):
        assert best_response(3, 3).value == Fraction(13, 9)

    def test_two_two_matches_exhaustive(self):
        assert best_response(2, 2).value == Fraction(1)
        assert best_response(2, 2).value == exhaustive_best_value(2, 2)

    @pytest.mark.parametrize(
        "n,k", [(n, k) for n in range(3, 6) for k in range(2, n + 1)]
    )
    def test_small_cases_match_exhaustive_search(self, n, k):
        value, multiset = exhaustive_best(n, k)
        formula = Fraction(initial_bids(n, k).weight_total - 1, n ** (k - 1))
        assert value == formula, f"oracle {value} with {[str(b) for b in multiset]}"
        assert best_response(n, k).value == formula

    @pytest.mark.parametrize("n,k", [(4, 2), (3, 3), (6, 4), (12, 5)])
    def test_witness_is_feasible_and_attains_value(self, n, k):
        response = best_response(n, k)
        seq = response.witness_sequence()
        validate_sequence(seq)
        assert seq.base_total < 1
        value = expected_wins_perm(
            k,
            seq,
            initial_bids(n, k).as_sequence(),
            PermutationMarginals.identity(n),
            PermutationMarginals.uniform(n),
        )
        assert value == response.value

    def test_large_size_is_closed_form(self):
        # the budget-unit DP this replaced needed ~23 GB of bitsets here
        response = best_response(100, 5)
        weight = sum(i**4 for i in range(1, 101))
        assert response.value == Fraction(weight - 1, 100**4)
        seq = response.witness_sequence()
        assert seq.is_feasible and seq.n == 100
        assert seq.base_total == Fraction(weight - 1, weight)
        value = expected_wins_perm(
            5,
            seq,
            initial_bids(100, 5).as_sequence(),
            PermutationMarginals.identity(100),
            PermutationMarginals.uniform(100),
        )
        assert value == response.value

    def test_formula_across_range(self):
        for k in range(2, 6):
            for n in range(k, 13):
                ladder = initial_bids(n, k)
                expected = Fraction(ladder.weight_total - 1, n ** (k - 1))
                assert best_response(n, k).value == expected

    def test_disadvantaged_floor(self):
        # what remains after the best response, split k-1 ways, stays above
        # the guaranteed per-bidder floor
        for k in range(2, 5):
            for n in range(k, 9):
                value = best_response(n, k).value
                floor = Fraction(1, k) * (n - value)
                assert (n - value) / (k - 1) >= floor


class TestUndercut:
    def test_ladder_four_two(self):
        out = undercut_sequence(initial_bids(4, 2).as_sequence())
        assert out.bids == (
            Bid(Fraction(1, 10), -3),
            Bid(Fraction(1, 5), 1),
            Bid(Fraction(3, 10), 1),
            Bid(Fraction(2, 5), 1),
        )
        assert out.base_total == 1 and out.eps_total == 0
        validate_sequence(out)

    def test_value_against_uniform_ladder(self):
        ladder = initial_bids(4, 2).as_sequence()
        value = expected_wins_perm(
            2,
            undercut_sequence(ladder),
            ladder,
            PermutationMarginals.identity(4),
            PermutationMarginals.uniform(4),
        )
        assert value == Fraction(9, 4)

    def test_two_object_case(self):
        ladder = initial_bids(2, 2).as_sequence()
        out = undercut_sequence(ladder)
        assert out.bids == (Bid(Fraction(1, 3), -1), Bid(Fraction(2, 3), 1))
        value = expected_wins_perm(
            2,
            out,
            ladder,
            PermutationMarginals.identity(2),
            PermutationMarginals.uniform(2),
        )
        assert value == Fraction(1)

    def test_zero_lowest_bid_infeasible(self):
        seq = BidSequence.of((Fraction(0), 1), Fraction(1))
        with pytest.raises(Infeasible):
            undercut_sequence(seq)

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            undercut_sequence(BidSequence.of(Fraction(2, 3), Fraction(1, 3)))

    def test_rejects_partial_budget(self):
        with pytest.raises(ValueError):
            undercut_sequence(BidSequence.of(Fraction(1, 3), Fraction(1, 3)))

    @pytest.mark.parametrize("n,k", [(n, k) for k in range(2, 6) for n in range(k, 41)] + [(10**4, 3)])
    def test_closed_form_places_are_the_undercut_and_witness_places(self, n, k):
        # position mode plays the undercut and dp-optimal at these places
        # without building either sequence; the checked ones must land there
        places = position_randomized._adversary_places(n)
        undercut = undercut_sequence(initial_bids(n, k).as_sequence())
        response = best_response(n, k)
        assert places == position_randomized._ladder_places(undercut.bids, n, k)
        assert places == position_randomized._ladder_places(response.witness, n, k)
        assert position_randomized._place_wins(k, n, places) == response.value

    @pytest.mark.parametrize("n,k", [(6, 3), (36, 5), (10**4, 3)])
    def test_unchecked_bids_equal_checked_ones(self, n, k):
        # the witness and the undercut skip Bid's checks; the checked constructor must agree
        ladder = initial_bids(n, k)
        first, *rest = ladder.as_sequence().bids
        witness = best_response(n, k).witness
        undercut = undercut_sequence(ladder.as_sequence())
        checked_witness = (Bid(0, 1),) + tuple(Bid(c, 1) for c in ladder.bids[1:])
        checked_undercut = (Bid(first.base, first.eps - (n - 1)),)
        checked_undercut += tuple(Bid(b.base, b.eps + 1) for b in rest)
        assert witness == checked_witness
        assert BidSequence(witness) == BidSequence(checked_witness)
        assert undercut == BidSequence(checked_undercut)
        assert all(type(b.base) is Fraction and type(b.eps) is int for b in witness + undercut.bids)


@functools.lru_cache
def placements(n):
    return PermutationMarginals.identity(n), PermutationMarginals.uniform(n)


def matrix_wins(k, seq, ladder):
    """The oracle: ``expected_wins_perm`` with identity Q and uniform P."""
    return expected_wins_perm(k, seq, ladder.as_sequence(), *placements(ladder.n))


def grid_sequences(ladder, rng):
    """Undercut, the best-response witness, the ladder itself (every bid an
    exact tie), the ladder one infinitesimal up and down, and mixed
    sequences holding the bare infinitesimal, a bid above the top rank,
    exact ties and +-eps shifts of ladder values and midpoints."""
    n, k = ladder.n, ladder.k
    own = ladder.as_sequence()
    top = ladder.bids[-1]
    yield undercut_sequence(own)
    yield best_response(n, k).witness_sequence()
    yield own
    yield BidSequence(tuple(Bid(c, +1) for c in ladder.bids))
    yield BidSequence(tuple(Bid(c, -1) for c in ladder.bids))
    mids = [(lo + hi) / 2 for lo, hi in zip(ladder.bids, ladder.bids[1:])]
    pool = [Bid(Fraction(0), 1), Bid(top + Fraction(1, 7)), Bid(top, 1)]
    pool += [Bid(c, e) for c in ladder.bids for e in (-(n - 1), -1, 0, 1)]
    pool += [Bid(m, e) for m in mids for e in (-1, 0, 1)]
    edges = (Bid(Fraction(0), 1), Bid(top + Fraction(1, 7)))
    for _ in range(3):
        yield BidSequence(edges + tuple(rng.choice(pool) for _ in range(n - 2)))


class TestPlaceWins:
    def test_matches_matrix_path_on_grid(self):
        rng = random.Random(53)
        for k in range(2, 6):
            for n in range(k, 13):
                ladder = initial_bids(n, k)
                for seq in grid_sequences(ladder, rng):
                    assert _place_wins(k, n, _ladder_places(seq.bids, n, k)) == matrix_wins(k, seq, ladder), (
                        n, k, [str(b) for b in seq.bids]
                    )

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_matrix_path_property(self, data):
        k = data.draw(st.integers(2, 5), label="k")
        n = data.draw(st.integers(k, 12), label="n")
        ladder = initial_bids(n, k)
        mids = [(lo + hi) / 2 for lo, hi in zip(ladder.bids, ladder.bids[1:])]
        bases = [Fraction(0), *ladder.bids, *mids, ladder.bids[-1] + Fraction(1, 3)]
        bid = st.builds(Bid, st.sampled_from(bases), st.integers(-n, n))
        seq = BidSequence(tuple(data.draw(st.lists(bid, min_size=n, max_size=n), label="bids")))
        assert _place_wins(k, n, _ladder_places(seq.bids, n, k)) == matrix_wins(k, seq, ladder)

    def test_scoring_k_may_differ_from_the_ladder_k(self):
        # the ladder places its ranks by lk and a bid scores by k: a
        # scorer that takes both from one of them disagrees here
        for lk in range(2, 5):
            for n in range(lk, 9):
                ladder = initial_bids(n, lk)
                own = ladder.as_sequence()
                for seq in (undercut_sequence(own), best_response(n, lk).witness_sequence(), own):
                    for k in set(range(2, 6)) - {lk}:
                        assert _place_wins(k, n, _ladder_places(seq.bids, n, lk)) == matrix_wins(k, seq, ladder), (
                            n, lk, k
                        )

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(st.data())
    def test_matches_matrix_path_where_rounding_decides(self, data):
        # bases one unit of 1/(W*D) either side of each ladder amount put pW/q
        # just off (D > 1) or on (D = 1) a weight, past the sizes position_suite checks
        n, k = data.draw(st.sampled_from([(30, 5), (50, 2), (60, 3)]), label="n, k")
        ladder = initial_bids(n, k)
        unit = Fraction(1, ladder.weight_total * data.draw(st.integers(1, 7), label="D"))
        bases = [Fraction(0), ladder.bids[-1] + unit]
        bases += [c + d for c in ladder.bids for d in (-unit, 0, unit)]
        bid = st.builds(Bid, st.sampled_from(bases), st.integers(-n, n))
        # zero bids, which win nothing, fill the rest: a failure shrinks to one bid
        bids = data.draw(st.lists(bid, min_size=1, max_size=n), label="bids")
        seq = BidSequence(tuple(bids) + (Bid(0),) * (n - len(bids)))
        assert _place_wins(k, n, _ladder_places(seq.bids, n, k)) == matrix_wins(k, seq, ladder)


def oracle_best_response(c, k):
    """The adversary's best expected wins when each of k - 1 bidders places
    the sorted positive sequence c on the objects uniformly at random.

    Each object gets one of 3n + 1 candidate bids: the bare +eps, or c_i +
    eps, c_i or c_i - n*eps; any other bid wins no more for as much budget.
    A bid beating B of the n amounts and tying T of them wins with chance
    ((B + T)**k - B**k) / (k * T * n**(k-1)), or (B/n)**(k-1) when T = 0.
    A knapsack over the objects keeps the best total for each base cost and
    eps class: all exact, some +eps and no -n*eps, or some -n*eps, which
    alone makes the net eps negative.  A multiset is feasible when its
    base total is under 1, or exactly 1 with a net eps of at most 0."""
    n = len(c)
    unit = lcm(*(x.denominator for x in c))
    scale = k * n ** (k - 1) * lcm(*range(1, n + 1))  # every bid's chance is an integer over it

    def win(base, eps):
        beat = sum(x < base or (x == base and eps > 0) for x in c)
        tie = sum(x == base for x in c) if eps == 0 else 0
        if not tie:
            return scale // n ** (k - 1) * beat ** (k - 1)
        return scale // (k * tie * n ** (k - 1)) * ((beat + tie) ** k - beat**k)

    # (base cost in units, eps class 0 exact / 1 plus / 2 minus) -> best chance
    candidates = {}
    for base, eps, kind in [(Fraction(0), 1, 1)] + [(x, e, t) for x in c for e, t in ((1, 1), (0, 0), (-n, 2))]:
        key = (base.numerator * (unit // base.denominator), kind)
        candidates[key] = max(candidates.get(key, 0), win(base, eps))
    best = {(0, 0): 0}
    for _ in range(n):
        nxt = {}
        for (spent, kind), total in best.items():
            for (cost, bid_kind), value in candidates.items():
                key = (spent + cost, max(kind, bid_kind))
                if key[0] <= unit and nxt.get(key, -1) < total + value:
                    nxt[key] = total + value
        best = nxt
    return Fraction(max(total for (spent, kind), total in best.items() if spent < unit or kind != 1), scale)


def grid_partitions(n, units, least=1):
    """Every nondecreasing n-tuple of positive integers at least ``least`` totalling ``units``."""
    if n == 1:
        yield from [(units,)] if units >= least else []
        return
    for first in range(least, units // n + 1):
        for rest in grid_partitions(n - 1, units - first, first):
            yield (first,) + rest


def power_ladder(n, exponent):
    weights = [i**exponent for i in range(1, n + 1)]
    return [Fraction(w, sum(weights)) for w in weights]


# (n, k) -> grid 1/G holding the ladder
OPTIMALITY_GRIDS = {(3, 2): 30, (4, 2): 30, (4, 3): 30, (5, 2): 15, (3, 3): 28}


@pytest.fixture(scope="module")
def grid_minimum():
    """The least best-response value over every sorted sequence on each size's grid."""
    return {
        (n, k): min(oracle_best_response([Fraction(a, g) for a in s], k) for s in grid_partitions(n, g))
        for (n, k), g in OPTIMALITY_GRIDS.items()
    }


class TestLadderOptimality:
    @pytest.mark.parametrize("n,k", [(2, 2), (3, 2), (4, 2), (5, 2), (3, 3), (4, 3)])
    def test_oracle_equals_best_response_at_the_ladder(self, n, k):
        assert oracle_best_response(initial_bids(n, k).bids, k) == best_response(n, k).value

    def test_oracle_by_hand(self):
        # against [1/4, 1/4, 1/2]: 1/2 + eps, 1/4 + eps and the bare +eps win
        # 1 + 2/3 + 0 for 3/4; the three exact amounts win 5/6 + 1/3 + 1/3
        # by the tie split; 1/2 - 3eps and two 1/4 + eps spend exactly 1 at
        # net -eps and win 2/3 + 2/3 + 2/3, the best
        c = [Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)]
        assert oracle_best_response(c, 2) == 2
        # two opponents: 1/3 + eps wins outright where an exact 1/3 wins a
        # third, so two of them and the bare +eps win 2 for 2/3
        assert oracle_best_response([Fraction(1, 3)] * 3, 3) == 2

    @pytest.mark.parametrize("n,k", sorted(OPTIMALITY_GRIDS))
    def test_no_grid_sequence_beats_the_ladder(self, n, k, grid_minimum):
        assert grid_minimum[n, k] == oracle_best_response(initial_bids(n, k).bids, k)

    @pytest.mark.parametrize("n,k", [(3, 2), (4, 2), (4, 3), (5, 2)])
    def test_ladder_exponent_mutants_lose(self, n, k, grid_minimum):
        # a ladder of the wrong exponent, or uniform, lets the adversary win
        # more than against some grid sequence, so the test above would catch it
        for exponent in (k - 2, k, 0):
            assert oracle_best_response(power_ladder(n, exponent), k) > grid_minimum[n, k], exponent


@pytest.mark.parametrize("bids,message", [
    ((1,), "^need at least two bids$"),
    ((Fraction(3, 4), Fraction(1, 4)), "^bids must be sorted ascending$"),
    ((Fraction(1, 4), Fraction(1, 2)), "^bids must total exactly 1, got 3/4$"),
], ids=["one-bid", "unsorted", "under-budget"])
def test_undercut_sequence_input_errors(bids, message):
    with pytest.raises(DomainError, match=message) as raised:
        undercut_sequence(BidSequence(bids))
    assert type(raised.value) is DomainError
