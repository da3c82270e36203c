import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from auctionlab import (
    AdversaryPlan,
    Bid,
    BidSequence,
    DomainError,
    LengthMismatch,
    OverBudget,
    Scenario,
    ZeroBid,
    as_fraction,
    compare_bids,
    estimate,
    resolve,
    scripted_strategy,
    validate_sequence,
)


class TestCompareBids:
    def test_eps_breaks_tie(self):
        assert compare_bids(Bid(Fraction(3, 10), 1), Bid(Fraction(3, 10), 0)) == 1

    def test_equal(self):
        assert compare_bids(Bid(Fraction(3, 10)), Bid(Fraction(3, 10))) == 0

    def test_base_dominates_eps(self):
        assert compare_bids(Bid(Fraction(1, 5), 5), Bid(Fraction(3, 10), -5)) == -1

    def test_rich_comparisons_match(self):
        a, b = Bid(Fraction(1, 4), 2), Bid(Fraction(1, 4), 3)
        assert a < b and b > a and a != b


class TestBid:
    def test_float_embeds_exactly(self):
        assert Bid(0.3).base == Fraction(0.3)
        assert Bid(0.3).base != Fraction(3, 10)

    def test_negative_base_rejected(self):
        with pytest.raises(ValueError):
            Bid(Fraction(-1, 2))

    @pytest.mark.parametrize(
        "build, amount",
        [
            *itertools.product(
                [as_fraction, Bid, lambda a: scripted_strategy([a]), lambda a: AdversaryPlan.fixed([a])],
                ["x", "1/0", math.nan, math.inf, -math.inf],
            ),
            # a NaN script amount is refused when its AdversaryPlan is made
            (lambda a: estimate(Scenario("sequential", 2, 2, AdversaryPlan("fixed", (a, 0)), 10)), math.nan),
        ],
    )
    def test_malformed_amount_is_a_domain_error(self, build, amount):
        # these once escaped as Fraction's ValueError, ZeroDivisionError or
        # OverflowError, which the CLI reports as bugs
        with pytest.raises(DomainError, match="not a finite exact amount"):
            build(amount)

    def test_positivity(self):
        assert Bid(Fraction(1, 3)).is_positive
        assert Bid(Fraction(0), 1).is_positive
        assert not Bid(Fraction(0)).is_positive
        assert not Bid(Fraction(0), -2).is_positive


class TestValidateSequence:
    def test_under_budget_is_feasible(self):
        seq = BidSequence.of(Fraction(3, 10), Fraction(3, 10), Fraction(3, 10))
        validate_sequence(seq)
        assert seq.is_feasible

    def test_budget_with_positive_eps_over(self):
        seq = BidSequence.of((Fraction(1, 2), 1), (Fraction(1, 2), 1))
        with pytest.raises(OverBudget):
            validate_sequence(seq)

    def test_zero_bid_rejected(self):
        with pytest.raises(ZeroBid):
            validate_sequence(BidSequence.of(0, Fraction(1)))

    def test_budget_with_nonpositive_eps_feasible(self):
        seq = BidSequence.of((Fraction(1, 2), -1), (Fraction(1, 2), 1))
        validate_sequence(seq)

    def test_zero_reported_before_budget(self):
        seq = BidSequence.of(0, Fraction(2))
        with pytest.raises(ZeroBid):
            validate_sequence(seq)


class TestResolve:
    def test_three_way_with_tie(self):
        out = resolve([BidSequence.of(0.5), BidSequence.of(0.5), BidSequence.of(0.2)])
        assert out.expected_wins == (Fraction(1, 2), Fraction(1, 2), Fraction(0))

    def test_full_symmetry(self):
        a = BidSequence.of(0.5, 0.5)
        out = resolve([a, a])
        assert out.expected_wins == (Fraction(1), Fraction(1))

    def test_eps_decides_objects(self):
        a = BidSequence.of((0.3, 1), (0.7, -1))
        b = BidSequence.of(0.3, 0.7)
        assert resolve([a, b]).expected_wins == (Fraction(1), Fraction(1))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            resolve([BidSequence.of(0.5, 0.5), BidSequence.of(1.0)])

    def test_empty_profiles(self):
        with pytest.raises(ValueError):
            resolve([])


def random_sequence(rng, n):
    return BidSequence(
        tuple(
            Bid(Fraction(rng.randint(1, 24), 24), rng.randint(-2, 2))
            for _ in range(n)
        )
    )


class TestResolveProperties:
    def test_zero_sum_accounting(self):
        rng = random.Random(11)
        for _ in range(200):
            n, k = rng.randint(1, 6), rng.randint(2, 5)
            profiles = [random_sequence(rng, n) for _ in range(k)]
            out = resolve(profiles)
            assert out.total == n
            assert all(w >= 0 for w in out.expected_wins)

    def test_permutation_equivariance(self):
        rng = random.Random(13)
        for _ in range(100):
            n, k = rng.randint(1, 5), rng.randint(2, 5)
            profiles = [random_sequence(rng, n) for _ in range(k)]
            base = resolve(profiles).expected_wins
            perm = list(range(k))
            rng.shuffle(perm)
            shuffled = resolve([profiles[p] for p in perm]).expected_wins
            assert shuffled == tuple(base[p] for p in perm)

    def test_raising_a_bid_never_hurts(self):
        rng = random.Random(17)
        for _ in range(200):
            n, k = rng.randint(1, 5), rng.randint(2, 4)
            profiles = [random_sequence(rng, n) for _ in range(k)]
            bidder, obj = rng.randrange(k), rng.randrange(n)
            before = resolve(profiles).expected_wins[bidder]
            old = profiles[bidder].bids[obj]
            if rng.random() < 0.5:
                raised = Bid(old.base, old.eps + rng.randint(1, 3))
            else:
                raised = Bid(old.base + Fraction(1, 48), old.eps - rng.randint(0, 2))
            assert raised > old
            bids = list(profiles[bidder].bids)
            bids[obj] = raised
            profiles[bidder] = BidSequence(tuple(bids))
            after = resolve(profiles).expected_wins[bidder]
            assert after >= before


class TestBidEpsStrictness:
    def test_integer_like_eps_accepted(self):
        import numpy as np

        assert Bid(Fraction(1, 2), np.int64(3)).eps == 3

    def test_fractional_eps_rejected(self):
        with pytest.raises(TypeError):
            Bid(Fraction(1, 2), 1.5)


@pytest.mark.parametrize("value", [[1], None, (1, 2), object()], ids=["list", "none", "tuple", "object"])
def test_as_fraction_refuses_non_amounts(value):
    with pytest.raises(TypeError, match="^cannot interpret .* as an exact amount$"):
        as_fraction(value)


class TestDecimalExponent:
    @pytest.mark.parametrize("text", ["1e-4301", "1e4301", "1E+4_301", "2.5e-10000000", " 1e-99999999 "])
    def test_exponent_past_the_digit_limit_is_refused_before_it_is_built(self, text):
        # Fraction("1e-10000000") once spent about 10 s building 10**(10**7) before failing
        start = time.perf_counter()
        with pytest.raises(DomainError, match="decimal exponent past 4,300"):
            as_fraction(text)
        assert time.perf_counter() - start < 0.1

    def test_exponents_up_to_the_limit_are_kept(self):
        assert as_fraction("1e-4000") == Fraction(1, 10**4000)
        assert as_fraction("-3.5E4300") == -35 * 10**4299
        assert as_fraction("1e-4_300") == Fraction(1, 10**4300)
        with pytest.raises(DomainError, match="not a finite exact amount"):
            as_fraction("12e")

    def test_exponent_too_long_to_read_is_malformed(self):
        with pytest.raises(DomainError, match="not a finite exact amount"):
            as_fraction("1e-" + "9" * 5000)
