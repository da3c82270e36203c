"""Position-randomized bidding: a deterministic initial bid list followed by
a random permutation assigning bids to objects.

Everything in this module is exact rational arithmetic; no floats enter any
game value.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral
from typing import Iterable

from .engine import MAX_VALUE_DIGITS, Bid, BidSequence
from .errors import DomainError, Infeasible, LengthMismatch, NotDoublyStochastic, SizeLimitExceeded


@dataclass(frozen=True)
class InitialBids:
    """The rank-power ladder: bid i is i**(k-1) / weight_total, where
    weight_total sums i**(k-1) over i = 1..n.  Strictly increasing, strictly
    positive, and totalling exactly 1."""

    n: int
    k: int
    weight_total: int
    bids: tuple[Fraction, ...]

    def as_sequence(self) -> BidSequence:
        return BidSequence(tuple(Bid(b) for b in self.bids))


# Most digits a ladder may hold, counted as n ranks of k * log10(n) digits
# each; (10**6, 3) holds 1.8e7.  It bounds ``initial_bids`` and
# ``best_response``, which build one Fraction or Bid per rank; position
# mode plays the library adversaries with neither, at the same sizes.
MAX_LADDER_DIGITS = 20_000_000


def check_ladder(n: int, k: int) -> None:
    """Refuse, before any work, a ladder too long to hold or to print."""
    # weight_total, the ladder's largest integer, is below n**k; k is
    # compared before it multiplies, as k * log10(n) may overflow a float
    power = math.log10(n)
    bidders = k if k < 10**6 else f"10^{math.log10(k):.1f}"
    ladder = f"n = 10^{power:.1f}, k = {bidders} ladder"
    if k >= MAX_VALUE_DIGITS / power:
        raise SizeLimitExceeded(
            f"the exact values of the {ladder} run to about 10^{math.log10(k) + math.log10(power):.1f} "
            f"digits, past the {MAX_VALUE_DIGITS:,} that can be printed"
        )
    if n > MAX_LADDER_DIGITS / (k * power):
        raise SizeLimitExceeded(
            f"the {ladder} holds about 10^{power + math.log10(k * power):.1f} digits, "
            f"past the ladder limit of {MAX_LADDER_DIGITS:,}"
        )


def initial_bids(n: int, k: int) -> InitialBids:
    """Optimal initial sequence within the position-randomized class."""
    if k < 2 or n < k:
        raise DomainError("need n >= k >= 2")
    check_ladder(n, k)
    weights = [i ** (k - 1) for i in range(1, n + 1)]
    total = sum(weights)
    return InitialBids(n, k, total, tuple(Fraction(w, total) for w in weights))


class PermutationMarginals:
    """Doubly stochastic placement probabilities: entry (q, r) is the chance
    that initial bid q lands on object r.  Expected wins depend on the
    permutation distribution only through these marginals, because objects
    are scored independently and bidders permute independently."""

    def __init__(self, rows: Iterable[Iterable]):
        mat = tuple(tuple(Fraction(v) for v in row) for row in rows)
        n = len(mat)
        if n == 0 or any(len(row) != n for row in mat):
            raise LengthMismatch("placement matrix must be square")
        # every entry as an integer numerator over one unit, the lcm of the denominators
        unit = math.lcm(*(v.denominator for row in mat for v in row))
        nums = [[v.numerator * (unit // v.denominator) for v in row] for row in mat]
        for row in nums:
            if any(v < 0 for v in row):
                raise NotDoublyStochastic("entries must be nonnegative")
            if sum(row) != unit:
                raise NotDoublyStochastic(f"row sums to {Fraction(sum(row), unit)}, not 1")
        self._columns = tuple(zip(*nums))
        for c, col in enumerate(self._columns):
            if sum(col) != unit:
                raise NotDoublyStochastic(f"column {c} sums to {Fraction(sum(col), unit)}, not 1")
        self.rows = mat
        self.n = n
        self._unit = unit

    def __getitem__(self, qr) -> Fraction:
        q, r = qr
        return self.rows[q][r]

    def __eq__(self, other) -> bool:
        return isinstance(other, PermutationMarginals) and self.rows == other.rows

    def column(self, r: int) -> tuple[Fraction, ...]:
        return tuple(row[r] for row in self.rows)

    @classmethod
    def identity(cls, n: int) -> "PermutationMarginals":
        return cls([[int(i == j) for j in range(n)] for i in range(n)])

    @classmethod
    def uniform(cls, n: int) -> "PermutationMarginals":
        return cls([[Fraction(1, n)] * n for _ in range(n)])


def rank_win_expectation(n: int, k: int, p: int) -> Fraction:
    """Expected objects won by one bid placed at ladder rank p, when each of
    the k-1 disadvantaged bidders places a uniformly random ladder rank on
    the same object.

    Summing over the number of opponents tying at rank p,

        sum_{i=0}^{k-1} 1/(i+1) * C(k-1, i) * (1/n)**i * ((p-1)/n)**(k-1-i),

    telescopes to (p**k - (p-1)**k) / (k * n**(k-1)): the score of a bid
    tying rank p, at place 2p.
    """
    if not 1 <= p <= n:
        raise DomainError(f"rank {p} outside 1..{n}")
    return _place_wins(k, n, (2 * p,))


def expected_wins_perm(
    k: int,
    a_init: BidSequence,
    b_init: BidSequence,
    q_marginals: PermutationMarginals,
    p_marginals: PermutationMarginals,
) -> Fraction:
    """Adversary's exact expected wins when he places his initial bids with
    marginals Q while each of the k-1 disadvantaged bidders independently
    places the common ``b_init`` with marginals P.

    Q = identity means no permutation; uniform marginals recover the fully
    random placement on either side.  A bid at q placed on object r wins
    with chance sum_i C(k-1, i) / (i+1) * tie**i * beat**(k-1-i), beat and
    tie the P mass of column r on opponent bids below and equal to it.  The
    sums run on integers: bids as (base numerator over one unit, eps)
    pairs, P and Q entries as their numerators, so the total is one integer
    over unit_Q * unit_P**(k-1) * lcm(1..k).
    """
    if not isinstance(k, Integral) or k < 2:
        raise DomainError(f"need an integer k >= 2 bidders, got {k!r}")
    n = a_init.n
    if b_init.n != n or q_marginals.n != n or p_marginals.n != n:
        raise LengthMismatch("bid sequences and matrices must share size n")
    unit = math.lcm(*(b.base.denominator for b in a_init.bids + b_init.bids))
    mine, theirs = (
        [(b.base.numerator * (unit // b.base.denominator), b.eps) for b in seq.bids]
        for seq in (a_init, b_init)
    )
    m, ties = k - 1, math.lcm(*range(1, k + 1))
    coefficients = [math.comb(m, i) * (ties // (i + 1)) for i in range(k)]
    total = 0
    for q_col, col in zip(q_marginals._columns, p_marginals._columns):
        for weight, bid in zip(q_col, mine):
            if weight:
                beat = sum(c for b, c in zip(theirs, col) if b < bid)
                tie = sum(c for b, c in zip(theirs, col) if b == bid)
                total += weight * sum(c * tie**i * beat ** (m - i) for i, c in enumerate(coefficients))
    return Fraction(total, q_marginals._unit * p_marginals._unit**m * ties)


def _ladder_places(bids: Iterable[Bid], n: int, k: int) -> list[int]:
    """Each bid's place among the ranks w_i / W of the (n, k) ladder, w_i =
    i**(k - 1): 2i if it ties rank i, 2i + 1 if it beats ranks 1..i and no
    more.  A bid p/q beats the ranks with w_i <= floor(pW/q) if eps > 0, else
    those with w_i < ceil(pW/q), and ties the next iff eps = 0 and it is pW/q."""
    weights = [i ** (k - 1) for i in range(1, n + 1)]
    total = sum(weights)
    places = []
    for bid in bids:
        p, q = bid.base.as_integer_ratio()
        whole, rest = divmod(p * total, q)
        below = bisect_right(weights, whole) if bid.eps > 0 else bisect_left(weights, whole + (rest > 0))
        tie = bid.eps == 0 and not rest and below < n and weights[below] == whole
        places.append(2 * below + 1 + tie)
    return places


def _adversary_places(n: int) -> list[int]:
    """``_ladder_places`` of the undercut and of the best-response witness
    alike: below rank 1, then one eps over ranks 2..n."""
    return [1, *range(5, 2 * n + 2, 2)]


def _place_wins(k: int, n: int, places: Iterable[int]) -> Fraction:
    """Expected wins of bids at ``_ladder_places`` against k - 1 uniformly
    permuted n-rank ladders: one beating i ranks wins k * i**(k-1) units of
    1/(k * n**(k-1)), and one tying rank i wins i**k - (i-1)**k."""
    total = 0
    for place in places:
        rank, beats = divmod(place, 2)
        total += k * rank ** (k - 1) if beats else rank**k - (rank - 1) ** k
    return Fraction(total, k * n ** (k - 1))


@dataclass(frozen=True)
class BestResponse:
    """Exact adversary optimum and a bid multiset attaining it."""

    n: int
    k: int
    value: Fraction
    witness: tuple[Bid, ...]

    def witness_sequence(self) -> BidSequence:
        return BidSequence(self.witness)


def best_response(n: int, k: int) -> BestResponse:
    """Exact best response to the ladder under uniform permutation.

    A bid one infinitesimal above rank i costs i**(k-1) units of
    1/weight_total and wins i**(k-1) units of 1/n**(k-1); exact ties,
    negative shifts and off-ladder amounts win less than they cost, and the
    bare infinitesimal costs and wins nothing.  With every bid at +eps the
    strict budget admits at most weight_total - 1 units, which the bare
    infinitesimal plus ranks 2..n spend exactly, so the optimum is
    (weight_total - 1) / n**(k-1).
    """
    ladder = initial_bids(n, k)
    witness = (Bid._unchecked(Fraction(0), +1),) + tuple(Bid._unchecked(c, +1) for c in ladder.bids[1:])
    value = Fraction(ladder.weight_total - 1, n ** (k - 1))
    return BestResponse(n=n, k=k, value=value, witness=witness)


def undercut_sequence(b_sorted: BidSequence) -> BidSequence:
    """Shift the lowest bid down by n-1 infinitesimals and every other bid
    up by one: beats each higher bid at zero extra budget while keeping the
    sequence exactly feasible (net infinitesimal zero).
    """
    bids = b_sorted.bids
    n = len(bids)
    if n < 2:
        raise DomainError("need at least two bids")
    if any(bids[i] > bids[i + 1] for i in range(n - 1)):
        raise DomainError("bids must be sorted ascending")
    if b_sorted.base_total != 1:
        raise DomainError(f"bids must total exactly 1, got {b_sorted.base_total}")
    first = bids[0]
    if first.base == 0:
        raise Infeasible("cannot undercut a zero-amount lowest bid")
    rest = tuple(Bid._unchecked(b.base, b.eps + 1) for b in bids[1:])
    return BidSequence((Bid._unchecked(first.base, first.eps - (n - 1)),) + rest)
