"""Round-by-round auctions with budget depletion.

Objects are sold one per round to the highest sealed bid; the winner pays
his bid from his remaining budget.  A run walks the tree of histories: the
exact mode (deterministic strategies) follows every tie branch, splitting a
branch's probability evenly among the tied winners, and the sampled mode
follows one branch, drawing each tie's winner from a seeded generator.  A
bidder may pass (distinct from the forbidden zero bid); an object every
bidder passes on goes unsold.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .engine import as_fraction
from .errors import NotMultiple, OverBudget, SizeLimitExceeded, ZeroBid


@dataclass(frozen=True)
class RoundResult:
    """Public record of one round: who won and what he paid (None = unsold)."""

    winner: Optional[int]
    price: Optional[Fraction]


@dataclass(frozen=True)
class RoundView:
    """Everything a strategy may look at when asked for a bid: the round
    number, own identity and budget, all public budgets and win counts, and
    the full history of winners and prices."""

    round_index: int
    n: int
    k: int
    bidder: int
    budgets: tuple[Fraction, ...]
    wins: tuple[int, ...]
    history: tuple[RoundResult, ...]

    @property
    def budget(self) -> Fraction:
        return self.budgets[self.bidder]


Strategy = Callable[[RoundView], Optional[Fraction]]

# Most states one exact round may hold.  A state is one distinct history, so
# the count grows with every tie: all-steady (18,2) and (12,3) peak at 48,620
# and 34,650 states, (20,2) at 184,756.
MAX_STATES = 50_000


def steady_strategy(n: int, k: int) -> Strategy:
    """Bid k/n every round while the budget allows, then pass.

    For k | n this guarantees at least n/k objects against any opponents.
    """
    if n % k:
        raise NotMultiple(f"{k} bidders do not divide {n} objects")
    amount = Fraction(k, n)

    def strategy(view: RoundView) -> Optional[Fraction]:
        return amount if view.budget >= amount else None

    return strategy


def scripted_strategy(amounts: Sequence) -> Strategy:
    """Bid a fixed per-round amount, passing when the script runs out, says
    0/None, or the remaining budget cannot cover the amount."""
    script = [None if a in (None, 0) else as_fraction(a) for a in amounts]

    def strategy(view: RoundView) -> Optional[Fraction]:
        i = view.round_index - 1
        if i >= len(script):
            return None
        amount = script[i]
        if amount is None or amount <= 0 or amount > view.budget:
            return None
        return amount

    return strategy


def pass_strategy(view: RoundView) -> Optional[Fraction]:
    """Never bids."""
    return None


def _collect_bids(
    strategies: Sequence[Strategy],
    round_index: int,
    n: int,
    budgets: tuple[Fraction, ...],
    wins: tuple[int, ...],
    history: tuple[RoundResult, ...],
) -> list[Optional[Fraction]]:
    k = len(strategies)
    bids: list[Optional[Fraction]] = []
    for b, strategy in enumerate(strategies):
        view = RoundView(round_index, n, k, b, budgets, wins, history)
        amount = strategy(view)
        if amount is not None:
            amount = as_fraction(amount)
            if amount <= 0:
                raise ZeroBid(f"bidder {b} bid {amount}; strategies must pass instead")
            if amount > budgets[b]:
                raise OverBudget(f"bidder {b} bid {amount} over budget {budgets[b]}")
        bids.append(amount)
    return bids


def run_sequential(
    strategies: Sequence[Strategy],
    n: int,
    k: int,
    seed=0,
    mode: str = "exact",
):
    """Auction n objects sequentially among k strategies.

    mode="exact" (deterministic strategies only) returns per-bidder expected
    wins as Fractions over every tie branch; a round that would hold more
    than ``MAX_STATES`` histories raises SizeLimitExceeded.
    mode="sample" returns one trajectory's integer win counts, ties resolved
    by a generator seeded with ``seed`` (any numpy seed material).
    """
    if len(strategies) != k:
        raise ValueError(f"expected {k} strategies, got {len(strategies)}")
    if mode not in ("exact", "sample"):
        raise ValueError(f"unknown mode {mode!r}")
    gen = np.random.default_rng(seed) if mode == "sample" else None

    # (budgets, wins, history, probability of this history)
    states = [((Fraction(1),) * k, (0,) * k, (), Fraction(1))]
    for round_index in range(1, n + 1):
        nxt = []
        for budgets, wins, history, prob in states:
            bids = _collect_bids(strategies, round_index, n, budgets, wins, history)
            live = [(b, a) for b, a in enumerate(bids) if a is not None]
            if not live:
                nxt.append((budgets, wins, history + (RoundResult(None, None),), prob))
                continue
            top = max(a for _, a in live)
            winners = [b for b, a in live if a == top]
            if gen is not None:
                winners = [winners[int(gen.integers(len(winners)))]]
            share = prob if len(winners) == 1 else prob / len(winners)
            for w in winners:
                nxt.append((
                    tuple(v - top if b == w else v for b, v in enumerate(budgets)),
                    tuple(c + 1 if b == w else c for b, c in enumerate(wins)),
                    history + (RoundResult(w, top),),
                    share,
                ))
            if len(nxt) > MAX_STATES:
                raise SizeLimitExceeded(f"exact round {round_index} exceeds {MAX_STATES} states")
        states = nxt

    if gen is not None:
        return states[0][1]
    expected = [Fraction(0)] * k
    for _, wins, _, prob in states:
        for b in range(k):
            expected[b] += prob * wins[b]
    return tuple(expected)
