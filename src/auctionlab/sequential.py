"""Round-by-round auctions with budget depletion.

Objects are sold one per round to the highest sealed bid; the winner pays
his bid from his remaining budget.  A run walks the tree of histories: the
exact mode (deterministic strategies) follows every tie branch, splitting a
branch's probability evenly among the tied winners, and the sampled mode
follows one branch, drawing each tie's winner from a seeded generator.  A
bidder may pass (distinct from the forbidden zero bid); an object every
bidder passes on goes unsold.

The library strategies (``steady_strategy``, ``scripted_strategy`` and
``pass_strategy``) are Markov: their bid depends only on the round, the
budgets and the win counts.  When every strategy of a run is Markov, their
``RoundView.history`` is empty, and states that reach the same budgets and
win counts by different histories merge: the exact mode sums their
probabilities, and the sampled trials of one call share a cached transition
graph.  Any other callable gets the full history, and its run keeps one
state per history.
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
    the history of winners and prices.  The history is complete for custom
    callables and empty when every strategy of the run is a library (Markov)
    strategy, whose bids never read it."""

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

# Most states one exact round may hold, and most nodes the sampled mode's
# transition graph caches.  Markov runs merge states on (budgets, wins):
# all-steady (24,2), (12,3) and (60,3) peak at 13, 19 and 331 states.  A
# custom callable keeps one state per history, so the count grows with every
# tie: all-steady (18,2) and (12,3) peak at 48,620 and 34,650 states there,
# (20,2) at 184,756.
MAX_STATES = 50_000


def _markov(strategy: Strategy) -> Strategy:
    """Mark a strategy whose bid never reads ``RoundView.history``.  The
    mark lives in the function's ``__dict__``, which ``functools.wraps``
    copies onto wrappers."""
    strategy._markov = True
    return strategy


def steady_strategy(n: int, k: int) -> Strategy:
    """Bid k/n every round while the budget allows, then pass.

    For k | n this guarantees at least n/k objects against any opponents.
    """
    if n < k or n % k:
        raise NotMultiple(f"{k} bidders do not divide {n} objects into positive shares")
    amount = Fraction(k, n)

    @_markov
    def strategy(view: RoundView) -> Optional[Fraction]:
        return amount if view.budget >= amount else None

    return strategy


def scripted_strategy(amounts: Sequence) -> Strategy:
    """Bid a fixed per-round amount, passing when the script runs out, says
    0/None, or the remaining budget cannot cover the amount."""
    script = [None if a in (None, 0) else as_fraction(a) for a in amounts]

    @_markov
    def strategy(view: RoundView) -> Optional[Fraction]:
        i = view.round_index - 1
        if i >= len(script):
            return None
        amount = script[i]
        if amount is None or amount <= 0 or amount > view.budget:
            return None
        return amount

    return strategy


@_markov
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


def _round(strategies, round_index, n, budgets, wins, history):
    """One round from one state: ``(top, winners, children)``.

    ``winners`` are the tied top bidders and ``children`` the (budgets,
    wins) each one's win leads to.  When every bidder passes, the object
    goes unsold: ``top`` is None, ``winners`` is ``(None,)`` and the state
    itself is the only child.
    """
    top, winners = None, (None,)
    for b, amount in enumerate(_collect_bids(strategies, round_index, n, budgets, wins, history)):
        if amount is None:
            continue
        if top is None or amount > top:
            top, winners = amount, (b,)
        elif amount == top:
            winners += (b,)
    if top is None:
        return None, winners, ((budgets, wins),)
    children = tuple(
        (
            budgets[:w] + (budgets[w] - top,) + budgets[w + 1:],
            wins[:w] + (wins[w] + 1,) + wins[w + 1:],
        )
        for w in winners
    )
    return top, winners, children


def _is_markov(strategies: Sequence[Strategy]) -> bool:
    return all(getattr(s, "_markov", False) for s in strategies)


def _too_many(round_index: int) -> SizeLimitExceeded:
    return SizeLimitExceeded(f"exact round {round_index} exceeds {MAX_STATES} states")


def _run_exact(strategies, n: int, k: int) -> tuple[Fraction, ...]:
    markov = _is_markov(strategies)
    # (budgets, wins, history, probability); Markov states keep no history
    states = [((Fraction(1),) * k, (0,) * k, (), Fraction(1))]
    for round_index in range(1, n + 1):
        nxt = []
        for budgets, wins, history, prob in states:
            top, winners, children = _round(strategies, round_index, n, budgets, wins, history)
            share = prob if len(winners) == 1 else prob / len(winners)
            for w, (child_budgets, child_wins) in zip(winners, children):
                child_history = history if markov else history + (RoundResult(w, top),)
                nxt.append((child_budgets, child_wins, child_history, share))
            if not markov and len(nxt) > MAX_STATES:
                raise _too_many(round_index)
        # merge after a round that branched, where shared keys are common;
        # elsewhere hashing the Fraction keys costs more than it saves, and a
        # key two states still share only means one more state to walk
        if markov and len(nxt) > len(states):
            merged: dict = {}
            for budgets, wins, _, prob in nxt:
                key = (budgets, wins)
                merged[key] = merged[key] + prob if key in merged else prob
            if len(merged) > MAX_STATES:
                raise _too_many(round_index)
            nxt = [(budgets, wins, (), prob) for (budgets, wins), prob in merged.items()]
        states = nxt

    expected = [Fraction(0)] * k
    for _, wins, _, prob in states:
        for b in range(k):
            expected[b] += prob * wins[b]
    return tuple(expected)


class _Node:
    """A sampled-walk state; ``step`` caches its ``_round`` with child nodes."""

    __slots__ = ("budgets", "wins", "step")

    def __init__(self, budgets, wins):
        self.budgets, self.wins, self.step = budgets, wins, None


def _sample_wins(strategies, n: int, k: int, seeds) -> list[tuple[int, ...]]:
    """One trajectory's integer win counts per seed (any numpy seed
    material); each trial draws its tie winners from its own generator.

    Markov profiles share one lazily built transition graph across the
    trials, node -> (top, tied winners, child nodes), keyed on the round,
    budgets and wins.  Past ``MAX_STATES`` nodes the graph stops growing and
    further steps are computed uncached.  Other profiles compute every step
    along the trial's own history.  Either way each round with a live bid
    draws ``gen.integers(len(winners))`` once, so the draws do not depend on
    the caching.
    """
    markov = _is_markov(strategies)
    root = _Node((Fraction(1),) * k, (0,) * k)
    nodes: dict = {}
    out = []
    for seed in seeds:
        gen = np.random.default_rng(seed)
        node, history = root, ()
        for round_index in range(1, n + 1):
            step = node.step
            if step is None:
                top, winners, children = _round(
                    strategies, round_index, n, node.budgets, node.wins, history
                )
                cache = markov and len(nodes) < MAX_STATES
                children = tuple(
                    nodes.setdefault((round_index, *child), _Node(*child))
                    if cache else _Node(*child)
                    for child in children
                )
                step = (top, winners, children)
                if cache:
                    node.step = step
            top, winners, children = step
            i = 0 if top is None else int(gen.integers(len(winners)))
            if not markov:
                history += (RoundResult(winners[i], top),)
            node = children[i]
        out.append(node.wins)
    return out


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
    than ``MAX_STATES`` states raises SizeLimitExceeded.
    mode="sample" returns one trajectory's integer win counts, ties resolved
    by a generator seeded with ``seed`` (any numpy seed material).
    """
    if len(strategies) != k:
        raise ValueError(f"expected {k} strategies, got {len(strategies)}")
    if mode == "exact":
        return _run_exact(strategies, n, k)
    if mode == "sample":
        return _sample_wins(strategies, n, k, [seed])[0]
    raise ValueError(f"unknown mode {mode!r}")
