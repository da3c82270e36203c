"""Round-by-round auctions with budget depletion.

Objects are sold one per round to the highest sealed bid; the winner pays
his bid from his remaining budget.  A run walks the tree of histories: the
exact mode (deterministic strategies) follows every tie branch, splitting a
branch's probability evenly among the tied winners, and the sampled mode
keeps one branch, drawing each tie's winner from a seeded generator.  A
bidder may pass (distinct from the forbidden zero bid); an object every
bidder passes on goes unsold.

The library strategies (``steady_strategy``, ``scripted_strategy`` and
``pass_strategy``) are per-round scripts: bid ``amount[r]`` in round r when it
is positive and within budget, and pass otherwise.  Each carries its script in
its ``__dict__``, and ``functools.wraps`` copies it onto a wrapper, which the
walks then play as the wrapped script, never calling it.  When every strategy
of a run has a script, in either mode, no strategy is called: the merged walk
takes a (unit, table) pair, the budget as an integer in units of 1/D, D the
lcm of the script denominators, and each round's integer bids, and merges
states that reach the same budgets and win counts.  Other callables take the
history walk, which asks for every bid with the full history and keeps one
state per history.  Both walks play a round by ``_round``, which passes a bid
over its bidder's budget.  Either exact walk ends with its final states' win
counts and exact chances, from which ``sample_leaves`` counts the trials
ending in each with one multinomial draw on ``RngStream(seed, 0)``; the block
walk plays many tables at once for only the win counts each can reach.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .engine import as_fraction
from .errors import DomainError, LengthMismatch, NotMultiple, OverBudget, ScenarioError
from .errors import SizeLimitExceeded, ZeroBid
from .montecarlo import WinTally
from .samplers import RngStream


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

# Most states one exact round may hold.  Scripted runs merge states on
# (budgets, wins): all-steady (24,2), (12,3) and (60,3) peak at 13, 19 and
# 331 states.  A custom callable keeps one state per history, so the count
# grows with every tie: all-steady (18,2) and (12,3) peak at 48,620 and
# 34,650 states there, (20,2) at 184,756.
MAX_STATES = 50_000

# Most budget and win cells (states x bidders) one exact round may hold, and
# most cells of a run's n x k bid table or of one state's k children (k x k),
# refused before any work.  All-steady (18,18) peaks at 875,160 cells and a
# sampled (500000,2) table holds 10^6.  At the limit the all-steady (128,128)
# and (1448,1448) refusals take 0.5-1.2 s and 81-142 MB, where (160,160) once
# held 50,000 states of 160 bidders: 25 s and 1.8 GB.
MAX_CELLS = 1 << 21

# Most state-visits (states summed over rounds) one exact run may make, so
# every accepted run does bounded work: the per-round cap alone let a run of
# many mid-sized rounds go on for a minute.  All-steady (60,3), (40,4) and
# (100,4) make 9,260, 14,640 and 456,975 visits.
MAX_STATE_ROUNDS = 500_000

# Limits on a merged walk's unit, the lcm of its scripts' denominators: its
# digits, bounded by sum(log10(d)) over the distinct denominators d before the
# lcm is built, and those digits times the runs of one amount object that its
# table converts.  25 distinct 4,000-digit denominators (1e5 digits) take 0.34 s;
# 5,000 distinct 7-digit primes (3.0e4 digits x 5,001 runs) 0.47 s and 108 MB.
MAX_UNIT_DIGITS, MAX_UNIT_RUN_DIGITS = 100_000, 200_000_000


def _scripted(script: tuple[Fraction, ...]) -> Strategy:
    """The strategy that bids ``script[r]`` in round r + 1 when it is
    positive and within budget, and passes otherwise; the script rides in
    its ``__dict__``."""

    def strategy(view: RoundView) -> Optional[Fraction]:
        i = view.round_index - 1
        amount = script[i] if i < len(script) else 0
        return amount if 0 < amount <= view.budget else None

    strategy._script = script
    return strategy


def steady_strategy(n: int, k: int) -> Strategy:
    """Bid k/n in each of n rounds while the budget allows, then pass.

    For k | n this guarantees at least n/k objects against any opponents.
    """
    if n < k or n % k:
        raise NotMultiple(f"{k} bidders do not divide {n} objects into positive shares")
    return _scripted((Fraction(k, n),) * n)


def scripted_strategy(amounts: Sequence) -> Strategy:
    """Bid a fixed per-round amount, passing when the script runs out, says
    0/None, or the remaining budget cannot cover the amount."""
    return _scripted(tuple(Fraction(0) if a is None else as_fraction(a) for a in amounts))


def pass_strategy(view: RoundView) -> Optional[Fraction]:
    """Never bids."""
    return None


pass_strategy._script = ()


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


def _round(bids, budgets, wins, gen=None):
    """One round from one state: ``(top, winners, children)``.

    ``bids`` holds each bidder's amount: None, 0 or one over the bidder's
    budget is a pass.  ``winners`` are the tied top bidders, in bidder
    order, and ``children`` the (budgets, wins) each one's win leads to; a
    generator ``gen`` keeps one winner of a sold object, drawn by
    ``gen.integers(len(winners))``.  When every bidder passes, the object
    goes unsold, drawing nothing: ``top`` is None, ``winners`` is
    ``(None,)`` and the state itself is the only child.
    """
    top, winners = None, (None,)
    for b, amount in enumerate(bids):
        if not amount or amount > budgets[b]:
            continue
        if top is None or amount > top:
            top, winners = amount, (b,)
        elif amount == top:
            winners += (b,)
    if top is None:
        return None, winners, ((budgets, wins),)
    if gen is not None:
        i = int(gen.integers(len(winners)))
        winners = winners[i:i + 1]
    children = []
    for w in winners:
        child_budgets, child_wins = list(budgets), list(wins)
        child_budgets[w] -= top
        child_wins[w] += 1
        children.append((tuple(child_budgets), tuple(child_wins)))
    return top, winners, children


def _scripts(strategies: Sequence[Strategy]) -> Optional[list[tuple[Fraction, ...]]]:
    """Every strategy's script, or None if one of them has none."""
    scripts = [getattr(s, "_script", None) for s in strategies]
    return None if any(s is None for s in scripts) else scripts


def _unit_table(scripts, n: int) -> tuple[int, list[tuple[int, ...]]]:
    """The budget in units of 1/D, D the lcm of the scripts' denominators,
    and each round's bids in those units (0 for a pass).  A run of one
    amount object, as a steady script's n rounds, converts once."""
    scripts = [tuple(script[:n]) for script in scripts]
    unit = math.lcm(*{a.denominator for a in check_unit(scripts, n)})
    columns = []
    for script in scripts:
        column, last = [], None
        for a in script:
            if a is not last:
                last, value = a, max(a.numerator, 0) * (unit // a.denominator)
            column.append(value)
        columns.append(column + [0] * (n - len(script)))
    return unit, list(zip(*columns))


class ExactRun(NamedTuple):
    """An exact run's work counters and its final states: state j ends with
    win counts ``wins[j]`` at chance ``weights[j] / scale``."""

    peak_states: int
    state_rounds: int
    wins: list[tuple[int, ...]]
    weights: list
    scale: int

    @property
    def expected(self) -> tuple[Fraction, ...]:
        """Each bidder's expected wins, exact."""
        return tuple(
            Fraction(sum(weight * wins[b] for wins, weight in zip(self.wins, self.weights)), self.scale)
            for b in range(len(self.wins[0]))
        )


def _state_cap(k: int) -> int:
    """Most states one exact round of k bidders may hold: MAX_STATES, and
    MAX_CELLS budget and win cells (states x k)."""
    return min(MAX_STATES, MAX_CELLS // max(k, 1))


def _too_many(round_index: int, k: int) -> SizeLimitExceeded:
    cap = _state_cap(k)
    cells = "" if cap == MAX_STATES else f" of {k} bidders, past {MAX_CELLS:,} budget and win cells"
    return SizeLimitExceeded(f"exact round {round_index} exceeds {cap} states{cells}")


def _too_long(round_index: int) -> SizeLimitExceeded:
    return SizeLimitExceeded(
        f"exact run exceeds {MAX_STATE_ROUNDS:,} state-visits (states x rounds) "
        f"at round {round_index}"
    )


def check_size(n: int, k: int) -> None:
    """Refuse n rounds of k bidders before any work: n must be a whole
    number, and every round visits at least one state, so n >
    MAX_STATE_ROUNDS can never finish; nor can a run whose n x k bid table,
    or one state's k children of k cells each, pass MAX_CELLS."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 0:
        raise DomainError(f"a sequential run needs a nonnegative integer round count, not {n!r}")
    if n > MAX_STATE_ROUNDS:
        raise SizeLimitExceeded(
            f"{n:,} rounds exceed the {MAX_STATE_ROUNDS:,} state-visits a sequential run "
            f"may make, and every round visits at least one state"
        )
    if max(n, k) * k > MAX_CELLS:
        raise SizeLimitExceeded(
            f"{n:,} rounds of {k:,} bidders pass the {MAX_CELLS:,}-cell limit on a bid table "
            f"(rounds x bidders) and on one state's children (bidders x bidders)"
        )


def check_unit(scripts, n: int) -> list[Fraction]:
    """The amounts starting a run of one amount object in the scripts' first n
    rounds; SizeLimitExceeded if the digits of their unit may pass a limit."""
    runs = [a for s in scripts for a, last in zip(s[:n], (None,) + s[:n]) if a is not last]
    digits = sum(math.log10(d) for d in {a.denominator for a in runs})
    if digits > MAX_UNIT_DIGITS or digits * len(runs) > MAX_UNIT_RUN_DIGITS:
        raise SizeLimitExceeded(
            f"the bid unit of {len(runs):,} scripted runs may have {digits:,.0f} digits, past the "
            f"limit of {MAX_UNIT_DIGITS:,} digits or {MAX_UNIT_RUN_DIGITS:,} digits x runs"
        )
    return runs


def _merged_walk(unit: int, table, k: int, gen=None) -> ExactRun:
    """The walk of an all-scripted profile on integer budgets, merging
    states on (budgets, wins): each bidder starts with ``unit`` and bids
    ``table[r][b]`` in round r + 1.  Chances are integer weights over
    ``scale``; one pass over a round scales both by the lcm of its tie
    counts, rescaling when a new count arrives.  ``gen`` goes to ``_round``."""
    # the round's states, (budgets, wins) -> weight, in the order first reached
    states, scale = {((unit,) * k, (0,) * k): 1}, 1
    peak = visits = 0
    cap = _state_cap(k)
    for round_index, bids in enumerate(table, 1):
        visits += len(states)
        if visits > MAX_STATE_ROUNDS:
            raise _too_long(round_index)
        nxt, split = {}, 1
        for (budgets, wins), weight in states.items():
            children = _round(bids, budgets, wins, gen)[2]
            if split % len(children):  # a new tie count: rescale the shares so far
                grow = math.lcm(split, len(children)) // split
                nxt, split = {child: share * grow for child, share in nxt.items()}, split * grow
            share = weight * (split // len(children))
            for child in children:
                nxt[child] = nxt.get(child, 0) + share
            if len(nxt) > cap:
                raise _too_many(round_index, k)
        peak = max(peak, len(nxt))
        states, scale = nxt, scale * split
    return ExactRun(peak, visits, [wins for _, wins in states], list(states.values()), scale)


def _block_walk(unit: int, tables: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The final win counts each (n, k) integer table of ``tables`` can reach,
    no chances: the merged walk of every table at once by ``_round``'s rule,
    one row (trial, budgets, wins) a state, merged by a dict, never sorted.
    Each trial keeps the merged walk's caps; the earliest round past one
    raises.  Returns the final states' trial numbers and win counts."""
    (trials, n), cap = tables.shape[:2], _state_cap(k)
    states = np.c_[np.arange(trials), np.full((trials, k), unit), np.zeros((trials, k), dtype=np.int64)]
    counts, visits = np.ones(trials, dtype=np.int64), np.zeros(trials, dtype=np.int64)
    for round_index in range(1, n + 1):
        visits += counts
        if visits.max() > MAX_STATE_ROUNDS:
            raise _too_long(round_index)
        bids = tables[states[:, 0], round_index - 1]
        bids *= bids <= states[:, 1:1 + k]  # 0 or over budget: a pass
        top = bids.max(axis=1)
        parents, winners = np.divmod(np.flatnonzero((bids == top[:, None]) & (top > 0)[:, None]), k)
        children, rows = states[parents], np.arange(len(parents))
        children[rows, 1 + winners] -= top[parents]
        children[rows, 1 + k + winners] += 1
        states = np.concatenate((children, states[top == 0]))  # an unsold object leaves its state
        shared = counts[states[:, 0]] > 1  # only a trial that held 2+ states can reach one twice
        kept = dict(zip(map(tuple, states[shared].tolist()), np.flatnonzero(shared).tolist()))
        states = np.concatenate((states[~shared], states[list(kept.values())]))
        counts = np.bincount(states[:, 0], minlength=trials)
        if counts.max() > cap:
            raise _too_many(round_index, k)
    return states[:, 0], states[:, 1 + k:]


def _history_walk(strategies, n: int, k: int, gen=None) -> ExactRun:
    """The walk that asks each strategy for every bid, one state per history.
    It follows every tie branch, each at an even share of its parent's
    probability; ``gen`` goes to ``_round``."""
    # (budgets, wins, history, probability)
    states = [((Fraction(1),) * k, (0,) * k, (), Fraction(1))]
    peak = visits = 0
    cap = _state_cap(k)
    for round_index in range(1, n + 1):
        visits += len(states)
        if visits > MAX_STATE_ROUNDS:
            raise _too_long(round_index)
        nxt = []
        for budgets, wins, history, prob in states:
            bids = _collect_bids(strategies, round_index, n, budgets, wins, history)
            top, winners, children = _round(bids, budgets, wins, gen)
            share = prob if len(winners) == 1 else prob / len(winners)
            for w, (child_budgets, child_wins) in zip(winners, children):
                nxt.append((child_budgets, child_wins, history + (RoundResult(w, top),), share))
            if len(nxt) > cap:
                raise _too_many(round_index, k)
        peak = max(peak, len(nxt))
        states = nxt
    return ExactRun(peak, visits, [w for _, w, _, _ in states], [p for _, _, _, p in states], 1)


def _run_exact(strategies, n: int, k: int, gen=None) -> ExactRun:
    """The merged integer walk when every strategy has a script, else the
    history walk; a generator ``gen`` keeps one branch."""
    check_size(n, k)
    scripts = _scripts(strategies)
    if scripts is None:
        return _history_walk(strategies, n, k, gen)
    return _merged_walk(*_unit_table(scripts, n), k, gen)


def sample_leaves(run: ExactRun, trials: int, seed: int) -> WinTally:
    """Tally ``trials`` sampled runs drawn from ``run``'s final states.

    One ``multinomial`` draw on ``RngStream(seed, 0)`` counts the trials
    ending in each final state, at its chance weight / scale rounded to a
    double; the tally's sums and squares follow from those counts exactly.
    """
    chance = [float(weight / run.scale) for weight in run.weights]
    counts = RngStream(seed, 0).generator.multinomial(trials, chance)
    k = len(run.wins[0])
    sums, squares = [0] * k, [0] * k
    for j in np.flatnonzero(counts):  # only the states drawn at least once
        times = int(counts[j])
        for b, w in enumerate(run.wins[j]):
            sums[b] += times * w
            squares[b] += times * w * w
    return WinTally(k, int(trials), sums, squares)


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
    than ``MAX_STATES`` states, or a run past ``MAX_STATE_ROUNDS`` state
    visits, raises SizeLimitExceeded.
    mode="sample" returns one trajectory's integer win counts: the same walk
    on one branch, ties drawn from ``np.random.default_rng(seed)``, an
    integer seed taken mod 2**64.  Both modes refuse a negative or
    non-integer n with DomainError, and n > MAX_STATE_ROUNDS.
    """
    if len(strategies) != k:
        raise LengthMismatch(f"expected {k} strategies, got {len(strategies)}")
    if mode not in ("exact", "sample"):
        raise ScenarioError(f"unknown mode {mode!r}")
    if mode == "exact":
        return _run_exact(strategies, n, k).expected
    gen = np.random.default_rng(int(seed) % 2**64 if isinstance(seed, (int, np.integer)) else seed)
    return _run_exact(strategies, n, k, gen).wins[0]
