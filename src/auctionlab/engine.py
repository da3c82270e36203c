"""Exact one-shot auction resolution with symbolic-infinitesimal bids.

Bid amounts are rationals plus an integer multiple of a symbolic
infinitesimal ``eps`` (a positive amount smaller than any real gap), so
tie-breaking shifts can be expressed without spending real budget and
without floating-point corruption of ties.  Floating-point amounts are
embedded by their exact binary value, never rounded.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Sequence, Union

from .errors import DomainError, LengthMismatch, OverBudget, ZeroBid

AmountLike = Union[int, float, str, Fraction]

# Python's default cap on the digits of an int it reads or prints
MAX_VALUE_DIGITS = 4300


def as_fraction(value: AmountLike) -> Fraction:
    """Exact embedding of a finite amount, else DomainError: floats map to their binary value, strings
    like "0.6" or "3/5" to their decimal-exact rational, but a decimal exponent past
    ``MAX_VALUE_DIGITS`` is refused before Fraction builds its power of ten."""
    if isinstance(value, Fraction):
        return value
    if not isinstance(value, (int, float, str, Rational)):
        raise TypeError(f"cannot interpret {value!r} as an exact amount")
    exponent = re.search(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z", value) if isinstance(value, str) else None
    try:
        if exponent is None or abs(int(exponent[1])) <= MAX_VALUE_DIGITS:
            return Fraction(value)
    except (ValueError, ZeroDivisionError, OverflowError):
        raise DomainError(f"{value!r} is not a finite exact amount") from None
    raise DomainError(f"{value!r} has a decimal exponent past {MAX_VALUE_DIGITS:,}")


@dataclass(frozen=True, order=True)
class Bid:
    """An amount plus an integer coefficient on the symbolic infinitesimal.

    Bids order by base, then by eps: the infinitesimal breaks ties
    between equal base amounts but can never overcome a base difference.
    A bid is positive when base > 0, or base = 0 with eps > 0.
    """

    base: Fraction
    eps: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "base", as_fraction(self.base))
        object.__setattr__(self, "eps", operator.index(self.eps))
        if self.base < 0:
            raise DomainError("bid base amount must be nonnegative")

    @classmethod
    def _unchecked(cls, base: Fraction, eps: int) -> "Bid":
        """A bid from a nonnegative Fraction base and an int eps, taken unchecked."""
        bid = object.__new__(cls)
        object.__setattr__(bid, "base", base)
        object.__setattr__(bid, "eps", eps)
        return bid

    @property
    def is_positive(self) -> bool:
        return self.base > 0 or (self.base == 0 and self.eps > 0)

    def __str__(self) -> str:
        if self.eps == 0:
            return str(self.base)
        sign = "+" if self.eps > 0 else "-"
        mag = abs(self.eps)
        eps_part = "eps" if mag == 1 else f"{mag}*eps"
        return f"{self.base}{sign}{eps_part}"


def _as_bid(item) -> Bid:
    if isinstance(item, Bid):
        return item
    if isinstance(item, tuple) and len(item) == 2:
        return Bid(as_fraction(item[0]), item[1])
    return Bid(as_fraction(item))


@dataclass(frozen=True)
class BidSequence:
    """An ordered list of bids for the n objects, one unit budget in total."""

    bids: tuple[Bid, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "bids", tuple(_as_bid(b) for b in self.bids))

    @classmethod
    def of(cls, *amounts) -> "BidSequence":
        return cls(tuple(amounts))

    @property
    def n(self) -> int:
        return len(self.bids)

    @property
    def base_total(self) -> Fraction:
        return sum((b.base for b in self.bids), Fraction(0))

    @property
    def eps_total(self) -> int:
        return sum(b.eps for b in self.bids)

    @property
    def is_feasible(self) -> bool:
        """Within budget for every real instantiation of the infinitesimal."""
        total = self.base_total
        return total < 1 or (total == 1 and self.eps_total <= 0)


def compare_bids(a: Bid, b: Bid) -> int:
    """Three-way comparison by base, then by eps: -1, 0 or +1."""
    return (a > b) - (a < b)


def validate_sequence(seq: BidSequence) -> None:
    """Raise ZeroBid or OverBudget on the first violated rule."""
    for i, bid in enumerate(seq.bids):
        if not bid.is_positive:
            raise ZeroBid(f"bid {i} ({bid}) is not strictly positive")
    if not seq.is_feasible:
        raise OverBudget(
            f"bids total {seq.base_total} with net infinitesimal {seq.eps_total:+d}"
        )


@dataclass(frozen=True)
class Outcome:
    """Per-bidder expected object counts; components always total n exactly."""

    expected_wins: tuple[Fraction, ...]

    @property
    def total(self) -> Fraction:
        return sum(self.expected_wins, Fraction(0))


def resolve(profiles: Sequence[BidSequence]) -> Outcome:
    """Score one sealed-bid auction of n objects among k bidders.

    Each object goes to its highest bid; m bidders tied at the top each
    collect 1/m.  Exact rational throughout.
    """
    if not profiles:
        raise DomainError("at least one bid sequence is required")
    n = profiles[0].n
    for p in profiles:
        if p.n != n:
            raise LengthMismatch(f"expected {n} bids per sequence, got {p.n}")
    wins = [Fraction(0)] * len(profiles)
    for i in range(n):
        bids = [p.bids[i] for p in profiles]
        top = max(bids)
        winners = [j for j, bid in enumerate(bids) if bid == top]
        share = Fraction(1, len(winners))
        for j in winners:
            wins[j] += share
    return Outcome(tuple(wins))
