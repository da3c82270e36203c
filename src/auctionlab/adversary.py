"""Expected wins of an informed adversary against the marginal strategies.

The closed forms are exact rational whenever the inputs are rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Sequence

from .errors import DomainError, LengthMismatch, OverBudget
from .marginals import MarginalSpec

FLOAT_BUDGET_SLACK = 1e-12


def _all_rational(values) -> bool:
    return all(isinstance(v, Rational) for v in values)


def wins_vs_marginal(spec: MarginalSpec, amounts: Sequence):
    """Expected objects won by bidding ``amounts`` against k-1 independent
    draws from the optimal marginal strategy.

    Each object is won with probability min(1, (n/k) * a_i): the marginal
    CDF raised to the k-1 opponents collapses to a linear form, and ties
    carry zero probability under the continuous marginal (a bid exactly at
    the cap k/n wins outright).  At most n/k in total for any feasible
    split, with equality iff the amounts total 1 and none exceeds the cap.
    """
    n, k = spec.n, spec.k
    if len(amounts) != n:
        raise LengthMismatch(f"expected {n} amounts, got {len(amounts)}")
    exact = _all_rational(amounts)
    number = Fraction if exact else float
    vals = [number(a) for a in amounts]
    if any(a < 0 for a in vals):
        raise DomainError("amounts must be nonnegative")
    if sum(vals) > 1 + (0 if exact else FLOAT_BUDGET_SLACK):
        raise OverBudget(f"amounts total {sum(vals)} > 1")
    slope = number(n) / k
    return sum(min(number(1), slope * a) for a in vals)


@dataclass(frozen=True)
class GroupAuction:
    """Objects partitioned into groups of (possibly fractional) sizes; the
    highest bid on a group takes all of it."""

    sizes: tuple
    k: int

    def __post_init__(self) -> None:
        if len(self.sizes) == 0:
            raise DomainError("need at least one group")
        if any(s <= 0 for s in self.sizes):
            raise DomainError("group sizes must be positive")
        if self.k < 2:
            raise DomainError("need at least two bidders")

    @property
    def total(self):
        return sum(self.sizes)


def group_wins(auction: GroupAuction, amounts: Sequence):
    """Expected objects won by bidding size_i * a_i on group i against
    disadvantaged bidders whose per-group factors follow the marginal CDF.

    Each group i is won with probability (n/k) * a_i, yielding size_i
    objects; the feasible maximum over all splits is exactly n/k.
    """
    if len(amounts) != len(auction.sizes):
        raise LengthMismatch(
            f"expected {len(auction.sizes)} amounts, got {len(amounts)}"
        )
    exact = _all_rational(amounts) and _all_rational(auction.sizes)
    number = Fraction if exact else float
    slack = 0 if exact else FLOAT_BUDGET_SLACK
    try:
        sizes = [number(s) for s in auction.sizes]
        vals = [number(a) for a in amounts]
        k = number(auction.k)
    except OverflowError:
        raise DomainError("float amounts need group sizes and k within the float range") from None
    n = sum(sizes)
    cap = k / n + slack
    for a in vals:
        if a < 0 or a > cap:
            raise DomainError(f"group amount {a} outside [0, k/n]")
    spend = sum(s * a for s, a in zip(sizes, vals))
    if spend > 1 + slack:
        raise OverBudget(f"group bids total {spend} > 1")
    slope = n / k
    return sum(s * slope * a for s, a in zip(sizes, vals))
