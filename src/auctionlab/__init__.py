"""Optimal randomized bidding in budget-constrained multi-object auctions.

Sealed-bid auctions of n equal-value objects among k bidders with unit
budgets, where an adversary knows the other bidders' algorithms.  The
package provides exact auction resolution with symbolic-infinitesimal
tie-breaking, the closed-form optimal marginal distributions and their
samplers, exact adversary evaluation (including the closed-form
position-randomized best response and a witness attaining it), sequential
auctions with budget depletion, and a seeded Monte Carlo harness with a CLI.
"""

from ._version import VERSION as __version__
from .adversary import GroupAuction, group_wins, wins_vs_marginal
from .engine import (
    Bid,
    BidSequence,
    Outcome,
    as_fraction,
    compare_bids,
    resolve,
    validate_sequence,
)
from .errors import (
    DomainError,
    EmptySample,
    Infeasible,
    InvariantError,
    LengthMismatch,
    NotDoublyStochastic,
    NotMultiple,
    OverBudget,
    ScenarioError,
    SizeLimitExceeded,
    ZeroBid,
)
from .harness import (
    AdversaryPlan,
    BidderEstimate,
    CopycatEstimate,
    Report,
    Scenario,
    copycat_value,
    estimate,
    ks_distance,
)
from .marginals import (
    MarginalSpec,
    marginal_cdf,
    pair_density,
    simplex_density,
    simplex_normalizer,
    spread_density,
    triple_density,
)
from .position_randomized import (
    BestResponse,
    InitialBids,
    PermutationMarginals,
    best_response,
    expected_wins_perm,
    initial_bids,
    rank_win_expectation,
    undercut_sequence,
)
from .samplers import (
    RngStream,
    draw_k_bidder,
    draw_simplex,
    draw_triple,
    draw_two_bidder,
    triple_from_uniforms,
)
from .sequential import (
    RoundResult,
    RoundView,
    pass_strategy,
    run_sequential,
    scripted_strategy,
    steady_strategy,
)

__all__ = [
    "__version__",
    "AdversaryPlan",
    "BestResponse",
    "Bid",
    "BidSequence",
    "BidderEstimate",
    "CopycatEstimate",
    "DomainError",
    "EmptySample",
    "GroupAuction",
    "Infeasible",
    "InitialBids",
    "InvariantError",
    "LengthMismatch",
    "MarginalSpec",
    "NotDoublyStochastic",
    "NotMultiple",
    "Outcome",
    "OverBudget",
    "PermutationMarginals",
    "Report",
    "RngStream",
    "RoundResult",
    "RoundView",
    "Scenario",
    "ScenarioError",
    "SizeLimitExceeded",
    "ZeroBid",
    "as_fraction",
    "best_response",
    "compare_bids",
    "copycat_value",
    "draw_k_bidder",
    "draw_simplex",
    "draw_triple",
    "draw_two_bidder",
    "estimate",
    "expected_wins_perm",
    "group_wins",
    "initial_bids",
    "ks_distance",
    "marginal_cdf",
    "pair_density",
    "pass_strategy",
    "rank_win_expectation",
    "resolve",
    "run_sequential",
    "scripted_strategy",
    "simplex_density",
    "simplex_normalizer",
    "spread_density",
    "steady_strategy",
    "triple_density",
    "triple_from_uniforms",
    "undercut_sequence",
    "validate_sequence",
    "wins_vs_marginal",
]
