"""Exception types shared across the package."""


class ZeroBid(ValueError):
    """A bid is not strictly positive."""


class OverBudget(ValueError):
    """A bid sequence exceeds the unit budget."""


class LengthMismatch(ValueError):
    """Sequences or matrices that must share a size do not."""


class DomainError(ValueError):
    """An evaluator was called outside its domain."""


class NotMultiple(ValueError):
    """The object count is not a multiple of the bidder count."""


class NotDoublyStochastic(ValueError):
    """A placement-probability matrix is not doubly stochastic."""


class Infeasible(ValueError):
    """A requested bid transformation would violate feasibility."""


class EmptySample(ValueError):
    """A statistic was requested on an empty sample."""


class ScenarioError(ValueError):
    """A scenario configuration violates its mode constraints."""


class SizeLimitExceeded(ValueError):
    """An input would take more memory or time than the exact paths allow."""


class InvariantError(RuntimeError):
    """An internal invariant failed: a bug, not a bad input."""
