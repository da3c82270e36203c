"""Exception types shared across the package."""


class InputError(ValueError):
    """Base of the errors a bad input raises; the CLI exits 1 on these."""


class ZeroBid(InputError):
    """A bid is not strictly positive."""


class OverBudget(InputError):
    """A bid sequence exceeds the unit budget."""


class LengthMismatch(InputError):
    """Sequences or arrays that must share a size or layout do not."""


class DomainError(InputError):
    """An evaluator was called outside its domain."""


class NotMultiple(InputError):
    """The object count is not a multiple of the bidder count."""


class NotDoublyStochastic(InputError):
    """A placement-probability matrix is not doubly stochastic."""


class Infeasible(InputError):
    """A requested bid transformation would violate feasibility."""


class EmptySample(InputError):
    """A statistic was requested on an empty sample."""


class ScenarioError(InputError):
    """A scenario configuration violates its mode constraints."""


class SizeLimitExceeded(InputError):
    """An input would take more memory or time than the exact paths allow."""


class InvariantError(RuntimeError):
    """An internal invariant failed: a bug, not a bad input."""
