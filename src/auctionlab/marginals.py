"""Closed-form distribution functions behind the optimal bidding strategies.

Evaluators work in 64-bit floats: they feed statistics and verification,
while exact game values live in the engine and the position-randomized
solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import DomainError, SizeLimitExceeded

ONE_THIRD = 1.0 / 3.0
TWO_THIRDS = 2.0 / 3.0

# Most objects a spec may hold, so that k/n stays a normal double and n/k finite
MAX_OBJECTS = 2**1000


@dataclass(frozen=True)
class MarginalSpec:
    """Auction size (n objects, k bidders) identifying the bid marginal.

    Bids of the optimal randomized strategy live on [0, k/n]; below the cap
    the marginal CDF is ((n/k) * b) ** (1/(k-1)).
    """

    n: int
    k: int

    def __post_init__(self) -> None:
        if self.k < 2:
            raise DomainError("need at least two bidders")
        if self.n < self.k:
            raise DomainError("need at least as many objects as bidders")
        if self.n > MAX_OBJECTS:
            raise SizeLimitExceeded(f"n = 2^{math.log2(self.n):.1f} objects exceed the 2^1000-object limit")

    @property
    def cap(self) -> Fraction:
        return Fraction(self.k, self.n)


def marginal_cdf(spec: MarginalSpec, b):
    """Per-object CDF of the optimal strategy's bid on [0, 1].

    ((n/k) * b) ** (1/(k-1)) for b <= k/n, and 1 above the cap.  With two
    bidders this reduces to the uniform CDF (n/2) * b.  A scalar ``b``
    gives a float; an array gives an array of the same shape.
    """
    values = np.asarray(b, dtype=float)
    inside = (values >= 0.0) & (values <= 1.0)  # False for NaN too
    if not inside.all():
        raise DomainError(f"bid {values[~inside].flat[0]} outside [0, 1]")
    cap = spec.k / spec.n
    exponent = 1.0 / (spec.k - 1)
    if values.ndim == 0:  # Python's **, which numpy's power can miss by 1 ULP
        return 1.0 if values >= cap else ((spec.n / spec.k) * float(values)) ** exponent
    result = (spec.n / spec.k) * values
    result **= exponent
    result[values >= cap] = 1.0
    return result


def spread_density(v: float) -> float:
    """Density factor 40.5 * v / (2 - 3v) of the total pairwise spread.

    Defined for 0 <= v < 2/3; the pole at 2/3 is outside the domain.
    """
    v = float(v)
    if v < 0.0 or v >= TWO_THIRDS:
        raise DomainError(f"spread {v} outside [0, 2/3)")
    return 40.5 * v / (2.0 - 3.0 * v)


def triple_density(x: float, y: float, z: float) -> float:
    """Joint density of the auxiliary triple on the cube [0, 1/3]^3.

    Evaluates the spread density at |x-y| + |y-z| + |z-x|, which equals
    twice the range max-min.  On the measure-zero set where the range
    reaches 1/3 the density is unbounded; inf is returned there so that
    integrators can skip the pole instead of handling an exception.
    """
    for c in (x, y, z):
        if c < 0.0 or c > ONE_THIRD:
            raise DomainError(f"coordinate {c} outside [0, 1/3]")
    v = abs(x - y) + abs(y - z) + abs(z - x)
    if v >= TWO_THIRDS:
        return math.inf
    return spread_density(v)


def pair_density(x: float, y: float) -> float:
    """Closed-form marginal of two triple coordinates, third integrated out.

    For x >= y:

        4.5 * (2*ln(1 - 3*(x-y)) - ln(3*y*(1 - 3*x)) - (1 - 6*(x-y))/(1 - 3*(x-y)))

    and the mirror image for y > x.  Logarithmically singular on the
    boundary of the open square (0, 1/3)^2.
    """
    x, y = float(x), float(y)
    if not (0.0 < x < ONE_THIRD and 0.0 < y < ONE_THIRD):
        raise DomainError(f"({x}, {y}) outside the open square (0, 1/3)^2")
    if y > x:
        x, y = y, x
    w = x - y
    return 4.5 * (
        2.0 * math.log(1.0 - 3.0 * w)
        - math.log(3.0 * y * (1.0 - 3.0 * x))
        - (1.0 - 6.0 * w) / (1.0 - 3.0 * w)
    )


def simplex_normalizer(k: int) -> float:
    """Normalizing constant of the simplex density, product-of-Gamma form.

    With a = 1/(k-1): Gamma(a)**k / Gamma(k*a).  Equals 1 for k = 2 and
    2*pi for k = 3.
    """
    if k < 2:
        raise DomainError("need at least two bidders")
    a = 1.0 / (k - 1)
    return math.gamma(a) ** k / math.gamma(k * a)


def simplex_density(k: int, b: Sequence[float]) -> float:
    """Joint bid density prod(b_i)^(1/(k-1) - 1) / alpha on the open simplex.

    The k coordinates must be positive and sum to 1; its one-dimensional
    marginals have CDF t ** (1/(k-1)).
    """
    vals = [float(v) for v in b]
    if len(vals) != k:
        raise DomainError(f"expected {k} coordinates, got {len(vals)}")
    if any(v <= 0.0 for v in vals):
        raise DomainError("simplex coordinates must be strictly positive")
    total = math.fsum(vals)
    if abs(total - 1.0) > 1e-9:
        raise DomainError(f"coordinates sum to {total}, not 1")
    prod = math.prod(vals)
    exponent = 1.0 / (k - 1) - 1.0
    return prod**exponent / simplex_normalizer(k)
