"""Named verification suites behind the ``verify`` CLI subcommand.

Each suite re-derives a claim numerically (quadrature, enumeration or Monte
Carlo) and compares it against the closed forms and samplers, reporting one
check row per claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ScenarioError
from .harness import Scenario, copycat_value, ks_table, marginal_draw, sampled_mode
from .marginals import MarginalSpec, pair_density, simplex_normalizer, triple_density
from .position_randomized import PermutationMarginals, best_response, expected_wins_perm, initial_bids
from .position_randomized import _adversary_places, _ladder_places, _place_wins, undercut_sequence
from .samplers import SUM_TOLERANCE, RngStream, _row_blocks
from .sequential import _block_walk, _unit_table, steady_strategy


@dataclass(frozen=True)
class Check:
    """One named verification with its observed value and pass threshold."""

    name: str
    value: float
    threshold: float
    passed: bool


def _check(name: str, value: float, threshold: float) -> Check:
    return Check(name, float(value), float(threshold), bool(value <= threshold))


def triple_cube_integral(nodes_xy: int = 200, nodes_z: int = 60) -> float:
    """Numeric integral of the triple density over [0, 1/3]^3.

    Tensor Gauss-Legendre over (x, y) with the inner z-integral split at its
    kinks z = min(x, y) and z = max(x, y); the edge singularities are
    integrable and the interior nodes never touch them.
    """
    pts, wts = np.polynomial.legendre.leggauss(nodes_xy)
    grid = (pts + 1.0) / 6.0
    weight = wts / 6.0
    x = grid[:, None]
    y = grid[None, :]
    lo = np.minimum(x, y)
    hi = np.maximum(x, y)
    zp, zw = np.polynomial.legendre.leggauss(nodes_z)
    zp = (zp + 1.0) / 2.0

    def piece(a, b):
        length = b - a
        total = np.zeros_like(lo)
        for t, w in zip(zp, zw):
            z = a + t * length
            v = np.abs(x - y) + np.abs(y - z) + np.abs(z - x)
            total += w * (40.5 * v / (2.0 - 3.0 * v))
        return total * length / 2.0

    inner = (
        piece(np.zeros_like(lo), lo)
        + piece(lo, hi)
        + piece(hi, np.full_like(lo, 1.0 / 3.0))
    )
    return float(np.einsum("i,j,ij->", weight, weight, inner))


def pair_density_quadrature(x: float, y: float) -> float:
    """Independent oracle for the closed-form pair density: adaptive
    quadrature of the triple density over the third coordinate."""
    from scipy import integrate

    value, _ = integrate.quad(
        lambda z: triple_density(x, y, z),
        0.0,
        1.0 / 3.0,
        points=[min(x, y), max(x, y)],
        limit=200,
        epsabs=1e-12,
        epsrel=1e-12,
    )
    return value


def simplex_normalizer_quadrature(k: int, nodes: int = 48) -> float:
    """Numeric simplex integral of prod(b_i)^(1/(k-1) - 1) by nested
    Gauss-Jacobi quadrature.

    Each level integrates one coordinate x over (0, c) against the weight
    x**(a-1) * (c-x)**(j*a-1) that captures the endpoint singularities, with
    the remaining smooth factor evaluated by recursing into the next level.
    """
    from scipy.special import roots_jacobi

    a = 1.0 / (k - 1)

    def level(j: int, c: np.ndarray) -> np.ndarray:
        # integral over the last j free coordinates given remaining mass c
        if j == 0:
            return c ** (a - 1)
        t, w = roots_jacobi(nodes, j * a - 1.0, a - 1.0)
        x = np.multiply.outer(0.5 * (1.0 + t), c)
        rest = c - x
        smooth = level(j - 1, rest.ravel()).reshape(rest.shape)
        smooth /= rest ** (j * a - 1.0)
        return (0.5 * c) ** ((j + 1) * a - 1.0) * np.tensordot(w, smooth, axes=1)

    return float(level(k - 1, np.array([1.0]))[0])


def density_suite(points_per_axis: int = 10) -> list[Check]:
    """Quadrature checks: the triple density integrates to 1, its pair
    marginal matches the closed form on an interior grid, and the simplex
    normalizer matches numeric integration for k in {2, 3, 4}."""
    checks = [
        _check("triple_density_cube_integral", abs(triple_cube_integral() - 1.0), 1e-3)
    ]
    offsets = (np.arange(points_per_axis) + 0.5) / points_per_axis / 3.0
    worst = 0.0
    for x in offsets:
        for y in offsets:
            worst = max(worst, abs(pair_density(x, y) - pair_density_quadrature(x, y)))
    checks.append(
        _check(f"pair_density_vs_quadrature_{points_per_axis**2}pts", worst, 1e-9)
    )
    for k in (2, 3, 4):
        rel = abs(simplex_normalizer(k) - simplex_normalizer_quadrature(k))
        rel /= simplex_normalizer(k)
        checks.append(_check(f"simplex_normalizer_k{k}", rel, 1e-3))
    return checks


def marginal_suite(n: int, k: int, samples: int = 1_000_000, seed: int = 0) -> list[Check]:
    """Sampler marginals: per-coordinate KS distance against the closed-form
    CDF at the 99.9% critical value, plus the exact-sum property."""
    mode = sampled_mode(k)
    Scenario(mode, n, k, samples=samples, seed=seed, ks_stats=True).validate()
    draw, columns = marginal_draw(mode, n, k)
    table = ks_table(draw(RngStream(seed, 0), samples), MarginalSpec(n, k), columns)
    checks = [
        _check(f"ks_coordinate_{e['coordinate']}", e["distance"], e["threshold"])
        for e in table["entries"]
    ]
    checks.append(_check("max_sum_error", table["max_sum_error"], SUM_TOLERANCE))
    return checks


def position_suite(max_n: int = 12, max_k: int = 5) -> list[Check]:
    """Exact identities of the position-randomized solver, for every size
    in range: the best response's witness is feasible, and its expected
    wins and the undercut sequence's, on the matrix path, equal its
    reported value (weight_total - 1) / n**(k-1); and both sequences sit at
    the closed-form ``_adversary_places`` that ``estimate`` plays, which
    ``_place_wins`` scores at the matrix path's value."""
    formula_mismatches = undercut_mismatches = ladder_mismatches = 0
    placements = {n: (PermutationMarginals.identity(n), PermutationMarginals.uniform(n))
                  for n in range(2, max_n + 1)}
    for k in range(2, max_k + 1):
        for n in range(k, max_n + 1):
            opponents = initial_bids(n, k).as_sequence()
            response = best_response(n, k)
            witness = response.witness_sequence()
            scored = expected_wins_perm(k, witness, opponents, *placements[n])
            if not witness.is_feasible or scored != response.value:
                formula_mismatches += 1
            undercut = undercut_sequence(opponents)
            undercut_scored = expected_wins_perm(k, undercut, opponents, *placements[n])
            if undercut_scored != response.value:
                undercut_mismatches += 1
            places = _adversary_places(n)
            if (_ladder_places(witness.bids, n, k) != places or _ladder_places(undercut.bids, n, k) != places
                    or {scored, undercut_scored} != {_place_wins(k, n, places)}):
                ladder_mismatches += 1
    return [
        _check("best_response_formula_mismatches", formula_mismatches, 0),
        _check("undercut_value_mismatches", undercut_mismatches, 0),
        _check("ladder_scoring_mismatches", ladder_mismatches, 0),
    ]


def copycat_suite(n: int, k: int, samples: int = 1_000_000, seed: int = 0) -> list[Check]:
    """The copycat adversary's Monte Carlo mean sits within three standard
    errors of n/k."""
    result = copycat_value(MarginalSpec(n, k), samples=samples, seed=seed)
    return [_check(f"copycat_{n}_{k}_stderr_multiples", result.within, 3.0)]


def sequential_suite(n: int, k: int, trials: int = 2_000, seed: int = 0) -> list[Check]:
    """The steady strategy wins exactly n/k objects in every final state of
    the exact walk against randomized opponent scripts: the opponents' budgets
    cannot outbid it n - n/k + 1 times, and its own buys no more.

    The scripts come from ``RngStream(seed, 777)`` in blocks of whole trials
    cut by ``samplers._row_blocks``: one ``integers(0, 33, size=(block, k - 1,
    n))`` call per block of at most ``samplers.BLOCK`` amounts (one trial when
    a trial holds more) draws the same amounts as one call per script.  Each
    block, as integer tables in the units ``_unit_table`` finds for 1/32 and
    the steady bid, takes one ``_block_walk``, which refuses the block at its
    earliest round past one trial's exact-walk cap."""
    Scenario("sequential", n, k, samples=trials, seed=seed).validate()
    gen = RngStream(seed, 777).generator
    unit, table = _unit_table([(Fraction(1, 32),), steady_strategy(n, k)._script], n)
    sizes = [len(range(trials)[rows]) for rows in _row_blocks(trials, (k - 1) * n)]
    tables = np.empty((sizes[0], n, k), dtype=np.int64)
    tables[:, :, -1] = [bids[1] for bids in table]
    violations = 0
    for size in sizes:
        raws = gen.integers(0, 33, size=(size, k - 1, n))
        tables[:size, :, :-1] = raws.transpose(0, 2, 1) * (unit // 32)
        trial, wins = _block_walk(unit, tables[:size], k)
        violations += np.count_nonzero(np.bincount(trial[wins[:, -1] != n // k]))  # trials, not states
    return [_check(f"steady_floor_violations_{n}_{k}", violations, 0)]


# name -> suite, in the order "all" runs them; each entry looks its suite up
# by name at call time, so a replaced module attribute takes effect
SUITES = {
    "density": lambda n, k, samples, seed: density_suite(),
    "marginals": lambda n, k, samples, seed: marginal_suite(n, k, samples, seed),
    "position": lambda n, k, samples, seed: position_suite(),
    "copycat": lambda n, k, samples, seed: copycat_suite(n, k, samples, seed),
    "sequential": lambda n, k, samples, seed: sequential_suite(n, k, min(samples, 2_000), seed),
}


def run_suite(name: str, n: int = 4, k: int = 2, samples: int = 1_000_000, seed: int = 0) -> list[Check]:
    if name != "all" and name not in SUITES:
        raise ScenarioError(f"unknown suite {name!r}; choose {', '.join(SUITES)} or all")
    if samples < 1:
        raise ScenarioError("need at least one sample")
    names = SUITES if name == "all" else [name]
    # refuse a bad (n, k) before the other suites spend time, validating
    # the scenario each sampled suite runs
    sampled = sampled_mode(k)
    for suite, scenario in (
        ("marginals", Scenario(sampled, n, k, samples=samples, seed=seed, ks_stats=True)),
        ("copycat", Scenario(sampled, n, k, samples=samples, seed=seed)),
        ("sequential", Scenario("sequential", n, k, seed=seed)),
    ):
        if suite in names:
            scenario.validate()
    return [c for suite in names for c in SUITES[suite](n, k, samples, seed)]
