"""The three workloads: their inputs, made from the seed, and their checks.

A workload is a list of operations.  A round runs each once, in order,
closed loop: each call starts when the previous one returns.  Every round
repeats the same operations on the same inputs, so a run of any length
attempts whole rounds and the share of failed operations cannot depend on
it.  ``run`` is timed; ``check`` runs after the measured rounds and returns
the problems the independent oracles found (none means the output passed).

The library is reached through module attributes (``al.estimate``,
``cli.main`` ...) looked up at call time, so the tracer's wrappers see every
call.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

import oracles

# Monte Carlo sizes: four 65,536-row chunks per estimate in mc_play; one
# 200,000-row block per KS table in ks_verify.
MC_SAMPLES = 1 << 18
KS_SAMPLES = 200_000
DETERMINISM_SAMPLES = 1 << 14

# Exact-path sizes: with auctionlab 0.1.0 each solve takes a few tenths of
# a second and best_response about one.  Larger exact sizes are left out;
# see the FOUND lines in CHANGES.md.
SEQUENTIAL_ESTIMATE = (6, 3, 2_000)  # n, k, sampled trials
STEADY_GRID = ((12, 2), (9, 3))
BEST_RESPONSE = (36, 5)
SEQUENTIAL_SUITE = (4, 2, 2_000)  # n, k, random opponent scripts


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]


def _seeds(seed: int, tag: int, count: int) -> list[int]:
    gen = np.random.default_rng([seed, tag])
    return [int(s) for s in gen.integers(0, 2**31, size=count)]


def _capped_split(n: int, k: int, gen: np.random.Generator) -> list[Fraction]:
    """A random exact split of the unit budget with every amount <= k/n."""
    while True:
        weights = [int(w) for w in gen.integers(0, 51, size=n)]
        total = sum(weights)
        if total == 0:
            continue
        amounts = [Fraction(w, total) for w in weights]
        if oracles.saturating_capped(amounts, n, k):
            return amounts


def _report_problems(label: str, report, exact, target, n: int) -> list:
    """A Report's exact values, bidder 0's estimate against ``target`` and
    the means' total."""
    problems = oracles.check_exact(label, report.exact, exact)
    if not report.estimates:
        return problems + [f"{label}: no estimates"]
    first = report.estimates[0]
    problems += oracles.check_estimate(label, first.mean, first.stderr, target)
    problems += oracles.check_total(label, [e.mean for e in report.estimates], n)
    return problems


def _n_over_k_each(n: int, k: int) -> tuple:
    return (oracles.game_value(n, k),) * k


def _position_exact(n: int, k: int) -> tuple:
    value = oracles.best_response_value(n, k)
    return (value,) + ((Fraction(n) - value) / (k - 1),) * (k - 1)


def _determinism(label: str, run_once: Callable[[], object], check_first):
    """An operation that runs a small scenario twice; both results, and
    those of every later round, must be bit-identical to the first."""
    first: list = []

    def run():
        return run_once(), run_once()

    def check(output):
        a, b = output
        if not first:
            first.append(a)
            problems = check_first(a)
        else:
            problems = []
        if a != b or a != first[0]:
            problems.append(f"{label}: repeated same-seed results differ")
        return problems

    return Op(label, run, check)


# -- mc_play ---------------------------------------------------------------


def mc_play(seed: int) -> list[Op]:
    import auctionlab as al

    s = _seeds(seed, 1, 6)
    split = _capped_split(8, 2, np.random.default_rng([seed, 2]))

    def scenario(mode, n, k, adversary, sub_seed, samples=MC_SAMPLES):
        return al.Scenario(mode, n, k, adversary=adversary, samples=samples, seed=sub_seed)

    odd = scenario("two-bidder", 5, 2, al.AdversaryPlan("copycat"), s[0])
    fixed = scenario("two-bidder", 8, 2, al.AdversaryPlan.fixed(split), s[1])
    gamma = scenario("k-bidder", 6, 3, al.AdversaryPlan("copycat"), s[2])
    ties = scenario("position-randomized", 8, 3, al.AdversaryPlan("undercut"), s[3])
    small = scenario("position-randomized", 5, 2, al.AdversaryPlan("undercut"), s[5],
                     DETERMINISM_SAMPLES)
    copycat_spec = al.MarginalSpec(9, 2)

    def estimate_op(label, sc, exact, target):
        return Op(label, lambda: al.estimate(sc),
                  lambda r: _report_problems(label, r, exact, target, sc.n))

    def copycat_check(result):
        label = "copycat_value_9_2"
        problems = oracles.check_exact(label, (result.expected,), (Fraction(9, 2),))
        return problems + oracles.check_estimate(label, result.mean, result.stderr, Fraction(9, 2))

    return [
        estimate_op("two_bidder_odd_5", odd, _n_over_k_each(5, 2), Fraction(5, 2)),
        estimate_op("two_bidder_even_8_fixed", fixed, _n_over_k_each(8, 2), Fraction(4)),
        estimate_op("k_bidder_6_3_copycat", gamma, _n_over_k_each(6, 3), Fraction(2)),
        estimate_op("position_8_3_undercut", ties, _position_exact(8, 3),
                    oracles.best_response_value(8, 3)),
        Op("copycat_value_9_2",
           lambda: al.copycat_value(copycat_spec, samples=MC_SAMPLES, seed=s[4]),
           copycat_check),
        _determinism(
            "determinism_position_5_2",
            lambda: al.estimate(small).estimates,
            lambda est: oracles.check_estimate(
                "determinism_position_5_2", est[0].mean, est[0].stderr,
                oracles.best_response_value(5, 2)),
        ),
    ]


# -- ks_verify ---------------------------------------------------------------


def _cli(argv: list[str]) -> tuple[int, str]:
    from auctionlab import cli

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


def _same_draws(n: int, k: int, samples: int, seed: int) -> np.ndarray:
    """The block ``verify --suite marginals`` draws: stream 0 of its seed."""
    from auctionlab import samplers

    rng = samplers.RngStream(seed, 0)
    if k == 2:
        return samplers.draw_two_bidder(n, rng, size=samples)
    return samplers.draw_k_bidder(n, k, rng, size=samples)


def _verify_marginals_op(n: int, k: int, seed: int) -> Op:
    label = f"verify_marginals_{n}_{k}"
    argv = ["verify", "--suite", "marginals", "--n", str(n), "--k", str(k),
            "--samples", str(KS_SAMPLES), "--seed", str(seed), "--format", "json"]
    expected: dict = {}

    def check(output):
        code, text = output
        if not expected:
            draws = _same_draws(n, k, KS_SAMPLES, seed)
            expected["ks"] = [oracles.ks_variants(draws[:, c], n, k) for c in range(n)]
            expected["sum"] = oracles.row_sum_error(draws)
        payload = json.loads(text)
        rows = {c["name"]: c for c in payload["checks"]}
        problems = []
        if set(rows) != {f"ks_coordinate_{c}" for c in range(n)} | {"max_sum_error"}:
            problems.append(f"{label}: unexpected check names {sorted(rows)}")
            return problems
        for c in range(n):
            row = rows[f"ks_coordinate_{c}"]
            problems += oracles.check_ks_entry(
                f"{label}[{c}]", row["value"], row["threshold"], row["passed"],
                KS_SAMPLES, expected["ks"][c])
        problems += oracles.check_sum_error(label, rows["max_sum_error"]["value"], expected["sum"])
        all_passed = all(r["passed"] for r in rows.values())
        if payload["passed"] != all_passed or code != (0 if all_passed else 1):
            problems.append(f"{label}: exit {code} / passed {payload['passed']} disagree with the checks")
        return problems

    return Op(label, lambda: _cli(argv), check)


def _simulate_ks_op(n: int, seed: int) -> Op:
    """simulate --ks draws in chunks inside the harness, so its KS rows are
    checked against the threshold and the 2x sanity bound, not recomputed."""
    label = f"simulate_ks_two_bidder_{n}"
    argv = ["simulate", "--mode", "two-bidder", "--n", str(n), "--samples", str(KS_SAMPLES),
            "--seed", str(seed), "--ks", "--format", "json"]

    def check(output):
        code, text = output
        if code != 0:
            return [f"{label}: exit {code}"]
        payload = json.loads(text)
        value = oracles.game_value(n, 2)
        exact = tuple(Fraction(e["num"], e["den"]) for e in payload["exact"])
        problems = oracles.check_exact(label, exact, (value, value))
        est = payload["estimates"]
        problems += oracles.check_estimate(label, est[0]["mean"], est[0]["stderr"], value)
        problems += oracles.check_total(label, [e["mean"] for e in est], n)
        ks = payload["statistics"]["ks"]
        if len(ks["entries"]) != n:
            return problems + [f"{label}: {len(ks['entries'])} KS rows, not {n}"]
        for row in ks["entries"]:
            problems += oracles.check_ks_entry(
                f"{label}[{row['coordinate']}]", row["distance"], row["threshold"],
                row["passed"], KS_SAMPLES)
        problems += oracles.check_sum_error(label, ks["max_sum_error"])
        return problems

    return Op(label, lambda: _cli(argv), check)


def _without_elapsed(text: str) -> dict:
    payload = json.loads(text)
    payload["meta"].pop("elapsed_s", None)
    return payload


def ks_verify(seed: int) -> list[Op]:
    from auctionlab import cli  # noqa: F401  (the CLI's imports are set-up)

    s = _seeds(seed, 3, 4)
    small = ["simulate", "--mode", "position-randomized", "--n", "5", "--k", "2",
             "--adversary", "undercut", "--samples", str(DETERMINISM_SAMPLES),
             "--seed", str(s[3]), "--format", "json"]

    def small_run():
        code, text = _cli(small)
        return code, _without_elapsed(text) if code == 0 else text

    def small_check(result):
        code, payload = result
        if code != 0:
            return [f"determinism_cli_position_5_2: exit {code}"]
        est = payload["estimates"][0]
        return oracles.check_estimate("determinism_cli_position_5_2", est["mean"],
                                      est["stderr"], oracles.best_response_value(5, 2))

    return [
        _verify_marginals_op(5, 2, s[0]),
        _verify_marginals_op(6, 3, s[1]),
        _simulate_ks_op(7, s[2]),
        _determinism("determinism_cli_position_5_2", small_run, small_check),
    ]


# -- exact_solve -------------------------------------------------------------


def exact_solve(seed: int) -> list[Op]:
    import auctionlab as al
    from auctionlab import verify

    s = _seeds(seed, 4, 2)
    n, k, trials = SEQUENTIAL_ESTIMATE
    steady = al.Scenario("sequential", n, k, adversary=al.AdversaryPlan("steady"),
                         samples=trials, seed=s[0])

    def steady_run(n, k):
        return al.run_sequential([al.steady_strategy(n, k) for _ in range(k)], n, k, mode="exact")

    def steady_check(label, n, k):
        def check(values):
            problems = oracles.check_exact(label, values, _n_over_k_each(n, k))
            if sum(values) != n:
                problems.append(f"{label}: exact total {sum(values)} != {n}")
            return problems
        return check

    bn, bk = BEST_RESPONSE

    def best_check(response):
        label = f"best_response_{bn}_{bk}"
        value = oracles.best_response_value(bn, bk)
        problems = oracles.check_exact(label, (response.value,), (value,))
        return problems + oracles.check_witness(label, response.witness, bn, bk, value)

    sn, sk, strials = SEQUENTIAL_SUITE
    ops = [
        Op(f"sequential_estimate_{n}_{k}", lambda: al.estimate(steady),
           lambda r: _report_problems(f"sequential_estimate_{n}_{k}", r,
                                      _n_over_k_each(n, k), Fraction(n, k), n)),
    ]
    for gn, gk in STEADY_GRID:
        label = f"steady_exact_{gn}_{gk}"
        ops.append(Op(label, lambda gn=gn, gk=gk: steady_run(gn, gk), steady_check(label, gn, gk)))
    ops += [
        Op(f"best_response_{bn}_{bk}", lambda: al.best_response(bn, bk), best_check),
        Op("position_suite", lambda: verify.position_suite(),
           lambda checks: oracles.check_zero_checks("position_suite", checks)),
        Op(f"sequential_suite_{sn}_{sk}",
           lambda: verify.sequential_suite(sn, sk, strials, s[1]),
           lambda checks: oracles.check_zero_checks(f"sequential_suite_{sn}_{sk}", checks)),
    ]
    return ops


WORKLOADS = {"mc_play": mc_play, "ks_verify": ks_verify, "exact_solve": exact_solve}
