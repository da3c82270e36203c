"""Command-line front end: scenario configuration, execution and reporting.

Each subcommand's argparse options are its only settings.  ``--config``
reads a JSON object keyed by those options' names and makes it the
subcommand's defaults, so explicit flags override config values, which
override defaults; the AUCTIONLAB_SEED environment variable supplies the
default seed.  Reports go to stdout (or ``--out``); logs go to stderr.
Exit codes: 0 on success, 1 on a bad input (an ``errors.py`` type, a usage
error, an unreadable file or config), 2 on internal errors.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
import traceback
from dataclasses import asdict
from fractions import Fraction

import numpy as np

from ._version import VERSION
from .engine import as_fraction
from .errors import DomainError, InputError, ScenarioError, SizeLimitExceeded
from .harness import MODES, AdversaryPlan, Scenario, estimate, fraction_json
from .marginals import MarginalSpec, marginal_cdf, spread_density
from .position_randomized import best_response
from .verify import SUITES, run_suite

# Most steps a marginals grid may take: a report of about a megabyte.
MAX_GRID = 10_000


def _parse_amount(text) -> Fraction:
    """Exact amount from CLI/config text: decimals stay decimal-exact."""
    try:
        return as_fraction(text if isinstance(text, (int, Fraction)) else str(text))
    except DomainError:
        raise ScenarioError(f"invalid amount {text!r}") from None


def _parse_amounts(value) -> tuple[Fraction, ...]:
    """Amounts from comma-separated text or a config list."""
    parts = value if isinstance(value, list) else str(value).split(",")
    return tuple(_parse_amount(p) for p in parts if p != "")


def _parse_adversary(value) -> AdversaryPlan | None:
    """A plan from ``kind``, ``fixed:a1,a2,...`` or a config object
    {"kind", "bids"} whose bids without a kind mean fixed; None keeps the
    mode's default."""
    if value is None:
        return None
    if isinstance(value, dict):
        _refuse_unknown(value, ("bids", "kind"), "adversary keys")
        kind, bids = value.get("kind"), value.get("bids")
    else:
        kind, _, bids = str(value).partition(":")
    bids = None if bids in (None, "") else _parse_amounts(bids)
    kind = "fixed" if kind is None and bids is not None else kind
    if kind == "fixed" and not bids:
        raise ScenarioError("fixed adversary needs amounts, e.g. fixed:0.2,0.3")
    return None if kind is None else AdversaryPlan(kind, bids)


def _refuse_unknown(keys, allowed, what: str) -> None:
    unknown = set(keys) - set(allowed)
    if unknown:
        raise ScenarioError(f"unknown {what}: {sorted(unknown)}; allowed: {sorted(allowed)}")


def _config_defaults(parser: argparse.ArgumentParser, path: str) -> dict:
    """The JSON object at ``path`` as defaults for ``parser``'s options."""
    with open(path, "r", encoding="utf-8") as handle:
        config = json.load(handle)
    if not isinstance(config, dict):
        raise ScenarioError("config file must hold a JSON object")
    actions = {a.dest: a for a in parser._actions if a.dest not in ("help", "config")}
    _refuse_unknown(config, actions, f"config keys for {parser.prog}")
    return {key: _config_value(actions[key], value) for key, value in config.items()}


def _config_value(action: argparse.Action, raw):
    """Convert and check a config value as argparse does its flag's text,
    which a number becomes first (6 and "6" both read like ``--n 6``); null is refused."""
    try:
        if action.nargs == 0:  # a switch such as --ks takes true or false
            value, valid = raw, isinstance(raw, bool)
        else:
            value = raw if isinstance(raw, (dict, list)) else str(raw)
            if action.type is not None:
                value = action.type(value)
            valid = raw is not None and (action.choices is None or value in action.choices)
    except (TypeError, ValueError):
        valid = False
    if not valid:
        raise ScenarioError(f"config key {action.dest!r} has an invalid value: {raw!r}")
    return value


def _json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _csv(rows: list[list]) -> str:
    buffer = io.StringIO()
    csv.writer(buffer).writerows(rows)
    return buffer.getvalue()


def _render(args, forms: dict) -> None:
    """Write the ``--format`` form, built alone by its builder in ``forms``, to ``--out`` or stdout."""
    payload = forms[args.format]()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(payload)


def _cmd_simulate(args) -> int:
    if args.mode is None:
        raise ScenarioError("a mode is required (--mode or config)")
    scenario = Scenario(
        mode=args.mode,
        n=args.n,
        k=args.k,
        adversary=_parse_adversary(args.adversary),
        samples=args.samples,
        seed=args.seed,
        group_sizes=None if args.group_sizes is None else _parse_amounts(args.group_sizes),
        ks_stats=args.ks,
    )
    report = estimate(scenario)
    _render(args, {"json": lambda: _json(report.to_json_dict()),
                   "csv": lambda: _csv(report.to_csv_rows())})
    return 0


def _cmd_best_response(args) -> int:
    response = best_response(args.n, args.k)
    _render(args, {
        "text": lambda: f"best response value for n={args.n}, k={args.k}: "
                        f"{response.value} = {float(response.value)}\n"
                        f"witness multiset: {{{', '.join(str(b) for b in response.witness)}}}\n",
        "json": lambda: _json({"n": args.n, "k": args.k, "value": fraction_json(response.value),
                               "witness": [{"base": fraction_json(b.base), "eps": b.eps}
                                           for b in response.witness]}),
        "csv": lambda: _csv([["value_num", "value_den", "decimal"],
                             list(fraction_json(response.value).values())]),
    })
    return 0


def _cmd_marginals(args) -> int:
    if args.grid < 1:
        raise ScenarioError("the grid needs at least one step")
    if args.grid > MAX_GRID:
        raise SizeLimitExceeded(f"a grid of {args.grid:,} steps exceeds the {MAX_GRID:,}-step limit")
    spec = MarginalSpec(args.n, args.k)
    bs = np.linspace(0.0, 1.0, args.grid + 1)
    cdf = [{"b": float(b), "value": marginal_cdf(spec, float(b))} for b in bs]
    vs = np.linspace(0.0, 2.0 / 3.0, args.grid + 1)[:-1]
    spread = [{"v": float(v), "value": spread_density(float(v))} for v in vs]
    _render(args, {
        "json": lambda: _json({"spec": {"n": args.n, "k": args.k}, "cdf": cdf, "spread_density": spread}),
        "csv": lambda: _csv([["kind", "x", "value"]]
                            + [["cdf", r["b"], r["value"]] for r in cdf]
                            + [["spread_density", r["v"], r["value"]] for r in spread]),
    })
    return 0


def _cmd_verify(args) -> int:
    checks = run_suite(args.suite, n=args.n, k=args.k, samples=args.samples, seed=args.seed)
    passed = all(c.passed for c in checks)
    _render(args, {
        "text": lambda: "".join(f"{'PASS' if c.passed else 'FAIL'}  {c.name}: "
                                f"{c.value:.6g} (threshold {c.threshold:.6g})\n" for c in checks)
                        + f"suite {args.suite}: {'PASS' if passed else 'FAIL'}\n",
        "json": lambda: _json({"suite": args.suite, "checks": [asdict(c) for c in checks], "passed": passed}),
        "csv": lambda: _csv([["name", "value", "threshold", "passed"]]
                            + [[c.name, repr(c.value), repr(c.threshold), c.passed] for c in checks]),
    })
    return 0 if passed else 1


def _command(sub, name: str, func, help: str, formats=("json", "csv"), sampled=False):
    """A subcommand with the shared options, plus --samples and --seed if sampled."""
    p = sub.add_parser(name, help=help)
    p.add_argument("--n", type=int, default=4, help="number of objects")
    p.add_argument("--k", type=int, default=2, help="number of bidders")
    if sampled:
        p.add_argument("--samples", type=int, default=1_000_000, help="Monte Carlo draws")
        p.add_argument("--seed", type=int, help="base RNG seed (default: AUCTIONLAB_SEED, else 0)")
    p.add_argument("--format", choices=formats, default=formats[0])
    p.add_argument("--config", help="JSON object of these options' values; flags win")
    p.add_argument("--out", help="write the report to a file")
    p.set_defaults(func=func, parser=p)
    return p


def _adversary_help(modes) -> str:
    kinds = "; ".join(f"{mode}: {' | '.join(MODES[mode].kinds)}" for mode in modes)
    return f"adversary kind, the first listed is the default ({kinds}); fixed:a1,a2,... for fixed"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="auctionlab",
        description="Budget-constrained multi-object auction strategies: "
        "simulation, exact solving and statistical verification.",
    )
    parser.add_argument("--version", action="version", version=f"auctionlab {VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "simulate", _cmd_simulate, "run a scenario and report estimates",
                 sampled=True)
    p.add_argument("--mode", choices=MODES, help="scenario mode (required)")
    p.add_argument("--adversary", help=_adversary_help(MODES))
    p.add_argument("--group-sizes", help="comma-separated group sizes (group mode)")
    p.add_argument("--ks", action="store_true", help="include per-coordinate KS statistics")

    p = _command(sub, "sequential", _cmd_simulate,
                 "round-by-round auction against the steady strategy", sampled=True)
    p.add_argument("--adversary", help=_adversary_help(["sequential"]))
    p.set_defaults(mode="sequential", group_sizes=None, ks=False)

    _command(sub, "best-response", _cmd_best_response,
             "exact adversary optimum against the ladder", formats=("text", "json", "csv"))

    p = _command(sub, "marginals", _cmd_marginals,
                 "evaluate the closed-form CDF and densities on a grid")
    p.add_argument("--grid", type=int, default=20, help="grid resolution")

    p = _command(sub, "verify", _cmd_verify, "run a named verification suite",
                 formats=("text", "json", "csv"), sampled=True)
    p.add_argument("--suite", choices=(*SUITES, "all"), default="all")
    return parser


_shared_parser = functools.cache(build_parser)


def parse_args(argv=None) -> argparse.Namespace:
    """Parse ``argv``; a ``--config`` file's values become the subcommand's
    defaults, and a second parse lets the flags win.  A sampled command
    given no seed reads AUCTIONLAB_SEED.  The parser is built once per
    process, but a ``--config`` call builds its own to set defaults on."""
    args = _shared_parser().parse_args(argv)
    if args.config:
        parser = build_parser()
        args = parser.parse_args(argv)
        args.parser.set_defaults(**_config_defaults(args.parser, args.config))
        args = parser.parse_args(argv)
    if "seed" in vars(args) and args.seed is None:
        text = os.environ.get("AUCTIONLAB_SEED") or "0"
        try:
            args.seed = int(text)
        except ValueError:
            raise ScenarioError(f"AUCTIONLAB_SEED must be an integer, not {text!r}") from None
    return args


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse: --help, --version or a usage error
        return 0 if exc.code in (0, None) else 1
    except (InputError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
