"""Command-line front end: scenario configuration, execution and reporting.

Reports go to stdout (or ``--out``); logs go to stderr.  Exit codes: 0 on
success, 1 on validation or usage errors, 2 on internal errors.  A default
seed may be supplied through the AUCTIONLAB_SEED environment variable;
explicit flags override config-file values, which override defaults.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import traceback
from fractions import Fraction

import numpy as np

from ._version import VERSION
from .errors import ScenarioError
from .harness import AdversaryPlan, Report, Scenario, estimate, fraction_json
from .marginals import MarginalSpec, marginal_cdf, spread_density
from .position_randomized import best_response
from .verify import SUITES, run_suite


def _parse_amount(text) -> Fraction:
    """Exact amount from CLI/config text: decimals stay decimal-exact."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    return Fraction(str(text))


def _parse_adversary(value) -> AdversaryPlan:
    if isinstance(value, dict):
        bids = value.get("bids")
        kind = value.get("kind", "copycat" if bids is None else "fixed")
        if bids is not None:
            return AdversaryPlan(kind, tuple(_parse_amount(b) for b in bids))
        return AdversaryPlan(kind)
    text = str(value)
    if text.startswith("fixed:"):
        parts = [p for p in text[len("fixed:"):].split(",") if p]
        if not parts:
            raise ScenarioError("fixed adversary needs amounts, e.g. fixed:0.2,0.3")
        return AdversaryPlan("fixed", tuple(_parse_amount(p) for p in parts))
    return AdversaryPlan(text)


CONFIG_KEYS = {
    "simulate": {"mode", "n", "k", "adversary", "samples", "seed", "group_sizes", "ks", "format", "out"},
    "sequential": {"n", "k", "adversary", "samples", "seed", "format", "out"},
    "best-response": {"n", "k", "format", "out"},
    "marginals": {"n", "k", "grid", "format", "out"},
    "verify": {"suite", "n", "k", "samples", "seed", "format", "out"},
}


def _load_config(path: str | None, command: str) -> dict:
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as handle:
        config = json.load(handle)
    if not isinstance(config, dict):
        raise ScenarioError("config file must hold a JSON object")
    unknown = set(config) - CONFIG_KEYS[command]
    if unknown:
        raise ScenarioError(
            f"unknown config keys for {command}: {sorted(unknown)}; "
            f"allowed: {sorted(CONFIG_KEYS[command])}"
        )
    return config


def _setting(args, config: dict, name: str, default):
    """Flag value if given, else config value, else default."""
    flag = getattr(args, name.replace("-", "_"), None)
    if flag is not None:
        return flag
    if name in config:
        return config[name]
    return default


def _default_seed() -> int:
    env = os.environ.get("AUCTIONLAB_SEED")
    return int(env) if env else 0


def _emit(args, config: dict, payload: str) -> None:
    out = _setting(args, config, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(payload)
        print(f"wrote {out}", file=sys.stderr)
    else:
        sys.stdout.write(payload)
        if not payload.endswith("\n"):
            sys.stdout.write("\n")


def _csv_text(rows: list[list]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerows(rows)
    return buffer.getvalue()


def _report_payload(report: Report, fmt: str) -> str:
    if fmt == "csv":
        return _csv_text(report.to_csv_rows())
    return json.dumps(report.to_json_dict(), indent=2)


def _build_scenario(args, config: dict) -> Scenario:
    mode = _setting(args, config, "mode", None)
    if mode is None:
        raise ScenarioError("a mode is required (--mode or config)")
    n = _setting(args, config, "n", None)
    if n is None:
        raise ScenarioError("the object count is required (--n or config)")
    adversary = _setting(args, config, "adversary", None)
    group_sizes = _setting(args, config, "group_sizes", None)
    if isinstance(group_sizes, str):
        group_sizes = [p for p in group_sizes.split(",") if p]
    return Scenario(
        mode=str(mode),
        n=int(n),
        k=int(_setting(args, config, "k", 2)),
        adversary=_parse_adversary(adversary)
        if adversary
        else AdversaryPlan("steady" if mode == "sequential" else "copycat"),
        samples=int(_setting(args, config, "samples", 1_000_000)),
        seed=int(_setting(args, config, "seed", _default_seed())),
        group_sizes=None
        if group_sizes is None
        else tuple(_parse_amount(s) for s in group_sizes),
        ks_stats=bool(_setting(args, config, "ks", False)),
    )


def _cmd_simulate(args) -> int:
    config = _load_config(args.config, args.command)
    scenario = _build_scenario(args, config)
    report = estimate(scenario)
    fmt = _setting(args, config, "format", "json")
    _emit(args, config, _report_payload(report, fmt))
    return 0


def _cmd_best_response(args) -> int:
    config = _load_config(args.config, "best-response")
    n = int(_setting(args, config, "n", 4))
    k = int(_setting(args, config, "k", 2))
    response = best_response(n, k)
    fmt = _setting(args, config, "format", "text")
    if fmt == "json":
        payload = json.dumps(
            {
                "n": n,
                "k": k,
                "value": fraction_json(response.value),
                "witness": [
                    {"base": fraction_json(b.base), "eps": b.eps}
                    for b in response.witness
                ],
            },
            indent=2,
        )
    elif fmt == "csv":
        rows = [["value_num", "value_den", "decimal"]]
        rows.append(
            [
                response.value.numerator,
                response.value.denominator,
                format(float(response.value), ".17g"),
            ]
        )
        payload = _csv_text(rows)
    else:
        witness = ", ".join(str(b) for b in response.witness)
        payload = (
            f"best response value for n={n}, k={k}: "
            f"{response.value} = {float(response.value)}\n"
            f"witness multiset: {{{witness}}}\n"
        )
    _emit(args, config, payload)
    return 0


def _cmd_marginals(args) -> int:
    config = _load_config(args.config, "marginals")
    n = int(_setting(args, config, "n", 4))
    k = int(_setting(args, config, "k", 2))
    grid = int(_setting(args, config, "grid", 20))
    spec = MarginalSpec(n, k)
    bs = np.linspace(0.0, 1.0, grid + 1)
    cdf_rows = [{"b": float(b), "value": marginal_cdf(spec, float(b))} for b in bs]
    vs = np.linspace(0.0, 2.0 / 3.0, grid + 1)[:-1]
    spread_rows = [{"v": float(v), "value": spread_density(float(v))} for v in vs]
    fmt = _setting(args, config, "format", "json")
    if fmt == "csv":
        rows = [["kind", "x", "value"]]
        rows += [["cdf", r["b"], r["value"]] for r in cdf_rows]
        rows += [["spread_density", r["v"], r["value"]] for r in spread_rows]
        payload = _csv_text(rows)
    else:
        payload = json.dumps(
            {
                "spec": {"n": n, "k": k},
                "cdf": cdf_rows,
                "spread_density": spread_rows,
            },
            indent=2,
        )
    _emit(args, config, payload)
    return 0


def _cmd_verify(args) -> int:
    config = _load_config(args.config, "verify")
    suite = _setting(args, config, "suite", "all")
    n = int(_setting(args, config, "n", 4))
    k = int(_setting(args, config, "k", 2))
    samples = int(_setting(args, config, "samples", 1_000_000))
    seed = int(_setting(args, config, "seed", _default_seed()))
    checks = run_suite(suite, n=n, k=k, samples=samples, seed=seed)
    all_passed = all(c.passed for c in checks)
    fmt = _setting(args, config, "format", "text")
    if fmt == "json":
        payload = json.dumps(
            {
                "suite": suite,
                "checks": [
                    {
                        "name": c.name,
                        "value": c.value,
                        "threshold": c.threshold,
                        "passed": c.passed,
                    }
                    for c in checks
                ],
                "passed": all_passed,
            },
            indent=2,
        )
    elif fmt == "csv":
        rows = [["name", "value", "threshold", "passed"]]
        rows += [[c.name, repr(c.value), repr(c.threshold), c.passed] for c in checks]
        payload = _csv_text(rows)
    else:
        lines = [
            f"{'PASS' if c.passed else 'FAIL'}  {c.name}: "
            f"{c.value:.6g} (threshold {c.threshold:.6g})"
            for c in checks
        ]
        lines.append(f"suite {suite}: {'PASS' if all_passed else 'FAIL'}")
        payload = "\n".join(lines) + "\n"
    _emit(args, config, payload)
    return 0 if all_passed else 1


def _add_common(parser: argparse.ArgumentParser, formats=("json", "csv")) -> None:
    parser.add_argument("--n", type=int, default=None, help="number of objects")
    parser.add_argument("--k", type=int, default=None, help="number of bidders")
    parser.add_argument("--samples", type=int, default=None, help="Monte Carlo draws")
    parser.add_argument("--seed", type=int, default=None, help="base RNG seed")
    parser.add_argument("--format", choices=formats, default=None)
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--out", default=None, help="write the report to a file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="auctionlab",
        description="Budget-constrained multi-object auction strategies: "
        "simulation, exact solving and statistical verification.",
    )
    parser.add_argument("--version", action="version", version=f"auctionlab {VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a scenario and report estimates")
    _add_common(p)
    p.add_argument("--mode", default=None, help="two-bidder | k-bidder | position-randomized | sequential | group")
    p.add_argument("--adversary", default=None, help="copycat | undercut | dp-optimal | steady | fixed:a1,a2,...")
    p.add_argument("--group-sizes", dest="group_sizes", default=None, help="comma-separated group sizes")
    p.add_argument("--ks", action="store_const", const=True, default=None, help="include per-coordinate KS statistics")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sequential", help="round-by-round auction against the steady strategy")
    _add_common(p)
    p.add_argument("--adversary", default=None, help="steady (default) | fixed:a1,a2,...")
    p.set_defaults(func=_cmd_simulate, mode="sequential")

    p = sub.add_parser("best-response", help="exact adversary optimum against the ladder")
    _add_common(p, formats=("text", "json", "csv"))
    p.set_defaults(func=_cmd_best_response)

    p = sub.add_parser("marginals", help="evaluate the closed-form CDF and densities on a grid")
    _add_common(p)
    p.add_argument("--grid", type=int, default=None, help="grid resolution")
    p.set_defaults(func=_cmd_marginals)

    p = sub.add_parser("verify", help="run a named verification suite")
    _add_common(p, formats=("text", "json", "csv"))
    p.add_argument("--suite", choices=(*SUITES, "all"), default=None)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (ScenarioError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
