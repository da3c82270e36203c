"""Spans around the calls into each auctionlab layer, taken from outside.

Nothing under ``src/`` changes: ``Tracer.install`` replaces the names that
the calling modules look up at call time (``harness.win_counts``,
``verify.marginal_suite``, ``auctionlab.estimate`` ...) with wrappers that
record a span (name, start, end, parent) and the counts named in
``PER_LAYER``.  Spans stay in memory and are written out when the run ends.

``marginal_cdf`` is called once per sample point, millions of times a
round, so it only gets a counter; ``marginals.cdf_s`` is the time spent in
the CDF callables handed to ``ks_distance``, which make those calls.
"""

from __future__ import annotations

import functools
import inspect
import io
import json
import re
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager, redirect_stdout

# name -> unit, for the traced run's output.  Times are per round (the
# median over the run's rounds); counts are per round and repeat exactly.
PER_LAYER = {
    "samplers.draw_s": "s",
    "samplers.rows": "count",
    "montecarlo.win_counts_s": "s",
    "montecarlo.cells": "count",
    "montecarlo.tally_add_s": "s",
    "montecarlo.peak_stack_mb": "MB-computed",
    "adversary.copycat_value_s": "s",
    "harness.estimate_self_s": "s",
    "harness.ks_distance_s": "s",
    "harness.ks_points": "count",
    "marginals.cdf_calls": "count",
    "marginals.cdf_s": "s",
    "verify.marginal_suite_s": "s",
    "verify.position_suite_s": "s",
    "verify.sequential_suite_s": "s",
    "cli.main_self_s": "s",
    "cli.stdout_bytes": "count",
    "position_randomized.best_response_s": "s",
    "position_randomized.expected_wins_perm_s": "s",
    "position_randomized.expected_wins_perm_calls": "count",
    "sequential.exact_s": "s",
    "sequential.sample_s": "s",
    "sequential.sample_trials": "count",
    "sequential.strategy_calls": "count",
}

# metric -> span whose summed duration it reports
SPAN_TOTALS = {
    "samplers.draw_s": "samplers.draw",
    "montecarlo.win_counts_s": "montecarlo.win_counts",
    "montecarlo.tally_add_s": "montecarlo.tally_add",
    "adversary.copycat_value_s": "adversary.copycat_value",
    "harness.ks_distance_s": "harness.ks_distance",
    "verify.marginal_suite_s": "verify.marginal_suite",
    "verify.position_suite_s": "verify.position_suite",
    "verify.sequential_suite_s": "verify.sequential_suite",
    "position_randomized.best_response_s": "position_randomized.best_response",
    "position_randomized.expected_wins_perm_s": "position_randomized.expected_wins_perm",
    "sequential.exact_s": "sequential.exact",
    "sequential.sample_s": "sequential.sample",
}

# metric -> span whose self time (duration minus its children) it reports
SPAN_SELF = {
    "harness.estimate_self_s": "harness.estimate",
    "cli.main_self_s": "cli.main",
}

# the one wall-clock field of a report: its digits vary between identical calls
_ELAPSED = re.compile(r'"elapsed_s": [-+0-9.eE]+')


def stdout_size(text: str) -> int:
    """Bytes of CLI output, without the digits of ``meta.elapsed_s``."""
    return len(_ELAPSED.sub('"elapsed_s": ', text).encode("utf-8"))


class Tracer:
    """In-memory span recorder.  ``round`` tags spans and counts with the
    benchmark round they belong to."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start_ns, end_ns, parent, round)
        self.counts: dict[int, dict] = defaultdict(lambda: defaultdict(int))
        self.peaks: dict[int, dict] = defaultdict(lambda: defaultdict(float))
        self.cdf_ns: dict[int, int] = defaultdict(int)
        self.cdf_calls = 0  # since the current round started
        self.round = 0
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # -- recording -------------------------------------------------------

    def start_round(self, rnd: int) -> None:
        self._flush()
        self.round = rnd

    def _flush(self) -> None:
        self.count("marginals.cdf_calls", self.cdf_calls)
        self.cdf_calls = 0

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[self.round][name] += amount

    def peak(self, name: str, value: float) -> None:
        bucket = self.peaks[self.round]
        bucket[name] = max(bucket[name], value)

    @contextmanager
    def span(self, name: str):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[span_id] = (span_id, name, start, end, parent, self.round)

    def wrap(self, name: str, func, before=None):
        """A wrapper that records a span named ``name`` around ``func``.
        ``before(arguments)`` gets the bound call arguments, may record
        counts from them and may return a different span name."""
        signature = inspect.signature(func) if before is not None else None

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span_name = name
            if before is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span_name = before(bound.arguments) or name
            with self.span(span_name):
                return func(*args, **kwargs)

        return traced

    def patch(self, module, attr: str, replacement) -> None:
        self._restore.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def uninstall(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every public call the workloads reach, at the name each
        caller looks up."""
        import auctionlab
        from auctionlab import adversary, cli, harness, verify
        from auctionlab.montecarlo import WinTally

        tracer = self

        def draw_rows(arguments):
            size = arguments.get("size")
            tracer.count("samplers.rows", 1 if size is None else int(size))

        def cells(arguments):
            base, eps = arguments.get("base"), arguments.get("eps")
            if base is None:
                return
            tracer.count("montecarlo.cells", int(base.size))
            nbytes = base.nbytes + (0 if eps is None else eps.nbytes)
            tracer.peak("montecarlo.peak_stack_mb", nbytes / 2**20)

        def ks_points(arguments):
            tracer.count("harness.ks_points", len(arguments.get("sample", ())))

        def perm_calls(arguments):
            tracer.count("position_randomized.expected_wins_perm_calls")

        def sequential_mode(arguments):
            if arguments.get("mode") == "sample":
                tracer.count("sequential.sample_trials")
                return "sequential.sample"
            return "sequential.exact"

        def counted_factory(factory):
            @functools.wraps(factory)
            def make(*args, **kwargs):
                strategy = factory(*args, **kwargs)

                @functools.wraps(strategy)
                def counted(view):
                    tracer.count("sequential.strategy_calls")
                    return strategy(view)

                return counted

            return make

        def counted_cdf(func):
            # the exact signature keeps the per-call cost near 0.2 us
            @functools.wraps(func)
            def cdf(spec, b):
                tracer.cdf_calls += 1
                return func(spec, b)

            return cdf

        def timed_ks(ks_distance):
            @functools.wraps(ks_distance)
            def ks(sample, cdf):
                def timed(values):
                    start = time.perf_counter_ns()
                    try:
                        return cdf(values)
                    finally:
                        tracer.cdf_ns[tracer.round] += time.perf_counter_ns() - start

                return ks_distance(sample, timed)

            return ks

        def stdout_counted(main):
            @functools.wraps(main)
            def counted(argv=None):
                buffer = io.StringIO()
                with redirect_stdout(buffer):
                    code = main(argv)
                text = buffer.getvalue()
                tracer.count("cli.stdout_bytes", stdout_size(text))
                sys.stdout.write(text)
                return code

            return counted

        class TracedWinTally(WinTally):
            def add(self, wins):
                with tracer.span("montecarlo.tally_add"):
                    return super().add(wins)

        def wrap_in(modules, attr, name, before=None):
            for module in modules:
                if hasattr(module, attr):
                    self.patch(module, attr, self.wrap(name, getattr(module, attr), before))

        callers = (auctionlab, adversary, cli, harness, verify)
        wrap_in(callers, "draw_two_bidder", "samplers.draw", draw_rows)
        wrap_in(callers, "draw_k_bidder", "samplers.draw", draw_rows)
        wrap_in(callers, "win_counts", "montecarlo.win_counts", cells)
        wrap_in(callers, "copycat_value", "adversary.copycat_value")
        wrap_in(callers, "estimate", "harness.estimate")
        for module in callers:
            if hasattr(module, "ks_distance"):
                self.patch(module, "ks_distance", self.wrap(
                    "harness.ks_distance", timed_ks(module.ks_distance), ks_points))
        wrap_in((verify,), "marginal_suite", "verify.marginal_suite")
        wrap_in((verify,), "position_suite", "verify.position_suite")
        wrap_in((verify,), "sequential_suite", "verify.sequential_suite")
        wrap_in((cli,), "run_suite", "verify.run_suite")
        self.patch(cli, "main", self.wrap("cli.main", stdout_counted(cli.main)))
        wrap_in(callers, "best_response", "position_randomized.best_response")
        wrap_in(callers, "expected_wins_perm", "position_randomized.expected_wins_perm", perm_calls)
        wrap_in(callers, "run_sequential", "sequential.exact", sequential_mode)
        for module in callers:
            for attr in ("steady_strategy", "scripted_strategy"):
                if hasattr(module, attr):
                    self.patch(module, attr, counted_factory(getattr(module, attr)))
            if hasattr(module, "marginal_cdf"):
                self.patch(module, "marginal_cdf", counted_cdf(module.marginal_cdf))
            if hasattr(module, "WinTally"):
                self.patch(module, "WinTally", TracedWinTally)

    # -- reduction -------------------------------------------------------

    def round_metrics(self, rnd: int, spans) -> dict:
        totals: dict[str, int] = defaultdict(int)
        child_ns: dict[int, int] = defaultdict(int)
        for span_id, name, start, end, parent, _ in spans:
            totals[name] += end - start
            if parent is not None:
                child_ns[parent] += end - start
        self_ns: dict[str, int] = defaultdict(int)
        for span_id, name, start, end, parent, _ in spans:
            self_ns[name] += end - start - child_ns[span_id]
        out = {}
        for metric, span in SPAN_TOTALS.items():
            out[metric] = totals[span] / 1e9
        for metric, span in SPAN_SELF.items():
            out[metric] = self_ns[span] / 1e9
        out["marginals.cdf_s"] = self.cdf_ns[rnd] / 1e9
        for metric, unit in PER_LAYER.items():
            if unit == "count":
                out[metric] = self.counts[rnd].get(metric, 0)
        out["montecarlo.peak_stack_mb"] = self.peaks[rnd].get("montecarlo.peak_stack_mb", 0.0)
        return out

    def metrics(self, rounds: list[int]) -> tuple[dict, list[str]]:
        """Per-layer metrics: the median over rounds of each round's value.
        Returns them with a list of counts that differ between rounds."""
        self._flush()
        by_round = defaultdict(list)
        for span in self.spans:
            by_round[span[5]].append(span)
        per_round = [self.round_metrics(r, by_round[r]) for r in rounds]
        out = {}
        unsteady = []
        for metric, unit in PER_LAYER.items():
            values = [m[metric] for m in per_round]
            if unit == "s":
                out[metric] = statistics.median(values)
            else:
                out[metric] = values[0]
                if any(v != values[0] for v in values):
                    unsteady.append(metric)
        return out, unsteady

    def write(self, path, header: dict) -> None:
        """Write every span, with the per-round counts, as one JSON file."""
        payload = dict(header)
        payload["span_fields"] = ["id", "name", "start_ns", "end_ns", "parent", "round"]
        payload["spans"] = self.spans
        payload["counts"] = {str(r): dict(c) for r, c in self.counts.items()}
        payload["marginal_cdf_ns"] = {str(r): ns for r, ns in self.cdf_ns.items()}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
