"""auctionlab benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload mc_play --seed 1 --seconds 25 --trace 0

Run from the repository root (the library is imported from ``src/``).
``--trace 0`` prints the end-to-end metrics: setup_s, wall_s, cpu_s and
peak_rss_mb.  ``--trace 1`` repeats the same rounds with spans around every
layer call and prints the per-layer metrics instead; the spans go to
``perfbench/out/``.  The last stdout line is the JSON result; the lines
above it are a readable summary.  See README.md for the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
from workloads import WORKLOADS

# set-up is timed this many times per run, in fresh processes, plus once in
# the measured process; the median is reported
SETUP_PROBES = 6

# every child must end before the run's 180 s limit
DEADLINE_S = 170.0

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SOURCE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["AUCTIONLAB_BENCH_SRC"] = str(SOURCE)
    # one process, no extra threads: numpy's BLAS pools stay single-threaded
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _launch(args, extra: list[str], started: float) -> tuple[dict, float]:
    """Run worker.py to completion; return its JSON result and the moment
    (system-wide monotonic clock) just before it was launched."""
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)] + extra
    timeout = DEADLINE_S - (time.monotonic() - started)
    if timeout <= 0:
        raise RuntimeError("out of time before launching the workload process")
    launched = time.monotonic()
    done = subprocess.run(argv, env=_child_env(), stdout=subprocess.PIPE,
                          text=True, timeout=timeout)
    if done.returncode != 0:
        raise RuntimeError(f"workload process exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1]), launched


def _import_reference(started: float) -> float:
    """Seconds to start the interpreter and import numpy, in a fresh
    process: the reference for set-up time."""
    timeout = DEADLINE_S - (time.monotonic() - started)
    launched = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-c", "import numpy, time; print(time.monotonic())"],
        env=_child_env(), stdout=subprocess.PIPE, text=True, check=True,
        timeout=max(timeout, 1.0))
    return float(done.stdout) - launched


def _scaled_round(times, refs, column: int) -> float:
    """Median over rounds of the round's time at quiet-machine speed: each
    operation's time times NOMINAL_WALL_S over the mean of the reference
    kernel's times just before and just after it (column 0 wall, 1 CPU)."""
    rounds = []
    for op_times, ref in zip(times, refs):
        rounds.append(sum(
            t * calibrate.NOMINAL_WALL_S / ((before[column] + after[column]) / 2)
            for t, before, after in zip(op_times, ref, ref[1:])
        ))
    return statistics.median(rounds)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()

    if not (SOURCE / "auctionlab" / "__init__.py").is_file():
        print(f"error: no auctionlab sources under {SOURCE}", file=sys.stderr)
        return 2

    try:
        if args.trace:
            out_dir = HERE / "out"
            out_dir.mkdir(exist_ok=True)
            trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
            result, _ = _launch(args, ["--trace-out", str(trace_path)], started)
        else:
            _launch(args, ["--setup-only"], started)  # warm the bytecode and file caches
            setups, setup_refs = [], [_import_reference(started)]
            for _ in range(SETUP_PROBES):
                probe, launched = _launch(args, ["--setup-only"], started)
                setups.append(probe["first_call"] - launched)
                setup_refs.append(_import_reference(started))
            result, launched = _launch(args, [], started)
            setups.append(result["first_call"] - launched)
            setup_refs.append(_import_reference(started))
    except (RuntimeError, subprocess.SubprocessError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        from spans import PER_LAYER

        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
        print(f"{args.workload} seed {args.seed} traced: {result['rounds']} rounds, "
              f"wall_s {_scaled_round(result['walls'], result['refs'], 0):.6f} s "
              f"(unscaled {statistics.median(map(sum, result['walls'])):.6f} s); "
              f"spans in {trace_path.relative_to(ROOT)}")
    else:
        scaled_setups = [
            setup * calibrate.NOMINAL_IMPORT_S / ((before + after) / 2)
            for setup, before, after in zip(setups, setup_refs, setup_refs[1:])
        ]
        metrics = {
            "setup_s": {"value": statistics.median(scaled_setups), "unit": "s"},
            "wall_s": {"value": _scaled_round(result["walls"], result["refs"], 0), "unit": "s"},
            "cpu_s": {"value": _scaled_round(result["cpus"], result["refs"], 1), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
        print(f"{args.workload} seed {args.seed}: {result['rounds']} rounds, "
              f"{len(setups)} set-ups; unscaled medians: "
              f"wall_s {statistics.median(map(sum, result['walls'])):.6f} s, "
              f"setup_s {statistics.median(setups):.6f} s")
        print("  raw " + json.dumps({"walls": result["walls"], "cpus": result["cpus"],
                                     "refs": result["refs"], "setups": setups,
                                     "setup_refs": setup_refs}))
    for name, metric in metrics.items():
        print(f"  {name:46s} {metric['value']:>14.6f} {metric['unit']}")
    print(f"  attempted {result['attempted']}, failed {result['failed']}")

    wrong = result["failed"] - result["raised"]
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
