"""One workload process: set up, run whole rounds for the measured time,
then check every output.  Started by ``run.py``; prints one JSON object.

With ``--setup-only`` it stops where the first timed call would start and
prints only that moment, on the system-wide monotonic clock, so the parent
can time set-up from the moment it launched this process.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()

    import auctionlab

    source = Path(os.environ["AUCTIONLAB_BENCH_SRC"]).resolve()
    if source not in Path(auctionlab.__file__).resolve().parents:
        print(f"auctionlab imported from {auctionlab.__file__}, not {source}", file=sys.stderr)
        return 2

    import workloads

    ops = workloads.WORKLOADS[args.workload](args.seed)
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    first_call = time.monotonic()
    if args.setup_only:
        print(json.dumps({"first_call": first_call}))
        return 0

    from calibrate import Reference

    reference = Reference(args.workload)
    outputs = []  # per round: one (output or exception text, raised) per op
    walls, cpus, refs = [], [], []  # per round, per operation
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < args.seconds:
        if tracer is not None:
            tracer.start_round(len(walls))
        results = []
        op_wall, op_cpu = [], []
        ref = [reference.measure()]
        for op in ops:
            wall0, cpu0 = time.perf_counter(), time.process_time()
            try:
                results.append((op.run(), False))
            except Exception as exc:  # a raising operation counts as failed
                results.append((f"{op.name}: {type(exc).__name__}: {exc}", True))
            op_wall.append(time.perf_counter() - wall0)
            op_cpu.append(time.process_time() - cpu0)
            ref.append(reference.measure())
        walls.append(op_wall)
        cpus.append(op_cpu)
        refs.append(ref)
        outputs.append(results)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers, unsteady = tracer.metrics(list(range(len(walls))))
        for metric in unsteady:
            print(f"warning: count {metric} differs between rounds", file=sys.stderr)
        if args.trace_out:
            tracer.write(args.trace_out, {"workload": args.workload, "seed": args.seed,
                                          "op_walls_s": walls})

    failed = 0
    problems: list[str] = []
    for results in outputs:
        for op, (output, raised) in zip(ops, results):
            if raised:
                found = [output]
            else:
                try:
                    found = op.check(output)
                except Exception as exc:  # output the oracle cannot even read
                    found = [f"{op.name}: unreadable output: {type(exc).__name__}: {exc}"]
            if found:
                failed += 1
                problems.extend(found)
    for line in dict.fromkeys(problems):
        print(f"failed: {line}", file=sys.stderr)

    print(json.dumps({
        "first_call": first_call,
        "rounds": len(walls),
        "walls": walls,
        "cpus": cpus,
        "refs": refs,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(walls) * len(ops),
        "failed": failed,
        "raised": sum(raised for results in outputs for _, raised in results),
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
