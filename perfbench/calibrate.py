"""Reference kernels, timed next to every measured operation.

The benchmark shares its two cores with other tenants of the host.  Their
load slows every instruction stream here, and it moves within seconds and
over minutes: one ks_verify round took 1.3 s and, minutes later, 2.8 s
with nothing changed (README.md has the figures).  Raw times cannot hold a
bound below 25% under that.

A kernel here does the kind of work a workload's hot path does, and none
of auctionlab, so its time tracks how fast the machine is for that work at
the moment.  Each operation's time is divided by its workload's kernel
time around it and multiplied by ``NOMINAL_WALL_S``, the kernel's time in
a quiet spell: what the operation would have taken there.  Python-level
code and memory-bound numpy code slow down by different factors under the
same neighbours, so each workload gets the kernel shaped like its own
work.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

# each kernel's wall (= CPU) time in a quiet spell on this machine, Python
# 3.11.7 / numpy 2.4.6 on 2 vCPUs at 2 GHz: a fixed unit, never re-measured
NOMINAL_WALL_S = 0.020

# set-up time is scaled the same way by the time a fresh interpreter takes
# to import numpy, measured before and after each set-up
NOMINAL_IMPORT_S = 0.15


class _Spec:
    __slots__ = ("n", "k")

    def __init__(self, n: int, k: int):
        self.n, self.k = n, k


def _cdf(spec: _Spec, b: float) -> float:
    b = float(b)
    if b < 0.0 or b > 1.0:
        raise ValueError(b)
    if b >= spec.k / spec.n:
        return 1.0
    return ((spec.n / spec.k) * b) ** (1.0 / (spec.k - 1))


def _resolve(stack: np.ndarray) -> int:
    top = stack.max(axis=0)
    at_top = stack == top
    order = np.cumsum(at_top, axis=0)
    return int((at_top & (order == 1)).sum())


def python_mix():
    """Python-level calls with float powers, Fraction arithmetic and a
    little numpy: the shape of ks_verify and exact_solve."""
    points = [i * 4e-6 for i in range(40_000)]
    values = np.random.default_rng(0).random(200_000)
    stack = np.random.default_rng(1).random((3, 8_192, 8))

    def kernel() -> float:
        spec = _Spec(6, 3)
        total = sum(_cdf(spec, b) for b in points)
        acc = Fraction(0)
        for i in range(1, 400):
            acc += Fraction(i, i + 7)
        ranks = np.cumsum(np.sort(values) > 0.5)
        return total + float(acc) + float(ranks[-1]) + _resolve(stack)

    return kernel


def numpy_chunk():
    """Top-bid resolution over one 65,536-row stack: the shape of mc_play."""
    stack = np.random.default_rng(2).random((3, 65_536, 6))
    return lambda: float(_resolve(stack))


KERNELS = {"mc_play": numpy_chunk, "ks_verify": python_mix, "exact_solve": python_mix}


class Reference:
    """The workload's kernel, built once; ``measure()`` runs it once and
    returns its wall and CPU seconds."""

    def __init__(self, workload: str):
        self._kernel = KERNELS[workload]()

    def measure(self) -> tuple[float, float]:
        wall, cpu = time.perf_counter(), time.process_time()
        self._kernel()
        return time.perf_counter() - wall, time.process_time() - cpu
