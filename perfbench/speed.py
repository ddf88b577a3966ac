"""A fixed reference computation that tracks the speed of the machine.

The benchmark runs on shared hosts whose speed drifts by 1.3-1.7x for tens
of seconds at a time, while the benchmark process itself gets no less CPU
time (``thread_time`` and wall time agree, and the host reports no steal).
A run-level median of raw wall times follows that drift, so ``run.py`` times
this computation after every operation and divides the operation's wall
time by the machine's slow-down at that moment:

    normalised_s = wall_s / factor,  factor = mean over kernels of
                   (kernel time now / kernel time on a nominal machine)

where "now" is the mean of the probe before and the probe after the
operation.  The kernels use nothing from ``minkbill``, so a change to the
program moves ``wall_s`` and leaves ``factor`` alone; the normalised value
is the operation's time on the nominal machine.  Six kernels cover the
kinds of work ``minkbill`` does: integer bytecode, float arithmetic through
attribute access and calls, small numpy calls (call overhead bound), numpy
calls on a 256-row array, and two with a larger memory and code footprint
(sorting boxed floats scattered over the heap; compiling Python source),
because a tight loop alone slows down less than the program when the host
is busy.  Their objects are freed before they return, so the program's
heap does not change their time.

``NOMINAL_S`` holds each kernel's median time on the machine where the
benchmark was defined (2-vCPU Intel Xeon VM at 2.0 GHz, Python 3 with
numpy, one BLAS thread); it only sets the scale of the normalised times.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = {"int": 0.00295, "float": 0.00283, "np_small": 0.00331,
             "np_tall": 0.00327, "sort": 0.00283, "compile": 0.00423}


class _P:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x
        self.y = y


def _cross(p, q):
    return p.x * q.y - p.y * q.x


_PTS = [_P(float(i % 13), float(i % 7) + 0.5) for i in range(64)]
_SMALL = np.random.RandomState(0).rand(12, 12)
_ONES = np.ones(12)
_TALL = np.random.RandomState(1).rand(256, 3)
_DIR = np.ones(3)
_FLOATS = [float(x) for x in np.random.RandomState(2).rand(15000)]
_SOURCE = "\n".join(
    f"def f{i}(a, b=({i}, 'k{i}')):\n"
    f"    for j in range(a):\n"
    f"        if j % {i + 2} == 0 and b[1] != 'x':\n"
    f"            a = [j * {i}.5, {{'k': a}}, b]\n"
    f"    return f{i}(a - 1) if a > {i} else lambda t: t + {i}\n"
    for i in range(40))


def _int():
    s = 0
    for i in range(30000):
        s += i * i % 7
    return s


def _float():
    pts, t = _PTS, 0.0
    for _ in range(300):
        for j in range(63):
            t += _cross(pts[j], pts[j + 1])
    return t


def _np_small():
    t = 0.0
    for _ in range(480):
        x = _SMALL @ _ONES
        t += float(np.maximum(x - 3.0, 0.0).sum())
    return t


def _np_tall():
    t = 0.0
    for _ in range(280):
        x = _TALL @ _DIR
        j = int(np.argmin(x))
        t += float(x[j]) + float(np.abs(_TALL - x[j]).max())
    return t


def _sort():
    return sorted(_FLOATS)[0]


def _compile():
    return compile(_SOURCE, "<speed>", "exec")


KERNELS = {"int": _int, "float": _float, "np_small": _np_small,
           "np_tall": _np_tall, "sort": _sort, "compile": _compile}


def times() -> dict:
    """Wall time of each kernel, run once each, in seconds."""
    out = {}
    for name, kernel in KERNELS.items():
        t0 = time.perf_counter()
        kernel()
        out[name] = time.perf_counter() - t0
    return out


def factor() -> float:
    """How much slower than nominal the machine runs right now."""
    return sum(t / NOMINAL_S[k] for k, t in times().items()) / len(KERNELS)
