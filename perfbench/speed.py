"""Machine-speed reference for the benchmark's timings.

A shared 2-core Intel Xeon virtual machine switches between speed
states: with the same code and input, a call's time moves by up to 1.7x
within a minute, and the median of a 20 s run moved by 45% between runs.
A fixed reference kernel, independent of taxisim, is therefore timed around
every measured interval, and the interval is divided by the speed factor
`(reference time / REF_S) ** ELASTICITY` measured around it.  A change to
taxisim moves the interval and not the reference, so normalised times follow
the program while most of the host's swings cancel.  The kernel mixes what
taxisim's time is made of: interpreter work, numpy calls on small arrays,
and array work on large ones.  The swings slow the workloads less than the
kernel (log-log slopes of 0.55 to 0.94 over 260 calls of the four
workloads), hence ELASTICITY below 1; the swings run on the vCPU doing the
work, so the kernel runs in the same process, between calls.
"""
import time

import numpy as np

# Median reference time on that 2-core Intel Xeon VM in its usual state,
# so that normalised times read as seconds on that machine.
REF_S = 0.018
ELASTICITY = 0.7


def reference_s() -> float:
    """Wall time of one pass of the fixed reference kernel."""
    t = time.perf_counter()
    d = {}
    for i in range(20000):
        d[i % 97] = d.get(i % 97, 0.0) + i * 0.5
    small = np.linspace(1.0, 2.0, 256)
    b = small.copy()
    for _ in range(800):
        b = np.sqrt(small * b + 1.0)
        float((b[1:] - b[:-1]).max())
    big = np.linspace(1.0, 2.0, 1 << 15)
    b = big.copy()
    for _ in range(60):
        b = np.sqrt(big * b + 1.0)
        float((b[1:] - b[:-1]).max())
    return time.perf_counter() - t


def factor(before: float, after: float) -> float:
    """Speed factor of an interval from the reference times around it."""
    return (0.5 * (before + after) / REF_S) ** ELASTICITY
