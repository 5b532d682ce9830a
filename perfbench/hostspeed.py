"""How fast the host runs right now, from a fixed reference kernel.

Shared hosts run this process at two speeds, switching every few seconds
to minutes; on the 2-vCPU Xeon VM the benchmark was written on, the slow
state takes about 1.6 times as long for the same work, and it can last a
whole run. A fixed kernel timed right before and right after an op tracks
that speed: over twelve 10-second windows of `steer` ops, raw p50 and p90
moved by up to 1.37x and 1.11x, and op time over kernel time by at most
1.02x and 1.08x.

A time t measured while the kernel takes k seconds is reported as
t * REFERENCE_S / k: the time the same work takes at reference speed, the
kernel's time on that VM in its fast state. The kernel shares no code with
degctrl; it mixes what degctrl's hot paths do (an extended-precision power
series on a 1024-point array, a Python loop of small matrix-vector steps,
scalar math).
"""

import math
import time

import numpy as np

REFERENCE_S = 1.27e-3   # reference_kernel() on the quiet VM


def reference_kernel():
    x = np.linspace(0.0, 12.0, 1024).astype(np.longdouble)
    q = (x / 2) ** 2
    term = np.ones_like(x)
    total = term.copy()
    for m in range(40):
        term = -term * q / ((m + 1) * (m + 1.5))
        total += term
    v = np.ones(12)
    E = np.full((12, 12), 0.01)
    for j in range(150):
        v = math.exp(-0.01 * j) * v + E @ v
    s = 0.0
    for k in range(2000):
        s += math.sqrt(k + 1.0)
    return total, v, s


def time_kernel():
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0
