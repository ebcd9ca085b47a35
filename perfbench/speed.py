"""Reference-speed normalisation of timings.

On a shared virtual machine the speed of a vCPU changes with the load that
other tenants put on the same physical core: on the 2-vCPU Xeon VM this
benchmark was written on, the same op ran at two speeds about 1.6x apart,
switching every few seconds. Medians of raw wall times then swing by about
20% from run to run, whatever the program does.

So every timed interval is bracketed by a probe: a fixed loop of Python
float arithmetic and numpy scalar updates, the two kinds of work gapspec's
hot loops do, that does not touch gapspec. An interval's wall time is scaled by
REF_PROBE_S / (mean of the probes just before and just after it), which
reads it as it would have taken at the reference speed. REF_PROBE_S is the
probe's time on that VM in its fast phase, so normalised times there read
as milliseconds on an unloaded core. run.py prints the raw times as well.
"""

import statistics
import time

import numpy as np

REF_PROBE_S = 0.16e-3


def _loop():
    s = 0.0
    for i in range(1000):
        s += (i * 0.5) % 7.0
    e = np.zeros(12)
    e[0] = 1.0
    for m in (0.3, 0.7, 1.1, 0.2, 0.9, 1.3, 0.4, 0.6, 1.2, 0.8) * 2:
        for k in range(10, 0, -1):
            e[k] += m * e[k - 1]
    return s + e[10]


def probe():
    """Seconds for the reference loop: the median of three runs."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def factor(before_s, after_s):
    """Multiplier taking a wall time to reference speed."""
    return REF_PROBE_S / (0.5 * (before_s + after_s))
