"""A fixed CPU kernel that measures how fast the machine runs right now.

On a shared host the same code runs up to 1.7 times slower for tens of
seconds at a time, and the thread's CPU time slows with it: other tenants
share the cores' caches and execution units, so the slowdown is per
instruction and no statistic of the program's own times removes it.  The
benchmark runs ``kernel`` between operations and scales every operation's
time by ``REFERENCE_S`` over the median kernel time around it, which gives
the time the operation takes at the reference speed.

The kernel mixes what the program does: small numpy arrays (elementwise
math, reductions, a sort), a links x links x tones array as signaling
builds at 16 links and 64 tones, and interpreted Python (dict and list
work, a sort with a key function).  It depends on nothing in the program, so a
change to the program moves the scaled times and never the kernel.  Do not
change the kernel or ``REFERENCE_S``: either change rescales every
reference time and breaks comparison with earlier results.
"""

import time

import numpy as np

# about the median kernel time on the machine the benchmark was built on
# (2 vCPUs of a shared Intel Xeon host, Python 3.11, numpy 2.4), where it
# ranged from 1.0 to 1.8 ms with the host's load; so a reference second is
# about a wall second there
REFERENCE_S = 1.3e-3

_ARRAY = np.random.default_rng(0).random((16, 64))
_CUBE = np.random.default_rng(1).random((16, 16, 64))


def kernel(rounds=40):
    """The fixed work; its result only keeps the work from being skipped."""
    acc = 0.0
    for r in range(rounds):
        if r % 4 == 0:
            acc += float(np.maximum(_CUBE * 1.5, 0.5).sum(axis=0).max())
        b = np.log2(1.0 + _ARRAY * 3.0)
        acc += float(b.sum(axis=1).max())
        acc += int(np.argsort(b[0])[0])
        d = {}
        for k in range(60):
            d[k] = k * 3 % 7
        acc += sum(d.values())
        acc += sorted(range(60), key=lambda x: -x % 11)[0]
    return acc


def timed_runs(count):
    """(start, seconds) of `count` kernel runs in a row."""
    runs = []
    for _ in range(count):
        t0 = time.perf_counter()
        kernel()
        runs.append((t0, time.perf_counter() - t0))
    return runs
