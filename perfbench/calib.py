"""Machine-speed calibration of measured times.

The benchmark runs on a shared host whose speed drifts: measured there, a
fixed pure-Python loop ran at anything from 1x to 2x its fastest time, in
phases of seconds to minutes, and thread CPU time drifted with wall time,
so the slowdown is contention for the core, not time stolen from the
process.  No statistic over one 30-s run removes a phase that covers the
whole run.  So every measured time is scaled by the speed of the machine
at the moment it was taken: a fixed reference loop is timed just before
and just after each stretch of measurement (at most ``CHUNK_S`` long), and
a time ``t`` is reported as ``t * REF_S / r``, where ``r`` is the mean of
the two reference times around it.  The reported times are those of a
machine on which the reference loop takes ``REF_S``, which is about its
time on the development machine in its fast phases.

The reference loop is dict stores and integer arithmetic in the
interpreter, the same kind of work as the program's graph code.  It uses
only builtins, so it imports nothing into the process it runs in.
"""

from __future__ import annotations

import time

REF_ITERS = 20000
REF_S = 0.0025  # the reference loop's time on a machine in a fast phase
PROBE_REPEATS = 3
CHUNK_S = 0.25  # longest stretch of measurement between two probes


def _reference():
    s = 0
    d = {}
    for i in range(REF_ITERS):
        d[i & 1023] = s
        s += i * i % 7
    return s


def probe():
    """The reference loop's time now: the fastest of a few repeats."""
    perf = time.perf_counter
    best = float("inf")
    for _ in range(PROBE_REPEATS):
        t0 = perf()
        _reference()
        best = min(best, perf() - t0)
    return best


def factor(before, after):
    """The scale for times taken between two probes."""
    return REF_S * 2.0 / (before + after)
