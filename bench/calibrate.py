"""Speed calibration for a host whose CPU speed swings under neighbours' load.

On a shared 2-core host the same job's time moves by up to 2x within a
second (measured here: one lemmas job took 0.36 to 0.67 s, and CPU time
moved with wall time, so the cause is contention below the process).  The
benchmark therefore measures the host's current slowdown right before and
right after each timed job and reports

    normalized time = measured time / mean slowdown

which reads as seconds on a host where the reference takes its nominal
time.  The reference is a fixed pure-Python loop of exact rational
arithmetic, about 60 ms long so that it averages over the swings, run in
the job's process (for cli commands, in the worker that waits for them; the
benchmark pins itself to one CPU so both share it).  The loop does not
touch bifree, so a change to the package cannot move it; raw times are
kept next to the normalized ones in the run's info line.
"""

from __future__ import annotations

import time
from fractions import Fraction
from statistics import fmean

NOMINAL_S = 0.06  # loop_s() on a quiet host
_STEPS = 9000


def loop_s():
    """Duration of one pass of the fixed calibration loop."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    seen = {}
    for i in range(1, _STEPS):
        acc += Fraction(i % 7 - 3, i % 5 + 1) * Fraction(1, 3)
        seen[(i, i % 13)] = acc
        if acc.denominator > 10 ** 6:
            acc = Fraction(acc.numerator % 97, 7)
    return time.perf_counter() - t0


def slowdown(*loops):
    """How much slower than nominal the host ran, from loop durations."""
    return fmean(loops) / NOMINAL_S
