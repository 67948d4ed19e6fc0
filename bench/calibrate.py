"""Host-speed calibration for the benchmark's end-to-end times.

The benchmark runs on a few cores of a shared host whose speed changes by
half again for seconds at a time: the same CPU-bound call reads 2.2 s one
minute and 4.0 s the next, with its CPU time equal to its wall time, so the
change is in the hardware the program gets and not in the program.  To keep
two runs of the same code comparable, a bare interpreter start
(``python -E -s -c pass``, which reads nothing of the program) is timed
between the timed calls, on the same core, and each call's wall time is
scaled by ``REFERENCE_START_S / (mean start time around the call)``.

Of the references tried on a 2-vCPU Intel Xeon guest, the interpreter start
tracks the program best: the log of a call's time against the log of the
start time around it has a slope of 1.0 for a ``catalog`` call and 1.1 for a
``feasibility`` call on 2,500 workloads, where a pure-Python loop in the
benchmark's own process gives 0.6 and 0.7.  A reported time is therefore the
time the call would take on a host where the interpreter starts in
``REFERENCE_START_S``; a program change moves it as it moves the raw wall
time, which the result's meta line also carries.
"""

from __future__ import annotations

import sys

#: Seconds the interpreter start is scaled to; about its median on a 2-vCPU
#: Intel Xeon guest with Python 3.11.
REFERENCE_START_S = 0.04
START_ARGV = (sys.executable, "-E", "-s", "-c", "pass")


def sample(children, budget_s: float) -> float:
    """Start interpreters for at least ``budget_s`` seconds (at least one); returns the mean.

    ``children`` is the benchmark's runner of child processes, so a start is
    timed exactly as a program call is, from spawn to reaping.
    """
    times: list[float] = []
    while not times or sum(times) < budget_s:
        child = children.run(list(START_ARGV))
        if child.code != 0:
            raise RuntimeError(f"bare interpreter start exited with {child.code}: {child.stderr.strip()}")
        times.append(child.wall_s)
    return sum(times) / len(times)


def scale(before: float, after: float) -> float:
    """Factor that turns a wall time measured between two samples into a reported one."""
    return REFERENCE_START_S / ((before + after) / 2.0)
