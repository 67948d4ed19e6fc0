"""Wall-clock model for the variational loop.

Total time = iterations x (classical prep + shots x single-shot time).
Shots run sequentially on one QPU unless a parallelism divisor is given.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .catalog import QpuSpec
from .units import as_float, times
from .workload import ShotPlan, WorkloadSpec


RuntimeEstimate = namedtuple(
    "RuntimeEstimate",
    ("single_shot_time", "quantum_time_per_iteration", "iteration_time", "total_time", "breakdown"),
)
RuntimeEstimate.__doc__ = """Per-iteration and end-to-end timing, with a term breakdown.

Fields: ``single_shot_time``, ``quantum_time_per_iteration``,
``iteration_time`` and ``total_time`` (float, seconds); ``breakdown``
(tuple of (label, total seconds) pairs that sum to ``total_time``).
"""


def single_shot_time(qpu: QpuSpec, depth: int) -> float:
    """Seconds for one prepare-run-measure cycle of a depth-``depth`` circuit.

    The circuit body is depth x two-qubit gate time; single-qubit gates are
    roughly an order of magnitude faster and are absorbed into it.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    return qpu.reset_time + times(as_float(depth), qpu.two_qubit_gate_time) + qpu.readout_time


def estimate_runtime(
    qpu: QpuSpec,
    spec: WorkloadSpec,
    plan: ShotPlan,
    *,
    parallel_shots: int = 1,
) -> RuntimeEstimate:
    """End-to-end wall clock for ``spec`` on ``qpu`` given its shot plan.

    The full shot budget is spent every iteration (conservative: no shot
    reduction early in convergence).  ``parallel_shots`` divides the quantum
    term for hardware that can run shots concurrently; a divisor beyond float
    range takes a bounded quantum term to 0 s and leaves an unbounded one unbounded.
    """
    if parallel_shots < 1:
        raise ValueError(f"parallel_shots must be >= 1, got {parallel_shots}")
    shot_time = single_shot_time(qpu, spec.depth)
    # Counts beyond float range read as inf, so their runtimes are unbounded; a 0 s factor gives 0 s.
    quantum = times(as_float(plan.total_shots), shot_time)
    quantum_per_iteration = quantum / as_float(parallel_shots) if quantum < math.inf else quantum
    prep = spec.classical_prep_time
    iteration = prep + quantum_per_iteration
    iterations = as_float(spec.ansatz_iterations)
    total = times(iterations, iteration)
    breakdown = (
        ("classical preparation and post-processing", times(iterations, prep)),
        ("quantum execution", times(iterations, quantum_per_iteration)),
    )
    return tuple.__new__(RuntimeEstimate, (shot_time, quantum_per_iteration, iteration, total, breakdown))
