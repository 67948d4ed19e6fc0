"""Wall-clock model for the variational loop.

Total time = iterations x (classical prep + shots x single-shot time).
Shots run sequentially on one QPU unless a parallelism divisor is given.
"""

from __future__ import annotations

from dataclasses import dataclass

from .catalog import QpuSpec
from .units import as_float
from .workload import ShotPlan, WorkloadSpec


@dataclass(frozen=True)
class RuntimeEstimate:
    """Per-iteration and end-to-end timing, with a term breakdown.

    ``breakdown`` holds (label, total seconds) pairs that sum to
    ``total_time``.
    """

    single_shot_time: float
    quantum_time_per_iteration: float
    iteration_time: float
    total_time: float
    breakdown: tuple[tuple[str, float], ...]


def single_shot_time(qpu: QpuSpec, depth: int) -> float:
    """Seconds for one prepare-run-measure cycle of a depth-``depth`` circuit.

    The circuit body is depth x two-qubit gate time; single-qubit gates are
    roughly an order of magnitude faster and are absorbed into it.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    return qpu.reset_time + as_float(depth) * qpu.two_qubit_gate_time + qpu.readout_time


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
    term for hardware that can run shots concurrently.
    """
    if parallel_shots < 1:
        raise ValueError(f"parallel_shots must be >= 1, got {parallel_shots}")
    shot_time = single_shot_time(qpu, spec.depth)
    quantum_per_iteration = plan.total_shots * shot_time / parallel_shots
    iteration = spec.classical_prep_time + quantum_per_iteration
    iterations = spec.ansatz_iterations
    total = iterations * iteration
    breakdown = (
        ("classical preparation and post-processing", iterations * spec.classical_prep_time),
        ("quantum execution", iterations * quantum_per_iteration),
    )
    return RuntimeEstimate(
        single_shot_time=shot_time,
        quantum_time_per_iteration=quantum_per_iteration,
        iteration_time=iteration,
        total_time=total,
        breakdown=breakdown,
    )
