"""Power aggregation and job-energy accounting.

The energy footprint of a job is power x time, not power alone; the
classical side of any comparison uses an explicit user-supplied runtime,
never an inferred one.
"""

from __future__ import annotations

import functools
from collections import namedtuple

from .catalog import QpuSpec
from .runtime import RuntimeEstimate


EnergyEstimate = namedtuple("EnergyEstimate", ("power_draw", "job_energy", "breakdown"))
EnergyEstimate.__doc__ = """A job's power and energy.

Fields: ``power_draw`` (float, watts); ``job_energy`` (float, joules);
``breakdown`` (tuple of (component label, watts) pairs).
"""


@functools.lru_cache(maxsize=256)
def power_breakdown(qpu: QpuSpec) -> tuple[tuple[str, float], ...]:
    """Per-component steady-state draw in watts.

    A per-qubit component's effective count is the QPU's qubit count.  The
    result depends on the QPU alone, so it is computed once per distinct
    (immutable) QPU value and shared.
    """
    rows = []
    for component in qpu.power_components:
        count = qpu.qubit_count if component.per_qubit else component.count
        rows.append((component.label, component.unit_power_w * count))
    return tuple(rows)


def power_draw(qpu: QpuSpec) -> float:
    """Total steady-state draw in watts (0 for QPUs with no reported data)."""
    return sum(watts for _, watts in power_breakdown(qpu))


def job_energy(power: float, seconds: float) -> float:
    """Joules for a job: power x total wall-clock seconds; 0 W gives 0 J, not nan, over an unbounded runtime."""
    if power < 0.0:
        raise ValueError(f"power must be >= 0, got {power}")
    return power * seconds if power > 0.0 else 0.0


def estimate_energy(qpu: QpuSpec, runtime: RuntimeEstimate) -> EnergyEstimate:
    breakdown = power_breakdown(qpu)
    power = sum(watts for _, watts in breakdown)
    return EnergyEstimate(power, job_energy(power, runtime.total_time), breakdown)
