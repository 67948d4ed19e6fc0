"""Power aggregation and job-energy accounting.

The energy footprint of a job is power x time, not power alone; the
classical side of any comparison uses an explicit user-supplied runtime,
never an inferred one.
"""

from __future__ import annotations

from collections import namedtuple

from .catalog import QpuSpec
from .runtime import RuntimeEstimate
from .units import as_float, per_object, times


EnergyEstimate = namedtuple("EnergyEstimate", ("power_draw", "job_energy", "breakdown"))
EnergyEstimate.__doc__ = """A job's power and energy.

Fields: ``power_draw`` (float, watts); ``job_energy`` (float, joules);
``breakdown`` (tuple of (component label, watts) pairs).
"""


def power_breakdown(qpu: QpuSpec) -> tuple[tuple[str, float], ...]:
    """Per-component steady-state draw in watts.

    A per-qubit component's effective count is the QPU's qubit count; a count
    beyond float range reads as ``inf``, and a zero-watt unit draws 0 W at any
    count.  :func:`power_draw` and :func:`estimate_energy` read it, with its
    total, from a memo per QPU object.
    """
    rows = []
    for label, watts, count, per_qubit in qpu.power_components:
        count = qpu.qubit_count if per_qubit else count
        rows.append((label, times(watts, as_float(count))))
    return tuple(rows)


@per_object
def _power(qpu: QpuSpec) -> tuple[tuple[tuple[str, float], ...], float]:
    """(:func:`power_breakdown`, its total in watts), made once per QPU object."""
    breakdown = power_breakdown(qpu)
    return breakdown, sum(watts for _, watts in breakdown)


def power_draw(qpu: QpuSpec) -> float:
    """Total steady-state draw in watts (0 for QPUs with no reported data).

    The total is summed once per QPU object and kept beside its breakdown.
    """
    return _power(qpu)[1]


def job_energy(power: float, seconds: float) -> float:
    """Joules for a job: power x total wall-clock seconds, by :func:`~nisq_gonogo.units.times`."""
    if power < 0.0:
        raise ValueError(f"power must be >= 0, got {power}")
    return float(times(power, seconds))


def estimate_energy(qpu: QpuSpec, runtime: RuntimeEstimate) -> EnergyEstimate:
    breakdown, power = _power(qpu)
    return tuple.__new__(EnergyEstimate, (power, job_energy(power, runtime.total_time), breakdown))
