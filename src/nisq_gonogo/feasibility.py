"""Feasibility rules for noisy gate-model workloads.

The central rule: a circuit of breadth ``N`` (qubits) and depth ``d``
(two-qubit gate cycles) needs a two-qubit error rate below ``1/(N*d)``.
The product ``N*d`` doubles as the dominant gate-count for success
probabilities and as a simple quantum-volume measure.  This module also
classifies how hard a circuit is to emulate classically.
"""

from __future__ import annotations

import enum
import math
from typing import TYPE_CHECKING, NamedTuple

from .units import as_float

if TYPE_CHECKING:
    from .catalog import QpuSpec

#: Error rate above which compressed (tensor-network) emulation of large
#: circuits is considered tractable: noise at sub-99.9% fidelity keeps the
#: effective entanglement low enough for linear-cost emulation.
TENSOR_NETWORK_ERROR_THRESHOLD = 1e-3

#: Default circuit-depth cutoff under which an algorithm counts as shallow.
DEFAULT_SHALLOW_DEPTH = 10


class CapacityError(ValueError):
    """Workload breadth exceeds the QPU's qubit count."""


class _CircuitShapeFields(NamedTuple):
    breadth: int
    depth: int


class CircuitShape(_CircuitShapeFields):
    """Breadth (qubits used) and depth (two-qubit gate cycles) of a circuit."""

    __slots__ = ()

    def __new__(cls, breadth: int, depth: int) -> CircuitShape:
        if not isinstance(breadth, int) or isinstance(breadth, bool) or breadth < 1:
            raise ValueError(f"breadth must be a positive integer, got {breadth!r}")
        if not isinstance(depth, int) or isinstance(depth, bool) or depth < 1:
            raise ValueError(f"depth must be a positive integer, got {depth!r}")
        return tuple.__new__(cls, (breadth, depth))

    @property
    def volume(self) -> int:
        return self.breadth * self.depth


class Verdict(str, enum.Enum):
    GO = "go"
    MARGINAL = "marginal"
    NO_GO = "no-go"


class FeasibilityVerdict(NamedTuple):
    """Outcome of comparing a QPU's error rate against a circuit's needs.

    ``optimistic`` is set when the QPU's error-rate spread is unreported, in
    which case the median alone likely understates the effective error.
    """

    required_error_rate: float
    available_error_rate: float
    success_probability: float
    verdict: Verdict
    optimistic: bool


class EmulationTier(enum.IntEnum):
    """Classical-emulation effort classes, cheapest first."""

    LAPTOP = 0
    SERVER = 1
    CLUSTER = 2
    HPC = 3
    TENSOR_NETWORK = 4
    BEYOND_CLASSICAL = 5

    @property
    def label(self) -> str:
        return self.name.lower().replace("_", "-")


#: (tier, largest qubit count) for the statevector emulation tiers, cheapest
#: first.  Bounds are upper-inclusive: the boundary qubit count belongs to the
#: cheaper tier.
STATEVECTOR_TIERS = (
    (EmulationTier.LAPTOP, 18),
    (EmulationTier.SERVER, 30),
    (EmulationTier.CLUSTER, 40),
    (EmulationTier.HPC, 55),
)


def check_error_rate(error_rate: float) -> None:
    if not 0.0 <= error_rate < 1.0:
        raise ValueError(f"error_rate must be in [0, 1), got {error_rate}")


def check_marginal_band(marginal_band: float) -> None:
    if not 1.0 < marginal_band < math.inf:
        raise ValueError(f"marginal_band must be finite and > 1, got {marginal_band}")


def required_error_rate(shape: CircuitShape) -> float:
    """Largest two-qubit error rate tolerable for ``shape``: 1/(breadth*depth).

    No safety factor is applied; headroom is expressed through the three-way
    verdict in :func:`assess` instead.  A volume beyond float range gives 0.0.
    """
    return 1 / shape.volume


def success_probability(error_rate: float, shape: CircuitShape) -> float:
    """Probability that all ``breadth*depth`` gate slots succeed.

    ``(1 - error_rate) ** (breadth*depth)``, treating the circuit volume as the
    dominant two-qubit gate count; a volume beyond float range gives the limit.
    """
    check_error_rate(error_rate)
    return (1.0 - error_rate) ** as_float(shape.volume)


def _snap_to_int(value: float) -> int | None:
    """Nearest integer when ``value`` sits within relative 1e-9 of it."""
    nearest = round(value)
    if nearest >= 1 and abs(value - nearest) <= 1e-9 * nearest:
        return int(nearest)
    return None


def simple_quantum_volume(error_rate: float) -> int:
    """Total tolerable circuit volume (qubits x cycles): floor(1/error_rate).

    Values within 1e-9 relative of an integer are snapped before flooring so
    that decimal inputs like 1e-4 land on their intended exact volume.
    """
    if not 0.0 < error_rate < 1.0:
        raise ValueError(f"error_rate must be in (0, 1), got {error_rate}")
    value = 1.0 / error_rate
    snapped = _snap_to_int(value)
    if snapped is not None:
        return snapped
    return math.floor(value)


def feasible_square_side(error_rate: float) -> int:
    """Largest n such that an n-qubit, n-cycle circuit satisfies the rule."""
    return math.isqrt(simple_quantum_volume(error_rate))


def assess(qpu: QpuSpec, shape: CircuitShape, *, marginal_band: float = 10.0) -> FeasibilityVerdict:
    """Compare ``qpu`` against ``shape`` and classify.

    go: available error strictly below required; marginal: within
    ``marginal_band`` times required; no-go: beyond.  Raises
    :class:`CapacityError` when the shape needs more qubits than the QPU has,
    and ``ValueError`` unless ``marginal_band`` is finite and above 1.
    """
    check_marginal_band(marginal_band)
    if shape.breadth > qpu.qubit_count:
        raise CapacityError(
            f"workload breadth {shape.breadth} exceeds qpu '{qpu.id}' qubit count {qpu.qubit_count}"
        )
    required = required_error_rate(shape)
    available = qpu.two_qubit_error_median
    if available < required:
        verdict = Verdict.GO
    elif available < marginal_band * required:
        verdict = Verdict.MARGINAL
    else:
        verdict = Verdict.NO_GO
    return FeasibilityVerdict(
        required_error_rate=required,
        available_error_rate=available,
        success_probability=success_probability(available, shape),
        verdict=verdict,
        optimistic=qpu.two_qubit_error_stddev is None,
    )


def statevector_memory(qubits: int) -> int | float:
    """Bytes needed for exact statevector emulation of ``qubits`` qubits.

    2^(1+N) double-precision floats, i.e. 2^(4+N) bytes (16 bytes per complex
    amplitude).  Exact integer; Python's arbitrary-precision ints mean the
    result merely becomes astronomical, until the shift count itself passes
    the index range: that size is ``math.inf``.
    """
    if not isinstance(qubits, int) or isinstance(qubits, bool) or qubits < 0:
        raise ValueError(f"qubits must be a non-negative integer, got {qubits!r}")
    try:
        return 1 << (qubits + 4)
    except OverflowError:
        return math.inf


def emulation_tier(
    qubits: int,
    depth: int,
    error_rate: float,
    *,
    shallow_depth_threshold: int = DEFAULT_SHALLOW_DEPTH,
) -> EmulationTier:
    """Cheapest classical setup that can emulate the given circuit.

    Statevector tiers by qubit count up to 55 qubits; beyond that,
    tensor-network compression works for shallow circuits (depth at most
    ``shallow_depth_threshold``) or for noisy ones (error rate above
    :data:`TENSOR_NETWORK_ERROR_THRESHOLD`); otherwise the circuit is
    classed beyond-classical.
    """
    if qubits < 1:
        raise ValueError(f"qubits must be >= 1, got {qubits}")
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    check_error_rate(error_rate)
    for tier, max_qubits in STATEVECTOR_TIERS:
        if qubits <= max_qubits:
            return tier
    if depth <= shallow_depth_threshold or error_rate > TENSOR_NETWORK_ERROR_THRESHOLD:
        return EmulationTier.TENSOR_NETWORK
    return EmulationTier.BEYOND_CLASSICAL
