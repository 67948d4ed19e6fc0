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
import sys
from typing import TYPE_CHECKING, NamedTuple

from .units import as_float

if TYPE_CHECKING:
    from .catalog import QpuSpec

#: Error rate above which compressed (tensor-network) emulation of large
#: circuits is considered tractable: noise at sub-99.9% fidelity keeps the
#: effective entanglement low enough for linear-cost emulation.
TENSOR_NETWORK_ERROR_THRESHOLD = 1e-3

#: Circuit depth at or under which an algorithm counts as shallow.
DEFAULT_SHALLOW_DEPTH = 10

#: Default factor above the required error rate still reported as marginal.
DEFAULT_MARGINAL_BAND = 10.0

#: log2 of the bytes of one statevector amplitude (a complex double, 16 bytes).
AMPLITUDE_BYTES_LOG2 = 4


class CapacityError(ValueError):
    """Workload breadth exceeds the QPU's qubit count."""


def capacity_message(breadth: int, qpu: QpuSpec) -> str:
    """Why a workload of ``breadth`` qubits does not fit ``qpu``; the text of :class:`CapacityError`."""
    return f"workload breadth {breadth} exceeds qpu '{qpu.id}' qubit count {qpu.qubit_count}"


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

    @classmethod
    def _make(cls, iterable) -> CircuitShape:  # ``_replace`` builds through it
        return cls(*iterable)

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
    verdict of :func:`rate_verdict` instead.  A volume beyond float range gives 0.0.
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


def rate_verdict(required: float, available: float, marginal_band: float = DEFAULT_MARGINAL_BAND) -> Verdict:
    """The three-way test: go when ``available`` is strictly below ``required``,
    marginal when it is below ``marginal_band`` times ``required``, no-go beyond.

    The band is not checked here; :func:`check_marginal_band` is the check.
    """
    if available < required:
        return Verdict.GO
    if available < marginal_band * required:
        return Verdict.MARGINAL
    return Verdict.NO_GO


def assess(qpu: QpuSpec, shape: CircuitShape, *, marginal_band: float = DEFAULT_MARGINAL_BAND) -> FeasibilityVerdict:
    """Compare ``qpu`` against ``shape`` and classify with :func:`rate_verdict`.

    Raises :class:`CapacityError` when the shape needs more qubits than the
    QPU has, and ``ValueError`` when ``marginal_band`` is not finite and
    above 1 or the QPU's error rate is outside [0, 1).
    """
    check_marginal_band(marginal_band)
    if shape.breadth > qpu.qubit_count:
        raise CapacityError(capacity_message(shape.breadth, qpu))
    required = required_error_rate(shape)
    available = qpu.two_qubit_error_median
    return FeasibilityVerdict(
        required,
        available,
        success_probability(available, shape),
        rate_verdict(required, available, marginal_band),
        qpu.two_qubit_error_stddev is None,
    )


def statevector_memory(qubits: int) -> int | float:
    """Bytes needed for exact statevector emulation of ``qubits`` qubits.

    2^(1+N) double-precision floats, i.e. 2^(4+N) bytes (16 bytes per complex
    amplitude): an exact int while a float can hold it (up to 1019 qubits),
    ``math.inf`` beyond, so a register of 10^12 qubits costs no memory to size.
    """
    if not isinstance(qubits, int) or isinstance(qubits, bool) or qubits < 0:
        raise ValueError(f"qubits must be a non-negative integer, got {qubits!r}")
    exponent = qubits + AMPLITUDE_BYTES_LOG2
    return 1 << exponent if exponent < sys.float_info.max_exp else math.inf  # 2**1024 is beyond float range


def emulation_tier(qubits: int, depth: int, error_rate: float) -> EmulationTier:
    """Cheapest classical setup that can emulate the given circuit.

    Statevector tiers by qubit count up to 55 qubits; beyond that,
    tensor-network compression works for shallow circuits (depth at most
    :data:`DEFAULT_SHALLOW_DEPTH`) or for noisy ones (error rate above
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
    if depth <= DEFAULT_SHALLOW_DEPTH or error_rate > TENSOR_NETWORK_ERROR_THRESHOLD:
        return EmulationTier.TENSOR_NETWORK
    return EmulationTier.BEYOND_CLASSICAL
