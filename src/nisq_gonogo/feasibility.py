"""Feasibility rules for noisy gate-model workloads.

The central rule: a circuit of breadth ``N`` (qubits) and depth ``d``
(two-qubit gate cycles) needs a two-qubit error rate below ``1/(N*d)``.
The product ``N*d`` doubles as the dominant gate-count for success
probabilities and as a simple quantum-volume measure.  This module also
classifies how hard a circuit is to emulate classically.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import operator
import sys
from collections import namedtuple

from .units import as_float, count_text

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
    return f"workload breadth {count_text(breadth)} exceeds qpu '{qpu.id}' qubit count {count_text(qpu.qubit_count)}"


_CircuitShapeFields = namedtuple("_CircuitShapeFields", ("breadth", "depth"))


class CircuitShape(_CircuitShapeFields):
    """Breadth (qubits used) and depth (two-qubit gate cycles) of a circuit.

    Fields: ``breadth`` and ``depth`` (int, each at least 1).
    """

    __slots__ = ()

    def __new__(cls, breadth: int, depth: int) -> CircuitShape:
        if type(breadth) is int and type(depth) is int and breadth >= 1 and depth >= 1:  # passes every check below
            return tuple.__new__(cls, (breadth, depth))
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


# a member read from its enum class costs about 200 ns on 3.10 and 3.11
_GO, _MARGINAL, _NO_GO = Verdict

FeasibilityVerdict = namedtuple(
    "FeasibilityVerdict",
    ("required_error_rate", "available_error_rate", "success_probability", "verdict", "optimistic"),
)
FeasibilityVerdict.__doc__ = """Outcome of comparing a QPU's error rate against a circuit's needs.

Fields: ``required_error_rate`` and ``available_error_rate`` (float, error
probabilities); ``success_probability`` (float); ``verdict``
(:class:`Verdict`); ``optimistic`` (bool): set when the QPU's error-rate
spread is unreported, in which case the median alone likely understates
the effective error.
"""


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


def simple_quantum_volume(error_rate: float) -> int:
    """Total tolerable circuit volume (qubits x cycles): the largest int V for which
    :func:`rate_verdict` calls 1/V go, so ``error_rate`` is strictly below 1/V
    (1e-4 gives 9,999, not 10,000).

    Found over ints by doubling, then bisection: int true division rounds
    correctly, so 1/V never rises with V.
    """
    if not 0.0 < error_rate < 1.0:
        raise ValueError(f"error_rate must be in (0, 1), got {error_rate}")

    def go(volume: int) -> bool:
        return rate_verdict(required_error_rate(CircuitShape(volume, 1)), error_rate) is _GO

    low, high = 1, 2  # 1/1 is go at any error rate below 1
    while go(high):
        low, high = high, 2 * high
    while high - low > 1:
        middle = (low + high) // 2
        low, high = (middle, high) if go(middle) else (low, middle)
    return low


def feasible_square_side(error_rate: float) -> int:
    """Largest n such that an n-qubit, n-cycle circuit satisfies the rule."""
    return math.isqrt(simple_quantum_volume(error_rate))


def rate_verdict(required: float, available: float, marginal_band: float = DEFAULT_MARGINAL_BAND) -> Verdict:
    """The three-way test: go when ``available`` is strictly below ``required``,
    marginal when it is below ``marginal_band`` times ``required``, no-go beyond.

    The band is not checked here; :func:`check_marginal_band` is the check.
    """
    if available < required:
        return _GO
    if available < marginal_band * required:
        return _MARGINAL
    return _NO_GO


def fit_verdict(
    qpu: QpuSpec, shape: CircuitShape, *, marginal_band: float = DEFAULT_MARGINAL_BAND
) -> FeasibilityVerdict | None:
    """Compare ``qpu`` against ``shape`` and classify with :func:`rate_verdict`,
    or None when the shape needs more qubits than the QPU has.

    Raises ``ValueError`` when ``marginal_band`` is not finite and above 1,
    or when the shape fits and the QPU's error rate is outside [0, 1).
    """
    check_marginal_band(marginal_band)
    if shape.breadth > qpu.qubit_count:
        return None
    required = required_error_rate(shape)
    available = qpu.two_qubit_error_median
    return tuple.__new__(FeasibilityVerdict, (
        required,
        available,
        success_probability(available, shape),
        rate_verdict(required, available, marginal_band),
        qpu.two_qubit_error_stddev is None,
    ))


def assess(qpu: QpuSpec, shape: CircuitShape, *, marginal_band: float = DEFAULT_MARGINAL_BAND) -> FeasibilityVerdict:
    """:func:`fit_verdict`, raising :class:`CapacityError` where it gives None."""
    verdict = fit_verdict(qpu, shape, marginal_band=marginal_band)
    if verdict is None:
        raise CapacityError(capacity_message(shape.breadth, qpu))
    return verdict


VerdictRow = namedtuple("VerdictRow", ("qpu_id", "workload_id", "verdict", "note"), defaults=("",))
VerdictRow.__doc__ = """One (qpu, workload) row of a feasibility report.

Fields: ``qpu_id`` and ``workload_id`` (str); ``verdict``
(:class:`FeasibilityVerdict`, or None when the workload needs more qubits
than the qpu has); ``note`` (str, default empty).
"""

_FIRST = _RATE = operator.itemgetter(0)
_RATE_AND_ID = operator.itemgetter(0, 1)


def _grid_qpus(qpus: Sequence[QpuSpec]) -> list[tuple]:
    """Each qpu's id, qubit count, error rate, ``optimistic`` (no error-rate spread) and the note
    of every row in which it fits the workload, ids ascending; a catalog holds each id once."""
    fields = []
    for qpu in qpus:
        optimistic = qpu.two_qubit_error_stddev is None
        notes = [f"{qpu.status.value} hardware"] if qpu.status.value != "available" else []
        if optimistic:
            notes.append("optimistic: error-rate spread unreported")
        fields.append((qpu.id, qpu.qubit_count, qpu.two_qubit_error_median, optimistic, "; ".join(notes)))
    return sorted(fields, key=_FIRST)


def _checked_shapes(workloads: Sequence[WorkloadSpec], qpus: Sequence[QpuSpec]) -> list[CircuitShape]:
    """Each workload's shape, raising where :func:`assess` would raise on a pair, in pair order.

    ``assess`` rejects an error rate out of range only on a pair that fits
    the qpu, so a qpu whose rate fails its check is set apart once, and the
    first workload that fits it raises that check's error.
    """
    rejected = []
    for qpu in qpus:
        try:
            check_error_rate(qpu.two_qubit_error_median)
        except ValueError:
            rejected.append(qpu)
    shapes = []
    for spec in workloads:
        shape = spec.shape
        for qpu in rejected:
            if shape.breadth <= qpu.qubit_count:
                check_error_rate(qpu.two_qubit_error_median)
        shapes.append(shape)
    return shapes


def build_feasibility_bundle(
    catalog: Catalog,
    workloads: tuple[WorkloadSpec, ...],
    *,
    marginal_band: float = DEFAULT_MARGINAL_BAND,
) -> tuple[VerdictRow, ...]:
    """One row per (qpu, workload) pair, in report order: the whole grid in one call.

    Rows run by verdict (go, marginal, no-go, then capacity misses), then by
    required error rate ascending, then by qpu id, then by workload id; rows
    equal on every key differ only by workload and keep file order.  The rows
    are built in that order, so only the workloads and the qpu ids are
    sorted: for each run of workloads of one required rate, each qpu in id
    order takes the run's workloads in (id, file) order.  A verdict depends
    on the qpu and the workload's exact volume alone, so a record is built on
    the first row that fits and shared by the rows after it until the exact
    volume changes (two volumes can share one 1/V float).  Raises
    ``ValueError`` as :func:`assess` would on the first pair, in input order,
    that it rejects.
    """
    check_marginal_band(marginal_band)  # also when the catalog has no qpus to assess
    shapes = _checked_shapes(workloads, catalog.qpus)
    qpus = _grid_qpus(catalog.qpus)
    rated = sorted(
        [(required_error_rate(shape), spec.id, shape) for spec, shape in zip(workloads, shapes)],
        key=_RATE_AND_ID,
    )
    # Rows and records are made with ``tuple.__new__``, not the named tuples'
    # keyword ``__new__``: a grid call makes tens of thousands of them.
    new = tuple.__new__
    lists = {verdict: [] for verdict in Verdict}
    for rate, tied in itertools.groupby(rated, key=_RATE):
        members = [(workload_id, shape.breadth, shape.volume, shape) for _, workload_id, shape in tied]
        for qpu_id, qubits, available, optimistic, note in qpus:
            last_volume = None
            for workload_id, breadth, volume, shape in members:
                if breadth > qubits:
                    continue  # a capacity miss: its row is made below
                if volume != last_volume:
                    last_volume = volume
                    verdict = rate_verdict(rate, available, marginal_band)
                    record = new(
                        FeasibilityVerdict,
                        (rate, available, success_probability(available, shape), verdict, optimistic),
                    )
                    out = lists[verdict]
                out.append(new(VerdictRow, (qpu_id, workload_id, record, note)))
    # The capacity test of :func:`fit_verdict`, made here once per pair; each
    # note is formatted once per (breadth, qubit count).
    capacity_note = functools.cache(
        lambda breadth, qubits: f"insufficient qubits: needs {count_text(breadth)}, has {count_text(qubits)}"
    )
    by_id = sorted([(spec.id, shape.breadth) for spec, shape in zip(workloads, shapes)], key=_FIRST)
    misses = [
        new(VerdictRow, (qpu_id, workload_id, None, capacity_note(breadth, qubits)))
        for qpu_id, qubits, _, _, _ in qpus
        for workload_id, breadth in by_id
        if breadth > qubits
    ]
    return (*lists[Verdict.GO], *lists[Verdict.MARGINAL], *lists[Verdict.NO_GO], *misses)


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
