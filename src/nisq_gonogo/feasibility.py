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


def capacity_message(breadth: int, qubits: int) -> str:
    """Why a workload of ``breadth`` qubits does not fit a qpu of ``qubits``: the grid's note, the
    estimate report's no-go reason and the text of :class:`CapacityError`."""
    return f"insufficient qubits: needs {count_text(breadth)}, has {count_text(qubits)}"


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
    return _success(error_rate, shape.volume)


def _success(error_rate: float, volume: int) -> float:
    """:func:`success_probability` of a checked ``error_rate`` and a volume: the one home of its formula."""
    return (1.0 - error_rate) ** as_float(volume)


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


def pair_verdict(
    breadth: int, qubits: int, required: float, available: float, marginal_band: float = DEFAULT_MARGINAL_BAND
) -> Verdict | None:
    """The ordered test of one (qpu, workload) pair: None when ``breadth`` exceeds ``qubits``; on a fit,
    :func:`check_error_rate` on ``available``, then :func:`rate_verdict`, whose band is not checked here.
    :func:`assess` and the estimate report take their verdict from it.
    """
    if breadth > qubits:
        return None
    check_error_rate(available)
    return rate_verdict(required, available, marginal_band)


def assess(qpu: QpuSpec, shape: CircuitShape, *, marginal_band: float = DEFAULT_MARGINAL_BAND) -> FeasibilityVerdict:
    """The record of :func:`pair_verdict` on ``qpu`` and ``shape``.

    Raises :class:`CapacityError` where :func:`pair_verdict` gives None, and ``ValueError`` where
    it raises or when ``marginal_band`` is not finite and above 1, which is checked first.
    """
    check_marginal_band(marginal_band)
    required, available = required_error_rate(shape), qpu.two_qubit_error_median
    verdict = pair_verdict(shape.breadth, qpu.qubit_count, required, available, marginal_band)
    if verdict is None:
        raise CapacityError(capacity_message(shape.breadth, qpu.qubit_count))
    success = _success(available, shape.volume)  # the rate is checked by pair_verdict
    return tuple.__new__(FeasibilityVerdict, (required, available, success, verdict, qpu.two_qubit_error_stddev is None))


VerdictRun = namedtuple("VerdictRun", ("qpu_id", "workload_ids", "verdict", "note"))
VerdictRun.__doc__ = """The rows of a feasibility report that share one verdict record, one row per workload id.

Fields: ``qpu_id`` and ``note`` (str); ``workload_ids`` (a non-empty sequence
of str, in report order); ``verdict`` (:class:`FeasibilityVerdict`).
"""

CapacityMiss = namedtuple("CapacityMiss", ("qpu_id", "workload_id", "note"))
CapacityMiss.__doc__ = """One report row whose workload needs more qubits than the qpu has; ``note`` is the
:func:`capacity_message`.  Fields: ``qpu_id``, ``workload_id`` and ``note`` (str)."""

_FIRST = operator.itemgetter(0)
_RATE_AND_ID = operator.itemgetter(0, 1)


def _grid_qpus(qpus: Sequence[QpuSpec], narrowest: int | float) -> list[tuple]:
    """Each qpu's id, qubit count, error rate, ``optimistic`` (no error-rate spread) and the note
    of every row in which it fits the workload, ids ascending; a catalog holds each id once.

    This is the grid's one :func:`check_error_rate`: it runs, in catalog order, on each qpu that fits the
    ``narrowest`` breadth (``math.inf`` when there is no workload), so a qpu that no workload fits is never checked.
    """
    fields = []
    for qpu in qpus:
        if narrowest <= qpu.qubit_count:
            check_error_rate(qpu.two_qubit_error_median)
        optimistic = qpu.two_qubit_error_stddev is None
        notes = [f"{qpu.status.value} hardware"] if qpu.status.value != "available" else []
        if optimistic:
            notes.append("optimistic: error-rate spread unreported")
        fields.append((qpu.id, qpu.qubit_count, qpu.two_qubit_error_median, optimistic, "; ".join(notes)))
    return sorted(fields, key=_FIRST)


def build_feasibility_bundle(
    catalog: Catalog,
    workloads: tuple[WorkloadSpec, ...],
    *,
    marginal_band: float = DEFAULT_MARGINAL_BAND,
) -> tuple[list[VerdictRun], list[CapacityMiss]]:
    """The whole grid in one call, as ``(runs, misses)``: the report's rows, one per (qpu, workload)
    pair, are each run's workload ids in turn, then the capacity misses.

    Rows run by verdict (go, marginal, no-go, then capacity misses), then by required error rate
    ascending, then by qpu id, then by workload id; rows equal on every key differ only by workload
    and keep file order.  The runs are built in that order, so only the workloads and the qpu ids
    are sorted: for each run of workloads of one required rate, each qpu in id order takes the run's
    workloads in (id, file) order.  Each qpu that a workload fits has its error rate checked once,
    first, in catalog order, so the ``ValueError`` names the first such qpu out of range.  A verdict
    depends on the qpu and the required rate alone, so :func:`rate_verdict` decides it once per
    (rate, qpu), on the first workload that fits; a record and its :class:`VerdictRun` are built there,
    and the workloads after it join that run until the exact volume changes (two volumes can share
    one 1/V float).  The capacity misses, in id order, are picked out by breadth alone.
    """
    check_marginal_band(marginal_band)  # also when the catalog has no qpus to assess
    shapes = [spec.shape for spec in workloads]
    qpus = _grid_qpus(catalog.qpus, min([shape.breadth for shape in shapes], default=math.inf))
    rated = sorted(
        [(required_error_rate(shape), spec.id, shape.breadth, shape.volume) for spec, shape in zip(workloads, shapes)],
        key=_RATE_AND_ID,
    )
    # Runs, records and misses are made with ``tuple.__new__``, not the named
    # tuples' keyword ``__new__``: a grid call makes thousands of them.
    new = tuple.__new__
    lists = {verdict: [] for verdict in Verdict}
    for rate, tied in itertools.groupby(rated, key=_FIRST):
        members = [member[1:] for member in tied]  # (id, breadth, volume)
        for qpu_id, qubits, available, optimistic, note in qpus:
            verdict = last_volume = None
            for workload_id, breadth, volume in members:
                if breadth > qubits:
                    continue  # a capacity miss: its row is made below
                if volume != last_volume:
                    if verdict is None:  # the first workload that fits; its rate was checked in _grid_qpus
                        verdict = rate_verdict(rate, available, marginal_band)
                        out = lists[verdict]
                    last_volume = volume
                    ids = []
                    record = new(FeasibilityVerdict, (rate, available, _success(available, volume), verdict, optimistic))
                    out.append(new(VerdictRun, (qpu_id, ids, record, note)))
                ids.append(workload_id)
    capacity_note = functools.cache(capacity_message)  # each note is formatted once per (breadth, qubit count)
    by_id = sorted([(spec.id, shape.breadth) for spec, shape in zip(workloads, shapes)], key=_FIRST)
    misses = [
        new(CapacityMiss, (qpu_id, workload_id, capacity_note(breadth, qubits)))
        for qpu_id, qubits, _, _, _ in qpus
        for workload_id, breadth in by_id
        if breadth > qubits
    ]
    return lists[Verdict.GO] + lists[Verdict.MARGINAL] + lists[Verdict.NO_GO], misses


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
