"""Variational workload models: Pauli-string counts, shot budgets, and
error-mitigation overhead.

Workload files are UTF-8 JSON: either one object with the
:class:`WorkloadSpec` fields in snake_case, or a list of such objects.

    {
      "id": "benzene-like-vqe",
      "family": "vqe",
      "data_qubits": 72,
      "depth": 72,
      "target_epsilon": 0.001,
      "ansatz_iterations": 100,
      "classical_prep_time": 1.0,
      "pauli_grouping": "none",
      "mitigation": {"enabled": false, "exponent_coefficient": 1.0},
      "c_vqe_override": null
    }
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple

from .feasibility import CircuitShape, check_error_rate
from .fields import Record, decode
from .units import EXACT_COUNT_LIMIT, as_float, count_number, per_object, times

#: Quartic-scaling coefficient for ungrouped VQE measurement bases,
#: calibrated so a 72-qubit electronic-structure instance needs exactly
#: 330,816 measurement strings.  Overridable per workload.
VQE_PAULI_COEFF = 330816 / 72**4


class WorkloadError(ValueError):
    """Workload document failed to parse or violated an invariant."""


class AlgorithmFamily(str, enum.Enum):
    VQE = "vqe"
    QAOA = "qaoa"
    GENERIC = "generic"


class PauliGrouping(str, enum.Enum):
    NONE = "none"
    GROUPED = "grouped"


# a member read from its enum class costs about 200 ns on 3.10 and 3.11
_VQE, _QAOA, _UNGROUPED = AlgorithmFamily.VQE, AlgorithmFamily.QAOA, PauliGrouping.NONE


MitigationSpec = namedtuple("MitigationSpec", ("enabled", "exponent_coefficient"), defaults=(False, 1.0))
MitigationSpec.__doc__ = """Error-mitigation switch and its exponential-overhead coefficient.

Fields: ``enabled`` (bool, default false); ``exponent_coefficient`` (float,
default 1.0).
"""

WorkloadSpec = namedtuple(
    "WorkloadSpec",
    (
        "id", "family", "data_qubits", "depth", "target_epsilon", "ansatz_iterations", "classical_prep_time",
        "qaoa_layers", "pauli_grouping", "mitigation", "c_vqe_override",
    ),
    defaults=(0.0, None, PauliGrouping.NONE, MitigationSpec(), None),
)
WorkloadSpec.__doc__ = """One algorithm instance to be costed against hardware.

Fields: ``id`` (str); ``family`` (:class:`AlgorithmFamily`); ``data_qubits``
and ``depth`` (int; depth in two-qubit gate cycles); ``target_epsilon``
(float, the target precision); ``ansatz_iterations`` (int);
``classical_prep_time`` (float, seconds per iteration, default 0.0);
``qaoa_layers`` (int or None); ``pauli_grouping`` (:class:`PauliGrouping`,
default none); ``mitigation`` (:class:`MitigationSpec`, default off);
``c_vqe_override`` (float or None: the ungrouped VQE coefficient in place
of :data:`VQE_PAULI_COEFF`).  Its ``shape`` is the :class:`CircuitShape`
of ``data_qubits`` by ``depth``.
"""
WorkloadSpec.shape = property(lambda spec: CircuitShape(spec.data_qubits, spec.depth))

ShotPlan = namedtuple(
    "ShotPlan",
    ("pauli_strings", "shots_per_string", "mitigation_multiplier", "total_shots", "model"),
    defaults=("per-string",),
)
ShotPlan.__doc__ = """Shot budget for one variational iteration.

Fields: ``pauli_strings`` (int, or a float when an ungrouped VQE count is
above 2**53); ``shots_per_string`` (int, or a float when 1/eps^2 or n^2/eps
is above 2**53); ``mitigation_multiplier`` (float); ``total_shots`` (int or
float; ``math.inf`` when the mitigated budget is beyond float range);
``model`` (str): the accounting that produced it, ``per-string`` (strings x
shots-per-string) or ``qaoa-aggregate`` (total n^2/eps budget).
"""


def _snap_ceil(value: float) -> int | float:
    """Ceiling with a relative-1e-9 snap so decimal inputs hit exact counts; a value
    above :data:`~nisq_gonogo.units.EXACT_COUNT_LIMIT` (``math.inf`` too) is returned as the float it is."""
    if value > EXACT_COUNT_LIMIT:
        return value
    nearest = round(value)
    return nearest if nearest >= 1 and abs(value - nearest) <= 1e-9 * nearest else math.ceil(value)


def _check_epsilon(epsilon: float) -> None:
    if not 0.0 < epsilon <= 1.0:
        raise WorkloadError(f"target_epsilon must be in (0, 1], got {epsilon}")


def pauli_string_count(spec: WorkloadSpec) -> int | float:
    """Number of measurement-basis circuits per expectation-value estimate.

    Ungrouped VQE scales with the fourth power of the data-qubit count
    (coefficient :data:`VQE_PAULI_COEFF`); grouped VQE and the generic
    family use the qubit count itself; a QAOA instance needs two strings
    per layer.  An ungrouped VQE count is a float product: an int up to
    2**53, the float beyond (``math.inf`` beyond float range).
    """
    if spec.family is _QAOA:
        if spec.qaoa_layers is None:
            raise WorkloadError(f"workload '{spec.id}': qaoa_layers is required for the qaoa family")
        return 2 * spec.qaoa_layers
    if spec.family is _VQE and spec.pauli_grouping is _UNGROUPED:
        coeff = VQE_PAULI_COEFF if spec.c_vqe_override is None else spec.c_vqe_override
        strings = coeff * as_float(spec.data_qubits**4)
        return max(1, round(strings)) if strings <= EXACT_COUNT_LIMIT else strings
    return spec.data_qubits


def shots_per_string(epsilon: float) -> int | float:
    """Shots to reach standard error ``epsilon`` on one measured string: 1/eps^2.

    An int up to 2**53 and the float above it; ``math.inf`` when eps^2
    underflows to 0 or 1/eps^2 is beyond float range.
    """
    _check_epsilon(epsilon)
    variance = epsilon * epsilon
    return _snap_ceil(1.0 / variance) if variance > 0.0 else math.inf


def qaoa_aggregate_shots(epsilon: float, qubits: int) -> int | float:
    """Alternative whole-run QAOA budget: n^2/eps shots in total; a float above 2**53, ``math.inf`` beyond float range."""
    _check_epsilon(epsilon)
    if qubits < 1:
        raise WorkloadError(f"qubits must be >= 1, got {qubits}")
    return _snap_ceil(as_float(qubits * qubits) / epsilon)


def mitigation_multiplier(spec: MitigationSpec, error_rate: float, shape: CircuitShape) -> float:
    """Extra-shot factor from error mitigation: exp(c * expected error count).

    The expected error count is error_rate x breadth x depth, so the
    overhead grows exponentially in depth or qubit number, whichever moves.
    Always >= 1; exactly 1 when disabled or when the circuit is error-free;
    ``math.inf`` when the factor is beyond float range.
    """
    check_error_rate(error_rate)
    if not spec.enabled:
        return 1.0
    lam = times(error_rate, as_float(shape.volume))
    try:
        return math.exp(times(spec.exponent_coefficient, lam))
    except OverflowError:
        return math.inf


@per_object
def _per_string_counts(spec: WorkloadSpec) -> tuple[int | float, int | float]:
    """(:func:`pauli_string_count`, :func:`shots_per_string`) of ``spec``, made once per workload object."""
    return pauli_string_count(spec), shots_per_string(spec.target_epsilon)


def shot_plan(spec: WorkloadSpec, error_rate: float, *, qaoa_aggregate: bool = False) -> ShotPlan:
    """Full per-iteration shot budget for ``spec`` on hardware with ``error_rate``."""
    if spec.mitigation.enabled:
        multiplier = mitigation_multiplier(spec.mitigation, error_rate, spec.shape)
    else:  # the multiplier is 1 and needs no shape, but the rate is checked all the same
        check_error_rate(error_rate)
        multiplier = 1.0
    if qaoa_aggregate:
        if spec.family is not _QAOA:
            raise WorkloadError(f"workload '{spec.id}': aggregate accounting applies only to the qaoa family")
        strings = 1
        per_string = qaoa_aggregate_shots(spec.target_epsilon, spec.data_qubits)
        model = "qaoa-aggregate"
    else:
        strings, per_string = _per_string_counts(spec)
        model = "per-string"
    # two int counts multiply exactly; a float count (above 2**53) makes the product a float
    base = strings * per_string if type(per_string) is int else as_float(strings) * per_string
    if multiplier == 1.0:
        total = base
    else:
        product = as_float(base) * multiplier
        total = math.ceil(product) if product < math.inf else math.inf
    return tuple.__new__(ShotPlan, (strings, per_string, multiplier, total, model))


_WORKLOAD_KEYS = frozenset(WorkloadSpec._fields)
_MITIGATION_KEYS = frozenset(MitigationSpec._fields)


def _parse_one(raw: object, index: int, strict: bool) -> WorkloadSpec:
    fields = Record(raw, f"workload #{index}", _WORKLOAD_KEYS, WorkloadError, strict)
    family = fields.choice("family", AlgorithmFamily)
    data_qubits = fields.integer("data_qubits", minimum=1)
    depth = fields.integer("depth", minimum=1)
    layers = fields.raw.get("qaoa_layers")
    if family is _QAOA:
        layers = fields.integer("qaoa_layers", minimum=1)
    elif layers is not None:
        fields.fail("qaoa_layers", "is only valid for the qaoa family")
    epsilon = fields.number("target_epsilon", gt=0, le=1)
    iterations = fields.integer("ansatz_iterations", minimum=1)
    prep = fields.number("classical_prep_time", 0.0, ge=0)
    grouping = fields.choice("pauli_grouping", PauliGrouping, _UNGROUPED)
    mitigation_fields = fields.record("mitigation", _MITIGATION_KEYS)
    enabled = mitigation_fields.flag("enabled", False)
    mitigation = tuple.__new__(MitigationSpec, (enabled, mitigation_fields.number("exponent_coefficient", 1.0, ge=0)))
    override = fields.number("c_vqe_override", None, gt=0)
    workload_id = fields.text("id", None, nonempty=True)
    if workload_id is None:
        workload_id = f"{family.value}-{count_number(data_qubits)}q-d{count_number(depth)}"
    # ``tuple.__new__``, as the grid's rows are: a named tuple's own call takes about twice as long
    return tuple.__new__(
        WorkloadSpec,
        (workload_id, family, data_qubits, depth, epsilon, iterations, prep, layers, grouping, mitigation, override),
    )


def parse_workloads(document: str, *, strict: bool = True) -> tuple[WorkloadSpec, ...]:
    """Parse a workload document (single object or list of objects).

    Strict mode (default) rejects unknown fields; lenient mode warns of each
    with an :class:`~nisq_gonogo.fields.InputWarning`.
    """
    raw = decode(document, "workload document", WorkloadError)
    if isinstance(raw, dict):
        items: list[object] = [raw]
    elif isinstance(raw, list):
        items = raw
    else:
        raise WorkloadError(f"workload document must be an object or a list, got {type(raw).__name__}")
    if not items:
        raise WorkloadError("no workloads: the workload document is an empty list")
    return tuple([_parse_one(item, i, strict) for i, item in enumerate(items)])
