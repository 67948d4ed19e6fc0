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
from typing import NamedTuple

from .feasibility import CircuitShape, _snap_to_int, check_error_rate
from .fields import Checker, decode, keys_of
from .units import as_float

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


class MitigationSpec(NamedTuple):
    """Error-mitigation switch and its exponential-overhead coefficient."""

    enabled: bool = False
    exponent_coefficient: float = 1.0


class WorkloadSpec(NamedTuple):
    """One algorithm instance to be costed against hardware."""

    id: str
    family: AlgorithmFamily
    data_qubits: int
    depth: int
    target_epsilon: float
    ansatz_iterations: int
    classical_prep_time: float = 0.0
    qaoa_layers: int | None = None
    pauli_grouping: PauliGrouping = PauliGrouping.NONE
    mitigation: MitigationSpec = MitigationSpec()
    c_vqe_override: float | None = None

    @property
    def shape(self) -> CircuitShape:
        return CircuitShape(breadth=self.data_qubits, depth=self.depth)


class ShotPlan(NamedTuple):
    """Shot budget for one variational iteration.

    ``model`` records which accounting produced it: ``per-string``
    (strings x shots-per-string) or ``qaoa-aggregate`` (total n^2/eps budget).
    """

    pauli_strings: int | float  # math.inf when an ungrouped VQE count is beyond float range
    shots_per_string: int | float  # math.inf when 1/eps^2 (or n^2/eps) is beyond float range
    mitigation_multiplier: float
    total_shots: int | float  # math.inf when the mitigated budget is beyond float range
    model: str = "per-string"


def _snap_ceil(value: float) -> int | float:
    """Ceiling with a relative-1e-9 snap so decimal inputs hit exact counts; ``math.inf`` stays inf."""
    if value == math.inf:
        return math.inf
    snapped = _snap_to_int(value)
    return math.ceil(value) if snapped is None else snapped


def _check_epsilon(epsilon: float) -> None:
    if not 0.0 < epsilon <= 1.0:
        raise WorkloadError(f"target_epsilon must be in (0, 1], got {epsilon}")


def pauli_string_count(spec: WorkloadSpec) -> int | float:
    """Number of measurement-basis circuits per expectation-value estimate.

    Ungrouped VQE scales with the fourth power of the data-qubit count
    (coefficient :data:`VQE_PAULI_COEFF`); grouped VQE and the generic
    family use the qubit count itself; a QAOA instance needs two strings
    per layer.  An ungrouped VQE count beyond float range is ``math.inf``.
    """
    if spec.family is AlgorithmFamily.QAOA:
        if spec.qaoa_layers is None:
            raise WorkloadError(f"workload '{spec.id}': qaoa_layers is required for the qaoa family")
        return 2 * spec.qaoa_layers
    if spec.family is AlgorithmFamily.VQE and spec.pauli_grouping is PauliGrouping.NONE:
        coeff = VQE_PAULI_COEFF if spec.c_vqe_override is None else spec.c_vqe_override
        strings = coeff * as_float(spec.data_qubits**4)
        return max(1, round(strings)) if strings < math.inf else math.inf
    return spec.data_qubits


def shots_per_string(epsilon: float) -> int | float:
    """Shots to reach standard error ``epsilon`` on one measured string: 1/eps^2.

    ``math.inf`` when eps^2 underflows to 0 or 1/eps^2 is beyond float range.
    """
    _check_epsilon(epsilon)
    variance = epsilon * epsilon
    return _snap_ceil(1.0 / variance) if variance > 0.0 else math.inf


def qaoa_aggregate_shots(epsilon: float, qubits: int) -> int | float:
    """Alternative whole-run QAOA budget: n^2/eps shots in total; ``math.inf`` beyond float range."""
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
    if not spec.enabled or error_rate == 0.0 or spec.exponent_coefficient == 0.0:  # no 0 x inf below
        return 1.0
    lam = error_rate * as_float(shape.volume)
    try:
        return math.exp(spec.exponent_coefficient * lam)
    except OverflowError:
        return math.inf


def shot_plan(spec: WorkloadSpec, error_rate: float, *, qaoa_aggregate: bool = False) -> ShotPlan:
    """Full per-iteration shot budget for ``spec`` on hardware with ``error_rate``."""
    multiplier = mitigation_multiplier(spec.mitigation, error_rate, spec.shape)
    if qaoa_aggregate:
        if spec.family is not AlgorithmFamily.QAOA:
            raise WorkloadError(f"workload '{spec.id}': aggregate accounting applies only to the qaoa family")
        strings = 1
        per_string = qaoa_aggregate_shots(spec.target_epsilon, spec.data_qubits)
        model = "qaoa-aggregate"
    else:
        strings = pauli_string_count(spec)
        per_string = shots_per_string(spec.target_epsilon)
        model = "per-string"
    if multiplier == 1.0:
        total = strings * per_string
    else:
        product = as_float(strings * per_string) * multiplier
        total = math.ceil(product) if product < math.inf else math.inf
    return ShotPlan(
        pauli_strings=strings,
        shots_per_string=per_string,
        mitigation_multiplier=multiplier,
        total_shots=total,
        model=model,
    )


_WORKLOAD_KEYS = keys_of(WorkloadSpec)
_MITIGATION_KEYS = keys_of(MitigationSpec)


class Workloads(tuple):
    """The parsed :class:`WorkloadSpec` tuple, with the parse's lenient-mode warnings."""

    def __new__(cls, specs, warnings=()):
        self = super().__new__(cls, specs)
        self.warnings = tuple(warnings)
        return self


def _parse_one(raw: object, index: int, checker: Checker) -> WorkloadSpec:
    fields = checker.record(raw, f"workload #{index}", _WORKLOAD_KEYS)
    family = fields.choice("family", AlgorithmFamily)
    data_qubits = fields.integer("data_qubits", minimum=1)
    depth = fields.integer("depth", minimum=1)
    layers = fields.raw.get("qaoa_layers")
    if family is AlgorithmFamily.QAOA:
        layers = fields.integer("qaoa_layers", minimum=1)
    elif layers is not None:
        fields.fail("qaoa_layers", "is only valid for the qaoa family")
    epsilon = fields.number("target_epsilon", gt=0, le=1)
    iterations = fields.integer("ansatz_iterations", minimum=1)
    prep = fields.number("classical_prep_time", 0.0, ge=0)
    grouping = fields.choice("pauli_grouping", PauliGrouping, PauliGrouping.NONE)
    mitigation_fields = fields.record("mitigation", _MITIGATION_KEYS)
    mitigation = MitigationSpec(
        enabled=mitigation_fields.flag("enabled", False),
        exponent_coefficient=mitigation_fields.number("exponent_coefficient", 1.0, ge=0),
    )
    override = fields.number("c_vqe_override", None, gt=0)
    workload_id = fields.text("id", None, nonempty=True)
    return WorkloadSpec(
        id=f"{family.value}-{data_qubits}q-d{depth}" if workload_id is None else workload_id,
        family=family,
        data_qubits=data_qubits,
        depth=depth,
        target_epsilon=epsilon,
        ansatz_iterations=iterations,
        classical_prep_time=prep,
        qaoa_layers=layers,
        pauli_grouping=grouping,
        mitigation=mitigation,
        c_vqe_override=override,
    )


def parse_workloads(document: str, *, strict: bool = True) -> Workloads:
    """Parse a workload document (single object or list of objects).

    Strict mode (default) rejects unknown fields; lenient mode collects them
    into the result's ``warnings``.
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
    checker = Checker(WorkloadError, strict)
    specs = [_parse_one(item, i, checker) for i, item in enumerate(items)]
    return Workloads(specs, checker.warnings)
