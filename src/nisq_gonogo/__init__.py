"""NISQ feasibility and resource estimation.

Encodes the quantitative models behind go/no-go decisions for noisy
gate-model quantum workloads: the breadth x depth fidelity rule, shot and
runtime scaling of variational algorithms, classical-emulation tiers,
energy footprints, and a five-axis advantage taxonomy.
"""

from .advantage import (
    AdvantageReport,
    Outcome,
    SolutionProfile,
    classify,
    quantum_profile,
)
from .catalog import (
    Catalog,
    CatalogError,
    CatalogSyntaxError,
    CatalogValidationError,
    ClassicalRefSpec,
    Modality,
    PowerComponent,
    QpuSpec,
    QpuStatus,
    bundled_catalog,
    parse_catalog,
    serialize_catalog,
)
from .energy import EnergyEstimate, estimate_energy, job_energy, power_breakdown, power_draw
from .feasibility import (
    CapacityError,
    CircuitShape,
    EmulationTier,
    FeasibilityVerdict,
    Verdict,
    assess,
    emulation_tier,
    feasible_square_side,
    required_error_rate,
    simple_quantum_volume,
    statevector_memory,
    success_probability,
)
from .fields import InputWarning
from .runtime import RuntimeEstimate, estimate_runtime, single_shot_time
from .workload import (
    AlgorithmFamily,
    MitigationSpec,
    PauliGrouping,
    ShotPlan,
    WorkloadError,
    WorkloadSpec,
    mitigation_multiplier,
    parse_workloads,
    pauli_string_count,
    qaoa_aggregate_shots,
    shot_plan,
    shots_per_string,
)

__version__ = "0.1.0"

__all__ = [
    "AdvantageReport",
    "AlgorithmFamily",
    "CapacityError",
    "Catalog",
    "CatalogError",
    "CatalogSyntaxError",
    "CatalogValidationError",
    "CircuitShape",
    "ClassicalRefSpec",
    "EmulationTier",
    "EnergyEstimate",
    "FeasibilityVerdict",
    "InputWarning",
    "MitigationSpec",
    "Modality",
    "Outcome",
    "PauliGrouping",
    "PowerComponent",
    "QpuSpec",
    "QpuStatus",
    "RuntimeEstimate",
    "ShotPlan",
    "SolutionProfile",
    "Verdict",
    "WorkloadError",
    "WorkloadSpec",
    "assess",
    "bundled_catalog",
    "classify",
    "emulation_tier",
    "estimate_energy",
    "estimate_runtime",
    "feasible_square_side",
    "job_energy",
    "mitigation_multiplier",
    "parse_catalog",
    "parse_workloads",
    "pauli_string_count",
    "power_breakdown",
    "power_draw",
    "qaoa_aggregate_shots",
    "quantum_profile",
    "required_error_rate",
    "serialize_catalog",
    "shot_plan",
    "shots_per_string",
    "simple_quantum_volume",
    "single_shot_time",
    "statevector_memory",
    "success_probability",
]
