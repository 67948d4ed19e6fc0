"""The package's records are immutable named tuples with the fields and signatures the parsers write."""

import copy
import json
import pickle

import pytest
from helpers import make_spec

from nisq_gonogo.advantage import SolutionProfile, classify, quantum_profile
from nisq_gonogo.catalog import Catalog, QpuSpec, bundled_catalog, parse_catalog
from nisq_gonogo.cli import build_estimate_record, build_feasibility_bundle
from nisq_gonogo.feasibility import CircuitShape, assess
from nisq_gonogo.fields import json_of
from nisq_gonogo.workload import parse_workloads

#: QpuSpec's fields, the order ``serialize_catalog`` writes: the ten required ones, then the two optional.
QPU_LAYOUT = (
    "id", "modality", "qubit_count", "two_qubit_error_median", "two_qubit_gate_time", "readout_time",
    "reset_time", "connectivity", "status", "source_note", "two_qubit_error_stddev", "power_components",
)


def _powered_qpu():
    return next(qpu for qpu in bundled_catalog().qpus if qpu.power_components)


def _public_records():
    catalog = bundled_catalog()
    qpu = _powered_qpu()
    spec = make_spec()
    record = build_estimate_record(qpu, spec)
    quantum = quantum_profile(record.runtime.total_time, qubits=spec.data_qubits)
    return {
        "PowerComponent": qpu.power_components[0],
        "QpuSpec": qpu,
        "ClassicalRefSpec": catalog.classical_refs[0],
        "Catalog": catalog,
        "MitigationSpec": spec.mitigation,
        "WorkloadSpec": spec,
        "ShotPlan": record.plan,
        "CircuitShape": spec.shape,
        "SolutionProfile": quantum,
        "AdvantageReport": classify(quantum, SolutionProfile(runtime_s=1.0)),
        "RuntimeEstimate": record.runtime,
        "EnergyEstimate": record.energy,
        "ResourceRecord": record,
        "FeasibilityVerdict": assess(qpu, spec.shape),
        "VerdictRow": build_feasibility_bundle(catalog, (spec,))[0],
    }


@pytest.mark.parametrize("name", sorted(_public_records()))
def test_records_are_immutable(name):
    record = _public_records()[name]
    assert type(record).__name__ == name
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1  # no instance dict either


def test_qpu_spec_fields_follow_the_catalog_layout():
    assert QpuSpec._fields == QPU_LAYOUT


def test_qpu_spec_takes_stddev_and_power_components_by_keyword_only():
    qpu = _powered_qpu()
    required = [getattr(qpu, name) for name in QpuSpec._fields if name not in ("two_qubit_error_stddev", "power_components")]
    bare = QpuSpec(*required)
    assert bare.two_qubit_error_stddev is None and bare.power_components == ()
    assert QpuSpec(*required, qpu.two_qubit_error_stddev, qpu.power_components) == qpu
    rebuilt = QpuSpec(
        *required, two_qubit_error_stddev=qpu.two_qubit_error_stddev, power_components=qpu.power_components
    )
    assert rebuilt == qpu and type(rebuilt) is QpuSpec


def test_qpu_spec_survives_copy_and_pickle():
    qpu = _powered_qpu()
    assert copy.deepcopy(qpu) == qpu
    assert pickle.loads(pickle.dumps(qpu)) == qpu


def test_catalog_survives_copy_and_pickle():
    catalog = bundled_catalog()
    for copied in (copy.deepcopy(catalog), pickle.loads(pickle.dumps(catalog))):
        assert type(copied) is Catalog and copied == catalog
    assert Catalog(catalog.qpus[1:], catalog.classical_refs) != catalog


def test_json_of_round_trips_a_qpu_with_power_components():
    qpu = _powered_qpu()
    doc = json_of(qpu)
    assert list(doc) == [name for name in QpuSpec._fields if getattr(qpu, name) is not None]
    assert doc["power_components"] == [json_of(component) for component in qpu.power_components]
    parsed = parse_catalog(json.dumps({"schema_version": 1, "qpus": [doc]}))
    assert parsed.qpus == (qpu,)


def test_json_of_writes_a_nested_record_as_an_object():
    spec = make_spec()
    doc = json_of(spec)
    assert doc["mitigation"] == {"enabled": False, "exponent_coefficient": 1.0}
    assert parse_workloads(json.dumps(doc)) == (spec,)


def test_checked_records_keep_their_checks():
    with pytest.raises(ValueError, match="^breadth must be a positive integer, got 0$"):
        CircuitShape(0, 1)
    with pytest.raises(ValueError, match="^runtime_s must be > 0, got 0.0$"):
        SolutionProfile(runtime_s=0.0)


def test_replace_runs_the_checks_of_the_constructor():
    with pytest.raises(ValueError, match="^depth must be a positive integer, got 0$"):
        CircuitShape(2, 3)._replace(depth=0)
    with pytest.raises(ValueError, match="^runtime_s must be > 0, got -1.0$"):
        SolutionProfile(1.0)._replace(runtime_s=-1.0)
    assert CircuitShape(2, 3)._replace(depth=5) == CircuitShape(2, 5)
    assert SolutionProfile(1.0)._replace(memory_bytes=8) == SolutionProfile(1.0, memory_bytes=8)
