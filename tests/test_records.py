"""The package's records are immutable named tuples with the fields and signatures the parsers write."""

import ast
import copy
import importlib
import inspect
import json
import math
import pathlib
import pickle
import re
import typing

import pytest
from helpers import make_spec

import nisq_gonogo
from nisq_gonogo import energy, feasibility, runtime, workload
from nisq_gonogo.advantage import AdvantageReport, Outcome, SolutionProfile, classify, quantum_profile
from nisq_gonogo.catalog import Catalog, QpuSpec, bundled_catalog, parse_catalog
from nisq_gonogo.cli import ResourceRecord, build_estimate_record, build_feasibility_bundle
from nisq_gonogo.feasibility import CapacityError, CircuitShape, FeasibilityVerdict, assess
from nisq_gonogo.fields import json_of
from nisq_gonogo.workload import AlgorithmFamily, MitigationSpec, PauliGrouping, parse_workloads

#: QpuSpec's fields, the order ``serialize_catalog`` writes: the nine required ones, then the two optional.
QPU_LAYOUT = (
    "id", "modality", "qubit_count", "two_qubit_error_median", "two_qubit_gate_time", "readout_time",
    "reset_time", "status", "source_note", "two_qubit_error_stddev", "power_components",
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
        "VerdictRun": build_feasibility_bundle(catalog, (spec,))[0][0],
        "CapacityMiss": build_feasibility_bundle(catalog, (make_spec(data_qubits=10**6),))[1][0],
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


def test_every_input_field_is_read_outside_its_parser():
    """Each field a catalog or workload document carries is read as an attribute by some model or report."""
    from nisq_gonogo.catalog import ClassicalRefSpec
    from nisq_gonogo.workload import WorkloadSpec

    package = pathlib.Path(workload.__file__).parent
    read = {
        node.attr
        for path in package.glob("*.py")
        if path.name not in ("catalog.py", "__init__.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    fields = {*QpuSpec._fields, *ClassicalRefSpec._fields, *WorkloadSpec._fields, *MitigationSpec._fields}
    # source_note is parsed for the provenance block of the JSON reports (ROADMAP item 4)
    assert sorted(fields - read - {"source_note"}) == []


def test_every_exported_name_is_named_in_the_readme_library_section():
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    assert sorted(set(nisq_gonogo.__all__) - set(re.findall(r"\w+", section))) == []


def _package_functions():
    """Every function and method that the package's modules define at their top level or in their classes."""
    for path in sorted(pathlib.Path(workload.__file__).parent.glob("*.py")):
        module = importlib.import_module(f"nisq_gonogo.{path.stem}" if path.stem != "__init__" else "nisq_gonogo")
        for obj in vars(module).values():
            for member in (obj, *(vars(obj).values() if inspect.isclass(obj) else ())):
                function = getattr(member, "fget", getattr(member, "__func__", member))  # property, classmethod
                if inspect.isfunction(function) and function.__module__ == module.__name__:
                    yield function


def test_every_annotation_names_what_its_module_holds():
    """Each annotation resolves under ``typing.get_type_hints``: no annotation names a type its module
    does not import."""
    functions = list(_package_functions())
    assert len(functions) > 100
    unresolved = []
    for function in functions:
        try:
            typing.get_type_hints(function)
        except NameError as error:
            unresolved.append(f"{function.__module__}.{function.__qualname__}: {error}")
    assert unresolved == []


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
    parsed = parse_catalog(json.dumps({"schema_version": 2, "qpus": [doc]}))
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


#: Per record: (class, ``_fields``, ``_field_defaults``, a sample, the sample's repr).
def _record_table():
    from nisq_gonogo.advantage import AdvantageReport, Outcome
    from nisq_gonogo.catalog import ClassicalRefSpec, Modality, PowerComponent, QpuStatus
    from nisq_gonogo.cli import ResourceRecord
    from nisq_gonogo.energy import EnergyEstimate
    from nisq_gonogo.feasibility import CapacityMiss, FeasibilityVerdict, Verdict, VerdictRun
    from nisq_gonogo.runtime import RuntimeEstimate
    from nisq_gonogo.workload import AlgorithmFamily, MitigationSpec, ShotPlan, WorkloadSpec

    component = PowerComponent("pulse tubes", 10000.0, 9)
    component_repr = "PowerComponent(label='pulse tubes', unit_power_w=10000.0, count=9, per_qubit=False)"
    qpu = QpuSpec(
        "q", Modality.SPIN, 4, 0.01, 1e-07, 1e-06, 0.0, QpuStatus.PROJECTED, "note",
        power_components=(component,),
    )
    qpu_repr = (
        "QpuSpec(id='q', modality=<Modality.SPIN: 'spin'>, qubit_count=4, two_qubit_error_median=0.01, "
        "two_qubit_gate_time=1e-07, readout_time=1e-06, reset_time=0.0, "
        "status=<QpuStatus.PROJECTED: 'projected'>, source_note='note', two_qubit_error_stddev=None, "
        f"power_components=({component_repr},))"
    )
    ref = ClassicalRefSpec("dgx", "a rack", 30000.0, 2**41)
    ref_repr = "ClassicalRefSpec(id='dgx', description='a rack', power_draw=30000.0, memory_capacity=2199023255552)"
    mitigation = MitigationSpec(True)
    mitigation_repr = "MitigationSpec(enabled=True, exponent_coefficient=1.0)"
    plan = ShotPlan(10, 100, 1.5, 1500)
    plan_repr = "ShotPlan(pauli_strings=10, shots_per_string=100, mitigation_multiplier=1.5, total_shots=1500, model='per-string')"
    runtime = RuntimeEstimate(1e-06, 0.0015, 1.0015, 100.15, (("quantum", 0.15), ("classical", 100.0)))
    runtime_repr = (
        "RuntimeEstimate(single_shot_time=1e-06, quantum_time_per_iteration=0.0015, iteration_time=1.0015, "
        "total_time=100.15, breakdown=(('quantum', 0.15), ('classical', 100.0)))"
    )
    energy = EnergyEstimate(90000.0, 9013500.0, (("pulse tubes", 90000.0),))
    energy_repr = "EnergyEstimate(power_draw=90000.0, job_energy=9013500.0, breakdown=(('pulse tubes', 90000.0),))"
    verdict = FeasibilityVerdict(0.001, 0.002, 0.25, Verdict.MARGINAL, True)
    verdict_repr = (
        "FeasibilityVerdict(required_error_rate=0.001, available_error_rate=0.002, success_probability=0.25, "
        "verdict=<Verdict.MARGINAL: 'marginal'>, optimistic=True)"
    )
    advantage = (Outcome.ADVANTAGE, Outcome.PARITY, Outcome.NOT_EVALUATED, Outcome.DISADVANTAGE, Outcome.PARITY)
    return {
        "PowerComponent": (
            PowerComponent, ("label", "unit_power_w", "count", "per_qubit"), {"count": 1, "per_qubit": False},
            component, component_repr,
        ),
        "QpuSpec": (
            QpuSpec, QPU_LAYOUT, {"two_qubit_error_stddev": None, "power_components": ()}, qpu, qpu_repr,
        ),
        "ClassicalRefSpec": (
            ClassicalRefSpec, ("id", "description", "power_draw", "memory_capacity"), {}, ref, ref_repr,
        ),
        "Catalog": (
            Catalog, ("qpus", "classical_refs"), {"classical_refs": ()}, Catalog((qpu,), (ref,)),
            f"Catalog(qpus=({qpu_repr},), classical_refs=({ref_repr},))",
        ),
        "MitigationSpec": (
            MitigationSpec, ("enabled", "exponent_coefficient"), {"enabled": False, "exponent_coefficient": 1.0},
            mitigation, mitigation_repr,
        ),
        "WorkloadSpec": (
            WorkloadSpec,
            ("id", "family", "data_qubits", "depth", "target_epsilon", "ansatz_iterations", "classical_prep_time",
             "qaoa_layers", "pauli_grouping", "mitigation", "c_vqe_override"),
            {"classical_prep_time": 0.0, "qaoa_layers": None, "pauli_grouping": PauliGrouping.NONE,
             "mitigation": MitigationSpec(), "c_vqe_override": None},
            WorkloadSpec("w", AlgorithmFamily.QAOA, 4, 3, 0.01, 2, qaoa_layers=1, mitigation=mitigation),
            "WorkloadSpec(id='w', family=<AlgorithmFamily.QAOA: 'qaoa'>, data_qubits=4, depth=3, target_epsilon=0.01, "
            "ansatz_iterations=2, classical_prep_time=0.0, qaoa_layers=1, "
            f"pauli_grouping=<PauliGrouping.NONE: 'none'>, mitigation={mitigation_repr}, c_vqe_override=None)",
        ),
        "ShotPlan": (
            ShotPlan, ("pauli_strings", "shots_per_string", "mitigation_multiplier", "total_shots", "model"),
            {"model": "per-string"}, plan, plan_repr,
        ),
        "CircuitShape": (CircuitShape, ("breadth", "depth"), {}, CircuitShape(2, 3), "CircuitShape(breadth=2, depth=3)"),
        "FeasibilityVerdict": (
            FeasibilityVerdict,
            ("required_error_rate", "available_error_rate", "success_probability", "verdict", "optimistic"),
            {}, verdict, verdict_repr,
        ),
        "SolutionProfile": (
            SolutionProfile, ("runtime_s", "energy_j", "cost", "quality", "memory_bytes"),
            {},  # the defaults are those of the checked ``__new__``
            SolutionProfile(2.5, memory_bytes=8),
            "SolutionProfile(runtime_s=2.5, energy_j=None, cost=None, quality=None, memory_bytes=8)",
        ),
        "AdvantageReport": (
            AdvantageReport, ("space", "speed", "quality", "energetic", "cost", "notes"), {"notes": ()},
            AdvantageReport(*advantage, notes=("a note",)),
            "AdvantageReport(space=<Outcome.ADVANTAGE: 'advantage'>, speed=<Outcome.PARITY: 'parity'>, "
            "quality=<Outcome.NOT_EVALUATED: 'not-evaluated'>, energetic=<Outcome.DISADVANTAGE: 'disadvantage'>, "
            "cost=<Outcome.PARITY: 'parity'>, notes=('a note',))",
        ),
        "RuntimeEstimate": (
            RuntimeEstimate,
            ("single_shot_time", "quantum_time_per_iteration", "iteration_time", "total_time", "breakdown"),
            {}, runtime, runtime_repr,
        ),
        "EnergyEstimate": (EnergyEstimate, ("power_draw", "job_energy", "breakdown"), {}, energy, energy_repr),
        "VerdictRun": (
            VerdictRun, ("qpu_id", "workload_ids", "verdict", "note"), {},
            VerdictRun("q", ("v", "w"), verdict, ""),
            f"VerdictRun(qpu_id='q', workload_ids=('v', 'w'), verdict={verdict_repr}, note='')",
        ),
        "CapacityMiss": (
            CapacityMiss, ("qpu_id", "workload_id", "note"), {},
            CapacityMiss("q", "w", "insufficient qubits: needs 5, has 4"),
            "CapacityMiss(qpu_id='q', workload_id='w', note='insufficient qubits: needs 5, has 4')",
        ),
        "ResourceRecord": (
            ResourceRecord, ("plan", "runtime", "energy"), {}, ResourceRecord(plan, runtime, energy),
            f"ResourceRecord(plan={plan_repr}, runtime={runtime_repr}, energy={energy_repr})",
        ),
    }


def test_record_table_covers_every_public_record():
    assert sorted(_record_table()) == sorted(_public_records())


@pytest.mark.parametrize("name", sorted(_public_records()))
def test_record_layout_repr_and_round_trips(name):
    cls, fields, defaults, sample, text = _record_table()[name]
    assert cls.__name__ == name and type(sample) is cls
    assert cls._fields == fields
    assert cls._field_defaults == defaults
    assert repr(sample) == text
    assert cls._make(sample) == sample and type(cls._make(sample)) is cls
    assert sample._replace() == sample
    copies = [copy.copy(sample), copy.deepcopy(sample)]
    copies += [pickle.loads(pickle.dumps(sample, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for copied in copies:
        assert type(copied) is cls
        assert copied == sample and hash(copied) == hash(sample)
        assert repr(copied) == text


#: The checked records: (a valid sample, ``_replace`` keywords that fail its check, the message).
CHECKED = {
    "CircuitShape": (lambda: CircuitShape(2, 3), {"breadth": True}, "^breadth must be a positive integer, got True$"),
    "SolutionProfile": (lambda: SolutionProfile(1.0), {"memory_bytes": -1}, "^memory_bytes must be >= 0, got -1$"),
    "Catalog": (
        lambda: Catalog((_powered_qpu(),)),
        {"qpus": (_powered_qpu(), _powered_qpu())},
        "^catalog: duplicate id '.*' in qpus$",
    ),
}


@pytest.mark.parametrize("name", sorted(CHECKED))
def test_checked_records_check_in_new_make_and_replace(name):
    make, bad, message = CHECKED[name]
    sample = make()
    cls = type(sample)
    with pytest.raises(ValueError, match=message):
        sample._replace(**bad)
    values = [bad.get(field, value) for field, value in zip(cls._fields, sample)]
    with pytest.raises(ValueError, match=message):
        cls._make(values)
    with pytest.raises(ValueError, match=message):
        cls(*values)


@pytest.mark.parametrize("qpu", bundled_catalog().qpus, ids=lambda qpu: qpu.id)
@pytest.mark.parametrize(
    "spec",
    [make_spec(), make_spec(data_qubits=30, depth=4, mitigation=MitigationSpec(True, 0.5), classical_prep_time=2.0)],
    ids=["vqe", "mitigated"],
)
def test_records_from_the_fast_paths_equal_their_keyword_built_records(qpu, spec):
    """The estimate's records, a fit verdict and a report are made with ``tuple.__new__``: each is of the
    exact named-tuple type and equals the record built by keyword from the model functions."""
    shape = spec.shape
    multiplier = workload.mitigation_multiplier(spec.mitigation, qpu.two_qubit_error_median, shape)
    strings = workload.pauli_string_count(spec)
    per_string = workload.shots_per_string(spec.target_epsilon)
    total = strings * per_string if multiplier == 1.0 else math.ceil(strings * per_string * multiplier)
    plan = workload.ShotPlan(
        pauli_strings=strings, shots_per_string=per_string, mitigation_multiplier=multiplier, total_shots=total
    )
    shot = runtime.single_shot_time(qpu, spec.depth)
    iteration = spec.classical_prep_time + total * shot
    timing = runtime.RuntimeEstimate(
        single_shot_time=shot,
        quantum_time_per_iteration=total * shot,
        iteration_time=iteration,
        total_time=spec.ansatz_iterations * iteration,
        breakdown=(
            ("classical preparation and post-processing", spec.ansatz_iterations * spec.classical_prep_time),
            ("quantum execution", spec.ansatz_iterations * (total * shot)),
        ),
    )
    power = energy.power_draw(qpu)
    estimate = energy.EnergyEstimate(
        power_draw=power, job_energy=energy.job_energy(power, timing.total_time), breakdown=energy.power_breakdown(qpu)
    )
    record = build_estimate_record(qpu, spec)
    assert record == ResourceRecord(plan=plan, runtime=timing, energy=estimate)
    assert [type(made) for made in (record, *record)] == [ResourceRecord, *map(type, (plan, timing, estimate))]

    if shape.breadth > qpu.qubit_count:
        with pytest.raises(CapacityError):
            assess(qpu, shape)
    else:
        verdict = assess(qpu, shape)
        required = feasibility.required_error_rate(shape)
        available = qpu.two_qubit_error_median
        assert type(verdict) is FeasibilityVerdict
        assert verdict == FeasibilityVerdict(
            required_error_rate=required,
            available_error_rate=available,
            success_probability=feasibility.success_probability(available, shape),
            verdict=feasibility.rate_verdict(required, available),
            optimistic=qpu.two_qubit_error_stddev is None,
        )


def test_an_advantage_report_equals_its_keyword_built_record():
    quantum = quantum_profile(10.0, qubits=60, energy_j=1.0, cost=5.0)
    classical = SolutionProfile(100.0, energy_j=10.0, cost=5.0, quality=1.0, memory_bytes=2**41)
    report = classify(quantum, classical)
    assert type(report) is AdvantageReport
    assert report == AdvantageReport(
        space=Outcome.ADVANTAGE,
        speed=Outcome.ADVANTAGE,
        quality=Outcome.NOT_EVALUATED,
        energetic=Outcome.ADVANTAGE,
        cost=Outcome.PARITY,
        notes=(
            "space and energetic advantage together: the reference classical machine cannot hold the full "
            "state, so the energy win may extend to any classical configuration of this class",
        ),
    )
    swapped = classify(classical, quantum)
    assert type(swapped) is AdvantageReport and swapped == AdvantageReport(
        Outcome.DISADVANTAGE, Outcome.DISADVANTAGE, Outcome.NOT_EVALUATED, Outcome.DISADVANTAGE, Outcome.PARITY
    )
    # a fast-built record is a plain named tuple: ``_replace`` gives the same type
    assert type(report._replace(cost=Outcome.ADVANTAGE)) is AdvantageReport


class _Count(int):
    """An int subclass other than bool, as a parser of another library might return."""


@pytest.mark.parametrize("bad", [True, False, 0, -1, 2.0, "3", None])
def test_circuit_shape_rejects_anything_but_a_positive_int_with_its_message(bad):
    with pytest.raises(ValueError, match=f"^breadth must be a positive integer, got {re.escape(repr(bad))}$"):
        CircuitShape(bad, 3)
    with pytest.raises(ValueError, match=f"^depth must be a positive integer, got {re.escape(repr(bad))}$"):
        CircuitShape(3, bad)
    with pytest.raises(ValueError, match=f"^depth must be a positive integer, got {re.escape(repr(bad))}$"):
        make_spec().shape._replace(depth=bad)


def test_circuit_shape_accepts_an_int_subclass_other_than_bool():
    shape = CircuitShape(_Count(3), _Count(4))
    assert type(shape) is CircuitShape and shape == CircuitShape(3, 4) and shape.volume == 12
    assert CircuitShape(3, 4)._replace(depth=_Count(5)) == (3, 5)
    assert CircuitShape(_Count(1), _Count(1)) == (1, 1)  # the least breadth and depth
    assert make_spec(family=AlgorithmFamily.GENERIC, data_qubits=2**70).shape == (2**70, 72)
