"""The exact message of every workload, catalog and classical-profile field
check, and the order of lenient-mode warnings.

Each field of a valid document is replaced in turn by each bad JSON value
below; the table gives the one error text expected, or ``None`` where the
value is accepted.  The text is part of the command line's contract
(``error: ...``), so a faster or shorter parse must keep every word of it.
"""

import json

import pytest

from nisq_gonogo.advantage import parse_classical_profile
from nisq_gonogo.catalog import CatalogError, parse_catalog
from nisq_gonogo.fields import InputWarning
from nisq_gonogo.workload import WorkloadError, parse_workloads

HUGE = 10**400

#: Label -> JSON text of each bad value.
BAD_VALUES = {
    "true": "true",
    "null": "null",
    "string": '"x"',
    "empty-string": '""',
    "list": "[1]",
    "object": '{"a": 1}',
    "nan": "NaN",
    "inf": "Infinity",
    "-inf": "-Infinity",
    "huge": str(HUGE),
    "zero": "0",
    "negative": "-1",
    "half": "1.5",
    "unknown-enum": '"nope"',
    "enum-list": '["vqe"]',
    "surrogate": '"bad\\ud800"',
}

VALID = {
    "id": "w",
    "family": "qaoa",
    "data_qubits": 4,
    "depth": 3,
    "qaoa_layers": 2,
    "target_epsilon": 0.01,
    "ansatz_iterations": 5,
    "classical_prep_time": 1.0,
    "pauli_grouping": "none",
    "mitigation": {"enabled": True, "exponent_coefficient": 1.0},
    "c_vqe_override": 2.0,
}


#: Label -> how a message quotes the value (its Python repr).
GOT = {
    "true": "True",
    "null": "None",
    "string": "'x'",
    "empty-string": "''",
    "list": "[1]",
    "object": "{'a': 1}",
    "nan": "nan",
    "inf": "inf",
    "-inf": "-inf",
    "huge": str(HUGE),
    "zero": "0",
    "negative": "-1",
    "half": "1.5",
    "unknown-enum": "'nope'",
    "enum-list": "['vqe']",
    "surrogate": "'bad\\ud800'",
}


def _table(type_message, *, accepts=(), special=None):
    """``{type_message}, got {value}`` for each label, ``None`` for the accepted ones, ``special`` overriding."""
    table = {label: f"{type_message}, got {got}" for label, got in GOT.items()}
    table.update(special or {})
    table.update(dict.fromkeys(accepts))
    return table


def _integer(minimum=1, *, optional=False, floats=False):
    """An int >= ``minimum``; with ``floats``, a quantity a float must hold, so an int beyond float range is not finite."""
    table = _table("must be an integer", accepts=("huge",) + (("null",) if optional else ()))
    for label in ("zero", "negative"):
        table[label] = None if int(GOT[label]) >= minimum else f"must be >= {minimum}, got {GOT[label]}"
    if floats:
        table.update({label: f"must be finite, got {GOT[label]}" for label in ("nan", "inf", "-inf", "huge")})
    return table


def _number(bounds, *, accepts=()):
    """A finite number within ``bounds``."""
    finite = {label: f"must be finite, got {GOT[label]}" for label in ("nan", "inf", "-inf", "huge")}
    bounded = {label: f"must be {bounds}, got {got}" for label, got in (("zero", 0.0), ("negative", -1.0), ("half", 1.5))}
    return _table("must be a number", accepts=accepts, special={**finite, **bounded})


def _choice(values):
    return _table(f"must be one of {values}")


_STRINGS = ("string", "empty-string", "unknown-enum")


def _text(*, nonempty=False, optional=False, strings=None):
    """A string field; ``strings`` maps the labels of the three plain strings to their messages (default: accepted)."""
    special = {"surrogate": "must not hold a lone surrogate, got 'bad\\ud800'", **(strings or dict.fromkeys(_STRINGS))}
    if nonempty:
        special["empty-string"] = "must be non-empty"
    if optional:
        special["null"] = None
    return _table("must be a string", special=special)


def _one_of(message):
    """``message, got <value>`` for each plain string: a string field with a closed set of values."""
    return {label: f"{message}, got {GOT[label]}" for label in _STRINGS}


EXPECTED = {
    # the optional non-empty id: null reads as absent
    "id": _text(nonempty=True, optional=True),
    "family": _choice(["vqe", "qaoa", "generic"]),
    "data_qubits": _integer(),
    "depth": _integer(),
    "qaoa_layers": _integer(),
    "target_epsilon": _number("in (0, 1]"),
    "ansatz_iterations": _integer(),
    "classical_prep_time": _number(">= 0", accepts=("zero", "half")),
    "pauli_grouping": _choice(["none", "grouped"]),
    "mitigation": _table("must be an object", special={"object": "unknown field 'mitigation.a'"}),
    "mitigation.enabled": _table("must be a boolean", accepts=("true",)),
    "mitigation.exponent_coefficient": _number(">= 0", accepts=("zero", "half")),
    "c_vqe_override": _number("> 0", accepts=("null", "half")),
}


def _document(field, value_text, valid=VALID):
    """The JSON text of ``valid`` with ``field`` set to the JSON ``value_text``.

    ``outer.inner`` names a field of a nested object, and ``outer[].inner`` one
    of the first object in a list.
    """
    marker = "@@VALUE@@"
    document = json.loads(json.dumps(valid))
    *path, name = field.split(".")
    record = document
    for part in path:
        record = record[part[:-2]][0] if part.endswith("[]") else record[part]
    record[name] = marker
    return json.dumps(document).replace(json.dumps(marker), value_text)


CASES = [(field, label) for field in EXPECTED for label in BAD_VALUES]


def test_the_table_covers_every_field_and_value():
    assert set(EXPECTED) == {*VALID, "mitigation.enabled", "mitigation.exponent_coefficient"}
    assert all(set(table) == set(BAD_VALUES) for table in EXPECTED.values())


@pytest.mark.parametrize(("field", "label"), CASES, ids=[f"{field}={label}" for field, label in CASES])
def test_each_bad_value_gets_its_exact_message(field, label):
    expected = EXPECTED[field][label]
    document = _document(field, BAD_VALUES[label])
    if expected is None:
        assert len(parse_workloads(document)) == 1
        return
    prefix = "workload #0: " if expected.startswith("unknown field") else f"workload #0: field '{field}' "
    with pytest.raises(WorkloadError) as info:
        parse_workloads(document)
    assert str(info.value) == prefix + expected


def test_accepted_values_keep_their_type():
    spec = parse_workloads(_document("data_qubits", str(HUGE)))[0]
    assert spec.data_qubits == HUGE and type(spec.data_qubits) is int
    spec = parse_workloads(_document("classical_prep_time", "0"))[0]
    assert spec.classical_prep_time == 0.0 and type(spec.classical_prep_time) is float
    spec = parse_workloads(_document("c_vqe_override", "1.5"))[0]
    assert spec.c_vqe_override == 1.5


def test_qaoa_layers_outside_the_qaoa_family():
    document = _document("family", '"vqe"')
    assert parse_workloads(document.replace('"qaoa_layers": 2', '"qaoa_layers": null'))[0].qaoa_layers is None
    for text in ("2", "true", '"x"', "[1]"):
        with pytest.raises(WorkloadError) as info:
            parse_workloads(document.replace('"qaoa_layers": 2', f'"qaoa_layers": {text}'))
        assert str(info.value) == "workload #0: field 'qaoa_layers' is only valid for the qaoa family"


def test_missing_required_fields_are_named_in_parse_order():
    for field in ("family", "data_qubits", "depth", "target_epsilon", "ansatz_iterations"):
        record = dict(VALID)
        del record[field]
        with pytest.raises(WorkloadError) as info:
            parse_workloads(json.dumps(record))
        assert str(info.value) == f"workload #0: missing required field '{field}'"
    # with several bad fields, the first in parse order is reported
    record = dict(VALID, depth=0, family="nope", c_vqe_override=-1)
    with pytest.raises(WorkloadError) as info:
        parse_workloads(json.dumps(record))
    assert str(info.value) == "workload #0: field 'family' must be one of ['vqe', 'qaoa', 'generic'], got 'nope'"


def test_lenient_warnings_keep_their_order():
    first = dict(VALID, zeta=1, alpha=2, mitigation={"enabled": False, "omega": 3, "beta": 4})
    second = dict(VALID, id="v", gamma=None)
    document = json.dumps([first, second])
    with pytest.raises(WorkloadError) as info:
        parse_workloads(document)
    assert str(info.value) == "workload #0: unknown field 'alpha'"
    with pytest.warns(InputWarning) as warned:
        workloads = parse_workloads(document, strict=False)
    assert [spec.id for spec in workloads] == ["w", "v"]
    assert tuple(str(w.message) for w in warned) == (
        "workload #0: ignoring unknown field 'alpha'",
        "workload #0: ignoring unknown field 'zeta'",
        "workload #0: ignoring unknown field 'mitigation.beta'",
        "workload #0: ignoring unknown field 'mitigation.omega'",
        "workload #1: ignoring unknown field 'gamma'",
    )


VALID_QPU = {
    "id": "q",
    "modality": "superconducting",
    "qubit_count": 72,
    "two_qubit_error_median": 0.006,
    "two_qubit_error_stddev": 0.002,
    "two_qubit_gate_time": 1e-7,
    "readout_time": 1e-6,
    "reset_time": 1e-6,
    "connectivity": "grid-4",
    "power_components": [{"label": "fridge", "unit_power_w": 10.0, "count": 2, "per_qubit": False}],
    "status": "available",
    "source_note": "n",
}
VALID_REF = {"id": "r", "description": "d", "power_draw": 100.0, "memory_capacity": 1024, "tier_hint": "hpc"}
VALID_CATALOG = {"schema_version": 1, "qpus": [VALID_QPU], "classical_refs": [VALID_REF]}
VALID_PROFILE = {"runtime_s": 10.0, "energy_j": 5.0, "cost": 1.0, "quality": 1.0, "memory_bytes": 1024, "classical_ref": "r"}


class Whole(str):
    """A message given whole: it names its own record, not the field."""


def _not_an_object(record):
    """A list field's table: a list of an int or a string fails on its first item, any other value as not a list."""
    table = dict.fromkeys(BAD_VALUES, "must be a list")
    table["list"] = Whole(f"{record}: expected a JSON object, got int")
    table["enum-list"] = Whole(f"{record}: expected a JSON object, got str")
    return table


def _version():
    """``schema_version``: an int other than 1 is an unsupported version, anything else not an integer."""
    table = _integer(minimum=-1)
    table.update({label: Whole(f"catalog: unsupported schema_version {GOT[label]} (expected 1)") for label in ("zero", "negative", "huge")})
    return table


CONNECTIVITY = "must be one of ['all-to-all', 'grid-4', 'heavy-hex', 'linear'] or 'cluster-<k>'"
TIERS = "must be one of ['laptop', 'server', 'cluster', 'hpc', 'tensor-network', 'beyond-classical']"

CATALOG_EXPECTED = {
    "schema_version": _version(),
    "qpus": _not_an_object("qpu '<qpu>'"),
    "classical_refs": {**_not_an_object("classical ref '<classical ref>'"), "null": None},
    "qpus[].id": _text(nonempty=True),
    "qpus[].modality": _choice(["superconducting", "trapped-ion", "neutral-atom", "photonic", "spin", "other"]),
    "qpus[].qubit_count": _integer(),
    "qpus[].two_qubit_error_median": _number("in (0, 1)"),
    "qpus[].two_qubit_error_stddev": _number(">= 0", accepts=("null", "zero", "half")),
    "qpus[].two_qubit_gate_time": _number("> 0", accepts=("half",)),
    "qpus[].readout_time": _number(">= 0", accepts=("zero", "half")),
    "qpus[].reset_time": _number(">= 0", accepts=("zero", "half")),
    "qpus[].connectivity": _text(strings=_one_of(CONNECTIVITY)),
    "qpus[].power_components": {**_not_an_object("qpu 'q' power component #0"), "null": None},
    "qpus[].status": _choice(["available", "announced", "projected"]),
    "qpus[].source_note": _text(),
    "qpus[].power_components[].label": _text(),
    "qpus[].power_components[].unit_power_w": _number(">= 0", accepts=("zero", "half")),
    "qpus[].power_components[].count": _integer(minimum=0, optional=True),
    "qpus[].power_components[].per_qubit": _table("must be a boolean", accepts=("true", "null")),
    "classical_refs[].id": _text(nonempty=True),
    "classical_refs[].description": _text(),
    "classical_refs[].power_draw": _number("> 0", accepts=("half",)),
    "classical_refs[].memory_capacity": _integer(floats=True),
    "classical_refs[].tier_hint": _text(optional=True, strings=_one_of(TIERS)),
}

PROFILE_EXPECTED = {
    "runtime_s": _number("> 0", accepts=("half",)),
    "energy_j": _number(">= 0", accepts=("null", "zero", "half")),
    "cost": _number(">= 0", accepts=("null", "zero", "half")),
    "quality": _number(">= 0", accepts=("null", "zero", "half")),
    "memory_bytes": _integer(minimum=0, optional=True, floats=True),
    "classical_ref": _text(
        optional=True, strings={label: Whole(f"unknown classical ref id {GOT[label]} (catalog has: r)") for label in _STRINGS}
    ),
}

#: The record each field's message names, by the path of its object; an id names its record by its own value.
RECORDS = {
    "": "catalog",
    "qpus[]": "qpu '{}'",
    "qpus[].power_components[]": "qpu 'q' power component #0",
    "classical_refs[]": "classical ref '{}'",
}


def _parse_profile(document):
    return parse_classical_profile(document, parse_catalog(json.dumps(VALID_CATALOG)))


DOCUMENT_CASES = [
    (kind, field, label)
    for kind, expected in (("catalog", CATALOG_EXPECTED), ("profile", PROFILE_EXPECTED))
    for field in expected
    for label in BAD_VALUES
]


def test_the_catalog_and_profile_tables_cover_every_field_and_value():
    def fields(record, path=""):
        for key, value in record.items():
            yield path + key
            if isinstance(value, list):
                yield from fields(value[0], f"{path}{key}[].")

    assert set(CATALOG_EXPECTED) == set(fields(VALID_CATALOG))
    assert set(PROFILE_EXPECTED) == set(VALID_PROFILE)
    assert all(set(table) == set(BAD_VALUES) for table in [*CATALOG_EXPECTED.values(), *PROFILE_EXPECTED.values()])


@pytest.mark.parametrize(("kind", "field", "label"), DOCUMENT_CASES, ids=[f"{k}:{f}={v}" for k, f, v in DOCUMENT_CASES])
def test_each_bad_catalog_or_profile_value_gets_its_exact_message(kind, field, label):
    if kind == "catalog":
        expected, valid, parse, error = CATALOG_EXPECTED[field][label], VALID_CATALOG, parse_catalog, CatalogError
    else:
        expected, valid, parse, error = PROFILE_EXPECTED[field][label], VALID_PROFILE, _parse_profile, ValueError
    document = _document(field, BAD_VALUES[label], valid)
    if expected is None:
        parse(document)
        return
    with pytest.raises(error) as info:
        parse(document)
    if not isinstance(expected, Whole):
        path, _, name = field.rpartition(".")
        record = "classical profile" if kind == "profile" else RECORDS[path]
        record_id = json.loads(BAD_VALUES[label]) if name == "id" else valid.get(path[:-2], [{}])[0].get("id")
        expected = f"{record.format(record_id)}: field '{name}' {expected}"
    assert str(info.value) == expected


def test_accepted_catalog_and_profile_values_keep_their_type():
    catalog = parse_catalog(_document("qpus[].qubit_count", str(HUGE), VALID_CATALOG))
    assert type(catalog.qpus[0].qubit_count) is int and catalog.qpus[0].qubit_count == HUGE
    catalog = parse_catalog(_document("qpus[].power_components[].unit_power_w", "0", VALID_CATALOG))
    assert type(catalog.qpus[0].power_components[0].unit_power_w) is float
    catalog = parse_catalog(_document("classical_refs[].memory_capacity", "2.0", VALID_CATALOG))
    assert type(catalog.classical_refs[0].memory_capacity) is int and catalog.classical_refs[0].memory_capacity == 2
    catalog = parse_catalog(_document("qpus[].power_components[].per_qubit", "null", VALID_CATALOG))
    assert catalog.qpus[0].power_components[0].per_qubit is False and catalog.qpus[0].power_components[0].count == 2
    profile, _ = _parse_profile(_document("memory_bytes", "4e3", VALID_PROFILE))
    assert type(profile.memory_bytes) is int and profile.memory_bytes == 4000
    profile, _ = _parse_profile(_document("runtime_s", "3", VALID_PROFILE))
    assert type(profile.runtime_s) is float and profile.runtime_s == 3.0


def test_lenient_catalog_warnings_keep_their_order():
    qpu = dict(VALID_QPU, zeta=1, power_components=[dict(VALID_QPU["power_components"][0], watts=2)], alpha=3)
    document = json.dumps(dict(VALID_CATALOG, qpus=[qpu], classical_refs=[dict(VALID_REF, omega=4)], extra=5))
    with pytest.raises(CatalogError) as info:
        parse_catalog(document)
    assert str(info.value) == "catalog: unknown field 'extra'"
    with pytest.warns(InputWarning) as warned:
        parse_catalog(document, strict=False)
    assert tuple(str(w.message) for w in warned) == (
        "catalog: ignoring unknown field 'extra'",
        "qpu 'q': ignoring unknown field 'alpha'",
        "qpu 'q': ignoring unknown field 'zeta'",
        "qpu 'q' power component #0: ignoring unknown field 'watts'",
        "classical ref 'r': ignoring unknown field 'omega'",
    )
    with pytest.warns(InputWarning) as warned:
        parse_classical_profile(json.dumps(dict(VALID_PROFILE, note="n")), parse_catalog(json.dumps(VALID_CATALOG)), strict=False)
    assert [str(w.message) for w in warned] == ["classical profile: ignoring unknown field 'note'"]
