"""The exact message of every workload field check, and the order of lenient-mode warnings.

Each field of a valid workload is replaced in turn by each bad JSON value
below; the table gives the one ``WorkloadError`` text expected, or ``None``
where the value is accepted.  The text is part of the command line's
contract (``error: ...``), so a faster parse must keep every word of it.
"""

import json

import pytest

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


def _integer():
    """An int >= 1: data_qubits, depth, qaoa_layers (qaoa family), ansatz_iterations."""
    below = {"zero": "must be >= 1, got 0", "negative": "must be >= 1, got -1"}
    return _table("must be an integer", accepts=("huge",), special=below)


def _number(bounds, *, accepts=()):
    """A finite number within ``bounds``."""
    finite = {label: f"must be finite, got {GOT[label]}" for label in ("nan", "inf", "-inf", "huge")}
    bounded = {label: f"must be {bounds}, got {got}" for label, got in (("zero", 0.0), ("negative", -1.0), ("half", 1.5))}
    return _table("must be a number", accepts=accepts, special={**finite, **bounded})


def _choice(values):
    return _table(f"must be one of {values}")


EXPECTED = {
    # the optional non-empty id: null reads as absent
    "id": _table(
        "must be a string",
        accepts=("null", "string", "unknown-enum"),
        special={
            "empty-string": "must be non-empty",
            "surrogate": "must not hold a lone surrogate, got 'bad\\ud800'",
        },
    ),
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


def _document(field, value_text):
    """The valid workload with ``field`` (``outer.inner`` for a nested one) set to the JSON ``value_text``."""
    marker = "@@VALUE@@"
    record = json.loads(json.dumps(VALID))
    outer, _, inner = field.partition(".")
    if inner:
        record[outer][inner] = marker
    else:
        record[outer] = marker
    return json.dumps(record).replace(json.dumps(marker), value_text)


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
