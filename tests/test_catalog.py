import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nisq_gonogo import InputWarning
from nisq_gonogo.catalog import (
    Catalog,
    CatalogSyntaxError,
    CatalogValidationError,
    bundled_catalog,
    parse_catalog,
    serialize_catalog,
)
from nisq_gonogo.energy import power_draw

MINIMAL = {
    "schema_version": 2,
    "qpus": [
        {
            "id": "x",
            "modality": "superconducting",
            "qubit_count": 1,
            "two_qubit_error_median": 0.01,
            "two_qubit_gate_time": 1e-7,
            "readout_time": 0,
            "reset_time": 0,
            "power_components": [],
            "status": "available",
            "source_note": "test fixture",
        }
    ],
    "classical_refs": [],
}


def minimal_doc(**overrides):
    doc = json.loads(json.dumps(MINIMAL))
    doc["qpus"][0].update(overrides)
    return json.dumps(doc)


def test_parse_minimal_document():
    catalog = parse_catalog(minimal_doc())
    assert len(catalog.qpus) == 1
    assert catalog.qpus[0].id == "x"
    assert catalog.qpus[0].qubit_count == 1
    assert catalog.qpus[0].two_qubit_error_stddev is None


def test_error_median_out_of_range_names_field():
    with pytest.raises(CatalogValidationError, match="two_qubit_error_median"):
        parse_catalog(minimal_doc(two_qubit_error_median=1.2))
    with pytest.raises(CatalogValidationError, match="qpu 'x'"):
        parse_catalog(minimal_doc(two_qubit_error_median=0.0))


def test_syntax_error_reports_position():
    with pytest.raises(CatalogSyntaxError) as info:
        parse_catalog('{"schema_version": 1, "qpus": [}')
    assert str(info.value) == "catalog: Expecting value (line 1, column 32)"


def test_duplicate_id_rejected():
    doc = json.loads(minimal_doc())
    doc["qpus"].append(json.loads(minimal_doc())["qpus"][0])
    with pytest.raises(CatalogValidationError, match="duplicate id 'x'"):
        parse_catalog(json.dumps(doc))


@pytest.mark.parametrize("label", ["qpus", "classical_refs"])
def test_catalog_rejects_a_repeated_id_as_the_parser_does(label):
    catalog = bundled_catalog()
    entries = getattr(catalog, label)
    fields = catalog._asdict() | {label: entries + entries[:1]}
    repeated = tuple.__new__(Catalog, fields.values())  # round the check, to serialize what the parser must refuse
    with pytest.raises(CatalogValidationError) as parsed:
        parse_catalog(serialize_catalog(repeated))
    with pytest.raises(CatalogValidationError) as built:
        Catalog(repeated.qpus, repeated.classical_refs)
    with pytest.raises(CatalogValidationError) as by_keyword:
        Catalog(qpus=repeated.qpus, classical_refs=repeated.classical_refs)
    with pytest.raises(CatalogValidationError) as replaced:
        catalog._replace(**{label: fields[label]})
    message = f"catalog: duplicate id {entries[0].id!r} in {label}"
    assert str(parsed.value) == str(built.value) == str(by_keyword.value) == str(replaced.value) == message


def test_missing_field_named():
    doc = json.loads(minimal_doc())
    del doc["qpus"][0]["two_qubit_gate_time"]
    with pytest.raises(CatalogValidationError, match="two_qubit_gate_time"):
        parse_catalog(json.dumps(doc))


def test_unknown_field_strict_vs_lenient():
    # the fields that schema version 1 had and version 2 dropped are unknown like any other
    with_ref = json.loads(minimal_doc())
    with_ref["classical_refs"] = [
        {"id": "r", "description": "d", "power_draw": 100, "memory_capacity": 1024, "tier_hint": "hpc"}
    ]
    cases = [
        (minimal_doc(surprise=42), "surprise", "qpu 'x'"),
        (minimal_doc(connectivity="grid-4"), "connectivity", "qpu 'x'"),
        (json.dumps(with_ref), "tier_hint", "classical ref 'r'"),
    ]
    for doc, field, record in cases:
        with pytest.raises(CatalogValidationError, match=f"^{record}: unknown field '{field}'"):
            parse_catalog(doc, strict=True)
        with pytest.warns(InputWarning) as warned:
            catalog = parse_catalog(doc, strict=False)
        assert [str(w.message) for w in warned] == [f"{record}: ignoring unknown field '{field}'"]
        # recognized fields are never dropped in lenient mode
        assert catalog.qpus[0].two_qubit_error_median == 0.01


def test_gate_time_must_be_positive():
    with pytest.raises(CatalogValidationError, match="two_qubit_gate_time"):
        parse_catalog(minimal_doc(two_qubit_gate_time=0))
    with pytest.raises(CatalogValidationError, match="two_qubit_gate_time.*finite"):
        parse_catalog(minimal_doc(two_qubit_gate_time=10**400))


def test_bundled_contains_reference_hardware():
    catalog = bundled_catalog()
    sycamore = catalog.get_qpu("google-sycamore-2022")
    assert sycamore.qubit_count == 72
    assert sycamore.two_qubit_error_median == 0.006

    egret = catalog.get_qpu("ibm-prague-egret")
    assert egret.qubit_count == 33
    assert egret.two_qubit_error_median == 0.0034

    heron = catalog.get_qpu("ibm-heron")
    assert heron.qubit_count == 133
    assert heron.two_qubit_error_median == 0.001
    assert heron.status.value == "projected"

    flamingo = catalog.get_qpu("ibm-flamingo")
    assert flamingo.qubit_count == 1386
    assert flamingo.status.value == "projected"
    assert power_draw(flamingo) <= 140_000

    ion = catalog.get_qpu("quantinuum-h1")
    assert ion.modality.value == "trapped-ion"
    assert ion.two_qubit_gate_time / sycamore.two_qubit_gate_time == pytest.approx(1000, rel=1e-12)

    assert any(ref.power_draw == 30_000 for ref in catalog.classical_refs)


def test_bundled_source_notes_non_empty():
    for qpu in bundled_catalog().qpus:
        assert qpu.source_note.strip()


def test_bundled_round_trips():
    catalog = bundled_catalog()
    again = parse_catalog(serialize_catalog(catalog))
    assert again == catalog


def test_bundled_serialization_is_pinned():
    """The one report with no CLI path, so no golden case: the bundled catalog's JSON document."""
    text = serialize_catalog(bundled_catalog())
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "4301e1eb1326b8c9f3333aab37b5b206bf232bdac7be325e2099006d8a1c8a58"
    )


def test_unknown_qpu_id_lists_known():
    with pytest.raises(Exception, match="unknown qpu id"):
        bundled_catalog().get_qpu("does-not-exist")


# random catalog generation for the round-trip property

_ids = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=12)


def _qpu_dicts(qpu_id):
    return st.fixed_dictionaries(
        {
            "id": st.just(qpu_id),
            "modality": st.sampled_from(
                ["superconducting", "trapped-ion", "neutral-atom", "photonic", "spin", "other"]
            ),
            "qubit_count": st.integers(min_value=1, max_value=10_000),
            "two_qubit_error_median": st.floats(min_value=1e-9, max_value=0.999, allow_nan=False),
            "two_qubit_gate_time": st.floats(min_value=1e-9, max_value=1.0, allow_nan=False),
            "readout_time": st.floats(min_value=0, max_value=1.0, allow_nan=False),
            "reset_time": st.floats(min_value=0, max_value=1.0, allow_nan=False),
            "power_components": st.lists(
                st.fixed_dictionaries(
                    {
                        "label": st.just("component"),
                        "unit_power_w": st.floats(min_value=0, max_value=1e6, allow_nan=False),
                        "count": st.integers(min_value=0, max_value=100),
                        "per_qubit": st.booleans(),
                    }
                ),
                max_size=3,
            ),
            "status": st.sampled_from(["available", "announced", "projected"]),
            "source_note": st.just("generated"),
        },
        optional={"two_qubit_error_stddev": st.floats(min_value=0, max_value=0.1, allow_nan=False)},
    )


@st.composite
def qpu_lists(draw):
    ids = draw(st.lists(_ids, min_size=0, max_size=4, unique=True))
    return [draw(_qpu_dicts(i)) for i in ids]


@settings(max_examples=100, deadline=None)
@given(qpu_lists())
def test_round_trip_property(qpus):
    catalog = parse_catalog(json.dumps({"schema_version": 2, "qpus": qpus, "classical_refs": []}))
    assert isinstance(catalog, Catalog)
    assert parse_catalog(serialize_catalog(catalog)) == catalog
