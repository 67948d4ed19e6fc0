import csv
import io
import sys
import xml.dom.minidom
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import CSV_CHARACTERS, csv_writer_is_the_oracle, csv_written
from nisq_gonogo.catalog import Catalog, QpuStatus, bundled_catalog
from nisq_gonogo.feasibility import STATEVECTOR_TIERS, CircuitShape, required_error_rate
from nisq_gonogo.scatter import SVG_VERSION_COMMENT, frontier_error, scatter_csv, scatter_svg


def test_csv_header_and_reference_row():
    text = scatter_csv(bundled_catalog())
    lines = text.splitlines()
    assert lines[0] == "qpu_id,qubit_count,two_qubit_error_median,status,modality"
    assert "google-sycamore-2022,72,0.006,available,superconducting" in lines
    assert text.endswith("\n")
    assert "\r" not in text


def test_csv_one_row_per_qpu():
    catalog = bundled_catalog()
    assert len(scatter_csv(catalog).splitlines()) == 1 + len(catalog.qpus)


# Catalogs of up to five qpus whose ids hold every character CSV treats specially.
_catalogs = st.lists(
    st.builds(
        lambda qpu, qpu_id, qubits, error, status: qpu._replace(
            id=qpu_id, qubit_count=qubits, two_qubit_error_median=error, status=status
        ),
        st.sampled_from(bundled_catalog().qpus),
        st.text(alphabet=st.sampled_from(CSV_CHARACTERS), min_size=1, max_size=6),
        st.integers(min_value=1, max_value=10**400),
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
        st.sampled_from(QpuStatus),
    ),
    max_size=5,
    unique_by=lambda qpu: qpu.id,
).map(lambda qpus: Catalog(qpus=tuple(qpus)))


def _rows(catalog):
    """The scatter rows of ``catalog`` as texts, header first."""
    return [["qpu_id", "qubit_count", "two_qubit_error_median", "status", "modality"]] + [
        [qpu.id, str(qpu.qubit_count), str(qpu.two_qubit_error_median), qpu.status.value, qpu.modality.value]
        for qpu in catalog.qpus
    ]


@settings(max_examples=400)
@given(_catalogs)
def test_scatter_csv_equals_the_csv_writer(catalog):
    """Quoting and a NUL come out as the writer's (a CR as 3.13's writer's)."""
    rows = _rows(catalog)
    written = csv_written(rows)
    if csv_writer_is_the_oracle(rows):
        assert scatter_csv(catalog) == written or written is None


@settings(max_examples=400)
@given(_catalogs)
def test_scatter_csv_reads_back_as_its_rows(catalog):
    """On every Python, ``csv.reader`` reads each row back field for field; a CR or LF stays inside its id."""
    reader = csv.reader(io.StringIO(scatter_csv(catalog), newline=""))
    if sys.version_info < (3, 11) and any("\0" in qpu.id for qpu in catalog.qpus):
        with pytest.raises(csv.Error, match="NUL"):  # 3.10's reader refuses a NUL
            list(reader)
    else:
        assert list(reader) == _rows(catalog)


def test_frontier_matches_feasibility_rule():
    assert frontier_error(53) == pytest.approx(required_error_rate(CircuitShape(53, 8)), rel=1e-12)
    assert frontier_error(53) == pytest.approx(2.358e-3, abs=1e-6)
    # the same float as 1/(8n) written out, at every int to 10^4 and at the plot's sample points
    for n in (*range(1, 10_001), *(10.0 ** (4 * i / 120) for i in range(121))):
        assert frontier_error(n) == 1.0 / (8 * n)
    with pytest.raises(ValueError):
        frontier_error(0)


def test_svg_well_formed_with_markers():
    svg = scatter_svg(bundled_catalog())
    xml.dom.minidom.parseString(svg)
    assert svg.splitlines()[1] == SVG_VERSION_COMMENT
    for qpu in bundled_catalog().qpus:
        assert qpu.id in svg


def test_svg_escapes_qpu_ids():
    qpu = bundled_catalog().qpus[0]._replace(id="a&b<c")
    root = ET.fromstring(scatter_svg(Catalog(qpus=(qpu,))).encode("utf-8"))
    titles = [el.text for el in root.iter("{http://www.w3.org/2000/svg}title")]
    assert len(titles) == 1 and titles[0].startswith("a&b<c: ")


def test_empty_catalog_svg_still_has_axes_and_zones():
    empty = Catalog(qpus=(), classical_refs=())
    svg = scatter_svg(empty)
    xml.dom.minidom.parseString(svg)
    assert "<circle" not in svg
    assert "polyline" in svg  # frontier curve
    assert "laptop" in svg  # tier band labels survive


def test_every_emulation_tier_band_is_drawn():
    # one band per statevector tier, then one for everything above the largest
    root = ET.fromstring(scatter_svg(Catalog(qpus=(), classical_refs=())).encode("utf-8"))
    bands = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text") if el.get("fill") == "#666666"]
    assert bands == ["laptop", "server", "cluster", "HPC", "tensor network / beyond classical"]
    assert len(bands) == len(STATEVECTOR_TIERS) + 1

def test_deterministic_output():
    catalog = bundled_catalog()
    assert scatter_csv(catalog) == scatter_csv(catalog)
    assert scatter_svg(catalog) == scatter_svg(catalog)
