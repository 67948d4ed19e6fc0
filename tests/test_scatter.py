import xml.dom.minidom
import xml.etree.ElementTree as ET

import pytest

from nisq_gonogo.catalog import Catalog, bundled_catalog
from nisq_gonogo.feasibility import CircuitShape, required_error_rate
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


def test_deterministic_output():
    catalog = bundled_catalog()
    assert scatter_csv(catalog) == scatter_csv(catalog)
    assert scatter_svg(catalog) == scatter_svg(catalog)
