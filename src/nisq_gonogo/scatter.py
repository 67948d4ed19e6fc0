"""Deterministic CSV and SVG renderings of the catalog error-rate landscape.

The SVG is self-contained (no external plotting dependency): log-log axes of
qubit count vs two-qubit error rate, one marker per QPU, the depth-8
feasibility frontier ``error = 1/(8n)``, and shaded classical-emulation
bands at the statevector tier thresholds.  Identical catalogs produce
byte-identical output.
"""

from __future__ import annotations

import math

from .catalog import Catalog, QpuStatus
from .feasibility import DEFAULT_SHALLOW_DEPTH, STATEVECTOR_TIERS, TENSOR_NETWORK_ERROR_THRESHOLD, CircuitShape, required_error_rate
from .units import count_text, csv_field

#: Comment line identifying the layout revision; the only line allowed to
#: change between releases without being considered a rendering change.
SVG_VERSION_COMMENT = "<!-- nisq-gonogo scatter layout v1 -->"

DEFAULT_FRONTIER_DEPTH = 8

# plot geometry (pixels)
_W, _H = 760, 540
_PX0, _PX1 = 80.0, 720.0
_PY0, _PY1 = 40.0, 460.0
# log10 domains
_XMIN, _XMAX = 0.0, 4.0  # 1 .. 10^4 qubits
_YMIN, _YMAX = -7.0, 0.0  # 1e-7 .. 1 error rate

# (label, fill) of each emulation-tier band: the statevector tiers, then
# everything above the largest of them.
_BAND_STYLES = (
    ("laptop", "#e8f5e9"),
    ("server", "#e3f2fd"),
    ("cluster", "#fffde7"),
    ("HPC", "#fff3e0"),
    ("tensor network / beyond classical", "#f5f5f5"),
)
_STATEVECTOR_MAX = STATEVECTOR_TIERS[-1][1]
_BAND_EDGES = (1, *(max_qubits for _, max_qubits in STATEVECTOR_TIERS), 10**4)
_TIER_BANDS = tuple(
    (lo, hi, label, fill) for lo, hi, (label, fill) in zip(_BAND_EDGES, _BAND_EDGES[1:], _BAND_STYLES)
)

_STATUS_STYLE = {
    QpuStatus.AVAILABLE: ("#2166ac", "none"),
    QpuStatus.ANNOUNCED: ("#e08214", "none"),
    QpuStatus.PROJECTED: ("#ffffff", "#2166ac"),
}


def frontier_error(qubits: int | float) -> float:
    """Feasibility frontier at a given qubit count: the required error rate of 1 qubit at the frontier depth, over n."""
    if qubits <= 0:
        raise ValueError(f"qubits must be > 0, got {qubits}")
    return required_error_rate(CircuitShape(1, DEFAULT_FRONTIER_DEPTH)) / qubits


_CSV_HEADER = "qpu_id,qubit_count,two_qubit_error_median,status,modality\n"


def scatter_csv(catalog: Catalog) -> str:
    """RFC-4180 CSV of the catalog scatter data, LF line endings.

    Only the id can hold a character CSV quotes: status and modality are enum
    values, and the numbers print through ``str``.
    """
    return _CSV_HEADER + "".join(
        f"{csv_field(qpu.id)},{qpu.qubit_count},{qpu.two_qubit_error_median},{qpu.status.value},{qpu.modality.value}\n"
        for qpu in catalog.qpus
    )


def _x(qubits: float) -> float:
    t = (math.log10(qubits) - _XMIN) / (_XMAX - _XMIN)
    return _PX0 + t * (_PX1 - _PX0)


def _y(error_rate: float) -> float:
    t = (math.log10(error_rate) - _YMIN) / (_YMAX - _YMIN)
    return _PY1 - t * (_PY1 - _PY0)


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _escape(text: str) -> str:
    """``text`` as XML character data (a local helper keeps XML modules out of CLI start-up)."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def scatter_svg(catalog: Catalog) -> str:
    """Self-contained SVG scatter plot of the catalog."""
    parts: list[str] = []
    parts.append('<?xml version="1.0" encoding="UTF-8"?>')
    parts.append(SVG_VERSION_COMMENT)
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">'
    )
    parts.append(f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="#ffffff"/>')

    # emulation-tier bands
    for lo, hi, label, fill in _TIER_BANDS:
        x_lo = _x(lo)
        x_hi = _x(hi)
        parts.append(
            f'<rect x="{_fmt(x_lo)}" y="{_fmt(_PY0)}" width="{_fmt(x_hi - x_lo)}" '
            f'height="{_fmt(_PY1 - _PY0)}" fill="{fill}"/>'
        )
        parts.append(
            f'<text x="{_fmt((x_lo + x_hi) / 2)}" y="{_fmt(_PY0 + 14)}" text-anchor="middle" '
            f'fill="#666666" font-size="10">{label}</text>'
        )

    # decade gridlines and tick labels
    for exp in range(int(_XMIN), int(_XMAX) + 1):
        x = _x(10**exp)
        parts.append(
            f'<line x1="{_fmt(x)}" y1="{_fmt(_PY0)}" x2="{_fmt(x)}" y2="{_fmt(_PY1)}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(_PY1 + 18)}" text-anchor="middle">{10**exp}</text>'
        )
    for exp in range(int(_YMIN), int(_YMAX) + 1):
        y = _y(10.0**exp)
        parts.append(
            f'<line x1="{_fmt(_PX0)}" y1="{_fmt(y)}" x2="{_fmt(_PX1)}" y2="{_fmt(y)}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        label = "1" if exp == 0 else f"1e{exp}"
        parts.append(
            f'<text x="{_fmt(_PX0 - 8)}" y="{_fmt(y + 4)}" text-anchor="end">{label}</text>'
        )

    # plot frame and axis titles
    parts.append(
        f'<rect x="{_fmt(_PX0)}" y="{_fmt(_PY0)}" width="{_fmt(_PX1 - _PX0)}" '
        f'height="{_fmt(_PY1 - _PY0)}" fill="none" stroke="#333333" stroke-width="1"/>'
    )
    parts.append(
        f'<text x="{_fmt((_PX0 + _PX1) / 2)}" y="{_fmt(_PY1 + 40)}" text-anchor="middle">qubits</text>'
    )
    parts.append(
        f'<text x="20" y="{_fmt((_PY0 + _PY1) / 2)}" text-anchor="middle" '
        f'transform="rotate(-90 20 {_fmt((_PY0 + _PY1) / 2)})">two-qubit error rate (probability)</text>'
    )

    # feasibility frontier error = 1/(depth*n) at the frontier depth
    samples = 121
    points = []
    for i in range(samples):
        log_n = _XMIN + (_XMAX - _XMIN) * i / (samples - 1)
        n = 10.0**log_n
        e = frontier_error(n)
        if 10.0**_YMIN <= e <= 10.0**_YMAX:
            points.append(f"{_fmt(_x(n))},{_fmt(_y(e))}")
    parts.append(
        f'<polyline points="{" ".join(points)}" fill="none" stroke="#d62728" '
        f'stroke-width="1.5" stroke-dasharray="6 3"/>'
    )

    # markers
    for qpu in catalog.qpus:
        n = min(max(qpu.qubit_count, 10.0**_XMIN), 10.0**_XMAX)
        e = min(max(qpu.two_qubit_error_median, 10.0**_YMIN), 10.0**_YMAX)
        fill, stroke = _STATUS_STYLE[qpu.status]
        stroke_attr = f' stroke="{stroke}" stroke-width="1.5"' if stroke != "none" else ""
        parts.append(
            f'<circle cx="{_fmt(_x(n))}" cy="{_fmt(_y(e))}" r="5" fill="{fill}"{stroke_attr}>'
            f"<title>{_escape(qpu.id)}: {count_text(qpu.qubit_count, 'qubits')}, error {qpu.two_qubit_error_median}</title></circle>"
        )

    # legend
    legend_x = _PX0 + 10
    legend_y = _PY1 - 70
    legend = [
        f"dashed line: feasibility frontier error = 1/({DEFAULT_FRONTIER_DEPTH}*n) at depth {DEFAULT_FRONTIER_DEPTH}",
        "bands: cheapest classical emulation by qubit count;",
        f"  over {_STATEVECTOR_MAX} qubits tensor networks still work for shallow"
        f" (depth at most {DEFAULT_SHALLOW_DEPTH})",
        f"  or noisy (error above 1e{round(math.log10(TENSOR_NETWORK_ERROR_THRESHOLD))}) circuits,"
        " else beyond classical",
        "markers: filled blue available, orange announced, hollow projected",
    ]
    for i, line in enumerate(legend):
        parts.append(
            f'<text x="{_fmt(legend_x)}" y="{_fmt(legend_y + 13 * i)}" font-size="10" '
            f'fill="#333333">{line}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
