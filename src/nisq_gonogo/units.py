"""Unit conversions and deterministic value formatting for reports.

Error rates are stored as probabilities everywhere in this package;
percent fidelities exist only at the formatting boundary.
"""

from __future__ import annotations

import csv
import io
import math
from collections.abc import Iterable, Sequence

MINUTE = 60.0
HOUR = 3600.0
DAY = 86400.0
YEAR = 365.25 * DAY

# Human-duration display switches to the next unit at 120 of the smaller one
# (e.g. >= 120 s is shown in minutes).  Exact seconds are always printed
# alongside the humanized value in reports.
_UNIT_SWITCH = 120.0

_BYTE_UNITS = ("B", "KiB", "MiB", "GiB", "TiB", "PiB", "EiB", "ZiB", "YiB")


def as_float(x: int | float) -> float:
    """``float(x)``, or an infinity of the same sign for an int that ``float()`` cannot hold."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def csv_text(rows: Iterable[Sequence[object]]) -> str:
    """RFC-4180 CSV of ``rows``, LF line endings; the rows are read one at a time.

    A row of strings holding no comma, ``"``, CR or LF is joined directly;
    any other row (a single empty field, a field that is not a string, or one
    the writer may quote: whether it quotes a CR depends on the Python
    version) goes to ``csv.writer``, so the output is the writer's on every
    version.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for row in rows:
        try:
            line = ",".join(row)
        except TypeError:  # a field that is not a string
            writer.writerow(row)
            continue
        if not line or line.count(",") != len(row) - 1 or '"' in line or "\n" in line or "\r" in line:
            writer.writerow(row)
        else:
            out.write(line + "\n")
    return out.getvalue()


def fidelity_percent(error_rate: float) -> float:
    """Percent fidelity corresponding to an error-rate probability."""
    return 100.0 * (1.0 - error_rate)


def error_rate_from_percent(fidelity_pct: float) -> float:
    """Error-rate probability corresponding to a percent fidelity."""
    return 1.0 - fidelity_pct / 100.0


def format_fidelity_percent(error_rate: float, decimals: int = 1) -> str:
    """Render an error rate as a percent-fidelity string, e.g. ``99.7%``."""
    return f"{fidelity_percent(error_rate):.{decimals}f}%"


def sci(value: float) -> str:
    """Compact scientific/positional rendering, e.g. ``3.30816e11``.

    Deterministic across runs; exponent without a plus sign or zero padding.
    """
    text = f"{float(value):.6g}"
    if "e" in text:
        mantissa, exp = text.split("e")
        text = f"{mantissa}e{int(exp)}"
    return text


def format_duration(seconds: float) -> str:
    """Humanize a duration per the 120-of-the-smaller-unit rule."""
    s = float(seconds)
    if not math.isfinite(s):
        return "unbounded"
    if s < _UNIT_SWITCH:
        return f"{s:.3g} s"
    if s < _UNIT_SWITCH * MINUTE:
        return f"{s / MINUTE:.3g} min"
    if s < _UNIT_SWITCH * HOUR:
        return f"{s / HOUR:.3g} h"
    if s < _UNIT_SWITCH * DAY:
        return f"{s / DAY:.3g} days"
    return f"{s / YEAR:.3g} years"


def format_seconds(seconds: float) -> str:
    """Exact seconds with the humanized form beside, both unit-tagged."""
    human = format_duration(seconds)
    exact = f"{sci(seconds)} s"
    if human == exact or human.endswith(" s"):
        return exact
    return f"{exact} ({human})"


def format_bytes(n: int | float) -> str:
    """Binary-prefixed byte count; falls back to a power-of-two note for
    values beyond yobibytes ("astronomical" in report terms), and reads
    ``math.inf`` as unbounded."""
    if n < 0:
        raise ValueError(f"byte count must be non-negative, got {n}")
    if n == math.inf:  # only a float is equal to inf; an int beyond float range is astronomical
        return "inf B (unbounded)"
    value = as_float(n)
    for unit in _BYTE_UNITS:
        if value < 1024.0:
            if value == int(value):
                return f"{int(value)} {unit}"
            return f"{value:.4g} {unit}"
        value /= 1024.0
    bits = n.bit_length() - 1
    return f"~2^{bits} B (astronomical)"


def format_watts(watts: float) -> str:
    if watts >= 1000.0:
        return f"{watts / 1000.0:.4g} kW"
    return f"{watts:.4g} W"


def format_joules(joules: float) -> str:
    if joules >= 3.6e6:
        return f"{sci(joules)} J ({sci(joules / 3.6e6)} kWh)"
    return f"{sci(joules)} J"
