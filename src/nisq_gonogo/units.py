"""Unit conversions and deterministic value formatting for reports.

Error rates are stored as probabilities everywhere in this package;
percent fidelities exist only at the formatting boundary.
"""

from __future__ import annotations

import functools
import math
import sys

MINUTE = 60.0
HOUR = 3600.0
DAY = 86400.0
YEAR = 365.25 * DAY

# Human-duration display switches to the next unit at 120 of the smaller one
# (e.g. >= 120 s is shown in minutes).  Exact seconds are always printed
# alongside the humanized value in reports.
_UNIT_SWITCH = 120.0

#: A count computed in floats is an exact int up to 2**53 and the float above it.
EXACT_COUNT_LIMIT = 2**53

_UNBOUNDED = "unbounded"

_BYTE_UNITS = ("B", "KiB", "MiB", "GiB", "TiB", "PiB", "EiB", "ZiB", "YiB")
#: 2**90 = 1024 YiB, the first byte count :func:`format_bytes` writes as a power of two.
_ASTRONOMICAL_EXPONENT = 10 * len(_BYTE_UNITS)


def as_float(x: int | float) -> float:
    """``float(x)``, or an infinity of the same sign for an int that ``float()`` cannot hold."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def times(x: float, y: float) -> float:
    """``x * y``, except that a zero factor gives that zero (sign kept), even against ``inf``."""
    return x * y if x and y else (y if x else x)


def per_object(make):
    """``make(obj)``, kept per object: a later call with the same object (``is``, not
    ``==``, so ``0.0`` and ``-0.0`` keep their own values) returns the kept value.

    ``entries`` maps ``id(obj)`` to ``(obj, value)``; holding the object keeps its
    id from reuse.  A call that raises keeps nothing; 256 entries empty the memo.
    """
    entries = {}

    @functools.wraps(make)
    def memo(obj):
        entry = entries.get(id(obj))
        if entry is not None and entry[0] is obj:
            return entry[1]
        value = make(obj)
        if len(entries) >= 256:
            entries.clear()
        entries[id(obj)] = (obj, value)
        return value

    memo.entries = entries
    return memo


def csv_quotes(text: str) -> bool:
    """Whether :func:`csv_field` quotes ``text``: it holds a comma, ``"``, LF or CR."""
    return "," in text or '"' in text or "\n" in text or "\r" in text


def csv_field(text: str) -> str:
    """One field of an RFC 4180 row, as Python 3.13's ``csv.writer`` writes it.

    A text for which :func:`csv_quotes` holds is quoted with each ``"`` doubled,
    on every Python version.  A NUL is written as it is (3.10's writer rejects it).
    """
    if csv_quotes(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def fidelity_percent(error_rate: float) -> float:
    """Percent fidelity corresponding to an error-rate probability."""
    return 100.0 * (1.0 - error_rate)


def format_fidelity_percent(error_rate: float) -> str:
    """Render an error rate as a percent-fidelity string to two decimals, e.g. ``99.75%``."""
    return f"{fidelity_percent(error_rate):.2f}%"


def unbounded(unit: str = "") -> str:
    """The one text of a value beyond float range, e.g. ``inf J (unbounded)``."""
    return f"inf {unit} ({_UNBOUNDED})" if unit else f"inf ({_UNBOUNDED})"


def count_number(count: int | float) -> str:
    """A count's number: an int up to :data:`EXACT_COUNT_LIMIT` in full, a count
    above it by :func:`sci`, and ``inf`` beyond float range (no space, so a name can hold it)."""
    return str(count) if type(count) is int and count <= EXACT_COUNT_LIMIT else sci(as_float(count))


def count_text(count: int | float, unit: str = "") -> str:
    """A count and its unit: :func:`count_number`, and a count beyond float range unbounded.

    Without a unit the number stands alone (a table's header names it).
    """
    number = count_number(count)
    if number == "inf":
        return unbounded(unit)
    return f"{number} {unit}" if unit else number


def total_text(count: int | float, unit: str) -> str:
    """:func:`count_text`, except that an int in float range is written in full with its
    :func:`sci` text beside: an estimate's shot total, whose digits the benchmark's reference pins."""
    if type(count) is int and as_float(count) < math.inf:
        return f"{count} {unit} ({sci(count)})"
    return count_text(count, unit)


def sci(value: float) -> str:
    """Compact scientific/positional rendering, e.g. ``3.30816e11``.

    Deterministic across runs; exponent without a plus sign or zero padding.
    """
    text = f"{float(value):.6g}"
    return text.replace("e+", "e").replace("e0", "e").replace("e-0", "e-") if "e" in text else text


def format_duration(seconds: float) -> str:
    """Humanize a duration per the 120-of-the-smaller-unit rule."""
    s = float(seconds)
    if not math.isfinite(s):
        return _UNBOUNDED
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
    """Exact seconds with the humanized form beside, both unit-tagged.

    Below 120 s (finite) the humanized form would be in seconds too, so it
    is left out and not built.
    """
    exact = f"{sci(seconds)} s"
    if -math.inf < seconds < _UNIT_SWITCH:
        return exact
    return f"{exact} ({format_duration(seconds)})"


def format_bytes(n: int | float) -> str:
    """Binary-prefixed byte count; falls back to a power-of-two note for
    values beyond yobibytes ("astronomical" in report terms), and reads
    ``math.inf`` as unbounded."""
    if not n >= 0:
        raise ValueError(f"byte count must be non-negative, got {n}")
    if n == math.inf:  # only a float is equal to inf; an int beyond float range is astronomical
        return unbounded("B")
    value = as_float(n)
    for unit in _BYTE_UNITS:
        if value < 1024.0:
            if value == int(value):
                return f"{int(value)} {unit}"
            return f"{value:.4g} {unit}"
        value /= 1024.0
    return format_power_of_two_bytes((n.bit_length() if type(n) is int else math.frexp(n)[1]) - 1)


def format_power_of_two_bytes(exponent: int) -> str:
    """:func:`format_bytes` of ``2 ** exponent``, built from the exponent alone so that
    no huge int is made; an exponent past ``sys.maxsize`` reads unbounded."""
    if exponent < _ASTRONOMICAL_EXPONENT:
        return format_bytes(1 << exponent)
    if exponent > sys.maxsize:
        return format_bytes(math.inf)
    return f"~2^{exponent} B (astronomical)"


def format_watts(watts: float) -> str:
    if watts >= 1000.0:
        return f"{watts / 1000.0:.4g} kW" if watts < math.inf else unbounded("W")
    return f"{watts:.4g} W"


def format_joules(joules: float) -> str:
    if joules >= 3.6e6:
        return f"{sci(joules)} J ({sci(joules / 3.6e6)} kWh)" if joules < math.inf else unbounded("J")
    return f"{sci(joules)} J"
