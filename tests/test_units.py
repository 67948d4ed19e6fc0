import csv
import io
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from nisq_gonogo.units import (
    as_float,
    csv_text,
    error_rate_from_percent,
    fidelity_percent,
    format_bytes,
    format_duration,
    format_fidelity_percent,
    format_joules,
    format_seconds,
    format_watts,
    sci,
)


def test_fidelity_percent_round_trip():
    for error in (0.006, 0.0034, 1e-3, 1e-6, 0.5):
        assert abs(error_rate_from_percent(fidelity_percent(error)) - error) < 1e-12


def test_format_fidelity_percent():
    assert format_fidelity_percent(0.006) == "99.4%"
    assert format_fidelity_percent(1.0 / (372 * 1490), 5) == "99.99982%"


def test_sci_formatting():
    assert sci(330816000000) == "3.30816e11"
    assert sci(0.006) == "0.006"
    assert sci(1e-7) == "1e-7"
    assert sci(2.718281828) == "2.71828"


def test_duration_unit_switch_at_120():
    assert format_duration(119) == "119 s"
    assert format_duration(120) == "2 min"
    assert format_duration(120 * 60) == "2 h"
    assert format_duration(120 * 3600) == "5 days"
    assert format_duration(120 * 86400).endswith("years")


def test_format_seconds_shows_exact_and_human():
    text = format_seconds(2.3818752e8)
    assert "2.38188e8 s" in text
    assert "years" in text
    # sub-two-minutes durations only show seconds once
    assert format_seconds(1.0) == "1 s"


def test_format_bytes():
    assert format_bytes(16) == "16 B"
    assert format_bytes(2**33) == "8 GiB"
    assert format_bytes(2**44) == "16 TiB"
    assert format_bytes(2**54) == "16 PiB"
    assert "astronomical" in format_bytes(2**104)
    assert format_bytes(2**1030) == "~2^1030 B (astronomical)"
    assert format_bytes(10**400) == f"~2^{(10**400).bit_length() - 1} B (astronomical)"
    assert format_bytes(2**89) == "512 YiB"
    assert format_bytes(2**90) == "~2^90 B (astronomical)"
    assert format_bytes(math.inf) == "inf B (unbounded)"


def test_format_watts_and_joules():
    assert format_watts(130720) == "130.7 kW"
    assert format_watts(65) == "65 W"
    assert format_joules(1.8e8) == "1.8e8 J (50 kWh)"


def test_as_float_reads_ints_beyond_float_range_as_signed_infinity():
    assert as_float(3) == 3.0 and isinstance(as_float(3), float)
    assert as_float(0.25) == 0.25
    assert as_float(10**400) == math.inf
    assert as_float(-(10**400)) == -math.inf
    assert math.isnan(as_float(math.nan))


def test_csv_text_quotes_fields_and_reads_rows_lazily():
    rows = (row for row in (["a", "b,c"], [1, 'say "hi"']))
    assert csv_text(rows) == 'a,"b,c"\n1,"say ""hi"""\n'
    assert csv_text([]) == ""


_csv_strings = st.text(alphabet=st.sampled_from([",", '"', "\r", "\n", " ", "a", "b", "Z"]), max_size=6)
_csv_rows = st.one_of(
    st.lists(_csv_strings, max_size=5),  # mostly the joined fast path
    st.lists(st.one_of(_csv_strings, st.integers(), st.floats(), st.none()), max_size=5),
    st.just([""]),
)


@settings(max_examples=300)
@given(st.lists(_csv_rows, max_size=6))
def test_csv_text_equals_the_csv_writer(rows):
    """The joined fast path and the writer it falls back to give ``csv.writer``'s bytes.

    A CR is quoted or not by the writer depending on the Python version, so
    rows holding one go to the writer too.
    """
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    assert csv_text(rows) == out.getvalue()
