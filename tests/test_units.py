import csv
import io
import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nisq_gonogo.units import (
    as_float,
    csv_field,
    csv_text,
    fidelity_percent,
    format_bytes,
    format_duration,
    format_fidelity_percent,
    format_joules,
    format_power_of_two_bytes,
    format_seconds,
    format_watts,
    sci,
    times,
)


def test_fidelity_percent():
    for error, percent in ((0.006, 99.4), (0.0034, 99.66), (1e-3, 99.9), (1e-6, 99.9999), (0.5, 50.0), (0.0, 100.0)):
        assert abs(fidelity_percent(error) - percent) < 1e-12


def test_format_fidelity_percent():
    assert format_fidelity_percent(0.006) == "99.4%"
    assert format_fidelity_percent(1.0 / (372 * 1490), 5) == "99.99982%"


def test_sci_formatting():
    assert sci(330816000000) == "3.30816e11"
    assert sci(0.006) == "0.006"
    assert sci(1e-7) == "1e-7"
    assert sci(2.718281828) == "2.71828"


def _sci_by_split(value):
    """The earlier definition of ``sci``: the exponent goes through ``int`` and back."""
    text = f"{float(value):.6g}"
    if "e" in text:
        mantissa, exp = text.split("e")
        text = f"{mantissa}e{int(exp)}"
    return text


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.floats(), st.integers(min_value=-(10**300), max_value=10**300)))
def test_sci_matches_the_split_definition(value):
    assert sci(value) == _sci_by_split(value)


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


_SMALLEST_NORMAL = 2.2250738585072014e-308
_seconds = st.one_of(
    st.floats(max_value=-0.0),  # negatives, -inf included
    st.sampled_from([0, 0.0, -0.0, math.inf, -math.inf, math.nan]),
    st.floats(min_value=-_SMALLEST_NORMAL, max_value=_SMALLEST_NORMAL),  # subnormals
    st.floats(min_value=119.0, max_value=120.0),  # just below and at 120
    st.sampled_from([math.nextafter(120.0, 0.0), 120, 120.0, math.nextafter(120.0, math.inf)]),
    st.floats(min_value=120.0, allow_infinity=False),  # large finite
    st.integers(min_value=-(10**12), max_value=10**12),
)


@settings(max_examples=500)
@given(_seconds)
def test_format_seconds_follows_its_definition(seconds):
    """Exact seconds, and the humanized form beside unless it is in seconds too."""
    human = format_duration(seconds)
    exact = sci(seconds) + " s"
    assert format_seconds(seconds) == (exact if human.endswith(" s") else f"{exact} ({human})")


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
    assert format_bytes(2.0**90) == "~2^90 B (astronomical)"
    assert format_bytes(1e30) == "~2^99 B (astronomical)"
    assert format_bytes(sys.float_info.max) == "~2^1023 B (astronomical)"
    for bad in (-1, float("nan")):
        with pytest.raises(ValueError, match=f"^byte count must be non-negative, got {bad}$"):
            format_bytes(bad)


@settings(max_examples=500)
@given(st.floats(min_value=0, max_value=sys.float_info.max).map(math.floor).map(float))
def test_format_bytes_reads_an_integral_float_as_its_int(value):
    assert format_bytes(value) == format_bytes(int(value))


def test_format_power_of_two_bytes_is_format_bytes_of_the_power():
    for exponent in (0, 4, 33, 89, 90, 1023, 1024, 1104):
        assert format_power_of_two_bytes(exponent) == format_bytes(2**exponent)
    assert format_power_of_two_bytes(10**12 + 4) == "~2^1000000000004 B (astronomical)"
    assert format_power_of_two_bytes(sys.maxsize) == f"~2^{sys.maxsize} B (astronomical)"
    assert format_power_of_two_bytes(sys.maxsize + 1) == "inf B (unbounded)"


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


@pytest.mark.parametrize("zero", [0.0, -0.0])
@pytest.mark.parametrize("unbounded", [math.inf, -math.inf])
def test_times_gives_a_zero_factor_against_an_unbounded_one_in_either_order(zero, unbounded):
    for product in (times(zero, unbounded), times(unbounded, zero)):
        assert product == 0.0 and math.copysign(1.0, product) == math.copysign(1.0, zero)


@pytest.mark.parametrize("x, y", [(3.0, 0.25), (-2.5, 1e300), (1e300, 1e300), (5e-324, 0.5), (7, 1e-7), (math.inf, 2.0)])
def test_times_is_the_product_of_nonzero_factors(x, y):
    assert times(x, y) == x * y and times(y, x) == y * x


def test_csv_text_quotes_fields_and_reads_rows_lazily():
    rows = (row for row in (["a", "b,c"], [1, 'say "hi"']))
    assert csv_text(rows) == 'a,"b,c"\n1,"say ""hi"""\n'
    assert csv_text([]) == ""


# Every character CSV treats specially, a space, non-ASCII text and a NUL (which 3.10's writer rejects).
_csv_strings = st.text(
    alphabet=st.sampled_from([",", '"', "\r", "\n", " ", "a", "b", "Z", "é", "漢", "\u2028", "\0"]), max_size=6
)
_csv_rows = st.one_of(
    st.lists(_csv_strings, max_size=5),
    st.lists(st.one_of(_csv_strings, st.integers(), st.floats(), st.none(), st.booleans()), max_size=5),
    st.just([""]),
    st.just([None]),
)


def _written(rows):
    """``csv.writer``'s text of ``rows``; ``None`` where it rejects a NUL, as 3.10's writer does."""
    out = io.StringIO()
    try:
        csv.writer(out, lineterminator="\n").writerows(rows)
    except csv.Error:
        assert any("\0" in str(value) for row in rows for value in row)
        return None
    return out.getvalue()


def _writer_is_the_oracle(rows):
    """Whether ``csv.writer`` writes ``rows`` by the one rule: on 3.13+ always; before that, unless a CR shows."""
    return sys.version_info >= (3, 13) or not any("\r" in str(value) for row in rows for value in row)


def _text(value):
    """The text a CSV field of ``value`` reads back as."""
    if value is None:
        return ""
    return str.__str__(value) if isinstance(value, str) else str(value)


@settings(max_examples=400)
@given(st.lists(_csv_rows, max_size=6))
def test_csv_text_equals_the_csv_writer(rows):
    """Quoting, a NUL and a row of one empty field come out as the writer's (a CR as 3.13's writer's)."""
    written = _written(rows)
    if _writer_is_the_oracle(rows):
        assert csv_text(rows) == written or written is None


@settings(max_examples=400)
@given(_csv_rows)
def test_csv_fields_joined_equal_the_csv_writer(row):
    joined = ",".join([csv_field(value) for value in row]) + "\n"
    written = _written([row])
    if row in ([""], [None]):  # the writer marks a row of one empty field as ``""``; the field itself is empty
        assert joined == "\n" and written == '""\n'
    elif _writer_is_the_oracle([row]):
        assert joined == written or written is None


@settings(max_examples=400)
@given(st.lists(_csv_rows, max_size=6))
def test_csv_text_reads_back_as_its_rows(rows):
    """On every Python, ``csv.reader`` reads each row back field for field; a CR or LF stays inside its field."""
    reader = csv.reader(io.StringIO(csv_text(rows), newline=""))
    want = [[_text(value) for value in row] for row in rows]
    if sys.version_info < (3, 11) and any("\0" in field for row in want for field in row):
        with pytest.raises(csv.Error, match="NUL"):  # 3.10's reader refuses a NUL
            list(reader)
    else:
        assert list(reader) == want


def test_csv_field_of_each_special_character():
    assert csv_field("a,b") == '"a,b"'
    assert csv_field('say "hi"') == '"say ""hi"""'
    assert csv_field("two\nlines") == '"two\nlines"'
    assert csv_field("c\rr") == '"c\rr"' and csv_field("\r") == '"\r"'  # on every Python
    assert csv_field(" é ") == " é "
    assert csv_field(None) == "" and csv_field(1.5) == "1.5" and csv_field(True) == "True"
    assert csv_field("a\0b") == "a\0b"  # as 3.11 and later write it; 3.10's writer would raise
