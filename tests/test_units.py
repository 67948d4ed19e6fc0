import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import CSV_CHARACTERS, csv_writer_is_the_oracle, csv_written
from nisq_gonogo.units import (
    EXACT_COUNT_LIMIT,
    as_float,
    count_number,
    count_text,
    csv_field,
    csv_quotes,
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
    total_text,
    unbounded,
)


def test_fidelity_percent():
    for error, percent in ((0.006, 99.4), (0.0034, 99.66), (1e-3, 99.9), (1e-6, 99.9999), (0.5, 50.0), (0.0, 100.0)):
        assert abs(fidelity_percent(error) - percent) < 1e-12


def test_format_fidelity_percent():
    assert format_fidelity_percent(0.006) == "99.40%"
    assert format_fidelity_percent(0.0034) == "99.66%"
    assert format_fidelity_percent(1.0 / (372 * 1490)) == "100.00%"


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
    assert format_watts(sys.float_info.max) == f"{sys.float_info.max / 1000:.4g} kW"
    assert format_joules(sys.float_info.max) == "1.79769e308 J (4.99359e301 kWh)"


def test_every_unbounded_value_reads_one_way():
    assert unbounded("J") == "inf J (unbounded)" and unbounded() == "inf (unbounded)"
    assert format_watts(math.inf) == "inf W (unbounded)"
    assert format_joules(math.inf) == "inf J (unbounded)"
    assert format_seconds(math.inf) == "inf s (unbounded)"
    assert format_bytes(math.inf) == "inf B (unbounded)"
    for count in (math.inf, 10**400):
        assert count_text(count, "qubits") == "inf qubits (unbounded)"
        assert total_text(count, "shots") == "inf shots (unbounded)"
        assert count_text(count) == "inf (unbounded)" and count_number(count) == "inf"


@pytest.mark.parametrize(
    "count, text",
    [
        (0, "0"),
        (72, "72"),
        (EXACT_COUNT_LIMIT, "9007199254740992"),
        (EXACT_COUNT_LIMIT + 1, "9.0072e15"),
        (10**300, "1e300"),
        (1.2e18, "1.2e18"),
        (3.0, "3"),
    ],
)
def test_a_count_is_exact_up_to_2_53_and_sci_above(count, text):
    assert count_number(count) == count_text(count) == text
    assert count_text(count, "strings") == f"{text} strings"


def test_the_total_keeps_every_digit_of_an_int_in_float_range():
    total = 352564345084730722935118409770291831788438043332330913792
    assert total_text(total, "shots") == f"{total} shots (3.52564e56)"
    assert total_text(10**6, "shots") == "1000000 shots (1e6)"
    assert total_text(1.2e18, "shots") == "1.2e18 shots"


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


_csv_rows = st.one_of(
    st.lists(st.text(alphabet=st.sampled_from(CSV_CHARACTERS), max_size=6), max_size=5),
    st.just([""]),
)


@settings(max_examples=400)
@given(_csv_rows)
def test_csv_fields_joined_equal_the_csv_writer(row):
    joined = ",".join([csv_field(value) for value in row]) + "\n"
    written = csv_written([row])
    if row == [""]:  # the writer marks a row of one empty field as ``""``; the field itself is empty
        assert joined == "\n" and written == '""\n'
    elif csv_writer_is_the_oracle([row]):
        assert joined == written or written is None


def test_csv_field_of_each_special_character():
    assert csv_field("a,b") == '"a,b"'
    assert csv_field('say "hi"') == '"say ""hi"""'
    assert csv_field("two\nlines") == '"two\nlines"'
    assert csv_field("c\rr") == '"c\rr"' and csv_field("\r") == '"\r"'  # on every Python
    assert csv_field(" é ") == " é "
    assert csv_field("a\0b") == "a\0b"  # as 3.11 and later write it; 3.10's writer would raise


def test_csv_quotes_each_special_character_and_no_other():
    assert not csv_quotes("")
    for code in range(0x800):
        assert csv_quotes(f"a{chr(code)}b") is (chr(code) in ',"\n\r'), hex(code)


@settings(max_examples=400)
@given(st.text(alphabet=st.sampled_from(CSV_CHARACTERS), max_size=8))
def test_csv_quotes_holds_exactly_when_csv_field_quotes(text):
    assert csv_quotes(text) is (csv_field(text) != text)


@settings(max_examples=200)
@given(st.lists(st.text(alphabet=st.sampled_from(CSV_CHARACTERS), max_size=4), max_size=6))
def test_csv_quotes_a_joined_text_exactly_when_a_part_needs_it(parts):
    # The grid's CSV asks once, of every workload id joined, whether any id needs quoting.
    assert csv_quotes("".join(parts)) is any(csv_quotes(part) for part in parts)
