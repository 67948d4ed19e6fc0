import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nisq_gonogo import feasibility
from nisq_gonogo.catalog import bundled_catalog
from nisq_gonogo.feasibility import (
    DEFAULT_SHALLOW_DEPTH,
    TENSOR_NETWORK_ERROR_THRESHOLD,
    CapacityError,
    CircuitShape,
    EmulationTier,
    Verdict,
    assess,
    check_error_rate,
    emulation_tier,
    feasible_square_side,
    pair_verdict,
    rate_verdict,
    required_error_rate,
    simple_quantum_volume,
    statevector_memory,
    success_probability,
)
from nisq_gonogo.units import fidelity_percent
from nisq_gonogo.workload import MitigationSpec, mitigation_multiplier


def test_shape_validation():
    with pytest.raises(ValueError):
        CircuitShape(0, 8)
    with pytest.raises(ValueError):
        CircuitShape(53, -1)
    assert CircuitShape(53, 8).volume == 424


class TestRequiredErrorRate:
    def test_reference_rows(self):
        # vendor-scale reference points: exact rationals
        assert required_error_rate(CircuitShape(53, 8)) == pytest.approx(1 / 424, rel=1e-12)
        assert required_error_rate(CircuitShape(65, 8)) == pytest.approx(1 / 520, rel=1e-12)
        assert required_error_rate(CircuitShape(127, 8)) == pytest.approx(1 / 1016, rel=1e-12)
        assert required_error_rate(CircuitShape(1121, 8)) == pytest.approx(1 / 8968, rel=1e-12)

    def test_deep_factoring_circuit(self):
        # 372 qubits x 1490 cycles: needs ~1.8e-6 error, i.e. 99.99982% fidelity
        rate = required_error_rate(CircuitShape(372, 1490))
        assert rate == pytest.approx(1.804e-6, abs=1e-9)
        assert f"{fidelity_percent(rate):.5f}%" == "99.99982%"

    def test_unit_circuit(self):
        assert required_error_rate(CircuitShape(1, 1)) == 1.0


class TestSuccessProbability:
    def test_perfect_gates(self):
        assert success_probability(0.0, CircuitShape(53, 8)) == 1.0
        assert success_probability(0.0, CircuitShape(1000, 1000)) == 1.0

    def test_at_threshold_is_near_inverse_e(self):
        # oracle: exp(424 * log1p(-2.358e-3)) = 0.3675218115059963
        value = success_probability(2.358e-3, CircuitShape(53, 8))
        assert value == pytest.approx(0.3675218115059963, rel=1e-9)
        assert value == pytest.approx(math.exp(424 * math.log1p(-2.358e-3)), rel=1e-12)

    def test_century_scale_circuit_needs_mitigation(self):
        # oracle: 0.999**10000 = 4.51733459770486e-5
        value = success_probability(1e-3, CircuitShape(100, 100))
        assert value == pytest.approx(4.51733459770486e-5, rel=1e-9)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            success_probability(1.0, CircuitShape(2, 2))
        with pytest.raises(ValueError):
            success_probability(-0.1, CircuitShape(2, 2))

    def test_volume_beyond_float_range_gives_the_limit(self):
        assert success_probability(0.0, CircuitShape(4, 10**400)) == 1.0
        assert success_probability(1e-3, CircuitShape(4, 10**400)) == 0.0


@pytest.mark.parametrize(
    "check",
    [
        lambda rate: success_probability(rate, CircuitShape(2, 2)),
        lambda rate: emulation_tier(2, 2, rate),
        lambda rate: mitigation_multiplier(MitigationSpec(enabled=True), rate, CircuitShape(2, 2)),
    ],
    ids=["success_probability", "emulation_tier", "mitigation_multiplier"],
)
@pytest.mark.parametrize("rate", [-0.1, 1.0, math.nan])
def test_error_rate_range_is_checked_alike(check, rate):
    with pytest.raises(ValueError, match=r"^error_rate must be in \[0, 1\), got "):
        check(rate)


_FIT_CASES = given(
    qpu=st.sampled_from(bundled_catalog().qpus),
    breadth=st.integers(min_value=1, max_value=2000),
    depth=st.integers(min_value=1, max_value=10**6),
    band=st.floats(min_value=1.001, max_value=1e6),
)


@settings(max_examples=200, deadline=None)
@_FIT_CASES
def test_assess_raises_the_capacity_error_where_pair_verdict_gives_none(qpu, breadth, depth, band):
    shape = CircuitShape(breadth, depth)
    verdict = pair_verdict(breadth, qpu.qubit_count, required_error_rate(shape), qpu.two_qubit_error_median, band)
    assert (verdict is None) is (breadth > qpu.qubit_count)
    if verdict is None:
        with pytest.raises(CapacityError, match=f"^insufficient qubits: needs {breadth}, has {qpu.qubit_count}$"):
            assess(qpu, shape, marginal_band=band)


@settings(max_examples=200, deadline=None)
@_FIT_CASES
def test_assess_carries_pair_verdicts_verdict_on_a_fit(qpu, breadth, depth, band):
    shape = CircuitShape(breadth, depth)
    verdict = pair_verdict(breadth, qpu.qubit_count, required_error_rate(shape), qpu.two_qubit_error_median, band)
    if verdict is not None:
        assert assess(qpu, shape, marginal_band=band).verdict is verdict


@pytest.mark.parametrize("rate", [1e-3, 1.0, -0.25, math.nan])
def test_assess_checks_its_error_rate_once(monkeypatch, rate):
    qpu = bundled_catalog().get_qpu("ibm-heron")._replace(two_qubit_error_median=rate)
    calls = []
    monkeypatch.setattr(feasibility, "check_error_rate", lambda *args: calls.append(args) or check_error_rate(*args))
    if rate == 1e-3:
        assess(qpu, CircuitShape(2, 2))
    else:
        with pytest.raises(ValueError, match=rf"^error_rate must be in \[0, 1\), got {rate}$") as raised:
            assess(qpu, CircuitShape(2, 2))
        assert not isinstance(raised.value, CapacityError)
    assert calls == [(rate,)]
    # a miss raises the capacity error and reads no error rate
    with pytest.raises(CapacityError, match=f"^insufficient qubits: needs {qpu.qubit_count + 1}, "):
        assess(qpu, CircuitShape(qpu.qubit_count + 1, 1))
    assert len(calls) == 1


@pytest.mark.parametrize("rate", [1.0, -0.25, math.nan])
def test_pair_verdict_reads_no_error_rate_on_a_pair_that_does_not_fit(rate):
    assert pair_verdict(5, 4, 0.05, rate) is None


@pytest.mark.parametrize("rate", [1.0, -0.25, math.nan])
def test_pair_verdict_checks_the_error_rate_on_a_fit(rate):
    with pytest.raises(ValueError, match=rf"^error_rate must be in \[0, 1\), got {rate}$"):
        pair_verdict(4, 4, 0.05, rate)


@pytest.mark.parametrize(
    ("available", "band", "verdict"),
    [
        (0.0, 10.0, Verdict.GO),
        (0.049, 10.0, Verdict.GO),
        (0.05, 10.0, Verdict.MARGINAL),  # available == required
        (0.4, 10.0, Verdict.MARGINAL),
        (0.5, 10.0, Verdict.NO_GO),  # available == band * required
        (0.1, 2.0, Verdict.NO_GO),
        (0.0999, 2.0, Verdict.MARGINAL),
    ],
)
def test_pair_verdict_on_a_fit(available, band, verdict):
    assert pair_verdict(4, 4, 0.05, available, band) is verdict


@pytest.mark.parametrize("band", [1.0, math.inf, math.nan])
def test_assess_checks_the_band_before_the_capacity(band):
    qpu = bundled_catalog().get_qpu("ibm-heron")
    with pytest.raises(ValueError, match="^marginal_band must be finite and > 1") as raised:
        assess(qpu, CircuitShape(qpu.qubit_count + 1, 1), marginal_band=band)
    assert not isinstance(raised.value, CapacityError)


class TestSquareVolume:
    def test_exact_square(self):
        # the rule is strict: 10,000 x 1e-4 is not below 1, so the volume stops one short
        assert simple_quantum_volume(1e-4) == 9_999
        assert feasible_square_side(1e-4) == 99

    def test_non_square(self):
        assert simple_quantum_volume(1e-3) == 999
        assert feasible_square_side(1e-3) == 31  # 31^2 = 961 <= 999 < 32^2

    def test_floor_behavior(self):
        assert feasible_square_side(0.5) == 1
        assert simple_quantum_volume(0.3) == 3

    @pytest.mark.parametrize("error_rate", [0.0, 1.0])
    def test_an_end_of_the_open_interval_raises(self, error_rate):
        with pytest.raises(ValueError, match=r"^error_rate must be in \(0, 1\)"):
            simple_quantum_volume(error_rate)


def _is_go(shape, error_rate):
    return rate_verdict(required_error_rate(shape), error_rate) is Verdict.GO


def _assert_on_boundary(error_rate):
    """The volume and the square side sit on :func:`rate_verdict`'s go boundary at ``error_rate``."""
    volume, side = simple_quantum_volume(error_rate), feasible_square_side(error_rate)
    assert _is_go(CircuitShape(volume, 1), error_rate) and not _is_go(CircuitShape(volume + 1, 1), error_rate)
    assert _is_go(CircuitShape(side, side), error_rate) and not _is_go(CircuitShape(side + 1, side + 1), error_rate)


class TestFidelityBoundary:
    """:func:`simple_quantum_volume` and :func:`feasible_square_side` take the go rule from :func:`rate_verdict`."""

    @pytest.mark.parametrize(
        "error_rate",
        sorted({*(qpu.two_qubit_error_median for qpu in bundled_catalog().qpus), 1e-4, 1e-3, 2.5e-3, 0.05, 5e-324}),
    )
    def test_named_rates(self, error_rate):
        _assert_on_boundary(error_rate)

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.integers(min_value=2, max_value=10**30).map(lambda k: 1 / k),  # exact reciprocals
            st.floats(min_value=5e-324, max_value=sys.float_info.min, exclude_max=True),  # subnormals
            st.floats(min_value=5e-324, max_value=1.0, exclude_max=True),
        )
    )
    def test_generated_rates(self, error_rate):
        _assert_on_boundary(error_rate)


class TestAssess:
    def test_available_hardware_is_marginal_on_53x8(self):
        sycamore = bundled_catalog().get_qpu("google-sycamore-2022")
        verdict = assess(sycamore, CircuitShape(53, 8))
        assert verdict.verdict is Verdict.MARGINAL
        assert verdict.optimistic  # stddev unreported

    def test_projected_heron_is_marginal_on_127x8(self):
        heron = bundled_catalog().get_qpu("ibm-heron")
        verdict = assess(heron, CircuitShape(127, 8))
        assert verdict.verdict is Verdict.MARGINAL
        assert verdict.available_error_rate >= verdict.required_error_rate

    def test_go_when_strictly_below(self):
        heron = bundled_catalog().get_qpu("ibm-heron")
        verdict = assess(heron, CircuitShape(100, 8))  # required 1.25e-3 > 1e-3
        assert verdict.verdict is Verdict.GO

    def test_capacity_error_names_both_numbers(self):
        small = bundled_catalog().get_qpu("quandela-ascella")
        with pytest.raises(CapacityError, match="53.*12"):
            assess(small, CircuitShape(53, 8))


class TestStatevectorMemory:
    def test_known_sizes(self):
        assert statevector_memory(29) == 8_589_934_592  # 8 GiB
        assert statevector_memory(0) == 16
        assert statevector_memory(40) == 17_592_186_044_416  # 16 TiB

    def test_doubling(self):
        for n in range(0, 61):
            assert statevector_memory(n + 1) == 2 * statevector_memory(n)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            statevector_memory(-1)

    def test_shift_beyond_index_range_is_unbounded(self):
        assert statevector_memory(10**400) == math.inf
        assert statevector_memory(sys.maxsize - 3) == math.inf
        assert statevector_memory(sys.maxsize - 4) == math.inf

    def test_exact_int_within_float_range_then_inf(self):
        assert statevector_memory(1019) == 2**1023 and type(statevector_memory(1019)) is int
        assert statevector_memory(1020) == math.inf
        assert statevector_memory(10**12) == math.inf


class TestEmulationTier:
    @pytest.mark.parametrize(
        "qubits,expected",
        [
            (1, EmulationTier.LAPTOP),
            (18, EmulationTier.LAPTOP),
            (19, EmulationTier.SERVER),
            (29, EmulationTier.SERVER),
            (30, EmulationTier.SERVER),
            (31, EmulationTier.CLUSTER),
            (40, EmulationTier.CLUSTER),
            (41, EmulationTier.HPC),
            (55, EmulationTier.HPC),
        ],
    )
    def test_statevector_tiers(self, qubits, expected):
        assert emulation_tier(qubits, 100, 1e-4) is expected

    def test_large_registers_split_by_depth_and_noise(self):
        assert emulation_tier(127, 8, 0.006) is EmulationTier.TENSOR_NETWORK  # shallow and noisy
        assert emulation_tier(127, 1000, 0.006) is EmulationTier.TENSOR_NETWORK  # noisy
        assert emulation_tier(127, 8, 1e-4) is EmulationTier.TENSOR_NETWORK  # shallow
        assert emulation_tier(127, 1000, 1e-4) is EmulationTier.BEYOND_CLASSICAL
        # a rate at the noise threshold is not noisy; the next float above it is
        assert emulation_tier(56, 100, TENSOR_NETWORK_ERROR_THRESHOLD) is EmulationTier.BEYOND_CLASSICAL
        assert emulation_tier(56, 100, math.nextafter(TENSOR_NETWORK_ERROR_THRESHOLD, 1)) is EmulationTier.TENSOR_NETWORK

    @pytest.mark.parametrize("qubits, depth, name", [(0, 100, "qubits"), (127, 0, "depth")])
    def test_an_empty_register_or_circuit_raises(self, qubits, depth, name):
        with pytest.raises(ValueError, match=f"^{name} must be >= 1, got 0$"):
            emulation_tier(qubits, depth, 1e-4)

    def test_shallow_threshold_is_inclusive(self):
        assert emulation_tier(127, DEFAULT_SHALLOW_DEPTH, 1e-4) is EmulationTier.TENSOR_NETWORK
        assert emulation_tier(127, DEFAULT_SHALLOW_DEPTH + 1, 1e-4) is EmulationTier.BEYOND_CLASSICAL


@settings(max_examples=200, deadline=None)
@given(
    breadth=st.integers(min_value=1, max_value=10_000),
    depth=st.integers(min_value=1, max_value=10_000),
)
def test_required_rate_decreases_with_volume(breadth, depth):
    base = required_error_rate(CircuitShape(breadth, depth))
    assert required_error_rate(CircuitShape(breadth + 1, depth)) < base
    assert required_error_rate(CircuitShape(breadth, depth + 1)) < base


@settings(max_examples=200, deadline=None)
@given(
    error=st.floats(min_value=0, max_value=0.999, allow_nan=False),
    breadth=st.integers(min_value=1, max_value=600),
    depth=st.integers(min_value=1, max_value=500),
)
def test_success_probability_in_unit_interval_and_monotone(error, breadth, depth):
    p = success_probability(error, CircuitShape(breadth, depth))
    assert 0.0 <= p <= 1.0
    # strictly positive whenever the exact value is representable as a double;
    # hopeless circuits (exponent below ~-700) underflow to an honest 0.0
    if error == 0.0 or CircuitShape(breadth, depth).volume * math.log1p(-error) > -700:
        assert p > 0.0
    assert success_probability(error, CircuitShape(breadth + 1, depth)) <= p
    if error < 0.99:
        assert success_probability(error + 0.001, CircuitShape(breadth, depth)) <= p


def test_success_probability_at_the_rule_threshold_sits_just_under_inverse_e():
    # At error 1/V the probability (1 - 1/V)^V rises toward 1/e.  V=10 is the
    # documented boundary below the band; from V=11 up, every volume to 1100 and
    # a 5% geometric ladder to 10^9 stay inside (0.35, 0.38).
    assert success_probability(0.1, CircuitShape(10, 1)) == pytest.approx(0.3486784401, rel=1e-12)
    volumes = [*range(11, 1100), *(int(1100 * 1.05**k) for k in range(282)), 10**9]
    for volume in volumes:
        assert 0.35 < success_probability(1.0 / volume, CircuitShape(volume, 1)) < 0.38, volume


@settings(max_examples=200, deadline=None)
@given(
    qubits=st.integers(min_value=1, max_value=200),
    depth=st.integers(min_value=1, max_value=2000),
    error=st.floats(min_value=1e-6, max_value=0.5, allow_nan=False),
)
def test_emulation_tier_monotone_in_qubits(qubits, depth, error):
    assert emulation_tier(qubits + 1, depth, error) >= emulation_tier(qubits, depth, error)
