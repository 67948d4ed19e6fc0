import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nisq_gonogo.catalog import bundled_catalog
from nisq_gonogo.feasibility import (
    CapacityError,
    CircuitShape,
    EmulationTier,
    Verdict,
    assess,
    emulation_tier,
    feasible_square_side,
    required_error_rate,
    simple_quantum_volume,
    statevector_memory,
    success_probability,
)
from nisq_gonogo.units import error_rate_from_percent, fidelity_percent, format_fidelity_percent
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
        assert format_fidelity_percent(rate, 5) == "99.99982%"

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


class TestSquareVolume:
    def test_exact_square(self):
        assert simple_quantum_volume(1e-4) == 10_000
        assert feasible_square_side(1e-4) == 100

    def test_non_square(self):
        assert simple_quantum_volume(1e-3) == 1000
        assert feasible_square_side(1e-3) == 31  # 31^2 = 961 < 1000 <= 32^2

    def test_floor_behavior(self):
        assert feasible_square_side(0.5) == 1
        assert simple_quantum_volume(0.3) == 3


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

    def test_shallow_threshold_configurable(self):
        assert emulation_tier(127, 20, 1e-4, shallow_depth_threshold=20) is EmulationTier.TENSOR_NETWORK

    def test_labels(self):
        assert EmulationTier.TENSOR_NETWORK.label == "tensor-network"
        assert EmulationTier.BEYOND_CLASSICAL.label == "beyond-classical"


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
    breadth=st.integers(min_value=1, max_value=500),
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


@settings(max_examples=200, deadline=None)
@given(
    qubits=st.integers(min_value=1, max_value=200),
    depth=st.integers(min_value=1, max_value=2000),
    error=st.floats(min_value=1e-6, max_value=0.5, allow_nan=False),
)
def test_emulation_tier_monotone_in_qubits(qubits, depth, error):
    assert emulation_tier(qubits + 1, depth, error) >= emulation_tier(qubits, depth, error)


@settings(max_examples=200, deadline=None)
@given(
    error=st.floats(min_value=1e-8, max_value=0.99, allow_nan=False),
    breadth=st.integers(min_value=1, max_value=1000),
    depth=st.integers(min_value=1, max_value=100),
)
def test_verdict_stable_under_percent_round_trip(error, breadth, depth):
    qpu = bundled_catalog().get_qpu("ibm-flamingo")
    shape = CircuitShape(breadth, depth)
    required = required_error_rate(shape)
    # stay off the knife edge: a value sitting exactly on a verdict boundary
    # may legitimately move by 1 ulp through the percent representation
    assume(abs(error - required) > 1e-9 * required)
    assume(abs(error - 10 * required) > 1e-8 * required)
    direct = assess(_with_error(qpu, error), shape).verdict
    round_tripped = error_rate_from_percent(fidelity_percent(error))
    again = assess(_with_error(qpu, round_tripped), shape).verdict
    assert direct == again


def _with_error(qpu, error):
    return qpu._replace(two_qubit_error_median=error)
