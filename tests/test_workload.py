import json
import math

import pytest
from helpers import make_spec
from hypothesis import given, settings
from hypothesis import strategies as st

from nisq_gonogo.feasibility import CircuitShape
from nisq_gonogo.fields import InputWarning
from nisq_gonogo.workload import (
    AlgorithmFamily,
    MitigationSpec,
    PauliGrouping,
    WorkloadError,
    mitigation_multiplier,
    parse_workloads,
    pauli_string_count,
    qaoa_aggregate_shots,
    shot_plan,
    shots_per_string,
)


class TestPauliStringCount:
    def test_quartic_anchor_at_72_qubits(self):
        assert pauli_string_count(make_spec()) == 330_816

    def test_quartic_scaling_at_half_size(self):
        # 36 = 72/2, so the quartic count is exactly 330816/16
        assert pauli_string_count(make_spec(data_qubits=36)) == 330_816 // 16
        assert pauli_string_count(make_spec(data_qubits=36)) == 20_676

    def test_grouped_is_linear(self):
        assert pauli_string_count(make_spec(data_qubits=12, pauli_grouping=PauliGrouping.GROUPED)) == 12

    def test_qaoa_two_per_layer(self):
        spec = make_spec(family=AlgorithmFamily.QAOA, qaoa_layers=1)
        assert pauli_string_count(spec) == 2
        assert pauli_string_count(make_spec(family=AlgorithmFamily.QAOA, qaoa_layers=4)) == 8

    def test_generic_is_linear(self):
        assert pauli_string_count(make_spec(family=AlgorithmFamily.GENERIC, data_qubits=40)) == 40

    def test_qaoa_requires_layers(self):
        with pytest.raises(WorkloadError, match="qaoa_layers"):
            pauli_string_count(make_spec(family=AlgorithmFamily.QAOA))

    def test_coefficient_override(self):
        assert pauli_string_count(make_spec(c_vqe_override=1.0, data_qubits=3)) == 81

    @pytest.mark.parametrize(
        "overrides", [{"c_vqe_override": 1e308}, {"data_qubits": 10**100}], ids=["coefficient", "qubits"]
    )
    def test_quartic_count_beyond_float_range_is_unbounded(self, overrides):
        spec = make_spec(**overrides)
        assert pauli_string_count(spec) == math.inf
        assert shot_plan(spec, 0.006).total_shots == math.inf

    def test_a_float_count_above_2_53_is_the_float(self):
        spec = make_spec(c_vqe_override=1e10)
        assert pauli_string_count(spec) == 1e10 * 72**4 and type(pauli_string_count(spec)) is float
        plan = shot_plan(spec, 0.006)
        assert type(plan.total_shots) is float and plan.total_shots == 1e10 * 72**4 * 10**6
        assert type(pauli_string_count(make_spec())) is int  # the 330,816 anchor

    def test_an_int_count_beyond_float_range_times_a_float_count_is_unbounded(self):
        spec = make_spec(family=AlgorithmFamily.GENERIC, data_qubits=10**400, target_epsilon=1e-10)
        plan = shot_plan(spec, 0.006)
        assert (plan.pauli_strings, type(plan.shots_per_string), plan.total_shots) == (10**400, float, math.inf)

    def test_small_registers_never_drop_below_one(self):
        assert pauli_string_count(make_spec(data_qubits=1)) == 1
        assert pauli_string_count(make_spec(data_qubits=2)) == 1

    def test_strictly_increasing_from_three_qubits(self):
        counts = [pauli_string_count(make_spec(data_qubits=n)) for n in range(3, 300)]
        assert all(b > a for a, b in zip(counts, counts[1:]))

    def test_quartic_dominates_linear_from_five_qubits(self):
        for n in range(5, 201):
            quartic = pauli_string_count(make_spec(data_qubits=n))
            grouped = pauli_string_count(make_spec(data_qubits=n, pauli_grouping=PauliGrouping.GROUPED))
            assert quartic >= grouped


class TestShotsPerString:
    def test_chemistry_precision(self):
        assert shots_per_string(1e-3) == 1_000_000 and type(shots_per_string(1e-3)) is int

    def test_trivial_epsilons(self):
        assert shots_per_string(1.0) == 1
        assert shots_per_string(0.5) == 4

    def test_out_of_range(self):
        with pytest.raises(WorkloadError):
            shots_per_string(0.0)
        with pytest.raises(WorkloadError):
            shots_per_string(1.5)

    @pytest.mark.parametrize("epsilon", [1e-300, 1e-160], ids=["square-underflows", "inverse-overflows"])
    def test_beyond_float_range_is_unbounded(self, epsilon):
        assert shots_per_string(epsilon) == math.inf

    def test_near_the_float_limit_counts_are_the_float(self):
        assert shots_per_string(1e-154) == 1.0 / (1e-154 * 1e-154)
        assert type(shots_per_string(1e-154)) is float

    def test_exact_ints_up_to_2_53_and_the_float_above(self):
        assert shots_per_string(2**-26) == 2**52 and type(shots_per_string(2**-26)) is int
        assert shots_per_string(2**-27) == 2**54 and type(shots_per_string(2**-27)) is float
        assert type(shots_per_string(1e-8)) is float and shots_per_string(1e-8) == 1.0 / (1e-8 * 1e-8)
        assert type(qaoa_aggregate_shots(1e-3, 10**7)) is float
        assert type(qaoa_aggregate_shots(1e-3, 10**6)) is int

    @pytest.mark.parametrize("epsilon, qubits", [(1e-310, 4), (0.5, 10**200)], ids=["epsilon", "qubits"])
    def test_qaoa_aggregate_beyond_float_range_is_unbounded(self, epsilon, qubits):
        assert qaoa_aggregate_shots(epsilon, qubits) == math.inf

    def test_qaoa_aggregate(self):
        assert qaoa_aggregate_shots(0.1, 10) == 1000
        assert qaoa_aggregate_shots(1.0, 900) == 810_000


class TestMitigationMultiplier:
    def test_disabled(self):
        assert mitigation_multiplier(MitigationSpec(enabled=False), 0.5, CircuitShape(100, 100)) == 1.0

    def test_perfect_gates(self):
        assert mitigation_multiplier(MitigationSpec(enabled=True), 0.0, CircuitShape(100, 100)) == 1.0

    def test_exponential_in_expected_errors(self):
        # lambda = 1e-3 * 25 * 20 = 0.5; exp(2 * 0.5) = e
        m = mitigation_multiplier(
            MitigationSpec(enabled=True, exponent_coefficient=2.0), 1e-3, CircuitShape(25, 20)
        )
        assert m == pytest.approx(math.e, rel=1e-12)

    def test_never_below_one(self):
        m = mitigation_multiplier(MitigationSpec(enabled=True, exponent_coefficient=0.0), 0.5, CircuitShape(5, 5))
        assert m == 1.0

    @pytest.mark.parametrize("depth", [400, 10**400], ids=["exp-overflow", "volume-beyond-float-range"])
    def test_beyond_float_range_is_unbounded(self, depth):
        assert mitigation_multiplier(MitigationSpec(enabled=True), 0.02, CircuitShape(400, depth)) == math.inf
        # an error-free circuit or a zero coefficient stays at exactly 1, never 0 x inf
        assert mitigation_multiplier(MitigationSpec(enabled=True), 0.0, CircuitShape(400, depth)) == 1.0
        zero = MitigationSpec(enabled=True, exponent_coefficient=0.0)
        assert mitigation_multiplier(zero, 0.02, CircuitShape(400, depth)) == 1.0


class TestShotPlan:
    def test_quartic_chemistry_budget(self):
        plan = shot_plan(make_spec(), error_rate=0.006)
        assert plan.pauli_strings == 330_816
        assert plan.shots_per_string == 1_000_000
        assert plan.mitigation_multiplier == 1.0
        assert plan.total_shots == 330_816_000_000
        assert plan.model == "per-string"

    def test_qaoa_plan(self):
        spec = make_spec(family=AlgorithmFamily.QAOA, qaoa_layers=4, target_epsilon=0.1)
        plan = shot_plan(spec, error_rate=0.001)
        assert plan.total_shots == 8 * 100

    def test_qaoa_aggregate_model(self):
        spec = make_spec(family=AlgorithmFamily.QAOA, qaoa_layers=4, target_epsilon=0.1, data_qubits=30)
        plan = shot_plan(spec, error_rate=0.001, qaoa_aggregate=True)
        assert plan.model == "qaoa-aggregate"
        assert plan.total_shots == 9000
        with pytest.raises(WorkloadError):
            shot_plan(make_spec(), error_rate=0.001, qaoa_aggregate=True)

    def test_mitigation_increases_total(self):
        base = shot_plan(make_spec(), error_rate=0.006)
        boosted = shot_plan(
            make_spec(mitigation=MitigationSpec(enabled=True, exponent_coefficient=0.1)), error_rate=0.006
        )
        assert boosted.total_shots > base.total_shots
        assert boosted.total_shots == math.ceil(base.total_shots * boosted.mitigation_multiplier)

    @pytest.mark.parametrize("enabled", [False, True])
    @pytest.mark.parametrize("rate", [1.0, -0.5, math.nan])
    def test_error_rate_is_checked_with_mitigation_on_or_off(self, enabled, rate):
        spec = make_spec(mitigation=MitigationSpec(enabled=enabled))
        with pytest.raises(ValueError, match=r"^error_rate must be in \[0, 1\), got "):
            shot_plan(spec, error_rate=rate)

    def test_checks_keep_their_order_and_run_again_on_the_same_object(self):
        # a mitigated shape first, then the error rate, then the accounting; a check that raised kept nothing
        vqe, layerless = make_spec(), make_spec(family=AlgorithmFamily.QAOA)
        shapeless = make_spec(data_qubits=0, mitigation=MitigationSpec(enabled=True))
        for _ in range(2):
            with pytest.raises(ValueError, match=r"^breadth must be a positive integer, got 0$"):
                shot_plan(shapeless, error_rate=1.0)
            with pytest.raises(ValueError, match=r"^error_rate must be in \[0, 1\), got 1.0$"):
                shot_plan(vqe, error_rate=1.0, qaoa_aggregate=True)
            with pytest.raises(WorkloadError, match="aggregate accounting applies only to the qaoa family$"):
                shot_plan(vqe, error_rate=0.001, qaoa_aggregate=True)
            with pytest.raises(WorkloadError, match="qaoa_layers is required for the qaoa family$"):
                shot_plan(layerless, error_rate=0.001)
            with pytest.raises(WorkloadError, match=r"^target_epsilon must be in \(0, 1\], got 2.0$"):
                shot_plan(make_spec(target_epsilon=2.0), error_rate=0.001)
        assert shot_plan(layerless, error_rate=0.001, qaoa_aggregate=True).model == "qaoa-aggregate"

    def test_mitigated_budget_beyond_float_range_is_unbounded(self):
        spec = make_spec(data_qubits=400, depth=400, mitigation=MitigationSpec(enabled=True))
        plan = shot_plan(spec, error_rate=0.02)
        assert (plan.mitigation_multiplier, plan.total_shots) == (math.inf, math.inf)
        # a finite multiplier whose product with the string budget passes float range
        spec = make_spec(data_qubits=400, depth=400, mitigation=MitigationSpec(enabled=True, exponent_coefficient=0.218))
        plan = shot_plan(spec, error_rate=0.02)
        assert plan.mitigation_multiplier < math.inf and plan.total_shots == math.inf


class TestParsing:
    def test_single_object(self):
        specs = parse_workloads(
            json.dumps(
                {
                    "family": "vqe",
                    "data_qubits": 72,
                    "depth": 72,
                    "target_epsilon": 0.001,
                    "ansatz_iterations": 100,
                }
            )
        )
        assert len(specs) == 1
        assert specs[0].id == "vqe-72q-d72"
        assert specs[0].mitigation == MitigationSpec()

    def test_default_id_writes_counts_by_the_count_rule(self):
        doc = {"family": "generic", "data_qubits": 10**400, "depth": 2**60,
               "target_epsilon": 0.01, "ansatz_iterations": 1}
        assert parse_workloads(json.dumps(doc))[0].id == "generic-infq-d1.15292e18"

    def test_list_of_objects(self):
        doc = json.dumps(
            [
                {"family": "qaoa", "data_qubits": 10, "depth": 8, "qaoa_layers": 2,
                 "target_epsilon": 0.1, "ansatz_iterations": 5},
                {"family": "generic", "data_qubits": 20, "depth": 8,
                 "target_epsilon": 0.1, "ansatz_iterations": 5},
            ]
        )
        specs = parse_workloads(doc)
        assert [s.family for s in specs] == [AlgorithmFamily.QAOA, AlgorithmFamily.GENERIC]

    def test_empty_list_rejected(self):
        with pytest.raises(WorkloadError, match="no workloads"):
            parse_workloads("[]")

    def test_layers_only_for_qaoa(self):
        doc = json.dumps(
            {"family": "vqe", "data_qubits": 4, "depth": 2, "qaoa_layers": 3,
             "target_epsilon": 0.5, "ansatz_iterations": 1}
        )
        with pytest.raises(WorkloadError, match="qaoa_layers"):
            parse_workloads(doc)

    def test_unknown_field_strict(self):
        doc = json.dumps(
            {"family": "vqe", "data_qubits": 4, "depth": 2, "target_epsilon": 0.5,
             "ansatz_iterations": 1, "oops": True}
        )
        with pytest.raises(WorkloadError, match="oops"):
            parse_workloads(doc, strict=True)
        with pytest.warns(InputWarning) as warned:
            specs = parse_workloads(doc, strict=False)
        assert specs[0].data_qubits == 4
        assert [str(w.message) for w in warned] == ["workload #0: ignoring unknown field 'oops'"]

    def test_null_stands_for_absent_only_where_absent_means_none(self):
        base = {"family": "vqe", "data_qubits": 4, "depth": 2, "target_epsilon": 0.5, "ansatz_iterations": 1}
        with_nulls = dict(base, id=None, c_vqe_override=None, qaoa_layers=None)
        assert parse_workloads(json.dumps(with_nulls)) == parse_workloads(json.dumps(base))
        for key in ("classical_prep_time", "pauli_grouping", "mitigation"):
            with pytest.raises(WorkloadError, match=key):
                parse_workloads(json.dumps(dict(base, **{key: None})))

    def test_epsilon_range_checked(self):
        doc = json.dumps(
            {"family": "vqe", "data_qubits": 4, "depth": 2, "target_epsilon": 0.0, "ansatz_iterations": 1}
        )
        with pytest.raises(WorkloadError, match="target_epsilon"):
            parse_workloads(doc)


@settings(max_examples=200, deadline=None)
@given(
    eps=st.floats(min_value=1e-4, max_value=1.0, allow_nan=False),
    bump=st.floats(min_value=1e-6, max_value=0.5, allow_nan=False),
)
def test_total_shots_non_increasing_in_epsilon(eps, bump):
    small = shot_plan(make_spec(data_qubits=10, target_epsilon=eps), 0.01)
    larger_eps = min(1.0, eps + bump)
    big = shot_plan(make_spec(data_qubits=10, target_epsilon=larger_eps), 0.01)
    assert big.total_shots <= small.total_shots


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=150),
    layers=st.integers(min_value=1, max_value=100),
    coeff=st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
)
def test_total_shots_non_decreasing_in_size_knobs(n, layers, coeff):
    mit = MitigationSpec(enabled=True, exponent_coefficient=coeff)

    vqe = make_spec(data_qubits=n, depth=8, mitigation=mit)
    vqe_bigger = make_spec(data_qubits=n + 1, depth=8, mitigation=mit)
    assert shot_plan(vqe_bigger, 1e-3).total_shots >= shot_plan(vqe, 1e-3).total_shots

    qaoa = make_spec(family=AlgorithmFamily.QAOA, data_qubits=n, depth=8, qaoa_layers=layers, mitigation=mit)
    qaoa_deeper = make_spec(
        family=AlgorithmFamily.QAOA, data_qubits=n, depth=8, qaoa_layers=layers + 1, mitigation=mit
    )
    assert shot_plan(qaoa_deeper, 1e-3).total_shots >= shot_plan(qaoa, 1e-3).total_shots

    stronger = MitigationSpec(enabled=True, exponent_coefficient=coeff + 0.5)
    assert (
        shot_plan(make_spec(data_qubits=n, depth=8, mitigation=stronger), 1e-3).total_shots
        >= shot_plan(vqe, 1e-3).total_shots
    )


def test_spec_shape_checks_each_field_type():
    assert make_spec(data_qubits=1, depth=2).shape == CircuitShape(1, 2)
    # an argument equal to an int already seen is checked all the same
    for bad in ({"data_qubits": True}, {"depth": 2.0}):
        with pytest.raises(ValueError, match="must be a positive integer"):
            make_spec(**{"data_qubits": 1, "depth": 2, **bad}).shape
