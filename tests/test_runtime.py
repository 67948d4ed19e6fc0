import math

import pytest
from helpers import make_spec, qpu_with
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nisq_gonogo.runtime import estimate_runtime, single_shot_time
from nisq_gonogo.units import as_float
from nisq_gonogo.workload import AlgorithmFamily, shot_plan


class TestSingleShotTime:
    def test_gate_term_only(self):
        assert single_shot_time(qpu_with(gate=1e-7), 8) == pytest.approx(8e-7, rel=1e-12)

    def test_slow_ion_gates_dominate(self):
        sc = qpu_with(gate=1e-7)
        ion = qpu_with(gate=1e-4)
        ratio = single_shot_time(ion, 8) / single_shot_time(sc, 8)
        assert ratio == pytest.approx(1000, rel=1e-12)

    def test_all_terms_sum(self):
        qpu = qpu_with(gate=1e-7, readout=1e-6, reset=1e-6)
        assert single_shot_time(qpu, 1000) == pytest.approx(1.02e-4, rel=1e-12)

    def test_depth_beyond_float_range_takes_unbounded_time(self):
        assert single_shot_time(qpu_with(gate=1e-7, readout=1e-6), 10**400) == math.inf

    def test_depth_validated(self):
        with pytest.raises(ValueError):
            single_shot_time(qpu_with(), 0)


class TestEstimateRuntime:
    def test_unit_composition(self):
        spec = make_spec(
            family=AlgorithmFamily.GENERIC,
            data_qubits=1,
            depth=10,
            target_epsilon=1e-3,
            ansatz_iterations=1,
            classical_prep_time=0.0,
        )
        qpu = qpu_with(gate=1e-7)  # single shot = 1e-6 s
        plan = shot_plan(spec, 0.0)
        assert plan.total_shots == 1_000_000
        estimate = estimate_runtime(qpu, spec, plan)
        assert estimate.total_time == pytest.approx(1.0, rel=1e-12)

    def test_chemistry_scale_estimate_runs_for_years(self):
        spec = make_spec(classical_prep_time=0.0)  # 72 qubits, depth 72, eps 1e-3, 100 iterations
        qpu = qpu_with(gate=1e-7)
        plan = shot_plan(spec, 0.006)
        estimate = estimate_runtime(qpu, spec, plan)
        # 100 iterations x 3.30816e11 shots x 7.2e-6 s
        assert estimate.total_time == pytest.approx(2.3818752e8, rel=1e-9)
        assert estimate.total_time > 7 * 365.25 * 86400  # beyond seven years

    def test_ion_hardware_is_thousandfold_slower(self):
        spec = make_spec(classical_prep_time=0.0)
        plan = shot_plan(spec, 0.002)
        fast = estimate_runtime(qpu_with(gate=1e-7), spec, plan)
        slow = estimate_runtime(qpu_with(gate=1e-4), spec, plan)
        assert slow.total_time / fast.total_time == pytest.approx(1000, rel=1e-12)

    def test_linear_in_iterations_and_shots(self):
        spec = make_spec(classical_prep_time=0.0, ansatz_iterations=10)
        doubled = make_spec(classical_prep_time=0.0, ansatz_iterations=20)
        qpu = qpu_with()
        plan = shot_plan(spec, 0.006)
        assert estimate_runtime(qpu, doubled, plan).total_time == pytest.approx(
            2 * estimate_runtime(qpu, spec, plan).total_time, rel=1e-12
        )

    def test_classical_term_additive(self):
        spec = make_spec(classical_prep_time=3.0, ansatz_iterations=7)
        qpu = qpu_with()
        plan = shot_plan(spec, 0.006)
        with_prep = estimate_runtime(qpu, spec, plan)
        without = estimate_runtime(qpu, spec._replace(classical_prep_time=0.0), plan)
        assert with_prep.total_time - without.total_time == pytest.approx(21.0, rel=1e-9)

    def test_breakdown_sums_to_total(self):
        spec = make_spec(classical_prep_time=1.0)
        qpu = qpu_with(readout=1e-6, reset=1e-6)
        estimate = estimate_runtime(qpu, spec, shot_plan(spec, 0.006))
        assert sum(seconds for _, seconds in estimate.breakdown) == pytest.approx(
            estimate.total_time, rel=1e-12
        )

    @pytest.mark.parametrize("prep", [0.0, 2.0])
    def test_counts_beyond_float_range_take_unbounded_time(self, prep):
        qpu = qpu_with()
        for spec in (
            make_spec(ansatz_iterations=10**400, classical_prep_time=prep),
            make_spec(family=AlgorithmFamily.GENERIC, data_qubits=10**400, depth=3, classical_prep_time=prep),
        ):
            estimate = estimate_runtime(qpu, spec, shot_plan(spec, 0.006))
            assert estimate.total_time == math.inf
            # zero prep stays zero over unbounded iterations, never nan
            classical = dict(estimate.breakdown)["classical preparation and post-processing"]
            assert classical == (as_float(spec.ansatz_iterations) * prep if prep else 0.0)

    @pytest.mark.parametrize("iterations", [10, 10**400], ids=["10", "1e400"])
    def test_a_lane_runs_one_shot_of_a_subnormal_shot_time_over_any_iterations(self, iterations):
        spec = make_spec(family=AlgorithmFamily.GENERIC, data_qubits=29, depth=8, target_epsilon=0.01,
                         ansatz_iterations=iterations, classical_prep_time=0.0)
        qpu = qpu_with(gate=5e-324)
        # 290,000 shots over 10^12 lanes: each lane runs one shot of 8 x 5e-324 s, not 0 s
        estimate = estimate_runtime(qpu, spec, shot_plan(spec, 0.001), parallel_shots=10**12)
        assert estimate.quantum_time_per_iteration == estimate.single_shot_time == 8 * 5e-324 > 0.0
        # over 10^400 iterations the quantum term is unbounded and the 0 s classical term stays 0 s
        quantum = 10 * 8 * 5e-324 if iterations == 10 else math.inf
        assert [seconds for _, seconds in estimate.breakdown] == [0.0, quantum] and estimate.total_time == quantum

    def test_parallel_shots_divide_quantum_term(self):
        spec = make_spec(classical_prep_time=0.0)
        qpu = qpu_with()
        plan = shot_plan(spec, 0.006)
        serial = estimate_runtime(qpu, spec, plan)
        parallel = estimate_runtime(qpu, spec, plan, parallel_shots=10)
        assert serial.total_time / parallel.total_time == pytest.approx(10, rel=1e-12)
        with pytest.raises(ValueError):
            estimate_runtime(qpu, spec, plan, parallel_shots=0)


_PLAN = shot_plan(make_spec(), 0.006)


@settings(max_examples=300, deadline=None)
@given(
    total=st.one_of(
        st.integers(min_value=1, max_value=10**20),
        st.floats(min_value=2.0**53, max_value=1e300),
        st.sampled_from([10**400, math.inf]),
    ),
    lanes=st.one_of(st.integers(min_value=1, max_value=10**20), st.just(10**400)),
    gate=st.one_of(st.floats(min_value=5e-324, max_value=1e-3), st.just(5e-324)),
    depth=st.sampled_from([1, 8, 10**400]),
)
@example(total=290_000, lanes=10**12, gate=5e-324, depth=8)
# 10^6 shots: 333,334 a lane on 3 lanes, 2 on 999,999, 1 on 10^6 or 10^400
@example(total=10**6, lanes=3, gate=1e-7, depth=10)
@example(total=10**6, lanes=999_999, gate=1e-7, depth=10)
@example(total=10**6, lanes=10**6, gate=1e-7, depth=10)
@example(total=10**6, lanes=10**400, gate=1e-7, depth=10)
def test_a_lane_runs_whole_shots_and_never_less_than_one(total, lanes, gate, depth):
    qpu = qpu_with(gate=gate)
    spec = make_spec(depth=depth)
    estimate = estimate_runtime(qpu, spec, _PLAN._replace(total_shots=total), parallel_shots=lanes)
    shot = estimate.single_shot_time
    assert estimate.quantum_time_per_iteration >= shot > 0.0
    if as_float(total) == math.inf:  # an unbounded total stays unbounded
        assert estimate.quantum_time_per_iteration == math.inf
    else:  # ceil(total / lanes) single shots, the count exact
        assert estimate.quantum_time_per_iteration == as_float((int(total) + lanes - 1) // lanes) * shot
