import math

import pytest
from helpers import make_spec, qpu_with

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

    def test_parallel_shots_divide_quantum_term(self):
        spec = make_spec(classical_prep_time=0.0)
        qpu = qpu_with()
        plan = shot_plan(spec, 0.006)
        serial = estimate_runtime(qpu, spec, plan)
        parallel = estimate_runtime(qpu, spec, plan, parallel_shots=10)
        assert serial.total_time / parallel.total_time == pytest.approx(10, rel=1e-12)
        with pytest.raises(ValueError):
            estimate_runtime(qpu, spec, plan, parallel_shots=0)
