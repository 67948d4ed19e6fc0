import math

import pytest
from helpers import make_spec, qpu_with

from nisq_gonogo.catalog import PowerComponent, bundled_catalog
from nisq_gonogo.energy import estimate_energy, job_energy, power_breakdown, power_draw
from nisq_gonogo.runtime import estimate_runtime
from nisq_gonogo.workload import shot_plan


class TestPowerDraw:
    def test_no_components_draws_nothing(self):
        assert power_draw(qpu_with(power_components=())) == 0.0

    def test_flamingo_component_sum(self):
        flamingo = bundled_catalog().get_qpu("ibm-flamingo")
        total = power_draw(flamingo)
        assert total == pytest.approx(130_720, rel=1e-12)
        assert 120_000 <= total <= 140_000

    def test_per_qubit_component_scales_with_register(self):
        qpu = qpu_with(
            qubit_count=127,
            power_components=(PowerComponent(label="electronics", unit_power_w=20.0, per_qubit=True),),
        )
        assert power_draw(qpu) == pytest.approx(2540.0, rel=1e-12)

    def test_additive_under_component_split(self):
        whole = qpu_with(power_components=(PowerComponent("tubes", 10_000.0, count=8),))
        split = qpu_with(
            power_components=(
                PowerComponent("tubes a", 10_000.0, count=4),
                PowerComponent("tubes b", 10_000.0, count=4),
            )
        )
        assert power_draw(whole) == power_draw(split)

    def test_a_count_beyond_float_range_draws_unbounded_power(self):
        huge = 10**400
        qpu = qpu_with(
            qubit_count=huge,
            power_components=(
                PowerComponent("per qubit", 2.5, per_qubit=True),
                PowerComponent("amplifiers", 1.0, count=huge),
                PowerComponent("idle", 0.0, count=huge),
                PowerComponent("idle per qubit", -0.0, per_qubit=True),
                PowerComponent("fridge", 25_000.0, count=3),
            ),
        )
        rows = power_breakdown(qpu)
        assert [watts for _, watts in rows] == [math.inf, math.inf, 0.0, 0.0, 75_000.0]
        assert math.copysign(1.0, rows[2][1]) == 1.0 and math.copysign(1.0, rows[3][1]) == -1.0
        assert power_draw(qpu) == math.inf
        spec = make_spec()
        energy = estimate_energy(qpu, estimate_runtime(qpu, spec, shot_plan(spec, qpu.two_qubit_error_median)))
        assert (energy.power_draw, energy.job_energy) == (math.inf, math.inf)
        idle = qpu_with(qubit_count=huge, power_components=(PowerComponent("idle", 0.0, per_qubit=True),))
        assert power_breakdown(idle) == (("idle", 0.0),) and power_draw(idle) == 0.0

    def test_breakdown_labels_preserved(self):
        flamingo = bundled_catalog().get_qpu("ibm-flamingo")
        rows = dict(power_breakdown(flamingo))
        assert rows["pulse tubes with compressors"] == pytest.approx(90_000)
        assert rows["control electronics"] == pytest.approx(20 * 1386)


class TestJobEnergy:
    def test_zero_power(self):
        assert job_energy(0.0, 1000.0) == 0.0
        assert job_energy(0.0, math.inf) == 0.0

    def test_unbounded_power_over_zero_seconds_is_zero_joules(self):
        assert job_energy(math.inf, 0.0) == 0.0
        huge = qpu_with(power_components=(PowerComponent("amplifiers", 1.0, count=10**400),))
        spec = make_spec(classical_prep_time=0.0)
        # a lane runs at least one shot, so no estimate_runtime gives 0 s: the record is varied in code
        runtime = estimate_runtime(huge, spec, shot_plan(spec, 0.001))._replace(total_time=0.0)
        energy = estimate_energy(huge, runtime)
        assert (energy.power_draw, energy.job_energy) == (math.inf, 0.0)

    def test_kilowatt_hours(self):
        assert job_energy(50_000.0, 3600.0) == pytest.approx(1.8e8, rel=1e-12)

    def test_accepts_runtime_estimate(self):
        spec = make_spec(classical_prep_time=0.0)
        rt = estimate_runtime(qpu_with(), spec, shot_plan(spec, 0.006))
        assert job_energy(10.0, rt.total_time) == pytest.approx(10.0 * rt.total_time, rel=1e-12)

    def test_tenfold_power_ratio_at_equal_runtime(self):
        # 3 kW machine vs 30 kW reference at the same wall-clock
        assert job_energy(30_000.0, 100.0) / job_energy(3_000.0, 100.0) == pytest.approx(10.0)

    def test_bilinear(self):
        assert job_energy(2 * 500.0, 100.0) == pytest.approx(2 * job_energy(500.0, 100.0))
        assert job_energy(500.0, 2 * 100.0) == pytest.approx(2 * job_energy(500.0, 100.0))

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            job_energy(-1.0, 10.0)


class TestEstimateEnergy:
    def test_composes_power_and_runtime(self):
        spec = make_spec(classical_prep_time=0.0, ansatz_iterations=1)
        flamingo = bundled_catalog().get_qpu("ibm-flamingo")
        rt = estimate_runtime(flamingo, spec, shot_plan(spec, flamingo.two_qubit_error_median))
        estimate = estimate_energy(flamingo, rt)
        assert estimate.power_draw == pytest.approx(130_720)
        assert estimate.job_energy == pytest.approx(130_720 * rt.total_time, rel=1e-12)
        assert sum(watts for _, watts in estimate.breakdown) == pytest.approx(estimate.power_draw)


def test_bundled_power_figures_match_public_rows():
    # vendor envelopes: (id, watts); transcription tolerance 10%
    catalog = bundled_catalog()
    expected = {
        "ibm-washington": 50_000,
        "ibm-flamingo": 140_000,
        "pasqal-fresnel": 3_000,
        "quandela-ascella": 2_000,
    }
    for qpu_id, envelope in expected.items():
        total = power_draw(catalog.get_qpu(qpu_id))
        assert total <= envelope
        assert total >= 0.9 * envelope - 1e-9, f"{qpu_id}: {total} vs {envelope}"
