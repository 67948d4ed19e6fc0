"""Acceptance gate: golden reference values and randomized property suites.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.
"""

import json
import random
from contextlib import contextmanager
from decimal import Decimal
from fractions import Fraction

import pytest
import test_advantage
import test_catalog
import test_feasibility
import test_workload

from nisq_gonogo.advantage import SolutionProfile
from nisq_gonogo.catalog import bundled_catalog
from nisq_gonogo.cli import main
from nisq_gonogo.feasibility import (
    CircuitShape,
    EmulationTier,
    emulation_tier,
    required_error_rate,
    statevector_memory,
)
from nisq_gonogo.runtime import estimate_runtime, single_shot_time
from nisq_gonogo.units import fidelity_percent
from nisq_gonogo.workload import (
    AlgorithmFamily,
    PauliGrouping,
    WorkloadSpec,
    pauli_string_count,
    shot_plan,
    shots_per_string,
)

YEAR_SECONDS = 365.25 * 86400


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except Exception:
        print(f"FAIL  criterion {number:2d}: {description}")
        raise
    print(f"PASS  criterion {number:2d}: {description}")


def test_criterion_01_fidelity_rule_golden_rows():
    with criterion(1, "fidelity rule reproduces the reference breadth x depth rows"):
        rows = [
            (1121, 8, "99.99", 2),
            (127, 8, "99.9", 1),
            (65, 8, "99.8", 1),
            (53, 8, "99.7", 1),
        ]
        for breadth, depth, displayed, decimals in rows:
            rate = required_error_rate(CircuitShape(breadth, depth))
            exact = Fraction(1, breadth * depth)
            assert abs(rate - float(exact)) <= 1e-12 * float(exact)
            # the displayed percent agrees with the exact fidelity to within
            # one unit in its last displayed digit
            assert abs(fidelity_percent(rate) - float(displayed)) < 10.0 ** (-decimals)


def test_criterion_02_deep_factoring_circuit_requirement():
    with criterion(2, "372 qubits x 1490 cycles needs a 1.804e-6 error rate (99.99982%)"):
        rate = required_error_rate(CircuitShape(372, 1490))
        assert abs(rate - 1.804e-6) <= 1e-9
        assert f"{fidelity_percent(rate):.5f}%" == "99.99982%"


def test_criterion_03_quartic_string_count_anchor():
    with criterion(3, "ungrouped 72-qubit VQE needs exactly 330,816 measurement strings"):
        spec = WorkloadSpec(
            id="anchor",
            family=AlgorithmFamily.VQE,
            data_qubits=72,
            depth=72,
            target_epsilon=1e-3,
            ansatz_iterations=1,
            pauli_grouping=PauliGrouping.NONE,
        )
        assert pauli_string_count(spec) == 330_816


def test_criterion_04_shot_count_anchor():
    with criterion(4, "epsilon 1e-3 needs exactly 1,000,000 shots per string"):
        assert shots_per_string(1e-3) == 1_000_000


def test_criterion_05_statevector_memory_anchor_and_doubling():
    with criterion(5, "29-qubit statevector is exactly 8 GiB; memory doubles per qubit"):
        assert statevector_memory(29) == 8_589_934_592
        for n in range(0, 61):
            assert statevector_memory(n + 1) == 2 * statevector_memory(n)


def test_criterion_06_flamingo_power_budget():
    with criterion(6, "bundled 1386-qubit component sum lands in [120 kW, 140 kW]"):
        from nisq_gonogo.energy import power_draw

        total = power_draw(bundled_catalog().get_qpu("ibm-flamingo"))
        assert 120_000 <= total <= 140_000


def test_criterion_07_trapped_ion_gate_speed_ratio():
    with criterion(7, "bundled ion vs superconducting single-shot ratio is exactly 1000"):
        catalog = bundled_catalog()
        ion = catalog.get_qpu("quantinuum-h1")._replace(readout_time=0.0, reset_time=0.0)
        sc = catalog.get_qpu("google-sycamore-2022")._replace(readout_time=0.0, reset_time=0.0)
        # the stored decimal gate times are in an exact 1000:1 ratio
        t_ion = Fraction(Decimal(str(single_shot_time(ion, 1))))
        t_sc = Fraction(Decimal(str(single_shot_time(sc, 1))))
        assert t_ion / t_sc == 1000
        # at any equal depth the double-precision quotient agrees to 1 ulp
        for depth in (1, 8, 1000):
            ratio = single_shot_time(ion, depth) / single_shot_time(sc, depth)
            assert abs(ratio - 1000.0) <= 2 ** -52 * 1000.0


def test_criterion_08_emulation_tier_table():
    with criterion(8, "emulation tiers match the reference qubit thresholds"):
        assert emulation_tier(18, 100, 1e-4) is EmulationTier.LAPTOP
        assert emulation_tier(29, 100, 1e-4) is EmulationTier.SERVER
        assert emulation_tier(40, 100, 1e-4) is EmulationTier.CLUSTER
        assert emulation_tier(55, 100, 1e-4) is EmulationTier.HPC
        # at 56 qubits the split follows depth and noise
        assert emulation_tier(56, 8, 1e-4) is EmulationTier.TENSOR_NETWORK
        assert emulation_tier(56, 100, 6e-3) is EmulationTier.TENSOR_NETWORK
        assert emulation_tier(56, 100, 1e-4) is EmulationTier.BEYOND_CLASSICAL


# --- criterion 9: randomized property suites (>= 1000 cases each) ---
# Each criterion draws 1,000 fixed cases from its own seed and runs each one
# through its module's property, the body that Hypothesis searches there.


def test_criterion_09a_required_rate_monotone():
    with criterion(9, "property: required error rate strictly decreases with volume (1000 cases)"):
        rng = random.Random(901)
        check = test_feasibility.test_required_rate_decreases_with_volume.hypothesis.inner_test
        for _ in range(1000):
            check(breadth=rng.randint(1, 10_000), depth=rng.randint(1, 10_000))


def test_criterion_09b_success_probability_range_and_threshold_band():
    with criterion(9, "property: success probability in (0,1]; ~1/e at the rule threshold (1000+ cases)"):
        rng = random.Random(902)
        check = test_feasibility.test_success_probability_in_unit_interval_and_monotone.hypothesis.inner_test
        for _ in range(1000):
            check(error=rng.uniform(1e-6, 0.01), breadth=rng.randint(1, 600), depth=rng.randint(1, 100))
        test_feasibility.test_success_probability_at_the_rule_threshold_sits_just_under_inverse_e()


def test_criterion_09c_total_shots_monotonicity():
    with criterion(9, "property: shot totals monotone in epsilon, qubits, layers, mitigation (1000 cases)"):
        rng = random.Random(903)
        by_epsilon = test_workload.test_total_shots_non_increasing_in_epsilon.hypothesis.inner_test
        by_size = test_workload.test_total_shots_non_decreasing_in_size_knobs.hypothesis.inner_test
        for _ in range(1000):
            eps = rng.uniform(1e-3, 1.0)
            wider_eps = min(1.0, eps * rng.uniform(1.0, 3.0))
            n = rng.randint(2, 120)
            coeff = rng.uniform(0.0, 2.0)
            layers = rng.randint(1, 60)
            error = rng.uniform(0.0, 0.02)
            for mitigated in (True, False):
                by_epsilon((eps, wider_eps), n, coeff, error, mitigated)
                by_size(eps, n, layers, (coeff, coeff + 0.3), error, mitigated)


def test_criterion_09d_advantage_antisymmetry_and_scale_invariance():
    with criterion(9, "property: advantage report antisymmetric and scale invariant (1000 cases)"):
        rng = random.Random(904)
        antisymmetry = test_advantage.test_antisymmetry.hypothesis.inner_test
        scale_invariance = test_advantage.test_scale_invariance.hypothesis.inner_test

        def profile():
            def maybe(v):
                return v if rng.random() < 0.7 else None

            return SolutionProfile(
                runtime_s=rng.uniform(0.1, 1e6),
                energy_j=maybe(rng.uniform(0.1, 1e9)),
                cost=maybe(rng.uniform(0.1, 1e6)),
                quality=maybe(rng.uniform(0.1, 100.0)),
                memory_bytes=maybe(rng.randint(0, 2**70)),
            )

        for _ in range(1000):
            a, b = profile(), profile()
            antisymmetry(a, b)
            scale_invariance(a, b, rng.uniform(1e-3, 1e3))


def test_criterion_09e_catalog_round_trip():
    with criterion(9, "property: catalog serialize/parse round-trips structurally (1000 cases)"):
        rng = random.Random(905)
        check = test_catalog.test_round_trip_property.hypothesis.inner_test
        modalities = ["superconducting", "trapped-ion", "neutral-atom", "photonic", "spin", "other"]
        statuses = ["available", "announced", "projected"]
        for i in range(1000):
            qpus = []
            for j in range(rng.randint(0, 3)):
                qpu = {
                    "id": f"qpu-{i}-{j}",
                    "modality": rng.choice(modalities),
                    "qubit_count": rng.randint(1, 5000),
                    "two_qubit_error_median": rng.uniform(1e-8, 0.99),
                    "two_qubit_gate_time": rng.uniform(1e-9, 1e-3),
                    "readout_time": rng.uniform(0, 1e-3),
                    "reset_time": rng.uniform(0, 1e-3),
                    "power_components": [
                        {
                            "label": "block",
                            "unit_power_w": rng.uniform(0, 1e5),
                            "count": rng.randint(0, 20),
                            "per_qubit": rng.random() < 0.5,
                        }
                        for _ in range(rng.randint(0, 2))
                    ],
                    "status": rng.choice(statuses),
                    "source_note": "generated",
                }
                if rng.random() < 0.5:
                    qpu["two_qubit_error_stddev"] = rng.uniform(0, 0.1)
                qpus.append(qpu)
            check(qpus)


def test_criterion_09f_cli_determinism(tmp_path):
    with criterion(9, "property: two identical CLI runs emit byte-identical reports"):
        for base in ("a", "b"):
            assert main(["scatter", "--out", str(tmp_path / f"{base}.svg")]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()

        workload = tmp_path / "w.json"
        workload.write_text(
            json.dumps(
                {"family": "generic", "data_qubits": 53, "depth": 8,
                 "target_epsilon": 0.01, "ansatz_iterations": 10}
            ),
            encoding="utf-8",
        )
        for fmt in ("csv", "md"):
            for base in ("r1", "r2"):
                out = tmp_path / f"{base}.{fmt}"
                assert main(["feasibility", "--workload", str(workload), "--format", fmt, "--out", str(out)]) in (0, 2)
            assert (tmp_path / f"r1.{fmt}").read_bytes() == (tmp_path / f"r2.{fmt}").read_bytes()


def test_criterion_10_end_to_end_chemistry_estimate():
    with criterion(10, "end-to-end: 72-qubit chemistry estimate on 100 ns gates exceeds one year"):
        spec = WorkloadSpec(
            id="benzene-like",
            family=AlgorithmFamily.VQE,
            data_qubits=72,
            depth=72,
            target_epsilon=1e-3,
            ansatz_iterations=100,
            classical_prep_time=0.0,
        )
        qpu = bundled_catalog().get_qpu("google-sycamore-2022")._replace(
            two_qubit_gate_time=1e-7,
            readout_time=0.0,
            reset_time=0.0,
        )
        plan = shot_plan(spec, qpu.two_qubit_error_median)
        estimate = estimate_runtime(qpu, spec, plan)
        assert plan.total_shots == 330_816_000_000
        assert estimate.total_time == pytest.approx(2.3818752e8, rel=1e-9)
        assert estimate.total_time > YEAR_SECONDS
