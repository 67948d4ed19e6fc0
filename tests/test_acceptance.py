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

from nisq_gonogo.advantage import Outcome, SolutionProfile, classify
from nisq_gonogo.catalog import bundled_catalog, parse_catalog, serialize_catalog
from nisq_gonogo.cli import main
from nisq_gonogo.feasibility import (
    CircuitShape,
    EmulationTier,
    emulation_tier,
    required_error_rate,
    statevector_memory,
    success_probability,
)
from nisq_gonogo.runtime import estimate_runtime, single_shot_time
from nisq_gonogo.units import fidelity_percent
from nisq_gonogo.workload import (
    AlgorithmFamily,
    MitigationSpec,
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


def test_criterion_09a_required_rate_monotone():
    with criterion(9, "property: required error rate strictly decreases with volume (1000 cases)"):
        rng = random.Random(901)
        for _ in range(1000):
            breadth = rng.randint(1, 10_000)
            depth = rng.randint(1, 10_000)
            base = required_error_rate(CircuitShape(breadth, depth))
            assert required_error_rate(CircuitShape(breadth + 1, depth)) < base
            assert required_error_rate(CircuitShape(breadth, depth + 1)) < base


def test_criterion_09b_success_probability_range_and_threshold_band():
    with criterion(9, "property: success probability in (0,1]; ~1/e at the rule threshold (1000+ cases)"):
        rng = random.Random(902)
        for _ in range(1000):
            error = rng.uniform(1e-6, 0.01)
            shape = CircuitShape(rng.randint(1, 600), rng.randint(1, 100))
            p = success_probability(error, shape)
            assert 0.0 < p <= 1.0
        # threshold band: at error 1/V the probability sits just under 1/e.
        # V=10 is the documented boundary below the band; from V=11 up the
        # probability stays inside (0.35, 0.38).
        assert success_probability(0.1, CircuitShape(10, 1)) == pytest.approx(0.3486784401, rel=1e-12)
        for volume in range(11, 1100):
            p = success_probability(1.0 / volume, CircuitShape(volume, 1))
            assert 0.35 < p < 0.38, volume
        for _ in range(200):
            volume = rng.randint(11, 10**9)
            p = success_probability(1.0 / volume, CircuitShape(volume, 1))
            assert 0.35 < p < 0.38, volume


def test_criterion_09c_total_shots_monotonicity():
    with criterion(9, "property: shot totals monotone in epsilon, qubits, layers, mitigation (1000 cases)"):
        rng = random.Random(903)

        def vqe(n, eps, coeff):
            return WorkloadSpec(
                id="w",
                family=AlgorithmFamily.VQE,
                data_qubits=n,
                depth=8,
                target_epsilon=eps,
                ansatz_iterations=1,
                mitigation=MitigationSpec(enabled=True, exponent_coefficient=coeff),
            )

        def qaoa(layers, eps):
            return WorkloadSpec(
                id="w",
                family=AlgorithmFamily.QAOA,
                data_qubits=20,
                depth=8,
                qaoa_layers=layers,
                target_epsilon=eps,
                ansatz_iterations=1,
            )

        for _ in range(1000):
            eps = rng.uniform(1e-3, 1.0)
            wider_eps = min(1.0, eps * rng.uniform(1.0, 3.0))
            n = rng.randint(2, 120)
            coeff = rng.uniform(0.0, 2.0)
            layers = rng.randint(1, 60)
            error = rng.uniform(0.0, 0.02)

            assert shot_plan(vqe(n, wider_eps, coeff), error).total_shots <= shot_plan(vqe(n, eps, coeff), error).total_shots
            assert shot_plan(vqe(n + 1, eps, coeff), error).total_shots >= shot_plan(vqe(n, eps, coeff), error).total_shots
            assert shot_plan(vqe(n, eps, coeff + 0.3), error).total_shots >= shot_plan(vqe(n, eps, coeff), error).total_shots
            assert shot_plan(qaoa(layers + 1, eps), error).total_shots >= shot_plan(qaoa(layers, eps), error).total_shots


def test_criterion_09d_advantage_antisymmetry_and_scale_invariance():
    with criterion(9, "property: advantage report antisymmetric and scale invariant (1000 cases)"):
        rng = random.Random(904)
        flip = {
            Outcome.ADVANTAGE: Outcome.DISADVANTAGE,
            Outcome.DISADVANTAGE: Outcome.ADVANTAGE,
            Outcome.PARITY: Outcome.PARITY,
            Outcome.NOT_EVALUATED: Outcome.NOT_EVALUATED,
        }

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
            forward, backward = classify(a, b), classify(b, a)
            for axis, outcome in forward.axes().items():
                assert backward.axes()[axis] is flip[outcome], axis

            k = rng.uniform(1e-3, 1e3)

            def scaled(p):
                return SolutionProfile(
                    runtime_s=p.runtime_s * k,
                    energy_j=None if p.energy_j is None else p.energy_j * k,
                    cost=None if p.cost is None else p.cost * k,
                    quality=None if p.quality is None else p.quality * k,
                    memory_bytes=p.memory_bytes,
                )

            rescaled = classify(scaled(a), scaled(b))
            for axis in ("speed", "quality", "energetic", "cost"):
                assert rescaled.axes()[axis] is forward.axes()[axis], axis


def test_criterion_09e_catalog_round_trip():
    with criterion(9, "property: catalog serialize/parse round-trips structurally (1000 cases)"):
        rng = random.Random(905)
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
            document = json.dumps({"schema_version": 2, "qpus": qpus, "classical_refs": []})
            catalog = parse_catalog(document)
            assert parse_catalog(serialize_catalog(catalog)) == catalog


def test_criterion_09f_cli_determinism(tmp_path):
    with criterion(9, "property: two identical CLI runs emit byte-identical CSV"):
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
        for base in ("r1", "r2"):
            code = main(
                ["feasibility", "--workload", str(workload), "--format", "csv", "--out", str(tmp_path / f"{base}.csv")]
            )
            assert code in (0, 2)
        assert (tmp_path / "r1.csv").read_bytes() == (tmp_path / "r2.csv").read_bytes()


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
