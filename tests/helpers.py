"""Shared builders for test fixtures."""

from nisq_gonogo.catalog import bundled_catalog
from nisq_gonogo.workload import AlgorithmFamily, WorkloadSpec


def make_spec(**overrides) -> WorkloadSpec:
    base = dict(
        id="test",
        family=AlgorithmFamily.VQE,
        data_qubits=72,
        depth=72,
        target_epsilon=1e-3,
        ansatz_iterations=100,
    )
    base.update(overrides)
    return WorkloadSpec(**base)


def qpu_with(gate=1e-7, readout=0.0, reset=0.0, **overrides):
    base = bundled_catalog().get_qpu("google-sycamore-2022")
    return base._replace(two_qubit_gate_time=gate, readout_time=readout, reset_time=reset, **overrides)
