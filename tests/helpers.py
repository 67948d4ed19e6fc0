"""Shared builders for test fixtures."""

import csv
import io
import sys

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


#: Every character CSV treats specially, a space, non-ASCII text and a NUL (which 3.10's writer rejects).
CSV_CHARACTERS = (",", '"', "\r", "\n", " ", "a", "b", "Z", "é", "漢", "\u2028", "\0")


def csv_written(rows):
    """``csv.writer``'s text of ``rows``; ``None`` where it rejects a NUL, as 3.10's writer does."""
    out = io.StringIO()
    try:
        csv.writer(out, lineterminator="\n").writerows(rows)
    except csv.Error:
        assert any("\0" in str(value) for row in rows for value in row)
        return None
    return out.getvalue()


def csv_writer_is_the_oracle(rows):
    """Whether ``csv.writer`` writes ``rows`` by the one rule: on 3.13+ always; before that, unless a CR shows."""
    return sys.version_info >= (3, 13) or not any("\r" in str(value) for row in rows for value in row)
