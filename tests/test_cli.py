import argparse
import atexit
import contextlib
import csv
import gc
import importlib.util
import io
import itertools
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import threading
import warnings

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import nisq_gonogo
from helpers import make_spec
from nisq_gonogo import advantage, cli, energy
from nisq_gonogo import workload as workload_mod
from nisq_gonogo import feasibility as feas
from nisq_gonogo.advantage import Outcome, SolutionProfile, classify, quantum_profile
from nisq_gonogo.catalog import Catalog, PowerComponent, bundled_catalog, serialize_catalog
from nisq_gonogo.cli import (
    EXIT_ERROR,
    EXIT_NO_GO,
    EXIT_OK,
    ENV_CATALOG,
    build_estimate_record,
    build_feasibility_bundle,
    main,
    render_estimate_md,
)
from nisq_gonogo.scatter import scatter_csv, scatter_svg
from nisq_gonogo.units import (
    EXACT_COUNT_LIMIT,
    count_number,
    count_text,
    format_bytes,
    format_fidelity_percent,
    format_joules,
    format_seconds,
    format_watts,
    sci,
    total_text,
)
from nisq_gonogo.workload import AlgorithmFamily, MitigationSpec, PauliGrouping, WorkloadSpec, parse_workloads

WORKLOAD_53x8 = {
    "id": "surface-scan",
    "family": "generic",
    "data_qubits": 53,
    "depth": 8,
    "target_epsilon": 0.01,
    "ansatz_iterations": 10,
}

BENZENE_LIKE = {
    "id": "benzene-like-vqe",
    "family": "vqe",
    "data_qubits": 72,
    "depth": 72,
    "target_epsilon": 0.001,
    "ansatz_iterations": 100,
    "classical_prep_time": 1.0,
}


@pytest.fixture
def workload_file(tmp_path):
    def write(payload, name="workload.json"):
        path = tmp_path / name
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFeasibilityCommand:
    def test_available_hardware_never_reaches_go_on_53x8(self, capsys, workload_file):
        code, out, _ = run(capsys, "feasibility", "--workload", workload_file(WORKLOAD_53x8))
        go_rows = [line for line in out.splitlines() if line.startswith("| go")]
        assert go_rows, "projected entries should still reach go"
        for line in go_rows:
            assert "projected hardware" in line, f"available hardware must not reach go: {line}"
        assert code == EXIT_OK

    def test_all_no_go_exit_code(self, capsys, workload_file, tmp_path):
        doc = {
            "schema_version": 2,
            "qpus": [
                {
                    "id": "noisy",
                    "modality": "superconducting",
                    "qubit_count": 200,
                    "two_qubit_error_median": 0.2,
                    "two_qubit_gate_time": 1e-7,
                    "readout_time": 0,
                    "reset_time": 0,
                    "power_components": [],
                    "status": "available",
                    "source_note": "fixture",
                }
            ],
            "classical_refs": [],
        }
        catalog_path = tmp_path / "catalog.json"
        catalog_path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, _ = run(
            capsys, "feasibility", "--catalog", str(catalog_path), "--workload", workload_file(WORKLOAD_53x8)
        )
        assert code == EXIT_NO_GO
        assert "no-go" in out

    def test_perfect_projected_qpu_reaches_go(self, capsys, workload_file, tmp_path):
        doc = {
            "schema_version": 2,
            "qpus": [
                {
                    "id": "dream",
                    "modality": "superconducting",
                    "qubit_count": 200,
                    "two_qubit_error_median": 1e-7,
                    "two_qubit_gate_time": 1e-7,
                    "readout_time": 0,
                    "reset_time": 0,
                    "power_components": [],
                    "status": "projected",
                    "source_note": "fixture",
                }
            ],
            "classical_refs": [],
        }
        catalog_path = tmp_path / "catalog.json"
        catalog_path.write_text(json.dumps(doc), encoding="utf-8")
        workload = dict(WORKLOAD_53x8, data_qubits=100, depth=100)
        code, out, _ = run(
            capsys, "feasibility", "--catalog", str(catalog_path), "--workload", workload_file(workload)
        )
        assert code == EXIT_OK
        assert "| go | dream" in out

    def test_empty_workload_list_is_an_input_error(self, capsys, workload_file):
        code, _, err = run(capsys, "feasibility", "--workload", workload_file([]))
        assert code == EXIT_ERROR
        assert "no workloads" in err

    def test_missing_file_is_an_input_error(self, capsys):
        code, _, err = run(capsys, "feasibility", "--workload", "/does/not/exist.json")
        assert code == EXIT_ERROR
        assert err.startswith("error:")

    def test_malformed_catalog_reports_position(self, capsys, workload_file, tmp_path):
        catalog_path = tmp_path / "broken.json"
        catalog_path.write_text('{"schema_version": 2, "qpus": [', encoding="utf-8")
        code, _, err = run(
            capsys, "feasibility", "--catalog", str(catalog_path), "--workload", workload_file(WORKLOAD_53x8)
        )
        assert code == EXIT_ERROR
        assert "line" in err

    def test_capacity_misses_are_reported_not_crashed(self, capsys, workload_file):
        code, out, _ = run(capsys, "feasibility", "--workload", workload_file(WORKLOAD_53x8))
        assert "no-go (capacity)" in out
        assert "needs 53, has 33" in out

    def test_csv_format(self, capsys, workload_file):
        code, out, _ = run(capsys, "feasibility", "--workload", workload_file(WORKLOAD_53x8), "--format", "csv")
        assert out.splitlines()[0].startswith("verdict,qpu_id,workload_id")

    def test_volume_beyond_float_range_reads_no_go(self, capsys, workload_file):
        workload = dict(WORKLOAD_53x8, data_qubits=4, depth=10**400)
        code, out, err = run(capsys, "feasibility", "--workload", workload_file(workload))
        assert code == EXIT_NO_GO and err == ""
        assert "| no-go | google-sycamore-2022 | surface-scan | 0 | 0.006 (99.40%) | 0 |" in out

    @pytest.mark.parametrize(
        "band, catalog",
        [
            pytest.param("-3", None, id="-3"),
            pytest.param("1", None, id="1"),
            pytest.param("nan", None, id="nan"),
            pytest.param("-3", {"schema_version": 2, "qpus": []}, id="-3-empty-catalog"),
        ],
    )
    def test_marginal_band_must_be_finite_and_above_one(self, capsys, workload_file, band, catalog):
        flags = () if catalog is None else ("--catalog", workload_file(catalog, "catalog.json"))
        code, out, err = run(
            capsys, "feasibility", "--workload", workload_file(WORKLOAD_53x8), "--marginal-band", band, *flags
        )
        assert code == EXIT_ERROR and out == ""
        assert err.startswith("error: ") and "marginal_band" in err and len(err.splitlines()) == 1


class TestEstimateCommand:
    def test_chemistry_scale_report(self, capsys, workload_file):
        code, out, _ = run(
            capsys, "estimate", "--workload", workload_file(BENZENE_LIKE), "--qpu", "google-sycamore-2022"
        )
        assert code == EXIT_OK
        shots_line = next(line for line in out.splitlines() if "total shots per iteration" in line)
        assert "3.30816e11" in shots_line
        assert "years" in out  # runs for years, not minutes

    def test_unit_epsilon_means_single_shot(self, capsys, workload_file):
        workload = dict(BENZENE_LIKE, target_epsilon=1.0)
        code, out, _ = run(
            capsys, "estimate", "--workload", workload_file(workload), "--qpu", "google-sycamore-2022"
        )
        assert "- shots per string: 1 shots" in out

    def test_mitigation_strictly_increases_total_time(self, capsys, workload_file):
        _, plain, _ = run(
            capsys, "estimate", "--workload", workload_file(BENZENE_LIKE), "--qpu", "google-sycamore-2022"
        )
        mitigated_payload = dict(BENZENE_LIKE, mitigation={"enabled": True, "exponent_coefficient": 1.0})
        _, mitigated, _ = run(
            capsys, "estimate", "--workload", workload_file(mitigated_payload), "--qpu", "google-sycamore-2022"
        )

        def total_seconds(text):
            line = next(l for l in text.splitlines() if l.startswith("- total:"))
            return float(line.split()[2])

        assert total_seconds(mitigated) > total_seconds(plain)

    @pytest.mark.parametrize(
        "qpu, energy",
        [("ibm-flamingo", "- job energy: inf J (unbounded)"), ("google-sycamore-2022", "- job energy: 0 J")],
        ids=["ibm-flamingo", "google-sycamore-2022"],
    )
    def test_depth_beyond_float_range_reads_unbounded(self, capsys, workload_file, qpu, energy):
        workload = dict(WORKLOAD_53x8, data_qubits=4, depth=10**400)
        code, out, err = run(capsys, "estimate", "--workload", workload_file(workload), "--qpu", qpu)
        assert code == EXIT_OK and err == ""
        assert "Traceback" not in out and "nan" not in out
        lines = out.splitlines()
        assert "- total: inf s (unbounded)" in lines and energy in lines
        assert "feasibility: no-go (required error rate 0, available " in out

    def test_mitigation_beyond_float_range_reads_unbounded(self, capsys, workload_file):
        workload = dict(BENZENE_LIKE, data_qubits=400, depth=400, mitigation={"enabled": True})
        code, out, err = run(capsys, "estimate", "--workload", workload_file(workload), "--qpu", "ibm-osprey")
        assert code == EXIT_OK and err == ""
        lines = out.splitlines()
        for line in (
            "- mitigation multiplier: inf x",
            "- total shots per iteration: inf shots (unbounded)",
            "- total: inf s (unbounded)",
            "- job energy: 0 J",
        ):
            assert line in lines

    def test_epsilon_whose_square_underflows_reads_unbounded(self, capsys, workload_file):
        workload = dict(BENZENE_LIKE, target_epsilon=1e-300)
        code, out, err = run(capsys, "estimate", "--workload", workload_file(workload), "--qpu", "ibm-osprey")
        assert code == EXIT_OK and err == ""
        lines = out.splitlines()
        assert "- shots per string: inf shots (unbounded)" in lines
        assert "- total shots per iteration: inf shots (unbounded)" in lines
        assert "- total: inf s (unbounded)" in lines

    def test_string_budget_beyond_float_range_reads_unbounded(self, capsys, workload_file):
        workload = dict(BENZENE_LIKE, c_vqe_override=1e300)
        code, out, err = run(capsys, "estimate", "--workload", workload_file(workload), "--qpu", "ibm-osprey")
        assert code == EXIT_OK and err == ""
        lines = out.splitlines()
        assert "- total shots per iteration: inf shots (unbounded)" in lines
        assert "- total: inf s (unbounded)" in lines

    def test_capacity_miss_reads_no_go(self, capsys, workload_file):
        code, out, err = run(
            capsys, "estimate", "--workload", workload_file(WORKLOAD_53x8), "--qpu", "ibm-prague-egret"
        )
        assert code == EXIT_OK and err == ""
        assert (
            "feasibility: no-go (insufficient qubits: needs 53, has 33)" in out.splitlines()
        )

    def test_unknown_qpu_id(self, capsys, workload_file):
        code, _, err = run(capsys, "estimate", "--workload", workload_file(BENZENE_LIKE), "--qpu", "nope")
        assert code == EXIT_ERROR
        assert "unknown qpu id" in err

    def test_every_numeric_line_carries_a_unit(self, capsys, workload_file):
        _, out, _ = run(
            capsys, "estimate", "--workload", workload_file(BENZENE_LIKE), "--qpu", "ibm-flamingo"
        )
        markers = (
            " s", "shots", "strings", " W", "kW", " J", "kWh", " x",
            "qubits", "cycles", "iterations", "%", "error rate", "epsilon",
        )
        for line in out.splitlines():
            if line.startswith("#") or not any(ch.isdigit() for ch in line):
                continue
            assert any(marker in line for marker in markers), f"line lacks a unit: {line!r}"


class TestScatterCommand:
    def test_emits_byte_identical_files_across_runs(self, capsys, tmp_path):
        first_base = tmp_path / "one.svg"
        second_base = tmp_path / "two.svg"
        assert main(["scatter", "--out", str(first_base)]) == EXIT_OK
        assert main(["scatter", "--out", str(second_base)]) == EXIT_OK
        capsys.readouterr()
        assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()
        assert (tmp_path / "one.svg").read_bytes() == (tmp_path / "two.svg").read_bytes()

    @pytest.mark.parametrize("old_csv", [None, "kept\n"])
    def test_an_svg_path_that_cannot_be_written_leaves_the_csv_as_it_was(self, capsys, tmp_path, old_csv):
        (tmp_path / "d.svg").mkdir()
        if old_csv is not None:
            (tmp_path / "d.csv").write_text(old_csv, encoding="utf-8")
        code, out, err = run(capsys, "scatter", "--out", str(tmp_path / "d"))
        assert (code, out) == (EXIT_ERROR, "")
        assert err == f"error: [Errno 21] Is a directory: {str(tmp_path / 'd.svg')!r}\n"
        if old_csv is None:
            assert sorted(os.listdir(tmp_path)) == ["d.svg"]
        else:
            assert (tmp_path / "d.csv").read_text(encoding="utf-8") == old_csv

    def test_rewrites_existing_files_whole(self, capsys, tmp_path):
        for name in ("plot.csv", "plot.svg"):
            (tmp_path / name).write_text("x" * 100_000, encoding="utf-8")
        assert main(["scatter", "--out", str(tmp_path / "plot")]) == EXIT_OK
        capsys.readouterr()
        assert (tmp_path / "plot.csv").read_text(encoding="utf-8") == scatter_csv(bundled_catalog())
        assert (tmp_path / "plot.svg").read_text(encoding="utf-8") == scatter_svg(bundled_catalog())

    def test_env_var_selects_catalog(self, capsys, tmp_path, monkeypatch):
        catalog_path = tmp_path / "cat.json"
        catalog_path.write_text(serialize_catalog(bundled_catalog()), encoding="utf-8")
        monkeypatch.setenv(ENV_CATALOG, str(catalog_path))
        code, out, _ = run(capsys, "scatter", "--out", str(tmp_path / "plot.svg"))
        assert code == EXIT_OK
        assert (tmp_path / "plot.csv").exists()


class TestCompareCommand:
    def test_equal_sides_reach_parity(self, capsys, workload_file, tmp_path):
        # first run an estimate to learn the quantum runtime/energy
        from nisq_gonogo.cli import build_estimate_record
        from nisq_gonogo.feasibility import statevector_memory
        from nisq_gonogo.workload import parse_workloads

        spec = parse_workloads(json.dumps(BENZENE_LIKE))[0]
        qpu = bundled_catalog().get_qpu("ibm-flamingo")
        record = build_estimate_record(qpu, spec)
        profile = {
            "runtime_s": record.runtime.total_time,
            "energy_j": record.energy.job_energy,
            "memory_bytes": statevector_memory(spec.data_qubits),
        }
        profile_path = tmp_path / "classical.json"
        profile_path.write_text(json.dumps(profile), encoding="utf-8")

        code, out, _ = run(
            capsys,
            "compare",
            "--workload", workload_file(BENZENE_LIKE),
            "--qpu", "ibm-flamingo",
            "--classical", str(profile_path),
        )
        assert code == EXIT_OK
        assert "| space | parity |" in out
        assert "| speed | parity |" in out
        assert "| energetic | parity |" in out
        assert "| quality | not-evaluated |" in out
        assert "advantage" not in [line.split("|")[2].strip() for line in out.splitlines() if line.startswith("|")]

    def test_low_power_quantum_wins_energy_at_equal_runtime(self, capsys, workload_file, tmp_path):
        from nisq_gonogo.cli import build_estimate_record
        from nisq_gonogo.workload import parse_workloads

        workload = dict(BENZENE_LIKE, data_qubits=100, depth=8, id="fresnel-job")
        spec = parse_workloads(json.dumps(workload))[0]
        qpu = bundled_catalog().get_qpu("pasqal-fresnel")  # 3 kW
        record = build_estimate_record(qpu, spec)
        profile = {"runtime_s": record.runtime.total_time, "classical_ref": "nvidia-dgx-rack"}  # 30 kW
        profile_path = tmp_path / "classical.json"
        profile_path.write_text(json.dumps(profile), encoding="utf-8")

        code, out, _ = run(
            capsys,
            "compare",
            "--workload", workload_file(workload),
            "--qpu", "pasqal-fresnel",
            "--classical", str(profile_path),
        )
        assert code == EXIT_OK
        assert "| energetic | advantage |" in out
        assert "| speed | parity |" in out


    def test_power_less_qpu_leaves_the_energetic_axis_unevaluated(self, capsys, workload_file, tmp_path):
        profile_path = tmp_path / "classical.json"
        profile_path.write_text('{"runtime_s": 3600, "energy_j": 1e9}', encoding="utf-8")
        code, out, err = run(
            capsys, "compare", "--workload", workload_file(WORKLOAD_53x8), "--qpu", "google-sycamore-2022",
            "--classical", str(profile_path),
        )
        assert code == EXIT_OK and err == ""
        assert "| energetic | not-evaluated |" in out.splitlines()
        assert (
            "note: power draw unreported for 'google-sycamore-2022'; energetic axis not evaluated"
            in out.splitlines()
        )


    def test_unbounded_quantum_runtime_reads_disadvantage(self, capsys, workload_file, tmp_path):
        profile_path = tmp_path / "classical.json"
        profile_path.write_text('{"runtime_s": 100, "classical_ref": "nvidia-dgx-rack"}', encoding="utf-8")
        workload = {"family": "generic", "data_qubits": 4, "depth": 10**400, "target_epsilon": 0.01, "ansatz_iterations": 1}
        code, out, err = run(
            capsys, "compare", "--workload", workload_file(workload), "--qpu", "ibm-flamingo",
            "--classical", str(profile_path),
        )
        assert code == EXIT_OK and err == ""
        lines = out.splitlines()
        assert lines[0].endswith(": runtime inf s (unbounded), state space 256 B (4 qubits)")
        assert "| speed | disadvantage |" in lines and "| energetic | disadvantage |" in lines


    @pytest.mark.parametrize(
        "overrides, strings, flags",
        [
            ({"data_qubits": 10**400, "depth": 3}, "inf strings (unbounded)", ()),
            ({"ansatz_iterations": 10**400}, "4 strings", ()),
            ({"family": "qaoa", "qaoa_layers": 10**400}, "inf strings (unbounded)", ()),
            ({"family": "vqe", "target_epsilon": 1e-200}, "3 strings", ()),
            # an unbounded total over 10^400 lanes stays unbounded
            ({"data_qubits": 10**400, "depth": 3}, "inf strings (unbounded)", ("--parallel-shots", str(10**400))),
        ],
        ids=["budget", "iterations", "qaoa-layers", "epsilon", "budget-over-parallel-shots"],
    )
    def test_counts_beyond_float_range_read_unbounded(self, capsys, workload_file, tmp_path, overrides, strings, flags):
        workload = workload_file({**WORKLOAD_53x8, "data_qubits": 4, "depth": 10, **overrides})
        code, out, err = run(capsys, "estimate", "--workload", workload, "--qpu", "ibm-flamingo", *flags)
        assert code == EXIT_OK and err == ""
        lines = out.splitlines()
        assert f"- measurement strings: {strings}" in lines and "nan" not in out
        assert "- total: inf s (unbounded)" in lines and "- job energy: inf J (unbounded)" in lines
        profile_path = tmp_path / "classical.json"
        profile_path.write_text('{"runtime_s": 100, "classical_ref": "nvidia-dgx-rack"}', encoding="utf-8")
        code, out, err = run(
            capsys, "compare", "--workload", workload, "--qpu", "ibm-flamingo", "--classical", str(profile_path), *flags
        )
        assert code == EXIT_OK and err == ""
        lines = out.splitlines()
        assert ": runtime inf s (unbounded), state space " in lines[0]
        assert "| speed | disadvantage |" in lines and "| energetic | disadvantage |" in lines


class TestCatalogCommand:
    def test_summarizes_bundle(self, capsys):
        code, out, _ = run(capsys, "catalog")
        assert code == EXIT_OK
        assert "google-sycamore-2022" in out
        assert "9 qpus, 3 classical refs." in out

    def test_rejects_invalid_catalog_file(self, capsys, tmp_path):
        bad = {"schema_version": 2, "qpus": [{"id": "x"}], "classical_refs": []}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad), encoding="utf-8")
        code, _, err = run(capsys, "catalog", "--catalog", str(path))
        assert code == EXIT_ERROR
        assert "missing required field" in err


def _read_csv(path):
    with open(path, encoding="utf-8", newline="") as file:
        return list(csv.reader(file))


def _grid_rows(capsys, workload_file, path, workload_id):
    workload = workload_file(dict(WORKLOAD_53x8, id=workload_id))
    code, _, err = run(capsys, "feasibility", "--workload", workload, "--format", "csv", "--out", str(path))
    assert code == EXIT_OK and err == ""
    return _read_csv(path)


# A bare CR ends a row for csv.reader; the one CSV rule quotes it on every Python.
def test_a_workload_id_holding_a_cr_reads_back_from_the_grid_csv(capsys, workload_file, tmp_path):
    plain = _grid_rows(capsys, workload_file, tmp_path / "plain.csv", "cr")
    with_cr = _grid_rows(capsys, workload_file, tmp_path / "cr.csv", "c\rr")
    assert len(plain) == 1 + len(bundled_catalog().qpus) and {len(row) for row in plain} == {8}
    assert with_cr == [plain[0]] + [row[:2] + ["c\rr"] + row[3:] for row in plain[1:]]


def test_a_qpu_id_holding_a_cr_reads_back_from_the_scatter_csv(capsys, tmp_path):
    catalog = bundled_catalog()
    qpus = (catalog.qpus[0]._replace(id="lab\rone"),) + catalog.qpus[1:]
    catalog_path = tmp_path / "catalog.json"
    catalog_path.write_text(serialize_catalog(catalog._replace(qpus=qpus)), encoding="utf-8")
    code, _, err = run(capsys, "scatter", "--catalog", str(catalog_path), "--out", str(tmp_path / "landscape"))
    assert code == EXIT_OK and err == ""
    header = ["qpu_id", "qubit_count", "two_qubit_error_median", "status", "modality"]
    assert _read_csv(tmp_path / "landscape.csv") == [header] + [
        [qpu.id, str(qpu.qubit_count), str(qpu.two_qubit_error_median), qpu.status.value, qpu.modality.value]
        for qpu in qpus
    ]


def valid_documents():
    return {
        "workload": dict(BENZENE_LIKE),
        "catalog": json.loads(serialize_catalog(bundled_catalog())),
        "profile": {"runtime_s": 3600.0, "classical_ref": "nvidia-dgx-rack"},
    }


def run_compare(capsys, tmp_path, docs, *flags):
    """``compare`` on ibm-flamingo reading the three documents of ``docs``, each a JSON value, raw text or raw bytes."""
    paths = {}
    for name, doc in docs.items():
        paths[name] = tmp_path / f"{name}.json"
        if isinstance(doc, bytes):
            paths[name].write_bytes(doc)
        else:
            paths[name].write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
    return run(
        capsys, "compare", "--qpu", "ibm-flamingo", "--workload", str(paths["workload"]),
        "--catalog", str(paths["catalog"]), "--classical", str(paths["profile"]), *flags,
    )


@pytest.mark.parametrize("document", ["workload", "catalog", "profile"])
def test_unknown_field_warns_on_stderr_or_fails_strict(capsys, tmp_path, document):
    docs = valid_documents()
    clean = run_compare(capsys, tmp_path, docs)
    assert clean[0] == EXIT_OK and clean[2] == ""
    record = docs["catalog"]["qpus"][0] if document == "catalog" else docs[document]
    record["surprise"] = 1

    code, out, err = run_compare(capsys, tmp_path, docs)
    assert (code, out) == clean[:2]
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("warning: ") and "unknown field 'surprise'" in lines[0]

    code, out, err = run_compare(capsys, tmp_path, docs, "--strict")
    assert code == EXIT_ERROR
    assert err.startswith("error: ") and "'surprise'" in err


def test_warnings_print_under_an_error_filter_and_leave_the_filters_as_they_were(capsys, tmp_path):
    docs = valid_documents()
    docs["workload"]["surprise"] = 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        filters, show = list(warnings.filters), warnings.showwarning
        code, _, err = run_compare(capsys, tmp_path, docs)
        assert (warnings.filters, warnings.showwarning) == (filters, show)
    assert code == EXIT_OK
    assert err == "warning: workload #0: ignoring unknown field 'surprise'\n"


def _qpu(docs, qpu_id):
    return next(qpu for qpu in docs["catalog"]["qpus"] if qpu["id"] == qpu_id)


@pytest.mark.parametrize(
    "mutate, message",
    [
        pytest.param(
            lambda d: d["workload"].update(id=7),
            "workload #0: field 'id' must be a string, got 7", id="string",
        ),
        pytest.param(
            lambda d: d["profile"].update(classical_ref=5),
            "classical profile: field 'classical_ref' must be a string, got 5", id="string-profile",
        ),
        pytest.param(
            lambda d: _qpu(d, "ibm-osprey").update(id=""),
            "qpu '': field 'id' must be non-empty", id="non-empty",
        ),
        pytest.param(
            lambda d: d["workload"].update(depth="8"),
            "workload #0: field 'depth' must be an integer, got '8'", id="integer",
        ),
        pytest.param(
            lambda d: d["profile"].update(memory_bytes=1.5),
            "classical profile: field 'memory_bytes' must be an integer, got 1.5", id="integer-profile",
        ),
        pytest.param(
            lambda d: d["profile"].update(memory_bytes=10**400),
            f"classical profile: field 'memory_bytes' must be finite, got {10**400}", id="finite-profile",
        ),
        pytest.param(
            lambda d: d["catalog"]["classical_refs"][0].update(memory_capacity=10**400),
            f"classical ref 'nvidia-dgx-rack': field 'memory_capacity' must be finite, got {10**400}",
            id="finite-catalog",
        ),
        pytest.param(
            lambda d: d["workload"].update(id="bad\ud800"),
            "workload #0: field 'id' must not hold a lone surrogate, got 'bad\\ud800'", id="surrogate",
        ),
        pytest.param(
            lambda d: d["profile"].update(classical_ref="\udc00ref"),
            "classical profile: field 'classical_ref' must not hold a lone surrogate, got '\\udc00ref'",
            id="surrogate-profile",
        ),
        pytest.param(
            lambda d: d["workload"].update(mitigation={"enabled": "yes"}),
            "workload #0: field 'mitigation.enabled' must be a boolean, got 'yes'", id="boolean",
        ),
        pytest.param(
            lambda d: _qpu(d, "ibm-flamingo")["power_components"][0].update(per_qubit="no"),
            "qpu 'ibm-flamingo' power component #0: field 'per_qubit' must be a boolean, got 'no'",
            id="boolean-catalog",
        ),
        pytest.param(
            lambda d: d["catalog"].update(classical_refs="none"),
            "catalog: field 'classical_refs' must be a list", id="list",
        ),
        pytest.param(
            lambda d: d["workload"].update(mitigation=1),
            "workload #0: field 'mitigation' must be an object, got 1", id="object",
        ),
        pytest.param(
            lambda d: d.update(profile=[1]),
            "classical profile: expected a JSON object, got list", id="json-object-profile",
        ),
        pytest.param(
            lambda d: d["catalog"]["qpus"].insert(0, 1),
            "qpu '<qpu>': expected a JSON object, got int", id="json-object-catalog",
        ),
        pytest.param(
            lambda d: d.update(workload=[1]),
            "workload #0: expected a JSON object, got int", id="json-object-workload",
        ),
    ],
)
def test_type_errors_name_the_record_and_field(capsys, tmp_path, mutate, message):
    docs = valid_documents()
    mutate(docs)
    for flags in ((), ("--strict",)):
        code, out, err = run_compare(capsys, tmp_path, docs, *flags)
        assert (code, out, err) == (EXIT_ERROR, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "document, name",
    [("workload", "workload document"), ("catalog", "catalog"), ("profile", "classical profile")],
    ids=["workload", "catalog", "profile"],
)
def test_syntax_errors_name_the_document_and_position(capsys, tmp_path, document, name):
    docs = valid_documents()
    docs[document] = '{\n  "x": }'
    code, out, err = run_compare(capsys, tmp_path, docs)
    assert (code, out) == (EXIT_ERROR, "")
    assert err == f"error: {name}: Expecting value (line 2, column 8)\n"
    docs[document] = b'{"x": "\xe9"}'  # Latin-1, not UTF-8
    code, out, err = run_compare(capsys, tmp_path, docs)
    assert (code, out) == (EXIT_ERROR, "")
    assert err == f"error: {name}: 'utf-8' codec can't decode byte 0xe9 in position 7: invalid continuation byte\n"


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("runtime_s", 0, "must be > 0, got 0.0"),
        ("runtime_s", -1, "must be > 0, got -1.0"),
        ("energy_j", -1e-300, "must be >= 0, got -1e-300"),
        ("cost", -2, "must be >= 0, got -2.0"),
        ("quality", -0.5, "must be >= 0, got -0.5"),
        ("memory_bytes", -1, "must be >= 0, got -1"),
    ],
)
def test_a_profile_number_out_of_range_names_the_profile_and_field(capsys, tmp_path, field, value, message):
    docs = valid_documents()
    docs["profile"][field] = value
    code, out, err = run_compare(capsys, tmp_path, docs)
    assert (code, out, err) == (EXIT_ERROR, "", f"error: classical profile: field '{field}' {message}\n")


def test_astronomical_state_space_is_reported(capsys, workload_file, tmp_path):
    profile_path = tmp_path / "classical.json"
    profile_path.write_text('{"runtime_s": 3600}', encoding="utf-8")
    workload = dict(WORKLOAD_53x8, data_qubits=1100)
    code, out, err = run(
        capsys, "compare", "--workload", workload_file(workload), "--qpu", "ibm-flamingo",
        "--classical", str(profile_path),
    )
    assert code == EXIT_OK and err == ""
    assert "state space ~2^1104 B (astronomical) (1100 qubits)" in out.splitlines()[0]


def test_a_register_of_a_trillion_qubits_is_sized_by_its_exponent(capsys, workload_file, tmp_path):
    # 2^(10^12 + 4) bytes as an exact int would take 125 GB to build
    profile_path = tmp_path / "classical.json"
    profile_path.write_text('{"runtime_s": 3600, "memory_bytes": 1024}', encoding="utf-8")
    workload = dict(WORKLOAD_53x8, data_qubits=10**12)
    code, out, err = run(
        capsys, "compare", "--workload", workload_file(workload), "--qpu", "ibm-flamingo",
        "--classical", str(profile_path),
    )
    assert code == EXIT_OK and err == ""
    assert f"state space ~2^{10**12 + 4} B (astronomical) ({10**12} qubits)" in out.splitlines()[0]
    assert "| space | advantage |" in out


@st.composite
def _register_and_memory(draw):
    """A register of 0 to 1,100 qubits and a classical memory int in [0, 2**1023], often beside 2**(N+4)."""
    qubits = draw(st.integers(min_value=0, max_value=1100))
    beside = min(2 ** (qubits + 4) + draw(st.integers(min_value=-2, max_value=2)), 2**1023)
    return qubits, draw(st.one_of(st.integers(min_value=0, max_value=2**1023), st.just(beside)))


@settings(max_examples=200, deadline=None)
@given(_register_and_memory())
def test_space_axis_and_state_space_follow_the_exact_statevector_size(tmp_path_factory, case):
    qubits, memory = case
    exact = 2 ** (qubits + 4)
    expected = Outcome.ADVANTAGE if exact > memory else Outcome.DISADVANTAGE if exact < memory else Outcome.PARITY
    space = classify(quantum_profile(1.0, qubits=qubits), SolutionProfile(1.0, memory_bytes=memory)).space
    assert space is expected
    if qubits == 0:
        return  # a workload has at least one qubit
    work = tmp_path_factory.mktemp("compare")
    (work / "w.json").write_text(json.dumps(dict(WORKLOAD_53x8, data_qubits=qubits, depth=1)), encoding="utf-8")
    (work / "p.json").write_text(json.dumps({"runtime_s": 1.0, "memory_bytes": memory}), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["compare", "--workload", str(work / "w.json"), "--qpu", "ibm-flamingo",
                     "--classical", str(work / "p.json")])
    lines = out.getvalue().splitlines()
    assert code == EXIT_OK
    assert f"state space {format_bytes(exact)} ({qubits} qubits)" in lines[0]
    assert f"| space | {expected.value} |" in lines


def _significant_digits(number: str) -> int:
    return len(number.split("e")[0].replace(".", "").strip("0"))


@settings(max_examples=300, deadline=None)
@given(
    qubits=st.one_of(st.integers(min_value=1, max_value=10**6), st.integers(min_value=1, max_value=10**90)),
    coefficient=st.one_of(st.none(), st.floats(min_value=1e-300, max_value=1e300)),
    epsilon=st.floats(min_value=1e-170, max_value=1.0),
    aggregate=st.booleans(),
)
def test_no_printed_count_carries_float_noise_digits(qubits, coefficient, epsilon, aggregate):
    """A string or per-string count made in floats prints at most the 17 significant digits a float holds."""
    if aggregate:  # n^2/eps shots in one string
        spec = parse_workloads(json.dumps(dict(
            WORKLOAD_53x8, family="qaoa", qaoa_layers=1, data_qubits=qubits, target_epsilon=epsilon
        )))[0]
    else:  # ungrouped VQE: coefficient x n^4 strings of 1/eps^2 shots
        vqe = dict(BENZENE_LIKE, data_qubits=qubits, target_epsilon=epsilon, c_vqe_override=coefficient)
        spec = parse_workloads(json.dumps(vqe))[0]
    qpu = bundled_catalog().get_qpu("ibm-osprey")
    report = render_estimate_md(build_estimate_record(qpu, spec, qaoa_aggregate=aggregate), qpu, spec)
    for prefix in ("- measurement strings: ", "- shots per string: "):
        (line,) = [line for line in report.splitlines() if line.startswith(prefix)]
        number = line[len(prefix):].split(" ")[0]
        assert number == "inf" or _significant_digits(number) <= 17, line


def test_an_integral_float_memory_reads_as_its_int(capsys, tmp_path):
    docs = valid_documents()
    docs["catalog"]["classical_refs"][0]["memory_capacity"] = 2199023255552.0
    assert run_compare(capsys, tmp_path, docs) == run_compare(capsys, tmp_path, valid_documents())
    docs = valid_documents()
    docs["profile"]["memory_bytes"] = 1024.0
    code, out, err = run_compare(capsys, tmp_path, docs)
    assert (code, err) == (EXIT_OK, "") and ", memory 1 KiB\n" in out


def test_infinite_profile_memory_is_an_input_error(capsys, workload_file, tmp_path):
    profile_path = tmp_path / "classical.json"
    profile_path.write_text('{"runtime_s": 10, "memory_bytes": Infinity}', encoding="utf-8")
    code, _, err = run(
        capsys, "compare", "--workload", workload_file(BENZENE_LIKE), "--qpu", "ibm-flamingo",
        "--classical", str(profile_path),
    )
    assert code == EXIT_ERROR
    assert err.startswith("error: ") and "memory_bytes" in err and "Traceback" not in err


@pytest.mark.parametrize("qpu_id", ["flamingo-variant", "ibm-flamingo"])
def test_estimate_caches_are_keyed_on_the_qpu_value(qpu_id):
    """A qpu varied with ``_replace`` gets its own report lines and power breakdown, never the cached ones,
    also when it keeps the id (as a second catalog may)."""
    qpu = bundled_catalog().get_qpu("ibm-flamingo")
    spec = parse_workloads(json.dumps(WORKLOAD_53x8))[0]

    def report(q):
        return render_estimate_md(build_estimate_record(q, spec), q, spec)

    first = report(qpu)
    varied = qpu._replace(
        id=qpu_id,
        two_qubit_error_median=0.01,
        power_components=qpu.power_components[:1] + (PowerComponent("extra cooling", 500.0, 2),),
    )
    second = report(varied)
    for line in (
        f"qpu: {qpu_id} (superconducting, 1386 qubits, two-qubit error 0.01 = fidelity 99.00%, projected)",
        "feasibility: marginal (required error rate 0.00235849, available 0.01)",
        "- power draw: 91 kW\n  - pulse tubes with compressors: 90 kW\n  - extra cooling: 1 kW\n- job energy: ",
    ):
        assert line in second, line
    assert "feasibility: go (" in first and "control electronics" in first and "extra cooling" not in first
    assert energy.power_breakdown(varied) == (("pulse tubes with compressors", 90000), ("extra cooling", 1000.0))
    assert len(energy.power_breakdown(qpu)) == 4
    # the power total is kept per qpu object beside its breakdown, for the report and the record alike
    flamingo_watts = sum(watts for _, watts in energy.power_breakdown(qpu))
    assert (energy.power_draw(varied), energy.power_draw(qpu)) == (91000.0, flamingo_watts)
    varied_energy = build_estimate_record(varied, spec).energy
    assert (varied_energy.power_draw, varied_energy.breakdown) == (91000.0, energy.power_breakdown(varied))
    assert varied_energy.job_energy == 91000.0 * build_estimate_record(varied, spec).runtime.total_time
    assert build_estimate_record(qpu, spec).energy.power_draw == flamingo_watts
    assert report(qpu) == first


# Every memo of the estimate path: each maps id(obj) to (obj, make(obj)), which its object alone decides.
_ESTIMATE_MEMOS = (
    cli._estimate_qpu_lines, cli._estimate_workload_texts, energy._power, workload_mod._per_string_counts
)


def _estimate_report(qpu, spec):
    return render_estimate_md(build_estimate_record(qpu, spec), qpu, spec)


def _fresh_estimate_report(qpu, spec):
    """The report made with every memo of the estimate path empty, as in a fresh process."""
    for memo in _ESTIMATE_MEMOS:
        memo.entries.clear()
    return _estimate_report(qpu, spec)


_FLAMINGO = bundled_catalog().get_qpu("ibm-flamingo")
_SURFACE_SCAN = parse_workloads(json.dumps(WORKLOAD_53x8))[0]


def _signed_zero_pair(zero):
    """(qpu, workload) pairs that differ only in one field: 0.0 against -0.0."""
    pulse_tubes, *others = _FLAMINGO.power_components
    return {
        "power": (_FLAMINGO._replace(power_components=(pulse_tubes._replace(unit_power_w=zero), *others)), _SURFACE_SCAN),
        "error": (_FLAMINGO._replace(two_qubit_error_median=zero), _SURFACE_SCAN),
        "prep": (_FLAMINGO, parse_workloads(json.dumps({**WORKLOAD_53x8, "classical_prep_time": zero}))[0]),
    }


@pytest.mark.parametrize("field", ["power", "error", "prep"])
@pytest.mark.parametrize("negative_first", [False, True])
def test_equal_objects_that_print_differently_keep_their_own_texts(field, negative_first):
    """``0.0`` and ``-0.0`` are equal but print ``0`` and ``-0``: the memos are kept per
    object, so each report is the one a fresh process makes, whichever comes first."""
    pairs = [_signed_zero_pair(zero)[field] for zero in ((-0.0, 0.0) if negative_first else (0.0, -0.0))]
    expected = [_fresh_estimate_report(qpu, spec) for qpu, spec in pairs]
    assert expected[0] != expected[1]
    assert [_estimate_report(qpu, spec) for qpu, spec in pairs] == expected
    breakdowns = [energy.estimate_energy(qpu, build_estimate_record(qpu, spec).runtime).breakdown for qpu, spec in pairs]
    assert [repr(b) for b in breakdowns] == [repr(energy.power_breakdown(qpu)) for qpu, _ in pairs]
    if field == "power":
        assert ["  - pulse tubes with compressors: -0 W\n" in report for report in expected] == [negative_first, not negative_first]


def _300_qpus_and_workloads():
    """300 distinct qpu objects and 300 distinct workload objects: more than a memo holds."""
    qpus = [_FLAMINGO._replace(two_qubit_error_median=i * 1e-5) for i in range(300)]
    specs = [make_spec(ansatz_iterations=i + 1, mitigation=MitigationSpec(enabled=i % 2 == 1)) for i in range(300)]
    return qpus, specs


def test_each_memo_holds_at_most_256_objects_and_an_emptied_one_makes_the_same_bytes():
    qpus, specs = _300_qpus_and_workloads()
    first = [_estimate_report(qpu, spec) for qpu, spec in zip(qpus, specs)]
    for memo in _ESTIMATE_MEMOS:
        assert 0 < len(memo.entries) <= 256, memo.__name__
        assert all(entry[0] is not qpus[0] and entry[0] is not specs[0] for entry in memo.entries.values())
    assert [_estimate_report(qpu, spec) for qpu, spec in zip(qpus, specs)] == first
    assert first == [_fresh_estimate_report(qpu, spec) for qpu, spec in zip(qpus, specs)]


def test_threads_that_share_the_memos_each_get_the_fresh_reports():
    # each thread's objects empty every memo while the other threads read it
    qpus, specs = _300_qpus_and_workloads()
    expected = [_fresh_estimate_report(qpu, spec) for qpu, spec in zip(qpus, specs)]
    results = {}

    def work(offset):
        order = [(i + offset) % 300 for i in range(300)]
        results[offset] = [(i, _estimate_report(qpus[i], specs[i])) for i in order]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(offset,)) for offset in (0, 75, 150, 225)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(results) == [0, 75, 150, 225]
    for reports in results.values():
        assert all(report == expected[i] for i, report in reports)


def _render_estimate_md_by_lines(record, qpu, spec):
    """The earlier definition of ``render_estimate_md``: a list of lines, extended and joined.

    It makes every text itself, so that it shares no memo with the renderer."""
    plan, rt, en = record
    error = qpu.two_qubit_error_median
    qpu_line = (
        f"qpu: {qpu.id} ({qpu.modality.value}, {count_text(qpu.qubit_count, 'qubits')}, "
        f"two-qubit error {error} = fidelity {format_fidelity_percent(error)}, {qpu.status.value})"
    )
    components = energy.power_breakdown(qpu)
    draw = sum(watts for _, watts in components)
    power_lines = [f"- power draw: {format_watts(draw)}"]
    power_lines += [f"  - {label}: {format_watts(watts)}" for label, watts in components]
    power_note = "" if draw > 0 else "\n  (no power data reported for this qpu)"
    if spec.data_qubits > qpu.qubit_count:
        feasibility = (
            f"no-go (insufficient qubits: needs {count_text(spec.data_qubits)}, has {count_text(qpu.qubit_count)})"
        )
    else:
        required, _, _, verdict, _ = feas.assess(qpu, spec.shape)
        feasibility = f"{verdict.value} (required error rate {sci(required)}, available {sci(error)})"
    lines = [
        f"# Resource estimate: {spec.id} on {qpu.id}",
        "",
        f"workload: {spec.family.value}, {count_text(spec.data_qubits, 'data qubits')}, "
        f"depth {count_text(spec.depth, 'cycles')}, target epsilon {spec.target_epsilon}, "
        f"{count_text(spec.ansatz_iterations, 'iterations')}",
        qpu_line,
        f"feasibility: {feasibility}",
        "",
        f"shot plan ({plan.model} accounting):",
        f"- measurement strings: {count_text(plan.pauli_strings, 'strings')}",
        f"- shots per string: {count_text(plan.shots_per_string, 'shots')}",
        f"- mitigation multiplier: {sci(plan.mitigation_multiplier)} x",
        f"- total shots per iteration: {total_text(plan.total_shots, 'shots')}",
        "",
        "runtime:",
        f"- single shot: {format_seconds(rt.single_shot_time)}",
        f"- quantum per iteration: {format_seconds(rt.quantum_time_per_iteration)}",
        f"- classical per iteration: {format_seconds(spec.classical_prep_time)}",
        f"- iteration: {format_seconds(rt.iteration_time)}",
        f"- total: {format_seconds(rt.total_time)}",
    ]
    lines.extend(f"  - {label}: {format_seconds(seconds)}" for label, seconds in rt.breakdown)
    lines += ["", "energy:", *power_lines, f"- job energy: {format_joules(en.job_energy)}{power_note}"]
    return "\n".join(lines) + "\n"


@st.composite
def _estimate_cases(draw, modelled=False):
    """(a workload, --parallel-shots, --qaoa-aggregate) that the estimate path accepts.  A ``modelled``
    workload is one the benchmark reference models: 1/eps^2 and the ungrouped VQE string count at most
    2**53 (eps at least 1.06e-8, at most 29,000 data qubits), and no ungrouped VQE coefficient override."""
    family, grouping = draw(st.sampled_from(AlgorithmFamily)), draw(st.sampled_from(PauliGrouping))
    modelled_vqe = modelled and family is AlgorithmFamily.VQE and grouping is PauliGrouping.NONE
    epsilon = st.floats(min_value=1e-9, max_value=1.0) | st.just(5e-324)
    spec = WorkloadSpec(
        draw(st.text(min_size=1, max_size=8)),
        family,
        # ungrouped VQE counts pass 2**53 near 29,000
        draw(st.one_of(st.integers(1, 200), st.integers(1, 29_000 if modelled_vqe else 10**6))),
        draw(st.one_of(st.integers(1, 1000), st.integers(1, 10**12))),
        draw(st.floats(min_value=1.06e-8, max_value=1.0) if modelled else epsilon),
        draw(st.one_of(st.integers(1, 1000), st.integers(1, 10**9))),
        draw(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(min_value=0.0, max_value=1e4))),
        draw(st.integers(1, 20)) if family is AlgorithmFamily.QAOA else None,
        grouping,
        MitigationSpec(draw(st.booleans()), draw(st.floats(min_value=0.0, max_value=10.0))),
        None if modelled_vqe else draw(st.one_of(st.none(), st.floats(min_value=1e-3, max_value=1e3))),
    )
    return spec, draw(st.integers(1, 8)), family is AlgorithmFamily.QAOA and draw(st.booleans())


_QAOA_16 = dict(family=AlgorithmFamily.QAOA, qaoa_layers=3, data_qubits=16, depth=12, target_epsilon=0.01)


@settings(max_examples=200, deadline=None)
@given(_estimate_cases())
@example((make_spec(classical_prep_time=0.0), 1, False))  # ungrouped VQE on 72 qubits: totals of years
@example((make_spec(classical_prep_time=-0.0, family=AlgorithmFamily.GENERIC, data_qubits=4, depth=5), 1, False))
@example((make_spec(data_qubits=1000, depth=10**6, mitigation=MitigationSpec(True)), 1, False))  # an inf total
@example((make_spec(data_qubits=10**5), 4, False))  # 1.2e18 ungrouped VQE strings
@example((make_spec(**_QAOA_16), 1, True))
@example((make_spec(**_QAOA_16, ansatz_iterations=1), 2, False))  # totals under 120 s
def test_the_estimate_report_is_its_line_list_definition(case):
    spec, parallel_shots, aggregate = case
    for qpu in bundled_catalog().qpus:
        record = build_estimate_record(qpu, spec, parallel_shots=parallel_shots, qaoa_aggregate=aggregate)
        assert render_estimate_md(record, qpu, spec) == _render_estimate_md_by_lines(record, qpu, spec)


_HERON = bundled_catalog().get_qpu("ibm-heron")
_QAOA_SPEC = make_spec(**_QAOA_16, classical_prep_time=1.5)
_QAOA_RECORD = build_estimate_record(_HERON, _QAOA_SPEC)


def _classical_term(zero):
    rt = _QAOA_RECORD.runtime
    return _QAOA_RECORD._replace(runtime=rt._replace(breakdown=((rt.breakdown[0][0], zero), rt.breakdown[1])))


def _counts(count):
    return _QAOA_RECORD._replace(plan=_QAOA_RECORD.plan._replace(pauli_strings=count, shots_per_string=count))


# Records of one (qpu, workload) pair that print other numbers than the plain record.
_OTHER_RECORDS = {
    "qaoa-aggregate": [build_estimate_record(_HERON, _QAOA_SPEC, qaoa_aggregate=True)],
    "parallel-shots": [build_estimate_record(_HERON, _QAOA_SPEC, parallel_shots=3)],
    "int-against-float": [_counts(1234567), _counts(1234567.0)],
    "signed-zero": [_classical_term(0.0), _classical_term(-0.0)],
}


@pytest.mark.parametrize("case", list(_OTHER_RECORDS))
def test_each_record_prints_its_own_numbers_whichever_record_made_the_memo(case):
    """Each memo holds what its qpu or workload object alone decides, so no record leaves a text
    that another record reuses: each prints its own numbers, in every order."""
    records = [_QAOA_RECORD, *_OTHER_RECORDS[case]]
    expected = [_render_estimate_md_by_lines(record, _HERON, _QAOA_SPEC) for record in records]
    assert len(set(expected)) == len(records)
    for order in itertools.permutations(range(len(records))):
        for memo in _ESTIMATE_MEMOS:
            memo.entries.clear()
        for i in order:
            assert render_estimate_md(records[i], _HERON, _QAOA_SPEC) == expected[i], (order, i)
        # each entry is the one its object makes afresh; repr tells 0.0 from -0.0 and 1234567 from 1234567.0
        for memo in _ESTIMATE_MEMOS:
            for obj, value in memo.entries.values():
                assert obj is _HERON or obj is _QAOA_SPEC, memo.__name__
                assert repr(value) == repr(memo.__wrapped__(obj)), (memo.__name__, order)
        assert cli._estimate_qpu_lines.entries and cli._estimate_workload_texts.entries


def test_a_qaoa_workload_without_layers_renders_from_its_aggregate_plan():
    # its string count cannot be made, and the aggregate plan does not need it
    spec = _QAOA_SPEC._replace(qaoa_layers=None)
    record = build_estimate_record(_HERON, spec, qaoa_aggregate=True)
    assert render_estimate_md(record, _HERON, spec) == _render_estimate_md_by_lines(record, _HERON, spec)


def test_the_report_verdict_raises_and_misses_capacity_as_assess_does():
    """An error rate out of range raises assess's error where the shape fits the qpu,
    and is never read where it does not: that pair renders the one capacity text, in
    the estimate report, in the grid and in assess's CapacityError alike."""
    broken = _HERON._replace(two_qubit_error_median=1.0)
    fits = _SURFACE_SCAN
    with pytest.raises(ValueError) as expected:
        feas.assess(broken, fits.shape)
    with pytest.raises(ValueError) as raised:
        render_estimate_md(build_estimate_record(_HERON, fits), broken, fits)
    with pytest.raises(ValueError) as grid_raised:
        build_feasibility_bundle(Catalog((broken,)), (fits,))
    assert str(raised.value) == str(grid_raised.value) == str(expected.value) == "error_rate must be in [0, 1), got 1.0"
    misses = make_spec(family=AlgorithmFamily.GENERIC, data_qubits=_HERON.qubit_count + 1, depth=8)
    assert feas.pair_verdict(134, 133, feas.required_error_rate(misses.shape), 1.0) is None
    with pytest.raises(feas.CapacityError, match=r"^insufficient qubits: needs 134, has 133$"):
        feas.assess(broken, misses.shape)
    assert build_feasibility_bundle(Catalog((broken,)), (misses,)) == (
        [], [feas.CapacityMiss("ibm-heron", misses.id, "insufficient qubits: needs 134, has 133")]
    )
    record = build_estimate_record(_HERON, misses)
    report = render_estimate_md(record, broken, misses)
    assert "\nfeasibility: no-go (insufficient qubits: needs 134, has 133)\n" in report
    assert report == _render_estimate_md_by_lines(record, broken, misses)


def _workload_document(spec):
    """``spec`` as a workload JSON object."""
    document = {field: value for field, value in spec._asdict().items() if value is not None}
    document.update(family=spec.family.value, pauli_grouping=spec.pauli_grouping.value)
    document["mitigation"] = spec.mitigation._asdict()
    return document


def _call(argv):
    """``main(argv)``'s exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _stdout(argv):
    """What ``main(argv)`` prints, which must end in a report and no error."""
    code, out, err = _call(argv)
    assert code in (EXIT_OK, EXIT_NO_GO) and err == "", (argv, err)
    return out


def _after(lines, start):
    """The text after ``start`` on the one line of ``lines`` that starts with it."""
    (line,) = [line for line in lines if line.startswith(start)]
    return line[len(start):]


@settings(max_examples=60, deadline=None)
@given(case=_estimate_cases(), qpu=st.sampled_from(bundled_catalog().qpus))
def test_one_pair_gives_one_answer_in_every_report(tmp_path_factory, case, qpu):
    """For one (qpu, workload) pair, ``estimate`` agrees with the grid on the verdict and on a
    miss's capacity text, with ``catalog`` on the power draw, and with ``compare`` on the
    total runtime."""
    spec, parallel_shots, aggregate = case
    work = tmp_path_factory.mktemp("one-pair")
    (work / "w.json").write_text(json.dumps(_workload_document(spec)), encoding="utf-8")
    (work / "c.json").write_text(json.dumps({"runtime_s": 1.0}), encoding="utf-8")
    assert parse_workloads((work / "w.json").read_text(encoding="utf-8")) == (spec,)
    pair = ["--workload", str(work / "w.json"), "--qpu", qpu.id, "--parallel-shots", str(parallel_shots)]
    pair += ["--qaoa-aggregate"] if aggregate else []
    # The ids open the estimate report's title; no line after it holds the workload's id.
    title = f"# Resource estimate: {spec.id} on {qpu.id}\n"
    estimate = _stdout(["estimate", *pair])
    assert estimate.startswith(title)
    estimate = estimate[len(title):].split("\n")

    feasibility = _after(estimate, "feasibility: ")
    grid = _stdout(["feasibility", "--workload", str(work / "w.json"), "--format", "csv"])
    (row,) = [row for row in csv.reader(io.StringIO(grid, newline="")) if row[1:3] == [qpu.id, spec.id]]
    if row[0] == "no-go (capacity)":  # the grid's note, the row's last cell, is estimate's reason
        assert feasibility == f"no-go ({row[-1]})", (feasibility, row)
    else:
        assert feasibility.split(" ")[0] == row[0]
        assert "insufficient qubits" not in feasibility, (feasibility, row)

    power = _after(_stdout(["catalog"]).split("\n"), f"| {qpu.id} |").rsplit(" | ", 1)[1].removesuffix(" |")
    assert power == (_after(estimate, "- power draw: ") if energy.power_draw(qpu) > 0 else "unreported")

    record = build_estimate_record(qpu, spec, parallel_shots=parallel_shots, qaoa_aggregate=aggregate)
    assume(record.runtime.total_time > 0.0)  # compare refuses a runtime of 0 s; an unbounded one it prints
    header = f"quantum side: {spec.id} on {qpu.id}: runtime "
    compare = _stdout(["compare", *pair, "--classical", str(work / "c.json")])
    assert compare.startswith(header)
    assert compare[len(header):].split(", state space ", 1)[0] == _after(estimate, "- total: ")


def test_each_qpu_objects_power_breakdown_is_made_once(monkeypatch):
    calls = []
    breakdown = energy.power_breakdown
    monkeypatch.setattr(energy, "power_breakdown", lambda qpu: calls.append(qpu.id) or breakdown(qpu))
    for memo in _ESTIMATE_MEMOS:
        memo.entries.clear()
    qpus = bundled_catalog().qpus
    for spec in (_SURFACE_SCAN, _QAOA_SPEC):
        for qpu in qpus:
            _estimate_report(qpu, spec)
    assert calls == [qpu.id for qpu in qpus]


def test_cli_import_leaves_out_the_heavy_stdlib_modules():
    # Start-up is most of a call's cost, and fractions alone takes about half as
    # long to import as the whole package.  The CLI reads its command line from
    # its own table: argparse, with the gettext it imports, took about 4 ms of
    # every call.  -E -S: no environment setting or site .pth file may preload
    # any of these before the package does.
    src = os.path.dirname(os.path.dirname(nisq_gonogo.__file__))
    heavy = ("dataclasses", "inspect", "ast", "pathlib", "importlib.resources", "csv", "typing", "fractions",
             "decimal", "argparse", "gettext")
    anchors, q29, classical = (
        os.path.join(_GOLDEN_INPUTS, name) for name in ("anchors.json", "q29.json", "classical-ref.json")
    )
    calls = [
        ["catalog"],
        ["feasibility", "--workload", anchors],
        ["estimate", "--workload", anchors, "--qpu", "ibm-heron"],
        ["compare", "--workload", q29, "--qpu", "ibm-heron", "--classical", classical],
    ]
    code = (
        f"import io, sys; sys.path.insert(0, {src!r}); from nisq_gonogo.cli import main; "
        f"sys.stdout = io.StringIO(); codes = [main(argv) for argv in {calls!r}]; sys.stdout = sys.__stdout__; "
        f"print(codes, [m for m in {heavy!r} if m in sys.modules])"
    )
    result = subprocess.run([sys.executable, "-E", "-S", "-c", code], capture_output=True, text=True, check=True)
    assert result.stdout == f"{[EXIT_OK] * len(calls)} []\n"


@pytest.mark.parametrize("command", ["catalog", "feasibility", "estimate", "compare"])
def test_an_out_path_that_cannot_be_written_prints_only_the_error(capsys, workload_file, tmp_path, command):
    flags = {
        "catalog": [],
        "feasibility": ["--workload", workload_file(WORKLOAD_53x8)],
        "estimate": ["--workload", workload_file(WORKLOAD_53x8), "--qpu", "ibm-heron"],
        "compare": [
            "--workload", workload_file(WORKLOAD_53x8), "--qpu", "ibm-heron",
            "--classical", workload_file({"runtime_s": 1.0}, "classical.json"),
        ],
    }[command]
    code, out, err = run(capsys, command, *flags, "--out", str(tmp_path))
    assert (code, out) == (EXIT_ERROR, "")
    assert err == f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"


def test_an_out_path_is_rewritten_whole_and_may_name_a_device(capsys, tmp_path):
    out = tmp_path / "catalog.md"
    out.write_text("x" * 100_000, encoding="utf-8")
    code, report, err = run(capsys, "catalog", "--out", str(out))
    assert (code, err) == (EXIT_OK, "")
    assert out.read_text(encoding="utf-8") == report
    assert run(capsys, "catalog", "--out", os.devnull) == (EXIT_OK, report, "")


# Totality of the command line: any workload and classical-profile JSON ends
# in an exit code, never in an escaping exception.  A document is a valid one
# with up to two fields set to an odd value (a NaN or Infinity token, an int
# past float range, a subnormal, a zero or negative count, a wrong type), or
# no object at all; ids hold characters that CSV, JSON or UTF-8 treat specially.
_ODD = st.sampled_from(
    [math.nan, math.inf, -math.inf, 10**400, -(10**400), 5e-324, 0, -1, -0.0, 1.5, "", None, [], {}]
)
_CHARACTERS = [",", '"', "\r", "\n", "\x00", "\ud800", "a", "\u00e9"]
_TEXTS = st.lists(st.sampled_from(_CHARACTERS), min_size=1, max_size=5).map("".join)
# the texts a parser accepts: no lone surrogate, which UTF-8 cannot encode
_UTF8_TEXTS = st.lists(st.sampled_from([c for c in _CHARACTERS if c != "\ud800"]), min_size=1, max_size=5).map("".join)
_NOT_OBJECTS = st.one_of(st.none(), st.booleans(), _ODD, _TEXTS, st.lists(st.integers(), max_size=2))


@st.composite
def _documents(draw, required, optional, odd=True):
    """A valid record of the ``required`` and some ``optional`` fields; with ``odd``, half of them then get
    one or two odd fields."""
    record = draw(st.fixed_dictionaries(required, optional=optional))
    odd = draw(st.sampled_from([0, 0, 1, 2] if odd else [0]))
    keys = st.sampled_from(sorted({*required, *optional}))
    for key in draw(st.lists(keys, min_size=odd, max_size=odd, unique=True)):
        record[key] = draw(_ODD)
    return record


_COUNTS = st.one_of(st.integers(min_value=1, max_value=200), st.just(10**400))
_WORKLOAD_FIELDS = {
    "data_qubits": _COUNTS,
    "depth": _COUNTS,
    "target_epsilon": st.one_of(st.floats(min_value=1e-6, max_value=1.0), st.just(5e-324)),
    "ansatz_iterations": _COUNTS,
}
_WORKLOAD_OPTIONAL = {
    "classical_prep_time": st.floats(min_value=0.0, max_value=1e3),
    "pauli_grouping": st.sampled_from(["none", "grouped"]),
    "mitigation": st.fixed_dictionaries(
        {}, optional={"enabled": st.booleans(), "exponent_coefficient": st.floats(min_value=0.0, max_value=10.0)}
    ),
    "c_vqe_override": st.floats(min_value=1e-3, max_value=1e3),
}


def _workloads(accepted=False, unknown=True):
    """Workload documents: one record, or a list of one to three.  Unless ``accepted``, a record can hold
    odd values and lone surrogates; with ``unknown``, it can hold the unknown field ``colour``."""
    optional = {"id": _UTF8_TEXTS if accepted else _TEXTS, **_WORKLOAD_OPTIONAL}
    if unknown:
        optional["colour"] = _TEXTS  # unknown: a warning, or an error under --strict
    record = st.one_of(
        _documents({**_WORKLOAD_FIELDS, "family": st.sampled_from(["vqe", "generic"])}, optional, not accepted),
        _documents({**_WORKLOAD_FIELDS, "family": st.just("qaoa"), "qaoa_layers": _COUNTS}, optional, not accepted),
    )
    return st.one_of(record, record.map(lambda record: [record]), st.lists(record, min_size=2, max_size=3))


_WORKLOAD_DOCUMENTS = st.one_of(_workloads(), _NOT_OBJECTS)
_SIZES = st.floats(min_value=5e-324, max_value=1e300)
_PROFILE_OPTIONAL = {
    "energy_j": _SIZES,
    "cost": _SIZES,
    "quality": _SIZES,
    "memory_bytes": st.integers(min_value=0, max_value=2**80),
    "classical_ref": st.sampled_from(["nvidia-dgx-rack", "no-such-ref"]),
}
_PROFILE = _documents({"runtime_s": _SIZES}, _PROFILE_OPTIONAL)
# a profile the parser accepts: no odd value, and a classical_ref the catalog holds
_ACCEPTED_PROFILE = _documents(
    {"runtime_s": _SIZES}, {**_PROFILE_OPTIONAL, "classical_ref": st.just("nvidia-dgx-rack")}, odd=False
)
_PROFILE_DOCUMENTS = st.one_of(_PROFILE, _NOT_OBJECTS)


# ``nan`` as a number: alone between the spaces and marks that set numbers off in a report
# or a message, so that an id holding the letters n, a, n does not match
_NAN = re.compile(r"(?<![^\s,|(=:])[-+]?nan(?![^\s,|)%])")
# An unbounded power or energy reads ``inf W (unbounded)`` or ``inf J (unbounded)``, never in kW or kWh.
_OLD_UNBOUNDED = re.compile(r"\binf kW|\binf J \([^)\n]*kWh\)")
# A count as a report prints it: before its unit, or bare in a capacity text and in the
# catalog table's qubits column.  No id these properties draw holds a number before a space.
_PRINTED_COUNT = re.compile(
    r"(?<![^\s(])(\d\S*|inf) (?:data qubits|qubits|cycles|iterations|strings|shots)\b( \(unbounded\))?"
    r"|(?:needs|has|breadth|qubit count) ([^\s,)|\"]+)( \(unbounded\))?"
    r"|\| (?:superconducting|trapped-ion|neutral-atom|photonic|spin|other) \| (\S+)( \(unbounded\))? \|"
)

# An int of more digits than 2**53 has: no count text writes one, nor an id named from its counts.
_LONG_INT = re.compile(r"(?<![\d.])\d{17,}")


def _is_count_text(number, unbounded):
    """Whether ``number`` (and the ``(unbounded)`` beside it) is :func:`count_text`'s writing of a count."""
    if number == "inf":
        return bool(unbounded)
    if unbounded or not number[:1].isdigit():
        return False
    if number.isdigit():
        return int(number) <= EXACT_COUNT_LIMIT and str(int(number)) == number
    return float(number) > EXACT_COUNT_LIMIT and sci(float(number)) == number


def _assert_counts_follow_the_count_text(report):
    """Each count in ``report``, a default id's too, reads as :func:`count_text` writes it; the
    total-shots line keeps every digit of an int, so it is left out."""
    for line in report.splitlines():
        if line.startswith("- total shots per iteration: "):
            continue
        assert not _LONG_INT.search(line), line
        for match in _PRINTED_COUNT.finditer(line):
            groups = match.groups()
            number, unbounded = next((groups[i], groups[i + 1]) for i in (0, 2, 4) if groups[i] is not None)
            assert _is_count_text(number, unbounded), (match.group(0), line)


def _assert_total(argv, nan_in_input=False):
    """``main(argv)`` gives an exit code, 2 only from ``feasibility``; stderr holds warning lines, then at most
    one error line, and an error prints no report.

    No printed number reads ``nan``, except in a message that echoes a NaN of the input (``nan_in_input``).
    An unbounded value reads ``inf <unit> (unbounded)``, and each count follows the one count text.
    """
    code, out, err = _call(argv)
    assert code in (EXIT_OK, EXIT_ERROR, EXIT_NO_GO), argv
    assert code != EXIT_NO_GO or argv[0] == "feasibility", argv
    assert not _NAN.search(out), (argv, out)
    assert not _OLD_UNBOUNDED.search(out), (argv, out)
    _assert_counts_follow_the_count_text(out)
    assert nan_in_input or not _NAN.search(err), (argv, err)
    lines = err.split("\n")
    assert lines.pop() == "", argv  # every line ends in a newline
    if code == EXIT_ERROR:
        assert out == "" and lines[-1].startswith("error: "), argv
        lines.pop()
    assert all(line.startswith("warning: ") for line in lines), argv


@settings(max_examples=100, deadline=None)
@given(workload=_WORKLOAD_DOCUMENTS, profile=_PROFILE_DOCUMENTS, strict=st.booleans())
def test_every_input_ends_in_an_exit_code_and_at_most_one_error_line(tmp_path_factory, workload, profile, strict):
    work = tmp_path_factory.mktemp("totality")
    texts = json.dumps(workload), json.dumps(profile)
    (work / "w.json").write_text(texts[0], encoding="utf-8")
    (work / "p.json").write_text(texts[1], encoding="utf-8")
    inputs = ["--workload", str(work / "w.json"), *(["--strict"] if strict else [])]
    for argv in (
        ["feasibility", *inputs],
        ["feasibility", *inputs, "--format", "csv"],
        ["estimate", *inputs, "--qpu", "ibm-heron"],
        ["compare", *inputs, "--qpu", "ibm-heron", "--classical", str(work / "p.json")],
    ):
        _assert_total(argv, nan_in_input=any("NaN" in text for text in texts))


# The same over catalog JSON: counts and qubit counts up to 10^400 (a power
# draw beyond float range), zero and negative-zero unit powers, and ids that
# CSV, JSON or UTF-8 treat specially, with the odd fields above.  An id holding
# a line break is named in messages, which still print as one line each.  The
# workload runs 1, 10 or 10^400 iterations, with or without 10^12 shot lanes,
# each of which runs at least one shot, of 4e-323 s for a 5e-324 s gate.
_WATTS = st.sampled_from([0.0, -0.0, 2.5, 1e4, 1e300])
def _catalogs(accepted=False, unknown=True):
    """Catalog documents of one or two qpus.  Unless ``accepted``, a record can hold odd values, lone
    surrogates and a memory past float range, and two records can share an id; with ``unknown``, a qpu
    can hold the unknown field ``colour``."""
    texts = _UTF8_TEXTS if accepted else _TEXTS
    component = st.fixed_dictionaries(
        {"label": st.one_of(st.just("c"), texts), "unit_power_w": _WATTS},
        optional={
            "count": st.one_of(st.integers(min_value=0, max_value=9), st.just(10**400)), "per_qubit": st.booleans()
        },
    )
    qpu = _documents(
        {
            "id": st.one_of(st.just("q"), texts),
            "modality": st.sampled_from(["superconducting", "trapped-ion"]),
            "qubit_count": st.one_of(st.integers(min_value=1, max_value=200), st.just(10**400)),
            "two_qubit_error_median": st.floats(min_value=1e-6, max_value=0.5),
            "two_qubit_gate_time": st.floats(min_value=1e-9, max_value=1e-3),
            "readout_time": st.floats(min_value=0.0, max_value=1e-3),
            "reset_time": st.floats(min_value=0.0, max_value=1e-3),
            "status": st.sampled_from(["available", "projected"]),
            "source_note": st.one_of(st.just("n"), texts),
            "power_components": st.lists(component, min_size=1, max_size=3),
        },
        {"two_qubit_error_stddev": st.floats(min_value=0.0, max_value=0.1), **({"colour": _TEXTS} if unknown else {})},
        not accepted,
    )
    ref = _documents(
        {
            "id": st.one_of(st.just("r"), texts),
            "description": texts,
            "power_draw": st.floats(min_value=1e-3, max_value=1e300),
            # a memory past float range is refused
            "memory_capacity": st.integers(min_value=1, max_value=2**80)
            | (st.nothing() if accepted else st.just(10**400)),
        },
        {},
        not accepted,
    )
    unique = (lambda record: record["id"]) if accepted else None
    return st.fixed_dictionaries(
        {"schema_version": st.just(2), "qpus": st.lists(qpu, min_size=1, max_size=2, unique_by=unique)},
        optional={"classical_refs": st.lists(ref, max_size=2, unique_by=unique)},
    )


_CATALOG_DOCUMENTS = st.one_of(
    _catalogs(), st.sampled_from([None, [], "", 10**400])  # one branch, so that most documents are catalogs
)


def _huge_catalog(qubit_count, component, **odd):
    """A catalog of one qpu ``q`` whose one power component is ``component``, with ``odd`` fields."""
    qpu = {
        "id": "q", "modality": "superconducting", "qubit_count": qubit_count, "two_qubit_error_median": 0.01,
        "two_qubit_gate_time": 1e-7, "readout_time": 0.0, "reset_time": 0.0,
        "status": "available", "source_note": "n", "power_components": [{"label": "c", **component}], **odd,
    }
    return {"schema_version": 2, "qpus": [qpu]}


_UNDERFLOW = _huge_catalog(50, {"unit_power_w": 1.0, "count": 10**400}, two_qubit_gate_time=5e-324)


@settings(max_examples=100, deadline=None)
@given(
    catalog=_CATALOG_DOCUMENTS,
    data_qubits=st.sampled_from([2, 29, 10**400]),
    iterations=st.sampled_from([1, 10, 10**400]),
    parallel_shots=st.sampled_from([1, 10**12]),
    strict=st.booleans(),
)
@example(catalog=_huge_catalog(10**400, {"unit_power_w": 2.5, "per_qubit": True}), data_qubits=29,
         iterations=1, parallel_shots=1, strict=True)
@example(catalog=_huge_catalog(50, {"unit_power_w": 0.0, "count": 10**400}), data_qubits=2,
         iterations=1, parallel_shots=1, strict=True)
@example(catalog=_huge_catalog(50, {"unit_power_w": -0.0, "count": 10**400}, id="two\r\nlines", x=1), data_qubits=2,
         iterations=1, parallel_shots=1, strict=False)
# an unbounded draw over one subnormal shot time per iteration, over 10 and over 10^400 iterations
@example(catalog=_UNDERFLOW, data_qubits=29, iterations=10, parallel_shots=10**12, strict=True)
@example(catalog=_UNDERFLOW, data_qubits=29, iterations=10**400, parallel_shots=10**12, strict=True)
def test_every_catalog_ends_in_an_exit_code_and_at_most_one_error_line(
    tmp_path_factory, catalog, data_qubits, iterations, parallel_shots, strict
):
    work = tmp_path_factory.mktemp("catalog-totality")
    workload = {
        "family": "generic", "data_qubits": data_qubits, "depth": 3, "target_epsilon": 0.01,
        "ansatz_iterations": iterations,
    }
    catalog_text = json.dumps(catalog)
    (work / "c.json").write_text(catalog_text, encoding="utf-8")
    (work / "w.json").write_text(json.dumps(workload), encoding="utf-8")
    (work / "p.json").write_text(json.dumps({"runtime_s": 10.0, "energy_j": 1e6, "classical_ref": "r"}), encoding="utf-8")
    qpu_id = catalog["qpus"][0]["id"] if isinstance(catalog, dict) else None
    qpu = ["--qpu", qpu_id if isinstance(qpu_id, str) else "q", "--parallel-shots", str(parallel_shots)]
    inputs = ["--catalog", str(work / "c.json"), *(["--strict"] if strict else [])]
    workload_inputs = [*inputs, "--workload", str(work / "w.json")]
    for argv in (
        ["catalog", *inputs],
        ["feasibility", *workload_inputs],
        ["feasibility", *workload_inputs, "--format", "csv"],
        ["estimate", *workload_inputs, *qpu],
        ["compare", *workload_inputs, *qpu, "--classical", str(work / "p.json")],
        ["scatter", *inputs, "--out", str(work / "landscape.svg")],
    ):
        _assert_total(argv, nan_in_input="NaN" in catalog_text)


# The benchmark's own reference (``bench/reference.py``, read, never changed here) checks
# both CSV reports: the feasibility grid of any workload document on the bundled catalog,
# and the scatter files of any catalog document.  Each ``assume`` names an input the
# reference cannot model; an input the program refuses (exit 1) checks nothing.
def _bench_reference(root):
    spec = importlib.util.spec_from_file_location("bench_reference", root / "bench" / "reference.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_ROOT = pathlib.Path(__file__).resolve().parent.parent
_BENCH_REFERENCE = _bench_reference(_ROOT)
_BUNDLED_REFERENCE = _BENCH_REFERENCE.Reference.from_root(_ROOT)


# Each example that counts reaches the reference.
_REFERENCE_SETTINGS = settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])


def _named(record):
    """A valid workload record with its id: an absent or null one is named from its counts, as the README says."""
    if record.get("id") is None:
        counts = f"{count_number(record['data_qubits'])}q-d{count_number(record['depth'])}"
        return {**record, "id": f"{record['family']}-{counts}"}
    return record


# (a document the parser accepts, --strict): no odd value or lone surrogate, and the
# unknown field only without --strict, so that few draws are refused
_ACCEPTED_WORKLOADS = st.one_of(
    st.tuples(_workloads(accepted=True), st.just(False)), st.tuples(_workloads(accepted=True, unknown=False), st.just(True))
)
_ACCEPTED_CATALOGS = st.one_of(
    st.tuples(_catalogs(accepted=True), st.just(False)), st.tuples(_catalogs(accepted=True, unknown=False), st.just(True))
)


@_REFERENCE_SETTINGS
@given(call=_ACCEPTED_WORKLOADS)
@example(
    call=({"id": None, "family": "vqe", "data_qubits": 4, "depth": 3, "target_epsilon": 0.01, "ansatz_iterations": 1}, False)
)
def test_the_feasibility_csv_passes_the_benchmark_reference(tmp_path_factory, call):
    workload, strict = call
    path = tmp_path_factory.mktemp("grid-reference") / "w.json"
    path.write_text(json.dumps(workload), encoding="utf-8")
    code, report, _ = _call(["feasibility", "--workload", str(path), "--format", "csv", *(["--strict"] if strict else [])])
    assume(code != EXIT_ERROR)
    records = [_named(record) for record in (workload if isinstance(workload, list) else [workload])]
    ids = [record["id"] for record in records]
    assume(len(set(ids)) == len(ids))  # the reference keys rows on ids, so each id must name one workload
    # the reference's 1/(N*d) raises OverflowError for a volume past float range on a qpu that N fits
    widest = max(qpu["qubit_count"] for qpu in _BUNDLED_REFERENCE.qpus)
    assume(all(r["data_qubits"] > widest or r["data_qubits"] * r["depth"] < 2**1024 for r in records))
    grid = _BENCH_REFERENCE.GridReference(_BUNDLED_REFERENCE, records)
    assert code == grid.exit_code
    assert _BENCH_REFERENCE.check_feasibility_csv(report, grid) == (0, [])


@_REFERENCE_SETTINGS
@given(call=_ACCEPTED_CATALOGS)
def test_the_scatter_files_pass_the_benchmark_reference(tmp_path_factory, call):
    catalog, strict = call
    work = tmp_path_factory.mktemp("scatter-reference")
    (work / "c.json").write_text(json.dumps(catalog), encoding="utf-8")
    code, stdout, _ = _call(
        ["scatter", "--catalog", str(work / "c.json"), "--out", str(work / "landscape.svg"), *(["--strict"] if strict else [])]
    )
    assume(code != EXIT_ERROR)
    assert code == EXIT_OK
    # the reference reads the csv with universal newlines, and XML reads a CR as LF, so an id's CR reads as LF
    assume(not any("\r" in qpu["id"] for qpu in catalog["qpus"]))
    # an id's NUL is written into the SVG as it is, which no XML parser reads (see CHANGES.md)
    assume(not any("\0" in qpu["id"] for qpu in catalog["qpus"]))
    problems = _BENCH_REFERENCE.check_scatter(
        stdout, work / "landscape.csv", work / "landscape.svg", _BENCH_REFERENCE.Reference(catalog)
    )
    assert problems == []


# The same reference checks the estimate and compare reports of one workload on one bundled qpu,
# without --parallel-shots or --qaoa-aggregate, which it does not model.
def _modelled(spec, qpu):
    """``spec``'s workload document and the reference's estimate of it on ``qpu``; each ``assume``
    names one input the reference cannot model."""
    record = _workload_document(spec)
    ungrouped_vqe = record["family"] == "vqe" and record["pauli_grouping"] == "none"
    assume(not (ungrouped_vqe and "c_vqe_override" in record))  # it has one VQE coefficient
    assume(record["target_epsilon"] ** 2 > 0)  # it divides by eps^2, which a subnormal eps underflows to 0
    # above 2^53 it writes a count of strings or of shots per string as the exact int, the program as
    # its sci text (ROADMAP item 1(j))
    reference = _BENCH_REFERENCE.Reference
    assume(max(reference.strings(record), reference.shots_per_string(record["target_epsilon"])) <= EXACT_COUNT_LIMIT)
    want = _BUNDLED_REFERENCE.estimate(_BUNDLED_REFERENCE.qpu_by_id[qpu.id], record)
    assume(want is not None)  # it has no text for a shot budget beyond float range
    return record, want


@_REFERENCE_SETTINGS
@given(case=_estimate_cases(modelled=True), qpu=st.sampled_from(bundled_catalog().qpus))
def test_the_estimate_report_passes_the_benchmark_reference(tmp_path_factory, case, qpu):
    record, want = _modelled(case[0], qpu)
    assume(not math.isnan(want["job_energy"]))  # it reads 0 W over an unbounded runtime as nan J, the program as 0 J
    path = tmp_path_factory.mktemp("estimate-reference") / "w.json"
    path.write_text(json.dumps(record), encoding="utf-8")
    report = _stdout(["estimate", "--workload", str(path), "--qpu", qpu.id])
    assert _BENCH_REFERENCE.check_estimate_md(report, _BUNDLED_REFERENCE, qpu.id, record) == []


@_REFERENCE_SETTINGS
@given(case=_estimate_cases(modelled=True), profile=_ACCEPTED_PROFILE, qpu=st.sampled_from(bundled_catalog().qpus))
def test_the_compare_report_passes_the_benchmark_reference(tmp_path_factory, case, profile, qpu):
    record, _ = _modelled(case[0], qpu)
    # it reads the runtime after the first "runtime " of the quantum side's line, which holds the id: an id
    # holding an LF splits that line, and one ending in "runtime" is read first (see CHANGES.md)
    assume("\n" not in record["id"] and "runtime" not in record["id"])
    work = tmp_path_factory.mktemp("compare-reference")
    (work / "w.json").write_text(json.dumps(record), encoding="utf-8")
    (work / "p.json").write_text(json.dumps(profile), encoding="utf-8")
    code, report, _ = _call(["compare", "--workload", str(work / "w.json"), "--qpu", qpu.id,
                             "--classical", str(work / "p.json")])
    assume(code != EXIT_ERROR)  # a profile the program refuses
    assert code == EXIT_OK
    assert _BENCH_REFERENCE.check_compare_md(report, _BUNDLED_REFERENCE, qpu.id, record, profile) == []


# Totality over the command line itself: a command and its flags drawn over the
# golden inputs, with values from huge ints, 0, negatives, nan, inf, subnormals and
# non-numbers.  A required flag may be left out, a foreign one added or one repeated,
# a flag spelled as a prefix (unique or ambiguous) or joined to its value by ``=``,
# and a stray value put anywhere; the reader refuses what is wrong as a usage error.
# ``OUT`` stands for a path in a fresh folder.
_GOLDEN_INPUTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "inputs")


def _inputs(*names):
    return st.sampled_from([os.path.join(_GOLDEN_INPUTS, name) for name in names])


_VALUES = st.sampled_from(
    [str(10**400), f"-{10**400}", "0", "-1", "-0.0", "nan", "inf", "-inf", "5e-324", "1e400", "1", "4", "2.5", "x", "-x", ""]
)
_FLAG_VALUES = {
    "--catalog": _inputs("huge-power-catalog.json", "underflow-catalog.json", "edge-catalog.json",
                         "lenient-catalog.json", "not-utf8.json", "missing.json"),
    "--workload": _inputs("anchors.json", "q29.json", "q1e400.json", "q29-unbounded-iterations.json", "qaoa.json",
                          "vqe-72x72-mitigated.json", "lenient.json", "non-finite.json", "missing.json"),
    "--qpu": st.sampled_from(["ibm-heron", "quantinuum-h1", "huge-count", "huge-per-qubit", "tiny-time", "no-such"]),
    "--classical": _inputs("classical-ref.json", "classical-plain.json", "classical-cost-quality.json",
                           "classical-lenient.json", "classical-negative-memory.json"),
    "--format": st.sampled_from(["md", "csv", "x"]),
    "--out": st.just("OUT"),
    "--parallel-shots": _VALUES,
    "--marginal-band": _VALUES,
    "--parity-band": _VALUES,
    "--strict": None,
    "--qaoa-aggregate": None,
}
# command -> (its required flags, its optional flags)
_COMMAND_FLAGS = {
    "catalog": ((), ("--catalog", "--strict", "--format", "--out")),
    "scatter": (("--out",), ("--catalog", "--strict")),
    "feasibility": (("--workload",), ("--catalog", "--strict", "--format", "--marginal-band")),
    "estimate": (("--workload", "--qpu"), ("--catalog", "--strict", "--parallel-shots", "--qaoa-aggregate")),
    "compare": (
        ("--workload", "--qpu", "--classical"),
        ("--catalog", "--strict", "--parallel-shots", "--qaoa-aggregate", "--parity-band"),
    ),
}


@st.composite
def _command_lines(draw):
    command = draw(st.sampled_from(sorted(_COMMAND_FLAGS)))
    required, optional = _COMMAND_FLAGS[command]
    flags = list(required)
    if flags and draw(st.integers(0, 9)) == 0:
        flags.remove(draw(st.sampled_from(flags)))
    flags += draw(st.lists(st.sampled_from(optional), unique=True))
    if draw(st.integers(0, 9)) == 0:
        flags.append(draw(st.sampled_from(sorted(_FLAG_VALUES))))
    if flags and draw(st.integers(0, 4)) == 0:  # the last of a repeated flag wins
        flags.insert(draw(st.integers(0, len(flags))), draw(st.sampled_from(flags)))
    argv = [command]
    for flag in flags:
        spelled = flag[:draw(st.integers(3, len(flag)))] if draw(st.integers(0, 4)) == 0 else flag
        value = None if _FLAG_VALUES[flag] is None else draw(_FLAG_VALUES[flag])
        if draw(st.integers(0, 4)) == 0:  # --flag=value; a flag that takes none refuses it
            argv.append(f"{spelled}={'' if value is None else value}")
        else:
            argv += [spelled] if value is None else [spelled, value]
    if draw(st.integers(0, 9)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["stray", "-1", "-x", "a b", ""])))
    return argv


@settings(max_examples=300, deadline=None)
@given(_command_lines())
@example(["feasibility"])  # a usage error
@example(["feasibility", "--workload", os.path.join(_GOLDEN_INPUTS, "anchors.json"), "--marginal-band", "x"])
@example(["estimate", "--workload", os.path.join(_GOLDEN_INPUTS, "q29.json"), "--qpu", "ibm-heron",
          "--parallel-shots", str(10**400)])
@example(["compare", "--workload", os.path.join(_GOLDEN_INPUTS, "q1e400.json"), "--qpu", "ibm-heron",
          "--classical", os.path.join(_GOLDEN_INPUTS, "classical-ref.json"), "--parallel-shots", str(10**400)])
def test_every_command_line_ends_in_an_exit_code_and_at_most_one_error_line(tmp_path_factory, argv):
    out = str(tmp_path_factory.mktemp("argv") / "report")
    nan_in_input = any(arg.endswith(("nan", "-finite.json")) for arg in argv)
    _assert_total([arg.replace("OUT", out) for arg in argv], nan_in_input=nan_in_input)


class _ReferenceParser(argparse.ArgumentParser):
    """argparse's parser, but a usage error raises ``ValueError``: it ends in the
    one ``error:`` line and exit 1, as any other bad input does, not in exit 2."""

    def error(self, message: str):
        raise ValueError(f"{self.prog}: {message}")


def _reference_parser() -> argparse.ArgumentParser:
    """The argparse grammar that the CLI's own reader replaced, kept as it was to test the reader against."""
    cmd_feasibility, cmd_estimate, cmd_scatter, cmd_compare, cmd_catalog = (
        cli.cmd_feasibility, cli.cmd_estimate, cli.cmd_scatter, cli.cmd_compare, cli.cmd_catalog)
    parser = _ReferenceParser(
        prog="nisq-gonogo",
        description="Feasibility and resource estimates for noisy gate-model quantum workloads.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *, formats: tuple[str, ...] = ("md",), workload: bool = False, qpu: bool = False) -> None:
        p.add_argument("--catalog", metavar="PATH", default=None, help=f"catalog file (default: ${ENV_CATALOG} or the bundled dataset)")
        if formats:  # a report command: it also takes --out and --format
            p.add_argument("--out", metavar="PATH", help="also write the report to this path")
        p.add_argument("--strict", action="store_true", help="reject unknown input fields instead of warning")
        if workload:
            p.add_argument("--workload", metavar="PATH", required=True, help="workload file (object or list)")
        if qpu:  # the commands on one qpu estimate its resources
            p.add_argument("--qpu", metavar="ID", required=True, help="catalog id of the target qpu")
            p.add_argument(
                "--parallel-shots", type=int, default=1, metavar="K",
                help="parallel shot lanes, each running whole shots (default 1)",
            )
            p.add_argument(
                "--qaoa-aggregate",
                action="store_true",
                help="use the aggregate n^2/eps shot budget for qaoa workloads",
            )
        if formats:
            p.add_argument("--format", choices=formats, default=formats[0])

    p_feas = sub.add_parser("feasibility", help="go/no-go verdicts for every (qpu, workload) pair")
    common(p_feas, formats=("md", "csv"), workload=True)
    p_feas.add_argument(
        "--marginal-band",
        type=float,
        default=feas.DEFAULT_MARGINAL_BAND,
        metavar="X",
        help=f"factor above the required error rate still reported as marginal (default {feas.DEFAULT_MARGINAL_BAND:g})",
    )
    p_feas.set_defaults(func=cmd_feasibility)

    p_est = sub.add_parser("estimate", help="shots, runtime, and energy for a workload on one qpu")
    common(p_est, workload=True, qpu=True)
    p_est.set_defaults(func=cmd_estimate)

    p_scat = sub.add_parser("scatter", help="emit the catalog landscape as CSV + SVG")
    common(p_scat, formats=())  # it writes two files, not a report
    p_scat.add_argument("--out", metavar="PATH", required=True, help="base path of the .csv and .svg files to write")
    p_scat.set_defaults(func=cmd_scatter)

    p_cmp = sub.add_parser("compare", help="five-axis advantage comparison against a classical profile")
    common(p_cmp, workload=True, qpu=True)
    p_cmp.add_argument("--classical", metavar="PATH", required=True, help="classical solution profile (JSON)")
    p_cmp.add_argument("--parity-band", type=float, default=advantage.DEFAULT_PARITY_BAND, metavar="FRACTION")
    p_cmp.set_defaults(func=cmd_compare)

    p_cat = sub.add_parser("catalog", help="validate and summarize a catalog")
    common(p_cat)
    p_cat.set_defaults(func=cmd_catalog)

    return parser


def _read_with(parser, argv):
    """What ``parser`` makes of ``argv``: each attribute's type and ``repr``, or ``None`` for a refusal."""
    try:
        args = parser.parse_args(argv)
    except ValueError:
        return None
    return {name: (type(value), repr(value)) for name, value in vars(args).items()}


@settings(max_examples=500, deadline=None)
@given(_command_lines())
@example(["estimate", "--w=a", "--q", "b"])  # an ambiguous prefix
@example(["compare", "--work=a", "--qp", "b", "--cl", "c", "--pari", "-0.0", "--par=-1"])  # --par: an ambiguous prefix
@example(["feasibility", "--workload", "a", "--marginal-band", "-1", "--marginal-band=2", "--format=csv"])
@example(["feasibility", "--workload", "-x"])
@example(["catalog", "--strict", "--strict", "--strict="])
@example(["catalog", "stray"])
def test_the_reader_reads_each_command_line_as_argparse_does(argv):
    # Where argparse parses, the reader gives every attribute the same value; where
    # argparse refuses, ``main`` prints one error line and exits 1.
    want = _read_with(_reference_parser(), argv)
    assert _read_with(cli.build_parser(), argv) == want, argv
    if want is None:
        code, out, err = _call(argv)
        assert (code, out) == (EXIT_ERROR, ""), argv
        assert err.startswith("error: nisq-gonogo") and err.count("\n") == 1, (argv, err)


@pytest.mark.parametrize("command", list(cli._COMMANDS))
@pytest.mark.parametrize("flag", ["-h", "--help", "--he", "-hh"])
def test_each_commands_help_lists_its_options_and_exits_0(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, "--strict", flag, "--format", "x"])  # help is taken in order, before the bad format
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert err == "" and out.startswith(f"usage: nisq-gonogo {command} [-h] ")
    _, line, options = cli._COMMANDS[command]
    assert f"\n\n{line}\n\noptions:\n  -h, --help " in out
    flags = [row.split()[0] for row in out.split("options:\n")[1].splitlines()[1:]]
    assert flags == [option[0].split()[0] for option in options]


@pytest.mark.parametrize(
    "catalog, qpu, iterations, parallel_shots, shot, total, energy",
    [
        # a 5e-324 s gate over 8 cycles: one shot of 4e-323 s, over 10 and over 10^400 iterations
        (_UNDERFLOW, "q", 10, 10**12, "3.95253e-323 s", "3.95253e-322 s", "inf J (unbounded)"),
        (_UNDERFLOW, "q", 10**400, 10**12, "3.95253e-323 s", "inf s (unbounded)", "inf J (unbounded)"),
        (None, "ibm-heron", 10, 10**400, "2.8e-6 s", "2.8e-5 s", "0 J\n  (no power data reported for this qpu)"),
    ],
    ids=["10", "1e400", "parallel-shots-1e400"],
)
def test_each_lane_runs_at_least_one_shot_in_estimate_and_compare(
    capsys, workload_file, catalog, qpu, iterations, parallel_shots, shot, total, energy
):
    workload = {"id": "w", "family": "generic", "data_qubits": 29, "depth": 8, "target_epsilon": 0.01,
                "ansatz_iterations": iterations}
    argv = ["--workload", workload_file(workload), "--qpu", qpu, "--parallel-shots", str(parallel_shots)]
    if catalog is not None:
        argv += ["--catalog", workload_file(catalog, "catalog.json")]
    code, out, err = run(capsys, "estimate", *argv)
    assert (code, err) == (EXIT_OK, "")
    assert f"- single shot: {shot}\n- quantum per iteration: {shot}\n" in out
    assert f"- total: {total}\n" in out and out.endswith(f"- job energy: {energy}\n")
    classical = workload_file({"runtime_s": 1.0}, "classical.json")
    code, out, err = run(capsys, "compare", *argv, "--classical", classical)
    assert (code, err) == (EXIT_OK, "")
    assert out.startswith(f"quantum side: w on {qpu}: runtime {total}, state space 8 GiB (29 qubits)\n")


def test_a_qpu_that_draws_zero_watts_reads_unreported_in_every_report(capsys, workload_file):
    catalog = workload_file(_huge_catalog(50, {"unit_power_w": 0.0, "count": 10**400}), "catalog.json")
    argv = ["--catalog", catalog, "--workload", workload_file(WORKLOAD_53x8), "--qpu", "q"]
    _, out, _ = run(capsys, "catalog", "--catalog", catalog)
    assert "| available | unreported |" in out
    _, out, _ = run(capsys, "estimate", *argv)
    assert out.endswith("- job energy: 0 J\n  (no power data reported for this qpu)\n")
    _, out, _ = run(capsys, "compare", *argv, "--classical", workload_file({"runtime_s": 1.0}, "classical.json"))
    assert "note: power draw unreported for 'q'; energetic axis not evaluated\n" in out


@contextlib.contextmanager
def _collector(enabled):
    """The cyclic collector on or off for the block, then as it was."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize(
    "argv, code, loads",
    [
        (["catalog"], EXIT_OK, [False]),
        (["feasibility", "--workload", "/does/not/exist.json"], EXIT_ERROR, [False]),
        (["feasibility"], EXIT_ERROR, []),  # a usage error: the one error line, before any catalog is loaded
        (["catalog", "--help"], None, []),  # the help: SystemExit(0)
    ],
)
def test_main_runs_without_the_collector_and_restores_it(capsys, monkeypatch, enabled, argv, code, loads):
    seen = []
    load_catalog = cli.load_catalog
    monkeypatch.setattr(cli, "load_catalog", lambda *a, **k: seen.append(gc.isenabled()) or load_catalog(*a, **k))
    with _collector(enabled):
        if code is None:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0
        else:
            assert main(argv) == code
        assert gc.isenabled() is enabled
    assert seen == loads
    capsys.readouterr()


def test_a_call_leaves_no_cyclic_garbage_that_grows_with_the_input(capsys, workload_file):
    big = workload_file(
        [
            dict(WORKLOAD_53x8, id=f"w{i}", data_qubits=1 + i % 150, depth=1 + i % 17 + i // 150)
            for i in range(2500)
        ],
        "big.json",
    )
    small = workload_file(WORKLOAD_53x8, "small.json")

    def garbage(path):
        gc.collect()
        assert main(["feasibility", "--workload", path, "--format", "csv"]) == EXIT_OK
        assert capsys.readouterr().out.count("\n") > 1
        return gc.collect()

    with _collector(False):
        garbage(small)  # one-time set-up garbage, if any, goes here
        small_garbage = garbage(small)
        big_garbage = garbage(big)
    assert big_garbage <= small_garbage


# A CLI process launched as the console script is: ``sys.exit(main())``.  The
# canary's ``__del__`` runs only if the interpreter tears ``__main__`` down.
_CANARY = """
class Canary:
    def __del__(self):
        os.write(2, b"teardown\\n")
canary = Canary()
"""


def _cli_process(argv, cwd, *, prelude="", flags=(), **kwargs):
    """Run ``sys.exit(main())`` in a fresh interpreter on block-buffered stdio, as from a pipe or file."""
    src = os.path.dirname(os.path.dirname(nisq_gonogo.__file__))
    code = f"import os, sys\nsys.path.insert(0, {src!r})\n{prelude}\nfrom nisq_gonogo.cli import main\nsys.exit(main())"
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONUNBUFFERED", ENV_CATALOG)}
    kwargs.setdefault("stdout", subprocess.PIPE)
    return subprocess.run(
        [sys.executable, *flags, "-c", code, *argv],
        cwd=cwd, env=env, stdin=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, **kwargs,
    )


def _write_grid(directory):
    """``grid.json``: 150 workloads, whose CSV grid is more than a 64 KiB pipe buffer holds."""
    grid = [dict(WORKLOAD_53x8, id=f"w{i:03}", data_qubits=2 + i) for i in range(150)]
    (directory / "grid.json").write_text(json.dumps(grid), encoding="utf-8")


@pytest.mark.parametrize(
    "argv, code",
    [
        (["catalog"], EXIT_OK),
        (["estimate", "--workload", "53x8.json", "--qpu", "no-such-qpu"], EXIT_ERROR),
        (["feasibility", "--workload", "deep.json"], EXIT_NO_GO),
        (["feasibility", "--workload", "grid.json", "--format", "csv"], EXIT_OK),  # more than a pipe buffer holds
    ],
)
def test_a_cli_process_ends_with_the_code_and_output_of_main_without_teardown(capsys, monkeypatch, tmp_path, argv, code):
    (tmp_path / "53x8.json").write_text(json.dumps(WORKLOAD_53x8), encoding="utf-8")
    (tmp_path / "deep.json").write_text(json.dumps(dict(WORKLOAD_53x8, depth=10**6)), encoding="utf-8")
    _write_grid(tmp_path)
    done = _cli_process(argv, tmp_path, prelude=_CANARY)
    monkeypatch.chdir(tmp_path)
    expected = run(capsys, *argv)
    assert (done.returncode, done.stdout, done.stderr) == expected
    assert expected[0] == code
    if code == EXIT_ERROR:
        assert done.stderr.startswith("error: unknown qpu id 'no-such-qpu' (catalog has: ")
        assert done.stderr.count("\n") == 1


def test_a_cli_process_runs_the_atexit_callbacks_and_flushes_their_output(tmp_path):
    done = _cli_process(["catalog"], tmp_path, prelude="import atexit\natexit.register(print, 'atexit ran')")
    assert done.returncode == EXIT_OK
    assert done.stdout.endswith("classical refs.\natexit ran\n")
    assert done.stderr == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["catalog"],
        ["feasibility", "--workload", "grid.json", "--format", "csv"],  # more than a pipe buffer holds
        ["scatter", "--out", "landscape.svg"],
    ],
    ids=["catalog", "feasibility-csv", "scatter"],
)
def test_a_stdout_that_cannot_be_written_ends_in_the_one_error_line(tmp_path, argv):
    _write_grid(tmp_path)
    readonly = tmp_path / "readonly.txt"
    readonly.write_bytes(b"")
    prelude = "import atexit\natexit.register(lambda: open('atexit.txt', 'a').write('atexit ran\\n'))"
    with open(readonly, "rb") as stdout:
        done = _cli_process(argv, tmp_path, prelude=prelude, stdout=stdout)
    assert (done.returncode, done.stderr) == (EXIT_ERROR, "error: [Errno 9] Bad file descriptor\n")
    # the callbacks ran, and the interpreter's exit did not run them again
    assert (tmp_path / "atexit.txt").read_text(encoding="utf-8") == "atexit ran\n"
    if argv[0] == "scatter":  # the files are written before stdout
        assert (tmp_path / "landscape.csv").read_text(encoding="utf-8") == scatter_csv(bundled_catalog())
        assert (tmp_path / "landscape.svg").read_text(encoding="utf-8") == scatter_svg(bundled_catalog())


@pytest.mark.parametrize(
    "prelude, flags",
    [
        ("import threading\nthreading.Thread(target=threading.Event().wait, daemon=True).start()", ()),
        ("", ("-i",)),
    ],
    ids=["another-thread", "inspect"],
)
def test_a_cli_process_falls_back_to_the_interpreter_exit(tmp_path, prelude, flags):
    done = _cli_process(["catalog"], tmp_path, prelude=prelude + _CANARY, flags=flags)
    assert "9 qpus, 3 classical refs." in done.stdout
    assert "teardown" in done.stderr


def test_a_profiler_still_reports_after_main(tmp_path):
    src = os.path.dirname(os.path.dirname(nisq_gonogo.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-m", "cProfile", "-m", "nisq_gonogo.cli", "catalog"],
        cwd=tmp_path, env=env, stdin=subprocess.DEVNULL, capture_output=True, text=True,
    )
    assert "9 qpus, 3 classical refs." in done.stdout
    assert "function calls" in done.stdout


def test_main_with_argv_returns_and_leaves_the_process_to_its_caller(capsys, monkeypatch):
    def _exit(code):
        raise AssertionError(f"os._exit({code}) on the in-process path")

    ran = []
    monkeypatch.setattr(os, "_exit", _exit)
    atexit.register(ran.append, "atexit")
    try:
        assert main(["catalog"]) == EXIT_OK
        assert main(["estimate", "--workload", "/does/not/exist.json", "--qpu", "ibm-heron"]) == EXIT_ERROR
    finally:
        atexit.unregister(ran.append)
    assert ran == []
    capsys.readouterr()


# The benchmark's tracer wraps each of these names as an attribute of ``cli``
# for a traced pass, so each command must look the name up there when it runs;
# the argv reaches the name.
_CLI_LAYERS = {
    "build_parser": ["catalog"],
    "load_catalog": ["catalog"],
    "bundled_catalog": ["catalog"],
    "parse_catalog": ["catalog", "--catalog", "{catalog}"],
    "render_catalog_md": ["catalog"],
    "load_workloads": ["feasibility", "--workload", "{workload}"],
    "build_feasibility_bundle": ["feasibility", "--workload", "{workload}"],
    "render_feasibility_md": ["feasibility", "--workload", "{workload}"],
    "render_feasibility_csv": ["feasibility", "--workload", "{workload}", "--format", "csv"],
    "build_estimate_record": ["estimate", "--workload", "{workload}", "--qpu", "ibm-heron"],
    "render_estimate_md": ["estimate", "--workload", "{workload}", "--qpu", "ibm-heron"],
    "render_advantage_md": [
        "compare", "--workload", "{workload}", "--qpu", "ibm-heron", "--classical", "{classical}",
    ],
    "scatter_csv": ["scatter", "--out", "{out}"],
    "scatter_svg": ["scatter", "--out", "{out}"],
}


@pytest.mark.parametrize("name", list(_CLI_LAYERS))
def test_each_layer_is_called_through_the_cli_namespace(capsys, monkeypatch, workload_file, tmp_path, name):
    monkeypatch.delenv(ENV_CATALOG, raising=False)
    paths = {
        "workload": workload_file(WORKLOAD_53x8),
        "catalog": str(tmp_path / "catalog.json"),
        "classical": str(tmp_path / "classical.json"),
        "out": str(tmp_path / "landscape.svg"),
    }
    (tmp_path / "catalog.json").write_text(serialize_catalog(bundled_catalog()), encoding="utf-8")
    (tmp_path / "classical.json").write_text('{"runtime_s": 3600, "classical_ref": "nvidia-dgx-rack"}', encoding="utf-8")
    original = getattr(cli, name)
    calls = []

    def recording(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, name, recording)
    code, _, err = run(capsys, *(arg.format(**paths) for arg in _CLI_LAYERS[name]))
    assert (code, err) == (EXIT_OK, "")
    assert calls, f"cli.{name} was not called through the cli namespace"
