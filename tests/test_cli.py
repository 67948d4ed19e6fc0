import atexit
import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nisq_gonogo
from helpers import make_spec
from nisq_gonogo import cli, energy
from nisq_gonogo import feasibility as feas
from nisq_gonogo.advantage import Outcome, SolutionProfile, classify, quantum_profile
from nisq_gonogo.catalog import PowerComponent, bundled_catalog, serialize_catalog
from nisq_gonogo.cli import (
    EXIT_ERROR,
    EXIT_NO_GO,
    EXIT_OK,
    ENV_CATALOG,
    build_estimate_record,
    main,
    render_catalog_md,
    render_estimate_md,
)
from nisq_gonogo.scatter import scatter_csv, scatter_svg
from nisq_gonogo.units import (
    EXACT_COUNT_LIMIT,
    count_text,
    format_bytes,
    format_joules,
    format_seconds,
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
            "schema_version": 1,
            "qpus": [
                {
                    "id": "noisy",
                    "modality": "superconducting",
                    "qubit_count": 200,
                    "two_qubit_error_median": 0.2,
                    "two_qubit_gate_time": 1e-7,
                    "readout_time": 0,
                    "reset_time": 0,
                    "connectivity": "grid-4",
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
            "schema_version": 1,
            "qpus": [
                {
                    "id": "dream",
                    "modality": "superconducting",
                    "qubit_count": 200,
                    "two_qubit_error_median": 1e-7,
                    "two_qubit_gate_time": 1e-7,
                    "readout_time": 0,
                    "reset_time": 0,
                    "connectivity": "all-to-all",
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
        catalog_path.write_text('{"schema_version": 1, "qpus": [', encoding="utf-8")
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
            pytest.param("-3", {"schema_version": 1, "qpus": []}, id="-3-empty-catalog"),
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
            "feasibility: no-go (workload breadth 53 exceeds qpu 'ibm-prague-egret' qubit count 33)"
            in out.splitlines()
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
            # an unbounded total over a divisor beyond float range stays unbounded
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
        bad = {"schema_version": 1, "qpus": [{"id": "x"}], "classical_refs": []}
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


def test_report_determinism_across_runs(capsys, tmp_path):
    workload_path = tmp_path / "w.json"
    workload_path.write_text(json.dumps(WORKLOAD_53x8), encoding="utf-8")
    code1, out1, _ = run(capsys, "feasibility", "--workload", str(workload_path))
    code2, out2, _ = run(capsys, "feasibility", "--workload", str(workload_path))
    assert (code1, out1) == (code2, out2)


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


def test_bundled_catalog_renderings_are_pinned():
    catalog = bundled_catalog()
    digests = {
        render.__name__: hashlib.sha256(render(catalog).encode("utf-8")).hexdigest()
        for render in (render_catalog_md, scatter_csv, scatter_svg, serialize_catalog)
    }
    assert digests == {
        "render_catalog_md": "74d276f2cd24c0fe157e33314451498147ddc0af8b1709f660b8984f7704bcc3",
        "scatter_csv": "97f038fe7ba926a99c4d3fd24a846f24ce3500db58ea3f7c21b52dfc8bbfe8ff",
        "scatter_svg": "85c933e18a8025a75aa65da90f3b8c0f64752908efe9a4c4328c47f54bdf42f9",
        "serialize_catalog": "95353e8f941407064a55b964b817a1f44c14293a5dd074390e0227fbab64445f",
    }


def _fixture_qpu(qpu_id, qubits, error, status, stddev=None):
    qpu = {
        "id": qpu_id,
        "modality": "superconducting",
        "qubit_count": qubits,
        "two_qubit_error_median": error,
        "two_qubit_gate_time": 1e-7,
        "readout_time": 0,
        "reset_time": 0,
        "connectivity": "grid-4",
        "power_components": [],
        "status": status,
        "source_note": "fixture",
    }
    if stddev is not None:
        qpu["two_qubit_error_stddev"] = stddev
    return qpu


def test_feasibility_reports_are_pinned(capsys, workload_file, tmp_path):
    """Every verdict, both notes and capacity misses; the two ``dup`` rows of
    lab-a have equal sort keys and keep their input order."""
    catalog = {
        "schema_version": 1,
        "qpus": [
            _fixture_qpu("lab-a", 30, 1e-4, "available", stddev=2e-5),
            _fixture_qpu("lab-b", 60, 2e-3, "announced"),
            _fixture_qpu("lab-c", 120, 1e-5, "projected", stddev=1e-6),
        ],
        "classical_refs": [],
    }
    catalog_path = tmp_path / "catalog.json"
    catalog_path.write_text(json.dumps(catalog), encoding="utf-8")
    shapes = [("small", 10, 10), ("mid", 20, 50), ("deep", 25, 2000), ("dup", 40, 5), ("dup", 50, 4),
              ('a,b"c', 100, 100), ("wide", 200, 3)]
    workloads = [
        {"id": wid, "family": "generic", "data_qubits": n, "depth": d, "target_epsilon": 0.01, "ansatz_iterations": 1}
        for wid, n, d in shapes
    ]
    path = workload_file(workloads)
    digests = {}
    for fmt in ("csv", "md"):
        code, out, err = run(capsys, "feasibility", "--catalog", str(catalog_path), "--workload", path, "--format", fmt)
        assert err == ""
        digests[fmt] = (code, hashlib.sha256(out.encode("utf-8")).hexdigest())
    assert digests == {
        "csv": (EXIT_OK, "84a43bf4da3e3aacf47a5a916cd843aaea6e92fb538172af81aaa5ca4e864b60"),
        "md": (EXIT_OK, "15bb8713fa855212434837aa45387f20a1d9816f5f4a90ba47c49b6f19b7ca9c"),
    }


def test_estimate_reports_are_pinned(capsys, workload_file):
    """Every verdict and capacity misses, runtimes either side of 120 s, an
    unbounded mitigated budget and depth, on a qpu with four power components
    (ibm-flamingo), one with no power data (google-sycamore-2022) and one of
    20 qubits (quantinuum-h1)."""
    qaoa = {"id": "maxcut", "family": "qaoa", "data_qubits": 16, "depth": 12, "qaoa_layers": 3,
            "target_epsilon": 0.01, "ansatz_iterations": 50}
    workloads = [
        {"id": "tiny", "family": "generic", "data_qubits": 4, "depth": 5, "target_epsilon": 0.1,
         "ansatz_iterations": 10},
        {"id": "mid", "family": "generic", "data_qubits": 30, "depth": 100, "target_epsilon": 0.05,
         "ansatz_iterations": 20, "classical_prep_time": 0.5},
        BENZENE_LIKE,
        {"id": "mitigated", "family": "vqe", "data_qubits": 12, "depth": 10**6, "target_epsilon": 0.1,
         "ansatz_iterations": 2, "pauli_grouping": "grouped",
         "mitigation": {"enabled": True, "exponent_coefficient": 1.0}},
        {"id": "abyss", "family": "generic", "data_qubits": 5, "depth": 10**400, "target_epsilon": 0.5,
         "ansatz_iterations": 1},
        qaoa,
    ]
    documents = {"all": workload_file(workloads), "qaoa": workload_file([qaoa], "qaoa.json")}
    runs = {"plain": ("all",), "parallel-shots": ("all", "--parallel-shots", "4"),
            "qaoa-aggregate": ("qaoa", "--qaoa-aggregate")}
    digests, text = {}, ""
    for qpu in ("ibm-flamingo", "google-sycamore-2022", "quantinuum-h1"):
        for name, (document, *flags) in runs.items():
            code, out, err = run(capsys, "estimate", "--workload", documents[document], "--qpu", qpu, *flags)
            assert err == ""
            digests[qpu, name] = (code, hashlib.sha256(out.encode("utf-8")).hexdigest())
            text += out
    for part in ("feasibility: go", "feasibility: marginal", "feasibility: no-go (required",
                 "feasibility: no-go (workload breadth 30 exceeds qpu 'quantinuum-h1' qubit count 20)",
                 "- total: 12.88 s\n", "years)", "- total shots per iteration: inf shots (unbounded)",
                 "- total: inf s (unbounded)", "qaoa-aggregate accounting", "  - control electronics: 27.72 kW",
                 "depth inf cycles (unbounded),", "- job energy: inf J (unbounded)",
                 "(no power data reported for this qpu)"):
        assert part in text, part
    assert digests == {
        ("ibm-flamingo", "plain"): (EXIT_OK, "20cec7c0410ef3d9c23978008e377e5c485ff3d6480580a6cd888cfe191ee4e7"),
        ("ibm-flamingo", "parallel-shots"): (EXIT_OK, "e5f26b14ad1631b625df897329ad59e7687993eaf363fbf86111719e933f3345"),
        ("ibm-flamingo", "qaoa-aggregate"): (EXIT_OK, "9dc4b28e5d7985c10e03eb252cb9b37cacaa85a78895c6b58c7da4fc0f3504f1"),
        ("google-sycamore-2022", "plain"): (EXIT_OK, "964a7c45f7d95173785a509e63ba01539f95239ab6395e7a3bcd5e7a0cad5444"),
        ("google-sycamore-2022", "parallel-shots"): (EXIT_OK, "58c5c3bd20389f8a2ff197342980562185fe80320234e84e3a1fd34bcd85a8a1"),
        ("google-sycamore-2022", "qaoa-aggregate"): (EXIT_OK, "79fdece2316ff0309d063fe5fbb323efe626c37d7fe8698115fe7b2aca73c718"),
        ("quantinuum-h1", "plain"): (EXIT_OK, "5ab5ba22f71462cdb06a8779e87478fbcf4cfe1911ac25137a746dbb903f0a1a"),
        ("quantinuum-h1", "parallel-shots"): (EXIT_OK, "2f85d6efc96a3aee5ef9e3bc2fd6f867447346ca6fceb1d827abf9cbd0e7a156"),
        ("quantinuum-h1", "qaoa-aggregate"): (EXIT_OK, "a869f007aca10862290886632786e0ede1154612972b11d5337eda738ba4449e"),
    }


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
    # the power total is cached per qpu value beside its breakdown, for the report and the record alike
    flamingo_watts = sum(watts for _, watts in energy.power_breakdown(qpu))
    assert (energy.power_draw(varied), energy.power_draw(qpu)) == (91000.0, flamingo_watts)
    varied_energy = build_estimate_record(varied, spec).energy
    assert (varied_energy.power_draw, varied_energy.breakdown) == (91000.0, energy.power_breakdown(varied))
    assert varied_energy.job_energy == 91000.0 * build_estimate_record(varied, spec).runtime.total_time
    assert build_estimate_record(qpu, spec).energy.power_draw == flamingo_watts
    assert report(qpu) == first


def _render_estimate_md_by_lines(record, qpu, spec):
    """The earlier definition of ``render_estimate_md``: a list of lines, extended and joined."""
    plan, rt, en = record
    qpu_line, available, power_lines, power_note = cli._estimate_qpu_lines(qpu)
    fit = feas.fit_verdict(qpu, spec.shape)
    if fit is None:
        feasibility = f"no-go ({feas.capacity_message(spec.data_qubits, qpu)})"
    else:
        required, _, _, verdict, _ = fit
        feasibility = f"{verdict.value} (required error rate {sci(required)}, available {available})"
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
    lines += ["", "energy:", power_lines, f"- job energy: {format_joules(en.job_energy)}{power_note}"]
    return "\n".join(lines) + "\n"


@st.composite
def _estimate_cases(draw):
    """(a workload, --parallel-shots, --qaoa-aggregate) that the estimate path accepts."""
    family = draw(st.sampled_from(AlgorithmFamily))
    spec = WorkloadSpec(
        draw(st.text(min_size=1, max_size=8)),
        family,
        draw(st.one_of(st.integers(1, 200), st.integers(1, 10**6))),  # ungrouped VQE counts pass 2**53 near 29,000
        draw(st.one_of(st.integers(1, 1000), st.integers(1, 10**12))),
        draw(st.one_of(st.floats(min_value=1e-9, max_value=1.0), st.just(5e-324))),
        draw(st.one_of(st.integers(1, 1000), st.integers(1, 10**9))),
        draw(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(min_value=0.0, max_value=1e4))),
        draw(st.integers(1, 20)) if family is AlgorithmFamily.QAOA else None,
        draw(st.sampled_from(PauliGrouping)),
        MitigationSpec(draw(st.booleans()), draw(st.floats(min_value=0.0, max_value=10.0))),
        draw(st.one_of(st.none(), st.floats(min_value=1e-3, max_value=1e3))),
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


def test_cli_import_leaves_out_the_heavy_stdlib_modules():
    # -S: no site .pth file may preload any of these before the package does.
    src = os.path.dirname(os.path.dirname(nisq_gonogo.__file__))
    heavy = ("dataclasses", "inspect", "ast", "pathlib", "importlib.resources", "csv", "typing")
    code = f"import sys; sys.path.insert(0, {src!r}); import nisq_gonogo.cli; print([m for m in {heavy!r} if m in sys.modules])"
    result = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True)
    assert result.stdout == "[]\n"


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
_TEXTS = st.lists(
    st.sampled_from([",", '"', "\r", "\n", "\x00", "\ud800", "a", "\u00e9"]), min_size=1, max_size=5
).map("".join)
_NOT_OBJECTS = st.one_of(st.none(), st.booleans(), _ODD, _TEXTS, st.lists(st.integers(), max_size=2))


@st.composite
def _documents(draw, required, optional):
    """A valid record of the ``required`` and some ``optional`` fields; half of them then get one or two odd fields."""
    record = draw(st.fixed_dictionaries(required, optional=optional))
    odd = draw(st.sampled_from([0, 0, 1, 2]))
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
    "id": _TEXTS,
    "classical_prep_time": st.floats(min_value=0.0, max_value=1e3),
    "pauli_grouping": st.sampled_from(["none", "grouped"]),
    "mitigation": st.fixed_dictionaries(
        {}, optional={"enabled": st.booleans(), "exponent_coefficient": st.floats(min_value=0.0, max_value=10.0)}
    ),
    "c_vqe_override": st.floats(min_value=1e-3, max_value=1e3),
    "colour": _TEXTS,  # unknown: a warning, or an error under --strict
}
_WORKLOAD = st.one_of(
    _documents({**_WORKLOAD_FIELDS, "family": st.sampled_from(["vqe", "generic"])}, _WORKLOAD_OPTIONAL),
    _documents({**_WORKLOAD_FIELDS, "family": st.just("qaoa"), "qaoa_layers": _COUNTS}, _WORKLOAD_OPTIONAL),
)
_WORKLOAD_DOCUMENTS = st.one_of(
    _WORKLOAD, _WORKLOAD.map(lambda record: [record]), st.lists(_WORKLOAD, min_size=2, max_size=3), _NOT_OBJECTS
)
_SIZES = st.floats(min_value=5e-324, max_value=1e300)
_PROFILE = _documents(
    {"runtime_s": _SIZES},
    {
        "energy_j": _SIZES,
        "cost": _SIZES,
        "quality": _SIZES,
        "memory_bytes": st.integers(min_value=0, max_value=2**80),
        "classical_ref": st.sampled_from(["nvidia-dgx-rack", "no-such-ref"]),
    },
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
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_ERROR, EXIT_NO_GO), argv
    assert code != EXIT_NO_GO or argv[0] == "feasibility", argv
    assert not _NAN.search(out.getvalue()), (argv, out.getvalue())
    assert not _OLD_UNBOUNDED.search(out.getvalue()), (argv, out.getvalue())
    _assert_counts_follow_the_count_text(out.getvalue())
    assert nan_in_input or not _NAN.search(err.getvalue()), (argv, err.getvalue())
    lines = err.getvalue().split("\n")
    assert lines.pop() == "", argv  # every line ends in a newline
    if code == EXIT_ERROR:
        assert out.getvalue() == "" and lines[-1].startswith("error: "), argv
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
# workload runs 1, 10 or 10^400 iterations, with or without 10^12-fold shot
# parallelism, which takes a 5e-324 s gate's runtime down to 0 s.
_WATTS = st.sampled_from([0.0, -0.0, 2.5, 1e4, 1e300])
_COMPONENT = st.fixed_dictionaries(
    {"label": st.one_of(st.just("c"), _TEXTS), "unit_power_w": _WATTS},
    optional={"count": st.one_of(st.integers(min_value=0, max_value=9), st.just(10**400)), "per_qubit": st.booleans()},
)
_QPU = _documents(
    {
        "id": st.one_of(st.just("q"), _TEXTS),
        "modality": st.sampled_from(["superconducting", "trapped-ion"]),
        "qubit_count": st.one_of(st.integers(min_value=1, max_value=200), st.just(10**400)),
        "two_qubit_error_median": st.floats(min_value=1e-6, max_value=0.5),
        "two_qubit_gate_time": st.floats(min_value=1e-9, max_value=1e-3),
        "readout_time": st.floats(min_value=0.0, max_value=1e-3),
        "reset_time": st.floats(min_value=0.0, max_value=1e-3),
        "connectivity": st.sampled_from(["all-to-all", "cluster-3"]),
        "status": st.sampled_from(["available", "projected"]),
        "source_note": st.one_of(st.just("n"), _TEXTS),
        "power_components": st.lists(_COMPONENT, min_size=1, max_size=3),
    },
    {"two_qubit_error_stddev": st.floats(min_value=0.0, max_value=0.1), "colour": _TEXTS},
)
_REF = _documents(
    {
        "id": st.one_of(st.just("r"), _TEXTS),
        "description": _TEXTS,
        "power_draw": st.floats(min_value=1e-3, max_value=1e300),
        "memory_capacity": st.one_of(st.integers(min_value=1, max_value=2**80), st.just(10**400)),
    },
    {"tier_hint": st.sampled_from(["hpc", "laptop", "nope"])},
)
_CATALOG_DOCUMENTS = st.one_of(
    st.fixed_dictionaries(
        {"schema_version": st.just(1), "qpus": st.lists(_QPU, min_size=1, max_size=2)},
        optional={"classical_refs": st.lists(_REF, max_size=2)},
    ),
    st.sampled_from([None, [], "", 10**400]),  # one branch, so that most documents are catalogs
)


def _huge_catalog(qubit_count, component, **odd):
    """A catalog of one qpu ``q`` whose one power component is ``component``, with ``odd`` fields."""
    qpu = {
        "id": "q", "modality": "superconducting", "qubit_count": qubit_count, "two_qubit_error_median": 0.01,
        "two_qubit_gate_time": 1e-7, "readout_time": 0.0, "reset_time": 0.0, "connectivity": "all-to-all",
        "status": "available", "source_note": "n", "power_components": [{"label": "c", **component}], **odd,
    }
    return {"schema_version": 1, "qpus": [qpu]}


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
# an unbounded draw over a runtime that underflows to 0 s, over 10 and over 10^400 iterations
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


# Totality over the command line itself: a command and its flags drawn over the
# golden inputs, with values from huge ints, 0, negatives, nan, inf, subnormals and
# non-numbers.  A required flag may be left out and a foreign one added, which
# argparse reports as a usage error.  ``OUT`` stands for a path in a fresh folder.
_GOLDEN_INPUTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "inputs")


def _inputs(*names):
    return st.sampled_from([os.path.join(_GOLDEN_INPUTS, name) for name in names])


_VALUES = st.sampled_from(
    [str(10**400), f"-{10**400}", "0", "-1", "-0.0", "nan", "inf", "-inf", "5e-324", "1e400", "1", "4", "2.5", "x", ""]
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
    argv = [command]
    for flag in flags:
        argv.append(flag)
        if _FLAG_VALUES[flag] is not None:
            argv.append(draw(_FLAG_VALUES[flag]))
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
    nan_in_input = "nan" in argv or os.path.join(_GOLDEN_INPUTS, "non-finite.json") in argv
    _assert_total([out if arg == "OUT" else arg for arg in argv], nan_in_input=nan_in_input)


_UNDERFLOW_ENERGY = "- power draw: inf W (unbounded)\n  - c: inf W (unbounded)\n- job energy: 0 J\n"


@pytest.mark.parametrize(
    "catalog, qpu, iterations, parallel_shots, energy",
    [
        (_UNDERFLOW, "q", 10, 10**12, _UNDERFLOW_ENERGY),
        (_UNDERFLOW, "q", 10**400, 10**12, _UNDERFLOW_ENERGY),
        # a divisor beyond float range takes a bounded quantum term to 0 s
        (None, "ibm-heron", 10, 10**400, "- job energy: 0 J\n  (no power data reported for this qpu)\n"),
    ],
    ids=["10", "1e400", "parallel-shots-1e400"],
)
def test_compare_names_the_quantum_side_whose_runtime_underflows_to_zero(
    capsys, workload_file, catalog, qpu, iterations, parallel_shots, energy
):
    workload = {"id": "w", "family": "generic", "data_qubits": 29, "depth": 8, "target_epsilon": 0.01,
                "ansatz_iterations": iterations}
    argv = ["--workload", workload_file(workload), "--qpu", qpu, "--parallel-shots", str(parallel_shots)]
    if catalog is not None:
        argv += ["--catalog", workload_file(catalog, "catalog.json")]
    code, out, err = run(capsys, "estimate", *argv)
    assert (code, err) == (EXIT_OK, "")
    assert "- total: 0 s\n" in out and out.endswith(energy)
    classical = workload_file({"runtime_s": 1.0}, "classical.json")
    code, out, err = run(capsys, "compare", *argv, "--classical", classical)
    assert (code, out) == (EXIT_ERROR, "")
    assert err == f"error: quantum side: w on {qpu}: runtime must be > 0 s, got 0 s\n"


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
        (["catalog", "--help"], None, []),  # argparse's help: SystemExit(0)
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
