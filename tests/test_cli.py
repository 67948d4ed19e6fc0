import hashlib
import json
import os
import subprocess
import sys

import pytest

import nisq_gonogo
from nisq_gonogo.catalog import bundled_catalog, serialize_catalog
from nisq_gonogo.cli import EXIT_ERROR, EXIT_NO_GO, EXIT_OK, ENV_CATALOG, main, render_catalog_md
from nisq_gonogo.scatter import scatter_csv, scatter_svg

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
        [("ibm-flamingo", "- job energy: inf J (inf kWh)"), ("google-sycamore-2022", "- job energy: 0 J")],
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
        "overrides, strings",
        [
            ({"data_qubits": 10**400, "depth": 3}, "inf strings (unbounded)"),
            ({"ansatz_iterations": 10**400}, "4 strings"),
            ({"family": "qaoa", "qaoa_layers": 10**400}, "inf strings (unbounded)"),
            ({"family": "vqe", "target_epsilon": 1e-200}, "3 strings"),
        ],
        ids=["budget", "iterations", "qaoa-layers", "epsilon"],
    )
    def test_counts_beyond_float_range_read_unbounded(self, capsys, workload_file, tmp_path, overrides, strings):
        workload = workload_file({**WORKLOAD_53x8, "data_qubits": 4, "depth": 10, **overrides})
        code, out, err = run(capsys, "estimate", "--workload", workload, "--qpu", "ibm-flamingo")
        assert code == EXIT_OK and err == ""
        lines = out.splitlines()
        assert f"- measurement strings: {strings}" in lines and "nan" not in out
        assert "- total: inf s (unbounded)" in lines and "- job energy: inf J (inf kWh)" in lines
        profile_path = tmp_path / "classical.json"
        profile_path.write_text('{"runtime_s": 100, "classical_ref": "nvidia-dgx-rack"}', encoding="utf-8")
        code, out, err = run(
            capsys, "compare", "--workload", workload, "--qpu", "ibm-flamingo", "--classical", str(profile_path)
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
    """``compare`` on ibm-flamingo reading the three documents of ``docs``, each a JSON value or raw text."""
    paths = {}
    for name, doc in docs.items():
        paths[name] = tmp_path / f"{name}.json"
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
        "serialize_catalog": "2c6ea6f87c3148777d202384499aed305b553855b5dc2f295178b0a3a4763cad",
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


def test_cli_import_leaves_out_the_heavy_stdlib_modules():
    # -S: no site .pth file may preload any of these before the package does.
    src = os.path.dirname(os.path.dirname(nisq_gonogo.__file__))
    heavy = ("dataclasses", "inspect", "ast", "pathlib", "importlib.resources")
    code = f"import sys; sys.path.insert(0, {src!r}); import nisq_gonogo.cli; print([m for m in {heavy!r} if m in sys.modules])"
    result = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True)
    assert result.stdout == "[]\n"
