"""Tests of the benchmark itself: seeded inputs, the output checker, tracing."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
from run import tail  # noqa: E402

from nisq_gonogo import cli  # noqa: E402


@pytest.fixture(scope="module")
def ref():
    return reference.Reference.from_root(ROOT)


def _files(folder: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(folder.iterdir())}


def _run(capsys, argv) -> tuple[int, str]:
    code = cli.main([str(a) for a in argv])
    return code, capsys.readouterr().out


# generator ------------------------------------------------------------------


def test_generator_is_deterministic_for_a_seed(tmp_path):
    for name in ("a", "b"):
        inputs.write_cli_inputs(7, tmp_path / name)
        inputs.write_grid_inputs(7, tmp_path / name, count=300)
        inputs.write_sweep_inputs(7, tmp_path / name, count=50)
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    inputs.write_grid_inputs(8, tmp_path / "c", count=300)
    assert (tmp_path / "c" / "grid-0.json").read_bytes() != (tmp_path / "a" / "grid-0.json").read_bytes()


def test_parts_split_the_workloads_in_order(tmp_path):
    whole = inputs.write_grid_inputs(9, tmp_path / "whole", count=50, parts=1)["docs"]["grid"]
    parts = inputs.write_grid_inputs(9, tmp_path / "parts", count=50, parts=8)
    assert len(parts["files"]["grid"]) == len(parts["docs"]["grid"]) == 8
    assert [w for part in parts["docs"]["grid"] for w in part] == whole[0]


def test_sweep_sets_the_draws_past_float_range_apart(tmp_path, ref):
    drawn = inputs.random_workloads(2, 400)
    sweep = inputs.write_sweep_inputs(2, tmp_path, count=400, in_range=ref.in_float_range)["docs"]
    kept = [w for part in sweep["sweep"] for w in part]
    assert sweep["defects"] and all(not ref.in_float_range(w) for w in sweep["defects"])
    assert all(ref.in_float_range(w) for w in kept)
    assert sorted(kept + sweep["defects"], key=lambda w: w["id"]) == drawn


def test_generated_workloads_follow_the_stated_distribution():
    workloads = inputs.random_workloads(3, 4000)
    assert len({w["id"] for w in workloads}) == len(workloads)
    kinds = {(w["family"], w.get("pauli_grouping")) for w in workloads}
    assert kinds == {("vqe", "none"), ("vqe", "grouped"), ("qaoa", None), ("generic", None)}
    assert all(4 <= w["data_qubits"] <= 200 and 1 <= w["depth"] <= 200 for w in workloads)
    assert {w["target_epsilon"] for w in workloads} == set(inputs.EPSILONS)
    mitigated = sum(w["mitigation"]["enabled"] for w in workloads) / len(workloads)
    assert 0.45 < mitigated < 0.55


def test_probe_profile_carries_an_infinite_memory_figure(tmp_path):
    files = inputs.write_cli_inputs(1, tmp_path)["files"]
    assert "Infinity" in files["probe_profile"].read_text()
    assert json.loads(files["probe_overflow"].read_text())["data_qubits"] == 400


# reference and checker ---------------------------------------------------------


def test_reference_holds_the_paper_anchors(ref):
    vqe72 = {"family": "vqe", "data_qubits": 72, "depth": 72, "target_epsilon": 1e-3}
    assert ref.strings(vqe72) == 330816
    assert ref.shots_per_string(1e-3) == 10**6
    assert ref.shots_per_string(1e-2) == 10**4
    side = reference.quantum_side(ref, "ibm-flamingo", {
        "family": "generic", "data_qubits": 29, "depth": 8, "target_epsilon": 0.01, "ansatz_iterations": 1,
    })
    assert side["memory_bytes"] == 8 * 2**30
    assert ref.verdict(ref.qpu_by_id["ibm-heron"], 100, 8)[0] == "go"
    assert ref.verdict(ref.qpu_by_id["google-sycamore-2022"], 53, 8)[0] == "marginal"


@pytest.mark.parametrize("fmt", ["csv", "md"])
def test_checker_catches_a_single_flipped_verdict(capsys, tmp_path, ref, fmt):
    workloads = inputs.write_grid_inputs(5, tmp_path, count=60, parts=1)
    code, out = _run(capsys, ["feasibility", "--workload", workloads["files"]["grid"][0], "--format", fmt])
    grid = reference.GridReference(ref, workloads["docs"]["grid"][0])
    check = reference.check_feasibility_csv if fmt == "csv" else reference.check_feasibility_md
    assert code == grid.exit_code
    assert check(out, grid) == (0, [])

    at = out.index("\nmarginal," if fmt == "csv" else "\n| marginal |") + 1
    flipped = out[:at] + out[at:].replace("marginal", "go", 1)
    bad, problems = check(flipped, grid)
    assert bad >= 1 and problems


def test_checker_catches_a_dropped_row(capsys, tmp_path, ref):
    workloads = inputs.write_grid_inputs(6, tmp_path, count=30, parts=1)
    _, out = _run(capsys, ["feasibility", "--workload", workloads["files"]["grid"][0], "--format", "csv"])
    lines = out.splitlines(keepends=True)
    grid = reference.GridReference(ref, workloads["docs"]["grid"][0])
    bad, problems = reference.check_feasibility_csv("".join(lines[:1] + lines[2:]), grid)
    assert bad == 1 and any("missing" in p for p in problems)


def test_checker_catches_a_changed_shot_count(capsys, tmp_path, ref):
    cli_inputs = inputs.write_cli_inputs(2, tmp_path)
    code, out = _run(capsys, ["estimate", "--workload", cli_inputs["files"]["estimate"], "--qpu", inputs.ESTIMATE_QPU])
    spec = cli_inputs["docs"]["estimate"]
    assert code == 0
    assert reference.check_estimate_md(out, ref, inputs.ESTIMATE_QPU, spec) == []
    changed = out.replace("330816000000 shots", "330816000001 shots")
    assert changed != out
    assert reference.check_estimate_md(changed, ref, inputs.ESTIMATE_QPU, spec)


def test_checker_catches_a_changed_sweep_record(tmp_path, ref):
    import sweep

    sweep_inputs = inputs.write_sweep_inputs(4, tmp_path, count=12, parts=1)
    _, records = sweep.run_sweep(str(sweep_inputs["files"]["sweep"][0]), sweep_inputs["docs"]["profile"])
    docs, profile = sweep_inputs["docs"]["sweep"][0], sweep_inputs["docs"]["profile"]
    done = [r for r in records if r[2] is None]
    assert done
    for rec in done:
        assert reference.check_sweep_record(rec, ref, docs[rec[0]], ref.qpus[rec[1]], profile) == []
    changed = list(done[0])
    changed[5] += 1
    assert reference.check_sweep_record(changed, ref, docs[changed[0]], ref.qpus[changed[1]], profile)


def test_probe_rule():
    assert reference.probe_passes(1, "error: value too large\n")
    assert not reference.probe_passes(1, "Traceback (most recent call last):\n")
    assert not reference.probe_passes(2, "")


# metrics and tracing -----------------------------------------------------------


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    values = [float(i) for i in range(100)]
    assert tail(values) == (89.0, "p90.00 of 100")
    assert tail([3.0, 1.0, 2.0]) == (3.0, "max of 3")
    assert tail([float(i) for i in range(19)]) == (18.0, "max of 19")
    assert tail([float(i) for i in range(20)]) == (9.0, "p50.00 of 20")


def test_importtime_parser():
    log = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       400 |        700 |     csv\n"
        "import time:      4000 |       6000 |   nisq_gonogo.catalog\n"
        "import time:       200 |       9000 | nisq_gonogo\n"
        "import time:      3000 |       3000 | nisq_gonogo.cli\n"
    )
    metrics = tracing.import_metrics(tracing.parse_importtime(log))
    assert metrics["import.nisq_gonogo.catalog.self_us"] == 4000
    assert metrics["import.pkg_cum_us"] == 12000
    assert metrics["import.stdlib.csv.cum_us"] == 700
    assert metrics["import.stdlib.argparse.cum_us"] == 0


def test_self_time_excludes_child_spans_and_aggregates():
    tracer = tracing.Tracer()
    leaf = tracer.aggregate("leaf", lambda: sum(range(2000)))
    child = tracer.span("child", lambda: [leaf() for _ in range(5)])
    root = tracer.span("root", lambda: child())
    root()
    spans = {s[3]: s for s in tracer.spans}
    assert spans["child"][2] == spans["root"][1]
    assert spans["child"][0] == spans["root"][0]
    assert spans["root"][6] == spans["root"][5] - spans["child"][5]
    assert spans["child"][6] == spans["child"][5] - tracer.aggregates["leaf"][1]
    assert tracer.aggregates["leaf"][0] == 5


def test_wrappers_are_removed_after_a_traced_pass():
    from nisq_gonogo import advantage, catalog, energy, feasibility, runtime, scatter, workload

    mods = {"cli": cli, "catalog": catalog, "workload": workload, "feasibility": feasibility,
            "runtime": runtime, "energy": energy, "advantage": advantage, "scatter": scatter}
    before = (feasibility.assess, cli.bundled_catalog, cli.main)
    with tracing.installed(tracing.Tracer(), mods):
        assert feasibility.assess is not before[0]
    assert (feasibility.assess, cli.bundled_catalog, cli.main) == before
