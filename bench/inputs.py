"""Seeded input generator for the benchmark.

Everything the program under test reads is written here from one seed, so
the same seed gives byte-identical files.  Generated workloads mix vqe
(grouped and ungrouped), qaoa and generic; half have mitigation enabled;
N and d are log-uniform over 4-200 and 1-200 and epsilon is drawn from
{1e-3, 1e-2, 0.05}.  No draw is filtered out: the estimate sweep times the
draws whose budgets stay within float range and sets the others (about 2%,
which reach ROADMAP item 2(a)) apart as its defect set, run once per run and
reported beside the timed ones.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

GRID_WORKLOADS = 20_000
SWEEP_WORKLOADS = 2_000
#: Both sets are split into this many files, one per call, so that a run
#: times many short calls (about half a second each) instead of a few long
#: ones, and its medians rest on enough samples to repeat between runs.
PARTS = 8

EPSILONS = (1e-3, 1e-2, 0.05)
FAMILIES = (("vqe", "none"), ("vqe", "grouped"), ("qaoa", None), ("generic", None))

#: Paper anchors for the fidelity rule: 72x72 VQE, 53x8 and 100x8.
ANCHORS = (
    {"id": "anchor-vqe-72x72", "family": "vqe", "data_qubits": 72, "depth": 72,
     "target_epsilon": 0.001, "ansatz_iterations": 100},
    {"id": "anchor-53x8", "family": "generic", "data_qubits": 53, "depth": 8,
     "target_epsilon": 0.01, "ansatz_iterations": 1},
    {"id": "anchor-100x8", "family": "generic", "data_qubits": 100, "depth": 8,
     "target_epsilon": 0.01, "ansatz_iterations": 1},
)

ESTIMATE_QPU = "google-sycamore-2022"
COMPARE_QPU = "ibm-flamingo"
COMPARE_REF = "nvidia-dgx-rack"
PROBE_OVERFLOW_QPU = "ibm-osprey"

#: The order of one cli-calls cycle before the seeded shuffle; each command
#: appears twice.
CLI_CYCLE = (
    "catalog", "feasibility-md", "estimate", "compare", "scatter",
    "catalog", "feasibility-csv", "estimate", "compare", "scatter",
)
#: The ROADMAP item 2 robustness probes, run once per cli-calls run beside the
#: timed cycle: both end in a traceback on the seed code.
PROBES = ("probe-overflow", "probe-infinity")


def _log_uniform_int(rng: random.Random, lo: int, hi: int) -> int:
    return round(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def random_workload(rng: random.Random, index: int) -> dict:
    family, grouping = FAMILIES[rng.randrange(len(FAMILIES))]
    record = {
        "id": f"w{index:05d}-{family}" + (f"-{grouping}" if grouping else ""),
        "family": family,
        "data_qubits": _log_uniform_int(rng, 4, 200),
        "depth": _log_uniform_int(rng, 1, 200),
        "target_epsilon": rng.choice(EPSILONS),
        "ansatz_iterations": _log_uniform_int(rng, 1, 1000),
        "classical_prep_time": round(rng.uniform(0.0, 10.0), 3),
    }
    if grouping is not None:
        record["pauli_grouping"] = grouping
    if family == "qaoa":
        record["qaoa_layers"] = rng.randint(1, 20)
    record["mitigation"] = {
        "enabled": rng.random() < 0.5,
        "exponent_coefficient": rng.choice((0.5, 1.0, 2.0)),
    }
    return record


def random_workloads(seed: int, count: int) -> list[dict]:
    rng = random.Random(seed)
    return [random_workload(rng, i) for i in range(count)]


def _write_json(path: Path, value: object) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(value, separators=(",", ":")) + "\n", encoding="utf-8")
    return path


def write_cli_inputs(seed: int, dest: Path) -> dict:
    """Files for the cli-calls workload, plus the seeded call order."""
    rng = random.Random(f"cli-calls:{seed}")
    estimate = {
        "id": "estimate-vqe-72", "family": "vqe", "data_qubits": 72, "depth": 72,
        "target_epsilon": 0.001, "pauli_grouping": "none",
        "ansatz_iterations": _log_uniform_int(rng, 10, 1000),
        "classical_prep_time": round(rng.uniform(0.1, 10.0), 3),
    }
    compare = {
        "id": "compare-29q", "family": "vqe", "data_qubits": 29,
        "depth": _log_uniform_int(rng, 1, 200), "target_epsilon": rng.choice(EPSILONS),
        "pauli_grouping": "grouped", "ansatz_iterations": _log_uniform_int(rng, 1, 1000),
        "classical_prep_time": round(rng.uniform(0.0, 10.0), 3),
    }
    classical_runtime = round(math.exp(rng.uniform(math.log(1.0), math.log(1e6))), 3)
    # Robustness probes: (a) exp() overflow in the mitigation multiplier,
    # (b) an infinite memory figure in a classical profile.
    probe_overflow = {
        "id": "probe-400x400", "family": "vqe", "data_qubits": 400, "depth": 400,
        "target_epsilon": 0.001, "ansatz_iterations": 10,
        "mitigation": {"enabled": True, "exponent_coefficient": 1.0},
    }
    order = list(CLI_CYCLE)
    rng.shuffle(order)
    files = {
        "anchors": _write_json(dest / "anchors.json", list(ANCHORS)),
        "estimate": _write_json(dest / "estimate.json", estimate),
        "compare": _write_json(dest / "compare.json", compare),
        "compare_profile": _write_json(
            dest / "compare_profile.json", {"runtime_s": classical_runtime, "classical_ref": COMPARE_REF}
        ),
        "probe_overflow": _write_json(dest / "probe_overflow.json", probe_overflow),
        # json.dumps writes float("inf") as the non-standard literal Infinity,
        # which Python's json module (and so the program) accepts.
        "probe_profile": _write_json(
            dest / "probe_profile.json", {"runtime_s": classical_runtime, "memory_bytes": math.inf}
        ),
    }
    return {"files": files, "order": order, "docs": {
        "estimate": estimate, "compare": compare, "classical_runtime": classical_runtime,
    }}


def _split(workloads: list[dict], parts: int) -> list[list[dict]]:
    size = -(-len(workloads) // parts)
    return [workloads[i:i + size] for i in range(0, len(workloads), size)]


def write_grid_inputs(seed: int, dest: Path, count: int = GRID_WORKLOADS, parts: int = PARTS) -> dict:
    """The grid's workloads as ``parts`` files; files and docs are lists, one entry per file."""
    chunks = _split(random_workloads(seed, count), parts)
    return {
        "files": {"grid": [_write_json(dest / f"grid-{i}.json", chunk) for i, chunk in enumerate(chunks)]},
        "docs": {"grid": chunks},
    }


def sweep_profile(seed: int) -> dict:
    """The fixed classical side of every estimate-sweep record."""
    rng = random.Random(f"estimate-sweep:{seed}")
    runtime = round(math.exp(rng.uniform(math.log(1e2), math.log(1e7))), 3)
    return {"runtime_s": runtime, "energy_j": runtime * 30_000.0, "memory_bytes": 2**41}


def write_sweep_inputs(seed: int, dest: Path, count: int = SWEEP_WORKLOADS, parts: int = PARTS,
                       in_range=None) -> dict:
    """The sweep's workloads as ``parts`` files (lists, as for the grid), its defect set and profile.

    ``in_range(workload)`` says whether a draw's budgets stay within float
    range; the draws it rejects go, in order, to the one defect file instead
    of the parts.  Without it every draw goes to the parts.
    """
    drawn = random_workloads(seed, count)
    kept = [w for w in drawn if in_range is None or in_range(w)]
    defects = [w for w in drawn if in_range is not None and not in_range(w)]
    chunks = _split(kept, parts)
    profile = sweep_profile(seed)
    return {
        "files": {
            "sweep": [_write_json(dest / f"sweep-{i}.json", chunk) for i, chunk in enumerate(chunks)],
            "sweep_defects": _write_json(dest / "sweep-defects.json", defects),
            "sweep_profile": _write_json(dest / "sweep_profile.json", profile),
        },
        "docs": {"sweep": chunks, "defects": defects, "profile": profile},
    }
