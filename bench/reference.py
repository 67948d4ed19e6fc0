"""Independent reference for the benchmark's output checks.

Nothing here imports the program under test.  Verdicts, shot budgets,
runtimes, energies and advantage outcomes are recomputed from the model
definitions (1/(N*d), 1/eps^2 shots per string, exp(c*e*N*d) mitigation,
iterations x (prep + shots x shot time), power x time) and the bundled
catalog's data, and every report the program prints is checked against them.

Each ``check_*`` function returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import csv
import io
import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

#: Quartic coefficient for ungrouped VQE: exactly 330,816 strings at 72 qubits.
VQE_COEFF = 330816 / 72**4
MARGINAL_BAND = 10.0
PARITY_BAND = 0.05
AXES = ("space", "speed", "quality", "energetic", "cost")
VERDICT_ORDER = {"go": 0, "marginal": 1, "no-go": 2, "no-go (capacity)": 3}
CAPACITY = "no-go (capacity)"
MAX_PROBLEMS = 5

GRID_CSV_HEADER = [
    "verdict", "qpu_id", "workload_id", "required_error_rate", "available_error_rate",
    "success_probability", "optimistic", "note",
]


def _close(a: float, b: float, rel: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-300)


def _lead_float(text: str) -> float:
    return float(text.split()[0])


def snap_ceil(value: float) -> int:
    """Ceiling, except that values within relative 1e-9 of an integer snap to it
    (so 1/0.01^2 is 10000 shots, not 10001)."""
    nearest = round(value)
    if nearest >= 1 and abs(value - nearest) <= 1e-9 * nearest:
        return int(nearest)
    return math.ceil(value)


class Reference:
    """Model reference values over the catalog data (a parsed JSON document)."""

    def __init__(self, catalog_doc: dict):
        self.qpus = catalog_doc["qpus"]
        self.qpu_by_id = {q["id"]: q for q in self.qpus}
        self.refs = {r["id"]: r for r in catalog_doc.get("classical_refs", [])}

    @classmethod
    def from_root(cls, root: Path) -> "Reference":
        path = root / "src" / "nisq_gonogo" / "data" / "catalog.json"
        return cls(json.loads(path.read_text(encoding="utf-8")))

    # fidelity rule -------------------------------------------------------

    @staticmethod
    def verdict(qpu: dict, n: int, d: int, band: float = MARGINAL_BAND) -> tuple[str, float]:
        """(label, required error rate); capacity misses are labelled as such."""
        if n > qpu["qubit_count"]:
            return CAPACITY, math.inf
        required = 1.0 / (n * d)
        err = qpu["two_qubit_error_median"]
        if err < required:
            return "go", required
        if err < band * required:
            return "marginal", required
        return "no-go", required

    # shot budget, runtime, energy ---------------------------------------

    @staticmethod
    def strings(w: dict) -> int:
        if w["family"] == "qaoa":
            return 2 * w["qaoa_layers"]
        if w["family"] == "vqe" and w.get("pauli_grouping", "none") == "none":
            return max(1, round(VQE_COEFF * w["data_qubits"] ** 4))
        return w["data_qubits"]

    @staticmethod
    def shots_per_string(eps: float) -> int:
        return snap_ceil(1.0 / (eps * eps))

    @classmethod
    def total_shots(cls, w: dict, err: float) -> int | None:
        """Shots per iteration, or None when the budget passes float range."""
        base = cls.strings(w) * cls.shots_per_string(w["target_epsilon"])
        mitigation = w.get("mitigation") or {}
        if not mitigation.get("enabled", False):
            return base
        try:
            multiplier = math.exp(mitigation.get("exponent_coefficient", 1.0) * (err * (w["data_qubits"] * w["depth"])))
        except OverflowError:
            return None
        if multiplier == 1.0:
            return base
        product = base * multiplier
        return None if math.isinf(product) else math.ceil(product)

    @staticmethod
    def total_time(qpu: dict, w: dict, shots: int) -> float:
        shot_time = qpu["reset_time"] + w["depth"] * qpu["two_qubit_gate_time"] + qpu["readout_time"]
        iteration = w.get("classical_prep_time", 0.0) + shots * shot_time / 1
        return w["ansatz_iterations"] * iteration

    @staticmethod
    def power(qpu: dict) -> float:
        return sum(
            c["unit_power_w"] * (qpu["qubit_count"] if c.get("per_qubit", False) else c.get("count", 1))
            for c in qpu.get("power_components", [])
        )

    # advantage axes ------------------------------------------------------

    @staticmethod
    def _lower_is_better(q, c, band: float) -> str:
        if q is None or c is None:
            return "not-evaluated"
        if q < (1.0 - band) * c:
            return "advantage"
        if c < (1.0 - band) * q:
            return "disadvantage"
        return "parity"

    @classmethod
    def axes(cls, quantum: dict, classical: dict, band: float = PARITY_BAND) -> list[str]:
        """Outcomes in AXES order; profiles are dicts with the profile fields."""
        qm, cm = quantum.get("memory_bytes"), classical.get("memory_bytes")
        if qm is None or cm is None:
            space = "not-evaluated"
        else:
            space = "advantage" if qm > cm else "disadvantage" if qm < cm else "parity"
        return [
            space,
            cls._lower_is_better(quantum["runtime_s"], classical["runtime_s"], band),
            cls._lower_is_better(classical.get("quality"), quantum.get("quality"), band),
            cls._lower_is_better(quantum.get("energy_j"), classical.get("energy_j"), band),
            cls._lower_is_better(quantum.get("cost"), classical.get("cost"), band),
        ]

    def estimate(self, qpu: dict, w: dict) -> dict | None:
        """Reference resource record, or None when it passes float range."""
        shots = self.total_shots(w, qpu["two_qubit_error_median"])
        if shots is None:
            return None
        total_time = self.total_time(qpu, w, shots)
        power = self.power(qpu)
        return {
            "strings": self.strings(w),
            "per_string": self.shots_per_string(w["target_epsilon"]),
            "total_shots": shots,
            "total_time": total_time,
            "power": power,
            "job_energy": power * total_time,
            "verdict": self.verdict(qpu, w["data_qubits"], w["depth"])[0],
        }

    def in_float_range(self, w: dict) -> bool:
        """Whether every QPU's shot budget, runtime and energy for ``w`` are finite floats.

        Workloads outside it reach ROADMAP item 2(a): the program raises
        ``OverflowError`` or reports an infinite energy for them.
        """
        for qpu in self.qpus:
            want = self.estimate(qpu, w)
            if want is None or not (math.isfinite(want["total_time"]) and math.isfinite(want["job_energy"])):
                return False
        return True


# feasibility reports ------------------------------------------------------


class GridReference:
    """Expected verdict and required error rate for every (qpu, workload) pair."""

    def __init__(self, ref: Reference, workloads: list[dict]):
        self.ref = ref
        self.workloads = {w["id"]: w for w in workloads}
        self.table = {
            (q["id"], w["id"]): ref.verdict(q, w["data_qubits"], w["depth"])
            for w in workloads
            for q in ref.qpus
        }
        self.go = sum(1 for label, _ in self.table.values() if label == "go")

    @property
    def exit_code(self) -> int:
        """The CLI exits 0 when some pair reaches go and 2 when none does."""
        return 0 if self.go else 2

    def check_rows(self, rows, problems: list[str], exact: bool) -> int:
        """Check parsed rows (verdict, qpu, workload, required, available, success, other_ok).

        Returns the number of bad rows; also checks the row set and sort order.
        """
        seen: set = set()
        bad = 0
        last_key = None
        rel = 1e-12 if exact else 1e-5
        for label, qpu_id, wid, required, available, success, other_ok in rows:
            key = (qpu_id, wid)
            want = self.table.get(key)
            row_ok = other_ok and want is not None and key not in seen
            seen.add(key)
            if want is not None:
                want_label, want_required = want
                if label != want_label:
                    row_ok = False
                elif label != CAPACITY:
                    w = self.workloads[wid]
                    err = self.ref.qpu_by_id[qpu_id]["two_qubit_error_median"]
                    want_success = (1.0 - err) ** (w["data_qubits"] * w["depth"])
                    try:
                        row_ok = row_ok and (
                            _close(float(required), want_required, rel)
                            and _close(float(available), err, rel)
                            and _close(float(success), want_success, rel)
                        )
                    except ValueError:
                        row_ok = False
                sort_key = (VERDICT_ORDER[want_label], want_required, qpu_id, wid)
                if last_key is not None and sort_key < last_key:
                    row_ok = False
                    if len(problems) < MAX_PROBLEMS:
                        problems.append(f"rows out of order at ({qpu_id}, {wid})")
                last_key = sort_key
            if not row_ok:
                bad += 1
                if len(problems) < MAX_PROBLEMS:
                    problems.append(f"row ({qpu_id}, {wid}) reads {label!r}, expected {want}")
        missing = len(self.table) - len(seen & self.table.keys())
        if missing:
            problems.append(f"{missing} of {len(self.table)} (qpu, workload) pairs missing")
            bad += missing
        return bad


def check_feasibility_csv(text: str, grid: GridReference) -> tuple[int, list[str]]:
    """(bad pair count, problems) for a ``feasibility --format csv`` report."""
    problems: list[str] = []
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != GRID_CSV_HEADER:
        return len(grid.table), [f"csv header reads {header!r}"]
    rows = []
    for fields in reader:
        if len(fields) != len(GRID_CSV_HEADER):
            problems.append(f"csv row with {len(fields)} fields")
            continue
        verdict, qpu_id, wid, required, available, success, optimistic, _note = fields
        qpu = grid.ref.qpu_by_id.get(qpu_id, {})
        # the flag is set when the qpu's error-rate spread is unreported
        want_optimistic = "" if verdict == CAPACITY else str(qpu.get("two_qubit_error_stddev") is None).lower()
        rows.append((verdict, qpu_id, wid, required, available, success, optimistic == want_optimistic))
    return grid.check_rows(rows, problems, exact=True), problems


def check_feasibility_md(text: str, grid: GridReference) -> tuple[int, list[str]]:
    """(bad pair count, problems) for a markdown feasibility report."""
    problems: list[str] = []
    rows = []
    summary = None
    for line in text.split("\n"):
        if line.startswith("| ") and not line.startswith("| verdict |"):
            fields = line[2:-2].split(" | ")
            if len(fields) != 7:
                problems.append(f"table row with {len(fields)} fields")
                continue
            verdict, qpu_id, wid, required, available, success, _note = fields
            rows.append((verdict, qpu_id, wid, required, available.split(" (")[0], success, True))
        elif line.endswith("(qpu, workload) pairs reach go."):
            summary = line
    bad = grid.check_rows(rows, problems, exact=False)
    want_summary = f"{grid.go} of {len(grid.table)} (qpu, workload) pairs reach go."
    if summary != want_summary:
        problems.append(f"summary line reads {summary!r}, expected {want_summary!r}")
        bad = max(bad, 1)
    return bad, problems


# single-record reports ----------------------------------------------------


def _line(text: str, prefix: str) -> str | None:
    for line in text.split("\n"):
        if line.startswith(prefix):
            return line[len(prefix):]
    return None


def check_estimate_md(text: str, ref: Reference, qpu_id: str, w: dict) -> list[str]:
    qpu = ref.qpu_by_id[qpu_id]
    want = ref.estimate(qpu, w)
    if want is None:
        return ["reference budget is unbounded; a finite report cannot be right"]
    problems = []
    if w["data_qubits"] == 72 and w["family"] == "vqe" and w.get("pauli_grouping", "none") == "none":
        if want["strings"] != 330816:
            problems.append("reference lost the 330,816-string anchor")
    if w["target_epsilon"] == 1e-3 and want["per_string"] != 10**6:
        problems.append("reference lost the 10^6 shots-per-string anchor")
    expect = {
        "- measurement strings: ": f"{want['strings']} strings",
        "- shots per string: ": f"{want['per_string']} shots",
    }
    for prefix, value in expect.items():
        if _line(text, prefix) != value:
            problems.append(f"{prefix.strip()} reads {_line(text, prefix)!r}, expected {value!r}")
    shots_line = _line(text, "- total shots per iteration: ") or ""
    if not shots_line.startswith(f"{want['total_shots']} shots"):
        problems.append(f"total shots reads {shots_line!r}, expected {want['total_shots']}")
    feas_line = _line(text, "feasibility: ") or ""
    if feas_line.split(" ")[0] != want["verdict"].split(" ")[0]:
        problems.append(f"feasibility reads {feas_line!r}, expected {want['verdict']}")
    try:
        if not _close(_lead_float(_line(text, "- total: ") or "nan"), want["total_time"], 1e-5):
            problems.append(f"total runtime reads {_line(text, '- total: ')!r}, expected {want['total_time']}")
        if not _close(_lead_float(_line(text, "- job energy: ") or "nan"), want["job_energy"], 1e-5):
            problems.append(f"job energy reads {_line(text, '- job energy: ')!r}, expected {want['job_energy']}")
    except ValueError as exc:
        problems.append(f"unparsable number: {exc}")
    return problems


def _quantum_profile(want: dict, qubits: int) -> dict:
    """The quantum side of a comparison: energy only when the qpu reports power,
    and the 2^(4+N)-byte statevector as its memory."""
    return {
        "runtime_s": want["total_time"],
        "energy_j": want["job_energy"] if want["power"] != 0.0 else None,
        "memory_bytes": 1 << (qubits + 4),
    }


def quantum_side(ref: Reference, qpu_id: str, w: dict) -> dict | None:
    """The quantum profile the compare command builds, from the reference."""
    want = ref.estimate(ref.qpu_by_id[qpu_id], w)
    return None if want is None else _quantum_profile(want, w["data_qubits"])


def classical_side(ref: Reference, profile: dict) -> dict:
    out = dict(profile)
    ref_id = profile.get("classical_ref")
    if ref_id is not None:
        machine = ref.refs[ref_id]
        if out.get("energy_j") is None:
            out["energy_j"] = machine["power_draw"] * float(profile["runtime_s"])
        if out.get("memory_bytes") is None:
            out["memory_bytes"] = machine["memory_capacity"]
    return out


def check_compare_md(text: str, ref: Reference, qpu_id: str, w: dict, profile: dict) -> list[str]:
    quantum = quantum_side(ref, qpu_id, w)
    if quantum is None:
        return ["reference runtime is unbounded; a finite report cannot be right"]
    problems = []
    header = _line(text, "quantum side: ") or ""
    if w["data_qubits"] == 29 and "state space 8 GiB (29 qubits)" not in header:
        problems.append(f"29-qubit statevector anchor missing from {header!r}")
    try:
        runtime = _lead_float(header.split("runtime ", 1)[1])
        if not _close(runtime, quantum["runtime_s"], 1e-5):
            problems.append(f"quantum runtime reads {runtime}, expected {quantum['runtime_s']}")
    except (IndexError, ValueError):
        problems.append(f"quantum side line unreadable: {header!r}")
    want = ref.axes(quantum, classical_side(ref, profile))
    for axis, outcome in zip(AXES, want):
        if f"| {axis} | {outcome} |" not in text:
            problems.append(f"axis {axis}: expected {outcome}")
    return problems


def check_catalog_md(text: str, ref: Reference) -> list[str]:
    problems = []
    for q in ref.qpus:
        status = q["status"]
        row = _line(text, f"| {q['id']} | ") or ""
        fields = row.rstrip(" |").split(" | ")
        if len(fields) != 5:
            problems.append(f"catalog row for {q['id']} unreadable: {row!r}")
            continue
        modality, qubits, error, got_status, power = fields
        if (modality, qubits, got_status) != (q["modality"], str(q["qubit_count"]), status):
            problems.append(f"catalog row for {q['id']} reads {row!r}")
        if float(error.split(" (")[0]) != q["two_qubit_error_median"]:
            problems.append(f"catalog error rate for {q['id']} reads {error!r}")
        if (power == "unreported") != (ref.power(q) == 0):
            problems.append(f"catalog power for {q['id']} reads {power!r}")
    summary = f"{len(ref.qpus)} qpus, {len(ref.refs)} classical refs."
    if summary not in text.split("\n"):
        problems.append(f"summary line {summary!r} missing")
    return problems


def check_scatter(stdout: str, csv_path: Path, svg_path: Path, ref: Reference) -> list[str]:
    problems = []
    if stdout != f"wrote {csv_path}\nwrote {svg_path}\n":
        problems.append(f"scatter stdout reads {stdout!r}")
    try:
        rows = list(csv.reader(io.StringIO(csv_path.read_text(encoding="utf-8"))))
        svg = ET.fromstring(svg_path.read_bytes())
    except (OSError, ET.ParseError) as exc:
        return problems + [f"scatter files unreadable: {exc}"]
    want_rows = [["qpu_id", "qubit_count", "two_qubit_error_median", "status", "modality"]] + [
        [q["id"], str(q["qubit_count"]), str(q["two_qubit_error_median"]), q["status"], q["modality"]]
        for q in ref.qpus
    ]
    if rows != want_rows:
        problems.append("scatter csv rows differ from the catalog")
    titles = [t.text or "" for t in svg.iter("{http://www.w3.org/2000/svg}title")]
    if [t.split(":")[0] for t in titles] != [q["id"] for q in ref.qpus]:
        problems.append(f"scatter svg markers read {titles!r}")
    return problems


def probe_passes(exit_code: int, stderr: str) -> bool:
    """A robustness probe passes with a report or a one-line error, never a traceback."""
    return exit_code in (0, 1) and "Traceback" not in stderr


# estimate-sweep records --------------------------------------------------


def check_sweep_record(record: list, ref: Reference, w: dict, qpu: dict, classical: dict) -> list[str]:
    """Check one record written by ``sweep.run_sweep`` (status None = completed)."""
    _wi, _qi, status, strings, per_string, total_shots, total_time, job_energy, power, lines, axes = record
    want = ref.estimate(qpu, w)
    where = f"{w['id']} on {qpu['id']}"
    if want is None:
        return [f"{where}: finite result where the budget passes float range"]
    problems = []
    if (strings, per_string, total_shots) != (want["strings"], want["per_string"], want["total_shots"]):
        problems.append(f"{where}: shots {(strings, per_string, total_shots)} != {want['strings'], want['per_string'], want['total_shots']}")
    if not (_close(total_time, want["total_time"], 1e-9) and _close(power, want["power"], 1e-12)
            and _close(job_energy, want["job_energy"], 1e-9)):
        problems.append(f"{where}: runtime/power/energy {(total_time, power, job_energy)} off the reference")
    feas_line, shots_line, energy_line = lines
    if feas_line is None or feas_line.split(" ")[1] != want["verdict"].split(" ")[0]:
        problems.append(f"{where}: {feas_line!r}, expected {want['verdict']}")
    if shots_line is None or not shots_line.startswith(f"- total shots per iteration: {want['total_shots']} shots"):
        problems.append(f"{where}: {shots_line!r}")
    if energy_line is None or not _close(_lead_float(energy_line[len("- job energy: "):]), want["job_energy"], 1e-5):
        problems.append(f"{where}: {energy_line!r}")
    want_axes = ref.axes(_quantum_profile(want, w["data_qubits"]), classical)
    if list(axes) != want_axes:
        problems.append(f"{where}: axes {axes} != {want_axes}")
    return problems
