"""Command-line front end.

    nisq-gonogo feasibility --workload jobs.json [--catalog hw.json]
    nisq-gonogo estimate    --workload jobs.json --qpu ibm-heron
    nisq-gonogo scatter     --out landscape.svg
    nisq-gonogo compare     --workload job.json --qpu ibm-flamingo --classical ref.json
    nisq-gonogo catalog

Reports are deterministic: identical inputs and flags produce byte-identical
text and CSV (the SVG can differ only in its version comment line).  Exit
codes: 0 success (feasibility: at least one go), 2 feasibility ran but no
pair reached go, 1 input or I/O error.
"""

from __future__ import annotations

import _thread
import argparse
import atexit
import functools
import gc
import itertools
import math
import operator
import os
import sys
import warnings
from collections import namedtuple
from collections.abc import Sequence

from . import advantage as adv
from . import energy as energy_mod
from . import feasibility as feas
from . import runtime as runtime_mod
from . import workload as workload_mod
from .catalog import Catalog, QpuSpec, bundled_catalog, parse_catalog
from .fields import Checker, InputWarning, decode, keys_of
from .scatter import scatter_csv, scatter_svg
from .units import (
    as_float,
    csv_field,
    format_bytes,
    format_fidelity_percent,
    format_joules,
    format_power_of_two_bytes,
    format_seconds,
    format_watts,
    sci,
)

ENV_CATALOG = "NISQ_GONOGO_CATALOG"

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO_GO = 2

_CAPACITY_LABEL = "no-go (capacity)"
_VERDICT_TEXT = {verdict: verdict.value for verdict in feas.Verdict}
_FIRST = _RATE = operator.itemgetter(0)
_RATE_AND_ID = operator.itemgetter(0, 1)


VerdictRow = namedtuple("VerdictRow", ("qpu_id", "workload_id", "verdict", "note"), defaults=("",))
VerdictRow.__doc__ = """One (qpu, workload) row of a feasibility report.

Fields: ``qpu_id`` and ``workload_id`` (str); ``verdict``
(:class:`~nisq_gonogo.feasibility.FeasibilityVerdict`, or None when the
workload needs more qubits than the qpu has); ``note`` (str, default empty).
"""

ResourceRecord = namedtuple("ResourceRecord", ("plan", "runtime", "energy"))
ResourceRecord.__doc__ = """The estimate of one workload on one qpu.

Fields: ``plan`` (:class:`~nisq_gonogo.workload.ShotPlan`), ``runtime``
(:class:`~nisq_gonogo.runtime.RuntimeEstimate`) and ``energy``
(:class:`~nisq_gonogo.energy.EnergyEstimate`).
"""


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as file:
        return file.read()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as file:
        file.write(text)


def _write_all(*files: tuple[str, str]) -> None:
    """Write each (path, text), or none of them if a path cannot be opened.

    Every path is opened before any is written, in append mode so that no
    file is truncated yet; if an open fails, the files it created are removed.
    """
    created = {path for path, _ in files if not os.path.lexists(path)}
    opened = []
    try:
        for path, _ in files:
            opened.append(open(path, "a", encoding="utf-8"))
    except OSError:
        for file in opened:
            file.close()
            if file.name in created:
                os.remove(file.name)
        raise
    for file, (_, text) in zip(opened, files):
        with file:
            file.truncate(0)
            file.write(text)


def load_catalog(path: str | None, *, strict: bool) -> Catalog:
    """Load a catalog from --catalog, $NISQ_GONOGO_CATALOG, or the bundle."""
    if path is None:
        path = os.environ.get(ENV_CATALOG)
    if path is None:
        return bundled_catalog()
    return parse_catalog(_read(path), strict=strict)


def load_workloads(path: str, *, strict: bool) -> tuple[workload_mod.WorkloadSpec, ...]:
    return workload_mod.parse_workloads(_read(path), strict=strict)


def _is_go(row: VerdictRow) -> bool:
    return row.verdict is not None and row.verdict.verdict is feas.Verdict.GO


def _fit_note(qpu: QpuSpec) -> str:
    """The note of every row in which ``qpu`` fits the workload; it depends on the qpu alone."""
    notes = []
    if qpu.status.value != "available":
        notes.append(f"{qpu.status.value} hardware")
    if qpu.two_qubit_error_stddev is None:  # the verdict's ``optimistic``
        notes.append("optimistic: error-rate spread unreported")
    return "; ".join(notes)


def _grid_qpus(qpus: Sequence[QpuSpec]) -> list[tuple]:
    """Each qpu's fields that a grid row reads, ids ascending; a catalog holds each id once."""
    fields = [
        (qpu.id, qpu.qubit_count, qpu.two_qubit_error_median, qpu.two_qubit_error_stddev is None, _fit_note(qpu))
        for qpu in qpus
    ]
    return sorted(fields, key=_FIRST)


def _checked_shapes(workloads: Sequence[workload_mod.WorkloadSpec], qpus: Sequence[QpuSpec]) -> list[feas.CircuitShape]:
    """Each workload's shape, raising where ``assess`` would raise on a pair, in pair order.

    ``assess`` rejects an error rate out of range only on a pair that fits
    the qpu, so a qpu whose rate fails its check is set apart once, and the
    first workload that fits it raises that check's error.
    """
    rejected = []
    for qpu in qpus:
        try:
            feas.check_error_rate(qpu.two_qubit_error_median)
        except ValueError:
            rejected.append(qpu)
    shapes = []
    for spec in workloads:
        shape = spec.shape
        for qpu in rejected:
            if shape.breadth <= qpu.qubit_count:
                feas.check_error_rate(qpu.two_qubit_error_median)
        shapes.append(shape)
    return shapes


def build_feasibility_bundle(
    catalog: Catalog,
    workloads: tuple[workload_mod.WorkloadSpec, ...],
    *,
    marginal_band: float = feas.DEFAULT_MARGINAL_BAND,
) -> tuple[VerdictRow, ...]:
    """One row per (qpu, workload) pair, in report order.

    Rows run by verdict (go, marginal, no-go, then capacity misses), then by
    required error rate ascending, then by qpu id, then by workload id; rows
    equal on every key differ only by workload and keep file order.  The rows
    are built in that order, so only the workloads and the qpu ids are
    sorted: for each run of workloads of one required rate, each qpu in id
    order takes the run's workloads in (id, file) order.  A verdict depends
    on the qpu and the workload's exact volume alone, so a record is built on
    the first row that fits and shared by the rows after it until the exact
    volume changes (two volumes can share one 1/V float).  Raises
    ``ValueError`` as :func:`feasibility.assess` would on the first pair, in
    input order, that it rejects.
    """
    feas.check_marginal_band(marginal_band)  # also when the catalog has no qpus to assess
    shapes = _checked_shapes(workloads, catalog.qpus)
    qpus = _grid_qpus(catalog.qpus)
    rated = sorted(
        [(feas.required_error_rate(shape), spec.id, shape) for spec, shape in zip(workloads, shapes)],
        key=_RATE_AND_ID,
    )
    # Rows and records are made with ``tuple.__new__``, not the named tuples'
    # keyword ``__new__``: a grid call makes tens of thousands of them.
    new = tuple.__new__
    lists = {verdict: [] for verdict in feas.Verdict}
    for rate, tied in itertools.groupby(rated, key=_RATE):
        members = [(workload_id, shape.breadth, shape.volume, shape) for _, workload_id, shape in tied]
        for qpu_id, qubits, available, optimistic, note in qpus:
            last_volume = None
            for workload_id, breadth, volume, shape in members:
                if breadth > qubits:
                    continue  # a capacity miss: its row is made below
                if volume != last_volume:
                    last_volume = volume
                    verdict = feas.rate_verdict(rate, available, marginal_band)
                    record = new(
                        feas.FeasibilityVerdict,
                        (rate, available, feas.success_probability(available, shape), verdict, optimistic),
                    )
                    out = lists[verdict]
                out.append(new(VerdictRow, (qpu_id, workload_id, record, note)))
    # The capacity test of ``assess``, made here so that no CapacityError is
    # raised per miss; each note is formatted once per (breadth, qubit count).
    capacity_note = functools.cache(lambda breadth, qubits: f"insufficient qubits: needs {breadth}, has {qubits}")
    by_id = sorted([(spec.id, shape.breadth) for spec, shape in zip(workloads, shapes)], key=_FIRST)
    misses = [
        new(VerdictRow, (qpu_id, workload_id, None, capacity_note(breadth, qubits)))
        for qpu_id, qubits, _, _, _ in qpus
        for workload_id, breadth in by_id
        if breadth > qubits
    ]
    return (*lists[feas.Verdict.GO], *lists[feas.Verdict.MARGINAL], *lists[feas.Verdict.NO_GO], *misses)


class _Texts(dict):
    """Value -> its text, made by ``make_text`` on first use; a lookup costs no Python call.

    A zero is formatted afresh each time and never kept: ``0``, ``0.0`` and
    ``-0.0`` are one dict key but three texts.
    """

    __slots__ = ("make_text",)

    def __init__(self, make_text):
        super().__init__()
        self.make_text = make_text

    def __missing__(self, value):
        text = self.make_text(value)
        if value != 0:
            self[value] = text
        return text


def render_feasibility_md(bundle: Sequence[VerdictRow]) -> str:
    # Rates and success probabilities repeat across rows: each distinct value is
    # formatted once, and a run of rows that share a verdict record shares its text.
    number_text = _Texts(sci)
    available_text = _Texts(lambda rate: f"{sci(rate)} ({format_fidelity_percent(rate, 2)})")
    lines = ["# Feasibility report", ""]
    lines.append(
        "| verdict | qpu | workload | required error rate | available error rate (fidelity) | success probability | note |"
    )
    lines.append("|---|---|---|---|---|---|---|")
    go = 0
    last = None
    for qpu_id, workload_id, v, note in bundle:
        if v is None:
            lines.append(f"| {_CAPACITY_LABEL} | {qpu_id} | {workload_id} | - | - | - | {note} |")
            continue
        if v is not last:
            last = v
            verdict = _VERDICT_TEXT[v.verdict]
            is_go = verdict == "go"
            numbers = (
                f"{number_text[v.required_error_rate]} | {available_text[v.available_error_rate]} "
                f"| {number_text[v.success_probability]}"
            )
        go += is_go
        lines.append(f"| {verdict} | {qpu_id} | {workload_id} | {numbers} | {note} |")
    lines.append("")
    lines.append(f"{go} of {len(bundle)} (qpu, workload) pairs reach go.")
    return "\n".join(lines) + "\n"


_FEASIBILITY_CSV_HEADER = (
    "verdict,qpu_id,workload_id,required_error_rate,available_error_rate,success_probability,optimistic,note\n"
)


def render_feasibility_csv(bundle: Sequence[VerdictRow]) -> str:
    # Each row is one f-string: ids and notes are quoted once per distinct text,
    # each distinct number is formatted once, and the number fields are built
    # once per run of rows that share a verdict record.  Verdict labels, numbers
    # and "true"/"false" hold nothing that CSV quotes.
    field = _Texts(csv_field)
    number_text = _Texts(str)
    lines = [_FEASIBILITY_CSV_HEADER]
    last = None
    for qpu_id, workload_id, v, note in bundle:
        if v is None:
            lines.append(f"{_CAPACITY_LABEL},{field[qpu_id]},{field[workload_id]},,,,,{field[note]}\n")
            continue
        if v is not last:
            last = v
            verdict = _VERDICT_TEXT[v.verdict]
            numbers = (
                f"{number_text[v.required_error_rate]},{number_text[v.available_error_rate]},"
                f"{number_text[v.success_probability]},{'true' if v.optimistic else 'false'}"
            )
        lines.append(f"{verdict},{field[qpu_id]},{field[workload_id]},{numbers},{field[note]}\n")
    return "".join(lines)


def _describe_qpu(qpu: QpuSpec) -> str:
    return (
        f"{qpu.id} ({qpu.modality.value}, {qpu.qubit_count} qubits, "
        f"two-qubit error {qpu.two_qubit_error_median} = fidelity "
        f"{format_fidelity_percent(qpu.two_qubit_error_median, 2)}, {qpu.status.value})"
    )


@functools.lru_cache(maxsize=256)
def _estimate_qpu_lines(qpu: QpuSpec) -> tuple[str, str, str]:
    """The parts of an estimate report that depend on the qpu alone, made once per distinct qpu value.

    They are the ``qpu:`` line, the power draw with its component lines, and
    the no-power-data note (empty when the qpu reports power components).
    """
    power = [f"- power draw: {format_watts(energy_mod.power_draw(qpu))}"]
    power.extend(f"  - {label}: {format_watts(watts)}" for label, watts in energy_mod.power_breakdown(qpu))
    note = "" if qpu.power_components else "\n  (no power data reported for this qpu)"
    return f"qpu: {_describe_qpu(qpu)}", "\n".join(power), note


def build_estimate_record(
    qpu: QpuSpec,
    spec: workload_mod.WorkloadSpec,
    *,
    parallel_shots: int = 1,
    qaoa_aggregate: bool = False,
) -> ResourceRecord:
    plan = workload_mod.shot_plan(spec, qpu.two_qubit_error_median, qaoa_aggregate=qaoa_aggregate)
    rt = runtime_mod.estimate_runtime(qpu, spec, plan, parallel_shots=parallel_shots)
    en = energy_mod.estimate_energy(qpu, rt)
    return ResourceRecord(plan, rt, en)


def _count_text(count: int | float, unit: str) -> str:
    """A string or shot count: an int in full, a float (a count above 2**53) by :func:`sci`;
    a count beyond float range reads unbounded."""
    value = as_float(count)
    if value == math.inf:
        return f"inf {unit} (unbounded)"
    return f"{count} {unit}" if type(count) is int else f"{sci(value)} {unit}"


def render_estimate_md(record: ResourceRecord, qpu: QpuSpec, spec: workload_mod.WorkloadSpec) -> str:
    """The markdown estimate of ``spec`` on ``qpu``; ``record`` is :func:`build_estimate_record`'s for the pair."""
    plan, rt, en = record
    qpu_line, power_lines, power_note = _estimate_qpu_lines(qpu)
    # the capacity test of ``assess``, made here so that no CapacityError is raised per miss
    if spec.data_qubits > qpu.qubit_count:
        feasibility = f"no-go ({feas.capacity_message(spec.data_qubits, qpu)})"
    else:
        required = feas.required_error_rate(spec.shape)
        available = qpu.two_qubit_error_median  # checked by the record's shot plan
        feasibility = (
            f"{_VERDICT_TEXT[feas.rate_verdict(required, available)]} "
            f"(required error rate {sci(required)}, available {sci(available)})"
        )
    total_shots = _count_text(plan.total_shots, "shots")
    if type(plan.total_shots) is int and as_float(plan.total_shots) < math.inf:  # an int count also reads in sci
        total_shots += f" ({sci(plan.total_shots)})"
    lines = [
        f"# Resource estimate: {spec.id} on {qpu.id}",
        "",
        f"workload: {spec.family.value}, {spec.data_qubits} data qubits, depth {spec.depth} cycles, "
        f"target epsilon {spec.target_epsilon}, {spec.ansatz_iterations} iterations",
        qpu_line,
        f"feasibility: {feasibility}",
        "",
        f"shot plan ({plan.model} accounting):",
        f"- measurement strings: {_count_text(plan.pauli_strings, 'strings')}",
        f"- shots per string: {_count_text(plan.shots_per_string, 'shots')}",
        f"- mitigation multiplier: {sci(plan.mitigation_multiplier)} x",
        f"- total shots per iteration: {total_shots}",
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


_PROFILE_KEYS = keys_of(adv.SolutionProfile) | {"classical_ref"}


def _read_classical_profile(path: str, catalog: Catalog, *, strict: bool) -> tuple[adv.SolutionProfile, list[str]]:
    raw = decode(_read(path), "classical profile", ValueError)
    checker = Checker(ValueError, strict)
    fields = checker.record(raw, "classical profile", _PROFILE_KEYS)
    runtime_s = fields.number("runtime_s")
    ref_id = fields.text("classical_ref", None)
    ref = None if ref_id is None else catalog.get_classical_ref(ref_id)
    energy_j = fields.number("energy_j", None)
    memory = fields.integer("memory_bytes", None, floats=True)
    notes: list[str] = []
    if energy_j is None and ref is not None:
        energy_j = ref.power_draw * runtime_s
        notes.append(f"classical energy derived from '{ref.id}' power draw x runtime")
    if memory is None and ref is not None:
        memory = ref.memory_capacity
        notes.append(f"classical memory capacity taken from '{ref.id}'")
    profile = adv.SolutionProfile(
        runtime_s=runtime_s,
        energy_j=energy_j,
        cost=fields.number("cost", None),
        quality=fields.number("quality", None),
        memory_bytes=memory,
    )
    return profile, notes


def render_advantage_md(report: adv.AdvantageReport, extra_notes: list[str]) -> str:
    lines = ["# Advantage comparison (quantum vs classical)", ""]
    lines.append("| axis | outcome |")
    lines.append("|---|---|")
    for axis, outcome in report.axes().items():
        lines.append(f"| {axis} | {outcome.value} |")
    notes = list(report.notes) + extra_notes
    if notes:
        lines.append("")
        for note in notes:
            lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"


def render_catalog_md(catalog: Catalog) -> str:
    lines = ["# Hardware catalog", ""]
    lines.append("| qpu | modality | qubits | two-qubit error (fidelity) | status | power |")
    lines.append("|---|---|---|---|---|---|")
    for qpu in catalog.qpus:
        power = energy_mod.power_draw(qpu)
        power_text = format_watts(power) if power > 0 else "unreported"
        lines.append(
            f"| {qpu.id} | {qpu.modality.value} | {qpu.qubit_count} "
            f"| {qpu.two_qubit_error_median} ({format_fidelity_percent(qpu.two_qubit_error_median, 2)}) "
            f"| {qpu.status.value} | {power_text} |"
        )
    lines.append("")
    lines.append("| classical ref | description | power | memory |")
    lines.append("|---|---|---|---|")
    for ref in catalog.classical_refs:
        lines.append(
            f"| {ref.id} | {ref.description} | {format_watts(ref.power_draw)} "
            f"| {format_bytes(ref.memory_capacity)} |"
        )
    lines.append("")
    lines.append(f"{len(catalog.qpus)} qpus, {len(catalog.classical_refs)} classical refs.")
    return "\n".join(lines) + "\n"


def _emit(text: str, out_path: str | None) -> None:
    """Write the report to ``out_path``, if given, then to stdout: a path that
    cannot be written ends the call with the one ``error:`` line and no report."""
    if out_path is not None:
        _write(out_path, text)
    sys.stdout.write(text)


def cmd_feasibility(args: argparse.Namespace, catalog: Catalog) -> int:
    workloads = load_workloads(args.workload, strict=args.strict)
    bundle = build_feasibility_bundle(catalog, workloads, marginal_band=args.marginal_band)
    if args.format == "csv":
        _emit(render_feasibility_csv(bundle), args.out)
    else:
        _emit(render_feasibility_md(bundle), args.out)
    return EXIT_OK if any(_is_go(row) for row in bundle) else EXIT_NO_GO


def cmd_estimate(args: argparse.Namespace, catalog: Catalog) -> int:
    workloads = load_workloads(args.workload, strict=args.strict)
    qpu = catalog.get_qpu(args.qpu)
    sections = []
    for spec in workloads:
        record = build_estimate_record(
            qpu, spec, parallel_shots=args.parallel_shots, qaoa_aggregate=args.qaoa_aggregate
        )
        sections.append(render_estimate_md(record, qpu, spec))
    _emit("\n".join(sections), args.out)
    return EXIT_OK


def cmd_scatter(args: argparse.Namespace, catalog: Catalog) -> int:
    base = os.path.splitext(args.out)[0]  # the path with its suffix, if any, dropped
    if not os.path.basename(base):
        raise ValueError(f"--out {args.out!r} names no file")
    csv_path = base + ".csv"
    svg_path = base + ".svg"
    _write_all((csv_path, scatter_csv(catalog)), (svg_path, scatter_svg(catalog)))
    sys.stdout.write(f"wrote {csv_path}\nwrote {svg_path}\n")
    return EXIT_OK


def cmd_compare(args: argparse.Namespace, catalog: Catalog) -> int:
    workloads = load_workloads(args.workload, strict=args.strict)
    if len(workloads) != 1:
        raise ValueError(f"compare expects exactly one workload, got {len(workloads)}")
    spec = workloads[0]
    qpu = catalog.get_qpu(args.qpu)
    record = build_estimate_record(
        qpu, spec, parallel_shots=args.parallel_shots, qaoa_aggregate=args.qaoa_aggregate
    )
    notes: list[str] = []
    quantum_energy: float | None = record.energy.job_energy
    if record.energy.power_draw == 0.0:
        quantum_energy = None
        notes.append(f"power draw unreported for '{qpu.id}'; energetic axis not evaluated")
    quantum = adv.quantum_profile(
        record.runtime.total_time,
        qubits=spec.data_qubits,
        energy_j=quantum_energy,
    )
    classical, profile_notes = _read_classical_profile(args.classical, catalog, strict=args.strict)
    notes.extend(profile_notes)
    report = adv.classify(quantum, classical, parity_band=args.parity_band)
    header = (
        f"quantum side: {spec.id} on {qpu.id}: runtime {format_seconds(record.runtime.total_time)}, "
        f"state space {format_power_of_two_bytes(spec.data_qubits + feas.AMPLITUDE_BYTES_LOG2)} "
        f"({spec.data_qubits} qubits)\n"
        f"classical side: runtime {format_seconds(classical.runtime_s)}"
        + (f", energy {format_joules(classical.energy_j)}" if classical.energy_j is not None else "")
        + (f", memory {format_bytes(classical.memory_bytes)}" if classical.memory_bytes is not None else "")
        + "\n\n"
    )
    _emit(header + render_advantage_md(report, notes), args.out)
    return EXIT_OK


def cmd_catalog(args: argparse.Namespace, catalog: Catalog) -> int:
    _emit(render_catalog_md(catalog), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
            p.add_argument("--parallel-shots", type=int, default=1, metavar="K", help="shot-parallelism divisor (default 1)")
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
    p_cmp.add_argument("--parity-band", type=float, default=adv.DEFAULT_PARITY_BAND, metavar="FRACTION")
    p_cmp.set_defaults(func=cmd_compare)

    p_cat = sub.add_parser("catalog", help="validate and summarize a catalog")
    common(p_cat)
    p_cat.set_defaults(func=cmd_catalog)

    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    sys.stderr.write(f"warning: {message}\n")


def _run(argv: list[str] | None) -> int:
    # The cyclic collector is off for the call, then restored: a call's rows,
    # records and parsed JSON hold no cycles, so collecting would only scan
    # them, and the few cycles argparse makes do not grow with the input.
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        # Each lenient-mode input warning prints as it is raised, whatever
        # filters the interpreter was started with.
        with warnings.catch_warnings():
            warnings.simplefilter("always", InputWarning)
            warnings.showwarning = _show_warning
            try:
                return args.func(args, load_catalog(args.catalog, strict=args.strict))
            except (ValueError, OSError) as exc:
                sys.stderr.write(f"error: {exc}\n")
                return EXIT_ERROR
    finally:
        if enabled:
            gc.enable()


def _end_process(code: int) -> int:
    """End the process with ``code`` as the interpreter would, less its final
    collection and module teardown, which a one-shot process does not need.

    It runs the atexit callbacks, flushes stdout and stderr, and calls
    ``os._exit``.  It returns ``code``, for the interpreter's own exit, when
    another thread is alive, under ``python -i``, under a debugger, tracer or
    profiler (which may report after ``main`` returns), or when a flush
    raises: the interpreter then reports the failure and exits 120.
    """
    monitoring = getattr(sys, "monitoring", None)  # 3.12+: where cProfile attaches
    if (
        _thread._count()
        or sys.flags.inspect
        or sys.gettrace()
        or sys.getprofile()
        or (monitoring and any(map(monitoring.get_tool, range(6))))
    ):
        return code
    atexit._run_exitfuncs()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except (OSError, ValueError):
        return code
    os._exit(code)


def main(argv: list[str] | None = None) -> int:
    """Run one CLI command and give its exit code (0, 1 or 2).

    With ``argv`` given, the command runs on it and ``main`` returns the
    code; the process carries on.  With ``argv=None`` the command runs on
    ``sys.argv[1:]`` and, once it has returned, ``main`` ends the process
    itself: it runs the atexit callbacks, flushes stdout and stderr and
    exits with the code, skipping the interpreter's teardown (see
    ``_end_process`` for when it returns the code instead).  argparse's
    ``SystemExit`` (usage errors, ``--help``) and uncaught exceptions
    propagate either way.
    """
    code = _run(argv)
    return code if argv is not None else _end_process(code)


if __name__ == "__main__":
    sys.exit(main())
