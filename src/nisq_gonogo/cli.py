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

import argparse
import functools
import math
import os
import sys
from collections.abc import Sequence
from typing import NamedTuple

from . import advantage as adv
from . import energy as energy_mod
from . import feasibility as feas
from . import runtime as runtime_mod
from . import workload as workload_mod
from .catalog import Catalog, QpuSpec, bundled_catalog, parse_catalog
from .fields import Checker, decode, keys_of
from .scatter import scatter_csv, scatter_svg
from .units import (
    as_float,
    csv_text,
    format_bytes,
    format_fidelity_percent,
    format_joules,
    format_seconds,
    format_watts,
    sci,
)

ENV_CATALOG = "NISQ_GONOGO_CATALOG"

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO_GO = 2

_CAPACITY_LABEL = "no-go (capacity)"
# Rows sort go first, then marginal, no-go, and capacity misses last.
_VERDICT_RANK = {verdict: rank for rank, verdict in enumerate(feas.Verdict)}


class VerdictRow(NamedTuple):
    qpu_id: str
    workload_id: str
    verdict: feas.FeasibilityVerdict | None  # None: the workload needs more qubits than the qpu has
    note: str = ""


class ResourceRecord(NamedTuple):
    plan: workload_mod.ShotPlan
    runtime: runtime_mod.RuntimeEstimate
    energy: energy_mod.EnergyEstimate


def _warn(warnings: Sequence[str]) -> None:
    """Print lenient-mode input warnings; every command's warnings pass here."""
    for warning in warnings:
        sys.stderr.write(f"warning: {warning}\n")


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as file:
        return file.read()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as file:
        file.write(text)


def load_catalog(path: str | None, *, strict: bool) -> Catalog:
    """Load a catalog from --catalog, $NISQ_GONOGO_CATALOG, or the bundle."""
    if path is None:
        path = os.environ.get(ENV_CATALOG)
    if path is None:
        return bundled_catalog()
    catalog = parse_catalog(_read(path), strict=strict)
    _warn(catalog.warnings)
    return catalog


def load_workloads(path: str, *, strict: bool) -> workload_mod.Workloads:
    workloads = workload_mod.parse_workloads(_read(path), strict=strict)
    _warn(workloads.warnings)
    return workloads


def _verdict_sort_key(row: VerdictRow):
    if row.verdict is None:
        return (len(_VERDICT_RANK), math.inf, row.qpu_id, row.workload_id)
    return (_VERDICT_RANK[row.verdict.verdict], row.verdict.required_error_rate, row.qpu_id, row.workload_id)


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


def build_feasibility_bundle(
    catalog: Catalog,
    workloads: tuple[workload_mod.WorkloadSpec, ...],
    *,
    marginal_band: float = 10.0,
) -> tuple[VerdictRow, ...]:
    feas.check_marginal_band(marginal_band)  # also when the catalog has no qpus to assess
    # Each record field the loop reads is bound once, outside the pairs.
    qpus = [(qpu, qpu.id, qpu.qubit_count, _fit_note(qpu)) for qpu in catalog.qpus]
    rows = []
    for spec in workloads:
        shape = spec.shape
        breadth = shape.breadth
        workload_id = spec.id
        for qpu, qpu_id, qubits, note in qpus:
            # the capacity test of ``assess``, made here so that no CapacityError is raised per miss
            if breadth > qubits:
                rows.append(VerdictRow(qpu_id, workload_id, None, f"insufficient qubits: needs {breadth}, has {qubits}"))
            else:
                rows.append(VerdictRow(qpu_id, workload_id, feas.assess(qpu, shape, marginal_band=marginal_band), note))
    rows.sort(key=_verdict_sort_key)
    return tuple(rows)


def render_feasibility_md(bundle: Sequence[VerdictRow]) -> str:
    # The two rate columns repeat per workload and per qpu: each distinct rate is formatted once.
    required_text = functools.cache(sci)
    available_text = functools.cache(lambda rate: f"{sci(rate)} ({format_fidelity_percent(rate, 2)})")
    lines = ["# Feasibility report", ""]
    lines.append(
        "| verdict | qpu | workload | required error rate | available error rate (fidelity) | success probability | note |"
    )
    lines.append("|---|---|---|---|---|---|---|")
    for row in bundle:
        if row.verdict is None:
            lines.append(f"| {_CAPACITY_LABEL} | {row.qpu_id} | {row.workload_id} | - | - | - | {row.note} |")
            continue
        v = row.verdict
        lines.append(
            f"| {v.verdict.value} | {row.qpu_id} | {row.workload_id} "
            f"| {required_text(v.required_error_rate)} "
            f"| {available_text(v.available_error_rate)} "
            f"| {sci(v.success_probability)} | {row.note} |"
        )
    go = sum(1 for row in bundle if _is_go(row))
    lines.append("")
    lines.append(f"{go} of {len(bundle)} (qpu, workload) pairs reach go.")
    return "\n".join(lines) + "\n"


def render_feasibility_csv(bundle: Sequence[VerdictRow]) -> str:
    rate_text = functools.cache(str)  # as in the markdown report, each distinct rate is formatted once

    def rows():  # made one at a time as the writer asks, so no list of a large grid's rows is built
        yield [
            "verdict",
            "qpu_id",
            "workload_id",
            "required_error_rate",
            "available_error_rate",
            "success_probability",
            "optimistic",
            "note",
        ]
        for row in bundle:
            if row.verdict is None:
                yield [_CAPACITY_LABEL, row.qpu_id, row.workload_id, "", "", "", "", row.note]
            else:
                v = row.verdict
                yield [
                    v.verdict.value,
                    row.qpu_id,
                    row.workload_id,
                    rate_text(v.required_error_rate),
                    rate_text(v.available_error_rate),
                    str(v.success_probability),
                    str(v.optimistic).lower(),
                    row.note,
                ]

    return csv_text(rows())


def _describe_qpu(qpu: QpuSpec) -> str:
    return (
        f"{qpu.id} ({qpu.modality.value}, {qpu.qubit_count} qubits, "
        f"two-qubit error {qpu.two_qubit_error_median} = fidelity "
        f"{format_fidelity_percent(qpu.two_qubit_error_median, 2)}, {qpu.status.value})"
    )


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
    return ResourceRecord(plan=plan, runtime=rt, energy=en)


def _count_text(count: int | float, unit: str) -> str:
    """A string or shot count; a count beyond float range reads unbounded."""
    return f"inf {unit} (unbounded)" if as_float(count) == math.inf else f"{count} {unit}"


def render_estimate_md(record: ResourceRecord, qpu: QpuSpec, spec: workload_mod.WorkloadSpec) -> str:
    plan, rt, en = record.plan, record.runtime, record.energy
    lines = [f"# Resource estimate: {spec.id} on {qpu.id}", ""]
    lines.append(
        f"workload: {spec.family.value}, {spec.data_qubits} data qubits, depth {spec.depth} cycles, "
        f"target epsilon {spec.target_epsilon}, {spec.ansatz_iterations} iterations"
    )
    lines.append(f"qpu: {_describe_qpu(qpu)}")
    try:
        verdict = feas.assess(qpu, spec.shape)
        lines.append(
            f"feasibility: {verdict.verdict.value} "
            f"(required error rate {sci(verdict.required_error_rate)}, available {sci(verdict.available_error_rate)})"
        )
    except feas.CapacityError as exc:
        lines.append(f"feasibility: no-go ({exc})")
    lines.append("")
    lines.append(f"shot plan ({plan.model} accounting):")
    lines.append(f"- measurement strings: {_count_text(plan.pauli_strings, 'strings')}")
    lines.append(f"- shots per string: {_count_text(plan.shots_per_string, 'shots')}")
    lines.append(f"- mitigation multiplier: {sci(plan.mitigation_multiplier)} x")
    if as_float(plan.total_shots) == math.inf:
        lines.append("- total shots per iteration: inf shots (unbounded)")
    else:
        lines.append(f"- total shots per iteration: {plan.total_shots} shots ({sci(plan.total_shots)})")
    lines.append("")
    lines.append("runtime:")
    lines.append(f"- single shot: {format_seconds(rt.single_shot_time)}")
    lines.append(f"- quantum per iteration: {format_seconds(rt.quantum_time_per_iteration)}")
    lines.append(f"- classical per iteration: {format_seconds(spec.classical_prep_time)}")
    lines.append(f"- iteration: {format_seconds(rt.iteration_time)}")
    lines.append(f"- total: {format_seconds(rt.total_time)}")
    for label, seconds in rt.breakdown:
        lines.append(f"  - {label}: {format_seconds(seconds)}")
    lines.append("")
    lines.append("energy:")
    lines.append(f"- power draw: {format_watts(en.power_draw)}")
    for label, watts in en.breakdown:
        lines.append(f"  - {label}: {format_watts(watts)}")
    lines.append(f"- job energy: {format_joules(en.job_energy)}")
    if en.power_draw == 0.0 and not en.breakdown:
        lines.append("  (no power data reported for this qpu)")
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
    _warn(checker.warnings)
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
    sys.stdout.write(text)
    if out_path is not None:
        _write(out_path, text)


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
    _write(csv_path, scatter_csv(catalog))
    _write(svg_path, scatter_svg(catalog))
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
        f"state space {format_bytes(quantum.memory_bytes)} "
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
        default=10.0,
        metavar="X",
        help="factor above the required error rate still reported as marginal (default 10)",
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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, load_catalog(args.catalog, strict=args.strict))
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
