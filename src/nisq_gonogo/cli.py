"""Command-line front end.

    nisq-gonogo feasibility --workload jobs.json [--catalog hw.json]
    nisq-gonogo estimate    --workload jobs.json --qpu ibm-heron
    nisq-gonogo scatter     --out landscape.svg
    nisq-gonogo compare     --workload job.json --qpu ibm-flamingo --classical ref.json
    nisq-gonogo catalog

Reports are deterministic: identical inputs and flags produce byte-identical
text and CSV (the SVG can differ only in its version comment line).  Exit
codes: 0 success (feasibility: at least one go), 2 feasibility ran but no
pair reached go, 1 usage, input or I/O error.
"""

from __future__ import annotations

import _thread
import argparse
import atexit
import functools
import gc
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
from .feasibility import VerdictRow, build_feasibility_bundle
from .fields import InputWarning
from .scatter import scatter_csv, scatter_svg
from .units import (
    count_text,
    csv_field,
    format_bytes,
    format_fidelity_percent,
    format_joules,
    format_power_of_two_bytes,
    format_seconds,
    format_watts,
    sci,
    total_text,
)

ENV_CATALOG = "NISQ_GONOGO_CATALOG"

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO_GO = 2

_CAPACITY_LABEL = "no-go (capacity)"

ResourceRecord = namedtuple("ResourceRecord", ("plan", "runtime", "energy"))
ResourceRecord.__doc__ = """The estimate of one workload on one qpu.

Fields: ``plan`` (:class:`~nisq_gonogo.workload.ShotPlan`), ``runtime``
(:class:`~nisq_gonogo.runtime.RuntimeEstimate`) and ``energy``
(:class:`~nisq_gonogo.energy.EnergyEstimate`).
"""


def _read(path: str, document: str) -> str:
    """The text of the file at ``path``; bytes that are not UTF-8 fail naming ``document``."""
    with open(path, encoding="utf-8") as file:
        try:
            return file.read()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{document}: {exc}") from None


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
            if file.seekable() and file.tell():  # a file's old bytes; a device or pipe keeps none
                file.truncate(0)
            file.write(text)


def load_catalog(path: str | None, *, strict: bool) -> Catalog:
    """Load a catalog from --catalog, $NISQ_GONOGO_CATALOG, or the bundle."""
    if path is None:
        path = os.environ.get(ENV_CATALOG)
    if path is None:
        return bundled_catalog()
    return parse_catalog(_read(path, "catalog"), strict=strict)


def load_workloads(path: str, *, strict: bool) -> tuple[workload_mod.WorkloadSpec, ...]:
    return workload_mod.parse_workloads(_read(path, "workload document"), strict=strict)


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
            required, available, success, verdict, _ = v
            verdict = verdict._value_
            is_go = verdict == "go"
            numbers = f"{number_text[required]} | {available_text[available]} | {number_text[success]}"
        go += is_go
        lines.append(f"| {verdict} | {qpu_id} | {workload_id} | {numbers} | {note} |")
    lines.append("")
    lines.append(f"{go} of {len(bundle)} (qpu, workload) pairs reach go.")
    return "\n".join(lines) + "\n"


# The header names the columns after the row's and the verdict record's fields.
_FEASIBILITY_CSV_HEADER = (
    ",".join(("verdict", *VerdictRow._fields[:2], *feas.FeasibilityVerdict._fields[:3], "optimistic", "note")) + "\n"
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
            required, available, success, verdict, optimistic = v
            verdict = verdict._value_
            numbers = (
                f"{number_text[required]},{number_text[available]},"
                f"{number_text[success]},{'true' if optimistic else 'false'}"
            )
        lines.append(f"{verdict},{field[qpu_id]},{field[workload_id]},{numbers},{field[note]}\n")
    return "".join(lines)


@functools.lru_cache(maxsize=256)
def _estimate_qpu_lines(qpu: QpuSpec) -> tuple[str, str, str, str]:
    """The parts of an estimate report that depend on the qpu alone, made once per distinct qpu value.

    They are the ``qpu:`` line, the error rate's :func:`sci` text, the power
    draw with its component lines, and the no-power-data note (empty when the
    qpu draws more than 0 W, as in the catalog and compare reports).  The
    power figures come from the energy module's own per-value caches of the
    breakdown and its total.
    """
    error = qpu.two_qubit_error_median
    qpu_line = (
        f"qpu: {qpu.id} ({qpu.modality.value}, {count_text(qpu.qubit_count, 'qubits')}, "
        f"two-qubit error {error} = fidelity {format_fidelity_percent(error, 2)}, {qpu.status.value})"
    )
    draw = energy_mod.power_draw(qpu)
    power = [f"- power draw: {format_watts(draw)}"]
    power.extend(f"  - {label}: {format_watts(watts)}" for label, watts in energy_mod.power_breakdown(qpu))
    note = "" if draw > 0 else "\n  (no power data reported for this qpu)"
    return qpu_line, sci(error), "\n".join(power), note


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
    return tuple.__new__(ResourceRecord, (plan, rt, en))


def render_estimate_md(record: ResourceRecord, qpu: QpuSpec, spec: workload_mod.WorkloadSpec) -> str:
    """The markdown estimate of ``spec`` on ``qpu``; ``record`` is :func:`build_estimate_record`'s for the pair."""
    plan, rt, en = record
    qpu_line, available, power_lines, power_note = _estimate_qpu_lines(qpu)
    fit = feas.fit_verdict(qpu, spec.shape)  # None on a capacity miss, which raises nothing
    if fit is None:
        feasibility = f"no-go ({feas.capacity_message(spec.data_qubits, qpu)})"
    else:
        required, _, _, verdict, _ = fit
        feasibility = f"{verdict._value_} (required error rate {sci(required)}, available {available})"
    breakdown = "".join([f"  - {label}: {format_seconds(seconds)}\n" for label, seconds in rt.breakdown])
    # one f-string: a report is made per record, and a list of its lines costs a join
    return (
        f"# Resource estimate: {spec.id} on {qpu.id}\n\n"
        f"workload: {spec.family._value_}, {count_text(spec.data_qubits, 'data qubits')}, "
        f"depth {count_text(spec.depth, 'cycles')}, target epsilon {spec.target_epsilon}, "
        f"{count_text(spec.ansatz_iterations, 'iterations')}\n"
        f"{qpu_line}\nfeasibility: {feasibility}\n\n"
        f"shot plan ({plan.model} accounting):\n"
        f"- measurement strings: {count_text(plan.pauli_strings, 'strings')}\n"
        f"- shots per string: {count_text(plan.shots_per_string, 'shots')}\n"
        f"- mitigation multiplier: {sci(plan.mitigation_multiplier)} x\n"
        f"- total shots per iteration: {total_text(plan.total_shots, 'shots')}\n\n"
        f"runtime:\n- single shot: {format_seconds(rt.single_shot_time)}\n"
        f"- quantum per iteration: {format_seconds(rt.quantum_time_per_iteration)}\n"
        f"- classical per iteration: {format_seconds(spec.classical_prep_time)}\n"
        f"- iteration: {format_seconds(rt.iteration_time)}\n"
        f"- total: {format_seconds(rt.total_time)}\n{breakdown}\n"
        f"energy:\n{power_lines}\n- job energy: {format_joules(en.job_energy)}{power_note}\n"
    )


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
            f"| {qpu.id} | {qpu.modality.value} | {count_text(qpu.qubit_count)} "
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
    """Write ``text`` to ``out_path``, if given, then to stdout, and flush it: every
    write of a command is made here, so a file or a stdout that cannot be written
    ends the call with the one ``error:`` line and exit 1."""
    if out_path is not None:
        _write_all((out_path, text))
    sys.stdout.write(text)
    sys.stdout.flush()


def cmd_feasibility(args: argparse.Namespace, catalog: Catalog) -> int:
    workloads = load_workloads(args.workload, strict=args.strict)
    bundle = build_feasibility_bundle(catalog, workloads, marginal_band=args.marginal_band)
    if args.format == "csv":
        _emit(render_feasibility_csv(bundle), args.out)
    else:
        _emit(render_feasibility_md(bundle), args.out)
    go = feas.Verdict.GO
    return EXIT_OK if any(row.verdict is not None and row.verdict.verdict is go for row in bundle) else EXIT_NO_GO


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
    _emit(f"wrote {csv_path}\nwrote {svg_path}\n", None)
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
    runtime = record.runtime.total_time
    if not runtime > 0.0:  # an underflow to 0 s; SolutionProfile's message names runtime_s, a classical-profile field
        raise ValueError(f"quantum side: {spec.id} on {qpu.id}: runtime must be > 0 s, got {format_seconds(runtime)}")
    notes: list[str] = []
    quantum_energy: float | None = record.energy.job_energy
    if not record.energy.power_draw > 0:
        quantum_energy = None
        notes.append(f"power draw unreported for '{qpu.id}'; energetic axis not evaluated")
    quantum = adv.quantum_profile(runtime, qubits=spec.data_qubits, energy_j=quantum_energy)
    classical, profile_notes = adv.parse_classical_profile(_read(args.classical, "classical profile"), catalog, strict=args.strict)
    notes.extend(profile_notes)
    report = adv.classify(quantum, classical, parity_band=args.parity_band)
    header = (
        f"quantum side: {spec.id} on {qpu.id}: runtime {format_seconds(runtime)}, "
        f"state space {format_power_of_two_bytes(spec.data_qubits + feas.AMPLITUDE_BYTES_LOG2)} "
        f"({count_text(spec.data_qubits, 'qubits')})\n"
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


class _Parser(argparse.ArgumentParser):
    """argparse's parser, but a usage error raises ``ValueError``: it ends in the
    one ``error:`` line and exit 1, as any other bad input does, not in exit 2."""

    def error(self, message: str):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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


def _one_line(message: object) -> str:
    """The text of ``message`` with each CR and LF (an id may hold them) escaped, so that it prints as one line."""
    return str(message).replace("\r", "\\r").replace("\n", "\\n")


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    sys.stderr.write(f"warning: {_one_line(message)}\n")


def _run(argv: list[str] | None) -> int:
    # The cyclic collector is off for the call, then restored: a call's rows,
    # records and parsed JSON hold no cycles, so collecting would only scan
    # them, and the few cycles argparse makes do not grow with the input.
    enabled = gc.isenabled()
    gc.disable()
    try:
        # Each lenient-mode input warning prints as it is raised, whatever
        # filters the interpreter was started with.
        with warnings.catch_warnings():
            warnings.simplefilter("always", InputWarning)
            warnings.showwarning = _show_warning
            try:
                args = build_parser().parse_args(argv)
                return args.func(args, load_catalog(args.catalog, strict=args.strict))
            except (ValueError, OSError) as exc:
                sys.stderr.write(f"error: {_one_line(exc)}\n")
                return EXIT_ERROR
    finally:
        if enabled:
            gc.enable()


def _end_process(code: int) -> int:
    """End the process with ``code``, less the interpreter's final collection
    and module teardown, which a one-shot process does not need.

    It runs the atexit callbacks, flushes what they wrote and calls ``os._exit``:
    :func:`_emit` has flushed the report or reported its failure.  It returns
    ``code``, for the interpreter's own exit, when another thread is alive,
    under ``python -i``, or under a debugger, tracer or profiler (which may
    report after ``main`` returns).
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
    for stream in filter(None, (sys.stdout, sys.stderr)):  # either is None with no console
        try:
            stream.flush()
        except (OSError, ValueError):  # closed or unwritable: the code stands, what atexit wrote is lost
            pass
    os._exit(code)


def main(argv: list[str] | None = None) -> int:
    """Run one CLI command and give its exit code (0, 1 or 2).

    With ``argv`` given, the command runs on it and ``main`` returns the
    code; the process carries on.  With ``argv=None`` the command runs on
    ``sys.argv[1:]`` and ``main`` then ends the process with the code by
    :func:`_end_process`, without the interpreter's teardown.  A usage error
    ends in the one ``error:`` line and code 1, as any bad input does;
    ``--help`` prints its text and raises ``SystemExit(0)``, and uncaught
    exceptions propagate, either way.
    """
    code = _run(argv)
    return code if argv is not None else _end_process(code)


if __name__ == "__main__":
    sys.exit(main())
