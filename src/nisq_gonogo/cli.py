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
import gc
import os
import sys
import warnings
from collections import namedtuple

from . import advantage as adv
from . import energy as energy_mod
from . import feasibility as feas
from . import runtime as runtime_mod
from . import workload as workload_mod
from .catalog import Catalog, QpuSpec, bundled_catalog, parse_catalog
from .feasibility import build_feasibility_bundle
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
    per_object,
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


def render_feasibility_md(bundle: tuple[list[feas.VerdictRun], list[feas.CapacityMiss]]) -> str:
    # A run's rows differ only in their workload ids, so its head and tail are
    # made once and the run is one join.  Each distinct rate is formatted once;
    # success probabilities seldom repeat, so each is formatted where it is met.
    runs, misses = bundle
    number_text = _Texts(sci)
    available_text = _Texts(lambda rate: f"{sci(rate)} ({format_fidelity_percent(rate)})")
    parts = [
        "# Feasibility report\n\n"
        "| verdict | qpu | workload | required error rate | available error rate (fidelity) | success probability | note |\n"
        "|---|---|---|---|---|---|---|\n"
    ]
    go = pairs = 0
    for qpu_id, ids, (required, available, success, verdict, _), note in runs:
        verdict = verdict._value_
        head = f"| {verdict} | {qpu_id} | "
        tail = f" | {number_text[required]} | {available_text[available]} | {sci(success)} | {note} |\n"
        parts.append(f"{head}{(tail + head).join(ids)}{tail}")
        pairs += len(ids)
        if verdict == "go":
            go += len(ids)
    parts += [f"| {_CAPACITY_LABEL} | {qpu_id} | {workload_id} | - | - | - | {note} |\n"
              for qpu_id, workload_id, note in misses]
    parts.append(f"\n{go} of {pairs + len(misses)} (qpu, workload) pairs reach go.\n")
    return "".join(parts)


# The header names the columns after the miss's and the verdict record's fields.
_FEASIBILITY_CSV_HEADER = (
    ",".join(("verdict", *feas.CapacityMiss._fields[:2], *feas.FeasibilityVerdict._fields[:3], "optimistic", "note")) + "\n"
)


def render_feasibility_csv(bundle: tuple[list[feas.VerdictRun], list[feas.CapacityMiss]]) -> str:
    # As the markdown, with each id and note quoted once per distinct text.
    # Verdict labels, numbers and "true"/"false" hold nothing that CSV quotes.
    runs, misses = bundle
    field = _Texts(csv_field)
    number_text = _Texts(str)
    parts = [_FEASIBILITY_CSV_HEADER]
    for qpu_id, ids, (required, available, success, verdict, optimistic), note in runs:
        head = f"{verdict._value_},{field[qpu_id]},"
        tail = (
            f",{number_text[required]},{number_text[available]},{success},"
            f"{'true' if optimistic else 'false'},{field[note]}\n"
        )
        parts.append(f"{head}{(tail + head).join(map(field.__getitem__, ids))}{tail}")
    parts += [f"{_CAPACITY_LABEL},{field[qpu_id]},{field[workload_id]},,,,,{field[note]}\n"
              for qpu_id, workload_id, note in misses]
    return "".join(parts)


@per_object
def _estimate_qpu_lines(qpu: QpuSpec) -> tuple[str, str, str, str]:
    """The parts of an estimate report that depend on the qpu alone, made once per qpu object.

    They are the ``qpu:`` line, the error rate's :func:`sci` text, the power
    draw with its component lines, and the no-power-data note (empty when the
    qpu draws more than 0 W, as in the catalog and compare reports).  The
    breakdown and its total come from the energy module's own memo per qpu object.
    """
    error = qpu.two_qubit_error_median
    qpu_line = (
        f"qpu: {qpu.id} ({qpu.modality.value}, {count_text(qpu.qubit_count, 'qubits')}, "
        f"two-qubit error {error} = fidelity {format_fidelity_percent(error)}, {qpu.status.value})"
    )
    breakdown, draw = energy_mod._power(qpu)
    power = [f"- power draw: {format_watts(draw)}"]
    power.extend(f"  - {label}: {format_watts(watts)}" for label, watts in breakdown)
    note = "" if draw > 0 else "\n  (no power data reported for this qpu)"
    return qpu_line, sci(error), "\n".join(power), note


@per_object
def _estimate_workload_texts(
    spec: workload_mod.WorkloadSpec, strings: int | float, shots: int | float, prep: float
) -> tuple:
    """The parts of an estimate report made once per workload object.

    They are the ``workload:`` line, the required error rate and its
    :func:`sci` text, and the classical time per iteration.  Beside them
    come the texts of the string count, the shots per string and the classical
    term of the runtime breakdown, each kept beside the value it was made
    from, which the first record rendered for ``spec`` carried.  A later
    record reuses one only where :func:`_prints_as` holds for its own value.
    """
    header = (
        f"workload: {spec.family._value_}, {count_text(spec.data_qubits, 'data qubits')}, "
        f"depth {count_text(spec.depth, 'cycles')}, target epsilon {spec.target_epsilon}, "
        f"{count_text(spec.ansatz_iterations, 'iterations')}"
    )
    required = feas.required_error_rate(spec.shape)
    return (
        header, required, sci(required), format_seconds(spec.classical_prep_time),
        strings, count_text(strings, "strings"), shots, count_text(shots, "shots"), prep, format_seconds(prep),
    )


def _prints_as(kept, value) -> bool:
    """Whether ``value`` has the text ``kept`` has: the same object, or a nonzero number of the
    same type and value (``1234567`` and ``1234567.0`` print differently, as ``0.0`` and ``-0.0`` do)."""
    return kept is value or (type(kept) is type(value) and kept == value and value != 0)


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
    """The markdown estimate of ``spec`` on ``qpu``; ``record`` is :func:`build_estimate_record`'s for the pair.

    The record's numbers are printed as they are, also for a record built
    another way; its runtime breakdown holds the classical and the quantum term.
    """
    plan, rt, en = record
    strings, shots, multiplier = plan.pauli_strings, plan.shots_per_string, plan.mitigation_multiplier
    (prep_label, prep), (quantum_label, quantum) = rt.breakdown
    qpu_line, available_text, power_lines, power_note = _estimate_qpu_lines(qpu)
    (
        workload_line, required, required_text, classical,
        kept_strings, strings_text, kept_shots, shots_text, kept_prep, prep_text,
    ) = _estimate_workload_texts(spec, strings, shots, prep)
    verdict = feas.pair_verdict(spec.data_qubits, qpu.qubit_count, required, qpu.two_qubit_error_median)
    if verdict is None:
        feasibility = f"no-go ({feas.capacity_message(spec.data_qubits, qpu.qubit_count)})"
    else:
        feasibility = f"{verdict._value_} (required error rate {required_text}, available {available_text})"
    if not _prints_as(kept_strings, strings):
        strings_text = count_text(strings, "strings")
    if not _prints_as(kept_shots, shots):
        shots_text = count_text(shots, "shots")
    if not _prints_as(kept_prep, prep):
        prep_text = format_seconds(prep)
    # one f-string: a report is made per record, and a list of its lines costs a join
    return (
        f"# Resource estimate: {spec.id} on {qpu.id}\n\n{workload_line}\n"
        f"{qpu_line}\nfeasibility: {feasibility}\n\n"
        f"shot plan ({plan.model} accounting):\n"
        f"- measurement strings: {strings_text}\n"
        f"- shots per string: {shots_text}\n"
        f"- mitigation multiplier: {'1' if multiplier == 1.0 else sci(multiplier)} x\n"
        f"- total shots per iteration: {total_text(plan.total_shots, 'shots')}\n\n"
        f"runtime:\n- single shot: {format_seconds(rt.single_shot_time)}\n"
        f"- quantum per iteration: {format_seconds(rt.quantum_time_per_iteration)}\n"
        f"- classical per iteration: {classical}\n"
        f"- iteration: {format_seconds(rt.iteration_time)}\n"
        f"- total: {format_seconds(rt.total_time)}\n"
        f"  - {prep_label}: {prep_text}\n  - {quantum_label}: {format_seconds(quantum)}\n\n"
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
            f"| {qpu.two_qubit_error_median} ({format_fidelity_percent(qpu.two_qubit_error_median)}) "
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
    return EXIT_OK if any(run.verdict.verdict is feas.Verdict.GO for run in bundle[0]) else EXIT_NO_GO


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
