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
import atexit
import gc
import os
import re
import sys
import warnings
from collections import namedtuple
from itertools import chain
from operator import itemgetter
from types import SimpleNamespace

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
    # As the markdown, with each qpu id and note quoted once per distinct text.  Workload ids,
    # of runs and misses alike, are written as they are unless one needs csv_field's quoting;
    # then each distinct id is quoted once.  Verdict labels, numbers and "true"/"false" hold
    # nothing that CSV quotes.
    runs, misses = bundle
    field = _Texts(csv_field)
    number_text = _Texts(str)
    every_id = "".join([*chain.from_iterable(map(itemgetter(1), runs)), *map(itemgetter(1), misses)])
    quote = field.__getitem__ if any(char in every_id for char in ',"\n\r') else None
    # A qpu's available rate, optimistic flag and note are the same on each of its runs, so its
    # cells are made once from its last run.  They are keyed by qpu id, not by rate: 0.0 and
    # -0.0 are one key but two texts.
    cells = {
        qpu_id: (f",{field[qpu_id]},", f",{available},", f",{'true' if optimistic else 'false'},{field[note]}\n")
        for qpu_id, _, (_, available, _, _, optimistic), note in {run.qpu_id: run for run in runs}.values()
    }
    parts = [_FEASIBILITY_CSV_HEADER]
    for qpu_id, ids, (required, _, success, verdict, _), _ in runs:
        qpu_cell, available_cell, flag_note = cells[qpu_id]
        head = f"{verdict._value_}{qpu_cell}"
        tail = f",{number_text[required]}{available_cell}{success}{flag_note}"
        parts.append(f"{head}{(tail + head).join(map(quote, ids) if quote else ids)}{tail}")
    miss_head = _Texts(lambda qpu_id: f"{_CAPACITY_LABEL},{field[qpu_id]},")
    parts += [f"{miss_head[qpu_id]}{quote(workload_id) if quote else workload_id},,,,,{field[note]}\n"
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
def _estimate_workload_texts(spec: workload_mod.WorkloadSpec) -> tuple[str, float, str, str]:
    """The parts of an estimate report that depend on the workload alone, made once per workload object: the
    ``workload:`` line, the required error rate and its :func:`sci` text, and the classical time per iteration."""
    header = (
        f"workload: {spec.family._value_}, {count_text(spec.data_qubits, 'data qubits')}, "
        f"depth {count_text(spec.depth, 'cycles')}, target epsilon {spec.target_epsilon}, "
        f"{count_text(spec.ansatz_iterations, 'iterations')}"
    )
    required = feas.required_error_rate(spec.shape)
    return header, required, sci(required), format_seconds(spec.classical_prep_time)


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

    The ``qpu:`` and power lines are the qpu's; the ``workload:`` line, required rate and classical time per iteration
    the workload's.  Every other number, the two runtime terms among them, is the record's, however it was built.
    """
    plan, rt, en = record
    (prep_label, prep), (quantum_label, quantum) = rt.breakdown
    qpu_line, available_text, power_lines, power_note = _estimate_qpu_lines(qpu)
    workload_line, required, required_text, classical = _estimate_workload_texts(spec)
    verdict = feas.pair_verdict(spec.data_qubits, qpu.qubit_count, required, qpu.two_qubit_error_median)
    if verdict is None:
        feasibility = f"no-go ({feas.capacity_message(spec.data_qubits, qpu.qubit_count)})"
    else:
        feasibility = f"{verdict._value_} (required error rate {required_text}, available {available_text})"
    # one f-string: a report is made per record, and a list of its lines costs a join
    return (
        f"# Resource estimate: {spec.id} on {qpu.id}\n\n{workload_line}\n"
        f"{qpu_line}\nfeasibility: {feasibility}\n\n"
        f"shot plan ({plan.model} accounting):\n"
        f"- measurement strings: {count_text(plan.pauli_strings, 'strings')}\n"
        f"- shots per string: {count_text(plan.shots_per_string, 'shots')}\n"
        f"- mitigation multiplier: {'1' if plan.mitigation_multiplier == 1.0 else sci(plan.mitigation_multiplier)} x\n"
        f"- total shots per iteration: {total_text(plan.total_shots, 'shots')}\n\n"
        f"runtime:\n- single shot: {format_seconds(rt.single_shot_time)}\n"
        f"- quantum per iteration: {format_seconds(rt.quantum_time_per_iteration)}\n"
        f"- classical per iteration: {classical}\n"
        f"- iteration: {format_seconds(rt.iteration_time)}\n"
        f"- total: {format_seconds(rt.total_time)}\n"
        f"  - {prep_label}: {format_seconds(prep)}\n  - {quantum_label}: {format_seconds(quantum)}\n\n"
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


def cmd_feasibility(args: SimpleNamespace, catalog: Catalog) -> int:
    workloads = load_workloads(args.workload, strict=args.strict)
    bundle = build_feasibility_bundle(catalog, workloads, marginal_band=args.marginal_band)
    if args.format == "csv":
        _emit(render_feasibility_csv(bundle), args.out)
    else:
        _emit(render_feasibility_md(bundle), args.out)
    return EXIT_OK if any(run.verdict.verdict is feas.Verdict.GO for run in bundle[0]) else EXIT_NO_GO


def cmd_estimate(args: SimpleNamespace, catalog: Catalog) -> int:
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


def cmd_scatter(args: SimpleNamespace, catalog: Catalog) -> int:
    base = os.path.splitext(args.out)[0]  # the path with its suffix, if any, dropped
    if not os.path.basename(base):
        raise ValueError(f"--out {args.out!r} names no file")
    csv_path = base + ".csv"
    svg_path = base + ".svg"
    _write_all((csv_path, scatter_csv(catalog)), (svg_path, scatter_svg(catalog)))
    _emit(f"wrote {csv_path}\nwrote {svg_path}\n", None)
    return EXIT_OK


def cmd_compare(args: SimpleNamespace, catalog: Catalog) -> int:
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


def cmd_catalog(args: SimpleNamespace, catalog: Catalog) -> int:
    _emit(render_catalog_md(catalog), args.out)
    return EXIT_OK


# The command line, one table: each command's function, help line and options.
# An option is (its usage text, kind, default, required, help); kind is str,
# int or float for a value, bool for a flag that stores True, or the tuple of
# the values it allows.
_CATALOG = ("--catalog PATH", str, None, False, f"catalog file (default: ${ENV_CATALOG} or the bundled dataset)")
_OUT = ("--out PATH", str, None, False, "also write the report to this path")
_STRICT = ("--strict", bool, False, False, "reject unknown input fields instead of warning")
_WORKLOAD = ("--workload PATH", str, None, True, "workload file (object or list)")
_ONE_QPU = (  # the commands on one qpu estimate its resources
    ("--qpu ID", str, None, True, "catalog id of the target qpu"),
    ("--parallel-shots K", int, 1, False, "parallel shot lanes, each running whole shots (default 1)"),
    ("--qaoa-aggregate", bool, False, False, "use the aggregate n^2/eps shot budget for qaoa workloads"),
)
_MD = ("--format", ("md",), "md", False, "report format (default md)")
_COMMANDS = {
    "feasibility": (cmd_feasibility, "go/no-go verdicts for every (qpu, workload) pair", (
        _CATALOG, _OUT, _STRICT, _WORKLOAD, ("--format", ("md", "csv"), "md", False, "report format (default md)"),
        ("--marginal-band X", float, feas.DEFAULT_MARGINAL_BAND, False, "factor above the required error rate "
         f"still reported as marginal (default {feas.DEFAULT_MARGINAL_BAND:g})"),
    )),
    "estimate": (cmd_estimate, "shots, runtime, and energy for a workload on one qpu",
                 (_CATALOG, _OUT, _STRICT, _WORKLOAD, *_ONE_QPU, _MD)),
    "scatter": (cmd_scatter, "emit the catalog landscape as CSV + SVG", (  # two files, not a report
        _CATALOG, _STRICT, ("--out PATH", str, None, True, "base path of the .csv and .svg files to write"),
    )),
    "compare": (cmd_compare, "five-axis advantage comparison against a classical profile", (
        _CATALOG, _OUT, _STRICT, _WORKLOAD, *_ONE_QPU, _MD,
        ("--classical PATH", str, None, True, "classical solution profile (JSON)"),
        ("--parity-band FRACTION", float, adv.DEFAULT_PARITY_BAND, False,
         f"relative difference within which an axis reads parity (default {adv.DEFAULT_PARITY_BAND:g})"),
    )),
    "catalog": (cmd_catalog, "validate and summarize a catalog", (_CATALOG, _OUT, _STRICT, _MD)),
}
_HELP = ("-h, --help", None, None, False, "show this help message and exit")


def _shown(option: tuple) -> str:
    """An option as help shows it; ``--format {md,csv}`` names its choices."""
    return f"{option[0]} {{{','.join(option[1])}}}" if type(option[1]) is tuple else option[0]


def _help(command: str | None, flag: str, explicit: str | None) -> None:
    """Print the help of ``command``, or of the program, and raise ``SystemExit(0)``.

    Text after the flag is refused, as argparse refuses it, but ``-hh`` is ``-h -h``.
    """
    prog = f"nisq-gonogo {command}" if command else "nisq-gonogo"
    rest = explicit.lstrip("h") if explicit and flag == "-h" else explicit
    if rest is not None and (rest or not explicit):
        raise ValueError(f"{prog}: argument -h/--help: ignored explicit argument {rest!r}")
    if command:
        _, about, options = _COMMANDS[command]
        usage = " ".join(_shown(option) if option[3] else f"[{_shown(option)}]" for option in options)
        title, rows = "options", [(_shown(option), option[4]) for option in (_HELP, *options)]
    else:
        usage = "{" + ",".join(_COMMANDS) + "} ..."
        about = "Feasibility and resource estimates for noisy gate-model quantum workloads."
        title, rows = "commands", [(name, line) for name, (_, line, _) in _COMMANDS.items()]
    width = 2 + max(len(left) for left, _ in rows)
    table = "".join(f"  {left:<{width}}{right}\n" for left, right in rows)
    sys.stdout.write(f"usage: {prog} [-h] {usage}\n\n{about}\n\n{title}:\n{table}")
    raise SystemExit(0)


def _check_choice(prog: str, name: str, value: str, choices) -> None:
    if value not in choices:
        choices = ", ".join(map(repr, choices))
        raise ValueError(f"{prog}: argument {name}: invalid choice: {value!r} (choose from {choices})")


def _classify(arg: str, flags: dict, prog: str) -> tuple | None:
    """argparse's reading of ``arg`` by ``flags`` (flag -> option): None for a value, else
    (the option, None if unknown; its flag; the text after ``=`` or ``-h``, or None)."""
    if arg[:1] != "-" or arg == "-":
        return None
    if arg in flags or arg == "--":  # no command takes a positional, so -- marks nothing
        return flags.get(arg), arg, None
    name, equals, value = arg.partition("=")
    if equals and name in flags:
        return flags[name], name, value
    if arg[1] == "-":  # a unique prefix of a long flag stands for it
        matches = [flag for flag in flags if flag.startswith(name)]
        if len(matches) > 1:
            raise ValueError(f"{prog}: ambiguous option: {arg} could match {', '.join(matches)}")
        if matches:
            return flags[matches[0]], matches[0], value if equals else None
    elif arg[1] == "h":  # -hX is -h given X, the only short flag
        return flags["-h"], "-h", arg[2:]
    if re.match(r"^-\d+$|^-\d*\.\d+$", arg) or " " in arg:  # a negative number, or a text with a space
        return None
    return None, arg, None


class _Parser:
    """The command line's reader: it walks argv by :data:`_COMMANDS`, by argparse's rules and
    in the words of Python 3.11's argparse.  A refusal raises ``ValueError``; help raises ``SystemExit(0)``."""

    def parse_args(self, argv: list[str] | None) -> SimpleNamespace:
        args = sys.argv[1:] if argv is None else list(argv)
        flags = {"-h": _HELP, "--help": _HELP}
        extras = []  # what no option takes, refused once the command's options are read
        for start, command in enumerate(args, 1):  # the first value names the command
            found = _classify(command, flags, "nisq-gonogo")
            if found is None:
                break
            if found[0]:
                _help(None, *found[1:])
            extras.append(command)
        else:
            raise ValueError("nisq-gonogo: the following arguments are required: command")
        _check_choice("nisq-gonogo", "command", command, _COMMANDS)
        function, _, options = _COMMANDS[command]
        prog = f"nisq-gonogo {command}"
        flags.update((option[0].split()[0], option) for option in options)
        args = args[start:]
        found = [_classify(arg, flags, prog) for arg in args]  # argparse reads every argument before it takes any
        given = {}
        index = 0
        while index < len(args):
            option, flag, value = found[index] or (None, None, None)
            index += 1
            if option is None:  # a value that no option takes, or an unknown flag
                extras.append(args[index - 1])
                continue
            if option is _HELP:
                _help(command, flag, value)
            name, kind = option[0].split()[0], option[1]
            if kind is bool:
                if value is not None:
                    raise ValueError(f"{prog}: argument {name}: ignored explicit argument {value!r}")
                value = True
            elif value is None:
                if index == len(args) or found[index] is not None:
                    raise ValueError(f"{prog}: argument {name}: expected one argument")
                value = args[index]
                index += 1
            if type(kind) is tuple:
                _check_choice(prog, name, value, kind)
            elif kind in (int, float):
                try:
                    value = kind(value)
                except ValueError:
                    raise ValueError(f"{prog}: argument {name}: invalid {kind.__name__} value: {value!r}") from None
            given[name] = value  # the last of a repeated option wins
        missing = [name for name, option in flags.items() if option[3] and name not in given]
        if missing:
            raise ValueError(f"{prog}: the following arguments are required: {', '.join(missing)}")
        if extras:
            raise ValueError(f"nisq-gonogo: unrecognized arguments: {' '.join(extras)}")
        values = {name[2:].replace("-", "_"): given.get(name, option[2]) for name, option in flags.items() if option[1]}
        return SimpleNamespace(command=command, func=function, **values)


def build_parser() -> _Parser:
    return _Parser()


def _one_line(message: object) -> str:
    """The text of ``message`` with each CR and LF (an id may hold them) escaped, so that it prints as one line."""
    return str(message).replace("\r", "\\r").replace("\n", "\\n")


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    sys.stderr.write(f"warning: {_one_line(message)}\n")


def _run(argv: list[str] | None) -> int:
    # The cyclic collector is off for the call, then restored: a call's rows,
    # records and parsed JSON hold no cycles, so collecting would only scan them.
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
