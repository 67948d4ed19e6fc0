"""Benchmark of the nisq-gonogo command line and library.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is used as its source tree
(``src/``) with no install step.  The benchmark writes seeded inputs under
``.bench_work/``, runs the workload closed loop with one client (one child
process at a time, no threads), checks every output against its own
reference (``reference.py``, which never calls the program), and prints one
JSON result as the last line of standard output.

Workloads:

* ``cli-calls``: a seeded cycle of 10 CLI processes: catalog, feasibility
  (md and csv) on the paper anchors, estimate, compare and scatter twice
  each.  Start-up dominates.
* ``feasibility-grid-csv`` / ``feasibility-grid-md``: ``feasibility`` on
  20,000 generated workloads x the 9 bundled QPUs.  Parse, assess, sort and
  render dominate; one format per workload so a gain in one that costs the
  other shows.
* ``estimate-sweep``: child processes run 2,000 generated workloads x 9
  QPUs, in parts, through the library's estimate, render and advantage
  path.

Every timed operation is meant to succeed, so known defects stay out of the
timed mix and are run once per run beside it, with their outcome in the meta
line under ``defects``: on cli-calls the two ROADMAP item 2 probes (a
400x400 mitigated VQE whose shot budget overflows a float, and a classical
profile with an infinite memory figure), and on estimate-sweep the generated
workloads whose budgets pass float range (about 2% of the draws).

``--trace 0`` reports the end-to-end metrics (tracing off): setup_s (median
of five set-ups: input generation plus one warm-up call), call_p50_ms and
call_tail_ms (a call is one child process running the program, spawn to
exit), items_per_s (verified calls, pairs or records per second of program
time) and peak_rss_mb (largest child).  Every time is scaled to a reference
host speed by bare interpreter starts timed between the calls on the same
core (``calibrate.py``); the raw wall times are in the meta line.  Failed
operations (a traceback, an unexpected exit code, a raised exception, or an
output that fails its check) are counted in ``failed`` out of
``attempted``, each distinct operation once however often the run repeats
it; ``correct`` turns false only when an output disagrees with the
reference.  ``--trace 1`` reports the per-layer metrics: the import layer
from ``-X importtime`` and ``python -c pass`` child processes, and every
other layer from the same inputs run in-process with wrappers on the
program's public functions (``tracing.py``); it also reports the tracing
overhead and writes the spans to ``.bench_work/traces/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import calibrate
import inputs
import reference as refmod
import tracing
from sweep import run_sweep

WORKLOADS = ("cli-calls", "feasibility-grid-csv", "feasibility-grid-md", "estimate-sweep")

#: Set-up is repeated and its median reported, so one slow set-up (the first
#: one in a fresh checkout also writes the bytecode cache) does not decide it.
SETUP_REPEATS = 5
#: Calibration after each timed call: one interpreter start, or more until
#: they add up to CAL_SHARE of the call's own time (see calibrate.py).
CAL_SHARE = 0.15
#: Rounds of (python -c pass, -X importtime call, plain call) in a traced run.
IMPORT_ROUNDS = 8
CHILD_TIMEOUT_S = 150
#: A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10

LAUNCH = "import sys; sys.path.insert(0, {src!r}); from nisq_gonogo.cli import main; sys.exit(main())"

#: What one item is on each workload, for items_per_s.
ITEMS = {
    "cli-calls": "calls_per_s",
    "feasibility-grid-csv": "csv_pairs_per_s",
    "feasibility-grid-md": "md_pairs_per_s",
    "estimate-sweep": "records_per_s",
}


@dataclass
class Child:
    code: int
    wall_s: float
    maxrss_kb: int
    stdout: str
    stderr: str


class Children:
    """Runs one child process at a time and reaps it with its resource usage."""

    def __init__(self, cwd: Path, scratch: Path):
        self.cwd = cwd
        self.scratch = scratch
        self.env = {k: v for k, v in os.environ.items() if k != "NISQ_GONOGO_CATALOG"}
        self._pid: int | None = None
        signal.signal(signal.SIGALRM, self._expire)

    def _expire(self, _signum, _frame) -> None:
        if self._pid is not None:
            os.kill(self._pid, signal.SIGKILL)

    def run(self, argv: list[str]) -> Child:
        out_path, err_path = self.scratch / "child.stdout", self.scratch / "child.stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                    cwd=self.cwd, env=self.env)
            self._pid = proc.pid
            signal.alarm(CHILD_TIMEOUT_S)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                signal.alarm(0)
                self._pid = None
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(
            code=proc.returncode,
            wall_s=wall,
            maxrss_kb=usage.ru_maxrss,
            stdout=out_path.read_text(encoding="utf-8", errors="replace"),
            stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        )


class TimedWriter:
    """Stands in for sys.stdout during an in-process call and times the writes."""

    def __init__(self, fh):
        self.fh = fh
        self.ns = 0

    def write(self, text: str) -> int:
        start = time.perf_counter_ns()
        n = self.fh.write(text)
        self.ns += time.perf_counter_ns() - start
        return n

    def flush(self) -> None:
        self.fh.flush()


def tail(values: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it, and its label.

    Below twenty samples that percentile would sit under the median (or not
    exist), so the maximum is reported instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return ordered[-1], f"max of {n}"
    return ordered[n - TAIL_BEYOND - 1], f"p{100.0 * (n - TAIL_BEYOND) / n:.2f} of {n}"


def run_metadata(root: Path) -> dict:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = "unknown (not a git checkout)"
    with contextlib.suppress(OSError):
        head = (root / ".git" / "HEAD").read_text().strip()
        commit = head
        if head.startswith("ref: "):
            ref = head[5:]
            ref_file = root / ".git" / ref
            if ref_file.exists():
                commit = ref_file.read_text().strip()
            else:
                for line in (root / ".git" / "packed-refs").read_text().splitlines():
                    if line.endswith(" " + ref):
                        commit = line.split()[0]
    return {
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
    }


class Bench:
    def __init__(self, root: Path, workload: str, seed: int, seconds: float):
        self.root = root
        self.src = root / "src"
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.ref = refmod.Reference.from_root(root)
        self.work = root / ".bench_work" / f"{workload}-seed{seed}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.children = Children(root, self.work)
        #: Outcome of each distinct operation: key -> (attempted, failed).
        self.outcomes: dict[object, tuple[int, int]] = {}
        self.wrong = False
        self.problems: list[str] = []
        self.failures: list[str] = []
        self.inputs: dict = {}
        self.details: dict = {}
        self.anchors = refmod.GridReference(self.ref, list(inputs.ANCHORS))
        self._grid: dict[int, refmod.GridReference] = {}
        self._verified: dict = {}

    # bookkeeping --------------------------------------------------------

    def note(self, key, attempted: int, failed: int, problems: list[str], failure: str | None = None) -> None:
        """Count an operation; problems mean a wrong output, not just a failed one.

        An operation repeated during a run (the same call of the cycle, the
        same grid, the same sweep) counts once, as failed as its worst
        repetition, so ``attempted`` and ``failed`` depend on the seed and not
        on how many repetitions fit into the run.
        """
        before = self.outcomes.get(key, (attempted, 0))[1]
        self.outcomes[key] = (attempted, max(before, failed))
        if problems:
            self.wrong = True
            self.problems.extend(problems[: max(0, 10 - len(self.problems))])
        if failure and failure not in self.failures and len(self.failures) < 10:
            self.failures.append(failure)

    @property
    def attempted(self) -> int:
        return sum(a for a, _ in self.outcomes.values())

    @property
    def failed(self) -> int:
        return sum(f for _, f in self.outcomes.values())

    def program(self, *args, flags: tuple = ()) -> list[str]:
        return [sys.executable, "-E", "-s", *flags, "-c", LAUNCH.format(src=str(self.src)), *map(str, args)]

    # set-up -------------------------------------------------------------

    def write_inputs(self, dest: Path) -> dict:
        if self.workload == "cli-calls":
            return inputs.write_cli_inputs(self.seed, dest)
        if self.workload == "estimate-sweep":
            return inputs.write_sweep_inputs(self.seed, dest, in_range=self.ref.in_float_range)
        return inputs.write_grid_inputs(self.seed, dest)

    def setup(self) -> tuple[float, float]:
        """Write the inputs and make one untimed warm-up call, several times.

        Returns the median set-up seconds, scaled by the calibration around
        each set-up, and the raw median.
        """
        scaled, raw = [], []
        before = calibrate.sample(self.children, 0.0)
        for i in range(SETUP_REPEATS):
            start = time.perf_counter()
            self.inputs = self.write_inputs(self.work / f"inputs-{i}")
            warm = self.children.run(self.program("catalog"))
            seconds = time.perf_counter() - start
            after = calibrate.sample(self.children, CAL_SHARE * seconds)
            scaled.append(seconds * calibrate.scale(before, after))
            raw.append(seconds)
            before = after
            status, problems = self.check_cli("catalog", warm.code, warm.stdout, warm.stderr)
            if status != "ok":
                self.note("warm-up", 0, 0, problems, f"warm-up catalog call: {status}")
        return statistics.median(scaled), statistics.median(raw)

    # cli-calls ----------------------------------------------------------

    def cli_argv(self, kind: str, files: dict) -> list:
        return {
            "catalog": ["catalog"],
            "feasibility-md": ["feasibility", "--workload", files["anchors"], "--format", "md"],
            "feasibility-csv": ["feasibility", "--workload", files["anchors"], "--format", "csv"],
            "estimate": ["estimate", "--workload", files["estimate"], "--qpu", inputs.ESTIMATE_QPU],
            "compare": ["compare", "--workload", files["compare"], "--qpu", inputs.COMPARE_QPU,
                        "--classical", files["compare_profile"]],
            "scatter": ["scatter", "--out", files["anchors"].parent / "landscape.svg"],
            "probe-overflow": ["estimate", "--workload", files["probe_overflow"],
                               "--qpu", inputs.PROBE_OVERFLOW_QPU],
            "probe-infinity": ["compare", "--workload", files["compare"], "--qpu", inputs.COMPARE_QPU,
                               "--classical", files["probe_profile"]],
        }[kind]

    def check_cli(self, kind: str, code: int, stdout: str, stderr: str, cli_inputs: dict | None = None) -> tuple[str, list]:
        """("ok" | "failed" | "wrong", problems) for one CLI call."""
        expected = self.anchors.exit_code if kind.startswith("feasibility") else 0
        if "Traceback" in stderr or code != expected:
            return "failed", []
        docs = (cli_inputs or self.inputs).get("docs", {})
        files = (cli_inputs or self.inputs).get("files", {})
        if kind == "catalog":
            problems = refmod.check_catalog_md(stdout, self.ref)
        elif kind == "feasibility-md":
            problems = refmod.check_feasibility_md(stdout, self.anchors)[1]
        elif kind == "feasibility-csv":
            problems = refmod.check_feasibility_csv(stdout, self.anchors)[1]
        elif kind == "estimate":
            problems = refmod.check_estimate_md(stdout, self.ref, inputs.ESTIMATE_QPU, docs["estimate"])
        elif kind == "compare":
            profile = {"runtime_s": docs["classical_runtime"], "classical_ref": inputs.COMPARE_REF}
            problems = refmod.check_compare_md(stdout, self.ref, inputs.COMPARE_QPU, docs["compare"], profile)
        else:
            svg = files["anchors"].parent / "landscape.svg"
            problems = refmod.check_scatter(stdout, svg.with_suffix(".csv"), svg, self.ref)
        return ("wrong" if problems else "ok"), problems

    def cli_op(self, key, kind: str, code: int, stdout: str, stderr: str, cli_inputs: dict | None = None) -> int:
        status, problems = self.check_cli(kind, code, stdout, stderr, cli_inputs)
        self.note(key, 1, status != "ok", problems, None if status == "ok" else f"{kind}: exit {code}, {status}")
        return status == "ok"

    # feasibility grid ---------------------------------------------------

    @property
    def grid_format(self) -> str:
        return self.workload.rsplit("-", 1)[1]

    def grid_op(self, part: int, code: int, stdout: str, stderr: str) -> int:
        """Check the report on one part of the grid; returns the number of verified pairs."""
        key = ("grid", part)
        if part not in self._grid:
            self._grid[part] = refmod.GridReference(self.ref, self.inputs["docs"]["grid"][part])
        grid = self._grid[part]
        pairs = len(grid.table)
        if "Traceback" in stderr or code != grid.exit_code:
            self.note(key, pairs, pairs, [], f"feasibility on part {part}: exit {code}")
            return 0
        if stdout != self._verified.get(key):
            check = refmod.check_feasibility_csv if self.grid_format == "csv" else refmod.check_feasibility_md
            bad, problems = check(stdout, grid)
            if bad or problems:
                self.note(key, pairs, max(bad, 1), problems)
                return pairs - max(bad, 1)
            # Reports are deterministic: later byte-identical reports pass as this one did.
            self._verified[key] = stdout
        self.note(key, pairs, 0, [])
        return pairs

    # estimate sweep -----------------------------------------------------

    def sweep_op(self, part: int, records: list | None) -> int:
        """Check the records of one part of the sweep; returns the number of verified records."""
        key = ("sweep", part)
        workloads = self.inputs["docs"]["sweep"][part]
        qpus = self.ref.qpus
        total = len(workloads) * len(qpus)
        if records is None:
            self.note(key, total, total, [], f"estimate sweep on part {part}: child process failed")
            return 0
        cached = self._verified.get(key)
        if cached is not None and cached[0] == records:
            completed, failed = cached[1], cached[2]
            self.note(key, total, failed, [])
            return completed
        completed = failed = 0
        problems: list[str] = []
        order_ok = len(records) == total and all(
            r[0] == i // len(qpus) and r[1] == i % len(qpus) for i, r in enumerate(records)
        )
        if not order_ok:
            problems.append("sweep records do not cover every (workload, qpu) pair once")
        classical = self.inputs["docs"]["profile"]
        for rec in records if order_ok else ():
            if rec[2] is not None:
                failed += 1
                continue
            found = refmod.check_sweep_record(rec, self.ref, workloads[rec[0]], qpus[rec[1]], classical)
            if found:
                failed += 1
                problems.extend(found[: max(0, 3 - len(problems))])
            else:
                completed += 1
        if not order_ok:
            failed = total
        self.note(key, total, failed, problems,
                  f"estimate sweep on part {part}: {failed} of {total} records failed" if failed else None)
        if not problems:
            self._verified[key] = (records, completed, failed)
        return completed

    # end-to-end run -------------------------------------------------------

    def timed_calls(self) -> list[tuple[object, str, list]]:
        """The (key, kind, argv) of the calls one round of the workload makes.

        A round covers every input once (the whole cli-calls cycle, every part
        of the grid or the sweep), and a run times whole rounds only, so each
        run has the same mix.
        """
        files = self.inputs["files"]
        if self.workload == "cli-calls":
            return [(("cycle", i), kind, self.program(*self.cli_argv(kind, files)))
                    for i, kind in enumerate(self.inputs["order"])]
        if self.workload == "estimate-sweep":
            return [(part, "sweep", self.sweep_argv(path, self.work / "sweep-out.json"))
                    for part, path in enumerate(files["sweep"])]
        return [(part, "grid", self.program("feasibility", "--workload", path, "--format", self.grid_format))
                for part, path in enumerate(files["grid"])]

    def sweep_argv(self, workload_path: Path, out_path: Path) -> list[str]:
        return [sys.executable, "-E", "-s", str(Path(__file__).with_name("sweep.py")),
                str(self.src), str(workload_path), str(self.inputs["files"]["sweep_profile"]), str(out_path)]

    def run_defects(self) -> dict:
        """Run the workload's known-defect inputs once, untimed; their outcome for the meta line.

        They are kept out of ``attempted`` and ``failed``, which cover the
        timed operations only.
        """
        files = self.inputs["files"]
        if self.workload == "cli-calls":
            outcome = {}
            for kind in inputs.PROBES:
                child = self.children.run(self.program(*self.cli_argv(kind, files)))
                passed = refmod.probe_passes(child.code, child.stderr)
                outcome[kind] = "passes" if passed else f"exit {child.code}" + (
                    ", traceback" if "Traceback" in child.stderr else "")
            return outcome
        if self.workload != "estimate-sweep":
            return {}
        out = self.work / "sweep-defects-out.json"
        child = self.children.run(self.sweep_argv(files["sweep_defects"], out))
        outcome = {"workloads": len(self.inputs["docs"]["defects"])}
        if child.code != 0 or "Traceback" in child.stderr:
            outcome["child"] = f"exit {child.code}"
            return outcome
        records = json.loads(out.read_text(encoding="utf-8"))["records"]
        raised: dict[str, int] = {}
        for rec in records:
            if rec[2] is not None:
                raised[rec[2]] = raised.get(rec[2], 0) + 1
        outcome.update({"records": len(records), "raised": raised})
        return outcome

    def measure(self) -> dict:
        setup_s, setup_raw_s = self.setup()
        defects = self.run_defects()
        walls: list[float] = []  # scaled by the calibration around each call
        raw_walls: list[float] = []
        item_seconds = 0.0
        items = 0
        maxrss = 0
        before = calibrate.sample(self.children, 0.0)
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < self.seconds:
            for key, kind, argv in self.timed_calls():
                child = self.children.run(argv)
                after = calibrate.sample(self.children, CAL_SHARE * child.wall_s)
                k = calibrate.scale(before, after)
                before = after
                walls.append(child.wall_s * k)
                raw_walls.append(child.wall_s)
                maxrss = max(maxrss, child.maxrss_kb)
                if kind == "sweep":
                    data = None
                    if child.code == 0 and "Traceback" not in child.stderr:
                        data = json.loads((self.work / "sweep-out.json").read_text(encoding="utf-8"))
                    items += self.sweep_op(key, data["records"] if data else None)
                    item_seconds += (data["elapsed_s"] if data else child.wall_s) * k
                elif kind == "grid":
                    items += self.grid_op(key, child.code, child.stdout, child.stderr)
                    item_seconds += child.wall_s * k
                else:
                    items += self.cli_op(key, kind, child.code, child.stdout, child.stderr)
                    item_seconds += child.wall_s * k
        tail_value, tail_label = tail(walls)
        self.details = {
            "calls": len(walls),
            "call_tail_percentile": tail_label,
            ITEMS[self.workload]: items / item_seconds,
            "items_verified": items,
            "raw_setup_s": setup_raw_s,
            "raw_call_p50_ms": statistics.median(raw_walls) * 1e3,
            "raw_call_tail_ms": tail(raw_walls)[0] * 1e3,
            "interpreter_start_ms": before * 1e3,
            "defects": defects,
        }
        return {
            "setup_s": (setup_s, "s"),
            "call_p50_ms": (statistics.median(walls) * 1e3, "ms"),
            "call_tail_ms": (tail_value * 1e3, "ms"),
            "items_per_s": (items / item_seconds, "1/s"),
            "peak_rss_mb": (maxrss / 1024.0, "MB"),
        }

    # traced run -------------------------------------------------------------

    def import_layer(self) -> dict:
        """Interpreter start and import costs from child processes."""
        starts, calls, logs = [], [], []
        for _ in range(IMPORT_ROUNDS):
            starts.append(self.children.run([sys.executable, "-E", "-s", "-c", "pass"]).wall_s)
            timed = self.children.run(self.program("catalog", flags=("-X", "importtime")))
            self.cli_op("importtime-catalog", "catalog", timed.code, timed.stdout, timed.stderr)
            logs.append(tracing.import_metrics(tracing.parse_importtime(timed.stderr)))
            plain = self.children.run(self.program("catalog"))
            self.cli_op("plain-catalog", "catalog", plain.code, plain.stdout, plain.stderr)
            calls.append(plain.wall_s)
        out = {name: (statistics.median(log[name] for log in logs), "us") for name in logs[0]}
        out["interp.start_ms"] = (statistics.median(starts) * 1e3, "ms")
        out["startup.pkg_share_ms"] = ((statistics.median(calls) - statistics.median(starts)) * 1e3, "ms")
        return out

    def load_program(self) -> dict:
        sys.path.insert(0, str(self.src))
        from nisq_gonogo import advantage, catalog, cli, energy, feasibility, runtime, scatter, workload

        self._clear_catalog = catalog.bundled_catalog.cache_clear
        return {
            "cli": cli, "catalog": catalog, "workload": workload, "feasibility": feasibility,
            "runtime": runtime, "energy": energy, "advantage": advantage, "scatter": scatter,
        }

    def call_in_process(self, mods: dict, argv: list, tracer: tracing.Tracer | None) -> tuple:
        """One CLI call through ``cli.main``; returns (code, stdout, stderr, seconds)."""
        # Each real CLI call is a fresh process, so the bundled catalog is parsed anew.
        self._clear_catalog()
        out_path = self.work / "inproc.stdout"
        err = io.StringIO()
        with open(out_path, "w", encoding="utf-8") as fh:
            writer = TimedWriter(fh)
            start = time.perf_counter()
            with contextlib.redirect_stdout(writer), contextlib.redirect_stderr(err):
                try:
                    code = mods["cli"].main([str(a) for a in argv])
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
                except Exception:  # counted as a failed call, like a traceback from a process
                    code = 1
                    err.write(traceback.format_exc())
            seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.samples["cli.output_bytes"].append(out_path.stat().st_size)
            tracer.samples["cli.output_write_ms"].append(writer.ns / 1e6)
        return code, out_path.read_text(encoding="utf-8"), err.getvalue(), seconds

    def cli_cycle(self, mods: dict, tracer, cli_inputs: dict, kinds, label: str) -> float:
        busy = 0.0
        for i, kind in enumerate(kinds):
            code, out, err, seconds = self.call_in_process(mods, self.cli_argv(kind, cli_inputs["files"]), tracer)
            self.cli_op((label, i), kind, code, out, err, cli_inputs)
            busy += seconds
        return busy

    def workload_pass(self, mods: dict, tracer) -> float:
        """One pass of the workload in-process; returns the seconds spent in the program."""
        if self.workload == "cli-calls":
            return self.cli_cycle(mods, tracer, self.inputs, self.inputs["order"], "cycle")
        files = self.inputs["files"]
        busy = 0.0
        if self.workload == "estimate-sweep":
            sweep = run_sweep if tracer is None else tracer.span("sweep.run_sweep", run_sweep)
            for part, path in enumerate(files["sweep"]):
                self._clear_catalog()
                start = time.perf_counter()
                try:
                    _, records = sweep(str(path), self.inputs["docs"]["profile"])
                except Exception as exc:  # a whole-sweep failure is counted, not raised
                    records = None
                    self.failures.append(f"estimate sweep on part {part}: {exc!r}")
                busy += time.perf_counter() - start
                self.sweep_op(part, records)
            return busy
        for part, path in enumerate(files["grid"]):
            argv = ["feasibility", "--workload", path, "--format", self.grid_format]
            code, out, err, seconds = self.call_in_process(mods, argv, tracer)
            self.grid_op(part, code, out, err)
            busy += seconds
        return busy

    @staticmethod
    def quiesce() -> None:
        """Freeze the benchmark's own live objects before an in-process pass.

        Inputs, reference tables and verified outputs would otherwise be walked
        by every garbage collection the program triggers, and they grow after
        the first pass is checked; freezing before each pass gives traced and
        untraced passes the same heap to work beside.
        """
        gc.collect()
        gc.freeze()

    def trace(self, trace_dir: Path) -> dict:
        start = time.perf_counter()
        self.inputs = self.write_inputs(self.work / "inputs")
        metrics = self.import_layer()
        mods = self.load_program()

        coverage = tracing.Tracer()
        cover_inputs = inputs.write_cli_inputs(self.seed, self.work / "coverage")
        with tracing.installed(coverage, mods):
            self.cli_cycle(mods, coverage, cover_inputs, cover_inputs["order"], "coverage")

        main = tracing.Tracer()
        plain, traced = [], []
        while not traced or time.perf_counter() - start < self.seconds:
            self.quiesce()
            plain.append(self.workload_pass(mods, None))
            self.quiesce()
            with tracing.installed(main, mods):
                traced.append(self.workload_pass(mods, main))
        metrics.update(tracing.layer_metrics(main, len(traced), coverage, 1))
        overhead = (statistics.median(traced) - statistics.median(plain)) / statistics.median(plain)
        metrics["trace.overhead_pct"] = (overhead * 100.0, "%")

        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_file = trace_dir / f"{self.workload}-seed{self.seed}.json"
        trace_file.write_text(json.dumps({
            "workload": self.workload, "seed": self.seed,
            "passes": {"untraced_s": plain, "traced_s": traced},
            "main": main.dump(), "coverage": coverage.dump(),
        }), encoding="utf-8")
        self.details = {"passes": len(traced), "trace_file": str(trace_file.relative_to(self.root))}
        return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "nisq_gonogo" / "cli.py").is_file():
        sys.stderr.write(f"error: no program source at {root / 'src' / 'nisq_gonogo'}; run from a checkout root\n")
        return 2

    # The host's cores change speed by half again for seconds at a time, each
    # on its own; on one core the calibration loop sees the speed the timed
    # call got.  Child processes inherit the affinity.
    meta = run_metadata(root)
    pinned = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {pinned})
    bench = Bench(root, args.workload, args.seed, args.seconds)
    try:
        if args.trace:
            metrics = bench.trace(root / ".bench_work" / "traces")
        else:
            metrics = bench.measure()
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    meta.update({"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace})
    meta.update(bench.details)
    meta["pinned_cpu"] = pinned
    meta["failed_frac"] = bench.failed / bench.attempted
    meta["problems"] = bench.problems
    meta["failures"] = bench.failures
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:14.6g} {unit}")
    print(f"{'failed_frac':44s} {meta['failed_frac']:14.6g} ({bench.failed} of {bench.attempted})")
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": not bench.wrong,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
