"""Per-layer tracing from outside the program.

The benchmark replaces public module attributes of the program with
wrappers for the length of a traced pass and restores them afterwards; the
program's files are never touched.  Coarse boundaries (``cli.main``, the
loads, the feasibility bundle, each renderer) get full spans with a trace
id and a parent.  Functions called once per pair or per record are
aggregated as a call count plus total time, which keeps the overhead low.
A span's self time is its duration minus the time its child spans and the
outermost aggregated calls inside it cover.
"""

from __future__ import annotations

import contextlib
import statistics
from collections import Counter, defaultdict
from time import perf_counter_ns


class Tracer:
    """Spans, aggregates and counters kept in memory until the run ends."""

    def __init__(self) -> None:
        # (trace_id, span_id, parent_id, name, start_ns, duration_ns, self_ns)
        self.spans: list[tuple] = []
        self.aggregates: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])  # calls, ns, raised
        self.counts: Counter = Counter()
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.distinct: dict[str, set] = defaultdict(set)
        self._stack: list[list[int]] = []  # open spans: [child_ns, span_id]
        self._agg_depth = 0
        self._next_span = 1
        self._trace_id = 0

    def span(self, name: str, fn, on_result=None):
        def wrapper(*args, **kwargs):
            stack = self._stack
            parent = stack[-1] if stack else None
            if parent is None:
                self._trace_id += 1
            frame = [0, self._next_span]
            self._next_span += 1
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter_ns() - start
                stack.pop()
                # Inside an aggregated call, the aggregate accounts for this time.
                if parent is not None and self._agg_depth == 0:
                    parent[0] += duration
                self.spans.append((
                    self._trace_id, frame[1], parent[1] if parent else None,
                    name, start, duration, duration - frame[0],
                ))
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def aggregate(self, name: str, fn, on_result=None, on_error=None):
        slot = self.aggregates[name]

        def wrapper(*args, **kwargs):
            outermost = self._agg_depth == 0
            self._agg_depth += 1
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                slot[2] += 1
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                elapsed = perf_counter_ns() - start
                self._agg_depth -= 1
                slot[0] += 1
                slot[1] += elapsed
                if outermost and self._stack:
                    self._stack[-1][0] += elapsed
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    @property
    def trace_id(self) -> int:
        """Identifier shared by the spans of the current root call."""
        return self._trace_id

    # reading back -----------------------------------------------------

    def span_values(self, name: str, which: str) -> list[int]:
        index = 5 if which == "total" else 6
        return [s[index] for s in self.spans if s[3] == name]

    def has(self, source: str) -> bool:
        if source in self.aggregates and self.aggregates[source][0]:
            return True
        if self.samples.get(source):
            return True
        return any(s[3] == source for s in self.spans)

    def dump(self) -> dict:
        return {
            "fields": ["trace_id", "span_id", "parent_id", "name", "start_ns", "duration_ns", "self_ns"],
            "spans": self.spans,
            "aggregates": {k: {"calls": v[0], "ns": v[1], "raised": v[2]} for k, v in self.aggregates.items()},
            "counts": dict(self.counts),
            "distinct": {k: len(v) for k, v in self.distinct.items()},
        }


@contextlib.contextmanager
def installed(tracer: Tracer, mods: dict):
    """Wrap the program's public functions for the length of the block.

    ``mods`` maps short names (cli, catalog, workload, feasibility, runtime,
    energy, advantage, scatter) to the imported modules.  A function that
    other modules imported by name is replaced in each of them.
    """
    feas = mods["feasibility"]
    counts, distinct = tracer.counts, tracer.distinct

    def count_capacity(exc):
        if isinstance(exc, feas.CapacityError):
            counts["feasibility.capacity_outcomes"] += 1

    def count_qpus(_args, result):
        counts["catalog.qpus_parsed"] += len(result.qpus)

    def count_records(_args, result):
        counts["workload.records_parsed"] += len(result)

    def note_qpu(args, _result):
        distinct["energy.power_breakdown"].add((tracer.trace_id, args[0].id))

    def svg_size(_args, result):
        tracer.samples["scatter.svg_bytes"].append(len(result.encode("utf-8")))

    spans = [
        ("cli.main", ["cli"], None),
        ("cli.build_parser", ["cli"], None),
        ("cli.load_catalog", ["cli"], None),
        ("cli.load_workloads", ["cli"], None),
        ("catalog.bundled_catalog", ["catalog", "cli"], None),
        ("catalog.parse_catalog", ["catalog", "cli"], count_qpus),
        ("workload.parse_workloads", ["workload"], count_records),
        ("cli.build_feasibility_bundle", ["cli"], None),
        ("cli.render_feasibility_csv", ["cli"], None),
        ("cli.render_feasibility_md", ["cli"], None),
        ("cli.render_catalog_md", ["cli"], None),
        ("cli.render_advantage_md", ["cli"], None),
        ("scatter.scatter_csv", ["scatter", "cli"], None),
        ("scatter.scatter_svg", ["scatter", "cli"], svg_size),
    ]
    aggregates = [
        ("feasibility.assess", ["feasibility"], None, count_capacity),
        ("workload.shot_plan", ["workload"], None, None),
        ("runtime.estimate_runtime", ["runtime"], None, None),
        ("energy.estimate_energy", ["energy"], None, None),
        ("energy.power_breakdown", ["energy"], note_qpu, None),
        ("advantage.quantum_profile", ["advantage"], None, None),
        ("advantage.classify", ["advantage"], None, None),
        ("cli.build_estimate_record", ["cli"], None, None),
        ("cli.render_estimate_md", ["cli"], None, None),
    ]
    patched = []
    try:
        for name, where, on_result in spans:
            attr = name.split(".", 1)[1]
            wrapper = tracer.span(name, getattr(mods[name.split(".")[0]], attr), on_result)
            for short in where:
                patched.append((mods[short], attr, getattr(mods[short], attr)))
                setattr(mods[short], attr, wrapper)
        for name, where, on_result, on_error in aggregates:
            attr = name.split(".", 1)[1]
            wrapper = tracer.aggregate(name, getattr(mods[name.split(".")[0]], attr), on_result, on_error)
            for short in where:
                patched.append((mods[short], attr, getattr(mods[short], attr)))
                setattr(mods[short], attr, wrapper)
        yield tracer
    finally:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)


# per-layer metrics --------------------------------------------------------

_SCALE = {"s": 1e-9, "ms": 1e-6, "us": 1e-3}

#: (metric, span, total or self time); the unit is the metric name's suffix.
SPAN_METRICS = (
    ("cli.main_ms", "cli.main", "total"),
    ("cli.main.self_ms", "cli.main", "self"),
    ("cli.build_parser_ms", "cli.build_parser", "self"),
    ("cli.load_catalog_ms", "cli.load_catalog", "total"),
    ("cli.load_workloads_ms", "cli.load_workloads", "total"),
    ("cli.build_feasibility_bundle_s", "cli.build_feasibility_bundle", "self"),
    ("cli.render_feasibility_csv_s", "cli.render_feasibility_csv", "self"),
    ("cli.render_feasibility_md_s", "cli.render_feasibility_md", "self"),
    ("cli.render_catalog_md_ms", "cli.render_catalog_md", "self"),
    ("catalog.parse_catalog_ms", "catalog.parse_catalog", "self"),
    ("workload.parse_workloads_s", "workload.parse_workloads", "self"),
    ("scatter.scatter_csv_ms", "scatter.scatter_csv", "self"),
    ("scatter.scatter_svg_ms", "scatter.scatter_svg", "self"),
)

#: (metric, aggregate, calls per pass / mean us per call).
AGGREGATE_METRICS = (
    ("workload.shot_plan_calls", "workload.shot_plan", "calls"),
    ("workload.shot_plan_us", "workload.shot_plan", "us"),
    ("feasibility.assess_calls", "feasibility.assess", "calls"),
    ("feasibility.assess_us", "feasibility.assess", "us"),
    ("runtime.estimate_runtime_calls", "runtime.estimate_runtime", "calls"),
    ("runtime.estimate_runtime_us", "runtime.estimate_runtime", "us"),
    ("energy.estimate_energy_us", "energy.estimate_energy", "us"),
    ("energy.power_breakdown_calls", "energy.power_breakdown", "calls"),
    ("advantage.classify_calls", "advantage.classify", "calls"),
    ("advantage.classify_us", "advantage.classify", "us"),
    ("cli.render_estimate_md_us", "cli.render_estimate_md", "us"),
)

#: (metric, counter, the span or aggregate whose presence makes it a reading).
COUNTER_METRICS = (
    ("catalog.qpus_parsed", "catalog.qpus_parsed", "catalog.parse_catalog"),
    ("workload.records_parsed", "workload.records_parsed", "workload.parse_workloads"),
    ("feasibility.capacity_outcomes", "feasibility.capacity_outcomes", "feasibility.assess"),
)

#: (metric, sample list, unit): medians of values recorded per event.
SAMPLE_METRICS = (
    ("cli.output_bytes", "cli.output_bytes", "count"),
    ("cli.output_write_ms", "cli.output_write_ms", "ms"),
    ("scatter.svg_bytes", "scatter.svg_bytes", "count"),
)


def layer_metrics(main: Tracer, main_passes: int, coverage: Tracer, coverage_passes: int) -> dict:
    """Per-layer readings as {name: (value, unit)}.

    A reading comes from the workload's own traced passes; a layer the
    workload never reaches reads from the coverage cycle instead, so every
    metric has a value on every workload.
    """
    def pick(source: str) -> tuple[Tracer, int]:
        return (main, main_passes) if main.has(source) else (coverage, coverage_passes)

    out: dict = {}
    for metric, span, which in SPAN_METRICS:
        tracer, _ = pick(span)
        unit = metric.rsplit("_", 1)[1]
        values = tracer.span_values(span, which)
        out[metric] = (statistics.median(values) * _SCALE[unit] if values else 0.0, unit)
    for metric, agg, field in AGGREGATE_METRICS:
        tracer, passes = pick(agg)
        calls, ns, _raised = tracer.aggregates.get(agg, (0, 0, 0))
        if field == "us":
            out[metric] = (ns / calls / 1e3 if calls else 0.0, "us")
        else:
            out[metric] = (calls / max(passes, 1), "count")
    for metric, counter, source in COUNTER_METRICS:
        tracer, passes = pick(source)
        out[metric] = (tracer.counts[counter] / max(passes, 1), "count")
    for metric, sample, unit in SAMPLE_METRICS:
        tracer, _ = pick(sample)
        values = tracer.samples.get(sample) or [0.0]
        out[metric] = (statistics.median(values), unit)

    tracer, _ = pick("catalog.bundled_catalog")
    bundled = len(tracer.span_values("catalog.bundled_catalog", "total"))
    parses = len(tracer.span_values("catalog.parse_catalog", "total"))
    out["catalog.parse_per_bundled_call"] = (parses / bundled if bundled else 0.0, "ratio")
    tracer, _ = pick("energy.power_breakdown")
    calls = tracer.aggregates.get("energy.power_breakdown", (0,))[0]
    useful = len(tracer.distinct.get("energy.power_breakdown", ()))
    out["energy.power_breakdown_useful_ratio"] = (useful / calls if calls else 0.0, "ratio")
    return out


# import layer ---------------------------------------------------------------

PACKAGE = "nisq_gonogo"
PACKAGE_MODULES = (
    "nisq_gonogo", "nisq_gonogo.advantage", "nisq_gonogo.catalog", "nisq_gonogo.cli",
    "nisq_gonogo.energy", "nisq_gonogo.feasibility", "nisq_gonogo.runtime",
    "nisq_gonogo.scatter", "nisq_gonogo.units", "nisq_gonogo.workload",
)
STDLIB_MODULES = {
    "importlib_resources": "importlib.resources",
    "dataclasses": "dataclasses",
    "argparse": "argparse",
    "re": "re",
    "csv": "csv",
}


def parse_importtime(stderr: str) -> list[tuple[str, int, int, int]]:
    """(module, self_us, cumulative_us, nesting depth) per ``-X importtime`` line."""
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue
        name_field = parts[2][1:]
        name = name_field.strip()
        depth = (len(name_field) - len(name_field.lstrip(" "))) // 2
        entries.append((name, int(parts[0]), int(parts[1]), depth))
    return entries


def import_metrics(entries: list[tuple[str, int, int, int]]) -> dict:
    """Import-layer readings in microseconds from one ``-X importtime`` log.

    The package total sums the cumulative time of the package imports made
    at top level, which include everything they pull in; a package module
    imported lazily from a function also counts, as it is top level too.  A
    stdlib module reads the cumulative time where it is first imported,
    whoever imports it (0 if absent).
    """
    out = {}
    total = 0
    for name, self_us, cumulative, depth in entries:
        if name == PACKAGE or name.startswith(PACKAGE + "."):
            out[f"import.{name}.self_us"] = self_us
            if depth == 0:
                total += cumulative
    out["import.pkg_cum_us"] = total
    for short, module in STDLIB_MODULES.items():
        cums = [c for n, _s, c, _d in entries if n == module]
        out[f"import.stdlib.{short}.cum_us"] = cums[0] if cums else 0
    for module in PACKAGE_MODULES:
        out.setdefault(f"import.{module}.self_us", 0)
    return out
