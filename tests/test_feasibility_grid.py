"""The feasibility grid against its reference: ``assess`` on every pair, one sort, plain per-row rendering
(the CSV read back through ``csv.reader``, and equal to ``csv.writer``'s text wherever that writer quotes a CR).

``build_feasibility_bundle`` gives the grid as runs and capacity misses, in
report order: a run holds the workload ids of the rows that share one verdict
record, of one qpu and one exact volume.  The reference below is the plain way,
one row per (qpu, workload) pair, kept here so that every row, tie and
formatted number of the grid can be checked against the runs expanded into rows.
"""

import argparse
import csv
import io
import math
import sys
from collections import namedtuple
from unittest import mock

import pytest
from helpers import make_spec
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nisq_gonogo import cli
from nisq_gonogo import feasibility as feas
from nisq_gonogo.catalog import Catalog, Modality, QpuSpec, QpuStatus
from nisq_gonogo.cli import build_feasibility_bundle, render_feasibility_csv, render_feasibility_md
from nisq_gonogo.units import format_fidelity_percent, sci

_RANK = {verdict: rank for rank, verdict in enumerate(feas.Verdict)}

#: One (qpu, workload) row of the report; ``verdict`` is None for a capacity miss.
Row = namedtuple("Row", ("qpu_id", "workload_id", "verdict", "note"))


def expand(bundle):
    """The rows of a ``(runs, misses)`` bundle, in report order: each run's ids in turn, then the misses."""
    runs, misses = bundle
    rows = [Row(run.qpu_id, workload_id, run.verdict, run.note) for run in runs for workload_id in run.workload_ids]
    return (*rows, *(Row(miss.qpu_id, miss.workload_id, None, miss.note) for miss in misses))


def _reference_note(qpu):
    notes = []
    if qpu.status is not QpuStatus.AVAILABLE:
        notes.append(f"{qpu.status.value} hardware")
    if qpu.two_qubit_error_stddev is None:
        notes.append("optimistic: error-rate spread unreported")
    return "; ".join(notes)


def _reference_key(row):
    if row.verdict is None:
        return (len(_RANK), math.inf, row.qpu_id, row.workload_id)
    return (_RANK[row.verdict.verdict], row.verdict.required_error_rate, row.qpu_id, row.workload_id)


def reference_volumes(catalog, workloads, marginal_band=10.0):
    """Each row of the report with its workload's exact volume, in report order."""
    feas.check_marginal_band(marginal_band)
    rows = []
    for qpu in catalog.qpus:  # qpu-major: the first qpu in catalog order that raises on a pair names the error
        for spec in workloads:
            shape = spec.shape
            try:
                verdict = feas.assess(qpu, shape, marginal_band=marginal_band)
            except feas.CapacityError:
                note = f"insufficient qubits: needs {shape.breadth}, has {qpu.qubit_count}"
                rows.append((Row(qpu.id, spec.id, None, note), shape.volume))
            else:
                rows.append((Row(qpu.id, spec.id, verdict, _reference_note(qpu)), shape.volume))
    return sorted(rows, key=lambda pair: _reference_key(pair[0]))


def reference_bundle(catalog, workloads, marginal_band=10.0):
    return tuple(row for row, _ in reference_volumes(catalog, workloads, marginal_band))


def reference_md(bundle):
    lines = ["# Feasibility report", ""]
    lines.append(
        "| verdict | qpu | workload | required error rate | available error rate (fidelity) | success probability | note |"
    )
    lines.append("|---|---|---|---|---|---|---|")
    for row in bundle:
        v = row.verdict
        if v is None:
            lines.append(f"| no-go (capacity) | {row.qpu_id} | {row.workload_id} | - | - | - | {row.note} |")
            continue
        lines.append(
            f"| {v.verdict.value} | {row.qpu_id} | {row.workload_id} | {sci(v.required_error_rate)} "
            f"| {sci(v.available_error_rate)} ({format_fidelity_percent(v.available_error_rate)}) "
            f"| {sci(v.success_probability)} | {row.note} |"
        )
    go = sum(1 for row in bundle if row.verdict is not None and row.verdict.verdict is feas.Verdict.GO)
    lines += ["", f"{go} of {len(bundle)} (qpu, workload) pairs reach go."]
    return "\n".join(lines) + "\n"


def reference_rows(bundle):
    rows = [[
        "verdict", "qpu_id", "workload_id", "required_error_rate", "available_error_rate",
        "success_probability", "optimistic", "note",
    ]]
    for row in bundle:
        v = row.verdict
        if v is None:
            rows.append(["no-go (capacity)", row.qpu_id, row.workload_id, "", "", "", "", row.note])
        else:
            rows.append([
                v.verdict.value, row.qpu_id, row.workload_id, str(v.required_error_rate),
                str(v.available_error_rate), str(v.success_probability), str(v.optimistic).lower(), row.note,
            ])
    return rows


def reference_csv(rows):
    """``csv.writer``'s text of ``rows``; ``None`` before 3.13 where a field holds a CR, which that writer leaves bare."""
    if sys.version_info < (3, 13) and any("\r" in field for row in rows for field in row):
        return None
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def read_csv(text):
    return list(csv.reader(io.StringIO(text, newline="")))


def _qpu(qpu_id, qubits, error_rate, status=QpuStatus.AVAILABLE, stddev=None):
    return QpuSpec(
        qpu_id, Modality.OTHER, qubits, error_rate, 1e-7, 0.0, 0.0, status, "test",
        two_qubit_error_stddev=stddev,
    )


def _outcome(build, render, catalog, workloads, band):
    try:
        bundle = build(catalog, workloads, marginal_band=band)
    except ValueError as exc:
        return type(exc), str(exc)
    return bundle, [render(bundle) for render in render]


# Ids from a small alphabet repeat; a comma, a quote, an LF or a CR is quoted.
_IDS = st.sampled_from(["a", "b", "c", "b,c", 'q"x', "l\nf", "c\rr"])
# Rates at and around the thresholds of small volumes, an int 0, a -0.0, and two out of range.
_RATES = st.one_of(
    st.sampled_from([0, 0.0, -0.0, 1e-4, 1 / 424, 2e-3, 0.01, 1 / 12, 0.25, 0.5]),
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    st.sampled_from([1.0, -0.25]),
)
_QPUS = st.builds(
    _qpu,
    _IDS,
    st.integers(min_value=1, max_value=16),
    _RATES,
    st.sampled_from(list(QpuStatus)),
    st.sampled_from([None, 1e-5]),
)
# Equal volumes from different (N, d): 2 x 6, 3 x 4, 4 x 3, 12 x 1 ...
_SMALL = st.tuples(st.sampled_from([1, 2, 3, 4, 6, 12]), st.sampled_from([1, 2, 3, 4, 6, 12]))
# Volumes near 2^53, where distinct volumes can share one 1/V float, and past float range.
_NEAR_2_53 = st.builds(
    lambda breadth, offset: (breadth, (2**53 + offset) // breadth),
    st.sampled_from([1, 2, 3, 5]),
    st.integers(min_value=-40, max_value=40),
)
_HUGE = st.tuples(st.sampled_from([1, 3, 20]), st.sampled_from([10**400, 10**400 + 1, 2 * 10**400]))
_WORKLOADS = st.lists(
    st.builds(
        lambda workload_id, shape: make_spec(id=workload_id, data_qubits=shape[0], depth=shape[1]),
        _IDS,
        st.one_of(_SMALL, _NEAR_2_53, _HUGE, st.tuples(st.integers(1, 24), st.integers(1, 50))),
    ),
    min_size=1,
    max_size=14,
).map(tuple)
_BANDS = st.one_of(st.sampled_from([1.0000001, 2.0, 10.0, 1e6]), st.floats(min_value=1.0, max_value=1e9, exclude_min=True))


@settings(max_examples=400, deadline=None)
@given(st.lists(_QPUS, max_size=5, unique_by=lambda qpu: qpu.id).map(tuple), _WORKLOADS, _BANDS)
# an int 0 rate beside the float 0.0 rate of a volume past float range: each keeps its own text
@example((_qpu("a", 4, 0),), (make_spec(id="w", data_qubits=1, depth=10**400),), 10.0)
# one id, one rate, two volumes: the rows keep input order
@example((_qpu("a", 4, 1e-16),), tuple(make_spec(id="w", data_qubits=1, depth=2**53 - k) for k in (2, 1)), 10.0)
# rates 0.0 and -0.0 compare equal: each keeps its own text
@example((_qpu("a", 4, 0.0), _qpu("b", 4, -0.0)), (make_spec(id="w", data_qubits=1, depth=2),), 10.0)
# one 1/V float, volumes V, V - 1, V in id order: the third row's record is built again
@example(
    (_qpu("q", 4, 1e-16),),
    tuple(make_spec(id=wid, data_qubits=1, depth=2**53 - k) for wid, k in (("a", 1), ("b", 2), ("c", 1))),
    10.0,
)
# two rates out of range: the error names the first qpu in catalog order that a workload fits,
# not the first met in workload order ("b", which the wider first workload fits)
@example((_qpu("a", 2, 1.0), _qpu("b", 8, -0.25)), tuple(make_spec(data_qubits=n, depth=1) for n in (5, 1)), 10.0)
# no workload beside the same qpus: no pair, so no qpu is checked and the grid is empty
@example((_qpu("a", 2, 1.0), _qpu("b", 8, -0.25)), (), 10.0)
def test_grid_equals_the_reference(qpus, workloads, band):
    catalog = Catalog(qpus)
    renders = (render_feasibility_csv, render_feasibility_md)
    got = _outcome(build_feasibility_bundle, renders, catalog, workloads, band)
    want = _outcome(reference_bundle, (reference_rows, reference_md), catalog, workloads, band)
    if isinstance(want[1], list):  # the reference built a bundle: the CSV reads back as its rows, in the writer's text
        assert isinstance(got[1], list), got
        (bundle, (text, md)), (want_bundle, (rows, want_md)) = got, want
        assert read_csv(text) == rows
        written = reference_csv(rows)
        assert written is None or text == written
        assert expand(bundle) == want_bundle
        _assert_runs_share_their_records(bundle, catalog, workloads, band)
        go = any(row.verdict is not None and row.verdict.verdict is feas.Verdict.GO for row in want_bundle)
        assert _exit_code(catalog, workloads, band) == (cli.EXIT_OK if go else cli.EXIT_NO_GO)
        got, want = md, want_md
    assert got == want


def _assert_runs_share_their_records(bundle, catalog, workloads, band):
    """Each run is non-empty and its rows, which share its record, share one exact volume; adjacent runs of
    one qpu and one required rate differ in exact volume; rows and misses make one row per (qpu, workload)."""
    runs, misses = bundle
    volumes = iter([volume for _, volume in reference_volumes(catalog, workloads, band)])  # in report order
    last = None
    for run in runs:
        assert run.workload_ids
        (volume,) = {next(volumes) for _ in run.workload_ids}
        key = (run.qpu_id, run.verdict.required_error_rate)
        assert last != (key, volume)
        last = key, volume
    assert sum(len(run.workload_ids) for run in runs) + len(misses) == len(catalog.qpus) * len(workloads)


def _exit_code(catalog, workloads, band):
    """The exit code of ``feasibility`` on ``workloads``, its report discarded."""
    args = argparse.Namespace(workload=None, strict=True, marginal_band=band, format="md", out=None)
    with mock.patch.object(cli, "load_workloads", lambda path, strict: workloads):
        with mock.patch.object(cli, "_emit", lambda text, out: None):
            return cli.cmd_feasibility(args, catalog)


@pytest.mark.parametrize("volumes", [(2**53 - 1, 2**53 - 2), (2**53 - 2, 2**53 - 1)])
def test_volumes_sharing_a_rate_keep_their_own_success_probability(volumes):
    # 2^53 - 1 and 2^53 - 2 share the float 1/V but not the exact volume; with one id, input order decides
    assert 1 / volumes[0] == 1 / volumes[1]
    workloads = tuple(make_spec(id="w", data_qubits=1, depth=volume) for volume in volumes)
    catalog = Catalog((_qpu("lab", 4, 1e-16),))
    rows = expand(build_feasibility_bundle(catalog, workloads))
    assert rows == reference_bundle(catalog, workloads)
    probabilities = [row.verdict.success_probability for row in rows]
    assert probabilities == [feas.success_probability(1e-16, spec.shape) for spec in workloads]
    assert probabilities[0] != probabilities[1]


def test_rows_of_one_volume_share_one_verdict_record():
    workloads = tuple(make_spec(id=wid, data_qubits=n, depth=d) for wid, n, d in (("x", 2, 6), ("y", 3, 4), ("z", 12, 1)))
    catalog = Catalog((_qpu("lab", 16, 1e-3),))
    runs, misses = build_feasibility_bundle(catalog, workloads)
    assert [(run.qpu_id, list(run.workload_ids)) for run in runs] == [("lab", ["x", "y", "z"])]
    assert misses == []
    assert expand((runs, misses)) == reference_bundle(catalog, workloads)


def _assess_message(qpu, band=10.0):
    with pytest.raises(ValueError) as info:
        feas.assess(qpu, make_spec(data_qubits=2, depth=2).shape, marginal_band=band)
    return str(info.value)


@pytest.mark.parametrize("rate", [1.0, -0.1, math.nan])
def test_an_error_rate_out_of_range_raises_as_assess_does(rate):
    good, bad = _qpu("good", 8, 1e-3), _qpu("bad", 8, rate)
    workloads = (make_spec(id="w", data_qubits=2, depth=2),)
    with pytest.raises(ValueError) as info:
        build_feasibility_bundle(Catalog((good, bad)), workloads)
    assert str(info.value) == _assess_message(bad) == f"error_rate must be in [0, 1), got {rate}"
    # as with assess, a qpu that no workload fits is never checked
    assert expand(build_feasibility_bundle(Catalog((good, _qpu("bad", 1, rate))), workloads))


def test_one_verdict_per_rate_and_qpu(monkeypatch):
    # rates 1/12 (three shapes), 1/4 (two) and 1/20; a 6-qubit qpu misses the 12-qubit and 10-qubit rows
    shapes = {"a": (2, 6), "b": (3, 4), "c": (12, 1), "d": (2, 2), "e": (4, 1), "f": (10, 2)}
    workloads = tuple(make_spec(id=wid, data_qubits=n, depth=d) for wid, (n, d) in shapes.items())
    qpus = (_qpu("small", 6, 1e-3), _qpu("large", 16, 0.2), _qpu("tiny", 1, 1e-3))
    catalog = Catalog(qpus)
    want = reference_bundle(catalog, workloads)
    calls = {"rate_verdict": [], "check_error_rate": []}
    for name, log in calls.items():
        real = getattr(feas, name)
        monkeypatch.setattr(feas, name, lambda *args, log=log, real=real: log.append(args) or real(*args))
    assert expand(build_feasibility_bundle(catalog, workloads)) == want
    fitting = {
        (feas.required_error_rate(spec.shape), qpu.id)
        for spec in workloads
        for qpu in qpus
        if spec.shape.breadth <= qpu.qubit_count
    }
    assert len(calls["rate_verdict"]) == len(fitting) == 5
    # one range check per qpu that a workload fits, in catalog order: "tiny" fits none
    assert calls["check_error_rate"] == [(1e-3,), (0.2,)]


@pytest.mark.parametrize("qpus", [(), (_qpu("lab", 8, 1e-3),)], ids=["empty-catalog", "one-qpu"])
@pytest.mark.parametrize("band", [1.0, 0.5, math.inf, math.nan])
def test_a_bad_marginal_band_raises_as_assess_does(qpus, band):
    workloads = (make_spec(id="w", data_qubits=2, depth=2),)
    with pytest.raises(ValueError) as info:
        build_feasibility_bundle(Catalog(qpus), workloads, marginal_band=band)
    assert str(info.value) == _assess_message(_qpu("lab", 8, 1e-3), band)
