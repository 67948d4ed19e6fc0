"""The estimate-sweep body: every generated workload against every bundled QPU.

Runs the public library path per record: ``cli.build_estimate_record``, then
``cli.render_estimate_md``, then ``advantage.quantum_profile`` and
``advantage.classify`` against a fixed classical profile.  Each record
succeeds or fails on its own; a failure is kept as its exception type.

As a script it is the child process of the estimate-sweep workload:

    python3 bench/sweep.py SRC_DIR WORKLOADS.json PROFILE.json OUT.json
"""

from __future__ import annotations

import json
import sys
import time

_KEPT_LINES = ("feasibility: ", "- total shots per iteration: ", "- job energy: ")


def _kept_lines(md: str) -> list:
    kept = [None, None, None]
    for line in md.split("\n"):
        for i, prefix in enumerate(_KEPT_LINES):
            if line.startswith(prefix):
                kept[i] = line
    return kept


def run_sweep(workload_path: str, profile: dict) -> tuple[float, list]:
    """Parse the workloads and run every record; returns (seconds, records).

    Program functions are looked up when the sweep starts, so wrappers
    installed on the modules beforehand see every call.
    """
    from nisq_gonogo import advantage, catalog, cli, workload

    build, render = cli.build_estimate_record, cli.render_estimate_md
    quantum_profile, classify = advantage.quantum_profile, advantage.classify
    start = time.perf_counter()
    with open(workload_path, encoding="utf-8") as fh:
        specs = workload.parse_workloads(fh.read(), strict=True)
    qpus = catalog.bundled_catalog().qpus
    classical = advantage.SolutionProfile(**profile)
    records = []
    for wi, spec in enumerate(specs):
        for qi, qpu in enumerate(qpus):
            try:
                rec = build(qpu, spec)
                md = render(rec, qpu, spec)
                energy = rec.energy.job_energy if rec.energy.power_draw != 0.0 else None
                quantum = quantum_profile(rec.runtime.total_time, qubits=spec.data_qubits, energy_j=energy)
                report = classify(quantum, classical)
            except Exception as exc:  # a failed record is counted, and the sweep goes on
                records.append([wi, qi, type(exc).__name__] + [None] * 8)
                continue
            records.append([
                wi, qi, None,
                rec.plan.pauli_strings, rec.plan.shots_per_string, rec.plan.total_shots,
                rec.runtime.total_time, rec.energy.job_energy, rec.energy.power_draw,
                _kept_lines(md), [o.value for o in report.axes().values()],
            ])
    return time.perf_counter() - start, records


def main(argv: list[str]) -> int:
    src, workload_path, profile_path, out_path = argv
    sys.path.insert(0, src)
    with open(profile_path, encoding="utf-8") as fh:
        profile = json.load(fh)
    elapsed, records = run_sweep(workload_path, profile)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"elapsed_s": elapsed, "records": records}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
