"""Golden corpus: the exact bytes of every CLI command on fixed inputs.

Each case runs ``nisq-gonogo`` from this checkout's ``src`` in a fresh
directory holding a copy of ``inputs/``, with ``$NISQ_GONOGO_CATALOG`` unset
unless the case sets it and ``$PYTHONUNBUFFERED`` always unset.  What it
leaves is the sha256 of its stdout, of its stderr and of every file it
writes, and its exit code; ``digests.json`` holds the expected values.  One
digest set holds on Python 3.10 to 3.13.  The script uses the standard
library only, so it runs on an interpreter without pytest::

    python tests/golden/check.py            # compare; exit 1 on any difference
    python tests/golden/check.py --record   # rewrite digests.json from this tree

A copy of this directory outside a checkout has no ``../../src``, so its
cases check whichever ``nisq_gonogo`` the interpreter imports, such as an
installed wheel.

``digests.json`` is the only home of the CLI's expected bytes: no test pins
a report by its digest.  A deliberate output change takes two commits.  The
first pins the old output: it adds a case for each output to change that no
case runs yet, recorded from the old program.  The second changes the
program and runs ``--record``, which re-records only the cases the change
names; the ``git diff`` of ``digests.json`` shows which cases changed.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
INPUTS = os.path.join(HERE, "inputs")
DIGESTS = os.path.join(HERE, "digests.json")
SRC = os.path.normpath(os.path.join(HERE, "..", "..", "src"))

_MAIN = "import sys; from nisq_gonogo.cli import main; sys.exit(main())"

# (name, argv, extra environment); paths are relative to the case's directory.
CASES = [
    # feasibility: the paper anchors (72x72 VQE, 53x8, 100x8), both formats, the band, --out and --catalog
    ("feasibility-anchors-md", ["feasibility", "--workload", "anchors.json"], {}),
    ("feasibility-anchors-csv", ["feasibility", "--workload", "anchors.json", "--format", "csv"], {}),
    ("feasibility-anchors-md-band", ["feasibility", "--workload", "anchors.json", "--marginal-band", "2.5"], {}),
    ("feasibility-anchors-csv-band",
     ["feasibility", "--workload", "anchors.json", "--format", "csv", "--marginal-band", "1e6"], {}),
    ("feasibility-anchors-csv-out",
     ["feasibility", "--workload", "anchors.json", "--format", "csv", "--out", "grid.csv"], {}),
    ("feasibility-anchors-md-out-strict",
     ["feasibility", "--workload", "anchors.json", "--out", "grid.md", "--strict"], {}),
    ("feasibility-no-go", ["feasibility", "--workload", "no-go.json"], {}),
    ("feasibility-edge-ids-md", ["feasibility", "--workload", "edge-ids.json"], {}),
    ("feasibility-edge-ids-csv", ["feasibility", "--workload", "edge-ids.json", "--format", "csv"], {}),
    ("feasibility-edge-utf8-csv", ["feasibility", "--workload", "edge-ids-utf8.json", "--format", "csv"], {}),
    ("feasibility-edge-catalog-csv",
     ["feasibility", "--workload", "anchors.json", "--catalog", "edge-catalog.json", "--format", "csv"], {}),
    ("feasibility-edge-catalog-md-env", ["feasibility", "--workload", "edge-ids.json"],
     {"NISQ_GONOGO_CATALOG": "edge-catalog.json"}),
    ("feasibility-lenient-csv", ["feasibility", "--workload", "lenient.json", "--format", "csv"], {}),
    # 900 rows, about 109 KiB of CSV: more than a 64 KiB pipe buffer holds, so every byte
    # must be flushed to the pipe before the process ends
    ("feasibility-grid-100-csv", ["feasibility", "--workload", "grid-100.json", "--format", "csv"], {}),
    ("feasibility-grid-100-md", ["feasibility", "--workload", "grid-100.json"], {}),
    # volumes 2^53 - 1 and 2^53 - 2 share one 1/V float but not their success probability
    ("feasibility-shared-rate-csv", ["feasibility", "--workload", "shared-rate.json",
                                     "--catalog", "tiny-error-catalog.json", "--format", "csv"], {}),
    # seven shapes on three fixture qpus (available, announced, projected): every verdict, both
    # notes and capacity misses; the two `dup` rows of lab-a have equal sort keys and keep their
    # input order, and the id a,b"c is quoted in the CSV
    ("feasibility-lab-csv", ["feasibility", "--workload", "lab-shapes.json", "--catalog", "lab-catalog.json",
                             "--format", "csv"], {}),
    ("feasibility-lab-md", ["feasibility", "--workload", "lab-shapes.json", "--catalog", "lab-catalog.json"], {}),
    # plain ids that fit beside the ids big,one and say "hi" at 5,000 qubits, which fit no bundled
    # qpu: the two quoted ids appear only in capacity-miss rows
    ("feasibility-quoted-miss-csv", ["feasibility", "--workload", "quoted-miss.json", "--format", "csv"], {}),
    # estimate: plain, grouped VQE, QAOA per string and aggregate, shot parallelism, --out
    ("estimate-vqe-heron", ["estimate", "--workload", "vqe-72x72.json", "--qpu", "ibm-heron"], {}),
    ("estimate-anchors-sycamore", ["estimate", "--workload", "anchors.json", "--qpu", "google-sycamore-2022"], {}),
    ("estimate-grouped-out",
     ["estimate", "--workload", "vqe-grouped.json", "--qpu", "ibm-osprey", "--out", "estimate.md"], {}),
    ("estimate-qaoa", ["estimate", "--workload", "qaoa.json", "--qpu", "quantinuum-h1"], {}),
    ("estimate-qaoa-aggregate-parallel",
     ["estimate", "--workload", "qaoa.json", "--qpu", "quantinuum-h1", "--qaoa-aggregate", "--parallel-shots", "4"], {}),
    # a string count above 2**53, from a float coefficient: printed with 6 digits, not the float's noise
    ("estimate-vqe-noise-digits", ["estimate", "--workload", "vqe-noise-digits.json", "--qpu", "ibm-osprey"], {}),
    # the mitigated 72x72 VQE: a total of 57 digits, every one of them printed
    ("estimate-vqe-mitigated", ["estimate", "--workload", "vqe-72x72-mitigated.json", "--qpu", "ibm-osprey"], {}),
    # 10^400 data qubits: the counts of the workload line and of the capacity miss
    ("estimate-1e400", ["estimate", "--workload", "q1e400.json", "--qpu", "ibm-flamingo"], {}),
    ("estimate-edge-catalog", ["estimate", "--workload", "edge-ids.json", "--qpu", "lab\rfour",
                               "--catalog", "edge-catalog.json"], {}),
    # six workloads on three qpus, plain and on 4 shot lanes, and the unmitigated 16-qubit maxcut
    # under qaoa-aggregate accounting: every verdict, capacity misses (needs 30, has 20 on the
    # 20-qubit quantinuum-h1), totals either side of 120 s (12.88 s, years), and an unbounded
    # mitigated budget and depth (inf shots, inf s, inf J, each "(unbounded)"); ibm-flamingo
    # lists four power components (control electronics 27.72 kW), the other two no power data
    ("estimate-set-flamingo", ["estimate", "--workload", "estimate-set.json", "--qpu", "ibm-flamingo"], {}),
    ("estimate-set-flamingo-parallel", ["estimate", "--workload", "estimate-set.json", "--qpu", "ibm-flamingo",
                                        "--parallel-shots", "4"], {}),
    ("estimate-maxcut-aggregate-flamingo", ["estimate", "--workload", "maxcut.json", "--qpu", "ibm-flamingo",
                                            "--qaoa-aggregate"], {}),
    ("estimate-set-sycamore", ["estimate", "--workload", "estimate-set.json", "--qpu", "google-sycamore-2022"], {}),
    ("estimate-set-sycamore-parallel", ["estimate", "--workload", "estimate-set.json", "--qpu", "google-sycamore-2022",
                                        "--parallel-shots", "4"], {}),
    ("estimate-maxcut-aggregate-sycamore", ["estimate", "--workload", "maxcut.json", "--qpu", "google-sycamore-2022",
                                            "--qaoa-aggregate"], {}),
    ("estimate-set-h1", ["estimate", "--workload", "estimate-set.json", "--qpu", "quantinuum-h1"], {}),
    ("estimate-set-h1-parallel", ["estimate", "--workload", "estimate-set.json", "--qpu", "quantinuum-h1",
                                  "--parallel-shots", "4"], {}),
    ("estimate-maxcut-aggregate-h1", ["estimate", "--workload", "maxcut.json", "--qpu", "quantinuum-h1",
                                      "--qaoa-aggregate"], {}),
    # compare at 29 (8 GiB statevector), 1,100, 10^12 and 10^400 qubits
    ("compare-29", ["compare", "--workload", "q29.json", "--qpu", "ibm-heron", "--classical", "classical-ref.json"], {}),
    ("compare-1100", ["compare", "--workload", "q1100.json", "--qpu", "ibm-flamingo",
                      "--classical", "classical-plain.json"], {}),
    ("compare-1e12", ["compare", "--workload", "q1e12.json", "--qpu", "ibm-flamingo",
                      "--classical", "classical-plain.json", "--parity-band", "0.5"], {}),
    ("compare-1e400", ["compare", "--workload", "q1e400.json", "--qpu", "ibm-flamingo",
                       "--classical", "classical-ref.json"], {}),
    ("compare-vqe-out", ["compare", "--workload", "vqe-72x72.json", "--qpu", "ibm-osprey",
                         "--classical", "classical-ref.json", "--out", "compare.md", "--parallel-shots", "2"], {}),
    ("compare-qaoa-lenient", ["compare", "--workload", "qaoa.json", "--qpu", "quantinuum-h1",
                              "--classical", "classical-lenient.json", "--qaoa-aggregate"], {}),
    # catalog and scatter, bundled and edge ids
    ("catalog", ["catalog"], {}),
    ("catalog-out", ["catalog", "--out", "catalog.md"], {}),
    ("catalog-edge", ["catalog", "--catalog", "edge-catalog.json", "--out", "edge.md"], {}),
    ("catalog-lenient", ["catalog", "--catalog", "lenient-catalog.json"], {}),
    ("scatter", ["scatter", "--out", "landscape.svg"], {}),
    ("scatter-edge", ["scatter", "--out", "edge", "--catalog", "edge-catalog.json"], {}),
    # the bundled catalog of schema version 1 verbatim, and the same document marked version 2
    ("catalog-v1", ["catalog", "--catalog", "v1-catalog.json"], {}),
    ("catalog-v2-old-fields", ["catalog", "--catalog", "v2-old-fields-catalog.json"], {}),
    # a power draw beyond float range, from a per-qubit component on a huge register or a huge
    # count, prints as inf W (unbounded); a zero-watt unit draws 0 W whatever its count
    ("catalog-huge-power", ["catalog", "--catalog", "huge-power-catalog.json"], {}),
    ("estimate-huge-per-qubit-power", ["estimate", "--workload", "q29.json", "--qpu", "huge-per-qubit",
                                       "--catalog", "huge-power-catalog.json"], {}),
    ("estimate-huge-count-power", ["estimate", "--workload", "q29.json", "--qpu", "huge-count",
                                   "--catalog", "huge-power-catalog.json"], {}),
    ("compare-huge-count-power", ["compare", "--workload", "q29.json", "--qpu", "huge-count",
                                  "--classical", "classical-plain.json", "--catalog", "huge-power-catalog.json"], {}),
    ("compare-zero-watts", ["compare", "--workload", "q29.json", "--qpu", "zero-watts",
                            "--classical", "classical-plain.json", "--catalog", "huge-power-catalog.json"], {}),
    ("estimate-zero-watts", ["estimate", "--workload", "q29.json", "--qpu", "zero-watts",
                             "--catalog", "huge-power-catalog.json"], {}),
    # a per-shot time of 4e-323 s beside a draw beyond float range, over 10 and 10^400
    # iterations on 10^12 lanes: each lane runs one shot, and over 10^400 iterations the
    # 0 s classical term reads 0 s, a product of 0 and an unbounded value
    ("estimate-underflow-runtime", ["estimate", "--workload", "q29.json", "--qpu", "tiny-time",
                                    "--catalog", "underflow-catalog.json", "--parallel-shots", "1000000000000"], {}),
    ("estimate-underflow-unbounded-iterations",
     ["estimate", "--workload", "q29-unbounded-iterations.json", "--qpu", "tiny-time",
      "--catalog", "underflow-catalog.json", "--parallel-shots", "1000000000000"], {}),
    ("compare-underflow-runtime", ["compare", "--workload", "q29.json", "--qpu", "tiny-time",
                                   "--classical", "classical-plain.json", "--catalog", "underflow-catalog.json",
                                   "--parallel-shots", "1000000000000"], {}),
    # a profile that sets cost and quality: the quantum side carries neither, so both read not-evaluated
    ("compare-cost-quality", ["compare", "--workload", "q29.json", "--qpu", "ibm-heron",
                              "--classical", "classical-cost-quality.json"], {}),
    # input errors: one `error:` line, exit 1
    ("error-strict-workload", ["feasibility", "--workload", "lenient.json", "--strict"], {}),
    ("error-strict-catalog", ["catalog", "--catalog", "lenient-catalog.json", "--strict"], {}),
    ("error-strict-profile", ["compare", "--workload", "q29.json", "--qpu", "ibm-heron",
                              "--classical", "classical-lenient.json", "--strict"], {}),
    ("error-syntax", ["feasibility", "--workload", "syntax-error.json"], {}),
    ("error-field-type", ["estimate", "--workload", "bad-field.json", "--qpu", "ibm-heron"], {}),
    ("error-enum", ["feasibility", "--workload", "bad-enum.json", "--format", "csv"], {}),
    ("error-duplicate-qpu", ["catalog", "--catalog", "dup-catalog.json"], {}),
    ("error-unknown-qpu", ["estimate", "--workload", "anchors.json", "--qpu", "no-such-qpu"], {}),
    ("error-missing-file", ["feasibility", "--workload", "missing.json"], {}),
    ("error-compare-two-workloads", ["compare", "--workload", "anchors.json", "--qpu", "ibm-heron",
                                     "--classical", "classical-ref.json"], {}),
    ("error-scatter-no-file", ["scatter", "--out", "plots/"], {}),
    ("error-scatter-missing-dir", ["scatter", "--out", "plots/landscape.svg"], {}),
    ("error-env-catalog-missing", ["catalog"], {"NISQ_GONOGO_CATALOG": "missing-catalog.json"}),
    ("error-non-finite", ["feasibility", "--workload", "non-finite.json"], {}),
    ("error-surrogate-id", ["feasibility", "--workload", "surrogate-id.json", "--format", "csv"], {}),
    ("error-bad-band", ["feasibility", "--workload", "anchors.json", "--marginal-band", "0.5"], {}),
    ("error-bad-parity-band", ["compare", "--workload", "q29.json", "--qpu", "ibm-heron",
                               "--classical", "classical-ref.json", "--parity-band", "1"], {}),
    # a file that is not UTF-8, read as each of the three documents
    ("error-not-utf8-catalog", ["catalog", "--catalog", "not-utf8.json"], {}),
    ("error-not-utf8-workload", ["feasibility", "--workload", "not-utf8.json"], {}),
    ("error-not-utf8-profile", ["compare", "--workload", "q29.json", "--qpu", "ibm-heron",
                                "--classical", "not-utf8.json"], {}),
    # a classical profile's number below its bound
    ("error-profile-runtime-bound", ["compare", "--workload", "q29.json", "--qpu", "ibm-heron",
                                     "--classical", "classical-negative-runtime.json"], {}),
    ("error-profile-cost-bound", ["compare", "--workload", "q29.json", "--qpu", "ibm-heron",
                                  "--classical", "classical-negative-cost.json"], {}),
    ("error-profile-memory-bound", ["compare", "--workload", "q29.json", "--qpu", "ibm-heron",
                                    "--classical", "classical-negative-memory.json"], {}),
    # an --out path that cannot be written: the error line alone, no report on stdout
    ("error-out-is-directory", ["catalog", "--out", "."], {}),
    # lenient warnings print as they are raised, before the error line
    ("error-lenient-then-unknown-qpu", ["estimate", "--workload", "lenient.json", "--catalog", "lenient-catalog.json",
                                        "--qpu", "no-such"], {}),
    # usage errors (one `error:` line, exit 1) and help (exit 0), read from the CLI's own table
    ("usage-no-command", [], {}),
    ("usage-unknown-command", ["frobnicate"], {}),
    ("usage-missing-workload", ["feasibility"], {}),
    ("usage-unknown-flag", ["catalog", "--bogus"], {}),
    ("usage-bad-format", ["feasibility", "--workload", "anchors.json", "--format", "x"], {}),
    ("usage-bad-parallel-shots", ["estimate", "--workload", "q29.json", "--qpu", "ibm-heron",
                                  "--parallel-shots", "x"], {}),
    ("usage-bad-marginal-band", ["feasibility", "--workload", "anchors.json", "--marginal-band", "x"], {}),
    ("usage-flag-without-value", ["feasibility", "--workload"], {}),
    ("usage-ambiguous-prefix", ["compare", "--p", "2"], {}),
    ("help", ["--help"], {}),
    ("help-estimate", ["estimate", "--help"], {}),
    # a warnings filter that turns warnings into errors does not reach the CLI's input warnings
    ("feasibility-lenient-pythonwarnings-error", ["feasibility", "--workload", "lenient.json", "--format", "csv"],
     {"PYTHONWARNINGS": "error"}),
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(argv: list[str], extra_env: dict[str, str]) -> dict:
    """Run one case in a fresh copy of ``inputs/``; return its exit code and digests."""
    # Without $PYTHONUNBUFFERED, stdout is block-buffered as from any pipe, so
    # the digests also prove that the CLI flushes every byte before it exits.
    env = {key: value for key, value in os.environ.items()
           if key not in ("NISQ_GONOGO_CATALOG", "PYTHONUNBUFFERED")}
    if os.path.isdir(SRC):
        env["PYTHONPATH"] = SRC
    env.update(PYTHONIOENCODING="utf-8", **extra_env)
    with tempfile.TemporaryDirectory() as tmp:
        work = os.path.join(tmp, "case")
        shutil.copytree(INPUTS, work)
        done = subprocess.run([sys.executable, "-c", _MAIN, *argv], cwd=work, env=env, capture_output=True)
        files = {}
        for root, _dirs, names in os.walk(work):
            for name in names:
                path = os.path.join(root, name)
                rel = os.path.relpath(path, work).replace(os.sep, "/")
                if not os.path.exists(os.path.join(INPUTS, rel)):
                    with open(path, "rb") as file:
                        files[rel] = _sha(file.read())
    return {
        "exit": done.returncode,
        "stdout": _sha(done.stdout),
        "stderr": _sha(done.stderr),
        "files": dict(sorted(files.items())),
    }


def main(argv: list[str]) -> int:
    record = argv == ["--record"]
    if argv and not record:
        sys.stderr.write("usage: check.py [--record]\n")
        return 2
    got = {name: run_case(case_argv, env) for name, case_argv, env in CASES}
    if record:
        with open(DIGESTS, "w", encoding="utf-8", newline="\n") as file:
            json.dump(got, file, indent=1, sort_keys=True)
            file.write("\n")
        print(f"recorded {len(got)} cases in {DIGESTS}")
        return 0
    with open(DIGESTS, encoding="utf-8") as file:
        want = json.load(file)
    bad = 0
    for name in sorted(got.keys() | want.keys()):
        if got.get(name) != want.get(name):
            bad += 1
            have, expected = got.get(name, {}), want.get(name, {})
            parts = [key for key in ("exit", "stdout", "stderr", "files") if have.get(key) != expected.get(key)]
            print(f"DIFF {name}: {', '.join(parts)}")
    version = ".".join(map(str, sys.version_info[:3]))
    print(f"golden corpus on Python {version}: {bad} of {len(got.keys() | want.keys())} cases differ")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
