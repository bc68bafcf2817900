"""Time-to-verdict benchmark for the sixvertex verifier.

Run from the root of a source checkout:

    python3 svbench/run.py --workload verify_L5 --seed 1 --seconds 25 --trace 0

The program is imported from ``src/`` of the same checkout and driven through
its public CLI entry points (``sixvertex.cli.build_config`` then
``sixvertex.cli.run``) as a closed loop with one client: one verification
run after another, each started when the previous verdict is in.  The
workload seed reaches the program only as ``--seed``.

``--trace 0`` reports the end-to-end metrics:

* ``run_s``: median wall time of one ``cli.run`` (report written), over at
  least two requests, after an untimed warm-up run of the same suites at
  size 2;
* ``setup_s``: median, over fresh interpreters started one before each
  request (at least five), of the time from ``import sixvertex.cli`` to a
  built ``RunConfig``;
* ``peak_rss_mb``: high-water resident set of this process, in MiB; each
  workload runs in its own process so the figure belongs to it.

``--trace 1`` makes one untraced and one traced run (see ``svtrace``) and
reports the per-layer metrics plus ``trace_overhead_s``.  The two runs must
write byte-identical report text.

Every run compares the ordered ``(check, verdict)`` list with the committed
list in ``svbench/expected/<workload>.json``, written by ``record_expected.py``
for seeds 0-30.  For a seed outside the recorded ones only the ordered check
names are gated.  Exit code 1 of ``cli.run`` is not a failure: ``rou_L6_l4``
exits 1 by design with documented ``fail`` findings.  The observed list, its
digest, the report digest and the run metadata are written to
``.svbench_out/`` for every seed, so two commits can be compared on any seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".svbench_out"
EXPECTED = HERE / "expected"

# One BLAS thread (<= nproc on any machine) keeps timings steady.
BLAS_THREADS = 1
BLAS_ENV = {var: str(BLAS_THREADS) for var in
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
# A verify_L5 request takes about a third of a 25 s window; two requests
# keep one slow stretch from leaving a single sample.
RUN_MIN = 2
SETUP_MIN = 5
CHILD_TIMEOUT_S = 60

# Why each workload was chosen:
# verify_L5     the default run users make; mixed spectrum, B-string,
#               coefficient and zero-fit work.
# operators_L8  the advertised size cap; dense 1024-dim operator oracles and
#               B-products, and no eigenstates at all.
# rou_L6_l4     eigenvalue evaluation at shifted points dominates; the mirror
#               image of operators_L8.
WORKLOADS = {
    "verify_L5": ["--size", "5"],
    "operators_L8": ["--size", "8", "--suite", "structural,dwbc"],
    "rou_L6_l4": ["--size", "6", "--root-of-unity", "1/4", "--suite", "rou"],
}

SETUP_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import sixvertex.cli
sixvertex.cli.build_config(sys.argv[2:])
print(time.perf_counter() - t0)
"""


def workload_argv(name: str, seed: int, out: Path, size: str | None = None):
    argv = list(WORKLOADS[name])
    if size is not None:
        argv[argv.index("--size") + 1] = size
    return argv + ["--seed", str(seed), "--out", str(out)]


def import_program():
    """Import ``sixvertex.cli`` from this checkout's ``src``, never elsewhere."""
    if not (SRC / "sixvertex" / "cli.py").is_file():
        raise SystemExit(f"svbench: no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    import sixvertex.cli as cli
    if Path(cli.__file__).resolve().parent != SRC / "sixvertex":
        raise SystemExit(f"svbench: imported {cli.__file__}, not {SRC}")
    return cli


def verdict_list(reports) -> list[list[str]]:
    return [[r.name, r.verdict] for r in reports]


def count_mismatches(observed, expected) -> int:
    """Positions whose items differ, plus any length difference."""
    differ = sum(1 for a, b in zip(observed, expected) if a != b)
    return differ + abs(len(observed) - len(expected))


def expected_verdicts(expected: dict, seed: int):
    """Committed (check, verdict) list at ``seed``; None if not recorded."""
    deviations = expected["recorded_seeds"].get(str(seed))
    if deviations is None:
        return None
    out = [list(item) for item in expected["verdicts"]]
    for index, verdict in deviations:
        out[index][1] = verdict
    return out


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_expected(name: str) -> dict:
    with open(EXPECTED / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def measure_setup(argv) -> float:
    """Seconds from ``import sixvertex.cli`` to a built config, in a fresh
    interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(SRC), *argv], cwd=ROOT,
        env=dict(os.environ, **BLAS_ENV), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def timed_run(cli, config):
    """One closed-loop request: returns (seconds, verdict list, report text)."""
    t0 = time.perf_counter()
    _, reports = cli.run(config)
    seconds = time.perf_counter() - t0
    with open(config.output_path, encoding="utf-8") as fh:
        return seconds, verdict_list(reports), fh.read()


def blas_build_info():
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None
    return {"name": blas.get("name"), "version": blas.get("version")}


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_metadata(args) -> dict:
    import numpy as np
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_build_info(),
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
    }


def run_untraced(cli, config, argv, seconds: float):
    """Set-up probe then request, back to back, until ``seconds`` have
    passed; at least ``RUN_MIN`` requests and ``SETUP_MIN`` probes.  Spreading the
    probes over the whole window lets both medians see the same machine."""
    runs, setups = [], []
    start = time.perf_counter()
    while len(runs) < RUN_MIN or time.perf_counter() - start < seconds:
        setups.append(measure_setup(argv))
        runs.append(timed_run(cli, config))
    while len(setups) < SETUP_MIN:
        setups.append(measure_setup(argv))
    return runs, setups


def run_traced(cli, config):
    """One untraced and one traced run, and the traced run's layer metrics."""
    import svtrace
    plain = timed_run(cli, config)
    tracer = svtrace.Tracer()
    with svtrace.traced(tracer):
        traced = timed_run(cli, config)
    metrics = svtrace.layer_metrics(tracer, config.L, len(traced[1]))
    metrics["trace_overhead_s"] = (traced[0] - plain[0], "s")
    return metrics, [plain, traced]


def gate(runs, expected: dict, seed: int):
    """(failed runs, mismatch_frac of the first run) against the committed
    list.  A run fails when it differs from that list, or when its report
    differs from the first run's: every run of one config, traced or not,
    must write the same text."""
    reference = expected_verdicts(expected, seed)
    observed = [got for _, got, _ in runs]
    if reference is None:
        # Unrecorded seed: gate on the ordered check names only; the list
        # written to the output directory lets two commits be compared.
        reference = [name for name, _ in expected["verdicts"]]
        observed = [[name for name, _ in got] for got in observed]
    text = runs[0][2]
    failed = sum(1 for (_, _, txt), got in zip(runs, observed)
                 if txt != text or count_mismatches(got, reference))
    return failed, count_mismatches(observed[0], reference) / len(reference)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Before numpy is first imported, so BLAS honours it.
    os.environ.update(BLAS_ENV)
    cli = import_program()
    expected = load_expected(args.workload)
    OUT.mkdir(exist_ok=True)
    report_path = OUT / f"report_{args.workload}.txt"
    argv_run = workload_argv(args.workload, args.seed, report_path)
    config = cli.build_config(argv_run)

    warm = workload_argv(args.workload, args.seed, OUT / "warmup.txt", size="2")
    cli.run(cli.build_config(warm))

    setups = []
    if args.trace:
        metrics, runs = run_traced(cli, config)
    else:
        runs, setups = run_untraced(cli, config, argv_run, args.seconds)
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "run_s": (statistics.median(r[0] for r in runs), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (rss_kib / 1024, "MiB"),
        }

    failed, mismatch_frac = gate(runs, expected, args.seed)
    observed, text = runs[0][1], runs[0][2]
    digests = {"verdicts_sha256": sha256(json.dumps(observed)),
               "report_sha256": sha256(text)}
    tag = f"{args.workload}_seed{args.seed}"
    (OUT / f"verdicts_{tag}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, **digests,
         "verdicts": observed}, indent=1) + "\n")
    record = {
        "meta": run_metadata(args),
        "run_samples_s": [r[0] for r in runs],
        "setup_samples_s": setups,
        "verdicts_recorded": str(args.seed) in expected["recorded_seeds"],
        "mismatch_frac": mismatch_frac,
        "identical_reports": all(r[2] == text for r in runs),
        **digests,
        # Informational bit-for-bit marker; BLAS builds may differ in the
        # last digits without any verdict changing.
        "report_matches_committed": (
            digests["report_sha256"] == expected["report_sha256"]
            if args.seed == expected["default_seed"] else None),
    }
    (OUT / f"result_{tag}_trace{args.trace}.json").write_text(
        json.dumps(dict(record, metrics=metrics), indent=1) + "\n")

    print("# " + json.dumps(record))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
