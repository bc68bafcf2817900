"""Time each suite of the default run at L = 2..8 and write the seconds.

Run from anywhere, with the output file as the only argument:

    python3 tools/suite_sweep.py OUT.json

The program is imported from the ``src/`` next to this script, with BLAS at
one thread.  For each size the default run (``--size L --seed 1``, every
default suite) is made once in this process; each suite is timed as the
wall time of its ``_Runner.run_<suite>`` call, in run order.  The
transfer-matrix diagonalization and the zero extraction are made by the
first suite that needs them (``functional`` and ``zeros``), so their time
counts there.  One untimed default run at ``--size 2`` comes first, as in
``svbench/run.py``: scipy.linalg is imported at the first diagonalization,
and without the warm-up that import (~0.3 s) would be charged to the L = 2
functional suite.  The root-of-unity run ``--root-of-unity 1/4 --suite rou
--size L --seed 1`` is timed the same way at each size, after the default
runs.  ``OUT.json`` holds, for each run (``sizes`` for the default run,
``rou_l4`` for the root-of-unity run), the seconds per suite and in total,
the minor page faults of this process over the whole run (``minor_faults``,
the ``ru_minflt`` delta, next to ``total_s``) and the record and failure
counts; and the run metadata: commit, processor count, Python,
numpy and scipy versions.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SIZES = range(2, 9)
SEED = 1
ROU_ARGV = ("--root-of-unity", "1/4", "--suite", "rou")


def commit() -> str:
    """``git describe`` of the checkout, or ``unknown`` outside a git tree."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "describe", "--always",
                              "--dirty", "--abbrev=12"],
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def minor_faults() -> int:
    """Minor page faults of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def sweep(cli, argv=()) -> dict:
    """Seconds per suite of the run with the options `argv` at each size."""
    sizes = {}
    for L in SIZES:
        config = cli.build_config([*argv, "--size", str(L),
                                   "--seed", str(SEED)])
        faults = minor_faults()
        start = time.perf_counter()
        runner = cli._Runner(config)
        suites = {}
        for suite in (s for s in cli.SUITES if s in config.suites):
            t0 = time.perf_counter()
            getattr(runner, f"run_{suite}")()
            suites[suite] = round(time.perf_counter() - t0, 4)
        total = round(time.perf_counter() - start, 4)
        faults = minor_faults() - faults
        failed = sum(r.verdict == cli.FAIL for r in runner.reports)
        sizes[str(L)] = {"total_s": total, "minor_faults": faults,
                         "suites_s": suites,
                         "records": len(runner.reports), "failed": failed}
        print(f"L={L}", *argv, f"total {total:.2f} s", f"{faults} faults",
              suites, flush=True)
    return sizes


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: suite_sweep.py OUT.json", file=sys.stderr)
        return 2
    # before numpy is first imported, so BLAS honours it
    os.environ.update({var: "1" for var in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy

    from sixvertex import cli
    if Path(cli.__file__).resolve().parent != SRC / "sixvertex":
        raise SystemExit(f"imported {cli.__file__}, not {SRC}")
    meta = {
        "commit": commit(),
        "nproc": os.cpu_count(),
        "blas_threads": 1,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": SEED,
        "argv": "--size L --seed 1",
        "rou_argv": " ".join(ROU_ARGV) + " --size L --seed 1",
    }
    # untimed warm-up run at size 2
    cli._Runner(cli.build_config(["--size", "2", "--seed", str(SEED)])).run()
    result = {"meta": meta, "sizes": sweep(cli),
              "rou_l4": sweep(cli, ROU_ARGV)}
    Path(args[0]).write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
