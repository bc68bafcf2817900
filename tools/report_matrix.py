"""Write the report and exit code of every config of a fixed matrix.

Run from anywhere, with the output directory as the only argument:

    python3 tools/report_matrix.py OUTDIR

The program is imported from the ``src/`` next to this script, with BLAS at
one thread.  For each config, ``OUTDIR/<name>.txt`` holds the report and
``OUTDIR/<name>.exit`` the exit code of ``cli.run`` (or the name of the
exception it raised).  Run the script in two checkouts and compare them
with ``diff -r OUTDIR_A OUTDIR_B``: a change that keeps the arithmetic of
every residual leaves no difference.

The matrix:

* the default suites at L = 1..8, seeds 0 and 1;
* ``--mu zero`` at L = 2..8;
* ``--root-of-unity 1/l --suite rou`` for l = 2..5 at L = 2..6, seed 1;
* ``--size 8 --suite structural,dwbc --seed 1``;
* the workloads of ``svbench/run.py`` at seeds 0-30.
"""

from __future__ import annotations

import importlib.util
import os
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def workloads() -> dict:
    """The svbench workloads, read from ``svbench/run.py``."""
    spec = importlib.util.spec_from_file_location("svbench_run",
                                                  ROOT / "svbench" / "run.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.WORKLOADS


def matrix():
    """(name, argv) of every config, in run order."""
    for L in range(1, 9):
        for seed in (0, 1):
            yield f"default_L{L}_s{seed}", ["--size", str(L), "--seed", str(seed)]
    for L in range(2, 9):
        yield f"mu_zero_L{L}", ["--size", str(L), "--mu", "zero"]
    for l in range(2, 6):
        for L in range(2, 7):
            yield f"rou_l{l}_L{L}", ["--size", str(L), "--root-of-unity",
                                     f"1/{l}", "--suite", "rou", "--seed", "1"]
    yield "operators_L8_s1", ["--size", "8", "--suite", "structural,dwbc",
                              "--seed", "1"]
    for name, argv in workloads().items():
        for seed in range(31):
            yield f"svbench_{name}_s{seed}", argv + ["--seed", str(seed)]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: report_matrix.py OUTDIR", file=sys.stderr)
        return 2
    out = Path(args[0])
    out.mkdir(parents=True, exist_ok=True)
    # before numpy is first imported, so BLAS honours it
    os.environ.update({var: "1" for var in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    sys.path.insert(0, str(SRC))
    from sixvertex import cli
    if Path(cli.__file__).resolve().parent != SRC / "sixvertex":
        raise SystemExit(f"imported {cli.__file__}, not {SRC}")
    for name, config_argv in matrix():
        config = cli.build_config(config_argv + ["--out", str(out / f"{name}.txt")])
        try:
            code = str(cli.run(config)[0])
        except Exception as exc:  # the exception is the config's outcome
            traceback.print_exc()
            code = type(exc).__name__
        (out / f"{name}.exit").write_text(code + "\n", encoding="utf-8")
        print(name, code, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
