"""Record the committed verdict lists that the benchmark gates on.

Run from the root of a source checkout:

    python3 svbench/record_expected.py

Runs each workload once for each of the seeds 0-30 and writes
``svbench/expected/<name>.json``: the ordered ``(check, verdict)`` list and
report digest at the default seed, and for every seed the ``[index, verdict]``
entries where that seed's list differs from the default one.  Re-record only when a change is
meant to alter verdicts, and say so where the change is described.
"""

from __future__ import annotations

import json
import os
import sys

import run as bench

DEFAULT_SEED = 1
SEEDS = range(0, 31)


def record(cli, name: str) -> dict:
    runs = {}
    for seed in SEEDS:
        argv = bench.workload_argv(name, seed, bench.OUT / f"record_{name}.txt")
        _, verdicts, text = bench.timed_run(cli, cli.build_config(argv))
        runs[seed] = verdicts, text
        print(f"{name} seed {seed}: {len(verdicts)} records", file=sys.stderr)
    base, base_text = runs[DEFAULT_SEED]
    deviations = {}
    for seed, (verdicts, _) in runs.items():
        if [n for n, _ in verdicts] != [n for n, _ in base]:
            raise SystemExit(f"{name} seed {seed}: check names differ from "
                             f"seed {DEFAULT_SEED}; cannot record")
        deviations[str(seed)] = [[i, v[1]] for i, (v, b) in
                                 enumerate(zip(verdicts, base)) if v != b]
    return {
        "workload": name,
        "default_seed": DEFAULT_SEED,
        "report_sha256": bench.sha256(base_text),
        "recorded_seeds": deviations,
        "verdicts": base,
    }


def main() -> int:
    os.environ.update(bench.BLAS_ENV)
    cli = bench.import_program()
    bench.OUT.mkdir(exist_ok=True)
    bench.EXPECTED.mkdir(exist_ok=True)
    for name in sorted(bench.WORKLOADS):
        path = bench.EXPECTED / f"{name}.json"
        path.write_text(json.dumps(record(cli, name), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
