"""The config matrix of ``tools/report_matrix.py``, whose reports two
checkouts compare with ``diff -r``; no config is run here."""

import importlib.util
from pathlib import Path

from sixvertex import cli

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_matrix_has_137_configs_covering_every_svbench_workload():
    configs = list(load(ROOT / "tools" / "report_matrix.py",
                        "report_matrix").matrix())
    argv_of = dict(configs)
    assert len(configs) == len(argv_of) == 137
    workloads = load(ROOT / "svbench" / "run.py", "svbench_run").WORKLOADS
    for name, argv in workloads.items():
        for seed in range(31):
            assert argv_of[f"svbench_{name}_s{seed}"] == argv + ["--seed", str(seed)]
    for argv in argv_of.values():
        cli.build_config(argv)
