"""The config matrix of ``tools/report_matrix.py``, whose reports two
checkouts compare with ``diff -r``, and its check of the svbench configs
against ``svbench/expected/``; one config is run here, never the matrix."""

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


def test_an_svbench_config_is_checked_against_its_expected_verdicts(tmp_path):
    tool = load(ROOT / "tools" / "report_matrix.py", "report_matrix")
    name = "svbench_verify_L5_s3"
    argv = dict(tool.matrix())[name]
    _, reports = cli.run(cli.build_config(argv + ["--out", str(tmp_path / "r.txt")]))
    verdicts = tool.svbench().verdict_list(reports)
    assert tool.svbench_mismatches(name, verdicts) == 0
    verdicts[5][1] = "fail" if verdicts[5][1] == "pass" else "pass"
    assert tool.svbench_mismatches(name, verdicts) == 1
