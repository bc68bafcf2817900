import cmath
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sixvertex
from sixvertex.cli import (
    FAMILIES,
    RunConfig,
    _family,
    _Runner,
    build_config,
    main,
    run,
    sample_params,
)
from sixvertex.errors import ConfigError
from sixvertex.report import CheckReport
from sixvertex.roots_of_unity import RootOfUnitySpec

LINE_RE = re.compile(
    r"^check=[\w.]+ anchor=\w+ residual=(?:[0-9.e+-]+|inf) tol=[0-9.e+-]+ "
    r"verdict=(pass|fail|conjecture_evidence) params_digest=[0-9a-f]{12}$"
)


def test_line_pattern_accepts_inf_and_rejects_trailing_garbage():
    inf_line = CheckReport("zeros.wronskian.state0", "CK", float("inf"), 1e-6,
                           "fail", "0123456789ab").line()
    assert LINE_RE.match(inf_line), inf_line
    assert not LINE_RE.match("check=a anchor=b residual=1e-3 GARBAGE")


def test_size_cap_rejected():
    with pytest.raises(ConfigError):
        RunConfig(L=9, gamma=0.5 + 0.2j)


def test_root_of_unity_validation():
    with pytest.raises(ConfigError):
        build_config(["--root-of-unity", "2/4"])
    with pytest.raises(ConfigError):
        build_config(["--root-of-unity", "1/1"])
    with pytest.raises(ValueError):
        RootOfUnitySpec(l=4, k=2)
    with pytest.raises(ValueError):
        RootOfUnitySpec(l=1, k=1)


def test_rou_suite_requires_root_gamma():
    with pytest.raises(ConfigError):
        RunConfig(L=2, gamma=0.5 + 0.2j, suites=("rou",))


def test_explicit_mu_length_checked():
    with pytest.raises(ConfigError):
        RunConfig(L=3, gamma=0.5 + 0.2j, mu=(0.1,))
    with pytest.raises(ConfigError):
        RunConfig(L=3, gamma=0.5 + 0.2j, mu="drawn")


def test_sample_params_deterministic():
    cfg = RunConfig(L=3, gamma=0.5 + 0.2j, seed=5)
    assert sample_params(cfg) == sample_params(cfg)


def test_zero_mu_mode():
    cfg = RunConfig(L=3, gamma=0.5 + 0.2j, mu="zero")
    assert sample_params(cfg).mu == (0j, 0j, 0j)


def test_structural_run_passes(tmp_path):
    out = tmp_path / "report.txt"
    cfg = RunConfig(L=3, gamma=0.6 + 0.25j, seed=42, suites=("structural",),
                    output_path=str(out))
    code, reports = run(cfg)
    assert code == 0
    assert all(r.verdict == "pass" for r in reports)
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# sixvertex ")
    assert "config=" in lines[0]
    for line in lines[1:]:
        assert LINE_RE.match(line), line


def test_structural_run_passes_at_the_size_cap(tmp_path):
    cfg = build_config(["--size", "8", "--suite", "structural", "--seed", "1",
                        "--out", str(tmp_path / "report.txt")])
    code, reports = run(cfg)
    assert code == 0
    assert len(reports) == 12
    assert all(r.verdict == "pass" for r in reports)


def test_report_reproducible_bit_for_bit(tmp_path):
    out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
    for out in (out1, out2):
        cfg = RunConfig(L=2, gamma=0.6 + 0.25j, seed=11,
                        suites=("structural", "dwbc", "functional"),
                        output_path=str(out))
        run(cfg)
    assert out1.read_text() == out2.read_text()


def test_every_record_has_a_default_tolerance(tmp_path):
    # structural + hamiltonian records (mu zero), the L = 2 closed form,
    # the L = 3 and L = 4 appendix identities, and the rou records of
    # l = 2..5; every record resolves to a family, and every family is
    # resolved by some record
    out = str(tmp_path / "r.txt")
    explicit = dict(gamma=0.6 + 0.25j, seed=1, output_path=out)
    configs = [
        RunConfig(L=2, mu="zero", **explicit),
        RunConfig(L=3, suites=("theorem",), **explicit),
        RunConfig(L=4, suites=("theorem",), **explicit),
    ] + [
        RunConfig(L=2, gamma=RootOfUnitySpec(l), seed=1, output_path=out)
        for l in (2, 3, 4, 5)
    ]
    reports = [r for cfg in configs for r in run(cfg)[1]]
    families = {_family(r.name) for r in reports}
    assert {f.split(".")[0] for f in families} == {
        "structural", "dwbc", "functional", "theorem", "zeros", "rou"}
    assert families == set(FAMILIES), set(FAMILIES) - families

    # the anchors resolved by chain size and by sub-key
    appendix = {}
    for r in reports:
        if r.name.startswith("theorem.appendix."):
            appendix.setdefault(r.anchor, set()).add(r.name.split(".")[2])
    assert appendix == {"cnd": {"V2_10", "V2_20", "V2_21"},
                        "cnd1": {"V2_10", "V2_20", "V2_21", "V2_30", "V2_31",
                                 "V2_32"},
                        "cnd2": {"V4_3210"}}
    oracle = {(r.name, r.anchor) for r in reports
              if r.name.startswith("functional.oracle.")}
    assert oracle == {("functional.oracle.gamma", "mn"),
                      ("functional.oracle.omega", "mn"),
                      ("functional.oracle.m", "coeff"),
                      ("functional.oracle.n", "coeff"),
                      ("functional.oracle.v", "VV")}


def test_unknown_check_family_has_no_default_tolerance():
    runner = _Runner(RunConfig(L=2, gamma=0.6 + 0.25j))
    assert runner.resolve("functional.fl.state3.n2") == FAMILIES["functional.fl"]
    with pytest.raises(KeyError):
        runner.resolve("functional.renamed_check")


def test_tolerance_override_changes_verdict(tmp_path):
    out = tmp_path / "r.txt"
    cfg = RunConfig(L=2, gamma=0.6 + 0.25j, seed=1,
                    suites=("structural",), output_path=str(out),
                    tol_overrides={"structural.ybe": 1e-30})
    code, reports = run(cfg)
    assert code == 1
    bad = [r for r in reports if r.name == "structural.ybe"]
    assert bad and bad[0].verdict == "fail"


def test_tolerance_override_does_not_leak_into_longer_names():
    overrides = {"zeros.wronskian": 1e-3, "rou.bethe": 1e-2}
    runner = _Runner(RunConfig(L=3, gamma=0.6 + 0.25j, seed=1,
                               tol_overrides=overrides))
    assert runner.resolve("zeros.wronskian.state0") == ("CK", 1e-3)
    assert runner.resolve("zeros.wronskian_sharpness.state0") == \
        FAMILIES["zeros.wronskian_sharpness"]
    assert runner.resolve("rou.bethe.state2") == ("BAl3", 1e-2)
    assert runner.resolve("rou.bethe_l2.state2") == FAMILIES["rou.bethe_l2"]


def test_tolerance_override_for_unknown_check_rejected():
    with pytest.raises(ConfigError):
        build_config(["--tol", "structral.ybe=1"])
    assert main(["--size", "2", "--suite", "structural",
                 "--tol", "structural.yb=1"]) == 2
    # what a key adds to its family must be a record suffix the runner writes
    assert main(["--size", "2", "--suite", "zeros",
                 "--tol", "zeros.wronskian.stat0=1e-30"]) == 2
    for key in ("zeros.wronskian.", "zeros.wronskian.state", "structural.ybe.n",
                "functional.fl.n2.state3", "theorem.appendix.V2",
                "zeros.wronskian.state0.extra"):
        with pytest.raises(ConfigError):
            build_config(["--tol", f"{key}=1"])
    # a suite, a family, a single record, a (state, n) record and an
    # appendix identity are all known keys
    keys = ("zeros", "structural.ybe", "zeros.wronskian.state0",
            "functional.fl.state3.n2", "theorem.appendix.V2_10")
    cfg = build_config([arg for key in keys for arg in ("--tol", f"{key}=1")])
    assert len(cfg.tol_overrides) == 5


def test_negative_seed_rejected():
    with pytest.raises(ConfigError):
        RunConfig(L=2, gamma=0.6 + 0.25j, seed=-1)
    assert main(["--size", "2", "--seed", "-1"]) == 2


@pytest.mark.parametrize("argv", [
    ["--gamma", "nan,0", "--suite", "structural"],
    ["--gamma", "inf,0", "--suite", "structural"],
    ["--mu", "0.1,nan", "--suite", "structural,dwbc"],
    ["--suite", ","],
    ["--suite", "structural", "--tol", "structural=nan"],
    ["--suite", "structural", "--tol", "structural=-1"],
    ["--suite", "structural", "--tol", "structural.ybe=0"]])
def test_non_finite_parameters_rejected(argv, tmp_path, capsys):
    # a NaN anisotropy read as passing records, a NaN inhomogeneity
    # stopped the run in an SVD; an empty suite list wrote a report of its
    # header alone and passed, and a NaN or non-positive tolerance failed
    # every record it covered
    out = tmp_path / "r.txt"
    with pytest.raises(ConfigError):
        build_config(["--size", "2", *argv])
    assert main(["--size", "2", *argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not out.exists()


def test_a_vanishing_sinh_gamma_is_rejected(tmp_path, capsys):
    # at gamma = 0 the weight c = sinh(gamma) vanishes, so do B and C, and
    # check_tphi divided by the zero norm of its left side: the run died
    # with a ZeroDivisionError, exit 1 and no report
    out = tmp_path / "r.txt"
    with pytest.raises(ConfigError):
        RunConfig(L=3, gamma=0j)
    assert main(["--size", "3", "--gamma", "0,0", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not out.exists()
    # at gamma = i pi, sinh(gamma) reads 1.2e-16, not 0: it is accepted
    assert RunConfig(L=3, gamma=1j * cmath.pi).gamma == 1j * cmath.pi


@pytest.mark.parametrize("argv,patched,record", [
    (["--suite", "structural"], "ybe_residual", "structural.ybe"),
    (["--root-of-unity", "1/2", "--suite", "rou"], "check_truncation",
     "rou.truncation")])
def test_a_nan_residual_fails_its_record(argv, patched, record, tmp_path,
                                         monkeypatch):
    # a NaN at the second draw of a worst-over-draws record fails it,
    # where a running max from 0.0 passed over it
    from sixvertex import cli

    argv = ["--size", "2", "--seed", "1", *argv, "--out",
            str(tmp_path / "r.txt")]
    assert main(argv) == 0
    real = getattr(cli, patched)
    calls = []

    def nan_at_second_draw(*args):
        calls.append(args)
        return float("nan") if len(calls) == 2 else real(*args)

    monkeypatch.setattr(cli, patched, nan_at_second_draw)
    assert main(argv) == 1
    lines = (tmp_path / "r.txt").read_text().splitlines()
    line, = [x for x in lines if x.startswith(f"check={record} ")]
    assert " residual=nan " in line and " verdict=fail " in line


def test_conjecture_records_do_not_fail(tmp_path):
    out = tmp_path / "r.txt"
    cfg = RunConfig(L=2, gamma=RootOfUnitySpec(l=5, k=1), seed=3,
                    suites=("rou",), output_path=str(out))
    code, reports = run(cfg)
    bethe = [r for r in reports if r.name.startswith("rou.bethe")]
    assert bethe
    assert all(r.verdict == "conjecture_evidence" for r in bethe)
    assert code == 0


def test_main_exit_codes(tmp_path, capsys):
    out = tmp_path / "r.txt"
    assert main(["--size", "9"]) == 2
    assert main(["--size", "2", "--gamma", "0.6,0.25", "--root-of-unity",
                 "1/3"]) == 2
    code = main(["--size", "2", "--seed", "42", "--suite", "structural",
                 "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr()
    assert "verdict=pass" in captured.out


def test_cli_argument_parsing():
    cfg = build_config(["--size", "4", "--root-of-unity", "3/4",
                        "--mu", "zero", "--seed", "9", "--draws", "2",
                        "--tol", "rou.bethe=1e-3", "--suite", "rou"])
    assert cfg.L == 4
    assert cfg.gamma == RootOfUnitySpec(l=4, k=3)
    assert cfg.mu == "zero"
    assert cfg.tol_overrides == {"rou.bethe": 1e-3}
    assert cfg.suites == ("rou",)


def test_cli_explicit_mu_parsing():
    cfg = build_config(["--size", "2", "--mu", "0.1+0.2j,-0.3j"])
    assert cfg.mu == (0.1 + 0.2j, -0.3j)


# (argv, digest of the config in the report header), recorded before
# RunConfig held one field per input; the digests must not move
DIGESTS = [
    (["--size", "3"], "dfa268bf1a76"),
    (["--size", "4", "--mu", "zero"], "c07c63bed5e3"),
    (["--size", "2", "--mu", "0.1+0.2j,-0.3j"], "f9997f337835"),
    (["--size", "4", "--root-of-unity", "3/4", "--suite", "rou",
      "--tol", "rou.bethe=1e-3"], "00aeb51783e6"),
    (["--size", "2", "--gamma", "0.3,0.1", "--draws", "2", "--seed", "9"],
     "1b341026f2a2"),
]


@pytest.mark.parametrize("argv, digest", DIGESTS, ids=[d for _, d in DIGESTS])
def test_config_digest_is_pinned(argv, digest):
    assert build_config(argv).digest() == digest


def test_run_config_defaults_are_the_cli_defaults():
    assert RunConfig(L=3).digest() == build_config(["--size", "3"]).digest()


def test_cli_import_leaves_out_scipy_optimize(tmp_path):
    """Importing the CLI and running the structural and dwbc suites, which
    never diagonalize, loads no scipy module at all; the first
    diagonalization loads scipy.linalg."""
    env = dict(os.environ, PYTHONPATH=str(Path(sixvertex.__file__).parents[1]))
    code = f"""
import sys
from sixvertex import cli

def scipy_modules():
    return [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]

out = {str(tmp_path / "r.txt")!r}
cli.run(cli.build_config(["--size", "2", "--suite", "structural,dwbc",
                          "--out", out]))
assert scipy_modules() == [], scipy_modules()
cli.run(cli.build_config(["--size", "2", "--suite", "functional",
                          "--out", out]))
assert "scipy.linalg" in sys.modules
"""
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   timeout=60)


def test_homogeneous_structural_run_builds_the_hamiltonian_once(tmp_path,
                                                                monkeypatch):
    from sixvertex import vertex_core
    built = []

    def counted(params):
        built.append(params)
        return real(params)

    real = vertex_core.hamiltonian
    monkeypatch.setattr(vertex_core, "hamiltonian", counted)
    code, reports = run(build_config(["--size", "4", "--mu", "zero", "--suite",
                                      "structural", "--out",
                                      str(tmp_path / "r.txt")]))
    assert code == 0
    assert len(built) == 1
    names = {r.name for r in reports}
    assert {"structural.hamiltonian_commutes",
            "structural.log_derivative_fit"} <= names


def test_a_failed_check_records_inf_and_drops_its_dependents(tmp_path,
                                                              monkeypatch):
    """The failed row of a state in a check that takes every state at
    once, or its flag in one that flags failed sets, records the checks
    that read it as `inf` and `fail` with the anchor and tolerance of
    their families, and drops the records of the same state that the
    check guards; other states are untouched."""
    from sixvertex import cli, zeros

    argv = ["--size", "2", "--root-of-unity", "1/4", "--suite", "zeros,rou",
            "--seed", "1", "--out", str(tmp_path / "r.txt")]
    names = {r.name for r in run(build_config(argv))[1]}
    runner = cli._Runner(build_config(argv))
    # the row of state 1 in the zero sets of the run
    k1 = [st.index for st in runner.zero_sets().states].index(1)

    def lz01_fails_state1(m):
        # the row of state 1 as check_lz01 writes a state whose fit failed
        real = cli.check_lz01

        def broken(sets):
            out = real(sets)
            for key in ("spread", "constant_residual"):
                out[key][k1] = float("inf")
            return out
        m.setattr(cli, "check_lz01", broken)

    def ratio_flags_state1(m):
        # the ratio equation of state 1 meets a pole, as a vanishing
        # eigenvalue at a shifted zero flags it
        real = cli.l4_ratio_residuals

        def broken(lhs, shifted):
            res, failed = real(lhs, shifted)
            assert not failed[k1]
            return res, failed | (np.arange(len(failed)) == k1)
        m.setattr(cli, "l4_ratio_residuals", broken)

    def nonpolynomial_state1(m):
        # state 1's samples are no polynomial in x, so the zero set fitted
        # to them misses its eigenvalue at the probes; only the extraction's
        # read is changed, not the later reads of the zeros suite
        real = zeros.values

        def values(states, points):
            out = real(states, points)
            if points is zeros._sample_points(runner.params.L):
                out[[st.index for st in states].index(1)] *= \
                    1 + 1e-3 * np.abs(points)
            return out
        m.setattr(zeros, "values", values)

    # (break, {failed record: (anchor, tol)}, dropped records)
    cases = [
        (nonpolynomial_state1, {"zeros.reconstruction": ("wj", 1e-7)},
         ("zeros.at_zero", "zeros.lz01_constancy", "zeros.coincidence",
          "rou.bethe", "rou.l4_relation", "rou.l4_at_zeros")),
        # lz01 and coincidence read one angle, and nothing depends on it
        (lz01_fails_state1,
         {"zeros.lz01_constancy": ("LZ01", 1e-6),
          "zeros.lz01_even_constant": ("LZ01", 1e-6),
          "zeros.coincidence": ("BAeven", 1e-6)}, ()),
        (ratio_flags_state1, {"rou.l4_relation": ("l4ex", 1e-8)},
         ("rou.q_periodicity", "rou.l4_ratio", "rou.l4_at_zeros")),
    ]
    for brk, failed, dropped in cases:
        with monkeypatch.context() as m:
            brk(m)
            code, reports = run(build_config(argv))
        assert code == 1
        by_name = {r.name: r for r in reports}
        for fam, (anchor, tol) in failed.items():
            rec = by_name[f"{fam}.state1"]
            assert (rec.anchor, rec.residual, rec.tolerance, rec.verdict) == \
                (anchor, float("inf"), tol, "fail"), fam
            assert sum(r.name == rec.name for r in reports) == 1
        for fam in dropped:
            assert f"{fam}.state1" in names
            assert f"{fam}.state1" not in by_name, fam
        kept = {n for n in names if not n.endswith(".state1")}
        assert kept <= set(by_name), kept - set(by_name)
        if not dropped:
            assert {n for n in names if n.endswith(".state1")} <= set(by_name)


def test_zeros_records_do_not_depend_on_draws(tmp_path):
    # the zeros suite draws a fixed number of points per state; --draws
    # moves only the config digest of its lines
    def lines(draws):
        argv = ["--size", "4", "--suite", "zeros", "--seed", "1", "--draws",
                str(draws), "--out", str(tmp_path / "r.txt")]
        return [r.line().rsplit(" params_digest=", 1)[0]
                for r in run(build_config(argv))[1]]

    assert lines(1) == lines(9)


def test_a_zero_on_an_inhomogeneity_shift_fails_only_its_state(tmp_path,
                                                              monkeypatch):
    """A zero of state 1 moved onto an inhomogeneity shift flags its zero
    set: its `rou.bethe` and `rou.l4_relation` read inf, its later l = 4
    records are dropped, and every other line of the report is that of
    the unpatched run, byte for byte."""
    from sixvertex import cli

    out = tmp_path / "r.txt"
    argv = ["--size", "2", "--root-of-unity", "1/4", "--suite", "rou",
            "--seed", "1", "--out", str(out)]
    run(build_config(argv))
    clean = out.read_text().splitlines()
    real = cli.extract_zeros

    def extract(states, params):
        sets, failed = real(states, params)
        k1 = [st.index for st in sets.states].index(1)
        sets.zeros[k1, 0] = params.mu[1] - 2 * params.gamma
        return sets, failed

    monkeypatch.setattr(cli, "extract_zeros", extract)
    code, reports = run(build_config(argv))
    lines = out.read_text().splitlines()
    assert code == 1
    assert [r.name for r in reports if r.name.endswith(".state1")] == \
        ["rou.bethe.state1", "rou.l4_relation.state1"]
    assert all((r.residual, r.verdict) == (float("inf"), "fail")
               for r in reports if r.name.endswith(".state1"))
    assert [x for x in clean if ".state1 " in x] != []
    assert [x for x in lines if ".state1 " not in x] == \
        [x for x in clean if ".state1 " not in x]


def test_a_failed_hierarchy_order_records_every_state_once(tmp_path,
                                                          monkeypatch):
    """One hierarchy call serves every state at an order n, so a
    SixVertexError there records `functional.fl.state<i>.n<n>` of every
    state once as `inf` and `fail`; the other orders keep their records."""
    from sixvertex import cli
    from sixvertex.errors import PoleEncountered

    argv = ["--size", "2", "--suite", "functional", "--seed", "1",
            "--out", str(tmp_path / "r.txt")]
    clean = run(build_config(argv))[1]
    real = cli.check_fl

    def broken(n, *args):
        if n == 1:
            raise PoleEncountered("broken for the test")
        return real(n, *args)

    monkeypatch.setattr(cli, "check_fl", broken)
    code, reports = run(build_config(argv))
    assert code == 1
    assert [r.name for r in reports] == [r.name for r in clean]
    failed = [r for r in reports if r.name.endswith(".n1")
              and r.name.startswith("functional.fl.")]
    assert [r.name for r in failed] == [f"functional.fl.state{i}.n1"
                                        for i in range(4)]
    for rec in failed:
        assert (rec.anchor, rec.residual, rec.tolerance, rec.verdict) == \
            ("FL", float("inf"), 1e-8, "fail")
    assert [r for r in reports if r not in failed] == \
        [r for r in clean if r.name not in {f.name for f in failed}]


def test_a_failed_theorem_draw_records_every_state_once(tmp_path,
                                                        monkeypatch):
    """One theorem call serves every k0-defined state at a draw, so a
    SixVertexError there records `theorem.expansion.state<i>` of every
    such state once as `inf` and `fail`; the other draws keep their
    records."""
    from sixvertex import cli
    from sixvertex.errors import PoleEncountered

    argv = ["--size", "2", "--suite", "theorem", "--seed", "1",
            "--out", str(tmp_path / "r.txt")]
    clean = run(build_config(argv))[1]
    real = cli.check_theorem
    calls = []

    def broken(*args):
        calls.append(args)
        if len(calls) == 2:
            raise PoleEncountered("broken for the test")
        return real(*args)

    monkeypatch.setattr(cli, "check_theorem", broken)
    code, reports = run(build_config(argv))
    assert code == 1
    assert len(calls) == 5
    defined = [st.index for st in calls[0][0]]
    assert defined
    assert [r.name for r in reports] == [r.name for r in clean]
    expansion = [i for i, r in enumerate(reports)
                 if r.name.startswith("theorem.expansion.")]
    # draw-major: the records of the second draw are the second block
    failed = expansion[len(defined):2 * len(defined)]
    assert [reports[i].name for i in failed] == \
        [f"theorem.expansion.state{i}" for i in defined]
    for i in failed:
        assert (reports[i].anchor, reports[i].residual, reports[i].tolerance,
                reports[i].verdict) == ("Lgen", float("inf"), 1e-8, "fail")
    assert [r for i, r in enumerate(reports) if i not in failed] == \
        [r for i, r in enumerate(clean) if i not in failed]


def test_hierarchy_records_are_state_major(tmp_path):
    reports = run(build_config(["--size", "3", "--suite", "functional",
                                "--out", str(tmp_path / "r.txt")]))[1]
    names = [r.name for r in reports if r.name.startswith("functional.fl.")]
    assert names == [f"functional.fl.state{i}.n{n}"
                     for i in range(8) for n in range(5)]
