import ast
import inspect
import sys
import zlib

import numpy as np
import pytest

from sixvertex import cli, functional_system, prefix_oracle
from sixvertex.functional_system import even_floor, oracle_residuals
from sixvertex.prefix_oracle import oracle_v
from sixvertex.vertex_core import ModelParams, generic_points, sample_mu

KEYS = ("gamma", "omega", "m", "n", "v")


def _random_instance(rng):
    L = int(rng.integers(1, 5))
    gamma = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    params = ModelParams(L, gamma, sample_mu(L, gamma, rng))
    return params


@pytest.mark.parametrize("which", ["gamma", "omega", "m", "n", "v"])
def test_oracle_agreement_100_instances(which):
    # str hashes are salted per process; crc32 gives every run the same draws
    rng = np.random.default_rng(zlib.crc32(which.encode()))
    done = 0
    while done < 100:
        p = _random_instance(rng)
        n = int(rng.integers(1 if which in ("gamma", "m") else 2, 5))
        v = generic_points(n + 1, rng)
        if which == "gamma":
            i = int(rng.integers(1, n + 1))
            j, k = ((0, i), (i, 0))[int(rng.integers(0, 2))]
            res = oracle_residuals(p, v, i=i, pair=(j, k))
        elif which in ("omega", "n"):
            i = int(rng.integers(1, n))
            j = int(rng.integers(i + 1, n + 1))
            res = oracle_residuals(p, v, i2=i, j2=j)
        elif which == "m":
            i = int(rng.integers(1, n + 1))
            res = oracle_residuals(p, v, i=i)
        else:
            nv = int(rng.integers(2, 6))
            mm = int(rng.integers(1, even_floor(nv) // 2 + 1))
            res = _v_residuals(rng, p, nv, mm)
        assert res[which] <= 1e-12
        done += 1
    if which == "v":
        # the draws above reach m <= 2; the zeros suite evaluates m = 3 and
        # 4 at L = 6..8
        rng = np.random.default_rng(68)
        for nv in (6, 6, 7, 7, 8):
            res = _v_residuals(rng, _random_instance(rng), nv, nv // 2)
            assert res["v"] <= 1e-12


def _v_residuals(rng, p, nv, mm):
    """The oracle residuals of v_coeff of order mm at nv drawn variables
    and 2 mm drawn removed slots."""
    vv = generic_points(nv, rng)
    idx = tuple(sorted(rng.choice(nv, size=2 * mm, replace=False).tolist()))
    return oracle_residuals(p, vv=vv, mm=mm, idx=idx)


def test_oracle_v_trivial_order():
    p = _random_instance(np.random.default_rng(0))
    assert oracle_v(0, (), (0.1, 0.2), p) == 1.0


def foreign_imports(source: str) -> list:
    """The imports of `source` that are relative or reach outside the
    standard library and numpy."""
    allowed = sys.stdlib_module_names | {"numpy"}
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out += [alias.name for alias in node.names
                    if alias.name.split(".")[0] not in allowed]
        elif isinstance(node, ast.ImportFrom):
            if node.level or node.module.split(".")[0] not in allowed:
                out.append("." * node.level + (node.module or ""))
    return out


def test_the_oracle_imports_only_the_standard_library_and_numpy():
    # an independent transcription shares no code with what it checks
    assert foreign_imports(inspect.getsource(prefix_oracle)) == []
    source = ("import itertools\nimport numpy as np\nfrom .numkit import worst\n"
              "from sixvertex.vertex_core import weights\nimport scipy.linalg\n")
    assert foreign_imports(source) == [".numkit", "sixvertex.vertex_core",
                                       "scipy.linalg"]


def _scaled(f, by):
    return lambda *args: f(*args) * by


@pytest.mark.parametrize("L", [2, 3, 4])
def test_a_run_fails_only_the_oracle_family_that_is_broken(L, tmp_path,
                                                           monkeypatch):
    # an oracle scaled by 1 + 1e-9 sits far above the 1e-12 tolerance of
    # its own record and reaches none of the other four
    def verdicts():
        _, reports = cli.run(cli.build_config(
            ["--size", str(L), "--suite", "functional",
             "--out", str(tmp_path / "r.txt")]))
        return {r.name: r.verdict for r in reports
                if cli._covers("functional.oracle", r.name)}

    names = [f"functional.oracle.{key}" for key in KEYS]
    assert verdicts() == dict.fromkeys(names, "pass")
    for key in KEYS:
        with monkeypatch.context() as m:
            name = f"oracle_{key}"
            m.setattr(functional_system, name,
                      _scaled(getattr(functional_system, name), 1 + 1e-9))
            assert verdicts() == dict(dict.fromkeys(names, "pass"),
                                      **{f"functional.oracle.{key}": "fail"})
