import zlib

import numpy as np
import pytest

from sixvertex.functional_system import even_floor, oracle_residuals
from sixvertex.prefix_oracle import Interp, oracle_v, read
from sixvertex.vertex_core import ModelParams, generic_points, sample_mu


def test_interpreter_arithmetic():
    it = Interp((1 + 0j,), (0j,), 0.5)
    assert it.run(read("(+ 1 2 3)")) == 6
    assert it.run(read("(* 2 (- 5 1))")) == 8
    assert it.run(read("(/ 1 4)")) == 0.25
    assert it.run(read("(- 3)")) == -3


def test_interpreter_weight_functions():
    g = 0.3 + 0.1j
    it = Interp((0.7 - 0.2j,), (0j,), g)
    assert abs(it.run(read("(a (v 0))")) - np.sinh(0.7 - 0.2j + g)) < 1e-15
    assert abs(it.run(read("(b (v 0))")) - np.sinh(0.7 - 0.2j)) < 1e-15
    assert abs(it.run(read("(c)")) - np.sinh(g)) < 1e-15


def test_interpreter_sets_and_loops():
    it = Interp((0j,) * 4, (0j,), 0.5)
    assert it.run(read("(prod t (range 1 4) t)")) == 24
    assert it.run(read("(sum t (omit (range 0 3) 1) t)")) == 0 + 2 + 3
    assert it.run(read("(sum-subsets J (range 1 3) 2 (elem J 2))")) == 2 + 3 + 3
    assert it.run(read("(sum-perms K (range 1 3) (elem K 1))")) == 12
    assert it.run(read("(prod-pairs r s (range 1 3) (- s r))")) == 1 * 2 * 1
    assert it.run(read("(with ((x 2) (y 3)) (* x y))")) == 6


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
