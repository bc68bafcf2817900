from collections import Counter

import numpy as np
import pytest

from sixvertex import cli, dwbc, vertex_core
from sixvertex.dwbc import (
    draw_residuals,
    underflow_residual,
    z_bproduct,
    z_izergin,
)
from sixvertex.errors import SingularDenominator
from sixvertex.vertex_core import (
    BOperators,
    ModelParams,
    b_operator,
    generic_points,
    reference_states,
    sample_mu,
    weights,
)

GAMMA = complex(0.39, 0.27)


def params_for(L, seed=7):
    rng = np.random.default_rng(seed)
    return ModelParams(L, GAMMA, sample_mu(L, GAMMA, rng))


def draw(p, lams=None, perm=None, shift=0j, over=None):
    """`draw_residuals` with the inputs a test does not vary drawn from a
    fixed generator of their own."""
    filler = np.random.default_rng(0)
    if lams is None:
        lams = generic_points(p.L, filler, avoid=p.mu)
    if over is None:
        over = generic_points(p.L + 1, filler, avoid=p.mu)
    return draw_residuals(lams, lams if perm is None else perm, shift, over, p)


def test_single_site_partition_function():
    p = params_for(1)
    z = z_bproduct((0.3 - 0.8j,), p)
    assert abs(z - np.sinh(GAMMA)) < 1e-15


def test_permutation_invariance():
    p = params_for(4)
    rng = np.random.default_rng(1)
    lams = generic_points(4, rng, avoid=p.mu)
    perm = list(lams)
    rng.shuffle(perm)
    assert draw(p, lams, perm)["permutation"] < 1e-10


def test_determinant_anchor_single_site():
    p = params_for(1)
    zi = z_izergin((0.3 - 0.8j,), p)
    assert abs(zi - np.sinh(GAMMA)) < 1e-14


@pytest.mark.parametrize("L", [2, 3, 4, 5, 6])
def test_determinant_matches_product(L):
    p = params_for(L, seed=L)
    rng = np.random.default_rng(40 + L)
    for _ in range(5):
        lams = generic_points(L, rng, avoid=p.mu)
        assert draw(p, lams)["oracle_agreement"] < 1e-9


def test_determinant_symmetric_in_lambdas():
    p = params_for(3)
    rng = np.random.default_rng(2)
    lams = list(generic_points(3, rng, avoid=p.mu))
    zi = z_izergin(lams, p)
    swapped = [lams[1], lams[0], lams[2]]
    assert abs(z_izergin(swapped, p) - zi) / abs(zi) < 1e-10


def test_determinant_rejects_coinciding_points():
    p = params_for(2)
    with pytest.raises(SingularDenominator):
        z_izergin((0.3, 0.3 + 1e-9), p)


def test_shift_invariance():
    p = params_for(3)
    rng = np.random.default_rng(3)
    lams = generic_points(3, rng, avoid=p.mu)
    assert draw(p, lams, shift=0.17 - 0.08j)["shift_invariance"] < 1e-10


@pytest.mark.parametrize("L", [2, 3, 4])
def test_highest_weight_property(L):
    p = params_for(L, seed=10 + L)
    rng = np.random.default_rng(20 + L)
    lams = generic_points(L, rng, avoid=p.mu)
    assert draw(p, lams)["highest_weight"] < 1e-10


def test_single_site_creation_maps_up_to_down():
    p = params_for(1)
    lam = 0.4 + 0.2j
    up, down = reference_states(1)
    vec = b_operator(lam, p) @ up
    assert np.linalg.norm(vec - np.sinh(GAMMA) * down) < 1e-15


def test_overlong_string_annihilates():
    p = params_for(3)
    rng = np.random.default_rng(4)
    lams = generic_points(4, rng, avoid=p.mu)
    assert draw(p, over=lams)["overflow_string"] < 1e-10


def test_short_string_has_no_down_component():
    p = params_for(3)
    rng = np.random.default_rng(5)
    lams = generic_points(2, rng, avoid=p.mu)
    assert underflow_residual(lams, p) < 1e-12


def _scaled_c(lam, gamma):
    a, b, c = weights(lam, gamma)
    return a, b, 1.1 * c


def _b_times_exp(lam, params):
    # a factor e^lam depends on the point itself, not on its difference
    # from the inhomogeneities
    return np.exp(lam) * b_operator(lam, params)


def _b_plus_ones(lam, params):
    # connects every pair of basis states, whatever their magnetization
    bop = b_operator(lam, params)
    return bop + 0.1 * np.abs(bop).max() * np.ones_like(bop)


def _every_b(broken):
    """The string entry point with every B it reads, of a string or of the
    overflow scale, replaced by ``broken(x, params)``."""

    class Broken(BOperators):
        def __getitem__(self, j):
            return broken(self.lams[j], self.params)

        def blocks(self, j):
            return vertex_core._split(broken(self.lams[j], self.params))

    return Broken


# check -> (module, attribute, replacement that breaks the identity)
BREAKS = {
    # with c scaled the B(x) no longer commute, and Z leaves the determinant
    "permutation": (vertex_core, "weights", _scaled_c),
    "oracle_agreement": (vertex_core, "weights", _scaled_c),
    "shift_invariance": (dwbc, "BOperators", _every_b(_b_times_exp)),
    "highest_weight": (dwbc, "BOperators", _every_b(_b_plus_ones)),
    "overflow_string": (dwbc, "BOperators", _every_b(_b_plus_ones)),
    "underflow_string": (dwbc, "BOperators", _every_b(_b_plus_ones)),
}


@pytest.mark.parametrize("check", sorted(BREAKS))
def test_residual_reads_large_on_broken_identity(check, monkeypatch):
    p = params_for(3)
    rng = np.random.default_rng(6)
    lams = generic_points(3, rng, avoid=p.mu)
    owner, attr, broken = BREAKS[check]
    monkeypatch.setattr(owner, attr, broken)
    if check == "underflow_string":
        residual = underflow_residual(lams[:2], p)
    else:
        residual = draw(p, lams, lams[::-1], 0.17 - 0.08j)[check]
    assert residual > 1e-3


def _count_two_norms(monkeypatch):
    # a 2-norm is the largest singular value: one SVD per block
    calls = []
    svd = np.linalg.svd

    def counted(x, *args, **kwargs):
        calls.append(x.shape)
        return svd(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


def test_overflow_scale_is_taken_only_for_a_nonzero_string(monkeypatch):
    p = params_for(3)
    rng = np.random.default_rng(7)
    lams = generic_points(3, rng, avoid=p.mu)
    over = generic_points(4, rng, avoid=p.mu)
    calls = _count_two_norms(monkeypatch)
    assert draw(p, lams, over=over)["overflow_string"] == 0.0
    assert calls == []
    # a B that mixes the magnetization sectors leaves a nonzero string,
    # scaled by the largest block 2-norm of each of its operators: every
    # such B fills all 16 blocks of the weights 0..3, and the four 3 x 3
    # blocks of weights 1 and 2 take an SVD each
    monkeypatch.setattr(dwbc, "BOperators", _every_b(_b_plus_ones))
    assert draw(p, lams, over=over)["overflow_string"] > 1e-3
    assert calls == [(3, 3)] * 16


def test_one_draw_builds_each_creation_operator_once(monkeypatch, tmp_path):
    builds = Counter()
    gather = vertex_core._gather

    def counted(lams, params, first, stop):
        if (first, stop) == (1, 2):
            builds.update((complex(lam), params.mu) for lam in lams)
        return gather(lams, params, first, stop)

    monkeypatch.setattr(vertex_core, "_gather", counted)
    config = cli.RunConfig(L=3, gamma=GAMMA, seed=2, suites=("dwbc",), draws=1,
                           output_path=str(tmp_path / "r.txt"))
    assert cli.run(config)[0] == 0
    # 3 points, their 3 shifted copies and 4 overflow points, then the 2
    # points of the underflow string; the permuted string and the overflow
    # scale read the gathers of their own strings
    assert max(builds.values()) == 1
    assert sum(builds.values()) == 12
