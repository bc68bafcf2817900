import numpy as np
import pytest

from sixvertex.dwbc import (
    b_product_state,
    check_highest_weight,
    z_bproduct,
    z_izergin,
)
from sixvertex.errors import SingularDenominator
from sixvertex.vertex_core import (
    ModelParams,
    b_operator,
    generic_points,
    reference_states,
    sample_mu,
)

GAMMA = complex(0.39, 0.27)


def params_for(L, seed=7):
    rng = np.random.default_rng(seed)
    return ModelParams(L, GAMMA, sample_mu(L, GAMMA, rng))


def test_single_site_partition_function():
    p = params_for(1)
    z = z_bproduct((0.3 - 0.8j,), p)
    assert abs(z - np.sinh(GAMMA)) < 1e-15


def test_permutation_invariance():
    p = params_for(4)
    rng = np.random.default_rng(1)
    lams = list(generic_points(4, rng, avoid=p.mu))
    z = z_bproduct(lams, p)
    rng.shuffle(lams)
    assert abs(z_bproduct(lams, p) - z) / abs(z) < 1e-10


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
        zb = z_bproduct(lams, p)
        zi = z_izergin(lams, p)
        assert abs(zb - zi) / abs(zi) < 1e-9


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
    z = z_bproduct(lams, p)
    s = 0.17 - 0.08j
    shifted = ModelParams(p.L, p.gamma, tuple(m + s for m in p.mu))
    zs = z_bproduct([x + s for x in lams], shifted)
    assert abs(zs - z) / abs(z) < 1e-10


@pytest.mark.parametrize("L", [2, 3, 4])
def test_highest_weight_property(L):
    p = params_for(L, seed=10 + L)
    rng = np.random.default_rng(20 + L)
    lams = generic_points(L, rng, avoid=p.mu)
    assert check_highest_weight(lams, p) < 1e-10


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
    vec = b_product_state(lams, p)
    scale = np.prod([np.linalg.norm(b_operator(x, p), 2) for x in lams])
    assert np.linalg.norm(vec) / scale < 1e-10


def test_short_string_has_no_down_component():
    p = params_for(3)
    rng = np.random.default_rng(5)
    lams = generic_points(2, rng, avoid=p.mu)
    vec = b_product_state(lams, p)
    _, down = reference_states(3)
    assert abs(down @ vec) / np.linalg.norm(vec) < 1e-12
