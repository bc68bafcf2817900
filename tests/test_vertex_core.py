import numpy as np
import pytest

from sixvertex import vertex_core
from sixvertex.numkit import kron_chain
from sixvertex.vertex_core import (
    SX,
    ModelParams,
    action_residual,
    b_commute_residual,
    commuting_residual,
    full_product_residuals,
    generic_points,
    hamiltonian,
    hamiltonian_commute_residual,
    is_generic,
    log_derivative_residual,
    monodromy,
    r_matrix,
    rll_residual,
    sample_mu,
    site_op,
    transfer,
    twist_matrix,
    twist_symmetry_residual,
    unitarity_residual,
    weights,
    ybe_residual,
)

GAMMA = complex(0.43, 0.21)


def params_for(L, gamma=GAMMA, seed=7):
    rng = np.random.default_rng(seed)
    return ModelParams(L, gamma, sample_mu(L, gamma, rng))


def test_weights_at_origin():
    a, b, c = weights(0j, GAMMA)
    assert b == 0
    assert a == c == np.sinh(GAMMA)


def test_weights_zero_of_a():
    a, _, _ = weights(-GAMMA, GAMMA)
    assert abs(a) < 1e-16


def test_weights_free_fermion_point():
    lam = 0.7 - 0.2j
    a, _, c = weights(lam, 1j * np.pi / 2)
    assert abs(a - 1j * np.cosh(lam)) < 1e-15
    assert abs(c - 1j) < 1e-15


def test_r_at_origin_is_swap():
    p = params_for(1)
    swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
                    dtype=complex)
    assert np.linalg.norm(r_matrix(0j, p) - np.sinh(GAMMA) * swap) < 1e-15


def test_yang_baxter_equation():
    p = params_for(1)
    rng = np.random.default_rng(11)
    for _ in range(100):
        lam, mu_ = generic_points(2, rng)
        assert ybe_residual(lam, mu_, p) < 1e-10


def test_r_unitarity():
    p = params_for(1)
    rng = np.random.default_rng(12)
    for _ in range(20):
        lam = generic_points(1, rng)[0]
        assert unitarity_residual(lam, p) < 1e-10


def test_twist_properties():
    g = twist_matrix()
    assert np.array_equal(g, SX)
    assert np.array_equal(g @ g, np.eye(2))
    p = params_for(1)
    rng = np.random.default_rng(13)
    for _ in range(100):
        lam = generic_points(1, rng)[0]
        assert twist_symmetry_residual(lam, p) < 1e-12


def test_monodromy_single_site_blocks():
    p = params_for(1)
    lam = 0.37 + 0.49j
    a, b, c = weights(lam - p.mu[0], GAMMA)
    blocks = monodromy(lam, p)
    assert np.allclose(blocks.a_op, np.diag([a, b]))
    assert np.allclose(blocks.d_op, np.diag([b, a]))
    assert np.allclose(blocks.b_op, c * np.array([[0, 0], [1, 0]]))
    assert np.allclose(blocks.c_op, c * np.array([[0, 1], [0, 0]]))


@pytest.mark.parametrize("L", [1, 2, 3, 4, 5, 6])
def test_action_on_reference_states(L):
    p = params_for(L)
    rng = np.random.default_rng(L)
    lam = generic_points(1, rng, avoid=p.mu)[0]
    assert action_residual(lam, p) < 1e-10


def test_block_reassembly_matches_full_product():
    p = params_for(3)
    lam = -0.21 + 0.64j
    assert full_product_residuals(lam, p)["block_assembly"] < 1e-12


def test_rll_exchange_relation():
    p = params_for(3)
    rng = np.random.default_rng(17)
    for _ in range(5):
        lam1, lam2 = generic_points(2, rng, avoid=p.mu)
        assert rll_residual(lam1, lam2, p) < 1e-9


def test_transfer_single_site():
    p = params_for(1)
    lam = 0.12 - 0.77j
    t = transfer(lam, p)
    assert np.linalg.norm(t - np.sinh(GAMMA) * SX) < 1e-15
    vals = sorted(np.linalg.eigvals(t), key=lambda z: z.real)
    ref = sorted([np.sinh(GAMMA), -np.sinh(GAMMA)], key=lambda z: z.real)
    assert np.allclose(vals, ref)


def test_transfer_is_block_sum_and_trace():
    p = params_for(3)
    lam = 0.31 + 0.15j
    blocks = monodromy(lam, p)
    t = transfer(lam, p)
    assert np.array_equal(t, blocks.b_op + blocks.c_op)
    assert full_product_residuals(lam, p)["trace_form"] < 1e-12


@pytest.mark.parametrize("L", [2, 3, 4, 5])
def test_commuting_family(L):
    p = params_for(L)
    rng = np.random.default_rng(100 + L)
    for _ in range(20):
        x, y = generic_points(2, rng, avoid=p.mu)
        assert commuting_residual(x, y, p) < 1e-9


def test_creation_operators_commute():
    p = params_for(3)
    rng = np.random.default_rng(19)
    x, y = generic_points(2, rng, avoid=p.mu)
    assert b_commute_residual(x, y, p) < 1e-10


def test_hamiltonian_real_symmetric_for_real_gamma():
    p = ModelParams(2, 0.8, (0, 0))
    h = hamiltonian(p)
    assert np.linalg.norm(h.imag) < 1e-14
    assert np.linalg.norm(h - h.T) < 1e-14


def test_hamiltonian_requires_homogeneous():
    with pytest.raises(ValueError):
        hamiltonian(ModelParams(2, GAMMA, (0.1, 0)))


@pytest.mark.parametrize("L", [2, 3, 4])
def test_hamiltonian_commutes_with_transfer(L):
    p = ModelParams(L, GAMMA, (0,) * L)
    rng = np.random.default_rng(23)
    lam = generic_points(1, rng)[0]
    assert hamiltonian_commute_residual(lam, p) < 1e-9


def test_transfer_log_derivative_is_affine_in_hamiltonian():
    p = ModelParams(3, GAMMA, (0, 0, 0))
    assert log_derivative_residual(p) < 1e-6


def test_site_op_embedding():
    op = site_op(SX, 2, 3)
    assert np.array_equal(op, kron_chain(np.eye(2), SX, np.eye(2)))


def test_genericity_filter_and_determinism():
    rng1 = np.random.default_rng(5)
    rng2 = np.random.default_rng(5)
    mu1 = sample_mu(4, GAMMA, rng1)
    mu2 = sample_mu(4, GAMMA, rng2)
    assert mu1 == mu2
    assert is_generic(ModelParams(4, GAMMA, mu1))
    assert not is_generic(ModelParams(2, GAMMA, (0.3, 0.3)))


def _scaled_c(lam, gamma):
    a, b, c = weights(lam, gamma)
    return a, b, 1.1 * c


def _swapped_ab(lam, gamma):
    a, b, c = weights(lam, gamma)
    return b, a, c


LAM, MU = 0.31 + 0.15j, -0.2 + 0.4j

# check -> (vertex_core attribute, replacement that breaks the identity,
# residual at a fixed point of a 3-site chain)
BREAKS = {
    "ybe": ("weights", _scaled_c, lambda p: ybe_residual(LAM, MU, p)),
    "rll": ("weights", _scaled_c, lambda p: rll_residual(LAM, MU, p)),
    "action": ("weights", _swapped_ab, lambda p: action_residual(LAM, p)),
    "block_assembly": (
        "kron_chain", lambda *ops: kron_chain(*reversed(ops)),
        lambda p: full_product_residuals(LAM, p)["block_assembly"]),
    "trace_form": (
        "twist_matrix", lambda: np.eye(2, dtype=complex),
        lambda p: full_product_residuals(LAM, p)["trace_form"]),
    "log_derivative": (
        "weights", _scaled_c,
        lambda p: log_derivative_residual(ModelParams(p.L, p.gamma, (0,) * p.L))),
    "twist_symmetry": (
        "twist_matrix", lambda: np.array([[1, 1], [0, 1]], dtype=complex),
        lambda p: twist_symmetry_residual(LAM, p)),
    "unitarity": ("weights", _scaled_c, lambda p: unitarity_residual(LAM, p)),
    "commuting_family": (
        "weights", _scaled_c, lambda p: commuting_residual(LAM, MU, p)),
    "b_commute": (
        "weights", _scaled_c, lambda p: b_commute_residual(LAM, MU, p)),
    "hamiltonian_commutes": (
        "weights", _scaled_c,
        lambda p: hamiltonian_commute_residual(
            LAM, ModelParams(p.L, p.gamma, (0,) * p.L))),
}


@pytest.mark.parametrize("check", sorted(BREAKS))
def test_residual_reads_large_on_broken_identity(check, monkeypatch):
    attr, broken, residual = BREAKS[check]
    p = params_for(3)
    monkeypatch.setattr(vertex_core, attr, broken)
    assert residual(p) > 1e-3
