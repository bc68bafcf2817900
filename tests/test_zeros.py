import numpy as np
import pytest

from sixvertex import zeros
from sixvertex.functional_system import transfer_eigenstates, v_coeff
from sixvertex.vertex_core import ModelParams, generic_points, sample_mu
from sixvertex.zeros import (
    SpectralData,
    build_F,
    check_lz01,
    check_zero_coincidence,
    extract_zeros,
    top_v,
    wronskian_coeffs,
)

GAMMA = complex(0.39, 0.27)


def params_for(L, seed=7):
    rng = np.random.default_rng(seed)
    return ModelParams(L, GAMMA, sample_mu(L, GAMMA, rng))


def spectral_for(L, seed=7):
    p = params_for(L, seed)
    states = transfer_eigenstates(p, np.random.default_rng(seed + 1))
    return p, [extract_zeros(st, p) for st in states if st.k0_defined]


def test_single_site_has_no_zeros():
    p = params_for(1)
    states = transfer_eigenstates(p, np.random.default_rng(0))
    for st in states:
        data = extract_zeros(st, p)
        assert data.zeros == ()
        assert abs(abs(data.lambda0_value) - abs(np.sinh(GAMMA))) < 1e-12


@pytest.mark.parametrize("L", [2, 3, 4, 5])
def test_zero_count_and_reconstruction(L):
    p, specs = spectral_for(L, seed=L)
    rng = np.random.default_rng(40 + L)
    assert specs, "all eigenstates lost their reference overlap"
    for data in specs:
        assert len(data.zeros) == L - 1
        for _ in range(3):
            probe = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            ref = data.state.lam(probe)
            assert abs(ref - data.lam_from_zeros(probe)) < 1e-7 * abs(ref)


@pytest.mark.parametrize("L", [2, 3, 4])
def test_eigenvalue_vanishes_at_extracted_zeros(L):
    p, specs = spectral_for(L, seed=10 + L)
    rng = np.random.default_rng(50 + L)
    scale = max(
        abs(specs[0].state.lam(x)) for x in generic_points(5, rng, avoid=p.mu)
    )
    for data in specs:
        for w in data.zeros:
            assert abs(data.state.lam(w)) < 1e-7 * scale


@pytest.mark.parametrize("L", [2, 3, 4])
def test_ratio_constancy_across_draws_and_states(L):
    p, specs = spectral_for(L, seed=20 + L)
    rng = np.random.default_rng(60 + L)
    means = []
    for data in specs:
        draws = generic_points(5, rng, avoid=list(data.zeros) + list(p.mu))
        out = check_lz01(data, draws, p)
        assert out["spread"] < 1e-6
        means.append(out["mean"])
    # the constant is shared by every eigenstate of the same transfer matrix
    assert max(abs(m - means[0]) for m in means) < 1e-6


@pytest.mark.parametrize("L", [2, 4])
def test_measured_even_ratio_constant_is_unity(L):
    # the even-size ratio constant is +1, as the expansion theorem implies;
    # the source's (-1)^(L/2) agrees only when 4 divides L
    p, specs = spectral_for(L, seed=30 + L)
    rng = np.random.default_rng(70 + L)
    for data in specs[:4]:
        draws = generic_points(5, rng, avoid=list(data.zeros) + list(p.mu))
        out = check_lz01(data, draws, p)
        assert abs(out["mean"] - 1.0) < 1e-6


def test_odd_ratio_equals_eigenvalue_exactly():
    p, specs = spectral_for(3, seed=33)
    rng = np.random.default_rng(73)
    for data in specs[:4]:
        draws = generic_points(5, rng, avoid=list(data.zeros) + list(p.mu))
        out = check_lz01(data, draws, p)
        # odd branch reports ratio / eigenvalue; its constant is 1
        assert abs(out["mean"] - 1.0) < 1e-6


def test_zero_shift_by_half_period_is_immaterial():
    p, specs = spectral_for(3, seed=35)
    data = specs[0]
    shifted = SpectralData(
        data.state, data.lambda0_value,
        (data.zeros[0] + 1j * np.pi,) + data.zeros[1:], data.k0,
    )
    probe = 0.21 - 0.55j
    ref = data.lam_from_zeros(probe)
    assert abs(shifted.lam_from_zeros(probe) - ref) < 1e-10 * abs(ref)
    out = check_zero_coincidence(shifted, p)
    assert out["max_distance"] < 1e-6


@pytest.mark.parametrize("L", [2, 3, 4])
def test_zero_multisets_coincide(L):
    p, specs = spectral_for(L, seed=40 + L)
    for data in specs:
        out = check_zero_coincidence(data, p)
        assert len(out["z_roots"]) == L - 1
        assert out["max_distance"] < 1e-6


def test_build_F_reduces_to_pair_coefficient_at_size_two():
    p, specs = spectral_for(2, seed=44)
    data = specs[0]
    lam0 = 0.37 + 0.21j
    v = (lam0,) + data.zeros
    assert abs(build_F(lam0, data, p) - v_coeff(1, (0, 1), v, p)) < 1e-12 * abs(
        build_F(lam0, data, p))


def test_build_F_finite_at_zero_collision_for_odd_size():
    # the pole-stripped variant stays flat as the free variable approaches
    # one of the zeros, while the raw coefficient grows like the inverse
    # distance
    p, specs = spectral_for(3, seed=45)
    data = specs[0]
    w = data.zeros[0]
    far = build_F(w + 2e-3, data, p)
    near = build_F(w + 1e-3, data, p)
    assert abs(near - far) < 1e-2 * abs(far)
    raw_far = top_v(w + 2e-3, data, p)
    raw_near = top_v(w + 1e-3, data, p)
    assert 1.8 < abs(raw_near / raw_far) < 2.2


@pytest.mark.parametrize("L", [2, 3, 4])
def test_wronskian_vanishes_on_true_zeros(L):
    p, specs = spectral_for(L, seed=50 + L)
    expected_count = (L if L % 2 == 0 else L - 1) + 1
    for data in specs:
        coeffs, scale = wronskian_coeffs(data, p)
        assert len(coeffs) == expected_count
        assert max(abs(c) for c in coeffs) / scale < 1e-6


@pytest.mark.parametrize("L", [2, 3, 4])
def test_wronskian_detects_perturbed_zero(L):
    p, specs = spectral_for(L, seed=55 + L)
    data = specs[0]
    for j in range(len(data.zeros)):
        kicked_zeros = list(data.zeros)
        kicked_zeros[j] += 1e-2
        kicked = SpectralData(data.state, data.lambda0_value,
                              tuple(kicked_zeros), data.k0)
        coeffs, scale = wronskian_coeffs(kicked, p)
        assert max(abs(c) for c in coeffs) / scale > 1e-3


def test_coincidence_and_wronskian_share_one_fit(monkeypatch):
    p, specs = spectral_for(3, seed=60)
    data = specs[0]
    fits = []
    original = zeros.poly_in_x

    def counted(*args):
        fits.append(args)
        return original(*args)

    monkeypatch.setattr(zeros, "poly_in_x", counted)
    check_zero_coincidence(data, p)
    wronskian_coeffs(data, p)
    # one fit each of Z(., w) and F(., w)
    assert len(fits) == 2
    # another sampling radius is another fit
    check_zero_coincidence(data, p, radius=1.3)
    assert len(fits) == 4
