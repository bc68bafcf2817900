import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from sixvertex import functional_system, zeros
from sixvertex.cli import build_config, run
from sixvertex.dwbc import b_product_state
from sixvertex.errors import PoleEncountered
from sixvertex.functional_system import (
    EigenState,
    TopCoefficient,
    transfer_eigenstates,
    v_coeff,
)
from sixvertex.vertex_core import ModelParams, generic_points, sample_mu
from sixvertex.zeros import (
    SpectralData,
    at_zero_residual,
    build_F,
    check_lz01,
    check_zero_coincidence,
    extract_zeros,
    kick_zero,
    reconstruction_residual,
    wronskian_coeffs,
    wronskian_residual,
    wronskian_sharpness,
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
            assert reconstruction_residual(data, probe) < 1e-7


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


def test_min_cost_bijection_hand_built():
    cost = np.array([[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]])
    # 1 + 2 + 2 = 5; every other bijection costs 6 or more
    assert list(zeros._min_cost_bijection(cost)) == [1, 0, 2]


def test_min_cost_bijection_matches_hungarian_solver():
    rng = np.random.default_rng(9)
    for n in range(1, 8):
        for _ in range(150):
            cost = rng.uniform(0.0, 1.0, size=(n, n))
            _, cols = linear_sum_assignment(cost)
            assert np.array_equal(zeros._min_cost_bijection(cost), cols)


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
    raw_far = data.top(w + 2e-3)
    raw_near = data.top(w + 1e-3)
    assert 1.8 < abs(raw_near / raw_far) < 2.2


@pytest.mark.parametrize("L", [2, 3, 4])
def test_wronskian_vanishes_on_true_zeros(L):
    p, specs = spectral_for(L, seed=50 + L)
    expected_count = (L if L % 2 == 0 else L - 1) + 1
    for data in specs:
        coeffs, _ = wronskian_coeffs(data, p)
        assert len(coeffs) == expected_count
        assert wronskian_residual(data, p) < 1e-6


@pytest.mark.parametrize("L", [2, 3, 4])
def test_wronskian_detects_perturbed_zero(L):
    p, specs = spectral_for(L, seed=55 + L)
    data = specs[0]
    for j in range(len(data.zeros)):
        assert wronskian_residual(kick_zero(data, j), p) > 1e-3


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


def _scaled_eigenvalue(monkeypatch, data, p):
    lam = EigenState.lam
    monkeypatch.setattr(EigenState, "lam", lambda st, x: 1.01 * lam(st, x))
    return reconstruction_residual(data, 0.21 - 0.55j)


def _moved_zero(monkeypatch, data, p):
    points = generic_points(5, np.random.default_rng(1), avoid=p.mu)
    return at_zero_residual(kick_zero(data, 0), points)


def _unkicked_probe(monkeypatch, data, p):
    # the kick leaves the zero in place, so the Wronskian does not respond
    # and the sharpness reads far above its tolerance 1
    monkeypatch.setattr(zeros, "ZERO_KICK", 0.0)
    return wronskian_sharpness(data, p)


# check -> (break returning the residual, the value it must exceed)
BREAKS = {
    "reconstruction": (_scaled_eigenvalue, 1e-3),
    "at_zero": (_moved_zero, 1e-3),
    "wronskian": (lambda mp, data, p: wronskian_residual(kick_zero(data, 0), p),
                  1e-3),
    "wronskian_sharpness": (_unkicked_probe, 1.0),
}


@pytest.mark.parametrize("check", sorted(BREAKS))
@pytest.mark.parametrize("L", [2, 3])
def test_residual_reads_large_on_broken_identity(L, check, monkeypatch):
    p, specs = spectral_for(L, seed=65 + L)
    broken, bound = BREAKS[check]
    assert broken(monkeypatch, specs[0], p) > bound


def drawn_zero_set(L, seed):
    """SpectralData of one eigenstate at L with drawn, not extracted, zeros:
    the top coefficient and the B-strings read only the zeros and params."""
    p = params_for(L, seed)
    rng = np.random.default_rng(seed + 1)
    st = transfer_eigenstates(p, rng)[0]
    ws = tuple(generic_points(L - 1, rng, avoid=p.mu))
    return p, SpectralData(st, 1.0, ws, 1.0), rng


def top_term_scale(lam0, data, p):
    """Sum of |terms| of `_v` at the top index set, with its arithmetic."""
    idx = np.array(functional_system._top_indices(p.L))
    m = len(idx) // 2
    tab = functional_system._PairTable((lam0,) + data.zeros, p)
    kept = np.delete(np.arange(tab.n), idx)
    jf = tab.a_site[idx] * np.prod(tab.read("a_b", kept[:, None], idx), axis=0)
    kf = tab.b_site[idx] * np.prod(tab.read("a_b", idx[:, None], kept), axis=1)
    J, K, (r, s) = functional_system._assignments(m)
    sj, sk = idx[J][:, None, :], idx[K]
    kfac = (np.prod(kf[K] * tab.read("c_b", sj, sk), axis=2)
            * np.prod(tab.read("a_b", sk[..., r], sk[..., s])
                      * tab.read("a_b", sk[..., r], sj[..., s])
                      * tab.read("ag_b", sk[..., s], sj[..., r]), axis=2))
    return float(np.sum(np.abs(np.prod(jf[J], axis=1)[:, None] * kfac)))


@pytest.mark.parametrize("L", range(2, 9))
def test_top_v_table_matches_v_coeff(L):
    # relative to the summed |terms|: at L = 7 the terms cancel, so the
    # difference relative to |V| reads up to ~1e-13
    p, data, rng = drawn_zero_set(L, seed=80 + L)
    idx = functional_system._top_indices(L)
    for lam0 in generic_points(30, rng, avoid=list(data.zeros) + list(p.mu)):
        ref = v_coeff(len(idx) // 2, idx, (lam0,) + data.zeros, p)
        scale = top_term_scale(lam0, data, p)
        assert abs(data.top(lam0) - ref) < 1e-13 * scale
    assert isinstance(data.top, TopCoefficient)


@pytest.mark.parametrize("L", [3, 4])
def test_top_v_table_raises_where_v_coeff_does(L):
    p, data, rng = drawn_zero_set(L, seed=90 + L)
    idx = functional_system._top_indices(L)
    w = data.zeros[-1]
    lam0 = w + 1e-5 * 0.6
    with pytest.raises(PoleEncountered):
        v_coeff(len(idx) // 2, idx, (lam0,) + data.zeros, p)
    with pytest.raises(PoleEncountered):
        data.top(lam0)
    collided = SpectralData(data.state, 1.0,
                            (w + 1e-5 * 0.6,) + data.zeros[1:], 1.0)
    lam0 = generic_points(1, rng, avoid=list(collided.zeros) + list(p.mu))[0]
    with pytest.raises(PoleEncountered):
        v_coeff(len(idx) // 2, idx, (lam0,) + collided.zeros, p)
    with pytest.raises(PoleEncountered):
        collided.top(lam0)


@pytest.mark.parametrize("L", [3, 5, 8])
def test_kicked_refit_reuses_the_zero_set_b_string(L):
    p, data, _ = drawn_zero_set(L, seed=100 + L)
    assert np.array_equal(data.phi, b_product_state(data.zeros, p))
    kicked = kick_zero(data, 0)
    assert np.array_equal(kicked.phi, b_product_state(kicked.zeros, p))
    assert kicked._tail is data._tail


def test_zeros_suite_reads_one_top_table_per_zero_set(monkeypatch, tmp_path):
    calls = {"v_coeff": 0, "_v": 0, "tables": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("v_coeff", "_v"):
        monkeypatch.setattr(functional_system, name,
                            counted(name, getattr(functional_system, name)))
    monkeypatch.setattr(TopCoefficient, "__init__",
                        counted("tables", TopCoefficient.__init__))
    config = build_config(["--size", "5", "--suite", "zeros", "--seed", "1",
                           "--out", str(tmp_path / "report.txt")])
    code, reports = run(config)
    assert code == 0
    sharpness = [r for r in reports if r.name.startswith("zeros.wronskian_sharpness")]
    assert sharpness
    # the state's zeros, then the kicked set of wronskian_sharpness
    assert calls == {"v_coeff": 0, "_v": 0, "tables": 2 * len(sharpness)}
