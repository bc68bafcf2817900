import numpy as np
import pytest
from numpy.polynomial.polynomial import polyroots
from scipy.optimize import linear_sum_assignment

from sixvertex import cli, functional_system, vertex_core, zeros
from sixvertex.cli import build_config, run
from sixvertex.dwbc import b_product_state
from sixvertex.errors import PoleEncountered
from sixvertex.functional_system import (
    EigenState,
    TopCoefficient,
    transfer_eigenstates,
    v_coeff,
)
from sixvertex.numkit import fit_poly, poly_roots_rows
from sixvertex.vertex_core import (
    ModelParams,
    b_operator,
    generic_points,
    reference_states,
    sample_mu,
)
from sixvertex.zeros import (
    ZeroSets,
    at_zero_residual,
    check_lz01,
    down_b_row,
    extract_zeros,
    lam_from_zeros,
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
    """The zero sets of every k0-defined state of one draw at L; every
    extraction succeeds."""
    p = params_for(L, seed)
    states = [st for st in transfer_eigenstates(p, np.random.default_rng(seed + 1))
              if st.k0_defined]
    sets, failed = extract_zeros(states, p)
    assert not failed
    return p, sets


def first(sets, n):
    """The first n sets of `sets`."""
    return ZeroSets(sets.states[:n], sets.lam0[:n], sets.zeros[:n])


def kicked(sets, j):
    """`sets` with zero j of every set moved by ZERO_KICK."""
    rows = sets.zeros.copy()
    rows[:, j] += zeros.ZERO_KICK
    return ZeroSets(sets.states, sets.lam0, rows)


@pytest.mark.parametrize("L", [1, 2, 5, 8])
def test_down_row_of_b_holds_the_one_up_entries(L):
    p = params_for(L)
    lam = 0.31 - 0.47j
    row = b_operator(lam, p)[-1]
    cols = [2**L - 1 - 2 ** (L - 1 - j) for j in range(L)]
    assert np.flatnonzero(row).tolist() == cols
    got = down_b_row(lam, p)
    assert np.max(np.abs(got - row[cols])) < 1e-14 * np.max(np.abs(row))


def test_single_site_has_no_zeros():
    p = params_for(1)
    states = transfer_eigenstates(p, np.random.default_rng(0))
    sets, failed = extract_zeros(states, p)
    assert not failed and sets.states == states
    assert sets.zeros.shape == (len(states), 0)
    for lam0 in sets.lam0:
        assert abs(abs(lam0) - abs(np.sinh(GAMMA))) < 1e-12


@pytest.mark.parametrize("L", [2, 3, 4, 5])
def test_zero_count_and_reconstruction(L):
    p, specs = spectral_for(L, seed=L)
    rng = np.random.default_rng(40 + L)
    assert len(specs), "all eigenstates lost their reference overlap"
    assert specs.zeros.shape == (len(specs), L - 1)
    probes = [[complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
               for _ in range(3)] for _ in specs.states]
    assert np.all(reconstruction_residual(specs, probes) < 1e-7)


@pytest.mark.parametrize("L", [2, 3, 5, 8])
def test_batched_extraction_keeps_each_state_zeros_bit_for_bit(L):
    # the reference is the per-state path: one fit with a single right-hand
    # side, one root solve and one log per zero
    p, sets = spectral_for(L, seed=130 + L)
    degree = L - 1
    xs, lams = zeros._circle_samples(degree)
    rows = functional_system.values(sets.states, zeros._sample_points(L)).tolist()
    for row, got in zip(rows, sets.zeros):
        coeffs = fit_poly([(x, np.exp(degree * lam) * f)
                           for x, lam, f in zip(xs, lams, row[1:L + 1])], degree)
        roots = poly_roots_rows(coeffs[None, :])[0]
        assert got.tolist() == [0.5 * np.log(complex(x)) for x in roots]


@pytest.mark.parametrize("L", [2, 3, 4])
def test_eigenvalue_vanishes_at_extracted_zeros(L):
    p, specs = spectral_for(L, seed=10 + L)
    rng = np.random.default_rng(50 + L)
    scale = max(
        abs(specs.states[0].lam(x)) for x in generic_points(5, rng, avoid=p.mu)
    )
    for st, zeros_ in specs:
        for w in zeros_:
            assert abs(st.lam(w)) < 1e-7 * scale


def shared_draws(sets, p, rng, n=5):
    """n lam0 drawn away from every zero of `sets`, kicked or not, and from
    the inhomogeneities: points shared by every state."""
    return generic_points(n, rng, avoid=list(sets.with_kicked.ravel()) + list(p.mu))


def pointwise_ratios(sets, draws):
    """Z k0 / F of every state of `sets` at the shared points `draws`, read
    through `ZeroSets.z` and `ZeroSets.f`: the pointwise oracle of
    `check_lz01`, a (states x draws) array."""
    n = len(sets)
    f, pole = sets.f(draws)
    assert not pole[:n].any()
    k0 = np.array([st.k0 for st in sets.states])
    return sets.z(draws)[:n] * k0[:, None] / f[:n]


def ratio_spread(ratios):
    """Per row, the largest deviation from its mean relative to the mean."""
    mean = np.mean(ratios, axis=1, keepdims=True)
    return np.max(np.abs(ratios - mean), axis=1) / np.abs(mean[:, 0])


def matched_root_distances(sets):
    """Per state, the largest |log(x_Z / x_F)| between the roots of its
    fitted Z and F, matched by the Hungarian solver: the root-distance
    oracle of `check_lz01`."""
    n = len(sets)
    zpol, fpol, ok = sets.fit
    assert ok[:n].all()
    out = []
    for zc, fc in zip(zpol[:n], fpol[:n]):
        zr, fr = polyroots(zc), polyroots(fc)
        assert len(zr) == len(fr) == sets.params.L - 1
        cost = np.abs(np.log(zr[:, None] / fr[None, :]))
        rows, cols = linear_sum_assignment(cost)
        out.append(float(np.max(cost[rows, cols], initial=0.0)))
    return np.array(out)


@pytest.mark.parametrize("L", [2, 3, 4])
def test_ratio_constancy_across_draws_and_states(L):
    p, specs = spectral_for(L, seed=20 + L)
    rng = np.random.default_rng(60 + L)
    assert np.all(check_lz01(specs)["spread"] < 1e-6)
    ratios = pointwise_ratios(specs, shared_draws(specs, p, rng))
    assert np.all(ratio_spread(ratios) < 1e-6)
    if L % 2 == 0:
        # the constant is shared by every eigenstate of the same transfer
        # matrix
        assert np.max(np.abs(ratios - ratios[0, 0])) < 1e-6


@pytest.mark.parametrize("L", [2, 4])
def test_measured_even_ratio_constant_is_unity(L):
    # the even-size ratio constant is +1, as the expansion theorem implies;
    # the source's (-1)^(L/2) agrees only when 4 divides L
    p, specs = spectral_for(L, seed=30 + L)
    rng = np.random.default_rng(70 + L)
    sets = first(specs, 4)
    assert np.all(check_lz01(sets)["constant_residual"] < 1e-6)
    ratios = pointwise_ratios(sets, shared_draws(sets, p, rng))
    assert np.all(np.abs(ratios - 1.0) < 1e-6)


def test_odd_ratio_equals_eigenvalue_exactly():
    # at odd L, Z k0 is the raw top coefficient times the eigenvalue
    p, specs = spectral_for(3, seed=33)
    rng = np.random.default_rng(73)
    sets = first(specs, 4)
    assert np.all(check_lz01(sets)["spread"] < 1e-6)
    draws = shared_draws(sets, p, rng)
    top, pole = sets.top.at(draws)
    assert not pole.any()
    k0 = np.array([st.k0 for st in sets.states])
    ratios = (sets.z(draws)[:4] * k0[:, None]
              / (top[:4] * functional_system.values(sets.states, draws)))
    assert np.all(np.abs(ratios - 1.0) < 1e-6)


def test_ratio_fails_only_the_set_with_colliding_zeros():
    p, specs = spectral_for(3, seed=36)
    st, zeros_ = next(iter(specs))
    w = zeros_[1]
    pair = ZeroSets([st, st], specs.lam0[:1] * 2, [zeros_, (w + 1e-5 * 0.6, w)])
    spread = check_lz01(pair)["spread"]
    assert spread[0] < 1e-6 and spread[1] == np.inf


def test_zero_shift_by_half_period_is_immaterial():
    p, specs = spectral_for(3, seed=35)
    shifted = first(specs, 1)
    shifted.zeros[0, 0] += 1j * np.pi
    probe = 0.21 - 0.55j
    ref = lam_from_zeros(specs.lam0[0], specs.zeros[0], [probe])[0]
    assert abs(lam_from_zeros(specs.lam0[0], shifted.zeros[0], [probe])[0]
               - ref) < 1e-10 * abs(ref)
    assert check_lz01(shifted)["spread"][0] < 1e-6


@pytest.mark.parametrize("L", [2, 3, 4])
def test_zero_multisets_coincide(L):
    p, specs = spectral_for(L, seed=40 + L)
    assert np.all(matched_root_distances(specs) < 1e-6)
    assert np.all(check_lz01(specs)["spread"] < 1e-6)


@pytest.mark.parametrize("L", [2, 3, 4])
def test_kicked_rows_break_the_identity(L):
    # the negative control of lz01 and coincidence: the kicked rows of
    # `with_kicked` are no zero sets, so their Z and F are not proportional
    # and Z k0 misses F; the true rows pass
    p, specs = spectral_for(L, seed=140 + L)
    true, moved = check_lz01(specs), check_lz01(kicked(specs, 0))
    assert np.all(true["spread"] < 1e-6) and np.all(moved["spread"] > 1e-4)
    if L % 2 == 0:
        assert np.all(true["constant_residual"] < 1e-6)
        assert np.all(moved["constant_residual"] > 1e-4)


def test_build_F_reduces_to_pair_coefficient_at_size_two():
    p, specs = spectral_for(2, seed=44)
    lam0 = 0.37 + 0.21j
    v = (lam0,) + tuple(specs.zeros[0])
    f, pole = first(specs, 1).f([lam0])
    assert not pole.any()
    assert abs(f[0, 0] - v_coeff(1, (0, 1), v, p)) < 1e-12 * abs(f[0, 0])


def test_build_F_finite_at_zero_collision_for_odd_size():
    # the pole-stripped variant stays flat as the free variable approaches
    # one of the zeros, while the raw coefficient grows like the inverse
    # distance
    p, specs = spectral_for(3, seed=45)
    sets = first(specs, 1)
    w = sets.zeros[0, 0]
    far, near = sets.f([w + 2e-3, w + 1e-3])[0][0]
    assert abs(near - far) < 1e-2 * abs(far)
    raw_far, raw_near = sets.top.at([w + 2e-3, w + 1e-3])[0][0]
    assert 1.8 < abs(raw_near / raw_far) < 2.2


@pytest.mark.parametrize("L", [2, 3, 4])
def test_wronskian_vanishes_on_true_zeros(L):
    p, specs = spectral_for(L, seed=50 + L)
    expected_count = (L if L % 2 == 0 else L - 1) + 1
    coeffs, _ = wronskian_coeffs(specs)
    assert coeffs.shape == (2 * len(specs), expected_count)
    assert np.all(wronskian_residual(specs) < 1e-6)


@pytest.mark.parametrize("L", [2, 3, 4])
def test_wronskian_detects_perturbed_zero(L):
    p, specs = spectral_for(L, seed=55 + L)
    for j in range(L - 1):
        assert wronskian_residual(kicked(first(specs, 1), j))[0] > 1e-3


def test_coincidence_and_wronskian_share_one_fit(monkeypatch):
    p, specs = spectral_for(3, seed=60)
    fits = []
    original = zeros.fit_poly

    def counted(*args):
        fits.append(args)
        return original(*args)

    monkeypatch.setattr(zeros, "fit_poly", counted)
    sets = ZeroSets(specs.states, specs.lam0, specs.zeros)
    check_lz01(sets)
    wronskian_residual(sets)
    wronskian_sharpness(sets)
    # one fit of Z(., w) and F(., w) for every set and every kicked set
    assert len(fits) == 1


@pytest.mark.parametrize("L", [4, 5])
def test_lz01_makes_no_gather_once_the_fit_is_cached(L, monkeypatch):
    # the identity is read from the fitted coefficients alone: no point of
    # any operator is gathered once the fit is held, at odd L too, where
    # Z k0 carries the eigenvalue
    p, specs = spectral_for(L, seed=150 + L)
    specs.fit
    gathers = []
    gather = vertex_core._gather

    def counted(*args):
        gathers.append(args)
        return gather(*args)

    monkeypatch.setattr(vertex_core, "_gather", counted)
    out = check_lz01(specs)
    assert gathers == []
    assert np.all(out["spread"] < 1e-6)


def _scaled_eigenvalue(monkeypatch, sets, p):
    lam = EigenState.lam
    monkeypatch.setattr(EigenState, "lam", lambda st, x: 1.01 * lam(st, x))
    return reconstruction_residual(sets, [[0.21 - 0.55j]])[0, 0]


def _moved_zero(monkeypatch, sets, p):
    points = generic_points(5, np.random.default_rng(1), avoid=p.mu)
    return at_zero_residual(kicked(sets, 0), [points] * len(sets))[0]


def _unkicked_probe(monkeypatch, sets, p):
    # the kick leaves the zero in place, so the Wronskian does not respond
    # and the sharpness reads far above its tolerance 1
    monkeypatch.setattr(zeros, "ZERO_KICK", 0.0)
    return wronskian_sharpness(sets)[0]


# check -> (break returning the residual, the value it must exceed)
BREAKS = {
    "reconstruction": (_scaled_eigenvalue, 1e-3),
    "at_zero": (_moved_zero, 1e-3),
    "wronskian": (lambda mp, sets, p: wronskian_residual(kicked(sets, 0))[0], 1e-3),
    "wronskian_sharpness": (_unkicked_probe, 1.0),
}


@pytest.mark.parametrize("check", sorted(BREAKS))
@pytest.mark.parametrize("L", [2, 3])
def test_residual_reads_large_on_broken_identity(L, check, monkeypatch):
    p, specs = spectral_for(L, seed=65 + L)
    broken, bound = BREAKS[check]
    assert broken(monkeypatch, first(specs, 1), p) > bound


def drawn_zero_set(L, seed):
    """One eigenstate at L with drawn, not extracted, zeros (a tuple): the
    top coefficient and the B-strings read only the zeros and params."""
    p = params_for(L, seed)
    rng = np.random.default_rng(seed + 1)
    st = transfer_eigenstates(p, rng)[0]
    ws = tuple(generic_points(L - 1, rng, avoid=p.mu))
    return p, st, ws, rng


def top_term_scale(lam0, zeros_, p):
    """Sum of |terms| of `_v` at the top index set, with its arithmetic."""
    idx = np.array(functional_system._top_indices(p.L))
    m = len(idx) // 2
    tab = functional_system._PairTable((lam0,) + tuple(zeros_), p)
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
    p, _, ws, rng = drawn_zero_set(L, seed=80 + L)
    idx = functional_system._top_indices(L)
    lam0s = generic_points(30, rng, avoid=list(ws) + list(p.mu))
    top = TopCoefficient([ws], p)
    got, pole = top.at(lam0s)
    assert not pole.any()
    for lam0, val in zip(lam0s, got[0]):
        ref = v_coeff(len(idx) // 2, idx, (lam0,) + ws, p)
        scale = top_term_scale(lam0, ws, p)
        assert abs(val - ref) < 1e-13 * scale


@pytest.mark.parametrize("L", [3, 4])
def test_top_v_table_raises_where_v_coeff_does(L):
    # where v_coeff raises, the table flags the set, and only that set
    p, _, ws, rng = drawn_zero_set(L, seed=90 + L)
    idx = functional_system._top_indices(L)
    w = ws[-1]
    near = w + 1e-5 * 0.6
    with pytest.raises(PoleEncountered):
        v_coeff(len(idx) // 2, idx, (near,) + ws, p)
    collided = (w + 1e-5 * 0.6,) + ws[1:]
    lam0 = generic_points(1, rng, avoid=list(collided) + list(p.mu))[0]
    with pytest.raises(PoleEncountered):
        v_coeff(len(idx) // 2, idx, (lam0,) + collided, p)
    clear = generic_points(1, rng, avoid=list(ws) + list(p.mu))[0]
    top = TopCoefficient([ws, collided], p)
    assert top.at([near])[1].tolist() == [True, True]
    assert top.at([clear])[1].tolist() == [False, True]


@pytest.mark.parametrize("L", [3, 5, 8])
def test_kicked_refit_reuses_the_zero_set_b_string(L, monkeypatch):
    p, st, ws, _ = drawn_zero_set(L, seed=100 + L)
    gathers, reads = [], []
    gather = vertex_core._gather
    read = vertex_core.BOperators.__getitem__

    def counted_gather(lams, params, first, stop):
        if (first, stop) == (1, 2):
            gathers.extend(complex(x) for x in lams)
        return gather(lams, params, first, stop)

    def counted(ops, j):
        reads.append(complex(ops.lams[j]))
        return read(ops, j)

    monkeypatch.setattr(vertex_core, "_gather", counted_gather)
    monkeypatch.setattr(vertex_core.BOperators, "__getitem__", counted)
    sets = ZeroSets([st], [1.0], [ws])
    # holding the sets builds no string; on first use one gather reads the
    # zeros after the first, then the first zero and its kicked copy, and
    # the string of the zeros after the first, its B's applied last to
    # first, is shared with the kicked set
    assert gathers == reads == []
    phi_up = sets._phi_up
    first, moved = sets.with_kicked[:, 0]
    assert gathers == [*ws[1:], first, moved]
    assert reads == [*ws[:0:-1], first, moved]
    assert np.array_equal(sets.with_kicked, [ws, kicked(sets, 0).zeros[0]])
    one_up = [2**L - 1 - 2 ** (L - 1 - j) for j in range(L)]
    for row, zs in zip(phi_up, sets.with_kicked):
        assert np.array_equal(row, b_product_state(zs, p)[one_up])


def test_zeros_suite_reads_one_top_table_and_one_fit_per_draw(monkeypatch,
                                                              tmp_path):
    calls = {"v_coeff": 0, "_v": 0, "tables": 0, "fits": 0, "extractions": 0,
             "root_solves": 0}

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
    monkeypatch.setattr(zeros, "fit_poly", counted("fits", zeros.fit_poly))
    monkeypatch.setattr(zeros, "poly_roots_rows",
                        counted("root_solves", zeros.poly_roots_rows))
    monkeypatch.setattr(cli, "extract_zeros",
                        counted("extractions", cli.extract_zeros))
    config = build_config(["--size", "5", "--suite", "zeros", "--seed", "1",
                           "--out", str(tmp_path / "report.txt")])
    code, reports = run(config)
    assert code == 0
    sharpness = [r for r in reports if r.name.startswith("zeros.wronskian_sharpness")]
    assert len(sharpness) > 1
    # one extraction serves every state of the draw with one fit and one
    # root solve; every zero set and its kicked set share one table and one
    # fit of Z and F, whose roots are never taken
    assert calls == {"v_coeff": 0, "_v": 0, "tables": 1, "fits": 2,
                     "extractions": 1, "root_solves": 1}


@pytest.mark.parametrize("L", [2, 3, 5, 6])
def test_zero_sets_match_per_state_references(L):
    p, sets = spectral_for(L, seed=110 + L)
    rng = np.random.default_rng(120 + L)
    assert len(sets.with_kicked) == 2 * len(sets)
    points = shared_draws(sets, p, rng, 3)
    down = reference_states(L)[1]
    idx = functional_system._top_indices(L)
    z = sets.z(points)
    f, pole = sets.f(points)
    assert not pole.any()
    for k, zeros_ in enumerate(sets.with_kicked):
        phi = b_product_state(tuple(zeros_), p)
        for j, lam0 in enumerate(points):
            left = down @ b_operator(lam0, p)
            ref = left @ phi
            assert abs(z[k, j] - ref) <= 1e-12 * (np.abs(left) @ np.abs(phi))
            factor = np.prod(np.sinh(lam0 - zeros_)) if L % 2 else 1.0
            ref = v_coeff(len(idx) // 2, idx, (lam0,) + tuple(zeros_), p)
            scale = top_term_scale(lam0, zeros_, p) * abs(factor)
            assert abs(f[k, j] - ref * factor) <= 1e-13 * scale
    zpol, fpol, ok = sets.fit
    assert ok.all()
    coeffs = np.concatenate((zpol, fpol))
    for row, roots in zip(coeffs, poly_roots_rows(coeffs)):
        ref = np.sort_complex(polyroots(row))
        assert len(roots) == len(ref) == L - 1
        assert np.all(np.abs(roots - ref) <= 1e-12 * np.maximum(np.abs(ref), 1.0))


def test_one_state_failure_leaves_every_other_record(monkeypatch, tmp_path):
    """A failed fit of one state's kicked set and of another state's own
    set make inf exactly the records that read them, and drop none; every
    other record of the run is written byte for byte as without them."""
    argv = ["--size", "4", "--suite", "zeros", "--seed", "1",
            "--out", str(tmp_path / "r.txt")]
    plain = [r.line() for r in run(build_config(argv))[1]]
    order = [line.split()[0].rsplit(".state", 1)[1] for line in plain
             if line.startswith("check=zeros.lz01_constancy.")]
    kick_state, refit_state = order[1], order[2]
    real_f = ZeroSets.f

    def f(self, lams):
        val, pole = real_f(self, lams)
        if np.ndim(lams) == 1:  # the shared points of the fit
            val = val.copy()
            # no polynomial in x: the kicked set of state 1, the set of
            # state 2
            for row in (len(self) + 1, 2):
                val[row] *= 1 + 1e-3 * np.abs(lams)
        return val, pole

    monkeypatch.setattr(ZeroSets, "f", f)
    broken = [r.line() for r in run(build_config(argv))[1]]

    def name(line):
        return line.split()[0][len("check="):]

    failed = {name(line) for line in broken if "residual=inf" in line}
    assert failed == {f"zeros.wronskian_sharpness.state{kick_state}"} | {
        f"zeros.{fam}.state{refit_state}" for fam in
        ("lz01_constancy", "lz01_even_constant", "coincidence", "wronskian")}
    assert [name(line) for line in plain] == [name(line) for line in broken]
    assert [line for line in plain if name(line) not in failed] == \
        [line for line in broken if name(line) not in failed]
