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
    check_zero_coincidence,
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


def lz01_draws(specs, p, rng):
    """Five lam0 draws per state, away from its zeros, state by state."""
    return [generic_points(5, rng, avoid=list(zeros_) + list(p.mu))
            for zeros_ in specs.zeros]


@pytest.mark.parametrize("L", [2, 3, 4])
def test_ratio_constancy_across_draws_and_states(L):
    p, specs = spectral_for(L, seed=20 + L)
    rng = np.random.default_rng(60 + L)
    out = check_lz01(specs, lz01_draws(specs, p, rng))
    assert not out["failed"].any()
    assert np.all(out["spread"] < 1e-6)
    # the constant is shared by every eigenstate of the same transfer matrix
    means = out["mean"]
    assert np.max(np.abs(means - means[0])) < 1e-6


@pytest.mark.parametrize("L", [2, 4])
def test_measured_even_ratio_constant_is_unity(L):
    # the even-size ratio constant is +1, as the expansion theorem implies;
    # the source's (-1)^(L/2) agrees only when 4 divides L
    p, specs = spectral_for(L, seed=30 + L)
    rng = np.random.default_rng(70 + L)
    out = check_lz01(first(specs, 4), lz01_draws(first(specs, 4), p, rng))
    assert np.all(np.abs(out["mean"] - 1.0) < 1e-6)


def test_odd_ratio_equals_eigenvalue_exactly():
    p, specs = spectral_for(3, seed=33)
    rng = np.random.default_rng(73)
    out = check_lz01(first(specs, 4), lz01_draws(first(specs, 4), p, rng))
    # odd branch reports ratio / eigenvalue; its constant is 1
    assert np.all(np.abs(out["mean"] - 1.0) < 1e-6)


def test_ratio_fails_only_the_set_with_colliding_zeros():
    p, specs = spectral_for(3, seed=36)
    st, zeros_ = next(iter(specs))
    w = zeros_[1]
    pair = ZeroSets([st, st], specs.lam0[:1] * 2, [zeros_, (w + 1e-5 * 0.6, w)])
    rng = np.random.default_rng(76)
    out = check_lz01(pair, lz01_draws(pair, p, rng))
    assert out["failed"].tolist() == [False, True]
    assert out["spread"][0] < 1e-6 and out["spread"][1] == np.inf


def test_zero_shift_by_half_period_is_immaterial():
    p, specs = spectral_for(3, seed=35)
    shifted = first(specs, 1)
    shifted.zeros[0, 0] += 1j * np.pi
    probe = 0.21 - 0.55j
    ref = lam_from_zeros(specs.lam0[0], specs.zeros[0], [probe])[0]
    assert abs(lam_from_zeros(specs.lam0[0], shifted.zeros[0], [probe])[0]
               - ref) < 1e-10 * abs(ref)
    out = check_zero_coincidence(shifted)
    assert out["max_distance"][0] < 1e-6


@pytest.mark.parametrize("L", [2, 3, 4])
def test_zero_multisets_coincide(L):
    p, specs = spectral_for(L, seed=40 + L)
    out = check_zero_coincidence(specs)
    assert [len(roots) for roots in out["z_roots"]] == [L - 1] * len(specs)
    assert np.all(out["max_distance"] < 1e-6)


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
    check_zero_coincidence(sets)
    wronskian_residual(sets)
    wronskian_sharpness(sets)
    # one fit of Z(., w) and F(., w) for every set and every kicked set
    assert len(fits) == 1


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
    # points given per set read the same values as shared points
    assert np.array_equal(top.at([lam0s])[0], got)


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
    assert top.at([[near], [lam0]])[1].tolist() == [True, True]
    assert top.at([[clear], [lam0]])[1].tolist() == [False, True]
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
    # fit of Z and F, whose roots come from one more solve
    assert calls == {"v_coeff": 0, "_v": 0, "tables": 1, "fits": 2,
                     "extractions": 1, "root_solves": 2}


@pytest.mark.parametrize("L", [2, 3, 5, 6])
def test_zero_sets_match_per_state_references(L):
    p, sets = spectral_for(L, seed=110 + L)
    rng = np.random.default_rng(120 + L)
    assert len(sets.with_kicked) == 2 * len(sets)
    shared = generic_points(3, rng,
                            avoid=list(sets.with_kicked.ravel()) + list(p.mu))
    own = [generic_points(2, rng, avoid=list(row) + list(p.mu))
           for row in sets.with_kicked]
    down = reference_states(L)[1]
    idx = functional_system._top_indices(L)
    for points, rows in ((shared, [shared] * len(own)), (own, own)):
        z = sets.z(points)
        f, pole = sets.f(points)
        assert not pole.any()
        for k, (row, zeros_) in enumerate(zip(rows, sets.with_kicked)):
            phi = b_product_state(tuple(zeros_), p)
            for j, lam0 in enumerate(row):
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
    """A pole in one state's ratio draw and a failed fit of another state
    make inf exactly the records they reach; every other record of the
    run is written byte for byte as without them."""
    from sixvertex import cli

    argv = ["--size", "4", "--suite", "zeros", "--seed", "1",
            "--out", str(tmp_path / "r.txt")]
    plain = [r.line() for r in run(build_config(argv))[1]]
    order = [line.split()[0].rsplit(".state", 1)[1] for line in plain
             if line.startswith("check=zeros.lz01_constancy.")]
    pole_state, refit_state = order[1], order[2]
    real_draws, real_f = cli.generic_points, ZeroSets.f
    lz01_draws = []

    def draws(n, rng, avoid=()):
        pts = real_draws(n, rng, avoid=avoid)
        if len(avoid) > 4:  # a ratio draw, which avoids the state's zeros
            lz01_draws.append(pts)
            if len(lz01_draws) == 2:
                return (avoid[0],) + pts[1:]  # the first draw on a zero
        return pts

    def f(self, lams):
        val, pole = real_f(self, lams)
        if np.ndim(lams) == 1:  # the shared points of the fit
            val = val.copy()
            val[2] *= 1 + 1e-3 * np.abs(lams)  # no polynomial in x
        return val, pole

    monkeypatch.setattr(cli, "generic_points", draws)
    monkeypatch.setattr(ZeroSets, "f", f)
    broken = [r.line() for r in run(build_config(argv))[1]]
    assert len(lz01_draws) == len(order)

    def name(line):
        return line.split()[0][len("check="):]

    failed = {name(line) for line in broken if "residual=inf" in line}
    assert failed == {f"zeros.lz01_constancy.state{pole_state}",
                      f"zeros.coincidence.state{refit_state}",
                      f"zeros.wronskian.state{refit_state}"}
    dropped = {f"zeros.{fam}.state{pole_state}" for fam in
               ("lz01_even_constant", "coincidence", "wronskian",
                "wronskian_sharpness")}
    assert [line for line in plain if name(line) not in failed | dropped] == \
        [line for line in broken if name(line) not in failed]
