import numpy as np
import pytest

from sixvertex import cli, roots_of_unity
from sixvertex.functional_system import transfer_eigenstates
from sixvertex.roots_of_unity import (
    RootOfUnitySpec,
    bethe_residual,
    bethe_residual_l2,
    bethe_residual_l4,
    check_inversion_l2,
    check_l3_relation,
    check_l4_relation,
    check_truncation,
    l4_ratio_residuals,
    l4_specialized_residuals,
    q_function,
    truncated_expansion_residual,
)
from sixvertex.vertex_core import ModelParams, generic_points, sample_mu
from sixvertex.zeros import extract_zeros, kick_zero


def setup_case(l, L, k=1, seed=7):
    spec = RootOfUnitySpec(l, k)
    rng = np.random.default_rng(seed)
    p = ModelParams(L, spec.gamma, sample_mu(L, spec.gamma, rng))
    return spec, p, rng


def test_spec_validation():
    with pytest.raises(ValueError):
        RootOfUnitySpec(1)
    with pytest.raises(ValueError):
        RootOfUnitySpec(4, 2)
    assert RootOfUnitySpec(4, 3).unit_residual < 1e-12


@pytest.mark.parametrize("l", [2, 3, 4])
@pytest.mark.parametrize("L", [2, 3, 4, 5])
def test_operator_string_truncation(l, L):
    spec, p, rng = setup_case(l, L, seed=l * 10 + L)
    for _ in range(5):
        lam = generic_points(1, rng, avoid=p.mu)[0]
        assert check_truncation(spec, lam, p) < 1e-9


@pytest.mark.parametrize("L", [2, 3, 4])
def test_two_fold_inversion_relation(L):
    spec, p, rng = setup_case(2, L, seed=100 + L)
    states = transfer_eigenstates(p, rng)
    draws = generic_points(10, rng, avoid=p.mu)
    residuals = check_inversion_l2(states, p, draws)
    assert len(residuals) == len(states)
    assert all(r < 1e-8 for r in residuals)


def test_inversion_rhs_is_state_independent():
    spec, p, rng = setup_case(2, 3, seed=104)
    states = transfer_eigenstates(p, rng)
    lam = generic_points(1, rng, avoid=p.mu)[0]
    vals = [st.lam(lam) * st.lam(lam - spec.gamma) for st in states]
    assert max(abs(v - vals[0]) for v in vals) < 1e-9 * abs(vals[0])


def test_inversion_rhs_homogeneous_form():
    spec = RootOfUnitySpec(2)
    p = ModelParams(3, spec.gamma, (0, 0, 0))
    states = transfer_eigenstates(p, np.random.default_rng(9))
    lam = 0.43 - 0.31j
    g = spec.gamma
    rhs = np.sinh(lam) ** (2 * p.L) - (
        np.sinh(lam + g) * np.sinh(lam - g)) ** p.L
    st = states[0]
    lhs = st.lam(lam) * st.lam(lam - g)
    assert abs(lhs - rhs) < 1e-9 * abs(rhs)


@pytest.mark.parametrize("l,L", [(2, 2), (2, 3), (2, 4), (2, 5),
                                 (3, 2), (3, 3), (3, 4), (3, 5),
                                 (4, 2)])
def test_bethe_equation_holds(l, L):
    spec, p, rng = setup_case(l, L, seed=200 + 10 * l + L)
    states = transfer_eigenstates(p, rng)
    for st in states:
        if not st.k0_defined:
            continue
        data = extract_zeros(st, p)
        for res in bethe_residual(data, spec, p):
            assert abs(res) < 1e-6


def test_bethe_equation_fails_at_order_four_beyond_two_sites():
    """Documented finding: the zero equation derived through the four-fold
    truncation does not hold for L >= 3, although the four-fold functional
    relation itself (and its direct specialization at the zeros) does."""
    spec, p, rng = setup_case(4, 3, seed=242)
    states = transfer_eigenstates(p, rng)
    worst_ba = 0.0
    worst_direct = 0.0
    for st in states:
        data = extract_zeros(st, p)
        worst_ba = max(worst_ba,
                       max(abs(r) for r in bethe_residual(data, spec, p)))
        worst_direct = max(worst_direct,
                           max(l4_specialized_residuals(st, data, p)))
    assert worst_direct < 1e-8
    assert worst_ba > 1e-2


def test_two_fold_and_general_residuals_agree_side_by_side():
    spec, p, rng = setup_case(2, 4, seed=210)
    states = transfer_eigenstates(p, rng)
    for st in states[:4]:
        data = extract_zeros(st, p)
        general = bethe_residual(data, spec, p)
        site_only = bethe_residual_l2(data, p)
        assert max(abs(r) for r in general) < 1e-6
        assert max(abs(r) for r in site_only) < 1e-6


def test_free_fermion_homogeneous_coth_form():
    spec = RootOfUnitySpec(2)
    p = ModelParams(3, spec.gamma, (0, 0, 0))
    states = transfer_eigenstates(p, np.random.default_rng(11))
    for st in states[:4]:
        data = extract_zeros(st, p)
        for w in data.zeros:
            val = np.prod([1 / np.tanh(w - m) ** 2 for m in p.mu])
            assert abs(val - 1) < 1e-6


@pytest.mark.parametrize("L", [2, 3])
def test_three_fold_relation(L):
    spec, p, rng = setup_case(3, L, seed=220 + L)
    states = transfer_eigenstates(p, rng)
    draws = generic_points(10, rng, avoid=p.mu)
    out = check_l3_relation(states, p, draws)
    assert len(out["explicit_residual"]) == len(states)
    assert all(r < 1e-8 for r in out["explicit_residual"])
    assert all(r < 1e-10 for r in out["form_agreement"])


def test_three_fold_middle_term_dies_at_shifted_zero():
    spec, p, rng = setup_case(3, 3, seed=226)
    states = transfer_eigenstates(p, rng)
    st = states[0]
    data = extract_zeros(st, p)
    w = data.zeros[0]
    g = spec.gamma
    lam = w + g
    scale = abs(st.lam(lam))
    assert abs(st.lam(lam - g)) < 1e-7 * max(scale, 1.0)


@pytest.mark.parametrize("L", [2, 3, 4])
def test_four_fold_relation_and_q_sign(L):
    spec, p, rng = setup_case(4, L, seed=230 + L)
    states = transfer_eigenstates(p, rng)
    draws = generic_points(6, rng, avoid=p.mu)
    out = check_l4_relation(states[:4], p, draws)
    assert len(out["relation_residual"]) == 4
    assert all(r < 1e-8 for r in out["relation_residual"])
    assert out["q_shift_law"] < 1e-9
    # measured behaviour of the driving term under a unit shift: periodic
    # for odd sizes, antiperiodic for even sizes
    lam = draws[0]
    q0 = q_function(lam, p)
    q1 = q_function(lam + spec.gamma, p)
    sign = (-1.0) ** (L + 1)
    assert abs(q1 - sign * q0) < 1e-10 * abs(q0)


def test_a_run_computes_the_l4_driving_terms_once(tmp_path, monkeypatch):
    # one call serves every state, and Q is evaluated at each draw and its
    # shift, not once per state
    seen = {"check": 0, "q_in_check": 0}
    inside = []
    real_check = roots_of_unity.check_l4_relation

    def check_l4_relation(*args):
        seen["check"] += 1
        inside.append(True)
        try:
            return real_check(*args)
        finally:
            inside.pop()

    def q_function(*args):
        seen["q_in_check"] += bool(inside)
        return real_q(*args)

    real_q = roots_of_unity.q_function
    monkeypatch.setattr(cli, "check_l4_relation", check_l4_relation)
    monkeypatch.setattr(roots_of_unity, "q_function", q_function)
    cli.run(cli.build_config(["--size", "4", "--root-of-unity", "1/4",
                              "--suite", "rou", "--out",
                              str(tmp_path / "r.txt")]))
    assert seen["check"] == 1
    assert seen["q_in_check"] == 2 * 6


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("L", [2, 3, 4, 5])
def test_four_fold_zero_equation_with_driving_term(k, L):
    spec, p, rng = setup_case(4, L, k=k, seed=290 + 10 * k + L)
    states = transfer_eigenstates(p, rng)
    for st in states:
        if not st.k0_defined:
            continue
        data = extract_zeros(st, p)
        assert max(bethe_residual_l4(data, p)) < 1e-6
        assert bethe_residual_l4(kick_zero(data, 0), p)[0] > 1e-4


def test_four_fold_ratio_equation_matches_general_form():
    # the ratio form and the interaction-product form of the zero equation
    # agree with each other wherever both are defined
    spec, p, rng = setup_case(4, 4, seed=238)
    states = transfer_eigenstates(p, rng)
    for st in states[:4]:
        data = extract_zeros(st, p)
        general = bethe_residual(data, spec, p)
        pair = zip(l4_ratio_residuals(st, data, p), general)
        for r_ratio, r_gen in pair:
            assert abs(r_ratio - r_gen) < 1e-6 * max(1.0, abs(r_gen))


@pytest.mark.parametrize("l", [2, 3, 4])
def test_truncated_expansion_vanishes(l):
    spec, p, rng = setup_case(l, 3, seed=250 + l)
    states = transfer_eigenstates(p, rng)
    lam = generic_points(1, rng, avoid=p.mu)[0]
    residuals = truncated_expansion_residual(states, spec, p, lam)
    assert len(residuals) == len(states)
    assert all(r < 1e-8 for r in residuals)


def test_conjecture_regime_is_recorded_not_asserted():
    spec, p, rng = setup_case(5, 3, seed=260)
    states = transfer_eigenstates(p, rng)
    observed = []
    for st in states[:4]:
        data = extract_zeros(st, p)
        observed.append(max(abs(r) for r in bethe_residual(data, spec, p)))
    # evidence against the general-order conjecture at L >= 3; kept as a
    # recorded observation, not a pass/fail gate
    assert all(np.isfinite(observed))
