import numpy as np
import pytest

from sixvertex import dwbc, functional_system
from sixvertex.dwbc import z_bproduct
from sixvertex.errors import PoleEncountered
from sixvertex.functional_system import (
    check_appendix,
    check_fl,
    check_theorem,
    check_tphi,
    expansion_coeffs,
    f_n,
    gamma_coeff,
    k0_closed_form_residual,
    m_coeff,
    n_coeff,
    omega_coeff,
    theorem_rhs,
    transfer_eigenstates,
    v_coeff,
)
from sixvertex import vertex_core
from sixvertex.vertex_core import (
    ModelParams,
    generic_points,
    sample_mu,
    transfer,
    weights,
)

GAMMA = complex(0.43, 0.21)


def params_for(L, seed=7, gamma=GAMMA):
    rng = np.random.default_rng(seed)
    return ModelParams(L, gamma, sample_mu(L, gamma, rng))


def states_for(p, seed=9):
    rng = np.random.default_rng(seed)
    return transfer_eigenstates(p, rng)


def test_gamma_reduces_to_ratio_for_single_variable():
    p = params_for(2)
    v = (0.31 - 0.22j, -0.48 + 0.09j)
    got = gamma_coeff(1, 0, 1, v, p)
    ref = np.sinh(GAMMA) / np.sinh(v[1] - v[0])
    assert abs(got - ref) < 1e-12 * abs(ref)


def test_gamma_factored_form():
    p = params_for(3)
    rng = np.random.default_rng(0)
    v = generic_points(4, rng)
    n = 3
    for i in (1, 2, 3):
        got = gamma_coeff(i, 0, i, v, p)
        ref = np.sinh(GAMMA) / np.sinh(v[i] - v[0])
        for t in range(1, n + 1):
            if t == i:
                continue
            ref *= np.sinh(v[i] - v[t] + GAMMA) / np.sinh(v[i] - v[t])
            ref *= np.sinh(v[t] - v[0] + GAMMA) / np.sinh(v[t] - v[0])
        assert abs(got - ref) < 1e-12 * abs(ref)


def test_omega_pole_raises():
    p = params_for(2)
    v = (0.1, 0.5, 0.5 + 1e-9)
    with pytest.raises(PoleEncountered):
        omega_coeff(1, 2, v, p)


def test_m_coefficient_matches_expansion_coefficient():
    p = params_for(2)
    rng = np.random.default_rng(1)
    v = generic_points(2, rng, avoid=p.mu)
    lhs = v_coeff(1, (0, 1), v, p)
    rhs = -m_coeff(1, v, p)
    assert abs(lhs - rhs) < 1e-10 * abs(lhs)


def test_m_coefficient_two_fold_shift_reduction():
    # at the string specialization the coefficient collapses to a
    # difference of site products
    g = 1j * np.pi / 2
    p = params_for(3, gamma=g)
    lam = 0.41 - 0.18j
    v = (lam, lam - g)
    got = m_coeff(1, v, p)
    ref = np.prod([np.sinh(lam - m) ** 2 for m in p.mu]) - np.prod(
        [np.sinh(lam - m + g) * np.sinh(lam - m - g) for m in p.mu]
    )
    assert abs(got - ref) < 1e-10 * abs(ref)


@pytest.mark.parametrize("L", [2, 3])
def test_string_realization_reproduces_partition_function(L):
    p = params_for(L)
    states = states_for(p)
    rng = np.random.default_rng(2)
    lams = generic_points(L, rng, avoid=p.mu)
    z = z_bproduct(lams, p)
    for st in states:
        lhs = f_n(lams, st, p)
        rhs = z * st.f0bar
        assert abs(lhs - rhs) < 1e-9 * max(abs(lhs), abs(rhs))


def test_string_realization_vanishes_beyond_size():
    p = params_for(2)
    st = states_for(p)[0]
    rng = np.random.default_rng(3)
    lams = generic_points(3, rng, avoid=p.mu)
    assert f_n(lams, st, p) == 0j


def test_string_realization_symmetric():
    p = params_for(3)
    st = states_for(p)[1]
    rng = np.random.default_rng(4)
    lams = list(generic_points(3, rng, avoid=p.mu))
    ref = f_n(lams, st, p)
    rng.shuffle(lams)
    assert abs(f_n(lams, st, p) - ref) < 1e-10 * abs(ref)


@pytest.mark.parametrize("L,n", [(2, 0), (2, 1), (2, 2), (3, 0), (3, 1),
                                 (3, 2), (3, 3)])
def test_operator_exchange_identity(L, n):
    p = params_for(L, seed=30 + L)
    rng = np.random.default_rng(50 + n)
    v = generic_points(n + 1, rng, avoid=p.mu)
    assert check_tphi(n, v, p) < 1e-9


@pytest.mark.parametrize("L", [2, 3, 4])
def test_functional_hierarchy_all_states(L):
    p = params_for(L, seed=60 + L)
    states = states_for(p, seed=70 + L)
    rng = np.random.default_rng(80 + L)
    for st in states:
        for n in range(0, L + 2):
            v = generic_points(n + 1, rng, avoid=p.mu)
            assert check_fl(n, st, v, p) < 1e-8


def counting(monkeypatch, module, name):
    """Count the calls made through `module.name`."""
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_all_states_at_one_point_share_one_transfer_build(monkeypatch):
    p = params_for(4, seed=170)
    states = states_for(p, seed=171)
    x = 0.23 - 0.41j
    t = transfer(x, p)
    builds = counting(monkeypatch, functional_system, "transfer")
    values = [st.lam(x) for st in states]
    values += [st.lam(x) for st in states]
    assert len(builds) == 1
    direct = [complex(st.left @ t @ st.right / st.norm) for st in states]
    assert values == direct + direct


def test_eigenstate_sets_do_not_share_a_memo(monkeypatch):
    # the same parameters and seed give the same vectors, so a memo shared
    # between the two sets would answer the second from the first
    p = params_for(3, seed=172)
    first, second = states_for(p, seed=173), states_for(p, seed=173)
    builds = counting(monkeypatch, functional_system, "transfer")
    x = 0.37 + 0.19j
    assert [st.lam(x) for st in first] == [st.lam(x) for st in second]
    assert len(builds) == 2


@pytest.mark.parametrize("L", [2, 3])
def test_hierarchy_builds_each_creation_operator_once(L, monkeypatch):
    p = params_for(L, seed=174)
    st = states_for(p, seed=175)[1]
    rng = np.random.default_rng(176)
    for n in range(0, L + 2):
        v = generic_points(n + 1, rng, avoid=p.mu)
        builds = (counting(monkeypatch, functional_system, "b_operator"),
                  counting(monkeypatch, dwbc, "b_operator"))
        check_fl(n, st, v, p)
        monkeypatch.undo()
        assert sum(map(len, builds)) <= n + 1


def test_size_two_system_as_printed():
    """The four hierarchy equations at L = 2, written out line by line."""
    p = params_for(2, seed=90)
    states = states_for(p, seed=91)
    rng = np.random.default_rng(92)
    for st in states:
        lam = generic_points(4, rng, avoid=p.mu)
        f0 = st.f0
        f0b = st.f0bar

        # order 0: the eigenvalue relates consecutive string overlaps
        lhs = st.lam(lam[0]) * f0
        rhs = f_n((lam[0],), st, p)
        assert abs(lhs - rhs) < 1e-9 * abs(lhs)

        # order 1
        v = (lam[0], lam[1])
        lhs = st.lam(lam[0]) * f_n((lam[1],), st, p)
        rhs = z_bproduct(v, p) * f0b + m_coeff(1, v, p) * f0
        assert abs(lhs - rhs) < 1e-8 * max(abs(lhs), abs(rhs))

        # order 2
        v = (lam[0], lam[1], lam[2])
        lhs = st.lam(lam[0]) * z_bproduct(v[1:], p) * f0b
        rhs = (
            m_coeff(1, v, p) * f_n((v[2],), st, p)
            + m_coeff(2, v, p) * f_n((v[1],), st, p)
            + n_coeff(2, 1, v, p) * f_n((v[0],), st, p)
        )
        assert abs(lhs - rhs) < 1e-8 * max(abs(lhs), abs(rhs))

        # order 3: pure partition-function identity
        v = lam
        acc = 0j
        for i in (1, 2, 3):
            rest = tuple(v[t] for t in (1, 2, 3) if t != i)
            acc += m_coeff(i, v, p) * z_bproduct(rest, p)
        for i in (1, 2, 3):
            for j in range(i + 1, 4):
                rest = tuple(v[t] for t in range(4) if t not in (i, j))
                acc += n_coeff(j, i, v, p) * z_bproduct(rest, p)
        scale = max(
            abs(m_coeff(i, v, p) * z_bproduct(
                tuple(v[t] for t in (1, 2, 3) if t != i), p))
            for i in (1, 2, 3)
        )
        assert abs(acc) < 1e-8 * scale


def test_size_three_system_as_printed():
    """The five hierarchy equations at L = 3."""
    p = params_for(3, seed=95)
    st = states_for(p, seed=96)[2]
    rng = np.random.default_rng(97)
    lam = generic_points(5, rng, avoid=p.mu)
    f0, f0b = st.f0, st.f0bar

    lhs = st.lam(lam[0]) * f0
    assert abs(lhs - f_n((lam[0],), st, p)) < 1e-9 * abs(lhs)

    v = lam[:2]
    lhs = st.lam(v[0]) * f_n((v[1],), st, p)
    rhs = f_n(v, st, p) + m_coeff(1, v, p) * f0
    assert abs(lhs - rhs) < 1e-8 * max(abs(lhs), abs(rhs))

    v = lam[:3]
    lhs = st.lam(v[0]) * f_n(v[1:], st, p)
    rhs = (
        z_bproduct(v, p) * f0b
        + m_coeff(1, v, p) * f_n((v[2],), st, p)
        + m_coeff(2, v, p) * f_n((v[1],), st, p)
        + n_coeff(2, 1, v, p) * f_n((v[0],), st, p)
    )
    assert abs(lhs - rhs) < 1e-8 * max(abs(lhs), abs(rhs))

    v = lam[:4]
    lhs = st.lam(v[0]) * z_bproduct(v[1:], p) * f0b
    rhs = 0j
    for i in (1, 2, 3):
        rest = tuple(v[t] for t in (1, 2, 3) if t != i)
        rhs += m_coeff(i, v, p) * f_n(rest, st, p)
    for i in (1, 2, 3):
        for j in range(i + 1, 4):
            rest = tuple(v[t] for t in range(4) if t not in (i, j))
            rhs += n_coeff(j, i, v, p) * f_n(rest, st, p)
    assert abs(lhs - rhs) < 1e-8 * max(abs(lhs), abs(rhs))

    v = lam
    acc = 0j
    scale = 0.0
    for i in (1, 2, 3, 4):
        rest = tuple(v[t] for t in (1, 2, 3, 4) if t != i)
        term = m_coeff(i, v, p) * z_bproduct(rest, p)
        acc += term
        scale = max(scale, abs(term))
    for i in (1, 2, 3, 4):
        for j in range(i + 1, 5):
            rest = tuple(v[t] for t in range(5) if t not in (i, j))
            acc += n_coeff(j, i, v, p) * z_bproduct(rest, p)
    assert abs(acc) < 1e-8 * scale


def test_expansion_coefficient_normalization():
    p = params_for(3)
    assert v_coeff(0, (), generic_points(3, np.random.default_rng(0)), p) == 1.0


def test_expansion_matches_eigenvalue_products_size_two():
    p = params_for(2, seed=101)
    states = states_for(p, seed=102)
    rng = np.random.default_rng(103)
    v = generic_points(2, rng, avoid=p.mu)
    for st in states:
        rhs = theorem_rhs(v, st.lam, p)
        explicit = st.lam(v[0]) * st.lam(v[1]) + v_coeff(1, (0, 1), v, p)
        assert abs(rhs - explicit) < 1e-12 * abs(rhs)
        assert abs(z_bproduct(v, p) * st.k0 - rhs) < 1e-8 * abs(rhs)


def test_expansion_matches_eigenvalue_products_size_three():
    p = params_for(3, seed=104)
    states = states_for(p, seed=105)
    rng = np.random.default_rng(106)
    v = generic_points(3, rng, avoid=p.mu)
    st = states[3]
    rhs = theorem_rhs(v, st.lam, p)
    explicit = st.lam(v[0]) * st.lam(v[1]) * st.lam(v[2])
    for (i1, i2) in ((0, 1), (0, 2), (1, 2)):
        k = ({0, 1, 2} - {i1, i2}).pop()
        explicit += v_coeff(1, (i1, i2), v, p) * st.lam(v[k])
    assert abs(rhs - explicit) < 1e-12 * abs(rhs)


@pytest.mark.parametrize("L", [2, 3, 4, 5])
def test_partition_function_from_eigenvalues(L):
    p = params_for(L, seed=110 + L)
    states = states_for(p, seed=120 + L)
    rng = np.random.default_rng(130 + L)
    v = generic_points(L, rng, avoid=p.mu)
    z = z_bproduct(v, p)
    coeffs = expansion_coeffs(v, p)
    for st in states:
        if not st.k0_defined:
            continue
        res = check_theorem(st, v, p, z_of=lambda _: z)
        assert res < 1e-8
        # coefficients shared between states give the same residual
        assert check_theorem(st, v, p, z_of=lambda _: z, coeffs=coeffs) == res


def test_k0_closed_form_size_two():
    p = params_for(2, seed=140)
    states = states_for(p, seed=141)
    for st in states:
        assert k0_closed_form_residual(st, p) < 1e-8


def test_k0_closed_form_detects_rescaled_weight(monkeypatch):
    # with c scaled by 1.1 in the model, the closed form (which uses the
    # unscaled c) must miss by far more than any tolerance
    def scaled_c(lam, gamma):
        a, b, c = weights(lam, gamma)
        return a, b, 1.1 * c

    monkeypatch.setattr(vertex_core, "weights", scaled_c)
    p = params_for(2, seed=140)
    for st in states_for(p, seed=141):
        assert k0_closed_form_residual(st, p) > 1e-3


def test_k0_closed_form_homogeneous():
    p = ModelParams(2, GAMMA, (0, 0))
    states = states_for(p, seed=142)
    denom = np.sinh(GAMMA) ** 4
    for st in states:
        ref = st.lam(0) ** 2 / denom
        assert abs(st.k0 - ref) < 1e-8


def test_expansion_rhs_symmetric_under_argument_swap():
    p = params_for(3, seed=150)
    st = states_for(p, seed=151)[0]
    rng = np.random.default_rng(152)
    v = generic_points(3, rng, avoid=p.mu)
    rhs = theorem_rhs(v, st.lam, p)
    swapped = (v[1], v[0], v[2])
    assert abs(theorem_rhs(swapped, st.lam, p) - rhs) < 1e-9 * abs(rhs)


def test_appendix_identities_size_three():
    p = params_for(3, seed=160)
    rng = np.random.default_rng(161)
    v = generic_points(3, rng, avoid=p.mu)
    res = check_appendix(3, v, p)
    assert max(res.values()) < 1e-9


def test_appendix_identities_size_four():
    p = params_for(4, seed=162)
    rng = np.random.default_rng(163)
    v = generic_points(4, rng, avoid=p.mu)
    res = check_appendix(4, v, p)
    for name, val in res.items():
        tol = 1e-8 if name == "V4_3210" else 1e-9
        assert val < tol, name


def test_appendix_quartic_requires_consistent_index_pairing():
    # pairing the (3,1) double-removal coefficient with the (0,3) slot
    # removal instead of (1,3) breaks the identity
    p = params_for(4, seed=164)
    rng = np.random.default_rng(165)
    v = generic_points(4, rng, avoid=p.mu)
    rhs = 0j
    for i in (1, 2, 3):
        sub = tuple(v[t] for t in (1, 2, 3) if t != i)
        rhs += m_coeff(i, v, p) * m_coeff(1, sub, p)
    wrong_pairs = {(1, 2): (1, 2), (1, 3): (0, 3), (2, 3): (2, 3)}
    for (i, j), (ri, rj) in wrong_pairs.items():
        sub = tuple(v[t] for t in range(4) if t not in (ri, rj))
        rhs += n_coeff(j, i, v, p) * m_coeff(1, sub, p)
    lhs = v_coeff(2, (0, 1, 2, 3), v, p)
    assert abs(lhs - rhs) / abs(lhs) > 1e-3
