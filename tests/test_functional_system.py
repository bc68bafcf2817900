from collections import Counter

import numpy as np
import pytest

from sixvertex import cli, functional_system
from sixvertex.dwbc import b_product_state, z_bproduct
from sixvertex.errors import DegenerateSpectrum, PoleEncountered
from sixvertex.functional_system import (
    check_appendix,
    check_fl,
    check_theorem,
    check_tphi,
    gamma_coeff,
    k0_closed_form_residual,
    m_coeff,
    n_coeff,
    omega_coeff,
    theorem_permutation_residual,
    theorem_rhs,
    transfer_eigenstates,
    v_coeff,
    values,
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


def f_n(lams, state, params):
    """Scalar realization of an n-fold creation-operator string: the
    overlap of the state's left vector with B(lam_1)...B(lam_n)|up>."""
    lams = list(lams)
    if len(lams) > params.L:
        return 0j
    return complex(state.left @ b_product_state(lams, params))


def fl_residual(n, state, v, params):
    """The order-n hierarchy residual of one state, term by term from
    `f_n`: the oracle of the batched `check_fl`."""
    lhs = state.lam(v[0]) * f_n(v[1:], state, params)
    acc = f_n(v, state, params)
    terms = [lhs, acc]
    for i in range(1, n + 1):
        rest = [v[t] for t in range(1, n + 1) if t != i]
        terms.append(m_coeff(i, v, params) * f_n(rest, state, params))
        acc += terms[-1]
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            rest = [v[t] for t in range(n + 1) if t not in (i, j)]
            terms.append(n_coeff(j, i, v, params) * f_n(rest, state, params))
            acc += terms[-1]
    scale = max(abs(t) for t in terms)
    return abs(lhs - acc) / scale if scale else 0.0


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


def test_v_coeff_pole_guard_reads_only_removed_slot_pairs():
    # the expansion coefficient divides by sinh(v_s - v_t) only for pairs
    # with a removed slot, so two kept slots may nearly coincide
    p = params_for(3)
    v = list(generic_points(6, np.random.default_rng(3), avoid=p.mu))
    removed = (0, 1, 2, 3)

    def near(s, t):
        w = list(v)
        w[t] = w[s] + 1e-9
        return tuple(w)

    assert np.isfinite(v_coeff(2, removed, near(4, 5), p))
    for s, t in ((1, 5), (2, 3)):
        with pytest.raises(PoleEncountered):
            v_coeff(2, removed, near(s, t), p)


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
                                 (3, 2), (3, 3), (6, 3), (8, 3)])
def test_operator_exchange_identity(L, n):
    p = params_for(L, seed=30 + L)
    rng = np.random.default_rng(50 + n)
    v = generic_points(n + 1, rng, avoid=p.mu)
    assert check_tphi(n, v, p) < 1e-9


def _dense_tphi(n, v, params):
    """The order-(n+1) exchange relation on dense 2^L x 2^L operators, from
    `monodromy`, in the Frobenius norm, with the coefficients of
    `functional_system` looked up at call time, so that a patched
    coefficient reaches both residuals."""
    fs = functional_system
    mono = [vertex_core.monodromy(x, params) for x in v]
    a, b, d = [[m[r, c] for m in mono] for r, c in ((0, 0), (0, 1), (1, 1))]
    c0 = mono[0][1, 0]

    def b_string(slots):
        out = np.eye(params.dim, dtype=complex)
        for t in slots:
            out = out @ b[t]
        return out

    tab = fs._PairTable(v, params)
    tail = b_string(range(1, n + 1))
    lhs = (b[0] + c0) @ tail
    rhs = b_string(range(n + 1)) + tail @ c0
    for i in range(1, n + 1):
        rest = [t for t in range(1, n + 1) if t != i]
        rhs = rhs + b_string(rest) @ (fs._gamma(tab, i, 0, i) * a[0] @ d[i]
                                      + fs._gamma(tab, i, i, 0) * a[i] @ d[0])
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            rest = [t for t in range(n + 1) if t not in (i, j)]
            rhs = rhs + b_string(rest) @ (fs._omega(tab, i, j) * a[i] @ d[j]
                                          + fs._omega(tab, j, i) * a[j] @ d[i])
    return float(np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs))


def _scaled(f, by):
    return lambda *args: f(*args) * by


@pytest.mark.parametrize("L", range(1, 7))
def test_block_exchange_relation_is_the_dense_one_and_sees_broken_coefficients(
        L, monkeypatch):
    # the A D coefficients scaled by 1 + 1e-3 break the relation at every
    # order n >= 1; the block residual then reads what the dense one reads
    p = params_for(L, seed=210 + L)
    rng = np.random.default_rng(220 + L)
    draws = [(n, generic_points(n + 1, rng, avoid=p.mu))
             for n in range(1, min(L, 3) + 1)]
    for n, v in draws:
        assert check_tphi(n, v, p) < 1e-12
        assert _dense_tphi(n, v, p) < 1e-12
    for name in ("_gamma", "_omega"):
        monkeypatch.setattr(functional_system, name,
                            _scaled(getattr(functional_system, name), 1 + 1e-3))
    for n, v in draws:
        got, ref = check_tphi(n, v, p), _dense_tphi(n, v, p)
        assert got > 1e-4
        assert abs(got - ref) <= 1e-10 * ref


@pytest.mark.parametrize("L", [2, 3, 4])
def test_a_run_fails_every_broken_exchange_relation(L, tmp_path, monkeypatch):
    # with the A D coefficients scaled by 1 + 1e-3 every record of order
    # n >= 1 fails; n = 0 has no A D term, reads the same gathered B + C on
    # both sides and stays exactly 0.0
    def records():
        _, reports = cli.run(cli.build_config(
            ["--size", str(L), "--suite", "functional",
             "--out", str(tmp_path / "r.txt")]))
        return {r.name: r for r in reports if cli._covers("functional.tphi",
                                                          r.name)}

    clean = records()
    names = [f"functional.tphi.n{n}" for n in range(min(L, 3) + 1)]
    assert sorted(clean) == names
    assert all(r.verdict == "pass" for r in clean.values())
    for name in ("_gamma", "_omega"):
        monkeypatch.setattr(functional_system, name,
                            _scaled(getattr(functional_system, name), 1 + 1e-3))
    broken = records()
    assert sorted(broken) == names
    assert broken["functional.tphi.n0"].verdict == "pass"
    assert broken["functional.tphi.n0"].residual == 0.0
    assert all(broken[name].verdict == "fail" for name in names[1:])


def _doubled_family(monkeypatch, moving):
    """Put in place of `transfer` at L = 2 the family S(x) diag(d(x))
    S(x)^-1, whose first eigenvalue function is doubled, so that the
    spacing check of `transfer_eigenstates` fails at every point.  With a
    fixed S the family commutes; with ``moving`` S leans with x, and it
    does not.  Returns the family and the list of points it is called at."""
    rng = np.random.default_rng(230)
    s0, lean = rng.standard_normal((2, 4, 8)).view(complex)
    s0 = s0 + 4 * np.eye(4)
    calls = []

    def family(x, params):
        calls.append(x)
        s = s0 + x * lean if moving else s0
        d = [np.cosh(x), np.cosh(x), np.sinh(x) + 3, np.exp(x) - 3]
        return s @ np.diag(d) @ np.linalg.inv(s)

    monkeypatch.setattr(functional_system, "transfer", family)
    return family, calls


def test_a_doubled_eigenvalue_of_a_commuting_family_is_accepted(monkeypatch):
    # the cluster re-pairing of `eig_general` keeps the doubled pair
    # biorthogonal, and the probe point accepts its vectors
    family, calls = _doubled_family(monkeypatch, moving=False)
    p = params_for(2)
    states = transfer_eigenstates(p, np.random.default_rng(231))
    assert len(calls) == 2  # the sample and the probe of one draw
    for st in states:
        for other in states:
            if other is not st:
                overlap = abs(st.left @ other.right)
                assert overlap <= 1e-12 * (np.linalg.norm(st.left)
                                           * np.linalg.norm(other.right))
    t = family(0.31 - 0.17j, p)
    for st in states:
        lam = st.left @ t @ st.right / st.norm
        assert (np.linalg.norm(t @ st.right - lam * st.right)
                <= 1e-10 * np.linalg.norm(t, 2) * np.linalg.norm(st.right))


def test_a_doubled_eigenvalue_of_a_family_that_does_not_commute_is_rejected(
        monkeypatch):
    _, calls = _doubled_family(monkeypatch, moving=True)
    with pytest.raises(DegenerateSpectrum):
        transfer_eigenstates(params_for(2), np.random.default_rng(231))
    assert len(calls) == 24  # every one of the 12 draws reaches the probe


@pytest.mark.parametrize("L", [2, 3, 4])
def test_functional_hierarchy_all_states(L):
    p = params_for(L, seed=60 + L)
    states = states_for(p, seed=70 + L)
    rng = np.random.default_rng(80 + L)
    for n in range(0, L + 2):
        v = generic_points(n + 1, rng, avoid=p.mu)
        residuals = check_fl(n, states, v, p)
        assert residuals.shape == (len(states),)
        for st in states:
            assert residuals[st.index] < 1e-8, (st.index, n)


@pytest.mark.parametrize("L", [2, 3, 4, 5])
def test_batched_hierarchy_matches_the_per_state_residual(L):
    p = params_for(L, seed=160 + L)
    states = states_for(p, seed=165 + L)
    rng = np.random.default_rng(170 + L)
    for n in range(0, L + 2):
        v = generic_points(n + 1, rng, avoid=p.mu)
        residuals = check_fl(n, states, v, p)
        for st in states:
            ref = fl_residual(n, st, v, p)
            assert abs(residuals[st.index] - ref) < 1e-12, (st.index, n)


def counting(monkeypatch, module, name):
    """Count the calls made through `module.name`."""
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def gathers(calls, blocks=(1, 3)):
    """The point arrays of the `vertex_core._gather` calls `calls` of the
    auxiliary blocks ``range(*blocks)``, the transfer matrix's by default,
    in gather order."""
    return [args[0] for args in calls if args[2:] == blocks]


def gathered(calls, blocks=(1, 3)):
    """The points of those gathers, in gather order."""
    return [complex(x) for points in gathers(calls, blocks) for x in points]


def test_values_build_each_point_once_and_match_lam(monkeypatch):
    p = params_for(4, seed=174)
    states = states_for(p, seed=175)
    xs = (0.13 + 0.27j, -0.38 - 0.05j, 0.52 - 0.44j)
    builds = counting(monkeypatch, vertex_core, "_gather")
    got = values(states, xs)
    assert len(gathers(builds)) == 1 and gathered(builds) == list(xs)
    assert got.shape == (len(states), len(xs))
    # each row is that state's own sandwich, bit for bit
    assert got.tolist() == [[st.lam(x) for x in xs] for st in states]
    assert values([], xs).shape == (0, len(xs))
    assert len(gathered(builds)) == len(xs) * (1 + len(states))


@pytest.mark.parametrize("L", [2, 6, 8])
def test_values_gather_in_chunks_and_match_dense_sandwiches(L, monkeypatch):
    # at most 2^14 transfer entries per gather; every value is the
    # sandwich of the dense transfer(x), bit for bit, in any chunk
    p = params_for(L, seed=181)
    states = states_for(p, seed=182)[:3]
    xs = generic_points(25, np.random.default_rng(183), avoid=p.mu)
    builds = counting(monkeypatch, vertex_core, "_gather")
    got = values(states, xs)
    per = 2**14 // (3**L - 1)
    assert [len(points) for points in gathers(builds)] == \
        [min(per, len(xs) - k) for k in range(0, len(xs), per)]
    assert gathered(builds) == list(xs)
    dense = [[complex(st.left @ transfer(x, p) @ st.right / st.norm)
              for x in xs] for st in states]
    assert got.tobytes() == np.array(dense).tobytes()


@pytest.mark.parametrize("L", range(1, 9))
def test_values_are_each_state_sandwich_bit_for_bit(L):
    # the stacked sandwich of every state is each state's own
    # `left @ T(x) @ right / norm`, whatever the number of states
    p = params_for(L, seed=184 + L)
    states = states_for(p, seed=185 + L)
    xs = generic_points(5, np.random.default_rng(186 + L), avoid=p.mu)
    got = values(states, xs)
    for j, x in enumerate(xs):
        t = transfer(x, p)
        ref = [st.left @ t @ st.right / st.norm for st in states]
        assert got[:, j].tobytes() == np.array(ref).tobytes()
        assert values(states[-1:], [x]).tobytes() == got[-1:, j:j + 1].tobytes()
    # one row of points per state: state k reads the points rotated by k
    rows = [np.roll(xs, k) for k in range(len(states))]
    own = values(states, rows)
    assert own.shape == got.shape
    for k in range(len(states)):
        assert own[k].tobytes() == np.roll(got[k], k).tobytes()


@pytest.mark.parametrize("argv", [["--size", "4"],
                                  ["--size", "4", "--root-of-unity", "1/4",
                                   "--suite", "rou"]])
def test_a_run_builds_each_spectral_point_once(argv, tmp_path, monkeypatch):
    # a point is gathered again only when it is a zero (at l = 4, a shift of
    # one) that paired states share, once for each such state
    builds = counting(monkeypatch, vertex_core, "_gather")
    runner = cli._Runner(cli.build_config(
        argv + ["--seed", "1", "--out", str(tmp_path / "r.txt")]))
    runner.run()
    g = runner.params.gamma
    point_sets = [
        {x for w in zeros
         for x in ((w - g, w + g, w - 2 * g) if "rou" in argv else (w,))}
        for _, zeros in runner.zero_sets()]
    counts = Counter(gathered(builds))
    # every state's own points were read
    assert all(x in counts for points in point_sets for x in points)
    for x, n in counts.items():
        if n > 1:
            sharers = sum(x in points for points in point_sets)
            assert 2 <= sharers and n <= sharers


@pytest.mark.parametrize("order", [(0, 1, 2), (2, 0, 1), (1, 2, 0)])
def test_values_do_not_depend_on_call_order(order, monkeypatch):
    # a value is the same sandwich of the same T(x) in any call order;
    # each ask gathers T at its point
    p = params_for(3, seed=179)
    states = states_for(p, seed=180)
    xs = (0.41 - 0.12j, -0.17 + 0.52j)
    direct = {x: [complex(st.left @ transfer(x, p) @ st.right / st.norm)
                  for st in states] for x in xs}
    builds = counting(monkeypatch, vertex_core, "_gather")
    a, b, c = (states[k] for k in order)
    got = [a.lam(xs[0]), a.lam(xs[1]), b.lam(xs[0]), c.lam(xs[1]),
           c.lam(xs[0])]
    assert got == [direct[xs[0]][a.index], direct[xs[1]][a.index],
                   direct[xs[0]][b.index], direct[xs[1]][c.index],
                   direct[xs[0]][c.index]]
    assert len(gathered(builds)) == 5
    assert [st.lam(x) for x in xs for st in states] == direct[xs[0]] + direct[xs[1]]
    assert len(gathered(builds)) == 5 + 2 * len(states)


@pytest.mark.parametrize("L", [2, 3])
def test_hierarchy_builds_each_creation_operator_once(L, monkeypatch):
    # one call serves every state: each B(v_t) and T(v_0) is gathered once,
    # and no dense B is built on its own
    p = params_for(L, seed=174)
    states = states_for(p, seed=175)
    rng = np.random.default_rng(176)
    for n in range(0, L + 2):
        v = generic_points(n + 1, rng, avoid=p.mu)
        builds = counting(monkeypatch, vertex_core, "_gather")
        dense = counting(monkeypatch, vertex_core, "b_operator")
        check_fl(n, states, v, p)
        monkeypatch.undo()
        assert gathered(builds, (1, 2)) == list(v) and not dense
        assert gathered(builds) == [v[0]]


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
    for st, lams in zip(states, values(states, v)):
        rhs = theorem_rhs(v, lams, p)
        explicit = st.lam(v[0]) * st.lam(v[1]) + v_coeff(1, (0, 1), v, p)
        assert abs(rhs - explicit) < 1e-12 * abs(rhs)
        assert abs(z_bproduct(v, p) * st.k0 - rhs) < 1e-8 * abs(rhs)


def test_expansion_matches_eigenvalue_products_size_three():
    p = params_for(3, seed=104)
    states = states_for(p, seed=105)
    rng = np.random.default_rng(106)
    v = generic_points(3, rng, avoid=p.mu)
    st = states[3]
    rhs = theorem_rhs(v, values([st], v)[0], p)
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
    defined = [st for st in states if st.k0_defined]
    residuals = check_theorem(defined, v, p)
    assert len(residuals) == len(defined)
    assert all(r < 1e-8 for r in residuals)


def test_k0_closed_form_size_two():
    p = params_for(2, seed=140)
    states = states_for(p, seed=141)
    assert all(r < 1e-8 for r in k0_closed_form_residual(states, p))


def test_k0_closed_form_detects_rescaled_weight(monkeypatch):
    # with c scaled by 1.1 in the model, the closed form (which uses the
    # unscaled c) must miss by far more than any tolerance
    def scaled_c(lam, gamma):
        a, b, c = weights(lam, gamma)
        return a, b, 1.1 * c

    monkeypatch.setattr(vertex_core, "weights", scaled_c)
    p = params_for(2, seed=140)
    assert all(r > 1e-3
               for r in k0_closed_form_residual(states_for(p, seed=141), p))


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
    assert theorem_permutation_residual(v, values([st], v)[0], p) < 1e-9


def test_expansion_rhs_symmetry_detects_broken_coefficient(monkeypatch):
    # the eigenvalue side is symmetric for any function in place of the
    # eigenvalue, so the break goes into the coefficients: scale those
    # that remove slot 0
    v_of = functional_system._v
    monkeypatch.setattr(functional_system, "_v", lambda tab, m, idx: (
        1.1 if 0 in idx else 1.0) * v_of(tab, m, idx))
    p = params_for(3, seed=150)
    st = states_for(p, seed=151)[0]
    v = generic_points(3, np.random.default_rng(152), avoid=p.mu)
    assert theorem_permutation_residual(v, values([st], v)[0], p) > 1e-3


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
