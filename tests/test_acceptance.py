"""Acceptance suite.

One test per criterion (parametrized over the swept sizes), each printing a
PASS/FAIL line with the worst measured residual.  Three sub-checks assert
what the verified relations imply where the source states otherwise (see
README "Findings"):

* the even-size ratio constant is +1 at every even L, as the expansion
  theorem gives, not (-1)^(L/2),
* the four-fold driving term obeys Q(x + g) = (-1)^(L+1) Q(x), so it is
  antiperiodic at even L rather than periodic,
* the zero equations at order l = 4 keep the driving term Q(w + g), which
  does not vanish for L >= 3.
"""

import numpy as np
import pytest

from sixvertex.dwbc import draw_residuals, z_bproduct
from sixvertex.functional_system import (
    check_appendix,
    check_fl,
    check_theorem,
    check_tphi,
    even_floor,
    k0_closed_form_residual,
    m_coeff,
    n_coeff,
    oracle_residuals,
    transfer_eigenstates,
)
from sixvertex.roots_of_unity import (
    RootOfUnitySpec,
    bethe_residual,
    bethe_residual_l4,
    check_inversion_l2,
    check_l3_relation,
    check_l4_relation,
    check_truncation,
)
from sixvertex.vertex_core import (
    ModelParams,
    commuting_residual,
    full_product_residuals,
    generic_points,
    rll_residual,
    sample_mu,
    special_value_residuals,
    twist_symmetry_residual,
    ybe_residual,
)
from sixvertex.zeros import (
    check_lz01,
    check_zero_coincidence,
    extract_zeros,
    kick_zero,
    reconstruction_residual,
    sample_values,
    wronskian_residual,
)

GAMMA = complex(0.6, 0.25)
DRAWS = 20

_state_cache = {}
_spectral_cache = {}


def params_for(L, gamma=GAMMA, seed=None):
    rng = np.random.default_rng(1000 + L if seed is None else seed)
    return ModelParams(L, gamma, sample_mu(L, gamma, rng))


def states_for(p, seed):
    key = (p, seed)
    if key not in _state_cache:
        _state_cache[key] = transfer_eigenstates(p, np.random.default_rng(seed))
    return _state_cache[key]


def spectral_for(p, seed):
    key = (p, seed)
    if key not in _spectral_cache:
        defined = [st for st in states_for(p, seed) if st.k0_defined]
        _spectral_cache[key] = [
            extract_zeros(st, row, p)
            for st, row in zip(defined, sample_values(defined, p))
        ]
    return _spectral_cache[key]


def report(name, ok, detail):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


# ---------------------------------------------------------------- criterion 1
@pytest.mark.parametrize("L", [1, 2, 3, 4, 5, 6])
def test_criterion1_structural(L):
    p = params_for(L)
    rng = np.random.default_rng(2000 + L)
    worst = {"ybe": 0.0, "twist": 0.0, "rll": 0.0, "commuting": 0.0,
             "action": 0.0, "exact": 0.0}
    for _ in range(DRAWS):
        lam, mu_ = generic_points(2, rng, avoid=p.mu)
        worst["ybe"] = max(worst["ybe"], ybe_residual(lam, mu_, p))
        worst["twist"] = max(worst["twist"], twist_symmetry_residual(lam, p))
        worst["rll"] = max(worst["rll"], rll_residual(lam, mu_, p))

        worst["commuting"] = max(worst["commuting"],
                                 commuting_residual(lam, mu_, p))
        full = full_product_residuals(lam, p)
        worst["action"] = max(worst["action"], full["action"])
        worst["exact"] = max(worst["exact"], full["trace_form"])
    worst["exact"] = max(worst["exact"], *special_value_residuals(p).values())
    ok = (worst["ybe"] < 1e-9 and worst["twist"] < 1e-12
          and worst["rll"] < 1e-9 and worst["commuting"] < 1e-9
          and worst["action"] < 1e-9 and worst["exact"] < 1e-12)
    assert report(f"1.structural[L={L}]", ok,
                  ", ".join(f"{k}={v:.2e}" for k, v in worst.items()))


# ---------------------------------------------------------------- criterion 2
@pytest.mark.parametrize("L", [2, 3, 4, 5, 6])
def test_criterion2_oracle_equivalence(L):
    p = params_for(L)
    rng = np.random.default_rng(3000 + L)
    # points of the overflow string, which this criterion does not read; a
    # generator of their own leaves the criterion's draws as they were
    over = generic_points(L + 1, np.random.default_rng(0), avoid=p.mu)
    worst = 0.0
    for _ in range(DRAWS):
        lams = generic_points(L, rng, avoid=p.mu)
        worst = max(worst,
                    draw_residuals(lams, lams, 0j, over, p)["oracle_agreement"])
    assert report(f"2.oracle_equivalence[L={L}]", worst < 1e-9,
                  f"worst={worst:.2e}")


# ---------------------------------------------------------------- criterion 3
@pytest.mark.parametrize("L", [2, 3])
def test_criterion3_operator_identity(L):
    p = params_for(L)
    rng = np.random.default_rng(4000 + L)
    worst = 0.0
    for n in range(0, L + 1):
        v = generic_points(n + 1, rng, avoid=p.mu)
        worst = max(worst, check_tphi(n, v, p))
    assert report(f"3.operator_identity[L={L}]", worst < 1e-9,
                  f"worst={worst:.2e}")


# ---------------------------------------------------------------- criterion 4
@pytest.mark.parametrize("L", [2, 3, 4])
def test_criterion4_functional_hierarchy(L):
    p = params_for(L)
    states = states_for(p, 5000 + L)
    rng = np.random.default_rng(5100 + L)
    worst = 0.0
    for n in range(0, L + 2):
        v = generic_points(n + 1, rng, avoid=p.mu)
        residuals = check_fl(n, states, v, p)
        for st in states:
            if st.k0_defined:
                worst = max(worst, residuals[st.index])
    assert report(f"4.functional_hierarchy[L={L}]", worst < 1e-8,
                  f"worst={worst:.2e} over {len(states)} states")


def _printed_f(st, lams, p):
    """String overlaps as they appear in the printed systems: the top
    order is written through the partition function."""
    from test_functional_system import f_n

    lams = list(lams)
    if len(lams) > p.L:
        return 0j
    if len(lams) == p.L:
        return z_bproduct(lams, p) * st.f0bar
    return f_n(lams, st, p)


def test_criterion4_printed_systems():
    # the L = 2 and L = 3 instantiations, line by line
    worst = 0.0
    for L in (2, 3):
        p = params_for(L)
        st = states_for(p, 5000 + L)[0]
        rng = np.random.default_rng(5200 + L)
        for n in range(0, L + 2):
            v = generic_points(n + 1, rng, avoid=p.mu)
            lhs = st.lam(v[0]) * _printed_f(st, v[1:], p)
            rhs = _printed_f(st, v, p)
            scale = max(abs(lhs), abs(rhs))
            for i in range(1, n + 1):
                rest = [v[t] for t in range(1, n + 1) if t != i]
                term = m_coeff(i, v, p) * _printed_f(st, rest, p)
                rhs += term
                scale = max(scale, abs(term))
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    rest = [v[t] for t in range(n + 1) if t not in (i, j)]
                    term = n_coeff(j, i, v, p) * _printed_f(st, rest, p)
                    rhs += term
                    scale = max(scale, abs(term))
            worst = max(worst, abs(lhs - rhs) / max(scale, 1e-300))
    assert report("4.printed_systems", worst < 1e-8, f"worst={worst:.2e}")


# ---------------------------------------------------------------- criterion 5
@pytest.mark.parametrize("L", [2, 3, 4, 5])
def test_criterion5_partition_from_eigenvalues(L):
    p = params_for(L)
    states = states_for(p, 6000 + L)
    rng = np.random.default_rng(6100 + L)
    worst = 0.0
    nchecked = 0
    for _ in range(5):
        v = generic_points(L, rng, avoid=p.mu)
        for res in check_theorem([st for st in states if st.k0_defined], v, p):
            worst = max(worst, res)
            nchecked += 1
    assert report(f"5.partition_from_eigenvalues[L={L}]", worst < 1e-8,
                  f"worst={worst:.2e} over {nchecked} checks")


def test_criterion5_k0_closed_form():
    p = params_for(2)
    states = states_for(p, 6002)
    worst = max([0.0, *k0_closed_form_residual(states, p)])
    assert report("5.k0_closed_form", worst < 1e-8, f"worst={worst:.2e}")


# ---------------------------------------------------------------- criterion 6
@pytest.mark.parametrize("L", [3, 4])
def test_criterion6_appendix_identities(L):
    p = params_for(L)
    rng = np.random.default_rng(7000 + L)
    worst = 0.0
    for _ in range(5):
        v = generic_points(L, rng, avoid=p.mu)
        res = check_appendix(L, v, p)
        worst = max(worst, max(res.values()))
    assert report(f"6.appendix_identities[L={L}]", worst < 1e-8,
                  f"worst={worst:.2e}")


# ---------------------------------------------------------------- criterion 7
@pytest.mark.parametrize("L", [2, 3, 4])
def test_criterion7_reconstruction(L):
    p = params_for(L)
    specs = spectral_for(p, 8000 + L)
    rng = np.random.default_rng(8100 + L)
    worst = 0.0
    for data in specs:
        for _ in range(3):
            probe = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            worst = max(worst, reconstruction_residual(data, probe))
    assert report(f"7.reconstruction[L={L}]", worst < 1e-7,
                  f"worst={worst:.2e}")


@pytest.mark.parametrize("L", [2, 3, 4])
def test_criterion7_ratio_constancy(L):
    p = params_for(L)
    specs = spectral_for(p, 8000 + L)
    rng = np.random.default_rng(8200 + L)
    worst = 0.0
    for data in specs:
        draws = generic_points(5, rng, avoid=list(data.zeros) + list(p.mu))
        worst = max(worst, check_lz01(data, draws, p)["spread"])
    assert report(f"7.ratio_constancy[L={L}]", worst < 1e-6,
                  f"worst spread={worst:.2e}")


@pytest.mark.parametrize("L", [2, 4])
def test_criterion7_even_ratio_constant(L):
    """Asserts the constant +1 that the expansion theorem implies at every
    even size (only the top coefficient survives at the zeroes); the
    source's (-1)^(L/2) agrees with it only when 4 divides L."""
    p = params_for(L)
    specs = spectral_for(p, 8000 + L)
    rng = np.random.default_rng(8300 + L)
    expected = 1.0
    worst = 0.0
    measured = []
    for data in specs:
        draws = generic_points(5, rng, avoid=list(data.zeros) + list(p.mu))
        out = check_lz01(data, draws, p)
        measured.append(out["mean"])
        assert out["expected"] == expected
        worst = max(worst, out["constant_residual"])
    ok = worst < 1e-6
    assert report(
        f"7.even_ratio_constant[L={L}]", ok,
        f"asserted {expected:+.0f}, measured {np.mean(measured):+.6f}, "
        f"worst deviation {worst:.2e}",
    )


@pytest.mark.parametrize("L", [2, 3, 4])
def test_criterion7_zero_coincidence(L):
    p = params_for(L)
    specs = spectral_for(p, 8000 + L)
    worst = 0.0
    for data in specs:
        worst = max(worst, check_zero_coincidence(data, p)["max_distance"])
    assert report(f"7.zero_coincidence[L={L}]", worst < 1e-6,
                  f"worst={worst:.2e}")


@pytest.mark.parametrize("L", [2, 3, 4])
def test_criterion7_wronskian(L):
    p = params_for(L)
    specs = spectral_for(p, 8000 + L)
    worst = 0.0
    weakest_kick = np.inf
    for data in specs:
        worst = max(worst, wronskian_residual(data, p))
        for j in range(len(data.zeros)):
            weakest_kick = min(weakest_kick,
                               wronskian_residual(kick_zero(data, j), p))
    ok = worst < 1e-6 and weakest_kick > 1e-3
    assert report(f"7.wronskian[L={L}]", ok,
                  f"worst={worst:.2e}, weakest perturbation response "
                  f"{weakest_kick:.2e}")


# ---------------------------------------------------------------- criterion 8
@pytest.mark.parametrize("l", [2, 3, 4])
@pytest.mark.parametrize("L", [2, 3, 4, 5])
def test_criterion8_truncation(l, L):
    spec = RootOfUnitySpec(l)
    p = params_for(L, gamma=spec.gamma, seed=9000 + 10 * l + L)
    rng = np.random.default_rng(9100 + 10 * l + L)
    worst = 0.0
    for _ in range(5):
        lam = generic_points(1, rng, avoid=p.mu)[0]
        worst = max(worst, check_truncation(spec, lam, p))
    assert report(f"8.truncation[l={l},L={L}]", worst < 1e-9,
                  f"worst={worst:.2e}")


@pytest.mark.parametrize("L", [2, 3, 4])
def test_criterion8_inversion(L):
    spec = RootOfUnitySpec(2)
    p = params_for(L, gamma=spec.gamma, seed=9200 + L)
    states = states_for(p, 9300 + L)
    rng = np.random.default_rng(9400 + L)
    draws = generic_points(10, rng, avoid=p.mu)
    worst = max(check_inversion_l2(states, p, draws))
    assert report(f"8.inversion[L={L}]", worst < 1e-8, f"worst={worst:.2e}")


@pytest.mark.parametrize("L", [2, 3])
def test_criterion8_three_fold_relation(L):
    spec = RootOfUnitySpec(3)
    p = params_for(L, gamma=spec.gamma, seed=9500 + L)
    states = states_for(p, 9600 + L)
    rng = np.random.default_rng(9700 + L)
    draws = generic_points(10, rng, avoid=p.mu)
    out = check_l3_relation(states, p, draws)
    worst = max([0.0, *out["explicit_residual"]])
    assert report(f"8.three_fold_relation[L={L}]", worst < 1e-8,
                  f"worst={worst:.2e}")


@pytest.mark.parametrize("L", [2, 4])
def test_criterion8_four_fold_relation(L):
    spec = RootOfUnitySpec(4)
    p = params_for(L, gamma=spec.gamma, seed=9800 + L)
    states = states_for(p, 9900 + L)
    rng = np.random.default_rng(10000 + L)
    draws = generic_points(6, rng, avoid=p.mu)
    out = check_l4_relation([st for st in states if st.k0_defined], p, draws)
    worst = max([0.0, *out["relation_residual"]])
    assert report(f"8.four_fold_relation[L={L}]", worst < 1e-8,
                  f"worst={worst:.2e}")


@pytest.mark.parametrize("L", [2, 4])
def test_criterion8_q_periodicity(L):
    """Asserts the shift law Q(x + g) = (-1)^(L+1) Q(x) of the driving term
    at l = 4, i.e. antiperiodicity at these even sizes; the source's
    periodicity claim holds only at odd L (there its residual is exactly 2)."""
    spec = RootOfUnitySpec(4)
    p = params_for(L, gamma=spec.gamma, seed=9800 + L)
    states = states_for(p, 9900 + L)
    rng = np.random.default_rng(10100 + L)
    draws = generic_points(6, rng, avoid=p.mu)
    out = check_l4_relation(states[:1], p, draws)
    ok = out["q_shift_law"] < 1e-9
    assert report(f"8.q_periodicity[L={L}]", ok,
                  f"shift-law residual {out['q_shift_law']:.2e}, "
                  f"periodicity residual {out['q_periodicity']:.6f}")


@pytest.mark.parametrize("l", [2, 3, 4])
@pytest.mark.parametrize("L", [2, 3, 4, 5])
def test_criterion8_bethe_equations(l, L):
    """Asserts the zero equations for l in {2, 3, 4}.  At l = 4 the equation
    is the four-fold relation at the shifted zero with its driving term
    kept; the ratio form without it does not follow for L >= 3."""
    spec = RootOfUnitySpec(l)
    p = params_for(L, gamma=spec.gamma, seed=10200 + 10 * l + L)
    states = states_for(p, 10300 + 10 * l + L)
    worst = 0.0
    defined = [st for st in states if st.k0_defined]
    for st, row in zip(defined, sample_values(defined, p)):
        data = extract_zeros(st, row, p)
        if l == 4:
            res = bethe_residual_l4(data, p)
        else:
            res = bethe_residual(data, spec, p)
        if res:
            worst = max(worst, max(abs(r) for r in res))
    ok = worst < 1e-6
    assert report(f"8.bethe[l={l},L={L}]", ok, f"worst={worst:.2e}")


def test_criterion8_conjecture_regime_reports_without_failing():
    from sixvertex.cli import RunConfig, run as cli_run
    import tempfile, os

    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "r.txt")
        cfg = RunConfig(L=3, gamma=RootOfUnitySpec(l=5), seed=4,
                        suites=("rou",), output_path=out)
        code, reports = cli_run(cfg)
    bethe = [r for r in reports if r.name.startswith("rou.bethe")]
    ok = (code == 0 and bethe
          and all(r.verdict == "conjecture_evidence" for r in bethe))
    assert report("8.conjecture_regime", ok,
                  f"{len(bethe)} evidence records, exit={code}, worst "
                  f"residual {max(r.residual for r in bethe):.2e}")


# ---------------------------------------------------------------- criterion 9
def test_criterion9_duplicate_implementation_gate():
    rng = np.random.default_rng(11000)
    worst = {"gamma": 0.0, "omega": 0.0, "m": 0.0, "n": 0.0, "v": 0.0}
    for _ in range(100):
        L = int(rng.integers(1, 5))
        g = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        p = ModelParams(L, g, sample_mu(L, g, rng))
        n = int(rng.integers(2, 5))
        v = generic_points(n + 1, rng)
        i = int(rng.integers(1, n + 1))
        jk = ((0, i), (i, 0))[int(rng.integers(0, 2))]
        i2 = int(rng.integers(1, n))
        j2 = int(rng.integers(i2 + 1, n + 1))
        nv = int(rng.integers(2, 6))
        vv = generic_points(nv, rng)
        mm = int(rng.integers(1, even_floor(nv) // 2 + 1))
        idx = tuple(sorted(rng.choice(nv, size=2 * mm, replace=False).tolist()))
        res = oracle_residuals(p, v, i=i, pair=jk, i2=i2, j2=j2,
                               vv=vv, mm=mm, idx=idx)
        for key, val in res.items():
            worst[key] = max(worst[key], val)
    ok = max(worst.values()) < 1e-12
    assert report("9.duplicate_implementation", ok,
                  ", ".join(f"{k}={x:.2e}" for k, x in worst.items()))
