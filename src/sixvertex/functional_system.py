"""Coefficient functions of the Yang-Baxter functional hierarchy, the
scalar-product realization of operator strings, and the identity checks
built from them (operator relation, hierarchy, eigenvalue/partition-function
theorem, cross-check identities)."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .dwbc import b_product_state, z_bproduct
from .errors import DegenerateSpectrum, K0Undefined, PoleEncountered
from .numkit import eig_general
from .vertex_core import (
    EPS_GENERIC,
    ModelParams,
    b_operator,
    generic_points,
    monodromy,
    reference_states,
    transfer,
)


def _a(x, gamma):
    return np.sinh(x + gamma)


def _b(x):
    v = np.sinh(x)
    if abs(v) < EPS_GENERIC:
        raise PoleEncountered(f"sinh({x}) below genericity threshold")
    return v


def _bnum(x):
    return np.sinh(x)


def gamma_coeff(i: int, j: int, k: int, vars_, params: ModelParams) -> complex:
    """Exchange coefficient attached to the A(.)D(.) terms with slot i removed.

    `vars_` is the ordered tuple (v_0, ..., v_n); i, j, k index slots.
    """
    v = vars_
    g = params.gamma
    out = np.sinh(g) / _b(v[k] - v[j])
    for t in range(1, len(v)):
        if t == i:
            continue
        out *= _a(v[k] - v[t], g) / _b(v[k] - v[t])
        out *= _a(v[t] - v[j], g) / _b(v[t] - v[j])
    return complex(out)


def omega_coeff(i: int, j: int, vars_, params: ModelParams) -> complex:
    """Exchange coefficient attached to the two-removal A(.)D(.) terms.

    Evaluated in the pole-cancelled form: the v_0 factor of the product
    cancels the a-function denominators of the prefactor exactly, leaving
    only sinh-difference denominators.
    """
    v = vars_
    g = params.gamma
    c = np.sinh(g)
    out = (c / _b(v[j] - v[0])) * (c / _b(v[0] - v[i]))
    out *= _a(v[j] - v[i], g) / _b(v[j] - v[i])
    for t in range(1, len(v)):
        if t == i or t == j:
            continue
        out *= _a(v[j] - v[t], g) / _b(v[j] - v[t])
        out *= _a(v[t] - v[i], g) / _b(v[t] - v[i])
    return complex(out)


def _site_products(x, params: ModelParams):
    """(prod_k a(x - mu_k), prod_k b(x - mu_k)) over the L sites."""
    g = params.gamma
    ap = complex(np.prod([_a(x - m, g) for m in params.mu]))
    bp = complex(np.prod([_bnum(x - m) for m in params.mu]))
    return ap, bp


def m_coeff(i: int, vars_, params: ModelParams) -> complex:
    """Coefficient of the single-removal term in the functional hierarchy."""
    a0, b0 = _site_products(vars_[0], params)
    ai, bi = _site_products(vars_[i], params)
    return (
        gamma_coeff(i, 0, i, vars_, params) * a0 * bi
        + gamma_coeff(i, i, 0, vars_, params) * ai * b0
    )


def n_coeff(j: int, i: int, vars_, params: ModelParams) -> complex:
    """Coefficient of the double-removal term in the functional hierarchy."""
    ai, bi = _site_products(vars_[i], params)
    aj, bj = _site_products(vars_[j], params)
    return (
        omega_coeff(i, j, vars_, params) * ai * bj
        + omega_coeff(j, i, vars_, params) * aj * bi
    )


class _Spectrum:
    """The eigenvectors of one diagonalization, shared by its states.

    Work that does not depend on the state is done once per spectral point:
    ``values(x)`` builds ``transfer(x)`` once and sandwiches it for every
    state with the single-state arithmetic ``left @ t @ right / norm``,
    kept as one complex128 vector; ``b_op(x)`` keeps ``B(x)`` for
    the fixed abscissae at which every state's fits sample.  Both memos
    live as long as the states that share them, i.e. one run.
    """

    def __init__(self, params: ModelParams, trips, norms):
        self.params = params
        self._pairs = [(tr.left, tr.right, norm) for tr, norm in zip(trips, norms)]
        self._values = {}
        self._b_ops = {}

    def values(self, x: complex) -> np.ndarray:
        vals = self._values.get(x)
        if vals is None:
            t = transfer(x, self.params)
            vals = np.array([left @ t @ right / norm
                             for left, right, norm in self._pairs],
                            dtype=complex)
            self._values[x] = vals
        return vals

    def b_op(self, x: complex) -> np.ndarray:
        bop = self._b_ops.get(x)
        if bop is None:
            bop = self._b_ops[x] = b_operator(x, self.params)
        return bop


@dataclass(frozen=True)
class EigenState:
    """One transfer-matrix eigenstate with its overlap data.

    The left vector is transpose-sense; `lam` evaluates the eigenvalue
    function at any spectral parameter through the sandwiched transfer
    matrix, valid because the family commutes.  The states of one
    `transfer_eigenstates` call share one `_Spectrum`, so a point costs
    one transfer-matrix build for all of them.
    """

    index: int
    right: np.ndarray
    left: np.ndarray
    norm: complex
    f0: complex
    f0bar: complex
    params: ModelParams
    _spectrum: _Spectrum = field(repr=False, compare=False)

    @property
    def k0(self) -> complex:
        if abs(self.f0) < EPS_GENERIC * np.linalg.norm(self.left):
            raise K0Undefined(f"state {self.index} has no overlap with |up>")
        return self.f0bar / self.f0

    @property
    def k0_defined(self) -> bool:
        return abs(self.f0) >= EPS_GENERIC * np.linalg.norm(self.left)

    def lam(self, x: complex) -> complex:
        return complex(self._spectrum.values(x)[self.index])


def transfer_eigenstates(params: ModelParams, rng) -> list[EigenState]:
    """Diagonalize the transfer matrix at a generic sample point.

    The sample point is re-drawn, up to 12 times, when two eigenvalues
    there are closer than 1e-6 of the spectral scale; a surviving
    near-degeneracy is accepted only if each paired eigenvector still
    behaves as a common eigenvector of the family, which is validated at
    an independent probe point.
    """
    up, down = reference_states(params.L)
    last_exc = None
    for _ in range(12):
        pts = generic_points(2, rng, avoid=params.mu)
        sample, probe = pts
        t = transfer(sample, params)
        trips = eig_general(t)
        vals = np.array([tr.value for tr in trips])
        scale = max(np.max(np.abs(vals)), 1.0)
        spacing_ok = all(
            abs(vals[i] - vals[j]) > 1e-6 * scale
            for i in range(len(vals))
            for j in range(i + 1, len(vals))
        )
        norms = [complex(tr.left @ tr.right) for tr in trips]
        if any(abs(norm) < 1e-10 for norm in norms):
            last_exc = DegenerateSpectrum("vanishing left/right overlap")
            continue
        spectrum = _Spectrum(params, trips, norms)
        states = [
            EigenState(
                index=idx,
                right=tr.right,
                left=tr.left,
                norm=norm,
                f0=complex(tr.left @ up),
                f0bar=complex(tr.left @ down),
                params=params,
                _spectrum=spectrum,
            )
            for idx, (tr, norm) in enumerate(zip(trips, norms))
        ]
        if spacing_ok:
            return states
        # near-degenerate at the sample point: keep only if the family is
        # simultaneously diagonalized by the paired vectors
        tp = transfer(probe, params)
        tscale = np.linalg.norm(tp, 2)
        ok = True
        for st in states:
            lam_p = complex(st.left @ tp @ st.right / st.norm)
            res = np.linalg.norm(tp @ st.right - lam_p * st.right)
            if res > 1e-8 * tscale * np.linalg.norm(st.right):
                ok = False
                break
        if ok:
            return states
        last_exc = DegenerateSpectrum("eigenvalue functions cross at sample point")
    raise last_exc or DegenerateSpectrum("no usable sample point found")


def f_n(lams, state: EigenState, params: ModelParams) -> complex:
    """Scalar realization of an n-fold creation-operator string."""
    lams = list(lams)
    if len(lams) > params.L:
        return 0j
    return complex(state.left @ b_product_state(lams, params))


def b_string(lams, params: ModelParams) -> np.ndarray:
    """Matrix of the ordered product of B operators."""
    dim = params.dim
    out = np.eye(dim, dtype=complex)
    for lam in lams:
        out = out @ b_operator(lam, params)
    return out


def check_tphi(n: int, vars_, params: ModelParams) -> float:
    """Operator-identity residual of the order-(n+1) exchange relation.

    `vars_` must hold n+1 spectral parameters (v_0, ..., v_n).
    """
    v = tuple(vars_)
    if len(v) != n + 1:
        raise ValueError("need n+1 spectral parameters")
    lhs = transfer(v[0], params) @ b_string(v[1:], params)
    # the pass-through annihilator term [X^{1,n}] C(v_0) is required for the
    # identity to close on the full space; it dies on |up> in the scalar
    # realization
    rhs = b_string(v, params) + b_string(v[1:], params) @ monodromy(v[0], params)[1, 0]
    for i in range(1, n + 1):
        rest = [v[t] for t in range(1, n + 1) if t != i]
        (a_0, _), (_, d_0) = monodromy(v[0], params)
        (a_i, _), (_, d_i) = monodromy(v[i], params)
        coeff_0i = gamma_coeff(i, 0, i, v, params)
        coeff_i0 = gamma_coeff(i, i, 0, v, params)
        rhs = rhs + b_string(rest, params) @ (
            coeff_0i * a_0 @ d_i + coeff_i0 * a_i @ d_0
        )
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            rest = [v[t] for t in range(0, n + 1) if t not in (i, j)]
            (a_i, _), (_, d_i) = monodromy(v[i], params)
            (a_j, _), (_, d_j) = monodromy(v[j], params)
            rhs = rhs + b_string(rest, params) @ (
                omega_coeff(i, j, v, params) * a_i @ d_j
                + omega_coeff(j, i, v, params) * a_j @ d_i
            )
    return float(np.linalg.norm(lhs - rhs, 2) / np.linalg.norm(lhs, 2))


def check_fl(n: int, state: EigenState, vars_, params: ModelParams) -> float:
    """Residual of the functional hierarchy at order n, relative to the
    largest participating term."""
    v = tuple(vars_)
    if len(v) != n + 1:
        raise ValueError("need n+1 spectral parameters")
    up, _ = reference_states(params.L)
    bops = {}

    def f_slots(slots):
        # f_n over the given slots of v, applied in b_product_state's order,
        # with each B(v_t) built once per call
        if len(slots) > params.L:
            return 0j
        vec = up
        for t in reversed(slots):
            if t not in bops:
                bops[t] = b_operator(v[t], params)
            vec = bops[t] @ vec
        return complex(state.left @ vec)

    terms = []
    lhs = state.lam(v[0]) * f_slots(range(1, n + 1))
    terms.append(lhs)
    t_next = f_slots(range(n + 1)) if n + 1 <= params.L else 0j
    terms.append(t_next)
    acc = t_next
    for i in range(1, n + 1):
        rest = [t for t in range(1, n + 1) if t != i]
        term = m_coeff(i, v, params) * f_slots(rest)
        terms.append(term)
        acc += term
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            rest = [t for t in range(0, n + 1) if t not in (i, j)]
            term = n_coeff(j, i, v, params) * f_slots(rest)
            terms.append(term)
            acc += term
    scale = max(abs(t) for t in terms)
    if scale == 0.0:
        return 0.0
    return abs(lhs - acc) / scale


def v_coeff(m: int, indices, vars_, params: ModelParams) -> complex:
    """Summed coefficient attached to 2m removed slots in the eigenvalue
    expansion of the partition function.

    `indices` lists the removed slots i_1 < ... < i_2m within `vars_`
    (the full ordered variable vector); m = 0 returns 1.
    """
    if m == 0:
        if indices:
            raise ValueError("m = 0 takes no indices")
        return 1.0 + 0j
    idx = tuple(indices)
    if len(idx) != 2 * m or list(idx) != sorted(set(idx)):
        raise ValueError("indices must be 2m strictly increasing slots")
    v = tuple(vars_)
    g = params.gamma
    comp = [v[t] for t in range(len(v)) if t not in idx]
    c = np.sinh(g)
    # each removed slot enters many (j, k) assignments; its site products once
    sites = {t: _site_products(v[t], params) for t in idx}
    total = 0j
    for jset in itertools.combinations(idx, m):
        kpool = [t for t in idx if t not in jset]
        jfac = 1.0 + 0j
        for jl in jset:
            ap, _ = sites[jl]
            jfac *= ap
            for lam in comp:
                jfac *= _a(lam - v[jl], g) / _b(lam - v[jl])
        ksum = 0j
        for kperm in itertools.permutations(kpool, m):
            kfac = 1.0 + 0j
            for jl, kl in zip(jset, kperm):
                _, bp = sites[kl]
                kfac *= bp * c / _b(v[jl] - v[kl])
                for lam in comp:
                    kfac *= _a(v[kl] - lam, g) / _b(v[kl] - lam)
            for r in range(m):
                for s in range(r + 1, m):
                    kr, ks = kperm[r], kperm[s]
                    jr, js = jset[r], jset[s]
                    kfac *= _a(v[kr] - v[ks], g) / _b(v[kr] - v[ks])
                    kfac *= _a(v[kr] - v[js], g) / _b(v[kr] - v[js])
                    kfac *= _a(v[ks] - v[jr] + g, g) / _b(v[ks] - v[jr])
            ksum += kfac
        total += jfac * ksum
    return complex(total)


def even_floor(x: int) -> int:
    """x for even x, x - 1 for odd x."""
    return x if x % 2 == 0 else x - 1


def expansion_coeffs(vars_, params: ModelParams) -> list:
    """(removed slots, V coefficient) for every summand of the eigenvalue
    expansion over `vars_`, in summation order.  They do not depend on the
    eigenstate, so one list serves every state at the same variables."""
    v = tuple(vars_)
    nvar = len(v)
    return [
        (idx, v_coeff(m, idx, v, params))
        for m in range(even_floor(nvar) // 2 + 1)
        for idx in itertools.combinations(range(nvar), 2 * m)
    ]


def theorem_terms(vars_, lam_of, params: ModelParams, coeffs=None):
    """Individual summands of the eigenvalue expansion over `vars_`.

    `coeffs` is ``expansion_coeffs(vars_, params)``, computed here when
    not given.
    """
    v = tuple(vars_)
    if coeffs is None:
        coeffs = expansion_coeffs(v, params)
    out = []
    for idx, coeff in coeffs:
        prod = 1.0 + 0j
        for t in range(len(v)):
            if t not in idx:
                prod *= lam_of(v[t])
        out.append(coeff * prod)
    return out


def theorem_rhs(vars_, lam_of, params: ModelParams, coeffs=None) -> complex:
    """Eigenvalue-side of the partition-function expansion over `vars_`."""
    return sum(theorem_terms(vars_, lam_of, params, coeffs))


def check_theorem(state: EigenState, vars_, params: ModelParams,
                  z_of=None, coeffs=None) -> float:
    """Residual of Z * k0 against the eigenvalue expansion, relative to |Z k0|.

    `z_of` and `coeffs` (see `theorem_terms`) let callers reuse the
    partition function and the expansion coefficients, which eigenstates
    of the same draw share.
    """
    v = tuple(vars_)
    if len(v) != params.L:
        raise ValueError("need exactly L spectral parameters")
    z = z_bproduct(v, params) if z_of is None else z_of(v)
    lhs = z * state.k0
    rhs = theorem_rhs(v, state.lam, params, coeffs)
    return abs(lhs - rhs) / max(abs(lhs), 1e-300)


def k0_closed_form_residual(state: EigenState, params: ModelParams) -> float:
    """Residual of the L = 2 closed form
    k0 = Lambda(mu_1) Lambda(mu_2) / (c^2 sinh(mu_1 - mu_2 + g) sinh(mu_2 - mu_1 + g)),
    relative to the closed-form value."""
    if params.L != 2:
        raise ValueError("the k0 closed form is stated for L = 2")
    mu, g = params.mu, params.gamma
    denom = (np.sinh(g) ** 2 * np.sinh(mu[0] - mu[1] + g)
             * np.sinh(mu[1] - mu[0] + g))
    ref = state.lam(mu[0]) * state.lam(mu[1]) / denom
    return abs(state.k0 - ref) / max(abs(ref), 1e-300)


def check_appendix(L: int, vars_, params: ModelParams) -> dict:
    """Cross-check identities tying the expansion coefficients to the
    hierarchy coefficients, for L = 3 and L = 4.

    Returns a map name -> relative residual.
    """
    v = tuple(vars_)
    out = {}

    def rel(lhs, rhs):
        return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)

    if L == 3:
        if len(v) != 3:
            raise ValueError("need 3 variables for L = 3")
        out["V2_10"] = rel(v_coeff(1, (0, 1), v, params), -m_coeff(1, v, params))
        out["V2_20"] = rel(v_coeff(1, (0, 2), v, params), -m_coeff(2, v, params))
        out["V2_21"] = rel(
            v_coeff(1, (1, 2), v, params),
            -m_coeff(1, v[1:], params) - n_coeff(2, 1, v, params),
        )
    elif L == 4:
        if len(v) != 4:
            raise ValueError("need 4 variables for L = 4")
        out["V2_30"] = rel(v_coeff(1, (0, 3), v, params), -m_coeff(3, v, params))
        out["V2_20"] = rel(v_coeff(1, (0, 2), v, params), -m_coeff(2, v, params))
        out["V2_10"] = rel(v_coeff(1, (0, 1), v, params), -m_coeff(1, v, params))
        out["V2_32"] = rel(
            v_coeff(1, (2, 3), v, params),
            -m_coeff(1, v[2:], params)
            - n_coeff(2, 1, v[1:], params)
            - n_coeff(3, 2, v, params),
        )
        out["V2_31"] = rel(
            v_coeff(1, (1, 3), v, params),
            -m_coeff(2, v[1:], params) - n_coeff(3, 1, v, params),
        )
        out["V2_21"] = rel(
            v_coeff(1, (1, 2), v, params),
            -m_coeff(1, v[1:], params) - n_coeff(2, 1, v, params),
        )
        rhs4 = 0j
        for i in (1, 2, 3):
            sub = tuple(v[t] for t in (1, 2, 3) if t != i)
            rhs4 += m_coeff(i, v, params) * m_coeff(1, sub, params)
        for (i, j) in ((1, 2), (1, 3), (2, 3)):
            sub = tuple(v[t] for t in range(4) if t not in (i, j))
            rhs4 += n_coeff(j, i, v, params) * m_coeff(1, sub, params)
        out["V4_3210"] = rel(v_coeff(2, (0, 1, 2, 3), v, params), rhs4)
    else:
        raise ValueError("appendix identities are stated for L in {3, 4}")
    return out
