"""Checks special to anisotropies on the unit-circle lattice e^(2 l gamma) = 1:
operator truncation, inversion-type relations, and the Bethe-type equations
satisfied by the eigenvalue zeroes."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PoleEncountered
from .functional_system import (
    expansion_coeffs,
    m_coeff,
    n_coeff,
    theorem_terms,
    values,
)
from .vertex_core import EPS_GENERIC, ModelParams, b_operator
from .zeros import SpectralData


@dataclass(frozen=True)
class RootOfUnitySpec:
    """Anisotropy gamma = i pi k / l with gcd(k, l) = 1 and l >= 2."""

    l: int
    k: int = 1

    def __post_init__(self):
        if self.l < 2:
            raise ValueError("l = 1 is trivial (all creation operators vanish)")
        if math.gcd(self.k, self.l) != 1:
            raise ValueError("k and l must be coprime")

    @property
    def gamma(self) -> complex:
        return 1j * math.pi * self.k / self.l

    @property
    def unit_residual(self) -> float:
        return abs(np.exp(2 * self.l * self.gamma) - 1.0)


def check_truncation(spec: RootOfUnitySpec, lam: complex,
                     params: ModelParams) -> float:
    """Relative operator norm of the l-fold string of shifted B operators."""
    g = spec.gamma
    prod = np.eye(params.dim, dtype=complex)
    scale = 1.0
    for k in range(spec.l):
        bmat = b_operator(lam - k * g, params)
        prod = prod @ bmat
        scale *= np.linalg.norm(bmat, 2)
    return float(np.linalg.norm(prod, 2) / max(scale, 1e-300))


def _mu_product(lam, shifts, params: ModelParams) -> complex:
    """prod_k prod_s sinh(lam - mu_k + shift_s)."""
    out = 1.0 + 0j
    for m in params.mu:
        for s in shifts:
            out *= np.sinh(lam - m + s)
    return complex(out)


def _shifted_values(states, lam_draws, shifts, g) -> list:
    """Per state of `states`, per draw lam, its eigenvalues at lam - j g
    for j < `shifts`, as nested lists of complex numbers."""
    points = [lam - j * g for lam in lam_draws for j in range(shifts)]
    return values(states, points).reshape(len(states), -1, shifts).tolist()


def check_inversion_l2(states, params: ModelParams, lam_draws) -> list:
    """Residual of the two-fold inversion relation at l = 2, one per state
    of `states` (eigenstates of one diagonalization)."""
    g = params.gamma
    rhs = [_mu_product(lam, (0, 0), params) - _mu_product(lam, (g, -g), params)
           for lam in lam_draws]
    out = []
    for lams_at in _shifted_values(states, lam_draws, 2, g):
        worst = 0.0
        for (lam0, lam1), r in zip(lams_at, rhs):
            lhs = lam0 * lam1
            scale = max(abs(lhs), abs(r), 1e-300)
            worst = max(worst, abs(lhs - r) / scale)
        out.append(worst)
    return out


def bethe_lhs(w: complex, params: ModelParams) -> complex:
    """Site product of the Bethe-type equation at one zero."""
    g = params.gamma
    out = 1.0 + 0j
    for m in params.mu:
        den1 = np.sinh(w - m + 2 * g)
        den2 = np.sinh(w - m)
        if abs(den1) < EPS_GENERIC or abs(den2) < EPS_GENERIC:
            raise PoleEncountered("zero collides with an inhomogeneity shift")
        out *= np.sinh(w - m + g) * np.sinh(w - m - g) / (den1 * den2)
    return complex(out)


def bethe_residual(data: SpectralData, spec: RootOfUnitySpec,
                   params: ModelParams) -> list:
    """Per-zero residuals of the Bethe-type equation.

    The interaction product runs over every zero, including the self
    term (which contributes sinh(g)/sinh(-g) = -1), matching the closure
    of the equation against the eigenvalue-ratio form.

    At l = 4 this evaluates the ratio form, which does not follow from the
    four-fold relation for L >= 3 (the driving term survives at the
    zeroes); the l = 4 zero equation that does follow is
    ``bethe_residual_l4``.
    """
    out = []
    g = params.gamma
    for i, wi in enumerate(data.zeros):
        lhs = bethe_lhs(wi, params)
        prod = 1.0 + 0j
        for wj in data.zeros:
            den = np.sinh(wj - wi - g)
            if abs(den) < EPS_GENERIC:
                raise PoleEncountered("colliding zeroes in interaction product")
            prod *= np.sinh(wj - wi + g) / den
        out.append(complex(lhs + prod))
    return out


def bethe_residual_l2(data: SpectralData, params: ModelParams) -> list:
    """Per-zero residuals of the l = 2 site-product equation (no
    interaction term); reported alongside the general form."""
    g = params.gamma
    out = []
    for wi in data.zeros:
        prod = 1.0 + 0j
        for m in params.mu:
            den = np.sinh(wi - m) ** 2
            if abs(den) < EPS_GENERIC**2:
                raise PoleEncountered("zero collides with an inhomogeneity")
            prod *= np.sinh(wi - m + g) * np.sinh(wi - m - g) / den
        out.append(complex(prod - 1.0))
    return out


def q_function(lam: complex, params: ModelParams) -> complex:
    """Inhomogeneous driving term of the four-fold relation at l = 4.

    At gamma = i pi k / 4 (k odd), cosh 2g = 0 removes the third term and
    sinh 3g / sinh g = 1, leaving
    Q(lam) = (-1/4)^L [prod_k sinh^2 2x_k - prod_k cosh^2 2x_k] with
    x_k = lam - mu_k.  The shift lam -> lam + g maps sinh^2 2x to
    -cosh^2 2x and back, so Q(lam + g) = (-1)^(L+1) Q(lam): periodic at
    odd L, antiperiodic at even L.
    """
    g = params.gamma
    t1 = (np.sinh(3 * g) / np.sinh(g)) * _mu_product(lam, (0, 0, -2 * g, -2 * g), params)
    t2 = _mu_product(lam, (g, -3 * g, -g, -g), params)
    t3 = 2 * np.cosh(2 * g) * _mu_product(lam, (0, -2 * g, -g, -g), params)
    return complex(t1 - t2 - t3)


def check_l4_relation(states, params: ModelParams, lam_draws) -> dict:
    """The four-fold functional relation at l = 4, one residual per state
    of `states` (eigenstates of one diagonalization), and the shift
    behaviour of its driving term, at `lam_draws`.

    ``q_periodicity`` measures the source's claim Q(lam + g) = Q(lam), which
    holds only at odd L; ``q_shift_law`` measures the law that holds at
    every L, Q(lam + g) = (-1)^(L+1) Q(lam) (see ``q_function``).
    """
    g = params.gamma
    shift_sign = (-1.0) ** (params.L + 1)
    worst_q = 0.0
    worst_shift = 0.0
    # the site products and Q at each draw, shared by every state
    drives = []
    for lam in lam_draws:
        q0, q1 = q_function(lam, params), q_function(lam + g, params)
        worst_q = max(worst_q, abs(q1 - q0) / max(abs(q0), 1e-300))
        worst_shift = max(worst_shift,
                          abs(q1 - shift_sign * q0) / max(abs(q0), 1e-300))
        drives.append((_mu_product(lam, (0, -2 * g), params),
                       _mu_product(lam, (g, -g), params),
                       _mu_product(lam, (-g, -3 * g), params), q0))
    relation = []
    for lams_at in _shifted_values(states, lam_draws, 4, g):
        worst = 0.0
        for (p_0_m2g, p_g_mg, p_mg_m3g, q), lams in zip(drives, lams_at):
            lhs = lams[0] * lams[1] * lams[2] * lams[3]
            rhs = (
                lams[1] * lams[2] * (np.sinh(3 * g) / np.sinh(g)) * p_0_m2g
                - lams[2] * lams[3] * p_g_mg
                - lams[0] * lams[1] * p_mg_m3g
                - lams[0] * lams[3] * p_0_m2g
                + q
            )
            scale = max(abs(lhs), abs(rhs), 1e-300)
            worst = max(worst, abs(lhs - rhs) / scale)
        relation.append(worst)
    return {
        "relation_residual": relation,
        "q_periodicity": worst_q,
        "q_shift_law": worst_shift,
    }


def l4_shifted_values(data: SpectralData, params: ModelParams) -> list:
    """Per zero w of `data`, the state's eigenvalues at w - 2g, w - g and
    w + g: what `l4_ratio_residuals` and `l4_specialized_residuals` read."""
    g = params.gamma
    lam = data.state.lam
    return [[lam(w - 2 * g), lam(w - g), lam(w + g)] for w in data.zeros]


def l4_ratio_residuals(data: SpectralData, shifted, params: ModelParams) -> list:
    """Per-zero residuals of the eigenvalue-ratio equation at l = 4: the
    site product at each zero w against -Lambda(w - g) / Lambda(w + g),
    with `shifted` = ``l4_shifted_values(data, params)``."""
    out = []
    for wi, (_, lam_minus, lam_plus) in zip(data.zeros, shifted):
        lhs = bethe_lhs(wi, params)
        if abs(lam_plus) < 1e-300:
            raise PoleEncountered("eigenvalue vanishes at shifted zero")
        out.append(complex(lhs + lam_minus / lam_plus))
    return out


def bethe_residual_l4(data: SpectralData, params: ModelParams) -> list:
    """Per-zero residuals of the l = 4 zero equation with its driving term.

    The four-fold relation at lam = w + g, where Lambda(w) = 0, leaves
    Lambda(w - 2g) [P(w; 2g, 0) Lambda(w - g) + P(w; g, -g) Lambda(w + g)]
    = Q(w + g), with P(w; s, t) = prod_k sinh(w - mu_k + s) sinh(w - mu_k + t).
    The specialization at lam = w + 2g gives the same bracket, so Q cannot
    be eliminated.  Lambda is rebuilt from the zero set, making this a
    statement about the zeroes; each residual is relative to the largest
    of the three terms.
    """
    g = params.gamma
    lam = data.lam_from_zeros
    out = []
    for wi in data.zeros:
        outer = lam(wi - 2 * g)
        t1 = outer * _mu_product(wi, (2 * g, 0), params) * lam(wi - g)
        t2 = outer * _mu_product(wi, (g, -g), params) * lam(wi + g)
        q = q_function(wi + g, params)
        scale = max(abs(t1), abs(t2), abs(q), 1e-300)
        out.append(abs(t1 + t2 - q) / scale)
    return out


def l4_specialized_residuals(data: SpectralData, shifted,
                             params: ModelParams) -> list:
    """Residuals of the four-fold relation specialized at each shifted zero,
    without the ratio reduction: the product-weighted combination of
    eigenvalues at w +- gamma must reproduce the driving term.  `shifted`
    is ``l4_shifted_values(data, params)``."""
    g = params.gamma
    out = []
    for wi, (lam_m2g, lam_mg, lam_g) in zip(data.zeros, shifted):
        s02 = _mu_product(wi, (2 * g, 0), params)
        spm = _mu_product(wi, (g, -g), params)
        lhs = lam_m2g * (s02 * lam_mg + spm * lam_g)
        q = q_function(wi + g, params)
        out.append(abs(lhs - q) / max(abs(q), abs(lhs), 1e-300))
    return out


def check_l3_relation(states, params: ModelParams, lam_draws) -> dict:
    """The three-fold functional relation at l = 3, in both its explicit
    form and its hierarchy-coefficient form: per form, one residual per
    state of `states` (eigenstates of one diagonalization)."""
    g = params.gamma
    # the site products and hierarchy coefficients at each draw, shared by
    # every state
    drives = []
    for lam in lam_draws:
        v3 = (lam, lam - g, lam - 2 * g)
        drives.append((_mu_product(lam, (0, -2 * g), params),
                       _mu_product(lam, (0, -g), params),
                       _mu_product(lam, (g, -g), params),
                       m_coeff(1, v3[1:], params) + n_coeff(2, 1, v3, params),
                       m_coeff(2, v3, params), m_coeff(1, v3, params)))
    explicit, agreement = [], []
    for lams_at in _shifted_values(states, lam_draws, 3, g):
        worst_explicit = 0.0
        worst_agree = 0.0
        for (p_0_m2g, p_0_mg, p_g_mg, c0, c1, c2), lams in zip(drives, lams_at):
            lhs = lams[0] * lams[1] * lams[2]
            rhs = (
                -lams[0] * p_0_m2g
                + lams[1] * 2 * np.cosh(g) * p_0_mg
                - lams[2] * p_g_mg
            )
            scale = max(abs(lhs), abs(rhs), 1e-300)
            worst_explicit = max(worst_explicit, abs(lhs - rhs) / scale)
            rhs_coeff = lams[0] * c0 + lams[1] * c1 + lams[2] * c2
            worst_agree = max(
                worst_agree, abs(rhs - rhs_coeff) / max(abs(rhs), 1e-300)
            )
        explicit.append(worst_explicit)
        agreement.append(worst_agree)
    return {"explicit_residual": explicit, "form_agreement": agreement}


def truncated_expansion_residual(states, spec: RootOfUnitySpec,
                                 params: ModelParams, lam: complex) -> list:
    """Residual of the truncated eigenvalue expansion: the full expansion
    sum over the l-fold shifted string must vanish.  One residual per state
    of `states` (eigenstates of one diagonalization), which share the
    expansion coefficients of the string."""
    g = spec.gamma
    vars_ = tuple(lam - j * g for j in range(spec.l))
    terms = theorem_terms(values(states, vars_), expansion_coeffs(vars_, params))
    scale = np.maximum(np.abs(terms).max(axis=0), 1e-300)
    return (np.abs(terms.sum(axis=0)) / scale).tolist()
