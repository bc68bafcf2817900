"""Checks special to anisotropies on the unit-circle lattice e^(2 l gamma) = 1:
operator truncation, inversion-type relations, and the Bethe-type equations
satisfied by the eigenvalue zeroes."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .functional_system import (
    expansion_coeffs,
    m_coeff,
    n_coeff,
    theorem_terms,
    values,
)
from .numkit import worst
from .vertex_core import (
    EPS_GENERIC,
    BOperators,
    ModelParams,
    _bmatmul,
    _bnorm2,
)
from .zeros import lam_from_zeros


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
    """Relative operator norm of the l-fold string of shifted B operators,
    multiplied and normed on their weight-sector blocks.  Each B raises
    the weight by one, so at L < l the string has no block and reads
    exactly 0."""
    g = spec.gamma
    ops = BOperators([lam - k * g for k in range(spec.l)], params)
    prod = ops.blocks(0)
    scale = _bnorm2(prod)
    for k in range(1, spec.l):
        bk = ops.blocks(k)
        prod = _bmatmul(prod, bk)
        scale *= _bnorm2(bk)
    return float(_bnorm2(prod) / max(scale, 1e-300))


def _mu_product(lam, shifts, params: ModelParams) -> np.ndarray:
    """prod_k prod_s sinh(lam - mu_k + shift_s) at each point of an array
    `lam`, from one `np.sinh` call."""
    lam = np.asarray(lam)
    args = (lam[..., None] - np.array(params.mu))[..., None] + np.array(shifts)
    return np.prod(np.sinh(args), axis=(-2, -1))


# The per-draw relations take every state and every draw at once, and
# take the worst over draws by `worst`.


def _shifted_values(states, lam_draws, shifts, g) -> np.ndarray:
    """Per state of `states`, per draw lam, its eigenvalues at lam - j g
    for j < `shifts`, as a (states x draws x shifts) array."""
    points = [lam - j * g for lam in lam_draws for j in range(shifts)]
    return values(states, points).reshape(len(states), len(lam_draws), shifts)


def _relative(lhs, rhs) -> np.ndarray:
    """|lhs - rhs| relative to the larger of |lhs| and |rhs|."""
    return np.abs(lhs - rhs) / np.maximum(
        np.maximum(np.abs(lhs), np.abs(rhs)), 1e-300)


def check_inversion_l2(states, params: ModelParams, lam_draws) -> np.ndarray:
    """Residual of the two-fold inversion relation at l = 2, one per state
    of `states` (eigenstates of one diagonalization)."""
    g = params.gamma
    draws = np.asarray(lam_draws, dtype=complex)
    rhs = _mu_product(draws, (0, 0), params) - _mu_product(draws, (g, -g),
                                                           params)
    lam0, lam1 = np.moveaxis(_shifted_values(states, draws, 2, g), -1, 0)
    return worst(_relative(lam0 * lam1, rhs), axis=1)


# The zero equations take an array `zeros` of zero sets along its last
# axis, such as the (sets x L-1) array of `ZeroSets`, and return their
# per-zero residuals in that shape.  A set whose equation meets a pole is
# flagged in a boolean array of the leading shape; its residuals are
# not to be read.


def bethe_lhs(zeros, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Site product of the Bethe-type equation at each zero of `zeros`,
    from one `np.sinh` call, and per set whether one of its zeros
    collides with an inhomogeneity shift."""
    g = params.gamma
    d = np.asarray(zeros)[..., None] - np.array(params.mu)
    den1, den2, num1, num2 = np.sinh(np.stack((d + 2 * g, d, d + g, d - g)))
    pole = (np.abs(den1) < EPS_GENERIC) | (np.abs(den2) < EPS_GENERIC)
    den = np.where(pole, 1.0, den1 * den2)
    return np.prod(num1 * num2 / den, axis=-1), pole.any(axis=(-2, -1))


def bethe_residual(zeros, lhs, params: ModelParams) -> tuple[np.ndarray,
                                                             np.ndarray]:
    """Per-zero residuals of the Bethe-type equation at each zero set of
    `zeros`, with `lhs` = ``bethe_lhs(zeros, params)``; and per set whether
    it failed: a zero collides with an inhomogeneity shift, or two zeros
    collide in the interaction product.

    The interaction product runs over every zero, including the self
    term (which contributes sinh(g)/sinh(-g) = -1), matching the closure
    of the equation against the eigenvalue-ratio form.

    At l = 4 this evaluates the ratio form, which does not follow from the
    four-fold relation for L >= 3 (the driving term survives at the
    zeroes); the l = 4 zero equation that does follow is
    ``bethe_residual_l4``.
    """
    g = params.gamma
    sites, failed = lhs
    zeros = np.asarray(zeros)
    diff = zeros[..., None, :] - zeros[..., :, None]  # [..., i, j] = w_j - w_i
    num, den = np.sinh(np.stack((diff + g, diff - g)))
    pole = np.abs(den) < EPS_GENERIC
    prod = np.prod(num / np.where(pole, 1.0, den), axis=-1)
    return sites + prod, failed | pole.any(axis=(-2, -1))


def bethe_residual_l2(zeros, params: ModelParams) -> tuple[np.ndarray,
                                                           np.ndarray]:
    """Per-zero residuals of the l = 2 site-product equation (no
    interaction term) at each zero set of `zeros`, reported alongside the
    general form; and per set whether a zero collides with an
    inhomogeneity."""
    g = params.gamma
    d = np.asarray(zeros)[..., None] - np.array(params.mu)
    s, plus, minus = np.sinh(np.stack((d, d + g, d - g)))
    den = s * s
    pole = np.abs(den) < EPS_GENERIC**2
    prod = np.prod(plus * minus / np.where(pole, 1.0, den), axis=-1)
    return prod - 1.0, pole.any(axis=(-2, -1))


def q_function(lam, params: ModelParams) -> np.ndarray:
    """Inhomogeneous driving term of the four-fold relation at l = 4, at
    each point of an array `lam`.

    At gamma = i pi k / 4 (k odd), cosh 2g = 0 removes the third term and
    sinh 3g / sinh g = 1, leaving
    Q(lam) = (-1/4)^L [prod_k sinh^2 2x_k - prod_k cosh^2 2x_k] with
    x_k = lam - mu_k.  The shift lam -> lam + g maps sinh^2 2x to
    -cosh^2 2x and back, so Q(lam + g) = (-1)^(L+1) Q(lam): periodic at
    odd L, antiperiodic at even L.
    """
    g = params.gamma
    c1, c3 = np.sinh(3 * g) / np.sinh(g), 2 * np.cosh(2 * g)
    return (c1 * _mu_product(lam, (0, 0, -2 * g, -2 * g), params)
            - _mu_product(lam, (g, -3 * g, -g, -g), params)
            - c3 * _mu_product(lam, (0, -2 * g, -g, -g), params))


def check_l4_relation(states, params: ModelParams, lam_draws) -> dict:
    """The four-fold functional relation at l = 4, one residual per state
    of `states` (eigenstates of one diagonalization), and the shift
    behaviour of its driving term, at `lam_draws`.

    ``q_periodicity`` measures the source's claim Q(lam + g) = Q(lam), which
    holds only at odd L; ``q_shift_law`` measures the law that holds at
    every L, Q(lam + g) = (-1)^(L+1) Q(lam) (see ``q_function``).
    """
    g = params.gamma
    draws = np.asarray(lam_draws, dtype=complex)
    q0, q1 = q_function(draws, params), q_function(draws + g, params)
    q_scale = np.maximum(np.abs(q0), 1e-300)
    p_0_m2g = _mu_product(draws, (0, -2 * g), params)
    lams = np.moveaxis(_shifted_values(states, draws, 4, g), -1, 0)
    rhs = (lams[1] * lams[2] * (np.sinh(3 * g) / np.sinh(g)) * p_0_m2g
           - lams[2] * lams[3] * _mu_product(draws, (g, -g), params)
           - lams[0] * lams[1] * _mu_product(draws, (-g, -3 * g), params)
           - lams[0] * lams[3] * p_0_m2g
           + q0)
    return {
        "relation_residual": worst(_relative(np.prod(lams, axis=0), rhs),
                                   axis=1),
        "q_periodicity": worst(np.abs(q1 - q0) / q_scale),
        "q_shift_law": worst(
            np.abs(q1 - (-1.0) ** (params.L + 1) * q0) / q_scale),
    }


def l4_shifted_values(sets, params: ModelParams) -> np.ndarray:
    """Per zero w of each zero set of `sets` (a `ZeroSets`), its state's
    eigenvalues at w - 2g, w - g and w + g, of shape sets.zeros.shape +
    (3,), from one `values` call: what `l4_ratio_residuals` and
    `l4_specialized_residuals` read."""
    g = params.gamma
    w = sets.zeros
    points = np.stack((w - 2 * g, w - g, w + g), axis=-1)
    return values(sets.states, points.reshape(len(w), -1)).reshape(points.shape)


def l4_ratio_residuals(lhs, shifted) -> tuple[np.ndarray, np.ndarray]:
    """Per-zero residuals of the eigenvalue-ratio equation at l = 4 at
    each zero set: the site product at each zero w against
    -Lambda(w - g) / Lambda(w + g), with `lhs` = ``bethe_lhs(zeros,
    params)`` and `shifted` the sets' ``l4_shifted_values``, of shape
    zeros.shape + (3,); and per set whether it failed: a zero collides
    with an inhomogeneity shift, or the eigenvalue vanishes at w + g."""
    sites, failed = lhs
    lams = np.asarray(shifted, dtype=complex)
    minus, plus = lams[..., 1], lams[..., 2]
    quot = np.divide(minus, plus, out=np.zeros_like(minus), where=plus != 0)
    return sites + quot, failed | (np.abs(plus) < 1e-300).any(axis=-1)


def bethe_residual_l4(lam0, zeros, params: ModelParams) -> list:
    """Per-zero residuals of the l = 4 zero equation with its driving term.

    The four-fold relation at lam = w + g, where Lambda(w) = 0, leaves
    Lambda(w - 2g) [P(w; 2g, 0) Lambda(w - g) + P(w; g, -g) Lambda(w + g)]
    = Q(w + g), with P(w; s, t) = prod_k sinh(w - mu_k + s) sinh(w - mu_k + t).
    The specialization at lam = w + 2g gives the same bracket, so Q cannot
    be eliminated.  Lambda is rebuilt from its value `lam0` at the origin
    and the zero set `zeros`, making this a statement about the zeroes;
    each residual is relative to the largest of the three terms.
    """
    g = params.gamma
    zeros = np.asarray(zeros)
    outer, minus, plus = lam_from_zeros(lam0, zeros, np.concatenate(
        (zeros - 2 * g, zeros - g, zeros + g))).reshape(3, -1)
    t1 = outer * _mu_product(zeros, (2 * g, 0), params) * minus
    t2 = outer * _mu_product(zeros, (g, -g), params) * plus
    q = q_function(zeros + g, params)
    scale = np.maximum(np.abs([t1, t2, q]).max(axis=0), 1e-300)
    return (np.abs(t1 + t2 - q) / scale).tolist()


def l4_specialized_residuals(zeros, shifted,
                             params: ModelParams) -> np.ndarray:
    """Residuals of the four-fold relation specialized at each shifted zero
    of each zero set, without the ratio reduction: the product-weighted
    combination of eigenvalues at w +- gamma must reproduce the driving
    term.  `shifted` holds the sets' ``l4_shifted_values``, of shape
    zeros.shape + (3,)."""
    g = params.gamma
    zeros = np.asarray(zeros)
    lams = np.asarray(shifted, dtype=complex)
    lhs = lams[..., 0] * (_mu_product(zeros, (2 * g, 0), params) * lams[..., 1]
                          + _mu_product(zeros, (g, -g), params) * lams[..., 2])
    return _relative(lhs, q_function(zeros + g, params))


def check_l3_relation(states, params: ModelParams, lam_draws) -> dict:
    """The three-fold functional relation at l = 3, in both its explicit
    form and its hierarchy-coefficient form: per form, one residual per
    state of `states` (eigenstates of one diagonalization)."""
    g = params.gamma
    draws = np.asarray(lam_draws, dtype=complex)
    # the hierarchy coefficients at each draw, shared by every state
    coeffs = []
    for lam in lam_draws:
        v3 = (lam, lam - g, lam - 2 * g)
        coeffs.append((m_coeff(1, v3[1:], params) + n_coeff(2, 1, v3, params),
                       m_coeff(2, v3, params), m_coeff(1, v3, params)))
    c0, c1, c2 = np.array(coeffs, dtype=complex).reshape(-1, 3).T
    lams = np.moveaxis(_shifted_values(states, draws, 3, g), -1, 0)
    rhs = (-lams[0] * _mu_product(draws, (0, -2 * g), params)
           + lams[1] * 2 * np.cosh(g) * _mu_product(draws, (0, -g), params)
           - lams[2] * _mu_product(draws, (g, -g), params))
    rhs_coeff = lams[0] * c0 + lams[1] * c1 + lams[2] * c2
    return {"explicit_residual": worst(_relative(np.prod(lams, axis=0), rhs),
                                       axis=1),
            "form_agreement": worst(np.abs(rhs - rhs_coeff)
                                    / np.maximum(np.abs(rhs), 1e-300), axis=1)}


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
