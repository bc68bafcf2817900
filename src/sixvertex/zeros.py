"""Zeroes of the transfer-matrix eigenvalues and their relation to the
zeroes of the domain-wall partition function: ratio constancy, zero
coincidence, and the Wronskian conditions."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .dwbc import b_product_state
from .errors import PoleEncountered, ReconstructionFailure
from .functional_system import EigenState, even_floor, v_coeff
from .numkit import CPoly, fit_poly, poly_roots
from .vertex_core import EPS_GENERIC, ModelParams, b_operator, reference_states


@dataclass(frozen=True)
class SpectralData:
    """Eigenvalue function data: value at the origin, its zeroes, and the
    reference-state overlap ratio.  The polynomial fits of Z(., w) and
    F(., w) are kept with it, so every check on the same zero set uses
    one fit."""

    state: EigenState
    lambda0_value: complex
    zeros: tuple
    k0: complex
    _fits: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    @property
    def L(self) -> int:
        return self.state.params.L

    def lam_from_zeros(self, x: complex) -> complex:
        """Eigenvalue reconstructed from its zero set."""
        out = self.lambda0_value
        for w in self.zeros:
            out *= np.sinh(w - x) / np.sinh(w)
        return complex(out)


def _circle_samples(degree: int, radius: float = 1.0, phase: float = 0.35):
    """degree+1 abscissae spread on a circle in the x = e^(2 lam) plane."""
    ks = np.arange(degree + 1)
    xs = radius * np.exp(2j * np.pi * (ks + phase) / (degree + 1))
    lams = 0.5 * np.log(xs)
    return xs, lams


def poly_in_x(func, L: int, radius: float = 1.0) -> CPoly:
    """Fit e^((L-1) lam) * func(lam) as a degree L-1 polynomial in e^(2 lam)."""
    degree = L - 1
    xs, lams = _circle_samples(degree, radius)
    samples = [
        (x, np.exp(degree * lam) * func(lam)) for x, lam in zip(xs, lams)
    ]
    return fit_poly(samples, degree)


def extract_zeros(state: EigenState, params: ModelParams, *,
                  radius: float = 1.0, tol: float = 1e-7) -> SpectralData:
    """Recover the L-1 zeroes of an eigenvalue function.

    Samples the eigenvalue on a circle in the x = e^(2 lam) plane, strips
    the exponential prefactor, fits the degree-(L-1) polynomial, and maps
    its roots back with the principal branch.  The multiplicative
    reconstruction from the zero set is validated at held-out points.
    """
    L = params.L
    lam0 = state.lam(0.0)
    if L == 1:
        return SpectralData(state, lam0, (), state.k0)
    poly = poly_in_x(state.lam, L, radius)
    xroots = poly_roots(poly)
    if len(xroots) != L - 1:
        raise ReconstructionFailure(
            f"expected {L - 1} zeroes, polynomial gave {len(xroots)}"
        )
    ws = tuple(0.5 * np.log(x) for x in xroots)
    data = SpectralData(state, lam0, ws, state.k0)
    rng = np.random.default_rng(2357)
    for _ in range(10):
        probe = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        ref = state.lam(probe)
        rec = data.lam_from_zeros(probe)
        if abs(ref - rec) > tol * max(abs(ref), 1e-300):
            raise ReconstructionFailure(
                f"zero-set reconstruction off by {abs(ref - rec) / abs(ref):.3e}"
            )
    return data


def _top_v_indices(L: int):
    """Removed-slot set of the surviving expansion coefficient once the
    eigenvalue zeroes are substituted: all slots for even L, all but the
    free slot for odd L."""
    if L % 2 == 0:
        return tuple(range(L))
    return tuple(range(1, L))


def top_v(lam0: complex, data: SpectralData, params: ModelParams) -> complex:
    """The maximal expansion coefficient at (lam0, w_1, ..., w_{L-1})."""
    L = params.L
    v = (lam0,) + data.zeros
    idx = _top_v_indices(L)
    return v_coeff(len(idx) // 2, idx, v, params)


def check_lz01(data: SpectralData, lambda0_draws, params: ModelParams) -> dict:
    """Ratio of Z * k0 to the maximal expansion coefficient at the zeroes.

    Even L: the ratio must be a lam0-independent constant, and that
    constant is +1.  The expansion theorem gives
    Z * k0 = sum_idx V_m(idx) prod_{t not in idx} Lambda(v_t); at
    v = (lam0, w_1, ..., w_{L-1}) every term that keeps a zero slot carries
    a factor Lambda(w_j) = 0, and for even L the only even-sized removed
    set containing all L-1 zero slots is the full set, so Z * k0 = top_v.
    Odd L: the ratio divided by the eigenvalue must be constant.  Returns
    the measured values, the spread across draws, and (even L) the
    deviation from +1.
    """
    L = params.L
    # Z(lam0, w) = <down| B(lam0) phi, with phi the zero-set B-string on |up>
    phi = b_product_state(data.zeros, params)
    _, down = reference_states(L)
    ratios = []
    for lam0 in lambda0_draws:
        if any(abs(np.sinh(lam0 - w)) < EPS_GENERIC for w in data.zeros):
            raise PoleEncountered("lambda0 draw collides with a zero")
        z = complex(down @ (b_operator(lam0, params) @ phi))
        denom = top_v(lam0, data, params)
        if abs(denom) < 1e-300:
            raise PoleEncountered("vanishing expansion coefficient")
        r = z * data.k0 / denom
        if L % 2 == 1:
            r = r / data.state.lam(lam0)
        ratios.append(r)
    ratios = np.asarray(ratios)
    mean = np.mean(ratios)
    spread = float(np.max(np.abs(ratios - mean)) / max(abs(mean), 1e-300))
    out = {"values": ratios, "mean": complex(mean), "spread": spread}
    if L % 2 == 0:
        expected = 1.0
        out["expected"] = expected
        out["constant_residual"] = float(np.max(np.abs(ratios - expected)))
    return out


def build_F(lambda0: complex, data: SpectralData, params: ModelParams) -> complex:
    """The polynomial-part companion of Z: the maximal expansion coefficient
    for even L, its pole-stripped variant for odd L."""
    L = params.L
    val = top_v(lambda0, data, params)
    if L % 2 == 1:
        for w in data.zeros:
            val *= np.sinh(lambda0 - w)
    return complex(val)


def _fit_pair(data: SpectralData, params: ModelParams, radius: float = 1.0,
              fit_tol: float = 1e-8):
    """Fit Z(., w) and F(., w) as degree L-1 polynomials in x, validating
    the fit at held-out abscissae.  Fitted once per zero set and
    (radius, tolerance); `params` are those of the eigenstate."""
    key = (radius, fit_tol)
    if key in data._fits:
        return data._fits[key]
    L = params.L
    phi = b_product_state(data.zeros, params)
    _, down = reference_states(L)
    # the sample abscissae are the same for every state of the draw, so the
    # B operators there are built once per draw
    b_at = data.state._spectrum.b_op

    def z_of(lam0):
        return complex(down @ (b_at(lam0) @ phi))

    def f_of(lam0):
        return build_F(lam0, data, params)

    zpol = poly_in_x(z_of, L, radius)
    fpol = poly_in_x(f_of, L, radius)
    degree = L - 1
    xs, lams = _circle_samples(degree, radius * 1.37, phase=0.11)
    for x, lam in zip(xs, lams):
        for pol, fn in ((zpol, z_of), (fpol, f_of)):
            ref = np.exp(degree * lam) * fn(lam)
            got = pol(x)
            if abs(ref - got) > fit_tol * max(abs(ref), 1.0):
                raise ReconstructionFailure(
                    "sampled function is not a degree L-1 polynomial in x"
                )
    data._fits[key] = zpol, fpol
    return zpol, fpol


def check_zero_coincidence(data: SpectralData, params: ModelParams,
                           radius: float = 1.0) -> dict:
    """Match the zero multisets of Z(., w) and F(., w) in the x plane.

    Returns the matched distances (measured as |log (x_Z / x_F)|) under a
    minimal-cost bijection.
    """
    zpol, fpol = _fit_pair(data, params, radius)
    zroots = poly_roots(zpol)
    froots = poly_roots(fpol)
    nz, nf = len(zroots), len(froots)
    if nz != nf:
        raise ReconstructionFailure(
            f"zero counts differ: {nz} (Z) vs {nf} (F)"
        )
    cost = np.zeros((nz, nz))
    for a, xz in enumerate(zroots):
        for b, xf in enumerate(froots):
            cost[a, b] = abs(np.log(xz / xf))
    rows, cols = linear_sum_assignment(cost)
    dists = cost[rows, cols]
    return {
        "z_roots": zroots,
        "f_roots": [froots[c] for c in cols],
        "distances": dists,
        "max_distance": float(np.max(dists)) if nz else 0.0,
    }


def wronskian_coeffs(data: SpectralData, params: ModelParams,
                     radius: float = 1.0) -> tuple[list, float]:
    """Coefficients C_0..C_[L] of the Wronskian Z F' - F Z' in x, and their
    magnitude scale for relative vanishing tests.

    Both come from one fit of Z and F.  The Wronskian is bilinear in the two
    fitted polynomials, so the scale is the product of their largest
    coefficient magnitudes.
    """
    zpol, fpol = _fit_pair(data, params, radius)
    zc = np.asarray(zpol.coeffs)
    fc = np.asarray(fpol.coeffs)
    mul = np.polynomial.polynomial.polymul
    wron = mul(zc, np.polynomial.polynomial.polyder(fc)) - mul(
        fc, np.polynomial.polynomial.polyder(zc)
    )
    top = even_floor(params.L)
    padded = np.zeros(top + 1, dtype=complex)
    padded[: min(len(wron), top + 1)] = wron[: top + 1]
    scale = float(max(np.abs(zc).max() * np.abs(fc).max(), 1e-300))
    return [complex(c) for c in padded], scale
