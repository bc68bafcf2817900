"""Zeroes of the transfer-matrix eigenvalues and their relation to the
zeroes of the domain-wall partition function: ratio constancy, zero
coincidence, and the Wronskian conditions."""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polyval

from .dwbc import b_product_state
from .errors import PoleEncountered, ReconstructionFailure
from .functional_system import EigenState, TopCoefficient, even_floor
from .numkit import fit_poly, poly_roots
from .vertex_core import EPS_GENERIC, ModelParams, b_operator, reference_states

# shift of one zero that the Wronskian conditions must detect
ZERO_KICK = 1e-2


@dataclass(frozen=True)
class SpectralData:
    """Eigenvalue function data: value at the origin, its zeroes, and the
    reference-state overlap ratio.  The zero-set B-string, the maximal
    expansion coefficient at the zeroes and the polynomial fits of Z(., w)
    and F(., w) are kept with it, so every check on the same zero set uses
    one of each."""

    state: EigenState
    lambda0_value: complex
    zeros: tuple
    k0: complex

    def lam_from_zeros(self, x: complex) -> complex:
        """Eigenvalue reconstructed from its zero set."""
        out = self.lambda0_value
        for w in self.zeros:
            out *= np.sinh(w - x) / np.sinh(w)
        return complex(out)

    @functools.cached_property
    def _tail(self) -> np.ndarray:
        """The B-string of every zero but the first on |up>."""
        return b_product_state(self.zeros[1:], self.state.params)

    @functools.cached_property
    def phi(self) -> np.ndarray:
        """The zero-set B-string on |up>: Z(lam0, w) = <down| B(lam0) phi.
        `b_product_state` applies B(zeros[0]) last, so this is its vector
        bit for bit."""
        if not self.zeros:
            return self._tail
        return b_operator(self.zeros[0], self.state.params) @ self._tail

    @functools.cached_property
    def top(self) -> TopCoefficient:
        """The maximal expansion coefficient at (lam0, w_1, ..., w_{L-1}),
        as a function of lam0."""
        return TopCoefficient(self.zeros, self.state.params)

    @functools.cached_property
    def fit(self) -> tuple[np.ndarray, np.ndarray]:
        """Coefficients of Z(., w) and F(., w) fitted as degree L-1
        polynomials in x, the fit validated to 1e-8 at held-out abscissae."""
        params = self.state.params
        _, down = reference_states(params.L)
        # the sample abscissae are the same for every state of the draw, so
        # the B operators there are built once per draw
        b_at = self.state._spectrum.b_op

        def z_of(lam0):
            return complex(down @ (b_at(lam0) @ self.phi))

        def f_of(lam0):
            return build_F(lam0, self, params)

        zpol = poly_in_x(z_of, params.L)
        fpol = poly_in_x(f_of, params.L)
        degree = params.L - 1
        xs, lams = _circle_samples(degree, 1.37, phase=0.11)
        for x, lam in zip(xs, lams):
            for pol, fn in ((zpol, z_of), (fpol, f_of)):
                ref = np.exp(degree * lam) * fn(lam)
                got = polyval(x, pol)
                if abs(ref - got) > 1e-8 * max(abs(ref), 1.0):
                    raise ReconstructionFailure(
                        "sampled function is not a degree L-1 polynomial in x"
                    )
        return zpol, fpol


def _circle_samples(degree: int, radius: float = 1.0, phase: float = 0.35):
    """degree+1 abscissae spread on a circle in the x = e^(2 lam) plane."""
    ks = np.arange(degree + 1)
    xs = radius * np.exp(2j * np.pi * (ks + phase) / (degree + 1))
    lams = 0.5 * np.log(xs)
    return xs, lams


def poly_in_x(func, L: int) -> np.ndarray:
    """Coefficients of e^((L-1) lam) * func(lam) fitted as a degree L-1
    polynomial in e^(2 lam), sampled on the unit circle."""
    degree = L - 1
    xs, lams = _circle_samples(degree)
    samples = [
        (x, np.exp(degree * lam) * func(lam)) for x, lam in zip(xs, lams)
    ]
    return fit_poly(samples, degree)


def extract_zeros(state: EigenState, params: ModelParams) -> SpectralData:
    """Recover the L-1 zeroes of an eigenvalue function.

    Samples the eigenvalue on a circle in the x = e^(2 lam) plane, strips
    the exponential prefactor, fits the degree-(L-1) polynomial, and maps
    its roots back with the principal branch.  The multiplicative
    reconstruction from the zero set is validated to 1e-7 at held-out
    points.
    """
    L = params.L
    lam0 = state.lam(0.0)
    if L == 1:
        return SpectralData(state, lam0, (), state.k0)
    rng = np.random.default_rng(2357)
    probes = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(10)]
    # every state samples at these points
    state.share([0.0, *_circle_samples(L - 1)[1], *probes])
    poly = poly_in_x(state.lam, L)
    xroots = poly_roots(poly)
    if len(xroots) != L - 1:
        raise ReconstructionFailure(
            f"expected {L - 1} zeroes, polynomial gave {len(xroots)}"
        )
    ws = tuple(0.5 * np.log(x) for x in xroots)
    data = SpectralData(state, lam0, ws, state.k0)
    for probe in probes:
        ref = state.lam(probe)
        rec = data.lam_from_zeros(probe)
        if abs(ref - rec) > 1e-7 * max(abs(ref), 1e-300):
            raise ReconstructionFailure(
                f"zero-set reconstruction off by {abs(ref - rec) / abs(ref):.3e}"
            )
    return data


def kick_zero(data: SpectralData, j: int) -> SpectralData:
    """The same data with zero j moved by ZERO_KICK."""
    zeros = list(data.zeros)
    zeros[j] += ZERO_KICK
    kicked = SpectralData(data.state, data.lambda0_value, tuple(zeros), data.k0)
    if j == 0:
        # the B-string of the other zeros is unchanged; a cached_property
        # reads the instance dict first, so the kicked data reuses it
        kicked.__dict__["_tail"] = data._tail
    return kicked


def reconstruction_residual(data: SpectralData, probe: complex) -> float:
    """The eigenvalue at `probe` against its reconstruction from the zero
    set, relative to the eigenvalue."""
    ref = data.state.lam(probe)
    return abs(ref - data.lam_from_zeros(probe)) / max(abs(ref), 1e-300)


def at_zero_residual(data: SpectralData, scale_points) -> float:
    """Largest |eigenvalue| at the zeros, relative to its largest modulus
    at `scale_points`."""
    lam = data.state.lam
    scale = max(abs(lam(x)) for x in scale_points)
    return (max((abs(lam(w)) for w in data.zeros), default=0.0)
            / max(scale, 1e-300))


def check_lz01(data: SpectralData, lambda0_draws, params: ModelParams) -> dict:
    """Ratio of Z * k0 to the maximal expansion coefficient at the zeroes.

    Even L: the ratio must be a lam0-independent constant, and that
    constant is +1.  The expansion theorem gives
    Z * k0 = sum_idx V_m(idx) prod_{t not in idx} Lambda(v_t); at
    v = (lam0, w_1, ..., w_{L-1}) every term that keeps a zero slot carries
    a factor Lambda(w_j) = 0, and for even L the only even-sized removed
    set containing all L-1 zero slots is the full set, so Z * k0 is its
    coefficient, `SpectralData.top`.
    Odd L: the ratio divided by the eigenvalue must be constant.  Returns
    the measured values, the spread across draws, and (even L) the
    deviation from +1.
    """
    L = params.L
    _, down = reference_states(L)
    ratios = []
    for lam0 in lambda0_draws:
        if any(abs(np.sinh(lam0 - w)) < EPS_GENERIC for w in data.zeros):
            raise PoleEncountered("lambda0 draw collides with a zero")
        z = complex(down @ (b_operator(lam0, params) @ data.phi))
        denom = data.top(lam0)
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
    val = data.top(lambda0)
    if L % 2 == 1:
        for w in data.zeros:
            val *= np.sinh(lambda0 - w)
    return complex(val)


@functools.cache
def _bijections(n: int) -> np.ndarray:
    """Every bijection of range(n), one per row of an (n!, n) array."""
    return np.array(list(itertools.permutations(range(n))), dtype=np.intp)


def _min_cost_bijection(cost: np.ndarray) -> np.ndarray:
    """The column matched to each row under the bijection of least total
    cost, found by trying all n!: at most 7! for L <= 8."""
    perms = _bijections(len(cost))
    return perms[np.argmin(cost[np.arange(len(cost)), perms].sum(axis=1))]


def check_zero_coincidence(data: SpectralData, params: ModelParams) -> dict:
    """Match the zero multisets of Z(., w) and F(., w) in the x plane.

    Returns the matched distances (measured as |log (x_Z / x_F)|) under a
    minimal-cost bijection.
    """
    zpol, fpol = data.fit
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
    cols = _min_cost_bijection(cost)
    dists = cost[np.arange(nz), cols]
    return {
        "z_roots": zroots,
        "f_roots": [froots[c] for c in cols],
        "distances": dists,
        "max_distance": float(np.max(dists)) if nz else 0.0,
    }


def wronskian_coeffs(data: SpectralData,
                     params: ModelParams) -> tuple[list, float]:
    """Coefficients C_0..C_[L] of the Wronskian Z F' - F Z' in x, and their
    magnitude scale for relative vanishing tests.

    Both come from one fit of Z and F.  The Wronskian is bilinear in the two
    fitted polynomials, so the scale is the product of their largest
    coefficient magnitudes.
    """
    zc, fc = data.fit
    mul = np.polynomial.polynomial.polymul
    wron = mul(zc, np.polynomial.polynomial.polyder(fc)) - mul(
        fc, np.polynomial.polynomial.polyder(zc)
    )
    top = even_floor(params.L)
    padded = np.zeros(top + 1, dtype=complex)
    padded[: min(len(wron), top + 1)] = wron[: top + 1]
    scale = float(max(np.abs(zc).max() * np.abs(fc).max(), 1e-300))
    return [complex(c) for c in padded], scale


def wronskian_residual(data: SpectralData, params: ModelParams) -> float:
    """Largest Wronskian coefficient relative to their scale; it vanishes
    on the true zeros."""
    coeffs, scale = wronskian_coeffs(data, params)
    return max(abs(c) for c in coeffs) / scale


def wronskian_sharpness(data: SpectralData, params: ModelParams) -> float:
    """1e-3 over the Wronskian residual once the first zero is kicked, so
    it reads below 1 while the Wronskian detects the kick."""
    coeffs, scale = wronskian_coeffs(kick_zero(data, 0), params)
    return 1e-3 * scale / max(abs(c) for c in coeffs)
