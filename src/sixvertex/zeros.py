"""Zeroes of the transfer-matrix eigenvalues and their relation to the
zeroes of the domain-wall partition function: the identity Z k0 = F
(ratio constancy and zero coincidence in one), and the Wronskian
conditions.

`extract_zeros` finds the zeros of every eigenvalue of a draw with one
polynomial fit and one batched root solve, and returns them as one
`ZeroSets`, the only holder of a draw's zero data; the checks read it
whole or row by row."""

from __future__ import annotations

import functools

import numpy as np

from .functional_system import TopCoefficient, even_floor, values
from .numkit import fit_poly, poly_roots_rows, worst
from .vertex_core import _GATHER_ENTRIES, BOperators, ModelParams

# shift of one zero that the Wronskian conditions must detect
ZERO_KICK = 1e-2


def lam_from_zeros(lam0, zeros, x) -> np.ndarray:
    """The eigenvalue at each point of `x` reconstructed from its value
    `lam0` at the origin and its zero set: for lam0 of shape S, zero sets
    `zeros` of shape S + (n,) and points `x` of shape S + (P,) (or
    broadcast against it), an array of shape S + (P,): lam0 times the
    product over the zeros w of sinh(w - x) / sinh(w)."""
    zeros = np.asarray(zeros)[..., None, :]
    factors = np.sinh(zeros - np.asarray(x)[..., None]) / np.sinh(zeros)
    return np.asarray(lam0)[..., None] * np.prod(factors, axis=-1)


class ZeroSets:
    """The zero sets of eigenstates of one diagonalization, with
    Z(lam0, w) and F(lam0, w) evaluated for every set at once.

    Row k of the (sets x L-1) array `zeros` is the zero set of
    `states[k]`, whose eigenvalue at the origin is `lam0[k]`; iterating
    yields (state, zero row).  The Z/F parts (`with_kicked`, `top`, `fit`
    and the B-string entries) are built on first use, so holding the sets
    costs nothing beyond the zeros.  One top-coefficient table and one
    polynomial fit serve every row of `with_kicked`.
    """

    def __init__(self, states, lam0, zeros):
        self.states = list(states)
        self.lam0 = list(lam0)
        self.zeros = np.array(zeros, dtype=complex)

    def __len__(self) -> int:
        return len(self.states)

    def __iter__(self):
        return zip(self.states, self.zeros)

    @property
    def params(self) -> ModelParams:
        return self.states[0].params

    @functools.cached_property
    def with_kicked(self) -> np.ndarray:
        """The (2 sets x L-1) rows that Z and F are evaluated on: row k < n
        is `zeros[k]`, row n + k is that set with its first zero moved by
        ZERO_KICK, the probe of `wronskian_sharpness`."""
        kicked = self.zeros.copy()
        kicked[:, 0] += ZERO_KICK
        return np.concatenate((self.zeros, kicked))

    @functools.cached_property
    def _phi_up(self) -> np.ndarray:
        """The entries of each row's B-string at the states with one site
        j up, in the order of `down_b_row`: all that Z reads of it.

        The B-string of every zero but the first is shared by a set and its
        kicked set, and B(zeros[0]) is applied to it last, as in
        `b_product_state`.  The B's of as many sets as fit into
        `_GATHER_ENTRIES` entries are held by one `BOperators`."""
        params = self.params
        L = params.L
        n = len(self.zeros)
        first = self.with_kicked[:, 0]
        one_up = 2**L - 1 - 2 ** np.arange(L - 1, -1, -1)
        out = np.empty((2 * n, L), dtype=complex)
        # per set, its L - 2 tail zeros, its first zero and its kicked one
        per = max(1, _GATHER_ENTRIES // (L * (3**L - 1) // 2))
        for start in range(0, n, per):
            sets = range(start, min(start + per, n))
            ops = BOperators([x for k in sets for x in
                              (*self.zeros[k, 1:], first[k], first[n + k])],
                             params)
            tails = [range(j * L, j * L + L - 2) for j in range(len(sets))]
            vecs = ops.strings([(t.stop + s, *t) for t in tails for s in (0, 1)])
            out[start:sets.stop] = [v[one_up] for v in vecs[::2]]
            out[n + start:n + sets.stop] = [v[one_up] for v in vecs[1::2]]
        return out

    @functools.cached_property
    def top(self) -> TopCoefficient:
        return TopCoefficient(self.with_kicked, self.params)

    def z(self, lams) -> np.ndarray:
        """Z(lam0, w) = <down| B(lam0) phi of every set at the points
        `lams`, shape (P,), from the L nonzero entries of <down| B(lam0):
        a (sets x points) array."""
        return (down_b_row(lams, self.params) @ self._phi_up[:, :, None])[..., 0]

    def f(self, lams) -> tuple[np.ndarray, np.ndarray]:
        """The polynomial-part companion of Z for every set, at the points
        of `z`: the maximal expansion coefficient for even L, its
        pole-stripped variant (times prod_j sinh(lam0 - w_j)) for odd L;
        and per set whether the coefficient met a pole
        (`TopCoefficient.at`)."""
        val, pole = self.top.at(lams)
        if self.params.L % 2 == 1:
            diff = np.asarray(lams)[..., None] - self.with_kicked[:, None, :]
            val = val * np.prod(np.sinh(diff), axis=-1)
        return val, pole

    @functools.cached_property
    def fit(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Coefficients of Z(., w) and F(., w) of every row fitted as
        degree L-1 polynomials in x, (rows x L) each, from one solve; and
        per row whether F met no pole and both fits held to 1e-8 at
        held-out abscissae."""
        degree = self.params.L - 1
        xs, lams = _circle_samples(degree)
        held_xs, held_lams = _circle_samples(degree, 1.37, phase=0.11)
        points = np.concatenate((lams, held_lams))
        f, pole = self.f(points)
        vals = np.exp(degree * points) * np.concatenate((self.z(points), f))
        coeffs = fit_poly(zip(xs, vals[:, :degree + 1].T), degree)
        ref = vals[:, degree + 1:].T
        got = np.vander(held_xs, degree + 1, increasing=True) @ coeffs
        bad = np.any(np.abs(ref - got) > 1e-8 * np.maximum(np.abs(ref), 1.0),
                     axis=0)
        n = len(self.with_kicked)
        return coeffs[:, :n].T, coeffs[:, n:].T, ~(pole | bad[:n] | bad[n:])


@functools.cache
def _circle_samples(degree: int, radius: float = 1.0, phase: float = 0.35):
    """degree+1 abscissae spread on a circle in the x = e^(2 lam) plane,
    and their lam; cached, so both arrays are read-only."""
    ks = np.arange(degree + 1)
    xs = radius * np.exp(2j * np.pi * (ks + phase) / (degree + 1))
    lams = 0.5 * np.log(xs)
    xs.flags.writeable = lams.flags.writeable = False
    return xs, lams


def down_b_row(lam, params: ModelParams) -> np.ndarray:
    """The L nonzero entries of the last row <down| B(lam), at the columns
    of the states with one site j up: entry j is
    c prod_{k<j} b(lam - mu_k) prod_{k>j} a(lam - mu_k).  For an array of
    points, one row per point, shape ``lam.shape + (L,)``."""
    x = np.asarray(lam)[..., None] - np.asarray(params.mu)
    b, a = np.sinh(x), np.sinh(x + params.gamma)
    ones = np.ones(x.shape[:-1] + (1,))
    before = np.concatenate((ones, np.cumprod(b[..., :-1], axis=-1)), axis=-1)
    after = np.concatenate((np.cumprod(a[..., :0:-1], axis=-1)[..., ::-1], ones),
                           axis=-1)
    return np.sinh(params.gamma) * before * after


@functools.cache
def _sample_points(L: int) -> tuple:
    """The points where `extract_zeros` reads the eigenvalue: the origin,
    the unit-circle abscissae of the fit, then ten reconstruction probes."""
    rng = np.random.default_rng(2357)
    probes = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(10)]
    return (0.0, *_circle_samples(L - 1)[1], *probes)


def extract_zeros(states, params: ModelParams) -> tuple[ZeroSets, list]:
    """The zero sets of `states` (eigenstates of one diagonalization), and
    the states whose extraction failed.

    Every eigenvalue is read at `_sample_points` from one `values` call.
    Its values on the circle in the x = e^(2 lam) plane, stripped of the
    exponential prefactor, are fitted as a degree-(L-1) polynomial in x,
    every state in one solve; every root is taken in one batched solve
    and mapped back with the principal branch.  A state fails when its
    polynomial has fewer than L-1 roots, or when the multiplicative
    reconstruction from its zero set misses its eigenvalue at a probe by
    more than 1e-7 of it.
    """
    L = params.L
    degree = L - 1
    points = _sample_points(L)
    vals = values(states, points)
    rows = vals.tolist()
    lam0 = [row[0] for row in rows]
    if L == 1 or not states:
        return ZeroSets(states, lam0, np.empty((len(states), degree))), []
    xs, lams = _circle_samples(degree)
    # the prefactor product stays scalar, element by element: as an array
    # product it moves the last bits of the zeros
    pre = [np.exp(degree * lam) for lam in lams]
    circle = [[e * f for e, f in zip(pre, row[1:L + 1])] for row in rows]
    coeffs = fit_poly(zip(xs, np.array(circle).T), degree)
    roots = poly_roots_rows(coeffs.T)
    found = [r is not None and len(r) == degree for r in roots]
    zeros = np.empty((len(states), degree), dtype=complex)
    zeros[found] = 0.5 * np.log(np.reshape(
        [r for r, ok in zip(roots, found) if ok], (-1, degree)))
    kept = np.array(found, dtype=bool)
    ref = vals[kept, L + 1:]
    rebuilt = lam_from_zeros(np.array(lam0)[kept], zeros[kept], points[L + 1:])
    kept[kept] = ~np.any(np.abs(ref - rebuilt)
                         > 1e-7 * np.maximum(np.abs(ref), 1e-300), axis=1)
    sets = ZeroSets([st for st, ok in zip(states, kept) if ok],
                    [v for v, ok in zip(lam0, kept) if ok], zeros[kept])
    return sets, [st for st, ok in zip(states, kept) if not ok]


def reconstruction_residual(sets: ZeroSets, probes) -> np.ndarray:
    """Per state of `sets` and per point of its row of `probes`, a
    (sets x P) array, its eigenvalue there against the reconstruction from
    its value at the origin and its zero set, relative to the eigenvalue."""
    probes = np.asarray(probes, dtype=complex)
    ref = np.array([[st.lam(x) for x in row] for st, row
                    in zip(sets.states, probes)]).reshape(probes.shape)
    rebuilt = lam_from_zeros(np.array(sets.lam0), sets.zeros, probes)
    return np.abs(ref - rebuilt) / np.maximum(np.abs(ref), 1e-300)


def at_zero_residual(sets: ZeroSets, scale_points) -> np.ndarray:
    """Per state of `sets`, its largest |eigenvalue| at its zeros relative
    to its largest modulus at its row of `scale_points`; both read from
    one `values` call."""
    scale_points = np.asarray(scale_points, dtype=complex)
    mods = np.abs(values(
        sets.states, np.concatenate((scale_points, sets.zeros), axis=1)))
    n = scale_points.shape[1]
    return (worst(mods[:, n:], axis=1)
            / np.maximum(worst(mods[:, :n], axis=1), 1e-300))


def check_lz01(sets: ZeroSets) -> dict:
    """Z * k0 against the maximal expansion coefficient F at the zeroes,
    for each state of `sets`, read from the fitted coefficients alone.

    Even L: Z * k0 = F.  The expansion theorem gives
    Z * k0 = sum_idx V_m(idx) prod_{t not in idx} Lambda(v_t); at
    v = (lam0, w_1, ..., w_{L-1}) every term that keeps a zero slot carries
    a factor Lambda(w_j) = 0, and for even L the only even-sized removed
    set containing all L-1 zero slots is the full set, so Z * k0 is its
    coefficient, `ZeroSets.top`.
    Odd L: Z * k0 is the coefficient times the eigenvalue, which is a
    constant times prod_j sinh(lam0 - w_j); so Z is proportional to the
    pole-stripped F.  Either way Z and F are proportional polynomials in
    x of one degree, which also says that their zeros coincide.

    Returns per state the "spread", the sine of the angle between the
    coefficient vectors of Z and F, and (even L) the "constant_residual",
    max |Z k0 - F| / max |F| over the coefficients.  A state whose fit
    failed reads inf in both.
    """
    n = len(sets)
    zc, fc, ok = (a[:n] for a in sets.fit)
    # Z less its least-squares multiple c F, relative to Z
    c = (np.sum(fc.conj() * zc, axis=1)
         / np.maximum(np.sum(np.abs(fc) ** 2, axis=1), 1e-300))
    spread = (np.linalg.norm(zc - c[:, None] * fc, axis=1)
              / np.maximum(np.linalg.norm(zc, axis=1), 1e-300))
    out = {"spread": np.where(ok, spread, np.inf)}
    if sets.params.L % 2 == 0:
        k0 = np.array([st.k0 for st in sets.states])
        dev = (np.abs(zc * k0[:, None] - fc).max(axis=1)
               / np.maximum(np.abs(fc).max(axis=1), 1e-300))
        out["constant_residual"] = np.where(ok, dev, np.inf)
    return out


def wronskian_coeffs(sets: ZeroSets) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients C_0..C_[L] of the Wronskian Z F' - F Z' in x of every
    row of `sets`, as a (rows x [L]+1) array, and per row their magnitude
    scale for relative vanishing tests.

    Both come from the one fit of Z and F.  The Wronskian is bilinear in
    the two fitted polynomials, so the scale is the product of their
    largest coefficient magnitudes.
    """
    zc, fc, _ = sets.fit
    n = zc.shape[1]
    k = np.arange(1, n)
    dz, df = zc[:, 1:] * k, fc[:, 1:] * k
    top = even_floor(sets.params.L)
    wron = np.zeros((len(zc), max(2 * n - 2, top + 1)), dtype=complex)
    for i in range(n):
        wron[:, i:i + n - 1] += zc[:, i, None] * df - fc[:, i, None] * dz
    scale = np.maximum(np.abs(zc).max(axis=1) * np.abs(fc).max(axis=1), 1e-300)
    return wron[:, :top + 1], scale


def wronskian_residual(sets: ZeroSets) -> np.ndarray:
    """Per state, the largest Wronskian coefficient relative to their
    scale; it vanishes on the true zeros.  A failed fit reads inf."""
    n = len(sets)
    coeffs, scale = wronskian_coeffs(sets)
    res = np.abs(coeffs[:n]).max(axis=1) / scale[:n]
    return np.where(sets.fit[2][:n], res, np.inf)


def wronskian_sharpness(sets: ZeroSets) -> np.ndarray:
    """Per state, 1e-3 over the Wronskian residual once the first zero is
    kicked, so it reads below 1 while the Wronskian detects the kick.  A
    failed fit of the kicked set reads inf."""
    n = len(sets)
    coeffs, scale = wronskian_coeffs(sets)
    res = 1e-3 * scale[n:] / np.abs(coeffs[n:]).max(axis=1)
    return np.where(sets.fit[2][n:], res, np.inf)
