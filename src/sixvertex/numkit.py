"""Foundation numerics: dense complex matrices, general eigendecomposition,
polynomial interpolation and root extraction.

Matrices are plain ``numpy.ndarray`` of complex128 in row-major order.
Polynomials are plain complex ``numpy.ndarray`` coefficient arrays,
lowest order first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonConvergence, SingularSystem

DIM_CAP = 256
COND_CAP = 1e12


@dataclass(frozen=True)
class EigenTriple:
    value: complex
    right: np.ndarray
    left: np.ndarray  # transpose-sense: left @ m == value * left


def kron_chain(*ops) -> np.ndarray:
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(out, op)
    return out


def worst(residuals, axis=None):
    """The largest of `residuals` (along `axis`), 0.0 where there are
    none, and NaN where one is NaN: the worst of a record's residuals,
    so that a NaN fails its record."""
    return np.max(np.asarray(residuals, dtype=float), axis=axis, initial=0.0)


def eig_general(m: np.ndarray) -> list[EigenTriple]:
    """Eigendecomposition of a general (non-Hermitian) complex matrix.

    Returns biorthogonally matched (value, right, left) triples sorted
    lexicographically by (Re, Im) of the eigenvalue.  Left vectors satisfy
    ``left @ m == value * left`` (transpose sense, no conjugation).
    Nearly equal eigenvalues are re-paired blockwise so that
    ``left_i @ right_j`` stays diagonal-dominant even for degenerate spectra.
    """
    m = np.asarray(m, dtype=complex)
    n = m.shape[0]
    if m.shape != (n, n):
        raise ValueError("eig_general expects a square matrix")
    if n > DIM_CAP:
        raise ValueError(f"dimension {n} exceeds cap {DIM_CAP}")
    # Imported here: ~0.3 s and ~28 MiB that structural and dwbc runs,
    # which never diagonalize, do not need.
    import scipy.linalg

    try:
        vals, vl, vr = scipy.linalg.eig(m, left=True, right=True)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NonConvergence(str(exc)) from exc
    if not np.all(np.isfinite(vals)):
        raise NonConvergence("non-finite eigenvalues returned")
    # scipy's left vectors are conjugate-sense (vl^H m = w vl^H); transpose
    # sense needs the conjugate.
    wl = vl.conj()

    order = np.lexsort((vals.imag, vals.real))
    vals = vals[order]
    vr = vr[:, order]
    wl = wl[:, order]

    scale = max(np.max(np.abs(vals)), 1.0)
    blocks = _cluster(vals, 1e-8 * scale)
    for blk in blocks:
        if len(blk) == 1:
            continue
        overlap = wl[:, blk].T @ vr[:, blk]
        try:
            wl[:, blk] = wl[:, blk] @ np.linalg.inv(overlap).T
        except np.linalg.LinAlgError as exc:
            raise NonConvergence("defective eigenvalue block") from exc
    return [EigenTriple(vals[i], vr[:, i], wl[:, i]) for i in range(n)]


def _cluster(vals, tol):
    """Group indices of sorted values into clusters of mutual distance < tol."""
    blocks = []
    current = [0]
    for i in range(1, len(vals)):
        if abs(vals[i] - vals[current[-1]]) < tol:
            current.append(i)
        else:
            blocks.append(current)
            current = [i]
    blocks.append(current)
    return blocks


def fit_poly(samples, degree: int) -> np.ndarray:
    """Interpolate a degree-`degree` polynomial through exactly d+1
    samples (x, y); returns its coefficients, lowest order first.  When
    each y is an array of k values, the k polynomials through them share
    the abscissae and come back as the columns of a (d+1, k) array.

    Uses an exact Vandermonde solve; raises SingularSystem when the
    abscissae are too close for a reliable solution.
    """
    samples = list(samples)
    if len(samples) != degree + 1:
        raise ValueError(f"need exactly {degree + 1} samples for degree {degree}")
    xs = np.array([s[0] for s in samples], dtype=complex)
    ys = np.array([s[1] for s in samples], dtype=complex)
    vand = np.vander(xs, degree + 1, increasing=True)
    if degree >= 1 and np.linalg.cond(vand) > COND_CAP:
        raise SingularSystem("interpolation abscissae nearly coincide")
    return np.linalg.solve(vand, ys)


def poly_roots_rows(coeffs: np.ndarray) -> list:
    """The roots of each row of a (rows, n) coefficient array, once
    trailing coefficients below 1e-12 of the row's largest are trimmed,
    each an array sorted by (Re, Im); None for a row that is constant once
    trimmed.

    The rows of one trimmed degree share one batched eigenvalue solve of
    their companion matrices, built as numpy's `polyroots` builds them
    (a degree-1 row is solved directly, as there), so each row's roots
    are those of `numpy.polynomial.polynomial.polyroots`.
    """
    c = np.asarray(coeffs)
    c = c.astype(np.result_type(c, 1.0))
    scale = np.max(np.abs(c), axis=1)
    big = np.abs(c) >= 1e-12 * scale[:, None]
    keep = np.where(scale > 0.0, c.shape[1] - np.argmax(big[:, ::-1], axis=1), 0)
    out = [None] * len(c)
    for k in np.unique(keep[keep >= 2]):
        rows = np.flatnonzero(keep == k)
        if k == 2:
            roots = -c[rows, :1] / c[rows, 1:2]
        else:
            comp = np.zeros((len(rows), k - 1, k - 1), dtype=c.dtype)
            comp[:, np.arange(1, k - 1), np.arange(k - 2)] = 1
            comp[:, :, -1] -= c[rows, :k - 1] / c[rows, k - 1:k]
            roots = np.linalg.eigvals(comp)
        order = np.lexsort((roots.imag, roots.real))
        for row, r in zip(rows, np.take_along_axis(roots, order, axis=1)):
            out[row] = r
    return out
