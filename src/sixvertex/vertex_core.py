"""Statistical weights, R-matrix, twist, monodromy, transfer matrix and
Hamiltonian of the anti-periodically twisted six-vertex model.

Conventions: local spin basis (up, down) = ((1,0), (0,1)); a chain of L
sites lives on the 2^L-dimensional quantum space with site 1 leftmost in
the Kronecker ordering.  The auxiliary space comes first on the combined
auxiliary x quantum space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GenericityExhausted
from .numkit import kron_chain

ID2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
SPLUS = np.array([[0, 1], [0, 0]], dtype=complex)
SMINUS = np.array([[0, 0], [1, 0]], dtype=complex)

EPS_GENERIC = 1e-4
# draws before a sampler gives up on finding a generic point set
_MAX_DRAWS = 1000


def weights(lam: complex, gamma: complex):
    """Vertex weights (a, b, c) at spectral parameter lam."""
    return np.sinh(lam + gamma), np.sinh(lam), np.sinh(gamma)


@dataclass(frozen=True)
class ModelParams:
    """Lattice size, anisotropy and per-site inhomogeneities."""

    L: int
    gamma: complex
    mu: tuple
    seed: int | None = None

    def __post_init__(self):
        if self.L < 1:
            raise ValueError("L must be positive")
        if len(self.mu) != self.L:
            raise ValueError("need one inhomogeneity per site")
        object.__setattr__(self, "mu", tuple(complex(m) for m in self.mu))
        object.__setattr__(self, "gamma", complex(self.gamma))

    @property
    def dim(self) -> int:
        return 2**self.L


def is_generic(params: ModelParams) -> bool:
    """Pairwise inhomogeneity differences stay EPS_GENERIC off the sinh
    zeros."""
    mu, g = params.mu, params.gamma
    for i in range(params.L):
        for j in range(i + 1, params.L):
            d = mu[i] - mu[j]
            if min(
                abs(np.sinh(d)), abs(np.sinh(d + g)), abs(np.sinh(d - g))
            ) <= EPS_GENERIC:
                return False
    return True


def sample_mu(L: int, gamma: complex, rng) -> tuple:
    """Draw generic inhomogeneities uniformly from [-1,1] + i[-1,1]."""
    for _ in range(_MAX_DRAWS):
        mu = tuple(
            complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(L)
        )
        if is_generic(ModelParams(L, gamma, mu)):
            return mu
    raise GenericityExhausted("no generic inhomogeneity draw found")


def generic_points(n: int, rng, avoid=()) -> tuple:
    """Draw n spectral parameters whose pairwise sinh differences exceed
    0.02, also keeping that sinh distance from every point in `avoid`."""
    for _ in range(_MAX_DRAWS):
        pts = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]
        ok = True
        for i, p in enumerate(pts):
            others = pts[:i] + list(avoid)
            if any(abs(np.sinh(p - q)) <= 0.02 for q in others):
                ok = False
                break
        if ok:
            return tuple(pts)
    raise GenericityExhausted("no generic spectral-point draw found")


def r_matrix(lam: complex, params: ModelParams) -> np.ndarray:
    """4x4 six-vertex R-matrix acting on a pair of spin-1/2 spaces."""
    a, b, c = weights(lam, params.gamma)
    return np.array(
        [
            [a, 0, 0, 0],
            [0, b, c, 0],
            [0, c, b, 0],
            [0, 0, 0, a],
        ],
        dtype=complex,
    )


def twist_matrix() -> np.ndarray:
    """Anti-periodic boundary twist on the auxiliary space."""
    return SX.copy()


def _local_blocks(lam: complex, gamma: complex):
    """Auxiliary-space blocks of the R-matrix at one site."""
    a, b, c = weights(lam, gamma)
    a_loc = np.array([[a, 0], [0, b]], dtype=complex)
    b_loc = c * SMINUS
    c_loc = c * SPLUS
    d_loc = np.array([[b, 0], [0, a]], dtype=complex)
    return a_loc, b_loc, c_loc, d_loc


# Ice rule: the site tensor r[b, c, s, t] may be nonzero only where
# b + s = c + t, as a vertex conserves the up arrows.
_ICE = np.fromfunction(lambda b, c, s, t: b + s == c + t, (2, 2, 2, 2), dtype=int)


def _contract(lam: complex, params: ModelParams, rows: slice) -> np.ndarray:
    """Auxiliary rows `rows` of the monodromy, shape (rows, 2, 2^L, 2^L).
    Row a of each partial product reads only row a of the one before, so
    the rows left out are never computed."""
    # site tensor r[b, c, s, t] = R[(b, s), (c, t)]
    sites = np.array([r_matrix(lam - mu, params).reshape(2, 2, 2, 2)
                      .transpose(0, 2, 1, 3) for mu in params.mu])
    if sites[:, ~_ICE].any():
        raise ValueError("site tensor has an entry that breaks the ice rule")
    # per site, the weights r[c, c, s, s] as [c, s]
    diag = np.diagonal(np.diagonal(sites, axis1=1, axis2=2), axis1=1, axis2=2)
    m = sites[0][rows]
    for k in range(1, len(sites)):
        n, d = m.shape[0], m.shape[-1]
        # m'[a, c, i, s, j, t] = m[a, 0, i, j] r[0, c, s, t]
        #                      + m[a, 1, i, j] r[1, c, s, t],
        # where only b = c + t - s can be nonzero: each entry is that one
        # product, bit for bit the broadcast sum, which adds an exact zero
        out = np.zeros((n, 2, d, 2, d, 2), dtype=complex)
        for s in (0, 1):
            out[:, :, :, s, :, s] = m * diag[k, :, s, None, None]
        out[:, 0, :, 0, :, 1] = m[:, 1] * sites[k, 1, 0, 0, 1]
        out[:, 1, :, 1, :, 0] = m[:, 0] * sites[k, 0, 1, 1, 0]
        m = out.reshape(n, 2, 2 * d, 2 * d)
    return m


def monodromy(lam: complex, params: ModelParams) -> np.ndarray:
    """Ordered product over sites of the R-matrices, as an operator-valued
    2x2 matrix of shape (2, 2, 2^L, 2^L): ``m[a, b]`` is the quantum-space
    operator in auxiliary row a and column b, so
    ``(A, B), (C, D) = monodromy(lam, params)``."""
    return _contract(lam, params, slice(None))


def monodromy_full(lam: complex, params: ModelParams) -> np.ndarray:
    """Same product built directly on the auxiliary x quantum space, from
    a transcription of the weights (`_local_blocks`) independent of
    `r_matrix`; the oracle for `monodromy`.

    The identity on the ``2^(L+1)``-dim space, viewed as a tensor with one
    leg per auxiliary and site space plus the column index, is multiplied
    from the left by the site factors, last site first.  Each factor acts
    on the auxiliary leg and its site's leg only, as the local tensor
    ``loc[p, s, q, t] = blk_pq[s, t]``."""
    L = params.L
    dim = 2 ** (L + 1)
    m = np.eye(dim, dtype=complex).reshape((2,) * (L + 1) + (dim,))
    for j in reversed(range(L)):
        a_loc, b_loc, c_loc, d_loc = _local_blocks(lam - params.mu[j], params.gamma)
        loc = np.array([[a_loc, b_loc], [c_loc, d_loc]]).transpose(0, 2, 1, 3)
        m = np.moveaxis(np.tensordot(loc, m, axes=([2, 3], [0, j + 1])), 1, j + 1)
    return m.reshape(dim, dim)


def b_operator(lam: complex, params: ModelParams) -> np.ndarray:
    """Creation operator B(lam), the auxiliary (0, 1) entry of the monodromy,
    contracted from auxiliary row 0 alone.  A copy, so that a kept B does
    not hold the A block alive."""
    return _contract(lam, params, slice(0, 1))[0, 1].copy()


def transfer(lam: complex, params: ModelParams) -> np.ndarray:
    """Twisted transfer matrix: trace of G times the monodromy, i.e. B + C."""
    m = monodromy(lam, params)
    return m[0, 1] + m[1, 0]


def site_op(op: np.ndarray, i: int, L: int) -> np.ndarray:
    """Embed a single-site operator at site i (1-based) of an L-site chain."""
    return kron_chain(
        np.eye(2 ** (i - 1), dtype=complex), op, np.eye(2 ** (L - i), dtype=complex)
    )


def hamiltonian(params: ModelParams) -> np.ndarray:
    """Anti-periodic XXZ Hamiltonian; defined in the homogeneous limit only."""
    if params.L < 2:
        raise ValueError("hamiltonian needs L >= 2")
    if any(m != 0 for m in params.mu):
        raise ValueError("hamiltonian requires homogeneous parameters (mu = 0)")
    L = params.L
    h = np.zeros((2**L, 2**L), dtype=complex)
    cg = np.cosh(params.gamma)
    for i in range(1, L):
        # the bond (i, i + 1) acts on two adjacent sites
        pre = np.eye(2 ** (i - 1), dtype=complex)
        post = np.eye(2 ** (L - i - 1), dtype=complex)
        h += kron_chain(pre, np.kron(SX, SX), post)
        h += kron_chain(pre, np.kron(SY, SY), post)
        h += cg * kron_chain(pre, np.kron(SZ, SZ), post)
    # anti-periodic closure (L, 1): sx_{L+1} = sx_1, sy/sz pick up a sign
    mid = np.eye(2 ** (L - 2), dtype=complex)
    h += kron_chain(SX, mid, SX)
    h -= kron_chain(SY, mid, SY)
    h -= cg * kron_chain(SZ, mid, SZ)
    return h


def reference_states(L: int):
    """All-up and all-down reference vectors of the 2^L quantum space."""
    up = np.zeros(2**L, dtype=complex)
    up[0] = 1.0
    down = np.zeros(2**L, dtype=complex)
    down[-1] = 1.0
    return up, down


# ---------------------------------------------------------------------------
# Residuals of the structural identities, shared by the command-line suite
# and the tests.  Each is relative to the size of the terms it compares.


def _rel(diff: np.ndarray, ref: np.ndarray) -> float:
    return float(np.linalg.norm(diff) / max(np.linalg.norm(ref), 1e-300))


def _embed_13(op: np.ndarray, d: int) -> np.ndarray:
    """Lift an operator on C^2 x C^d to C^2 x C^2 x C^d, acting as the
    identity on the middle factor."""
    return np.einsum("aqbr,cs->acqbsr", op.reshape(2, d, 2, d),
                     np.eye(2)).reshape(4 * d, 4 * d)


def _commutator(a: np.ndarray, b: np.ndarray) -> float:
    """Norm of [a, b] relative to ||a|| ||b||."""
    return float(np.linalg.norm(a @ b - b @ a)
                 / max(np.linalg.norm(a) * np.linalg.norm(b), 1e-300))


def special_value_residuals(params: ModelParams) -> dict:
    """Identities at fixed points, each an absolute residual.

    ``weights``: b(0) = 0, a(0) = c and a(-gamma) = 0; ``r_at_origin``:
    R(0) is c times the swap of the two spaces; ``twist_square``: G^2 = 1.
    """
    g = params.gamma
    a0, b0, c0 = weights(0j, g)
    swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0],
                     [0, 0, 0, 1]], dtype=complex)
    return {
        "weights": max(abs(b0), abs(a0 - c0), abs(weights(-g, g)[0])),
        "r_at_origin": np.linalg.norm(r_matrix(0j, params) - np.sinh(g) * swap),
        "twist_square": np.linalg.norm(twist_matrix() @ twist_matrix()
                                       - np.eye(2)),
    }


def twist_symmetry_residual(lam: complex, params: ModelParams) -> float:
    """Norm of [R(lam), G x G].  Absolute: G x G only permutes the entries
    of R, so the commutator is exactly zero in floating point."""
    gg = np.kron(twist_matrix(), twist_matrix())
    r = r_matrix(lam, params)
    return float(np.linalg.norm(r @ gg - gg @ r))


def unitarity_residual(lam: complex, params: ModelParams) -> float:
    """Unitarity R(lam) R(-lam) = a(lam) a(-lam) 1, relative to |a a|."""
    prod = r_matrix(lam, params) @ r_matrix(-lam, params)
    aa = weights(lam, params.gamma)[0] * weights(-lam, params.gamma)[0]
    return float(np.linalg.norm(prod - aa * np.eye(4)) / abs(aa))


def commuting_residual(x: complex, y: complex, params: ModelParams) -> float:
    """Commutator of the transfer matrices at x and y."""
    return _commutator(transfer(x, params), transfer(y, params))


def b_commute_residual(x: complex, y: complex, params: ModelParams) -> float:
    """Commutator of the creation operators B(x) and B(y)."""
    return _commutator(b_operator(x, params), b_operator(y, params))


def hamiltonian_commute_residual(lam: complex, params: ModelParams) -> float:
    """Commutator of the Hamiltonian with the transfer matrix at lam;
    homogeneous chains only."""
    return _commutator(hamiltonian(params), transfer(lam, params))


def ybe_residual(lam: complex, mu: complex, params: ModelParams) -> float:
    """Yang-Baxter equation R12(lam-mu) R13(lam) R23(mu) = R23 R13 R12."""
    r12 = np.kron(r_matrix(lam - mu, params), ID2)
    r13 = _embed_13(r_matrix(lam, params), 2)
    r23 = np.kron(ID2, r_matrix(mu, params))
    lhs = r12 @ r13 @ r23
    return _rel(lhs - r23 @ r13 @ r12, lhs)


def rll_residual(lam1: complex, lam2: complex, params: ModelParams) -> float:
    """Exchange relation R(lam1-lam2) T1(lam1) T2(lam2) = T2 T1 R of the
    full monodromy operators on two auxiliary spaces.

    T1 acts as the identity on the second auxiliary space and T2 on the
    first, so the (a1 a2, b1 b2) block of T1 T2 is ``M1[a1, b1] @
    M2[a2, b2]`` and that of T2 T1 is ``M2[a2, b2] @ M1[a1, b1]``, with M
    the (auxiliary row, column) blocks of `monodromy_full`; R acts on the
    auxiliary index of these blocks alone."""
    d = params.dim
    m1, m2 = (monodromy_full(lam, params).reshape(2, d, 2, d).transpose(0, 2, 1, 3)
              for lam in (lam1, lam2))
    t1t2 = m1[:, None, :, None] @ m2[None, :, None, :]
    t2t1 = m2[None, :, None, :] @ m1[:, None, :, None]
    r = r_matrix(lam1 - lam2, params).reshape(2, 2, 2, 2)
    lhs = np.einsum("abce,cefgij->abfgij", r, t1t2, optimize=True)
    rhs = np.einsum("abceij,cefg->abfgij", t2t1, r, optimize=True)
    return _rel(lhs - rhs, lhs)


def action_residual(lam: complex, params: ModelParams) -> float:
    """Action of A, B, C, D on the all-up and all-down reference states,
    relative to the largest vacuum eigenvalue (and at least 1)."""
    (a_op, b_op), (c_op, d_op) = monodromy(lam, params)
    up, down = reference_states(params.L)
    g = params.gamma
    aprod = np.prod([np.sinh(lam - m + g) for m in params.mu])
    bprod = np.prod([np.sinh(lam - m) for m in params.mu])
    scale = max(abs(aprod), abs(bprod), 1.0)
    residuals = [
        np.linalg.norm(a_op @ up - aprod * up),
        np.linalg.norm(d_op @ up - bprod * up),
        np.linalg.norm(a_op @ down - bprod * down),
        np.linalg.norm(d_op @ down - aprod * down),
        np.linalg.norm(b_op @ down),
        np.linalg.norm(c_op @ up),
    ]
    return float(max(residuals) / scale)


def full_product_residuals(lam: complex, params: ModelParams) -> dict:
    """Blocks and transfer matrix against the independent full product.

    ``block_assembly`` compares the A/B/C/D blocks of :func:`monodromy`,
    laid out on the auxiliary x quantum space, with
    :func:`monodromy_full`; ``trace_form`` compares :func:`transfer` with
    the auxiliary-space trace of G times that full product.
    """
    d = params.dim
    full = monodromy_full(lam, params)
    # G x 1 acts on the auxiliary row leg alone
    twisted = np.einsum("ab,bicj->aicj", twist_matrix(), full.reshape(2, d, 2, d))
    tmat = transfer(lam, params)
    blocks = monodromy(lam, params).transpose(0, 2, 1, 3).reshape(2 * d, 2 * d)
    return {
        "block_assembly": _rel(blocks - full, full),
        "trace_form": _rel(np.trace(twisted, axis1=0, axis2=2) - tmat, tmat),
    }


def log_derivative_residual(params: ModelParams) -> float:
    """Distance of T'(0) T(0)^-1 from the span of {H, 1}, by central
    differences; homogeneous chains only."""
    h = 1e-5
    t0 = transfer(0j, params)
    dlog = (transfer(h, params) - transfer(-h, params)) / (2 * h) \
        @ np.linalg.inv(t0)
    ham = hamiltonian(params)
    basis = np.stack([ham.ravel(), np.eye(params.dim, dtype=complex).ravel()],
                     axis=1)
    coefs, *_ = np.linalg.lstsq(basis, dlog.ravel(), rcond=None)
    fit = (basis @ coefs).reshape(params.dim, params.dim)
    return _rel(dlog - fit, dlog)
