"""Statistical weights, R-matrix, twist, monodromy, transfer matrix and
Hamiltonian of the anti-periodically twisted six-vertex model.

Conventions: local spin basis (up, down) = ((1,0), (0,1)); a chain of L
sites lives on the 2^L-dimensional quantum space with site 1 leftmost in
the Kronecker ordering.  The auxiliary space comes first on the combined
auxiliary x quantum space.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

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


def is_generic(params: ModelParams, eps: float = EPS_GENERIC) -> bool:
    """Pairwise inhomogeneity differences stay off the sinh zeros."""
    mu, g = params.mu, params.gamma
    for i in range(params.L):
        for j in range(i + 1, params.L):
            d = mu[i] - mu[j]
            if min(
                abs(np.sinh(d)), abs(np.sinh(d + g)), abs(np.sinh(d - g))
            ) <= eps:
                return False
    return True


def sample_mu(L: int, gamma: complex, rng, eps: float = EPS_GENERIC,
              max_tries: int = 1000) -> tuple:
    """Draw generic inhomogeneities uniformly from [-1,1] + i[-1,1]."""
    for _ in range(max_tries):
        mu = tuple(
            complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(L)
        )
        if is_generic(ModelParams(L, gamma, mu), eps):
            return mu
    raise GenericityExhausted("no generic inhomogeneity draw found")


def generic_points(n: int, rng, avoid=(), eps: float = 0.02,
                   max_tries: int = 1000) -> tuple:
    """Draw n spectral parameters with pairwise-generic sinh differences,
    also keeping sinh distance eps from every point in `avoid`."""
    for _ in range(max_tries):
        pts = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]
        ok = True
        for i, p in enumerate(pts):
            others = pts[:i] + list(avoid)
            if any(abs(np.sinh(p - q)) <= eps for q in others):
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


@dataclass(frozen=True)
class MonodromyBlocks:
    """The four 2^L operators (A, B, C, D) at one spectral parameter."""

    a_op: np.ndarray
    b_op: np.ndarray
    c_op: np.ndarray
    d_op: np.ndarray

    def assemble(self) -> np.ndarray:
        """Full operator on the auxiliary x quantum space."""
        return np.block(
            [[self.a_op, self.b_op], [self.c_op, self.d_op]]
        )


def monodromy(lam: complex, params: ModelParams) -> MonodromyBlocks:
    """Ordered product over sites of the local R-matrices, as A/B/C/D blocks."""
    a_op, b_op, c_op, d_op = _local_blocks(lam - params.mu[0], params.gamma)
    for j in range(1, params.L):
        aj, bj, cj, dj = _local_blocks(lam - params.mu[j], params.gamma)
        a_op, b_op, c_op, d_op = (
            np.kron(a_op, aj) + np.kron(b_op, cj),
            np.kron(a_op, bj) + np.kron(b_op, dj),
            np.kron(c_op, aj) + np.kron(d_op, cj),
            np.kron(c_op, bj) + np.kron(d_op, dj),
        )
    return MonodromyBlocks(a_op, b_op, c_op, d_op)


def monodromy_full(lam: complex, params: ModelParams) -> np.ndarray:
    """Same product built directly on the auxiliary x quantum space."""
    L = params.L
    factors = []
    for j in range(L):
        blocks = _local_blocks(lam - params.mu[j], params.gamma)
        pre = np.eye(2 ** j, dtype=complex)
        post = np.eye(2 ** (L - 1 - j), dtype=complex)
        unit = {
            (0, 0): blocks[0],
            (0, 1): blocks[1],
            (1, 0): blocks[2],
            (1, 1): blocks[3],
        }
        emb = np.zeros((2 ** (L + 1), 2 ** (L + 1)), dtype=complex)
        for (p, q), blk in unit.items():
            e = np.zeros((2, 2), dtype=complex)
            e[p, q] = 1.0
            emb += kron_chain(e, pre, blk, post)
        factors.append(emb)
    return reduce(np.matmul, factors)


def b_operator(lam: complex, params: ModelParams) -> np.ndarray:
    return monodromy(lam, params).b_op


def transfer(lam: complex, params: ModelParams) -> np.ndarray:
    """Twisted transfer matrix: trace of G times the monodromy, i.e. B + C."""
    blocks = monodromy(lam, params)
    return blocks.b_op + blocks.c_op


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
    for i in range(1, L + 1):
        if i < L:
            nxt = i + 1
            signs = (1.0, 1.0, 1.0)
        else:
            # anti-periodic closure: sx_{L+1} = sx_1, sy/sz pick up a sign
            nxt = 1
            signs = (1.0, -1.0, -1.0)
        h += signs[0] * site_op(SX, i, L) @ site_op(SX, nxt, L)
        h += signs[1] * site_op(SY, i, L) @ site_op(SY, nxt, L)
        h += cg * signs[2] * site_op(SZ, i, L) @ site_op(SZ, nxt, L)
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
    return _commutator(monodromy(x, params).b_op, monodromy(y, params).b_op)


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
    full monodromy operators on two auxiliary spaces."""
    t1 = _embed_13(monodromy_full(lam1, params), params.dim)
    t2 = np.kron(ID2, monodromy_full(lam2, params))
    r12 = np.kron(r_matrix(lam1 - lam2, params), np.eye(params.dim))
    lhs = r12 @ t1 @ t2
    return _rel(lhs - t2 @ t1 @ r12, lhs)


def action_residual(lam: complex, params: ModelParams) -> float:
    """Action of A, B, C, D on the all-up and all-down reference states,
    relative to the largest vacuum eigenvalue (and at least 1)."""
    blocks = monodromy(lam, params)
    up, down = reference_states(params.L)
    g = params.gamma
    aprod = np.prod([np.sinh(lam - m + g) for m in params.mu])
    bprod = np.prod([np.sinh(lam - m) for m in params.mu])
    scale = max(abs(aprod), abs(bprod), 1.0)
    residuals = [
        np.linalg.norm(blocks.a_op @ up - aprod * up),
        np.linalg.norm(blocks.d_op @ up - bprod * up),
        np.linalg.norm(blocks.a_op @ down - bprod * down),
        np.linalg.norm(blocks.d_op @ down - aprod * down),
        np.linalg.norm(blocks.b_op @ down),
        np.linalg.norm(blocks.c_op @ up),
    ]
    return float(max(residuals) / scale)


def full_product_residuals(lam: complex, params: ModelParams) -> dict:
    """Blocks and transfer matrix against the independent full product.

    ``block_assembly`` compares the A/B/C/D blocks with
    :func:`monodromy_full`; ``trace_form`` compares :func:`transfer` with
    the auxiliary-space trace of G times that full product.
    """
    d = params.dim
    full = monodromy_full(lam, params)
    twisted = (np.kron(twist_matrix(), np.eye(d)) @ full).reshape(2, d, 2, d)
    tmat = transfer(lam, params)
    return {
        "block_assembly": _rel(monodromy(lam, params).assemble() - full, full),
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
