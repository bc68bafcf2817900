"""Statistical weights, R-matrix, twist, monodromy, transfer matrix and
Hamiltonian of the anti-periodically twisted six-vertex model.

Conventions: local spin basis (up, down) = ((1,0), (0,1)); a chain of L
sites lives on the 2^L-dimensional quantum space with site 1 leftmost in
the Kronecker ordering.  The auxiliary space comes first on the combined
auxiliary x quantum space.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import GenericityExhausted
from .numkit import cabs, kron_chain, worst

ID2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
SPLUS = np.array([[0, 1], [0, 0]], dtype=complex)
SMINUS = np.array([[0, 0], [1, 0]], dtype=complex)

EPS_GENERIC = 1e-4
# draws before a sampler gives up on finding a generic point set
_MAX_DRAWS = 1000

# Entries that one gather of many points takes at once: 2^14 complex
# entries, 256 KiB, i.e. 22 transfer matrices or 45 B's at L = 6 and 2 or
# 4 at L = 8.  A gather call holds a few arrays of that size, whatever the
# number of points; `BlockOperators` keeps the values of each call.
_GATHER_ENTRIES = 2**14


def weights(lam: complex, gamma: complex):
    """Vertex weights (a, b, c) at spectral parameter lam."""
    return np.sinh(lam + gamma), np.sinh(lam), np.sinh(gamma)


@dataclass(frozen=True)
class ModelParams:
    """Lattice size, anisotropy and per-site inhomogeneities."""

    L: int
    gamma: complex
    mu: tuple

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


def _uniform_points(n: int, rng) -> list:
    """n points uniform on [-1,1] + i[-1,1], from one call for their 2n
    uniforms: real and imaginary part of each point in turn, the stream of
    2n scalar calls."""
    draws = rng.uniform(-1, 1, size=(n, 2)).tolist()
    return [complex(re, im) for re, im in draws]


def sample_mu(L: int, gamma: complex, rng) -> tuple:
    """Draw generic inhomogeneities uniformly from [-1,1] + i[-1,1]."""
    for _ in range(_MAX_DRAWS):
        mu = tuple(_uniform_points(L, rng))
        if is_generic(ModelParams(L, gamma, mu)):
            return mu
    raise GenericityExhausted("no generic inhomogeneity draw found")


def generic_points(n: int, rng, avoid=()) -> tuple:
    """Draw n spectral parameters whose pairwise sinh differences exceed
    0.02, also keeping that sinh distance from every point in `avoid`.

    A draw is tested at once: the differences p - q of each new point p
    and each earlier new point or point of `avoid` q are taken as scalars,
    and their sinh and its modulus (`cabs`) as one array each, with the
    bits of the scalar calls."""
    avoid = list(avoid)
    for _ in range(_MAX_DRAWS):
        pts = _uniform_points(n, rng)
        diff = [p - q for i, p in enumerate(pts) for q in pts[:i] + avoid]
        if not np.any(cabs(np.sinh(np.array(diff, dtype=complex))) <= 0.02):
            return tuple(pts)
    raise GenericityExhausted("no generic spectral-point draw found")


def r_matrix(lam, params: ModelParams) -> np.ndarray:
    """4x4 six-vertex R-matrix acting on a pair of spin-1/2 spaces; for an
    array of points, one R-matrix per point, shape ``lam.shape + (4, 4)``."""
    a, b, c = weights(lam, params.gamma)
    r = np.zeros(np.shape(lam) + (4, 4), dtype=complex)
    r[..., 0, 0] = r[..., 3, 3] = a
    r[..., 1, 1] = r[..., 2, 2] = b
    r[..., 1, 2] = r[..., 2, 1] = c
    return r


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


@functools.lru_cache(maxsize=None)
def _paths(L: int):
    """Ice-rule pattern of the monodromy on L sites, independent of lam.

    Entry (a, c, i, j) of the monodromy sums over auxiliary paths
    b_0 = a, ..., b_L = c the products of the site tensors
    r_k[b_k, b_{k+1}, s_k, t_k], with s_k and t_k the bits of i and j.
    The ice rule fixes b_{k+1} = b_k + s_k - t_k, so each (a, i, j) has
    at most one path and each nonzero entry is one product of L weights.
    Returns ``(rows, cols, idx, bounds)``: per entry its quantum row and
    column (int32) and, per site, the flat index ``b*8 + c*4 + s*2 + t``
    into that site tensor (uint8, shape (L, n)); the entries are ordered by
    auxiliary block k = 2a + c, i.e. (0, 0), (0, 1), (1, 0), (1, 1), and
    block k is ``bounds[k]:bounds[k + 1]``."""
    s = np.array([0, 0, 1, 1])
    t = np.array([0, 1, 0, 1])
    start = np.array([0, 1])
    b = start
    rows = cols = np.zeros(2, dtype=np.int32)
    idx = np.zeros((0, 2), dtype=np.uint8)
    for _ in range(L):
        nxt = b[:, None] + s - t
        path, step = np.nonzero((nxt >= 0) & (nxt <= 1))
        b_next = nxt[path, step]
        flat = b[path] * 8 + b_next * 4 + s[step] * 2 + t[step]
        idx = np.vstack([idx[:, path], flat.astype(np.uint8)])
        rows = 2 * rows[path] + s[step].astype(np.int32)
        cols = 2 * cols[path] + t[step].astype(np.int32)
        start, b = start[path], b_next
    block = 2 * start + b
    order = np.argsort(block, kind="stable")
    bounds = tuple(int(x) for x in np.searchsorted(block[order], range(5)))
    pattern = rows[order], cols[order], idx[:, order]
    for arr in pattern:
        arr.flags.writeable = False  # shared by every caller
    return (*pattern, bounds)


@functools.lru_cache(maxsize=None)
def _blocks(L: int, first: int, stop: int):
    """Scatter index and prefix tree of the paths of the auxiliary blocks
    k in ``range(first, stop)``, built on first use.

    The scatter index is each entry's flat position ``row * 2^L + col`` in
    a 2^L x 2^L array (intp).  The tree has one level per site: level k
    holds the distinct path prefixes through site k, each as its parent's
    position in level k - 1 and its own site-k tensor index; the last
    level holds the paths themselves, in entry order."""
    rows, cols, idx, bounds = _paths(L)
    sl = slice(bounds[first], bounds[stop])
    at = rows[sl].astype(np.intp) * 2**L + cols[sl]
    idx = idx[:, sl]
    node = np.zeros(idx.shape[1], dtype=np.intp)  # each path's prefix
    tree = []
    for k in range(L - 1):
        codes, node = np.unique(node * 16 + idx[k], return_inverse=True)
        tree.append((codes // 16, (codes % 16).astype(np.uint8)))
    tree.append((node, idx[L - 1]))
    for arr in (at, *itertools.chain(*tree)):
        arr.flags.writeable = False  # shared by every caller
    return at, tuple(tree)


def _gather(lam, params: ModelParams, first: int, stop: int):
    """Values of the nonzero entries of the auxiliary blocks k = 2a + c in
    ``range(first, stop)``, in the order of their scatter index
    ``_blocks(L, first, stop)[0]``, each the product of its path's site
    weights taken left to right, site 1 first.  `lam` is one point, values
    of shape (n,), or a 1-D array of points, values of shape (points, n);
    each point's row equals its scalar gather bit for bit."""
    L = params.L
    lam = np.asarray(lam)
    # site tensor r[b, c, s, t] = R[(b, s), (c, t)], one per (point, site)
    sites = np.swapaxes(
        r_matrix(lam[..., None] - np.array(params.mu), params)
        .reshape(lam.shape + (L, 2, 2, 2, 2)), -3, -2)
    if sites[..., ~_ICE].any():
        raise ValueError("site tensor has an entry that breaks the ice rule")
    w = sites.reshape(lam.shape + (L, 16))
    _, tree = _blocks(L, first, stop)
    # Paths that share a prefix share its product: level k multiplies each
    # prefix through site k - 1 by its site-k weight, so every path's value
    # is the same left-to-right sequence of products as a loop over its
    # sites.  Both factors are bound to names before the product: above
    # 256 KiB numpy would otherwise reuse an unnamed temporary as
    # `f *= prefix`, and the swapped operands give other bits.
    vals = w[..., 0, :].take(tree[0][1], axis=-1)
    for k in range(1, L):
        parent, site = tree[k]
        prefix = vals.take(parent, axis=-1)
        f = w[..., k, :].take(site, axis=-1)
        vals = prefix * f
    return vals


def monodromy_full(lam: complex, params: ModelParams) -> list:
    """Same product built directly on the auxiliary x quantum space, from
    a transcription of the weights (`_local_blocks`) independent of
    `r_matrix`; the oracle for `monodromy`.  It is returned as its
    auxiliary blocks: ``m[a][b]`` is the 2^L x 2^L quantum operator in
    auxiliary row a and column b, so ``np.block(m)`` is the 2^(L+1)-dim
    matrix.

    The product is grown site by site, site 1 first, from the 2x2
    auxiliary identity.  Viewed as a tensor ``m[a, S, b, T]`` with S and T
    the quantum row and column of the sites so far, it takes the next
    site as ``m[a, S, b, T] <- sum_c m[a, S, c, T] loc[c, b, s, t]``, where
    ``loc[c, b, s, t] = blk_cb[s, t]`` acts on the auxiliary leg and the
    new site's leg only, and ``(S, s)``, ``(T, t)`` are the new row and
    column.  The last site is taken one block (a, b) at a time, so no
    array of the 2^(L+1)-dim space is formed: at L = 8 one takes 4 MiB,
    and where the allocator puts arrays that large moved the peak
    resident size of a run by 4 MiB steps from one run to the next."""
    locs = []
    for mu in params.mu:
        a_loc, b_loc, c_loc, d_loc = _local_blocks(lam - mu, params.gamma)
        locs.append(np.array([[a_loc, b_loc], [c_loc, d_loc]]))
    m = np.eye(2, dtype=complex).reshape(2, 1, 2, 1)
    for loc in locs[:-1]:
        n = 2 * m.shape[1]
        m = (np.tensordot(m, loc, axes=([2], [0]))  # (a, S, T, b, s, t)
             .transpose(0, 1, 4, 3, 2, 5).reshape(2, n, 2, n))
    n = 2 * m.shape[1]
    return [[np.tensordot(m[a], locs[-1][:, b], axes=([1], [0]))  # (S, T, s, t)
             .transpose(0, 2, 1, 3).reshape(n, n) for b in range(2)]
            for a in range(2)]


class BlockOperators:
    """The sum of the auxiliary blocks k = 2a + c in ``range(first, stop)``
    of the monodromy at each of the points `lams`, for blocks with
    disjoint supports.  The entries are gathered when the object is made,
    one `_gather` call per chunk of up to `_GATHER_ENTRIES` entries, and
    each call's values are kept as they come; ``ops[j]`` scatters the
    operator at lams[j] into one dense buffer that every read reuses, so a
    read holds until the next, and ``ops.blocks(j)`` scatters it into its
    weight-sector blocks, new arrays at each read."""

    def __init__(self, lams, params: ModelParams, first: int, stop: int):
        self.lams = np.array(list(lams), dtype=complex)
        self.params = params
        self._range = first, stop
        self._at = _blocks(params.L, first, stop)[0]
        self._per = max(1, _GATHER_ENTRIES // len(self._at))
        self._chunks = [_gather(self.lams[start:start + self._per], params,
                                first, stop)
                        for start in range(0, len(self.lams), self._per)]
        self._buf = np.zeros((params.dim, params.dim), dtype=complex)
        self._flat = self._buf.reshape(-1)

    def __len__(self) -> int:
        return len(self.lams)

    def __getitem__(self, j: int) -> np.ndarray:
        chunk, row = divmod(j, self._per)
        self._flat[self._at] = self._chunks[chunk][row]
        return self._buf

    def blocks(self, j: int) -> dict:
        """The operator at lams[j] as the ``{(row weight, column weight):
        block}`` dict of `_split`, keys in its row-major order, filled
        from the gathered entries without a dense 2^L x 2^L array.  Every
        block that the ice-rule paths reach is present, so a block whose
        entries all happen to vanish is an exact zero block; the others
        equal those of ``_split(ops[j])`` bit for bit."""
        spans, dest, size = _sector_index(self.params.L, *self._range)
        chunk, row = divmod(j, self._per)
        buf = np.zeros(size, dtype=complex)
        buf[dest] = self._chunks[chunk][row]
        return {key: buf[sl].reshape(shape) for key, sl, shape in spans}


def monodromy(lam: complex, params: ModelParams) -> np.ndarray:
    """Ordered product over sites of the R-matrices, as an operator-valued
    2x2 matrix of shape (2, 2, 2^L, 2^L): ``m[a, b]`` is the quantum-space
    operator in auxiliary row a and column b, so
    ``(A, B), (C, D) = monodromy(lam, params)``.  Each block is read from
    a one-block `BlockOperators` of its own, one at a time."""
    d = params.dim
    m = np.empty((4, d, d), dtype=complex)
    for k in range(4):
        m[k] = BlockOperators([lam], params, k, k + 1)[0]
    return m.reshape(2, 2, d, d)


def b_operator(lam: complex, params: ModelParams) -> np.ndarray:
    """Creation operator B(lam), the auxiliary (0, 1) entry of the
    monodromy, gathered from that block's paths alone."""
    return BlockOperators([lam], params, 1, 2)[0]


class BOperators(BlockOperators):
    """The creation operators B(x) at the points `lams`, for strings of
    them on |up>."""

    def __init__(self, lams, params: ModelParams):
        super().__init__(lams, params, 1, 2)

    def strings(self, orders) -> list:
        """For each order, a sequence of positions j_1, ..., j_k into
        `lams`, the vector B(lams[j_1]) ... B(lams[j_k]) |up>, each B
        applied as the full dense product ``B @ v``.  Strings with a
        common suffix share its vector."""
        memo = {(): reference_states(self.params.L)[0]}
        out = []
        for order in orders:
            key = tuple(order)
            # from the longest suffix formed so far, one B at a time, each
            # read only once the string it acts on is formed: a read
            # overwrites the buffer of the read before
            start = next(i for i in range(len(key) + 1) if key[i:] in memo)
            vec = memo[key[start:]]
            for i in reversed(range(start)):
                vec = memo[key[i:]] = self[key[i]] @ vec
            out.append(vec)
        return out


def transfer(lam: complex, params: ModelParams) -> np.ndarray:
    """Twisted transfer matrix: trace of G times the monodromy, i.e. B + C.
    B raises the number of up spins by one and C lowers it by one, so
    their supports are disjoint and their entries are gathered into one
    array."""
    return BlockOperators([lam], params, 1, 3)[0]


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


# ---------------------------------------------------------------------------
# Weight-sector block kernel.  A 2^L x 2^L matrix is split into blocks by
# the weight (number of down spins) of its row and of its column, and only
# the blocks holding a nonzero entry (NaN counts) are kept.  The split
# assumes no structure: a block left out is exactly zero, and skipping it
# changes no entry of a product or combination, so a residual taken on the
# blocks is that of the dense matrices.  The ice rule makes most blocks of
# the monodromy, T, B and H zero, which is all the kernel saves.


@functools.lru_cache(maxsize=None)
def _sectors(dim: int):
    """The permutation into sector order (basis indices sorted by weight)
    as flat indices of a ``dim x dim`` matrix, the start of each weight's
    run in that order, and each run as a slice."""
    weight = np.array([bin(i).count("1") for i in range(dim)])
    order = np.argsort(weight, kind="stable")
    flat = order[:, None] * dim + order
    bounds = np.searchsorted(weight[order], range(dim.bit_length() + 1))
    for arr in (flat, bounds):
        arr.flags.writeable = False  # shared by every caller
    spans = tuple(map(slice, bounds[:-1].tolist(), bounds[1:].tolist()))
    return flat, bounds[:-1], spans


@functools.lru_cache(maxsize=None)
def _sector_index(L: int, first: int, stop: int):
    """Where the entries gathered for the auxiliary blocks k in
    ``range(first, stop)`` go in their weight-sector blocks, built on
    first use.

    The blocks that hold an entry are laid out one after another in one
    flat buffer, in row-major key order, each in row-major order with its
    rows and columns in sector order.  Returns ``(spans, dest, size)``:
    per block its (row weight, column weight) key, its slice of the
    buffer and its shape; per entry, in the order of the gather, its flat
    position in the buffer (intp); and the buffer's length."""
    rows, cols, _, bounds = _paths(L)
    sl = slice(bounds[first], bounds[stop])
    rows, cols = rows[sl], cols[sl]
    _, starts, runs = _sectors(2**L)
    weight = np.array([bin(i).count("1") for i in range(2**L)])
    # each basis index's position within its weight's run
    pos = np.empty(2**L, dtype=np.intp)
    pos[np.argsort(weight, kind="stable")] = np.arange(2**L)
    pos -= starts[weight]
    rw, cw = weight[rows], weight[cols]
    spans, dest, size = [], np.empty(len(rows), dtype=np.intp), 0
    for r, c in sorted(set(zip(rw.tolist(), cw.tolist()))):
        shape = runs[r].stop - runs[r].start, runs[c].stop - runs[c].start
        sel = (rw == r) & (cw == c)
        dest[sel] = size + pos[rows[sel]] * shape[1] + pos[cols[sel]]
        spans.append(((r, c), slice(size, size + shape[0] * shape[1]), shape))
        size += shape[0] * shape[1]
    dest.flags.writeable = False  # shared by every caller
    return tuple(spans), dest, size


def _split(m: np.ndarray) -> dict:
    """The nonzero (row weight, column weight) blocks of `m`, each a copy
    of its block of `m` permuted into sector order, so the permuted whole
    is freed on return."""
    flat, starts, spans = _sectors(m.shape[0])
    p = m.ravel().take(flat).astype(complex, copy=False)
    # real and imaginary parts side by side, so a NaN in either counts
    nonzero = p.view(np.float64) != 0
    live = np.logical_or.reduceat(
        np.logical_or.reduceat(nonzero, 2 * starts, axis=1), starts, axis=0)
    rows, cols = np.nonzero(live)
    return {(r, c): p[spans[r], spans[c]].copy()
            for r, c in zip(rows.tolist(), cols.tolist())}


def _bmatmul(x: dict, y: dict) -> dict:
    """Block product: block (i, j) sums x[i, k] @ y[k, j] over the k that
    both hold."""
    by_row = {}
    for (k, j), blk in y.items():
        by_row.setdefault(k, []).append((j, blk))
    out = {}
    for (i, k), a in x.items():
        for j, b in by_row.get(k, ()):
            if (i, j) in out:
                out[i, j] += a @ b
            else:
                out[i, j] = a @ b
    return out


def _bcombine(terms) -> dict:
    """Sum of ``coef * x`` over the (coef, block matrix) pairs `terms`."""
    out = {}
    for coef, x in terms:
        for key, blk in x.items():
            if key in out:
                out[key] += coef * blk
            else:
                out[key] = coef * blk
    return out


def _bsub(x: dict, y: dict) -> dict:
    """Block difference x - y."""
    return {key: x.get(key, 0) - y.get(key, 0) for key in x | y}


def _bnorm(blocks) -> float:
    """Frobenius norm of the matrix made of the iterable of `blocks`."""
    return math.sqrt(sum(np.vdot(blk, blk).real for blk in blocks))


def _bnorm2(blocks: dict) -> float:
    """2-norm (largest singular value) of the matrix made of `blocks`.

    Blocks that share a row weight or a column weight are joined into one
    connected component of the block graph.  Two components share no row
    and no column, so up to a permutation the matrix is block diagonal
    over them and its 2-norm is the largest of theirs: each block of B is
    a component of its own, T has two, one per parity of the column
    weight.  A one-block component is normed as it is; a larger one is
    assembled first.  The norm of a component is its largest singular
    value, or its Frobenius norm where that is the same number: for one
    row or one column, and for a component with a NaN or infinite entry,
    where it reads NaN or inf and an SVD would not converge.  An empty
    dict reads 0.0."""
    comps = []  # (row weights, column weights, keys) of each component
    for r, c in blocks:
        rows, cols, keys = {r}, {c}, [(r, c)]
        for comp in [o for o in comps if r in o[0] or c in o[1]]:
            comps.remove(comp)
            rows |= comp[0]
            cols |= comp[1]
            keys += comp[2]
        comps.append((rows, cols, keys))
    norms = []
    for rows, cols, keys in comps:
        if len(keys) == 1:
            m = blocks[keys[0]]
        else:
            height = {r: blocks[r, c].shape[0] for r, c in keys}
            width = {c: blocks[r, c].shape[1] for r, c in keys}
            m = np.block([[blocks.get((r, c), np.zeros((height[r], width[c])))
                           for c in sorted(cols)] for r in sorted(rows)])
        if min(m.shape) == 1 or not np.isfinite(m).all():
            norms.append(math.sqrt(np.vdot(m, m).real))
        else:
            norms.append(np.linalg.svd(m, compute_uv=False)[0])
    return float(worst(norms))


def _commutator(x: dict, y: dict) -> float:
    """Norm of [a, b] relative to ||a|| ||b|| (Frobenius), for a and b
    given as weight-sector block dicts `x` and `y`."""
    return float(_bnorm(_bsub(_bmatmul(x, y), _bmatmul(y, x)).values())
                 / max(_bnorm(x.values()) * _bnorm(y.values()), 1e-300))


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
    ops = BlockOperators([x, y], params, 1, 3)
    return _commutator(ops.blocks(0), ops.blocks(1))


def b_commute_residual(x: complex, y: complex, params: ModelParams) -> float:
    """Commutator of the creation operators B(x) and B(y)."""
    ops = BOperators([x, y], params)
    return _commutator(ops.blocks(0), ops.blocks(1))


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
    the (auxiliary row, column) blocks of `monodromy_full`, each split into
    weight sectors; R acts on the auxiliary index of these blocks alone,
    as a scalar combination over its nonzero entries."""
    m1, m2 = ({(a, b): _split(m[a][b]) for a in range(2) for b in range(2)}
              for m in (monodromy_full(lam, params) for lam in (lam1, lam2)))
    r = r_matrix(lam1 - lam2, params)
    # index k of the two auxiliary spaces is the pair divmod(k, 2)
    pairs = list(enumerate(divmod(k, 2) for k in range(4)))
    t12, t21 = {}, {}
    for (i, (a1, a2)), (j, (b1, b2)) in itertools.product(pairs, repeat=2):
        t12[i, j] = _bmatmul(m1[a1, b1], m2[a2, b2])
        t21[i, j] = _bmatmul(m2[a2, b2], m1[a1, b1])
    lhs = {(i, j): _bcombine((r[i, k], t12[k, j]) for k in np.flatnonzero(r[i]))
           for i, j in t12}
    rhs = {(i, j): _bcombine((r[k, j], t21[i, k]) for k in np.flatnonzero(r[:, j]))
           for i, j in t21}
    scale = max(_bnorm(blk for x in lhs.values() for blk in x.values()), 1e-300)
    return _bnorm(blk for key in lhs
                  for blk in _bsub(lhs[key], rhs[key]).values()) / scale


def _action(mono: np.ndarray, lam: complex, params: ModelParams) -> float:
    """Action of A, B, C, D of the monodromy `mono` built at lam on the
    all-up and all-down reference states, relative to the largest vacuum
    eigenvalue (and at least 1)."""
    (a_op, b_op), (c_op, d_op) = mono
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
    """Blocks and transfer matrix against the independent full product,
    and the action on the reference states, from one monodromy at lam.

    ``block_assembly`` compares the A/B/C/D blocks of :func:`monodromy`,
    laid out on the auxiliary x quantum space, with
    :func:`monodromy_full`; ``trace_form`` compares :func:`transfer`, built
    on its own, with the auxiliary-space trace of G times that full
    product; ``action`` is :func:`_action` on the same monodromy.
    """
    full = monodromy_full(lam, params)
    g = twist_matrix()
    # G x 1 acts on the auxiliary row leg alone: tr(G M) = sum G[a, b] M[b][a]
    traced = sum(g[a, b] * full[b][a] for a in range(2) for b in range(2))
    tmat = transfer(lam, params)
    mono = monodromy(lam, params)
    pairs = [(mono[a, b], full[a][b]) for a in range(2) for b in range(2)]
    return {
        "block_assembly": (_bnorm(x - y for x, y in pairs)
                           / max(_bnorm(y for _, y in pairs), 1e-300)),
        "trace_form": _rel(traced - tmat, tmat),
        "action": _action(mono, lam, params),
    }


def hamiltonian_residuals(lam: complex, params: ModelParams) -> dict:
    """The two Hamiltonian identities of a homogeneous chain, from one
    build of H.

    ``hamiltonian_commutes`` is the commutator of H with the transfer
    matrix at lam; ``log_derivative_fit`` is the distance of
    T'(0) T(0)^-1, by central differences, from the span of {H, 1}.
    """
    ham = hamiltonian(params)
    h = 1e-5
    t0 = transfer(0j, params)
    dlog = (transfer(h, params) - transfer(-h, params)) / (2 * h) \
        @ np.linalg.inv(t0)
    basis = np.stack([ham.ravel(), np.eye(params.dim, dtype=complex).ravel()],
                     axis=1)
    coefs, *_ = np.linalg.lstsq(basis, dlog.ravel(), rcond=None)
    fit = (basis @ coefs).reshape(params.dim, params.dim)
    return {
        "hamiltonian_commutes": _commutator(
            _split(ham), BlockOperators([lam], params, 1, 3).blocks(0)),
        "log_derivative_fit": _rel(dlog - fit, dlog),
    }
