"""Coefficient functions of the Yang-Baxter functional hierarchy, the
scalar-product realization of operator strings, and the identity checks
built from them (operator relation, hierarchy, eigenvalue/partition-function
theorem, cross-check identities)."""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .dwbc import z_bproduct
from .errors import DegenerateSpectrum, K0Undefined, PoleEncountered
from .numkit import eig_general
from .prefix_oracle import (
    oracle_gamma,
    oracle_m,
    oracle_n,
    oracle_omega,
    oracle_v,
)
from .vertex_core import (
    EPS_GENERIC,
    BlockOperators,
    BOperators,
    ModelParams,
    _bcombine,
    _bmatmul,
    _bnorm,
    _bsub,
    generic_points,
    reference_states,
    transfer,
)

# the pair ratios of `_PairTable`, in the order of its flat layout
_RATIOS = ("a_b", "ag_b", "c_b")


class _PairTable:
    """The ratios a(v_s - v_t)/b(v_s - v_t) ("a_b"), a(v_s - v_t + g) /
    b(v_s - v_t) ("ag_b") and c/b(v_s - v_t) ("c_b") over the slot pairs of
    one variable tuple, and each slot's site products prod_k a(v_s - mu_k)
    and prod_k b(v_s - mu_k).  A ratio read raises `PoleEncountered` when
    its b(v_s - v_t) is below EPS_GENERIC; pairs that are never read, such
    as two kept slots of `v_coeff`, do not raise.  Variables with leading
    axes, one tuple per last-axis row, give one table per tuple, which
    `flat` reads."""

    def __init__(self, vars_, params: ModelParams):
        v = np.asarray(vars_, dtype=complex)
        g = params.gamma
        self.n = v.shape[-1]
        d = v[..., :, None] - v[..., None, :]
        b = np.sinh(d)
        self._pole = np.abs(b) < EPS_GENERIC
        b[self._pole] = 1.0
        # the diagonal, sinh(0) = 0, is never read
        diag = np.arange(self.n)
        self._pole[..., diag, diag] = False
        self._any_pole = self._pole.any()
        self._ratios = {"a_b": np.sinh(d + g) / b,
                        "ag_b": np.sinh(d + g + g) / b,
                        "c_b": np.sinh(g) / b}
        x = v[..., :, None] - np.asarray(params.mu)
        self.a_site = np.prod(np.sinh(x + g), axis=-1)
        self.b_site = np.prod(np.sinh(x), axis=-1)

    def read(self, name: str, s, t):
        """Ratio `name` at [s, t], for scalar or array indices."""
        if self._any_pole and self._pole[s, t].any():
            raise PoleEncountered("slot difference below genericity threshold")
        return self._ratios[name][s, t]

    def flat(self) -> tuple[np.ndarray, np.ndarray]:
        """1, the a and b site products, then the a_b, ag_b and c_b ratios
        row by row, as one vector per variable tuple (the layout
        `_top_plan` indexes); and per tuple whether it has a pole.  Every
        pair counts as read, so a tuple's vector is meaningful only where
        it has none."""
        lead = self._pole.shape[:-2]
        vec = np.concatenate((np.ones(lead + (1,)), self.a_site, self.b_site,
                              *(self._ratios[name].reshape(lead + (-1,))
                                for name in _RATIOS)), axis=-1)
        return vec, self._pole.any(axis=(-2, -1))


def gamma_coeff(i: int, j: int, k: int, vars_, params: ModelParams) -> complex:
    """Exchange coefficient attached to the A(.)D(.) terms with slot i removed.

    `vars_` is the ordered tuple (v_0, ..., v_n); i, j, k index slots.
    """
    return _gamma(_PairTable(vars_, params), i, j, k)


def _gamma(tab: _PairTable, i: int, j: int, k: int) -> complex:
    out = tab.read("c_b", k, j)
    for t in range(1, tab.n):
        if t == i:
            continue
        out *= tab.read("a_b", k, t)
        out *= tab.read("a_b", t, j)
    return complex(out)


def omega_coeff(i: int, j: int, vars_, params: ModelParams) -> complex:
    """Exchange coefficient attached to the two-removal A(.)D(.) terms.

    Evaluated in the pole-cancelled form: the v_0 factor of the product
    cancels the a-function denominators of the prefactor exactly, leaving
    only sinh-difference denominators.
    """
    return _omega(_PairTable(vars_, params), i, j)


def _omega(tab: _PairTable, i: int, j: int) -> complex:
    out = tab.read("c_b", j, 0) * tab.read("c_b", 0, i)
    out *= tab.read("a_b", j, i)
    for t in range(1, tab.n):
        if t == i or t == j:
            continue
        out *= tab.read("a_b", j, t)
        out *= tab.read("a_b", t, i)
    return complex(out)


def m_coeff(i: int, vars_, params: ModelParams) -> complex:
    """Coefficient of the single-removal term in the functional hierarchy."""
    return _m(_PairTable(vars_, params), i)


def _m(tab: _PairTable, i: int) -> complex:
    a, b = tab.a_site, tab.b_site
    return complex(
        _gamma(tab, i, 0, i) * a[0] * b[i]
        + _gamma(tab, i, i, 0) * a[i] * b[0]
    )


def n_coeff(j: int, i: int, vars_, params: ModelParams) -> complex:
    """Coefficient of the double-removal term in the functional hierarchy."""
    return _n(_PairTable(vars_, params), j, i)


def _n(tab: _PairTable, j: int, i: int) -> complex:
    a, b = tab.a_site, tab.b_site
    return complex(
        _omega(tab, i, j) * a[i] * b[j]
        + _omega(tab, j, i) * a[j] * b[i]
    )


@dataclass(frozen=True)
class EigenState:
    """One transfer-matrix eigenstate with its overlap data.

    The left vector is transpose-sense; `lam` evaluates the eigenvalue
    function at any spectral parameter through the sandwiched transfer
    matrix, valid because the family commutes.  `lam` is a one-point
    read of `values`, which reads many states or many points at once.
    """

    index: int
    right: np.ndarray
    left: np.ndarray
    norm: complex
    f0: complex
    f0bar: complex
    params: ModelParams

    @property
    def k0(self) -> complex:
        if not self.k0_defined:
            raise K0Undefined(f"state {self.index} has no overlap with |up>")
        return self.f0bar / self.f0

    @property
    def k0_defined(self) -> bool:
        return abs(self.f0) >= EPS_GENERIC * np.linalg.norm(self.left)

    def lam(self, x: complex) -> complex:
        return complex(values([self], [x])[0, 0])


def values(states, points) -> np.ndarray:
    """The eigenvalue of each of `states` (eigenstates of one
    diagonalization) at each of `points`, as a (states x points) array:
    points shared by every state, shape (P,), or one row of points per
    state, shape (states, P), read one state at a time.

    The transfer matrices of all points are gathered into one
    `BlockOperators` of the blocks (0, 1) + (1, 0); each point is scattered
    into its reused dense buffer and read by every state at once as the
    stacked sandwich ``((lefts[:, None, :] @ t) @ rights[:, :, None]) /
    norms``, one vector-matrix and one dot product per state, so entry
    [k, j] equals ``left @ transfer(points[j]) @ right / norm`` of state k
    bit for bit.  (``lefts @ t`` as one matrix product would move the
    bits.)  No states need no gather.
    """
    points = np.array(list(points), dtype=complex)
    if points.ndim == 2:
        return np.array([values([st], row)[0] for st, row
                         in zip(states, points)],
                        dtype=complex).reshape(points.shape)
    out = np.empty((len(states), len(points)), dtype=complex)
    if not states or not len(points):
        return out
    lefts = np.array([st.left for st in states])[:, None, :]
    rights = np.array([st.right for st in states])[:, :, None]
    norms = np.array([st.norm for st in states])
    ts = BlockOperators(points, states[0].params, 1, 3)
    for j in range(len(points)):
        out[:, j] = ((lefts @ ts[j]) @ rights)[:, 0, 0] / norms
    return out


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
        i, j = np.triu_indices(len(vals), 1)
        spacing_ok = bool(np.all(np.abs(vals[i] - vals[j]) > 1e-6 * scale))
        norms = [complex(tr.left @ tr.right) for tr in trips]
        if any(abs(norm) < 1e-10 for norm in norms):
            last_exc = DegenerateSpectrum("vanishing left/right overlap")
            continue
        states = [
            EigenState(
                index=idx,
                right=tr.right,
                left=tr.left,
                norm=norm,
                f0=complex(tr.left @ up),
                f0bar=complex(tr.left @ down),
                params=params,
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


def check_tphi(n: int, vars_, params: ModelParams) -> float:
    """Operator-identity residual of the order-(n+1) exchange relation, in
    the Frobenius norm relative to its left side, formed on the
    weight-sector blocks (`BlockOperators.blocks`) of B at every point, C at
    v_0 and, for n >= 1, A and D at every point.  `vars_` holds v_0, ...,
    v_n."""
    v = tuple(vars_)
    if len(v) != n + 1:
        raise ValueError("need n+1 spectral parameters")

    def read(k, points):
        # the auxiliary block k = 2a + c of the monodromy at each point
        ops = BlockOperators(points, params, k, k + 1)
        return [ops.blocks(j) for j in range(len(points))]

    def product(factors):
        return functools.reduce(_bmatmul, factors)

    b, c0 = read(1, v), read(2, v[:1])[0]
    a, d = (read(0, v), read(3, v)) if n else ((), ())
    tab = _PairTable(v, params)
    # the slot pairs (i, j) of the A D terms, with the coefficients of
    # A(v_i) D(v_j) and A(v_j) D(v_i)
    pairs = [(0, i, _gamma(tab, i, 0, i), _gamma(tab, i, i, 0))
             for i in range(1, n + 1)]
    pairs += [(i, j, _omega(tab, i, j), _omega(tab, j, i))
              for i, j in itertools.combinations(range(1, n + 1), 2)]
    # B and C change the weight in opposite directions: disjoint blocks
    lhs = product([b[0] | c0] + b[1:])
    # the pass-through annihilator term [X^{1,n}] C(v_0) is required for the
    # identity to close on the full space; it dies on |up> in the scalar
    # realization.  Each A D term follows the B's of the other slots.
    rhs = [product(b), product(b[1:] + [c0])]
    rhs += [product([b[t] for t in range(n + 1) if t not in (i, j)]
                    + [_bcombine([(c_ij, _bmatmul(a[i], d[j])),
                                  (c_ji, _bmatmul(a[j], d[i]))])])
            for i, j, c_ij, c_ji in pairs]
    diff = _bsub(lhs, _bcombine((1, x) for x in rhs))
    return _bnorm(diff.values()) / _bnorm(lhs.values())


def check_fl(n: int, states, vars_, params: ModelParams) -> np.ndarray:
    """Residuals of the functional hierarchy at order n, one per state of
    `states` (eigenstates of one diagonalization), each relative to the
    largest participating term of that state.

    Only the string overlaps and the eigenvalue depend on the state.  The
    coefficients, one gather of every B(v_t) and each B-string on |up>
    (strings with a common suffix share its vector) are computed once per
    call; one product with the stacked left vectors gives every state's
    overlaps, and one transfer gather (`values`) every state's eigenvalue
    at v_0.
    """
    v = tuple(vars_)
    if len(v) != n + 1:
        raise ValueError("need n+1 spectral parameters")
    tab = _PairTable(v, params)
    rest = range(1, n + 1)  # the slots after v_0
    pairs = [(i, j) for i in rest for j in range(i + 1, n + 1)]
    coeffs = [_m(tab, i) for i in rest] + [_n(tab, j, i) for i, j in pairs]
    # the slots of each string: the left side, the order-(n+1) term, then
    # one per coefficient, in the order of `coeffs`
    slots = ([tuple(rest), tuple(range(n + 1))]
             + [tuple(t for t in rest if t != i) for i in rest]
             + [tuple(t for t in range(n + 1) if t not in pair)
                for pair in pairs])
    # strings longer than L annihilate |up>; their overlaps stay 0
    cols = [k for k, key in enumerate(slots) if len(key) <= params.L]
    f = np.zeros((len(states), len(slots)), dtype=complex)
    f[:, cols] = (np.array([st.left for st in states])
                  @ np.column_stack(BOperators(v, params).strings(
                      slots[k] for k in cols)))
    lhs = values(states, [v[0]])[:, 0] * f[:, 0]
    terms = [lhs, f[:, 1]]
    acc = f[:, 1]
    for k, coeff in enumerate(coeffs):
        term = coeff * f[:, 2 + k]
        terms.append(term)
        acc = acc + term
    scale = np.max(np.abs(terms), axis=0)
    return np.divide(np.abs(lhs - acc), scale, out=np.zeros(len(states)),
                     where=scale != 0.0)


@functools.cache
def _assignments(m: int):
    """The (j, k) assignments of 2m removed slots, as positions in their
    list: J (nJ, m) holds each choice j_1 < ... < j_m, K (nJ, m!, m) every
    ordering of the positions J leaves; and the pairs r < s of 0..m-1."""
    J = np.array(list(itertools.combinations(range(2 * m), m)), dtype=np.intp)
    rest = np.array([[q for q in range(2 * m) if q not in row] for row in J],
                    dtype=np.intp)
    K = rest[:, np.array(list(itertools.permutations(range(m))), dtype=np.intp)]
    return J, K, np.triu_indices(m, 1)


def v_coeff(m: int, indices, vars_, params: ModelParams) -> complex:
    """Summed coefficient attached to 2m removed slots in the eigenvalue
    expansion of the partition function.

    `indices` lists the removed slots i_1 < ... < i_2m within `vars_`
    (the full ordered variable vector); m = 0 returns 1.
    """
    idx = tuple(indices)
    if len(idx) != 2 * m or list(idx) != sorted(set(idx)):
        raise ValueError("indices must be 2m strictly increasing slots")
    return _v(_PairTable(vars_, params), m, idx)


def _v(tab: _PairTable, m: int, idx: tuple) -> complex:
    if m == 0:
        return 1.0 + 0j
    idx = np.array(idx)
    kept = np.delete(np.arange(tab.n), idx)
    # per removed slot, its site product and its ratios to every kept slot
    jf = tab.a_site[idx] * np.prod(tab.read("a_b", kept[:, None], idx), axis=0)
    kf = tab.b_site[idx] * np.prod(tab.read("a_b", idx[:, None], kept), axis=1)
    J, K, (r, s) = _assignments(m)
    sj, sk = idx[J][:, None, :], idx[K]
    kfac = (np.prod(kf[K] * tab.read("c_b", sj, sk), axis=2)
            * np.prod(tab.read("a_b", sk[..., r], sk[..., s])
                      * tab.read("a_b", sk[..., r], sj[..., s])
                      * tab.read("ag_b", sk[..., s], sj[..., r]), axis=2))
    jfac = np.prod(jf[J], axis=1)
    return complex(np.sum(jfac * np.sum(kfac, axis=1)))


def _top_indices(L: int) -> tuple:
    """Removed-slot set of the surviving expansion coefficient once the
    eigenvalue zeroes are substituted: all slots for even L, all but the
    free slot 0 for odd L."""
    return tuple(range(L % 2, L))


@functools.cache
def _top_plan(L: int):
    """The terms of `_v` at `_top_indices(L)` over L slots, each split
    into the factors that read slot 0 and those that do not, and grouped
    by their slot-0 factors (at odd L a group is one row J).

    Returns ``(slot0, free, starts)``: row g of `slot0` indexes group g's
    slot-0 factors in the vector that `TopCoefficient.at` builds;
    row i of `free` indexes term i's other factors in `_PairTable.flat()`
    of slots 1..L-1, the terms in group order; `starts` holds each group's
    first term.  Short rows are padded with index 0, which holds 1.
    """
    idx = _top_indices(L)
    r = L - 1
    kept = [t for t in range(L) if t not in idx]
    J, K, (rs, ss) = _assignments(len(idx) // 2)

    def at_slot0(name, s, t):
        # 1, a_site, b_site, then per ratio its (0, t) and (t, 0) entries
        if name in ("a_site", "b_site"):
            return 1 + (name == "b_site")
        base = 3 + 2 * r * _RATIOS.index(name)
        return base + t - 1 if s == 0 else base + r + s - 1

    def off_slot0(name, s, t):
        if name in ("a_site", "b_site"):
            return 1 + r * (name == "b_site") + s - 1
        return 1 + 2 * r + r * r * _RATIOS.index(name) + (s - 1) * r + t - 1

    groups = {}
    for row, perms in zip(J, K):
        sj = [idx[q] for q in row]
        for perm in perms:
            sk = [idx[q] for q in perm]
            factors = ([("a_site", j, j) for j in sj]
                       + [("a_b", k, j) for j in sj for k in kept]
                       + [("b_site", k, k) for k in sk]
                       + [("a_b", k, t) for k in sk for t in kept]
                       + [("c_b", j, k) for j, k in zip(sj, sk)]
                       + [f for a, b in zip(rs, ss)
                          for f in (("a_b", sk[a], sk[b]), ("a_b", sk[a], sj[b]),
                                    ("ag_b", sk[b], sj[a]))])
            key = tuple(sorted(at_slot0(*f) for f in factors if 0 in f[1:]))
            groups.setdefault(key, []).append(
                [off_slot0(*f) for f in factors if 0 not in f[1:]])

    def padded(rows):
        out = np.zeros((len(rows), max(map(len, rows))), dtype=np.intp)
        for i, row in enumerate(rows):
            out[i, :len(row)] = row
        return out

    sizes = [len(terms) for terms in groups.values()]
    return (padded(list(groups)),
            padded([term for terms in groups.values() for term in terms]),
            np.cumsum([0] + sizes[:-1]))


class TopCoefficient:
    """The maximal expansion coefficient
    ``v_coeff(m, _top_indices(L), (x,) + rest)`` over L = len(rest) + 1
    slots, for each row `rest` of a (sets x L-1) array, as a function of
    the slot-0 variable x.

    Only slot 0 moves, so the factors of `_v`'s terms that do not read it
    are multiplied and summed once here, per set and per group of terms
    with the same slot-0 factors (`_top_plan`); `at` multiplies each group
    sum by its slot-0 factors.  Where `v_coeff` raises `PoleEncountered`,
    at two slots closer than EPS_GENERIC (two slots of a set's `rest`, or
    x and a slot of `rest`), the set is flagged instead, so that a pole in
    one set leaves the values of the others as they are.
    """

    def __init__(self, rests, params: ModelParams):
        g = params.gamma
        self._rest = np.asarray(rests, dtype=complex)
        self._mu = np.asarray(params.mu)
        self._shifts = np.array([[0.0], [g], [g + g]])
        self._site_shifts = np.array([[g], [0.0]])
        self._c = np.sinh(g)
        self._slot0, free, starts = _top_plan(self._rest.shape[1] + 1)
        flat, self._pole = _PairTable(self._rest, params).flat()
        # one factor at a time keeps the transient at two (sets x terms) arrays
        terms = flat[:, free[:, 0]]
        for k in range(1, free.shape[1]):
            terms *= flat[:, free[:, k]]
        self._sums = np.add.reduceat(terms, starts, axis=1)

    def at(self, x) -> tuple[np.ndarray, np.ndarray]:
        """The coefficient of every set at the points x, shape (P,), as a
        (sets x points) array.  Also returns per set whether it met a
        pole; its values are then meaningless."""
        rest, sums = self._rest, self._sums
        x = np.broadcast_to(x, (len(rest), len(x)))
        # x - v_t, then v_t - x, over the slots t of rest; shifted by 0, g, 2g
        d = x[:, :, None] - rest[:, None, :]
        s = np.sinh(np.concatenate((d, -d), axis=2)[:, :, None, :] + self._shifts)
        near = np.abs(s[:, :, 0]) < EPS_GENERIC
        pole = self._pole | near.any(axis=(1, 2))
        b = np.where(near, 1.0, s[:, :, 0])
        site = np.prod(np.sinh(x[:, :, None, None] - self._mu + self._site_shifts),
                       axis=3)
        vals = np.concatenate(
            (np.ones(x.shape + (1,)), site,
             (s[:, :, 1:] / b[:, :, None]).reshape(x.shape + (-1,)), self._c / b),
            axis=2)
        # one point and one slot-0 factor at a time keeps the transient at
        # one (sets x groups) array
        out = np.empty(x.shape, dtype=complex)
        for j in range(x.shape[1]):
            prods = vals[:, j, self._slot0[:, 0]]
            for k in range(1, self._slot0.shape[1]):
                prods = prods * vals[:, j, self._slot0[:, k]]
            out[:, j] = np.sum(prods * sums, axis=1)
        return out, pole


def oracle_residuals(params: ModelParams, v=None, *, i=None, pair=None,
                     i2=None, j2=None, vv=None, mm=None, idx=None) -> dict:
    """Relative errors |ref - alt| / |ref| of the coefficient functions
    against their second transcriptions in `prefix_oracle`, at one draw of
    variables and slots.  `v` holds the n + 1 variables of the exchange and
    hierarchy coefficients, `vv` those of the expansion coefficient; a
    coefficient whose slots are not given is left out:

    * ``gamma``: ``gamma_coeff(i, *pair)`` at `v`; ``m``: ``m_coeff(i)``;
    * ``omega``: ``omega_coeff(i2, j2)`` and ``n``: ``n_coeff(j2, i2)``;
    * ``v``: ``v_coeff(mm, idx)`` at `vv`.
    """
    out = {}

    def rel(key, ref, alt):
        out[key] = abs(ref - alt) / max(abs(ref), 1e-300)

    if pair is not None:
        rel("gamma", gamma_coeff(i, pair[0], pair[1], v, params),
            oracle_gamma(i, pair[0], pair[1], v, params))
    if i is not None:
        rel("m", m_coeff(i, v, params), oracle_m(i, v, params))
    if j2 is not None:
        rel("omega", omega_coeff(i2, j2, v, params),
            oracle_omega(i2, j2, v, params))
        rel("n", n_coeff(j2, i2, v, params), oracle_n(j2, i2, v, params))
    if idx is not None:
        rel("v", v_coeff(mm, idx, vv, params), oracle_v(mm, idx, vv, params))
    return out


def even_floor(x: int) -> int:
    """x for even x, x - 1 for odd x."""
    return x if x % 2 == 0 else x - 1


def expansion_coeffs(vars_, params: ModelParams) -> list:
    """(removed slots, V coefficient) for every summand of the eigenvalue
    expansion over `vars_`, in summation order.  They do not depend on the
    eigenstate, so one list serves every state at the same variables."""
    tab = _PairTable(vars_, params)
    return [
        (idx, _v(tab, m, idx))
        for m in range(even_floor(tab.n) // 2 + 1)
        for idx in itertools.combinations(range(tab.n), 2 * m)
    ]


def theorem_terms(lams, coeffs) -> np.ndarray:
    """Individual summands of the eigenvalue expansion over variables
    `vars_`, along the first axis, with `coeffs` =
    ``expansion_coeffs(vars_, params)`` and `lams` the eigenvalues at
    `vars_` along its last axis (one row per state, or one state)."""
    lams = np.asarray(lams)
    slots = range(lams.shape[-1])
    return np.array([
        coeff * np.prod(lams[..., [t for t in slots if t not in idx]], axis=-1)
        for idx, coeff in coeffs])


def theorem_rhs(vars_, lams, params: ModelParams):
    """Eigenvalue-side of the partition-function expansion over `vars_`,
    from the eigenvalues `lams` there (see `theorem_terms`)."""
    return theorem_terms(lams, expansion_coeffs(vars_, params)).sum(axis=0)


def theorem_permutation_residual(vars_, lams, params: ModelParams) -> float:
    """Change of the eigenvalue side of the expansion when the first two
    variables swap, relative to its value, from one state's eigenvalues
    `lams` at `vars_`; Z is symmetric, so it must not change.  It stays
    symmetric for any values in place of the eigenvalues, so the residual
    tests the expansion coefficients."""
    v = tuple(vars_)
    swap = [1, 0, *range(2, len(v))] if len(v) >= 2 else [0]
    rhs = theorem_rhs(v, lams, params)
    swapped = theorem_rhs([v[k] for k in swap], np.asarray(lams)[swap], params)
    return float(abs(rhs - swapped) / max(abs(rhs), 1e-300))


def check_theorem(states, vars_, params: ModelParams) -> list:
    """Residual of Z * k0 against the eigenvalue expansion, relative to
    |Z k0|, one per state of `states` (k0-defined eigenstates of one
    diagonalization), which share Z and the expansion coefficients."""
    v = tuple(vars_)
    if len(v) != params.L:
        raise ValueError("need exactly L spectral parameters")
    lhs = z_bproduct(v, params) * np.array([st.k0 for st in states])
    rhs = theorem_rhs(v, values(states, v), params)
    return (np.abs(lhs - rhs) / np.maximum(np.abs(lhs), 1e-300)).tolist()


def k0_closed_form_residual(states, params: ModelParams) -> list:
    """Residual of the L = 2 closed form
    k0 = Lambda(mu_1) Lambda(mu_2) / (c^2 sinh(mu_1 - mu_2 + g) sinh(mu_2 - mu_1 + g)),
    relative to the closed-form value, one per state of `states`
    (k0-defined eigenstates of one diagonalization)."""
    if params.L != 2:
        raise ValueError("the k0 closed form is stated for L = 2")
    mu, g = params.mu, params.gamma
    denom = (np.sinh(g) ** 2 * np.sinh(mu[0] - mu[1] + g)
             * np.sinh(mu[1] - mu[0] + g))
    out = []
    for state, (lam0, lam1) in zip(states, values(states, mu).tolist()):
        ref = lam0 * lam1 / denom
        out.append(abs(state.k0 - ref) / max(abs(ref), 1e-300))
    return out


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
