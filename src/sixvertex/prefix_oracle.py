"""Independent second transcription of the coefficient functions.

Each coefficient formula is written out again here, without the pair
tables of `functional_system` and importing nothing from the package; the
`functional.oracle.*` gate compares the two transcriptions.  a(x) =
sinh(x + gamma), b(x) = sinh(x), c = sinh(gamma); `v` is (v_0, ..., v_n),
`mu` the L inhomogeneities.  Every product starts from 1 and every sum
from 0, taken left to right as the formula is written: the bits of the
prefix-form (s-expression) text the formulas were once evaluated from.
The module keeps that name because the benchmark's tracer reports the
oracle as the `prefix_oracle` layer.
"""

from __future__ import annotations

import itertools

import numpy as np


def _ratio(x, gamma):
    """a(x) / b(x)."""
    return np.sinh(x + gamma) / np.sinh(x)


def _site_prod(x, y, mu, gamma):
    """prod_q a(x - mu_q) b(y - mu_q)."""
    out = 1
    for mq in mu:
        out = out * (1 * np.sinh(x - mq + gamma) * np.sinh(y - mq))
    return out


def _gamma(i, j, k, v, gamma):
    out = 1
    for t in range(1, len(v)):
        if t != i:
            out = out * (1 * _ratio(v[k] - v[t], gamma) * _ratio(v[t] - v[j], gamma))
    return 1 * (np.sinh(gamma) / np.sinh(v[k] - v[j])) * out


def _omega(i, j, v, gamma):
    c = np.sinh(gamma)
    out = 1
    for t in range(len(v)):
        if t != i and t != j:
            out = out * (1 * _ratio(v[j] - v[t], gamma) * _ratio(v[t] - v[i], gamma))
    return (1 * (c / np.sinh(v[j] - v[0] + gamma)) * (c / np.sinh(v[0] - v[i] + gamma))
            * _ratio(v[j] - v[i], gamma) * out)


def oracle_gamma(i, j, k, vars_, params):
    """Gamma = c / b(v_k - v_j) prod_{t in 1..n, t != i}
    a(v_k - v_t) / b(v_k - v_t) a(v_t - v_j) / b(v_t - v_j)."""
    return complex(_gamma(i, j, k, tuple(vars_), complex(params.gamma)))


def oracle_omega(i, j, vars_, params):
    """Omega = c / a(v_j - v_0) c / a(v_0 - v_i) a(v_j - v_i) / b(v_j - v_i)
    prod_{t in 0..n, t != i, j}
    a(v_j - v_t) / b(v_j - v_t) a(v_t - v_i) / b(v_t - v_i)."""
    return complex(_omega(i, j, tuple(vars_), complex(params.gamma)))


def oracle_m(i, vars_, params):
    """M = Gamma(i; 0, i) prod_q a(v_0 - mu_q) b(v_i - mu_q)
    + Gamma(i; i, 0) prod_q a(v_i - mu_q) b(v_0 - mu_q),
    with Gamma(i; j, k) as in `oracle_gamma`."""
    v, mu, g = tuple(vars_), tuple(params.mu), complex(params.gamma)
    return complex(0 + 1 * _gamma(i, 0, i, v, g) * _site_prod(v[0], v[i], mu, g)
                   + 1 * _gamma(i, i, 0, v, g) * _site_prod(v[i], v[0], mu, g))


def oracle_n(j, i, vars_, params):
    """N = Omega(i, j) prod_q a(v_i - mu_q) b(v_j - mu_q)
    + Omega(j, i) prod_q a(v_j - mu_q) b(v_i - mu_q),
    with Omega as in `oracle_omega`."""
    v, mu, g = tuple(vars_), tuple(params.mu), complex(params.gamma)
    return complex(0 + 1 * _omega(i, j, v, g) * _site_prod(v[i], v[j], mu, g)
                   + 1 * _omega(j, i, v, g) * _site_prod(v[j], v[i], mu, g))


def oracle_v(m, indices, vars_, params):
    """V = sum over m-subsets J of I, in `combinations` order, of
    prod_l [prod_q a(v_{J_l} - mu_q)
            prod_{t not in I} a(v_t - v_{J_l}) / b(v_t - v_{J_l})]
    times the sum over orderings K of I \\ J, in `permutations` order, of
    prod_l [prod_q b(v_{K_l} - mu_q) c / b(v_{J_l} - v_{K_l})
            prod_{t not in I} a(v_{K_l} - v_t) / b(v_{K_l} - v_t)]
    prod_{r < s} a(v_{K_r} - v_{K_s}) / b(v_{K_r} - v_{K_s})
    a(v_{K_r} - v_{J_s}) / b(v_{K_r} - v_{J_s})
    a(v_{K_s} - v_{J_r} + gamma) / b(v_{K_s} - v_{J_r});
    I = `indices`, and V = 1 at m = 0."""
    if m == 0:
        return 1.0 + 0j
    v, mu, g = tuple(vars_), tuple(params.mu), complex(params.gamma)
    c = np.sinh(g)
    outside = [t for t in range(len(v)) if t not in indices]
    total = 0
    for J in itertools.combinations(indices, m):
        left = 1
        for jl in J:
            sites = 1
            for mq in mu:
                sites = sites * np.sinh(v[jl] - mq + g)
            outs = 1
            for t in outside:
                outs = outs * _ratio(v[t] - v[jl], g)
            left = left * (1 * sites * outs)
        perms = 0
        for K in itertools.permutations([s for s in indices if s not in J]):
            right = 1
            for jl, kl in zip(J, K):
                sites = 1
                for mq in mu:
                    sites = sites * np.sinh(v[kl] - mq)
                outs = 1
                for t in outside:
                    outs = outs * _ratio(v[kl] - v[t], g)
                right = right * (1 * sites * (c / np.sinh(v[jl] - v[kl])) * outs)
            pairs = 1
            for r, s in itertools.combinations(range(m), 2):
                shifted = v[K[s]] - v[J[r]]
                pairs = pairs * (1 * _ratio(v[K[r]] - v[K[s]], g)
                                 * _ratio(v[K[r]] - v[J[s]], g)
                                 * (np.sinh(0 + shifted + g + g) / np.sinh(shifted)))
            perms = perms + 1 * right * pairs
        total = total + 1 * left * perms
    return complex(total)
