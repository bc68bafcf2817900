"""Domain-wall partition function: creation-operator product definition, an
independent determinant oracle, and the residuals of the dwbc checks."""

from __future__ import annotations

import numpy as np

from .errors import SingularDenominator
from .vertex_core import (
    EPS_GENERIC,
    BOperators,
    ModelParams,
    _bnorm2,
    is_generic,
    reference_states,
)


def b_product_state(lams, params: ModelParams) -> np.ndarray:
    """Apply the ordered product of B operators to the all-up state."""
    ops = BOperators(lams, params)
    return ops.strings([range(len(ops))])[0]


def z_bproduct(lams, params: ModelParams) -> complex:
    """Partition function <down| B(lam_1)...B(lam_L) |up>."""
    lams = list(lams)
    if len(lams) != params.L:
        raise ValueError("need exactly L spectral parameters")
    _, down = reference_states(params.L)
    return complex(down @ b_product_state(lams, params))


def z_izergin(lams, params: ModelParams) -> complex:
    """Determinant oracle for the partition function.

    Convention factor calibrated once against the B-product at L = 1, 2
    (it is unity in these weight conventions) and frozen.
    """
    lams = np.asarray(list(lams), dtype=complex)
    mu = np.asarray(params.mu, dtype=complex)
    n = params.L
    if len(lams) != n:
        raise ValueError("need exactly L spectral parameters")
    g = params.gamma
    diff = lams[:, None] - mu[None, :]
    sa = np.sinh(diff + g)
    sb = np.sinh(diff)
    numerator = np.prod(sa) * np.prod(sb)
    denom = 1.0 + 0j
    for i in range(n):
        for j in range(i + 1, n):
            dl = np.sinh(lams[i] - lams[j])
            dm = np.sinh(mu[j] - mu[i])
            if abs(dl) < EPS_GENERIC or abs(dm) < EPS_GENERIC:
                raise SingularDenominator(
                    "coinciding spectral parameters in determinant formula"
                )
            denom *= dl * dm
    kernel = np.sinh(g) / (sa * sb)
    return complex(numerator / denom * np.linalg.det(kernel))


def _off_down_ray(v: np.ndarray, down: np.ndarray) -> float:
    off = v - complex(down @ v) * down
    scale = np.linalg.norm(v)
    return np.linalg.norm(off) / scale if scale > 0 else np.inf


def draw_residuals(lams, perm, shift: complex, over,
                   params: ModelParams) -> dict:
    """Residuals of one draw of the domain-wall checks, gathering each
    string's B(x) in one call; Z and the permuted string share theirs.

    `lams` holds L points and `perm` the same points reordered; `shift`
    moves points and inhomogeneities together; `over` holds L + 1 points.
    With Z = Z(lams):

    * ``permutation``: |Z(perm) - Z| / |Z|;
    * ``oracle_agreement``, for generic inhomogeneities and L >= 2 only:
      |Z - Z_det| / |Z_det| against the determinant `z_izergin`;
    * ``shift_invariance``: |Z(lams + shift; mu + shift) - Z| / |Z|;
    * ``highest_weight``: the part of B(lams)|up> off the |down> ray,
      relative to its norm;
    * ``overflow_string``: ||B(over)|up>|| / prod_x ||B(x)||_2, as L + 1
      creation operators annihilate |up>; for a nonzero string the B(x)
      of the scale are read again from the string's gather, and each
      2-norm is the largest over the weight-sector blocks of its B(x)
      (`_bnorm2`).
    """
    L = params.L
    if len(lams) != L:
        raise ValueError("need exactly L spectral parameters")
    _, down = reference_states(L)
    ops = BOperators(lams, params)
    at = {x: j for j, x in enumerate(lams)}
    vec, pvec = ops.strings([range(L), [at[x] for x in perm]])
    del ops
    z = complex(down @ vec)
    zperm = complex(down @ pvec)
    out = {"permutation": abs(zperm - z) / max(abs(z), 1e-300)}
    if is_generic(params) and L >= 2:
        zi = z_izergin(lams, params)
        out["oracle_agreement"] = abs(z - zi) / max(abs(zi), 1e-300)
    shifted = ModelParams(L, params.gamma, tuple(m + shift for m in params.mu))
    zs = z_bproduct([x + shift for x in lams], shifted)
    out["shift_invariance"] = abs(zs - z) / max(abs(z), 1e-300)
    out["highest_weight"] = _off_down_ray(vec, down)
    # the string is exactly zero while the B(x) keep the magnetization
    # sectors apart, and then reads 0.0 whatever the scale: the 2-norms,
    # an SVD per block, are taken only for a nonzero string
    ops = BOperators(over, params)
    over_norm = np.linalg.norm(ops.strings([range(len(ops))])[0])
    if over_norm != 0.0:
        scale = np.prod([_bnorm2(ops.blocks(j)) for j in range(len(ops))])
        over_norm = over_norm / max(scale, 1e-300)
    out["overflow_string"] = over_norm
    return out


def underflow_residual(lams, params: ModelParams) -> float:
    """|down> component of fewer than L creation operators on |up>,
    relative to the norm of the image; it vanishes by spin counting."""
    _, down = reference_states(params.L)
    vec = b_product_state(lams, params)
    return abs(down @ vec) / max(np.linalg.norm(vec), 1e-300)
