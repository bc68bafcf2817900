"""Domain-wall partition function: creation-operator product definition and
an independent determinant oracle."""

from __future__ import annotations

import numpy as np

from .errors import SingularDenominator
from .vertex_core import EPS_GENERIC, ModelParams, b_operator, reference_states


def b_product_state(lams, params: ModelParams) -> np.ndarray:
    """Apply the ordered product of B operators to the all-up state."""
    up, _ = reference_states(params.L)
    v = up
    for lam in reversed(list(lams)):
        v = b_operator(lam, params) @ v
    return v


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


def check_highest_weight(lams, params: ModelParams) -> float:
    """Verify that L creation operators send |up> onto the |down> ray.

    Returns the norm of the component off that ray, relative to the norm
    of the image.
    """
    lams = list(lams)
    if len(lams) != params.L:
        raise ValueError("need exactly L spectral parameters")
    v = b_product_state(lams, params)
    _, down = reference_states(params.L)
    off = v - complex(down @ v) * down
    scale = np.linalg.norm(v)
    return np.linalg.norm(off) / scale if scale > 0 else np.inf
