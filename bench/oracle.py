"""Independent numpy references for the float layer's outputs.

Nothing here calls torickit's jet or curvature code.  The metric is
rebuilt from the polytope's forms, G = 1/2 (sum_k u_k u_k^T / lambda_k
+ Hess h), and for the canonical potential (h = 0) the scalar curvature
has the closed form, with C = U G^{-1} U^T,

    s = sum_a C_aa^2 / lambda_a^3
        - 1/4 sum_ab (C_ab^3 + C_aa C_ab C_bb) / (lambda_a lambda_b)^2,

which agrees with the package's analytic curvature to about 1e-13.
"""

from __future__ import annotations

import numpy as np


def lambdas(normals, offsets, points):
    return np.atleast_2d(points) @ normals.T - offsets


def metric(normals, offsets, points, hess_h=None):
    """G at each point (rows of `points`); `hess_h(points)` adds Hess h."""
    lam = lambdas(normals, offsets, points)
    g = 0.5 * np.einsum("ki,kj,pk->pij", normals, normals, 1.0 / lam)
    if hess_h is not None:
        g = g + 0.5 * hess_h(np.atleast_2d(points))
    return g


def guillemin_curvature(normals, offsets, points):
    lam = lambdas(normals, offsets, points)
    gi = np.linalg.inv(metric(normals, offsets, points))
    c = np.einsum("ai,pij,bj->pab", normals, gi, normals)
    d = np.einsum("paa->pa", c)
    first = (d**2 / lam**3).sum(axis=1)
    pair = (lam[:, :, None] * lam[:, None, :]) ** 2
    second = ((c**3 + d[:, :, None] * c * d[:, None, :]) / pair).sum(axis=(1, 2))
    return first - 0.25 * second


def hess_x2y2_over_100(points):
    """Hess of h = x^2 y^2 / 100."""
    x, y = points[:, 0], points[:, 1]
    out = np.empty((len(points), 2, 2))
    out[:, 0, 0] = 2.0 * y**2 / 100.0
    out[:, 1, 1] = 2.0 * x**2 / 100.0
    out[:, 0, 1] = out[:, 1, 0] = 4.0 * x * y / 100.0
    return out


def rel_err(got, want) -> float:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))
