"""Scalar curvature of Hessian metrics and affinity diagnostics.

The scalar curvature of the metric with potential g is

    s(x) = - sum_{j,k} d^2 g^{jk} / dx_j dx_k

computed analytically from the metric jet via

    d_j G^{-1}     = - G^{-1} (d_j G) G^{-1}
    d_k d_j G^{-1} =   G^{-1} (d_k G) G^{-1} (d_j G) G^{-1}
                     + G^{-1} (d_j G) G^{-1} (d_k G) G^{-1}
                     - G^{-1} (d_k d_j G) G^{-1}

or, as an independent route, by Richardson-extrapolated central
differences of the entries of G^{-1}.  The canonical potential (h = 0)
uses Abreu's closed form in C = U G^{-1} U^T, the metric pairings of the
normals,

    s = sum_a C_aa^2 / lambda_a^3
        - 1/4 sum_ab (C_ab^3 + C_aa C_ab C_bb) / (lambda_a lambda_b)^2,

evaluated in Q_ab = C_ab / sqrt(lambda_a lambda_b), which is of order one
however large the polytope, as

    s = sum_a Q_aa^2 / lambda_a
        - 1/4 sum_ab (Q_ab^3 + Q_aa Q_ab Q_bb) / sqrt(lambda_a lambda_b),

and a perturbed potential the jet formula above.  Both run in batches
from `metric_jets`; one point is a batch of one row.  Canonical
potentials give s = 4 on the unit interval, 12 on the unit simplex, 8 on
the unit square; a metric is extremal exactly when s is an affine
function.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import sampling
from .errors import DegenerateSampleSet
from .potential import MetricBatch, SymplecticPotential, metric_jet, metric_jets

FD_STEP_FRACTION = 24.0       # step = interior distance / 24
FD_MARGIN_FACTOR = 10.0       # require distance >= 10 * step
AFFINITY_RTOL = 1e-6


def scalar_curvature(pot: SymplecticPotential, x) -> float:
    """Analytic scalar curvature at an interior point: the one-row batch."""
    return float(scalar_curvatures(pot, [x])[0])


def _curvature_rows(pot: SymplecticPotential, b: MetricBatch) -> np.ndarray:
    """Analytic scalar curvature at every row of a batch."""
    gi = b.G_inv
    if pot.h.is_zero:
        r = 1.0 / np.sqrt(b.lam)                    # lambda_a^{-1/2}
        w = r[:, :, None] * pot.polytope.normals_float
        q = w @ gi @ w.swapaxes(1, 2)
        d = np.diagonal(q, axis1=1, axis2=2)
        cubic = q**3 + d[:, :, None] * q * d[:, None, :]
        return np.sum(d**2 * r**2, axis=1) - 0.25 * np.einsum("pa,pab,pb->p", r, cubic, r)
    a = gi[:, None] @ b.dG @ gi[:, None]        # a[:, k] = G^-1 (d_k G) G^-1
    return (
        np.einsum("pjc,pkjcd,pdk->p", gi, b.d2G, gi)
        - np.einsum("pkjc,pjcd,pdk->p", a, b.dG, gi)
        - np.einsum("pjjc,pkcd,pdk->p", a, b.dG, gi)
    )


def _curvature_batches(pot: SymplecticPotential, points):
    """Batches carrying what `_curvature_rows` needs."""
    return metric_jets(pot, points, with_derivatives=not pot.h.is_zero)


def scalar_curvatures(pot: SymplecticPotential, points) -> np.ndarray:
    """Analytic scalar curvature at each row of `points`, in batches."""
    return np.concatenate([_curvature_rows(pot, b) for b in _curvature_batches(pot, points)])


def _ginv_entry_hessian(pot, x, h):
    """Central second differences of all entries of G^{-1} at step h."""
    n = len(x)
    cache: dict[tuple[int, ...], np.ndarray] = {}

    def ginv(offset):
        key = tuple(offset)
        got = cache.get(key)
        if got is None:
            got = metric_jet(pot, x + h * np.array(offset, dtype=float)).G_inv
            cache[key] = got
        return got

    center = ginv((0,) * n)
    out = np.empty((n, n))
    for j in range(n):
        for k in range(n):
            if j == k:
                ej = tuple(int(i == j) for i in range(n))
                mj = tuple(-int(i == j) for i in range(n))
                out[j, k] = (ginv(ej)[j, k] - 2.0 * center[j, k] + ginv(mj)[j, k]) / h**2
            else:
                pp = tuple(int(i == j) + int(i == k) for i in range(n))
                mm = tuple(-int(i == j) - int(i == k) for i in range(n))
                pm = tuple(int(i == j) - int(i == k) for i in range(n))
                mp = tuple(int(i == k) - int(i == j) for i in range(n))
                out[j, k] = (
                    ginv(pp)[j, k] + ginv(mm)[j, k] - ginv(pm)[j, k] - ginv(mp)[j, k]
                ) / (4.0 * h**2)
    return out


def scalar_curvature_fd(
    pot: SymplecticPotential, x, step: float | None = None, levels: int = 2
) -> float:
    """Finite-difference scalar curvature with Richardson extrapolation.

    The step defaults to (distance to boundary) / 24 and must satisfy
    distance >= 10 * step; an explicit step violating that margin is a
    precondition error.  A point outside the polytope raises OutsideDomain.
    """
    x = np.asarray(x, dtype=float)
    dist = float(sampling.interior_distance(pot.polytope, x))
    if dist <= 0:
        metric_jet(pot, x)      # OutsideDomain, naming the first violated form
    if step is None:
        step = dist / FD_STEP_FRACTION
    if step <= 0 or dist < FD_MARGIN_FACTOR * step:
        raise ValueError(
            f"finite-difference step {step:.3e} too large for interior "
            f"distance {dist:.3e} (need distance >= {FD_MARGIN_FACTOR}x step)"
        )
    estimates = [_ginv_entry_hessian(pot, x, step / 2**m) for m in range(levels + 1)]
    # Central second differences have even error expansions: eliminate
    # h^2 then h^4.
    for power in range(1, levels + 1):
        factor = 4.0**power
        estimates = [
            (factor * finer - coarser) / (factor - 1.0)
            for coarser, finer in zip(estimates, estimates[1:])
        ]
    return float(-np.sum(estimates[0]))


@dataclass(frozen=True)
class AffineFit:
    """Least-squares affine model c0 + <c, x> of sampled values."""

    constant: float
    gradient: np.ndarray
    max_residual: float
    n_samples: int

    def __call__(self, x) -> float:
        return float(self.constant + np.dot(self.gradient, np.asarray(x, dtype=float)))

    def to_json(self) -> dict:
        return {
            "constant": self.constant,
            "gradient": [float(c) for c in self.gradient],
            "max_residual": self.max_residual,
            "n_samples": self.n_samples,
        }


def affine_fit(points, values) -> AffineFit:
    """Fit c0 + <c, x> by least squares; exact for affine data.

    Raises DegenerateSampleSet when the points do not affinely span.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    vals = np.asarray(values, dtype=float)
    n = pts.shape[1]
    rank = 0
    if len(pts) > n:    # fewer points cannot span (and an empty set has no mean)
        # Centred, column-scaled coordinates keep the column of ones visible
        # beside coordinates of any size; the solve also reports the rank.
        centre = pts.mean(axis=0)
        scale = np.max(np.abs(pts - centre), axis=0)
        scale[scale == 0] = 1.0
        design = np.hstack([np.ones((len(pts), 1)), (pts - centre) / scale])
        coef, _, rank, _ = np.linalg.lstsq(design, vals, rcond=None)
    if rank < n + 1:
        raise DegenerateSampleSet(
            f"{len(pts)} sample points span less than dimension {n}"
        )
    gradient = coef[1:] / scale
    return AffineFit(
        constant=float(coef[0] - gradient @ centre),
        gradient=gradient,
        max_residual=float(np.max(np.abs(design @ coef - vals))),
        n_samples=len(pts),
    )


def extremality_check(
    pot: SymplecticPotential,
    grid: int = 20,
    tol: float | None = None,
    margin: float | None = None,
) -> tuple[bool, AffineFit]:
    """Sample s on an interior grid and test affinity of the samples."""
    pts = sampling.interior_grid(pot.polytope, grid, margin)
    return extremality_from_samples(pts, [scalar_curvature(pot, x) for x in pts], tol)


def extremality_from_samples(points, values, tol: float | None = None) -> tuple[bool, AffineFit]:
    """Test affinity of sampled curvature values.

    The default tolerance is scale aware: 1e-6 times the larger of 1,
    the sample range, and the mean magnitude of s.
    """
    values = np.asarray(values, dtype=float)
    fit = affine_fit(points, values)
    if tol is None:
        spread = float(values.max() - values.min())
        tol = AFFINITY_RTOL * max(1.0, spread, abs(float(values.mean())))
    return fit.max_residual <= tol, fit


def soliton_identity_residual(pot: SymplecticPotential, a, points) -> tuple[float, float]:
    """Best constant and residual for s + |grad f|^2 + 2 f over samples,
    where f = <a, x>."""
    a = np.asarray(a, dtype=float)
    vals = np.concatenate(
        [
            _curvature_rows(pot, b) + np.einsum("i,pij,j->p", a, b.G_inv, a) + 2.0 * (b.x @ a)
            for b in _curvature_batches(pot, points)
        ]
    )
    const = float(vals.mean())
    return const, float(np.max(np.abs(vals - const)))


@dataclass(frozen=True)
class FDCrossValidation:
    max_rel_err: float
    tolerance: float
    n_points: int
    passed: bool


def fd_cross_validate(
    pot: SymplecticPotential, points, tol: float = 1e-5
) -> FDCrossValidation:
    """Compare analytic and finite-difference curvature pointwise.

    Relative error uses max(1, |s|) in the denominator so near-zero
    curvatures do not blow the quotient up.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    worst = 0.0
    for x in pts:
        s_an = scalar_curvature(pot, x)
        s_fd = scalar_curvature_fd(pot, x)
        worst = max(worst, abs(s_an - s_fd) / max(1.0, abs(s_an)))
    return FDCrossValidation(
        max_rel_err=worst, tolerance=tol, n_points=len(pts), passed=worst <= tol
    )
