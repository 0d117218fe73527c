"""Scalar curvature of Hessian metrics and affinity diagnostics.

The scalar curvature of the metric with potential g is

    s(x) = - sum_{j,k} d^2 g^{jk} / dx_j dx_k

computed analytically from the metric jet via

    d_j G^{-1}     = - G^{-1} (d_j G) G^{-1}
    d_k d_j G^{-1} =   G^{-1} (d_k G) G^{-1} (d_j G) G^{-1}
                     + G^{-1} (d_j G) G^{-1} (d_k G) G^{-1}
                     - G^{-1} (d_k d_j G) G^{-1}

or, as an independent route, by Richardson-extrapolated central
differences of the entries of G^{-1} alone.  The canonical potential (h = 0)
uses Abreu's closed form in C = U G^{-1} U^T, the metric pairings of the
normals,

    s = sum_a C_aa^2 / lambda_a^3
        - 1/4 sum_ab (C_ab^3 + C_aa C_ab C_bb) / (lambda_a lambda_b)^2,

evaluated in Q_ab = C_ab / sqrt(lambda_a lambda_b), which is of order one
however large the polytope, as

    s = sum_a Q_aa^2 / lambda_a
        - 1/4 sum_ab (Q_ab^3 + Q_aa Q_ab Q_bb) / sqrt(lambda_a lambda_b),

with Q = W G^{-1} W^T, W = Lambda^{-1/2} U, from G's Cholesky factor,
and a perturbed potential the jet formula above.  All routes run in
batches from `metric_jets`, each finite-difference stencil too; one
point is a batch of one row.  Canonical potentials give s = 4 on the
unit interval, 12 on the unit simplex, 8 on the unit square; a metric
is extremal exactly when s is an affine function.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache

import numpy as np

from . import sampling
from .errors import DegenerateSampleSet, OutOfFloatRange
from .potential import _CHUNK, MetricBatch, SymplecticPotential, _tolerance, _vector, metric_jets

FD_STEP_FRACTION = 24.0       # step h = interior distance / 24
FD_LEVELS = 2                 # Richardson levels: steps h, h/2, h/4
FD_TOL = 1e-5                 # fd_cross_validate: largest relative error
AFFINITY_RTOL = 1e-6


def scalar_curvature(pot: SymplecticPotential, x) -> float:
    """Analytic scalar curvature at an interior point: the one-row batch."""
    return float(scalar_curvatures(pot, [x])[0])


def _curvature_rows(pot: SymplecticPotential, b: MetricBatch) -> np.ndarray:
    """Analytic scalar curvature at every row of a batch."""
    if pot.h.is_zero:
        r = 1.0 / np.sqrt(b.lam)                    # lambda_a^{-1/2}
        q = b.inverse_form(r[:, :, None] * pot.polytope.normals_float)
        d = np.diagonal(q, axis1=1, axis2=2)
        # no q**3: numpy cubes negative bases, as off-diagonal Q_ab are, on a scalar path ~35x slower
        cubic = q * (q * q + d[:, :, None] * d[:, None, :])
        # a stacked matmul: einsum sums r^T cubic r differently for one row
        return np.sum(d**2 * r**2, axis=1) - 0.25 * (r[:, None, :] @ cubic @ r[:, :, None])[:, 0, 0]
    gi = b.G_inv
    a = gi[:, None] @ b.dG @ gi[:, None]        # a[:, k] = G^-1 (d_k G) G^-1
    return (
        np.einsum("pjc,pkjcd,pdk->p", gi, b.d2G, gi)
        - np.einsum("pkjc,pjcd,pdk->p", a, b.dG, gi)
        - np.einsum("pjjc,pkcd,pdk->p", a, b.dG, gi)
    )


def scalar_curvatures(pot: SymplecticPotential, points) -> np.ndarray:
    """Analytic scalar curvature at each row of `points`, in batches."""
    batches = metric_jets(pot, points, with_derivatives=not pot.h.is_zero)
    return np.concatenate([_curvature_rows(pot, b) for b in batches])


def scalar_curvature_fd(pot: SymplecticPotential, x) -> float:
    """Finite-difference scalar curvature at one point: the one-row batch."""
    return float(scalar_curvatures_fd(pot, [x])[0])


@cache
def _stencil(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The stencil's offsets, centre first, then in the order the entries
    (j, k), row by row, first read them; and the four offsets each entry
    reads (e_j, -e_j and the centre twice when j = k)."""
    e = np.eye(n, dtype=int)
    index = {(0,) * n: 0}
    reads = [[index.setdefault(tuple(o), len(index)) for o in
              ([e[j], -e[j], 0 * e[j], 0 * e[j]] if j == k else [e[j] + e[k], -e[j] - e[k], e[j] - e[k], e[k] - e[j]])]
             for j, k in itertools.product(range(n), repeat=2)]
    return np.array(list(index), dtype=float), np.array(reads)


def _fd_rows(pot: SymplecticPotential, x: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Finite-difference curvature at the rows of x with their steps."""
    n = pot.n
    offsets, reads = _stencil(n)
    j, k = np.divmod(np.arange(n * n), n)
    h = steps[:, None] / 2.0 ** np.arange(FD_LEVELS + 1)
    rows = x[:, None, None] + h[:, :, None, None] * offsets       # point, level, offset
    gi = np.concatenate([b.G_inv for b in metric_jets(pot, rows.reshape(-1, n))])
    g = gi.reshape(rows.shape + (n,))[:, :, reads, j[:, None], k[:, None]]
    # h^2 by Python's pow, as the one-point loop took it: numpy's square rounds differently
    h2 = np.array([v**2 for v in h.ravel().tolist()]).reshape(h.shape + (1,))
    est = np.where(j == k, (g[..., 0] - 2.0 * g[..., 2] + g[..., 1]) / h2,
                   (g[..., 0] + g[..., 1] - g[..., 2] - g[..., 3]) / (4.0 * h2))
    # Central differences have even error expansions: eliminate h^2, h^4, ...
    for power in range(1, FD_LEVELS + 1):
        est = (4.0**power * est[:, 1:] - est[:, :-1]) / (4.0**power - 1.0)
    return -np.sum(np.ascontiguousarray(est[:, 0]), axis=1)     # est is not C-ordered: sum as one n x n matrix


def scalar_curvatures_fd(pot: SymplecticPotential, points) -> np.ndarray:
    """Finite-difference scalar curvature at each row of `points`, in batches.

    s = -sum_jk d_j d_k G^{-1}_jk from central differences of G^{-1}
    alone on the 1 + 2n^2 offsets 0, +-e_j, +-(e_j + e_k), +-(e_j - e_k),
    at steps h, h/2, h/4 with h = (distance to boundary) / 24, so every
    stencil row lies inside, and Richardson's elimination of h^2 and h^4.
    A group of points takes one `metric_jets` call, point by point, level
    by level, centre first.  So the errors are those of one point at a
    time: the first failing row raises OutsideDomain or NotPositiveDefinite,
    and a point outside fails at its own row, the stencil's centre.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    steps = sampling.interior_distance(pot.polytope, pts) / FD_STEP_FRACTION
    group = max(1, _CHUNK // ((FD_LEVELS + 1) * (1 + 2 * pot.n**2)))   # rows of a group fill a chunk
    values = [_fd_rows(pot, pts[i : i + group], steps[i : i + group]) for i in range(0, len(pts), group)]
    return np.concatenate([np.empty(0), *values])


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
        design = np.ones((len(pts), n + 1))
        np.divide(pts - centre, scale, out=design[:, 1:])
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


def _affinity_fit(points, values, n: int | None = None) -> AffineFit:
    """`affine_fit`, refusing the n + 1 samples or fewer that its n + 1
    coefficients fit whatever their values (DegenerateSampleSet).  n is the
    polytope's dimension when given, else the points'; points without
    coordinates have none to name, and are refused."""
    count, n = len(values), n or np.shape(np.atleast_2d(points))[1]
    if not n:
        raise DegenerateSampleSet("sample points without coordinates: an affinity test in dimension n needs n + 2")
    if count <= n + 1:
        raise DegenerateSampleSet(
            f"{count} sample points fit any values in dimension {n}: an affinity test needs {n + 2}")
    return affine_fit(points, values)


def extremality_check(pot: SymplecticPotential, grid: int = 20) -> tuple[bool, AffineFit]:
    """Sample s on an interior grid and test its affinity with the default tolerance."""
    pts = sampling.interior_grid(pot.polytope, grid)
    return extremality_from_samples(pts, scalar_curvatures(pot, pts))


def extremality_from_samples(points, values, tol: float | None = None) -> tuple[bool, AffineFit]:
    """Test affinity of sampled curvature values.

    The default tolerance is scale aware: 1e-6 times the larger of 1,
    the sample range, and the mean magnitude of s.  A tol given must be
    positive and finite (ValueError); values that are not all finite
    decide nothing (OutOfFloatRange); n + 1 samples or fewer refute
    nothing (DegenerateSampleSet).
    """
    _tolerance(tol)
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise OutOfFloatRange("s is not finite at every sample")
    fit = _affinity_fit(points, values)
    if tol is None:
        spread = float(values.max() - values.min())
        tol = AFFINITY_RTOL * max(1.0, spread, abs(float(values.mean())))
    return fit.max_residual <= tol, fit


def soliton_identity_residual(pot: SymplecticPotential, a, points) -> tuple[float, float]:
    """Best constant and residual for s + |grad f|^2 + 2 f over samples,
    where f = <a, x>.  Raises DegenerateSampleSet on an empty set of points."""
    a = _vector(a, pot.n)
    vals = np.concatenate(
        [
            _curvature_rows(pot, b) + b.inverse_form(a) + 2.0 * (b.x @ a)
            for b in metric_jets(pot, points, with_derivatives=not pot.h.is_zero)
        ]
    )
    if not len(vals):
        raise DegenerateSampleSet("no sample points for the identity residual")
    const = float(vals.mean())
    return const, float(np.max(np.abs(vals - const)))


@dataclass(frozen=True)
class FDCrossValidation:
    max_rel_err: float
    tolerance: float
    n_points: int
    passed: bool


def fd_cross_validate(pot: SymplecticPotential, points) -> FDCrossValidation:
    """Compare analytic and finite-difference curvature pointwise, within FD_TOL.

    Relative error uses max(1, |s|) in the denominator so near-zero
    curvatures do not blow the quotient up.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    s_fd = scalar_curvatures_fd(pot, pts)
    s_an = scalar_curvatures(pot, pts)
    worst = float(np.max(np.abs(s_an - s_fd) / np.maximum(1.0, np.abs(s_an)), initial=0.0))
    return FDCrossValidation(max_rel_err=worst, tolerance=FD_TOL, n_points=len(pts), passed=worst <= FD_TOL)
