"""Fano normalisation, soliton vectors, and the Einstein verdict pipeline.

For a Delzant polytope whose normal fan is Fano, the anticanonical model
puts every facet at lattice distance one from the origin:
lambda_k(x) = <u_k, x> + 1.  On that model the soliton vector is the
unique minimiser of the strictly convex functional

    F(a) = integral over the polytope of exp(<a, x>) dx,

equivalently the unique a with weighted barycenter zero.  The final
verdict pipeline replays the geometric argument numerically: if
q(x) = a^T G^{-1}(x) a is affine, vanishes at all vertices, and the
vertices affinely span, then q is identically zero, so the soliton
field vanishes and the metric is Einstein.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from math import ceil, factorial, inf, log2

import numpy as np

from . import exact, sampling
from .curvature import AffineFit, affine_fit
from .errors import MaxIterations, NotFano, QuadratureNotConverged, ToricError
from .polytope import AffineForm, DelzantPolytope, check_delzant
from .potential import SymplecticPotential, metric_jets

NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 100


# ---------------------------------------------------------------------------
# triangulation (exact)

def _face_simplices(coords, incidences, nforms, vidx, dim):
    """Pulling triangulation of one face, as tuples of vertex indices.

    The face is the convex hull of the vertices listed in `vidx`; it is
    coned from its lexicographically smallest vertex over its own
    facets, recursively.
    """
    if len(vidx) == dim + 1:
        return [tuple(vidx)]
    apex = min(vidx, key=lambda i: coords[i])
    simplices = []
    seen = set()
    for k in range(nforms):
        if k in incidences[apex]:
            continue
        sub = [i for i in vidx if k in incidences[i]]
        if len(sub) < dim:
            continue
        if exact.affine_rank([coords[i] for i in sub]) != dim - 1:
            continue
        key = frozenset(sub)
        if key in seen:
            continue
        seen.add(key)
        for s in _face_simplices(coords, incidences, nforms, sorted(sub), dim - 1):
            simplices.append(s + (apex,))
    return simplices


def triangulate(p: DelzantPolytope):
    """Exact simplices covering the polytope, coned from the lex-smallest
    vertex; each simplex is a tuple of n+1 exact coordinate tuples."""
    coords = [v.coordinates for v in p.vertices]
    incidences = [v.incident_facets for v in p.vertices]
    index_simplices = _face_simplices(
        coords,
        incidences,
        len(p.forms),
        sorted(range(len(coords)), key=lambda i: coords[i]),
        p.n,
    )
    return tuple(tuple(coords[i] for i in s) for s in index_simplices)


def _simplex_volume(simplex) -> Fraction:
    base = simplex[0]
    rows = [[c - b for c, b in zip(v, base)] for v in simplex[1:]]
    n = len(rows)
    return abs(exact.det(rows)) / Fraction(factorial(n))


def exact_volume(p: DelzantPolytope) -> Fraction:
    """Rational volume, summed over the exact triangulation."""
    return sum((_simplex_volume(s) for s in triangulate(p)), Fraction(0))


# ---------------------------------------------------------------------------
# exponential moments in closed form

def _exp_divided_differences(nodes: np.ndarray) -> np.ndarray:
    """exp[d_0, ..., d_m] for every row d of `nodes`; nodes may repeat.

    It is the top-right entry of exp(Z) for Z bidiagonal with d on the
    diagonal and ones above it (McCurdy, Ng and Parlett 1984).  Each row
    is shifted by its smallest node, so every entry of Z is nonnegative
    and neither the Taylor sum nor the squarings cancel anything.
    """
    rows, m = nodes.shape
    low = nodes.min(axis=1)
    spread = float(np.max(nodes.max(axis=1) - low))
    # scale until no diagonal entry exceeds 1; the Taylor remainder of
    # the top-right entry is then below 1/18!, about one rounding unit
    squarings = ceil(log2(spread)) if 1.0 < spread < inf else 0
    h = 2.0**-squarings
    z = np.zeros((rows, m * m))
    z[:, :: m + 1] = (nodes - low[:, None]) * h
    z[:, 1 :: m + 1] = h
    z = z.reshape(rows, m, m)
    # Taylor sum to degree >= m + 16, Paterson-Stockmeyer: blocks in z^0..z^4, Horner in z^5
    powers = [np.broadcast_to(np.eye(m), z.shape), z]
    for _ in range(4):
        powers.append(powers[-1] @ z)
    count = 5 * -(-(m + 17) // 5)
    inverse_factorials = np.cumprod(1.0 / np.maximum(np.arange(count), 1)).reshape(-1, 5)
    blocks = np.tensordot(inverse_factorials, np.stack(powers[:5]), 1)
    e = blocks[-1]
    for block in blocks[-2::-1]:
        e = block + powers[5] @ e
    e *= np.exp(low * h)[:, None, None]
    for _ in range(squarings):
        e = e @ e
    return e[:, 0, -1]


class FanoPolytope:
    """Anticanonical Delzant model: every offset is -1, origin interior."""

    def __init__(self, base: DelzantPolytope):
        self.base = base

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def vertices(self):
        return self.base.vertices

    @cached_property
    def _cells(self):
        """Float triangulation for _moments: per simplex and vertex pair k <= l,
        h_k = (1, v_k), h_l and nodes (v_k, v_0..v_n, v_l); n! vol per simplex."""
        simplices = triangulate(self.base)
        h = exact.floats([[(1, *v) for v in s] for s in simplices])
        k, l = np.triu_indices(self.n + 1)
        nodes = np.column_stack([k, np.tile(np.arange(self.n + 1), (len(k), 1)), l])
        return h[:, k], h[:, l], h[:, nodes, 1:], np.abs(np.linalg.det(h))

    def to_json(self) -> dict:
        return self.base.to_json()

    def __repr__(self):
        return f"FanoPolytope({self.base!r})"


def fano_normalize(p: DelzantPolytope) -> FanoPolytope:
    """Anticanonical model with the same normals and offsets all -1.

    Raises NotFano when the model is not Delzant (for example three
    facets meeting at a candidate vertex) or the facet-vertex incidence
    combinatorics differ from those of p.
    """
    forms = [AffineForm(u=f.u, b=Fraction(-1)) for f in p.forms]
    try:
        model = DelzantPolytope.from_forms(forms, p.n)
    except ToricError as e:
        raise NotFano(f"anticanonical model degenerates: {e}") from e
    report = check_delzant(model)
    if not report.is_delzant:
        bad = report.failing()[0]
        raise NotFano(
            f"anticanonical vertex {tuple(map(str, bad.coordinates))} has "
            f"{bad.facet_count} facets, {bad.edge_count} edges, "
            f"edge determinant {bad.edge_det}"
        )
    original = {v.incident_facets for v in p.vertices}
    normalized = {v.incident_facets for v in model.vertices}
    if original != normalized:
        raise NotFano("anticanonical model changes the facet incidence combinatorics")
    return FanoPolytope(model)


# ---------------------------------------------------------------------------
# integrals and the soliton vector

def _moments(fp: FanoPolytope, a: np.ndarray):
    """(integral e^{<a,x>}, integral x e, integral x x^T e) in closed form.

    On a simplex S with vertices v_k, barycentric coordinates beta_k and
    t_k = <a, v_k>, the Hermite-Genocchi formula gives

        integral_S beta_k beta_l e^{<a,x>} = n! vol(S) (1 + [k = l]) exp[t_0..t_n, t_k, t_l]

    (Baldoni, Berline, De Loera, Koppe and Vergne, arXiv:0809.2083).  As
    sum_k beta_k (1, v_k) = (1, x), these times h_k h_l^T sum to all three
    moments.  Raises QuadratureNotConverged on overflow.
    """
    hk, hl, nodes, weights = fp._cells
    with np.errstate(over="ignore", invalid="ignore"):
        dd = _exp_divided_differences((nodes @ a).reshape(-1, fp.n + 3))
        half = np.einsum("sp,spi,spj->ij", weights[:, None] * dd.reshape(len(weights), -1), hk, hl)
        full = half + half.T
    if not np.all(np.isfinite(full)):
        raise QuadratureNotConverged(f"moments of e^<a,x> overflow at a = {a.tolist()}")
    return float(full[0, 0]), full[1:, 0], full[1:, 1:]


def polytope_integral(fp: FanoPolytope, a, integrand: str = "1"):
    """Integral of {1, x, x x^T}[integrand] * e^{<a, x>} over the polytope.

    The integral is exact up to rounding (see _moments); a weight that
    overflows double precision raises QuadratureNotConverged.
    """
    if isinstance(fp, DelzantPolytope):
        fp = FanoPolytope(fp)
    a = np.zeros(fp.n) if a is None else np.asarray(a, dtype=float)
    order = {"1": 0, "x": 1, "xx": 2}.get(integrand)
    if order is None:
        raise ValueError(f"unknown integrand {integrand!r}")
    return _moments(fp, a)[order]


@dataclass(frozen=True)
class SolitonData:
    a: np.ndarray
    gradient_residual: float
    iterations: int

    def to_json(self) -> dict:
        return {
            "a": [float(c) for c in self.a],
            "gradient_residual": float(self.gradient_residual),
            "iterations": int(self.iterations),
        }


def soliton_vector(
    fp: FanoPolytope, tol: float = NEWTON_TOL, max_iterations: int = NEWTON_MAX_ITER
) -> SolitonData:
    """Damped Newton minimisation of F(a) = integral e^{<a,x>} dx.

    The gradient is the weighted barycenter integral x e^{<a,x>}, the
    Hessian integral x x^T e^{<a,x>} is positive definite, so Newton steps
    backtracking on |grad F| converge from a = 0 (not on F: near the
    minimum F changes by less than its rounding).
    """
    a = np.zeros(fp.n)
    _, grad, hess = _moments(fp, a)
    for iteration in range(max_iterations):
        residual = float(np.linalg.norm(grad))
        if residual <= tol:
            return SolitonData(a=a, gradient_residual=residual, iterations=iteration)
        direction = np.linalg.solve(hess, -grad)
        step = 1.0
        while True:
            trial = a + step * direction
            _, trial_grad, trial_hess = _moments(fp, trial)
            if np.linalg.norm(trial_grad) <= (1.0 - 1e-4 * step) * residual or step <= 1e-14:
                break
            step *= 0.5
        a, grad, hess = trial, trial_grad, trial_hess
    raise MaxIterations(
        f"Newton solver stalled at residual {float(np.linalg.norm(grad)):.3e} "
        f"after {max_iterations} iterations"
    )


# ---------------------------------------------------------------------------
# verdict pipeline

class Conclusion(Enum):
    EINSTEIN = "Einstein"
    HYPOTHESIS_FAILS = "HypothesisFails"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class EinsteinVerdict:
    conclusion: Conclusion
    fit: AffineFit
    vertex_values: np.ndarray
    rank: int
    certificates: dict

    def to_json(self) -> dict:
        return {
            "conclusion": self.conclusion.value,
            "affine_fit": self.fit.to_json(),
            "vertex_values": [float(v) for v in self.vertex_values],
            "rank": int(self.rank),
            "certificates": self.certificates,
        }


def einstein_verdict_from_samples(
    polytope: DelzantPolytope,
    points,
    values,
    affinity_tol: float | None = None,
    vertex_tol: float | None = None,
) -> EinsteinVerdict:
    """Run the verdict pipeline on precomputed samples of q = |grad f|^2.

    Steps: (1) affine fit of q; failure of affinity means the metric
    cannot satisfy the soliton hypothesis (HypothesisFails).  (2) the
    fitted affine function must vanish at every vertex.  (3) the
    vertices must affinely span.  (4) q itself must be as small as the
    zero affine function predicts.  Steps 2-4 cannot fail for genuine
    metric data, so their failure yields Inconclusive.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    vals = np.asarray(values, dtype=float)
    spread = float(vals.max() - vals.min()) if len(vals) else 0.0
    scale = float(np.max(np.abs(vals))) if len(vals) else 0.0
    if affinity_tol is None:
        # floor keeps exactly-constant data from tripping on lstsq noise
        affinity_tol = max(1e-6 * spread, 1e-12 * max(1.0, scale))
    if vertex_tol is None:
        vertex_tol = 1e-6 * max(1.0, spread)

    fit = affine_fit(pts, vals)
    affine_ok = fit.max_residual <= affinity_tol

    vertex_values = polytope.vertex_floats @ fit.gradient + fit.constant
    vertex_ok = bool(np.max(np.abs(vertex_values)) <= vertex_tol)

    rank = polytope.affine_span_rank
    rank_ok = rank == polytope.n

    coef_norm = float(np.hypot(fit.constant, np.linalg.norm(fit.gradient)))
    zero_bound = polytope.n * vertex_tol * (1.0 + coef_norm)
    max_q = float(np.max(np.abs(vals)))
    zero_ok = max_q <= zero_bound

    if not affine_ok:
        conclusion = Conclusion.HYPOTHESIS_FAILS
    elif vertex_ok and rank_ok and zero_ok:
        conclusion = Conclusion.EINSTEIN
    else:
        conclusion = Conclusion.INCONCLUSIVE

    certificates = {
        "affinity": {
            "max_residual": fit.max_residual,
            "tolerance": affinity_tol,
            "passed": bool(affine_ok),
        },
        "vertex_vanishing": {
            "max_abs_value": float(np.max(np.abs(vertex_values))),
            "tolerance": vertex_tol,
            "passed": vertex_ok,
        },
        "affine_span": {
            "rank": int(rank),
            "required": int(polytope.n),
            "passed": bool(rank_ok),
        },
        "zero_function": {
            "max_abs_q": max_q,
            "bound": zero_bound,
            "passed": bool(zero_ok),
        },
    }
    return EinsteinVerdict(
        conclusion=conclusion,
        fit=fit,
        vertex_values=vertex_values,
        rank=rank,
        certificates=certificates,
    )


def verify_einstein(
    pot: SymplecticPotential,
    a,
    grid: int = 20,
    margin: float | None = None,
    affinity_tol: float | None = None,
    vertex_tol: float | None = None,
) -> EinsteinVerdict:
    """Sample q(x) = a^T G^{-1}(x) a on an interior grid and decide whether
    the soliton field must vanish (Einstein), the affinity hypothesis
    fails, or the certificates disagree (Inconclusive).

    q is evaluated over the grid in batches; a point where the metric
    fails raises as `metric_jet` would there, for the first such point.
    """
    a = np.asarray(a, dtype=float)
    pts = sampling.interior_grid(pot.polytope, grid, margin)
    values = np.concatenate([np.einsum("i,pij,j->p", a, b.G_inv, a) for b in metric_jets(pot, pts)])
    return einstein_verdict_from_samples(
        pot.polytope, pts, values, affinity_tol=affinity_tol, vertex_tol=vertex_tol
    )
