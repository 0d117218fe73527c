"""Symplectic potentials and Hessian metric jets on Delzant polytopes.

Conventions used throughout the package:

    g(x)  = (1/2) * ( sum_k lambda_k(x) log lambda_k(x) + h(x) )
    G(x)  = Hess g(x)
          = (1/2) * sum_k u_k u_k^T / lambda_k(x)  +  (1/2) Hess h(x)

with lambda_k(x) = <u_k, x> - b_k the defining forms of the polytope and
h a polynomial with rational coefficients that keeps G positive definite
on the interior.  With h = 0 this is the canonical (Guillemin) potential
of the polytope; on the unit interval it gives G = 1/(2x(1-x)) and on
the standard simplex G(1/3, 1/3) = [[3, 3/2], [3/2, 3]].

Every derivative of g is computed in one place, `_metric_rows`, over the
rows of an (N, n) array: `metric_jets` feeds it in chunks and
`metric_jet` is its one-row case.  h enters through its partials,
compiled once per order into exponent and weight arrays.  No 2-D matmul
runs over the rows (BLAS rounds one row and many differently): einsum
contracts each row alone, so a point's jet is its row of any batch,
and a failing chunk names its first failing row with that row's own
payload, with no point-by-point replay.  Each chunk keeps the Cholesky
factor of G, which gives every quadratic form of G^{-1} by forward
substitution; G^{-1} itself is built on first read.

The inverse metric G^{-1} extends continuously by zero to the vertices,
and 1/det G factors as delta(x) * prod_k lambda_k(x) with delta smooth
and positive up to the boundary; the probe helpers below measure both
facts numerically along rays into a vertex.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import factorial, inf

import numpy as np

from . import exact, sampling
from .errors import DegenerateSampleSet, NotPositiveDefinite, OutsideDomain, ParseError
from .polynomial import Polynomial, polynomial_from_json
from .polytope import DelzantPolytope, _orthant, polytope_from_json

# Points per batch evaluation.  Every per-point temporary (up to n^4 floats
# for the fourth derivative) is held for one chunk at a time, so memory stays
# flat in the number of points while numpy still amortises its call overhead.
_CHUNK = 256

DELTA_MAX_RATIO = 1e3         # det_factorization_check: largest max delta / min delta
PROBE_TOL = 1e-4              # vertex_vanishing_probe: largest |G^{-1}| at the last step
PROBE_MIN_SLOPE = 0.9         # vertex_vanishing_probe: least log-log slope of |G^{-1}|
COFACTOR_TOL = 1e-6           # cofactor_growth_check: largest product at the last step


def _vector(a, n: int) -> np.ndarray:
    """a as a float vector; ValueError, naming both lengths, unless it has n entries."""
    a = np.asarray(a, dtype=float)
    if a.shape != (n,):
        raise ValueError(f"a expects {n} components for this polytope, got {a.size if a.ndim == 1 else a.shape}")
    return a


def _tolerance(tol: float | None) -> None:
    """ValueError unless tol, when given (not None), is positive and finite."""
    if tol is not None and not 0 < tol < inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")


class SymplecticPotential:
    """Canonical potential of a polytope plus a polynomial perturbation."""

    def __init__(self, polytope: DelzantPolytope, h: Polynomial | None = None):
        self.polytope = polytope
        self.h = h if h is not None else Polynomial.zero(polytope.n)
        if self.h.nvars != polytope.n:
            raise ValueError(
                f"h has {self.h.nvars} variables, polytope dimension is {polytope.n}"
            )
        self._h_plans: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._powers = [np.ones((polytope.num_forms, 1))]     # u^{(0)}; see `_normal_powers`

    @classmethod
    def guillemin(cls, polytope: DelzantPolytope) -> "SymplecticPotential":
        return cls(polytope, None)

    @property
    def n(self) -> int:
        return self.polytope.n

    def _h_plan(self, order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """h's order-`order` partials compiled to arrays, once per potential.

        Returns (exponents, weights, gather): the distinct partials, one per
        sorted index tuple, are (prod_i x_i^exponents) @ weights, and
        `gather` sends each of the n^order tensor slots to its partial.
        """
        plan = self._h_plans.get(order)
        if plan is None:
            n = self.n
            combos = list(itertools.combinations_with_replacement(range(n), order))
            partials = [self.h.derivative(c) for c in combos]
            monomials = sorted({e for d in partials for e in d.coeffs})
            exponents = exact.floats(monomials).reshape(len(monomials), n)
            weights = exact.floats(
                [[d.coeffs.get(e, 0) for d in partials] for e in monomials]
            ).reshape(len(monomials), len(combos))
            slots = itertools.product(range(n), repeat=order)
            gather = np.array([combos.index(tuple(sorted(s))) for s in slots])
            plan = self._h_plans[order] = (exponents, weights, gather)
        return plan

    def _h_rows(self, order: int, x: np.ndarray) -> np.ndarray:
        """Order-`order` partials of h at the rows of x, flattened to (N, n^order)."""
        exponents, weights, gather = self._h_plan(order)
        return np.einsum("pe,ec->pc", np.prod(x[:, None, :] ** exponents, axis=-1), weights)[:, gather]

    def _normal_powers(self, order: int) -> list[np.ndarray]:
        """The tensor powers u_k^{(r)} of the normals for r <= order, flattened
        to (m, n^r); each is built when a pass first asks for its order."""
        u, powers = self.polytope.normals_float, self._powers
        while len(powers) <= order:
            powers.append((powers[-1][:, :, None] * u[:, None, :]).reshape(len(u), -1))
        return powers[: order + 1]

    def to_json(self) -> dict:
        return {"polytope": self.polytope.to_json(), "h": self.h.to_json()}

    def __repr__(self):
        tag = "guillemin" if self.h.is_zero else f"h degree {self.h.degree}"
        return f"SymplecticPotential({self.polytope!r}, {tag})"


def _cofactor_matrix(g: np.ndarray) -> np.ndarray:
    """Cofactor matrix from explicit minors (independent of the inverse)."""
    n = g.shape[0]
    if n == 1:
        return np.array([[1.0]])
    if n == 2:
        return np.array([[g[1, 1], -g[1, 0]], [-g[0, 1], g[0, 0]]])
    cof = np.empty_like(g)
    idx = np.arange(n)
    for i in range(n):
        for j in range(n):
            minor = g[np.ix_(idx != i, idx != j)]
            cof[i, j] = (-1) ** (i + j) * np.linalg.det(minor)
    return cof


@dataclass(frozen=True)
class MetricJet:
    """G, its inverse, determinant and cofactors at one point.

    cof comes from explicit minors, so det_G * G_inv = cof^T is a
    genuine cross-check rather than an identity by construction.  The
    derivatives of G are on the batch: `metric_jets(..., with_derivatives=True)`.
    """

    x: np.ndarray
    G: np.ndarray
    G_inv: np.ndarray
    det_G: float
    cof: np.ndarray


def metric_jet(pot: SymplecticPotential, x) -> MetricJet:
    """Hessian metric data at an interior point: the one-row batch of
    `_metric_rows`, plus cofactors from explicit minors.

    Positive definiteness is certified by a Cholesky factorisation;
    failure raises NotPositiveDefinite carrying the smallest eigenvalue.
    """
    x = np.asarray(x, dtype=float)
    b = _metric_rows(pot, x[None], False)
    return MetricJet(
        x=x,
        G=b.G[0],
        G_inv=b.G_inv[0],
        det_G=float(b.det_G[0]),
        cof=_cofactor_matrix(b.G[0]),
    )


# ---------------------------------------------------------------------------
# the batch engine

@dataclass(frozen=True)
class MetricBatch:
    """Metric data at N points: every field carries a leading row axis.

    lam holds the defining forms, chol the Cholesky factors L of G = L L^T;
    dG and d2G are the third and fourth derivatives of g, present when
    requested.  det_G and G_inv are built on first read.
    """

    x: np.ndarray
    lam: np.ndarray
    G: np.ndarray
    chol: np.ndarray
    dG: np.ndarray | None
    d2G: np.ndarray | None

    @cached_property
    def det_G(self) -> np.ndarray:
        """det G = prod diag(L)^2."""
        return np.prod(np.diagonal(self.chol, axis1=1, axis2=2), axis=1) ** 2

    @cached_property
    def G_inv(self) -> np.ndarray:
        """G^{-1} with one Newton refinement step, which keeps G G^{-1} - I near
        the rounding floor, then symmetrised."""
        g_inv = np.linalg.inv(self.G)
        g_inv = g_inv @ (2.0 * np.eye(self.G.shape[-1]) - self.G @ g_inv)
        return 0.5 * (g_inv + g_inv.swapaxes(1, 2))

    def inverse_form(self, a: np.ndarray) -> np.ndarray:
        """a^T G^{-1} a = |y|^2 at every row, L y = a; or A G^{-1} A^T = Y^T Y for rows A
        of shape (N, m, n), L Y = A^T.  Forward substitution is backward stable (Higham,
        Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 8); einsum contracts each row alone."""
        y = np.empty(self.chol.shape[:2] + a.shape[1:-1])     # (N, n), or (N, n, m) for rows A
        for i, low in enumerate(self.chol.swapaxes(0, 1)):     # y_i = (a_i - sum_{k<i} L_ik y_k) / L_ii; .T puts rows last
            y[:, i] = ((a[..., i] - np.einsum("pk,pk...->p...", low[:, :i], y[:, :i])).T / low[:, i]).T
        return np.einsum("pi,pi->p", y, y) if a.ndim == 1 else np.einsum("pia,pib->pab", y, y)


def _metric_rows(pot: SymplecticPotential, x: np.ndarray, with_derivatives: bool) -> MetricBatch:
    """Metric data at every row of x at once.

    lambda, then the derivatives of g of order 2 to 4 in closed form,
        order r:  (1/2) (-1)^r (r-2)! sum_k u_k^{(r)} / lambda_k^{r-1}
                  + (1/2) (order-r partials of h),
    then a batched Cholesky certificate, kept with det G.  Errors name the
    first failing row, as one row at a time would: with `end` the first row
    with some lambda_k <= 0, NotPositiveDefinite for the first row before
    it whose smallest eigenvalue is not positive, else OutsideDomain at end.
    """
    lam = pot.polytope.lambdas(x)
    bad = lam <= 0
    if bad.any():
        end = int(np.argmax(bad.any(axis=1)))
        _metric_rows(pot, x[:end], False)   # the rows before end, certified first
        k = int(np.argmax(bad[end]))
        raise OutsideDomain(x[end], k, lam[end, k])
    powers = pot._normal_powers(4 if with_derivatives else 2)
    derivs = []
    for r in range(2, len(powers)):
        d = np.einsum("pk,ka->pa", 0.5 * (-1) ** r * factorial(r - 2) * lam ** (1.0 - r), powers[r])
        if not pot.h.is_zero:
            d = d + 0.5 * pot._h_rows(r, x)
        derivs.append(d.reshape((len(x),) + (pot.n,) * r))
    g = derivs[0]       # exactly symmetric: u_i u_j = u_j u_i, and h's partials gather by sorted index
    try:
        chol = np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        eig = np.linalg.eigvalsh(g)[:, 0]
        i = int(np.argmax(eig <= 0))
        raise NotPositiveDefinite(x[i], eig[i]) from None
    return MetricBatch(
        x=x,
        lam=lam,
        G=g,
        chol=chol,
        dG=derivs[1] if with_derivatives else None,
        d2G=derivs[2] if with_derivatives else None,
    )


def metric_jets(pot: SymplecticPotential, points, with_derivatives: bool = False):
    """Metric data over the rows of `points`: one MetricBatch per chunk of
    at most _CHUNK rows, in input order.

    Errors are those of calling `metric_jet` point by point: the chunk
    names its first failing row (see `_metric_rows`), with its payload.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim < 2:  # one point, or an empty list of points
        pts = pts.reshape(1, -1) if pts.size else pts.reshape(0, pot.n)
    for start in range(0, max(len(pts), 1), _CHUNK):
        yield _metric_rows(pot, pts[start : start + _CHUNK], with_derivatives)


# ---------------------------------------------------------------------------
# boundary behaviour diagnostics

@dataclass(frozen=True)
class DetFactorizationReport:
    """delta(x) = 1 / (det G * prod_k lambda_k) sampled over points."""

    deltas: np.ndarray
    min_delta: float
    max_delta: float
    ratio: float
    passed: bool


def det_factorization_check(pot: SymplecticPotential, points) -> DetFactorizationReport:
    """Sample delta and require it positive, max / min at most DELTA_MAX_RATIO
    (no points: DegenerateSampleSet)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if not pts.size:
        raise DegenerateSampleSet("no sample points to check delta at")
    deltas = np.concatenate([1.0 / (b.det_G * np.prod(b.lam, axis=1)) for b in metric_jets(pot, pts)])
    lo, hi = float(deltas.min()), float(deltas.max())
    ratio = hi / lo if lo > 0 else float("inf")
    return DetFactorizationReport(
        deltas=deltas,
        min_delta=lo,
        max_delta=hi,
        ratio=ratio,
        passed=lo > 0 and ratio <= DELTA_MAX_RATIO,
    )


def _ladder(ts) -> np.ndarray:
    """The probes' steps: fewer than 3 decreasing ones show no trend."""
    ts = np.asarray(ts, dtype=float)
    if ts.ndim != 1 or len(ts) < 3 or not (np.all(ts > 0) and np.all(np.diff(ts) < 0)):
        raise ValueError("ts must hold at least 3 positive, strictly decreasing steps")
    return ts


@dataclass(frozen=True)
class VanishingProbe:
    """max-norm of G^{-1} along x = v + t*d for a geometric ladder of t."""

    ts: np.ndarray
    norms: np.ndarray
    slope: float
    tolerance: float
    passed: bool


def vertex_vanishing_probe(pot: SymplecticPotential, vertex, ray, ts) -> VanishingProbe:
    """Check that G^{-1} vanishes at least linearly along a ray into a vertex:
    |G^{-1}| decreases, ends at most PROBE_TOL, with log-log slope at least
    PROBE_MIN_SLOPE.

    `vertex` may be a VertexData or an exact coordinate tuple, `ray` must point
    inside for every t, and `ts` hold 3 or more positive, strictly decreasing steps.
    """
    ts = _ladder(ts)
    norms = np.array([np.max(np.abs(metric_jet(pot, x).G_inv)) for x in sampling.ray_points(vertex, ray, ts)])
    slope = float(np.polyfit(np.log(ts), np.log(norms), 1)[0])
    decreasing = bool(np.all(np.diff(norms) <= norms[:-1] * 1e-9 + 1e-300))
    passed = decreasing and norms[-1] <= PROBE_TOL and slope >= PROBE_MIN_SLOPE
    return VanishingProbe(
        ts=ts, norms=norms, slope=slope, tolerance=PROBE_TOL, passed=passed
    )


@dataclass(frozen=True)
class CofactorGrowthReport:
    """cof(G)_{ij} * x_1...x_n along a ray into the origin vertex."""

    ts: np.ndarray
    products: np.ndarray
    final_max: float
    tolerance: float
    passed: bool


def cofactor_growth_check(pot: SymplecticPotential, ray, ts) -> CofactorGrowthReport:
    """Verify cof(G)_{ij} = o(1/(x_1...x_n)) into the origin vertex: the
    products settle and end at most COFACTOR_TOL.

    Requires a polytope normalised at the vertex: the first n forms must
    be the coordinate half spaces {x_i >= 0}, so the incident lambdas
    are the coordinates themselves, and `ts` as in vertex_vanishing_probe.
    G comes from one `metric_jets` pass, cofactors from minors of each row.
    """
    n = pot.n
    if list(pot.polytope.forms[:n]) != _orthant(n):
        raise ValueError(
            "cofactor growth check needs a polytope normalised at the "
            "origin vertex (first n forms = coordinate half spaces)"
        )
    ts = _ladder(ts)
    x = ts[:, None] * np.asarray(ray, dtype=float)
    g = np.concatenate([b.G for b in metric_jets(pot, x)])
    products = np.array([_cofactor_matrix(gm) * float(np.prod(xm)) for gm, xm in zip(g, x)])
    mags = np.abs(products)
    final_max = float(mags[-1].max())
    tail = mags[len(ts) // 2 :]
    trend = bool(np.all(np.diff(tail, axis=0) <= tail[:-1] * 1e-6 + 1e-15))
    return CofactorGrowthReport(
        ts=ts,
        products=products,
        final_max=final_max,
        tolerance=COFACTOR_TOL,
        passed=trend and final_max <= COFACTOR_TOL,
    )


# ---------------------------------------------------------------------------
# serialization

def potential_from_json(doc) -> SymplecticPotential:
    """Parse {"polytope": {...}, "h": {"monomials": [...]}}."""
    doc = exact.document(doc, "potential")
    if "polytope" not in doc:
        raise ParseError("potential document must contain 'polytope'")
    polytope = polytope_from_json(doc["polytope"])
    return SymplecticPotential(polytope, polynomial_from_json(doc.get("h"), polytope.n))
