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
from functools import cache, cached_property
from math import ceil, factorial, hypot, inf, isfinite, lcm, log2, prod, sqrt
from operator import mul

import numpy as np

from . import exact, sampling
from .curvature import AffineFit, _affinity_fit
from .errors import MaxIterations, NotFano, OutOfFloatRange, QuadratureNotConverged
from .polytope import DelzantPolytope, _carry, _cuts, _dual_facets, _form, _point
from .potential import SymplecticPotential, _tolerance, _vector, metric_jets

NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 100


# ---------------------------------------------------------------------------
# triangulation (exact)

def _simplices(p: DelzantPolytope):
    """Pulling triangulation of p as tuples of vertex indices, kept on p.

    Each face, the vertices listed in `vidx`, is coned from its
    lexicographically smallest vertex, its first, as p's vertex rows are
    sorted, over the distinct facets that miss it, in form order,
    recursively.  The facets of a face are those its forms cut out, decided
    from the incidences alone (`_cuts`).
    """
    if "_simplices" in vars(p):
        return vars(p)["_simplices"]

    def face(vidx, dim):
        if len(vidx) == dim + 1:
            return [tuple(vidx)]
        apex = vidx[0]
        facets = dict.fromkeys(c for c in _cuts(vidx, p._incidences, len(p.forms)) if c and apex not in c)
        return [s + (apex,) for sub in facets for s in face(sorted(sub), dim - 1)]

    return vars(p).setdefault("_simplices", tuple(face(range(len(p.vertex_rows)), p.n)))


def triangulate(p: DelzantPolytope):
    """Exact simplices covering the polytope, coned from the lex-smallest
    vertex; each simplex is a tuple of n+1 exact coordinate tuples."""
    return tuple(tuple(p.vertices[i].coordinates for i in s) for s in _simplices(p))


def exact_volume(p: DelzantPolytope) -> Fraction:
    """Rational volume, summed over the exact triangulation in integers: a
    simplex of vertex rows (X_i, D_i) has n! vol = |det (X_i, D_i)| / prod D_i."""
    rows, num, den = p.vertex_rows, 0, 1
    for s in _simplices(p):
        cell = [rows[i] for i in s]
        scale = prod(row[-1] for row in cell)
        common = lcm(den, scale)
        num, den = num * (common // den) + abs(exact._det(cell)) * (common // scale), common
    return Fraction(num, den * factorial(p.n))


# ---------------------------------------------------------------------------
# exponential moments in closed form

@cache
def _taylor_plan(m: int):
    """For m nodes: Z's edge slots (flat: sources to c_0, the chain, c_n to
    sinks), the weights 1/k! in Paterson-Stockmeyer blocks and the identity.
    Every call shares them, so nothing writes to them."""
    size, chain = 3 * m, np.arange(m, 2 * m - 1)
    edges = np.concatenate([np.arange(m) * size + m, chain * (size + 1) + 1, (2 * m - 1) * size + np.arange(2 * m, size)])
    weights = np.cumprod(1.0 / np.maximum(np.arange(5 * -(-(m + 19) // 5)), 1)).reshape(-1, 5)
    return edges, weights, np.eye(size)


def _exp_divided_differences(t: np.ndarray) -> np.ndarray:
    """exp[t_k, t_0, ..., t_n, t_l] for every row t of `t` and all k, l.

    Z is upper triangular with t on its diagonal three times, as sources k,
    a chain c_0..c_n and sinks l, and edges of weight 1 from each source to
    c_0, along the chain and from c_n to each sink.  Entry (i, j) of exp(Z)
    sums exp's divided differences over the paths i -> j (Higham, Functions
    of Matrices, 4.6); k and l are joined by the one path k, c_0..c_n, l.
    Rows are shifted by their smallest node, so no entry of Z is negative
    and nothing cancels.  Rows of equal nodes only (a = 0) give e^t / (n+2)!.
    """
    rows, m = t.shape
    low = t.min(axis=1)
    spread = float(np.max(t.max(axis=1) - low))
    if spread == 0.0:
        return np.repeat(np.exp(low) / factorial(m + 1), m * m).reshape(rows, m, m)
    # scale until no diagonal entry exceeds 1; the Taylor remainder of a
    # path of m + 2 nodes is then below 1/18!, about one rounding unit
    squarings = ceil(log2(spread)) if 1.0 < spread < inf else 0
    h = 2.0**-squarings
    size, (edges, weights, identity) = 3 * m, _taylor_plan(m)
    z = np.zeros((rows, size * size))
    z[:, :: size + 1] = np.tile((t - low[:, None]) * h, 3)
    z[:, edges] = h
    z = z.reshape(rows, size, size)
    # Taylor sum to degree >= m + 18, Paterson-Stockmeyer: blocks in z^0..z^4, Horner in z^5
    powers = np.empty((6, rows, size, size))
    powers[0], powers[1] = identity, z
    for i in range(2, 6):
        np.matmul(powers[i - 1], z, out=powers[i])
    blocks = (weights @ powers[:5].reshape(5, -1)).reshape(-1, rows, size, size)
    e = blocks[-1]
    for block in blocks[-2::-1]:
        e = block + powers[5] @ e
    e *= np.exp(low * h)[:, None, None]
    for _ in range(squarings):
        e = e @ e
    return e[:, :m, 2 * m :]


class FanoPolytope:
    """A polytope's float triangulation and the moments of the last vector
    they were asked at.  It holds any Delzant polytope; `fano_normalize` is
    what makes it the anticanonical model, every offset -1, origin interior."""

    def __init__(self, base: DelzantPolytope):
        self.base = base
        self._last = None  # (a.tobytes(), moments) of the last _moments call

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def vertices(self):
        return self.base.vertices

    @cached_property
    def _cells(self):
        """Float triangulation for _moments: per simplex, the rows h_k = (1, v_k)
        and the weights n! vol (1 + [k = l])."""
        v = self.base.vertex_floats[np.array(_simplices(self.base))]
        h = np.concatenate([np.ones(v.shape[:2] + (1,)), v], axis=2)
        return h, np.abs(np.linalg.det(h))[:, None, None] * (1 + np.eye(self.n + 1))

    def to_json(self) -> dict:
        return self.base.to_json()

    def __repr__(self):
        return f"FanoPolytope({self.base!r})"


def fano_normalize(p: DelzantPolytope) -> FanoPolytope:
    """Anticanonical model with the same normals and offsets all -1.

    Its vertices follow from p's by an exact certificate.  Let v be a
    vertex of p with tight forms I and edge generators g_1..g_n.  When
    the tight normals and the generators are dual lattice bases
    (`_dual_facets`), w_v = -sum_j g_j solves
    <u_k, w_v> = -1 for k in I.  When besides <u_k, w_v> > -1 for every
    other k, at every vertex, the offsets -1 are strictly convex on the
    complete simplicial fan of p: the model is ample on that fan (Cox,
    Little and Schenck, Toric Varieties, section 6.1).  Its vertices are
    then exactly the w_v, with p's incidences and edge generators, so it
    is Delzant and its vertex data are carried over from p.  Otherwise
    NotFano names the first vertex of p where the certificate fails, and
    the test that failed there.
    """
    n, normals = p.n, [f.u for f in p.forms]
    model = []  # the vertex rows (w_v, 1)

    def at(vertex):  # made only for a message, so only on failure
        return f"vertex {tuple(map(str, _point(vertex)))} of p"

    for i, (vertex, facets, edges) in enumerate(zip(p.vertex_rows, p._incidences, p._edges)):
        if len(facets) != n or len(edges) != n:
            raise NotFano(
                f"{at(vertex)} has {len(facets)} facets and {len(edges)} edges, "
                f"not {n}: p is not simple there"
            )
        if _dual_facets(p, i) is None:
            raise NotFano(f"at {at(vertex)} the tight normals and the edge generators are not dual bases")
        w = [-sum(c) for c in zip(*(g for _, g in edges))]
        for k, u in enumerate(normals):
            value = sum(map(mul, u, w))
            if k not in facets and value <= -1:
                raise NotFano(
                    f"form {k} reaches {value} at the model vertex {tuple(w)} of {at(vertex)}, "
                    "so -K is not ample"
                )
        model.append((*w, 1))
    forms = [_form(u, Fraction(-1)) for u in normals]  # p's forms checked each u
    return FanoPolytope(_carry(p, forms, range(len(forms)), model, None))


# ---------------------------------------------------------------------------
# integrals and the soliton vector

def _moments(fp: FanoPolytope, a: np.ndarray):
    """(integral e^{<a,x>}, integral x e, integral x x^T e) in closed form.

    On a simplex S with vertices v_k, barycentric coordinates beta_k and
    t_k = <a, v_k>, the Hermite-Genocchi formula gives

        integral_S beta_k beta_l e^{<a,x>} = n! vol(S) (1 + [k = l]) exp[t_k, t_0..t_n, t_l]

    (Baldoni, Berline, De Loera, Koppe and Vergne, arXiv:0809.2083).  As
    sum_k beta_k (1, v_k) = (1, x), H^T (w o exp[...]) H, H the rows (1, v_k),
    summed over the simplices holds all three moments.  Raises QuadratureNotConverged on overflow.  The moments at the
    last a are kept on fp, so asking again at the same a costs nothing.
    """
    key = a.tobytes()
    if fp._last is not None and fp._last[0] == key:
        return fp._last[1]
    h, weights = fp._cells
    with np.errstate(over="ignore", invalid="ignore"):
        full = np.einsum("ski,skl,slj->ij", h, weights * _exp_divided_differences(h[:, :, 1:] @ a), h)
        full = (full + full.T) / 2  # symmetric to the last bit, as the Hessian is
    if not np.all(np.isfinite(full)):
        raise QuadratureNotConverged(f"moments of e^<a,x> overflow at a = {a.tolist()}")
    moments = float(full[0, 0]), full[1:, 0], full[1:, 1:]
    fp._last = key, moments
    return moments


def polytope_integral(fp: FanoPolytope, a, integrand: str = "1"):
    """Integral of {1, x, x x^T}[integrand] * e^{<a, x>} over the polytope.

    The integral is exact up to rounding (see _moments); a weight that
    overflows double precision raises QuadratureNotConverged.  Arrays are
    returned as copies, so changing one leaves the moments kept on fp.
    """
    a = np.zeros(fp.n) if a is None else _vector(a, fp.n)
    order = {"1": 0, "x": 1, "xx": 2}.get(integrand)
    if order is None:
        raise ValueError(f"unknown integrand {integrand!r}")
    value = _moments(fp, a)[order]
    return value if order == 0 else value.copy()


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


def soliton_vector(fp: FanoPolytope, tol: float = NEWTON_TOL) -> SolitonData:
    """Damped Newton minimisation of F(a) = integral e^{<a,x>} dx.

    The gradient is the weighted barycenter integral x e^{<a,x>}, the
    Hessian integral x x^T e^{<a,x>} is positive definite, so Newton steps
    backtracking on |grad F| converge from a = 0 (not on F: near the
    minimum F changes by less than its rounding).  ValueError unless tol
    is positive and finite; MaxIterations after NEWTON_MAX_ITER steps.
    """
    _tolerance(tol)
    a = np.zeros(fp.n)
    _, grad, hess = _moments(fp, a)
    for iteration in range(NEWTON_MAX_ITER):
        residual = sqrt(grad @ grad)  # as np.linalg.norm computes it, without its overhead
        if residual <= tol:
            return SolitonData(a=a, gradient_residual=residual, iterations=iteration)
        direction = np.linalg.solve(hess, -grad)
        step = 1.0
        while True:
            trial = a + step * direction
            _, trial_grad, trial_hess = _moments(fp, trial)
            if sqrt(trial_grad @ trial_grad) <= (1.0 - 1e-4 * step) * residual or step <= 1e-14:
                break
            step *= 0.5
        a, grad, hess = trial, trial_grad, trial_hess
    raise MaxIterations(
        f"Newton solver stalled at residual {sqrt(grad @ grad):.3e} "
        f"after {NEWTON_MAX_ITER} iterations"
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
    polytope: DelzantPolytope, points, values, tol: float | None = None
) -> EinsteinVerdict:
    """Run the verdict pipeline on precomputed samples of q = |grad f|^2.

    Steps: (1) affine fit of q; failure of affinity means the metric
    cannot satisfy the soliton hypothesis (HypothesisFails).  (2) the
    fitted affine function must vanish at every vertex.  (3) the
    vertices affinely span, as every DelzantPolytope's do.  (4) q itself
    must be as small as the zero affine function predicts.  Steps 2 and 4
    cannot fail for genuine metric data, so their failure yields
    Inconclusive.  DegenerateSampleSet for n + 1 samples or fewer, which
    leave the fit no residual; OutOfFloatRange when q, the fit's vertex
    values or the zero bound is not finite.  `tol` bounds both the affinity
    residual (step 1) and the vertex values (step 2); by default each
    follows the data (below).  A tol given must be positive and finite
    (ValueError).
    """
    _tolerance(tol)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    vals = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(vals)):
        raise OutOfFloatRange("q is not finite at every sample")
    fit = _affinity_fit(pts, vals, polytope.n)
    low, high = float(vals.min()), float(vals.max())
    spread, scale = high - low, abs(max(high, -low))    # scale = max |q|
    # the affinity floor keeps exactly-constant data from tripping on lstsq noise
    affinity_tol = max(1e-6 * spread, 1e-12 * max(1.0, scale)) if tol is None else tol
    vertex_tol = 1e-6 * max(1.0, spread) if tol is None else tol

    affine_ok = fit.max_residual <= affinity_tol

    with np.errstate(over="ignore", invalid="ignore"):  # refused below when not finite
        vertex_values = polytope.vertex_floats @ fit.gradient + fit.constant
    vertex_worst = float(np.max(np.abs(vertex_values)))
    vertex_ok = vertex_worst <= vertex_tol

    zero_bound = polytope.n * vertex_tol * (1.0 + hypot(fit.constant, *fit.gradient))
    if not (np.all(np.isfinite(vertex_values)) and isfinite(zero_bound)):
        raise OutOfFloatRange("the fit of q has vertex values or a zero bound that are not finite")
    zero_ok = scale <= zero_bound

    if not affine_ok:
        conclusion = Conclusion.HYPOTHESIS_FAILS
    elif vertex_ok and zero_ok:
        conclusion = Conclusion.EINSTEIN
    else:
        conclusion = Conclusion.INCONCLUSIVE

    certificates = {
        "affinity": {"max_residual": fit.max_residual, "tolerance": affinity_tol, "passed": bool(affine_ok)},
        "vertex_vanishing": {"max_abs_value": vertex_worst, "tolerance": vertex_tol, "passed": vertex_ok},
        "affine_span": {"rank": int(polytope.n), "required": int(polytope.n), "passed": True},
        "zero_function": {"max_abs_q": scale, "bound": zero_bound, "passed": bool(zero_ok)},
    }
    return EinsteinVerdict(
        conclusion=conclusion,
        fit=fit,
        vertex_values=vertex_values,
        rank=polytope.n,
        certificates=certificates,
    )


def verify_einstein(
    pot: SymplecticPotential, a, grid: int = 20, margin: float | None = None, tol: float | None = None
) -> EinsteinVerdict:
    """Sample q(x) = a^T G^{-1}(x) a on an interior grid and decide whether
    the soliton field must vanish (Einstein), the affinity hypothesis
    fails, or the certificates disagree (Inconclusive).

    q comes from each batch's Cholesky factor (`MetricBatch.inverse_form`),
    so no G is inverted; a point where the metric fails raises as `metric_jet`
    would there, for the first such point.  tol, as in
    `einstein_verdict_from_samples`, is checked first.
    """
    a = _vector(a, pot.n)
    _tolerance(tol)
    pts = sampling.interior_grid(pot.polytope, grid, margin)
    values = np.concatenate([b.inverse_form(a) for b in metric_jets(pot, pts)])
    return einstein_verdict_from_samples(pot.polytope, pts, values, tol=tol)
