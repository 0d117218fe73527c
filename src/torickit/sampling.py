"""Interior sampling helpers: grids, random points, rays into vertices."""

from __future__ import annotations

import itertools
import operator

import numpy as np

from . import exact
from .errors import BadMargin, OutOfFloatRange
from .polytope import DelzantPolytope, VertexData

DEFAULT_MARGIN_FACTOR = 1e-3


def bounding_box(p: DelzantPolytope) -> tuple[np.ndarray, np.ndarray]:
    verts = p.vertex_floats
    return verts.min(axis=0), verts.max(axis=0)


def diameter(p: DelzantPolytope) -> float:
    """Largest vertex distance; OutOfFloatRange when its square overflows."""
    verts = p.vertex_floats
    with np.errstate(over="ignore"):
        diffs = verts[:, None, :] - verts[None, :, :]
        d = float(np.sqrt((diffs**2).sum(axis=2)).max())
    if not np.isfinite(d):
        raise OutOfFloatRange("the polytope's extent lies beyond the float range")
    return d


def default_margin(p: DelzantPolytope) -> float:
    return DEFAULT_MARGIN_FACTOR * diameter(p)


def inradius(p: DelzantPolytope) -> float:
    """Radius of the largest ball inside p: the largest r with
    lambda_k(x) >= r |u_k| for every k.

    As a linear programme in (x, r) its optimum is a vertex where n + 1
    of the constraints are tight, so it is the largest feasible r over
    the solutions of those (n+1) x (n+1) systems.  Its origin is a vertex,
    so the feasibility tolerance follows p's size, not its position."""
    a = np.hstack([p.normals_float, -p.normal_lengths[:, None]])
    *x, d = p.vertex_rows[0]                # the vertex x / d; the offsets seen from it, exactly
    b = exact.floats([(f.b * d - sum(u * c for u, c in zip(f.u, x))) / d for f in p.forms])
    subsets = np.array(list(itertools.combinations(range(len(b)), p.n + 1)))
    mats, rhs = a[subsets], b[subsets]
    keep = np.abs(np.linalg.det(mats)) > 1e-9
    sols = np.linalg.solve(mats[keep], rhs[keep][..., None])[..., 0]
    feasible = np.all(sols @ a.T - b >= -1e-9 * np.abs(b).max(), axis=1)  # relative: p may be tiny
    return float(sols[feasible, -1].max())


def interior_distance(p: DelzantPolytope, x) -> np.ndarray | float:
    """Euclidean distance from the point x, or each point of x, to the nearest bounding hyperplane."""
    d = (p.lambdas(x) / p.normal_lengths).min(axis=1)
    return d[0] if np.ndim(x) == 1 and np.size(x) else d


def interior_grid(p: DelzantPolytope, per_axis: int, margin: float | None = None) -> np.ndarray:
    """Uniform lattice over the bounding box, kept where the distance to
    every facet is at least `margin` (default 1e-3 * diameter)."""
    if per_axis < 3:
        raise ValueError("grid resolution must be at least 3 per axis")
    margin = default_margin(p) if margin is None else margin
    if not 0 < margin < np.inf:
        raise BadMargin(f"margin {margin} is not positive and finite")
    if operator.index(per_axis) ** p.n * p.n * 8 > np.iinfo(np.intp).max:  # numpy's ValueError, not MemoryError
        raise MemoryError(f"a grid of {per_axis}^{p.n} points is too large to index")
    # np.linspace(lo + margin, hi - margin, per_axis) in its own arithmetic
    (lo, hi), y = bounding_box(p), np.arange(per_axis, dtype=float)[:, None]
    start, stop = lo + margin, hi - margin
    step = (stop - start) / (per_axis - 1)
    axes = (y * step if step.all() else y / (per_axis - 1) * (stop - start)) + start
    axes[-1] = stop
    # meshgrid's "ij" order: axis j's values each repeat per_axis^(n-1-j) times, their run per_axis^j times
    runs = (axes[:, j].repeat(per_axis ** (p.n - 1 - j))[None].repeat(per_axis**j, 0) for j in range(p.n))
    pts = np.stack([run.ravel() for run in runs], -1)
    keep = interior_distance(p, pts) >= margin
    pts = pts[keep]
    if not len(pts):
        raise BadMargin(f"margin {margin} leaves no interior grid points")
    return pts


def random_interior_points(
    p: DelzantPolytope,
    count: int,
    margin: float | None = None,
    rng: np.random.Generator | int | None = 0,
) -> np.ndarray:
    """Rejection-sampled uniform interior points with a distance margin."""
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    margin = default_margin(p) if margin is None else margin
    if not 0 < margin < np.inf:
        raise BadMargin(f"margin {margin} is not positive and finite")
    radius = inradius(p)
    if margin >= radius:
        raise BadMargin(f"margin {margin} is not below the inradius {radius:.6g}")
    if max(4 * operator.index(count), 64) * p.n * 8 > np.iinfo(np.intp).max:  # a batch below, as in interior_grid
        raise MemoryError(f"a sample of {count} points is too large to index")
    lo, hi = bounding_box(p)
    out = np.empty((count, p.n))
    have = 0
    for _ in range(10_000):
        batch = rng.uniform(lo, hi, size=(max(4 * count, 64), p.n))
        good = batch[interior_distance(p, batch) >= margin]
        take = min(len(good), count - have)
        out[have : have + take] = good[:take]
        have += take
        if have == count:
            return out
    raise BadMargin(f"margin {margin} leaves {have} of {count} random points after 10000 batches")


def geometric_ts(t0: float = 1e-2, count: int = 15) -> np.ndarray:
    """t0 * 2^-m for m = 0..count-1 (count capped at 21)."""
    if not 1 <= count <= 21:
        raise ValueError("count must be between 1 and 21")
    return t0 * 2.0 ** -np.arange(count)


def interior_rays(vertex: VertexData, count: int = 3) -> list[np.ndarray]:
    """Distinct directions pointing from a vertex into the interior.

    Built from positive combinations of the edge generators, so each ray
    enters the polytope for small enough step.
    """
    gens = [np.array(g, dtype=float) for g in vertex.edge_generators]
    if not gens:
        raise ValueError("vertex has no edge generators")
    base = np.sum(gens, axis=0)
    candidates = [base] + [base + g for g in gens] + [base + 2 * g for g in gens]
    k = 2
    while len(candidates) < count + len(gens):
        k += 1
        candidates += [base + k * g for g in gens]
    rays: list[np.ndarray] = []
    for c in candidates:
        if not any(np.array_equal(c, r) for r in rays):
            rays.append(c)
        if len(rays) == count:
            break
    return rays


def ray_points(vertex, ray, ts) -> np.ndarray:
    """x = v + t * d for each t; ValueError, naming both lengths, unless d has v's."""
    v = exact.floats(vertex.coordinates if isinstance(vertex, VertexData) else vertex)
    d = np.asarray(ray, dtype=float)
    if d.shape != v.shape:
        raise ValueError(f"the ray needs {len(v)} components for this vertex, got {d.size if d.ndim == 1 else d.shape}")
    ts = np.asarray(ts, dtype=float)
    return v[None, :] + ts[:, None] * d[None, :]
