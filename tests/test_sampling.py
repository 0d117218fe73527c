"""Interior grids, random points, rays, and distance bookkeeping."""

import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torickit import (
    CATALOG_DEFAULTS,
    AffineForm,
    BadMargin,
    DelzantPolytope,
    UnimodularMap,
    catalog,
    geometric_ts,
    interior_distance,
    interior_grid,
    interior_rays,
    random_interior_points,
    ray_points,
)
from torickit import sampling

from strategies import lattice_maps

F = Fraction


def test_interior_distance_matches_direct_formula():
    p = catalog("simplex", 2)
    x = np.array([0.2, 0.3])
    # distances to x=0, y=0 and the hypotenuse (1-x-y)/sqrt(2)
    want = min(0.2, 0.3, 0.5 / np.sqrt(2))
    assert interior_distance(p, x) == pytest.approx(want, rel=1e-12)
    assert interior_distance(p, np.array([0.0, 0.3])) == 0.0


def test_grid_stays_strictly_inside(catalog_polytope):
    pts = interior_grid(catalog_polytope, 6)
    assert len(pts) > 0
    lam = catalog_polytope.lambdas(pts)
    assert np.all(lam > 0)


def test_grid_respects_margin():
    p = catalog("cube", 2)
    pts = interior_grid(p, 10, margin=0.2)
    d = np.array([interior_distance(p, x) for x in pts])
    assert d.min() >= 0.2 - 1e-12


def test_grid_resolution_floor():
    p = catalog("cube", 2)
    with pytest.raises(ValueError):
        interior_grid(p, 2)
    with pytest.raises(ValueError):
        interior_grid(p, 10, margin=10.0)  # margin swallows the polytope
    with pytest.raises(TypeError):
        interior_grid(p, 4.0)  # a count, as np.linspace took it


def test_random_points_deterministic_and_interior(catalog_polytope):
    a = random_interior_points(catalog_polytope, 25, rng=0)
    b = random_interior_points(catalog_polytope, 25, rng=0)
    c = random_interior_points(catalog_polytope, 25, rng=1)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.all(catalog_polytope.lambdas(a) > 0)


def scaled_hirzebruch(s):
    """hirzebruch(1) with its offsets times s: x, y >= 0, x + y <= 2s, x <= s,
    whose inradius is s / 2."""
    return DelzantPolytope.from_forms([AffineForm(f.u, f.b * s) for f in catalog("hirzebruch", 1).forms])


def moved_hirzebruch(s):
    """`scaled_hirzebruch(s)` moved by (1000, 1000)."""
    return UnimodularMap(((1, 0), (0, 1)), (-1000, -1000)).apply_polytope(scaled_hirzebruch(s))


@pytest.mark.parametrize(
    "name,params,want",
    [
        ("simplex", (1,), 0.5),
        ("simplex", (2,), 1 / (2 + np.sqrt(2))),
        ("simplex", (4,), 1 / 6),
        ("cube", (3,), 0.5),
        ("blowup_cp2", (3,), 1 / np.sqrt(2)),
        # an absolute floor in the feasibility tolerance once let infeasible
        # solutions through at s = 1e-12, and gave s / sqrt(2)
        ("scaled_hirzebruch", (1,), 0.5),
        ("scaled_hirzebruch", (F(1, 10**6),), 0.5e-6),
        ("scaled_hirzebruch", (F(1, 10**12),), 0.5e-12),
        # a tolerance taken from the offsets far from the origin once let
        # infeasible solutions through at s = 1e-6 and 1e-9
        ("moved_hirzebruch", (1,), 0.5),
        ("moved_hirzebruch", (F(1, 10**6),), 0.5e-6),
        ("moved_hirzebruch", (F(1, 10**9),), 0.5e-9),
    ],
)
def test_inradius(name, params, want):
    built = {"scaled_hirzebruch": scaled_hirzebruch, "moved_hirzebruch": moved_hirzebruch}
    p = built[name](*params) if name in built else catalog(name, *params)
    assert sampling.inradius(p) == pytest.approx(want, rel=1e-12, abs=0)


def test_random_points_refuse_a_margin_from_the_inradius_on():
    cases = [(catalog("simplex", 2), 0.4)]
    cases += [(scaled_hirzebruch(s), 0.55 * s) for s in (F(1), F(1, 10**6), F(1, 10**12))]
    cases += [(moved_hirzebruch(s), 0.55 * s) for s in (F(1), F(1, 10**6), F(1, 10**9))]
    for p, beyond in cases:
        r = sampling.inradius(p)
        for margin in (r, float(beyond)):
            with pytest.raises(BadMargin, match="inradius"):
                random_interior_points(p, 5, margin=margin)
        pts = random_interior_points(p, 5, margin=0.95 * r)
        assert np.all(interior_distance(p, pts) >= 0.95 * r)


def test_geometric_ladder():
    ts = geometric_ts(1e-2, 15)
    assert len(ts) == 15
    assert ts[0] == pytest.approx(1e-2)
    assert np.allclose(ts[:-1] / ts[1:], 2.0)
    with pytest.raises(ValueError):
        geometric_ts(1e-2, 40)  # ladder would underflow useful range


def test_interior_rays_point_inward(catalog_polytope):
    p = catalog_polytope
    for v in p.vertices:
        rays = interior_rays(v, 3)
        assert len(rays) == 3
        for d in rays:
            for t in (1e-3, 1e-6):
                assert np.all(p.lambdas(v.as_float() + t * d) > 0)


def test_ray_points_shape():
    p = catalog("cube", 2)
    v = p.vertices[0]
    ray = interior_rays(v, 1)[0]
    ts = geometric_ts(1e-2, 5)
    pts = ray_points(v, ray, ts)
    assert pts.shape == (5, 2)
    assert np.allclose(pts, v.as_float() + ts[:, None] * ray)


def test_default_margin_scales_with_diameter():
    small = catalog("cube", 2)
    big = catalog("cube", 2, 100)
    assert sampling.default_margin(big) == pytest.approx(
        100 * sampling.default_margin(small)
    )


@pytest.mark.parametrize("margin", [-0.5, 0, 0.0, -0.0, float("nan"), float("inf"), -float("inf")])
def test_samplers_refuse_a_margin_that_is_not_positive_and_finite(margin):
    # a negative margin once kept grid points outside the polytope, 0 kept
    # points on its boundary, and nan spun 10,000 batches before refusing
    p = catalog("simplex", 2)
    start = time.perf_counter()
    with pytest.raises(BadMargin, match="not positive and finite"):
        interior_grid(p, 5, margin=margin)
    with pytest.raises(BadMargin, match="not positive and finite"):
        random_interior_points(p, 5, margin=margin)
    assert time.perf_counter() - start < 0.1


def meshgrid_interior_grid(p, per_axis, margin):
    """`interior_grid` as np.linspace and np.meshgrid built it: the reference."""
    lo, hi = sampling.bounding_box(p)
    axes = np.linspace(lo + margin, hi - margin, per_axis)
    pts = np.stack(np.meshgrid(*axes.T, indexing="ij"), -1).reshape(-1, p.n)
    return pts[interior_distance(p, pts) >= margin]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(CATALOG_DEFAULTS), st.integers(3, 9), st.floats(1e-6, 0.3), st.data())
def test_grid_is_the_linspace_meshgrid_grid(entry, per_axis, fraction, data):
    base = catalog(entry[0], *entry[1])
    p = data.draw(lattice_maps(base.n)).apply_polytope(base)
    margin = fraction * sampling.inradius(p)
    want = meshgrid_interior_grid(p, per_axis, margin)
    if not len(want):   # a coarse grid over a sheared image can miss the interior
        with pytest.raises(BadMargin, match="leaves no interior grid points"):
            interior_grid(p, per_axis, margin)
        return
    got = interior_grid(p, per_axis, margin)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert got.flags.c_contiguous


def test_grid_is_the_linspace_meshgrid_grid_with_the_default_margin(catalog_polytope):
    p = catalog_polytope
    for per_axis in (3, 4, 9):
        want = meshgrid_interior_grid(p, per_axis, sampling.default_margin(p))
        assert interior_grid(p, per_axis).tobytes() == want.tobytes()


@pytest.mark.parametrize("p, margin", [(catalog("cube", 2), 0.5), (catalog("cube", 1, F(3, 10**310)), 3e-310 / 2)],
                         ids=["zero width", "subnormal width"])
def test_grid_is_the_linspace_meshgrid_grid_where_a_step_is_zero(p, margin):
    # linspace divides by the point count before it multiplies by the width
    # when width / count is 0; at 3e-310 / 2 the width is 5e-324, and not 0
    lo, hi = sampling.bounding_box(p)
    assert np.all(((hi - margin) - (lo + margin)) / 4 == 0)
    for per_axis in (3, 5):
        want = meshgrid_interior_grid(p, per_axis, margin)
        assert interior_grid(p, per_axis, margin).tobytes() == want.tobytes()
