"""Acceptance gate: one test per release criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v` to get one pass/fail line per
criterion.  Each test also prints a short summary visible under `-s` or in
the failure report.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

import oracles
from torickit import (
    CATALOG_DEFAULTS,
    AffineForm,
    Conclusion,
    DelzantPolytope,
    NotFano,
    Polynomial,
    SymplecticPotential,
    UnimodularMap,
    catalog,
    check_delzant,
    cofactor_growth_check,
    det_factorization_check,
    einstein_verdict_from_samples,
    fano_normalize,
    fd_cross_validate,
    geometric_ts,
    interior_grid,
    interior_rays,
    metric_jet,
    normalize_at_vertex,
    random_interior_points,
    scalar_curvature,
    scalar_curvature_fd,
    soliton_vector,
    verify_einstein,
    vertex_vanishing_probe,
    vertices_affinely_span,
)
from torickit import affine_span_rank, sampling

F = Fraction


def _guillemin(name, *params):
    return SymplecticPotential.guillemin(catalog(name, *params))


def _report(num, detail):
    print(f"[criterion {num}] PASS  {detail}")


def test_criterion_1_delzant_gate():
    t0 = time.perf_counter()
    for name, params in CATALOG_DEFAULTS:
        assert check_delzant(catalog(name, *params)).is_delzant, (name, params)
    triangle = DelzantPolytope.from_forms(
        [
            AffineForm((1, 0), F(0)),
            AffineForm((0, 1), F(0)),
            AffineForm((-1, -2), F(-2)),
        ],
        2,
    )
    report = check_delzant(triangle)
    assert not report.is_delzant
    bad = report.failing()
    assert len(bad) == 1
    assert tuple(bad[0].coordinates) == (F(0), F(1))
    assert abs(bad[0].edge_det) == 2
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(1, f"catalog + failing triangle in {elapsed:.3f}s")


def test_criterion_2_vertex_affine_span():
    for name, params in CATALOG_DEFAULTS:
        p = catalog(name, *params)
        rank = affine_span_rank([v.coordinates for v in p.vertices])
        assert rank == p.n, (name, params, rank)
        assert vertices_affinely_span(p)
    _report(2, "affine span rank equals the dimension on every catalog entry")


def test_criterion_3_cp1_closed_forms():
    pot = _guillemin("simplex", 1)
    pts = interior_grid(pot.polytope, 1000)
    assert len(pts) == 1000
    ginv_err = max(
        abs(float(metric_jet(pot, x).G_inv[0, 0]) - 2.0 * x[0] * (1.0 - x[0]))
        for x in pts
    )
    assert ginv_err <= 1e-12
    s_err = max(abs(scalar_curvature(pot, x) - 4.0) for x in pts)
    assert s_err <= 1e-8
    fd_err = max(abs(scalar_curvature_fd(pot, x) - 4.0) for x in pts)
    assert fd_err <= 1e-5
    _report(
        3,
        f"G_inv err {ginv_err:.1e}, s err {s_err:.1e} (analytic) / {fd_err:.1e} (FD)",
    )


def test_criterion_4_cp2_and_cube_closed_forms():
    pot = _guillemin("simplex", 2)
    pts = interior_grid(pot.polytope, 50)
    ginv_err = 0.0
    s_err = 0.0
    for p in pts:
        x, y = p
        want = np.array([[2 * x * (1 - x), -2 * x * y], [-2 * x * y, 2 * y * (1 - y)]])
        ginv_err = max(ginv_err, np.max(np.abs(metric_jet(pot, p).G_inv - want)))
        s_err = max(s_err, abs(scalar_curvature(pot, p) - 12.0))
    assert ginv_err <= 1e-10
    assert s_err <= 1e-8

    cube_pot = _guillemin("cube", 2)
    cube_err = max(
        abs(scalar_curvature(cube_pot, p) - 8.0) for p in interior_grid(cube_pot.polytope, 25)
    )
    assert cube_err <= 1e-8

    cp1 = _guillemin("simplex", 1)
    rep1 = det_factorization_check(cp1, interior_grid(cp1.polytope, 200))
    assert abs(rep1.min_delta - 2.0) <= 1e-8 and abs(rep1.max_delta - 2.0) <= 1e-8
    rep2 = det_factorization_check(pot, pts)
    assert abs(rep2.min_delta - 4.0) <= 1e-8 and abs(rep2.max_delta - 4.0) <= 1e-8
    _report(
        4,
        f"CP2 G_inv err {ginv_err:.1e}, s errs {s_err:.1e}/{cube_err:.1e}, "
        f"deltas 2 and 4 constant",
    )


def test_criterion_5_vertex_decay_probes():
    # rays are unit directions: the decay rate is what is being measured,
    # not the parametrization speed
    ts = geometric_ts(1e-2, 15)
    min_slope = np.inf
    max_final = 0.0
    for name, params in CATALOG_DEFAULTS:
        p = catalog(name, *params)
        pot = SymplecticPotential.guillemin(p)
        for v in p.vertices:
            for ray in interior_rays(v, 3):
                d = np.asarray(ray, dtype=float)
                d /= np.linalg.norm(d)
                probe = vertex_vanishing_probe(pot, v, d, ts)
                assert probe.passed, (name, params, tuple(v.coordinates))
                min_slope = min(min_slope, probe.slope)
            _, q = normalize_at_vertex(p, v.coordinates)
            qpot = SymplecticPotential.guillemin(q)
            origin = q.vertex_at(tuple(F(0) for _ in range(q.n)))
            for ray in interior_rays(origin, 3):
                d = np.asarray(ray, dtype=float)
                d /= np.linalg.norm(d)
                rep = cofactor_growth_check(qpot, d, ts)
                assert rep.passed, (name, params, tuple(v.coordinates))
                max_final = max(max_final, rep.final_max)
    assert min_slope >= 0.9
    assert max_final < 1e-6
    _report(5, f"min slope {min_slope:.3f}, max cofactor product {max_final:.2e}")


def test_criterion_6_soliton_solver():
    t0 = time.perf_counter()
    for name, params in (("simplex", (2,)), ("cube", (2,))):
        data = soliton_vector(fano_normalize(catalog(name, *params)))
        assert np.linalg.norm(data.a) <= 1e-8, (name, params)

    data = soliton_vector(fano_normalize(catalog("blowup_cp2", 1)))
    assert abs(data.a[0] - data.a[1]) <= 1e-8
    assert data.gradient_residual <= 1e-10
    t_oracle = oracles.bisect_soliton_t(tol=1e-8)
    assert abs(data.a[0] - t_oracle) <= 1e-6

    with pytest.raises(NotFano):
        fano_normalize(catalog("hirzebruch", 2))
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(
        6,
        f"t = {data.a[0]:.12f} vs oracle {t_oracle:.12f}, "
        f"NotFano raised, {elapsed:.2f}s",
    )


def test_criterion_7_theorem_pipeline():
    # (a) wrong vector on the cube: affine hypothesis fails loudly while
    # the sampled q still decays at every vertex
    p = catalog("cube", 2)
    pot = SymplecticPotential.guillemin(p)
    verdict = verify_einstein(pot, [1.0, 0.0])
    assert verdict.conclusion is Conclusion.HYPOTHESIS_FAILS
    assert verdict.fit.max_residual >= 0.1
    a = np.array([1.0, 0.0])
    for v in p.vertices:
        ray = np.asarray(interior_rays(v, 1)[0], dtype=float)
        x = v.as_float() + 1e-8 * ray
        q = float(a @ metric_jet(pot, x).G_inv @ a)
        assert abs(q) <= 1e-6

    # (b) the zero vector is Einstein on every catalog entry
    for name, params in CATALOG_DEFAULTS:
        cat_pot = _guillemin(name, *params)
        v0 = verify_einstein(cat_pot, [0.0] * cat_pot.n)
        assert v0.conclusion is Conclusion.EINSTEIN, (name, params)

    # (c) affine data vanishing on all square vertices is the zero
    # function; the fit recovers exactly zero coefficients
    pts = interior_grid(p, 12)
    vz = einstein_verdict_from_samples(p, pts, np.zeros(len(pts)))
    assert vz.conclusion is Conclusion.EINSTEIN
    assert abs(vz.fit.constant) <= 1e-12
    assert np.all(np.abs(vz.fit.gradient) <= 1e-12)
    _report(7, f"HypothesisFails residual {verdict.fit.max_residual:.3f}, "
               f"zero vector Einstein on all entries")


def test_criterion_8_fd_cross_validation():
    worst = 0.0
    for i, (name, params) in enumerate(CATALOG_DEFAULTS):
        p = catalog(name, *params)
        pot = SymplecticPotential.guillemin(p)
        margin = 0.05 * sampling.diameter(p)
        pts = random_interior_points(p, 100, margin=margin, rng=100 + i)
        rep = fd_cross_validate(pot, pts)
        assert rep.passed, (name, params, rep.max_rel_err)
        worst = max(worst, rep.max_rel_err)

    p = catalog("simplex", 2)
    perturbed = SymplecticPotential(p, Polynomial(2, {(2, 2): F(1, 100)}))
    pts = random_interior_points(p, 100, margin=0.05 * sampling.diameter(p), rng=777)
    rep = fd_cross_validate(perturbed, pts)
    assert rep.passed
    worst = max(worst, rep.max_rel_err)
    assert worst <= 1e-5
    _report(8, f"worst relative error {worst:.2e} over 1100 points")


def test_criterion_9_unimodular_covariance():
    rng = np.random.default_rng(2024)
    while True:
        A = np.eye(2, dtype=int)
        for _ in range(3):
            k = int(rng.integers(-2, 3))
            if rng.integers(2):
                A = A @ np.array([[1, k], [0, 1]])
            else:
                A = A @ np.array([[1, 0], [k, 1]])
        if np.abs(A).max() <= 3 and not np.array_equal(A, np.eye(2, dtype=int)):
            break
    assert round(abs(np.linalg.det(A))) == 1

    p = catalog("blowup_cp2", 1)
    um = UnimodularMap(tuple(map(tuple, A.tolist())), (F(0), F(0)))
    q = um.apply_polytope(p)
    pot = SymplecticPotential.guillemin(p)
    pot2 = SymplecticPotential.guillemin(q)
    Af = A.astype(float)

    pts = random_interior_points(p, 20, rng=5)
    ginv_err = 0.0
    s_err = 0.0
    for x in pts:
        x2 = Af @ x
        law = Af @ metric_jet(pot, x).G_inv @ Af.T
        ginv_err = max(ginv_err, np.max(np.abs(metric_jet(pot2, x2).G_inv - law)))
        s_err = max(s_err, abs(scalar_curvature(pot2, x2) - scalar_curvature(pot, x)))
    assert ginv_err <= 1e-8
    assert s_err <= 1e-8
    _report(
        9,
        f"A rows {A.tolist()}, G_inv covariance err {ginv_err:.1e}, "
        f"s invariance err {s_err:.1e}",
    )
