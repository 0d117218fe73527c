"""Triangulation, polytope quadrature, soliton vectors, and verdicts.

Frozen constants were produced by independent oracles (scipy adaptive
quadrature plus bisection, see oracles.py) and pinned here so drift in the
package's own quadrature or Newton path shows up as a failure.
"""

import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from strategies import lattice_maps
import torickit.potential
import torickit.soliton
from torickit import exact
from torickit import (
    AffineForm,
    Conclusion,
    DelzantPolytope,
    MaxIterations,
    NotFano,
    QuadratureNotConverged,
    SymplecticPotential,
    UnimodularMap,
    NotPositiveDefinite,
    Polynomial,
    catalog,
    einstein_verdict_from_samples,
    exact_volume,
    fano_normalize,
    interior_grid,
    interior_rays,
    metric_jet,
    polytope_integral,
    soliton_vector,
    triangulate,
    verify_einstein,
)

F = Fraction

# diagonal soliton component of the one-point blowup of CP^2, from the
# dblquad bisection oracle at tol 1e-10
T_STAR = -0.5276195198969447
# two-point blowup soliton (second component vanishes by the y -> x mirror
# symmetry of the pentagon)
DP7_A = (-0.43474766354007494, 0.0)

EXACT_VOLUMES = {
    ("simplex", (1,)): F(1),
    ("simplex", (2,)): F(1, 2),
    ("simplex", (3,)): F(1, 6),
    ("cube", (2,)): F(1),
    ("cube", (3,)): F(1),
    ("hirzebruch", (0,)): F(1),
    ("hirzebruch", (1,)): F(3, 2),
    ("blowup_cp2", (1,)): F(4),
    ("blowup_cp2", (2,)): F(7, 2),
    ("blowup_cp2", (3,)): F(3),
}


def _interval_moments(t):
    """Integrals of e^{tx}, x e^{tx}, x^2 e^{tx} over [-1, 1], in closed
    form at 40 digits (in double precision they cancel for small t)."""
    import mpmath

    with mpmath.workdps(40):
        t = mpmath.mpf(float(t))
        s, c = mpmath.sinh(t), mpmath.cosh(t)
        return [
            float(2 * s / t),
            float(2 * (t * c - s) / t**2),
            float(2 * ((t * t + 2) * s - 2 * t * c) / t**3),
        ]


class TestTriangulation:
    @pytest.mark.parametrize("entry", sorted(EXACT_VOLUMES), ids=str)
    def test_volumes_are_exact_fractions(self, entry):
        name, params = entry
        vol = exact_volume(catalog(name, *params))
        assert isinstance(vol, Fraction)
        assert vol == EXACT_VOLUMES[entry]

    def test_2d_areas_match_shoelace(self):
        for name, params in (
            ("simplex", (2,)),
            ("cube", (2,)),
            ("hirzebruch", (1,)),
            ("blowup_cp2", (2,)),
        ):
            p = catalog(name, *params)
            verts = oracles.boundary_order([v.as_float() for v in p.vertices])
            assert float(exact_volume(p)) == pytest.approx(
                oracles.shoelace_area(verts), abs=1e-14
            )

    def test_simplices_partition_the_volume(self, catalog_polytope):
        n = catalog_polytope.n
        total = F(0)
        for simplex in triangulate(catalog_polytope):
            assert len(simplex) == n + 1
            mat = [
                [simplex[i + 1][j] - simplex[0][j] for j in range(n)]
                for i in range(n)
            ]
            d = abs(exact.det(mat))
            assert d > 0  # every cell nondegenerate
            total += F(d, math.factorial(n))
        assert total == exact_volume(catalog_polytope)

    def test_triangle_is_its_own_triangulation(self):
        p = catalog("simplex", 2)
        simplices = triangulate(p)
        assert len(simplices) == 1
        assert set(simplices[0]) == {(F(0), F(0)), (F(1), F(0)), (F(0), F(1))}


class TestQuadrature:
    def test_unit_weight_recovers_volume(self, catalog_polytope):
        n = catalog_polytope.n
        val = polytope_integral(catalog_polytope, [0.0] * n, "1")
        assert val == pytest.approx(float(exact_volume(catalog_polytope)), rel=1e-12)

    def test_square_moments(self):
        fp = fano_normalize(catalog("cube", 2))
        a = [0.0, 0.0]
        assert polytope_integral(fp, a, "1") == pytest.approx(4.0, rel=1e-13)
        assert np.allclose(polytope_integral(fp, a, "x"), 0.0, atol=1e-13)
        m2 = polytope_integral(fp, a, "xx")
        assert np.allclose(m2, np.diag([4.0 / 3.0, 4.0 / 3.0]), atol=1e-13)

    def test_interval_exponential_closed_form(self):
        fp = fano_normalize(catalog("simplex", 1))
        for t in (0.3, -0.7, 1.9):
            want = 2.0 * np.sinh(t) / t
            assert polytope_integral(fp, [t], "1") == pytest.approx(want, rel=1e-12)
            want_x = 2.0 * (t * np.cosh(t) - np.sinh(t)) / t**2
            got_x = polytope_integral(fp, [t], "x")
            assert got_x[0] == pytest.approx(want_x, rel=1e-11)

    def test_triangle_centroid_moment(self):
        fp = fano_normalize(catalog("simplex", 2))
        # anticanonical triangle is centered: both first moments vanish
        m1 = polytope_integral(fp, [0.0, 0.0], "x")
        assert np.allclose(m1, 0.0, atol=1e-13)
        assert polytope_integral(fp, [0.0, 0.0], "1") == pytest.approx(4.5, rel=1e-13)

    def test_unknown_integrand(self):
        fp = fano_normalize(catalog("cube", 2))
        with pytest.raises(ValueError):
            polytope_integral(fp, [0.0, 0.0], "xxx")

    def test_violent_weight_is_exact(self):
        fp = fano_normalize(catalog("cube", 2))
        want = 4.0 * np.sinh(50.0) / 50.0
        assert polytope_integral(fp, [50.0, 0.0], "1") == pytest.approx(want, rel=1e-13)

    def test_overflow_fails_loudly(self):
        fp = fano_normalize(catalog("cube", 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QuadratureNotConverged, match="overflow"):
                polytope_integral(fp, [800.0, 0.0], "1")

    @pytest.mark.parametrize("n", [3, 4])
    def test_cube_moments_match_product_closed_forms(self, n):
        # the model is [-1, 1]^n, so every moment factors over the axes
        fp = fano_normalize(catalog("cube", n))
        a = np.random.default_rng(20 + n).uniform(-2.0, 2.0, n)
        i0, i1, i2 = np.array([_interval_moments(t) for t in a]).T
        m0 = np.prod(i0)
        m1 = m0 * i1 / i0
        m2 = np.outer(m1, m1) / m0
        np.fill_diagonal(m2, m0 * i2 / i0)
        assert polytope_integral(fp, a, "1") == pytest.approx(m0, rel=1e-13)
        assert np.allclose(polytope_integral(fp, a, "x"), m1, rtol=0, atol=1e-13 * m0)
        assert np.allclose(polytope_integral(fp, a, "xx"), m2, rtol=0, atol=1e-13 * m0)


class TestFanoNormalize:
    def test_cp2_anticanonical_triangle(self):
        fp = fano_normalize(catalog("simplex", 2))
        verts = {tuple(v.coordinates) for v in fp.base.vertices}
        assert verts == {(F(-1), F(-1)), (F(2), F(-1)), (F(-1), F(2))}
        assert np.allclose(fp.base.offsets_float, -1.0)

    def test_scale_is_forgotten(self):
        # normal fans agree, so the anticanonical models coincide
        a = fano_normalize(catalog("simplex", 2))
        b = fano_normalize(catalog("simplex", 2, F(3, 2)))
        assert a.base.to_json() == b.base.to_json()

    def test_first_hirzebruch_quadrilateral(self):
        fp = fano_normalize(catalog("hirzebruch", 1))
        verts = {tuple(v.coordinates) for v in fp.base.vertices}
        assert verts == {
            (F(-1), F(-1)),
            (F(1), F(-1)),
            (F(1), F(0)),
            (F(-1), F(2)),
        }

    def test_blowup_is_already_anticanonical(self):
        p = catalog("blowup_cp2", 1)
        fp = fano_normalize(p)
        assert fp.base.to_json() == p.to_json()

    def test_second_hirzebruch_is_rejected(self):
        with pytest.raises(NotFano, match="not a facet"):
            fano_normalize(catalog("hirzebruch", 2))

    def test_third_hirzebruch_is_rejected(self):
        with pytest.raises(NotFano):
            fano_normalize(catalog("hirzebruch", 3))

    def test_explicit_degree_two_fan_is_rejected(self):
        # same normal fan type as hirzebruch(2), different presentation
        forms = [
            AffineForm((1, 0), F(0)),
            AffineForm((0, 1), F(0)),
            AffineForm((0, -1), F(-3)),
            AffineForm((-1, 2), F(-1)),
        ]
        p = DelzantPolytope.from_forms(forms, 2)
        with pytest.raises(NotFano):
            fano_normalize(p)

    def test_vertex_count_is_preserved(self):
        for name, params in (
            ("simplex", (2,)),
            ("cube", (2,)),
            ("hirzebruch", (0,)),
            ("hirzebruch", (1,)),
            ("blowup_cp2", (2,)),
            ("blowup_cp2", (3,)),
        ):
            p = catalog(name, *params)
            fp = fano_normalize(p)
            assert len(fp.base.vertices) == len(p.vertices)


class TestSolitonVector:
    @pytest.mark.parametrize(
        "name,params",
        [("simplex", (2,)), ("cube", (2,)), ("cube", (3,)), ("blowup_cp2", (3,))],
    )
    def test_symmetric_cases_have_zero_vector(self, name, params):
        fp = fano_normalize(catalog(name, *params))
        data = soliton_vector(fp)
        assert np.linalg.norm(data.a) <= 1e-8
        assert data.gradient_residual <= 1e-10

    def test_one_point_blowup_diagonal(self):
        fp = fano_normalize(catalog("blowup_cp2", 1))
        data = soliton_vector(fp)
        assert abs(data.a[0] - data.a[1]) <= 1e-12
        assert abs(data.a[0] - T_STAR) <= 1e-10
        assert data.gradient_residual <= 1e-10
        assert data.iterations <= 10

    def test_first_hirzebruch_matches_blowup_presentation(self):
        # the two presentations differ by the lattice map C below, and the
        # soliton vector transforms by the inverse transpose
        a_blow = soliton_vector(fano_normalize(catalog("blowup_cp2", 1))).a
        a_hirz = soliton_vector(fano_normalize(catalog("hirzebruch", 1))).a
        C = np.array([[0.0, -1.0], [1.0, -1.0]])
        assert np.allclose(a_hirz, C @ a_blow, atol=1e-8)
        assert abs(a_hirz[0] + T_STAR) <= 1e-8
        assert abs(a_hirz[1]) <= 1e-8

    def test_two_point_blowup_frozen_value(self):
        fp = fano_normalize(catalog("blowup_cp2", 2))
        data = soliton_vector(fp)
        assert abs(data.a[0] - DP7_A[0]) <= 1e-9
        assert abs(data.a[1] - DP7_A[1]) <= 1e-9

    def test_two_point_blowup_against_dblquad_oracle(self):
        fp = fano_normalize(catalog("blowup_cp2", 2))
        data = soliton_vector(fp)
        residual = oracles.pentagon_moment(data.a)
        assert np.linalg.norm(residual) <= 1e-8

    def test_minimizer_is_a_minimum(self):
        fp = fano_normalize(catalog("blowup_cp2", 1))
        a_star = soliton_vector(fp).a
        rng = np.random.default_rng(7)
        for _ in range(4):
            d = rng.standard_normal(2)
            d /= np.linalg.norm(d)
            ss = np.linspace(-0.5, 0.5, 7)
            vals = np.array(
                [polytope_integral(fp, a_star + s * d, "1") for s in ss]
            )
            second = vals[:-2] - 2 * vals[1:-1] + vals[2:]
            assert np.all(second >= -1e-10)  # convex along every line
            assert vals[3] <= vals.min() + 1e-12  # centered at the minimizer

    def test_sheared_two_point_blowup_images_converge(self):
        # every signed permutation of Bl_2 P^2 sheared by [[1, 1], [0, 1]]
        # reaches the tolerance in the same four Newton steps
        shear = UnimodularMap(((1, 1), (0, 1)), (F(0), F(0)))
        base = shear.apply_polytope(catalog("blowup_cp2", 2))
        for perm in itertools.permutations(range(2)):
            for signs in itertools.product((1, -1), repeat=2):
                rows = tuple(
                    tuple(signs[i] * int(perm[i] == j) for j in range(2)) for i in range(2)
                )
                p = UnimodularMap(rows, (F(0), F(0))).apply_polytope(base)
                data = soliton_vector(fano_normalize(p))
                assert data.iterations == 4
                assert data.gradient_residual <= 1e-10

    def test_iteration_cap(self):
        fp = fano_normalize(catalog("blowup_cp2", 1))
        with pytest.raises(MaxIterations, match="stalled"):
            soliton_vector(fp, max_iterations=1)

    def test_report_shape(self):
        fp = fano_normalize(catalog("simplex", 2))
        data = soliton_vector(fp)
        doc = data.to_json()
        assert set(doc) >= {"a", "gradient_residual", "iterations"}
        assert len(doc["a"]) == 2


def _random_sl2(rng):
    while True:
        A = np.eye(2, dtype=int)
        for _ in range(3):
            k = int(rng.integers(-2, 3))
            if rng.integers(2):
                A = A @ np.array([[1, k], [0, 1]])
            else:
                A = A @ np.array([[1, 0], [k, 1]])
        if np.abs(A).max() <= 3 and not np.array_equal(A, np.eye(2, dtype=int)):
            return A


class TestEquivariance:
    def test_soliton_transforms_by_inverse_transpose(self):
        rng = np.random.default_rng(11)
        for name, params in (("blowup_cp2", (1,)), ("hirzebruch", (1,)), ("blowup_cp2", (2,))):
            p = catalog(name, *params)
            a_ref = soliton_vector(fano_normalize(p)).a
            for _ in range(2):
                A = _random_sl2(rng)
                um = UnimodularMap(tuple(map(tuple, A.tolist())), (F(0), F(0)))
                q = um.apply_polytope(p)
                a_map = soliton_vector(fano_normalize(q)).a
                want = np.linalg.inv(A.astype(float)).T @ a_ref
                assert np.allclose(a_map, want, atol=1e-8)


FANO_2D = [("simplex", (2,)), ("cube", (2,)), ("hirzebruch", (0,)), ("hirzebruch", (1,)),
           ("blowup_cp2", (1,)), ("blowup_cp2", (2,)), ("blowup_cp2", (3,))]


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(FANO_2D), lattice_maps(2))
def test_soliton_vector_is_covariant(entry, lattice_map):
    # F(a) = integral_P e^{<a,x>} over x -> A x is minimised at A^{-T} a
    name, params = entry
    p = catalog(name, *params)
    um = UnimodularMap(lattice_map.matrix, (0, 0))
    a = soliton_vector(fano_normalize(p)).a
    got = soliton_vector(fano_normalize(um.apply_polytope(p))).a
    want = np.array(um.matrix_inverse, dtype=float).T @ a
    assert np.max(np.abs(got - want)) <= 1e-9


class TestVerdicts:
    def test_guillemin_fails_hypothesis_on_the_cube(self):
        pot = SymplecticPotential(catalog("cube", 2))
        verdict = verify_einstein(pot, [1.0, 0.0])
        assert verdict.conclusion is Conclusion.HYPOTHESIS_FAILS
        assert verdict.fit.max_residual >= 0.1
        assert not verdict.certificates["affinity"]["passed"]

    def test_q_still_vanishes_near_vertices(self):
        # boundary decay holds even when the global affine hypothesis fails
        p = catalog("cube", 2)
        pot = SymplecticPotential(p)
        a = np.array([1.0, 0.0])
        for v in p.vertices:
            ray = np.asarray(interior_rays(v, 1)[0], dtype=float)
            x = v.as_float() + 1e-8 * ray
            q = float(a @ metric_jet(pot, x).G_inv @ a)
            assert abs(q) <= 1e-6

    def test_zero_vector_gives_einstein_everywhere(self, catalog_potential):
        n = catalog_potential.polytope.n
        verdict = verify_einstein(catalog_potential, [0.0] * n)
        assert verdict.conclusion is Conclusion.EINSTEIN
        assert all(c["passed"] for c in verdict.certificates.values())

    def test_zero_samples_recover_zero_coefficients(self):
        # an affine function vanishing on all square vertices is zero
        p = catalog("cube", 2)
        pts = interior_grid(p, 12)
        verdict = einstein_verdict_from_samples(p, pts, np.zeros(len(pts)))
        assert verdict.conclusion is Conclusion.EINSTEIN
        assert abs(verdict.fit.constant) <= 1e-12
        assert np.all(np.abs(verdict.fit.gradient) <= 1e-12)

    def test_constant_samples_are_inconclusive(self):
        p = catalog("simplex", 2)
        pts = interior_grid(p, 8)
        verdict = einstein_verdict_from_samples(p, pts, np.ones(len(pts)))
        assert verdict.conclusion is Conclusion.INCONCLUSIVE
        assert verdict.certificates["affinity"]["passed"]
        assert not verdict.certificates["vertex_vanishing"]["passed"]

    def test_affine_samples_recover_coefficients(self):
        p = catalog("simplex", 2)
        pts = interior_grid(p, 9)
        vals = 2.5 - 3.0 * pts[:, 0] + 0.5 * pts[:, 1]
        verdict = einstein_verdict_from_samples(p, pts, vals)
        assert verdict.conclusion is Conclusion.INCONCLUSIVE
        assert verdict.fit.constant == pytest.approx(2.5, abs=1e-12)
        assert verdict.fit.gradient[0] == pytest.approx(-3.0, abs=1e-12)
        assert verdict.fit.gradient[1] == pytest.approx(0.5, abs=1e-12)

    def test_report_shape(self):
        pot = SymplecticPotential(catalog("simplex", 2))
        doc = verify_einstein(pot, [0.0, 0.0]).to_json()
        assert set(doc) == {
            "conclusion",
            "affine_fit",
            "vertex_values",
            "rank",
            "certificates",
        }
        assert doc["conclusion"] == "Einstein"


def _recorded_verdict(monkeypatch, pot, a, grid):
    """verify_einstein's verdict together with the q samples it fitted."""
    seen = {}
    verdict_from_samples = torickit.soliton.einstein_verdict_from_samples

    def record(polytope, points, values, **kw):
        seen.update(points=points, values=values)
        return verdict_from_samples(polytope, points, values, **kw)

    monkeypatch.setattr(torickit.soliton, "einstein_verdict_from_samples", record)
    verdict = verify_einstein(pot, a, grid=grid)
    return verdict, seen["points"], seen["values"]


class TestBatchedVerdict:
    """verify_einstein evaluates q over its grid in batches; these replay it
    point by point through the entry-by-entry reference jet."""

    @staticmethod
    def check(monkeypatch, pot, a, grid=6):
        verdict, pts, q = _recorded_verdict(monkeypatch, pot, a, grid)
        assert np.array_equal(pts, interior_grid(pot.polytope, grid))
        spec = oracles.potential_spec(pot)
        want = np.array([a @ np.linalg.inv(oracles.reference_jet(*spec, x)[0]) @ a for x in pts])
        assert np.allclose(q, want, rtol=1e-12, atol=0)
        ref = einstein_verdict_from_samples(pot.polytope, pts, want)
        assert verdict.conclusion is ref.conclusion
        assert verdict.rank == ref.rank == pot.n
        assert verdict.fit.n_samples == ref.fit.n_samples == len(pts)
        scale = max(1.0, float(np.max(np.abs(want))))
        assert abs(verdict.fit.constant - ref.fit.constant) <= 1e-10 * scale
        assert np.allclose(verdict.fit.gradient, ref.fit.gradient, rtol=0, atol=1e-10 * scale)
        assert np.allclose(verdict.vertex_values, ref.vertex_values, rtol=0, atol=1e-10 * scale)

    def test_catalog(self, monkeypatch, catalog_potential):
        n = catalog_potential.n
        self.check(monkeypatch, catalog_potential, np.array([1.0, -0.5, 0.25][:n]))
        self.check(monkeypatch, catalog_potential, np.zeros(n))

    def test_perturbed_simplex(self, monkeypatch):
        pot = SymplecticPotential(catalog("simplex", 2), Polynomial(2, {(2, 2): F(1, 100)}))
        self.check(monkeypatch, pot, np.array([0.75, -1.5]), grid=9)

    def test_indefinite_metric_names_the_first_failing_point(self):
        # G_00 = (1/x + 1/(1 - x - y))/2 - 3 is negative inside the triangle
        # and positive near its edges; 435 grid points span two chunks
        pot = SymplecticPotential(catalog("simplex", 2), Polynomial(2, {(2, 0): F(-3)}))
        pts = interior_grid(pot.polytope, 30)
        assert len(pts) > torickit.potential._CHUNK
        for x in pts:
            try:
                metric_jet(pot, x)
            except NotPositiveDefinite as e:
                want = e
                break
        else:
            pytest.fail("the metric is positive definite on the whole grid")
        with pytest.raises(NotPositiveDefinite) as got:
            verify_einstein(pot, [1.0, 0.0], grid=30)
        assert (got.value.point, got.value.eigenvalue) == (want.point, want.eigenvalue)

    def test_success_never_takes_the_one_point_route(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("metric_jet called")

        monkeypatch.setattr(torickit.potential, "metric_jet", refuse)
        for name, params, a, grid in (("cube", (3,), [0.5, 0.0, -1.0], 8),
                                      ("blowup_cp2", (1,), [T_STAR, T_STAR], 30)):
            verdict = verify_einstein(SymplecticPotential(catalog(name, *params)), a, grid=grid)
            assert verdict.fit.n_samples > torickit.potential._CHUNK
