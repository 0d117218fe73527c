"""Triangulation, polytope quadrature, soliton vectors, and verdicts.

Frozen constants were produced by independent oracles (scipy adaptive
quadrature plus bisection, see oracles.py) and pinned here so drift in the
package's own quadrature or Newton path shows up as a failure.
"""

import itertools
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from strategies import OCTAHEDRAL_PRISM, OCTAHEDRON, SQUARE_PYRAMID, halfspace_systems, lattice_maps, polytopes
import torickit.curvature
import torickit.potential
import torickit.sampling
import torickit.soliton
from torickit import exact
from torickit import (
    CATALOG_DEFAULTS,
    AffineForm,
    Conclusion,
    DegenerateSampleSet,
    DelzantPolytope,
    FanoPolytope,
    MaxIterations,
    NotFano,
    QuadratureNotConverged,
    SymplecticPotential,
    ToricError,
    UnimodularMap,
    NotPositiveDefinite,
    Polynomial,
    catalog,
    check_delzant,
    einstein_verdict_from_samples,
    exact_volume,
    extremality_from_samples,
    fano_normalize,
    interior_grid,
    interior_rays,
    metric_jet,
    polytope_integral,
    soliton_identity_residual,
    soliton_vector,
    triangulate,
    verify_einstein,
    vertices_affinely_span,
)
from torickit.polytope import _dual_facets

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


def _with_images(p):
    """p itself or its image under a lattice map with a rational shift, whose
    vertex rows then have denominators D > 1."""
    return st.just(p) | lattice_maps(p.n).map(lambda um: um.apply_polytope(p))


@settings(max_examples=150, deadline=None)
@given(polytopes().flatmap(_with_images))
@example(catalog("cube", 3, F(5, 2)))
@example(catalog("simplex", 2, F(3, 2)))
@example(DelzantPolytope.from_forms(SQUARE_PYRAMID, 3))
@example(DelzantPolytope.from_forms(OCTAHEDRON, 3))
# a face whose facet two forms cut out is coned over that facet once
@example(DelzantPolytope.from_forms(OCTAHEDRAL_PRISM, 4))
def test_integer_triangulation_matches_the_coordinate_one(p):
    """triangulate and exact_volume read integer vertex rows; the pulling
    triangulation on Fraction coordinates must give the same simplices, in
    the same order, and the same volume, from one triangulation kept on p."""
    assert triangulate(p) == oracles.reference_triangulation(p)
    assert exact_volume(p) == oracles.reference_volume(p)
    assert torickit.soliton._simplices(p) is torickit.soliton._simplices(p)


@st.composite
def node_rows(draw):
    """Rows of n+1 nodes, n in 1..4: a centre plus a spread times levels in
    [0, 1].  Levels come partly from {0, 1/2, 1}, so nodes repeat and whole
    rows can be equal."""
    n, rows = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    spread = draw(st.sampled_from([0.0, 1e-12, 1.0, 60.0]) | st.floats(0.0, 60.0))
    centre = draw(st.floats(-20.0, 20.0))
    level = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)
    levels = draw(st.lists(st.lists(level, min_size=n + 1, max_size=n + 1), min_size=rows, max_size=rows))
    return centre + spread * np.array(levels)


class TestDividedDifferences:
    """exp[t_k, t_0..t_n, t_l] for every vertex pair, from one triangular
    exponential per row of nodes."""

    @settings(max_examples=60, deadline=None)
    @given(node_rows())
    @example(np.zeros((2, 3)))
    @example(np.array([[0.0, 1e-12, 0.0], [5.0, 5.0, 5.0]]))
    @example(np.array([[-20.0, 40.0, 40.0, 10.0, -20.0]]))
    def test_matches_the_pairwise_kernel_and_mpmath(self, t):
        got = torickit.soliton._exp_divided_differences(t)
        assert got.shape == (len(t), t.shape[1], t.shape[1])
        np.testing.assert_allclose(got, oracles.pairwise_exp_divided_differences(t), rtol=1e-13, atol=0)
        np.testing.assert_allclose(got, oracles.mp_exp_divided_differences(t), rtol=1e-13, atol=0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_zero_nodes_give_the_reciprocal_factorial_exactly(self, n):
        got = torickit.soliton._exp_divided_differences(np.zeros((3, n + 1)))
        assert np.all(got == 1 / math.factorial(n + 2))


class TestQuadrature:
    def test_unit_weight_recovers_volume(self, catalog_polytope):
        n = catalog_polytope.n
        val = polytope_integral(FanoPolytope(catalog_polytope), [0.0] * n, "1")
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


# same normal fan type as hirzebruch(2), different presentation
DEGREE_TWO_FAN = DelzantPolytope.from_forms(
    [AffineForm((1, 0), F(0)), AffineForm((0, 1), F(0)), AffineForm((0, -1), F(-3)), AffineForm((-1, 2), F(-1))], 2
)
# a vertex with edge determinant 2, where the permutation test is all that fails
DET_TWO_TRIANGLE = DelzantPolytope.from_forms(
    [AffineForm((1, 0), F(0)), AffineForm((0, 1), F(0)), AffineForm((-1, -2), F(-2))], 2
)


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
        with pytest.raises(NotFano, match=r"^form 2 reaches -1 at the model vertex \(1, -1\) "
                                          r"of vertex \('1', '0'\) of p, so -K is not ample$"):
            fano_normalize(catalog("hirzebruch", 2))

    def test_third_hirzebruch_is_rejected(self):
        with pytest.raises(NotFano):
            fano_normalize(catalog("hirzebruch", 3))

    def test_explicit_degree_two_fan_is_rejected(self):
        with pytest.raises(NotFano):
            fano_normalize(DEGREE_TWO_FAN)

    def test_edge_determinant_two_is_not_dual_bases(self):
        with pytest.raises(NotFano, match=r"^at vertex \('0', '1'\) of p the tight normals "
                                          r"and the edge generators are not dual bases$"):
            fano_normalize(DET_TWO_TRIANGLE)

    def test_a_vertex_on_four_facets_is_not_simple(self):
        # a square pyramid: its base vertices pass, its apex lies on 4 facets
        pyramid = DelzantPolytope.from_forms(
            [AffineForm((0, 0, 1), F(0))]
            + [AffineForm((*u, -1), F(-1)) for u in ((1, 0), (-1, 0), (0, 1), (0, -1))], 3
        )
        with pytest.raises(NotFano, match=r"^vertex \('0', '0', '1'\) of p has 4 facets and 4 edges, "
                                          r"not 3: p is not simple there$"):
            fano_normalize(pyramid)

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


def _entry(entry):
    name, params = entry
    return catalog(name, *params)


def _product(*factors):
    """The product polytope, each factor's forms on its own coordinates."""
    n = sum(p.n for p in factors)
    forms, before = [], 0
    for p in factors:
        forms += [AffineForm((0,) * before + f.u + (0,) * (n - before - p.n), f.b) for f in p.forms]
        before += p.n
    return DelzantPolytope.from_forms(forms, n)


FANO_ENTRIES = list(CATALOG_DEFAULTS) + [("hirzebruch", (2,)), ("hirzebruch", (3,))]
FACTORS = [("simplex", (1,)), ("simplex", (2,)), ("simplex", (3,)), ("hirzebruch", (1,)),
           ("hirzebruch", (2,)), ("blowup_cp2", (1,)), ("blowup_cp2", (3,))]
# dims 3-4, e.g. P^1 x Bl_1 P^2 and Bl_1 P^2 x Bl_3 P^2
PRODUCTS = [(a, b) for a, b in itertools.combinations_with_replacement(FACTORS, 2)
            if 3 <= _entry(a).n + _entry(b).n <= 4]
# P^3 blown up at a point, as its anticanonical model
BLOWUP_P3 = DelzantPolytope.from_forms(
    [AffineForm(u, F(-1)) for u in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1), (1, 1, 1)]], 3
)


@st.composite
def fano_candidates(draw):
    """A catalog entry, a product in dims 3-4 or Bl_1 P^3 under a lattice
    map with a rational shift, or a bounded `halfspace_systems` draw."""
    kind = draw(st.sampled_from(["catalog", "product", "blowup", "system"]))
    if kind == "system":
        forms, n = draw(halfspace_systems())
        try:
            return DelzantPolytope.from_forms(forms, n)
        except ToricError:
            assume(False)
    if kind == "catalog":
        p = _entry(draw(st.sampled_from(FANO_ENTRIES)))
    elif kind == "product":
        p = _product(*map(_entry, draw(st.sampled_from(PRODUCTS))))
    else:
        p = BLOWUP_P3
    return draw(lattice_maps(p.n)).apply_polytope(p)


@settings(max_examples=120, deadline=None)
@given(fano_candidates())
@example(catalog("hirzebruch", 2))
@example(catalog("hirzebruch", 3))
@example(DEGREE_TWO_FAN)
@example(DET_TWO_TRIANGLE)
def test_certified_model_matches_the_walk(p):
    """fano_normalize carries p's vertex data to the model; a walk over the
    model's own forms must give every field the same.  It raises NotFano
    exactly when the walk does, naming a vertex of p."""
    try:
        want = oracles.walked_fano_model(p)
    except NotFano:
        with pytest.raises(NotFano) as got:
            fano_normalize(p)
        assert any(f"vertex {tuple(map(str, v.coordinates))} of p" in str(got.value) for v in p.vertices)
        return
    got = fano_normalize(p).base
    assert got.forms == want.forms
    fields = [[(v.coordinates, v.incident_facets, v.edge_generators) for v in q.vertices] for q in (got, want)]
    assert fields[0] == fields[1]
    assert all(type(c) is F for v in got.vertices for c in v.coordinates)
    assert vertices_affinely_span(got)


@st.composite
def polytopes_and_images(draw):
    p = draw(polytopes())
    return draw(lattice_maps(p.n)).apply_polytope(p) if draw(st.booleans()) else p


@settings(max_examples=150, deadline=None)
@given(polytopes_and_images())
@example(DelzantPolytope.from_forms(SQUARE_PYRAMID, 3))
@example(DelzantPolytope.from_forms(OCTAHEDRON, 3))
@example(DET_TWO_TRIANGLE)
@example(DEGREE_TWO_FAN)
def test_the_smoothness_certificate_is_the_delzant_audit(p):
    """At every vertex the dual-basis certificate holds exactly when
    check_delzant's edge determinant is +-1 with n facets and n edges; the
    facets it names are those the generators pair with to 1, the others to 0."""
    for i, report in enumerate(check_delzant(p).vertex_reports):
        leaves = _dual_facets(p, i)
        assert (leaves is not None) == report.ok
        if leaves is not None:
            tight = sorted(p._incidences[i])
            for (_, g), left in zip(p._edges[i], leaves):
                assert [sum(a * b for a, b in zip(p.forms[k].u, g)) for k in tight] == [int(k == left) for k in tight]


class TestMomentCache:
    """FanoPolytope keeps the moments of the last vector it was asked at."""

    @staticmethod
    def solved():
        fp = fano_normalize(catalog("blowup_cp2", 2))
        return fp, soliton_vector(fp).a

    def test_cached_moments_are_bit_identical_to_fresh_ones(self):
        fp, a = self.solved()
        assert fp._last[0] == a.tobytes()  # the solve leaves its last moments
        for which in ("1", "x", "xx"):
            fresh = polytope_integral(FanoPolytope(fp.base), a, which)
            for _ in range(2):
                got = polytope_integral(fp, a, which)
                assert type(got) is type(fresh)
                assert np.asarray(got).tobytes() == np.asarray(fresh).tobytes()

    def test_changing_a_result_leaves_the_next_call(self):
        fp, a = self.solved()
        for which in ("x", "xx"):
            want = polytope_integral(fp, a, which)
            polytope_integral(fp, a, which)[...] = 7.0
            assert np.array_equal(polytope_integral(fp, a, which), want)

    def test_another_vector_recomputes(self, monkeypatch):
        calls = []
        divided_differences = torickit.soliton._exp_divided_differences

        def count(nodes):
            calls.append(nodes)
            return divided_differences(nodes)

        monkeypatch.setattr(torickit.soliton, "_exp_divided_differences", count)
        fp = fano_normalize(catalog("cube", 2))
        for a, computed in (([0.0, 0.0], 1), ([0.0, 0.0], 1), ([-0.0, 0.0], 2), ([0.0, 0.0], 3),
                            ([0.5, 0.0], 4), ([0.5, 0.0], 4)):
            polytope_integral(fp, a, "1")
            assert len(calls) == computed

    def test_overflow_raises_on_every_call(self):
        fp = fano_normalize(catalog("cube", 2))
        polytope_integral(fp, [1.0, 0.0], "1")
        for _ in range(2):
            with pytest.raises(QuadratureNotConverged, match="overflow"):
                polytope_integral(fp, [800.0, 0.0], "x")
        assert polytope_integral(fp, [1.0, 0.0], "1") == pytest.approx(4.0 * np.sinh(1.0))


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

    def test_iteration_cap(self, monkeypatch):
        fp = fano_normalize(catalog("blowup_cp2", 1))
        monkeypatch.setattr(torickit.soliton, "NEWTON_MAX_ITER", 1)
        with pytest.raises(MaxIterations, match="stalled .* after 1 iterations$"):
            soliton_vector(fp)

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


@pytest.mark.parametrize(
    "a, got", [([1.0, 0.0, 0.0], "3"), ([0.5], "1"), ([], "0"), ([[1.0, 0.0]], "(1, 2)")], ids=["3", "1", "0", "1x2"]
)
def test_a_vector_of_the_wrong_length_is_refused_first(monkeypatch, a, got):
    """verify_einstein, soliton_identity_residual and polytope_integral take a
    vector of the polytope's dimension; another raises ValueError naming both
    lengths before any grid, metric or moment is computed."""
    def refuse(*args, **kwargs):
        raise AssertionError("computed before the length check")

    for module, name in ((torickit.soliton, "metric_jets"), (torickit.soliton, "_moments"),
                         (torickit.curvature, "metric_jets"), (torickit.sampling, "interior_grid")):
        monkeypatch.setattr(module, name, refuse)
    pot = SymplecticPotential(catalog("cube", 2))
    for call in (lambda: verify_einstein(pot, a),
                 lambda: soliton_identity_residual(pot, a, [[0.5, 0.5]]),
                 lambda: polytope_integral(FanoPolytope(pot.polytope), a, "x")):
        with pytest.raises(ValueError, match=rf"^a expects 2 components for this polytope, got {re.escape(got)}$"):
            call()


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

    @pytest.mark.parametrize("name, params", [("cube", (4,)), ("blowup_cp2", (3,)), ("hirzebruch", (1,))])
    def test_verdict_on_a_model_eliminates_nothing(self, monkeypatch, name, params):
        # the span rank is n, read from the polytope
        pot = SymplecticPotential(fano_normalize(catalog(name, *params)).base)
        calls = []
        eliminate = exact._eliminate
        monkeypatch.setattr(exact, "_eliminate", lambda *args: calls.append(args) or eliminate(*args))
        assert verify_einstein(pot, [0.0] * pot.n, grid=4).conclusion is Conclusion.EINSTEIN
        assert calls == []

    def test_n_plus_one_samples_are_refused(self):
        # 4 grid points on simplex(3)'s model fit any q exactly: affinity once
        # passed here at residual 2.8e-17 and the verdict read Inconclusive
        pot = SymplecticPotential.guillemin(fano_normalize(catalog("simplex", 3)).base)
        a = [0.3, 0.1, -0.2]
        with pytest.raises(DegenerateSampleSet, match="^4 sample points fit any values in dimension 3: .* needs 5$"):
            verify_einstein(pot, a, grid=6)
        assert verify_einstein(pot, a, grid=7).conclusion is Conclusion.HYPOTHESIS_FAILS

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


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n + 3))), st.integers(0, 2**32 - 1))
def test_no_affinity_passes_without_a_residual(shape, seed):
    """n + 1 samples or fewer fit any values exactly, so both affinity tests
    refuse them; from n + 2 on they decide."""
    n, count = shape
    rng = np.random.default_rng(seed)
    pts, vals, cube = rng.uniform(0.1, 0.9, size=(count, n)), rng.normal(size=count), catalog("cube", n)
    for test in (lambda: extremality_from_samples(pts, vals), lambda: einstein_verdict_from_samples(cube, pts, vals)):
        if count <= n + 1:
            with pytest.raises(DegenerateSampleSet, match=f"dimension {n}: an affinity test needs {n + 2}$"):
                test()
        else:
            test()


def test_an_empty_sample_set_names_only_a_dimension_it_knows():
    # the verdict knows its polytope's n; samples without coordinates give none
    with pytest.raises(DegenerateSampleSet) as bare:
        extremality_from_samples([], [])
    assert str(bare.value) == "sample points without coordinates: an affinity test in dimension n needs n + 2"
    for n in (1, 2, 4):
        with pytest.raises(DegenerateSampleSet) as verdict:
            einstein_verdict_from_samples(catalog("cube", n), [], [])
        assert str(verdict.value) == f"0 sample points fit any values in dimension {n}: an affinity test needs {n + 2}"


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

    def test_a_verdict_inverts_no_metric(self, monkeypatch):
        # q comes from the Cholesky factor; det_factorization_check reads det G alone
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.inv called")

        for entry in CATALOG_DEFAULTS:
            fp = fano_normalize(catalog(entry[0], *entry[1]))
            a = soliton_vector(fp).a
            pot = SymplecticPotential.guillemin(fp.base)
            with monkeypatch.context() as patch:
                patch.setattr(np.linalg, "inv", refuse)
                verdict = verify_einstein(pot, a, grid=7)  # 6 keeps n + 1 points on simplex(3)
                torickit.potential.det_factorization_check(pot, interior_grid(fp.base, 7))
            assert verdict.fit.n_samples == len(interior_grid(fp.base, 7)), entry

    def test_success_never_takes_the_one_point_route(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("metric_jet called")

        monkeypatch.setattr(torickit.potential, "metric_jet", refuse)
        for name, params, a, grid in (("cube", (3,), [0.5, 0.0, -1.0], 8),
                                      ("blowup_cp2", (1,), [T_STAR, T_STAR], 30)):
            verdict = verify_einstein(SymplecticPotential(catalog(name, *params)), a, grid=grid)
            assert verdict.fit.n_samples > torickit.potential._CHUNK


# ---------------------------------------------------------------------------
# tolerances: a value that is not positive and finite is refused with
# ValueError before any work, as the CLI refuses it with exit 2

BAD_TOLERANCES = [-1.0, 0.0, float("nan"), float("inf")]


@pytest.mark.parametrize("value", BAD_TOLERANCES)
def test_a_verdict_refuses_a_bad_tolerance(monkeypatch, value):
    pot = SymplecticPotential(catalog("cube", 2))    # Kähler-Einstein: a = 0
    monkeypatch.setattr(torickit.sampling, "interior_grid", None)    # refused before sampling
    with pytest.raises(ValueError, match=rf"^tol must be positive and finite, got {value}$"):
        verify_einstein(pot, [0.0, 0.0], tol=value)
    pts = interior_grid(pot.polytope, 6)
    with pytest.raises(ValueError, match=rf"^tol must be positive and finite, got {value}$"):
        einstein_verdict_from_samples(pot.polytope, pts, np.zeros(len(pts)), tol=value)


@pytest.mark.parametrize("value", BAD_TOLERANCES)
def test_soliton_vector_refuses_a_bad_tolerance(monkeypatch, value):
    fp = fano_normalize(catalog("blowup_cp2", 1))
    monkeypatch.setattr(torickit.soliton, "_moments", None)    # refused before the first moment
    with pytest.raises(ValueError, match=rf"^tol must be positive and finite, got {value}$"):
        soliton_vector(fp, tol=value)
