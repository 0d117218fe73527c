"""Vertex enumeration, Delzant checks, normalization, catalog, JSON."""

import json
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import torickit.soliton
from torickit import (
    CATALOG_DEFAULTS,
    AffineForm,
    BadParams,
    DelzantPolytope,
    Empty,
    LowerDimensional,
    NotDelzantVertex,
    NotFano,
    ParseError,
    RedundantForm,
    SymplecticPotential,
    ToricError,
    Unbounded,
    UnimodularMap,
    UnknownName,
    affine_span_rank,
    catalog,
    check_delzant,
    enumerate_vertices,
    exact,
    exact_volume,
    fano_normalize,
    normalize_at_vertex,
    polytope_from_json,
    polytope_integral,
    soliton_vector,
    triangulate,
    verify_einstein,
    vertices_affinely_span,
)

from oracles import fraction_affine_rank, feasible_basic_solutions, reference_vertices
from strategies import CAPPED_PYRAMID, OCTAHEDRON, SQUARE_PYRAMID, halfspace_systems, lattice_maps, polytopes

F = Fraction


def forms_2d(*rows):
    return [AffineForm(u=(a, b), b=F(c)) for a, b, c in rows]


class TestEnumeration:
    def test_unit_square(self):
        verts = enumerate_vertices(
            forms_2d((1, 0, 0), (0, 1, 0), (-1, 0, -1), (0, -1, -1)), 2
        )
        coords = sorted(v.coordinates for v in verts)
        assert coords == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_simplex(self):
        verts = enumerate_vertices(forms_2d((1, 0, 0), (0, 1, 0), (-1, -1, -1)), 2)
        assert sorted(v.coordinates for v in verts) == [(0, 0), (0, 1), (1, 0)]

    def test_incidence_and_edges(self):
        p = catalog("cube", 2)
        for v in p.vertices:
            assert len(v.incident_facets) == 2
            assert len(v.edge_generators) == 2
            for k in v.incident_facets:
                assert p.forms[k].value(v.coordinates) == 0
            # edges generate the lattice at every cube vertex
            gens = [list(g) for g in v.edge_generators]
            assert abs(gens[0][0] * gens[1][1] - gens[0][1] * gens[1][0]) == 1

    def test_rational_offsets(self):
        verts = enumerate_vertices(
            [AffineForm((1,), F(1, 3)), AffineForm((-1,), F(-7, 2))], 1
        )
        assert sorted(v.coordinates for v in verts) == [(F(1, 3),), (F(7, 2),)]

    def test_unbounded(self):
        with pytest.raises(Unbounded):
            enumerate_vertices(forms_2d((1, 0, 0), (0, 1, 0)), 2)

    def test_unbounded_names_a_primitive_edge_direction(self):
        # the cone 0 <= x <= 2y has the edges (0, 1) and (2, 1)
        with pytest.raises(Unbounded, match=r"direction \((0, 1|2, 1)\)$"):
            enumerate_vertices(forms_2d((1, 0, 0), (-1, 2, 0)), 2)

    def test_empty(self):
        with pytest.raises(Empty):
            enumerate_vertices(
                [AffineForm((1,), F(0)), AffineForm((-1,), F(1))], 1
            )

    def test_empty_despite_a_recession_ray(self):
        # x >= 1 and x <= 0 leave nothing, though y >= 0 has the ray (0, 1):
        # emptiness is decided before boundedness
        with pytest.raises(Empty):
            enumerate_vertices(forms_2d((1, 0, 1), (-1, 0, 0), (0, 1, 0)), 2)

    @settings(max_examples=300, deadline=None)
    @given(halfspace_systems())
    @example((SQUARE_PYRAMID, 3))
    # the unit square with x + y >= 0 also tight at the origin
    @example((forms_2d((1, 0, 0), (0, 1, 0), (-1, 0, -1), (0, -1, -1), (1, 1, 0)), 2))
    def test_walk_matches_exhaustive_search(self, system):
        forms, n = system

        def outcome(enumerate_):
            try:
                return enumerate_(forms, n)
            except (Empty, LowerDimensional, Unbounded) as e:
                return type(e)

        got, want = outcome(enumerate_vertices), outcome(reference_vertices)
        if (want, got) == (Unbounded, Empty):
            assert not feasible_basic_solutions(forms, n)
        else:
            assert got == want

    def test_lower_dimensional(self):
        # x = 0 is tight at both ends of the segment
        with pytest.raises(LowerDimensional, match=r"^vertices span affine rank 1 < 2$"):
            DelzantPolytope.from_forms(
                forms_2d((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, -1)), 2
            )

    def test_redundant_form(self):
        # x + y <= 3 never touches the unit square
        with pytest.raises(RedundantForm):
            DelzantPolytope.from_forms(
                forms_2d((1, 0, 0), (0, 1, 0), (-1, 0, -1), (0, -1, -1), (-1, -1, -3)),
                2,
            )

    def test_repeated_form(self):
        # x >= 0 twice: each copy alone would pass as a facet
        with pytest.raises(RedundantForm, match=r"^form 1 \(\(1, 0\)\) repeats form 0$"):
            DelzantPolytope.from_forms(
                forms_2d((1, 0, 0), (1, 0, 0), (0, 1, 0), (-1, 0, -1), (0, -1, -1)), 2
            )

    @settings(max_examples=200, deadline=None)
    @given(halfspace_systems())
    # x + y <= 3 never touches the unit square
    @example((forms_2d((1, 0, 0), (0, 1, 0), (-1, 0, -1), (0, -1, -1), (-1, -1, -3)), 2))
    # x + y >= 0 touches it at the origin alone
    @example((forms_2d((1, 0, 0), (0, 1, 0), (-1, 0, -1), (0, -1, -1), (1, 1, 0)), 2))
    @example((SQUARE_PYRAMID, 3))
    @example((OCTAHEDRON, 3))
    # refused as "form 5 ((0, 0, -1)) is not a facet"
    @example((CAPPED_PYRAMID, 3))
    def test_a_form_is_refused_exactly_when_its_vertices_span_no_facet(self, system):
        forms, n = system
        assume(len(set(forms)) == len(forms))  # a repeated form is refused before the walk
        try:
            vertices = enumerate_vertices(forms, n)
        except ToricError:
            assume(False)
        tight = [[v.coordinates for v in vertices if k in v.incident_facets] for k in range(len(forms))]
        lower = [k for k, points in enumerate(tight) if not points or fraction_affine_rank(points) < n - 1]
        if not lower:
            assert DelzantPolytope.from_forms(forms, n).vertices == vertices
            return
        with pytest.raises(RedundantForm) as refused:
            DelzantPolytope.from_forms(forms, n)
        assert str(refused.value) == f"form {lower[0]} ({forms[lower[0]].u}) is not a facet"

    @pytest.mark.parametrize(
        "name, params, start",
        [("cube", (2,), 1), ("cube", (3,), 1), ("cube", (4,), 1), ("blowup_cp2", (3,), 3)],
    )
    def test_one_elimination_per_edge(self, monkeypatch, name, params, start):
        """The walk solves each edge once, from whichever end it reaches first.
        `start` is the number of n-subsets of forms tried before the first
        feasible basic solution.  The facet check and the triangulation
        read the walk's incidences and eliminate nothing more."""
        p = catalog(name, *params)
        calls = []
        eliminate = exact._eliminate
        monkeypatch.setattr(exact, "_eliminate", lambda *args: calls.append(args) or eliminate(*args))
        enumerate_vertices(p.forms, p.n)
        edges = sum(len(v.edge_generators) for v in p.vertices) // 2
        # the line test, the start search, one per edge
        assert len(calls) == 1 + start + edges
        calls.clear()
        q = DelzantPolytope.from_forms(p.forms, p.n)
        assert len(calls) == 1 + start + edges
        calls.clear()
        torickit.soliton._simplices(q)
        assert not calls

    def test_enumeration_commutes_with_unimodular_maps(self):
        rng = np.random.default_rng(3)
        p = catalog("hirzebruch", 1)
        for _ in range(20):
            # random SL(2,Z) via integer shears
            a = int(rng.integers(-3, 4))
            b = int(rng.integers(-3, 4))
            A = ((1, a), (0, 1)) if rng.integers(2) else ((1, 0), (a, 1))
            t = (F(b), F(int(rng.integers(-2, 3))))
            m = UnimodularMap(A, t)
            q = m.apply_polytope(p)
            mapped = sorted(m.apply_point(v.coordinates) for v in p.vertices)
            assert mapped == sorted(v.coordinates for v in q.vertices)


class TestDelzantCheck:
    def test_unit_square_passes(self):
        rep = check_delzant(catalog("cube", 2))
        assert rep.is_delzant
        assert all(r.ok for r in rep.vertex_reports)

    def test_failing_triangle(self):
        p = DelzantPolytope.from_forms(
            forms_2d((1, 0, 0), (0, 1, 0), (-1, -2, -2)), 2
        )
        rep = check_delzant(p)
        assert not rep.is_delzant
        bad = rep.failing()
        assert len(bad) == 1
        assert bad[0].coordinates == (0, 1)
        assert abs(bad[0].edge_det) == 2

    def test_hirzebruch_passes(self):
        rep = check_delzant(catalog("hirzebruch", 1))
        assert rep.is_delzant

    def test_every_catalog_entry(self, catalog_polytope):
        rep = check_delzant(catalog_polytope)
        assert rep.is_delzant
        for v in catalog_polytope.vertices:
            assert len(v.incident_facets) == catalog_polytope.n
            assert len(v.edge_generators) == catalog_polytope.n


def test_vertices_are_never_taken_as_given():
    # the square's forms with the triangle's vertices read volume 1/2 once
    with pytest.raises(TypeError):
        DelzantPolytope(catalog("cube", 2).forms, catalog("simplex", 2).vertices, 2)


class TestAffineSpan:
    def test_square_rank(self):
        assert affine_span_rank([(F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(1), F(1))]) == 2

    def test_collinear(self):
        assert affine_span_rank([(F(0), F(0)), (F(1), F(1)), (F(2), F(2))]) == 1

    def test_catalog_vertices_span(self, catalog_polytope):
        assert vertices_affinely_span(catalog_polytope)
        rank = affine_span_rank([v.coordinates for v in catalog_polytope.vertices])
        assert rank == catalog_polytope.n
        assert check_delzant(catalog_polytope).affine_span_rank == rank


class TestNormalization:
    def test_simplex_origin_is_identity(self):
        p = catalog("simplex", 2)
        m, q = normalize_at_vertex(p, (F(0), F(0)))
        assert m.matrix == ((1, 0), (0, 1))
        assert m.translation == (F(0), F(0))
        assert sorted(v.coordinates for v in q.vertices) == sorted(
            v.coordinates for v in p.vertices
        )

    def test_square_far_corner_is_minus_identity(self):
        sq = catalog("cube", 2)
        m, q = normalize_at_vertex(sq, (F(1), F(1)))
        assert m.matrix == ((-1, 0), (0, -1))
        assert m.translation == (F(1), F(1))
        # image is the unit square again
        assert sorted(v.coordinates for v in q.vertices) == [
            (0, 0), (0, 1), (1, 0), (1, 1),
        ]

    def test_first_forms_are_coordinate_halfspaces(self, catalog_polytope):
        p = catalog_polytope
        n = p.n
        basis = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        for v in p.vertices:
            m, q = normalize_at_vertex(p, v.coordinates)
            assert m.apply_point(v.coordinates) == tuple(F(0) for _ in range(n))
            for i in range(n):
                assert q.forms[i].u == basis[i]
                assert q.forms[i].b == 0
            for f in q.forms[n:]:
                assert f.value(tuple(F(0) for _ in range(n))) > 0

    def test_inverse_composition_restores_vertices(self):
        p = catalog("blowup_cp2", 2)
        for v in p.vertices:
            m, q = normalize_at_vertex(p, v.coordinates)
            inv = m.inverse()
            back = sorted(inv.apply_point(w.coordinates) for w in q.vertices)
            assert back == sorted(w.coordinates for w in p.vertices)

    def test_non_vertex_rejected(self):
        sq = catalog("cube", 2)
        with pytest.raises(NotDelzantVertex):
            normalize_at_vertex(sq, (F(1, 2), F(1, 2)))

    def test_non_delzant_vertex_rejected(self):
        p = DelzantPolytope.from_forms(
            forms_2d((1, 0, 0), (0, 1, 0), (-1, -2, -2)), 2
        )
        with pytest.raises(NotDelzantVertex):
            normalize_at_vertex(p, (F(0), F(1)))


class TestUnimodularMap:
    def test_det_validated(self):
        with pytest.raises(ValueError, match="determinant 2"):
            UnimodularMap(((2, 0), (0, 1)), (F(0), F(0)))
        with pytest.raises(ValueError, match="determinant 0"):
            UnimodularMap(((1, 2), (2, 4)), (F(0), F(0)))
        assert UnimodularMap(((1, 1), (0, -1)), (F(0), F(0))).matrix_inverse == ((1, 1), (0, -1))

    def test_shape_validated(self):
        # eliminating (1 2 | 1) in its first column leaves the integral
        # "inverse" (2 1): only the shape check refuses that matrix
        with pytest.raises(ValueError, match="not a square matrix"):
            UnimodularMap(((1, 2),), (F(0),))
        with pytest.raises(ValueError, match="not a square matrix"):
            UnimodularMap(((1, 0), (0, 1), (1, 1)), (F(0),) * 3)
        for shift in ((F(0),), (F(0),) * 3):
            with pytest.raises(ValueError, match="translation"):
                UnimodularMap(((1, 0), (0, 1)), shift)

    def test_dimension_validated(self):
        # the plane's map on a 3-dimensional polytope, and the converse
        two = UnimodularMap(((1, 0), (0, 1)), (F(0), F(0)))
        three = UnimodularMap(((1, 0, 0), (0, 1, 0), (0, 0, 1)), (F(0),) * 3)
        with pytest.raises(ValueError, match=r"^a polytope of dimension 3 under a map of dimension 2$"):
            two.apply_polytope(catalog("cube", 3))
        with pytest.raises(ValueError, match=r"^a polytope of dimension 2 under a map of dimension 3$"):
            three.apply_polytope(catalog("cube", 2))
        with pytest.raises(ValueError, match=r"^a form of dimension 2 under a map of dimension 3$"):
            three.apply_form(AffineForm((1, 0), F(0)))
        for point in ((1, 2), [F(1), F(2)]):
            with pytest.raises(ValueError, match=r"^a point of dimension 2 under a map of dimension 3$"):
                three.apply_point(point)
        for points in ([1.0, 2.0], np.zeros((4, 2))):
            with pytest.raises(ValueError, match=r"^a point of dimension 2 under a map of dimension 3$"):
                three.apply_point_float(points)
        with pytest.raises(ValueError, match=r"^a point of dimension 2 under a map of dimension 3$"):
            three.apply_point_float(np.zeros((0, 2)))
        assert two.apply_point_float(np.zeros((4, 2))).shape == (4, 2)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_lattice_maps_preserve_exact_invariants(self, data):
        # the catalog, and a triangle whose vertex (0, 1) has edge determinant 2
        triangle = DelzantPolytope.from_forms(forms_2d((1, 0, 0), (0, 1, 0), (-1, -2, -2)), 2)
        entries = st.sampled_from(CATALOG_DEFAULTS).map(lambda e: catalog(e[0], *e[1]))
        p = data.draw(entries | st.just(triangle))
        um = data.draw(lattice_maps(p.n))
        q = um.apply_polytope(p)
        before, after = check_delzant(p), check_delzant(q)
        assert after.is_delzant == before.is_delzant
        assert sorted(abs(r.edge_det) for r in after.vertex_reports) == sorted(
            abs(r.edge_det) for r in before.vertex_reports
        )
        assert sorted(v.coordinates for v in q.vertices) == sorted(
            um.apply_point(v.coordinates) for v in p.vertices
        )
        assert exact_volume(q) == exact_volume(p)
        assert after.affine_span_rank == q.n == affine_span_rank(
            [v.coordinates for v in q.vertices]
        )

    def test_form_transform_preserves_values(self):
        m = UnimodularMap(((1, 1), (0, 1)), (F(1), F(-2)))
        form = AffineForm((2, -3), F(5, 7))
        x = (F(3, 2), F(4))
        y = m.apply_point(x)
        assert m.apply_form(form).value(y) == form.value(x)


def vertex_fields(p):
    return [(v.coordinates, v.incident_facets, v.edge_generators) for v in p.vertices]


class TestTransport:
    """Lattice images carry their vertex data through the map; a fresh walk
    over the image's forms must give every field the same, in the same order."""

    @settings(max_examples=150, deadline=None)
    @given(polytopes(), st.data())
    def test_images_match_a_fresh_walk(self, p, data):
        um = data.draw(lattice_maps(p.n))
        q = um.apply_polytope(p)
        want = DelzantPolytope.from_forms([um.apply_form(f) for f in p.forms], p.n)
        assert q.forms == want.forms
        assert vertex_fields(q) == vertex_fields(want)
        assert vertices_affinely_span(q)

        v = data.draw(st.sampled_from(q.vertices))
        try:
            m, r = normalize_at_vertex(q, v)
        except NotDelzantVertex:
            return
        basis = [AffineForm(tuple(int(i == j) for j in range(p.n)), 0) for i in range(p.n)]
        mapped = [m.apply_form(f) for f in q.forms]
        want = DelzantPolytope.from_forms(basis + [f for f in mapped if f not in basis], p.n)
        assert r.forms == want.forms
        assert vertex_fields(r) == vertex_fields(want)
        assert vertices_affinely_span(r)


def types(x):
    """The nested types of a lattice object's fields."""
    return (type(x), [types(c) for c in x]) if isinstance(x, tuple) else type(x)


def assert_checked_forms(forms):
    """Each form equals, with the same types, the one its constructor checks."""
    for f in forms:
        checked = AffineForm(u=f.u, b=f.b)
        assert f == checked and types((f.u, f.b)) == types((checked.u, checked.b))


def assert_certified(m):
    """A map built from a certificate equals, with the same types, the one
    its constructor checks, and holds the inverse that an elimination gives."""
    checked = UnimodularMap(m.matrix, m.translation)
    assert m == checked and m.matrix_inverse == checked.matrix_inverse == exact.inverse(m.matrix)
    assert types((m.matrix, m.matrix_inverse, m.translation)) == types(
        (checked.matrix, checked.matrix_inverse, checked.translation))


@settings(max_examples=100, deadline=None)
@given(polytopes(), st.data())
def test_certified_builds_match_checked_constructors(p, data):
    """Images, vertex normalizations, Fano models and inverse maps are built
    from their certificates without checking their forms or inverting their
    matrices; what they hold must be what the checking constructors give."""
    um = data.draw(lattice_maps(p.n))
    assert_checked_forms(um.apply_polytope(p).forms)
    inv = um.inverse()
    assert_certified(inv)
    assert_certified(inv.inverse())
    assert inv.inverse() == um
    for v in p.vertices:
        try:
            m, q = normalize_at_vertex(p, v)
        except NotDelzantVertex:
            continue
        assert_certified(m)
        assert_checked_forms(q.forms)
    try:
        assert_checked_forms(fano_normalize(p).base.forms)
    except NotFano:
        pass


@pytest.mark.parametrize("p", [catalog("cube", 3), catalog("simplex", 3), catalog("blowup_cp2", 3),
                               catalog("hirzebruch", 2), DelzantPolytope.from_forms(SQUARE_PYRAMID)],
                         ids=["cube(3)", "simplex(3)", "blowup_cp2(3)", "hirzebruch(2)", "square pyramid"])
def test_eliminations_outside_the_walk(monkeypatch, p):
    """Lattice images, normalizations, Fano models and inverse maps eliminate
    nothing; the Delzant check eliminates once per vertex with n edges (the
    pyramid's apex has four) and the volume once per simplex."""
    shear = {2: ((1, 1), (0, 1)), 3: ((1, 1, 0), (0, 1, 0), (0, 0, -1))}[p.n]
    um = UnimodularMap(shear, (F(1, 2),) * p.n)
    simplices = torickit.soliton._simplices(p)
    calls = []
    eliminate = exact._eliminate
    monkeypatch.setattr(exact, "_eliminate", lambda *args: calls.append(args) or eliminate(*args))
    for v in p.vertices:
        try:
            normalize_at_vertex(p, v)
        except NotDelzantVertex:
            pass
    um.apply_polytope(p)
    try:
        fano_normalize(p)
    except NotFano:
        pass
    um.inverse().inverse()
    assert not calls
    check_delzant(p)
    assert len(calls) == sum(len(v.edge_generators) == p.n for v in p.vertices)
    calls.clear()
    exact_volume(p)
    assert len(calls) == len(simplices)


def lazily_built(q):
    """Check that the polytope q has not built its vertex data, then read
    the triangulation and the float vertices, which must not build them
    either; then build them, and check that the two read the same after."""
    assert "vertices" not in vars(q)
    simplices, floats = torickit.soliton._simplices(q), q.vertex_floats.copy()
    assert "vertices" not in vars(q)
    simplices_after = torickit.soliton._simplices(DelzantPolytope.from_forms(q.forms, q.n))
    assert simplices_after == simplices
    assert np.array_equal(exact.floats([v.coordinates for v in q.vertices]), floats)
    assert q._incidences == tuple(v.incident_facets for v in q.vertices)


class TestLazyCarry:
    """Lattice images and Fano models keep the vertex record of a walk and
    build their `vertices` on first read; what they build must be what a
    fresh walk over their forms gives."""

    @staticmethod
    def check(q):
        want = DelzantPolytope.from_forms(q.forms, q.n)
        lazily_built(q)
        assert vertex_fields(q) == vertex_fields(want)   # coordinates, incidences, edge order
        assert q.vertex_rows == want.vertex_rows
        assert q._incidences == want._incidences
        assert triangulate(q) == triangulate(want)
        assert np.array_equal(q.vertex_floats, want.vertex_floats)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(CATALOG_DEFAULTS), st.data())
    def test_catalog_images_and_their_models(self, entry, data):
        p = catalog(entry[0], *entry[1])
        q = data.draw(lattice_maps(p.n)).apply_polytope(p)
        self.check(q)
        self.check(fano_normalize(q).base)

    @pytest.mark.parametrize("entry", CATALOG_DEFAULTS, ids=lambda e: f"{e[0]}{e[1]}")
    def test_every_catalog_model(self, entry):
        self.check(fano_normalize(catalog(entry[0], *entry[1])).base)

    def test_normalized_polytopes(self, catalog_polytope):
        for v in catalog_polytope.vertices:
            self.check(normalize_at_vertex(catalog_polytope, v)[1])

    def test_an_unbuilt_image_pickles(self):
        p = catalog("blowup_cp2", 2)
        for q in (UnimodularMap(((1, 1), (0, 1)), (F(1, 2), 0)).apply_polytope(p), fano_normalize(p).base):
            copy = pickle.loads(pickle.dumps(q))
            assert "vertices" not in vars(copy)
            assert vertex_fields(copy) == vertex_fields(q)

    def test_a_verdict_builds_no_model_vertices(self):
        for entry in CATALOG_DEFAULTS:
            p = catalog(entry[0], *entry[1])
            fp = fano_normalize(p)
            a = soliton_vector(fp).a
            polytope_integral(fp, a, "xx")
            verify_einstein(SymplecticPotential.guillemin(fp.base), a, grid=7)  # 6 keeps n + 1 points on simplex(3)
            assert "vertices" not in vars(p), entry
            assert "vertices" not in vars(fp.base), entry


@settings(max_examples=40, deadline=None)
@given(polytopes())
def test_a_walked_polytope_builds_its_vertices_lazily(p):
    TestLazyCarry.check(DelzantPolytope.from_forms(p.forms, p.n))


def integer_rows(p):
    """Each vertex as (X, D): D the lcm of its coordinates' denominators, X = D x."""
    rows = []
    for v in p.vertices:
        d = math.lcm(*(c.denominator for c in v.coordinates))
        rows.append((*(int(c * d) for c in v.coordinates), d))
    return tuple(rows)


def builds(p, data):
    """p, a lattice image q of p, q normalized at a vertex and q's Fano
    model, the last two where they exist."""
    q = data.draw(lattice_maps(p.n)).apply_polytope(p)
    built = [p, q]
    try:
        built.append(normalize_at_vertex(q, data.draw(st.sampled_from(q.vertices)))[1])
    except NotDelzantVertex:
        pass
    try:
        built.append(fano_normalize(q).base)
    except NotFano:
        pass
    return built


@settings(max_examples=100, deadline=None)
@given(polytopes(), st.data())
def test_builders_hand_over_integer_rows(p, data):
    """Every builder hands its vertices' integer rows to the polytope; they
    must be the rows of its Fraction coordinates, which span dimension n."""
    for r in builds(p, data):
        assert "vertex_rows" in vars(r)  # handed over, not derived
        assert r.vertex_rows == integer_rows(r)
        assert vertices_affinely_span(r) and r.n == fraction_affine_rank([v.coordinates for v in r.vertices])


@settings(max_examples=100, deadline=None)
@given(polytopes(), st.data())
def test_edge_records_are_consistent(p, data):
    """For every vertex i and every (j, g) in its edges: vertex j - vertex i
    is a positive multiple of the primitive g, vertex j lists (i, -g), and
    the neighbours j rise strictly."""
    for r in builds(p, data):
        points = [[F(c, row[-1]) for c in row[:-1]] for row in r.vertex_rows]
        for i, edges in enumerate(r._edges):
            neighbours = [j for j, _ in edges]
            assert all(a < b for a, b in zip(neighbours, neighbours[1:]))
            for j, g in edges:
                step = [b - a for a, b in zip(points[i], points[j])]
                t = next(s / c for s, c in zip(step, g) if c)
                assert t > 0 and step == [t * c for c in g] and math.gcd(*g) == 1
                assert (i, tuple(-c for c in g)) in r._edges[j]


class TestCatalog:
    def test_simplex_forms(self):
        p = catalog("simplex", 2, 1)
        assert [(f.u, f.b) for f in p.forms] == [
            ((1, 0), 0), ((0, 1), 0), ((-1, -1), -1),
        ]

    def test_hirzebruch_forms(self):
        p = catalog("hirzebruch", 1)
        assert [(f.u, f.b) for f in p.forms] == [
            ((1, 0), 0), ((0, 1), 0), ((-1, -1), -2), ((-1, 0), -1),
        ]

    def test_hirzebruch_zero_is_square(self):
        p = catalog("hirzebruch", 0)
        assert sorted(v.coordinates for v in p.vertices) == [
            (0, 0), (0, 1), (1, 0), (1, 1),
        ]

    def test_scaled_simplex(self):
        p = catalog("simplex", 2, F(3, 2))
        assert sorted(v.coordinates for v in p.vertices) == [
            (0, 0), (0, F(3, 2)), (F(3, 2), 0),
        ]

    def test_unknown_name(self):
        with pytest.raises(UnknownName):
            catalog("dodecahedron")

    def test_bad_params(self):
        with pytest.raises(BadParams):
            catalog("simplex", 0)
        with pytest.raises(BadParams):
            catalog("simplex", 2, -1)
        with pytest.raises(BadParams):
            catalog("hirzebruch", -1)
        with pytest.raises(BadParams):
            catalog("blowup_cp2", 4)
        with pytest.raises(BadParams):
            catalog("cube", 2, 0.5)


class TestJson:
    def test_roundtrip(self, catalog_polytope):
        doc = catalog_polytope.to_json()
        q = polytope_from_json(json.loads(json.dumps(doc)))
        assert [(f.u, f.b) for f in q.forms] == [
            (f.u, f.b) for f in catalog_polytope.forms
        ]

    def test_rational_offsets_as_strings(self):
        doc = {"n": 1, "forms": [{"u": [1], "b": "-1/3"}, {"u": [-1], "b": "-2"}]}
        p = polytope_from_json(doc)
        assert p.forms[0].b == F(-1, 3)

    def test_malformed(self):
        for doc in [
            {"forms": []},
            {"n": 2},
            {"n": 2, "forms": [{"u": [1], "b": "0"}]},
            {"n": 1, "forms": [{"u": [1], "b": 0.25}, {"u": [-1], "b": "-1"}]},
            {"n": 1, "forms": [{"u": [1]}, {"u": [-1], "b": "-1"}]},
            # non-integers: never truncated by int(), never read as 1
            {"n": 2, "forms": [{"u": [1.7, 0], "b": "0"}, {"u": [0, 1], "b": "0"},
                               {"u": [-1, -1], "b": "-1"}]},
            {"n": 1, "forms": [{"u": [1.0], "b": "0"}, {"u": [-1], "b": "-1"}]},
            {"n": 1, "forms": [{"u": [True], "b": "0"}, {"u": [-1], "b": "-1"}]},
            {"n": 1, "forms": [{"u": [1], "b": False}, {"u": [-1], "b": "-1"}]},
            {"n": True, "forms": [{"u": [1], "b": "0"}, {"u": [-1], "b": "-1"}]},
            {"n": 1.0, "forms": [{"u": [1], "b": "0"}, {"u": [-1], "b": "-1"}]},
        ]:
            with pytest.raises(ParseError):
                polytope_from_json(doc)

    def test_primitivity_enforced(self):
        with pytest.raises(ParseError):
            polytope_from_json(
                {"n": 1, "forms": [{"u": [2], "b": "0"}, {"u": [-1], "b": "-1"}]}
            )
