"""Vertex enumeration, Delzant checks, normalization, catalog, JSON."""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from torickit import (
    CATALOG_DEFAULTS,
    AffineForm,
    BadParams,
    DelzantPolytope,
    Empty,
    LowerDimensional,
    NotDelzantVertex,
    ParseError,
    RedundantForm,
    Unbounded,
    UnimodularMap,
    UnknownName,
    VertexData,
    affine_span_rank,
    catalog,
    check_delzant,
    enumerate_vertices,
    exact_volume,
    normalize_at_vertex,
    polytope_from_json,
    vertices_affinely_span,
)

from oracles import feasible_basic_solutions, reference_vertices
from strategies import halfspace_systems, lattice_maps

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
    # a square pyramid, whose apex lies on four facets
    @example(([AffineForm(u, F(b)) for u, b in [((1, 0, -1), 0), ((0, 1, -1), 0), ((-1, 0, -1), -2),
                                                 ((0, -1, -1), -2), ((0, 0, 1), 0)]], 3))
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
        with pytest.raises(LowerDimensional):
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


class TestAffineSpan:
    def test_square_rank(self):
        assert affine_span_rank([(F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(1), F(1))]) == 2

    def test_collinear(self):
        assert affine_span_rank([(F(0), F(0)), (F(1), F(1)), (F(2), F(2))]) == 1

    def test_catalog_vertices_span(self, catalog_polytope):
        assert vertices_affinely_span(catalog_polytope)
        rank = affine_span_rank([v.coordinates for v in catalog_polytope.vertices])
        assert rank == catalog_polytope.n
        assert catalog_polytope.affine_span_rank == rank
        assert check_delzant(catalog_polytope).affine_span_rank == rank

    def test_rank_of_a_flat_vertex_set(self):
        # the constructor takes vertex data as given, so the rank is computed
        flat = [VertexData((F(c), F(c)), frozenset(), ()) for c in range(3)]
        p = DelzantPolytope(forms_2d((1, 0, 0)), flat, 2)
        assert p.affine_span_rank == 1
        assert not vertices_affinely_span(p)


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
        assert after.affine_span_rank == q.affine_span_rank == affine_span_rank(
            [v.coordinates for v in q.vertices]
        )

    def test_form_transform_preserves_values(self):
        m = UnimodularMap(((1, 1), (0, 1)), (F(1), F(-2)))
        form = AffineForm((2, -3), F(5, 7))
        x = (F(3, 2), F(4))
        y = m.apply_point(x)
        assert m.apply_form(form).value(y) == form.value(x)


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
