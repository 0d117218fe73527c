"""Potential jets, metric data, and the boundary-behaviour probes."""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torickit
from torickit import (
    CATALOG_DEFAULTS,
    DegenerateSampleSet,
    NotPositiveDefinite,
    OutsideDomain,
    ParseError,
    Polynomial,
    SymplecticPotential,
    catalog,
    cofactor_growth_check,
    det_factorization_check,
    geometric_ts,
    interior_grid,
    interior_rays,
    metric_jet,
    metric_jets,
    normalize_at_vertex,
    potential_from_json,
    random_interior_points,
    vertex_vanishing_probe,
)
from torickit import sampling

import oracles
from strategies import lattice_maps

F = Fraction


def segment_potential():
    return SymplecticPotential.guillemin(catalog("simplex", 1))


def cp2_potential():
    return SymplecticPotential.guillemin(catalog("simplex", 2))


def derivatives(pot, x):
    """G, dG and d2G at x: the one-row batch with derivatives."""
    b = next(metric_jets(pot, x, with_derivatives=True))
    return b.G[0], b.dG[0], b.d2G[0]


class TestJets:
    def test_interval_closed_form(self):
        pot = segment_potential()
        for x in np.linspace(0.05, 0.95, 9):
            g, dg, d2g = derivatives(pot, np.array([x]))
            # G = 1/(2x(1-x)) and its chain-rule derivatives
            assert np.isclose(g[0, 0], 1.0 / (2 * x * (1 - x)), rtol=1e-13)
            assert np.isclose(dg[0, 0, 0], -0.5 * (1 / x**2 - 1 / (1 - x) ** 2), rtol=1e-12)
            assert np.isclose(d2g[0, 0, 0, 0], 1 / x**3 + 1 / (1 - x) ** 3, rtol=1e-12)

    def test_cp2_center(self):
        jet = metric_jet(cp2_potential(), np.array([1 / 3, 1 / 3]))
        assert np.allclose(jet.G, [[3.0, 1.5], [1.5, 3.0]], atol=1e-13)

    def test_gradient_against_finite_differences(self, catalog_potential):
        # dG, the gradient of G, against central differences of G
        pot = catalog_potential
        pts = interior_grid(pot.polytope, 4, margin=0.15)
        for x in pts[:: max(1, len(pts) // 5)]:
            _, dg, _ = derivatives(pot, x)
            for l in range(pot.n):
                e = np.zeros(pot.n)
                e[l] = 1e-5
                fd = (metric_jet(pot, x + e).G - metric_jet(pot, x - e).G) / 2e-5
                assert np.allclose(dg[:, :, l], fd, rtol=1e-5, atol=1e-7)

    def test_higher_jets_against_finite_differences(self):
        pot = SymplecticPotential(
            catalog("simplex", 2), Polynomial(2, {(2, 2): F(1, 100)})
        )
        x = np.array([0.31, 0.22])
        _, dg, d2g = derivatives(pot, x)
        h = 1e-4
        for l in range(2):
            e = np.zeros(2)
            e[l] = h
            dh = (metric_jet(pot, x + e).G - metric_jet(pot, x - e).G) / (2 * h)
            assert np.allclose(dg[:, :, l], dh, rtol=1e-6, atol=1e-6)
            dd3 = (derivatives(pot, x + e)[1] - derivatives(pot, x - e)[1]) / (2 * h)
            assert np.allclose(d2g[:, :, :, l], dd3, rtol=1e-5, atol=1e-4)

    def test_h_tensor_hand_case(self):
        # h = (3/2) x^2 y at (2, 5) and (1, -1)
        pot = SymplecticPotential(
            catalog("cube", 2, 10), Polynomial(2, {(2, 1): F(3, 2)})
        )
        x = np.array([[2.0, 5.0], [1.0, -1.0]])
        assert np.allclose(pot._h_rows(0, x), [[30.0], [-1.5]])
        assert np.allclose(pot._h_rows(1, x), [[30.0, 6.0], [-3.0, 1.5]])
        assert np.allclose(
            pot._h_rows(2, x).reshape(2, 2, 2),
            [[[15.0, 6.0], [6.0, 0.0]], [[-3.0, 3.0], [3.0, 0.0]]],
        )
        t3 = pot._h_rows(3, x).reshape(2, 2, 2, 2)
        for row in t3:
            assert row[0, 0, 1] == row[1, 0, 0] == row[0, 1, 0] == pytest.approx(3.0)
            assert row[0, 0, 0] == row[0, 1, 1] == row[1, 1, 1] == 0.0

    def test_outside_domain(self):
        pot = cp2_potential()
        with pytest.raises(OutsideDomain) as exc:
            metric_jet(pot, np.array([0.8, 0.8]))
        assert exc.value.form_index == 2
        assert str(exc.value) == "point (0.8, 0.8) violates form 2 (value -6.000e-01 <= 0)"
        with pytest.raises(OutsideDomain):
            metric_jet(pot, np.array([0.0, 0.5]))  # boundary itself is out


class TestMetricJet:
    def test_inverse_and_determinant(self, catalog_potential):
        pot = catalog_potential
        pts = interior_grid(pot.polytope, 4, margin=0.1)
        eye = np.eye(pot.n)
        for x in pts[:: max(1, len(pts) // 6)]:
            mj = metric_jet(pot, x)
            assert np.allclose(mj.G @ mj.G_inv, eye, atol=1e-10)
            assert np.isclose(mj.det_G, np.linalg.det(mj.G), rtol=1e-10)
            # cofactor transpose identity det(G) G^{-1} = cof(G)^T
            assert np.allclose(mj.cof.T, mj.det_G * mj.G_inv, rtol=1e-9, atol=1e-12)

    def test_cp1_closed_form(self):
        pot = segment_potential()
        for x in np.linspace(0.01, 0.99, 25):
            mj = metric_jet(pot, np.array([x]))
            assert abs(mj.G_inv[0, 0] - 2 * x * (1 - x)) < 1e-14

    def test_cp2_closed_form(self):
        pot = cp2_potential()
        mj = metric_jet(pot, np.array([1 / 3, 1 / 3]))
        want = np.array([[4 / 9, -2 / 9], [-2 / 9, 4 / 9]])
        assert np.allclose(mj.G_inv, want, atol=1e-14)

    def test_derivatives_flag(self):
        simplex = catalog("simplex", 2)
        cube = catalog("cube", 3)
        cases = [
            (SymplecticPotential.guillemin(simplex), [0.3, 0.25]),
            (SymplecticPotential(simplex, Polynomial(2, {(2, 2): F(1, 100)})), [0.3, 0.25]),
            (SymplecticPotential(cube, Polynomial(3, {(3, 1, 1): F(1, 20)})), [0.3, 0.6, 0.45]),
        ]
        for pot, x in cases:
            x = np.array(x)
            got = derivatives(pot, x)
            want = oracles.reference_jet(*oracles.potential_spec(pot), x)
            for a, b in zip(got, want):
                assert np.allclose(a, b, rtol=1e-13, atol=0)
            assert next(metric_jets(pot, x)).dG is None

    def test_not_positive_definite(self):
        # h = -4 x^2 drives G = 1/(2x(1-x)) - 4 negative at the center
        pot = SymplecticPotential(
            catalog("simplex", 1), Polynomial(1, {(2,): F(-4)})
        )
        with pytest.raises(NotPositiveDefinite) as exc:
            metric_jet(pot, np.array([0.5]))
        assert exc.value.eigenvalue < 0


class TestDetFactorization:
    # delta = 1/(det G prod lambda) has closed-form constants on the
    # simplex and cube families; on the blown-up surfaces it is only
    # positive and bounded, which is all the check asserts.

    @pytest.mark.parametrize(
        "name,params,constant",
        [
            ("simplex", (1,), 2.0),
            ("simplex", (2,), 4.0),
            ("simplex", (3,), 8.0),
            ("simplex", (2, F(3, 2)), 8.0 / 3.0),
            ("cube", (2,), 4.0),
            ("cube", (3,), 8.0),
            ("cube", (2, F(2)), 1.0),
            ("hirzebruch", (0,), 4.0),
        ],
    )
    def test_constant_families(self, name, params, constant):
        p = catalog(name, *params)
        pot = SymplecticPotential.guillemin(p)
        rep = det_factorization_check(pot, interior_grid(p, 6))
        assert rep.passed
        assert np.allclose(rep.deltas, constant, atol=1e-8)

    def test_blowups_positive_and_bounded(self):
        for name, k in [("hirzebruch", 1), ("blowup_cp2", 1), ("blowup_cp2", 3)]:
            p = catalog(name, k)
            pot = SymplecticPotential.guillemin(p)
            rep = det_factorization_check(pot, interior_grid(p, 10))
            assert rep.passed
            assert rep.min_delta > 0
            assert rep.ratio < 10

    def test_hirzebruch_delta_is_not_constant(self):
        # known non-constancy: the factorization keeps delta smooth and
        # positive but nothing forces it constant off the simplex/cube
        # families
        p = catalog("hirzebruch", 1)
        pot = SymplecticPotential.guillemin(p)
        rep = det_factorization_check(pot, interior_grid(p, 10))
        assert rep.max_delta - rep.min_delta > 0.1

    def test_no_points(self):
        for points in ([], np.empty((0, 2))):
            with pytest.raises(DegenerateSampleSet):
                det_factorization_check(cp2_potential(), points)

    def test_an_earlier_indefinite_row_beats_a_later_exterior_one(self):
        # h = -4 x^2 leaves G = 1/(2x(1-x)) - 4 positive only near the ends
        pot = SymplecticPotential(catalog("simplex", 1), Polynomial(1, {(2,): F(-4)}))
        with pytest.raises(NotPositiveDefinite) as one:
            metric_jet(pot, [0.45])
        with pytest.raises(NotPositiveDefinite) as got:
            det_factorization_check(pot, [[0.05], [0.45], [1.5]])
        assert (got.value.point, got.value.eigenvalue) == (one.value.point, one.value.eigenvalue)

    def test_never_takes_the_one_point_route(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("metric_jet called")

        monkeypatch.setattr(torickit.potential, "metric_jet", refuse)
        p = catalog("blowup_cp2", 3)
        rep = det_factorization_check(SymplecticPotential.guillemin(p), interior_grid(p, 30))
        assert len(rep.deltas) > torickit.potential._CHUNK
        assert rep.passed


@st.composite
def delta_cases(draw):
    """A catalog potential, a lattice image of one or simplex(2) + x^2 y^2 / 100,
    and a seed for its points."""
    kind = draw(st.sampled_from(["catalog", "image", "perturbed"]))
    if kind == "perturbed":
        pot = SymplecticPotential(catalog("simplex", 2), Polynomial(2, {(2, 2): F(1, 100)}))
    else:
        name, params = draw(st.sampled_from(CATALOG_DEFAULTS))
        p = catalog(name, *params)
        if kind == "image":
            p = draw(lattice_maps(p.n)).apply_polytope(p)
        pot = SymplecticPotential.guillemin(p)
    return pot, draw(st.integers(0, 2**16))


@settings(max_examples=15, deadline=None)
@given(delta_cases())
def test_deltas_are_the_one_point_values(case):
    # delta comes from one metric_jets pass; each row is the one-point value to the last bit
    pot, seed = case
    p = pot.polytope
    pts = random_interior_points(p, 257, margin=0.1 * sampling.inradius(p), rng=seed)
    one = [1.0 / (metric_jet(pot, x).det_G * np.prod(p.lambdas(x))) for x in pts]
    for count in (1, 256, 257):     # one row, one full chunk, a chunk and one row
        assert det_factorization_check(pot, pts[:count]).deltas.tolist() == one[:count]


class TestVertexProbes:
    def test_cp2_probe_decays_linearly(self):
        pot = cp2_potential()
        origin = pot.polytope.vertex_at((F(0), F(0)))
        ts = geometric_ts(1e-2, 15)
        for ray in interior_rays(origin, 3):
            probe = vertex_vanishing_probe(pot, origin, ray, ts)
            assert probe.passed
            assert probe.slope >= 0.9
            assert probe.norms[-1] < probe.norms[0]

    def test_probe_fails_away_from_a_vertex(self):
        # G^{-1} does not vanish at the centre of the square: the slope is about 0
        pot = SymplecticPotential.guillemin(catalog("cube", 2))
        probe = vertex_vanishing_probe(pot, (F(1, 2), F(1, 2)), (1, 1), geometric_ts(1e-2, 10))
        assert abs(probe.slope) < 1e-3
        assert not probe.passed

    @pytest.mark.parametrize("ray", [(1,), (1, 1, 1)])
    def test_probes_refuse_a_ray_of_the_wrong_length(self, ray):
        # a one-entry ray was broadcast onto (1, 1), bit for bit that probe
        pot = SymplecticPotential.guillemin(catalog("cube", 2))
        ts = geometric_ts(1e-2, 5)
        with pytest.raises(ValueError, match=rf"^the ray needs 2 components for this vertex, got {len(ray)}$"):
            vertex_vanishing_probe(pot, (F(0), F(0)), ray, ts)
        with pytest.raises(ValueError, match=rf"^a point of this polytope has 2 coordinates, got {len(ray)}$"):
            cofactor_growth_check(pot, ray, ts)

    def test_cofactor_growth_at_normalized_vertex(self):
        p = catalog("blowup_cp2", 1)
        v = p.vertices[0]
        _, q = normalize_at_vertex(p, v.coordinates)
        pot = SymplecticPotential.guillemin(q)
        origin = q.vertex_at(tuple(F(0) for _ in range(q.n)))
        ray = interior_rays(origin, 1)[0]
        ts = geometric_ts(1e-2, 15)
        rep = cofactor_growth_check(pot, ray, ts)
        assert rep.passed
        assert rep.final_max <= 1e-6
        # one batch along the ray gives the products of the one-point jets
        want = [metric_jet(pot, t * ray).cof * float(np.prod(t * ray)) for t in ts]
        assert np.array_equal(rep.products, want)

    def test_cofactor_check_requires_normalized_form(self):
        # first form of the anticanonical model has offset -1, not 0
        shifted = catalog("blowup_cp2", 1)
        with pytest.raises(ValueError):
            cofactor_growth_check(
                SymplecticPotential.guillemin(shifted),
                np.array([1.0, 1.0]),
                geometric_ts(1e-2, 5),
            )

    @pytest.mark.parametrize(
        "ts",
        [[1e-7], [1e-2, 1e-3], [1e-2, 1e-2, 1e-3], [1e-3, 1e-2, 5e-2], [1e-2, 1e-3, 0.0], [1e-2, 1e-3, np.nan],
         [[1e-2, 1e-3, 1e-4]]],
    )
    def test_probes_refuse_a_ladder_that_shows_no_trend(self, ts):
        # one sample once passed the cofactor check with an empty trend test
        pot = SymplecticPotential.guillemin(catalog("cube", 2))
        with pytest.raises(ValueError, match="at least 3 positive, strictly decreasing steps"):
            cofactor_growth_check(pot, (1, 1), ts)
        with pytest.raises(ValueError, match="at least 3 positive, strictly decreasing steps"):
            vertex_vanishing_probe(pot, (F(0), F(0)), (1, 1), ts)


class TestSerialization:
    def test_roundtrip_with_h(self):
        pot = SymplecticPotential(
            catalog("simplex", 2), Polynomial(2, {(2, 2): F(1, 100)})
        )
        doc = json.loads(json.dumps(pot.to_json()))
        back = potential_from_json(doc)
        assert back.h == pot.h
        assert [(f.u, f.b) for f in back.polytope.forms] == [
            (f.u, f.b) for f in pot.polytope.forms
        ]

    def test_guillemin_document(self):
        pot = potential_from_json(
            {"polytope": catalog("cube", 2).to_json(), "h": None}
        )
        assert pot.h.is_zero

    def test_malformed(self):
        with pytest.raises(ParseError):
            potential_from_json({"h": None})
        with pytest.raises(ParseError):
            potential_from_json(
                {
                    "polytope": catalog("cube", 2).to_json(),
                    "h": {"monomials": [{"exponents": [1], "coeff": "1"}]},
                }
            )
