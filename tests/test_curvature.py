"""Scalar curvature, both routes, and the affine-fit machinery.

Frozen reference values come from tests/oracles.py (sympy symbolic
differentiation of the potential); regenerating them is a one-liner in
the slow oracle tests at the bottom.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from torickit import (
    CATALOG_DEFAULTS,
    AffineFit,
    AffineForm,
    BadMargin,
    DelzantPolytope,
    DegenerateSampleSet,
    NotPositiveDefinite,
    OutOfFloatRange,
    OutsideDomain,
    Polynomial,
    SymplecticPotential,
    UnimodularMap,
    affine_fit,
    catalog,
    extremality_check,
    extremality_from_samples,
    fd_cross_validate,
    interior_grid,
    metric_jet,
    random_interior_points,
    scalar_curvature,
    scalar_curvature_fd,
    scalar_curvatures,
    scalar_curvatures_fd,
    soliton_identity_residual,
)
from torickit import sampling
from torickit.curvature import FD_TOL, FDCrossValidation

import oracles
from strategies import catalog_images, lattice_maps

F = Fraction

# sympy oracle values, Guillemin potentials
FROZEN_F1 = {
    (0.3, 0.4): 6.693579717534955,
    (0.7, 0.2): 5.181601480822701,
    (0.25, 1.2): 7.080796213621563,
}
FROZEN_DP6 = {
    (0.1, -0.2): 2.69458303937985,
    (-0.3, 0.2): 2.736039206526761,
    (0.4, 0.4): 3.8021575412171793,
}
# simplex(2) with h = x1^2 x2^2 / 100
FROZEN_PERTURBED = {
    (0.3, 0.3): 11.998138731654677,
    (0.2, 0.5): 11.9864033403826,
    (0.45, 0.1): 11.994926275044147,
}


def guillemin(name, *params):
    return SymplecticPotential.guillemin(catalog(name, *params))


class TestClosedForms:
    def test_cp1_constant_four(self):
        pot = guillemin("simplex", 1)
        for x in np.linspace(0.001, 0.999, 101):
            assert abs(scalar_curvature(pot, np.array([x])) - 4.0) < 1e-8

    def test_cp2_constant_twelve(self):
        pot = guillemin("simplex", 2)
        for x in interior_grid(pot.polytope, 12):
            assert abs(scalar_curvature(pot, x) - 12.0) < 1e-8

    def test_cubes_constant(self):
        for n, want in [(2, 8.0), (3, 12.0)]:
            pot = guillemin("cube", n)
            for x in interior_grid(pot.polytope, 4, margin=0.05):
                assert abs(scalar_curvature(pot, x) - want) < 1e-8

    def test_product_square_constant_eight(self):
        pot = guillemin("hirzebruch", 0)
        x = np.array([0.37, 0.81])
        assert abs(scalar_curvature(pot, x) - 8.0) < 1e-10

    def test_hirzebruch_frozen_values(self):
        pot = guillemin("hirzebruch", 1)
        for pt, want in FROZEN_F1.items():
            assert scalar_curvature(pot, np.array(pt)) == pytest.approx(want, abs=1e-10)

    def test_hexagon_frozen_values(self):
        pot = guillemin("blowup_cp2", 3)
        for pt, want in FROZEN_DP6.items():
            assert scalar_curvature(pot, np.array(pt)) == pytest.approx(want, abs=1e-10)

    def test_perturbed_frozen_values(self):
        pot = SymplecticPotential(
            catalog("simplex", 2), Polynomial(2, {(2, 2): F(1, 100)})
        )
        for pt, want in FROZEN_PERTURBED.items():
            assert scalar_curvature(pot, np.array(pt)) == pytest.approx(want, abs=1e-10)


class TestFiniteDifferenceRoute:
    def test_matches_analytic_on_catalog(self, catalog_potential):
        pot = catalog_potential
        margin = 0.08 * sampling.diameter(pot.polytope)
        pts = random_interior_points(pot.polytope, 12, margin=margin, rng=2)
        for x in pts:
            sa = scalar_curvature(pot, x)
            sf = scalar_curvature_fd(pot, x)
            assert abs(sa - sf) / max(1.0, abs(sa)) < 1e-5

    def test_richardson_beats_single_level(self):
        # the route's two Richardson levels against the same step's plain central differences
        pot = guillemin("blowup_cp2", 1)
        x = np.array([0.21, -0.33])
        want = scalar_curvature(pot, x)
        plain = oracles.fd_curvature(pot, x, levels=0)
        rich = scalar_curvature_fd(pot, x)
        assert abs(rich - want) < abs(plain - want)
        assert abs(rich - want) < 1e-7

    def test_point_outside_names_its_form(self):
        # the same error as the analytic route, not a step precondition
        pot = guillemin("simplex", 2)
        x = np.array([2.0, 2.0])
        with pytest.raises(OutsideDomain) as want:
            scalar_curvature(pot, x)
        with pytest.raises(OutsideDomain) as got:
            scalar_curvature_fd(pot, x)
        assert (got.value.point, got.value.form_index, got.value.value) == (
            want.value.point, want.value.form_index, want.value.value,
        ) == ((2.0, 2.0), 2, -3.0)

    def test_both_routes_at_one_point(self):
        pot = guillemin("simplex", 2)
        x = np.array([0.3, 0.3])
        assert scalar_curvature(pot, x) == pytest.approx(12.0, abs=1e-9)
        assert scalar_curvature_fd(pot, x) == pytest.approx(12.0, abs=1e-6)

    def test_cross_validation_report(self):
        pot = guillemin("hirzebruch", 1)
        pts = random_interior_points(pot.polytope, 20, margin=0.15, rng=4)
        rep = fd_cross_validate(pot, pts)
        assert rep.passed
        assert rep.max_rel_err < 1e-5


# simplex(2) with h = -5 x_1^2 loses positive definiteness near x_1 = 0.112:
# (0.11, 0.2) is a valid point whose stencil reaches past it, (0.3, 0.3) is
# not valid.
INDEFINITE = SymplecticPotential(catalog("simplex", 2), Polynomial(2, {(2, 0): F(-5)}))
PERTURBED = SymplecticPotential(catalog("simplex", 2), Polynomial(2, {(2, 2): F(1, 100)}))


def raised(call):
    """The type, arguments and payload of what `call()` raises."""
    with pytest.raises((OutsideDomain, NotPositiveDefinite, ValueError)) as info:
        call()
    return type(info.value), info.value.args, vars(info.value)


@st.composite
def fd_cases(draw):
    """A catalog potential, a lattice image of one or the perturbed simplex,
    and 1-40 interior points."""
    kind = draw(st.sampled_from(["catalog", "image", "perturbed"]))
    if kind == "perturbed":
        pot = PERTURBED
    else:
        name, params = draw(st.sampled_from(CATALOG_DEFAULTS))
        p = catalog(name, *params)
        if kind == "image":
            p = draw(lattice_maps(p.n)).apply_polytope(p)
        pot = SymplecticPotential.guillemin(p)
    r = sampling.inradius(pot.polytope)
    return pot, random_interior_points(pot.polytope, draw(st.integers(1, 40)), margin=0.2 * r,
                                       rng=draw(st.integers(0, 2**16)))


class TestBatchedFiniteDifferences:
    @settings(max_examples=40, deadline=None)
    @given(fd_cases())
    def test_batch_repeats_the_point_by_point_arithmetic(self, case):
        pot, pts = case
        want = [oracles.fd_curvature(pot, x) for x in pts]
        assert scalar_curvatures_fd(pot, pts).tolist() == want
        assert scalar_curvature_fd(pot, pts[0]) == want[0]

    def test_catalog_values_are_those_of_the_one_point_loop(self, catalog_potential):
        for pot in (catalog_potential, PERTURBED):
            r = sampling.inradius(pot.polytope)
            pts = random_interior_points(pot.polytope, 30, margin=0.2 * r, rng=5)
            want = [oracles.fd_curvature(pot, x) for x in pts]
            assert scalar_curvatures_fd(pot, pts).tolist() == want

    @pytest.mark.parametrize(
        "pot,pts",
        [
            # a stencil row fails before a later point lies outside
            (INDEFINITE, [(0.05, 0.3), (0.11, 0.2), (2.0, 2.0)]),
            (INDEFINITE, [(0.05, 0.3), (2.0, 2.0), (0.11, 0.2)]),
            # the point itself is not positive definite
            (INDEFINITE, [(0.05, 0.3), (0.3, 0.3)]),
            (PERTURBED, [(0.3, 0.3), (0.5, 0.6)]),
            # a later point on the boundary: its step is 0, its own row fails
            (guillemin("cube", 3), [(0.5, 0.5, 0.5), (0.5, 0.5, 1.0)]),
        ],
    )
    def test_errors_are_those_of_the_point_by_point_loop(self, pot, pts):
        want = raised(lambda: [oracles.fd_curvature(pot, np.array(x)) for x in pts])
        assert raised(lambda: scalar_curvatures_fd(pot, pts)) == want

        def loop():
            for x in np.array(pts):
                scalar_curvature(pot, x)
                oracles.fd_curvature(pot, x)
        assert raised(lambda: fd_cross_validate(pot, pts)) == raised(loop)

    def test_no_points(self):
        pot = guillemin("simplex", 2)
        assert scalar_curvatures_fd(pot, np.empty((0, 2))).shape == (0,)
        assert fd_cross_validate(pot, np.empty((0, 2))) == FDCrossValidation(0.0, 1e-5, 0, True)


class TestAffineFit:
    def test_recovers_exact_affine_data(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            pts = rng.uniform(-1, 1, size=(n + 5, n))
            const = float(rng.normal())
            grad = rng.normal(size=n)
            vals = const + pts @ grad
            fit = affine_fit(pts, vals)
            assert fit.max_residual < 1e-12
            assert np.isclose(fit.constant, const, atol=1e-12)
            assert np.allclose(fit.gradient, grad, atol=1e-12)

    def test_degenerate_samples(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        with pytest.raises(DegenerateSampleSet):
            affine_fit(pts, np.zeros(4))

    @pytest.mark.parametrize("count", [0, 1, 2])
    def test_too_few_samples(self, count):
        with pytest.raises(DegenerateSampleSet):
            affine_fit(np.ones((count, 2)), np.zeros(count))

    def test_one_value_per_point(self):
        # 3 values for 6 points once ended in numpy's LinAlgError
        pts = random_interior_points(catalog("cube", 2), 6, margin=0.1, rng=1)
        with pytest.raises(ValueError, match=r"^affine_fit takes one value per point: 6 points, got 3 values$"):
            affine_fit(pts, np.zeros(3))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_values_that_are_not_finite(self, bad):
        # one NaN once returned a fit of NaNs
        pts = random_interior_points(catalog("cube", 2), 6, margin=0.1, rng=1)
        values = np.zeros(6)
        values[2] = bad
        with pytest.raises(OutOfFloatRange, match="^a value to fit is not finite$"):
            affine_fit(pts, values)

    @pytest.mark.parametrize("offset", [1e20, 1e100, 1e150])
    def test_samples_far_from_the_origin(self, offset):
        # coordinates this large once hid the column of ones from the rank test
        rng = np.random.default_rng(3)
        unit = rng.uniform(size=(40, 2))
        vals = 2.0 + unit @ np.array([1.0, -3.0])
        fit = affine_fit(offset * (1.0 + unit), vals)
        assert fit.max_residual < 1e-12
        assert np.allclose(fit.gradient * offset, [1.0, -3.0], rtol=1e-10)
        assert np.allclose([fit(x) for x in offset * (1.0 + unit)], vals, rtol=1e-10)

    def test_callable_evaluation(self):
        fit = AffineFit(constant=2.0, gradient=np.array([1.0, -1.0]),
                        max_residual=0.0, n_samples=4)
        assert fit(np.array([3.0, 1.0])) == pytest.approx(4.0)


class TestExtremality:
    def test_constant_curvature_families_are_extremal(self):
        for name, params in [("simplex", (1,)), ("simplex", (2,)), ("cube", (2,)),
                             ("cube", (3,)), ("hirzebruch", (0,))]:
            pot = guillemin(name, *params)
            ok, fit = extremality_check(pot, grid=8)
            assert ok, (name, params, fit.max_residual)
            assert abs(fit.gradient).max() < 1e-6

    def test_guillemin_hirzebruch_is_not_extremal(self):
        # the canonical potential is not Calabi's extremal metric here
        ok, fit = extremality_check(guillemin("hirzebruch", 1), grid=10)
        assert not ok
        assert fit.max_residual > 1e-2

    def test_blowup_guillemin_not_extremal(self):
        ok, fit = extremality_check(guillemin("blowup_cp2", 1), grid=10)
        assert not ok


class TestSolitonQuantities:
    def test_identity_pairs_a_with_the_one_point_jet(self):
        # at one point the constant is s + a^T G^{-1} a + 2 <a, x> itself
        pot = guillemin("cube", 2)
        rng = np.random.default_rng(21)
        for _ in range(10):
            a = rng.normal(size=2)
            x = np.array([rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9)])
            want = scalar_curvature(pot, x) + float(a @ metric_jet(pot, x).G_inv @ a) + 2.0 * float(a @ x)
            const, resid = soliton_identity_residual(pot, a, [x])
            assert const == pytest.approx(want, rel=1e-12)
            assert resid == 0.0

    def test_identity_residual_vanishes_for_zero_field(self):
        pot = guillemin("cube", 2)
        pts = interior_grid(pot.polytope, 6)
        const, resid = soliton_identity_residual(pot, np.zeros(2), pts)
        assert const == pytest.approx(8.0, abs=1e-9)
        assert resid < 1e-9

    def test_identity_residual_flags_fake_soliton(self):
        # s + |grad f|^2 + 2f with f = x1 on the Guillemin square:
        # 8 + 4x - 2x^2 is nowhere near constant
        pot = guillemin("cube", 2)
        pts = interior_grid(pot.polytope, 8)
        const, resid = soliton_identity_residual(pot, np.array([1.0, 0.0]), pts)
        assert 0.5 < resid < 2.0


class TestOracleAgreement:
    # regenerate the frozen dictionaries by running these

    def test_hirzebruch_against_sympy(self):
        field = oracles.symbolic_scalar_field(
            [(1, 0), (0, 1), (-1, -1), (-1, 0)], [0, 0, -2, -1]
        )
        for pt, want in FROZEN_F1.items():
            assert field(pt) == pytest.approx(want, abs=1e-12)

    def test_hexagon_against_sympy(self):
        field = oracles.symbolic_scalar_field(
            [(1, 0), (0, 1), (-1, -1), (1, 1), (0, -1), (-1, 0)], [-1] * 6
        )
        for pt, want in FROZEN_DP6.items():
            assert field(pt) == pytest.approx(want, abs=1e-12)

    def test_perturbed_against_sympy(self):
        field = oracles.symbolic_scalar_field(
            [(1, 0), (0, 1), (-1, -1)], [0, 0, -1],
            h_terms=((F(1, 100), (2, 2)),),
        )
        for pt, want in FROZEN_PERTURBED.items():
            assert field(pt) == pytest.approx(want, abs=1e-12)

    def test_package_matches_oracle_pointwise(self):
        field = oracles.symbolic_scalar_field(
            [(1, 0), (0, 1), (-1, -1), (-1, 0)], [0, 0, -2, -1]
        )
        pot = guillemin("hirzebruch", 1)
        rng = np.random.default_rng(17)
        pts = random_interior_points(pot.polytope, 15, margin=0.05, rng=rng)
        for x in pts:
            assert scalar_curvature(pot, x) == pytest.approx(field(x), rel=1e-11)


@pytest.mark.parametrize("value", [-1.0, 0.0, float("nan"), float("inf")])
def test_extremality_refuses_a_bad_tolerance(value):
    # tol = inf called hirzebruch(1)'s canonical metric extremal
    pot = SymplecticPotential.guillemin(catalog("hirzebruch", 1))
    pts = sampling.interior_grid(pot.polytope, 5)
    values = scalar_curvatures(pot, pts)
    with pytest.raises(ValueError, match=rf"^tol must be positive and finite, got {value}$"):
        extremality_from_samples(pts, values, tol=value)


def scaled(p, t):
    return DelzantPolytope.from_forms([AffineForm(g.u, g.b * t) for g in p.forms], p.n)


@settings(max_examples=25, deadline=None)
@given(catalog_images(), st.integers(-6, 6), st.fractions(1, 10, max_denominator=12))
# s on tP is s on P over t: at t = 10^7 the residuals of hirzebruch(1) and
# blowup_cp2(1..3), 2e-7 and less, once passed an absolute floor of 1e-6
@example(p=catalog("hirzebruch", 1), k=6, f=F(10))
@example(p=catalog("blowup_cp2", 3), k=6, f=F(10))
def test_extremality_does_not_depend_on_the_size_of_p(p, k, f):
    t = F(10) ** k * f      # rational, in [1e-6, 1e7]

    def extremal(p):        # a sheared image's grid may keep too few points, at any size
        try:
            return extremality_check(SymplecticPotential.guillemin(p))[0]
        except (BadMargin, DegenerateSampleSet) as e:
            return type(e)

    assert extremal(scaled(p, t)) is extremal(p)


SHEARED_F1 = UnimodularMap(((-5, 12), (-8, 19)), (F(1, 3), F(-2, 5))).apply_polytope(catalog("hirzebruch", 1))


@settings(max_examples=25, deadline=None)
@given(catalog_images(), st.integers(-6, 8))
# FD misses s on this image by about 5 times the scale of s at every size; at
# t = 10^7, where |s| < 1e-6, a floor of 1 under the error once read 3e-6 and passed
@example(p=SHEARED_F1, k=-6)
@example(p=SHEARED_F1, k=7)
@example(p=SHEARED_F1, k=8)
def test_fd_cross_validation_does_not_depend_on_the_size_of_p(p, k):
    t = F(10) ** k
    pts = random_interior_points(p, 40, margin=0.3 * sampling.inradius(p), rng=0)
    rep = fd_cross_validate(SymplecticPotential.guillemin(p), pts)
    assume(not FD_TOL / 10 <= rep.max_rel_err <= 10 * FD_TOL)     # rounding may tip a borderline draw
    assert fd_cross_validate(SymplecticPotential.guillemin(scaled(p, t)), float(t) * pts).passed is rep.passed


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_extremality_refuses_values_that_are_not_finite(bad):
    # a fit of NaNs once answered (False, fit): a non-extremality verdict from no data
    pot = SymplecticPotential.guillemin(catalog("hirzebruch", 1))
    pts = sampling.interior_grid(pot.polytope, 5)
    values = scalar_curvatures(pot, pts)
    values[3] = bad
    for tol in (None, 1e-3):
        with pytest.raises(OutOfFloatRange, match="^s is not finite at every sample$"):
            extremality_from_samples(pts, values, tol)
