"""The batched metric-and-curvature engine: the batch and the one-point
API against an entry-by-entry reference jet, an exact rational oracle,
error payloads, chunked memory, G^{-1} built on first read, q = a^T G^{-1} a
from the Cholesky factor, and three property tests: every one-point call
is its row of a batch to the last bit, unimodular covariance, and every
public float entry answers or refuses points and vectors it cannot take."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from torickit import (
    CATALOG_DEFAULTS,
    DegenerateSampleSet,
    NotPositiveDefinite,
    OutOfFloatRange,
    OutsideDomain,
    Polynomial,
    SymplecticPotential,
    UnimodularMap,
    affine_fit,
    catalog,
    det_factorization_check,
    extremality_check,
    fano_normalize,
    fd_cross_validate,
    interior_grid,
    metric_jet,
    metric_jets,
    polytope_integral,
    random_interior_points,
    scalar_curvature,
    scalar_curvature_fd,
    scalar_curvatures,
    scalar_curvatures_fd,
    soliton_identity_residual,
    soliton_vector,
)
from torickit import sampling
import torickit.curvature
import torickit.potential

import oracles
from strategies import lattice_maps

F = Fraction


def exact_inverse(m):
    """Gauss-Jordan inverse of a Fraction matrix."""
    n = len(m)
    a = [list(row) + [F(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        a[col] = [v / a[col][col] for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                a[r] = [v - a[r][col] * w for v, w in zip(a[r], a[col])]
    return [row[n:] for row in a]


def exact_guillemin_curvature(p, x):
    """Abreu's closed form for h = 0 in exact arithmetic, C = U G^-1 U^T:
    s = sum C_aa^2/l_a^3 - 1/4 sum (C_ab^3 + C_aa C_ab C_bb)/(l_a l_b)^2."""
    x = [F(c) for c in x]
    us = [[F(c) for c in f.u] for f in p.forms]
    lam = [sum(u_i * x_i for u_i, x_i in zip(u, x)) - F(f.b) for u, f in zip(us, p.forms)]
    n = p.n
    g = [[sum(u[i] * u[j] / (2 * l) for u, l in zip(us, lam)) for j in range(n)] for i in range(n)]
    gi = exact_inverse(g)
    c = [
        [sum(ua[i] * gi[i][j] * ub[j] for i in range(n) for j in range(n)) for ub in us]
        for ua in us
    ]
    m = len(us)
    first = sum(c[a][a] ** 2 / lam[a] ** 3 for a in range(m))
    second = sum(
        (c[a][b] ** 3 + c[a][a] * c[a][b] * c[b][b]) / (lam[a] * lam[b]) ** 2
        for a in range(m)
        for b in range(m)
    )
    return first - second / 4


def perturbed_simplex():
    return SymplecticPotential(catalog("simplex", 2), Polynomial(2, {(2, 2): F(1, 100)}))


def batch(pot, pts, field):
    return np.concatenate([getattr(jet, field) for jet in metric_jets(pot, pts)])


class TestExactOracle:
    def test_hexagon_rational_point(self):
        p = catalog("blowup_cp2", 3)
        x = (F(1, 7), F(-2, 9))
        want = exact_guillemin_curvature(p, x)
        assert want == F(168951848556, 62516610805)
        pot = SymplecticPotential.guillemin(p)
        pts = random_interior_points(p, 600, rng=3)
        pts[417] = [float(c) for c in x]       # inside the second chunk
        got = scalar_curvatures(pot, pts)[417]
        assert abs(got - float(want)) <= 1e-12 * float(want)

    @pytest.mark.parametrize(
        "name,params,want", [("simplex", (1,), 4.0), ("simplex", (2,), 12.0), ("cube", (2,), 8.0)]
    )
    def test_constant_curvature_over_a_large_batch(self, name, params, want):
        p = catalog(name, *params)
        assert exact_guillemin_curvature(p, p.vertex_floats.mean(axis=0).tolist()) == want
        pts = random_interior_points(p, 10_000, rng=8)
        s = scalar_curvatures(SymplecticPotential.guillemin(p), pts)
        assert s.shape == (10_000,)
        assert np.max(np.abs(s - want)) < 1e-8


class TestBatchEquivalence:
    """The batch and the one-point API against the entry-by-entry oracle."""

    @staticmethod
    def check(pot):
        margin = 0.02 * sampling.diameter(pot.polytope)
        pts = random_interior_points(pot.polytope, 300, margin=margin, rng=6)
        spec = oracles.potential_spec(pot)
        g = np.array([oracles.reference_jet(*spec, x)[0] for x in pts])
        single = [metric_jet(pot, x) for x in pts]
        for got in (batch(pot, pts, "G"), [j.G for j in single]):
            assert np.allclose(got, g, rtol=1e-13, atol=0)
        for got in (batch(pot, pts, "G_inv"), [j.G_inv for j in single]):
            assert np.allclose(got, np.linalg.inv(g), rtol=1e-12, atol=0)
        for got in (batch(pot, pts, "det_G"), [j.det_G for j in single]):
            assert np.allclose(got, np.linalg.det(g), rtol=1e-12, atol=0)
        want = [oracles.jet_curvature(*spec, x) for x in pts]
        assert np.allclose(scalar_curvatures(pot, pts), want, rtol=1e-12, atol=1e-12)
        assert np.allclose([scalar_curvature(pot, x) for x in pts], want, rtol=1e-12, atol=1e-12)

    def test_catalog(self, catalog_potential):
        self.check(catalog_potential)

    def test_perturbed_potential(self):
        self.check(perturbed_simplex())

    def test_perturbed_cube(self):
        # cubic exponents and partials in three distinct directions
        h = Polynomial(3, {(3, 1, 1): F(1, 20), (1, 2, 2): F(1, 30)})
        self.check(SymplecticPotential(catalog("cube", 3), h))


class TestBatchErrors:
    def test_exterior_row(self):
        pot = SymplecticPotential.guillemin(catalog("simplex", 2))
        pts = random_interior_points(pot.polytope, 700, rng=4)
        pts[300] = [0.3, 0.9]                  # violates x + y <= 1
        pts[500] = [-0.1, 0.2]
        with pytest.raises(OutsideDomain) as one:
            metric_jet(pot, pts[300])
        for evaluate in (lambda: batch(pot, pts, "G"), lambda: scalar_curvatures(pot, pts)):
            with pytest.raises(OutsideDomain) as got:
                evaluate()
            assert (got.value.point, got.value.form_index, got.value.value) == (
                one.value.point, one.value.form_index, one.value.value,
            )

    def test_not_positive_definite_row(self):
        # h = -4 x^2 leaves G = 1/(2x(1-x)) - 4 positive only near the ends
        pot = SymplecticPotential(catalog("simplex", 1), Polynomial(1, {(2,): F(-4)}))
        pts = np.array([[0.05]] * 260 + [[0.45], [0.5], [0.97]])
        with pytest.raises(NotPositiveDefinite) as one:
            metric_jet(pot, pts[260])
        with pytest.raises(NotPositiveDefinite) as got:
            soliton_identity_residual(pot, np.array([0.3]), pts)
        assert got.value.point == one.value.point == (0.45,)
        assert got.value.eigenvalue == one.value.eigenvalue < 0

    def test_an_earlier_indefinite_row_beats_a_later_exterior_one(self):
        # the exterior row is found first; the indefinite row before it is named
        pot = SymplecticPotential(catalog("simplex", 1), Polynomial(1, {(2,): F(-4)}))
        with pytest.raises(NotPositiveDefinite) as one:
            metric_jet(pot, [0.45])
        with pytest.raises(NotPositiveDefinite) as got:
            batch(pot, [[0.05], [0.45], [1.5]], "G")
        assert (got.value.point, got.value.eigenvalue) == (one.value.point, one.value.eigenvalue)
        assert got.value.point == (0.45,)

    @pytest.mark.parametrize("with_derivatives", [False, True])
    def test_the_batch_names_the_failing_row_without_a_replay(self, monkeypatch, with_derivatives):
        # h = -4 x^2: G is indefinite at 0.45, and 1.5 lies outside
        pot = SymplecticPotential(catalog("simplex", 1), Polynomial(1, {(2,): F(-4)}))
        one = {}
        for x, error in ((0.45, NotPositiveDefinite), (1.5, OutsideDomain)):
            with pytest.raises(error) as got:
                metric_jet(pot, [x])
            one[x] = got.value

        def refuse(*args, **kwargs):
            raise AssertionError("metric_jet called")

        monkeypatch.setattr(torickit.potential, "metric_jet", refuse)
        monkeypatch.setattr(torickit.curvature, "metric_jet", refuse, raising=False)    # nor a name bound there
        for first, second in ((0.45, 1.5), (1.5, 0.45)):
            rows = [[0.05]] * 100 + [[first], [0.97], [second]]
            with pytest.raises(type(one[first])) as got:
                list(metric_jets(pot, rows, with_derivatives))
            assert vars(got.value) == vars(one[first]) and str(got.value) == str(one[first])
        # finite differences name an exterior point through a one-row batch
        with pytest.raises(OutsideDomain) as got:
            scalar_curvatures_fd(pot, [[0.05], [1.5], [0.97]])
        assert vars(got.value) == vars(one[1.5]) and str(got.value) == str(one[1.5])


@pytest.mark.parametrize(
    "call",
    [
        lambda pot, x: metric_jet(pot, x[0]),
        lambda pot, x: list(metric_jets(pot, x)),
        lambda pot, x: list(metric_jets(pot, x[0])),
        scalar_curvatures,
        scalar_curvatures_fd,
        det_factorization_check,
        lambda pot, x: soliton_identity_residual(pot, np.zeros(pot.n), x),
        lambda pot, x: sampling.interior_distance(pot.polytope, x),
    ],
    ids=["metric_jet", "metric_jets", "metric_jets_one_point", "scalar_curvatures", "scalar_curvatures_fd",
         "det_factorization_check", "soliton_identity_residual", "interior_distance"],
)
@pytest.mark.parametrize("name,params,x", [("cube", (2,), [[0.3]]), ("cube", (2,), [[0.3, 0.3, 0.3]]),
                                           ("simplex", (3,), [[0.1]])])
def test_a_point_of_the_wrong_length_is_refused(call, name, params, x):
    # one coordinate was broadcast onto every axis: s read 8 at [0.3] on cube(2), as at (0.3, 0.3)
    pot = SymplecticPotential.guillemin(catalog(name, *params))
    got = len(x[0])
    with pytest.raises(ValueError, match=rf"^a point of this polytope has {pot.n} coordinates, got {got}$"):
        call(pot, np.array(x))


def test_empty_point_list():
    pot = SymplecticPotential.guillemin(catalog("simplex", 2))
    for points in ([], np.empty((0, 2))):
        assert scalar_curvatures(pot, points).shape == (0,)
        with pytest.raises(DegenerateSampleSet):
            soliton_identity_residual(pot, np.array([0.1, 0.2]), points)


def _fit(pot, fp, x, a):
    count = len(x) if np.ndim(x) == 2 else min(np.size(x), 1)      # a vector is one point
    fit = affine_fit(x, np.arange(float(count)))
    return [fit.constant, *fit.gradient, fit.max_residual]


# Every public float entry, as (name, call(pot, fp, points, a)); fp is the Fano model.
FLOAT_ENTRIES = {
    "metric_jets": lambda pot, fp, x, a: np.concatenate([b.G for b in metric_jets(pot, x)]),
    "scalar_curvatures": lambda pot, fp, x, a: scalar_curvatures(pot, x),
    "scalar_curvatures_fd": lambda pot, fp, x, a: scalar_curvatures_fd(pot, x),
    "det_factorization_check": lambda pot, fp, x, a: det_factorization_check(pot, x).deltas,
    "soliton_identity_residual": lambda pot, fp, x, a: soliton_identity_residual(pot, a, x),
    "fd_cross_validate": lambda pot, fp, x, a: fd_cross_validate(pot, x).max_rel_err,
    "interior_distance": lambda pot, fp, x, a: sampling.interior_distance(pot.polytope, x),
    "affine_fit": _fit,
    "polytope_integral": lambda pot, fp, x, a: polytope_integral(fp, a, "xx"),
}
# The documented errors: DegenerateSampleSet where no point leaves nothing to
# answer, and affine_fit, whose points have no polytope, for any set that does not span.
NO_ROWS = {"det_factorization_check", "soliton_identity_residual", "affine_fit"}


@st.composite
def input_cases(draw):
    """A catalog potential, 0-6 interior points and a in [-1, 1]^n, and at
    most one defect: a coordinate or a component NaN or infinite, no rows,
    one point as a vector, or points or a of the wrong length."""
    name, params = draw(st.sampled_from(CATALOG_DEFAULTS))
    p = catalog(name, *params)
    weights = np.array(draw(st.lists(st.lists(st.floats(0.05, 1.0), min_size=len(p.vertices),
                                              max_size=len(p.vertices)), min_size=0, max_size=6)))
    x = weights @ p.vertex_floats / weights.sum(axis=1, keepdims=True) if len(weights) else np.empty((0, p.n))
    a = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=p.n, max_size=p.n)))
    bad = st.sampled_from([float("nan"), float("inf"), -float("inf")])
    defect = draw(st.sampled_from(["none", "point", "a", "no rows", "vector", "wrong length", "a wrong length"]))
    if defect == "point":
        assume(len(x))
        x[draw(st.integers(0, len(x) - 1)), draw(st.integers(0, p.n - 1))] = draw(bad)
    elif defect == "a":
        a[draw(st.integers(0, p.n - 1))] = draw(bad)
    elif defect == "no rows":
        x = draw(st.sampled_from([[], np.empty((0, p.n))]))
    elif defect == "vector":
        x = x[0] if len(x) else p.vertex_floats.mean(axis=0)
    elif defect == "wrong length":
        x = np.hstack([x, x[:, :1]]) if draw(st.booleans()) else x[:, :-1]
        if draw(st.booleans()):     # one point as a vector
            assume(np.size(x))
            x = x[0]
    elif defect == "a wrong length":
        a = np.append(a, 0.5) if draw(st.booleans()) else a[:-1]
    return name, params, x, a, defect


@settings(max_examples=60, deadline=None)
@given(input_cases())
# these once returned NaN, raised a length error for no points, or ended in numpy's LinAlgError
@example(case=("cube", (2,), np.array([[np.nan, 0.5]]), np.zeros(2), "point"))
@example(case=("cube", (2,), np.array([[np.inf, 0.5]]), np.zeros(2), "point"))
@example(case=("cube", (2,), [], np.zeros(2), "no rows"))
@example(case=("cube", (2,), np.array([[0.3, 0.5]] * 5), np.array([np.nan, 0.0]), "a"))
def test_every_float_entry_answers_or_refuses(case):
    name, params, x, a, defect = case
    pot = SymplecticPotential.guillemin(catalog(name, *params))
    fp = fano_normalize(pot.polytope)
    a_error = {"a": OutOfFloatRange, "a wrong length": ValueError}.get(defect)
    x_error = {"point": OutOfFloatRange, "wrong length": ValueError}.get(defect)
    for entry, call in FLOAT_ENTRIES.items():
        if entry == "polytope_integral" or (entry == "soliton_identity_residual" and a_error):
            want = a_error     # a is checked before the points
        elif entry == "affine_fit":
            want = OutOfFloatRange if defect == "point" else DegenerateSampleSet     # or an answer
        else:
            want = x_error or (DegenerateSampleSet if entry in NO_ROWS and not np.size(x) else None)
        try:
            got = call(pot, fp, x, a)
        except (ValueError, OutOfFloatRange, DegenerateSampleSet) as e:
            assert type(e) is want, (entry, defect, e)
        else:
            assert want is None or (entry == "affine_fit" and want is DegenerateSampleSet), (entry, defect, got)
            assert np.all(np.isfinite(np.asarray(got, dtype=float))), (entry, defect, got)
    if not np.size(x) and x_error is None:     # the two routes agree
        assert scalar_curvatures(pot, x).shape == scalar_curvatures_fd(pot, x).shape == (0,)


def test_identity_residual_memory_is_flat():
    pot = SymplecticPotential.guillemin(catalog("cube", 4))
    pts = random_interior_points(pot.polytope, 10_000, rng=5)
    a = np.array([0.1, -0.2, 0.05, 0.3])
    soliton_identity_residual(pot, a, pts[:10])
    tracemalloc.start()
    try:
        soliton_identity_residual(pot, a, pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


# ---------------------------------------------------------------------------
# one result per point: a one-point call is its row of any batch, bit for bit

# cond(G) reaches about 1e6 here; a 2-D matmul over the rows rounded lambda
# by BLAS gemv for one row and gemm for many, and nearly every row differed
HIRZEBRUCH_IMAGE = SymplecticPotential.guillemin(
    UnimodularMap(((-5, 12), (-8, 19)), (F(1, 3), F(-2, 5))).apply_polytope(catalog("hirzebruch", 1))
)


@st.composite
def row_cases(draw):
    """A catalog potential, a lattice image of one, simplex(1) (two forms,
    where einsum summed a one-row quadratic form differently) or simplex(2)
    + x^2 y^2 / 100, and a seed for its points."""
    kind = draw(st.sampled_from(["catalog", "image", "simplex(1)", "perturbed"]))
    if kind == "perturbed":
        pot = perturbed_simplex()
    elif kind == "simplex(1)":
        pot = SymplecticPotential.guillemin(catalog("simplex", 1))
    else:
        name, params = draw(st.sampled_from(CATALOG_DEFAULTS))
        p = catalog(name, *params)
        if kind == "image":
            p = draw(lattice_maps(p.n)).apply_polytope(p)
        pot = SymplecticPotential.guillemin(p)
    return pot, draw(st.integers(0, 2**16))


@settings(max_examples=20, deadline=None)
@given(row_cases())
@example(case=(HIRZEBRUCH_IMAGE, 1))
@example(case=(SymplecticPotential.guillemin(catalog("simplex", 1)), 1))
def test_one_point_calls_are_their_batch_rows(case):
    pot, seed = case
    p = pot.polytope
    pts = random_interior_points(p, 257, margin=0.1 * sampling.inradius(p), rng=seed)
    jets = [metric_jet(pot, x) for x in pts]
    rows = [next(metric_jets(pot, x, with_derivatives=True)) for x in pts]    # one-row batches
    for deriv, fields in ((False, ["G", "G_inv", "det_G"]), (True, ["G", "G_inv", "det_G", "dG", "d2G"])):
        for count in (1, 256, 257):     # one row, one full chunk, a chunk and one row
            batches = list(metric_jets(pot, pts[:count], with_derivatives=deriv))
            for f in fields:
                got = np.concatenate([getattr(b, f) for b in batches])
                assert np.array_equal(got, [getattr(r, f)[0] for r in rows[:count]]), (f, count)
                if f in ("G", "G_inv", "det_G"):
                    assert np.array_equal(got, [getattr(j, f) for j in jets[:count]]), (f, count)
    one = {
        "s": [scalar_curvature(pot, x) for x in pts],
        "fd": [scalar_curvature_fd(pot, x) for x in pts],
        "distance": [float(sampling.interior_distance(p, x)) for x in pts],
    }
    a = np.random.default_rng(seed).uniform(-2.0, 2.0, p.n)
    one["q"] = [next(metric_jets(pot, x)).inverse_form(a)[0] for x in pts]
    for count in (1, 256, 257):
        rows = pts[:count]
        assert np.concatenate([b.inverse_form(a) for b in metric_jets(pot, rows)]).tolist() == one["q"][:count]
        assert scalar_curvatures(pot, rows).tolist() == one["s"][:count]
        assert scalar_curvatures_fd(pot, rows).tolist() == one["fd"][:count]
        assert sampling.interior_distance(p, rows).tolist() == one["distance"][:count]


# ---------------------------------------------------------------------------
# G^{-1} is built on first read; q = a^T G^{-1} a comes from the Cholesky factor


def test_the_inverse_is_built_on_first_read():
    pots = [SymplecticPotential.guillemin(catalog(name, *params)) for name, params in CATALOG_DEFAULTS]
    for pot in pots + [perturbed_simplex(), HIRZEBRUCH_IMAGE]:
        pts = random_interior_points(pot.polytope, 300, margin=0.05 * sampling.inradius(pot.polytope), rng=2)
        for deriv in (False, True):
            for b in metric_jets(pot, pts, with_derivatives=deriv):
                assert "G_inv" not in vars(b)
                assert np.array_equal(b.chol, np.linalg.cholesky(b.G))
                assert np.array_equal(b.det_G, np.prod(np.diagonal(b.chol, axis1=1, axis2=2), axis=1) ** 2)
                # the inverse, one Newton refinement step, then symmetrised
                want = np.linalg.inv(b.G)
                want = want @ (2.0 * np.eye(pot.n) - b.G @ want)
                want = 0.5 * (want + want.swapaxes(1, 2))
                assert np.array_equal(b.G_inv, want)
                assert b.G_inv is b.G_inv


def test_g_is_exactly_symmetric_and_its_determinant_built_on_first_read():
    # u_i u_j = u_j u_i and h's partials gather by sorted index, so G needs no symmetrisation
    h = Polynomial(3, {(3, 1, 1): F(1, 20), (1, 2, 2): F(1, 30)})
    pots = [SymplecticPotential.guillemin(catalog(name, *params)) for name, params in CATALOG_DEFAULTS]
    for pot in pots + [perturbed_simplex(), SymplecticPotential(catalog("cube", 3), h), HIRZEBRUCH_IMAGE]:
        pts = random_interior_points(pot.polytope, 300, margin=1e-3 * sampling.inradius(pot.polytope), rng=7)
        for deriv in (False, True):
            for b in metric_jets(pot, pts, with_derivatives=deriv):
                assert np.array_equal(b.G, b.G.swapaxes(1, 2))
                assert "det_G" not in vars(b)


def exact_q(p, a, x):
    """a^T G^{-1} a in exact arithmetic at the float point x, for h = 0."""
    x, a = [F(c) for c in x], [F(c) for c in a]
    lam = [f.value(x) for f in p.forms]
    g = [[sum(F(f.u[i] * f.u[j]) / (2 * l) for f, l in zip(p.forms, lam)) for j in range(p.n)] for i in range(p.n)]
    gi = exact_inverse(g)
    return sum(a[i] * gi[i][j] * a[j] for i in range(p.n) for j in range(p.n))


def test_q_from_the_cholesky_factor_is_as_accurate_as_from_the_inverse():
    # a lattice image of hirzebruch(1) close to its facets: cond(G) reaches about 1e8
    p = UnimodularMap(((-5, 12), (-8, 19)), (0, 0)).apply_polytope(catalog("hirzebruch", 1))
    pot = SymplecticPotential.guillemin(p)
    pts = random_interior_points(p, 400, margin=1e-4 * sampling.inradius(p), rng=0)
    batches = list(metric_jets(pot, pts))
    assert max(np.linalg.cond(b.G).max() for b in batches) > 1e7
    for a in (np.array([1.0, -0.5]), np.array([0.3, 0.7]), np.array([-2.0, 1.25])):
        want = np.array([float(exact_q(p, a, x)) for x in pts])
        from_l = np.concatenate([b.inverse_form(a) for b in batches])
        from_inverse = np.concatenate([np.einsum("i,pij,j->p", a, b.G_inv, a) for b in batches])
        err_l, err_inverse = (np.max(np.abs(q - want) / want) for q in (from_l, from_inverse))
        assert err_l <= 2.0 * err_inverse, (a, err_l, err_inverse)


def forward_substitution_q(chol, a):
    """q = |y|^2 with L y = a at every row, by a loop of its own: the
    arithmetic of `inverse_form` for one vector a."""
    y = np.empty(chol.shape[:2])
    for i, low in enumerate(chol.swapaxes(0, 1)):
        y[:, i] = (a[i] - np.einsum("pk,pk->p", low[:, :i], y[:, :i])) / low[:, i]
    return np.einsum("pi,pi->p", y, y)


def test_the_guillemin_path_inverts_no_metric(monkeypatch):
    # Abreu's Q = W G^-1 W^T and the identity residual's q come from the
    # Cholesky factor, as the verdict's q does
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.inv called")

    rng = np.random.default_rng(3)
    for name, params in CATALOG_DEFAULTS:
        fp = fano_normalize(catalog(name, *params))
        a = soliton_vector(fp).a
        for p in (catalog(name, *params), fp.base):
            pot = SymplecticPotential.guillemin(p)
            pts = interior_grid(p, 7)
            with monkeypatch.context() as patch:
                patch.setattr(np.linalg, "inv", refuse)
                s = scalar_curvatures(pot, pts)
                _, fit = extremality_check(pot, grid=7)
                soliton_identity_residual(pot, a, pts)
            assert np.all(np.isfinite(s)) and fit.n_samples == len(pts), (name, p)
            for b in metric_jets(pot, pts):
                assert np.array_equal(b.inverse_form(a), forward_substitution_q(b.chol, a))
                rows = rng.uniform(-2.0, 2.0, (len(b.x), 3, pot.n))
                law = rows @ b.G_inv @ rows.swapaxes(1, 2)
                assert np.max(np.abs(b.inverse_form(rows) - law)) <= 1e-12 * np.max(np.abs(law)), (name, p)


# ---------------------------------------------------------------------------
# unimodular covariance: x' = A (x - t) maps G^{-1} to A G^{-1} A^T and
# leaves s unchanged

COVARIANCE_POLYTOPES = [("hirzebruch", (1,)), ("blowup_cp2", (1,)), ("blowup_cp2", (3,)),
                        ("simplex", (3,)), ("cube", (3,))]


@st.composite
def lattice_images(draw):
    name, params = draw(st.sampled_from(COVARIANCE_POLYTOPES))
    p = catalog(name, *params)
    um = draw(lattice_maps(p.n))
    count = len(p.vertices)
    weights = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=count, max_size=count)))
    x = weights @ p.vertex_floats / weights.sum()   # strictly interior
    return p, um, x


@settings(max_examples=40, deadline=None)
@given(lattice_images())
# cond(G) is about 2.8e4 at the image point: the one-point jet loop was off
# by 3.6e-8 relative there, the closed form is not
@example(
    case=(
        catalog("simplex", 3),
        UnimodularMap(((-5, 5, -2), (0, -1, 0), (-2, 2, -1)), (F(0),) * 3),
        np.array([16, 16, 1]) / 49,
    )
)
# cond(G) is about 2.75e6 at the first image point: Abreu's Q read from
# G_inv put s 2.2e-8 relative off there, Q from the Cholesky factor 5.6e-12
@example(
    case=(catalog("hirzebruch", 1), UnimodularMap(((-5, 12), (-8, 19)), (F(0), F(0))), np.array([1 / 17, 33 / 34]))
)
@example(
    case=(catalog("hirzebruch", 1), UnimodularMap(((-5, -12), (-12, -29)), (F(0), F(0))), np.array([3 / 19, 17 / 19]))
)
def test_unimodular_covariance(case):
    p, um, x = case
    pot = SymplecticPotential.guillemin(p)
    pot2 = SymplecticPotential.guillemin(um.apply_polytope(p))
    a = np.array(um.matrix, dtype=float)
    pts = np.array([x, 0.5 * (x + p.vertex_floats.mean(axis=0))])
    images = um.apply_point_float(pts)
    law = a @ batch(pot, pts, "G_inv") @ a.T
    got = batch(pot2, images, "G_inv")
    assert np.max(np.abs(got - law)) <= 1e-10 * max(1.0, np.max(np.abs(law)))
    s, s2 = scalar_curvatures(pot, pts), scalar_curvatures(pot2, images)
    assert np.max(np.abs(s2 - s)) <= 1e-8 * max(1.0, np.max(np.abs(s)))
    assert abs(scalar_curvature(pot2, images[0]) - s[0]) <= 1e-8 * max(1.0, abs(s[0]))
