"""Exact polynomial arithmetic, calculus, and serialization."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torickit import Polynomial, polynomial_from_json

F = Fraction


def test_arithmetic_matches_pointwise_evaluation():
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    p = x * x + y * F(3) - Polynomial.constant(2, F(1, 2))
    q = x * y + Polynomial.constant(2, 2)
    rng = np.random.default_rng(5)
    for _ in range(30):
        pt = rng.uniform(-2, 2, size=2)
        assert np.isclose((p + q)(pt), p(pt) + q(pt))
        assert np.isclose((p - q)(pt), p(pt) - q(pt))
        assert np.isclose((p * q)(pt), p(pt) * q(pt))
        assert np.isclose((p ** 3)(pt), p(pt) ** 3)


def test_eval_exact():
    p = Polynomial(2, {(2, 1): F(3, 2), (0, 0): F(-1, 7)})
    assert p.eval_exact((F(2), F(5))) == F(3, 2) * 4 * 5 - F(1, 7)


def test_diff():
    # d/dx (3/2) x^2 y = 3 x y, then d/dy -> 3 x
    p = Polynomial(2, {(2, 1): F(3, 2)})
    assert p.diff(0) == Polynomial(2, {(1, 1): F(3)})
    assert p.diff(0).diff(1) == Polynomial(2, {(1, 0): F(3)})
    assert p.derivative((0, 1)) == p.diff(0).diff(1)
    assert Polynomial.constant(2, 5).diff(0).is_zero


def power_rule(p, i):
    """d/dx_i of p term by term, as a coefficient dict in p's term order."""
    out = {}
    for e, c in p.coeffs.items():
        if e[i]:
            out[tuple(x - (j == i) for j, x in enumerate(e))] = c * e[i]
    return out


@st.composite
def polynomials_and_indices(draw):
    """A polynomial in 1..3 variables of up to 8 terms and a list of up to 6
    variable indices."""
    nvars = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 4)] * nvars)
    coeff = st.builds(F, st.integers(-9, 9), st.integers(1, 5))
    p = Polynomial(nvars, draw(st.dictionaries(exps, coeff, max_size=8)))
    return p, draw(st.lists(st.integers(0, nvars - 1), max_size=6))


@settings(max_examples=200, deadline=None)
@given(polynomials_and_indices())
def test_derivative_matches_chained_diff(case):
    """One pass equals one variable at a time, by the power rule, term for
    term in the same order, so float evaluation sums the same terms."""
    p, indices = case
    want = p
    for i in indices:
        assert list(want.diff(i).coeffs.items()) == list(power_rule(want, i).items())
        want = want.diff(i)
    got = p.derivative(indices)
    assert list(got.coeffs.items()) == list(want.coeffs.items())
    assert got.nvars == p.nvars and all(type(c) is F for c in got.coeffs.values())


@pytest.mark.parametrize("index", [-1, 2, 5])
def test_diff_refuses_an_index_outside_the_variables(index):
    p = Polynomial(2, {(2, 1): F(1)})
    message = rf"^variable index {index} outside 0\.\.1$"
    with pytest.raises(ValueError, match=message):
        p.diff(index)
    with pytest.raises(ValueError, match=message):
        p.derivative((0, index, 1))


def test_derivative_refuses_a_non_integer_index():
    for index in (1.0, True):
        with pytest.raises(TypeError):
            Polynomial(2, {(2, 1): F(1)}).derivative((index,))


def test_degree_and_zero():
    assert Polynomial.zero(3).is_zero
    assert Polynomial.zero(3).degree == 0
    assert Polynomial(2, {(2, 3): F(1)}).degree == 5
    # coefficients summing to zero collapse
    p = Polynomial(1, {(1,): F(1)}) - Polynomial(1, {(1,): F(1)})
    assert p.is_zero


def test_compose_affine_exact():
    p = Polynomial(2, {(2, 0): F(1), (1, 1): F(-2), (0, 0): F(3)})
    m = ((1, 2), (0, 1))
    shift = (F(1, 3), F(-1))
    q = p.compose_affine(m, shift)
    rng = np.random.default_rng(9)
    for _ in range(20):
        xi = F(int(rng.integers(-5, 6)), int(rng.integers(1, 7)))
        yi = F(int(rng.integers(-5, 6)), int(rng.integers(1, 7)))
        mapped = (
            m[0][0] * xi + m[0][1] * yi + shift[0],
            m[1][0] * xi + m[1][1] * yi + shift[1],
        )
        assert q.eval_exact((xi, yi)) == p.eval_exact(mapped)


def test_bad_exponents_rejected():
    with pytest.raises(ValueError):
        Polynomial(2, {(1,): F(1)})
    with pytest.raises(ValueError):
        Polynomial(2, {(-1, 0): F(1)})


def test_json_roundtrip():
    p = Polynomial(2, {(2, 2): F(1, 100), (0, 1): F(-3)})
    q = polynomial_from_json(p.to_json(), 2)
    assert q == p
    assert polynomial_from_json(None, 3).is_zero
