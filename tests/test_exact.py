"""Rational linear algebra against numpy and hand-worked cases."""

import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from torickit import AffineForm, OutOfFloatRange, Polynomial, UnimodularMap, affine_span_rank, exact

from oracles import (
    fraction_affine_rank,
    fraction_det,
    fraction_inverse,
    fraction_kernel_vector,
    fraction_rank,
)


def _known_rank_cases():
    """(A, k): A = B C through inner dimension k, as tuples of plain ints.

    B has an identity block in k of its rows and C in k of its columns,
    so both have rank k and so has A; shapes up to 4 x 4, square and
    rectangular, most of them rank-deficient.
    """
    rng = np.random.default_rng(5)
    cases = []
    for nrows in range(1, 5):
        for ncols in range(1, 5):
            for k in range(min(nrows, ncols) + 1):
                b = np.vstack([np.eye(k, dtype=int), rng.integers(-3, 4, (nrows - k, k))])
                c = np.hstack([np.eye(k, dtype=int), rng.integers(-3, 4, (k, ncols - k))])
                a = b[rng.permutation(nrows)] @ c[:, rng.permutation(ncols)]
                cases.append((tuple(tuple(int(v) for v in row) for row in a), k))
    return cases


KNOWN_RANK = _known_rank_cases()
SINGULAR = [a for a, k in KNOWN_RANK if len(a) == len(a[0]) > k]


def test_frac_parses_strings_and_ints():
    assert exact.frac("3/4") == Fraction(3, 4)
    assert exact.frac(-2) == Fraction(-2)
    assert exact.frac(Fraction(1, 3)) == Fraction(1, 3)


def test_frac_rejects_floats():
    for value in (0.5, 1.0, True, np.float64(2.0)):
        with pytest.raises(TypeError):
            exact.frac(value)


def test_integer_takes_exact_integers_only():
    assert [exact.integer(v) for v in (3, np.int64(3), Fraction(6, 2))] == [3, 3, 3]
    for value in (1.7, 1.0, True, np.bool_(True), Fraction(1, 2), "3"):
        with pytest.raises(TypeError):
            exact.integer(value)


# The integer slots of every lattice object: a normal entry, a matrix entry, an exponent.
LATTICE_CONSTRUCTORS = {
    "AffineForm": lambda c: AffineForm((c, 0), 0),
    "UnimodularMap": lambda c: UnimodularMap(((c, 0), (0, 1)), (0, 0)),
    "Polynomial": lambda c: Polynomial(2, {(c, 0): 1}),
}


@pytest.mark.parametrize("build", LATTICE_CONSTRUCTORS.values(), ids=LATTICE_CONSTRUCTORS.keys())
def test_lattice_objects_are_never_truncated(build):
    for value in (1.7, 1.0, True):
        with pytest.raises(TypeError):
            build(value)
    assert build(1) == build(np.int64(1)) == build(Fraction(1))


def test_floats_refuse_values_beyond_double_range():
    assert exact.floats([(Fraction(1, 4), 2)]).tolist() == [[0.25, 2.0]]
    for value in (Fraction(10**400), Fraction(-(10**400), 3), 10**400):
        with pytest.raises(OutOfFloatRange):
            exact.floats([value])


def test_frac_str_roundtrip():
    assert exact.frac_str(Fraction(3, 4)) == "3/4"
    assert exact.frac_str(Fraction(-5)) == "-5"
    assert exact.frac(exact.frac_str(Fraction(22, 7))) == Fraction(22, 7)


def test_det_hand_cases():
    assert exact.det([[Fraction(2)]]) == 2
    assert exact.det([[1, 2], [3, 4]]) == -2
    assert exact.det([[0, 1, 0], [0, 0, 1], [1, 0, 0]]) == 1


def test_det_and_rank_match_numpy_on_random_integer_matrices():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(1, 5))
        m = rng.integers(-4, 5, size=(n, n))
        d = exact.det([[Fraction(int(v)) for v in row] for row in m])
        assert d == round(float(np.linalg.det(m.astype(float))))
        r = exact.rank([[Fraction(int(v)) for v in row] for row in m])
        assert r == np.linalg.matrix_rank(m.astype(float))
    for a, k in KNOWN_RANK:
        assert exact.rank(a) == k
    for a in SINGULAR:
        assert exact.det(a) == 0


def test_inverse_roundtrip():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        m = rng.integers(-3, 4, size=(n, n))
        rows = [[Fraction(int(v)) for v in row] for row in m]
        if exact.det(rows) == 0:
            continue
        inv = exact.inverse(rows)
        prod = [
            [sum(rows[i][k] * inv[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        assert prod == [
            [Fraction(int(i == j)) for j in range(n)] for i in range(n)
        ]
    for a in SINGULAR:
        with pytest.raises(ZeroDivisionError):
            exact.inverse(a)


@pytest.mark.parametrize("rows", [[[1, 2]], [[1, 0], [0, 1], [1, 1]], [[1, 0], [0, 1, 2]]],
                         ids=["1x2", "3x2", "ragged"])
def test_non_square_matrices_are_refused(rows):
    for square_only in (exact.det, exact.inverse):
        with pytest.raises(ValueError, match="not a square matrix"):
            square_only(rows)


def test_kernel_vector():
    # rank-1 system in 2 unknowns: kernel is the perpendicular direction
    v = exact.kernel_vector([[Fraction(1), Fraction(2)]], 2)
    assert v is not None
    assert v[0] * 1 + v[1] * 2 == 0
    assert any(c != 0 for c in v)
    assert exact.kernel_vector([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]], 2) is None
    for a, k in KNOWN_RANK:
        v = exact.kernel_vector(a, len(a[0]))
        if k == len(a[0]):
            assert v is None
        else:
            assert any(v) and all(sum(x * y for x, y in zip(row, v)) == 0 for row in a)


def test_affine_rank():
    pts = [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(1)), (Fraction(2), Fraction(2))]
    assert exact.affine_rank(pts) == 1
    pts.append((Fraction(0), Fraction(1)))
    assert exact.affine_rank(pts) == 2
    assert exact.affine_rank([(Fraction(5), Fraction(7))]) == 0


@pytest.mark.parametrize("call", [
    lambda: affine_span_rank([(0, 0), (1,)]),
    lambda: affine_span_rank([(0,), (1, 0)]),
    lambda: exact.rank([[1, 2], [3]]),
    lambda: exact.kernel_vector([[1, 2], [3]], 2),
])
def test_kernel_refuses_ragged_rows(call):
    with pytest.raises(ValueError, match=r"^(rows|points) of unequal lengths \[(2, 1|1, 2)\]$"):
        call()


def test_primitive():
    assert exact.primitive((Fraction(2), Fraction(4))) == (1, 2)
    assert exact.primitive((Fraction(-3), Fraction(6))) == (-1, 2)
    # rational input scales to the primitive integer direction
    assert exact.primitive((Fraction(1, 2), Fraction(1, 3))) == (3, 2)
    assert exact.primitive((Fraction(0), Fraction(-5))) == (0, -1)


# Each exact entry point, called on a matrix or vector with `x` in one entry.
KERNEL_CALLS = {
    "rank": lambda x: exact.rank([[x, 0], [0, 1]]),
    "det": lambda x: exact.det([[x, 0], [0, 1]]),
    "inverse": lambda x: exact.inverse([[x, 0], [0, 1]]),
    "kernel_vector": lambda x: exact.kernel_vector([[x, 1]], 2),
    "primitive": lambda x: exact.primitive((x, 1)),
    "affine_span_rank": lambda x: affine_span_rank([(x, 0), (1, 0), (0, 1)]),
}


@pytest.mark.parametrize("call", KERNEL_CALLS.values(), ids=KERNEL_CALLS.keys())
def test_kernel_refuses_inexact_entries(call):
    for value in (0.5, np.float64(2.0), True, np.bool_(False)):
        with pytest.raises(TypeError, match=f"not an exact rational: {re.escape(repr(value))}"):
            call(value)
    results = [call(value) for value in (2, np.int64(2), Fraction(2), Fraction(4, 2))]
    assert all(r == results[0] for r in results)
    assert call(Fraction(1, 2)) is not None


# Entries are mostly small integers and zeros, so pivots often need a row
# swap; a product B C through a narrow inner dimension is rank-deficient.
ENTRY = st.one_of(
    st.just(0), st.integers(-3, 3), st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
)


@st.composite
def rational_matrices(draw):
    nrows, ncols = draw(st.integers(0, 5)), draw(st.integers(1, 5))

    def matrix(r, c):
        return draw(st.lists(st.lists(ENTRY, min_size=c, max_size=c), min_size=r, max_size=r))

    if draw(st.booleans()):
        rows = matrix(nrows, ncols)
    else:
        k = draw(st.integers(0, min(nrows, ncols)))
        b, c = matrix(nrows, k), matrix(k, ncols)
        rows = [[sum((x * c[i][j] for i, x in enumerate(row)), Fraction(0)) for j in range(ncols)]
                for row in b]
    zero = draw(st.sets(st.integers(0, ncols - 1), max_size=ncols))
    return [[0 if j in zero else x for j, x in enumerate(row)] for row in rows]


def _inverse_or_none(rows):
    try:
        return exact.inverse(rows)
    except ZeroDivisionError:
        return None


@settings(max_examples=400, deadline=None)
@given(rational_matrices())
@example([])
@example([[Fraction(-2, 3)]])
@example([[0, 1, 2], [3, 0, 1], [1, 1, 0]])
def test_kernel_matches_fraction_elimination(rows):
    ncols = len(rows[0]) if rows else 1
    assert exact.rank(rows) == fraction_rank(rows)
    assert exact.kernel_vector(rows, ncols) == fraction_kernel_vector(rows, ncols)
    assert exact.affine_rank(rows) == fraction_affine_rank(rows)
    # the leading square block
    square = [row[: len(rows)] for row in rows[:ncols]]
    assert exact.det(square) == fraction_det(square)
    assert _inverse_or_none(square) == fraction_inverse(square)
    # the integer determinant of the numerators, as the Delzant check and the volume use it
    integral = [[Fraction(x).numerator for x in row] for row in square]
    d = exact._det(integral)
    assert type(d) is int and d == fraction_det(integral)
