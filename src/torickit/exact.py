"""Exact numbers at the package boundary, and a small linear algebra kernel
over fractions.Fraction.

Every value that enters the exact layer passes `integer` or `frac`, which
refuse bools and floats instead of truncating them, and every exact value
that leaves it for numpy passes `floats`, which refuses one beyond the
range of a double.  `document` and `parsing` are the shared front of the
JSON parsers.
"""

from __future__ import annotations

import json
import operator
from contextlib import contextmanager
from fractions import Fraction
from math import gcd

import numpy as np

from .errors import OutOfFloatRange, ParseError


def integer(value) -> int:
    """An int, a numpy integer or an integral Fraction as an int.

    TypeError for anything else, bools and floats included.
    """
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return value.numerator
    elif not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"not an exact integer: {value!r}")


def frac(value) -> Fraction:
    """A Fraction (returned as is), an exact integer (see `integer`) or a
    string like '3/4' or '1e-3' as a Fraction; never a bool or a float."""
    if type(value) is int:
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        return Fraction(value)
    try:
        return Fraction(integer(value))
    except TypeError:
        raise TypeError(f"not an exact rational: {value!r}") from None


def floats(values) -> np.ndarray:
    """Exact values, or nested sequences of them, as a float array.

    OutOfFloatRange when one lies beyond the range of a double.
    """
    try:
        return np.array(values, dtype=float)
    except OverflowError as e:
        raise OutOfFloatRange(f"an exact value lies beyond the float range ({e})") from None


def document(doc, what: str) -> dict:
    """A JSON object, given as text or already parsed; ParseError otherwise."""
    if isinstance(doc, (str, bytes)):
        try:
            doc = json.loads(doc)
        except ValueError as e:
            raise ParseError(f"invalid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ParseError(f"{what} document must be an object")
    return doc


@contextmanager
def parsing(where: str):
    """Report a value that a constructor refuses inside the block as a
    ParseError located at `where`."""
    try:
        yield
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as e:
        raise ParseError(f"{where}: {e}") from e


def frac_str(value: Fraction) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _eliminate(rows, ncols: int):
    """Exact Gauss-Jordan elimination of a copy of `rows`.

    Pivots are sought only in the first `ncols` columns; any further
    columns ride along.  Returns the reduced rows, the pivot columns and
    the product of the pivots signed by the row swaps.
    """
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    product = Fraction(1)
    for c in range(ncols):
        r = len(pivots)
        if r == len(m):
            break
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        if p != r:
            m[r], m[p] = m[p], m[r]
            product = -product
        # Columns left of c are zero in row r, so only its tail is touched.
        # Unit pivots and zero entries, the common case for lattice
        # normals, cost no Fraction arithmetic.
        pivot = m[r][c]
        if pivot != 1:
            product *= pivot
            m[r][c:] = [x / pivot if x else x for x in m[r][c:]]
        tail = m[r][c:]
        for i, row in enumerate(m):
            f = row[c]
            if f and i != r:
                row[c:] = [a - f * b if b else a for a, b in zip(row[c:], tail)]
        pivots.append(c)
    return m, pivots, product


def _free_vector(reduced, pivots, ncols: int):
    """The kernel vector of reduced rows that is 1 at the first free column."""
    j = next((c for c in range(ncols) if c not in pivots), None)
    if j is None:
        return None
    vec = [Fraction(0)] * ncols
    vec[j] = Fraction(1)
    for row, c in zip(reduced, pivots):
        vec[c] = -row[j]
    return tuple(vec)


def _order(rows) -> int:
    """The order n of an n x n matrix; ValueError for any other shape."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError(f"not a square matrix: {n} rows of lengths {[len(row) for row in rows]}")
    return n


def rank(rows) -> int:
    """Rank by fraction-exact Gaussian elimination."""
    return len(_eliminate(rows, len(rows[0]))[1]) if rows else 0


def det(rows) -> Fraction:
    n = _order(rows)
    _, pivots, product = _eliminate(rows, n)
    return product if len(pivots) == n else Fraction(0)


def solve(rows, rhs):
    """Solve a square exact system; None when singular."""
    n = _order(rows)
    reduced, pivots, _ = _eliminate([list(row) + [b] for row, b in zip(rows, rhs)], n)
    return tuple(row[n] for row in reduced) if len(pivots) == n else None


def inverse(rows):
    """Exact inverse of a nonsingular square matrix."""
    n = _order(rows)
    augmented = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    reduced, pivots, _ = _eliminate(augmented, n)
    if len(pivots) < n:
        raise ZeroDivisionError("singular matrix")
    return tuple(tuple(row[n:]) for row in reduced)


def kernel_vector(rows, ncols: int):
    """One nonzero kernel vector of a rank-deficient system, or None.

    For a (ncols-1)-rank matrix this spans the kernel.
    """
    return _free_vector(*_eliminate(rows, ncols)[:2], ncols)


def affine_rank(points) -> int:
    """Dimension of the affine span of exact points."""
    pts = [tuple(Fraction(x) for x in p) for p in points]
    if len(pts) <= 1:
        return 0
    base = pts[0]
    return rank([[x - y for x, y in zip(p, base)] for p in pts[1:]])


def primitive(vector):
    """Primitive integer vector along an exact rational direction."""
    vec = [Fraction(x) for x in vector]
    if all(x == 0 for x in vec):
        raise ValueError("zero vector has no primitive direction")
    scale = 1
    for x in vec:
        scale = scale * x.denominator // gcd(scale, x.denominator)
    ints = [int(x * scale) for x in vec]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    return tuple(x // g for x in ints)
