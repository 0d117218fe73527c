"""Exact numbers at the package boundary, and a small fraction-free linear
algebra kernel over the integers.

Every value that enters the exact layer passes `integer` or `frac`, which
refuse bools and floats instead of truncating them, and every exact value
that leaves it for numpy passes `floats`, which refuses one beyond the
range of a double.  `document` and `parsing` are the shared front of the
JSON parsers.  `_eliminate`, the one elimination kernel, takes integer
rows: the public wrappers scale theirs once, and integer callers pass theirs.
"""

from __future__ import annotations

import json
import operator
from contextlib import contextmanager
from fractions import Fraction
from math import gcd, lcm

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
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ZeroDivisionError(f"{value}: division by zero") from None
    value = _rational(value)
    return value if isinstance(value, Fraction) else Fraction(value)


def _rational(value):
    """A Fraction as is, or an exact integer (see `integer`) as an int;
    TypeError for anything else."""
    if isinstance(value, Fraction):
        return value
    try:
        return integer(value)
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


def _integer_rows(rows):
    """Rows scaled to integers by the lcm of their denominators; the product
    of the scales.  TypeError for an entry that is not exact (see `_rational`)."""
    out, scale = [], 1
    for row in rows:
        if all(type(x) is int for x in row):
            out.append(list(row))
            continue
        row = [_rational(x) for x in row]
        s = lcm(*[x.denominator for x in row])
        out.append([x.numerator * (s // x.denominator) for x in row])
        scale *= s
    return out, scale


def _eliminate(rows, ncols: int):
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968) of a copy of
    the integer `rows`.

    Pivots are sought only in the first `ncols` columns; any further
    columns ride along.  Returns the integer rows, the pivot columns and
    the common denominator d: the rows over d are the reduced row echelon
    form.  A row swap negates one of the two rows, so d of a nonsingular
    square matrix is its determinant.
    """
    m = [list(row) for row in rows]
    pivots, prev = [], 1
    for c in range(ncols):
        r = len(pivots)
        if r == len(m):
            break
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        if p != r:
            m[r], m[p] = [-x for x in m[p]], m[r]
        pivot_row, pivot = m[r], m[r][c]
        # Sylvester's identity: every 2x2 cross term is divisible by the
        # previous pivot, so the rows stay integral.
        for row in m[:r] + m[r + 1:]:
            f = row[c]
            if f:
                row[:] = [(pivot * a - f * b) // prev for a, b in zip(row, pivot_row)]
            elif pivot != prev:
                row[:] = [pivot * a // prev for a in row]
        prev = pivot
        pivots.append(c)
    return m, pivots, prev


def _integer_kernel(reduced, pivots, d, ncols: int):
    """d times the kernel vector of `_eliminate`'s rows that is 1 at the
    first free column, as ints; None when every column has a pivot."""
    j = next((c for c in range(ncols) if c not in pivots), None)
    if j is None:
        return None
    vec = [0] * ncols
    vec[j] = d
    for row, c in zip(reduced, pivots):
        vec[c] = -row[j]
    return vec


def _order(rows) -> int:
    """The order n of an n x n matrix; ValueError for any other shape."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError(f"not a square matrix: {n} rows of lengths {[len(row) for row in rows]}")
    return n


def rank(rows) -> int:
    """Rank by fraction-free Gaussian elimination."""
    return len(_eliminate(_integer_rows(rows)[0], len(rows[0]))[1]) if rows else 0


def _det(rows) -> int:
    """The determinant of a square integer matrix."""
    _, pivots, d = _eliminate(rows, len(rows))
    return d if len(pivots) == len(rows) else 0


def det(rows) -> Fraction:
    _order(rows)
    ints, scale = _integer_rows(rows)
    return Fraction(_det(ints), scale)


def inverse(rows):
    """Exact inverse of a nonsingular square matrix."""
    n = _order(rows)
    augmented = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    reduced, pivots, d = _eliminate(_integer_rows(augmented)[0], n)
    if len(pivots) < n:
        raise ZeroDivisionError("singular matrix")
    return tuple(tuple(Fraction(x, d) for x in row[n:]) for row in reduced)


def kernel_vector(rows, ncols: int):
    """One nonzero kernel vector of a rank-deficient system, or None; for
    a matrix of rank ncols-1 it spans the kernel."""
    reduced, pivots, d = _eliminate(_integer_rows(rows)[0], ncols)
    vec = _integer_kernel(reduced, pivots, d, ncols)
    return None if vec is None else tuple(Fraction(x, d) for x in vec)


def affine_rank(points) -> int:
    """Dimension of the affine span of exact points: rank of the rows (1, p) less one."""
    rows = [(1, *p) for p in points]
    return rank(rows) - 1 if rows else 0


def primitive(vector):
    """Primitive integer vector along an exact rational direction."""
    ints = _integer_rows([vector])[0][0]
    g = gcd(*ints)
    if not g:
        raise ValueError("zero vector has no primitive direction")
    return tuple(x // g for x in ints)
