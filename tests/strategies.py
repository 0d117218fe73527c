"""Hypothesis strategies shared by the property tests."""

from fractions import Fraction
from math import gcd

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from torickit import CATALOG_DEFAULTS, AffineForm, DelzantPolytope, ToricError, UnimodularMap, catalog


# A square pyramid, whose apex lies on four facets, and the octahedron
# |x| + |y| + |z| <= 1 (volume 4/3), each of whose six vertices lies on four
# of its eight facets.  With -z >= -1, tight at the apex alone, the pyramid
# has a form that cuts out no facet.
SQUARE_PYRAMID = [AffineForm(u, Fraction(b)) for u, b in [((1, 0, -1), 0), ((0, 1, -1), 0), ((-1, 0, -1), -2),
                                                          ((0, -1, -1), -2), ((0, 0, 1), 0)]]
OCTAHEDRON = [AffineForm((a, b, c), Fraction(-1)) for a in (-1, 1) for b in (-1, 1) for c in (-1, 1)]
CAPPED_PYRAMID = SQUARE_PYRAMID + [AffineForm((0, 0, -1), Fraction(-1))]
# The octahedron times [0, 1]: the edge {v} x [0, 1] lies on four facets,
# two of which cut that same edge out of the square e x [0, 1].
OCTAHEDRAL_PRISM = [AffineForm((*f.u, 0), f.b) for f in OCTAHEDRON] + [
    AffineForm((0, 0, 0, 1), Fraction(0)), AffineForm((0, 0, 0, -1), Fraction(-1))]


@st.composite
def lattice_maps(draw, n):
    """x -> A (x - t): A a product of row shears, rows permuted and signed;
    t a small rational shift."""
    a = np.eye(n, dtype=int)
    for _ in range(draw(st.integers(0, 4)) if n > 1 else 0):     # row shears
        i, j = draw(st.permutations(range(n)))[:2]
        a[i] += draw(st.integers(-2, 2)) * a[j]
    signs = draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))
    a = a[draw(st.permutations(range(n)))] * np.array(signs)[:, None]
    shift = tuple(Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 4))) for _ in range(n))
    return UnimodularMap(tuple(map(tuple, a.tolist())), shift)


@st.composite
def catalog_images(draw):
    """A catalog entry or its image under a `lattice_maps` draw."""
    name, params = draw(st.sampled_from(CATALOG_DEFAULTS))
    p = catalog(name, *params)
    return draw(lattice_maps(p.n)).apply_polytope(p) if draw(st.booleans()) else p


@st.composite
def halfspace_systems(draw):
    """(forms, n): n in 1..4, n to n+4 forms with primitive normals of
    entries in [-2, 2] and small rational offsets.  Half of the systems
    hold the normals of a simplex, which makes them bounded or empty."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(n, n + 4))
    simplex = [tuple(int(i == j) for j in range(n)) for i in range(n)] + [(-1,) * n]
    normals = simplex[:m] if draw(st.booleans()) else []
    normal = st.tuples(*[st.integers(-2, 2)] * n).filter(lambda u: gcd(*u) == 1)
    normals += draw(st.lists(normal, min_size=m - len(normals), max_size=m - len(normals)))
    offset = st.builds(Fraction, st.integers(-3, 1), st.integers(1, 3))
    return [AffineForm(u, draw(offset)) for u in draw(st.permutations(normals))], n


@st.composite
def polytopes(draw):
    """A catalog entry or a bounded, full-dimensional `halfspace_systems` draw."""
    if draw(st.booleans()):
        name, params = draw(st.sampled_from(CATALOG_DEFAULTS))
        return catalog(name, *params)
    forms, n = draw(halfspace_systems())
    try:
        return DelzantPolytope.from_forms(forms, n)
    except ToricError:
        assume(False)
