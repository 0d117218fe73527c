"""Hypothesis strategies shared by the property tests."""

from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from torickit import UnimodularMap


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
