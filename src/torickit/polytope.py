"""Exact Delzant polytope combinatorics.

A polytope is stored as an intersection of half spaces
``lambda_k(x) = <u_k, x> - b_k >= 0`` with primitive integer inward
normals ``u_k`` and rational offsets ``b_k``.  All combinatorial work
(vertex enumeration, incidence, edge generators, unimodular
normalisation) is done in exact rational arithmetic; floats never enter
the decisions made here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul
from typing import Sequence

import numpy as np

from . import exact
from .errors import (
    BadParams,
    Empty,
    LowerDimensional,
    NotDelzantVertex,
    ParseError,
    RedundantForm,
    Unbounded,
    UnknownName,
)


@dataclass(frozen=True)
class AffineForm:
    """lambda(x) = <u, x> - b with primitive integer normal u."""

    u: tuple[int, ...]
    b: Fraction

    def __post_init__(self):
        u = tuple(exact.integer(c) for c in self.u)
        g = gcd(*u)
        if not g:
            raise ValueError("normal must be a nonzero integer vector")
        if g != 1:
            raise ValueError(f"normal {u} is not primitive (gcd {g})")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "b", exact.frac(self.b))

    def value(self, x) -> Fraction:
        return sum(c * exact.frac(xi) for c, xi in zip(self.u, x)) - self.b

    def to_json(self) -> dict:
        return {"u": list(self.u), "b": exact.frac_str(self.b)}


def _form(u: tuple[int, ...], b: Fraction) -> AffineForm:
    """An AffineForm of a primitive int tuple u and a Fraction b, not checked again."""
    f = object.__new__(AffineForm)
    vars(f).update(u=u, b=b)
    return f


@dataclass(frozen=True)
class VertexData:
    """A vertex with its tight forms and primitive edge directions.

    ``edge_generators[i]`` points from the vertex toward its i-th
    adjacent vertex (adjacent vertices sorted lexicographically).
    """

    coordinates: tuple[Fraction, ...]
    incident_facets: frozenset[int]
    edge_generators: tuple[tuple[int, ...], ...]

    def as_float(self) -> np.ndarray:
        return exact.floats(self.coordinates)

    def to_json(self) -> dict:
        return {
            "coordinates": [exact.frac_str(c) for c in self.coordinates],
            "incident_facets": sorted(self.incident_facets),
            "edge_generators": [list(g) for g in self.edge_generators],
        }


def enumerate_vertices(forms: Sequence[AffineForm], n: int) -> tuple[VertexData, ...]:
    """All vertices of the half-space intersection, with incidence and edges.

    A walk over the vertex-edge graph (Balinski 1961) from the first
    feasible basic solution.  At a vertex each n-1 independent tight
    normals fix a primitive direction y; +-y is an edge when no tight form
    decreases along it, and the ratio test finds its other end.  Raises
    Unbounded for a line or an edge without end, Empty when no point
    satisfies every form, LowerDimensional when some form is tight at every
    vertex, so that they lie in its hyperplane.
    """
    return _vertex_data(*_walk(forms, n))


def _vertex_data(rows, incidences, edges) -> tuple[VertexData, ...]:
    """The `VertexData` of a vertex record (see `DelzantPolytope`)."""
    return tuple(VertexData(_point(row), facets, tuple(g for _, g in out))
                 for row, facets, out in zip(rows, incidences, edges))


def _lowest(h) -> tuple[int, ...]:
    """The integer row h over the gcd of its entries, its last entry positive."""
    g = gcd(*h) if h[-1] > 0 else -gcd(*h)
    return tuple(c // g for c in h)


def _point(row) -> tuple[Fraction, ...]:
    return tuple(Fraction(c, row[-1]) for c in row[:-1])


def _keys(rows) -> list[tuple[int, ...]]:
    """Integer keys that order the points X / D of integer rows (X, D), D > 0,
    as tuples of Fractions would: each X scaled to the rows' common denominator."""
    d = lcm(*(row[-1] for row in rows))
    return [tuple(c * (d // row[-1]) for c in row[:-1]) for row in rows]


def _cuts(face, incidences, m):
    """For each of m forms k, the facet of `face` that k cuts out, or None.
    `face` lists vertices and `incidences[i]` the forms tight at vertex i.  A
    cut, the vertices of `face` tight on k, is a facet when it is neither empty
    nor all of `face` and lies strictly in no other cut (Ziegler, 2.1)."""
    cuts = [frozenset(i for i in face if k in incidences[i]) for k in range(m)]
    proper = {c for c in cuts if 0 < len(c) < len(face)}
    return [c if c in proper and not any(c < d for d in proper) else None for c in cuts]


def _walk(forms, n):
    """`enumerate_vertices` as a vertex record: the rows (X, D) sorted by
    `_keys`, the forms tight at each and its edges (see `DelzantPolytope`)."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    for f in forms:
        if len(f.u) != n:
            raise ValueError("form dimension mismatch")
    normals = [f.u for f in forms]
    line = exact.kernel_vector(normals, n)
    if line is not None:
        raise Unbounded(f"recession direction {exact.primitive(line)}")

    # Row k below dotted with a vertex (X, D) is q_k D lambda_k, where
    # b_k = p_k / q_k; dotted with an edge direction (y, 0) it is the slope.
    rows = [(*(f.b.denominator * c for c in f.u), -f.b.numerator) for f in forms]

    # A polyhedron without lines has a vertex when it is nonempty.
    for subset in itertools.combinations(rows, n):
        reduced, pivots, d = exact._eliminate(subset, n)
        if len(pivots) == n:
            v = _lowest(exact._integer_kernel(reduced, pivots, d, n + 1))
            slack = [sum(map(mul, row, v)) for row in rows]
            if min(slack) >= 0:
                break
    else:
        raise Empty("no feasible basic solution")

    slacks = {v: slack}
    edges = {}
    # n-1 tight forms -> the edge (v, y) they cut out, found from its end v;
    # no other vertex lies on their line, so the other end takes it reversed
    solved = {}
    todo = [v]
    while todo:
        v = todo.pop()
        slack = slacks[v]
        tight = [k for k, value in enumerate(slack) if value == 0]
        edges[v] = out = {}
        for subset in itertools.combinations(tight, n - 1):
            if subset in solved:
                w, y = solved[subset]
                out[w] = tuple(-c for c in y)
                continue
            reduced, pivots, d = exact._eliminate([normals[k] for k in subset], n)
            if len(pivots) < n - 1:
                continue
            # the tight normals have rank n, so the sign test below orients y
            y = exact.primitive(exact._integer_kernel(reduced, pivots, d, n))
            slopes = [sum(map(mul, row, y)) for row in rows]
            along = [slopes[k] for k in tight]
            if min(along) < 0:
                if max(along) > 0:
                    continue
                y, slopes = tuple(-c for c in y), [-s for s in slopes]
            # the ratio test: the least step value / -s over the forms that
            # decrease, compared by cross-multiplying; w = (num y + den X) / den D
            num, den = None, 1
            for value, s in zip(slack, slopes):
                if s < 0 and (num is None or value * den < num * -s):
                    num, den = value, -s
            if num is None:
                raise Unbounded(f"recession direction {y}")
            h = [den * c + num * yc for c, yc in zip(v, (*y, 0))]
            g = gcd(*h)
            w = tuple(c // g for c in h)
            out[w] = y
            solved[subset] = v, y
            if w not in slacks:
                slacks[w] = [(den * a + num * s) // g for a, s in zip(slack, slopes)]
                todo.append(w)

    # a form tight at every vertex holds the polytope in its hyperplane (Schrijver 8.2)
    if any(not any(column) for column in zip(*slacks.values())):
        span = exact.rank(list(slacks)) - 1  # the rows (X, D) span as (1, X / D) do
        raise LowerDimensional(f"vertices span affine rank {span} < {n}")
    order = [v for _, v in sorted(zip(_keys(slacks), slacks))]
    index = {v: i for i, v in enumerate(order)}
    return (tuple(order), tuple(frozenset(k for k, value in enumerate(slacks[v]) if value == 0) for v in order),
            tuple(tuple(sorted((index[w], y) for w, y in edges[v].items())) for v in order))


class DelzantPolytope:
    """Half-space presentation together with its exact vertex record.

    Only `from_forms` (the vertex walk) and `_carry` (an exact image of
    another polytope) build one.  The record: `vertex_rows`, each vertex as
    the integer row (X, D) of its point X / D, in lowest terms with D > 0,
    sorted by `_keys`; `_incidences`, the forms tight at each vertex;
    `_edges`, for each vertex the pairs (neighbour index, primitive edge
    generator) in neighbour order.  The vertices span dimension n, as the
    walk refuses a lower-dimensional polytope and an exact image keeps its
    dimension.  `vertices` are built from the record on first read.
    """

    @classmethod
    def from_forms(cls, forms: Sequence[AffineForm], n: int | None = None) -> "DelzantPolytope":
        forms = tuple(forms)
        if not forms:
            raise ValueError("need at least one form")
        if n is None:
            n = len(forms[0].u)
        first = {}
        for k, f in enumerate(forms):
            if first.setdefault(f, k) != k:
                raise RedundantForm(f"form {k} ({f.u}) repeats form {first[f]}")
        rows, incidences, edges = _walk(forms, n)
        # every form must cut out a facet; the walk found the vertices to span
        cuts = _cuts(range(len(rows)), incidences, len(forms))
        if None in cuts:
            k = cuts.index(None)
            raise RedundantForm(f"form {k} ({forms[k].u}) is not a facet")
        return _record(forms, n, rows, incidences, edges)

    @property
    def num_forms(self) -> int:
        return len(self.forms)

    @cached_property
    def normals_float(self) -> np.ndarray:
        return exact.floats([f.u for f in self.forms])

    @cached_property
    def offsets_float(self) -> np.ndarray:
        return exact.floats([f.b for f in self.forms])

    @cached_property
    def normal_lengths(self) -> np.ndarray:
        # integer normals: the squares sum exactly, so this is np.linalg.norm's value
        return np.sqrt(np.einsum("ki,ki->k", self.normals_float, self.normals_float))

    @cached_property
    def vertices(self) -> tuple[VertexData, ...]:
        return _vertex_data(self.vertex_rows, self._incidences, self._edges)

    @cached_property
    def vertex_floats(self) -> np.ndarray:
        try:  # int true division rounds X_i / D as float(Fraction(X_i, D)) does
            return np.array([[c / row[-1] for c in row[:-1]] for row in self.vertex_rows])
        except OverflowError:  # so the exact route overflows too, and names it
            return exact.floats([_point(row) for row in self.vertex_rows])

    def lambdas(self, x: np.ndarray) -> np.ndarray:
        """Float values of every defining form at x (points in rows ok).
        ValueError, naming both lengths, unless x's last axis has n entries."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.n,):
            got = x.shape[-1] if x.ndim else "a scalar"
            raise ValueError(f"a point of this polytope has {self.n} coordinates, got {got}")
        # einsum, not x @ U^T: BLAS rounds one row (gemv) and many (gemm) differently
        return np.einsum("...i,ki->...k", x, self.normals_float) - self.offsets_float

    def vertex_at(self, point) -> VertexData:
        return self.vertices[self._vertex_index(point)]

    def _vertex_index(self, point) -> int:
        """The index of the vertex at `point`, a VertexData or exact coordinates."""
        coords = tuple(exact.frac(c) for c in (point.coordinates if isinstance(point, VertexData) else point))
        (x,), d = exact._integer_rows([coords])
        try:  # the point's row (X, D) is in lowest terms, as the vertex rows are
            return self.vertex_rows.index((*x, d))
        except ValueError:
            raise NotDelzantVertex(f"{tuple(map(str, coords))} is not a vertex") from None

    def to_json(self) -> dict:
        return {"n": self.n, "forms": [f.to_json() for f in self.forms]}

    def __repr__(self):
        return f"DelzantPolytope(n={self.n}, facets={self.num_forms}, vertices={len(self.vertex_rows)})"


@dataclass(frozen=True)
class VertexReport:
    index: int
    coordinates: tuple[Fraction, ...]
    facet_count: int
    edge_count: int
    edge_det: int | None
    ok: bool

    def to_json(self) -> dict:
        return {
            "coordinates": [exact.frac_str(c) for c in self.coordinates],
            "facet_count": self.facet_count,
            "edge_count": self.edge_count,
            "edge_det": self.edge_det,
            "delzant": self.ok,
        }


@dataclass(frozen=True)
class DelzantReport:
    vertex_reports: tuple[VertexReport, ...]
    is_delzant: bool
    affine_span_rank: int

    def failing(self) -> tuple[VertexReport, ...]:
        return tuple(r for r in self.vertex_reports if not r.ok)

    def to_json(self) -> dict:
        return {
            "is_delzant": self.is_delzant,
            "affine_span_rank": self.affine_span_rank,
            "vertices": [r.to_json() for r in self.vertex_reports],
        }


def check_delzant(p: DelzantPolytope) -> DelzantReport:
    """Per-vertex smoothness audit: n facets, n edges, |det| = 1."""
    reports = []
    for i, v in enumerate(p.vertices):
        facets, edges = len(v.incident_facets), len(v.edge_generators)
        d = exact._det(v.edge_generators) if edges == p.n else None
        reports.append(VertexReport(i, v.coordinates, facets, edges, d, facets == p.n and d in (1, -1)))
    return DelzantReport(
        vertex_reports=tuple(reports),
        is_delzant=all(r.ok for r in reports),
        affine_span_rank=p.n,
    )


def affine_span_rank(points) -> int:
    """Exact dimension of the affine span of the given points."""
    return exact.affine_rank(points)


def vertices_affinely_span(p: DelzantPolytope) -> bool:
    """True when the vertices affinely span the whole ambient space: their rows (X, D) have rank n + 1."""
    return exact.rank(p.vertex_rows) - 1 == p.n


@dataclass(frozen=True)
class UnimodularMap:
    """Affine lattice map x -> A (x - t) with |det A| = 1, proved by inverting A over
    the integers, or by a known inverse (`_certified`).  The integral A^{-T} sends
    primitive integer normals to primitive ones, so image forms skip the checks."""

    matrix: tuple[tuple[int, ...], ...]
    translation: tuple[Fraction, ...]
    matrix_inverse: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = tuple(tuple(exact.integer(c) for c in row) for row in self.matrix)
        if len(self.translation) != len(a):
            raise ValueError(f"{len(a)} matrix rows but {len(self.translation)} translation entries")
        # An integer matrix has determinant +-1 exactly when its inverse is
        # integral, so one elimination both checks and inverts it (and
        # raises ValueError when the matrix is not square).
        try:
            inv = tuple(tuple(exact.integer(c) for c in row) for row in exact.inverse(a))
        except (ZeroDivisionError, TypeError):
            raise ValueError(f"matrix determinant {exact.det(a)}, not a lattice automorphism") from None
        vars(self).update(matrix=a, matrix_inverse=inv, translation=tuple(map(exact.frac, self.translation)))

    @classmethod
    def _certified(cls, matrix, matrix_inverse, translation) -> "UnimodularMap":
        """The map of int rows `matrix`, known to invert to `matrix_inverse`, and Fractions t."""
        m = object.__new__(cls)
        vars(m).update(matrix=matrix, matrix_inverse=matrix_inverse, translation=translation)
        return m

    @cached_property
    def _shift(self) -> tuple[list[list[int]], int]:
        """The translation t as the integer row [T] over its common denominator E."""
        return exact._integer_rows([self.translation])

    def _dimension(self, n: int, what: str) -> None:
        if n != len(self.matrix):
            raise ValueError(f"a {what} of dimension {n} under a map of dimension {len(self.matrix)}")

    def apply_point(self, x):
        self._dimension(len(x), "point")
        shifted = [exact.frac(c) - t for c, t in zip(x, self.translation)]
        return tuple(
            sum(a * s for a, s in zip(row, shifted)) for row in self.matrix
        )

    def apply_point_float(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        self._dimension(np.atleast_1d(x).shape[-1], "point")
        a = np.array(self.matrix, dtype=float)
        t = exact.floats(self.translation)
        return (x - t) @ a.T

    def apply_form(self, form: AffineForm) -> AffineForm:
        # lambda'(x') = lambda(x) forces u' = A^{-T} u, b' = b - <u, t>:
        # with b = p / q and t = T / E, b' = (E p - q <u, T>) / (q E).
        self._dimension(len(form.u), "form")
        (shift,), e = self._shift
        p, q = form.b.numerator, form.b.denominator
        return _form(tuple(sum(map(mul, form.u, column)) for column in zip(*self.matrix_inverse)),
                     Fraction(e * p - q * sum(map(mul, form.u, shift)), q * e))

    def apply_polytope(self, p: DelzantPolytope) -> DelzantPolytope:
        self._dimension(p.n, "polytope")
        return self._image(p, [self.apply_form(f) for f in p.forms], range(p.num_forms))

    def _image(self, p: DelzantPolytope, mapped, order) -> DelzantPolytope:
        """p's image with the forms `mapped`, listed in `order`: `_carry`
        with vertices sent to A (v - t) and edge generators to A g.  With
        t = T / E over a common denominator, the row (X, D) goes to
        (A (E X - D T), D E) in lowest terms."""
        (shift,), e = self._shift
        rows = []
        for *x, d in p.vertex_rows:
            s = [e * c - d * t for c, t in zip(x, shift)]
            rows.append(_lowest([*(sum(map(mul, row, s)) for row in self.matrix), d * e]))
        return _carry(p, mapped, order, rows, self.matrix)

    def inverse(self) -> "UnimodularMap":
        """y -> A^{-1} (y + A t), the map x -> A' (x - t') with A' = A^{-1}, t' = -A t."""
        t_new = tuple(-sum(map(mul, row, self.translation)) for row in self.matrix)
        return UnimodularMap._certified(self.matrix_inverse, self.matrix, t_new)


def _generator_slot(g: tuple[int, ...]) -> tuple:
    mags = [abs(c) for c in g]
    slot = mags.index(max(mags))
    return (slot, tuple(-c for c in g))


def normalize_at_vertex(p: DelzantPolytope, point) -> tuple[UnimodularMap, DelzantPolytope]:
    """Unimodular change of coordinates putting a vertex at the origin.

    The vertex goes to 0, its edge generators to the standard basis, and
    the transformed polytope lists the n incident coordinate half spaces
    {x_i >= 0} first.  Raises NotDelzantVertex when the point is not a
    vertex or its edge basis is not unimodular: exactly when the tight
    normals and the edge generators g_i are not dual bases (`_dual_facets`).
    The map's matrix is then the inverse of the edge basis, row i the normal
    of the facet that g_i leaves: the map is built from this certificate,
    with no elimination.
    """
    v = p._vertex_index(point)
    vertex, edges = _point(p.vertex_rows[v]), p._edges[v]
    if len(edges) != p.n:
        raise NotDelzantVertex(f"vertex {tuple(map(str, vertex))} has {len(edges)} edges, expected {p.n}")
    if (leaves := _dual_facets(p, v)) is None:
        raise NotDelzantVertex(f"edge basis at {tuple(map(str, vertex))} is not unimodular")
    left = {g: k for (_, g), k in zip(edges, leaves)}
    gens = sorted(left, key=_generator_slot)
    order = [left[g] for g in gens]
    trans = UnimodularMap._certified(tuple(p.forms[k].u for k in order), tuple(zip(*gens)), vertex)
    order += [k for k in range(p.num_forms) if k not in order]
    return trans, trans._image(p, [trans.apply_form(f) for f in p.forms], order)


def _dual_facets(p: DelzantPolytope, i: int) -> list[int] | None:
    """The facet each edge at vertex i leaves, in neighbour order, when i has
    n tight facets and n edges and their normals and generators are dual
    lattice bases (Delzant's smoothness; Cox, Little and Schenck, 2.4), else
    None.  The edge toward vertex j lies on every tight facet but the one in
    _incidences[i] - _incidences[j], so its generator pairs to 0 with the
    other tight normals and to a positive integer with that one: the bases
    are dual exactly when each of these n pairings is 1."""
    tight, edges = p._incidences[i], p._edges[i]
    if len(tight) != p.n or len(edges) != p.n:
        return None
    leaves = [k for j, _ in edges for k in tight - p._incidences[j]]
    return leaves if all(sum(map(mul, p.forms[k].u, g)) == 1 for k, (_, g) in zip(leaves, edges)) else None


def _record(forms, n, rows, incidences, edges) -> DelzantPolytope:
    p = DelzantPolytope.__new__(DelzantPolytope)
    vars(p).update(forms=tuple(forms), n=n, vertex_rows=rows, _incidences=incidences, _edges=edges)
    return p


def _carry(p: DelzantPolytope, mapped, order, rows, matrix) -> DelzantPolytope:
    """A polytope with p's combinatorics, built without a vertex walk.

    `mapped` holds the images of p's forms, listed in `order` (new index to
    old); `rows[i]` is the image of p's i-th vertex as an integer row (X, D)
    in lowest terms, and `matrix` A sends an edge generator g to A g (None
    keeps g).  The image's vertices are renumbered in `_keys` order, and
    its incidences and edges with them."""
    where = {k: i for i, k in enumerate(order)}
    ranked = sorted(range(len(rows)), key=_keys(rows).__getitem__)
    rank = {i: r for r, i in enumerate(ranked)}
    sent = {}  # (i, j) -> the image of the generator from vertex i toward j
    for i, out in enumerate(p._edges):
        for j, g in out:  # the generator from j toward i is -g: map each edge once
            sent[i, j] = (g if matrix is None else tuple(-c for c in sent[j, i]) if j < i
                          else tuple(sum(map(mul, row, g)) for row in matrix))
    edges = tuple(tuple(sorted((rank[j], sent[i, j]) for j, _ in p._edges[i])) for i in ranked)
    return _record((mapped[k] for k in order), p.n, tuple(rows[i] for i in ranked),
                   tuple(frozenset(where[k] for k in p._incidences[i]) for i in ranked), edges)


# ---------------------------------------------------------------------------
# catalog

def _orthant(n: int) -> list[AffineForm]:
    """The coordinate half spaces x_i >= 0."""
    return [AffineForm(u=tuple(int(i == j) for j in range(n)), b=Fraction(0)) for i in range(n)]

def _simplex(n: int, scale: Fraction) -> list[AffineForm]:
    return _orthant(n) + [AffineForm(u=(-1,) * n, b=-scale)]

def _cube(n: int, scale: Fraction) -> list[AffineForm]:
    return _orthant(n) + [AffineForm(u=tuple(-int(i == j) for j in range(n)), b=-scale) for i in range(n)]

def _hirzebruch(a: int) -> list[AffineForm]:
    return [
        AffineForm(u=(1, 0), b=Fraction(0)),
        AffineForm(u=(0, 1), b=Fraction(0)),
        AffineForm(u=(-a, -1), b=Fraction(-(1 + a))),
        AffineForm(u=(-1, 0), b=Fraction(-1)),
    ]

# Anticanonical models: projective plane rays plus the first k of the
# blow-up rays (1,1), (0,-1), (-1,0), every offset -1.
_BLOWUP_RAYS = [(1, 1), (0, -1), (-1, 0)]

def _blowup_cp2(k: int) -> list[AffineForm]:
    rays = [(1, 0), (0, 1), (-1, -1)] + _BLOWUP_RAYS[:k]
    return [AffineForm(u=r, b=Fraction(-1)) for r in rays]


def catalog(name: str, *params) -> DelzantPolytope:
    """Named Delzant polytope families.

    simplex(n, scale=1), cube(n, scale=1), hirzebruch(a), blowup_cp2(k).
    """
    def shown(x):  # a parsed parameter as its user wrote it
        return str(x) if isinstance(x, Fraction) else repr(x)

    def _int(x, what):
        try:
            return exact.integer(x)
        except TypeError:
            raise BadParams(f"{what} must be an integer, got {shown(x)}") from None

    def _scale(x):
        try:
            s = exact.frac(x)
        except (TypeError, ValueError, ZeroDivisionError):
            s = None
        if s is None or s <= 0:
            raise BadParams(f"scale must be a positive rational, got {shown(x)}")
        return s

    if name == "simplex" or name == "cube":
        if not 1 <= len(params) <= 2:
            raise BadParams(f"{name} takes (n[, scale])")
        n = _int(params[0], "dimension")
        if n < 1:
            raise BadParams(f"dimension must be >= 1, got {n}")
        scale = _scale(params[1]) if len(params) == 2 else Fraction(1)
        forms = _simplex(n, scale) if name == "simplex" else _cube(n, scale)
        return DelzantPolytope.from_forms(forms, n)
    if name == "hirzebruch":
        if len(params) != 1:
            raise BadParams("hirzebruch takes (a)")
        a = _int(params[0], "twist")
        if a < 0:
            raise BadParams(f"twist must be >= 0, got {a}")
        return DelzantPolytope.from_forms(_hirzebruch(a), 2)
    if name == "blowup_cp2":
        if len(params) != 1:
            raise BadParams("blowup_cp2 takes (k)")
        k = _int(params[0], "blow-up count")
        if k not in (1, 2, 3):
            raise BadParams(f"blow-up count must be 1, 2 or 3, got {k}")
        return DelzantPolytope.from_forms(_blowup_cp2(k), 2)
    raise UnknownName(f"no catalog family named {name!r}")


CATALOG_DEFAULTS: tuple[tuple[str, tuple], ...] = (
    ("simplex", (1,)),
    ("simplex", (2,)),
    ("simplex", (3,)),
    ("cube", (2,)),
    ("cube", (3,)),
    ("hirzebruch", (0,)),
    ("hirzebruch", (1,)),
    ("blowup_cp2", (1,)),
    ("blowup_cp2", (2,)),
    ("blowup_cp2", (3,)),
)


# ---------------------------------------------------------------------------
# serialization

def polytope_from_json(doc) -> DelzantPolytope:
    """Parse {"n": int, "forms": [{"u": [...], "b": "p/q"}, ...]}."""
    doc = exact.document(doc, "polytope")
    with exact.parsing("polytope"):
        n, raw_forms = exact.integer(doc["n"]), doc["forms"]
    if n < 1:
        raise ParseError(f"bad dimension {n!r}")
    if not isinstance(raw_forms, list) or not raw_forms:
        raise ParseError("forms must be a nonempty list")
    forms = []
    for i, rf in enumerate(raw_forms):
        with exact.parsing(f"form {i}"):
            form = AffineForm(u=tuple(rf["u"]), b=rf["b"])
        if len(form.u) != n:
            raise ParseError(f"form {i}: normal has {len(form.u)} entries, expected {n}")
        forms.append(form)
    return DelzantPolytope.from_forms(forms, n)
