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
from math import gcd
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
        if not u or all(c == 0 for c in u):
            raise ValueError("normal must be a nonzero integer vector")
        g = 0
        for c in u:
            g = gcd(g, abs(c))
        if g != 1:
            raise ValueError(f"normal {u} is not primitive (gcd {g})")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "b", exact.frac(self.b))

    def value(self, x) -> Fraction:
        return sum(c * exact.frac(xi) for c, xi in zip(self.u, x)) - self.b

    def to_json(self) -> dict:
        return {"u": list(self.u), "b": exact.frac_str(self.b)}


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
    satisfies every form, LowerDimensional when the vertices do not
    affinely span.
    """
    if n < 1:
        raise ValueError("dimension must be at least 1")
    for f in forms:
        if len(f.u) != n:
            raise ValueError("form dimension mismatch")
    normals = [f.u for f in forms]
    line = exact.kernel_vector(normals, n)
    if line is not None:
        raise Unbounded(f"recession direction {exact.primitive(line)}")

    # A polyhedron without lines has a vertex when it is nonempty.
    for subset in itertools.combinations(range(len(forms)), n):
        x = exact.solve([normals[i] for i in subset], [forms[i].b for i in subset])
        if x is not None and min(f.value(x) for f in forms) >= 0:
            break
    else:
        raise Empty("no feasible basic solution")

    values = {x: [f.value(x) for f in forms]}
    edges = {}
    todo = [x]
    while todo:
        v = todo.pop()
        lam = values[v]
        tight = [k for k, value in enumerate(lam) if value == 0]
        edges[v] = out = {}
        for subset in itertools.combinations(tight, n - 1):
            reduced, pivots, _ = exact._eliminate([normals[k] for k in subset], n)
            if len(pivots) < n - 1:
                continue
            y = exact.primitive(exact._free_vector(reduced, pivots, n))
            slopes = [sum(a * b for a, b in zip(u, y)) for u in normals]
            along = [slopes[k] for k in tight]
            if min(along) < 0:
                if max(along) > 0:
                    continue
                y, slopes = tuple(-c for c in y), [-s for s in slopes]
            steps = [value / -s for value, s in zip(lam, slopes) if s < 0]
            if not steps:
                raise Unbounded(f"recession direction {y}")
            t = min(steps)
            w = tuple(c + t * yc for c, yc in zip(v, y))
            out[w] = y
            if w not in values:
                values[w] = [value + t * s for value, s in zip(lam, slopes)]
                todo.append(w)

    coords = sorted(values)
    if exact.affine_rank(coords) < n:
        raise LowerDimensional(
            f"vertices span affine rank {exact.affine_rank(coords)} < {n}"
        )
    return tuple(
        VertexData(
            coordinates=v,
            incident_facets=frozenset(k for k, value in enumerate(values[v]) if value == 0),
            edge_generators=tuple(edges[v][w] for w in sorted(edges[v])),
        )
        for v in coords
    )


class DelzantPolytope:
    """Half-space presentation together with its exact vertex data."""

    def __init__(self, forms: Sequence[AffineForm], vertices: Sequence[VertexData], n: int):
        self.forms = tuple(forms)
        self.vertices = tuple(vertices)
        self.n = int(n)

    @classmethod
    def from_forms(cls, forms: Sequence[AffineForm], n: int | None = None) -> "DelzantPolytope":
        forms = tuple(forms)
        if not forms:
            raise ValueError("need at least one form")
        if n is None:
            n = len(forms[0].u)
        vertices = enumerate_vertices(forms, n)
        # Every form must cut out a genuine facet.
        for k in range(len(forms)):
            tight = [v.coordinates for v in vertices if k in v.incident_facets]
            if not tight or exact.affine_rank(tight) != n - 1:
                raise RedundantForm(f"form {k} ({forms[k].u}) is not a facet")
        return cls(forms, vertices, n)

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
        return np.linalg.norm(self.normals_float, axis=1)

    @cached_property
    def vertex_floats(self) -> np.ndarray:
        return exact.floats([v.coordinates for v in self.vertices])

    @cached_property
    def affine_span_rank(self) -> int:
        """Exact dimension of the affine span of the vertices."""
        return exact.affine_rank([v.coordinates for v in self.vertices])

    def lambdas(self, x: np.ndarray) -> np.ndarray:
        """Float values of every defining form at x (points in rows ok)."""
        x = np.asarray(x, dtype=float)
        return x @ self.normals_float.T - self.offsets_float

    def vertex_at(self, point) -> VertexData:
        if isinstance(point, VertexData):
            point = point.coordinates
        coords = tuple(exact.frac(c) for c in point)
        for v in self.vertices:
            if v.coordinates == coords:
                return v
        raise NotDelzantVertex(f"{tuple(map(str, coords))} is not a vertex")

    def to_json(self) -> dict:
        return {"n": self.n, "forms": [f.to_json() for f in self.forms]}

    def __repr__(self):
        return f"DelzantPolytope(n={self.n}, facets={self.num_forms}, vertices={len(self.vertices)})"


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
        facets = len(v.incident_facets)
        edges = len(v.edge_generators)
        d = None
        if edges == p.n:
            d = int(exact.det([list(g) for g in v.edge_generators]))
        ok = facets == p.n and edges == p.n and d is not None and abs(d) == 1
        reports.append(VertexReport(i, v.coordinates, facets, edges, d, ok))
    return DelzantReport(
        vertex_reports=tuple(reports),
        is_delzant=all(r.ok for r in reports),
        affine_span_rank=p.affine_span_rank,
    )


def affine_span_rank(points) -> int:
    """Exact dimension of the affine span of the given points."""
    return exact.affine_rank(points)


def vertices_affinely_span(p: DelzantPolytope) -> bool:
    """True when the vertices affinely span the whole ambient space."""
    return p.affine_span_rank == p.n


@dataclass(frozen=True)
class UnimodularMap:
    """Affine lattice map x -> A (x - t) with |det A| = 1."""

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
        object.__setattr__(self, "matrix", a)
        object.__setattr__(self, "matrix_inverse", inv)
        object.__setattr__(
            self, "translation", tuple(exact.frac(c) for c in self.translation)
        )

    def apply_point(self, x):
        shifted = [exact.frac(c) - t for c, t in zip(x, self.translation)]
        return tuple(
            sum(a * s for a, s in zip(row, shifted)) for row in self.matrix
        )

    def apply_point_float(self, x: np.ndarray) -> np.ndarray:
        a = np.array(self.matrix, dtype=float)
        t = exact.floats(self.translation)
        return (np.asarray(x, dtype=float) - t) @ a.T

    def apply_form(self, form: AffineForm) -> AffineForm:
        # lambda'(x') = lambda(x) forces u' = A^{-T} u, b' = b - <u, t>.
        ainv = self.matrix_inverse
        u_new = tuple(
            sum(ainv[i][j] * form.u[i] for i in range(len(form.u)))
            for j in range(len(form.u))
        )
        b_new = form.b - sum(c * t for c, t in zip(form.u, self.translation))
        return AffineForm(u=u_new, b=b_new)

    def apply_polytope(self, p: DelzantPolytope) -> DelzantPolytope:
        return DelzantPolytope.from_forms([self.apply_form(f) for f in p.forms], p.n)

    def inverse(self) -> "UnimodularMap":
        a_inv = self.matrix_inverse
        t_new = tuple(
            -sum(row[j] * self.translation[j] for j in range(len(row)))
            for row in self.matrix
        )
        return UnimodularMap(matrix=a_inv, translation=t_new)


def _generator_slot(g: tuple[int, ...]) -> tuple:
    mags = [abs(c) for c in g]
    slot = mags.index(max(mags))
    return (slot, tuple(-c for c in g))


def normalize_at_vertex(p: DelzantPolytope, point) -> tuple[UnimodularMap, DelzantPolytope]:
    """Unimodular change of coordinates putting a vertex at the origin.

    The vertex goes to 0, its edge generators to the standard basis, and
    the transformed polytope lists the n incident coordinate half spaces
    {x_i >= 0} first.  Raises NotDelzantVertex when the point is not a
    vertex or its edge basis is not unimodular.
    """
    vertex = p.vertex_at(point)
    if len(vertex.edge_generators) != p.n:
        raise NotDelzantVertex(
            f"vertex {tuple(map(str, vertex.coordinates))} has "
            f"{len(vertex.edge_generators)} edges, expected {p.n}"
        )
    gens = sorted(vertex.edge_generators, key=_generator_slot)
    try:
        # the edge generators as columns: this map sends e_i to gens[i]
        edges = UnimodularMap(matrix=tuple(zip(*gens)), translation=(0,) * p.n)
    except ValueError:
        raise NotDelzantVertex(
            f"edge basis at {tuple(map(str, vertex.coordinates))} is not unimodular"
        ) from None
    trans = UnimodularMap(matrix=edges.matrix_inverse, translation=vertex.coordinates)
    mapped_forms = [trans.apply_form(f) for f in p.forms]

    basis = [tuple(int(i == j) for j in range(p.n)) for i in range(p.n)]
    first, rest = [], []
    for i in range(p.n):
        matches = [
            f for f in mapped_forms if f.u == basis[i] and f.b == 0
        ]
        if len(matches) != 1:
            raise NotDelzantVertex(
                f"normalisation at {tuple(map(str, vertex.coordinates))} "
                f"does not produce coordinate half space {i}"
            )
        first.append(matches[0])
    for f in mapped_forms:
        if f not in first:
            rest.append(f)
    result = DelzantPolytope.from_forms(first + rest, p.n)
    return trans, result


# ---------------------------------------------------------------------------
# catalog

def _simplex(n: int, scale: Fraction) -> list[AffineForm]:
    forms = [
        AffineForm(u=tuple(int(i == j) for j in range(n)), b=Fraction(0))
        for i in range(n)
    ]
    forms.append(AffineForm(u=(-1,) * n, b=-scale))
    return forms

def _cube(n: int, scale: Fraction) -> list[AffineForm]:
    forms = [
        AffineForm(u=tuple(int(i == j) for j in range(n)), b=Fraction(0))
        for i in range(n)
    ]
    forms += [
        AffineForm(u=tuple(-int(i == j) for j in range(n)), b=-scale)
        for i in range(n)
    ]
    return forms

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
    def _int(x, what):
        try:
            return exact.integer(x)
        except TypeError:
            raise BadParams(f"{what} must be an integer, got {x!r}") from None

    def _scale(x):
        try:
            s = exact.frac(x)
        except (TypeError, ValueError, ZeroDivisionError):
            s = None
        if s is None or s <= 0:
            raise BadParams(f"scale must be a positive rational, got {x!r}")
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
