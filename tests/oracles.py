"""Independent oracles the tests freeze expected values against.

Nothing here but the finite-difference loop touches the package's own
derivative, quadrature or elimination code: curvature comes from sympy
symbolic differentiation or from a metric jet built entry by entry,
moments from scipy adaptive quadrature over a halfspace description,
divided differences of exp from one bidiagonal exponential per vertex
pair or from a 50-digit mpmath power series, areas from the shoelace
formula, vertices from an exhaustive search over basic solutions, linear algebra
from Gauss-Jordan elimination over Fraction, triangulations and volumes
from Fraction coordinates, the anticanonical model from a fresh vertex
walk over its own forms.  The finite-difference loop is the per-point
reference for the batched route: it reads the package's own G^{-1}, one
point and one offset at a time.
"""

import itertools
from fractions import Fraction
from math import ceil, factorial, gcd, inf, log2, prod

import numpy as np

from torickit import (
    AffineForm,
    DelzantPolytope,
    Empty,
    LowerDimensional,
    NotFano,
    ToricError,
    Unbounded,
    VertexData,
    check_delzant,
    interior_distance,
    metric_jet,
)


def shoelace_area(vertices):
    """Signed-area magnitude of a 2D polygon given in boundary order."""
    v = np.asarray(vertices, dtype=float)
    x, y = v[:, 0], v[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def boundary_order(vertices):
    """Sort polygon vertices counterclockwise around their centroid."""
    v = np.asarray(vertices, dtype=float)
    c = v.mean(axis=0)
    ang = np.arctan2(v[:, 1] - c[1], v[:, 0] - c[0])
    return v[np.argsort(ang)]


def symbolic_scalar_field(normals, offsets, h_terms=()):
    """Scalar curvature function via sympy.

    The potential is g = (sum lambda_k log lambda_k + h)/2 with
    lambda_k = <u_k, x> - b_k, h a sum of (coeff, exponents) monomials;
    the curvature is minus the sum of second derivatives of the inverse
    Hessian entries.  Returns a plain float-valued callable.
    """
    import sympy as sp

    n = len(normals[0])
    xs = sp.symbols(f"x0:{n}")
    lam = [
        sum(u[i] * xs[i] for i in range(n)) - sp.Rational(b)
        for u, b in zip(normals, offsets)
    ]
    h = sum(
        sp.Rational(c) * sp.prod([xs[i] ** e for i, e in enumerate(exps)])
        for c, exps in h_terms
    )
    g = sp.Rational(1, 2) * (sum(l * sp.log(l) for l in lam) + h)
    G = sp.Matrix(n, n, lambda i, j: sp.diff(g, xs[i], xs[j]))
    Ginv = G.inv()
    s = -sum(
        sp.diff(Ginv[j, k], xs[j], xs[k]) for j in range(n) for k in range(n)
    )
    fn = sp.lambdify(xs, sp.simplify(s), "numpy")
    return lambda x: float(fn(*x))


def _monomial_partial(exponents, coeff, index, x):
    """The partial of coeff * prod x_i^e_i along `index`, by the power rule."""
    e = list(exponents)
    c = float(coeff)
    for i in index:
        if e[i] == 0:
            return 0.0
        c *= e[i]
        e[i] -= 1
    return c * prod(xi**ei for xi, ei in zip(x, e))


def potential_spec(pot):
    """(normals, offsets, h coefficients) of a potential, as the reference
    jet takes them."""
    forms = pot.polytope.forms
    return [f.u for f in forms], [f.b for f in forms], pot.h.coeffs


def reference_jet(normals, offsets, h_coeffs, x):
    """G, dG, d2G of g = (sum lambda_k log lambda_k + h)/2 at one point.

    h_coeffs maps exponent tuples to coefficients.  Every entry of the
    order-r derivative (r = 2, 3, 4) is computed on its own:
    (1/2) ((-1)^r (r-2)! sum_k prod_i u_k[i] / lambda_k^(r-1) + the
    hand-differentiated monomials of h).
    """
    x = [float(c) for c in x]
    u = [[float(c) for c in row] for row in normals]
    lam = [sum(a * b for a, b in zip(row, x)) - float(b) for row, b in zip(u, offsets)]
    n = len(x)

    def entry(index):
        r = len(index)
        canonical = sum(
            prod(row[i] for i in index) / l ** (r - 1) for row, l in zip(u, lam)
        ) * (-1) ** r * factorial(r - 2)
        h = sum(_monomial_partial(e, c, index, x) for e, c in h_coeffs.items())
        return 0.5 * (canonical + h)

    def tensor(r):
        out = np.empty((n,) * r)
        for index in itertools.product(range(n), repeat=r):
            out[index] = entry(index)
        return out

    return tensor(2), tensor(3), tensor(4)


def jet_curvature(normals, offsets, h_coeffs, x):
    """s = -sum_jk d_j d_k G^{jk}, with the derivatives of G^{-1} expanded
    through the reference jet one (j, k) pair at a time."""
    g, dg, d2g = reference_jet(normals, offsets, h_coeffs, x)
    gi = np.linalg.inv(g)
    total = 0.0
    for j, k in itertools.product(range(len(g)), repeat=2):
        a1 = gi @ dg[k] @ gi @ dg[j] @ gi
        a2 = gi @ dg[j] @ gi @ dg[k] @ gi
        a3 = gi @ d2g[k, j] @ gi
        total -= a1[j, k] + a2[j, k] - a3[j, k]
    return total


# blowup_cp2(1) anticanonical quadrilateral {x >= -1, y >= -1, |x+y| <= 1},
# vertices (-1,0), (-1,2), (0,-1), (2,-1); diagonal is a symmetry axis.

def _quad_ylo(x):
    return max(-1.0, -1.0 - x)


def _quad_yhi(x):
    return 1.0 - x


def quad_weighted_sum(t, eps=1e-12):
    """integral (x+y) e^{t(x+y)} over the quadrilateral via dblquad."""
    from scipy.integrate import dblquad

    val, _ = dblquad(
        lambda y, x: (x + y) * np.exp(t * (x + y)),
        -1.0, 2.0, _quad_ylo, _quad_yhi, epsabs=eps, epsrel=eps,
    )
    return val


def bisect_soliton_t(tol=1e-10):
    """Root of the diagonal weighted sum on [-2, 0].

    By the diagonal symmetry the soliton vector is (t, t) and the two
    gradient components collapse to this single function; the rest
    weighted sum is the positive barycenter term 2/3, so the root sits
    strictly left of zero.
    """
    lo, hi = -2.0, 0.0
    flo = quad_weighted_sum(lo)
    fhi = quad_weighted_sum(hi)
    assert flo < 0.0 < fhi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if quad_weighted_sum(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def pentagon_moment(a, eps=1e-12):
    """integral x e^{<a,x>} over the blowup_cp2(2) anticanonical pentagon
    {x >= -1, y >= -1, |x+y| <= 1, y <= 1} via dblquad."""
    from scipy.integrate import dblquad

    def ylo(x):
        return max(-1.0, -1.0 - x)

    def yhi(x):
        return min(1.0, 1.0 - x)

    mx, _ = dblquad(
        lambda y, x: x * np.exp(a[0] * x + a[1] * y),
        -1.0, 2.0, ylo, yhi, epsabs=eps, epsrel=eps,
    )
    my, _ = dblquad(
        lambda y, x: y * np.exp(a[0] * x + a[1] * y),
        -1.0, 2.0, ylo, yhi, epsabs=eps, epsrel=eps,
    )
    return np.array([mx, my])


def bidiagonal_exp_divided_differences(nodes):
    """exp[d_0, ..., d_m] for every row d of `nodes`, the package's kernel
    before the triangular one: the top-right entry of exp(Z) for Z
    bidiagonal with d on the diagonal and ones above it (McCurdy, Ng and
    Parlett 1984), rows shifted by their smallest node, scaled and squared,
    Taylor sum to degree >= m + 16 by Paterson-Stockmeyer."""
    rows, m = nodes.shape
    low = nodes.min(axis=1)
    spread = float(np.max(nodes.max(axis=1) - low))
    squarings = ceil(log2(spread)) if 1.0 < spread < inf else 0
    h = 2.0**-squarings
    z = np.zeros((rows, m * m))
    z[:, :: m + 1] = (nodes - low[:, None]) * h
    z[:, 1 :: m + 1] = h
    z = z.reshape(rows, m, m)
    powers = [np.broadcast_to(np.eye(m), z.shape), z]
    for _ in range(4):
        powers.append(powers[-1] @ z)
    count = 5 * -(-(m + 17) // 5)
    inverse_factorials = np.cumprod(1.0 / np.maximum(np.arange(count), 1)).reshape(-1, 5)
    blocks = np.tensordot(inverse_factorials, np.stack(powers[:5]), 1)
    e = blocks[-1]
    for block in blocks[-2::-1]:
        e = block + powers[5] @ e
    e *= np.exp(low * h)[:, None, None]
    for _ in range(squarings):
        e = e @ e
    return e[:, 0, -1]


def pairwise_exp_divided_differences(t):
    """exp[t_k, t_0, ..., t_n, t_l] for every row t and every k, l, one
    bidiagonal exponential per pair, as (rows, n+1, n+1)."""
    rows, m = t.shape
    nodes = [[(row[k], *row, row[l]) for k in range(m) for l in range(m)] for row in t]
    return bidiagonal_exp_divided_differences(np.array(nodes).reshape(-1, m + 2)).reshape(rows, m, m)


def mp_exp_divided_differences(t, dps=50):
    """exp[t_k, t_0, ..., t_n, t_l] for every row t and every k, l, from the
    power series exp[x_0..x_p] = e^c sum_j h_j(x - c) / (p + j)! in mpmath at
    `dps` digits, c the smallest node and h_j the complete homogeneous
    symmetric polynomial; every term is nonnegative, so nothing cancels."""
    import mpmath

    rows, m = t.shape
    out = np.empty((rows, m, m))
    with mpmath.workdps(dps):
        for r, row in enumerate(t):
            low = min(row)
            y = [mpmath.mpf(float(v)) - mpmath.mpf(float(low)) for v in row]
            # y^j / j! < (e max(y) / j)^j is far below 10^-dps past this degree
            degree = 3 * int(ceil(max(y))) + 120
            chain = [mpmath.mpf(1)] + [mpmath.mpf(0)] * degree
            for v in y:  # h_j of the chain: times the series 1 / (1 - v z)
                for j in range(1, degree + 1):
                    chain[j] += v * chain[j - 1]
            inverse = [1 / mpmath.factorial(m + 1 + j) for j in range(degree + 1)]
            for k in range(m):
                for l in range(m):
                    h = list(chain)
                    for v in (y[k], y[l]):
                        for j in range(1, degree + 1):
                            h[j] += v * h[j - 1]
                    total = mpmath.fsum(c * f for c, f in zip(h, inverse))
                    out[r, k, l] = float(total * mpmath.exp(mpmath.mpf(float(low))))
    return out


def central_second_difference(f, x, i, j, h):
    """Plain O(h^2) mixed second difference, no extrapolation."""
    x = np.asarray(x, dtype=float)
    ei = np.zeros_like(x)
    ej = np.zeros_like(x)
    ei[i] = h
    ej[j] = h
    if i == j:
        return (f(x + ei) - 2.0 * f(x) + f(x - ei)) / h**2
    return (
        f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)
    ) / (4.0 * h**2)


def _ginv_entry_hessian(pot, x, h):
    """Central second differences of all entries of G^{-1} at step h,
    from one `metric_jet` per offset, each on first use."""
    n = len(x)
    cache: dict[tuple[int, ...], np.ndarray] = {}

    def ginv(offset):
        key = tuple(offset)
        got = cache.get(key)
        if got is None:
            got = metric_jet(pot, x + h * np.array(offset, dtype=float)).G_inv
            cache[key] = got
        return got

    center = ginv((0,) * n)
    out = np.empty((n, n))
    for j in range(n):
        for k in range(n):
            if j == k:
                ej = tuple(int(i == j) for i in range(n))
                mj = tuple(-int(i == j) for i in range(n))
                out[j, k] = (ginv(ej)[j, k] - 2.0 * center[j, k] + ginv(mj)[j, k]) / h**2
            else:
                pp = tuple(int(i == j) + int(i == k) for i in range(n))
                mm = tuple(-int(i == j) - int(i == k) for i in range(n))
                pm = tuple(int(i == j) - int(i == k) for i in range(n))
                mp = tuple(int(i == k) - int(i == j) for i in range(n))
                out[j, k] = (
                    ginv(pp)[j, k] + ginv(mm)[j, k] - ginv(pm)[j, k] - ginv(mp)[j, k]
                ) / (4.0 * h**2)
    return out


def fd_curvature(pot, x, step=None, levels=2):
    """Finite-difference scalar curvature at one point, with Richardson
    extrapolation: the per-point loop that `scalar_curvatures_fd` batches.

    Its values and errors are those of `scalar_curvature_fd` before the
    batch.
    """
    x = np.asarray(x, dtype=float)
    dist = float(interior_distance(pot.polytope, x))
    if dist <= 0:
        metric_jet(pot, x)      # OutsideDomain, naming the first violated form
    if step is None:
        step = dist / 24.0
    if step <= 0 or dist < 10.0 * step:
        raise ValueError(
            f"finite-difference step {step:.3e} too large for interior "
            f"distance {dist:.3e} (need distance >= {10.0}x step)"
        )
    estimates = [_ginv_entry_hessian(pot, x, step / 2**m) for m in range(levels + 1)]
    for power in range(1, levels + 1):
        factor = 4.0**power
        estimates = [
            (factor * finer - coarser) / (factor - 1.0)
            for coarser, finer in zip(estimates, estimates[1:])
        ]
    return float(-np.sum(estimates[0]))


def fraction_eliminate(rows, ncols):
    """Gauss-Jordan elimination over Fraction, the package's kernel before
    it went fraction-free.

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
        pivot = m[r][c]
        product *= pivot
        m[r][c:] = [x / pivot for x in m[r][c:]]
        tail = m[r][c:]
        for i, row in enumerate(m):
            f = row[c]
            if f and i != r:
                row[c:] = [a - f * b for a, b in zip(row[c:], tail)]
        pivots.append(c)
    return m, pivots, product


def _row_reduce(rows, ncols):
    return fraction_eliminate(rows, ncols)[:2]


def fraction_rank(rows):
    return len(_row_reduce(rows, len(rows[0]))[1]) if rows else 0


def fraction_det(rows):
    n = len(rows)
    _, pivots, product = fraction_eliminate(rows, n)
    return product if len(pivots) == n else Fraction(0)


def fraction_inverse(rows):
    """The inverse, or None for a singular matrix."""
    n = len(rows)
    augmented = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    reduced, pivots = _row_reduce(augmented, n)
    return tuple(tuple(row[n:]) for row in reduced) if len(pivots) == n else None


def fraction_affine_rank(points):
    """Rank of the differences from the first point."""
    pts = [[Fraction(x) for x in p] for p in points]
    if len(pts) <= 1:
        return 0
    return fraction_rank([[x - y for x, y in zip(p, pts[0])] for p in pts[1:]])


def fraction_kernel_vector(rows, n):
    """The kernel vector of the rows that is 1 at the first free column, or
    None when they have rank n."""
    reduced, pivots = _row_reduce(rows, n)
    free = [c for c in range(n) if c not in pivots]
    if not free:
        return None
    y = [Fraction(int(c == free[0])) for c in range(n)]
    for row, c in zip(reduced, pivots):
        y[c] = -row[free[0]]
    return tuple(y)


def _primitive(vector):
    scale = 1
    for x in vector:
        scale = scale * x.denominator // gcd(scale, x.denominator)
    ints = [int(x * scale) for x in vector]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    return tuple(x // g for x in ints)


def _face_simplices(coords, incidences, nforms, vidx, dim):
    """Pulling triangulation of one face, as tuples of vertex indices.

    The face is the convex hull of the vertices listed in `vidx`; it is
    coned from its lexicographically smallest vertex over its own
    facets, recursively.
    """
    if len(vidx) == dim + 1:
        return [tuple(vidx)]
    apex = min(vidx, key=lambda i: coords[i])
    simplices = []
    seen = set()
    for k in range(nforms):
        if k in incidences[apex]:
            continue
        sub = [i for i in vidx if k in incidences[i]]
        if len(sub) < dim:
            continue
        if fraction_affine_rank([coords[i] for i in sub]) != dim - 1:
            continue
        key = frozenset(sub)
        if key in seen:
            continue
        seen.add(key)
        for s in _face_simplices(coords, incidences, nforms, sorted(sub), dim - 1):
            simplices.append(s + (apex,))
    return simplices


def reference_triangulation(p):
    """The pulling triangulation on Fraction coordinates, as the package
    computed it before it read integer vertex rows."""
    coords = [v.coordinates for v in p.vertices]
    incidences = [v.incident_facets for v in p.vertices]
    index_simplices = _face_simplices(
        coords, incidences, len(p.forms), sorted(range(len(coords)), key=lambda i: coords[i]), p.n
    )
    return tuple(tuple(coords[i] for i in s) for s in index_simplices)


def _simplex_volume(simplex):
    return abs(fraction_det([(1, *v) for v in simplex])) / factorial(len(simplex) - 1)


def reference_volume(p):
    return sum((_simplex_volume(s) for s in reference_triangulation(p)), Fraction(0))


def feasible_basic_solutions(forms, n):
    """{x: tight form indices} over the n-subsets of forms whose normals
    are independent and whose solution satisfies every form."""
    found = {}
    for subset in itertools.combinations(forms, n):
        reduced, pivots = _row_reduce([list(f.u) + [f.b] for f in subset], n)
        if len(pivots) < n:
            continue
        x = tuple(row[n] for row in reduced)
        values = [sum(a * b for a, b in zip(f.u, x)) - f.b for f in forms]
        if min(values) >= 0:
            found[x] = frozenset(k for k, v in enumerate(values) if v == 0)
    return found


def reference_vertices(forms, n):
    """Vertex data by exhaustive search, as the package once computed it.

    Unbounded when {y : <u_k, y> >= 0 for all k} holds a nonzero y: a
    kernel vector of the normals, or else the ray cut out by some n-1
    independent normals.  Then every feasible basic solution is a vertex
    (Empty when there is none, LowerDimensional when they do not span),
    and two vertices are adjacent when their shared tight normals have
    rank n-1.
    """
    normals = [f.u for f in forms]
    rays = [fraction_kernel_vector(normals, n)]
    for subset in itertools.combinations(normals, n - 1):
        if len(_row_reduce(subset, n)[1]) == n - 1:
            rays.append(fraction_kernel_vector(subset, n))
    for y in filter(None, rays):
        slopes = [sum(a * b for a, b in zip(u, y)) for u in normals]
        if min(slopes) >= 0 or max(slopes) <= 0:
            raise Unbounded(f"recession direction {y}")
    found = feasible_basic_solutions(forms, n)
    if not found:
        raise Empty("no feasible basic solution")
    coords = sorted(found)
    base = coords[0]
    if len(_row_reduce([[a - b for a, b in zip(v, base)] for v in coords], n)[1]) < n:
        raise LowerDimensional("vertices do not span")
    vertices = []
    for v in coords:
        adjacent = [
            w for w in coords
            if w != v and len(_row_reduce([normals[k] for k in found[v] & found[w]], n)[1]) == n - 1
        ]
        gens = tuple(_primitive([a - b for a, b in zip(w, v)]) for w in adjacent)
        vertices.append(VertexData(v, found[v], gens))
    return tuple(vertices)


def walked_fano_model(p):
    """The anticanonical model of p by a vertex walk over p's normals with
    every offset -1, then the Delzant and incidence checks; NotFano when
    one of them fails."""
    forms = [AffineForm(f.u, Fraction(-1)) for f in p.forms]
    try:
        model = DelzantPolytope.from_forms(forms, p.n)
    except ToricError as e:
        raise NotFano(f"anticanonical model degenerates: {e}") from e
    failing = check_delzant(model).failing()
    if failing:
        bad = failing[0]
        raise NotFano(
            f"anticanonical vertex {tuple(map(str, bad.coordinates))} has "
            f"{bad.facet_count} facets, {bad.edge_count} edges, "
            f"edge determinant {bad.edge_det}"
        )
    if {v.incident_facets for v in p.vertices} != {v.incident_facets for v in model.vertices}:
        raise NotFano("anticanonical model changes the facet incidence combinatorics")
    return model
