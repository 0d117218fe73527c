"""The workloads: seeded task lists over torickit's public API.

There are four workloads, one per heavy layer plus the CLI:
`exact_sweep`, `curvature_field`, `soliton_verdict` and `cli_reports`.
Each `build_*` function is a set-up.  It receives the imported package, a
seeded generator, the tracer, the `tiny` flag (smoke-test size) and a
directory for CLI files, builds everything a session builds once, and
returns the tasks of one pass; the first task is the untimed warm-up.
Set-up may call the library; tasks do their library calls through
`tr.call(<layer>.<function>, ...)` so the traced run can time each layer.  Counts recorded with `tr.count` are computed
from the inputs and repeat exactly for a given seed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
from fractions import Fraction
from math import comb, factorial

import numpy as np

import oracle
import reference as ref
from harness import Task

F = Fraction
QUADRATURE_ORDER = 20           # Gauss points per axis of the current moment rule
VERDICT_GRID = {1: 20, 2: 8, 3: 7, 4: 6}
CURVATURE_TOL = 1e-8            # relative, analytic curvature vs closed form
METRIC_TOL = 1e-9               # relative, G^{-1}, det G and delta vs numpy
PROBE_TOL = 1e-6                # relative, |G^{-1}| near a vertex (cond ~ 1/t)
SOLITON_TOL = 1e-8              # absolute, soliton vector components
MOMENT_TOL = 1e-8               # relative to the largest entry, moments at the solution
FD_TOL = 1e-5                   # fd_cross_validate's own acceptance tolerance

# Seeded variants of each input per pass: every pass holds >= 100 tasks, so
# p90 over tasks keeps >= 10 beyond it.
EXACT_VARIANTS = 5
EXACT_HEAVY = {"catalog:cube(4)", "catalog:cube(5)"}   # one variant each
CLI_VARIANTS = 5


# ---------------------------------------------------------------------------
# shared helpers

def exact_det(rows) -> Fraction:
    """Determinant by Fraction elimination (independent of torickit.exact)."""
    m = [[F(c) for c in row] for row in rows]
    n = len(m)
    det = F(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return F(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] / m[col][col]
            m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return det


def apply_affine(matrix, translation, point):
    """A (x - t) in exact arithmetic."""
    shifted = [F(x) - F(t) for x, t in zip(point, translation)]
    return tuple(sum(a * s for a, s in zip(row, shifted)) for row in matrix)


def signed_permutation(rng, n):
    perm = rng.permutation(n)
    signs = rng.choice([-1, 1], size=n)
    return [[int(signs[r]) * int(perm[r] == c) for c in range(n)] for r in range(n)]


def lattice_map(rng, n, shears: int):
    """Seeded integer matrix of determinant +-1: a fixed product of `shears`
    elementary shears (row i += row i + 1, cyclically), then a seeded signed
    permutation.  The seed moves the image around but not the size of its
    coordinates, so exact arithmetic on it costs the same for every seed."""
    a = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(shears if n > 1 else 0):
        i, j = k % n, (k + 1) % n
        a[i] = [x + y for x, y in zip(a[i], a[j])]
    p = signed_permutation(rng, n)
    return tuple(tuple(sum(p[r][k] * a[k][c] for k in range(n)) for c in range(n)) for r in range(n))


def lattice_shift(rng, n, denominator: int):
    """Seeded translation: the fixed vector (1, ..., n) / denominator under a
    seeded signed permutation, for the same reason."""
    return tuple(F(int(c), denominator) for c in signed_permutation(rng, n) @ np.arange(1, n + 1))


def enumeration_counts(tr, m: int, n: int, vertices: int) -> None:
    """Work of one exact vertex enumeration: C(m, n) subsets solved and
    V (V - 1) ordered vertex pairs tested for adjacency."""
    tr.count("polytope.subsets", comb(m, n))
    tr.count("polytope.vertices", vertices)
    tr.count("polytope.vertex_pairs", vertices * (vertices - 1))


def close(got, want, tol) -> bool:
    return oracle.rel_err(got, want) <= tol


# ---------------------------------------------------------------------------
# exact_sweep

def _exact_entries(tk, rng, tiny):
    """(label, how to build it, closed form) per input polytope."""
    entries = []
    catalog_inputs = [(name, params) for name, params in tk.CATALOG_DEFAULTS]
    catalog_inputs += [
        ("simplex", (2, F(3, 2))), ("cube", (3, F(5, 2))), ("simplex", (3, 2)),
        ("hirzebruch", (2,)), ("hirzebruch", (3,)), ("hirzebruch", (4,)),
    ]
    if not tiny:
        catalog_inputs += [("simplex", (4,)), ("simplex", (5,)), ("cube", (4,)), ("cube", (5,))]
    for name, params in catalog_inputs:
        entries.append((
            f"catalog:{ref.label(name, params)}",
            ("catalog", name, params),
            ref.closed_form(name, *params),
        ))
    triangle = [tk.AffineForm(u, b) for u, b in ref.TRIANGLE_FORMS]
    entries.append(("forms:triangle", ("forms", triangle, 2), ref.TRIANGLE))
    # lattice images: the same closed forms must survive a change of basis
    for name, params, how in (
        ("blowup_cp2", (2,), "json"), ("cube", (3,), "json"),
        ("simplex", (3,), "json"), ("hirzebruch", (1,), "forms"),
    ):
        base = tk.catalog(name, *params)
        um = tk.UnimodularMap(lattice_map(rng, base.n, base.n), lattice_shift(rng, base.n, 2))
        img = um.apply_polytope(base)
        payload = (
            ("json", json.dumps(img.to_json()))
            if how == "json" else ("forms", img.forms, img.n)
        )
        entries.append((f"{how}:image_of_{ref.label(name, params)}", payload, ref.closed_form(name, *params)))
    return entries


def _build_polytope(tk, tr, payload):
    how = payload[0]
    if how == "catalog":
        return tr.call("polytope.catalog", tk.catalog, payload[1], *payload[2])
    if how == "json":
        return tr.call("polytope.from_json", tk.polytope_from_json, payload[1])
    return tr.call("polytope.from_forms", tk.DelzantPolytope.from_forms, payload[1], payload[2])


def build_exact_sweep(tk, rng, tr, tiny, workdir):
    tasks = []
    for label, payload, want in _exact_entries(tk, rng, tiny):
        n = want["n"]
        for _ in range(1 if label in EXACT_HEAVY or tiny else EXACT_VARIANTS):
            um = tk.UnimodularMap(lattice_map(rng, n, n), lattice_shift(rng, n, 3))
            vertex_pick = want.get("refused_vertex") or int(rng.integers(want["vertices"]))
            tasks.append(Task(label, _exact_run(tk, payload, um, vertex_pick, want), _exact_check(um, want)))
    return tasks


def _exact_run(tk, payload, um, vertex_pick, want):
    m, n, vcount = want["forms"], want["n"], want["vertices"]

    def run(tr):
        p = _build_polytope(tk, tr, payload)
        out = {"n": p.n, "vertices": [v.coordinates for v in p.vertices], "forms": [f.u for f in p.forms]}
        report = tr.call("polytope.check_delzant", tk.check_delzant, p)
        out["delzant"] = report.is_delzant
        out["failing"] = [(r.coordinates, r.edge_det) for r in report.failing()]
        out["simplices"] = tr.call("soliton.triangulate", tk.triangulate, p)
        out["volume"] = tr.call("soliton.exact_volume", tk.exact_volume, p)
        try:
            fp = tr.call("soliton.fano_normalize", tk.fano_normalize, p)
            out["fano"] = ([(f.u, f.b) for f in fp.base.forms], len(fp.vertices))
        except tk.NotFano:
            out["fano"] = "NotFano"
        point = vertex_pick if isinstance(vertex_pick, tuple) else p.vertices[vertex_pick].coordinates
        out["picked"] = point
        try:
            vm, q = tr.call("polytope.normalize_at_vertex", tk.normalize_at_vertex, p, point)
            out["normalized"] = (vm.matrix, vm.translation, [(f.u, f.b) for f in q.forms], len(q.vertices))
        except tk.NotDelzantVertex:
            out["normalized"] = "NotDelzantVertex"
        img = tr.call("polytope.apply_polytope", um.apply_polytope, p)
        out["image"] = {v.coordinates for v in img.vertices}

        builds = 3 + (out["normalized"] != "NotDelzantVertex")
        for _ in range(builds):
            enumeration_counts(tr, m, n, vcount)
        tr.count("soliton.simplices", 2 * len(out["simplices"]))
        return out

    return run


def _exact_check(um, want):
    n = want["n"]
    basis = [tuple(int(i == j) for j in range(n)) for i in range(n)]

    def check(out):
        bad = []
        verts = out["vertices"]
        if out["n"] != n or len(verts) != want["vertices"]:
            bad.append(f"{len(verts)} vertices in dim {out['n']}, want {want['vertices']} in dim {n}")
        if out["delzant"] != want["delzant"]:
            bad.append(f"delzant verdict {out['delzant']}")
        if not want["delzant"]:
            got = [(tuple(c), abs(d) if d is not None else None) for c, d in out["failing"]]
            if got != [(want["refused_vertex"], want["failing_det"])]:
                bad.append(f"failing vertices {got}")
        simplices = out["simplices"]
        vset = set(verts)
        if len(simplices) != want["simplices"]:
            bad.append(f"{len(simplices)} simplices, want {want['simplices']}")
        if any(len(s) != n + 1 or not set(s) <= vset for s in simplices):
            bad.append("a simplex is not n+1 polytope vertices")
        total = sum(
            (abs(exact_det([[a - b for a, b in zip(v, s[0])] for v in s[1:]])) for s in simplices),
            F(0),
        ) / factorial(n)
        if total != want["volume"]:
            bad.append(f"simplices cover volume {total}, want {want['volume']}")
        if out["volume"] != want["volume"]:
            bad.append(f"exact_volume {out['volume']}, want {want['volume']}")
        if want["fano"]:
            if out["fano"] == "NotFano":
                bad.append("unexpected NotFano")
            else:
                forms, count = out["fano"]
                if [u for u, _ in forms] != out["forms"] or any(b != -1 for _, b in forms) or count != len(verts):
                    bad.append("anticanonical model has wrong forms or vertex count")
        elif out["fano"] != "NotFano":
            bad.append("NotFano expected")
        if want["delzant"]:
            if out["normalized"] == "NotDelzantVertex":
                bad.append("normalize_at_vertex refused a Delzant vertex")
            else:
                matrix, shift, forms, count = out["normalized"]
                if forms[:n] != [(e, 0) for e in basis] or count != len(verts):
                    bad.append("normalized polytope does not start with the coordinate half spaces")
                if any(apply_affine(matrix, shift, out["picked"])):
                    bad.append("normalizing map does not send the vertex to the origin")
        elif out["normalized"] != "NotDelzantVertex":
            bad.append("NotDelzantVertex expected at the failing vertex")
        if out["image"] != {apply_affine(um.matrix, um.translation, v) for v in verts}:
            bad.append("apply_polytope vertices differ from A (v - t)")
        return bad

    return check


# ---------------------------------------------------------------------------
# curvature_field

def _potentials(tk, tr):
    def guillemin(name, *params):
        return tk.SymplecticPotential.guillemin(tr.call("polytope.catalog", tk.catalog, name, *params))

    h = tk.Polynomial(2, {(2, 2): F(1, 100)})
    pots = {
        "simplex(2)": (guillemin("simplex", 2), None),
        "cube(3)": (guillemin("cube", 3), None),
        "blowup_cp2(3)": (guillemin("blowup_cp2", 3), None),
        "cube(4)": (guillemin("cube", 4), None),
        "simplex(2)+h": (tk.SymplecticPotential(tr.call("polytope.catalog", tk.catalog, "simplex", 2), h),
                         oracle.hess_x2y2_over_100),
    }
    return pots


def _float_data(p):
    return np.array(p.normals_float), np.array(p.offsets_float)


def build_curvature_field(tk, rng, tr, tiny, workdir):
    pots = _potentials(tk, tr)
    cube2 = tk.SymplecticPotential.guillemin(tr.call("polytope.catalog", tk.catalog, "cube", 2))
    tasks = []

    def points(pot, count, frac):
        p = pot.polytope
        margin = frac * tk.sampling.diameter(p)
        seed = int(rng.integers(2**31))
        return tr.call("sampling.random_interior_points", tk.random_interior_points, p, count, margin=margin, rng=seed)

    guillemin = [k for k in pots if k != "simplex(2)+h"]
    sizes = {"n1": 1, "n100": 100, "n10000": 1000 if tiny else 10_000}
    for key in guillemin:
        pot, _ = pots[key]
        for size in ("n1", "n100"):
            a = rng.uniform(-0.5, 0.5, pot.n)
            tasks.append(_identity_task(tk, key, pot, a, points(pot, sizes[size], 0.02), size))
    pot, _ = pots["simplex(2)"]
    a = rng.uniform(-0.5, 0.5, 2)
    tasks.append(_identity_task(tk, "simplex(2)", pot, a, points(pot, sizes["n10000"], 0.02), "n10000"))

    def grid_size(pot, grid):
        return len(tr.call("sampling.interior_grid", tk.interior_grid, pot.polytope, grid))

    for key, grid in ref.EXTREMALITY_GRID.items():
        pot = pots[key][0]
        tasks.append(_extremality_task(tk, key, pot, grid, grid_size(pot, grid)))
    for key, grid in ref.EXTREMALITY_GRID.items():
        pot = pots[key][0]
        tasks.append(_verify_task(tk, key, pot, np.zeros(pot.n), grid, grid_size(pot, grid), "Einstein"))
    tasks.append(_verify_task(tk, "cube(2)", cube2, np.array([1.0, 0.0]), 20, grid_size(cube2, 20), "HypothesisFails"))

    for key, (pot, hess) in pots.items():
        tasks.append(_det_task(tk, key, pot, hess, points(pot, 50, 0.02)))
        vertices = pot.polytope.vertices
        tasks.append(_probe_task(tk, key, pot, hess, vertices[int(rng.integers(len(vertices)))]))
    for key, count in ref.FD_POINTS.items():
        if tiny and key == "cube(4)":
            continue
        pot = pots[key][0]
        tasks.append(_fd_task(tk, key, pot, points(pot, count, 0.05)))

    for key, (pot, hess) in pots.items():
        for x in points(pot, 8, 0.02):
            tasks.append(_jet_task(tk, key, pot, hess, x))
        if hess is None:
            for x in points(pot, 8, 0.02):
                tasks.append(_curvature_task(tk, key, pot, x, None))
        else:
            for x, s in ref.H_CURVATURE:
                tasks.append(_curvature_task(tk, key, pot, np.array(x), s))
    return tasks


def _identity_task(tk, key, pot, a, pts, size):
    normals, offsets = _float_data(pot.polytope)
    s = oracle.guillemin_curvature(normals, offsets, pts)
    ginv = np.linalg.inv(oracle.metric(normals, offsets, pts))
    vals = s + np.einsum("i,pij,j->p", a, ginv, a) + 2.0 * pts @ a
    want_const = float(vals.mean())
    want_resid = float(np.max(np.abs(vals - want_const)))
    name = f"curvature.identity_residual.{size}"

    def run(tr):
        tr.count("potential.jet_points", 2 * len(pts))
        return tr.call(name, tk.soliton_identity_residual, pot, a, pts, _points=len(pts))

    def check(out):
        const, resid = out
        bad = []
        if not close(const, want_const, CURVATURE_TOL):
            bad.append(f"constant {const!r}, closed form {want_const!r}")
        if abs(resid - want_resid) > CURVATURE_TOL * max(1.0, abs(want_const)):
            bad.append(f"residual {resid!r}, closed form {want_resid!r}")
        return bad

    return Task(f"identity_residual:{key}:{size}", run, check)


def _extremality_task(tk, key, pot, grid, npts):
    want = ref.EXTREMALITY[key]

    def run(tr):
        tr.count("potential.jet_points", npts)
        ok, fit = tr.call("curvature.extremality_check", tk.extremality_check, pot, grid=grid)
        return ok, fit.constant, np.array(fit.gradient), fit.n_samples

    def check(out):
        ok, const, grad, count = out
        bad = []
        if ok != want["extremal"] or count != npts:
            bad.append(f"extremal {ok} on {count} samples")
        fit_ok = close(const, want["constant"], CURVATURE_TOL) and np.allclose(grad, want["gradient"], rtol=0, atol=1e-7)
        if not fit_ok:
            bad.append(f"fit {const!r} + {grad.tolist()} differs from {want['constant']!r} + {want['gradient']}")
        return bad

    return Task(f"extremality_check:{key}", run, check)


def _verify_task(tk, key, pot, a, grid, npts, conclusion):

    def run(tr):
        tr.count("potential.jet_points", npts)
        v = tr.call("soliton.verify_einstein", tk.verify_einstein, pot, a, grid=grid)
        return v.conclusion.value, v.fit.constant, np.array(v.fit.gradient), v.fit.max_residual

    def check(out):
        got, const, grad, resid = out
        if got != conclusion:
            return [f"conclusion {got}, want {conclusion}"]
        if conclusion == "Einstein" and (abs(const) > 1e-12 or np.max(np.abs(grad)) > 1e-12):
            return [f"q = 0 fitted as {const!r} + {grad.tolist()}"]
        if conclusion == "HypothesisFails" and resid < 0.1:
            return [f"affine residual {resid!r} too small for HypothesisFails"]
        return []

    return Task(f"verify_einstein:{key}:{conclusion}", run, check)


def _det_task(tk, key, pot, hess, pts):
    normals, offsets = _float_data(pot.polytope)
    lam = oracle.lambdas(normals, offsets, pts)
    want = 1.0 / (np.linalg.det(oracle.metric(normals, offsets, pts, hess)) * np.prod(lam, axis=1))
    want_pass = bool(want.min() > 0 and want.max() / want.min() <= 1e3)

    def run(tr):
        tr.count("potential.jet_points", len(pts))
        rep = tr.call("potential.det_factorization_check", tk.det_factorization_check, pot, pts)
        return rep.deltas.copy(), rep.passed

    def check(out):
        deltas, passed = out
        bad = []
        if not close(deltas, want, METRIC_TOL):
            bad.append(f"delta off by {oracle.rel_err(deltas, want):.2e}")
        if key in ref.DELTA and not close(deltas, ref.DELTA[key], METRIC_TOL):
            bad.append(f"delta not the constant {ref.DELTA[key]}")
        if passed != want_pass:
            bad.append(f"passed {passed}")
        return bad

    return Task(f"det_factorization_check:{key}", run, check)


def _probe_task(tk, key, pot, hess, vertex):
    ray = np.sum([np.array(g, dtype=float) for g in vertex.edge_generators], axis=0)
    ray /= np.linalg.norm(ray)
    ts = 1e-2 * 2.0 ** -np.arange(15)
    normals, offsets = _float_data(pot.polytope)
    pts = vertex.as_float()[None, :] + ts[:, None] * ray[None, :]
    want = np.abs(np.linalg.inv(oracle.metric(normals, offsets, pts, hess))).max(axis=(1, 2))

    def run(tr):
        tr.count("potential.jet_points", len(ts))
        probe = tr.call("potential.vertex_vanishing_probe", tk.vertex_vanishing_probe, pot, vertex, ray, ts)
        return probe.norms.copy(), probe.slope, probe.passed

    def check(out):
        norms, slope, passed = out
        bad = []
        if not close(norms / want, np.ones_like(want), PROBE_TOL):
            bad.append(f"|G^-1| off by {oracle.rel_err(norms / want, 1.0):.2e}")
        if not passed or slope < 0.9:
            bad.append(f"probe failed: slope {slope!r}")
        return bad

    return Task(f"vertex_vanishing_probe:{key}", run, check)


def _fd_task(tk, key, pot, pts):
    n = pot.n
    stencil = 1 + 2 * n * n     # distinct G^{-1} evaluations per FD level

    def run(tr):
        tr.count("potential.jet_points", len(pts) * (1 + 3 * stencil))
        rep = tr.call("curvature.fd_cross_validate", tk.fd_cross_validate, pot, pts)
        return rep.max_rel_err, rep.n_points, rep.passed

    def check(out):
        err, count, passed = out
        if not passed or err > FD_TOL or count != len(pts):
            return [f"analytic vs FD relative error {err!r} on {count} points"]
        return []

    return Task(f"fd_cross_validate:{key}", run, check)


def _jet_task(tk, key, pot, hess, x):
    normals, offsets = _float_data(pot.polytope)
    g = oracle.metric(normals, offsets, x, hess)[0]
    want_inv, want_det = np.linalg.inv(g), float(np.linalg.det(g))

    def run(tr):
        tr.count("potential.jet_points", 1)
        jet = tr.call("potential.metric_jet", tk.metric_jet, pot, x)
        return jet.G_inv.copy(), jet.det_G

    def check(out):
        ginv, det = out
        if not close(ginv, want_inv, METRIC_TOL) or not close(det, want_det, METRIC_TOL):
            return [f"G^-1 or det G differs at {x.tolist()}"]
        return []

    return Task(f"metric_jet:{key}", run, check)


def _curvature_task(tk, key, pot, x, frozen):
    if frozen is None:
        normals, offsets = _float_data(pot.polytope)
        want = float(oracle.guillemin_curvature(normals, offsets, x)[0])
    else:
        want = frozen

    def run(tr):
        tr.count("potential.jet_points", 1)
        return tr.call("curvature.scalar_curvature", tk.scalar_curvature, pot, x)

    def check(s):
        if not close(s, want, CURVATURE_TOL):
            return [f"s({x.tolist()}) = {s!r}, want {want!r}"]
        return []

    return Task(f"scalar_curvature:{key}", run, check)


# ---------------------------------------------------------------------------
# soliton_verdict

def build_soliton_verdict(tk, rng, tr, tiny, workdir):
    tasks = []
    for label, n, images in ref.SOLITON_INPUTS:
        if tiny and n >= 4:
            continue
        base = _soliton_input(tk, tr, label)
        for k in range(images if not tiny else min(images, 2)):
            if k == 0:
                a_map = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
                p = base
            else:
                # a shear in dim 3 can leave too few verdict grid points
                a_map = lattice_map(rng, n, 1 if n == 2 else 0)
                p = tr.call("polytope.apply_polytope", tk.UnimodularMap(a_map, (F(0),) * n).apply_polytope, base)
            tasks.append(_soliton_task(tk, label, p, np.array(a_map, dtype=float), k))
    return tasks


def _soliton_input(tk, tr, label):
    if label in ref.SOLITON_FORMS:
        forms = [tk.AffineForm(u, F(-1)) for u in ref.SOLITON_FORMS[label]]
        return tr.call("polytope.from_forms", tk.DelzantPolytope.from_forms, forms)
    name, params = ref.parse_label(label)
    return tr.call("polytope.catalog", tk.catalog, name, *params)


def _soliton_task(tk, label, p, a_map, image):
    n = p.n
    grid = VERDICT_GRID[n]
    want = ref.soliton_expected(label)
    if want is not None:
        simplices = ref.SOLITON_SIMPLICES[label]
        inv_t = np.linalg.inv(a_map).T
        want_a = inv_t @ np.array(want["a"])
        want_m2 = a_map @ np.array(want["m2"]) @ a_map.T
    kind = f"soliton:{label}:{'image' if image else 'given'}"

    def run(tr):
        enumeration_counts(tr, len(p.forms), n, len(p.vertices))
        try:
            fp = tr.call("soliton.fano_normalize", tk.fano_normalize, p)
        except tk.NotFano:
            return "NotFano"
        data = tr.call("soliton.soliton_vector", tk.soliton_vector, fp)
        moments = [
            np.array(tr.call("soliton.polytope_integral", tk.polytope_integral, fp, data.a, which))
            for which in ("1", "x", "xx")
        ]
        pot = tk.SymplecticPotential.guillemin(fp.base)
        verdict = tr.call("soliton.verify_einstein", tk.verify_einstein, pot, data.a, grid=grid)
        tr.count("soliton.simplices", simplices)
        tr.count("soliton.quadrature_nodes", simplices * QUADRATURE_ORDER**n)
        tr.count("soliton.newton_iterations", data.iterations)
        tr.count("potential.jet_points", verdict.fit.n_samples)
        return data.a.copy(), data.gradient_residual, moments, verdict.conclusion.value

    def check(out):
        if want is None:
            return [] if out == "NotFano" else ["NotFano expected"]
        if out == "NotFano":
            return ["unexpected NotFano"]
        a, resid, (m0, m1, m2), conclusion = out
        bad = []
        if np.max(np.abs(a - want_a)) > SOLITON_TOL or resid > 1e-10:
            bad.append(f"soliton {a.tolist()} (residual {resid:.1e}), want {want_a.tolist()}")
        scale = max(1.0, float(np.max(np.abs(want_m2))))
        if abs(float(m0) - want["m0"]) > MOMENT_TOL * max(1.0, want["m0"]):
            bad.append(f"integral of e^<a,x> {float(m0)!r}, want {want['m0']!r}")
        if np.max(np.abs(m1)) > MOMENT_TOL * scale:
            bad.append(f"barycenter {m1.tolist()} does not vanish at the solution")
        if np.max(np.abs(m2 - want_m2)) > MOMENT_TOL * scale:
            bad.append("second moment differs from the reference")
        if conclusion != want["conclusion"]:
            bad.append(f"conclusion {conclusion}, want {want['conclusion']}")
        return bad

    return Task(kind, run, check)


# ---------------------------------------------------------------------------
# cli_reports

def build_cli_reports(tk, rng, tr, tiny, workdir):
    from torickit import cli

    os.makedirs(workdir, exist_ok=True)
    bl2, cube2 = tk.catalog("blowup_cp2", 2), tk.catalog("cube", 2)
    tasks = []
    for v in range(1 if tiny else CLI_VARIANTS):
        specs = _cli_specs(tk, rng, bl2, cube2, lambda name: os.path.join(workdir, f"{v}-{name}"))
        tasks += [_cli_task(cli, argv, code, check) for argv, code, check in specs]
    return tasks


def _cli_specs(tk, rng, bl2, cube2, path):
    """One variant of the argv mix, with its own seeded input files."""
    def write(name, doc):
        with open(path(name), "w") as fh:
            json.dump(doc, fh)
        return path(name)

    um = tk.UnimodularMap(lattice_map(rng, 2, 2), lattice_shift(rng, 2, 2))
    img = um.apply_polytope(bl2)
    polytope = write("polytope_image.json", img.to_json())
    # one shear keeps the square wide enough for a 6-point grid
    square = tk.UnimodularMap(lattice_map(rng, 2, 1), (F(0), F(0))).apply_polytope(cube2)
    potential = write("potential_image.json", {"polytope": square.to_json(), "h": {"monomials": []}})
    potential_h = write("potential_h.json", ref.POTENTIAL_H_DOC)
    triangle = write("triangle.json", ref.TRIANGLE_DOC)
    img_vertices = sorted(tuple(str(c) for c in v.coordinates) for v in img.vertices)
    a_img = list(np.linalg.inv(np.array(um.matrix, dtype=float)).T @ np.array(ref.SOLITON["blowup_cp2(2)"]["a"]))
    seeds = [str(int(s)) for s in rng.integers(0, 2**31, size=2)]
    return [
        (["delzant", "--catalog", "simplex(2)"], 0, _delzant_json(3, True)),
        (["delzant", "--catalog", "cube(3)", "--format", "csv"], 0, _delzant_csv(8, 0)),
        (["delzant", "--input", polytope, "--output", path("delzant.json")], 0, _delzant_json(5, True, img_vertices)),
        (["delzant", "--input", triangle], 1, _delzant_json(3, False)),
        (["delzant", "--input", triangle, "--format", "csv"], 1, _delzant_csv(3, 1)),
        (["delzant", "--catalog", "nosuch(2)"], 2, _stderr_error),
        (["curvature", "--catalog", "simplex(2)", "--grid", "6"], 0, _curvature_json(lambda x: 12.0, None)),
        (["curvature", "--catalog", "hirzebruch(1)", "--grid", "5", "--format", "csv"], ref.CLI_HIRZEBRUCH1_EXIT,
         _curvature_csv(_guillemin_s(tk.catalog("hirzebruch", 1)), None)),
        (["curvature", "--input", potential_h, "--grid", "5", "--output", path("curvature.json")],
         ref.CLI_POTENTIAL_H_EXIT, _curvature_json(None, ref.CLI_POTENTIAL_H_SAMPLES)),
        (["curvature", "--input", potential, "--random", "30", "--seed", seeds[0], "--grid", "6"], 0,
         _curvature_json(lambda x: 8.0, None, count=30)),
        (["curvature", "--catalog", "simplex(1)", "--random", "40", "--seed", seeds[1], "--grid", "8",
          "--format", "csv", "--output", path("curvature.csv")], 0, _curvature_csv(lambda x: 4.0, 40)),
        (["soliton", "--catalog", "blowup_cp2(1)"], 0, _soliton_json(ref.SOLITON["blowup_cp2(1)"]["a"])),
        (["soliton", "--catalog", "cube(3)", "--format", "csv"], 0, _soliton_csv([0.0, 0.0, 0.0])),
        (["soliton", "--input", polytope, "--output", path("soliton.json")], 0, _soliton_json(a_img)),
        (["soliton", "--catalog", "hirzebruch(2)"], 1, _stderr_error),
        (["verify", "--catalog", "cube(2)", "-a", "0", "0"], 0, _verify_json("Einstein")),
        (["verify", "--catalog", "cube(2)", "-a", "1", "0", "--format", "csv"], 3, _verify_csv("HypothesisFails")),
        (["verify", "--catalog", "blowup_cp2(1)", "--from-soliton", "--grid", "7"], 3, _verify_json("HypothesisFails")),
        (["verify", "--catalog", "blowup_cp2(3)", "--from-soliton", "--grid", "7", "--format", "csv"], 0,
         _verify_csv("Einstein")),
        (["verify", "--input", potential, "-a", "0", "0", "--grid", "6", "--output", path("verify.json")], 0,
         _verify_json("Einstein")),
    ]


def _cli_task(cli, argv, want_code, check_report):
    output = argv[argv.index("--output") + 1] if "--output" in argv else None
    name = f"cli.{argv[0]}"

    def run(tr):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = tr.call(name, cli.main, argv)
        text = stdout.getvalue()
        if output is not None:
            with open(output) as fh:
                text = fh.read()
        tr.count("cli.report_bytes", len(text.encode()))
        return code, text, stderr.getvalue()

    def check(out):
        code, text, err = out
        if code != want_code:
            return [f"exit {code}, want {want_code}: {err.strip()[:200]}"]
        return check_report(text, err)

    fmt = "csv" if "csv" in argv else "json"
    return Task(f"cli:{argv[0]}:{fmt}:exit{want_code}", run, check)


def _guillemin_s(p):
    normals, offsets = _float_data(p)
    return lambda x: float(oracle.guillemin_curvature(normals, offsets, np.array(x))[0])


def _stderr_error(text, err):
    return [] if err.startswith("error:") and not text else [f"expected an error message, got {err!r}"]


def _delzant_json(vertices, delzant, coords=None):
    def check(text, err):
        doc = json.loads(text)
        bad = []
        if doc["is_delzant"] != delzant or len(doc["vertices"]) != vertices:
            bad.append(f"is_delzant {doc['is_delzant']} with {len(doc['vertices'])} vertices")
        if coords is not None and sorted(tuple(v["coordinates"]) for v in doc["vertices"]) != coords:
            bad.append("vertex coordinates differ from the mapped polytope")
        return bad
    return check


def _delzant_csv(rows, failing):
    def check(text, err):
        body = list(csv.DictReader(io.StringIO(text)))
        bad_rows = sum(1 for r in body if float(r["delzant"]) == 0.0)
        if len(body) != rows or bad_rows != failing:
            return [f"{len(body)} rows with {bad_rows} failing vertices"]
        return []
    return check


def _samples_check(samples, s_of, frozen, count):
    if count is not None and len(samples) != count:
        return [f"{len(samples)} samples, want {count}"]
    if frozen is not None:
        want = np.array(frozen)
        got = np.array(samples)
        if got.shape != want.shape or not close(got, want, CURVATURE_TOL):
            return ["samples differ from the reference"]
        return []
    for row in samples:
        x, s = row[:-1], row[-1]
        if not close(s, s_of(x), CURVATURE_TOL):
            return [f"s({x}) = {s!r}, want {s_of(x)!r}"]
    return []


def _curvature_json(s_of, frozen, count=None):
    def check(text, err):
        return _samples_check(json.loads(text)["samples"], s_of, frozen, count)
    return check


def _curvature_csv(s_of, count):
    def check(text, err):
        lines = [l for l in text.splitlines() if l and not l.startswith("#")]
        rows = [[float(c) for c in l.split(",")] for l in lines[1:]]
        if not text.splitlines()[-1].startswith("# affine_fit"):
            return ["missing affine_fit summary line"]
        return _samples_check(rows, s_of, None, count)
    return check


def _soliton_json(want):
    def check(text, err):
        a = json.loads(text)["soliton"]["a"]
        return [] if np.max(np.abs(np.array(a) - want)) <= SOLITON_TOL else [f"soliton {a}, want {list(want)}"]
    return check


def _soliton_csv(want):
    def check(text, err):
        row = next(csv.DictReader(io.StringIO(text)))
        a = [float(row[f"a_{i + 1}"]) for i in range(len(want))]
        return [] if np.max(np.abs(np.array(a) - want)) <= SOLITON_TOL else [f"soliton {a}, want {want}"]
    return check


def _verify_json(conclusion):
    def check(text, err):
        got = json.loads(text)["conclusion"]
        return [] if got == conclusion else [f"conclusion {got}, want {conclusion}"]
    return check


def _verify_csv(conclusion):
    def check(text, err):
        got = next(csv.DictReader(io.StringIO(text)))["conclusion"]
        return [] if got == conclusion else [f"conclusion {got}, want {conclusion}"]
    return check


# Builders take (package, generator, tracer, tiny, directory for CLI files).
WORKLOADS = {
    "exact_sweep": build_exact_sweep,
    "curvature_field": build_curvature_field,
    "soliton_verdict": build_soliton_verdict,
    "cli_reports": build_cli_reports,
}
