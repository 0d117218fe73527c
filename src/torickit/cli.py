"""Command-line front end.

Subcommands: delzant, curvature, soliton, verify.  Inputs are either a
catalog name (--catalog "simplex(2)") or a JSON file (--input) holding a
polytope document {"n", "forms"} or a potential document {"polytope",
"h"}; commands that only need the polytope accept both.  Reports are
JSON (sorted keys, indented, so identical runs are byte-identical) or
CSV with columns x_1..x_n followed by value columns.

Exit codes: 0 success / Einstein, 1 failed check or geometric error,
2 bad input or configuration, 3 HypothesisFails, 4 Inconclusive.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys

import numpy as np

from . import exact, sampling
from .curvature import extremality_from_samples, scalar_curvatures, scalar_curvatures_fd
from .errors import BadMargin, BadParams, OutOfFloatRange, ParseError, RedundantForm, ToricError, UnknownName
from .polytope import DelzantPolytope, catalog, check_delzant, polytope_from_json
from .potential import SymplecticPotential, potential_from_json
from .soliton import NEWTON_TOL, Conclusion, fano_normalize, soliton_vector, verify_einstein

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_HYPOTHESIS_FAILS = 3
EXIT_INCONCLUSIVE = 4

CONCLUSION_EXIT = {
    Conclusion.EINSTEIN: EXIT_OK,
    Conclusion.HYPOTHESIS_FAILS: EXIT_HYPOTHESIS_FAILS,
    Conclusion.INCONCLUSIVE: EXIT_INCONCLUSIVE,
}

_CATALOG_RE = re.compile(r"^\s*([a-z_][a-z0-9_]*)\s*(?:\(([^)]*)\))?\s*$")


def _config(args) -> dict:
    """Check the numeric options; the run configuration echoed in JSON reports."""
    if args.grid < 3:
        raise ParseError(f"grid resolution must be at least 3 per axis, got {args.grid}")
    if args.tol is not None and not (0 < args.tol < math.inf):
        raise ParseError(f"tolerance must be positive and finite, got {args.tol}")
    if args.margin is not None and not (0 < args.margin < math.inf):
        raise ParseError(f"margin must be positive and finite, got {args.margin}")
    if args.seed < 0:
        raise ParseError(f"--seed must be >= 0, got {args.seed}")
    if getattr(args, "random", 0) < 0:
        raise ParseError(f"--random needs a point count >= 0, got {args.random}")
    return {
        "command": args.command,
        "input": args.input,
        "catalog": args.catalog,
        "grid": args.grid,
        "tol": args.tol,
        "margin": args.margin,
        "format": args.format,
        "seed": args.seed,
    }


def _parse_catalog_name(text: str) -> DelzantPolytope:
    m = _CATALOG_RE.match(text)
    if m is None:
        raise ParseError(f"cannot parse catalog name {text!r}")
    name, argstr = m.group(1), m.group(2)
    with exact.parsing(f"bad catalog parameters {argstr!r}"):
        params = [exact.frac(tok) for tok in (argstr or "").split(",") if tok.strip()]
    return catalog(name, *params)


def _load_potential(args) -> SymplecticPotential:
    """Potential from --input (potential or bare polytope document) or
    --catalog (Guillemin)."""
    if args.catalog and args.input:
        raise ParseError("pass only one of --input or --catalog")
    if args.catalog:
        return SymplecticPotential.guillemin(_parse_catalog_name(args.catalog))
    if not args.input:
        raise ParseError("one of --input or --catalog is required")
    try:
        with open(args.input, "rb") as fh:
            text = fh.read()
    except OSError as e:
        raise ParseError(f"cannot read {args.input}: {e}") from e
    doc = exact.document(text, "input")
    if "polytope" in doc:
        return potential_from_json(doc)
    return SymplecticPotential.guillemin(polytope_from_json(doc))


def _csv_cell(c) -> str:
    if isinstance(c, (int, np.integer)):  # bools too, as 1 / 0
        return str(int(c))
    return repr(float(c)) if isinstance(c, (float, np.floating)) else str(c)


def _report(args, doc: dict, header: list[str], rows) -> None:
    """Write `doc` as JSON, or `header` and `rows` as CSV, to --output or stdout.

    `rows` is read only for CSV.
    """
    if args.format == "csv":
        lines = [",".join(header)] + [",".join(map(_csv_cell, row)) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as e:
            raise ParseError(f"cannot write {args.output}: {e}") from e
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands

def cmd_delzant(args) -> int:
    config = _config(args)
    p = _load_potential(args).polytope
    report = check_delzant(p)
    doc = {"config": config, "polytope": p.to_json(), **report.to_json()}
    header = [f"x_{i + 1}" for i in range(p.n)] + ["facet_count", "edge_count", "edge_det", "delzant"]
    rows = (
        [*exact.floats(r.coordinates), r.facet_count, r.edge_count, r.edge_det, r.ok]
        for r in report.vertex_reports
    )
    _report(args, doc, header, rows)
    return EXIT_OK if report.is_delzant else EXIT_CHECK_FAILED


def cmd_curvature(args) -> int:
    config = _config(args)
    pot = _load_potential(args)
    if args.random:
        pts = sampling.random_interior_points(
            pot.polytope, args.random, margin=args.margin, rng=args.seed
        )
    else:
        pts = sampling.interior_grid(pot.polytope, args.grid, args.margin)
    with np.errstate(all="ignore"):  # refused below when not finite
        values = (scalar_curvatures if args.method == "analytic" else scalar_curvatures_fd)(pot, pts)
        # The affinity test always fits analytic curvature on the grid.
        if args.random or args.method != "analytic":
            grid_pts = sampling.interior_grid(pot.polytope, args.grid, args.margin)
            grid_values = scalar_curvatures(pot, grid_pts)
        else:
            grid_pts, grid_values = pts, values
    if not (np.all(np.isfinite(values)) and np.all(np.isfinite(grid_values))):
        raise OutOfFloatRange("s is not finite at every sample")
    is_extremal, fit = extremality_from_samples(grid_pts, grid_values, args.tol)
    samples = [list(map(float, x)) + [float(v)] for x, v in zip(pts, values)]
    doc = {"config": config, "samples": samples, "affine_fit": fit.to_json(), "is_extremal": is_extremal}
    summary = (
        f"# affine_fit constant={fit.constant!r}"
        f" gradient={[float(c) for c in fit.gradient]!r}"
        f" max_residual={fit.max_residual!r}"
        f" is_extremal={is_extremal}"
    )
    header = [f"x_{i + 1}" for i in range(pot.n)] + ["s"]
    _report(args, doc, header, samples + [[summary]])
    return EXIT_OK if is_extremal else EXIT_CHECK_FAILED


def cmd_soliton(args) -> int:
    config = _config(args)
    fp = fano_normalize(_load_potential(args).polytope)
    data = soliton_vector(fp, tol=NEWTON_TOL if args.tol is None else args.tol)
    doc = {"config": config, "anticanonical": fp.to_json(), "soliton": data.to_json()}
    header = [f"a_{i + 1}" for i in range(fp.n)] + ["gradient_residual", "iterations"]
    _report(args, doc, header, [[*map(float, data.a), data.gradient_residual, data.iterations]])
    return EXIT_OK


def cmd_verify(args) -> int:
    config = _config(args)
    pot = _load_potential(args)
    if args.from_soliton:
        a = soliton_vector(fano_normalize(pot.polytope)).a
    elif args.a is not None:
        if len(args.a) != pot.n:
            raise ParseError(
                f"-a expects {pot.n} components for this polytope, got {len(args.a)}"
            )
        a = np.array(args.a, dtype=float)
        if not np.all(np.isfinite(a)):
            raise ParseError(f"-a components must be finite, got {args.a}")
    else:
        raise ParseError("one of -a or --from-soliton is required")
    verdict = verify_einstein(pot, a, grid=args.grid, margin=args.margin, tol=args.tol)
    doc = {"config": config, "a": [float(c) for c in a], **verdict.to_json()}
    header = (
        ["conclusion", "constant"]
        + [f"gradient_{i + 1}" for i in range(pot.n)]
        + ["max_residual", "rank"]
    )
    fit = verdict.fit
    row = [verdict.conclusion.value, fit.constant, *map(float, fit.gradient), fit.max_residual, verdict.rank]
    _report(args, doc, header, [row])
    return CONCLUSION_EXIT[verdict.conclusion]


# ---------------------------------------------------------------------------
# parser

def _add_common(sub, grid_default=20):
    sub.add_argument("--input", help="JSON polytope or potential file")
    sub.add_argument("--catalog", help='catalog name, e.g. "simplex(2)" or "hirzebruch(1)"')
    sub.add_argument("--grid", type=int, default=grid_default, help="interior grid points per axis")
    sub.add_argument("--tol", type=float, default=None, help="decision tolerance")
    sub.add_argument("--margin", type=float, default=None, help="distance kept from the boundary")
    sub.add_argument("--format", choices=["json", "csv"], default="json")
    sub.add_argument("--output", help="write the report here instead of stdout")
    sub.add_argument("--seed", type=int, default=0, help="seed for randomized point sets")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torickit",
        description="Delzant combinatorics, toric Kähler curvature, and soliton verification.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("delzant", help="check the Delzant conditions vertex by vertex")
    _add_common(sub)
    sub.set_defaults(func=cmd_delzant)

    sub = subs.add_parser("curvature", help="sample scalar curvature and test extremality")
    _add_common(sub)
    sub.add_argument("--method", choices=["analytic", "finite-difference"], default="analytic")
    sub.add_argument("--random", type=int, default=0, help="sample N seeded random interior points instead of the grid")
    sub.set_defaults(func=cmd_curvature)

    sub = subs.add_parser("soliton", help="solve the vanishing weighted-barycenter condition")
    _add_common(sub)
    sub.set_defaults(func=cmd_soliton)

    sub = subs.add_parser("verify", help="replay the Einstein verdict pipeline")
    _add_common(sub)
    sub.add_argument("-a", type=float, nargs="+", default=None, help="soliton vector components")
    # a number such as -1e-3, which soliton prints, is no option (argparse knows only -1 and -.5)
    sub._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")
    sub.add_argument("--from-soliton", action="store_true", help="compute the vector from the anticanonical model first")
    sub.set_defaults(func=cmd_verify)

    return parser


_parser = functools.cache(build_parser)  # prog is fixed, so one parser serves every call


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, UnknownName, BadParams, BadMargin, OutOfFloatRange, RedundantForm) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except ToricError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except MemoryError as e:  # a grid or sample count too large to hold
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
