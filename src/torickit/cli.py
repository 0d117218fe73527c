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
import json
import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import sampling
from .curvature import ScalarField, extremality_from_samples, scalar_curvatures
from .errors import BadMargin, BadParams, ParseError, ToricError, UnknownName
from .polytope import (
    DelzantPolytope,
    catalog,
    check_delzant,
    polytope_from_json,
)
from .potential import SymplecticPotential, potential_from_json
from .soliton import Conclusion, fano_normalize, soliton_vector, verify_einstein

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


@dataclass(frozen=True)
class RunConfig:
    command: str
    input: str | None
    catalog: str | None
    grid: int
    tol: float | None
    margin: float | None
    fmt: str
    seed: int

    def to_json(self) -> dict:
        return {
            "command": self.command,
            "input": self.input,
            "catalog": self.catalog,
            "grid": self.grid,
            "tol": self.tol,
            "margin": self.margin,
            "format": self.fmt,
            "seed": self.seed,
        }


def _config_from_args(args) -> RunConfig:
    grid = getattr(args, "grid", 20)
    if grid < 3:
        raise ParseError(f"grid resolution must be at least 3 per axis, got {grid}")
    tol = getattr(args, "tol", None)
    if tol is not None and not (0 < tol < math.inf):
        raise ParseError(f"tolerance must be positive and finite, got {tol}")
    margin = getattr(args, "margin", None)
    if margin is not None and not (0 < margin < math.inf):
        raise ParseError(f"margin must be positive and finite, got {margin}")
    if getattr(args, "random", 0) < 0:
        raise ParseError(f"--random needs a point count >= 0, got {args.random}")
    return RunConfig(
        command=args.command,
        input=getattr(args, "input", None),
        catalog=getattr(args, "catalog", None),
        grid=grid,
        tol=tol,
        margin=margin,
        fmt=getattr(args, "format", "json"),
        seed=getattr(args, "seed", 0),
    )


def _parse_catalog_name(text: str) -> DelzantPolytope:
    m = _CATALOG_RE.match(text)
    if m is None:
        raise ParseError(f"cannot parse catalog name {text!r}")
    name, argstr = m.group(1), m.group(2)
    params = []
    for tok in (argstr or "").split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            params.append(int(tok))
        except ValueError:
            try:
                params.append(Fraction(tok))
            except (ValueError, ZeroDivisionError) as e:
                raise ParseError(f"bad catalog parameter {tok!r}") from e
    return catalog(name, *params)


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ParseError(f"malformed JSON in {path}: {e}") from e


def _load_potential(args) -> SymplecticPotential:
    """Potential from --input (potential or bare polytope document) or
    --catalog (Guillemin)."""
    if getattr(args, "catalog", None) and getattr(args, "input", None):
        raise ParseError("pass only one of --input or --catalog")
    if getattr(args, "catalog", None):
        return SymplecticPotential.guillemin(_parse_catalog_name(args.catalog))
    if getattr(args, "input", None):
        doc = _load_json(args.input)
        if isinstance(doc, dict) and "polytope" in doc:
            return potential_from_json(doc)
        return SymplecticPotential.guillemin(polytope_from_json(doc))
    raise ParseError("one of --input or --catalog is required")


def _load_polytope(args) -> DelzantPolytope:
    return _load_potential(args).polytope


def _emit(text: str, args) -> None:
    out = getattr(args, "output", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(doc: dict, args) -> None:
    _emit(json.dumps(doc, sort_keys=True, indent=2) + "\n", args)


def _csv_cell(c) -> str:
    if isinstance(c, (int, np.integer)):  # bools too, as 1 / 0
        return str(int(c))
    return repr(float(c)) if isinstance(c, (float, np.floating)) else str(c)


def _csv_rows(header: list[str], rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_cell(c) for c in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands

def cmd_delzant(args) -> int:
    config = _config_from_args(args)
    p = _load_polytope(args)
    report = check_delzant(p)
    doc = {"config": config.to_json(), "polytope": p.to_json()}
    doc.update(report.to_json())
    if config.fmt == "csv":
        header = [f"x_{i + 1}" for i in range(p.n)] + [
            "facet_count",
            "edge_count",
            "edge_det",
            "delzant",
        ]
        rows = [
            [float(c) for c in r.coordinates]
            + [r.facet_count, r.edge_count, r.edge_det, r.ok]
            for r in report.vertex_reports
        ]
        _emit(_csv_rows(header, rows), args)
    else:
        _emit_json(doc, args)
    return EXIT_OK if report.is_delzant else EXIT_CHECK_FAILED


def cmd_curvature(args) -> int:
    config = _config_from_args(args)
    pot = _load_potential(args)
    method = getattr(args, "method", "analytic")
    field = ScalarField(pot, method=method)
    if getattr(args, "random", 0):
        pts = sampling.random_interior_points(
            pot.polytope, args.random, margin=config.margin, rng=config.seed
        )
    else:
        pts = sampling.interior_grid(pot.polytope, config.grid, config.margin)
    values = field.sample(pts)
    # The affinity test always fits analytic curvature on the grid.
    if getattr(args, "random", 0) or method != "analytic":
        grid_pts = sampling.interior_grid(pot.polytope, config.grid, config.margin)
        grid_values = scalar_curvatures(pot, grid_pts)
    else:
        grid_pts, grid_values = pts, values
    is_extremal, fit = extremality_from_samples(grid_pts, grid_values, config.tol)
    if config.fmt == "csv":
        header = [f"x_{i + 1}" for i in range(pot.n)] + ["s"]
        body = _csv_rows(header, [list(map(float, x)) + [v] for x, v in zip(pts, values)])
        summary = (
            f"# affine_fit constant={fit.constant!r}"
            f" gradient={[float(c) for c in fit.gradient]!r}"
            f" max_residual={fit.max_residual!r}"
            f" is_extremal={is_extremal}\n"
        )
        _emit(body + summary, args)
    else:
        doc = {
            "config": config.to_json(),
            "samples": [list(map(float, x)) + [float(v)] for x, v in zip(pts, values)],
            "affine_fit": fit.to_json(),
            "is_extremal": is_extremal,
        }
        _emit_json(doc, args)
    return EXIT_OK if is_extremal else EXIT_CHECK_FAILED


def cmd_soliton(args) -> int:
    config = _config_from_args(args)
    p = _load_polytope(args)
    fp = fano_normalize(p)
    tol = config.tol if config.tol is not None else 1e-10
    data = soliton_vector(fp, tol=tol)
    doc = {
        "config": config.to_json(),
        "anticanonical": fp.to_json(),
        "soliton": data.to_json(),
    }
    if config.fmt == "csv":
        header = [f"a_{i + 1}" for i in range(p.n)] + ["gradient_residual", "iterations"]
        row = [float(c) for c in data.a] + [data.gradient_residual, data.iterations]
        _emit(_csv_rows(header, [row]), args)
    else:
        _emit_json(doc, args)
    return EXIT_OK


def cmd_verify(args) -> int:
    config = _config_from_args(args)
    pot = _load_potential(args)
    if args.from_soliton:
        fp = fano_normalize(pot.polytope)
        a = soliton_vector(fp).a
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
    verdict = verify_einstein(
        pot,
        a,
        grid=config.grid,
        margin=config.margin,
        affinity_tol=config.tol,
        vertex_tol=config.tol,
    )
    doc = {"config": config.to_json(), "a": [float(c) for c in a]}
    doc.update(verdict.to_json())
    if config.fmt == "csv":
        header = (
            ["conclusion", "constant"]
            + [f"gradient_{i + 1}" for i in range(pot.n)]
            + ["max_residual", "rank"]
        )
        row = (
            [verdict.conclusion.value, verdict.fit.constant]
            + [float(c) for c in verdict.fit.gradient]
            + [verdict.fit.max_residual, verdict.rank]
        )
        _emit(_csv_rows(header, [row]), args)
    else:
        _emit_json(doc, args)
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
    sub.add_argument("--from-soliton", action="store_true", help="compute the vector from the anticanonical model first")
    sub.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, UnknownName, BadParams, BadMargin) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except ToricError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_CHECK_FAILED


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
