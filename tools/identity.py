#!/usr/bin/env python3
"""Output identity of the command line between two source trees.

    python3 tools/identity.py --record before.json --tree /path/to/other/checkout
    python3 tools/identity.py --record after.json
    python3 tools/identity.py --compare before.json after.json

`--record` runs every argv of `bench/workloads.py::_cli_specs`, all
`CLI_VARIANTS` variants at seeds 1-3, through `torickit.cli.main` in this
process, as the cli_reports workload builds them.  The package comes from
`<tree>/src` (default: this checkout); the argv mix always comes from this
checkout's `bench/`, which is only imported.  Each record holds the exit
code, stderr and the report (stdout, or the `--output` file), with the
directory of the input and report files replaced by `<work>`.

`--compare` sorts the records of two files into byte-identical, those
that differ only in the digits of numbers (with the largest relative
change), and those changed otherwise, and names each record that moved;
for a JSON report, with each field that moved and its largest relative
change (a field that is not a number on both sides reads inf).  It exits
0 when every record is identical, else 1.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|-?inf|nan")


def record(tree: Path) -> dict:
    """Every `_cli_specs` run at seeds 1-3 against the package in `tree`/src."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")     # the benchmark's thread cap, set before numpy loads
    sys.path[:0] = [str(tree / "src"), str(ROOT / "bench")]
    import numpy as np
    import torickit as tk
    from torickit import cli

    import workloads

    if Path(tk.__file__).resolve().parent != (tree / "src" / "torickit").resolve():
        raise ImportError(f"torickit imported from {tk.__file__}, not from {tree / 'src'}")
    records = {}
    with tempfile.TemporaryDirectory() as work:
        for seed in SEEDS:
            rng = np.random.default_rng(seed)
            bl2, cube2 = tk.catalog("blowup_cp2", 2), tk.catalog("cube", 2)
            for v in range(workloads.CLI_VARIANTS):
                specs = workloads._cli_specs(tk, rng, bl2, cube2, lambda name: os.path.join(work, f"{v}-{name}"))
                for i, (argv, _, _) in enumerate(specs):
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = cli.main(argv)
                    report = out.getvalue()
                    if "--output" in argv:
                        report = Path(argv[argv.index("--output") + 1]).read_text()
                    key = f"seed {seed} variant {v} #{i:02d}: {' '.join(argv)}".replace(work, "<work>")
                    records[key] = {"exit": code, "stderr": err.getvalue().replace(work, "<work>"),
                                    "report": report.replace(work, "<work>")}
    return records


def _relative(x: float, y: float) -> float:
    """|x - y| / max(|x|, |y|): 0 for equal numbers, NaN or not, 1 from or to 0."""
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    return abs(x - y) / max(abs(x), abs(y)) if math.isfinite(x - y) else math.inf


def _numbers_only(a: str, b: str) -> float | None:
    """The largest relative change between the numbers of a and b when the
    two texts differ in the digits of numbers alone, else None."""
    if NUMBER.split(a) != NUMBER.split(b):
        return None
    return max(map(_relative, map(float, NUMBER.findall(a)), map(float, NUMBER.findall(b))), default=0.0)


def _moved_fields(a, b, path="") -> list[tuple[str, object, object]]:
    """(path, a, b) for each leaf that differs between two JSON documents."""
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        return [m for k in a for m in _moved_fields(a[k], b[k], f"{path}.{k}")]
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [m for x, y in zip(a, b) for m in _moved_fields(x, y, f"{path}[]")]
    return [] if a == b else [(path or ".", a, b)]


def _field_changes(a: str, b: str) -> str:
    """Each moved field of two JSON reports with its largest relative change,
    so that a field at rounding size stands apart from the values."""
    moved = {}
    for path, x, y in _moved_fields(json.loads(a), json.loads(b)):
        numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (x, y))
        moved[path] = max(moved.get(path, 0.0), _relative(x, y) if numbers else math.inf)
    return ", ".join(f"{path} {change:.3g}" for path, change in moved.items())


def compare(a: dict, b: dict) -> tuple[dict, list[str]]:
    """Counts per kind, and one line for each record that moved."""
    counts = {"identical": 0, "numbers only": 0, "changed": 0}
    lines = []
    for key in sorted(a.keys() | b.keys()):
        x, y = a.get(key), b.get(key)
        if x == y:
            counts["identical"] += 1
            continue
        worst = None
        if x is not None and y is not None and x["exit"] == y["exit"] and x["stderr"] == y["stderr"]:
            worst = _numbers_only(x["report"], y["report"])
        kind = "changed" if worst is None else "numbers only"
        counts[kind] += 1
        detail = "only in one file" if x is None or y is None else f"exit {x['exit']} -> {y['exit']}"
        if worst is not None:
            detail += f", largest relative change {worst:.3g}"
        with contextlib.suppress(TypeError, ValueError):     # one side missing, or a report not JSON
            detail += f", fields {_field_changes(x['report'], y['report'])}"
        lines.append(f"{kind}: {key} ({detail})")
    return counts, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--record", metavar="FILE", help="write the records of the package in --tree")
    mode.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two record files")
    parser.add_argument("--tree", type=Path, default=ROOT, help="source tree to record (default: this checkout)")
    args = parser.parse_args(argv)
    if args.record:
        records = record(args.tree.resolve())
        Path(args.record).write_text(json.dumps(records, sort_keys=True, indent=1) + "\n")
        print(f"{len(records)} records written to {args.record}")
        return 0
    a, b = (json.loads(Path(f).read_text()) for f in args.compare)
    counts, lines = compare(a, b)
    total = len(a.keys() | b.keys())
    print("\n".join(lines + [", ".join(f"{n} {kind}" for kind, n in counts.items()) + f" of {total}"]))
    return 0 if counts["identical"] == total else 1


if __name__ == "__main__":
    sys.exit(main())
