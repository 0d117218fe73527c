"""The package's public surface."""

import enum
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import torickit


def test_every_export_resolves():
    missing = [name for name in torickit.__all__ if not hasattr(torickit, name)]
    assert missing == []


# Every optional parameter of the public API with its default.  An option is one
# more configuration to test, and most are thresholds a certificate could be
# eased with, so adding one shows up here as an edit to this table.
PUBLIC_OPTIONS = {
    "Polynomial": {"coeffs": None},
    "SymplecticPotential": {"h": None},
    "einstein_verdict_from_samples": {"tol": None},
    "extremality_check": {"grid": 20},
    "extremality_from_samples": {"tol": None},
    "geometric_ts": {"t0": 1e-2, "count": 15},
    "interior_grid": {"margin": None},
    "interior_rays": {"count": 3},
    "metric_jets": {"with_derivatives": False},
    "polytope_integral": {"integrand": "1"},
    "random_interior_points": {"margin": None, "rng": 0},
    "soliton_vector": {"tol": 1e-10},
    "verify_einstein": {"grid": 20, "margin": None, "tol": None},
}


def test_public_options():
    got = {}
    for name in torickit.__all__:
        obj = getattr(torickit, name)
        if not callable(obj) or isinstance(obj, enum.EnumMeta):    # an Enum's signature is enum's own
            continue
        try:
            params = inspect.signature(obj).parameters.values()
        except ValueError:     # builtin constructors, as of the exceptions
            continue
        options = {p.name: p.default for p in params if p.default is not p.empty}
        if options:
            got[name] = options
    assert got == PUBLIC_OPTIONS


NUMPY_ONLY = """
import sys
for name in ("scipy", "sympy", "mpmath"):
    sys.modules[name] = None  # any import of them raises ImportError
import torickit as tk
p = tk.catalog("blowup_cp2", 2)
fp = tk.fano_normalize(p)
a = tk.soliton_vector(fp).a
tk.polytope_integral(fp, a, "xx")
verdict = tk.verify_einstein(tk.SymplecticPotential.guillemin(fp.base), a, grid=6)
print(verdict.conclusion.value)
"""


def test_runs_on_numpy_alone():
    """numpy is the only runtime dependency: the pipeline runs with scipy,
    sympy and mpmath unimportable."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", NUMPY_ONLY], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "HypothesisFails\n"  # the Guillemin metric of a non-Einstein soliton


def test_readme_examples_run():
    """README's python blocks run, in order, as one script."""
    root = Path(__file__).parents[1]
    blocks = re.findall(r"^```python\n(.*?)^```", (root / "README.md").read_text(), re.S | re.M)
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", "".join(blocks)], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "Conclusion.HYPOTHESIS_FAILS\n"
