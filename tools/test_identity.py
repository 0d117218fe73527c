"""Smoke tests for the output-identity harness.

    python3 -m pytest tools/test_identity.py -q
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
sys.path.insert(0, str(TOOLS))

import identity  # noqa: E402


def run(*args):
    return subprocess.run([sys.executable, str(TOOLS / "identity.py"), *args], capture_output=True, text=True,
                          timeout=300)


def test_a_tree_compared_with_itself_is_identical(tmp_path):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    for path in (first, second):
        proc = run("--record", str(path))
        assert proc.returncode == 0, proc.stderr
    records = json.loads(first.read_text())
    assert len(records) and len(records) % (3 * 5) == 0      # every argv at 3 seeds and 5 variants
    text = json.dumps(records)
    assert "<work>" in text and tempfile.gettempdir() not in text      # the work dir is normalised
    proc = run("--compare", str(first), str(second))
    n = len(records)
    assert (proc.returncode, proc.stdout) == (0, f"{n} identical, 0 numbers only, 0 changed of {n}\n")


def test_moved_records_are_sorted_and_named():
    report = json.dumps({"a": [1.0, 2.0], "b": {"tol": 1e-12}, "c": "x_1"})
    before = {"same": {"exit": 0, "stderr": "", "report": report},
              "digits": {"exit": 3, "stderr": "", "report": report},
              "exit": {"exit": 0, "stderr": "", "report": report},
              "text": {"exit": 1, "stderr": "", "report": "x_1,s\n0.5,8.0\n"}}
    after = dict(before,
                 digits={"exit": 3, "stderr": "", "report": report.replace("1e-12", "0.0").replace("2.0", "2.5")},
                 exit={"exit": 2, "stderr": "error: no\n", "report": ""},
                 text={"exit": 1, "stderr": "", "report": "x_1,t\n0.5,8.0\n"})
    counts, lines = identity.compare(before, after)
    assert counts == {"identical": 1, "numbers only": 1, "changed": 2}
    assert lines == [
        "numbers only: digits (exit 3 -> 3, largest relative change 1, fields .a[] 0.2, .b.tol 1)",
        "changed: exit (exit 0 -> 2)",
        "changed: text (exit 1 -> 1)",
    ]
