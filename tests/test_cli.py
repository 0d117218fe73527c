"""End-to-end command-line behavior: exit codes, report formats, files."""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from torickit import CATALOG_DEFAULTS, Polynomial, SymplecticPotential, catalog, interior_grid
from torickit.cli import main

F = Fraction

T_STAR = -0.5276195198969447

FAILING_TRIANGLE = {
    "n": 2,
    "forms": [
        {"u": [1, 0], "b": "0"},
        {"u": [0, 1], "b": "0"},
        {"u": [-1, -2], "b": "-2"},
    ],
}


def simplex_with_h(h):
    """A potential document on simplex(2) with the given h document."""
    return {"polytope": catalog("simplex", 2).to_json(), "h": h}


def monomial(exponents, coeff="1"):
    return {"monomials": [{"exponents": exponents, "coeff": coeff}]}


# Exact values beyond the range of a double: each once ended curvature and
# verify in an OverflowError traceback.
HUGE_B = {
    "n": 2,
    "forms": [{"u": [1, 0], "b": "0"}, {"u": [0, 1], "b": "0"}, {"u": [-1, -1], "b": "-1e400"}],
}
HUGE_H = simplex_with_h(monomial([2, 0], "1e400"))

# Each of these once crashed or was silently coerced by the h parser.
BAD_H = {
    "monomials_not_a_list": {"monomials": 5},
    "negative_exponent": monomial([-1, 0]),
    "float_exponent": monomial([1.7, 0]),
    "bool_exponent": monomial([True, 0]),
    "bool_coefficient": monomial([1, 0], True),
}


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestDelzant:
    def test_catalog_passes(self, capsys):
        rc, out, err = run(capsys, "delzant", "--catalog", "simplex(2)")
        doc = json.loads(out)
        assert rc == 0
        assert doc["is_delzant"] is True
        assert doc["affine_span_rank"] == 2
        assert doc["config"]["command"] == "delzant"

    def test_failing_triangle(self, capsys, tmp_path):
        path = tmp_path / "tri.json"
        path.write_text(json.dumps(FAILING_TRIANGLE))
        rc, out, _ = run(capsys, "delzant", "--input", str(path))
        assert rc == 1
        doc = json.loads(out)
        bad = [v for v in doc["vertices"] if not v["delzant"]]
        assert len(bad) == 1
        assert bad[0]["coordinates"] == ["0", "1"]
        assert abs(bad[0]["edge_det"]) == 2

    def test_csv_lists_every_vertex(self, capsys):
        rc, out, _ = run(capsys, "delzant", "--catalog", "cube(2)", "--format", "csv")
        lines = out.strip().splitlines()
        assert rc == 0
        assert lines[0] == "x_1,x_2,facet_count,edge_count,edge_det,delzant"
        assert len(lines) == 1 + 4
        for line in lines[1:]:
            # integer columns print as integers that float() still reads
            counts = [int(c) for c in line.split(",")[2:]]
            assert counts in ([2, 2, 1, 1], [2, 2, -1, 1])
            assert [float(c) for c in line.split(",")[2:]] == counts

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        rc, out, err = run(capsys, "delzant", "--input", str(path))
        assert rc == 2
        assert out == ""
        assert "error:" in err

    def test_unknown_catalog_name(self, capsys):
        rc, _, err = run(capsys, "delzant", "--catalog", "dodecahedron(12)")
        assert rc == 2
        assert "error:" in err

    def test_non_integer_dimension(self, capsys):
        rc, _, _ = run(capsys, "delzant", "--catalog", "simplex(1.5)")
        assert rc == 2

    def test_unparseable_parameter(self, capsys):
        rc, _, err = run(capsys, "delzant", "--catalog", "cube(2,xyz)")
        assert rc == 2
        assert "xyz" in err

    def test_sources_are_exclusive(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(FAILING_TRIANGLE))
        rc, _, err = run(
            capsys, "delzant", "--catalog", "cube(2)", "--input", str(path)
        )
        assert rc == 2
        assert "only one" in err

    def test_some_source_is_required(self, capsys):
        rc, _, err = run(capsys, "delzant")
        assert rc == 2
        assert "required" in err

    @pytest.mark.parametrize(
        "doc",
        [
            {"n": 2, "forms": [{"u": [1.7, 0], "b": "0"}, {"u": [0, 1], "b": "0"},
                               {"u": [-1, -1], "b": "-1"}]},
            {"n": True, "forms": [{"u": [1], "b": "0"}, {"u": [-1], "b": "-1"}]},
        ],
        ids=["float_normal", "bool_dimension"],
    )
    def test_non_integer_input_is_rejected(self, capsys, tmp_path, doc):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        rc, out, err = run(capsys, "delzant", "--input", str(path))
        assert rc == 2
        assert out == ""
        assert err.startswith("error:")


class TestCurvature:
    def test_constant_curvature_is_extremal(self, capsys):
        rc, out, _ = run(capsys, "curvature", "--catalog", "simplex(2)")
        doc = json.loads(out)
        assert rc == 0
        assert doc["is_extremal"] is True
        assert doc["affine_fit"]["constant"] == pytest.approx(12.0, abs=1e-9)

    def test_guillemin_hirzebruch_is_not_extremal(self, capsys):
        rc, out, _ = run(capsys, "curvature", "--catalog", "hirzebruch(1)")
        doc = json.loads(out)
        assert rc == 1
        assert doc["is_extremal"] is False
        assert doc["affine_fit"]["max_residual"] > 1e-2

    def test_csv_shape(self, capsys):
        rc, out, _ = run(
            capsys, "curvature", "--catalog", "simplex(2)", "--format", "csv"
        )
        lines = out.strip().splitlines()
        assert lines[0] == "x_1,x_2,s"
        assert lines[-1].startswith("# affine_fit ")
        assert "is_extremal=True" in lines[-1]
        row = lines[1].split(",")
        assert len(row) == 3
        assert float(row[2]) == pytest.approx(12.0, abs=1e-7)

    def test_random_sampling_is_seeded(self, capsys):
        rc1, out1, _ = run(
            capsys, "curvature", "--catalog", "cube(2)", "--random", "7",
            "--format", "csv", "--seed", "42",
        )
        rc2, out2, _ = run(
            capsys, "curvature", "--catalog", "cube(2)", "--random", "7",
            "--format", "csv", "--seed", "42",
        )
        assert rc1 == rc2 == 0
        assert out1 == out2
        assert len(out1.strip().splitlines()) == 1 + 7 + 1  # header, rows, summary

    def test_finite_difference_method(self, capsys):
        rc, out, _ = run(
            capsys, "curvature", "--catalog", "simplex(1)",
            "--method", "finite-difference",
        )
        doc = json.loads(out)
        assert rc == 0
        values = np.array(doc["samples"])[:, -1]
        assert np.max(np.abs(values - 4.0)) <= 1e-5

    def test_perturbed_potential_file(self, capsys, tmp_path):
        pot = SymplecticPotential(
            catalog("simplex", 1), Polynomial(1, {(3,): F(1, 10)})
        )
        path = tmp_path / "pert.json"
        path.write_text(json.dumps(pot.to_json()))
        rc, out, _ = run(capsys, "curvature", "--input", str(path))
        doc = json.loads(out)
        assert rc == 1
        assert doc["is_extremal"] is False
        assert doc["affine_fit"]["max_residual"] > 1.0

    def test_grid_too_small(self, capsys):
        rc, _, err = run(capsys, "curvature", "--catalog", "cube(2)", "--grid", "1")
        assert rc == 2
        assert "grid" in err

    @pytest.mark.parametrize(
        "flags",
        [["--margin", "5"], ["--random", "5", "--margin", "0.4"]],
        ids=["grid", "random"],
    )
    def test_margin_beyond_the_inradius(self, capsys, flags):
        # the inradius of simplex(2) is about 0.29; the refusal is immediate
        start = time.perf_counter()
        rc, out, err = run(capsys, "curvature", "--catalog", "simplex(2)", *flags)
        assert time.perf_counter() - start < 0.1
        assert rc == 2
        assert out == ""
        assert err.startswith("error:") and "margin" in err

    def test_negative_tolerance(self, capsys):
        rc, _, _ = run(capsys, "curvature", "--catalog", "cube(2)", "--tol", "-1")
        assert rc == 2

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_tolerance(self, capsys, value):
        rc, out, err = run(capsys, "curvature", "--catalog", "cube(2)", "--tol", value)
        assert rc == 2
        assert out == ""
        assert err.startswith("error:") and "tolerance" in err

    def test_negative_random_count(self, capsys):
        rc, out, err = run(capsys, "curvature", "--catalog", "simplex(2)", "--random", "-1")
        assert rc == 2
        assert out == ""
        assert err.startswith("error:") and "--random" in err

    def test_negative_seed(self, capsys):
        rc, out, err = run(capsys, "curvature", "--catalog", "simplex(2)", "--random", "5", "--seed", "-1")
        assert rc == 2
        assert out == ""
        assert err.startswith("error:") and "--seed" in err

    @pytest.mark.parametrize("h", BAD_H.values(), ids=BAD_H.keys())
    def test_malformed_h_is_rejected(self, capsys, tmp_path, h):
        path = tmp_path / "pot.json"
        path.write_text(json.dumps(simplex_with_h(h)))
        rc, out, err = run(capsys, "curvature", "--input", str(path), "--grid", "3")
        assert rc == 2
        assert out == ""
        assert err.startswith("error:")

    def test_random_samples_keep_the_grid_fit(self, capsys):
        rc, out, _ = run(
            capsys, "curvature", "--catalog", "hirzebruch(1)", "--random", "7", "--grid", "6"
        )
        doc = json.loads(out)
        assert rc == 1
        assert len(doc["samples"]) == 7
        assert doc["affine_fit"]["n_samples"] == len(interior_grid(catalog("hirzebruch", 1), 6))


class TestSoliton:
    def test_blowup_diagonal_vector(self, capsys):
        rc, out, _ = run(capsys, "soliton", "--catalog", "blowup_cp2(1)")
        doc = json.loads(out)
        assert rc == 0
        a = doc["soliton"]["a"]
        assert abs(a[0] - T_STAR) <= 1e-10
        assert abs(a[1] - T_STAR) <= 1e-10
        assert doc["soliton"]["gradient_residual"] <= 1e-10
        offsets = [f["b"] for f in doc["anticanonical"]["forms"]]
        assert offsets == ["-1"] * 4

    def test_csv_single_row(self, capsys):
        rc, out, _ = run(
            capsys, "soliton", "--catalog", "simplex(2)", "--format", "csv"
        )
        lines = out.strip().splitlines()
        assert rc == 0
        assert lines[0] == "a_1,a_2,gradient_residual,iterations"
        assert len(lines) == 2
        a1, a2, _res, _it = map(float, lines[1].split(","))
        assert abs(a1) <= 1e-10 and abs(a2) <= 1e-10

    def test_not_fano_fails(self, capsys):
        rc, out, err = run(capsys, "soliton", "--catalog", "hirzebruch(2)")
        assert rc == 1
        assert out == ""
        assert "NotFano" in err


class TestVerify:
    def test_zero_vector_is_einstein(self, capsys):
        rc, out, _ = run(capsys, "verify", "--catalog", "simplex(2)", "-a", "0", "0")
        doc = json.loads(out)
        assert rc == 0
        assert doc["conclusion"] == "Einstein"

    def test_fake_soliton_fails_hypothesis(self, capsys):
        rc, out, _ = run(capsys, "verify", "--catalog", "cube(2)", "-a", "1", "0")
        doc = json.loads(out)
        assert rc == 3
        assert doc["conclusion"] == "HypothesisFails"
        assert doc["certificates"]["affinity"]["passed"] is False

    def test_from_soliton_on_guillemin_f1(self, capsys):
        # the computed vector is nonzero and the Guillemin metric is not
        # the soliton metric, so the hypothesis fails honestly
        rc, out, _ = run(
            capsys, "verify", "--catalog", "hirzebruch(1)", "--from-soliton"
        )
        doc = json.loads(out)
        assert rc == 3
        assert doc["conclusion"] == "HypothesisFails"
        assert abs(doc["a"][0] + T_STAR) <= 1e-8

    def test_shared_tolerance_can_leave_it_open(self, capsys):
        # affinity squeaks by at this tolerance but the fitted affine part
        # does not vanish at the vertices: the pipeline must not overclaim
        rc, out, _ = run(
            capsys, "verify", "--catalog", "cube(2)", "-a", "1", "0",
            "--tol", "0.316",
        )
        doc = json.loads(out)
        assert rc == 4
        assert doc["conclusion"] == "Inconclusive"

    def test_vector_is_required(self, capsys):
        rc, _, err = run(capsys, "verify", "--catalog", "cube(2)")
        assert rc == 2
        assert "required" in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_vector(self, capsys, value):
        rc, out, err = run(capsys, "verify", "--catalog", "simplex(2)", "-a", value, "0")
        assert rc == 2
        assert out == ""
        assert err.startswith("error:") and "finite" in err

    def test_vector_length_is_checked(self, capsys):
        rc, _, err = run(capsys, "verify", "--catalog", "cube(2)", "-a", "1")
        assert rc == 2
        assert "components" in err

    def test_csv_row(self, capsys):
        rc, out, _ = run(
            capsys, "verify", "--catalog", "simplex(2)", "-a", "0", "0",
            "--format", "csv",
        )
        lines = out.strip().splitlines()
        assert lines[0] == "conclusion,constant,gradient_1,gradient_2,max_residual,rank"
        assert lines[1].startswith("Einstein,")


@pytest.mark.parametrize("doc", [HUGE_B, HUGE_H], ids=["offset", "h_coefficient"])
def test_values_beyond_float_range(capsys, tmp_path, doc):
    # the exact subcommands never make floats; the float ones refuse them
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    for command, want in ((["delzant"], 0), (["soliton"], 0), (["curvature", "--grid", "3"], 2),
                          (["verify", "--grid", "3", "-a", "0", "0"], 2),
                          (["verify", "--grid", "3", "--from-soliton"], 2)):
        rc, out, err = run(capsys, *command, "--input", str(path))
        assert rc == want, command
        if want:
            assert out == "" and err.startswith("error:") and "float range" in err


@pytest.mark.parametrize("b", ["-1e300", "-1e200", "-1e160"])
def test_extent_beyond_float_range(capsys, tmp_path, b):
    # the vertices are floats, but the squared diameter behind the default
    # margin is not
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({**HUGE_B, "forms": HUGE_B["forms"][:2] + [{"u": [-1, -1], "b": b}]}))
    for command in (["curvature", "--grid", "3"], ["verify", "--grid", "3", "-a", "0", "0"],
                    ["curvature", "--random", "3"]):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc, out, err = run(capsys, *command, "--input", str(path))
        assert (rc, out, caught) == (2, "", []), command
        assert err.startswith("error:") and "extent lies beyond the float range" in err


@pytest.mark.parametrize("b", ["-1e20", "-1e100", "-1e150"])
def test_large_extent_within_float_range(capsys, tmp_path, b):
    # the affine fit once read these samples as degenerate, and Abreu's
    # formula overflowed in (lambda_a lambda_b)^2
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({**HUGE_B, "forms": HUGE_B["forms"][:2] + [{"u": [-1, -1], "b": b}]}))
    rc, out, err = run(capsys, "curvature", "--grid", "6", "--input", str(path))
    assert (rc, err) == (0, "")
    s = np.array(json.loads(out)["samples"])[:, -1]
    assert len(s) > 0
    assert np.allclose(s, 12.0 / abs(float(b)), rtol=1e-8, atol=0)
    rc, out, err = run(capsys, "verify", "-a", "0", "0", "--input", str(path))
    assert (rc, err) == (0, "")
    assert json.loads(out)["conclusion"] == "Einstein"


class TestPlumbing:
    def test_reports_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            rc = main(
                ["soliton", "--catalog", "blowup_cp2(1)", "--output", str(path)]
            )
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()

    def test_output_silences_stdout(self, capsys, tmp_path):
        path = tmp_path / "rep.json"
        rc, out, _ = run(
            capsys, "delzant", "--catalog", "cube(2)", "--output", str(path)
        )
        assert rc == 0
        assert out == ""
        assert json.loads(path.read_text())["is_delzant"] is True

    def test_help_exits_cleanly(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0

    def test_subcommand_is_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_module_entry_point(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))

        def torickit(*argv):
            return subprocess.run(
                [sys.executable, "-m", "torickit.cli", *argv],
                capture_output=True, text=True, env=env,
            )

        proc = torickit("delzant", "--catalog", "simplex(2)")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["is_delzant"] is True
        path = tmp_path / "pot.json"
        path.write_text(json.dumps(simplex_with_h(BAD_H["monomials_not_a_list"])))
        proc = torickit("curvature", "--input", str(path))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr

    @pytest.mark.skipif(shutil.which("torickit") is None, reason="script not on PATH")
    def test_console_script(self):
        proc = subprocess.run(
            ["torickit", "delzant", "--catalog", "simplex(2)"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["is_delzant"] is True


# ---------------------------------------------------------------------------
# the exit-code contract under fuzzed documents: every input ends in an exit
# code from 0 to 4, never in an exception

JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4),
    st.lists(st.integers(-2, 2), max_size=2),
)


@st.composite
def mostly(draw, valid, good=3, bad=JUNK):
    """A draw from `valid`, or one time in good + 1 from `bad`."""
    return draw(bad if draw(st.integers(0, good)) == 0 else valid)


# beyond the float range as they stand, or times the derivative factors of
# a high exponent
BEYOND_FLOATS = st.sampled_from(["1e400", "-1e400", "-1e400/3", "1e300"])


def h_documents(n):
    exponents = mostly(
        st.lists(mostly(st.one_of(st.integers(-1, 4), st.just(200)), good=8), min_size=n, max_size=n),
        good=6,
        bad=st.one_of(JUNK, st.lists(st.integers(0, 2), max_size=n + 1)),
    )
    coeff = mostly(
        st.one_of(st.integers(-3, 3), st.builds("{}/{}".format, st.integers(-9, 9), st.integers(0, 99)),
                  BEYOND_FLOATS),
        good=8,
    )
    monomial = mostly(st.fixed_dictionaries({"exponents": exponents, "coeff": coeff}), good=10)
    return mostly(
        st.one_of(st.none(), st.fixed_dictionaries({"monomials": mostly(st.lists(monomial, max_size=3), good=8)})),
        good=8,
    )


FORM = st.fixed_dictionaries({
    "u": mostly(st.lists(mostly(st.integers(-2, 2), good=10), min_size=1, max_size=3), good=10),
    "b": mostly(st.one_of(st.integers(-2, 2), st.sampled_from(["0", "-1", "1/2", "x"]), BEYOND_FLOATS), good=10),
})
POLYTOPE_DOCUMENTS = mostly(
    st.fixed_dictionaries({
        "n": mostly(st.integers(1, 3), good=10),
        "forms": mostly(st.lists(FORM, max_size=6), good=10),
    }),
    good=8,
)


@st.composite
def documents(draw):
    """Half: a catalog polytope with a fuzzed h.  Half: a fuzzed polytope,
    bare or with a fuzzed h."""
    if draw(st.booleans()):
        name, params = draw(st.sampled_from(CATALOG_DEFAULTS))
        p = catalog(name, *params)
        return {"polytope": p.to_json(), "h": draw(h_documents(p.n))}
    doc = draw(POLYTOPE_DOCUMENTS)
    return {"polytope": doc, "h": draw(h_documents(2))} if draw(st.booleans()) else doc


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.json"


@settings(max_examples=60, deadline=None)
@given(doc=documents())
@example(doc=simplex_with_h(BAD_H["monomials_not_a_list"]))
@example(doc=simplex_with_h(BAD_H["negative_exponent"]))
@example(doc=simplex_with_h(BAD_H["float_exponent"]))
@example(doc=simplex_with_h(BAD_H["bool_exponent"]))
@example(doc=simplex_with_h(BAD_H["bool_coefficient"]))
@example(doc=HUGE_B)
@example(doc=HUGE_H)
def test_fuzzed_documents_keep_the_exit_code_contract(fuzz_path, doc):
    fuzz_path.write_text(json.dumps(doc))
    for command in (["delzant"], ["curvature", "--grid", "3"], ["soliton"],
                    ["verify", "--grid", "3", "--from-soliton"]):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            rc = main([*command, "--input", str(fuzz_path)])
        assert rc in range(5)
