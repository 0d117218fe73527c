"""Expected outputs: closed forms where they exist, frozen values elsewhere.

Frozen values were computed by torickit 0.1.0 (20-point Gauss-Legendre
moments, damped Newton to a gradient of 1e-10) and are compared with the
tolerances documented in workloads.py.  Closed forms:

- canonical curvature s = 4 on the interval, 12 on simplex(2) and cube(3),
  8 on cube(2), 16 on cube(4); delta = 1 / (det G prod lambda) is 4 on
  simplex(2) and 2^n on cube(n)
- volumes scale^n / n! (simplex), scale^n (cube), 1 + a/2 (hirzebruch(a)),
  (9 - k)/2 (blowup_cp2(k)); lattice images keep them
- the soliton vector is 0 with verdict Einstein on the symmetric entries,
  where the first moment is the anticanonical volume
- P1 x Bl1P2 has Bl1P2's soliton with a zero appended (and P1 x Bl1P2 x P1
  with two zeros)
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

F = Fraction


def label(name, params) -> str:
    return f"{name}({','.join(str(p) for p in params)})"


def parse_label(text):
    name, _, rest = text.partition("(")
    return name, tuple(F(p) if "/" in p else int(p) for p in rest.rstrip(")").split(","))


def closed_form(name, *params) -> dict:
    """n, form count, vertex count, volume, pulling-triangulation size,
    Delzant and Fano flags of a catalog entry."""
    if name in ("simplex", "cube"):
        n = params[0]
        scale = F(params[1]) if len(params) > 1 else F(1)
        if name == "simplex":
            return dict(n=n, forms=n + 1, vertices=n + 1, volume=scale**n / factorial(n),
                        simplices=1, delzant=True, fano=True)
        return dict(n=n, forms=2 * n, vertices=2**n, volume=scale**n,
                    simplices=factorial(n), delzant=True, fano=True)
    if name == "hirzebruch":
        a = params[0]
        return dict(n=2, forms=4, vertices=4, volume=1 + F(a, 2), simplices=2,
                    delzant=True, fano=a <= 1)
    if name == "blowup_cp2":
        k = params[0]
        return dict(n=2, forms=3 + k, vertices=3 + k, volume=F(9 - k, 2), simplices=1 + k,
                    delzant=True, fano=True)
    raise KeyError(name)


# The non-Delzant triangle: its vertex (0, 1) has edge determinant 2.
TRIANGLE_FORMS = [((1, 0), F(0)), ((0, 1), F(0)), ((-1, -2), F(-2))]
TRIANGLE = dict(n=2, forms=3, vertices=3, volume=F(1), simplices=1, delzant=False,
                fano=False, refused_vertex=(F(0), F(1)), failing_det=2)
TRIANGLE_DOC = {"n": 2, "forms": [{"u": list(u), "b": str(b)} for u, b in TRIANGLE_FORMS]}

# simplex(2) with h = x^2 y^2 / 100
POTENTIAL_H_DOC = {
    "polytope": {"n": 2, "forms": [{"u": [1, 0], "b": "0"}, {"u": [0, 1], "b": "0"},
                                   {"u": [-1, -1], "b": "-1"}]},
    "h": {"monomials": [{"exponents": [2, 2], "coeff": "1/100"}]},
}

# ---------------------------------------------------------------------------
# curvature_field

EXTREMALITY_GRID = {"simplex(2)": 10, "cube(3)": 5, "blowup_cp2(3)": 8, "cube(4)": 4, "simplex(2)+h": 8}
FD_POINTS = {"simplex(2)": 3, "blowup_cp2(3)": 3, "simplex(2)+h": 3, "cube(3)": 2, "cube(4)": 1}
DELTA = {"simplex(2)": 4.0, "cube(3)": 8.0, "cube(4)": 16.0}

EXTREMALITY = {
    "simplex(2)": {"extremal": True, "constant": 12.0, "gradient": [0.0, 0.0]},
    "cube(3)": {"extremal": True, "constant": 12.0, "gradient": [0.0, 0.0, 0.0]},
    "cube(4)": {"extremal": True, "constant": 16.0, "gradient": [0.0, 0.0, 0.0, 0.0]},
    # frozen
    "blowup_cp2(3)": {"extremal": False, "constant": 3.3970950230928736, "gradient": [0.0, 0.0]},
    "simplex(2)+h": {"extremal": False, "constant": 12.00162813058192,
                     "gradient": [0.009190976313945231, 0.009190976313491571]},
}

# frozen: s of the h != 0 potential at fixed points
H_CURVATURE = [
    ((0.2, 0.3), 11.998686494922831),
    ((0.1, 0.1), 12.003247393343933),
    ((0.5, 0.25), 11.992507000477246),
    ((0.3, 0.6), 12.011184289008622),
    ((0.7, 0.1), 11.972922803579781),
    ((1 / 3, 1 / 3), 12.000021947891863),
]

# ---------------------------------------------------------------------------
# cli_reports (frozen)

CLI_HIRZEBRUCH1_EXIT = 1
CLI_POTENTIAL_H_EXIT = 1
CLI_POTENTIAL_H_SAMPLES = [
    [0.0014142135623730952, 0.0014142135623730952, 12.000001583748059],
    [0.0014142135623730952, 0.2507071067811865, 12.004999193504599],
    [0.0014142135623730952, 0.49999999999999994, 12.019436218070302],
    [0.0014142135623730952, 0.7492928932188134, 12.043311755632383],
    [0.2507071067811865, 0.0014142135623730952, 12.004999193504595],
    [0.2507071067811865, 0.2507071067811865, 11.999339586125412],
    [0.2507071067811865, 0.49999999999999994, 11.992634926327689],
    [0.49999999999999994, 0.0014142135623730952, 12.019436218070298],
    [0.49999999999999994, 0.2507071067811865, 11.992634926327689],
    [0.7492928932188134, 0.0014142135623730952, 12.043311755633288],
]

# ---------------------------------------------------------------------------
# soliton_verdict

_BL1P2 = [(1, 0), (0, 1), (-1, -1), (1, 1)]
SOLITON_FORMS = {
    "blpt_p3": [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1), (1, 1, 1)],
    "p1xbl1p2": [u + (0,) for u in _BL1P2] + [(0, 0, 1), (0, 0, -1)],
    "blpt_p4": [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (-1, -1, -1, -1), (1, 1, 1, 1)],
    "p1xbl1p2xp1": [u + (0, 0) for u in _BL1P2]
    + [(0, 0, 1, 0), (0, 0, -1, 0), (0, 0, 0, 1), (0, 0, 0, -1)],
}

# (label, dimension, variants per pass): variant 0 is the input as given,
# the others are seeded lattice images of it.
SOLITON_INPUTS = [
    ("simplex(1)", 1, 4),
    ("simplex(2)", 2, 10), ("cube(2)", 2, 10), ("hirzebruch(0)", 2, 10), ("hirzebruch(1)", 2, 10),
    ("blowup_cp2(1)", 2, 10), ("blowup_cp2(2)", 2, 10), ("blowup_cp2(3)", 2, 10),
    ("hirzebruch(2)", 2, 4),
    ("simplex(3)", 3, 5), ("cube(3)", 3, 5), ("blpt_p3", 3, 5), ("p1xbl1p2", 3, 5),
    ("simplex(4)", 4, 1), ("cube(4)", 4, 1), ("blpt_p4", 4, 1), ("p1xbl1p2xp1", 4, 1),
]
NOT_FANO = {"hirzebruch(2)"}
# Simplices in the pulling triangulation of each anticanonical model; every
# lattice image that SOLITON_INPUTS draws has the same number.
SOLITON_SIMPLICES = {
    "simplex(1)": 1, "simplex(2)": 1, "cube(2)": 2, "hirzebruch(0)": 2, "hirzebruch(1)": 2,
    "blowup_cp2(1)": 2, "blowup_cp2(2)": 3, "blowup_cp2(3)": 4, "simplex(3)": 1, "cube(3)": 6,
    "blpt_p3": 3, "p1xbl1p2": 6, "simplex(4)": 1, "cube(4)": 24, "blpt_p4": 4, "p1xbl1p2xp1": 24,
}
KAHLER_EINSTEIN = {
    "simplex(1)": F(2), "simplex(2)": F(9, 2), "simplex(3)": F(32, 3), "simplex(4)": F(625, 24),
    "cube(2)": F(4), "cube(3)": F(8), "cube(4)": F(16), "hirzebruch(0)": F(4), "blowup_cp2(3)": F(3),
}   # anticanonical volume = first moment at a = 0
PRODUCTS = {"p1xbl1p2": 1, "p1xbl1p2xp1": 2}   # Bl1P2 times this many P1 factors


def soliton_expected(name):
    """Expected soliton vector, moments and verdict, or None for NotFano."""
    if name in NOT_FANO:
        return None
    want = dict(SOLITON[name])
    if name in KAHLER_EINSTEIN:
        want.update(a=[0.0] * len(want["a"]), m0=float(KAHLER_EINSTEIN[name]), conclusion="Einstein")
    if name in PRODUCTS:
        want["a"] = SOLITON["blowup_cp2(1)"]["a"] + [0.0] * PRODUCTS[name]
    return want


# frozen: soliton vector, integral of e^<a,x> and of x x^T e^<a,x> at it,
# and the verdict at VERDICT_GRID
SOLITON = {
    "simplex(1)": {
        "a": [0.0],
        "m0": 1.9999999999999998,
        "m2": [
            [0.6666666666666636],
        ],
        "conclusion": "Einstein",
    },
    "simplex(2)": {
        "a": [0.0, 0.0],
        "m0": 4.5,
        "m2": [
            [2.249999999999989, -1.1249999999999958],
            [-1.1249999999999958, 2.2499999999999947],
        ],
        "conclusion": "Einstein",
    },
    "simplex(3)": {
        "a": [0.0, 0.0, 0.0],
        "m0": 10.666666666666652,
        "m2": [
            [6.399999999999939, -2.1333333333333218, -2.1333333333333173],
            [-2.1333333333333218, 6.399999999999963, -2.1333333333333266],
            [-2.1333333333333173, -2.1333333333333266, 6.399999999999956],
        ],
        "conclusion": "Einstein",
    },
    "cube(2)": {
        "a": [0.0, 0.0],
        "m0": 3.9999999999999996,
        "m2": [
            [1.333333333333329, 1.4306090017593594e-16],
            [1.4306090017593594e-16, 1.333333333333329],
        ],
        "conclusion": "Einstein",
    },
    "cube(3)": {
        "a": [0.0, 0.0, 0.0],
        "m0": 7.9999999999999885,
        "m2": [
            [2.666666666666654, -2.7200464103316335e-15, -2.7200464103316335e-15],
            [-2.7200464103316335e-15, 2.666666666666654, -2.7200464103316335e-15],
            [-2.7200464103316335e-15, -2.7200464103316335e-15, 2.6666666666666545],
        ],
        "conclusion": "Einstein",
    },
    "hirzebruch(0)": {
        "a": [0.0, 0.0],
        "m0": 3.9999999999999996,
        "m2": [
            [1.333333333333329, 1.4306090017593594e-16],
            [1.4306090017593594e-16, 1.333333333333329],
        ],
        "conclusion": "Einstein",
    },
    "hirzebruch(1)": {
        "a": [0.527619519896908, -1.0930029547844164e-15],
        "m0": 3.826552449392526,
        "m2": [
            [1.2284265842575937, -0.6142132921287968],
            [-0.6142132921287968, 1.684993011216722],
        ],
        "conclusion": "HypothesisFails",
    },
    "blowup_cp2(1)": {
        "a": [-0.5276195198969187, -0.5276195198969139],
        "m0": 3.8265524493925214,
        "m2": [
            [1.6849930112167204, -1.0707797190879236],
            [-1.0707797190879236, 1.6849930112167235],
        ],
        "conclusion": "HypothesisFails",
    },
    "blowup_cp2(2)": {
        "a": [-0.4347476635400825, -1.3272083126428635e-15],
        "m0": 3.36093819820858,
        "m2": [
            [1.3755953834123333, -0.6877976917061683],
            [-0.6877976917061683, 0.9924021681388759],
        ],
        "conclusion": "HypothesisFails",
    },
    "blowup_cp2(3)": {
        "a": [0.0, 0.0],
        "m0": 2.9999999999999996,
        "m2": [
            [0.8333333333333313, -0.4166666666666662],
            [-0.4166666666666662, 0.8333333333333328],
        ],
        "conclusion": "Einstein",
    },
    "cube(4)": {
        "a": [0.0, 0.0, 0.0, 0.0],
        "m0": 15.999999999999943,
        "m2": [
            [5.333333333333239, -3.097522238704187e-14, -3.09127723419067e-14, -3.0808688933348094e-14],
            [-3.097522238704187e-14, 5.33333333333324, -3.096134459923405e-14, -3.097522238704187e-14],
            [-3.09127723419067e-14, -3.096134459923405e-14, 5.333333333333239, -3.1030733538273125e-14],
            [-3.0808688933348094e-14, -3.097522238704187e-14, -3.1030733538273125e-14, 5.33333333333324],
        ],
        "conclusion": "Einstein",
    },
    "simplex(4)": {
        "a": [0.0, 0.0, 0.0, 0.0],
        "m0": 26.04166666666657,
        "m2": [
            [17.3611111111104, -4.340277777777805, -4.340277777777762, -4.340277777777621],
            [-4.340277777777805, 17.361111111110283, -4.340277777777741, -4.3402777777776675],
            [-4.340277777777762, -4.340277777777741, 17.361111111110308, -4.34027777777774],
            [-4.340277777777621, -4.3402777777776675, -4.34027777777774, 17.36111111111064],
        ],
        "conclusion": "Einstein",
    },
    "blpt_p3": {
        "a": [-0.6820161325771347, -0.6820161325771338, -0.6820161325771281],
        "m0": 8.666735560330878,
        "m2": [
            [4.8000404263979055, -1.9333475669678197, -1.933347566967825],
            [-1.9333475669678197, 4.800040426397902, -1.93334756696783],
            [-1.933347566967825, -1.93334756696783, 4.800040426397912],
        ],
        "conclusion": "HypothesisFails",
    },
    "p1xbl1p2": {
        "a": [-0.527619519896916, -0.5276195198969125, -4.002946154330957e-15],
        "m0": 7.653104898785033,
        "m2": [
            [3.369986022433441, -2.1415594381758516, 1.582067810090848e-15],
            [-2.1415594381758516, 3.3699860224334497, -3.608224830031759e-15],
            [1.582067810090848e-15, -3.608224830031759e-15, 2.551034966261671],
        ],
        "conclusion": "HypothesisFails",
    },
    "blpt_p4": {
        "a": [-0.759526162060158, -0.7595261620601602, -0.7595261620601569, -0.7595261620601531],
        "m0": 20.673025726233504,
        "m2": [
            [13.07537985000064, -3.798822938124655, -3.7988229381247747, -3.7988229381248275],
            [-3.798822938124655, 13.075379850000505, -3.798822938124718, -3.798822938124823],
            [-3.7988229381247747, -3.798822938124718, 13.075379850000736, -3.798822938124617],
            [-3.7988229381248275, -3.798822938124823, -3.798822938124617, 13.075379850000747],
        ],
        "conclusion": "Inconclusive",
    },
    "p1xbl1p2xp1": {
        "a": [-0.5276195198969179, -0.5276195198969138, -5.977466347239345e-15, -6.060652794877514e-15],
        "m0": 15.30620979757003,
        "m2": [
            [6.739972044866796, -4.283118876351675, -8.935560624756533e-15, -8.992806499463768e-15],
            [-4.283118876351675, 6.739972044866819, 1.1032841307212493e-15, 1.0547118733938987e-15],
            [-8.935560624756533e-15, 1.1032841307212493e-15, 5.102069932523265, -2.225997164373439e-14],
            [-8.992806499463768e-15, 1.0547118733938987e-15, -2.225997164373439e-14, 5.102069932523264],
        ],
        "conclusion": "HypothesisFails",
    },
}
