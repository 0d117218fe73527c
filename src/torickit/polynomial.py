"""Multivariate polynomials with exact rational coefficients."""

from __future__ import annotations

from fractions import Fraction
from math import perm, prod
from typing import Mapping

import numpy as np

from . import exact
from .errors import ParseError


class Polynomial:
    """Sparse monomial dict: exponent tuple -> Fraction coefficient."""

    __slots__ = ("nvars", "coeffs")

    def __init__(self, nvars: int, coeffs: Mapping[tuple, object] | None = None):
        self.nvars = exact.integer(nvars)
        clean: dict[tuple[int, ...], Fraction] = {}
        for exps, c in (coeffs or {}).items():
            exps = tuple(exact.integer(e) for e in exps)
            if len(exps) != self.nvars or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent tuple {exps}")
            c = exact.frac(c)
            if c != 0:
                clean[exps] = clean.get(exps, Fraction(0)) + c
        self.coeffs = {e: c for e, c in clean.items() if c != 0}

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, c) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: exact.frac(c)})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "Polynomial":
        exps = tuple(int(j == i) for j in range(nvars))
        return cls(nvars, {exps: Fraction(1)})

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        return max((sum(e) for e in self.coeffs), default=0)

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.nvars == other.nvars
            and self.coeffs == other.coeffs
        )

    def __add__(self, other: "Polynomial") -> "Polynomial":
        merged = dict(self.coeffs)
        for e, c in other.coeffs.items():
            merged[e] = merged.get(e, Fraction(0)) + c
        return Polynomial(self.nvars, merged)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.nvars, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            out: dict[tuple[int, ...], Fraction] = {}
            for e1, c1 in self.coeffs.items():
                for e2, c2 in other.coeffs.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    out[e] = out.get(e, Fraction(0)) + c1 * c2
            return Polynomial(self.nvars, out)
        c = exact.frac(other)
        return Polynomial(self.nvars, {e: c * v for e, v in self.coeffs.items()})

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative power")
        result = Polynomial.constant(self.nvars, 1)
        for _ in range(k):
            result = result * self
        return result

    def diff(self, i: int) -> "Polynomial":
        return self.derivative((i,))

    def derivative(self, indices) -> "Polynomial":
        """d/dx_i for each i in `indices`, in one pass: x^e goes to prod_i e_i!/(e_i - k_i)!
        x^(e - k), k_i the times i occurs.  ValueError for an index outside 0..nvars-1."""
        k = [0] * self.nvars
        for i in indices:
            i = exact.integer(i)
            if not 0 <= i < self.nvars:
                raise ValueError(f"variable index {i} outside 0..{self.nvars - 1}")
            k[i] += 1
        out = Polynomial.__new__(Polynomial)
        out.nvars, out.coeffs = self.nvars, {}
        # e -> e - k is one to one and e_i!/(e_i - k_i)! > 0: the terms are distinct and nonzero
        for e, c in self.coeffs.items():
            if all(a >= b for a, b in zip(e, k)):
                out.coeffs[tuple(a - b for a, b in zip(e, k))] = c * prod(map(perm, e, k))
        return out

    def __call__(self, x) -> float:
        x = np.asarray(x, dtype=float)
        total = 0.0
        for e, c in self.coeffs.items():
            term = float(c)
            for xi, ei in zip(x, e):
                if ei:
                    term *= xi**ei
            total += term
        return total

    def eval_exact(self, x) -> Fraction:
        xs = [exact.frac(c) for c in x]
        total = Fraction(0)
        for e, c in self.coeffs.items():
            term = c
            for xi, ei in zip(xs, e):
                term *= xi**ei
            total += term
        return total

    def compose_affine(self, matrix, shift) -> "Polynomial":
        """p(M x + c) as an exact polynomial in the new variables."""
        m = [[exact.frac(v) for v in row] for row in matrix]
        c = [exact.frac(v) for v in shift]
        if len(m) != self.nvars or len(c) != self.nvars:
            raise ValueError("affine substitution shape mismatch")
        nnew = len(m[0]) if m else 0
        subs = []
        for i in range(self.nvars):
            lin = {tuple(int(j == k) for k in range(nnew)): m[i][j] for j in range(nnew)}
            lin[(0,) * nnew] = c[i]
            subs.append(Polynomial(nnew, lin))
        result = Polynomial.zero(nnew)
        for e, coeff in self.coeffs.items():
            term = Polynomial.constant(nnew, coeff)
            for i, ei in enumerate(e):
                for _ in range(ei):
                    term = term * subs[i]
            result = result + term
        return result

    def to_json(self) -> dict:
        monomials = [
            {"exponents": list(e), "coeff": exact.frac_str(c)}
            for e, c in sorted(self.coeffs.items())
        ]
        return {"monomials": monomials}

    def __repr__(self):
        if self.is_zero:
            return "Polynomial(0)"
        parts = [f"{c}*x^{e}" for e, c in sorted(self.coeffs.items())]
        return "Polynomial(" + " + ".join(parts) + ")"


def polynomial_from_json(doc, nvars: int) -> Polynomial:
    """Parse {"monomials": [{"exponents": [...], "coeff": "p/q"}, ...]}."""
    if doc is None:
        return Polynomial.zero(nvars)
    monomials = exact.document(doc, "polynomial").get("monomials")
    if not isinstance(monomials, list):
        raise ParseError("polynomial document must contain a 'monomials' list")
    total = Polynomial.zero(nvars)
    for i, mono in enumerate(monomials):
        with exact.parsing(f"monomial {i}"):
            total += Polynomial(nvars, {tuple(mono["exponents"]): mono["coeff"]})
    return total
