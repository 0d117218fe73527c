"""Exception types shared across the package."""


class ToricError(Exception):
    """Base class for all domain errors raised by this package."""


class Unbounded(ToricError):
    """The half-space intersection admits a recession direction."""


class Empty(ToricError):
    """The half-space intersection contains no point."""


class LowerDimensional(ToricError):
    """The vertices fail to span the ambient space affinely."""


class RedundantForm(ToricError):
    """A defining form is not tight on any facet."""


class NotDelzantVertex(ToricError):
    """The requested point is not a vertex with a unimodular edge basis."""


class UnknownName(ToricError):
    """Catalog lookup with an unrecognised family name."""


class BadParams(ToricError):
    """Catalog lookup with parameters outside the supported range."""


class OutsideDomain(ToricError):
    """Evaluation requested at a point not in the polytope interior."""

    def __init__(self, point, form_index, value):
        self.point = tuple(map(float, point))
        self.form_index = int(form_index)
        self.value = float(value)
        super().__init__(
            f"point {self.point} violates form {self.form_index} "
            f"(value {self.value:.3e} <= 0)"
        )


class NotPositiveDefinite(ToricError):
    """The metric Hessian lost positive definiteness."""

    def __init__(self, point, eigenvalue):
        self.point = tuple(map(float, point))
        self.eigenvalue = float(eigenvalue)
        super().__init__(
            f"Hessian not positive definite at {self.point} "
            f"(eigenvalue {self.eigenvalue:.6e})"
        )


class DegenerateSampleSet(ToricError):
    """Sample points do not affinely span, so an affine fit is ill posed."""


class NotFano(ToricError):
    """Normal fan does not define a smooth Fano polytope."""


class BadMargin(ToricError, ValueError):
    """A sampling margin leaves no interior point to sample."""


class QuadratureNotConverged(ToricError):
    """A closed-form moment is not finite: e^{<a,x>} overflows double precision."""


class MaxIterations(ToricError):
    """Iterative solver exhausted its iteration budget."""


class ParseError(ToricError):
    """Malformed input document."""


class OutOfFloatRange(ToricError, OverflowError):
    """A value, exact or computed, lies beyond the range of a double."""
