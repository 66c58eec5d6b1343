"""Exception types shared across the package, and the one double-range guard."""

import contextlib

import numpy as np


class GlueError(Exception):
    """Base class for all package-specific errors."""


class CodimensionTooSmall(GlueError, ValueError):
    """The normal directions to the gluing locus have dimension < 3."""


class ZeroScalarCurvature(GlueError, ValueError):
    """Factor sizes produce a summand with vanishing scalar curvature."""


class OutOfChart(GlueError, ValueError):
    """Coordinates fall outside the declared chart domain."""


class OutOfNeck(OutOfChart):
    """A neck-coordinate argument lies outside (log eps, -log eps)."""


class StencilOutOfChart(OutOfChart):
    """A finite-difference stencil would leave the chart's valid region."""


class IllConditionedMetric(GlueError, ArithmeticError):
    """Metric component matrix too ill-conditioned to invert reliably."""


class NonpositiveConformalFactor(GlueError, ValueError):
    """Conformal factor fails to be strictly positive on the stencil."""


class DeltaOutOfRange(GlueError, ValueError):
    """Weight exponent delta violates the admissible open interval."""


class EpsilonTooLarge(GlueError, ValueError):
    """Neck parameter too large for the requested barrier margin region."""


class NearSingularOperator(GlueError, ArithmeticError):
    """Discrete linearized operator has a near-zero eigenvalue."""


class OutOfFloatRange(GlueError, ArithmeticError):
    """A quantity at this eps overflows or is undefined in double precision."""


class NoConvergence(GlueError, ArithmeticError):
    """An iterative routine exhausted its iteration budget."""


class NotResolved(GlueError, ArithmeticError):
    """Finite-difference error bars swamp the quantity being measured."""


class IterationDiverged(GlueError, ArithmeticError):
    """Fixed-point iteration left its invariant ball."""


class ConfigError(GlueError, ValueError):
    """Invalid run configuration."""


@contextlib.contextmanager
def in_double_range(what: str, eps: float):
    """Raise OutOfFloatRange, naming ``what`` and eps, for any overflow or 0/0 inside."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            yield
    except FloatingPointError as exc:
        raise OutOfFloatRange(f"{what} leave double precision at eps = {eps}: {exc}") from exc
