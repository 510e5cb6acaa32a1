"""Exception types shared across the package.

Every error raised on a contract violation derives from SuperlocError so
callers can distinguish our diagnostics from plain Python failures.
"""

from __future__ import annotations

from contextlib import contextmanager


class SuperlocError(Exception):
    """Base class for all library errors."""


class UnboundSymbol(SuperlocError):
    """A free symbol has no value in the supplied binding."""


class DimensionMismatch(SuperlocError):
    """Operands live on charts of different dimensions."""


class IndexOutOfRange(SuperlocError):
    """Coordinate or generator index outside the chart ranges."""


class ZeroBody(SuperlocError):
    """Even element has vanishing body where an inverse is required."""


class ShapeMismatch(SuperlocError):
    """Matrix or tensor data with inconsistent shapes."""


class NotTautological(SuperlocError):
    """Operation requires equal even and odd dimension."""


class OddComplexDimension(SuperlocError):
    """Kahler construction needs an even complex dimension."""


class NotLinearInTheta(SuperlocError):
    """Extraction expects components of odd degree exactly one."""


class NotInjective(SuperlocError):
    """The extracted pairing matrix fails the rank condition."""


class NotAZero(SuperlocError):
    """A declared fixed point does not annihilate the field."""


class OddSize(SuperlocError):
    """Pfaffian of an odd-sized matrix requested."""


class NotSkew(SuperlocError):
    """Matrix expected to be skew-symmetric is not."""


class SingularFiberBlock(SuperlocError):
    """Odd block of a superdeterminant pair is singular."""


class NotQClosed(SuperlocError):
    """Integrand is not annihilated by the BRST operator."""


class OddDimension(SuperlocError):
    """Localization formula needs an even odd-dimension."""


class SingularLinearization(SuperlocError):
    """Base linearization at a fixed point is singular."""


class DegenerateField(SuperlocError):
    """Vector field too degenerate to build the localization one-form."""


class NonInvertibleQBeta(SuperlocError):
    """Q(beta) has vanishing body, the witness construction fails."""


class NonIsolatedZero(SuperlocError):
    """Zero set of the field is not isolated at the reported point."""


class NoConvergence(SuperlocError):
    """Iterative search or refinement exhausted its budget."""


class StabilizerNotTrivial(SuperlocError):
    """Candidate ADHM point sits on a gauge stratum with stabilizer."""


class NotUnitary(SuperlocError):
    """Group element block fails the exact unitarity check."""


class WrongGrade(SuperlocError):
    """Superfunction argument has the wrong odd degree."""


class AssumptionViolated(SuperlocError):
    """A standing geometric assumption fails on the supplied data."""


class NonlinearTtilde(SuperlocError):
    """Multiplier action is not linear in the multiplier coordinates."""


class BadSusy(SuperlocError):
    """Unknown supersymmetry multiplicity label."""


class SchemaError(SuperlocError):
    """Scenario file violates the input schema."""


class ComputationError(SuperlocError):
    """A runner failed for a numerical or structural reason."""


@contextmanager
def float_errors(what: str):
    """Raise a float error (an overflow, say) in computing `what` as a ComputationError."""
    try:
        yield
    except (ArithmeticError, ValueError) as exc:
        raise ComputationError("%s raised %s: %s" % (what, type(exc).__name__, exc)) from exc
