"""Exception hierarchy.

Every failure mode raised by this package derives from :class:`GeophaseError`,
so callers (and the CLI) can catch one base class and map it to a diagnostic.
Class names double as stable error codes in CLI output.
"""


class GeophaseError(Exception):
    """Base class for all errors raised by geophase."""


class _BoundExceeded(GeophaseError):
    """A measured figure failed its bound: ``value`` is the number that
    tripped the check and ``tol`` the bound it failed."""

    def __init__(self, message: str, value: float | None = None,
                 tol: float | None = None):
        super().__init__(message)
        self.value = value
        self.tol = tol


# --- motion path construction / evaluation ---

class GapOrOverlap(GeophaseError):
    """Segment intervals do not tile [0, 1]."""


class DiscontinuousPath(GeophaseError):
    """Adjacent segments disagree at a breakpoint beyond tolerance."""


class BetaOutOfRange(GeophaseError):
    """A tilt value leaves [0, pi]."""


class ThetaNonzeroAtStart(GeophaseError):
    """The revolution angle does not start at 0."""


class SweepTooLarge(GeophaseError):
    """The revolution angle reaches so far out that float spacing there
    exceeds the closure tolerance, so whether the motion closes cannot be
    decided."""


class UnknownExample(GeophaseError):
    """Gallery id is not one of i..vi."""


# --- regularized curve ---

class EpsilonOutOfRange(GeophaseError):
    """Clamp parameter outside [MIN_EPSILON, pi/8) = [1e-100, pi/8)."""


class CurveHasCusps(GeophaseError):
    """Offset-curve operation needs a smooth curve."""


class TooManySamples(_BoundExceeded):
    """A sampled curve, the Berry transport or the oracle needs more samples
    or Magnus intervals than the cap MAX_PIECE_SAMPLES allows: ``value`` is
    the count needed and ``tol`` the cap."""


# --- region analysis ---

class CurveNotClosed(GeophaseError):
    """Operation requires first and last curve points to coincide."""


class CurveNotSimple(GeophaseError):
    """Operation requires a non-self-intersecting curve."""


class PoleOnCurve(GeophaseError):
    """A pole lies on the sampled curve, so its side is undefined."""


class WindingInconsistent(_BoundExceeded):
    """The pole sides contradict the azimuthal winding, or the solid-angle
    fans from the two poles disagree about the left-region area.

    ``value`` is the spread of the two fans; a pole split that contradicts
    the winding has no such number, and there ``value`` and ``tol`` are
    None.
    """


# --- quadrature / reconciliation ---

class QuadratureFailure(_BoundExceeded):
    """A quadrature missed its error target: the adaptive rule at maximum
    depth, or the two Gauss-Legendre orders of the monopole or the
    curvature route.

    ``value`` is the adaptive rule's residual estimate, or the gap between
    the two Gauss-Legendre results on the worst piece.
    """


class MethodDisagreement(GeophaseError):
    """Independent phase methods differ beyond 10x the reconciliation tolerance.

    ``result`` holds the finished PhaseResult, discrepancy table included.
    """

    def __init__(self, message: str, result=None):
        super().__init__(message)
        self.result = result


# --- gauge channels ---

class GaugeInconsistency(_BoundExceeded):
    """The two-level transport carried the normal off the curve.

    ``value`` is the summed miss of the transported normal at the ends of
    the transport intervals.
    """


class OnSingularAxis(_BoundExceeded):
    """Point too close to the patch's excluded half-axis: ``value`` is the
    worst angle from that ray and ``tol`` the clearance AXIS_CLEARANCE; at
    the origin, where the potential is undefined, there is no such number,
    and ``value`` and ``tol`` are None."""


# --- rolling oracle ---

class DriftExceeded(_BoundExceeded):
    """Orientation orthogonality drift above threshold; ``value`` is the
    worst drift | |q|^4 - 1 |."""


class ClosureMismatch(_BoundExceeded):
    """Final orientation fails the mod-2pi residual-rotation check;
    ``value`` is the larger of the axis error and the twist mismatch."""


# --- navigation tracks ---

class EmptyTrack(GeophaseError):
    """Track has fewer than two samples."""


class NonMonotoneTime(GeophaseError):
    """Track times are not strictly increasing."""


class ParseError(GeophaseError):
    """Malformed track file; carries 1-based line and column."""

    def __init__(self, message: str, line: int, column: int = 0):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class LatitudeOutOfRange(GeophaseError):
    """Latitude outside [-90, 90] degrees."""
