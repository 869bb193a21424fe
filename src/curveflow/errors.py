"""Exception hierarchy shared by all curveflow modules."""

from __future__ import annotations


class CurveFlowError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(CurveFlowError):
    """Two vectors (or a vector and a frame) disagree on the ambient dimension."""


class ParseError(CurveFlowError):
    """Malformed expression text.  Carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnboundVariable(CurveFlowError):
    """An expression referenced a variable that the caller did not bind."""


class DomainError(CurveFlowError):
    """Evaluation left the domain of a function (division by zero, sqrt of a negative)."""


class NullCurveError(CurveFlowError):
    """A tangent vector is null (lightlike) within tolerance; the curve is rejected."""


class MixedCausalityError(CurveFlowError):
    """Tangent causal character changes along the curve."""


class DegenerateCurveError(CurveFlowError):
    """The parametrization speed drops to (numerical) zero somewhere."""


class NonGenericCurveError(CurveFlowError):
    """Orthogonalization broke down: a residual vector vanished or became null.

    ``index`` is the 1-based frame vector that failed, ``sample`` the grid
    index where the breakdown was detected.
    """

    def __init__(self, message: str, index: int, sample: int):
        super().__init__(message)
        self.index = index
        self.sample = sample


class IncompatibleClosedFlow(CurveFlowError):
    """No periodic tangential speed exists: the loop integral of the
    constraint right-hand side is nonzero.  ``residual`` is its value."""

    def __init__(self, residual: float, tolerance: float):
        super().__init__(
            f"closed-curve compatibility integral is {residual:.6e} "
            f"(tolerance {tolerance:.3e}); no periodic solution exists"
        )
        self.residual = residual
        self.tolerance = tolerance


class EvolutionError(CurveFlowError):
    """Base for time-stepping failures.  ``trajectory`` holds the states
    accepted before the failure, ``t`` the time at which it occurred, which
    the message names."""

    def __init__(self, message: str, t: float, trajectory=None):
        super().__init__(f"{message} (at t={t:.6g})")
        self.t = t
        self.trajectory = trajectory


class NullCurveDeveloped(EvolutionError):
    """The evolving curve's tangent became null within tolerance, or changed its
    causal character along the curve: it crossed the null cone between samples."""


class StabilityError(EvolutionError):
    """The time step blew up: non-finite coordinates or a >50% single-step
    change of total arclength."""


class FrameBreakdown(EvolutionError):
    """The frame of a curve rebuilt inside ``evolve`` broke down at time
    ``t``: a NonGenericCurveError, whose ``index`` (the 1-based frame
    vector) and ``sample`` (the grid index) it carries."""

    def __init__(self, message: str, index: int, sample: int, t: float, trajectory=None):
        super().__init__(f"frame breakdown: {message}", t=t, trajectory=trajectory)
        self.index = index
        self.sample = sample


class UnresolvedClosedFlow(EvolutionError):
    """A closed curve rebuilt from points inside ``evolve`` failed the
    compatibility test that its jet-built initial state passed.  The loop
    integral is then a discrete residual of the N-sample rebuild (or the flow
    lost its periodic tangential speed at time ``t``).  ``residual`` and
    ``tolerance`` are as in IncompatibleClosedFlow, ``samples`` is N."""

    def __init__(self, residual: float, tolerance: float, samples: int, t: float, trajectory=None):
        super().__init__(
            f"compatibility integral of the curve rebuilt from N={samples} samples "
            f"is {residual:.6e} (tolerance {tolerance:.3e}): "
            f"under-resolved at N={samples}, or no periodic tangential speed at that time",
            t=t,
            trajectory=trajectory,
        )
        self.residual = residual
        self.tolerance = tolerance
        self.samples = samples


class NotInextensible(CurveFlowError):
    """A check that presumes an inextensible flow was handed one that
    measurably violates the tangential-speed constraint."""

    def __init__(self, violation: float, tolerance: float):
        super().__init__(
            f"flow violates the inextensibility condition by {violation:.3e} "
            f"(tolerance {tolerance:.3e})"
        )
        self.violation = violation
        self.tolerance = tolerance


class InsufficientStates(CurveFlowError):
    """A trajectory is too short for the requested time differencing."""


class ConfigError(CurveFlowError):
    """A scenario file failed validation.  ``field`` names the offending entry."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message if field is None else f"{field}: {message}")
        self.field = field
