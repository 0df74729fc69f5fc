"""Exception types shared across the package."""


class AcpShieldError(Exception):
    """Base class for all package errors."""


class InvalidModel(AcpShieldError):
    """A POMDP table failed validation (bad row sum, negative entry, shape)."""


class InvalidSpec(AcpShieldError):
    """An environment or experiment specification is inconsistent."""


class ImpossibleObservation(AcpShieldError):
    """The observation has zero prior probability under the given belief/action."""


class EmptyBelief(AcpShieldError):
    """A belief or particle set with no mass/particles where one is required."""


class ParseError(AcpShieldError):
    """A data file failed to parse.

    Carries the 1-based line number when known.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class NonMonotoneFrames(AcpShieldError):
    """An agent's trajectory has duplicate or decreasing frame ids."""


class HistoryTooShort(AcpShieldError):
    """Predictor needs more past joint states than were supplied."""


class OutOfRange(AcpShieldError):
    """A timestep query outside the trajectory source's span."""


class MissingExternalPrediction(AcpShieldError):
    """Replay predictor has no stored rows for the requested timestep."""


class AgentMismatch(AcpShieldError):
    """Actual and predicted joint states share no common agent ids."""


class EmptyWindow(AcpShieldError):
    """Quantile requested from an empty nonconformity window."""


class UnknownSupport(AcpShieldError):
    """A belief support is not a node of the current transition system."""


class AllActionsShielded(AcpShieldError):
    """Every root action was pruned by the shield; a fallback must act."""


class ParticleDeprivation(AcpShieldError):
    """No successor of the particles is consistent with the received
    observation."""
