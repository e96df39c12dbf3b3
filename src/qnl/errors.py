"""Exception types shared across the package."""


class QnlError(Exception):
    """Base class for every error raised by this package."""


class DomainError(QnlError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class RangeError(QnlError, ValueError):
    """A frequency falls outside a tabulated grid."""


class LosslessProbeError(QnlError, ArithmeticError):
    """The probe has no dissipation at this frequency: the back-action
    threshold is infinite and only the power-limited (QCRB) branch exists."""


class FdtViolationError(QnlError, ValueError):
    """Back-action PSD below hbar*|Im K|, which no stationary meter can
    realize (its own fluctuation-dissipation bound)."""


class EmptyFeasibleRegionError(QnlError, RuntimeError):
    """The oracle's saturation surface is empty.  brute_force_min and
    random_saturating_triad raise it at exactly the meter FDT floor s_ff = hbar*|Im K|,
    which their precondition s_ff >= hbar*|Im K| admits: there a denominator of
    max(S+, S-) is 0 and no S_xx saturates."""


class ConfigError(QnlError, ValueError):
    """A sweep configuration failed to parse or validate."""
