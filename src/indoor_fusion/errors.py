"""Exception types shared across the toolkit."""


class IndoorFusionError(Exception):
    """Base class for all library errors."""


class MalformedLine(IndoorFusionError):
    """A record line is not valid JSON."""


class SchemaViolation(IndoorFusionError):
    """A record line parses as JSON but violates the wire schema."""


class NegativeTime(SchemaViolation):
    """A record carries a timestamp before the session start."""


class EmptyObservations(IndoorFusionError):
    """A row to localize has no usable observation at all."""


class InvalidOverride(IndoorFusionError):
    """A scenario override is inconsistent (e.g. anchor outside bounds)."""


class InsufficientOverlap(IndoorFusionError):
    """Too little common time span to estimate a clock model."""


class ClockFitError(IndoorFusionError):
    """A sensor's timestamps fit no clock model: ticks less than a period
    apart, or a drift beyond the model's range."""


class EmptyGroundTruth(IndoorFusionError):
    """Ground-truth labelling requires at least two trajectory samples."""


class DimensionMismatch(IndoorFusionError):
    """Feature vector length does not match what the consumer expects."""


class EmptyMap(IndoorFusionError):
    """A fingerprint query hit a radio map with no cells."""


class NonFiniteDistance(IndoorFusionError):
    """A fingerprint query is an infinite or NaN feature distance from its
    nearest cells, so their inverse-distance weights are undefined."""


class InsufficientData(IndoorFusionError):
    """Calibration needs more labelled snapshots than were supplied."""


class TooFewFrames(IndoorFusionError):
    """Dataset splitting needs at least a handful of frames."""


class Divergence(IndoorFusionError):
    """Training produced a non-finite loss, or inputs that cannot be
    standardized; carries the history so far."""

    def __init__(self, message: str, history=None):
        super().__init__(message)
        self.history = history if history is not None else []


class LengthMismatch(IndoorFusionError):
    """Estimate and label sequences differ in length or timestamps."""


class EmptyReport(IndoorFusionError):
    """An error report over zero samples is undefined."""


class UndefinedDegradation(IndoorFusionError):
    """A transfer ratio over a self median error of exactly 0."""


class LayoutMismatch(IndoorFusionError):
    """Two frame sets do not share the same feature layout."""


class ConfigError(IndoorFusionError):
    """Bad CLI flag or configuration value (exit code 2)."""
