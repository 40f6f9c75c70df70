"""Exception types shared across the pruning engine."""


class PruneKitError(Exception):
    """Base class for every error raised by prunekit."""


class InvalidArgument(PruneKitError, ValueError):
    """An argument breaks a library rule (a count, a fraction, a seed, a choice)."""


# Container format
class MagicMismatch(PruneKitError):
    """File does not start with the container magic string."""


class ShapeMismatch(PruneKitError):
    """A tensor's shape is inconsistent with its declared or expected shape."""


class TruncatedPayload(PruneKitError):
    """A manifest entry points past the end of the payload."""


class IoFailure(PruneKitError):
    """Underlying filesystem read/write failed."""


class InvariantViolation(PruneKitError):
    """Container or layer content violates a structural invariant."""


# Statistics
class InvalidDimension(PruneKitError):
    """Requested feature dimension is not a positive integer."""


class DimensionMismatch(ShapeMismatch):
    """An engine array is not 2-D or its width disagrees with the expected one."""


class NonFiniteInput(PruneKitError):
    """Input data contains NaN or infinity."""


class EmptyStats(PruneKitError):
    """Operation requires at least one accumulated calibration row."""


class InsufficientSamples(PruneKitError):
    """Operation requires more calibration rows than were accumulated."""


# Criteria
class SingularGram(PruneKitError):
    """Damped Gram matrix could not be factorized as positive definite."""


# Masks
class IndivisibleGroup(PruneKitError):
    """Input dimension is not divisible by the structured group size."""


class InvalidRatio(PruneKitError):
    """Unstructured sparsity ratio lies outside [0, 1]."""


# Pruning orchestration
class MissingCalibration(PruneKitError):
    """No calibration rows were supplied for a layer."""


# Brute-force oracle
class InstanceTooLarge(PruneKitError):
    """Instance exceeds the size bounds of exhaustive enumeration."""
