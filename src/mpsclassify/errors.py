"""Exception hierarchy shared by all mpsclassify modules, and the checks
that a configured value is an integer or a real number."""

import numbers


class MpsError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(MpsError):
    """Operand shapes do not satisfy an operation's contract."""


class DomainError(MpsError):
    """A value lies outside the mathematical domain of an operation."""


class ConfigError(MpsError):
    """Invalid model, run, or dataset configuration."""


class NumericError(MpsError):
    """A non-finite value appeared where a finite one is required."""


class ConsistencyError(MpsError):
    """A tape, gradient, or optimizer state does not match its model."""


class CheckpointError(MpsError):
    """Base class for checkpoint save/load failures."""


class CheckpointFormatError(CheckpointError):
    """Checkpoint file has bad magic bytes or a header no model allows."""


class CheckpointVersionError(CheckpointError):
    """Checkpoint format version is not supported by this build."""


class CheckpointTruncatedError(CheckpointError):
    """Checkpoint payload is shorter or longer than its header declares."""


class IdxParseError(MpsError):
    """An IDX dataset file is malformed (magic, header, or payload)."""


def check_integer(name: str, value, error: type = ConfigError) -> None:
    """Raise ``error`` naming ``name`` unless ``value`` is an integer (a bool is not one)."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise error(f"{name} must be an integer, got {value!r}")


def check_real(name: str, value, allow_zero: bool = False) -> None:
    """Raise ``ConfigError`` naming ``name`` unless ``value`` is a real number (a
    bool is not one), finite and positive, or 0 too where ``allow_zero``."""
    if (not isinstance(value, numbers.Real) or isinstance(value, bool)
            or not 0 <= value < float("inf") or (value == 0 and not allow_zero)):
        raise ConfigError(
            f"{name} must be {'>= 0' if allow_zero else 'positive'} and finite, got {value!r}"
        )
