"""Exception hierarchy shared by all mpsclassify modules."""


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
