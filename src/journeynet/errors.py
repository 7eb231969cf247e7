"""Exception types shared across the package."""


class JourneynetError(Exception):
    """Base class for every error raised by journeynet."""


class ShapeError(JourneynetError, ValueError):
    """Operand shapes are incompatible with the requested operation."""


class NumericError(JourneynetError, ArithmeticError):
    """A computation produced or encountered non-finite values."""


class ParseError(JourneynetError, ValueError):
    """A log line could not be parsed as a structured record."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class SchemaError(JourneynetError, ValueError):
    """A parsed record is missing required fields or violates field constraints."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class MarkovSpecError(JourneynetError, ValueError):
    """A synthetic-chain specification is internally inconsistent."""


class TrainingError(JourneynetError, RuntimeError):
    """Training diverged or could not proceed."""

    def __init__(self, message: str, epoch: int | None = None, batch: int | None = None):
        where = ""
        if epoch is not None:
            where = f" (epoch {epoch}" + (f", batch {batch}" if batch is not None else "") + ")"
        super().__init__(message + where)
        self.epoch = epoch
        self.batch = batch


class CapacityError(JourneynetError, RuntimeError):
    """An exact computation would exceed its configured work budget."""


class CheckpointError(JourneynetError, ValueError):
    """A checkpoint file is not JSON or not a checkpoint format this version reads."""


class ObjectiveError(JourneynetError, ValueError):
    """An objective is empty, targets the NULL page, or names a page outside the vocabulary."""


class SamplingError(JourneynetError, ValueError):
    """A sample count or simulation horizon is out of range."""


class ConfigError(JourneynetError, ValueError):
    """A model, training or data-preparation setting is out of range."""


class CliError(JourneynetError, ValueError):
    """Bad command-line or config-file input."""


def check_int(value, name: str, error: type[JourneynetError]) -> None:
    """`error` unless `value` is an int and not a bool."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise error(f"{name} must be an int, got {value!r}")
