"""Exception types shared across the package, the owners of its four argument
rules, and the owners of its two input-file rules.

Every int argument the package takes is checked by :func:`check_int` (an
int, not a bool, within the bounds given), and every int-or-float argument
by :func:`check_number` (an int or a float, not a bool); no other code tests
a scalar's type.  A number keeps its own range check where it is used, as
the ranges differ: open or closed, finite or not, NaN refused or not.

Every text argument (an id, a keyword phrase, an alphabet) is checked by
:func:`check_text`, which can also refuse the empty string, and every
collection of page or state names by :func:`check_names` (an iterable of
non-empty text, read into a tuple).
The collection half of that rule, :func:`check_iterable`, refuses a string,
a mapping and, where order matters, a set; it also checks the ordered
collections that hold no names (a session's events, the sessions training
reads).  No other code tests whether a value is text or a collection.

Every input file (a session log, a chain spec, a checkpoint, a prefix,
objectives or config file) is read by :func:`read_text`, which decodes it
as UTF-8 or raises a ParseError naming the file and the line, and every
JSON document or record in one is decoded by :func:`parse_json`.  No other
code opens a file to read it or decodes JSON.
"""

import json
from collections.abc import Iterable, Mapping, Set


class JourneynetError(Exception):
    """Base class for every error raised by journeynet."""


class ShapeError(JourneynetError, ValueError):
    """Operand shapes are incompatible with the requested operation."""


class NumericError(JourneynetError, ArithmeticError):
    """A computation produced or encountered non-finite values."""


class ParseError(JourneynetError, ValueError):
    """A line of an input file could not be decoded or parsed."""

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
    """A sample count, simulation horizon or enumeration setting is out of range."""


class ConfigError(JourneynetError, ValueError):
    """A model, training or data-preparation setting is out of range."""


class CliError(JourneynetError, ValueError):
    """Bad command-line or config-file input."""


def check_int(value, name: str, error: type[Exception], low: int | None = None, high: int | None = None) -> None:
    """`error` unless `value` is an int, not a bool, and lies within `low` and
    `high` (inclusive, each only if given; `high` only with `low`)."""
    if (
        isinstance(value, bool) or not isinstance(value, int)
        or (low is not None and value < low) or (high is not None and value > high)
    ):
        rule = "" if low is None else f" >= {low}" if high is None else f" in [{low}, {high}]"
        raise error(f"{name} must be an int{rule}, got {value!r}")


def check_number(value, name: str, error: type[Exception]) -> None:
    """`error` unless `value` is an int or a float, not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise error(f"{name} must be an int or float, got {value!r}")


def check_text(value, name: str, error: type[Exception], empty: bool = True) -> None:
    """`error` unless `value` is a str, and a non-empty one unless `empty`."""
    if not isinstance(value, str) or not (empty or value):
        raise error(f"{name} must be {'' if empty else 'non-empty '}text, got {value!r}")


def check_iterable(values, name: str, error: type[Exception], ordered: bool) -> tuple:
    """`values` read once into a tuple; `error` if they are a string, a mapping
    or no iterable, or, when `ordered`, a set, whose order is the hash seed's."""
    refused = (str, Mapping, Set) if ordered else (str, Mapping)
    if isinstance(values, refused) or not isinstance(values, Iterable):
        kind = "an ordered iterable, not a string, set" if ordered else "an iterable, not a string"
        raise error(f"{name} must be {kind} or mapping, got {values!r}")
    return tuple(values)


def check_names(values, name: str, error: type[Exception], ordered: bool) -> tuple[str, ...]:
    """`values` as a tuple of non-empty str (`check_iterable` for the collection);
    `error` naming the first entry that is not one."""
    names = check_iterable(values, name, error, ordered)
    for i, value in enumerate(names):
        check_text(value, f"{name}[{i}]", error, empty=False)
    return names


def read_text(path) -> str:
    """The text of the UTF-8 file at `path`, with universal newlines; ParseError
    naming the file and the line of the first byte that is not UTF-8."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        # the line as universal newlines number it: "\r\n", "\r" and "\n" each end one
        head = exc.object[:exc.start]
        line_no = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise ParseError(line_no, f"{path} is not UTF-8 text ({exc.reason})") from exc


def parse_json(text: str, error, what: str):
    """`json.loads(text)`; `error("what: why")` if `text` is not JSON, holds an
    integer too long to convert or nests too deep."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise error(f"{what}: {getattr(exc, 'msg', exc)}") from exc
