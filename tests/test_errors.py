"""The argument and input-file rules of `errors`, and scans that keep them their only owners."""

import ast
import re

import numpy as np
import pytest

from journeynet.errors import (
    CliError, ConfigError, ObjectiveError, ParseError, SamplingError,
    check_int, check_iterable, check_names, check_number, check_text, parse_json, read_text,
)
from test_second_ways_in import SRC, _walk

# (value, low, high, the message, or None where the value passes)
CHECK_INT_CASES = [
    (True, None, None, "n must be an int, got True"),
    (1.0, None, None, "n must be an int, got 1.0"),
    ("1", None, None, "n must be an int, got '1'"),
    (None, None, None, "n must be an int, got None"),
    (np.int64(1), None, None, "n must be an int, got "),
    (-5, None, None, None),
    (1, 1, None, None),
    (0, 1, None, "n must be an int >= 1, got 0"),
    (True, 1, None, "n must be an int >= 1, got True"),
    (0, 0, 10, None),
    (-1, 0, 10, "n must be an int in [0, 10], got -1"),
    (10, 0, 10, None),
    (11, 0, 10, "n must be an int in [0, 10], got 11"),
    (2.5, 0, 10, "n must be an int in [0, 10], got 2.5"),
]


@pytest.mark.parametrize("value, low, high, message", CHECK_INT_CASES)
def test_check_int_takes_an_int_that_is_no_bool_within_its_bounds(value, low, high, message):
    if message is None:
        check_int(value, "n", ConfigError, low=low, high=high)
    else:
        with pytest.raises(ConfigError) as exc:
            check_int(value, "n", ConfigError, low=low, high=high)
        assert str(exc.value).startswith(message)


# (value, whether it passes); a number's range is its caller's, so NaN and inf pass
CHECK_NUMBER_CASES = [
    (True, False),
    ("0.5", False),
    (None, False),
    (np.int64(1), False),
    (np.float32(0.5), False),
    (1, True),
    (0.5, True),
    (np.float64(0.5), True),  # a float subclass
    (float("nan"), True),
    (-float("inf"), True),
]


@pytest.mark.parametrize("value, passes", CHECK_NUMBER_CASES)
def test_check_number_takes_an_int_or_float_that_is_no_bool(value, passes):
    if passes:
        check_number(value, "x", SamplingError)
    else:
        with pytest.raises(SamplingError, match=r"^x must be an int or float, got "):
            check_number(value, "x", SamplingError)


# (value, whether it passes); empty text is text
CHECK_TEXT_CASES = [
    ("kw", True),
    ("", True),
    (np.str_("kw"), True),  # a str subclass
    (None, False),
    (7, False),
    (b"kw", False),
    (["kw"], False),
]


@pytest.mark.parametrize("value, passes", CHECK_TEXT_CASES)
def test_check_text_takes_a_str(value, passes):
    if passes:
        check_text(value, "keywords", ConfigError)
    else:
        with pytest.raises(ConfigError, match=r"^keywords must be text, got "):
            check_text(value, "keywords", ConfigError)


# (values, ordered, the names returned, or the start of the message)
CHECK_NAMES_CASES = [
    (["a", "b"], True, ("a", "b")),
    (("a", "b"), True, ("a", "b")),
    ((p for p in ("a", "b")), True, ("a", "b")),  # read once
    ([], True, ()),
    (["b", "a", "b"], True, ("b", "a", "b")),  # distinctness is the caller's rule
    (frozenset({"a"}), False, ("a",)),
    ({"a": 1}.keys(), False, ("a",)),
    ({"a", "b"}, True, "pages must be an ordered iterable, not a string, set or mapping, got "),
    (frozenset({"a"}), True, "pages must be an ordered iterable, not a string, set or mapping, got "),
    ({"a": 1}.keys(), True, "pages must be an ordered iterable, not a string, set or mapping, got "),
    ("ab", True, "pages must be an ordered iterable, not a string, set or mapping, got 'ab'"),
    ("ab", False, "pages must be an iterable, not a string or mapping, got 'ab'"),
    ({"a": 1}, False, "pages must be an iterable, not a string or mapping, got {'a': 1}"),
    (5, False, "pages must be an iterable, not a string or mapping, got 5"),
    (None, True, "pages must be an ordered iterable, not a string, set or mapping, got None"),
    (["a", ""], True, "pages[1] must be non-empty text, got ''"),
    (["a", 5], True, "pages[1] must be non-empty text, got 5"),
    ([None], False, "pages[0] must be non-empty text, got None"),
    ([["a"]], True, "pages[0] must be non-empty text, got ['a']"),
]


@pytest.mark.parametrize("values, ordered, expected", CHECK_NAMES_CASES)
def test_check_names_takes_an_iterable_of_non_empty_text_as_a_tuple(values, ordered, expected):
    if isinstance(expected, tuple):
        assert check_names(values, "pages", ObjectiveError, ordered=ordered) == expected
    else:
        with pytest.raises(ObjectiveError) as exc:
            check_names(values, "pages", ObjectiveError, ordered=ordered)
        assert str(exc.value).startswith(expected)


def test_check_iterable_is_the_collection_half_of_check_names():
    # any entries, as a tuple, from a collection check_names would take
    assert check_iterable([1, None], "events", ValueError, ordered=True) == (1, None)
    assert check_iterable({1}, "events", ValueError, ordered=False) == (1,)
    for values in ({1}, "ab", {1: 2}, 1):
        with pytest.raises(ValueError, match=r"^events must be an ordered iterable, not a string, set or mapping"):
            check_iterable(values, "events", ValueError, ordered=True)


def test_the_rules_raise_the_callers_exception_class():
    # PageEvent raises ValueError, which is no JourneynetError
    with pytest.raises(ValueError, match="dwell must be an int or float"):
        check_number("1", "dwell", ValueError)
    with pytest.raises(KeyError):
        check_int(0, "k", KeyError, low=1)
    with pytest.raises(ValueError, match="session_id must be text"):
        check_text(1, "session_id", ValueError)


def test_read_text_decodes_utf8_with_universal_newlines_or_names_the_line(tmp_path):
    path = tmp_path / "input"
    path.write_bytes("a\r\nb\rcafé".encode())
    assert read_text(path) == "a\nb\ncafé"
    path.write_bytes(b"a\r\nb\nc\xff")
    with pytest.raises(ParseError, match=f"^line 3: {re.escape(str(path))} is not UTF-8 text ") as exc:
        read_text(path)
    assert exc.value.line_no == 3


@pytest.mark.parametrize("data, line_no", [
    (b"a\rb\r\xff", 3),
    (b"a\r\r\nb\n\r\xff", 5),
    (b"\xff", 1),
    (b"a\x0cb\x1cc\xe2\x80\xa8d\n\xff", 2),  # form feed, file separator and U+2028 end no line
])
def test_read_text_names_the_line_of_a_bad_byte_as_universal_newlines_count_it(tmp_path, data, line_no):
    path = tmp_path / "input"
    path.write_bytes(data)
    with pytest.raises(ParseError) as exc:
        read_text(path)
    assert exc.value.line_no == line_no
    assert data[:data.index(b"\xff")].decode().replace("\r\n", "\n").replace("\r", "\n").count("\n") + 1 == line_no


@pytest.mark.parametrize("text, why", [
    ("[1,", "Expecting value"),
    ("1" * 5000, "Exceeds the limit"),  # an integer too long to convert
    ("[" * 100_000, "maximum recursion depth"),
], ids=["not-json", "huge-integer", "too-deep"])
def test_parse_json_raises_the_callers_error_with_what_and_why(text, why):
    assert parse_json('{"a": [1]}', CliError, "f") == {"a": [1]}
    with pytest.raises(CliError, match=f"^f: bad record: {why}"):
        parse_json(text, CliError, "f: bad record")


# the one test of a scalar's or text's type left outside errors.py: a stream label is an int or a string
OUTSIDE_THE_OWNERS = {("rng.py", "_update")}
SCALAR_CLASSES = {"int", "float", "bool"}
TEXT_AND_NAME_CLASSES = {"str", "Set", "Mapping", "Iterable"}


def hand_written_rules(classes: set[str]) -> list[str]:
    """`file:line` of every line with an isinstance call in the package whose class argument
    names one of `classes`, outside errors.py and OUTSIDE_THE_OWNERS."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node, within in _walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance"):
                continue
            names = {n.id for arg in node.args[1:] for n in ast.walk(arg) if isinstance(n, ast.Name)}
            if names & classes and not any((path.name, f) in OUTSIDE_THE_OWNERS for f in within):
                found.add(f"{path.name}:{node.lineno}")
    return sorted(found)


def test_no_scalar_rule_is_written_by_hand_outside_errors():
    found = hand_written_rules(SCALAR_CLASSES)
    assert not found, f"use errors.check_int or errors.check_number instead: {found}"


def test_no_text_or_name_rule_is_written_by_hand_outside_errors():
    found = hand_written_rules(TEXT_AND_NAME_CLASSES)
    assert not found, f"use errors.check_text, errors.check_names or errors.check_iterable instead: {found}"


def reads_a_file_or_json(node) -> bool:
    """Whether `node` is a json.load/json.loads call, a .read_text/.read_bytes call, or an
    open call in read mode (no mode given, or one with 'r' or '+')."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute):
        on_json = isinstance(func.value, ast.Name) and func.value.id == "json"
        return func.attr in ("read_text", "read_bytes") or (on_json and func.attr in ("load", "loads"))
    if not (isinstance(func, ast.Name) and func.id == "open"):
        return False
    mode = node.args[1] if len(node.args) > 1 else next((k.value for k in node.keywords if k.arg == "mode"), None)
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str) and not set(mode.value) & set("r+"))


def test_no_input_file_rule_is_written_by_hand_outside_errors():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py")) if path.name != "errors.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))) if reads_a_file_or_json(node)
    ]
    assert not found, f"use errors.read_text and errors.parse_json instead: {found}"
