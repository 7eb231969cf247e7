"""The two scalar rules of `errors`, and a scan that keeps them their only owners."""

import ast

import numpy as np
import pytest

from journeynet.errors import ConfigError, SamplingError, check_int, check_number
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


def test_the_rules_raise_the_callers_exception_class():
    # PageEvent raises ValueError, which is no JourneynetError
    with pytest.raises(ValueError, match="dwell must be an int or float"):
        check_number("1", "dwell", ValueError)
    with pytest.raises(KeyError):
        check_int(0, "k", KeyError, low=1)


# the one test of a scalar's type left outside errors.py: a stream label is an int or a string
OUTSIDE_THE_OWNERS = {("rng.py", "_update")}


def hand_written_scalar_rules() -> list[str]:
    """`file:line` of every line with an isinstance call in the package whose class argument
    names int, float or bool, outside errors.py and OUTSIDE_THE_OWNERS."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node, within in _walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance"):
                continue
            names = {n.id for arg in node.args[1:] for n in ast.walk(arg) if isinstance(n, ast.Name)}
            if names & {"int", "float", "bool"} and not any((path.name, f) in OUTSIDE_THE_OWNERS for f in within):
                found.add(f"{path.name}:{node.lineno}")
    return sorted(found)


def test_no_scalar_rule_is_written_by_hand_outside_errors():
    found = hand_written_scalar_rules()
    assert not found, f"use errors.check_int or errors.check_number instead: {found}"
