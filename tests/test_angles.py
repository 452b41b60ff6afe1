import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qwcycle.angles import canonicalize, parse_angle

finite_angles = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@given(finite_angles)
def test_canonicalize_lands_in_range(x):
    y = canonicalize(x)
    assert -math.pi <= y < math.pi


@given(finite_angles)
def test_canonicalize_is_idempotent(x):
    y = canonicalize(x)
    assert canonicalize(y) == y


@given(finite_angles)
def test_canonicalize_shifts_by_whole_turns(x):
    y = canonicalize(x)
    turns = (x - y) / (2 * math.pi)
    assert abs(turns - round(turns)) < 1e-9


def test_canonicalize_identity_in_range():
    # exact float identity, not just approximate equality
    for x in (-math.pi, -1.0, 0.0, 0.5, 3.0, math.pi - 1e-9):
        assert canonicalize(x) == x


def test_canonicalize_rejects_non_finite():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            canonicalize(bad)


@pytest.mark.parametrize(
    "token,expected",
    [
        ("pi", math.pi),
        ("-pi", -math.pi),
        ("pi/2", math.pi / 2),
        ("-pi/2", -math.pi / 2),
        ("3pi/4", 3 * math.pi / 4),
        ("0.5pi", 0.5 * math.pi),
        ("2pi", 2 * math.pi),
        ("+pi/3", math.pi / 3),
        ("PI/2", math.pi / 2),
        ("1.25", 1.25),
        ("-0.75", -0.75),
        ("0", 0.0),
    ],
)
def test_parse_angle_tokens(token, expected):
    assert parse_angle(token) == expected


@pytest.mark.parametrize(
    "token", ["", "pie", "pi/0", "two pi", "1/2pi/3", "nanpi", "nan", "inf", "-inf", "1e400"]
)
def test_parse_angle_rejects_garbage(token):
    with pytest.raises(ValueError):
        parse_angle(token)
