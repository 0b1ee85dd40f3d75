"""The single-value input rules of :mod:`repro.checks`, pinned at their bounds."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from repro.checks import host, integer, real

TINY = 5e-324  # the smallest positive float


def message(rule, *args) -> str:
    with pytest.raises(ValueError) as err:
        rule(*args)
    return str(err.value)


# -- integer -----------------------------------------------------------
@pytest.mark.parametrize("value", [1, 7, np.int64(1), np.int8(3), 2**70])
def test_integer_takes_ints_at_or_above_the_minimum(value):
    integer("n", value, 1)


@pytest.mark.parametrize("value", [0, -1, np.int64(0), True, False, 1.0, 2.5, math.nan,
                                   math.inf, "2", None, Fraction(2)])
def test_integer_refuses_everything_else(value):
    assert message(integer, "n", value, 1) == f"n must be an integer >= 1, got {value!r}"


def test_integer_minimum_is_inclusive_at_any_bound():
    integer("n", 0, 0)
    integer("n", -5, -5)
    assert message(integer, "n", -1, 0) == "n must be an integer >= 0, got -1"


def test_integer_without_a_lower_bound_takes_any_sign():
    integer("seed", -(2**70), -math.inf)
    integer("seed", np.int64(-3), -math.inf)
    assert message(integer, "seed", 1.5, -math.inf) == "seed takes only integers, got 1.5"
    assert message(integer, "seed", True, -math.inf) == "seed takes only integers, got True"


# -- real ------------------------------------------------------------------
#: interval -> (values inside, values outside, how the message words it)
INTERVALS = {
    "(0, inf)": ([TINY, 1, 1e308], [0, 0.0, -TINY, math.inf, math.nan], "finite and positive"),
    "[0, inf)": ([0, 0.0, TINY, 1e308], [-TINY, -1, math.inf, math.nan], "finite and non-negative"),
    "(0, inf]": ([TINY, math.inf], [0.0, -1, math.nan], "positive"),
    "[0, inf]": ([0.0, math.inf], [-TINY, math.nan], "non-negative"),
    "[1, inf)": ([1, 1.0, 1e308], [1 - 1e-16, 0, math.inf, math.nan], "finite and >= 1"),
    "(1, inf)": ([1 + 1e-15, 2], [1, 1.0, math.inf], "finite and > 1"),
    "(-inf, inf)": ([-1e308, 0, 1e308], [math.inf, -math.inf, math.nan], "finite"),
    "[-inf, inf]": ([-math.inf, 0, math.inf], [math.nan], "a number"),
    "[0, 1)": ([0, 0.5, 1 - 1e-16], [-TINY, 1, 1.0, math.nan], "in [0, 1)"),
    "(0, 1]": ([TINY, 1], [0, 1 + 1e-15, math.nan], "in (0, 1]"),
    "(0, 1)": ([TINY, 0.5], [0, 1, math.nan], "in (0, 1)"),
    "[0, 1]": ([0, 1], [-TINY, 1 + 1e-15, math.nan], "in [0, 1]"),
}


@pytest.mark.parametrize("interval", INTERVALS)
def test_real_holds_each_end_open_or_closed(interval):
    inside, outside, words = INTERVALS[interval]
    for value in inside:
        real("x", value, interval)
    for value in outside:
        assert message(real, "x", value, interval) == f"x must be {words}, got {value!r}"


@pytest.mark.parametrize("value", [np.float64(0.5), np.float32(0.5), np.int64(1), Fraction(1, 2)])
def test_real_takes_any_real_number_type(value):
    real("x", value, "(0, 1]")


@pytest.mark.parametrize("value", [True, False, "0.5", None, 0.5j, np.bool_(True)])
def test_real_refuses_bools_strings_and_non_reals(value):
    assert message(real, "x", value, "[0, 1]") == f"x must be in [0, 1], got {value!r}"


# -- host ------------------------------------------------------------------
@pytest.mark.parametrize("value", [0, 3, np.int64(2)])
def test_host_takes_non_negative_integers(value):
    host("host", value)
    host("host", value, 4)


@pytest.mark.parametrize("value", [-1, 1.0, True, "0", None])
def test_host_refuses_non_ids(value):
    assert message(host, "host", value, 4) == f"host must be an integer >= 0, got {value!r}"


def test_host_must_exist_when_the_host_count_is_known():
    host("override", 3, 4)
    assert message(host, "override", 4, 4) == (
        "override references unknown host 4 (valid: 0..3)"
    )
    host("override", 4)  # no host count: any id >= 0
