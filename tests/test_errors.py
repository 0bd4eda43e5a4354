import math
import sys

import numpy as np
import pytest

from mistrustq.errors import DomainError, check_int, check_real


class TestCheckInt:
    @pytest.mark.parametrize("value", [4, 4.0, np.int64(4), np.float64(4.0)])
    def test_integral_values_become_ints(self, value):
        out = check_int("n", value, 1)
        assert out == 4 and type(out) is int

    def test_int_above_the_float_range(self):
        assert check_int("n", 10**400, 1) == 10**400

    @pytest.mark.parametrize(
        "value",
        [math.nan, math.inf, -math.inf, 2.5, np.float64(2.5), "4", None, [4], True, False,
         np.True_],
    )
    def test_refuses_non_integers(self, value):
        with pytest.raises(DomainError, match=r"^n must be an integer >= 1, got "):
            check_int("n", value, 1)

    @pytest.mark.parametrize(
        "args,message",
        [
            (("M", 1, 2), "M must be >= 2"),
            (("n", 2.5, 1), "n must be an integer >= 1, got 2.5"),
            (("reveal_bit", 2, 0, 1), "reveal_bit must be in [0, 1]"),
            (("reveal_bit", 0.5, 0, 1), "reveal_bit must be an integer in [0, 1], got 0.5"),
            (("target", 1.5), "target must be an integer, got 1.5"),
            (("n", True, 1), "n must be an integer >= 1, got True"),
        ],
    )
    def test_messages(self, args, message):
        with pytest.raises(DomainError) as exc:
            check_int(*args)
        assert str(exc.value) == message

    def test_no_bounds_without_lo(self):
        assert check_int("target", -3) == -3
        assert check_int("target", 10**400) == 10**400


class TestCheckReal:
    @pytest.mark.parametrize("value", [1, 0.5, np.float64(0.5), np.int64(1), math.pi / 2])
    def test_reals_become_floats(self, value):
        out = check_real("theta", value, 0.0, math.pi / 2, "(0, pi/2]")
        assert out == float(value) and type(out) is float

    @pytest.mark.parametrize(
        "value",
        [math.nan, np.float64(math.nan), "0.3", None, True, False, np.True_, 0.3j, [0.3],
         {"theta": 0.3}],
    )
    def test_refuses_non_reals(self, value):
        with pytest.raises(DomainError, match=r"^theta .* outside \(0, pi/2\]$"):
            check_real("theta", value, 0.0, math.pi / 2, "(0, pi/2]")

    @pytest.mark.parametrize(
        "span,inside,outside",
        [
            ("[0, 1]", (0, 1), (-1e-300, 1.0000000000000002)),
            ("(0, 1]", (5e-324, 1), (0, -0.0)),
            ("[0, 1)", (0, 0.9999999999999999), (1,)),
            ("(0, 1)", (0.5,), (0, 1)),
        ],
    )
    def test_brackets_say_which_ends_are_open(self, span, inside, outside):
        for value in inside:
            assert check_real("x", value, 0, 1, span) == value
        for value in outside:
            with pytest.raises(DomainError):
                check_real("x", value, 0, 1, span)

    def test_infinities_outside_a_finite_span(self):
        for value in (math.inf, -math.inf):
            with pytest.raises(DomainError):
                check_real("p", value, 0, 1)

    def test_int_above_the_float_range(self):
        # Compared as an int, so float(10**400) is never tried (OverflowError).
        with pytest.raises(DomainError, match="float maximum"):
            check_real("n", 10**400, 1, sys.float_info.max, "[1, float maximum]")
        assert check_real("n", 10**300, 1, sys.float_info.max) == 1e300

    @pytest.mark.parametrize(
        "args,message",
        [
            (("theta", 5.0, 0.0, math.pi / 2, "(0, pi/2]"), "theta 5.0 outside (0, pi/2]"),
            (("theta", "0.3", 0.0, math.pi / 2, "(0, pi/2]"), "theta '0.3' outside (0, pi/2]"),
            (("p", math.nan, 0, 1), "p nan outside [0, 1]"),
            (("p", True, 0, 1), "p True outside [0, 1]"),
            (("fraction", None, 0, 1), "fraction None outside [0, 1]"),
        ],
    )
    def test_messages(self, args, message):
        with pytest.raises(DomainError) as exc:
            check_real(*args)
        assert str(exc.value) == message
