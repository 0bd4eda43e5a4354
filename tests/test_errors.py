import math

import numpy as np
import pytest

from mistrustq.errors import DomainError, check_int


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
