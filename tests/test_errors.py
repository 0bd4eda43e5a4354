import math
import sys
import tracemalloc

import numpy as np
import pytest

from mistrustq import bitwise, codebook, cointoss, qmath
from mistrustq.errors import DomainError, SimulationError, TooLarge, check_int, check_real


def test_one_class_per_kind_of_failure():
    # A bad argument of any shape is a DomainError; a new class must be a new kind.
    assert {c.__name__ for c in SimulationError.__subclasses__()} == {
        "DomainError", "TooLarge", "NoConvergence", "PackingFailure",
        "DeserializeError", "UnknownStrategy", "ProtocolViolation",
    }


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

    def test_guard_admits_its_own_value(self):
        assert check_int("d", 256, 1, guard=256) == 256
        assert check_int("d", 256.0, guard=256) == 256

    def test_integral_float_above_the_guard_prints_as_an_int(self):
        with pytest.raises(TooLarge) as exc:
            check_int("d", 257.0, 1, guard=256)
        assert str(exc.value) == "d 257 exceeds the guard 256"

    @pytest.mark.parametrize("value", [True, math.nan, np.float64(math.nan)])
    def test_integer_rule_comes_before_the_guard(self, value):
        with pytest.raises(DomainError, match=r"^n must be an integer, got "):
            check_int("n", value, guard=0)

    def test_floor_comes_before_the_guard(self):
        with pytest.raises(DomainError, match=r"^n must be >= 5$"):
            check_int("n", 4, 5, guard=3)


def _params(M, N):
    return cointoss.CoinTossParams(M=M, N=N)


# Each size guard, through a public function, one above the guard.  The
# arguments are built first; the call itself may then allocate next to
# nothing, where the unguarded work would allocate at least 1 MB.
GUARDS = {
    "session-n": (lambda: (bitwise.SecurityParams, 0.3, 10**6 + 1),
                  "n 1000001 exceeds the guard 1000000"),
    "ensemble-n": (lambda: (bitwise.bob_ensemble, 11, 0.3), "n 11 exceeds the guard 10"),
    "codebook-d": (lambda: (codebook.random_codebook, 257, 256, 0.5, np.random.default_rng(0)),
                   "d 257 exceeds the guard 256"),
    "codebook-count": (
        lambda: (codebook.random_codebook, 256, 257, 0.5, np.random.default_rng(0)),
        "count 257 exceeds the guard 256"),
    "simplex-d": (lambda: (codebook.simplex_codebook, 1025), "d 1025 exceeds the guard 1024"),
    "report-dim": (
        lambda: (codebook.bob_info_report, codebook.Codebook(257, np.eye(2, 257), 0.5)),
        "dim 257 exceeds the guard 256"),
    "pairs": (lambda: (_params, 2, 2**19 + 1), "M * N 1048578 exceeds the guard 1048576"),
    "jacobi-dim": (lambda: (qmath.hermitian_eigen, qmath.HermitianOperator(np.eye(257))),
                   "dim 257 exceeds the guard 256"),
    "eigenvalues-dim": (
        lambda: (qmath.hermitian_eigenvalues, qmath.HermitianOperator(np.eye(1025))),
        "dim 1025 exceeds the guard 1024"),
    "trials": (
        lambda: (cointoss.bob_best_of_M, _params(2, 4), np.random.default_rng(0), 2**26 + 1),
        "trials 67108865 exceeds the guard 67108864"),
}


@pytest.mark.parametrize("make,message", GUARDS.values(), ids=GUARDS.keys())
def test_size_guards(make, message):
    func, *args = make()
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge) as exc:
            func(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == message
    assert peak < 2**16


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
