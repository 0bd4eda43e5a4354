"""Exception types shared across the protocol modules, and the integer and real checks."""

import numbers


class SimulationError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(SimulationError):
    """A bad argument: a value, shape, length, index or spec outside its domain."""


class NoConvergence(SimulationError):
    """The eigensolver exhausted its sweep budget without converging."""


class TooLarge(SimulationError):
    """A requested size exceeds its guard (raised by check_int alone)."""


class PackingFailure(SimulationError):
    """Could not pack the requested number of low-overlap vectors."""


class UnknownStrategy(SimulationError):
    """A strategy name or parameter does not resolve to a protocol's strategy."""


class ProtocolViolation(SimulationError):
    """A session driver sent a message out of order (harness bug, not cheating)."""


class DeserializeError(SimulationError):
    """A serialized transcript could not be parsed."""


def check_int(name: str, value, lo: int | None = None, hi: int | None = None, *,
              guard: int | None = None) -> int:
    """value as an int if it is an integer, or an integral float such as 4.0, in
    [lo, hi] (any integer if lo is None); else DomainError (NaN, inf, 2.5, "4", True).
    Then a size guard: above guard, TooLarge as `<name> <value> exceeds the guard <guard>`."""
    span = "" if lo is None else f" >= {lo}" if hi is None else f" in [{lo}, {hi}]"
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    # Integral first: float(10**400) would overflow.
    if not (real and (isinstance(value, numbers.Integral) or float(value).is_integer())):
        raise DomainError(f"{name} must be an integer{span}, got {value!r}")
    if lo is not None and (value < lo or (hi is not None and value > hi)):
        raise DomainError(f"{name} must be{span}")
    if guard is not None and value > guard:
        raise TooLarge(f"{name} {int(value)} exceeds the guard {guard}")
    return int(value)


def check_real(name: str, value, lo: float, hi: float, span: str = "") -> float:
    """value as a float if it is a real number in span, an interval such as
    "(0, pi/2]" whose brackets say which ends are open ("[lo, hi]" by default);
    else DomainError (NaN, "0.3", None, True, 1j) as `<name> <value> outside <span>`."""
    span = span or f"[{lo}, {hi}]"
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    above = real and (lo < value if span[0] == "(" else lo <= value)
    if not (above and (value < hi if span[-1] == ")" else value <= hi)):
        raise DomainError(f"{name} {value if real else repr(value)} outside {span}")
    return float(value)
