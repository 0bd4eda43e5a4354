"""Cut-and-choose coin tossing over batches of Bell singlets.

Alice supplies M batches of N entangled pairs; Bob tests all but one batch
in the Bell basis and the surviving batch generates the bit string through
anticorrelated sigma_z measurements.  Alice cheats by substituting product
states; Bob cheats by measuring everything first and keeping the batch he
likes best.

A set of batches is one complex (M, N, 4) amplitude array: ``batches[i, j]``
is pair j of batch i in the basis |00>, |01>, |10>, |11> (Alice's qubit
first).  This module holds the physics only; the session message flow and
the strategies live in ``harness``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import check_int, check_real

# Bell basis rows: Phi+, Phi-, Psi+, Psi- (singlet last).
_BELL = np.array(
    [
        [1, 0, 0, 1],
        [1, 0, 0, -1],
        [0, 1, 1, 0],
        [0, 1, -1, 0],
    ],
    dtype=complex,
) / math.sqrt(2)
SINGLET_OUTCOME = 3
# Size guard on the M * N pairs of one session.  At 2**20 pairs (M = 16) one honest
# `run --trials 1` took 0.2 s and peaked at 228 MB RSS; with --transcripts-dir it took
# 1.2-1.5 s and 404 MB, set by serialize (2-core x86-64 Xeon, numpy 2.4).
MAX_PAIRS = 2**20


@dataclass(frozen=True)
class CoinTossParams:
    M: int
    N: int

    def __post_init__(self):
        object.__setattr__(self, "M", check_int("M", self.M, 2))
        object.__setattr__(self, "N", check_int("N", self.N, 1))
        check_int("M * N", self.M * self.N, guard=MAX_PAIRS)


def singlet() -> np.ndarray:
    """(|01> - |10>) / sqrt(2) as a 4-vector."""
    s = math.sqrt(0.5)
    return np.array([0.0, s, -s, 0.0], dtype=complex)


def product_pair(alice_bit: int, bob_bit: int) -> np.ndarray:
    """Computational product state |alice_bit, bob_bit> as a 4-vector."""
    amps = np.zeros(4, dtype=complex)
    amps[2 * alice_bit + bob_bit] = 1.0
    return amps


def singlet_batches(params: CoinTossParams) -> np.ndarray:
    """M batches of N singlets: a fresh, writable (M, N, 4) array."""
    return np.tile(singlet(), (params.M, params.N, 1))


def _sample(probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One outcome index per last-axis row of fresh (..., 4) unnormalized
    probabilities, one uniform per row in order."""
    rows = probs.reshape(-1, 4)
    rows /= rows.sum(axis=1, keepdims=True)
    u = rng.random(len(rows))
    return (np.cumsum(rows, axis=1) < u[:, None]).sum(axis=1).reshape(probs.shape[:-1])


def singlet_test(batches: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Bell-basis measurement of every pair of a (..., N, 4) stack of batches, one uniform
    per pair in order, DRAW_CHUNK pairs per draw; per batch, whether all are singlets."""
    pairs = batches.reshape(-1, 4)
    passed = np.empty(len(pairs), dtype=bool)
    for i in range(0, len(pairs), DRAW_CHUNK):
        probs = np.abs(pairs[i : i + DRAW_CHUNK] @ _BELL.conj().T) ** 2
        passed[i : i + len(probs)] = _sample(probs, rng) == SINGLET_OUTCOME
        del probs  # before the next piece's Bell amplitudes
    return passed.reshape(batches.shape[:-1]).all(-1)


def tampered(shape: tuple, fraction: float, target_bit: int, rng) -> np.ndarray:
    """Singlet batches of pairs shape = (..., N) in which each batch's k =
    ceil(fraction * N) pairs at the k smallest values of one rng.random(shape)
    draw are the product state that forces Alice's bit to target_bit."""
    k = math.ceil(check_real("fraction", fraction, 0, 1) * shape[-1])
    target_bit = check_int("target_bit", target_bit, 0, 1)
    batches = np.tile(singlet(), (*shape, 1))
    picked = np.argpartition(rng.random(shape), k - 1, axis=-1)[..., :k, None]  # k = 0: none
    np.put_along_axis(batches, picked, product_pair(target_bit, 1 - target_bit), axis=-2)
    return batches


def measure_z(batches: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Joint sigma_z outcome 2*alice_bit + bob_bit per pair of a (..., 4)
    array, one uniform per pair in order; +1 maps to bit 0."""
    return _sample(np.abs(batches) ** 2, rng)


def bit_strings(outcomes: np.ndarray) -> tuple[str, str]:
    """Alice's and Bob's bit strings from one batch's sigma_z outcomes."""
    digits = np.stack((outcomes >> 1, outcomes & 1)).astype(np.uint8) + ord("0")
    return digits[0].tobytes().decode(), digits[1].tobytes().decode()


def generate_bits(batch: np.ndarray, rng: np.random.Generator) -> tuple[str, str]:
    """Joint sigma_z measurement per pair of an (N, 4) batch.

    For honest singlets the two strings are exact complements.
    """
    return bit_strings(measure_z(batch, rng))


def zero_prefix_score(bits: str) -> float:
    """Length of the leading all-zero prefix of a bit string."""
    return float(len(bits) - len(bits.lstrip("0")))


def zero_prefixes(bits: np.ndarray) -> np.ndarray:
    """zero_prefix_score of each last-axis row of a bit array, as integers; an
    all-zero row scores its length."""
    return np.where(bits.any(-1), np.argmax(bits != 0, -1), bits.shape[-1])


# Trials of one `run` or sweep value, and scores of one bob_best_of_M call (512 MB of
# float64).  At 40-170 us per trial (default sizes, 2 x86-64 cores) that is 1-3 h.
MAX_TRIALS = 2**26
# Values per bob_best_of_M draw and amplitudes per tamper_detected chunk (or one
# session's, if more), and pairs per singlet_test draw.  2**16 int64 draws raised the
# toss benchmark's peak RSS by 0.9 MB; 2**14 did not.
DRAW_CHUNK = 2**14


def bob_best_of_M(
    params: CoinTossParams, rng: np.random.Generator, trials: int
) -> np.ndarray:
    """float64 best zero-prefix scores of 1 <= trials <= MAX_TRIALS sessions of
    measure-then-choose on honest singlets (uniform bits for Bob); their mean tracks
    log2(M).  One (t, M, N) draw gives the values of t (M, N) draws in order."""
    scores = np.empty(check_int("trials", trials, 1, guard=MAX_TRIALS))
    step = max(1, DRAW_CHUNK // (params.M * params.N))
    for i in range(0, len(scores), step):
        bits = rng.integers(0, 2, size=(min(step, len(scores) - i), params.M, params.N))
        scores[i : i + len(bits)] = zero_prefixes(bits).max(-1)
    return scores


def tamper_detected(params: CoinTossParams, fraction: float, rng, trials: int) -> np.ndarray:
    """Whether an honest Bob catches each of 1 <= trials <= MAX_TRIALS sessions
    against a tampering Alice; the mean tracks 1 - 2^-k(M-1), k = ceil(fraction N).
    Each chunk of sessions draws, in order, its tampered((t, M, N)) batches, the
    kept batches rng.integers(M, size=t) and one singlet_test of the tested ones."""
    detected = np.empty(check_int("trials", trials, 1, guard=MAX_TRIALS), dtype=bool)
    M, N = params.M, params.N
    step = max(1, DRAW_CHUNK // (4 * M * N))  # a pair holds 4 amplitudes
    for i in range(0, len(detected), step):
        batches = tampered((min(step, len(detected) - i), M, N), fraction, 0, rng)
        tested = batches[np.arange(M) != rng.integers(M, size=len(batches))[:, None]]
        detected[i : i + len(batches)] = ~singlet_test(tested, rng).reshape(-1, M - 1).all(-1)
    return detected
