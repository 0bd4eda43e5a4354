"""Codebook string commitment: low-coherence packings and cheat analysis.

A codebook is a set of unit vectors whose pairwise overlaps are certified
below epsilon.  Committing a string sends the vector it indexes; cheating
over a target set of r strings is governed by the top eigenvalue of
Q = P_1 + ... + P_r, which never exceeds 1 + (r-1) * epsilon, and which the
r x r Gram matrix of the targets shares.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, PackingFailure, check_int, check_real
from . import qmath
from .qmath import HermitianOperator, StateVector

MAX_REPORT_DIM = 256
# Size guards on a random codebook.  At count 8 a `run --protocol codebook`
# peaked at 36 MB at both dim 16 and dim 256.  One polish step at count 256
# takes 1.4 ms at dim 4 and 7.4 ms at dim 256, so a packing that never
# converges fails after 6-37 s.
MAX_CODEBOOK_DIM = 256
MAX_CODEBOOK_COUNT = 256
# A simplex codebook builds a d x (d+1) basis and a (d+1)^2 certificate: a
# `run --protocol codebook --construction simplex` took 0.04 s and 41 MB at
# dim 256, 0.48 s and 142 MB at 1024, and 1.3 s and 455 MB at 2048.
MAX_SIMPLEX_DIM = 1024
# Repulsion polish: gradient steps of this size, at most this many.
POLISH_STEP = 0.5
POLISH_MAX_ITERS = 5000
# The top eigenspace of a cheat is every eigenvalue within this relative
# distance of lambda_max.  Solvers split an exactly degenerate eigenvalue by
# rounding only, far below this: Jacobi splits the simplex top eigenvalue by
# at most 9e-16 relative for every r >= 3 and dim up to 32.
TOP_EIGENSPACE_RTOL = 1e-9
# A target codeword whose projection onto the top eigenspace has at most this
# norm is orthogonal to it up to rounding, so it cannot fix the cheat state.
NEGLIGIBLE_PROJECTION = 1e-6


@dataclass(frozen=True)
class Codebook:
    """Indexed unit vectors with a certified pairwise-overlap bound.

    vectors is a (count, dim) complex array, one vector per row.
    """

    dim: int
    vectors: np.ndarray
    epsilon: float
    construction: str = "random"

    def __post_init__(self):
        V = np.asarray(self.vectors, dtype=complex)
        if V.ndim != 2 or V.shape[1] != self.dim:
            raise DomainError(f"vectors shape {V.shape} does not match dim {self.dim}")
        if V.shape[0] < 2:
            raise DomainError("a codebook needs at least 2 vectors")
        if not np.isfinite(V).all():
            raise DomainError("codebook vectors must be finite")
        norms = np.linalg.norm(V, axis=1)
        if np.abs(norms - 1.0).max() > qmath.NORM_TOL:
            raise DomainError("codebook vectors must be unit norm")
        object.__setattr__(self, "vectors", qmath._read_only(V))
        # Certify: every pairwise overlap must lie below epsilon.
        G = V @ V.conj().T
        off = np.abs(G - np.diag(np.diag(G)))
        worst = off.max()
        if worst >= self.epsilon:
            raise DomainError(
                f"pairwise overlap {worst} violates certified bound {self.epsilon}"
            )

    @property
    def count(self) -> int:
        return self.vectors.shape[0]

    def state(self, index: int) -> np.ndarray:
        """The codeword of a string index (a read-only row of vectors)."""
        return self.vectors[check_int("index", index, 0, self.count - 1)]


class CheatReport(NamedTuple):
    """Outcome of the optimal multistring cheat against a target set."""

    target_indices: tuple[int, ...]
    cheat_state: StateVector
    success_probs: tuple[float, ...]
    total: float


def _repulsion_polish(V: np.ndarray, epsilon: float) -> np.ndarray | None:
    """Push vectors apart until all overlaps drop below epsilon.

    Gradient descent on a hinge of the squared overlaps above a target a
    little inside the bound; returns None if the iteration budget runs out
    (the packing is then presumed infeasible at this epsilon).
    """
    target = 0.96 * epsilon
    for _ in range(POLISH_MAX_ITERS):
        G = V @ V.conj().T
        np.fill_diagonal(G, 0.0)
        if np.abs(G).max() < 0.999 * epsilon:
            return V
        W = np.maximum(np.abs(G) ** 2 - target**2, 0.0)
        V = V - POLISH_STEP * ((W * G) @ V)
        V /= np.linalg.norm(V, axis=1, keepdims=True)
    return None


def random_codebook(
    d: int, count: int, epsilon: float, rng: np.random.Generator
) -> Codebook:
    """Seeded random low-coherence packing.

    count Haar-random unit vectors (the real parts of all rows drawn first,
    then the imaginary parts) are pushed apart by the repulsion polish until
    every pairwise overlap is below epsilon, then certified by Codebook.
    Deterministic for a fixed rng state.  d and count are capped at
    MAX_CODEBOOK_DIM and MAX_CODEBOOK_COUNT (TooLarge).  An epsilon at or
    below the Welch bound sqrt((count - d) / (d (count - 1))) admits no
    packing at all, so it fails before anything is drawn.
    """
    d = check_int("d", d, 1, guard=MAX_CODEBOOK_DIM)
    count = check_int("count", count, 2, guard=MAX_CODEBOOK_COUNT)
    epsilon = check_real("epsilon", epsilon, 0, 1, "(0, 1]")
    if count > d and epsilon <= math.sqrt((count - d) / (d * (count - 1))):
        raise PackingFailure(
            f"epsilon {epsilon} is at or below the Welch bound for {count} vectors "
            f"in dim {d}"
        )
    V = rng.standard_normal((count, d)) + 1j * rng.standard_normal((count, d))
    V = _repulsion_polish(V / np.linalg.norm(V, axis=1, keepdims=True), epsilon)
    if V is None:
        raise PackingFailure(
            f"could not pack {count} vectors in dim {d} below overlap {epsilon}"
        )
    return Codebook(dim=d, vectors=V, epsilon=epsilon, construction="random")


def simplex_codebook(d: int) -> Codebook:
    """Regular simplex: d+1 real unit vectors with pairwise inner product -1/d.

    Vertices of the regular simplex centered at the origin of R^(d+1),
    rotated into R^d by the Helmert basis of the hyperplane orthogonal to
    the all-ones vector.  d is capped at MAX_SIMPLEX_DIM (TooLarge).
    """
    d = check_int("d", d, 2, guard=MAX_SIMPLEX_DIM)
    m = d + 1
    # Helmert rows: orthonormal basis of the hyperplane sum(x) = 0.
    B = np.zeros((d, m))
    for k in range(1, m):
        B[k - 1, :k] = 1.0
        B[k - 1, k] = -k
        B[k - 1] /= math.sqrt(k * (k + 1))
    centered = np.eye(m) - 1.0 / m
    V = (B @ centered).T  # row i = simplex vertex i in R^d
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    return Codebook(
        dim=d,
        vectors=V.astype(complex),
        epsilon=1.0 / d + 1e-12,
        construction="simplex",
    )


def verify_unveil(
    codebook: Codebook, held: np.ndarray, claimed: int, rng: np.random.Generator
) -> bool:
    """Measure the held state against the claimed codeword: accepted with
    probability |<v_claimed|held>|^2, decided by one uniform draw."""
    if np.shape(held) != (codebook.dim,):
        raise DomainError("committed state dimension does not match codebook")
    p = abs((codebook.state(claimed).conj() * held).sum()) ** 2
    return bool(rng.random() < p)


def _check_targets(codebook: Codebook, targets) -> tuple[int, ...]:
    targets = tuple(check_int("target", t, 0, codebook.count - 1) for t in targets)
    if len(set(targets)) != len(targets):
        raise DomainError(f"repeated indices in {targets}")
    if not targets:
        raise DomainError("target set must be nonempty")
    return targets


def cheat_operator(codebook: Codebook, targets) -> HermitianOperator:
    """Q = sum of projectors onto the target codewords."""
    targets = _check_targets(codebook, targets)
    B = codebook.vectors[list(targets)]
    return HermitianOperator(sum(np.outer(v, v.conj()) for v in B))


def cheat_bound(r: int, epsilon: float) -> float:
    """Ceiling 1 + (r - 1) * epsilon on the total success probability of
    keeping r revelations alive in an epsilon-certified codebook."""
    check_real("r", check_int("r", r, 1), 1, sys.float_info.max, "[1, float maximum]")
    return 1.0 + (r - 1) * check_real("epsilon", epsilon, 0, 1, "(0, 1]")


def _top_state(projections: np.ndarray) -> StateVector:
    """The canonical cheat state: the normalized first column of projections
    (column k is P v_k, target codeword k projected onto the top eigenspace)
    whose norm is not negligible.  <v_k|P v_k> = ||P v_k||^2 is real and
    positive, which fixes the global phase."""
    k = int(np.argmax(np.linalg.norm(projections, axis=0) > NEGLIGIBLE_PROJECTION))
    # + 0.0 turns -0.0 into 0.0, so transcripts never print a signed zero.
    return qmath.ket(projections[:, k] + 0.0)


def optimal_multistring_cheat(codebook: Codebook, targets) -> CheatReport:
    """Best single committed state for keeping r revelations alive.

    With the target codewords as the rows of B, the total success
    probability is lambda_max of Q = B^T conj(B) (the projector sum), at most
    1 + (r-1) * epsilon.  Q shares its nonzero spectrum with the r x r Gram
    matrix G = conj(B) B^T, so the smaller one is solved: G when r < dim, Q
    otherwise, and TooLarge comes only when that matrix exceeds the Jacobi
    guard.  The cheat state is the normalized projection, onto the top
    eigenspace (eigenvalues within TOP_EIGENSPACE_RTOL of lambda_max), of the
    first target codeword in caller order whose projection is not
    negligible: B^T P_G e_k on the Gram route, P_Q v_k on the Q route, which
    are the same vector.  It depends on the eigenspace alone, not on the
    basis a solver picks in a degenerate one, and <v_k|cheat> is positive.
    """
    targets = _check_targets(codebook, targets)
    B = codebook.vectors[list(targets)]
    gram = len(targets) < codebook.dim
    H = gram_matrix(codebook, targets) if gram else cheat_operator(codebook, targets)
    w, V = qmath.hermitian_eigen(H)
    U = V[:, w >= w[0] * (1.0 - TOP_EIGENSPACE_RTOL)]
    P = U @ U.conj().T
    cheat = _top_state(B.T @ P if gram else P @ B.T)
    probs = tuple(float(p) for p in np.abs(B.conj() @ cheat.amplitudes) ** 2)
    total, bound = float(w[0]), cheat_bound(len(targets), codebook.epsilon)
    if total > bound + 1e-9:
        raise DomainError(f"total {total} exceeds bound {bound}")
    for p in probs:
        if not (0.0 <= p <= 1.0 + 1e-12):
            raise DomainError(f"success probability {p} outside [0, 1]")
    return CheatReport(targets, cheat, probs, total)


def gram_matrix(codebook: Codebook, targets) -> HermitianOperator:
    """Pairwise inner products of the target codewords.

    Shares its nonzero spectrum with the cheat operator Q whenever the
    target vectors are linearly independent.
    """
    targets = _check_targets(codebook, targets)
    V = codebook.vectors[list(targets)]
    return HermitianOperator(V.conj() @ V.T)


class BobInfoReport(NamedTuple):
    holevo: float
    dim_bound: float
    committed_bits: int


def bob_info_report(codebook: Codebook) -> BobInfoReport:
    """Receiver-side information accounting for a uniform committed string.

    holevo is the exact entropy of the equal mixture of all codewords;
    dim_bound = log2(dim) always dominates it, while the committed string
    is floor(log2 count) bits.
    """
    check_int("dim", codebook.dim, guard=MAX_REPORT_DIM)
    V = codebook.vectors
    rho = HermitianOperator(V.T @ V.conj() / codebook.count)
    return BobInfoReport(
        holevo=qmath.von_neumann_entropy(rho),
        dim_bound=math.log2(codebook.dim),
        committed_bits=codebook.count.bit_length() - 1,
    )
