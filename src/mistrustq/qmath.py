"""Exact small-dimension complex linear algebra and entropy.

All values are immutable after construction and all operations are pure, so
they are safe to call from concurrent code.  The only stateful object that
ever appears in a signature is a ``numpy.random.Generator``, which must not
be shared across concurrent tasks.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimMismatch,
    DomainError,
    NoConvergence,
    TooLarge,
    ZeroVector,
)

NORM_TOL = 1e-12
HERMITIAN_TOL = 1e-12
EIGEN_FLOOR = -1e-10
# Jacobi stops once ||offdiag(A)||_F <= JACOBI_TOL * ||H||_F and skips
# rotations with |a_pq| <= JACOBI_TOL * ||H||_F / n.
JACOBI_TOL = 1e-12
JACOBI_MAX_SWEEPS = 100
MAX_EIGEN_DIM = 4096


def _as_complex_vector(amplitudes) -> np.ndarray:
    a = np.asarray(amplitudes, dtype=complex).reshape(-1)
    a = a.copy()
    a.setflags(write=False)
    return a


def _as_complex_matrix(entries) -> np.ndarray:
    m = np.asarray(entries, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimMismatch(f"expected a square matrix, got shape {m.shape}")
    m = m.copy()
    m.setflags(write=False)
    return m


@dataclass(frozen=True)
class StateVector:
    """Unit-norm complex amplitude vector."""

    amplitudes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "amplitudes", _as_complex_vector(self.amplitudes))
        if self.dim < 1:
            raise DimMismatch("state vector must have dimension >= 1")
        norm = np.linalg.norm(self.amplitudes)
        if abs(norm - 1.0) > NORM_TOL:
            raise DomainError(f"state vector norm {norm} is not 1 within {NORM_TOL}")

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]


@dataclass(frozen=True)
class HermitianOperator:
    """Square complex matrix, Hermitian within 1e-12 entrywise."""

    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", _as_complex_matrix(self.entries))
        dev = np.abs(self.entries - self.entries.conj().T).max()
        if dev > HERMITIAN_TOL:
            raise DomainError(f"matrix deviates from Hermitian by {dev}")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, trace-1, positive-semidefinite operator."""

    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", _as_complex_matrix(self.entries))
        dev = np.abs(self.entries - self.entries.conj().T).max()
        if dev > HERMITIAN_TOL:
            raise DomainError(f"matrix deviates from Hermitian by {dev}")
        tr = np.trace(self.entries)
        if abs(tr - 1.0) > HERMITIAN_TOL:
            raise DomainError(f"trace {tr} is not 1 within {HERMITIAN_TOL}")
        # PSD validity check only; spectral analysis proper goes through
        # hermitian_eigen.
        lo = np.linalg.eigvalsh(self.entries).min()
        if lo < EIGEN_FLOOR:
            raise DomainError(f"negative eigenvalue {lo} below {EIGEN_FLOOR}")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def as_operator(self) -> HermitianOperator:
        return HermitianOperator(self.entries)


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues in descending order with orthonormal eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: tuple[StateVector, ...] = field(repr=False)

    def reconstruct(self) -> np.ndarray:
        """Rebuild sum(lambda_k |u_k><u_k|) as a plain matrix."""
        U = np.column_stack([v.amplitudes for v in self.eigenvectors])
        return (U * self.eigenvalues) @ U.conj().T


def ket(amplitudes) -> StateVector:
    """Normalize a nonzero complex vector into a StateVector."""
    a = np.asarray(amplitudes, dtype=complex).reshape(-1)
    norm = np.linalg.norm(a)
    if norm < 1e-300:
        raise ZeroVector("cannot normalize a (near-)zero vector")
    return StateVector(a / norm)


def inner(a: StateVector, b: StateVector) -> complex:
    """<a|b>, conjugate-linear in the first argument."""
    if a.dim != b.dim:
        raise DimMismatch(f"dims {a.dim} and {b.dim} differ")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Kronecker product; the first factor is the slow (row-major) index."""
    return StateVector(np.kron(a.amplitudes, b.amplitudes))


def projector(v: StateVector) -> HermitianOperator:
    """Rank-1 projector |v><v|."""
    return HermitianOperator(np.outer(v.amplitudes, v.amplitudes.conj()))


def haar_state(dim: int, rng: np.random.Generator) -> StateVector:
    """Haar-random pure state of the given dimension."""
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return ket(z)


def _jacobi(H: np.ndarray, tol: float, max_sweeps: int):
    """Cyclic Jacobi diagonalization of a complex Hermitian matrix.

    Sweeps stop once the off-diagonal Frobenius norm is at most
    tol * ||H||_F, and rotations skip pairs with |a_pq| <= tol * ||H||_F / n.
    Both thresholds come from the one norm, which rotations preserve: a
    sweep that skips every pair leaves the off-diagonal norm below the stop
    threshold, so the solver cannot sit forever just above the float64
    rounding floor.

    Each rotation is two 2x2 products on strided views: one rotates rows p
    and q of W = [A | V^H], updating A and the eigenvector accumulator
    together, and one rotates columns p and q of A.
    """
    n = H.shape[0]
    W = np.hstack([H, np.eye(n, dtype=complex)])
    A, Vh = W[:, :n], W[:, n:]
    stop = tol * float(np.linalg.norm(A))
    skip = stop / n
    entry = A.item
    for _ in range(max_sweeps):
        off = float(np.linalg.norm(A - np.diag(np.diag(A))))
        if off <= stop:
            # conj() leaves -0.0 imaginary parts; + 0.0 makes them +0.0 again so
            # serialized eigenvectors print 0, not -0.
            return np.diag(A).real.copy(), Vh.conj().T + 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = entry(p, q)
                r = abs(apq)
                if r <= skip:
                    continue
                th = 0.5 * math.atan2(2.0 * r, entry(p, p).real - entry(q, q).real)
                c, s = math.cos(th), math.sin(th)
                ep = cmath.exp(0.5j * cmath.phase(apq))
                em = ep.conjugate()
                R = np.array(((c * em, s * ep), (-s * em, c * ep)))
                pq = slice(p, q + 1, q - p)
                W[pq] = R @ W[pq]
                A[:, pq] = A[:, pq] @ R.conj().T
    off = float(np.linalg.norm(A - np.diag(np.diag(A))))
    raise NoConvergence(
        f"off-diagonal norm {off} above {stop} after {max_sweeps} sweeps"
    )


def hermitian_eigen(H: HermitianOperator) -> EigenDecomposition:
    """Full eigendecomposition by cyclic Jacobi rotations.

    Sweeps run until the off-diagonal Frobenius norm falls to
    JACOBI_TOL * ||H||_F (NoConvergence after JACOBI_MAX_SWEEPS).
    Eigenvalues come back in descending order; eigenvectors are orthonormal
    and reconstruct the input within 1e-9 entrywise.
    """
    if H.dim > MAX_EIGEN_DIM:
        raise TooLarge(f"dim {H.dim} exceeds the guard {MAX_EIGEN_DIM}")
    w, V = _jacobi(H.entries, JACOBI_TOL, JACOBI_MAX_SWEEPS)
    order = np.argsort(w)[::-1]
    w = w[order]
    V = V[:, order]
    vectors = tuple(ket(V[:, k]) for k in range(H.dim))
    return EigenDecomposition(eigenvalues=w, eigenvectors=vectors)


def binary_entropy(p: float) -> float:
    """H2(p) = -p log2 p - (1-p) log2 (1-p), in bits."""
    if p < 0.0 or p > 1.0:
        raise DomainError(f"probability {p} outside [0, 1]")
    out = 0.0
    for x in (p, 1.0 - p):
        if x > 0.0:
            out -= x * np.log2(x)
    return out


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S(rho) = -sum lambda log2 lambda, in bits, with 0 log 0 := 0."""
    w = hermitian_eigen(rho.as_operator()).eigenvalues
    w = np.clip(w, 0.0, 1.0)
    nz = w[w > 0.0]
    return float(-(nz * np.log2(nz)).sum())
