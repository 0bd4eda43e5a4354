"""Exact small-dimension complex linear algebra and entropy.

Computation is on plain numpy arrays.  StateVector and HermitianOperator
are the validated types at the boundary: they check their input once, hold
it read-only, and are what the spectral functions take.
hermitian_eigen returns its result as (eigenvalues, eigenvectors) arrays,
with the eigenvectors as columns.  All operations are pure, so they are
safe to call from concurrent code; the only stateful object that ever
appears in a signature is a ``numpy.random.Generator``, which must not be
shared across concurrent tasks.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NoConvergence, check_int, check_real

NORM_TOL = 1e-12
HERMITIAN_TOL = 1e-12
EIGEN_FLOOR = -1e-10
# Jacobi stops once ||offdiag(A)||_F <= JACOBI_TOL * ||H||_F and skips
# rotations with |a_pq| <= JACOBI_TOL * ||H||_F / n.
JACOBI_TOL = 1e-12
JACOBI_MAX_SWEEPS = 100
# Size guards, one per spectral path, set from measured cost (random
# Hermitian input, one thread): Jacobi with eigenvectors takes 0.6-1.1 s at
# n = 128 and 3.5-6.4 s at n = 256.  The eigenvalues-only path takes 2.6-2.8 s
# at n = 1024 for complex input, 2.1 s of it in the Householder reduction, and
# 1.0-1.15 s for bitwise.bob_ensemble(10, theta) (dim 1024, theta = 0.1 and
# 1.0), nearly all of it in the reduction.
MAX_JACOBI_DIM = 256
MAX_EIGENVALUES_DIM = 1024
# Each multisection sweep splits every live interval at this many interior
# points (4 bits); 16 sweeps are 64 halvings' worth.
MULTISECT_POINTS = 15
MULTISECT_MAX_SWEEPS = 16
# Rows per block of the unguarded Sturm recurrence: a block holds
# STURM_BLOCK * m floats for m points (m <= MULTISECT_POINTS * n).  At dim
# 1024, blocks of 16, 32, 64 and 128 rows took 550, 542, 524 and 555 ms per
# _sturm_bisect on random complex input and 80, 67, 67 and 67 ms on
# bob_ensemble(10, 1.0), with tracemalloc peaks of 4.6, 8.6, 16.4 and 32.2 MB:
# 32 is within noise of the fastest at half the memory of 64.
STURM_BLOCK = 32


def _read_only(a) -> np.ndarray:
    """A read-only complex copy, so later writes to the source cannot reach it."""
    a = np.array(a, dtype=complex)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class StateVector:
    """Unit-norm complex amplitude vector (so every amplitude is finite)."""

    amplitudes: np.ndarray

    def __post_init__(self):
        a = _read_only(np.reshape(self.amplitudes, -1))
        object.__setattr__(self, "amplitudes", a)
        norm = np.linalg.norm(a)
        if not abs(norm - 1.0) <= NORM_TOL:
            raise DomainError(f"state vector norm {norm} is not 1 within {NORM_TOL}")

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]


@dataclass(frozen=True)
class HermitianOperator:
    """Square complex matrix, Hermitian within HERMITIAN_TOL times its largest entry."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
            raise DomainError(f"expected a nonempty square matrix, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise DomainError("matrix has a non-finite entry")
        object.__setattr__(self, "entries", _read_only(m))
        dev = np.abs(m - m.conj().T).max()
        if dev > HERMITIAN_TOL * np.abs(m).max():
            raise DomainError(f"matrix deviates from Hermitian by {dev}")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


class Eigen(NamedTuple):
    """Eigenvalues in descending order; eigenvectors[:, k] belongs to
    eigenvalues[k], and the columns are orthonormal."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def ket(amplitudes) -> StateVector:
    """Normalize a nonzero finite complex vector into a StateVector, scaled first by _scaled."""
    a = np.ascontiguousarray(amplitudes, dtype=complex).reshape(-1)
    if not np.isfinite(a).all():
        raise DomainError("cannot normalize a non-finite vector")
    if not a.any():
        raise DomainError("cannot normalize a zero vector")
    a, _ = _scaled(a)
    return StateVector(a / np.linalg.norm(a))


def _scaled(H: np.ndarray) -> tuple[np.ndarray, int]:
    """(H * 2**-k, k), exact: k = 0 while the largest real or imaginary part is in
    [2**-450, 2**500], where the kernels' squares of it and of parts 2**-60 below
    it are normal floats; else k brings it into [0.5, 1).  Unscale by np.ldexp."""
    peak = np.abs(H.view(float)).max()
    k = 0 if 2.0**-450 <= peak <= 2.0**500 else math.frexp(peak)[1]
    return (np.ldexp(H.view(float), -k).view(complex) if k else H), k


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


def hermitian_eigen(H: HermitianOperator) -> Eigen:
    """Full eigendecomposition by cyclic Jacobi rotations.

    Sweeps run until the off-diagonal Frobenius norm falls to
    JACOBI_TOL * ||H||_F (NoConvergence after JACOBI_MAX_SWEEPS).
    Eigenvalues come back in descending order; the eigenvector columns are
    orthonormal and reconstruct the input within 1e-9 entrywise.
    """
    check_int("dim", H.dim, guard=MAX_JACOBI_DIM)
    A, k = _scaled(H.entries)
    w, V = _jacobi(A, JACOBI_TOL, JACOBI_MAX_SWEEPS)
    order = np.argsort(w)[::-1]
    return Eigen(np.ldexp(w[order], k), V[:, order])


def _tridiagonalize(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Householder reduction of a Hermitian matrix to a real symmetric
    tridiagonal one with the same spectrum: (diagonal, |subdiagonal|).

    Step k reflects column k below the diagonal onto its first entry with
    P = I - 2 v v^H (v a unit vector) and updates the trailing block as
    S <- S - v w^H - w v^H, with p = 2 S v and w = p - (v^H p) v.  A
    diagonal phase similarity makes the complex subdiagonal real, so only
    its modulus is kept.  A matrix whose imaginary part is exactly zero is
    reduced in float64 with the same formulas.
    """
    S = np.array(H, dtype=complex) if H.imag.any() else np.array(H.real, dtype=float)
    n = S.shape[0]
    e = np.zeros(max(n - 1, 0))
    for k in range(n - 2):
        v = S[k + 1:, k].copy()
        alpha = float(np.linalg.norm(v))
        e[k] = alpha
        if alpha == 0.0:  # column already reduced
            continue
        v[0] += (v[0] / abs(v[0]) if v[0] != 0 else 1.0) * alpha
        v /= np.linalg.norm(v)
        T = S[k + 1:, k + 1:]
        p = 2.0 * (T @ v)
        w = p - np.vdot(v, p) * v
        T -= np.stack([v, w], axis=1) @ np.stack([w, v]).conj()
    if n >= 2:
        e[-1] = abs(S[n - 1, n - 2])
    return S.diagonal().real.copy(), e


def _sturm_counts_guarded(d: np.ndarray, e2: np.ndarray, pivmin: float, x: np.ndarray):
    """Sturm counts as in LAPACK's dstebz: pivots smaller than pivmin are
    replaced by -pivmin so no division is by zero."""
    count = np.zeros(x.shape, dtype=np.intp)
    q = np.ones(x.shape)
    for di, e2i in zip(d.tolist(), e2.tolist()):
        q = di - x - e2i / q
        q[np.abs(q) < pivmin] = -pivmin
        count += q < 0
    return count


def _sturm_counts(d: np.ndarray, e2: np.ndarray, pivmin: float, x: np.ndarray):
    """Sturm count at each point of x: the number of negative pivots of
    T - x I, which is the number of eigenvalues of T below x.

    The dlaneg scheme (Marques, Riedy & Voemel, SIAM J. Sci. Comput. 28(5),
    2006): run the pivot recurrence with no per-row check, STURM_BLOCK rows
    at a time, then recount with _sturm_counts_guarded only the points where
    some pivot had |q| < pivmin or was NaN, which is where a pivot is neither
    <= -pivmin nor >= pivmin.  Everywhere else both recurrences do the same
    arithmetic, so the counts are the guarded ones.
    """
    count = np.zeros(x.shape, dtype=np.intp)  # pivots <= -pivmin
    positive = np.zeros(x.shape, dtype=np.intp)  # pivots >= pivmin
    q, t = np.ones(x.shape), np.empty(x.shape)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for start in range(0, d.size, STURM_BLOCK):
            block = np.subtract.outer(d[start:start + STURM_BLOCK], x)
            for row, e2i in zip(block, e2[start:start + STURM_BLOCK].tolist()):
                np.divide(e2i, q, out=t)
                np.subtract(row, t, out=row)
                q = row
            # uint8 sums: STURM_BLOCK is below 256.
            count += (block <= -pivmin).sum(axis=0, dtype=np.uint8)
            positive += (block >= pivmin).sum(axis=0, dtype=np.uint8)
    redo = count + positive < d.size
    if redo.any():
        count[redo] = _sturm_counts_guarded(d, e2, pivmin, x[redo])
    return count


def _sturm_bisect(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Eigenvalues of the symmetric tridiagonal (d, e), in ascending order.

    Interval multisection from the Gershgorin interval, as in LAPACK's
    dstebz: each live interval carries the Sturm counts at its ends, and one
    sweep counts MULTISECT_POINTS evenly spaced interior points of every
    live interval at once.  Subintervals whose counts agree hold no
    eigenvalue and are dropped; one at most 4 ulp wide is retired as its
    midpoint, repeated as often as its count difference says.  The cost
    follows the number of eigenvalue clusters, not n.  Counts are made
    monotone along each interval, so the multiplicities always sum to n.
    """
    n = d.size
    radius = np.zeros(n)
    radius[:-1] += e
    radius[1:] += e
    e2 = np.concatenate(([0.0], e * e))  # e2[i] couples rows i - 1 and i
    pivmin = np.finfo(float).tiny * max(1.0, e2.max())
    lo0, hi0 = float((d - radius).min()), float((d + radius).max())
    pad = 4 * np.finfo(float).eps * max(abs(lo0), abs(hi0)) + pivmin
    lo, hi = np.array([lo0 - pad]), np.array([hi0 + pad])
    c_lo, c_hi = np.array([0]), np.array([n])
    steps = np.arange(1, MULTISECT_POINTS + 1) / (MULTISECT_POINTS + 1)
    mids, mults = [], []
    for _ in range(MULTISECT_MAX_SWEEPS):
        done = hi - lo <= 4 * np.spacing(np.maximum(np.abs(lo), np.abs(hi)))
        mids.append(0.5 * (lo[done] + hi[done]))
        mults.append(c_hi[done] - c_lo[done])
        lo, hi, c_lo, c_hi = lo[~done], hi[~done], c_lo[~done], c_hi[~done]
        if lo.size == 0:
            break
        x = lo[:, None] + (hi - lo)[:, None] * steps
        c = np.minimum(_sturm_counts(d, e2, pivmin, x), c_hi[:, None])
        x = np.column_stack((lo, x, hi))
        c = np.maximum.accumulate(np.column_stack((c_lo, c, c_hi)), axis=1)
        live = (c[:, 1:] > c[:, :-1]).ravel()
        lo, hi = x[:, :-1].ravel()[live], x[:, 1:].ravel()[live]
        c_lo, c_hi = c[:, :-1].ravel()[live], c[:, 1:].ravel()[live]
    mids.append(0.5 * (lo + hi))
    mults.append(c_hi - c_lo)
    mids, mults = np.concatenate(mids), np.concatenate(mults)
    order = np.argsort(mids, kind="stable")
    return np.repeat(mids[order], mults[order])


def hermitian_eigenvalues(H: HermitianOperator) -> np.ndarray:
    """Eigenvalues alone, in descending order like hermitian_eigen's.

    Householder tridiagonalization (Golub & Van Loan, Matrix Computations,
    sections 8.4-8.5) then Sturm-count multisection over eigenvalue
    clusters, so a spectrum with few distinct values, like bob_ensemble's,
    costs few sweeps.  Accurate to about eps * ||H||_F; every eigenvalue
    appears as often as its multiplicity.  For callers that need no
    eigenvectors.
    """
    check_int("dim", H.dim, guard=MAX_EIGENVALUES_DIM)
    A, k = _scaled(H.entries)
    return np.ldexp(_sturm_bisect(*_tridiagonalize(A))[::-1], k)


def binary_entropy(p: float) -> float:
    """H2(p) = -p log2 p - (1-p) log2 (1-p), in bits."""
    p = check_real("p", p, 0, 1)
    out = 0.0
    for x in (p, 1.0 - p):
        if x > 0.0:
            out -= x * np.log2(x)
    return out


def von_neumann_entropy(rho: HermitianOperator) -> float:
    """S(rho) = -sum lambda log2 lambda, in bits, with 0 log 0 := 0, of a density
    matrix: DomainError unless rho has trace 1 and no eigenvalue below EIGEN_FLOOR."""
    check_int("dim", rho.dim, guard=MAX_EIGENVALUES_DIM)  # before eigvalsh runs
    tr = np.trace(rho.entries)
    if abs(tr - 1.0) > HERMITIAN_TOL:
        raise DomainError(f"trace {tr} is not 1 within {HERMITIAN_TOL}")
    # PSD validity check only, independent of the package's own solvers.
    lo = np.linalg.eigvalsh(rho.entries).min()
    if lo < EIGEN_FLOOR:
        raise DomainError(f"negative eigenvalue {lo} below {EIGEN_FLOOR}")
    w = hermitian_eigenvalues(rho)
    w = np.clip(w, 0.0, 1.0)
    nz = w[w > 0.0]
    return float(-(nz * np.log2(nz)).sum())
