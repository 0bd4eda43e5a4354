import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from mistrustq import bitwise, qmath
from mistrustq.errors import DomainError, TooLarge
from mistrustq.qmath import (
    HermitianOperator,
    StateVector,
    binary_entropy,
    hermitian_eigen,
    hermitian_eigenvalues,
    ket,
    von_neumann_entropy,
)


NON_FINITE = [math.nan, math.inf, -math.inf]


def psi(bit, theta):
    return np.array([1.0, 0.0] if bit == 0 else [math.sin(theta), math.cos(theta)])


def haar(dim, rng):
    """Haar-random unit vector."""
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z)


def proj(v):
    return np.outer(v, v.conj())


class TestKet:
    def test_already_normalized(self):
        v = ket([1, 0])
        np.testing.assert_allclose(v.amplitudes, [1, 0])

    def test_normalizes(self):
        v = ket([1, 1])
        np.testing.assert_allclose(v.amplitudes, [1 / math.sqrt(2)] * 2)

    def test_zero_vector(self):
        with pytest.raises(DomainError, match="^cannot normalize a zero vector$"):
            ket([0, 0])

    def test_statevector_rejects_unnormalized(self):
        with pytest.raises(DomainError):
            StateVector([1, 1])

    @pytest.mark.parametrize(
        "amplitudes,expected",
        [
            ([1e200, 1e200], [math.sqrt(0.5)] * 2),
            ([1e-200, 1e-200], [math.sqrt(0.5)] * 2),
            ([1e-160, 0], [1, 0]),
            ([5e-324, -5e-324j], [math.sqrt(0.5), -1j * math.sqrt(0.5)]),
            ([1e-140, 1e-140], [math.sqrt(0.5)] * 2),
        ],
        ids=["overflow", "underflow", "inexact-subnormal-norm", "subnormal",
             "below-kernel-range"],
    )
    def test_extreme_magnitudes(self, amplitudes, expected):
        # np.linalg.norm's unscaled squares leave the float range on each input
        # but the last, whose peak lies in [1e-150, 2**-450): ket scales that one
        # by a power of two too, as the spectral kernels do.
        np.testing.assert_allclose(ket(amplitudes).amplitudes, expected, rtol=1e-15)

    def test_empty_vectors(self):
        with pytest.raises(DomainError, match="^cannot normalize a zero vector$"):
            ket([])
        # The unit-norm check refuses an empty vector, whose norm is 0.
        with pytest.raises(DomainError, match="^state vector norm 0.0 is not 1 within "):
            StateVector([])

    def test_in_range_arithmetic(self):
        a = np.random.default_rng(3).standard_normal((4, 2)) @ [1, 1j]
        assert (ket(a).amplitudes == a / np.linalg.norm(a)).all()

    @pytest.mark.parametrize("x", NON_FINITE)
    def test_rejects_non_finite(self, x):
        # ket checks its entries before it divides; a nan or inf / inf division
        # would raise numpy's RuntimeWarning, which fails the run.
        with pytest.raises(DomainError):
            ket([x, 1])
        with pytest.raises(DomainError):
            StateVector([x, 0])


class TestHermitianEigen:
    def test_diagonal(self):
        eig = hermitian_eigen(HermitianOperator(np.diag([1.0, 3.0])))
        w, V = eig
        assert w is eig.eigenvalues and V is eig.eigenvectors
        np.testing.assert_allclose(w, [3, 1])
        # eigenvectors are columns: column 0 belongs to eigenvalue 3
        np.testing.assert_allclose(np.abs(V), [[0, 1], [1, 0]], atol=1e-15)

    def test_projector_spectrum(self):
        v = haar(4, np.random.default_rng(1))
        w, V = hermitian_eigen(HermitianOperator(proj(v)))
        np.testing.assert_allclose(w, [1, 0, 0, 0], atol=1e-12)
        assert abs(np.vdot(V[:, 0], v)) == pytest.approx(1, abs=1e-12)

    def test_two_projector_sum_analytic(self):
        # Sum of two rank-1 projectors with overlap s has eigenvalues 1 +/- s.
        theta = 0.3
        Q = HermitianOperator(proj(psi(0, theta)) + proj(psi(1, theta)))
        eig = hermitian_eigen(Q)
        s = math.sin(theta)
        np.testing.assert_allclose(eig.eigenvalues, [1 + s, 1 - s], atol=1e-9)

    @given(st.integers(0, 2**32 - 1))
    @example(39611063)  # n=26: never converged under an absolute stop threshold
    @settings(max_examples=100, deadline=None)
    def test_reconstruction_and_orthonormality(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 65))
        M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        H = HermitianOperator((M + M.conj().T) / 2)
        w, V = hermitian_eigen(H)
        assert np.abs((V * w) @ V.conj().T - H.entries).max() < 1e-9
        assert np.abs(V.conj().T @ V - np.eye(n)).max() < 1e-9
        assert (np.diff(w) <= 1e-12).all()

    def test_size_guard(self):
        n = qmath.MAX_JACOBI_DIM + 1
        with pytest.raises(TooLarge):
            hermitian_eigen(HermitianOperator(np.zeros((n, n))))


class TestHermitianEigenvalues:
    """The eigenvalues-only path against numpy's eigvalsh and against Jacobi,
    which shares no code with it."""

    def check(self, H):
        H = HermitianOperator(H)
        w = hermitian_eigenvalues(H)
        tol = 1e-12 * max(1.0, np.linalg.norm(H.entries))
        assert w.shape == (H.dim,)
        assert np.abs(w - np.linalg.eigvalsh(H.entries)[::-1]).max() <= tol
        assert np.abs(w - hermitian_eigen(H).eigenvalues).max() <= tol
        return w

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_random_hermitian(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 65))
        M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        self.check((M + M.conj().T) / 2)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_clustered_spectrum(self, seed):
        # U diag(lambda) U^H with lambda drawn from at most 4 values: two pairs
        # split by about 1e-13 * ||H|| and by 1e-6 * ||H||.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 65))
        scale = 10.0 ** rng.uniform(-2, 2)
        a, b = rng.uniform(-1, 1, 2)
        values = scale * np.array([a, a + 1e-13 * math.sqrt(n), b, b + 1e-6])
        values = rng.choice(values, size=int(rng.integers(1, 5)), replace=False)
        lam = rng.choice(values, size=n)
        Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        U, _ = np.linalg.qr(Z)
        H = (U * lam) @ U.conj().T
        w = self.check((H + H.conj().T) / 2)
        assert w.size == n

    def test_one_by_one(self):
        np.testing.assert_allclose(self.check([[-2.5]]), [-2.5], rtol=1e-15)

    def test_two_by_two(self):
        # [[a, b], [b*, c]] has eigenvalues (a + c)/2 +/- sqrt(((a - c)/2)^2 + |b|^2)
        w = self.check([[1.0, 2 - 1j], [2 + 1j, -3.0]])
        np.testing.assert_allclose(w, [-1 + 3, -1 - 3], atol=1e-14)

    def test_diagonal(self):
        w = self.check(np.diag([0.5, -1.0, 3.0, 0.5, 2.0]))
        np.testing.assert_allclose(w, [3.0, 2.0, 0.5, 0.5, -1.0], atol=1e-14)

    def test_block_diagonal(self):
        # The first Householder column is zero below the diagonal.
        A = np.array([[2.0, 1j, 0.5], [-1j, 0.0, 1.0], [0.5, 1.0, -1.0]])
        H = np.zeros((5, 5), dtype=complex)
        H[0, 0] = 4.0
        H[1:4, 1:4] = A
        H[4, 4] = -2.0
        w = self.check(H)
        expected = np.sort(np.concatenate(([4.0, -2.0], np.linalg.eigvalsh(A))))[::-1]
        np.testing.assert_allclose(w, expected, atol=1e-13)

    def test_zero_matrix(self):
        np.testing.assert_allclose(self.check(np.zeros((6, 6))), 0, atol=1e-300)

    def test_rank_one_projector(self):
        v = haar(7, np.random.default_rng(4))
        w = self.check(proj(v))
        np.testing.assert_allclose(w, [1, 0, 0, 0, 0, 0, 0], atol=1e-14)

    def test_binomial_multiplicities(self):
        # bob_ensemble(n, theta) = rho1^(x n): eigenvalue p^k (1-p)^(n-k) with
        # multiplicity C(n, k), p = (1 + sin theta) / 2.
        n, theta = 6, 1.0
        p = (1 + math.sin(theta)) / 2
        expected = np.sort(np.concatenate([
            np.full(math.comb(n, k), p**k * (1 - p) ** (n - k)) for k in range(n + 1)
        ]))[::-1]
        w = self.check(bitwise.bob_ensemble(n, theta).entries)
        np.testing.assert_allclose(w, expected, atol=1e-14)

    def test_rejects_empty(self):
        with pytest.raises(DomainError, match="^expected a nonempty square matrix"):
            HermitianOperator(np.zeros((0, 0)))

    @pytest.mark.parametrize("x", NON_FINITE)
    def test_rejects_non_finite(self, x):
        for m in ([[x, 0], [0, 1]], [[1, x], [x, 1]]):
            with pytest.raises(DomainError, match="non-finite"):
                HermitianOperator(np.array(m))

    def test_hermitian_check_is_relative(self):
        # Under an absolute 1e-12 this was accepted, and Jacobi then ended in
        # NoConvergence after 100 sweeps.
        with pytest.raises(DomainError, match="deviates from Hermitian by 1e-13"):
            HermitianOperator(np.array([[0, 1e-13], [0, 0]]))
        # A deviation of 1e-13 times the largest entry passes at any scale.
        for scale in (1e-200, 1.0, 1e200):
            HermitianOperator(scale * np.array([[1.0, 1.0 + 1e-13], [1.0, 0.0]]))

    def test_size_guard(self):
        n = qmath.MAX_EIGENVALUES_DIM + 1
        with pytest.raises(TooLarge):
            hermitian_eigenvalues(HermitianOperator(np.zeros((n, n))))


def scalar_sturm_count(d, e2, pivmin, x):
    """LAPACK dstebz's Sturm count at one point, in Python floats: the
    number of negative pivots of T - x I, where a pivot smaller than pivmin
    in magnitude is replaced by -pivmin.  e2[i] couples rows i - 1 and i."""
    count, q = 0, 1.0
    for di, e2i in zip(d, e2):
        q = di - x - e2i / q
        if abs(q) < pivmin:
            q = -pivmin
        count += q < 0
    return count


class TestSturmCounts:
    """qmath._sturm_counts against the scalar recurrence, which it must match
    count for count, across the STURM_BLOCK row edge and where pivots vanish."""

    def check(self, d, e, x):
        d, x = np.asarray(d, dtype=float), np.asarray(x, dtype=float)
        e2 = np.concatenate(([0.0], np.asarray(e, dtype=float) ** 2))
        pivmin = np.finfo(float).tiny * max(1.0, e2.max())
        counts = qmath._sturm_counts(d, e2, pivmin, x)
        expected = [scalar_sturm_count(d.tolist(), e2.tolist(), pivmin, float(xi))
                    for xi in x.ravel()]
        assert counts.shape == x.shape
        assert counts.ravel().tolist() == expected
        return counts

    @pytest.mark.parametrize("n", [1, 31, 32, 33, 65])
    def test_random_tridiagonal(self, n):
        rng = np.random.default_rng(n)
        d, e = rng.standard_normal(n), rng.standard_normal(n - 1)
        radius = np.zeros(n)
        radius[:-1] += np.abs(e)
        radius[1:] += np.abs(e)
        lo, hi = (d - radius).min(), (d + radius).max()
        x = np.concatenate((rng.uniform(lo, hi, 28), [lo, hi])).reshape(5, 6)
        counts = self.check(d, e, x)
        assert counts.min() >= 0 and counts.max() <= n

    def test_zero_pivot(self):
        # At x = 0 the second pivot is +0: unguarded, the next one is 0/0.
        counts = self.check([-1.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [-0.5, 0, 0.5, 1, 2])
        assert counts.tolist() == [1, 3, 3, 4, 4]

    def test_recounts_only_tiny_pivots(self, monkeypatch):
        # Row 35, in the second block of rows, is a decoupled 1 x 1 block with
        # d = 0 (e[34] = e[35] = 0): only x = 0 meets a zero pivot.
        rng = np.random.default_rng(7)
        d, e = rng.standard_normal(40), rng.standard_normal(39)
        d[35], e[34], e[35] = 0.0, 0.0, 0.0
        x = np.array([[-0.7, 0.0, 0.3], [0.0, 2.5, -3.0]])
        recounted = []
        guarded = qmath._sturm_counts_guarded

        def spy(d, e2, pivmin, points):
            recounted.append(points.copy())
            return guarded(d, e2, pivmin, points)

        monkeypatch.setattr(qmath, "_sturm_counts_guarded", spy)
        self.check(d, e, x)
        assert len(recounted) == 1 and recounted[0].tolist() == [0.0, 0.0]


class TestEntropy:
    def test_binary_entropy_half(self):
        assert binary_entropy(0.5) == pytest.approx(1)

    def test_binary_entropy_endpoints(self):
        assert binary_entropy(0) == 0
        assert binary_entropy(1) == 0

    def test_binary_entropy_symmetric(self):
        assert binary_entropy(0.3) == pytest.approx(binary_entropy(0.7))

    def test_binary_entropy_domain(self):
        with pytest.raises(DomainError):
            binary_entropy(1.5)

    @pytest.mark.parametrize("p", [math.nan, True, False, "0.5", None])
    def test_binary_entropy_refuses_non_reals(self, p):
        # NaN fell through both comparisons and returned 0.0; True read as 1.
        with pytest.raises(DomainError, match=r"^p .* outside \[0, 1\]$"):
            binary_entropy(p)

    def test_binary_entropy_matches_eigendecomposition(self):
        # oracle: direct spectral entropy of the corresponding diagonal state
        rho = HermitianOperator(np.diag([0.55, 0.45]))
        assert binary_entropy(0.55) == pytest.approx(
            von_neumann_entropy(rho), abs=1e-12
        )

    def test_pure_state_zero(self):
        v = haar(3, np.random.default_rng(5))
        assert von_neumann_entropy(HermitianOperator(proj(v))) == pytest.approx(
            0, abs=1e-9
        )

    def test_maximally_mixed(self):
        assert von_neumann_entropy(HermitianOperator(np.eye(2) / 2)) == pytest.approx(1)

    def test_two_state_mixture_analytic(self):
        # eigenvalues of the equal two-state mixture are (1 +/- sin theta)/2
        theta = 0.3
        rho = HermitianOperator(0.5 * (proj(psi(0, theta)) + proj(psi(1, theta))))
        expected = binary_entropy((1 + math.sin(theta)) / 2)
        assert von_neumann_entropy(rho) == pytest.approx(expected, abs=1e-9)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_entropy_bounds(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 9))
        # random valid density matrix from a Haar mixture
        rho = np.zeros((d, d), dtype=complex)
        weights = rng.dirichlet(np.ones(d))
        for w in weights:
            rho += w * proj(haar(d, rng))
        S = von_neumann_entropy(HermitianOperator(rho))
        assert -1e-9 <= S <= math.log2(d) + 1e-9


class TestDensityMatrix:
    """von_neumann_entropy's density check on a HermitianOperator: the size
    guard, then trace 1, then numpy's independent eigvalsh PSD check."""

    @staticmethod
    def entropy(m):
        return von_neumann_entropy(HermitianOperator(np.array(m)))

    def test_is_a_read_only_hermitian_operator(self):
        rho = bitwise.bob_ensemble(2, 0.3)
        assert type(rho) is HermitianOperator
        assert rho.dim == 4 and not rho.entries.flags.writeable
        assert self.entropy(np.eye(2) / 2) == pytest.approx(1)

    def test_rejects_non_square(self):
        with pytest.raises(DomainError, match="^expected a nonempty square matrix"):
            self.entropy(np.ones((2, 3)) / 2)

    def test_rejects_empty(self):
        with pytest.raises(DomainError, match="^expected a nonempty square matrix"):
            self.entropy(np.zeros((0, 0)))

    @pytest.mark.parametrize("x", NON_FINITE)
    def test_rejects_non_finite(self, x):
        # A NaN trace would pass the trace comparison, so HermitianOperator's
        # check must come first.
        with pytest.raises(DomainError, match="non-finite"):
            self.entropy([[x, 0], [0, 1.0]])

    def test_rejects_non_hermitian(self):
        with pytest.raises(DomainError, match="Hermitian"):
            self.entropy([[0.5, 0.5], [0.0, 0.5]])

    def test_rejects_wrong_trace(self):
        with pytest.raises(DomainError, match="^trace"):
            self.entropy(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(DomainError, match="^negative eigenvalue"):
            self.entropy(np.diag([1.5, -0.5]))

    def test_checks_run_once(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(1) or eigvalsh(a))
        assert self.entropy(np.eye(4) / 4) == pytest.approx(2)
        assert calls == [1]

    def test_size_guard_comes_before_eigvalsh(self, monkeypatch):
        # At dim 2048 eigvalsh alone ran for 2-3 s before the guard was reached.
        rho = HermitianOperator(np.eye(qmath.MAX_EIGENVALUES_DIM + 1))
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: pytest.fail("eigvalsh ran"))
        with pytest.raises(TooLarge, match="^dim 1025 exceeds the guard 1024$"):
            von_neumann_entropy(rho)


class TestScaleSafety:
    """Both kernels scale input whose largest real or imaginary part is outside
    [2**-450, 2**500] by an exact power of two, and unscale the eigenvalues."""

    @given(st.integers(0, 2**32 - 1), st.integers(-1000, 1000))
    @example(17, -501)  # Jacobi broke the property here with the range's end at 2**-500
    @example(17, -451)  # the largest part in [2**-450, 2**-449): not scaled
    @settings(max_examples=200, deadline=None)
    def test_power_of_two_scaling_is_exact(self, seed, k):
        # Jacobi is relatively accurate (Demmel & Veselic, SIAM J. Matrix Anal.
        # Appl. 13(4), 1992), so 2**k H must give 2**k times H's result exactly.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))
        M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        H = (M + M.conj().T) / 2
        parts = np.ldexp(H.view(float), k)
        assume(np.isfinite(parts).all())
        assume((np.abs(parts[parts != 0]) >= sys.float_info.min).all())
        H, Hk = HermitianOperator(H), HermitianOperator(parts.view(complex))
        w, V = hermitian_eigen(H)
        wk, Vk = hermitian_eigen(Hk)
        assert (wk == np.ldexp(w, k)).all() and (Vk == V).all()
        w = hermitian_eigenvalues(H)
        assert (hermitian_eigenvalues(Hk) == np.ldexp(w, k)).all()

    @pytest.mark.parametrize("s", [1e-200, 1e200])
    def test_off_diagonal_pair(self, s):
        # Unscaled, 1e-200 gave [0, 0] and NaN, and 1e200 overflowed.
        H = HermitianOperator(np.array([[0, s], [s, 0]]))
        np.testing.assert_allclose(hermitian_eigen(H).eigenvalues, [s, -s], rtol=1e-15)
        np.testing.assert_allclose(hermitian_eigenvalues(H), [s, -s], rtol=1e-15)

    def test_in_range_input_keeps_its_bits(self):
        # At the range's ends nothing is scaled, so the kernels see the input as is.
        for peak in (2.0**-450, 2.0**500):
            entries = HermitianOperator(np.diag([peak, -peak / 3])).entries
            assert qmath._scaled(entries)[0] is entries
