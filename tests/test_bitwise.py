import math

import numpy as np
import pytest

from mistrustq import bitwise, qmath
from mistrustq.bitwise import SecurityParams
from mistrustq.errors import DomainError, LengthMismatch, TooLarge, Unbounded


def h2(p):
    return qmath.binary_entropy(p)


def encode(bit, theta):
    """The encoding of one bit, as a 2-amplitude array."""
    return bitwise.encode_string(str(bit), SecurityParams(theta=theta, n=1))[0]


def projector_sum(theta, sign):
    """P0 + sign * P1 as a HermitianOperator."""
    psi0, psi1 = encode(0, theta), encode(1, theta)
    return qmath.HermitianOperator(
        np.outer(psi0, psi0.conj()) + sign * np.outer(psi1, psi1.conj())
    )


# Both eigenvalue gaps of the 2 x 2 problems stay above 0.07 on this grid,
# except that P0 - P1 vanishes at pi/2.
THETA_GRID = np.linspace(0.05, math.pi / 2, 40)


class TestParams:
    def test_rejects_bad_theta(self):
        with pytest.raises(DomainError):
            SecurityParams(theta=0.0, n=4)


class TestEncodeCommit:
    def test_zero_state(self):
        np.testing.assert_allclose(encode(0, 1.0), [1, 0])

    def test_states_coincide_at_right_angle(self):
        np.testing.assert_allclose(encode(1, math.pi / 2), [1, 0], atol=1e-12)

    def test_one_state_definition(self):
        np.testing.assert_allclose(encode(1, 0.3), [math.sin(0.3), math.cos(0.3)])

    def test_commit_all_zero(self):
        c = bitwise.encode_string("000", SecurityParams(theta=0.3, n=3))
        assert c.shape == (3, 2)
        for q in c:
            np.testing.assert_allclose(q, [1, 0])

    def test_commit_composition(self):
        c = bitwise.encode_string("01", SecurityParams(theta=0.3, n=2))
        np.testing.assert_allclose(c[1], [math.sin(0.3), math.cos(0.3)])

    def test_commit_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            bitwise.encode_string("01", SecurityParams(theta=0.3, n=3))

    def test_commit_rejects_non_bits(self):
        with pytest.raises(DomainError):
            bitwise.encode_string("02", SecurityParams(theta=0.3, n=2))


class TestUnveil:
    def test_honest_completeness(self):
        # 1e4 trials spread over the theta grid: honest claims always accepted
        rng = np.random.default_rng(0)
        for theta in (0.1, 0.3, 0.6, 1.0):
            params = SecurityParams(theta=theta, n=4)
            held = bitwise.encode_string("0110", params)
            for _ in range(2500):
                assert bitwise.verify_unveil(held, "0110", theta, rng) is None

    def test_false_claim_acceptance_rate(self):
        theta = 0.3
        held = bitwise.encode_string("0", SecurityParams(theta=theta, n=1))
        rng = np.random.default_rng(1)
        trials = 100_000
        acc = sum(
            bitwise.verify_unveil(held, "1", theta, rng) is None for _ in range(trials)
        )
        p = math.sin(theta) ** 2
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(acc / trials - p) < 3 * sigma

    def test_wrong_length(self):
        held = bitwise.encode_string("01", SecurityParams(theta=0.3, n=2))
        with pytest.raises(LengthMismatch):
            bitwise.verify_unveil(held, "011", 0.3, np.random.default_rng(0))

    def test_one_draw_per_qubit_up_to_first_failure(self):
        # qubit i passes iff its uniform draw is below sin^2(theta)
        theta = 0.3
        held = bitwise.encode_string("0000", SecurityParams(theta=theta, n=4))
        rng, twin = np.random.default_rng(5), np.random.default_rng(5)
        failing = bitwise.verify_unveil(held, "1111", theta, rng)
        assert failing is not None
        u = twin.random(failing + 1)
        assert (u[:-1] < math.sin(theta) ** 2).all() and u[-1] >= math.sin(theta) ** 2
        assert rng.random() == twin.random()


class TestCheat:
    def test_bound_at_right_angle(self):
        assert bitwise.cheat_bound(math.pi / 2) == pytest.approx(2)
        _, p0, p1 = bitwise.optimal_bit_cheat(math.pi / 2)
        assert p0 + p1 == pytest.approx(2, abs=1e-9)

    def test_orthogonal_limit(self):
        # as theta -> 0 the two encodings become orthogonal and p0 + p1 -> 1
        _, p0, p1 = bitwise.optimal_bit_cheat(1e-6)
        assert p0 + p1 == pytest.approx(1, abs=1e-5)

    def test_optimum_attains_spectral_value(self):
        theta = 0.3
        _, p0, p1 = bitwise.optimal_bit_cheat(theta)
        assert p0 + p1 == pytest.approx(1 + math.sin(theta), abs=1e-9)

    def test_bound_agrees_with_eigensolver(self):
        for theta in (0.1, 0.3, 1.0):
            top = qmath.hermitian_eigen(projector_sum(theta, 1)).eigenvalues[0]
            assert bitwise.cheat_bound(theta) == pytest.approx(top, abs=1e-9)

    def test_cheat_vector_closed_form(self):
        # oracle: the top Jacobi eigenvector of P0 + P1, up to a global phase
        for theta in THETA_GRID:
            top = qmath.hermitian_eigen(projector_sum(theta, 1)).eigenvectors[:, 0]
            cheat = bitwise.optimal_bit_cheat(theta)[0].amplitudes
            phase = np.vdot(top, cheat) / abs(np.vdot(top, cheat))
            assert np.abs(cheat - phase * top).max() < 1e-12

    def test_bound_below_linear(self):
        for theta in np.linspace(0.01, math.pi / 2, 25):
            assert bitwise.cheat_bound(theta) <= 1 + theta + 1e-12

    def test_haar_states_never_beat_bound(self):
        theta = 0.3
        psi0 = encode(0, theta)
        psi1 = encode(1, theta)
        rng = np.random.default_rng(2)
        z = rng.standard_normal((10_000, 2)) + 1j * rng.standard_normal((10_000, 2))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        totals = np.abs(z @ psi0.conj()) ** 2 + np.abs(z @ psi1.conj()) ** 2
        assert totals.max() <= bitwise.cheat_bound(theta) + 1e-9


class TestEnsemble:
    def test_pure_at_right_angle(self):
        rho = bitwise.bob_ensemble(1, math.pi / 2)
        np.testing.assert_allclose(rho.entries, np.diag([1, 0]), atol=1e-12)

    def test_nearly_maximally_mixed_for_small_theta(self):
        rho = bitwise.bob_ensemble(1, 1e-7)
        np.testing.assert_allclose(rho.entries, np.eye(2) / 2, atol=1e-6)

    def test_matches_explicit_mixture(self):
        # oracle: brute-force equal mixture over all 2^n product encodings
        n, theta = 3, 0.3
        params = SecurityParams(theta=theta, n=n)
        mix = np.zeros((2**n, 2**n), dtype=complex)
        for idx in range(2**n):
            bits = format(idx, f"0{n}b")
            state = bitwise.encode_string(bits, params)
            amps = state[0]
            for q in state[1:]:
                amps = np.kron(amps, q)
            mix += np.outer(amps, amps.conj()) / 2**n
        assert np.abs(bitwise.bob_ensemble(n, theta).entries - mix).max() < 1e-12

    def test_entropy_factorizes(self):
        n, theta = 3, 0.3
        exact = qmath.von_neumann_entropy(bitwise.bob_ensemble(n, theta))
        assert exact == pytest.approx(n * h2((1 + math.sin(theta)) / 2), abs=1e-9)
        assert exact == pytest.approx(bitwise.bob_entropy(n, theta), abs=1e-9)

    def test_size_guard(self):
        with pytest.raises(TooLarge):
            bitwise.bob_ensemble(11, 0.3)

    def test_entropy_at_size_guard(self):
        # dim 2**MAX_EXACT_N = 1024 is within the eigenvalue path's guard
        n, theta = bitwise.MAX_EXACT_N, 0.3
        exact = qmath.von_neumann_entropy(bitwise.bob_ensemble(n, theta))
        assert exact == pytest.approx(bitwise.bob_entropy(n, theta), abs=1e-9)

    def test_entropy_limits(self):
        assert bitwise.bob_entropy(5, math.pi / 2) == pytest.approx(0, abs=1e-12)
        assert bitwise.bob_entropy(5, 1e-9) == pytest.approx(5, abs=1e-6)


class TestInaccessibleBits:
    def test_right_angle_gap_is_n(self):
        gap, ok = bitwise.inaccessible_bits(6, math.pi / 2, 5)
        assert gap == pytest.approx(6)
        assert ok

    def test_small_theta_gap_vanishes(self):
        gap, ok = bitwise.inaccessible_bits(6, 1e-8, 1)
        assert gap == pytest.approx(0, abs=1e-6)
        assert not ok

    def test_scan_regression_constant(self):
        # scan oracle: smallest n with n(1 - H2(0.55)) > 1 at sin(theta) = 0.1
        theta = math.asin(0.1)
        n = 1
        while n * (1 - h2(0.55)) <= 1:
            n += 1
        assert n == 139  # frozen from the scan
        assert bitwise.min_n_for(1, theta) == 139
        assert bitwise.inaccessible_bits(139, theta, 1)[1]
        assert not bitwise.inaccessible_bits(138, theta, 1)[1]

    def test_min_n_small_at_large_theta(self):
        assert bitwise.min_n_for(1, math.pi / 3) == 2  # frozen from the scan

    def test_min_n_subadditive(self):
        theta = 0.4
        for r in (1, 2, 4):
            assert bitwise.min_n_for(2 * r, theta) <= 2 * bitwise.min_n_for(r, theta) + 1

    def test_min_n_monotone_in_theta(self):
        assert bitwise.min_n_for(2, 0.2) >= bitwise.min_n_for(2, 0.8)

    def test_min_n_monotone_in_r(self):
        assert bitwise.min_n_for(1, 0.5) <= bitwise.min_n_for(3, 0.5)

    def test_unbounded_at_tiny_theta(self):
        with pytest.raises(Unbounded):
            bitwise.min_n_for(1, 1e-12)


class TestHelstrom:
    def test_measurement_matches_grid_oracle(self):
        # oracle: exhaustive optimization over projective measurement angles
        theta = 0.3
        psi0 = encode(0, theta)
        psi1 = encode(1, theta)
        best = 0.0
        for phi in np.linspace(0, math.pi, 20_001):
            v = np.array([math.cos(phi), math.sin(phi)])
            w = np.array([-math.sin(phi), math.cos(phi)])
            succ = 0.5 * abs(v @ psi0) ** 2 + 0.5 * abs(w @ psi1) ** 2
            best = max(best, succ)
        closed = (1 + math.cos(theta)) / 2
        assert best == pytest.approx(closed, abs=1e-7)
        plus, minus = bitwise.helstrom_measurement(theta)
        attained = 0.5 * np.real(np.vdot(psi0, plus @ psi0) + np.vdot(psi1, minus @ psi1))
        assert attained == pytest.approx(closed, abs=1e-9)

    def test_measurement_matches_jacobi(self):
        # oracle: Jacobi eigenprojectors of P0 - P1, positive one first
        for theta in THETA_GRID[THETA_GRID < math.pi / 2]:
            V = qmath.hermitian_eigen(projector_sum(theta, -1)).eigenvectors
            jacobi = [np.outer(V[:, k], V[:, k].conj()) for k in (0, 1)]
            for P, Q in zip(bitwise.helstrom_measurement(theta), jacobi):
                assert np.abs(P - Q).max() < 1e-12

    def test_measurement_is_a_pair_of_projectors(self):
        for theta in (0.05, 0.3, 1.0):
            plus, minus = bitwise.helstrom_measurement(theta)
            assert plus.shape == minus.shape == (2, 2)
            for P in (plus, minus):
                assert np.abs(P @ P - P).max() < 1e-12
                assert np.abs(P - P.conj().T).max() < 1e-12
            assert np.abs(plus + minus - np.eye(2)).max() < 1e-12

    def test_identical_states_give_no_information(self):
        info, rate = bitwise.helstrom_attack(4, math.pi / 2, 50_000, np.random.default_rng(3))
        assert abs(rate - 0.5) < 3 * math.sqrt(0.25 / 200_000)
        assert info < 0.01

    def test_near_orthogonal_states_give_everything(self):
        info, rate = bitwise.helstrom_attack(4, 1e-4, 10_000, np.random.default_rng(4))
        assert rate > 0.999
        assert info > 3.9

    def test_success_rate_and_holevo_ceiling(self):
        n, theta, trials = 4, 0.3, 100_000
        info, rate = bitwise.helstrom_attack(n, theta, trials, np.random.default_rng(5))
        p = (1 + math.cos(theta)) / 2
        sigma = math.sqrt(p * (1 - p) / (n * trials))
        assert abs(rate - p) < 3 * sigma
        assert info <= bitwise.bob_entropy(n, theta) + 1e-6

    def test_trial_floor(self):
        with pytest.raises(DomainError):
            bitwise.helstrom_attack(4, 0.3, 10, np.random.default_rng(0))
