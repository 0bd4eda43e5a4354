import math
import re

import numpy as np
import pytest

from mistrustq import codebook, qmath
from mistrustq.codebook import (
    CheatReport,
    Codebook,
    bob_info_report,
    cheat_operator,
    gram_matrix,
    optimal_multistring_cheat,
    random_codebook,
    simplex_codebook,
    verify_unveil,
)
from mistrustq.errors import DomainError, PackingFailure, TooLarge


@pytest.fixture(scope="module")
def packed16():
    return random_codebook(16, 32, 0.25, np.random.default_rng(11))


def welch(d, count):
    """Welch lower bound on the largest pairwise overlap of count unit
    vectors in C^d (count > d)."""
    return math.sqrt((count - d) / (d * (count - 1)))


def overlaps(cb):
    G = np.abs(cb.vectors @ cb.vectors.conj().T)
    np.fill_diagonal(G, 0.0)
    return G


def haar_codebook(d, count, seed):
    """count Haar-random vectors in C^d, certified just above their largest
    overlap."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((count, d)) + 1j * rng.standard_normal((count, d))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    G = np.abs(z @ z.conj().T)
    np.fill_diagonal(G, 0.0)
    return Codebook(dim=d, vectors=z, epsilon=min(1.0, G.max() + 1e-6))


def eigh_cheat_state(cb, targets):
    """Oracle: the normalized projection of the first target codeword whose
    projection is not negligible onto the top eigenspace of Q, from numpy's
    eigh; returns the state and that codeword's position in targets."""
    B = cb.vectors[targets]
    w, V = np.linalg.eigh(B.T @ B.conj())
    U = V[:, w >= w[-1] * (1 - 1e-9)]
    for k in range(len(targets)):
        c = U @ (U.conj().T @ B[k])
        if np.linalg.norm(c) > 1e-6:
            return c / np.linalg.norm(c), k
    raise AssertionError("every target is orthogonal to the top eigenspace")


# (dim, r, construction): random books with r below, equal to and above dim,
# and simplex books whose top eigenspace is (r - 1)-fold degenerate (r <= d) or
# d-fold (r = d + 1).
ORACLE_CASES = [
    (d, r, "random") for d in (2, 3, 5, 8, 16) for r in sorted({1, d - 1, d, d + 1, 2 * d})
] + [(d, r, "simplex") for d in (2, 3, 5, 8, 16) for r in sorted({3, d, d + 1}) if r >= 3]


class TestRandomCodebook:
    def test_vacuous_bound(self):
        cb = random_codebook(2, 2, 1.0, np.random.default_rng(0))
        assert cb.count == 2
        assert overlaps(cb).max() < 1.0

    def test_tight_packing_succeeds(self, packed16):
        assert packed16.count == 32
        assert welch(16, 32) <= overlaps(packed16).max() < 0.25
        Codebook(packed16.dim, packed16.vectors, packed16.epsilon)  # re-certifies

    @pytest.mark.parametrize("epsilon", [0.1, welch(16, 32)])
    def test_welch_bound_fails_before_sampling(self, epsilon):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(PackingFailure):
            random_codebook(16, 32, epsilon, rng)
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("x", [math.nan, math.inf])
    def test_construction_rejects_non_finite(self, packed16, x):
        V = packed16.vectors.copy()
        V[3, 0] = x
        with pytest.raises(DomainError, match="finite"):
            Codebook(packed16.dim, V, epsilon=packed16.epsilon)

    def test_construction_recertifies(self, packed16):
        # an epsilon tighter than the vectors actually satisfy is refused
        with pytest.raises(DomainError):
            Codebook(packed16.dim, packed16.vectors, epsilon=0.01)

    def test_infeasible_packing(self):
        # 7 qubit states cannot be pairwise below overlap 0.7, though 0.7 is
        # above the Welch bound, so sampling and the polish both run and fail.
        assert welch(2, 7) < 0.7
        with pytest.raises(PackingFailure, match="could not pack 7 vectors in dim 2"):
            random_codebook(2, 7, 0.7, np.random.default_rng(0))

    def test_seed_determinism(self):
        a = random_codebook(8, 12, 0.5, np.random.default_rng(42))
        b = random_codebook(8, 12, 0.5, np.random.default_rng(42))
        assert (a.vectors == b.vectors).all()

    def test_count_floor(self):
        with pytest.raises(DomainError):
            random_codebook(4, 1, 0.5, np.random.default_rng(0))

    @pytest.mark.parametrize("d, count", [(2, 2), (4, 8), (16, 32), (64, 128)])
    def test_vacuous_bound_keeps_the_draw(self, d, count):
        # At epsilon = 1 nothing needs polishing: the codebook is the
        # row-normalized draw, real parts first, and consumes nothing more.
        rng, ref = np.random.default_rng(5), np.random.default_rng(5)
        cb = random_codebook(d, count, 1.0, rng)
        V = ref.standard_normal((count, d)) + 1j * ref.standard_normal((count, d))
        V /= np.linalg.norm(V, axis=1, keepdims=True)
        assert cb.vectors.tobytes() == V.tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("d, count", [(8, 32), (16, 64), (32, 64)])
    def test_near_limit_packing_succeeds(self, d, count, seed):
        # 1.15 times the Welch bound is close to the packing limit.
        epsilon = round(1.15 * welch(d, count), 4)
        cb = random_codebook(d, count, epsilon, np.random.default_rng(seed))
        assert cb.count == count
        assert welch(d, count) <= overlaps(cb).max() < epsilon

    def test_packing_count_grows_with_dimension(self):
        # empirical stand-in for exponential packing growth
        counts = []
        for d in (4, 8, 16):
            got = 2
            for count in (4, 8, 16, 32):
                try:
                    random_codebook(d, count, 0.4, np.random.default_rng(d))
                    got = count
                except PackingFailure:
                    break
            counts.append(got)
        assert counts == sorted(counts) and counts[-1] > counts[0]


class TestSimplexCodebook:
    def test_triangle(self):
        cb = simplex_codebook(2)
        assert cb.count == 3
        G = (cb.vectors @ cb.vectors.conj().T).real
        off = G[~np.eye(3, dtype=bool)]
        np.testing.assert_allclose(off, -0.5, atol=1e-12)

    def test_tetrahedron(self):
        cb = simplex_codebook(3)
        G = (cb.vectors @ cb.vectors.conj().T).real
        off = G[~np.eye(4, dtype=bool)]
        np.testing.assert_allclose(off, -1 / 3, atol=1e-12)

    def test_gram_spectrum(self):
        # analytic Gram spectrum of a regular simplex: {0, (d+1)/d x d}
        for d in (2, 5, 9):
            cb = simplex_codebook(d)
            G = gram_matrix(cb, range(d + 1))
            w = qmath.hermitian_eigen(G).eigenvalues
            expected = [(d + 1) / d] * d + [0.0]
            np.testing.assert_allclose(w, expected, atol=1e-9)


class TestCommitUnveil:
    def test_commit_first_vector(self, packed16):
        np.testing.assert_allclose(packed16.state(0), packed16.vectors[0])

    def test_out_of_range(self, packed16):
        with pytest.raises(DomainError, match=r"^index must be in \[0, 31\]$"):
            packed16.state(packed16.count)
        with pytest.raises(DomainError, match=r"^index must be in \[0, 31\]$"):
            verify_unveil(packed16, packed16.state(0), -1, np.random.default_rng(0))

    @pytest.mark.parametrize("bad", [True, 1.5, "0"])
    def test_non_integral_index(self, bad):
        # Unchecked, True would read as row 1, 1.5 would end in numpy's
        # IndexError and "0" in a TypeError.
        cb = simplex_codebook(3)
        message = rf"^index must be an integer in \[0, 3\], got {re.escape(repr(bad))}$"
        with pytest.raises(DomainError, match=message):
            cb.state(bad)
        with pytest.raises(DomainError, match=message):
            verify_unveil(cb, cb.state(0), bad, np.random.default_rng(0))

    def test_dimension_mismatch(self, packed16):
        with pytest.raises(DomainError):
            verify_unveil(packed16, np.array([1, 0], dtype=complex), 0,
                          np.random.default_rng(0))

    def test_held_as_list(self):
        # A list has no .shape; it is checked as np.shape reads it, then used
        # as the array it holds.
        cb = simplex_codebook(3)
        with pytest.raises(DomainError, match="^committed state dimension"):
            verify_unveil(cb, [1, 0], 0, np.random.default_rng(0))
        held = [0.6, 0.8, 0.0]
        as_list = verify_unveil(cb, held, 1, np.random.default_rng(2))
        assert as_list == verify_unveil(cb, np.array(held), 1, np.random.default_rng(2))

    def test_one_draw_per_unveiling(self, packed16):
        rng, replay = np.random.default_rng(4), np.random.default_rng(4)
        verify_unveil(packed16, packed16.state(3), 7, rng)
        replay.random()
        assert rng.random() == replay.random()

    def test_honest_unveil_always_accepted(self):
        cb = simplex_codebook(3)
        rng = np.random.default_rng(1)
        c = cb.state(2)
        for _ in range(10_000):
            assert verify_unveil(cb, c, 2, rng)

    def test_wrong_claim_simplex_rate(self):
        # acceptance probability is (-1/2)^2 = 1/4 on the d=2 simplex
        cb = simplex_codebook(2)
        c = cb.state(0)
        rng = np.random.default_rng(2)
        trials = 100_000
        acc = sum(verify_unveil(cb, c, 1, rng) for _ in range(trials))
        sigma = math.sqrt(0.25 * 0.75 / trials)
        assert abs(acc / trials - 0.25) < 3 * sigma

    def test_wrong_claim_bounded_by_epsilon_sq(self, packed16):
        c = packed16.state(3)
        rng = np.random.default_rng(3)
        trials = 20_000
        acc = sum(verify_unveil(packed16, c, 7, rng) for _ in range(trials))
        true_p = abs(np.vdot(packed16.vectors[7], packed16.vectors[3])) ** 2
        assert true_p < 0.25**2
        sigma = math.sqrt(max(true_p, 1e-6) * 1.0 / trials)
        assert abs(acc / trials - true_p) < 4 * sigma


class TestCheatOperator:
    def test_single_target_is_projector(self, packed16):
        Q = cheat_operator(packed16, [5])
        w = qmath.hermitian_eigen(Q).eigenvalues
        assert w[0] == pytest.approx(1, abs=1e-9)
        assert np.trace(Q.entries).real == pytest.approx(1, abs=1e-9)

    def test_pair_spectrum_analytic(self, packed16):
        s = abs(np.vdot(packed16.vectors[1], packed16.vectors[2]))
        Q = cheat_operator(packed16, [1, 2])
        top = qmath.hermitian_eigen(Q).eigenvalues[0]
        assert top == pytest.approx(1 + s, abs=1e-9)

    def test_trace_equals_target_count(self, packed16):
        for targets in ([0, 4, 9], list(range(8))):
            Q = cheat_operator(packed16, targets)
            assert np.trace(Q.entries).real == pytest.approx(len(targets), abs=1e-9)

    def test_duplicate_targets(self, packed16):
        with pytest.raises(DomainError, match=r"^repeated indices in \(1, 1, 2\)$"):
            cheat_operator(packed16, [1, 1, 2])


class TestMultistringCheat:
    @pytest.mark.parametrize("bad", [1.5, math.nan, math.inf, "1", None])
    def test_non_integral_target(self, bad):
        with pytest.raises(DomainError, match=r"^target must be an integer in \[0, 4\], got"):
            optimal_multistring_cheat(simplex_codebook(4), [0, bad])

    @pytest.mark.parametrize("bad", [-1, 5, 5.0])
    def test_integral_target_out_of_range(self, bad):
        with pytest.raises(DomainError, match=r"^target must be in \[0, 4\]$"):
            optimal_multistring_cheat(simplex_codebook(4), [0, bad])

    def test_integral_float_targets(self):
        cb = simplex_codebook(4)
        assert optimal_multistring_cheat(cb, [0.0, 2.0]).target_indices == (0, 2)
        with pytest.raises(DomainError, match=r"^repeated indices in \(1, 1\)$"):
            optimal_multistring_cheat(cb, [1, 1.0])

    def test_report_fields(self, packed16):
        # The bound has one home, cheat_bound; the report does not store it.
        report = optimal_multistring_cheat(packed16, [6, 9])
        assert CheatReport._fields == report._fields == (
            "target_indices", "cheat_state", "success_probs", "total"
        )

    def test_total_above_bound_is_refused(self, packed16, monkeypatch):
        # Unreachable for a certified codebook; checked where the total is computed.
        monkeypatch.setattr(codebook, "cheat_bound", lambda r, epsilon: 0.5)
        with pytest.raises(DomainError, match=r"^total .* exceeds bound 0.5$"):
            optimal_multistring_cheat(packed16, [6, 9])

    def test_single_target_total_one(self, packed16):
        report = optimal_multistring_cheat(packed16, [4])
        assert report.total == pytest.approx(1, abs=1e-9)

    def test_pair_total(self, packed16):
        s = abs(np.vdot(packed16.vectors[6], packed16.vectors[9]))
        report = optimal_multistring_cheat(packed16, [6, 9])
        assert report.total == pytest.approx(1 + s, abs=1e-9)
        assert report.total <= 1 + packed16.epsilon

    def test_random_target_sets_respect_bound(self, packed16):
        rng = np.random.default_rng(4)
        for _ in range(50):
            targets = rng.choice(packed16.count, size=8, replace=False)
            report = optimal_multistring_cheat(packed16, targets)
            assert report.total <= 1 + 7 * 0.25 + 1e-9
            assert sum(report.success_probs) == pytest.approx(report.total, abs=1e-9)

    def test_haar_states_never_beat_top_eigenvalue(self, packed16):
        rng = np.random.default_rng(5)
        targets = [0, 3, 11, 17]
        Q = cheat_operator(packed16, targets).entries
        top = qmath.hermitian_eigen(cheat_operator(packed16, targets)).eigenvalues[0]
        z = rng.standard_normal((1_000, 16)) + 1j * rng.standard_normal((1_000, 16))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        totals = np.einsum("id,de,ie->i", z.conj(), Q, z).real
        assert totals.max() <= top + 1e-9

    def test_cheat_state_is_top_eigenvector(self, packed16):
        targets = [1, 5, 8]
        report = optimal_multistring_cheat(packed16, targets)
        Q = cheat_operator(packed16, targets).entries
        c = report.cheat_state.amplitudes
        assert np.abs(Q @ c - report.total * c).max() < 1e-9

    @pytest.mark.parametrize("d,r,construction", ORACLE_CASES)
    def test_cheat_state_matches_eigh_projection(self, d, r, construction):
        if construction == "simplex":
            cb = simplex_codebook(d)
        else:
            cb = haar_codebook(d, 2 * d + 1, seed=100 * d + r)
        targets = [int(t) for t in np.random.default_rng(d + r).permutation(cb.count)[:r]]
        report = optimal_multistring_cheat(cb, targets)
        c = report.cheat_state.amplitudes
        want, k = eigh_cheat_state(cb, targets)
        assert np.abs(c - want).max() <= 1e-9
        overlap = np.vdot(cb.vectors[targets[k]], c)
        assert overlap.real > 0 and abs(overlap.imag) <= 1e-12
        Q = cheat_operator(cb, targets).entries
        assert np.linalg.norm(Q @ c - report.total * c) <= 1e-9

    def test_skips_codeword_orthogonal_to_top_eigenspace(self):
        v1 = np.array([0, 1, 0, 0])
        v2 = np.array([0, 0.5, math.sqrt(0.75), 0])
        cb = Codebook(dim=4, vectors=np.array([[1, 0, 0, 0], v1, v2]), epsilon=0.6)
        report = optimal_multistring_cheat(cb, [0, 1, 2])
        assert report.total == pytest.approx(1.5, abs=1e-12)
        want = (v1 + v2) / np.linalg.norm(v1 + v2)
        assert np.abs(report.cheat_state.amplitudes - want).max() <= 1e-12


class TestCheatBound:
    def test_closed_form(self):
        assert codebook.cheat_bound(3, 0.25) == 1.5
        assert codebook.cheat_bound(1, 1.0) == 1.0

    @pytest.mark.parametrize(
        "r,epsilon",
        [(0, 0.25), (-1, 0.25), (2, 0.0), (2, -0.1), (2, 1.5), (2, math.nan), (2, math.inf),
         pytest.param(10**400, 0.25, id="r-above-float-max")],
    )
    def test_domain(self, r, epsilon):
        with pytest.raises(DomainError):
            codebook.cheat_bound(r, epsilon)

    @pytest.mark.parametrize(
        "r,epsilon,message",
        [
            (2.5, 0.25, "r must be an integer >= 1, got 2.5"),
            (True, 0.25, "r must be an integer >= 1, got True"),
            (2, "0.25", "epsilon '0.25' outside (0, 1]"),
            (2, None, "epsilon None outside (0, 1]"),
            (2, math.nan, "epsilon nan outside (0, 1]"),
        ],
    )
    def test_messages(self, r, epsilon, message):
        with pytest.raises(DomainError) as exc:
            codebook.cheat_bound(r, epsilon)
        assert str(exc.value) == message

    def test_integral_float_r(self):
        assert codebook.cheat_bound(3.0, 0.25) == codebook.cheat_bound(3, 0.25) == 1.5


@pytest.mark.parametrize("epsilon", ["0.9", None, True, 0.9j, math.nan, 0.0, 1.5])
def test_random_codebook_epsilon_is_a_real_in_range(epsilon):
    with pytest.raises(DomainError, match=r"^epsilon .* outside \(0, 1\]$"):
        random_codebook(4, 4, epsilon, np.random.default_rng(0))


class TestGramMatrix:
    def test_single_target(self, packed16):
        G = gram_matrix(packed16, [3])
        np.testing.assert_allclose(G.entries, [[1.0]], atol=1e-12)

    def test_pair_closed_form(self, packed16):
        s = abs(np.vdot(packed16.vectors[2], packed16.vectors[5]))
        w = qmath.hermitian_eigen(gram_matrix(packed16, [2, 5])).eigenvalues
        np.testing.assert_allclose(w, [1 + s, 1 - s], atol=1e-9)

    def test_gershgorin(self, packed16):
        targets = list(range(6))
        G = gram_matrix(packed16, targets).entries
        off = np.abs(G - np.diag(np.diag(G)))
        top = qmath.hermitian_eigen(gram_matrix(packed16, targets)).eigenvalues[0]
        assert top <= 1 + (len(targets) - 1) * off.max() + 1e-9

    def test_nonzero_spectrum_matches_cheat_operator(self, packed16):
        targets = [1, 8, 14, 21, 30]
        wq = qmath.hermitian_eigen(cheat_operator(packed16, targets)).eigenvalues
        wg = qmath.hermitian_eigen(gram_matrix(packed16, targets)).eigenvalues
        np.testing.assert_allclose(wq[: len(targets)], wg, atol=1e-9)
        np.testing.assert_allclose(wq[len(targets) :], 0, atol=1e-9)


class TestBobInfoReport:
    def test_simplex_dimension_bound(self):
        report = bob_info_report(simplex_codebook(2))
        assert report.holevo <= 1 + 1e-9
        assert report.committed_bits == 1

    def test_hiding_gap(self):
        cb = random_codebook(16, 64, 0.9, np.random.default_rng(6))
        report = bob_info_report(cb)
        assert report.holevo <= report.dim_bound + 1e-9
        assert report.dim_bound == 4
        assert report.committed_bits == 6
        assert report.holevo < report.committed_bits

    def test_dimension_guard(self):
        rng = np.random.default_rng(7)
        z = rng.standard_normal((2, 300))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        cb = Codebook(dim=300, vectors=z.astype(complex), epsilon=0.99)
        with pytest.raises(TooLarge):
            bob_info_report(cb)

    def test_single_vector_rejected(self):
        with pytest.raises(DomainError):
            Codebook(dim=2, vectors=np.array([[1.0, 0.0]], dtype=complex), epsilon=0.5)
