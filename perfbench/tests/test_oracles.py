"""Each closed form in oracles.py against brute-force enumeration."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import oracles


def encodings(theta):
    return np.array([1.0, 0.0]), np.array([math.sin(theta), math.cos(theta)])


def kron_all(vectors):
    out = np.array([1.0])
    for v in vectors:
        out = np.kron(out, v)
    return out


@pytest.mark.parametrize("theta", [0.1, 0.3, 1.0, math.pi / 2])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ensemble_entropy_matches_mixture_over_all_strings(n, theta):
    psi = encodings(theta)
    rho = sum(np.outer(s, s) for s in (kron_all(psi[b] for b in bits)
                                       for bits in itertools.product((0, 1), repeat=n)))
    rho /= 2**n
    brute = oracles.entropy_of_spectrum(np.linalg.eigvalsh(rho))
    assert oracles.ensemble_entropy(n, theta) == pytest.approx(brute, abs=1e-12)


@pytest.mark.parametrize("theta", [0.05, 0.3, 1.0, 1.5])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_bitwise_cheat_acceptance_matches_n_qubit_born_rule(n, theta):
    psi = encodings(theta)
    w, U = np.linalg.eigh(np.outer(psi[0], psi[0]) + np.outer(psi[1], psi[1]))
    assert oracles.bit_cheat_total(theta) == pytest.approx(w[-1], abs=1e-12)
    cheat = kron_all([U[:, -1]] * n)
    for b in (0, 1):
        target = kron_all([psi[b]] * n)
        accept = abs(target @ cheat) ** 2
        assert oracles.bitwise_cheat_accept(n, theta) == pytest.approx(accept, abs=1e-12)


def _singlet_pass_prob(pair):
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2)
    return abs(singlet @ pair) ** 2


@pytest.mark.parametrize("M,N,fraction", [(2, 1, 1.0), (2, 3, 0.3), (3, 2, 0.5),
                                          (3, 3, 1.0), (4, 2, 0.01), (2, 4, 0.75)])
def test_detection_matches_enumerated_singlet_tests(M, N, fraction):
    k = math.ceil(fraction * N)
    bad = np.zeros(4)
    bad[0b01] = 1.0  # |0, 1>: Alice forces her bit to 0
    good = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2)
    batch = [bad] * k + [good] * (N - k)
    p_pass = [_singlet_pass_prob(pair) for pair in batch]
    undetected = 0.0
    for kept in range(M):  # Bob keeps a uniform batch and tests the rest
        tested = [p_pass for i in range(M) if i != kept]
        probs = [p for batch_probs in tested for p in batch_probs]
        for outcome in itertools.product((True, False), repeat=len(probs)):
            weight = math.prod(p if ok else 1 - p for ok, p in zip(outcome, probs))
            undetected += weight * all(outcome) / M
    assert oracles.detection_prob(M, N, fraction) == pytest.approx(1 - undetected, abs=1e-12)


def _zero_prefix(bits):
    n = 0
    for b in bits:
        if b:
            break
        n += 1
    return n


@pytest.mark.parametrize("M,N", [(1, 3), (2, 1), (2, 4), (3, 3), (4, 3), (2, 6)])
def test_best_of_m_moments_match_enumeration(M, N):
    total = Fraction(0)
    square = Fraction(0)
    count = 0
    for flat in itertools.product((0, 1), repeat=M * N):
        best = max(_zero_prefix(flat[i * N:(i + 1) * N]) for i in range(M))
        total += best
        square += best * best
        count += 1
    mean = total / count
    var = square / count - mean * mean
    got_mean, got_var = oracles.best_of_m_moments(M, N)
    assert got_mean == pytest.approx(float(mean), abs=1e-12)
    assert got_var == pytest.approx(float(var), abs=1e-12)


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_simplex_top_eigenvalue_from_centred_basis(d):
    # Vertices of the regular simplex: centred basis vectors of R^(d+1).
    V = np.eye(d + 1) - 1.0 / (d + 1)
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    for r in range(2, d + 2):
        top = np.linalg.eigvalsh(oracles.projector_sum(V[:r]))[-1]
        assert oracles.simplex_top(d) == pytest.approx(top, abs=1e-12)
        assert top <= oracles.codebook_bound(r, 1.0 / d) + 1e-12


def test_h2_and_entropy_of_spectrum_agree():
    for p in (0.0, 0.1, 0.5, 0.9, 1.0):
        assert oracles.h2(p) == pytest.approx(oracles.entropy_of_spectrum([p, 1 - p]), abs=1e-15)
