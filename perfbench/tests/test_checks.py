"""Every check accepts a correct output and rejects a slightly wrong one."""

import json
import math

import numpy as np
import pytest

import oracles
from oracles import CheckFailed

BUMP = 1e-6


def random_vectors(rng, count, dim):
    z = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def true_cheat(V, targets):
    w, U = np.linalg.eigh(oracles.projector_sum(V[targets]))
    c = U[:, -1]
    return float(w[-1]), [float(abs(np.vdot(v, c)) ** 2) for v in V[targets]], c, U


def test_ensemble_entropy_check():
    exact = oracles.ensemble_entropy(8, 0.3)
    oracles.check_ensemble_entropy(8, 0.3, exact)
    with pytest.raises(CheckFailed):
        oracles.check_ensemble_entropy(8, 0.3, exact + BUMP)
    with pytest.raises(CheckFailed):
        oracles.check_ensemble_entropy(8, 0.3, float("nan"))


def test_holevo_check():
    V = random_vectors(np.random.default_rng(1), 12, 4)
    rho = oracles.projector_sum(V) / 12
    holevo = oracles.entropy_of_spectrum(np.linalg.eigvalsh(rho))
    oracles.check_holevo(V, holevo, 2.0)
    with pytest.raises(CheckFailed):
        oracles.check_holevo(V, holevo + BUMP, 2.0)
    with pytest.raises(CheckFailed):
        oracles.check_holevo(V, holevo, 2.5)


def test_codebook_overlap_check():
    V = np.eye(3, dtype=complex)
    oracles.check_codebook_overlaps(V, 0.1)
    V[1] = np.array([0.1, math.sqrt(1 - 0.01), 0.0])
    with pytest.raises(CheckFailed):
        oracles.check_codebook_overlaps(V, 0.1)
    with pytest.raises(CheckFailed):
        oracles.check_codebook_overlaps(np.eye(3) * (1 + BUMP), 0.1)


def test_multistring_cheat_check():
    V = random_vectors(np.random.default_rng(2), 8, 6)
    targets = [0, 3, 5]
    total, probs, c, U = true_cheat(V, targets)
    oracles.check_multistring_cheat(V, targets, 1.0, total, probs, c)
    oracles.check_multistring_cheat(V, targets, 1.0, total, probs, 1j * c)  # any phase
    bad = [
        (1.0, total + BUMP, probs, c),  # eigenvalue moved
        (1.0, total, [probs[0] + BUMP] + probs[1:], c),  # probability moved
        (1.0, total, probs, U[:, -2]),  # not a top eigenvector
        (0.1, total, probs, c),  # above 1 + (r - 1) eps for eps = 0.1
        (1.0, total, probs[:2], c),  # a target missing
    ]
    for eps, t, p, v in bad:
        with pytest.raises(CheckFailed):
            oracles.check_multistring_cheat(V, targets, eps, t, p, v)


def test_multistring_check_ignores_choice_in_degenerate_eigenspace():
    d = 4
    V = np.eye(d + 1) - 1.0 / (d + 1)
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    targets = [0, 1, 2]
    w, U = np.linalg.eigh(oracles.projector_sum(V[targets]))
    assert w[-1] == pytest.approx(w[-2])  # (d + 1) / d, twice
    for c in (U[:, -1], U[:, -2], (U[:, -1] + U[:, -2]) / math.sqrt(2)):
        probs = [float(abs(np.vdot(v, c)) ** 2) for v in V[targets]]
        oracles.check_multistring_cheat(V, targets, 1 / d + 1e-12, float(w[-1]), probs, c)


def test_gram_spectrum_check():
    V = random_vectors(np.random.default_rng(3), 8, 4)
    for targets in ([1, 2], [0, 2, 4, 6, 7, 3]):  # independent, then r > dim
        G = V[targets].conj() @ V[targets].T
        w = np.linalg.eigvalsh(G)
        oracles.check_gram_spectrum(V, targets, w)
        moved = w.copy()
        moved[-1] += BUMP
        with pytest.raises(CheckFailed):
            oracles.check_gram_spectrum(V, targets, moved)
        moved = w.copy()
        moved[0] += BUMP
        with pytest.raises(CheckFailed):
            oracles.check_gram_spectrum(V, targets, moved)


def test_bit_cheat_check():
    theta = 0.7
    P = sum(np.outer(e, e) for e in ([1.0, 0.0], [math.sin(theta), math.cos(theta)]))
    c = np.linalg.eigh(P)[1][:, -1]
    p0, p1 = c[0] ** 2, (math.sin(theta) * c[0] + math.cos(theta) * c[1]) ** 2
    oracles.check_bit_cheat(theta, c, p0, p1)
    with pytest.raises(CheckFailed):
        oracles.check_bit_cheat(theta, c, p0 + BUMP, p1)
    with pytest.raises(CheckFailed):
        oracles.check_bit_cheat(theta, c, p0 + BUMP, p1 - BUMP)  # sum kept, p0 wrong


def rows(**kv):
    return [{"key": k, "value": v} for k, v in kv.items()]


def test_bitwise_cheat_run_check():
    p = oracles.bitwise_cheat_accept(4, 0.3)
    acc = round(p * 200)
    oracles.check_bitwise_cheat_run(rows(verdict_Accepted=acc, verdict_Rejected=200 - acc),
                                     4, 0.3, 200)
    with pytest.raises(CheckFailed):  # acceptance of an honest committer
        oracles.check_bitwise_cheat_run(rows(verdict_Accepted=200), 4, 0.3, 200)
    with pytest.raises(CheckFailed):  # a lost trial
        oracles.check_bitwise_cheat_run(rows(verdict_Accepted=acc, verdict_Rejected=199 - acc),
                                         4, 0.3, 200)


def test_multistring_run_check():
    oracles.check_multistring_run(rows(verdict_Accepted=60, verdict_Rejected=140), 4, 0.25, 200)
    for acc in (10, 150):
        with pytest.raises(CheckFailed):
            oracles.check_multistring_run(rows(verdict_Accepted=acc, verdict_Rejected=200 - acc),
                                          4, 0.25, 200)


def test_toss_run_checks():
    oracles.check_honest_toss_run(rows(verdict_Completed=32, bit_one_freq=0.51), 64, 32)
    with pytest.raises(CheckFailed):
        oracles.check_honest_toss_run(rows(verdict_Completed=32, bit_one_freq=0.6), 64, 32)
    with pytest.raises(CheckFailed):
        oracles.check_honest_toss_run(
            rows(verdict_Completed=31, verdict_CheatDetected=1, bit_one_freq=0.5), 64, 32)
    oracles.check_tamper_run(rows(verdict_CheatDetected=16), 16, 64, 1.0, 16)
    with pytest.raises(CheckFailed):
        oracles.check_tamper_run(rows(verdict_CheatDetected=15, verdict_Completed=1),
                                 16, 64, 1.0, 16)
    mean, var = oracles.best_of_m_moments(16, 64)
    oracles.check_best_of_m_run(rows(verdict_Completed=48, mean_advantage_bits=mean + 0.1),
                                16, 64, 48)
    with pytest.raises(CheckFailed):
        oracles.check_best_of_m_run(rows(verdict_Completed=48, mean_advantage_bits=mean + 1.5),
                                    16, 64, 48)


def test_sweep_checks():
    det = [{"M": M, "trials": 200, "mean": oracles.detection_prob(M, 64, 0.01), "stderr": 0.0}
           for M in (2, 3, 4)]
    oracles.check_detection_sweep(det, 64, 0.01, 200, (2, 3, 4))
    det[1]["mean"] -= 0.2
    with pytest.raises(CheckFailed):
        oracles.check_detection_sweep(det, 64, 0.01, 200, (2, 3, 4))
    adv = [{"M": M, "trials": 1000, "mean": oracles.best_of_m_moments(M, 64)[0], "stderr": 0.0}
           for M in (2, 4, 16)]
    oracles.check_advantage_sweep(adv, 64, 1000, (2, 4, 16))
    adv[2]["mean"] = math.log2(16)  # the rough log2(M) rule, not the exact sum
    with pytest.raises(CheckFailed):
        oracles.check_advantage_sweep(adv, 64, 1000, (2, 4, 16))
    with pytest.raises(CheckFailed):
        oracles.check_advantage_sweep(adv[:2], 64, 1000, (2, 4, 16))


def transcript(messages, verdict="Completed"):
    lines = [{"format_version": 1, "protocol": "CoinToss", "params": {}, "seed": 1}]
    lines += [dict(seq=i, sender=s, kind=k, payload=p) for i, (s, k, p) in enumerate(messages)]
    lines.append({"verdict": verdict})
    return ("\n".join(json.dumps(x) for x in lines) + "\n").encode()


def test_transcript_checks():
    r = math.sqrt(0.5)
    singlet = [[0.0, 0.0], [r, 0.0], [-r, 0.0], [0.0, 0.0]]
    msgs = [("alice", "prepare", {"states": [[singlet, singlet]]}),
            ("bob", "choose", {}),
            ("alice", "alice_bits", {"bits": "0110"}),
            ("bob", "bob_bits", {"bits": "1001"})]
    doc = oracles.check_transcript_lines(transcript(msgs))
    oracles.check_honest_toss_bits(doc["messages"])

    flipped = msgs[:3] + [("bob", "bob_bits", {"bits": "1011"})]
    doc = oracles.check_transcript_lines(transcript(flipped))
    with pytest.raises(CheckFailed):
        oracles.check_honest_toss_bits(doc["messages"])

    with pytest.raises(CheckFailed):  # two alice messages in a row
        oracles.check_transcript_lines(transcript([msgs[0], msgs[2]]))

    stretched = [[0.0, 0.0], [r + BUMP, 0.0], [-r, 0.0], [0.0, 0.0]]
    with pytest.raises(CheckFailed):
        oracles.check_transcript_lines(
            transcript([("alice", "commit", {"state": stretched})] + msgs[1:]))
