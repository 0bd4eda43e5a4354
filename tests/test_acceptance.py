"""Acceptance suite: one test per headline security-bound criterion.

Each test prints a single PASS line (visible with pytest -s) after its
assertions; stated runtime ceilings are asserted, not just observed.
"""

import math
import time

import numpy as np
import pytest

from mistrustq import bitwise, codebook, cointoss, harness, qmath
from mistrustq.cli import main

THETA_GRID = (0.05, 0.1, 0.3, 0.6, 1.0, math.pi / 2)


def report(name):
    print(f"ACCEPT {name}: PASS")


def test_01_bitwise_cheat_ceiling():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    for theta in THETA_GRID:
        params = bitwise.SecurityParams(theta=theta, n=2)
        a0, a1 = bitwise.encode_string("01", params)
        Q = qmath.HermitianOperator(np.outer(a0, a0.conj()) + np.outer(a1, a1.conj()))
        top = qmath.hermitian_eigen(Q).eigenvalues[0]
        assert abs(top - (1 + math.sin(theta))) < 1e-9
        _, p0, p1 = bitwise.optimal_bit_cheat(theta)
        assert abs(p0 + p1 - (1 + math.sin(theta))) < 1e-9
        z = rng.standard_normal((10_000, 2)) + 1j * rng.standard_normal((10_000, 2))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        totals = np.abs(z @ a0.conj()) ** 2 + np.abs(z @ a1.conj()) ** 2
        assert totals.max() <= 1 + math.sin(theta) + 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(f"1 cheat ceiling ({elapsed:.2f}s)")


def test_02_ensemble_entropy_exact():
    start = time.perf_counter()
    for theta in (0.1, 0.3, 1.0):
        per_qubit = qmath.binary_entropy((1 + math.sin(theta)) / 2)
        for n in range(1, 9):
            exact = qmath.von_neumann_entropy(bitwise.bob_ensemble(n, theta))
            assert abs(exact - n * per_qubit) < 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(f"2 ensemble entropy ({elapsed:.2f}s)")


def test_03_holevo_ceiling_helstrom():
    trials = 100_000
    for n, theta, seed in ((8, 0.3, 103), (16, 0.6, 104)):
        info, rate = bitwise.helstrom_attack(n, theta, trials, np.random.default_rng(seed))
        p = (1 + math.cos(theta)) / 2
        sigma_rate = math.sqrt(p * (1 - p) / (n * trials))
        assert abs(rate - p) < 3 * sigma_rate
        sigma_info = n * abs(math.log2((1 - p) / p)) * sigma_rate
        assert info <= bitwise.bob_entropy(n, theta) + 4 * sigma_info
    report("3 Holevo ceiling")


def test_04_codebook_cheat_bound():
    start = time.perf_counter()
    for seed in range(5):
        cb = codebook.random_codebook(16, 32, 0.25, np.random.default_rng(200 + seed))
        rng = np.random.default_rng(300 + seed)
        for r in (2, 4, 8):
            for _ in range(50):
                targets = rng.choice(cb.count, size=r, replace=False)
                wq = qmath.hermitian_eigen(codebook.cheat_operator(cb, targets)).eigenvalues
                assert wq[0] <= 1 + (r - 1) * 0.25 + 1e-9
                wg = qmath.hermitian_eigen(codebook.gram_matrix(cb, targets)).eigenvalues
                assert np.abs(wq[:r] - wg).max() < 1e-9
                assert np.abs(wq[r:]).max() < 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(f"4 codebook cheat bound ({elapsed:.2f}s)")


def test_05_simplex_exactness():
    for d in range(2, 17):
        cb = codebook.simplex_codebook(d)
        G = (cb.vectors @ cb.vectors.conj().T).real
        off = G[~np.eye(d + 1, dtype=bool)]
        assert np.abs(off + 1.0 / d).max() < 1e-12
        w = qmath.hermitian_eigen(codebook.gram_matrix(cb, range(d + 1))).eigenvalues
        expected = np.array([(d + 1) / d] * d + [0.0])
        assert np.abs(w - expected).max() < 1e-9
    report("5 simplex exactness")


def test_06_hiding_gap():
    cb = codebook.random_codebook(16, 64, 0.9, np.random.default_rng(106))
    rep = codebook.bob_info_report(cb)
    assert rep.holevo <= math.log2(16) + 1e-9
    assert rep.committed_bits == 6
    assert math.log2(16) < rep.committed_bits
    report("6 hiding gap")


def test_07_honest_coin_toss():
    alice = harness.StrategyDescriptor("alice", "honest")
    bob = harness.StrategyDescriptor("bob", "honest")
    rng = np.random.default_rng(107)
    zeros = total = 0
    for _ in range(1_000):
        seed = int(rng.integers(2**63))
        t = harness.run_session("CoinToss", {"M": 4, "N": 16}, alice, bob, seed)
        assert t.verdict == "Completed"
        bits = {m.kind: m.payload["bits"] for m in t.messages if m.kind.endswith("_bits")}
        assert all(a != b for a, b in zip(bits["alice_bits"], bits["bob_bits"]))
        zeros += bits["alice_bits"].count("0")
        total += len(bits["alice_bits"])
    sigma = math.sqrt(0.25 / total)
    assert abs(zeros / total - 0.5) < 3 * sigma
    report("7 honest coin toss")


def test_08_tamper_detection_rates():
    trials = 100_000
    rng = np.random.default_rng(108)
    for k in (1, 2, 4):
        batch = np.array([cointoss.singlet()] * (8 - k) + [cointoss.product_pair(0, 1)] * k)
        # Ten stacks of 10,000 batches: the draws of 100,000 one-batch calls.
        stack = np.broadcast_to(batch, (10_000, *batch.shape))
        passes = sum(int(cointoss.singlet_test(stack, rng).sum()) for _ in range(10))
        expect = 0.5**k
        sigma = math.sqrt(expect * (1 - expect) / trials)
        assert abs(passes / trials - expect) < 3 * sigma
        if k == 1:
            # single tampered pair: failure frequency within 3 sigma of 1/2
            assert abs((trials - passes) / trials - 0.5) < 3 * sigma
    report("8 tamper detection")


def test_09_best_of_m_advantage():
    start = time.perf_counter()
    rng = np.random.default_rng(109)
    N = 64
    # exact-enumeration oracle for M=2
    exact2 = sum(1 - (1 - 2.0**-k) ** 2 for k in range(1, N + 1))
    scores = cointoss.bob_best_of_M(cointoss.CoinTossParams(M=2, N=N), rng, 1_000)
    stderr = np.std(scores) / math.sqrt(len(scores))
    assert abs(np.mean(scores) - exact2) < 4 * stderr
    for M in (4, 16, 64, 256):
        params = cointoss.CoinTossParams(M=M, N=N)
        scores = cointoss.bob_best_of_M(params, rng, 1_000)
        assert abs(np.mean(scores) - math.log2(M)) <= 2.0
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(f"9 best-of-M advantage ({elapsed:.2f}s)")


CLI_COMMANDS = [
    ["bounds", "--theta", "0.05,0.3,1.0", "--n", "2,8", "--r", "2", "--r2", "2,8"],
    ["run", "--protocol", "bitwise", "--theta", "0.3", "--n", "2",
     "--alice", "cheat_state", "--seed", "31", "--trials", "200"],
    ["run", "--protocol", "codebook", "--dim", "3", "--construction", "simplex",
     "--seed", "32", "--trials", "100", "--format", "json"],
    ["run", "--protocol", "cointoss", "--batches", "4", "--pairs", "8",
     "--seed", "33", "--trials", "100"],
    ["sweep", "--metric", "advantage", "--variable", "M", "--values", "4,16,64",
     "--pairs", "32", "--trials", "200", "--seed", "34"],
    ["sweep", "--metric", "cheat_bound", "--variable", "theta",
     "--values", "0.1,0.5,1.0", "--seed", "35"],
]


@pytest.mark.parametrize("argv", CLI_COMMANDS, ids=lambda a: "-".join(a[:2]))
def test_10_cli_determinism(argv, tmp_path):
    outputs = []
    for run in range(2):
        out = tmp_path / f"out{run}"
        assert main(argv + ["--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] and outputs[0] == outputs[1]
    report(f"10 CLI determinism [{argv[0]}]")
