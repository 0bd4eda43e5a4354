import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from mistrustq import cli, cointoss
from mistrustq.cointoss import (
    CoinTossParams,
    bit_strings,
    bob_best_of_M,
    generate_bits,
    measure_z,
    product_pair,
    singlet,
    singlet_test,
    tamper_detected,
    tampered,
    zero_prefix_score,
    zero_prefixes,
)
from mistrustq.errors import DomainError, TooLarge
from mistrustq.harness import (
    PROTOCOLS, StrategyDescriptor, Transcript, resolve_strategy, run_session
)

SQ = math.sqrt(0.5)

HONEST_ALICE = StrategyDescriptor("alice", "honest")
HONEST_BOB = StrategyDescriptor("bob", "honest")
BEST_OF_M_BOB = StrategyDescriptor("bob", "best_of_m")


def tamper(fraction, target_bit):
    return StrategyDescriptor(
        "alice", "tamper", {"fraction": fraction, "target_bit": target_bit}
    )


def tamper_one_batch(batch_index, target_bit):
    return StrategyDescriptor(
        "alice", "tamper_one_batch", {"batch_index": batch_index, "target_bit": target_bit}
    )


def prepare(alice, params, rng):
    return resolve_strategy("CoinToss", alice)(params, rng)


def toss(params, alice, bob, rng):
    """One session through the harness engine, seeded from rng, summarized from
    its transcript."""
    seed = int(rng.integers(2**63))
    t = run_session("CoinToss", {"M": params.M, "N": params.N}, alice, bob, seed)
    payloads = {m.kind: m.payload for m in t.messages}
    return SimpleNamespace(
        verdict=t.verdict,
        kept_batch=payloads["choose"]["kept"],
        alice_bits=payloads.get("alice_bits", {}).get("bits"),
        bob_bits=payloads.get("bob_bits", {}).get("bits"),
    )


class TestSinglet:
    def test_amplitudes_and_norm(self):
        s = singlet()
        np.testing.assert_allclose(s, [0, SQ, -SQ, 0])
        assert np.linalg.norm(s) == pytest.approx(1, abs=1e-12)

    def test_overlap_with_01(self):
        amp = np.vdot(product_pair(0, 1), singlet())
        assert abs(amp) ** 2 == pytest.approx(0.5)

    def test_sigma_z_anticorrelation(self):
        zz = np.diag([1.0, -1.0, -1.0, 1.0])
        s = singlet()
        assert np.real(np.vdot(s, zz @ s)) == pytest.approx(-1)


class TestParams:
    def test_bounds(self):
        with pytest.raises(DomainError):
            CoinTossParams(M=1, N=4)
        with pytest.raises(DomainError):
            CoinTossParams(M=2, N=0)


class TestPrepare:
    def test_honest_all_singlets(self):
        params = CoinTossParams(M=3, N=5)
        batches = prepare(HONEST_ALICE, params, np.random.default_rng(0))
        assert batches.shape == (3, 5, 4) and batches.dtype == complex
        np.testing.assert_allclose(batches, np.tile([0, SQ, -SQ, 0], (3, 5, 1)))

    def test_full_tamper(self):
        params = CoinTossParams(M=2, N=4)
        batches = prepare(
            tamper(fraction=1.0, target_bit=0), params, np.random.default_rng(0)
        )
        np.testing.assert_allclose(batches, np.tile([0, 1, 0, 0], (2, 4, 1)))

    def test_half_tamper_counts(self):
        params = CoinTossParams(M=3, N=5)
        rng = np.random.default_rng(7)
        batches = prepare(tamper(fraction=0.5, target_bit=1), params, rng)
        tampered = np.isclose(batches, [0, 0, 1, 0]).all(axis=-1).sum(axis=1)
        assert (tampered == math.ceil(5 / 2)).all()

    @pytest.mark.parametrize("fraction, k", [(0.0, 0), (0.01, 1), (1 / 8, 1), (1.0, 8)])
    def test_tamper_count_per_batch(self, fraction, k):
        params = CoinTossParams(M=5, N=8)
        batches = prepare(tamper(fraction=fraction, target_bit=1), params,
                          np.random.default_rng(4))
        tampered = (batches == product_pair(1, 0)).all(axis=-1)
        assert (tampered.sum(axis=1) == k).all()
        assert (batches[~tampered] == singlet()).all()

    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_tamper_positions_are_the_smallest_uniforms(self, k):
        # One rng.random((M, N)) draw per session; each batch tampers the
        # positions of its row's k smallest values.
        params = CoinTossParams(M=6, N=8)
        rng, replay = np.random.default_rng(5), np.random.default_rng(5)
        batches = prepare(tamper(fraction=k / 8, target_bit=0), params, rng)
        u = replay.random((6, 8))
        expected = u <= np.sort(u, axis=1)[:, k - 1 : k]
        assert ((batches == product_pair(0, 1)).all(axis=-1) == expected).all()
        assert rng.random() == replay.random()

    def test_tamper_positions_deterministic(self):
        params = CoinTossParams(M=2, N=8)
        a = prepare(
            tamper(fraction=0.25, target_bit=0), params, np.random.default_rng(3)
        )
        b = prepare(
            tamper(fraction=0.25, target_bit=0), params, np.random.default_rng(3)
        )
        assert (a == b).all()

    @pytest.mark.parametrize(
        "alice",
        [
            tamper(fraction=2.0, target_bit=0),
            tamper(fraction=0.5, target_bit=2),
            tamper_one_batch(batch_index=-1, target_bit=0),
            tamper_one_batch(batch_index=0, target_bit=-1),
            tamper_one_batch(batch_index=2, target_bit=0),  # outside [0, M)
            tamper(fraction=0.5, target_bit=0.5),
            tamper_one_batch(batch_index=0.5, target_bit=0),
        ],
    )
    def test_strategy_range_checks(self, alice):
        with pytest.raises(DomainError):
            prepare(alice, CoinTossParams(M=2, N=4), np.random.default_rng(0))

    @pytest.mark.parametrize("fraction", ["0.5", None, True, math.nan, -0.1, 0.5j])
    def test_fraction_is_a_real_in_range(self, fraction):
        # "0.5" ended in TypeError; True tampered every pair.
        with pytest.raises(DomainError, match=r"^fraction .* outside \[0, 1\]$"):
            prepare(tamper(fraction, 0), CoinTossParams(M=2, N=4), np.random.default_rng(0))


def pass_count(batch, rng, trials, stack=10_000):
    """Passes of `trials` singlet tests of one batch, in stacks of at most `stack`
    batches: the draws of `trials` one-batch calls."""
    passes = 0
    for i in range(0, trials, stack):
        shape = (min(stack, trials - i), *batch.shape)
        passes += int(singlet_test(np.broadcast_to(batch, shape), rng).sum())
    return passes


class TestSingletTest:
    def test_honest_always_passes(self):
        rng = np.random.default_rng(0)
        batch = np.array([singlet()] * 8)
        assert pass_count(batch, rng, 10_000) == 10_000

    def test_one_tampered_pair_half_rate(self):
        rng = np.random.default_rng(1)
        batch = np.array([singlet()] * 7 + [product_pair(0, 1)])
        trials = 20_000
        passes = pass_count(batch, rng, trials)
        sigma = math.sqrt(0.25 / trials)
        assert abs(passes / trials - 0.5) < 3 * sigma

    def test_k_tampered_pairs_product_rate(self):
        # oracle: per-pair independence, pass probability = prod |<singlet|pair>|^2
        rng = np.random.default_rng(2)
        for k in (2, 3):
            batch = np.array([singlet()] * 6 + [product_pair(0, 1)] * k)
            expect = 0.5**k
            trials = 20_000
            passes = pass_count(batch, rng, trials)
            sigma = math.sqrt(expect * (1 - expect) / trials)
            assert abs(passes / trials - expect) < 3 * sigma

    @pytest.mark.parametrize("shape", [(6,), (1, 6), (3, 6), (2, 4, 6), (4, 1)])
    def test_stack_is_the_per_batch_calls(self, shape):
        # One call on a (..., N, 4) stack gives, per batch, what one call per
        # batch in order gives, and leaves the generator where those calls do.
        # Random states, singlets and product pairs give passes and failures.
        setup = np.random.default_rng(11)
        pairs = np.stack([singlet(), product_pair(0, 1), product_pair(1, 0)])
        stack = pairs[setup.choice(3, size=shape, p=[0.85, 0.1, 0.05])]
        haar = setup.normal(size=(*shape, 4)) + 1j * setup.normal(size=(*shape, 4))
        mixed = setup.random(shape) < 0.05
        stack[mixed] = (haar / np.linalg.norm(haar, axis=-1, keepdims=True))[mixed]
        rng, replay = np.random.default_rng(12), np.random.default_rng(12)
        got = singlet_test(stack, rng)
        batches = stack.reshape(-1, *stack.shape[-2:])
        expected = np.array([singlet_test(b, replay) for b in batches])
        assert got.shape == shape[:-1] and got.dtype == bool
        assert got.ravel().tolist() == expected.tolist()
        assert rng.random() == replay.random()

    @pytest.mark.parametrize("chunk", [1, 5, 48])
    def test_pieces_are_one_draw(self, chunk, monkeypatch):
        # Pieces of DRAW_CHUNK pairs, cut across batches or not, give what one
        # piece gives and leave the generator where it leaves it.
        setup = np.random.default_rng(13)
        stack = np.stack([singlet(), product_pair(0, 1)])[(setup.random((2, 4, 6)) < 0.1) * 1]
        rng, replay = np.random.default_rng(14), np.random.default_rng(14)
        expected = singlet_test(stack, replay)
        monkeypatch.setattr(cointoss, "DRAW_CHUNK", chunk)
        assert singlet_test(stack, rng).tolist() == expected.tolist()
        assert rng.random() == replay.random()


class TestGenerateBits:
    def test_anticorrelated(self):
        rng = np.random.default_rng(0)
        batch = np.array([singlet()] * 16)
        for _ in range(200):
            a, b = generate_bits(batch, rng)
            assert all(x != y for x, y in zip(a, b))

    def test_unbiased(self):
        rng = np.random.default_rng(1)
        batch = np.array([singlet()] * 50)
        total = 0
        zeros = 0
        for _ in range(2_000):
            a, _ = generate_bits(batch, rng)
            zeros += a.count("0")
            total += len(a)
        sigma = math.sqrt(0.25 / total)
        assert abs(zeros / total - 0.5) < 3 * sigma

    def test_product_pairs_deterministic(self):
        rng = np.random.default_rng(2)
        batch = np.array([product_pair(0, 1)] * 6)
        a, b = generate_bits(batch, rng)
        assert a == "000000"
        assert b == "111111"

    def test_one_call_matches_per_batch(self):
        # measure_z over all M batches makes the draws of M generate_bits
        # calls in turn, and argmax over zero_prefixes keeps the batch that the
        # first best zero_prefix_score of Bob's strings keeps.
        batches = np.tile(singlet(), (16, 64, 1))
        batches[5, :20] = product_pair(1, 0)
        rng, replay = np.random.default_rng(5), np.random.default_rng(5)
        outcomes = measure_z(batches, rng)
        expected = [generate_bits(b, replay) for b in batches]
        assert [bit_strings(o) for o in outcomes] == expected
        assert rng.random() == replay.random()
        kept = int(np.argmax(zero_prefixes(outcomes & 1)))
        assert kept == max(range(16), key=lambda i: zero_prefix_score(expected[i][1]))


class TestRunCoinToss:
    def test_honest_session_memory(self):
        # Bob's Bell test runs in pieces, so an honest session peaks near the
        # arrays it holds (the batches, the `prepare` payload and the tested
        # copy), not at several times the tested pairs' Bell products.
        batch_bytes = 16 * 4096 * 4 * 16  # (M, N, 4) complex128: 4 MB
        run_session("CoinToss", {"M": 2, "N": 4}, HONEST_ALICE, HONEST_BOB, 1)
        tracemalloc.start()
        try:
            t = run_session("CoinToss", {"M": 16, "N": 4096}, HONEST_ALICE, HONEST_BOB, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert t.verdict == "Completed"
        assert peak < 3.5 * batch_bytes

    def test_honest_completes_unbiased(self):
        params = CoinTossParams(M=4, N=8)
        rng = np.random.default_rng(0)
        zeros = total = 0
        for _ in range(200):
            out = toss(params, HONEST_ALICE, HONEST_BOB, rng)
            assert out.verdict == "Completed"
            assert all(x != y for x, y in zip(out.alice_bits, out.bob_bits))
            zeros += out.alice_bits.count("0")
            total += len(out.alice_bits)
        sigma = math.sqrt(0.25 / total)
        assert abs(zeros / total - 0.5) < 3.5 * sigma

    def test_full_tamper_detected(self):
        params = CoinTossParams(M=4, N=8)
        rng = np.random.default_rng(1)
        alice = tamper(fraction=1.0, target_bit=0)
        # survival requires all 3N=24 tested tampered pairs to pass: 2^-24
        for _ in range(300):
            assert toss(params, alice, HONEST_BOB, rng).verdict == "CheatDetected"

    def test_single_tampered_batch_escape_rate(self):
        # oracle: Bob keeps the tampered batch with probability 1/M
        params = CoinTossParams(M=4, N=8)
        rng = np.random.default_rng(2)
        alice = tamper_one_batch(batch_index=1, target_bit=0)
        trials = 4_000
        escaped = 0
        for _ in range(trials):
            out = toss(params, alice, HONEST_BOB, rng)
            if out.verdict == "Completed" and out.kept_batch == 1:
                escaped += 1
                assert out.alice_bits == "0" * 8  # bits fixed when it escapes
        sigma = math.sqrt(0.25 * 0.75 / trials)
        assert abs(escaped / trials - 0.25) < 3 * sigma

    def test_detection_monotone_in_tampered_count(self):
        params = CoinTossParams(M=4, N=8)
        rates = []
        for k in (1, 2, 4, 8):
            rng = np.random.default_rng(10 + k)
            alice = tamper(fraction=k / 8, target_bit=0)
            trials = 2_000
            detected = sum(
                toss(params, alice, HONEST_BOB, rng).verdict == "CheatDetected"
                for _ in range(trials)
            )
            rates.append(detected / trials)
        slack = 3 * math.sqrt(0.25 / 2_000)
        assert all(b >= a - slack for a, b in zip(rates, rates[1:]))

    def test_cheating_bob_completes_with_advantage(self):
        params = CoinTossParams(M=16, N=16)
        rng = np.random.default_rng(3)
        scores = []
        for _ in range(300):
            out = toss(params, HONEST_ALICE, BEST_OF_M_BOB, rng)
            assert out.verdict == "Completed"
            assert all(x != y for x, y in zip(out.alice_bits, out.bob_bits))
            scores.append(zero_prefix_score(out.bob_bits))
        assert abs(np.mean(scores) - 4) < 2  # tracks log2(M)


def per_session_scores(M, N, rng, trials):
    """The scores of `trials` sessions of one rng.integers(0, 2, size=(M, N))
    draw each, as Python floats: the per-session loop the batched scorer replaces."""
    scores = []
    for _ in range(trials):
        bits = rng.integers(0, 2, size=(M, N))
        prefix = np.where(bits.any(axis=1), np.argmax(bits != 0, axis=1), N)
        scores.append(float(prefix.max()))
    return scores


class SpyGenerator:
    """Forwards integers() to a generator and records the size of each draw."""

    def __init__(self, rng):
        self.rng, self.sizes = rng, []

    def integers(self, *args, size, **kwargs):
        self.sizes.append(math.prod(size))
        return self.rng.integers(*args, size=size, **kwargs)


class TestBestOfM:
    def exact_mean_best_of_two(self, N):
        # enumeration oracle: P(max >= k) = 1 - (1 - 2^-k)^2
        return sum(1 - (1 - 2.0**-k) ** 2 for k in range(1, N + 1))

    def test_m2_matches_enumeration(self):
        params = CoinTossParams(M=2, N=64)
        rng = np.random.default_rng(0)
        trials = 40_000
        scores = bob_best_of_M(params, rng, trials)
        exact = self.exact_mean_best_of_two(64)
        assert exact == pytest.approx(5 / 3, abs=1e-12)
        stderr = np.std(scores) / math.sqrt(trials)
        assert abs(np.mean(scores) - exact) < 4 * stderr

    def test_advantage_tracks_log_m(self):
        rng = np.random.default_rng(1)
        means = []
        for M in (4, 64, 1024):
            params = CoinTossParams(M=M, N=64)
            scores = bob_best_of_M(params, rng, 500)
            means.append(np.mean(scores))
            assert abs(means[-1] - math.log2(M)) < 2
        assert means == sorted(means)

    def test_advantage_matches_closed_form(self):
        # E[max of M zero-prefix lengths] = sum_k P(max >= k)
        #                                  = sum_k [1 - (1 - 2^-k)^M]
        # Same rng and sessions as test_advantage_tracks_log_m; the 4-sigma
        # bound was fixed before any run.
        rng = np.random.default_rng(1)
        for M in (4, 64, 1024):
            params = CoinTossParams(M=M, N=64)
            scores = bob_best_of_M(params, rng, 500)
            exact = sum(1 - (1 - 2.0**-k) ** M for k in range(1, 65))
            stderr = np.std(scores) / math.sqrt(len(scores))
            assert abs(np.mean(scores) - exact) < 4 * stderr

    @pytest.mark.parametrize("M, N", [(2, 64), (3, 1), (16, 64), (64, 8), (1024, 64)])
    def test_matches_string_scoring(self, M, N):
        # Reference: score each batch's bit string with zero_prefix_score and
        # keep the first best, replaying the same draws one session at a time.
        # The kept batch is the one _run_cointoss takes: argmax of zero_prefixes.
        rng, replay = np.random.default_rng(3), np.random.default_rng(3)
        expected = []
        for _ in range(50):
            bits = replay.integers(0, 2, size=(M, N))
            strings = ["".join(map(str, row)) for row in bits]
            chosen = max(range(M), key=lambda i: zero_prefix_score(strings[i]))
            expected.append(zero_prefix_score(strings[chosen]))
            assert int(np.argmax(zero_prefixes(bits))) == chosen
        assert bob_best_of_M(CoinTossParams(M=M, N=N), rng, 50).tolist() == expected

    def test_chosen_index_attains_best(self):
        bits = np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0], [0, 0, 1]])
        prefixes = zero_prefixes(bits)
        assert prefixes.tolist() == [0, 2, 1, 2]
        assert np.argmax(prefixes) == 1  # ties go to the lowest index
        assert zero_prefixes(np.zeros((2, 3, 5), int)).tolist() == [[5] * 3] * 2
        scores = bob_best_of_M(CoinTossParams(M=2, N=4), np.random.default_rng(0), 3)
        assert scores.dtype == np.float64 and scores.shape == (3,)

    @pytest.mark.parametrize(
        "M, N, trials",
        [(2, 64, 1000), (4, 64, 1000), (16, 64, 1000), (3, 1, 500), (2, 2**19, 3),
         (16, 8, 4097), (2, 64, 20000)],
    )
    def test_batched_advantage_is_the_per_session_loop(self, M, N, trials):
        # The advantage sweep metric over the batched scores gives the (mean,
        # stderr) of the per-session loop bit for bit, and leaves the rng where
        # the loop does.
        rng, replay = np.random.default_rng(7), np.random.default_rng(7)
        scores = per_session_scores(M, N, replay, trials)
        expected = float(np.mean(scores)), float(np.std(scores) / math.sqrt(trials))
        assert cli.SWEEP_METRICS["advantage"][1]({"M": M, "N": N}, rng, trials) == expected
        assert rng.random() == replay.random()

    @pytest.mark.parametrize("chunk", [1, 14, 15, 16, 29, 30, 31, 45, 149, 150, 151])
    def test_chunk_boundaries(self, monkeypatch, chunk):
        # M * N = 15 and 10 trials: chunks of 1, 2, 3, 9 and 10 sessions.
        monkeypatch.setattr(cointoss, "DRAW_CHUNK", chunk)
        rng, replay = np.random.default_rng(8), np.random.default_rng(8)
        scores = bob_best_of_M(CoinTossParams(M=3, N=5), rng, 10)
        assert scores.tolist() == per_session_scores(3, 5, replay, 10)
        assert rng.random() == replay.random()

    @pytest.mark.parametrize(
        "M, N, trials", [(16, 64, 1000), (2, 2**19, 3), (3, 1, 500), (1024, 64, 5), (5, 7, 3000)]
    )
    def test_draw_size_is_bounded(self, M, N, trials):
        spy = SpyGenerator(np.random.default_rng(9))
        bob_best_of_M(CoinTossParams(M=M, N=N), spy, trials)
        assert cointoss.DRAW_CHUNK <= 2**16
        assert max(spy.sizes) <= max(cointoss.DRAW_CHUNK, M * N)
        assert sum(spy.sizes) == trials * M * N

    # Above the cap the score array alone would pass 512 MB, and at 10**15 or
    # 10**400 numpy itself would raise MemoryError or ValueError.  Below 1 or not
    # an integer is a DomainError; above the cap, the size guard's TooLarge.
    @pytest.mark.parametrize(
        "trials", [0, -1, 2.5, math.nan, True, 2**26 + 1, 10**15, 10**400]
    )
    def test_trials_checked(self, trials):
        above = isinstance(trials, int) and trials > cointoss.MAX_TRIALS
        error, message = (
            (TooLarge, f"^trials {trials} exceeds the guard 67108864$")
            if above else (DomainError, "^trials must be")
        )
        with pytest.raises(error, match=message):
            bob_best_of_M(CoinTossParams(M=2, N=4), np.random.default_rng(0), trials)


def detection_prob(M, N, fraction):
    """1 - 2^-k(M-1), k = ceil(fraction * N): each of the M - 1 tested batches
    holds k tampered pairs, each of which passes the singlet test with 1/2."""
    return 1 - 2.0 ** -(math.ceil(fraction * N) * (M - 1))


class TestTamperDetected:
    @pytest.mark.parametrize(
        "M, N, fraction, seed",
        [(2, 16, 0.05, 1), (3, 16, 0.05, 2), (4, 64, 0.01, 3), (2, 8, 0.25, 4), (5, 4, 0.5, 5)],
    )
    def test_rate_matches_closed_form(self, M, N, fraction, seed):
        trials = 4_000
        detected = tamper_detected(CoinTossParams(M=M, N=N), fraction,
                                   np.random.default_rng(seed), trials)
        assert detected.shape == (trials,) and detected.dtype == bool
        p = detection_prob(M, N, fraction)
        assert abs(detected.mean() - p) < 4 * math.sqrt(p * (1 - p) / trials)

    def test_no_tamper_never_detected(self):
        detected = tamper_detected(CoinTossParams(M=4, N=8), 0.0, np.random.default_rng(6), 500)
        assert not detected.any()

    def test_full_tamper_always_detected(self):
        # Undetected only if all 15 * 8 tested pairs pass: 2^-120.
        detected = tamper_detected(CoinTossParams(M=16, N=8), 1.0, np.random.default_rng(7), 500)
        assert detected.all()

    @pytest.mark.parametrize("M, N, fraction", [(2, 3, 0.5), (4, 8, 0.125), (3, 2, 1.0)])
    def test_a_one_session_chunk_is_a_session(self, M, N, fraction):
        # One trial draws what a CoinToss session draws against a tamper(fraction)
        # Alice up to Bob's test result: the tamper, the kept batch and one
        # singlet test of every opened batch.
        params = CoinTossParams(M=M, N=N)
        alice = resolve_strategy("CoinToss", tamper(fraction, 0))
        detected, verdicts = [], []
        for seed in range(200):
            rng, replay = np.random.default_rng(seed), np.random.default_rng(seed)
            detected += tamper_detected(params, fraction, rng, 1).tolist()
            t = Transcript("CoinToss", {"M": M, "N": N}, seed)
            PROTOCOLS["CoinToss"]["driver"](params, alice, False, replay, t)
            verdicts.append(t.verdict == "CheatDetected")
            if verdicts[-1]:  # a completed session goes on to draw its bits
                assert rng.random() == replay.random()
        assert detected == verdicts
        assert 0 < sum(verdicts) < 200

    def test_chunks_are_bounded(self, monkeypatch):
        # A chunk holds DRAW_CHUNK // (4 M N) sessions (at least one), so its
        # batches hold at most DRAW_CHUNK amplitudes, or one session's 4 M N.
        sizes = []
        real = cointoss.tampered
        monkeypatch.setattr(cointoss, "tampered",
                            lambda shape, *a: sizes.append(shape) or real(shape, *a))
        tamper_detected(CoinTossParams(M=4, N=64), 0.01, np.random.default_rng(9), 200)
        assert sizes == [(16, 4, 64)] * 12 + [(8, 4, 64)]
        sizes.clear()
        tamper_detected(CoinTossParams(M=64, N=128), 0.01, np.random.default_rng(9), 3)
        assert sizes == [(1, 64, 128)] * 3

    @pytest.mark.parametrize(
        "trials", [0, 2.5, True, 2**26 + 1]
    )
    def test_trials_checked(self, trials):
        error = TooLarge if trials == 2**26 + 1 else DomainError
        with pytest.raises(error, match="^trials "):
            tamper_detected(CoinTossParams(M=2, N=4), 0.5, np.random.default_rng(0), trials)


class TestTampered:
    def test_stack_is_the_per_session_draws(self):
        # tampered((t, M, N)) gives the batches of t tampered((M, N)) calls in
        # turn: one rng.random draw, the k smallest per batch.
        rng, replay = np.random.default_rng(10), np.random.default_rng(10)
        stack = tampered((5, 3, 8), 0.25, 1, rng)
        expected = [tampered((3, 8), 0.25, 1, replay) for _ in range(5)]
        assert (stack == np.stack(expected)).all()
        assert rng.random() == replay.random()

    def test_checks_come_before_the_draw(self):
        rng, replay = np.random.default_rng(11), np.random.default_rng(11)
        with pytest.raises(DomainError, match="^fraction "):
            tampered((2, 4), 1.5, 0, rng)
        with pytest.raises(DomainError, match="^target_bit "):
            tampered((2, 4), 0.5, 2, rng)
        assert rng.random() == replay.random()
