import json
import math

import numpy as np
import pytest

from mistrustq import harness
from mistrustq.errors import DeserializeError, ProtocolViolation, UnknownStrategy
from mistrustq.harness import (
    StrategyDescriptor,
    Transcript,
    deserialize,
    rng_stream,
    run_session,
    serialize,
)

ALICE_HONEST = StrategyDescriptor("alice", "honest")
BOB_HONEST = StrategyDescriptor("bob", "honest")

MATRIX = [
    ("BitwiseCommit", {"theta": 0.3, "n": 4}, ALICE_HONEST, BOB_HONEST),
    (
        "BitwiseCommit",
        {"theta": 0.3, "n": 2},
        StrategyDescriptor("alice", "cheat_state", {"reveal_bit": 1}),
        BOB_HONEST,
    ),
    (
        "CodebookCommit",
        {"dim": 3, "construction": "simplex"},
        ALICE_HONEST,
        BOB_HONEST,
    ),
    (
        "CodebookCommit",
        {"dim": 8, "count": 8, "epsilon": 0.7},
        StrategyDescriptor("alice", "multistring", {"r": 3}),
        BOB_HONEST,
    ),
    ("CoinToss", {"M": 3, "N": 4}, ALICE_HONEST, BOB_HONEST),
    (
        "CoinToss",
        {"M": 3, "N": 4},
        StrategyDescriptor("alice", "tamper", {"fraction": 1.0, "target_bit": 0}),
        BOB_HONEST,
    ),
    (
        "CoinToss",
        {"M": 4, "N": 8},
        ALICE_HONEST,
        StrategyDescriptor("bob", "best_of_m"),
    ),
]


class TestRngStream:
    def test_same_inputs_same_stream(self):
        a = rng_stream(7, "alice").random(10_000)
        b = rng_stream(7, "alice").random(10_000)
        assert (a == b).all()

    def test_distinct_labels_differ(self):
        assert rng_stream(7, "alice").random() != rng_stream(7, "bob").random()

    def test_label_independence_chi_square(self):
        n = 100_000
        a = rng_stream(3, "alice").random(n)
        b = rng_stream(3, "bob").random(n)
        counts, _, _ = np.histogram2d(a, b, bins=4, range=[[0, 1], [0, 1]])
        expected = n / 16
        stat = ((counts - expected) ** 2 / expected).sum()
        assert stat < 37.70  # chi-square 0.999 quantile, 15 dof

    def test_uniform_mean(self):
        draws = rng_stream(5, "u").random(1_000_000)
        sigma = np.sqrt(1 / 12 / len(draws))
        assert abs(draws.mean() - 0.5) < 3 * sigma


class TestSerialization:
    def test_round_trip(self):
        t = run_session("BitwiseCommit", {"theta": 0.3, "n": 3}, ALICE_HONEST, BOB_HONEST, 7)
        back = deserialize(serialize(t))
        assert back.protocol == t.protocol
        assert back.seed == t.seed
        assert back.verdict == t.verdict
        assert back.messages == t.messages
        assert serialize(back) == serialize(t)

    def test_corrupt_header(self):
        t = run_session("CoinToss", {"M": 2, "N": 2}, ALICE_HONEST, BOB_HONEST, 1)
        data = serialize(t)
        with pytest.raises(DeserializeError):
            deserialize(b"garbage\n" + data.split(b"\n", 1)[1])
        with pytest.raises(DeserializeError):
            deserialize(b"")

    def test_float_precision_survives(self):
        t = Transcript(protocol="CoinToss", params={"x": 0.1 + 0.2}, seed=1)
        t.verdict = "Completed"
        assert deserialize(serialize(t)).params["x"] == 0.1 + 0.2


class TestRunSession:
    def test_honest_bitwise_accepted(self):
        t = run_session("BitwiseCommit", {"theta": 0.3, "n": 4}, ALICE_HONEST, BOB_HONEST, 7)
        assert t.verdict == "Accepted"

    def test_full_tamper_nearly_always_detected(self):
        alice = StrategyDescriptor("alice", "tamper", {"fraction": 1.0, "target_bit": 0})
        detected = sum(
            run_session("CoinToss", {"M": 4, "N": 8}, alice, BOB_HONEST, seed).verdict
            == "CheatDetected"
            for seed in range(60)
        )
        assert detected == 60  # survival probability is 2^-24 per session

    def test_unknown_strategy(self):
        with pytest.raises(UnknownStrategy):
            run_session(
                "BitwiseCommit",
                {"theta": 0.3, "n": 2},
                StrategyDescriptor("alice", "nope"),
                BOB_HONEST,
                1,
            )

    def test_unknown_protocol(self):
        with pytest.raises(UnknownStrategy):
            run_session("Nope", {}, ALICE_HONEST, BOB_HONEST, 1)

    @pytest.mark.parametrize("protocol,params,alice,bob", MATRIX)
    def test_replay_determinism(self, protocol, params, alice, bob):
        a = serialize(run_session(protocol, params, alice, bob, 99))
        b = serialize(run_session(protocol, params, alice, bob, 99))
        assert a == b

    def test_header_with_unread_m_replays(self):
        # Written when `run` still recorded an unread "m": 0 in bit-wise
        # headers; the session ignores the key and the header keeps it.
        data = "\n".join([
            '{"format_version": 1, "protocol": "BitwiseCommit", "params": '
            '{"theta": 0.29999999999999999, "n": 2, "m": 0}, "seed": 6284700796347456730}',
            '{"seq": 0, "sender": "alice", "kind": "commit", "payload": {"n": 2, "states": '
            '[[[0.29552020666133955, 0], [0.95533648912560598, 0]], '
            '[[0.29552020666133955, 0], [0.95533648912560598, 0]]]}}',
            '{"seq": 1, "sender": "bob", "kind": "commit_ack", "payload": {}}',
            '{"seq": 2, "sender": "alice", "kind": "unveil", "payload": {"claimed": "11"}}',
            '{"seq": 3, "sender": "bob", "kind": "verdict", "payload": '
            '{"accepted": true, "failing_index": null}}',
            '{"verdict": "Accepted"}',
            "",
        ]).encode()
        header = json.loads(data.splitlines()[0])
        t = run_session(header["protocol"], header["params"], ALICE_HONEST, BOB_HONEST,
                        header["seed"])
        assert serialize(t) == data

    @pytest.mark.parametrize("protocol,params,alice,bob", MATRIX)
    def test_sender_alternation(self, protocol, params, alice, bob):
        t = run_session(protocol, params, alice, bob, 5)
        senders = [m.sender for m in t.messages]
        assert all(x != y for x, y in zip(senders, senders[1:]))
        assert [m.seq for m in t.messages] == list(range(len(t.messages)))

    def test_transcript_rejects_consecutive_sends(self):
        t = Transcript(protocol="CoinToss", params={}, seed=0)
        t.append("alice", "a", {})
        with pytest.raises(ProtocolViolation):
            t.append("alice", "b", {})

    def test_transcript_rejects_appends_after_verdict(self):
        t = Transcript(protocol="CoinToss", params={}, seed=0)
        t.verdict = "Completed"
        with pytest.raises(ProtocolViolation):
            t.append("alice", "a", {})


class TestStrategyIsolation:
    def run_with_probes(self, protocol, params):
        alice = harness.resolve_strategy(protocol, StrategyDescriptor("alice", "honest"))
        bob = harness.resolve_strategy(protocol, BOB_HONEST)
        rng = rng_stream(1, "session")
        t = Transcript(protocol=protocol, params=params, seed=1)
        harness._DRIVERS[protocol](params, alice, bob, rng, t)
        return alice, bob

    @pytest.mark.parametrize(
        "protocol,params",
        [
            ("BitwiseCommit", {"theta": 0.3, "n": 2}),
            ("CoinToss", {"M": 2, "N": 2}),
            ("CodebookCommit", {"dim": 3, "construction": "simplex"}),
        ],
    )
    def test_each_party_sees_only_peer_messages(self, protocol, params):
        alice, bob = self.run_with_probes(protocol, params)
        assert alice.observed and bob.observed
        assert all(sender == "bob" for sender, _, _ in alice.observed)
        assert all(sender == "alice" for sender, _, _ in bob.observed)

    @pytest.mark.parametrize(
        "protocol,params,kind,key",
        [
            ("BitwiseCommit", {"theta": 0.3, "n": 2}, "commit", "states"),
            ("CodebookCommit", {"dim": 3, "construction": "simplex"}, "commit", "state"),
            ("CoinToss", {"M": 2, "N": 2}, "prepare", "states"),
        ],
        ids=["BitwiseCommit", "CodebookCommit", "CoinToss"],
    )
    def test_quantum_payloads_are_opaque(self, protocol, params, kind, key):
        _, bob = self.run_with_probes(protocol, params)
        views = [v for _, k, v in bob.observed if k == kind]
        assert views and views[0][key] == "<quantum>"


def _complex(re, im):
    a = np.empty(np.shape(re), dtype=complex)
    a.real, a.imag = re, im
    return a


def _list_path(a):
    return harness.format_value(np.stack((a.real, a.imag), -1).tolist())


class TestAmplitudeFormat:
    # Values that a value-keyed memo or a short repr would get wrong: signed
    # zeros, subnormals, and values that need all 17 digits.
    SPECIAL = [0.0, -0.0, 5e-324, -1e-310, 0.1 + 0.2, 1 / 3, math.sqrt(0.5), -math.sqrt(0.5), 1.0]

    def special(self, shape, rows, seed):
        """A complex array whose innermost vectors repeat: drawn from `rows`
        distinct vectors built from SPECIAL."""
        rng = np.random.default_rng(seed)
        *outer, d = shape
        pool = rng.choice(self.SPECIAL, size=(2, rows, d))
        pool[:, 1] = pool[:, 0]
        pool[:, 0, 0], pool[:, 1, 0] = 0.0, -0.0  # rows 0, 1 differ in zero signs
        pick = rng.integers(rows, size=outer)
        pick.flat[:2] = [0, 1][: pick.size]
        return _complex(pool[0][pick], pool[1][pick])

    @pytest.mark.parametrize("shape", [(5,), (7, 2), (3, 5, 4), (16, 64, 4)])
    def test_matches_list_path(self, shape):
        for seed in range(5):
            a = self.special(shape, rows=4, seed=seed)
            assert harness.format_value(a) == _list_path(a)

    def test_signed_zeros_stay_apart(self):
        a = _complex([[0.0], [0.0], [-0.0], [-0.0]], [[0.0], [-0.0], [0.0], [-0.0]])
        assert harness.format_value(a) == "[[[0, 0]], [[0, -0]], [[-0, 0]], [[-0, -0]]]"

    def test_random_and_empty(self):
        rng = np.random.default_rng(3)
        for shape in [(1, 1), (4, 3, 2), (2, 0, 4), (0,)]:
            a = _complex(rng.normal(size=shape), rng.normal(size=shape))
            assert harness.format_value(a) == _list_path(a)


ROUND_TRIP = [
    (
        "BitwiseCommit",
        {"theta": 0.3, "n": 4},
        StrategyDescriptor("alice", "cheat_state"),
        BOB_HONEST,
    ),
    (
        "CodebookCommit",
        {"dim": 4, "count": 8, "epsilon": 0.9},
        StrategyDescriptor("alice", "multistring", {"r": 2}),
        BOB_HONEST,
    ),
    (
        "CoinToss",
        {"M": 4, "N": 8},
        StrategyDescriptor("alice", "tamper", {"fraction": 0.25, "target_bit": 1}),
        BOB_HONEST,
    ),
    ("CoinToss", {"M": 4, "N": 8}, ALICE_HONEST, StrategyDescriptor("bob", "best_of_m")),
]


class TestArrayPayloads:
    @pytest.mark.parametrize("protocol,params,alice,bob", ROUND_TRIP)
    def test_round_trip(self, protocol, params, alice, bob):
        for seed in (3, 4):
            t = run_session(protocol, params, alice, bob, seed)
            data = serialize(t)
            back = deserialize(data)
            assert back.messages == t.messages
            assert serialize(back) == data

    def test_payload_arrays_are_read_only(self):
        for protocol, params, alice, bob in ROUND_TRIP:
            t = run_session(protocol, params, alice, bob, 1)
            sent = t.messages[0].payload
            amps = sent["states"] if "states" in sent else sent["state"]
            with pytest.raises(ValueError):
                amps[0] = 0

    def test_sender_array_changes_after_append_do_not_reach_transcript(self):
        params = {"M": 3, "N": 4}
        expected = serialize(run_session("CoinToss", params, ALICE_HONEST, BOB_HONEST, 8))
        alice = harness.resolve_strategy("CoinToss", ALICE_HONEST)
        prepared = []
        prepare = alice.prepare
        alice.prepare = lambda p, rng: prepared.append(prepare(p, rng)) or prepared[-1]
        bob = harness.resolve_strategy("CoinToss", BOB_HONEST)
        t = Transcript(protocol="CoinToss", params=params, seed=8)
        harness._DRIVERS["CoinToss"](params, alice, bob, rng_stream(8, "session"), t)
        prepared[0][:] = 1.0
        assert serialize(t) == expected

    def test_messages_differing_in_payload_are_unequal(self):
        t = run_session("BitwiseCommit", {"theta": 0.3, "n": 2}, ALICE_HONEST, BOB_HONEST, 2)
        m = t.messages[0]
        flipped = m.payload["states"].copy()
        flipped[0, 0] = -flipped[0, 0]
        other = harness.Message(m.seq, m.sender, m.kind, {**m.payload, "states": flipped})
        assert other != m
        assert other == harness.Message(m.seq, m.sender, m.kind, dict(other.payload))
