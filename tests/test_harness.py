import hashlib
import inspect
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mistrustq import bitwise, cli, codebook, cointoss, harness
from mistrustq.errors import (
    DeserializeError,
    DomainError,
    ProtocolViolation,
    SimulationError,
    UnknownStrategy,
)
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
        with pytest.raises(DeserializeError):
            deserialize(b"\xff\xfe\n{}\n")
        with pytest.raises(DeserializeError):  # not a RecursionError
            deserialize(b"[" * 100_000 + b"\n{}\n")

    def test_non_finite_floats_read_back(self):
        # Written as .17g they read "nan" and "inf", which json.loads refuses.
        values = [math.nan, math.inf, -math.inf, np.float64(-math.inf), 0.1]
        text = "[NaN, Infinity, -Infinity, -Infinity, 0.10000000000000001]"
        assert harness.format_value(values) == text
        t = run_session("CoinToss", {"M": 2, "N": 2, "x": values}, ALICE_HONEST, BOB_HONEST, 1)
        back = deserialize(serialize(t)).params["x"]
        assert math.isnan(back[0]) and back[1:] == values[1:]

    def test_signed_zero_header_replays(self):
        # format_value writes -0.0 as -0, which json.loads alone reads as the int 0.
        t = run_session("CoinToss", {"M": 2, "N": 2, "x": -0.0}, ALICE_HONEST, BOB_HONEST, 1)
        data = serialize(t)
        assert b'"x": -0}' in data
        back = deserialize(data)
        assert math.copysign(1.0, back.params["x"]) == -1.0
        assert serialize(back) == data
        replayed = run_session("CoinToss", back.params, ALICE_HONEST, BOB_HONEST, 1)
        assert serialize(replayed) == data

    def test_signed_zero_amplitude_reads_back(self):
        t = Transcript(protocol="CoinToss", params={}, seed=1)
        t.append("alice", "state", {"state": np.array([complex(-0.0, 0.0), complex(1.0, -0.0)])})
        t.verdict = "Completed"
        data = serialize(t)
        assert b'"state": [[-0, 0], [1, -0]]' in data
        (re0, im0), (re1, im1) = deserialize(data).messages[0].payload["state"]
        assert [math.copysign(1.0, x) for x in (re0, im0, im1)] == [-1.0, 1.0, -1.0]
        assert (re1, type(re1), type(im0)) == (1, int, int)
        assert serialize(deserialize(data)) == data

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

    def test_swapped_descriptors_are_a_bad_argument(self):
        # A bad argument, not ProtocolViolation, which only Transcript.append raises.
        message = "^descriptors must name an alice and a bob strategy$"
        with pytest.raises(DomainError, match=message):
            run_session("CoinToss", {"M": 2, "N": 2}, BOB_HONEST, ALICE_HONEST, 1)

    def test_unknown_protocol(self):
        with pytest.raises(UnknownStrategy):
            run_session("Nope", {}, ALICE_HONEST, BOB_HONEST, 1)

    @pytest.mark.parametrize(
        "protocol,params",
        [("BitwiseCommit", {"theta": 5.0, "n": 1}), ("CoinToss", {"M": 1, "N": 1})],
    )
    def test_strategy_resolved_before_public_input(self, protocol, params):
        # A direct call builds the public input after resolving the strategies,
        # so a bad strategy name wins over a bad parameter here.
        with pytest.raises(UnknownStrategy):
            run_session(protocol, params, StrategyDescriptor("alice", "nope"), BOB_HONEST, 1)

    @pytest.mark.parametrize("protocol,params,alice,bob", MATRIX)
    def test_given_public_input_same_transcript(self, protocol, params, alice, bob):
        public = harness.PROTOCOLS[protocol]["public"](params, 99)
        given = serialize(run_session(protocol, params, alice, bob, 99, public=public))
        assert given == serialize(run_session(protocol, params, alice, bob, 99))

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

    def test_run_transcript_replays_from_its_header(self, tmp_path):
        # `run` builds the codebook once and hands it to every trial; the
        # header's codebook_seed alone must rebuild it for a later trial.
        d = tmp_path / "tr"
        argv = ["run", "--protocol", "codebook", "--alice", "multistring:r=2",
                "--seed", "8", "--trials", "3", "--transcripts-dir", str(d),
                "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 0
        data = (d / "CodebookCommit-8-2.jsonl").read_bytes()
        header = json.loads(data.splitlines()[0])
        assert "codebook_seed" in header["params"]
        alice = StrategyDescriptor("alice", "multistring", {"r": 2})
        t = run_session(header["protocol"], header["params"], alice, BOB_HONEST,
                        header["seed"])
        assert serialize(t) == data

    def test_header_without_codebook_seed_replays_as_before(self):
        # Headers written before codebook_seed existed draw the codebook from
        # the session seed; this digest pins that path on the repulsion-only
        # construction of random_codebook.
        params = {"dim": 4, "count": 8, "epsilon": 0.9, "construction": "random"}
        alice = StrategyDescriptor("alice", "multistring", {"r": 2})
        data = serialize(run_session("CodebookCommit", params, alice, BOB_HONEST, 54))
        assert hashlib.sha256(data).hexdigest() == (
            "41b6f27f25dece20afd939cff5c72b29d7b6c3b261e3e4204b4b9ab7a4b0c608"
        )

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


# Each protocol's integer header keys, on headers whose integers are all 4.
INTEGER_KEYS = [
    ("BitwiseCommit", {"theta": 0.3, "n": 4}, "n"),
    ("CoinToss", {"M": 4, "N": 4}, "M"),
    ("CoinToss", {"M": 4, "N": 4}, "N"),
    ("CodebookCommit", {"dim": 4, "count": 4, "epsilon": 0.9}, "dim"),
    ("CodebookCommit", {"dim": 4, "count": 4, "epsilon": 0.9}, "count"),
    ("CodebookCommit", {"dim": 4, "construction": "simplex"}, "dim"),
]
INTEGER_KEY_IDS = ["n", "M", "N", "dim", "count", "simplex-dim"]


class TestMalformedHeader:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 2.5, "4", None])
    @pytest.mark.parametrize("protocol,params,key", INTEGER_KEYS, ids=INTEGER_KEY_IDS)
    def test_malformed_size_is_a_domain_error(self, protocol, params, key, value):
        with pytest.raises(DomainError, match=f"^{key if key != 'dim' else 'd'} must be"):
            run_session(protocol, {**params, key: value}, ALICE_HONEST, BOB_HONEST, 1)

    @pytest.mark.parametrize("value", [True, False])
    @pytest.mark.parametrize("protocol,params,key", INTEGER_KEYS, ids=INTEGER_KEY_IDS)
    def test_bool_size_is_a_domain_error(self, protocol, params, key, value):
        # A JSON true is not the integer 1 (it replayed as a session with n = 1).
        name = key if key != "dim" else "d"
        with pytest.raises(DomainError, match=f"^{name} must be an integer .*, got {value}$"):
            run_session(protocol, {**params, key: value}, ALICE_HONEST, BOB_HONEST, 1)

    @pytest.mark.parametrize("seed", ["x", None, 2.5, math.nan, True, [1]])
    @pytest.mark.parametrize("protocol,params", [
        ("BitwiseCommit", {"theta": 0.3, "n": 4}),
        ("CoinToss", {"M": 4, "N": 4}),
        ("CodebookCommit", {"dim": 4, "count": 4, "epsilon": 0.9}),
        ("CodebookCommit", {"dim": 4, "construction": "simplex"}),
    ], ids=["bitwise", "cointoss", "codebook", "simplex"])
    def test_malformed_seed_is_a_domain_error(self, protocol, params, seed):
        with pytest.raises(DomainError, match="^seed must be an integer, got "):
            run_session(protocol, params, ALICE_HONEST, BOB_HONEST, seed)

    @pytest.mark.parametrize("codebook_seed", ["x", None, 2.5, math.nan, True])
    def test_malformed_codebook_seed_is_a_domain_error(self, codebook_seed):
        params = {"dim": 4, "count": 4, "epsilon": 0.9, "codebook_seed": codebook_seed}
        with pytest.raises(DomainError, match="^codebook_seed must be an integer, got "):
            run_session("CodebookCommit", params, ALICE_HONEST, BOB_HONEST, 1)

    def test_integral_float_seeds_replay_as_the_int(self):
        # .17g prints 9.0 as 9, so the transcripts are the same bytes.
        params = {"dim": 4, "count": 4, "epsilon": 0.9}
        sessions = [
            run_session("CodebookCommit", {**params, "codebook_seed": cb_seed},
                        ALICE_HONEST, BOB_HONEST, seed)
            for cb_seed, seed in ((9, 4), (9.0, 4.0))
        ]
        assert serialize(sessions[0]) == serialize(sessions[1])

    @pytest.mark.parametrize("protocol,params,key", INTEGER_KEYS, ids=INTEGER_KEY_IDS)
    def test_integral_float_replays_as_the_int(self, protocol, params, key):
        for seed in (1, 2):
            as_float = {**params, key: 4.0}
            assert serialize(
                run_session(protocol, as_float, ALICE_HONEST, BOB_HONEST, seed)
            ) == serialize(run_session(protocol, params, ALICE_HONEST, BOB_HONEST, seed))


    @pytest.mark.parametrize("protocol,params,key", [
        ("BitwiseCommit", {"theta": 0.3, "n": 4}, "theta"),
        ("BitwiseCommit", {"theta": 0.3, "n": 4}, "n"),
        ("CoinToss", {"M": 4, "N": 4}, "M"),
        ("CoinToss", {"M": 4, "N": 4}, "N"),
        ("CodebookCommit", {"dim": 4, "count": 4, "epsilon": 0.9}, "dim"),
        ("CodebookCommit", {"dim": 4, "count": 4, "epsilon": 0.9}, "count"),
        ("CodebookCommit", {"dim": 4, "count": 4, "epsilon": 0.9}, "epsilon"),
        ("CodebookCommit", {"dim": 4, "construction": "simplex"}, "dim"),
    ])
    def test_missing_key_is_a_domain_error(self, protocol, params, key):
        params = {k: v for k, v in params.items() if k != key}
        with pytest.raises(DomainError, match=f"^params have no key '{key}'$"):
            run_session(protocol, params, ALICE_HONEST, BOB_HONEST, 1)

    @pytest.mark.parametrize("protocol,params,key", [
        ("BitwiseCommit", {"theta": 0.3, "n": 4}, "theta"),
        ("CodebookCommit", {"dim": 4, "count": 4, "epsilon": 0.9}, "epsilon"),
    ])
    @pytest.mark.parametrize("value", ["0.3", None, 0.3j, True, [0.3], math.nan])
    def test_malformed_real_is_a_domain_error(self, protocol, params, key, value):
        with pytest.raises(DomainError, match=f"^{key} .* outside "):
            run_session(protocol, {**params, key: value}, ALICE_HONEST, BOB_HONEST, 1)

    @pytest.mark.parametrize("construction", ["other", None, [], "Simplex"])
    def test_unknown_construction_is_a_domain_error(self, construction):
        params = {"dim": 4, "count": 4, "epsilon": 0.9, "construction": construction}
        with pytest.raises(DomainError, match="^construction .* is not 'random' or 'simplex'$"):
            run_session("CodebookCommit", params, ALICE_HONEST, BOB_HONEST, 1)

    @pytest.mark.parametrize("protocol", [["BitwiseCommit"], {"CoinToss": 1}, None, 3])
    def test_protocol_name_must_be_a_known_string(self, protocol):
        with pytest.raises(UnknownStrategy, match="^unknown protocol "):
            run_session(protocol, {"M": 4, "N": 4}, ALICE_HONEST, BOB_HONEST, 1)

    @pytest.mark.parametrize("name", [["honest"], {"honest": 1}, None])
    def test_strategy_name_must_be_a_known_string(self, name):
        with pytest.raises(UnknownStrategy, match="^no alice strategy "):
            run_session("CoinToss", {"M": 4, "N": 4}, StrategyDescriptor("alice", name),
                        BOB_HONEST, 1)

    @pytest.mark.parametrize("params", [None, [("M", 4), ("N", 4)], "M=4", 4])
    def test_params_must_be_a_dict(self, params):
        with pytest.raises(DomainError, match="^params must be a dict, got "):
            run_session("CoinToss", params, ALICE_HONEST, BOB_HONEST, 1)


def json_values(*scalars):
    """Values as json.loads gives them, built from the given scalar strategies."""
    return st.recursive(
        st.one_of(st.none(), st.booleans(), st.text(max_size=4), *scalars),
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3),
                                                                      inner, max_size=3),
        max_leaves=6,
    )


# Every kind of JSON value, NaN and the infinities included.
JSON_VALUES = json_values(st.integers(), st.floats())


# Sizes are small, or refused before anything is allocated: by a size guard
# (10**400, 2**20 + 1 and 1e300 are above every guard) or by the integer rule.
# No other number is drawn for a size, so that no large session is built.
SIZES = (
    st.integers(1, 4),
    st.sampled_from([-1, 0, 10**400, 2**20 + 1, -0.0, 2.0, 2.5, 1e300, math.nan, math.inf])
    | json_values(),
)
# Each header key: values that may run a session, and values of any type.
HEADERS = {
    "BitwiseCommit": {"theta": (st.floats(0, 2), JSON_VALUES), "n": SIZES},
    "CodebookCommit": {
        "dim": SIZES,
        "count": SIZES,
        "epsilon": (st.floats(0, 2), JSON_VALUES),
        "construction": (st.sampled_from(["random", "simplex"]), JSON_VALUES),
        "codebook_seed": (st.integers(), JSON_VALUES),
    },
    "CoinToss": {"M": SIZES, "N": SIZES},
}


@st.composite
def mostly(draw, valid, other):
    """valid three times in four, other once (a one_of would favour the
    larger space of other)."""
    return draw(valid if draw(st.sampled_from([True, True, True, False])) else other)


@st.composite
def header(draw, protocol):
    """A header dict in which each of the protocol's keys, and an unread "x",
    is absent one time in five."""
    params = {}
    for key, (valid, other) in {**HEADERS[protocol], "x": (JSON_VALUES, JSON_VALUES)}.items():
        if draw(st.sampled_from([True, True, True, True, False])):
            params[key] = draw(mostly(valid, other))
    return params


SEEDS = mostly(st.integers(), JSON_VALUES)


def strategies(protocol, party):
    names = sorted(harness.PROTOCOLS[protocol][party])
    return st.sampled_from([StrategyDescriptor(party, name) for name in names])


def replays_or_raises(protocol, params, seed, alice, bob):
    """A replayed header either ends in a SimulationError or runs to a
    transcript that deserialize reads back to the same bytes, and whose
    deserialized header replays to those bytes."""
    try:
        t = run_session(protocol, params, alice, bob, seed)
    except SimulationError:
        return
    data = serialize(t)
    back = deserialize(data)
    assert (back.protocol, back.verdict, back.params.keys()) == (
        protocol, t.verdict, params.keys()
    )
    assert serialize(back) == data
    # The header alone, with the same descriptors, replays to the same bytes.
    assert serialize(run_session(back.protocol, back.params, alice, bob, back.seed)) == data


class TestHeaderProperty:
    # Each draw is a header as a transcript file could hold it, plus the session
    # seed; the strategies are drawn from the protocol's own.
    @given(header("BitwiseCommit"), SEEDS, strategies("BitwiseCommit", "alice"),
           strategies("BitwiseCommit", "bob"))
    @settings(max_examples=100, deadline=None)
    @example({}, 1, ALICE_HONEST, BOB_HONEST)
    @example({"theta": "0.3", "n": 4}, 1, ALICE_HONEST, BOB_HONEST)
    @example({"theta": 0.3, "n": 2, "x": math.nan}, 1, ALICE_HONEST, BOB_HONEST)
    def test_bitwise(self, params, seed, alice, bob):
        replays_or_raises("BitwiseCommit", params, seed, alice, bob)

    @given(header("CodebookCommit"), SEEDS, strategies("CodebookCommit", "alice"),
           strategies("CodebookCommit", "bob"))
    @settings(max_examples=100, deadline=None)
    @example({}, 1, ALICE_HONEST, BOB_HONEST)
    @example({"dim": 4, "count": 4, "epsilon": "0.9"}, 1, ALICE_HONEST, BOB_HONEST)
    @example({"dim": 4, "construction": "simplex", "x": [-math.inf]}, 1, ALICE_HONEST,
             BOB_HONEST)
    def test_codebook(self, params, seed, alice, bob):
        replays_or_raises("CodebookCommit", params, seed, alice, bob)

    @given(header("CoinToss"), SEEDS, strategies("CoinToss", "alice"),
           strategies("CoinToss", "bob"))
    @settings(max_examples=100, deadline=None)
    @example({}, 1, ALICE_HONEST, BOB_HONEST)
    @example({"M": 4}, 1, ALICE_HONEST, BOB_HONEST)
    @example({"M": 2, "N": 2, "x": {"y": math.inf}}, 1, ALICE_HONEST, BOB_HONEST)
    @example({"M": 2, "N": 2, "x": [-0.0]}, 1, ALICE_HONEST, BOB_HONEST)
    def test_cointoss(self, params, seed, alice, bob):
        replays_or_raises("CoinToss", params, seed, alice, bob)


class TestStrategyParameters:
    @pytest.mark.parametrize(
        "fn",
        [fn for table in harness.PROTOCOLS.values() for fn in table["alice"].values()],
        ids=lambda fn: fn.__name__,
    )
    def test_parameters_are_keyword_defaults(self, fn):
        # resolve_strategy reads an Alice strategy's parameters from __kwdefaults__.
        first, second, *rest = inspect.signature(fn).parameters.values()
        assert first.kind is second.kind is inspect.Parameter.POSITIONAL_ONLY
        for p in rest:
            assert p.kind is inspect.Parameter.KEYWORD_ONLY
            assert p.default is not inspect.Parameter.empty

    @pytest.mark.parametrize("parameters", [None, 5, ["fraction"], "x"])
    @pytest.mark.parametrize("party, name", [("alice", "tamper"), ("bob", "honest")])
    def test_parameters_must_be_a_dict(self, party, name, parameters):
        desc = StrategyDescriptor(party, name, parameters)
        with pytest.raises(UnknownStrategy, match="parameters must be a dict, got "):
            harness.resolve_strategy("CoinToss", desc)
        alice, bob = (desc, BOB_HONEST) if party == "alice" else (ALICE_HONEST, desc)
        with pytest.raises(UnknownStrategy):
            run_session("CoinToss", {"M": 2, "N": 2}, alice, bob, 1)

    def test_first_unknown_name_is_reported(self):
        desc = StrategyDescriptor("alice", "tamper", {"fraction": 1.0, "zz": 1, "aa": 2})
        with pytest.raises(UnknownStrategy, match="unexpected keyword argument 'zz'$"):
            harness.resolve_strategy("CoinToss", desc)


class TestStrategyInputs:
    @pytest.mark.parametrize("protocol,params,alice,bob", MATRIX)
    def test_alice_receives_only_public_inputs(self, monkeypatch, protocol, params, alice, bob):
        # Alice's function gets the session params or the public codebook and
        # the session rng, never a message or a payload.
        calls = []
        resolve = harness.resolve_strategy

        def recording(protocol, desc):
            strategy = resolve(protocol, desc)
            if desc.party != "alice":
                return strategy

            def wrapped(*args, **kwargs):
                calls.append((args, kwargs))
                return strategy(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(harness, "resolve_strategy", recording)
        run_session(protocol, params, alice, bob, 5)
        assert len(calls) == 1
        args, kwargs = calls[0]
        public = (bitwise.SecurityParams, codebook.Codebook, cointoss.CoinTossParams)
        assert len(args) == 2 and not kwargs
        assert isinstance(args[0], public)
        assert isinstance(args[1], np.random.Generator)


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

    def test_sender_array_changes_after_append_do_not_reach_transcript(self, monkeypatch):
        params = {"M": 3, "N": 4}
        expected = serialize(run_session("CoinToss", params, ALICE_HONEST, BOB_HONEST, 8))
        prepared = []
        singlet_batches = cointoss.singlet_batches
        monkeypatch.setattr(
            cointoss,
            "singlet_batches",
            lambda p: prepared.append(singlet_batches(p)) or prepared[-1],
        )
        t = run_session("CoinToss", params, ALICE_HONEST, BOB_HONEST, 8)
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
