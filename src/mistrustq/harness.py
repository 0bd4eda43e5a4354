"""Two-party session engine: messages, transcripts, strategies, seeded rng.

A session drives one protocol to a terminal verdict while recording every
message.  Transcripts serialize to JSON lines and replay byte-identically
for equal inputs.  A strategy is a plain function of public inputs: Alice's
takes the session's public input (its checked params or its codebook) and the
session rng and returns what she sends and later claims; Bob's is a flag that
says whether he cheats.  No strategy is ever handed a message, so none sees the
amplitudes its peer sent; the transcript alone keeps them, for replay.

Quantum payloads ("states", "state") are read-only complex arrays in memory
and nested [re, im] lists on disk; ``deserialize`` returns the lists.  Two
messages are equal iff their serialized lines are equal.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import bitwise, codebook, cointoss, qmath
from .errors import (
    DeserializeError, DomainError, ProtocolViolation, UnknownStrategy, check_int
)

FORMAT_VERSION = 1


def rng_stream(seed: int, label: str) -> np.random.Generator:
    """Deterministic, platform-stable stream derived from (seed, label)."""
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    words = [int.from_bytes(digest[i : i + 4], "big") for i in range(0, 16, 4)]
    ss = np.random.SeedSequence([seed % 2**63, *words])
    return np.random.Generator(np.random.PCG64(ss))


def format_value(obj) -> str:
    """JSON with floats at 17 significant digits (lossless for float64); an
    ndarray as ``format_value(np.stack((a.real, a.imag), -1).tolist())``."""
    if isinstance(obj, np.ndarray):
        return _format_amplitudes(obj)
    if isinstance(obj, dict):
        inner = ", ".join(
            f"{json.dumps(str(k))}: {format_value(v)}" for k, v in obj.items()
        )
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(format_value(v) for v in obj) + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        # json.dumps spells NaN and the infinities as json.loads reads them.
        x = float(obj)
        return format(x, ".17g") if math.isfinite(x) else json.dumps(x)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)}")


def _format_amplitudes(a: np.ndarray) -> str:
    """Format each distinct innermost vector once, keyed by its bit pattern
    (so -0.0 stays apart from 0.0), then join the strings outward by shape."""
    pairs = np.stack((a.real, a.imag), -1)
    if a.ndim <= 1 or a.size == 0:
        return format_value(pairs.tolist())
    rows = pairs.reshape(-1, 2 * a.shape[-1])
    keys = rows.view(np.dtype((np.void, rows[0].nbytes))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    distinct = [format_value(v) for v in pairs.reshape(-1, a.shape[-1], 2)[first].tolist()]
    out = [distinct[k] for k in inverse.tolist()]
    for n in reversed(a.shape[:-1]):
        out = ["[" + ", ".join(out[i : i + n]) + "]" for i in range(0, len(out), n)]
    return out[0]


@dataclass(frozen=True, eq=False)
class Message:
    seq: int
    sender: str  # "alice" | "bob"
    kind: str
    payload: dict

    def __eq__(self, other):
        if not isinstance(other, Message):
            return NotImplemented
        return _message_line(self) == _message_line(other)


def _message_line(m: Message) -> str:
    return format_value(
        {"seq": m.seq, "sender": m.sender, "kind": m.kind, "payload": m.payload}
    )


@dataclass
class Transcript:
    protocol: str
    params: dict
    seed: int
    messages: list[Message] = field(default_factory=list)
    verdict: str | None = None

    def append(self, sender: str, kind: str, payload: dict) -> Message:
        if self.verdict is not None:
            raise ProtocolViolation("transcript already terminal")
        if sender not in ("alice", "bob"):
            raise ProtocolViolation(f"unknown sender {sender}")
        if self.messages and self.messages[-1].sender == sender:
            raise ProtocolViolation(f"{sender} sent two consecutive messages")
        msg = Message(seq=len(self.messages), sender=sender, kind=kind, payload=payload)
        self.messages.append(msg)
        return msg


def serialize(t: Transcript) -> bytes:
    """JSON lines: header, one line per message, verdict footer."""
    lines = [
        format_value(
            {
                "format_version": FORMAT_VERSION,
                "protocol": t.protocol,
                "params": t.params,
                "seed": t.seed,
            }
        )
    ]
    lines += [_message_line(m) for m in t.messages]
    lines.append(format_value({"verdict": t.verdict}))
    return ("\n".join(lines) + "\n").encode("utf-8")


def deserialize(data: bytes) -> Transcript:
    # format_value writes the float -0.0 as -0 and never writes an int that way.
    loads = functools.partial(json.loads, parse_int=lambda s: -0.0 if s == "-0" else int(s))
    try:
        lines = data.decode("utf-8").splitlines()
        if len(lines) < 2:
            raise DeserializeError("transcript needs a header and a footer")
        header = loads(lines[0])
        footer = loads(lines[-1])
        if header["format_version"] != FORMAT_VERSION:
            raise DeserializeError(f"unsupported version {header['format_version']}")
        t = Transcript(
            protocol=header["protocol"], params=header["params"], seed=header["seed"]
        )
        for line in lines[1:-1]:
            doc = loads(line)
            t.messages.append(Message(doc["seq"], doc["sender"], doc["kind"], doc["payload"]))
        t.verdict = footer["verdict"]
        return t
    except DeserializeError:
        raise
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise DeserializeError(f"corrupt transcript: {exc}") from exc


@dataclass(frozen=True)
class StrategyDescriptor:
    party: str  # "alice" | "bob"
    name: str
    parameters: dict = field(default_factory=dict)


def _send_verdict(t: Transcript, failing_index) -> None:
    """Bob's verdict on an unveiling: accepted iff nothing failed."""
    accepted = failing_index is None
    t.append("bob", "verdict", {"accepted": accepted, "failing_index": failing_index})
    t.verdict = "Accepted" if accepted else "Rejected"


# --- bitwise commitment: (params, rng) -> (states, claim) -------------------


def _honest_bitwise(params, rng, /):
    bits = (rng.integers(0, 2, size=params.n).astype(np.uint8) + ord("0")).tobytes().decode()
    return bitwise.encode_string(bits, params), bits


def _cheat_state(params, rng, /, *, reveal_bit=None):
    """Sends the optimal cheat state on every qubit, then reveals one bit
    value everywhere (a random one unless reveal_bit is given)."""
    if reveal_bit is None:
        bit = int(rng.integers(2))
    else:
        bit = check_int("reveal_bit", reveal_bit, 0, 1)
    cheat, _, _ = bitwise.optimal_bit_cheat(params.theta)
    return np.tile(cheat.amplitudes, (params.n, 1)), str(bit) * params.n


def _run_bitwise(params, alice, cheating: bool, rng, t: Transcript) -> None:
    states, claimed = alice(params, rng)
    t.append("alice", "commit", {"n": params.n, "states": qmath._read_only(states)})
    t.append("bob", "commit_ack", {})
    t.append("alice", "unveil", {"claimed": claimed})
    failing = bitwise.verify_unveil(states, claimed, params.theta, rng)
    _send_verdict(t, failing)


def _tally_bitwise(t: Transcript, cheating: bool) -> list:
    """Acceptance per first claimed bit; the unveiling is message 2."""
    claim = t.messages[2].payload["claimed"][0]
    return [(f"accept_freq_claim{claim}", int(t.verdict == "Accepted"), 1)]


# --- codebook commitment: (cb, rng) -> (state, index) -----------------------


def _honest_codebook(cb, rng, /):
    index = int(rng.integers(cb.count))
    return cb.state(index), index


def _multistring(cb, rng, /, *, r=2):
    """Commits codebook.optimal_multistring_cheat's state for r random
    target strings, then reveals a random member of the target set."""
    r = check_int("r", r, 1)
    if r > cb.count:
        raise DomainError(f"r {r} exceeds the codebook count {cb.count}")
    targets = [int(i) for i in rng.choice(cb.count, size=r, replace=False)]
    report = codebook.optimal_multistring_cheat(cb, targets)
    return report.cheat_state.amplitudes, targets[int(rng.integers(r))]


def build_codebook(params_dict: dict, seed: int):
    """A CodebookCommit session's public codebook: the simplex, or the random
    packing seeded by params_dict["codebook_seed"], or by seed in older headers."""
    construction = params_dict.get("construction", "random")
    if construction == "simplex":
        return codebook.simplex_codebook(params_dict["dim"])
    if construction != "random":
        raise DomainError(f"construction {construction!r} is not 'random' or 'simplex'")
    seed = check_int("codebook_seed", params_dict.get("codebook_seed", seed))
    dim, count, epsilon = params_dict["dim"], params_dict["count"], params_dict["epsilon"]
    return codebook.random_codebook(dim, count, epsilon, rng_stream(seed, "codebook"))


def _run_codebook(cb, alice, cheating: bool, rng, t: Transcript) -> None:
    state, claimed = alice(cb, rng)
    t.append("alice", "commit", {"state": qmath._read_only(state)})
    t.append("bob", "commit_ack", {})
    t.append("alice", "unveil", {"index": claimed})
    accepted = codebook.verify_unveil(cb, state, claimed, rng)
    _send_verdict(t, None if accepted else claimed)


# --- coin toss: (params, rng) -> batches -------------------------------------


def _honest_toss(params, rng, /) -> np.ndarray:
    return cointoss.singlet_batches(params)


def _tamper(params, rng, /, *, fraction=1.0, target_bit=0) -> np.ndarray:
    """Forces her own bit to target_bit in k = ceil(fraction * N) pairs per batch."""
    return cointoss.tampered((params.M, params.N), fraction, target_bit, rng)


def _tamper_one_batch(params, rng, /, *, batch_index=0, target_bit=0) -> np.ndarray:
    """Fully tampers a single batch, hoping Bob keeps it untested."""
    batch_index = check_int("batch_index", batch_index, 0, params.M - 1)
    target_bit = check_int("target_bit", target_bit, 0, 1)
    batches = cointoss.singlet_batches(params)
    batches[batch_index] = cointoss.product_pair(target_bit, 1 - target_bit)
    return batches


def _run_cointoss(params, alice, cheating: bool, rng, t: Transcript) -> None:
    """A cheating Bob (best_of_m) measures every batch first and keeps the
    highest-scoring bit string; skipping the tests is undetectable to Alice."""
    batches = alice(params, rng)
    states = qmath._read_only(batches)
    t.append("alice", "prepare", {"M": params.M, "N": params.N, "states": states})

    if cheating:
        outcomes = cointoss.measure_z(batches, rng)
        kept = int(np.argmax(cointoss.zero_prefixes(outcomes & 1)))
        measured = cointoss.bit_strings(outcomes[kept])
    else:
        measured, kept = None, int(rng.integers(params.M))
    test = [i for i in range(params.M) if i != kept]
    t.append("bob", "choose", {"kept": kept, "test": test})
    t.append("alice", "open", {"batches": test})

    # A cheating Bob tests nothing; an honest one measures every opened batch at once.
    passed = cheating or cointoss.singlet_test(batches[test], rng)
    failed = None if np.all(passed) else test[int(np.argmin(passed))]
    t.append("bob", "test_result", {"passed": failed is None, "failed_batch": failed})
    if failed is not None:
        t.verdict = "CheatDetected"
        return

    if measured is None:
        measured = cointoss.generate_bits(batches[kept], rng)
    a_bits, b_bits = measured
    t.append("alice", "alice_bits", {"bits": a_bits})
    t.append("bob", "bob_bits", {"bits": b_bits})
    t.verdict = "Completed"


def _tally_cointoss(t: Transcript, cheating: bool) -> list:
    """Ones in Alice's bits, and a cheating Bob's leading zeros, once completed."""
    if t.verdict != "Completed":
        return []
    a_bits, b_bits = (m.payload["bits"] for m in t.messages[-2:])
    rows = [("bit_one_freq", a_bits.count("1"), len(a_bits))]
    if cheating:
        rows.append(("mean_advantage_bits", cointoss.zero_prefix_score(b_bits), 1))
    return rows


# Each protocol's public input from (params, seed), its driver, Alice's strategy
# functions, Bob's as a `cheating` flag (an honest commitment receiver only
# acknowledges), and its tally: (transcript, cheating) -> [(key, num, den)].
PROTOCOLS = {
    "BitwiseCommit": {
        "public": lambda p, seed: bitwise.SecurityParams(theta=p["theta"], n=p["n"]),
        "driver": _run_bitwise,
        "alice": {"honest": _honest_bitwise, "cheat_state": _cheat_state},
        "bob": {"honest": False},
        "tally": _tally_bitwise,
    },
    "CodebookCommit": {
        "public": build_codebook,
        "driver": _run_codebook,
        "alice": {"honest": _honest_codebook, "multistring": _multistring},
        "bob": {"honest": False},
        "tally": lambda t, cheating: [],
    },
    "CoinToss": {
        "public": lambda p, seed: cointoss.CoinTossParams(M=p["M"], N=p["N"]),
        "driver": _run_cointoss,
        "alice": {
            "honest": _honest_toss,
            "tamper": _tamper,
            "tamper_one_batch": _tamper_one_batch,
        },
        "bob": {"honest": False, "best_of_m": True},
        "tally": _tally_cointoss,
    },
}


def resolve_strategy(protocol: str, desc: StrategyDescriptor):
    """Alice's strategy function with desc.parameters bound, or Bob's
    `cheating` flag; UnknownStrategy for an unknown name or parameter."""
    if not isinstance(desc.parameters, dict):
        raise UnknownStrategy(f"strategy parameters must be a dict, got {desc.parameters!r}")
    strategies = PROTOCOLS.get(protocol, {}).get(desc.party, {})
    if desc.name not in tuple(strategies):
        raise UnknownStrategy(f"no {desc.party} strategy {desc.name!r} for {protocol}")
    strategy = strategies[desc.name]
    if desc.party == "bob":
        if desc.parameters:
            raise UnknownStrategy(f"bob strategy {desc.name!r} takes no parameters")
        return strategy
    # An Alice strategy's parameters are its keyword-only arguments, all defaulted.
    for key in desc.parameters:
        if key not in (strategy.__kwdefaults__ or {}):
            msg = f"got an unexpected keyword argument {key!r}"
            raise UnknownStrategy(f"alice strategy {desc.name!r}: {msg}")
    return functools.partial(strategy, **desc.parameters)


def run_session(
    protocol: str,
    params: dict,
    alice: StrategyDescriptor,
    bob: StrategyDescriptor,
    seed: int,
    *,
    public=None,
) -> Transcript:
    """Drive one protocol session to a terminal verdict.

    Deterministic: equal inputs give byte-identical serialized transcripts.
    Every draw comes from the session stream of seed, which no other session
    shares.
    public: the session's public input, PROTOCOLS[protocol]["public"](params,
    seed); the session builds it, after resolving the strategies, when absent.
    """
    if protocol not in tuple(PROTOCOLS):  # a tuple, unlike a dict, takes a list or dict
        raise UnknownStrategy(f"unknown protocol {protocol!r}")
    if not isinstance(params, dict):
        raise DomainError(f"params must be a dict, got {params!r}")
    if alice.party != "alice" or bob.party != "bob":
        raise DomainError("descriptors must name an alice and a bob strategy")
    seed = check_int("seed", seed)
    alice_fn = resolve_strategy(protocol, alice)
    cheating = resolve_strategy(protocol, bob)
    entry = PROTOCOLS[protocol]
    try:
        public = entry["public"](params, seed) if public is None else public
    except KeyError as exc:
        raise DomainError(f"params have no key {exc}") from None
    t = Transcript(protocol=protocol, params=params, seed=seed)
    entry["driver"](public, alice_fn, cheating, rng_stream(seed, "session"), t)
    return t
