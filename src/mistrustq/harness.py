"""Two-party session engine: messages, transcripts, strategies, seeded rng.

A session drives one protocol to a terminal verdict while recording every
message.  Transcripts serialize to JSON lines and replay byte-identically
for equal inputs.  Every message goes through one send path, which appends
it to the transcript and hands the peer strategy its classical view: the
transcript keeps quantum states for replay, but a strategy never sees the
amplitudes its peer sent, only "<quantum>" in their place.

Quantum payloads ("states", "state") are read-only complex arrays in memory
and nested [re, im] lists on disk; ``deserialize`` returns the lists.  Two
messages are equal iff their serialized lines are equal.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import bitwise, codebook, cointoss, qmath
from .errors import DeserializeError, DomainError, ProtocolViolation, UnknownStrategy

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
        return format(float(obj), ".17g")
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
    lines = data.decode("utf-8").splitlines()
    if len(lines) < 2:
        raise DeserializeError("transcript needs a header and a footer")
    try:
        header = json.loads(lines[0])
        footer = json.loads(lines[-1])
        if header["format_version"] != FORMAT_VERSION:
            raise DeserializeError(f"unsupported version {header['format_version']}")
        t = Transcript(
            protocol=header["protocol"], params=header["params"], seed=header["seed"]
        )
        for line in lines[1:-1]:
            doc = json.loads(line)
            t.messages.append(
                Message(
                    seq=doc["seq"],
                    sender=doc["sender"],
                    kind=doc["kind"],
                    payload=doc["payload"],
                )
            )
        t.verdict = footer["verdict"]
        return t
    except DeserializeError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise DeserializeError(f"corrupt transcript: {exc}") from exc


@dataclass(frozen=True)
class StrategyDescriptor:
    party: str  # "alice" | "bob"
    name: str
    parameters: dict = field(default_factory=dict)


class SessionStrategy:
    """Base for in-session strategies; records what the engine lets it see."""

    def __init__(self):
        self.observed: list[tuple[str, str, dict]] = []

    def observe(self, message: Message, visible_payload: dict) -> None:
        self.observed.append((message.sender, message.kind, visible_payload))


_QUANTUM_KEYS = ("states", "state")


def _classical_view(payload: dict) -> dict:
    """Strip quantum state descriptions; strategies cannot read amplitudes."""
    return {
        k: ("<quantum>" if k in _QUANTUM_KEYS else v) for k, v in payload.items()
    }


_REGISTRY: dict[tuple[str, str, str], tuple[type, inspect.Signature]] = {}


def register_strategy(protocol: str, party: str, name: str):
    def deco(cls):
        _REGISTRY[(protocol, party, name)] = cls, inspect.signature(cls)
        return cls

    return deco


def resolve_strategy(protocol: str, desc: StrategyDescriptor) -> SessionStrategy:
    key = (protocol, desc.party, desc.name)
    if key not in _REGISTRY:
        raise UnknownStrategy(f"no {desc.party} strategy {desc.name!r} for {protocol}")
    cls, signature = _REGISTRY[key]
    try:
        signature.bind(**desc.parameters)
    except TypeError as exc:
        raise UnknownStrategy(f"{desc.party} strategy {desc.name!r}: {exc}") from None
    return cls(**desc.parameters)


def _int_param(name: str, value, lo: int, hi: int | None = None) -> int:
    """A strategy's integer parameter, checked when the strategy is built."""
    if not float(value).is_integer() or value < lo or (hi is not None and value > hi):
        span = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise DomainError(f"{name} must be an integer {span}, got {value}")
    return int(value)


def _send_path(t: Transcript, alice, bob):
    """send(sender, kind, payload): append the message to t and hand the
    peer its classical view."""
    peer = {"alice": bob, "bob": alice}

    def send(sender: str, kind: str, payload: dict) -> None:
        msg = t.append(sender, kind, payload)
        peer[sender].observe(msg, _classical_view(msg.payload))

    return send


def _send_verdict(send, t: Transcript, failing_index) -> None:
    """Bob's verdict on an unveiling: accepted iff nothing failed."""
    accepted = failing_index is None
    send("bob", "verdict", {"accepted": accepted, "failing_index": failing_index})
    t.verdict = "Accepted" if accepted else "Rejected"


# --- bitwise commitment strategies -----------------------------------------


@register_strategy("BitwiseCommit", "alice", "honest")
class _HonestBitwiseAlice(SessionStrategy):
    def pick_states(self, params, rng):
        bits = "".join(str(b) for b in rng.integers(0, 2, size=params.n))
        self.bits = bits
        return bitwise.encode_string(bits, params)

    def claim(self, rng) -> str:
        return self.bits


@register_strategy("BitwiseCommit", "alice", "cheat_state")
class _CheatStateAlice(SessionStrategy):
    """Sends the optimal cheat state on every qubit, then reveals one bit
    value everywhere (a random one unless reveal_bit is given)."""

    def __init__(self, reveal_bit: int | None = None):
        super().__init__()
        if reveal_bit is not None:
            reveal_bit = _int_param("reveal_bit", reveal_bit, 0, 1)
        self.reveal_bit = reveal_bit

    def pick_states(self, params, rng):
        self.n = params.n
        cheat, _, _ = bitwise.optimal_bit_cheat(params.theta)
        return np.tile(cheat.amplitudes, (params.n, 1))

    def claim(self, rng) -> str:
        bit = self.reveal_bit if self.reveal_bit is not None else int(rng.integers(2))
        return str(bit) * self.n


def _run_bitwise(params_dict: dict, alice, bob, rng, t: Transcript) -> None:
    send = _send_path(t, alice, bob)
    params = bitwise.SecurityParams(theta=params_dict["theta"], n=params_dict["n"])
    states = alice.pick_states(params, rng)
    send("alice", "commit", {"n": params.n, "states": qmath._read_only(states)})
    send("bob", "commit_ack", {})
    claimed = alice.claim(rng)
    send("alice", "unveil", {"claimed": claimed})
    failing = bitwise.verify_unveil(states, claimed, params.theta, rng)
    _send_verdict(send, t, failing)


# --- codebook commitment strategies ----------------------------------------


@register_strategy("CodebookCommit", "alice", "honest")
class _HonestCodebookAlice(SessionStrategy):
    def pick_state(self, cb, rng):
        self.index = int(rng.integers(cb.count))
        return cb.state(self.index)

    def claim(self, rng) -> int:
        return self.index


@register_strategy("CodebookCommit", "alice", "multistring")
class _MultistringAlice(SessionStrategy):
    """Commits the optimal cheat state for r random target strings (the
    canonical one of codebook.optimal_multistring_cheat: the first target
    codeword projected onto the top eigenspace of Q, solved on the r x r
    Gram matrix when r < dim), then reveals a random member of the target
    set."""

    def __init__(self, r: int = 2):
        super().__init__()
        self.r = _int_param("r", r, 1)

    def pick_state(self, cb, rng):
        if self.r > cb.count:
            raise DomainError(f"r {self.r} exceeds the codebook count {cb.count}")
        self.targets = [int(i) for i in rng.choice(cb.count, size=self.r, replace=False)]
        report = codebook.optimal_multistring_cheat(cb, self.targets)
        return report.cheat_state.amplitudes

    def claim(self, rng) -> int:
        return int(self.targets[int(rng.integers(len(self.targets)))])


# An honest commitment receiver only observes; the drivers acknowledge and verify.
register_strategy("BitwiseCommit", "bob", "honest")(SessionStrategy)
register_strategy("CodebookCommit", "bob", "honest")(SessionStrategy)


def build_codebook(params_dict: dict, seed: int):
    """A CodebookCommit session's public codebook: the simplex, or the random
    packing seeded by params_dict["codebook_seed"], or by seed in older headers."""
    construction = params_dict.get("construction", "random")
    if construction == "simplex":
        return codebook.simplex_codebook(params_dict["dim"])
    return codebook.random_codebook(
        params_dict["dim"],
        params_dict["count"],
        params_dict["epsilon"],
        rng_stream(params_dict.get("codebook_seed", seed), "codebook"),
    )


def _run_codebook(params_dict: dict, alice, bob, rng, t: Transcript, cb=None) -> None:
    send = _send_path(t, alice, bob)
    if cb is None:
        cb = build_codebook(params_dict, t.seed)
    state = alice.pick_state(cb, rng)
    send("alice", "commit", {"state": qmath._read_only(state)})
    send("bob", "commit_ack", {})
    claimed = alice.claim(rng)
    send("alice", "unveil", {"index": claimed})
    accepted = codebook.verify_unveil(cb, state, claimed, rng)
    _send_verdict(send, t, None if accepted else claimed)


# --- coin toss strategies ---------------------------------------------------


@register_strategy("CoinToss", "alice", "honest")
class _HonestTossAlice(SessionStrategy):
    def prepare(self, params, rng) -> np.ndarray:
        return cointoss.singlet_batches(params)


@register_strategy("CoinToss", "alice", "tamper")
class _TamperTossAlice(SessionStrategy):
    """Replaces a fraction of each batch with the product state that forces
    her own bit to target_bit."""

    def __init__(self, fraction: float = 1.0, target_bit: int = 0):
        super().__init__()
        self.fraction = float(fraction)
        if not (0.0 <= self.fraction <= 1.0):
            raise DomainError("fraction must lie in [0, 1]")
        self.target_bit = _int_param("target_bit", target_bit, 0, 1)

    def prepare(self, params, rng) -> np.ndarray:
        k = math.ceil(self.fraction * params.N)
        bad = cointoss.product_pair(self.target_bit, 1 - self.target_bit)
        batches = cointoss.singlet_batches(params)
        for batch in batches:
            batch[rng.choice(params.N, size=k, replace=False)] = bad
        return batches


@register_strategy("CoinToss", "alice", "tamper_one_batch")
class _TamperOneBatchAlice(SessionStrategy):
    """Fully tampers a single batch, hoping Bob keeps it untested."""

    def __init__(self, batch_index: int = 0, target_bit: int = 0):
        super().__init__()
        self.batch_index = _int_param("batch_index", batch_index, 0)
        self.target_bit = _int_param("target_bit", target_bit, 0, 1)

    def prepare(self, params, rng) -> np.ndarray:
        if self.batch_index >= params.M:
            raise DomainError("batch_index outside [0, M)")
        batches = cointoss.singlet_batches(params)
        batches[self.batch_index] = cointoss.product_pair(
            self.target_bit, 1 - self.target_bit
        )
        return batches


@register_strategy("CoinToss", "bob", "honest")
class _HonestTossBob(SessionStrategy):
    cheating = False


@register_strategy("CoinToss", "bob", "best_of_m")
class _BestOfMTossBob(SessionStrategy):
    """Measures every batch first and keeps the highest-scoring bit string;
    skipping the tests is undetectable to Alice."""

    cheating = True


def _run_cointoss(params_dict: dict, alice, bob, rng, t: Transcript) -> None:
    send = _send_path(t, alice, bob)
    params = cointoss.CoinTossParams(M=params_dict["M"], N=params_dict["N"])
    batches = alice.prepare(params, rng)
    states = qmath._read_only(batches)
    send("alice", "prepare", {"M": params.M, "N": params.N, "states": states})

    if bob.cheating:
        outcomes = cointoss.measure_z(batches, rng)
        _, kept = cointoss.best_zero_prefix(outcomes & 1)
        measured = cointoss.bit_strings(outcomes[kept])
    else:
        measured = None
        kept = int(rng.integers(params.M))
    test = [i for i in range(params.M) if i != kept]
    send("bob", "choose", {"kept": kept, "test": test})
    send("alice", "open", {"batches": test})

    failed = None
    if not bob.cheating:
        for i in test:
            if not cointoss.singlet_test(batches[i], rng):
                failed = i
                break
    send("bob", "test_result", {"passed": failed is None, "failed_batch": failed})
    if failed is not None:
        t.verdict = "CheatDetected"
        return

    if measured is None:
        measured = cointoss.generate_bits(batches[kept], rng)
    a_bits, b_bits = measured
    send("alice", "alice_bits", {"bits": a_bits})
    send("bob", "bob_bits", {"bits": b_bits})
    t.verdict = "Completed"


_DRIVERS = {
    "BitwiseCommit": _run_bitwise,
    "CodebookCommit": _run_codebook,
    "CoinToss": _run_cointoss,
}


def run_session(
    protocol: str,
    params: dict,
    alice: StrategyDescriptor,
    bob: StrategyDescriptor,
    seed: int,
    *,
    codebook=None,
) -> Transcript:
    """Drive one protocol session to a terminal verdict.

    Deterministic: equal inputs give byte-identical serialized transcripts.
    codebook: a CodebookCommit session's public codebook, from
    build_codebook(params, seed); the session builds it when absent.
    """
    rng = rng_stream(seed, "session")
    return run_session_with_rng(protocol, params, alice, bob, seed, rng, codebook=codebook)


def run_session_with_rng(
    protocol: str,
    params: dict,
    alice: StrategyDescriptor,
    bob: StrategyDescriptor,
    seed: int,
    rng: np.random.Generator,
    *,
    codebook=None,
) -> Transcript:
    """run_session drawing from the caller's rng; seed is only recorded (and
    seeds a CodebookCommit codebook whose params carry no codebook_seed)."""
    if protocol not in _DRIVERS:
        raise UnknownStrategy(f"unknown protocol {protocol!r}")
    if alice.party != "alice" or bob.party != "bob":
        raise ProtocolViolation("descriptors must name an alice and a bob strategy")
    alice_s = resolve_strategy(protocol, alice)
    bob_s = resolve_strategy(protocol, bob)
    t = Transcript(protocol=protocol, params=params, seed=seed)
    shared = {} if codebook is None else {"cb": codebook}
    _DRIVERS[protocol](params, alice_s, bob_s, rng, t, **shared)
    return t
