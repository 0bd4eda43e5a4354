"""Command line: tabulate security bounds, run sessions, sweep parameters.

All randomized commands require --seed and are byte-for-byte reproducible.
CSV output uses a header row, comma separation, and 17-significant-digit
floats; JSON output goes through the same float formatting as transcripts.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import bitwise, codebook, cointoss
from .errors import InvalidSpec, SimulationError
from .harness import (
    StrategyDescriptor,
    format_value,
    rng_stream,
    run_session,
    run_session_with_rng,
    serialize,
)

PROTOCOL_NAMES = {
    "bitwise": "BitwiseCommit",
    "codebook": "CodebookCommit",
    "cointoss": "CoinToss",
}


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _write_rows(rows: list[dict], fmt: str, out: str | None) -> None:
    if fmt == "csv":
        header = list(rows[0].keys())
        lines = [",".join(header)]
        lines += [",".join(_fmt(row[k]) for k in header) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        text = format_value(rows) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _floats(text: str) -> list[float]:
    values = [float(x) for x in text.split(",") if x != ""]
    if not values:
        raise ValueError("empty list")
    return values


def _ints(text: str) -> list[int]:
    values = [int(x) for x in text.split(",") if x != ""]
    if not values:
        raise ValueError("empty list")
    return values


def _number(key: str, text: str):
    for kind in (int, float):
        with contextlib.suppress(ValueError):
            return kind(text)
    raise InvalidSpec(f"strategy parameter {key}={text!r} is not a number")


def _parse_strategy(party: str, text: str) -> StrategyDescriptor:
    name, _, paramtext = text.partition(":")
    params = {}
    if paramtext:
        for item in paramtext.split(","):
            k, _, v = item.partition("=")
            params[k] = _number(k, v)
    return StrategyDescriptor(party=party, name=name, parameters=params)


def _trial_seed(seed: int, trial: int) -> int:
    digest = hashlib.sha256(f"{seed}:{trial}".encode()).digest()
    return int.from_bytes(digest[:8], "big") % 2**63


def cmd_bounds(args) -> int:
    rows = []
    for theta in args.theta:
        row = {
            "theta": theta,
            "cheat_bound": bitwise.cheat_bound(theta),
            "h2": bitwise.bob_entropy(1, theta),
        }
        for n in args.n:
            gap, _ = bitwise.inaccessible_bits(n, theta, 0)
            row[f"gap_n{n}"] = gap
        if theta < math.pi / 2:
            row[f"min_n_for_r{args.r}"] = bitwise.min_n_for(args.r, theta)
        else:
            row[f"min_n_for_r{args.r}"] = 1
        for r2 in args.r2:
            row[f"codebook_bound_r{r2}"] = codebook.cheat_bound(r2, args.epsilon)
        rows.append(row)
    _write_rows(rows, args.format, args.out)
    return 0


def _session_params(args) -> dict:
    if args.protocol == "bitwise":
        return {"theta": args.theta, "n": args.n}
    if args.protocol == "codebook" and args.construction == "simplex":
        return {"dim": args.dim, "construction": "simplex"}
    if args.protocol == "codebook":
        return {
            "dim": args.dim,
            "count": args.count,
            "epsilon": args.epsilon,
            "construction": args.construction,
        }
    return {"M": args.batches, "N": args.pairs}


def cmd_run(args) -> int:
    if args.trials < 1:
        raise InvalidSpec("trials must be >= 1")
    protocol = PROTOCOL_NAMES[args.protocol]
    params = _session_params(args)
    alice = _parse_strategy("alice", args.alice)
    bob = _parse_strategy("bob", args.bob)
    if args.transcripts_dir:
        Path(args.transcripts_dir).mkdir(parents=True, exist_ok=True)

    verdicts: dict[str, int] = {}
    accept_by_claim = {"0": [0, 0], "1": [0, 0]}  # claim bit -> [accepted, total]
    bit_counts = [0, 0]
    advantages = []
    for trial in range(args.trials):
        t = run_session(protocol, params, alice, bob, _trial_seed(args.seed, trial))
        verdicts[t.verdict] = verdicts.get(t.verdict, 0) + 1
        for m in t.messages:
            if m.kind == "unveil" and "claimed" in m.payload:
                claim = m.payload["claimed"][0]
                accepted = t.verdict == "Accepted"
                accept_by_claim[claim][0] += int(accepted)
                accept_by_claim[claim][1] += 1
            if m.kind == "alice_bits":
                for b in m.payload["bits"]:
                    bit_counts[int(b)] += 1
            if m.kind == "bob_bits" and bob.name == "best_of_m":
                advantages.append(cointoss.zero_prefix_score(m.payload["bits"]))
        if args.transcripts_dir:
            name = f"{protocol}-{args.seed}-{trial}.jsonl"
            Path(args.transcripts_dir, name).write_bytes(serialize(t))

    rows = [{"key": f"verdict_{v}", "value": c} for v, c in sorted(verdicts.items())]
    for claim in ("0", "1"):
        acc, tot = accept_by_claim[claim]
        if tot:
            rows.append({"key": f"accept_freq_claim{claim}", "value": acc / tot})
    total_bits = sum(bit_counts)
    if total_bits:
        rows.append({"key": "bit_one_freq", "value": bit_counts[1] / total_bits})
    if advantages:
        rows.append({"key": "mean_advantage_bits", "value": float(np.mean(advantages))})
    _write_rows(rows, args.format, args.out)
    return 0


@dataclass(frozen=True)
class SweepSpec:
    variable: str
    values: list
    metric: str
    trials: int
    seed: int
    fixed: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.values:
            raise InvalidSpec("values must be nonempty")
        if self.trials < 1:
            raise InvalidSpec("trials must be >= 1")
        if self.variable in self.fixed:
            raise InvalidSpec(f"variable {self.variable!r} also appears in fixed")
        if self.variable in ("M", "N", "n", "r"):
            if not all(float(v).is_integer() for v in self.values):
                raise InvalidSpec(f"{self.variable} takes integers, got {self.values}")
            object.__setattr__(self, "values", [int(v) for v in self.values])


# The parameters each sweep metric reads; a sweep must vary one of them.
METRIC_PARAMS = {
    "cheat_bound": ("theta",),
    "bob_entropy": ("n", "theta"),
    "codebook_bound": ("r", "epsilon"),
    "advantage": ("M", "N"),
    "detection": ("M", "N", "tamper_fraction"),
}
# Sweep parameters whose flag is not --<name>.
_SWEEP_FLAGS = {"M": "--batches", "N": "--pairs", "tamper_fraction": "--tamper-fraction"}


class _SweepParams(dict):
    def __missing__(self, key):
        raise InvalidSpec(f"this sweep needs {_SWEEP_FLAGS.get(key, '--' + key)}")


def _sweep_point(spec: SweepSpec, value) -> tuple[float, float]:
    """(mean, stderr) of the metric at one sweep value."""
    p = _SweepParams(spec.fixed)
    p[spec.variable] = value
    if spec.metric == "cheat_bound":
        return bitwise.cheat_bound(p["theta"]), 0.0
    if spec.metric == "bob_entropy":
        return bitwise.bob_entropy(int(p["n"]), p["theta"]), 0.0
    if spec.metric == "codebook_bound":
        return codebook.cheat_bound(p["r"], p["epsilon"]), 0.0
    rng = rng_stream(spec.seed, f"sweep:{spec.variable}={value}")
    if spec.metric == "advantage":
        params = cointoss.CoinTossParams(M=int(p["M"]), N=int(p["N"]))
        scores = [cointoss.bob_best_of_M(params, rng)[0] for _ in range(spec.trials)]
        return float(np.mean(scores)), float(np.std(scores) / math.sqrt(len(scores)))
    if spec.metric == "detection":
        params = {"M": int(p["M"]), "N": int(p["N"])}
        alice = StrategyDescriptor(
            "alice", "tamper", {"fraction": float(p["tamper_fraction"]), "target_bit": 0}
        )
        bob = StrategyDescriptor("bob", "honest")
        hits = [
            run_session_with_rng("CoinToss", params, alice, bob, spec.seed, rng).verdict
            == "CheatDetected"
            for _ in range(spec.trials)
        ]
        mean = float(np.mean(hits))
        return mean, math.sqrt(mean * (1 - mean) / len(hits))
    raise InvalidSpec(f"unknown metric {spec.metric!r}")


def run_sweep(spec: SweepSpec) -> list[dict]:
    """One row per value; InvalidSpec for a variable the metric does not
    read, whose rows would all be the same."""
    reads = METRIC_PARAMS.get(spec.metric)
    if reads is not None and spec.variable not in reads:
        raise InvalidSpec(
            f"metric {spec.metric} does not read {spec.variable!r}; "
            f"it reads {', '.join(reads)}"
        )
    rows = []
    for value in spec.values:
        mean, stderr = _sweep_point(spec, value)
        rows.append(
            {
                spec.variable: value,
                "trials": spec.trials,
                "mean": mean,
                "stderr": stderr,
            }
        )
    return rows


def cmd_sweep(args) -> int:
    fixed = {}
    for key, val in (
        ("theta", args.theta),
        ("n", args.n),
        ("r", args.r),
        ("epsilon", args.epsilon),
        ("M", args.batches),
        ("N", args.pairs),
        ("tamper_fraction", args.tamper_fraction),
    ):
        if val is not None:
            fixed[key] = val
    try:
        values = _floats(args.values)
    except ValueError:
        raise InvalidSpec(f"--values {args.values!r} is not a number list") from None
    fixed.pop(args.variable, None)
    spec = SweepSpec(
        variable=args.variable,
        values=values,
        metric=args.metric,
        trials=args.trials,
        seed=args.seed,
        fixed=fixed,
    )
    _write_rows(run_sweep(spec), args.format, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mistrustq",
        description="Simulate mistrustful two-party quantum protocols and "
        "verify their security bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bounds", help="tabulate closed-form security bounds")
    b.add_argument("--theta", type=_floats, required=True, help="comma list of angles")
    b.add_argument("--n", type=_ints, default=[1], help="comma list of string lengths")
    b.add_argument("--r", type=int, default=1)
    b.add_argument("--epsilon", type=float, default=0.25)
    b.add_argument("--r2", type=_ints, default=[2], help="comma list of target-set sizes")
    b.add_argument("--format", choices=("csv", "json"), default="csv")
    b.add_argument("--out")
    b.set_defaults(func=cmd_bounds)

    r = sub.add_parser("run", help="run protocol sessions and summarize")
    r.add_argument("--protocol", choices=tuple(PROTOCOL_NAMES), required=True)
    r.add_argument("--theta", type=float, default=0.3)
    r.add_argument("--n", type=int, default=1)
    r.add_argument("--dim", type=int, default=4)
    r.add_argument("--count", type=int, default=8)
    r.add_argument("--epsilon", type=float, default=0.9)
    r.add_argument("--construction", choices=("random", "simplex"), default="random")
    r.add_argument("--batches", type=int, default=4, help="M")
    r.add_argument("--pairs", type=int, default=8, help="N")
    r.add_argument("--alice", default="honest")
    r.add_argument("--bob", default="honest")
    r.add_argument("--seed", type=int, required=True)
    r.add_argument("--trials", type=int, default=1)
    r.add_argument("--format", choices=("csv", "json"), default="csv")
    r.add_argument("--out")
    r.add_argument("--transcripts-dir")
    r.set_defaults(func=cmd_run)

    s = sub.add_parser("sweep", help="sweep one parameter and aggregate a metric")
    s.add_argument("--metric", required=True, choices=tuple(METRIC_PARAMS))
    s.add_argument("--variable", required=True)
    s.add_argument("--values", required=True, help="comma list")
    s.add_argument("--trials", type=int, default=1)
    s.add_argument("--theta", type=float)
    s.add_argument("--n", type=int)
    s.add_argument("--r", type=int)
    s.add_argument("--epsilon", type=float)
    s.add_argument("--batches", type=int, dest="batches", help="M")
    s.add_argument("--pairs", type=int, dest="pairs", help="N")
    s.add_argument("--tamper-fraction", type=float, dest="tamper_fraction")
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--format", choices=("csv", "json"), default="csv")
    s.add_argument("--out")
    s.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SimulationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
