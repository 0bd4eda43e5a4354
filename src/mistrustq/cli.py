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
from pathlib import Path

import numpy as np

from . import bitwise, codebook, cointoss
from .errors import DomainError, SimulationError, check_int
from .harness import (
    PROTOCOLS,
    StrategyDescriptor,
    format_value,
    resolve_strategy,
    rng_stream,
    run_session,
    serialize,
)

PROTOCOL_NAMES = {
    "bitwise": "BitwiseCommit",
    "codebook": "CodebookCommit",
    "cointoss": "CoinToss",
}


def _write_rows(rows: list[dict], fmt: str, out: str | None) -> None:
    if fmt == "csv":
        header = list(rows[0].keys())
        lines = [",".join(header)]
        cell = lambda x: format(x, ".17g") if isinstance(x, float) else str(x)
        lines += [",".join(cell(row[k]) for k in header) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        text = format_value(rows) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _comma_list(kind):
    """A parser of nonempty comma lists of kind, for argparse's type=."""
    def parse(text: str) -> list:
        values = [kind(x) for x in text.split(",") if x != ""]
        if not values:
            raise ValueError("empty list")
        return values
    parse.__name__ = f"{kind.__name__} list"  # argparse's "invalid float list value"
    return parse


def _number(key: str, text: str):
    for kind in (int, float):
        with contextlib.suppress(ValueError):
            return kind(text)
    raise DomainError(f"strategy parameter {key}={text!r} is not a number")


def _parse_strategy(party: str, text: str) -> StrategyDescriptor:
    name, _, paramtext = text.partition(":")
    params = {}
    if paramtext:
        for item in paramtext.split(","):
            k, _, v = item.partition("=")
            if k in params:
                raise DomainError(f"strategy parameter {k} given twice")
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
        row[f"min_n_for_r{args.r}"] = bitwise.min_n_for(args.r, theta)
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
            "codebook_seed": _trial_seed(args.seed, -1),
        }
    return {"M": args.batches, "N": args.pairs}


def cmd_run(args) -> int:
    """Verdict counts, then the protocol's tally rows as ratios of sums, by key."""
    check_int("trials", args.trials, 1, guard=cointoss.MAX_TRIALS)
    protocol = PROTOCOL_NAMES[args.protocol]
    params = _session_params(args)
    alice = _parse_strategy("alice", args.alice)
    bob = _parse_strategy("bob", args.bob)
    if args.transcripts_dir:
        Path(args.transcripts_dir).mkdir(parents=True, exist_ok=True)
    # The public input is checked, and a codebook built, once for every trial.
    public = PROTOCOLS[protocol]["public"](params, args.seed)
    cheating = resolve_strategy(protocol, bob)

    verdicts: dict[str, int] = {}
    sums: dict[str, tuple] = {}  # row key -> (numerator, denominator)
    for trial in range(args.trials):
        seed = _trial_seed(args.seed, trial)
        t = run_session(protocol, params, alice, bob, seed, public=public)
        verdicts[t.verdict] = verdicts.get(t.verdict, 0) + 1
        for key, n, d in PROTOCOLS[protocol]["tally"](t, cheating):
            n0, d0 = sums.get(key, (0, 0))
            sums[key] = (n0 + n, d0 + d)
        if args.transcripts_dir:
            name = f"{protocol}-{args.seed}-{trial}.jsonl"
            Path(args.transcripts_dir, name).write_bytes(serialize(t))

    rows = [{"key": f"verdict_{v}", "value": c} for v, c in sorted(verdicts.items())]
    rows += [{"key": k, "value": num / den} for k, (num, den) in sorted(sums.items())]
    _write_rows(rows, args.format, args.out)
    return 0


def _mean_stderr(scores: np.ndarray) -> tuple[float, float]:
    """A Monte Carlo row: the mean of per-trial scores and its standard error."""
    return float(np.mean(scores)), float(np.std(scores) / math.sqrt(len(scores)))


# Each sweep parameter: its flag and its type.  A sweep over an int parameter
# (M, N, n, r) takes integer values only.
SWEEP_FLAGS = {
    "theta": ("--theta", float),
    "n": ("--n", int),
    "r": ("--r", int),
    "epsilon": ("--epsilon", float),
    "M": ("--batches", int),
    "N": ("--pairs", int),
    "tamper_fraction": ("--tamper-fraction", float),
}
# Each sweep metric: the parameters it reads, all required, and
# (params, rng, trials) -> (mean, stderr) at one sweep value.
SWEEP_METRICS = {
    "cheat_bound": (("theta",), lambda p, *_: (bitwise.cheat_bound(p["theta"]), 0.0)),
    "bob_entropy": (
        ("n", "theta"),
        lambda p, *_: (bitwise.bob_entropy(p["n"], p["theta"]), 0.0),
    ),
    "codebook_bound": (
        ("r", "epsilon"),
        lambda p, *_: (codebook.cheat_bound(p["r"], p["epsilon"]), 0.0),
    ),
    "advantage": (("M", "N"), lambda p, rng, trials: _mean_stderr(
        cointoss.bob_best_of_M(cointoss.CoinTossParams(p["M"], p["N"]), rng, trials))),
    "detection": (("M", "N", "tamper_fraction"), lambda p, rng, trials: _mean_stderr(
        cointoss.tamper_detected(cointoss.CoinTossParams(p["M"], p["N"]),
                                 p["tamper_fraction"], rng, trials))),
}


def cmd_sweep(args) -> int:
    """One row per value; DomainError for a variable the metric does not
    read, whose rows would all be the same."""
    variable = args.variable
    reads, compute = SWEEP_METRICS[args.metric]
    try:
        values = _comma_list(float)(args.values)
    except ValueError:
        raise DomainError(f"--values {args.values!r} is not a number list") from None
    check_int("trials", args.trials, 1, guard=cointoss.MAX_TRIALS)
    if variable in SWEEP_FLAGS and SWEEP_FLAGS[variable][1] is int:
        if not all(v.is_integer() for v in values):
            raise DomainError(f"{variable} takes integers, got {values}")
        values = [int(v) for v in values]
    if variable not in reads:
        raise DomainError(
            f"metric {args.metric} does not read {variable!r}; it reads {', '.join(reads)}"
        )
    p = {key: getattr(args, key) for key in reads}
    for key in reads:
        if key != variable and p[key] is None:
            raise DomainError(f"this sweep needs {SWEEP_FLAGS[key][0]}")
    rows = []
    for value in values:
        p[variable] = value
        rng = rng_stream(args.seed, f"sweep:{variable}={value}")
        mean, stderr = compute(p, rng, args.trials)
        rows.append({variable: value, "trials": args.trials, "mean": mean, "stderr": stderr})
    _write_rows(rows, args.format, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mistrustq",
        description="Simulate mistrustful two-party quantum protocols and "
        "verify their security bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bounds", help="tabulate closed-form security bounds")
    floats, ints = _comma_list(float), _comma_list(int)
    b.add_argument("--theta", type=floats, required=True, help="comma list of angles")
    b.add_argument("--n", type=ints, default=[1], help="comma list of string lengths")
    b.add_argument("--r", type=int, default=1)
    b.add_argument("--epsilon", type=float, default=0.25)
    b.add_argument("--r2", type=ints, default=[2], help="comma list of target-set sizes")
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
    s.add_argument("--metric", required=True, choices=tuple(SWEEP_METRICS))
    s.add_argument("--variable", required=True)
    s.add_argument("--values", required=True, help="comma list")
    s.add_argument("--trials", type=int, default=1)
    for key, (flag, kind) in SWEEP_FLAGS.items():
        s.add_argument(flag, type=kind, dest=key)
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
