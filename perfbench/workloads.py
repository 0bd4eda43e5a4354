"""The benchmark's three workloads: ensemble, commit and toss.

build(pkg, seed, scratch) generates a workload's inputs from the seed and
returns its fixed list of operations.  Each Op has a call, which the runner
times, and a check, which the runner applies to the call's output outside
the timer.  pkg holds the package's modules; operations look functions up
as module attributes at call time, so a traced run sees them through its
wrappers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], None]
    deterministic: bool = False  # output must be identical in every round


# --- CLI operations ------------------------------------------------------------


@dataclass
class CliOutput:
    stdout: str
    digest: str = ""  # stdout plus every transcript written, set by the check


def _opts(argv: list) -> dict:
    return dict(zip(argv[1::2], argv[2::2]))


def cli_op(pkg, label: str, argv: list, check_rows, transcripts: Path | None = None,
           replay=None, per_transcript=None) -> Op:
    """One `mistrustq` invocation, run in-process through cli.main.

    The timed call is cli.main alone.  The check parses the JSON rows and,
    with transcripts, checks every file, reads it back with the package's
    deserializer, and re-runs a sample through harness.run_session with the
    replay descriptors, which must reproduce the file's bytes.  The files are
    removed after the check, so every round writes them anew.
    """
    argv = list(argv) + ["--format", "json"]
    if transcripts is not None:
        argv += ["--transcripts-dir", str(transcripts)]
    trials = int(_opts(argv).get("--trials", 1))

    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = pkg.cli.main(argv)
        oracles.require(code == 0, f"exit code {code}: {err.getvalue().strip()}")
        return CliOutput(out.getvalue())

    def check(output: CliOutput):
        h = hashlib.sha256(output.stdout.encode())
        try:
            check_rows(json.loads(output.stdout))
            if transcripts is not None:
                for path in sorted(transcripts.iterdir()):
                    h.update(path.name.encode() + path.read_bytes())
                _check_transcripts(pkg, transcripts, trials, replay, per_transcript)
        finally:
            output.digest = h.hexdigest()
            if transcripts is not None and transcripts.is_dir():
                for path in transcripts.iterdir():
                    path.unlink()

    return Op(label, call, check, deterministic=True)


def _check_transcripts(pkg, directory: Path, trials: int, replay, per_transcript) -> None:
    files = sorted(directory.iterdir())
    oracles.require(len(files) == trials, f"{len(files)} transcripts for {trials} trials")
    for path in files:
        data = path.read_bytes()
        doc = oracles.check_transcript_lines(data)
        t = pkg.harness.deserialize(data)
        oracles.require(t.verdict == doc["verdict"] and len(t.messages) == len(doc["messages"]),
                        f"{path.name} deserializes to a different transcript")
        if per_transcript is not None:
            per_transcript(doc)
    alice, bob = replay
    for path in files[:: max(1, len(files) // 3)][:3]:
        data = path.read_bytes()
        header = json.loads(data.split(b"\n", 1)[0])
        t = pkg.harness.run_session(header["protocol"], header["params"], alice, bob,
                                    header["seed"])
        oracles.require(pkg.harness.serialize(t) == data, f"replay of {path.name} differs")


def _descriptors(pkg, alice: str, bob: str, alice_params=None):
    D = pkg.harness.StrategyDescriptor
    return D("alice", alice, alice_params or {}), D("bob", bob, {})


def _seeds(seed: int, stream: int, k: int) -> list[int]:
    rng = np.random.default_rng([seed, stream])
    return [int(x) for x in rng.integers(0, 2**31, size=k)]


# --- ensemble -------------------------------------------------------------------

ENSEMBLE_THETAS = (0.1, 0.3, 1.0)
ENSEMBLE_N = range(1, 9)  # dimensions 2 .. 256
REPORT_CODEBOOKS = ((16, 32), (32, 64), (64, 128))  # (dim, count)
REPORT_EPSILON = 0.6


def build_ensemble(pkg, seed: int, scratch: Path) -> list[Op]:
    books = [
        pkg.codebook.random_codebook(d, count, REPORT_EPSILON, np.random.default_rng([seed, i]))
        for i, (d, count) in enumerate(REPORT_CODEBOOKS)
    ]
    ops = []
    for theta in ENSEMBLE_THETAS:
        for n in ENSEMBLE_N:
            ops.append(Op(
                f"entropy n={n} theta={theta}",
                lambda n=n, theta=theta: pkg.qmath.von_neumann_entropy(
                    pkg.bitwise.bob_ensemble(n, theta)),
                lambda s, n=n, theta=theta: oracles.check_ensemble_entropy(n, theta, s),
            ))
    for cb in books:
        V = np.array(cb.vectors)

        def check(report, V=V):
            oracles.check_codebook_overlaps(V, REPORT_EPSILON)
            oracles.check_holevo(V, report.holevo, report.dim_bound)
            oracles.require(report.committed_bits == int(math.log2(V.shape[0])),
                            f"committed_bits {report.committed_bits}")

        ops.append(Op(f"bob_info_report dim={cb.dim}",
                      lambda cb=cb: pkg.codebook.bob_info_report(cb), check))
    return ops


# --- commit ---------------------------------------------------------------------

COMMIT_CODEBOOK = (16, 32, 0.25)  # dim, count, epsilon
COMMIT_CODEBOOKS = 3  # random codebooks, one per derived seed
SIMPLEX_DIMS = range(2, 17)
TARGET_SIZES = (2, 4, 8)
RANDOM_TARGET_SETS = 16  # per random codebook and r
SIMPLEX_TARGET_SETS = 2  # per simplex codebook and r <= d + 1
BIT_CHEAT_THETAS = 48
BITWISE_RUN = dict(n=4, theta=0.3, trials=200)
CODEBOOK_RUN = dict(r=4, trials=16)


def _cheat_ops(pkg, cb, targets, epsilon, simplex_dim=None) -> list[Op]:
    V = np.array(cb.vectors)
    name = f"{cb.construction} d={cb.dim} targets={list(targets)}"

    def check_cheat(report):
        oracles.check_codebook_overlaps(V, epsilon)
        oracles.require(list(report.target_indices) == list(targets), "target set changed")
        oracles.check_multistring_cheat(V, targets, epsilon, report.total,
                                        report.success_probs, report.cheat_state.amplitudes)
        if simplex_dim is not None:
            oracles.require_close("simplex top eigenvalue", report.total,
                                  oracles.simplex_top(simplex_dim))

    return [
        Op("multistring " + name,
           lambda: pkg.codebook.optimal_multistring_cheat(cb, targets), check_cheat),
        Op("gram " + name,
           lambda: pkg.qmath.hermitian_eigen(pkg.codebook.gram_matrix(cb, targets)).eigenvalues,
           lambda w: oracles.check_gram_spectrum(V, targets, w)),
    ]


def build_commit(pkg, seed: int, scratch: Path) -> list[Op]:
    d, count, epsilon = COMMIT_CODEBOOK
    books = [pkg.codebook.random_codebook(d, count, epsilon, np.random.default_rng([seed, i]))
             for i in range(COMMIT_CODEBOOKS)]
    rng = np.random.default_rng([seed, 100])
    ops = []
    for cb in books:
        for r in TARGET_SIZES:
            for _ in range(RANDOM_TARGET_SETS):
                targets = [int(t) for t in rng.choice(cb.count, size=r, replace=False)]
                ops += _cheat_ops(pkg, cb, targets, epsilon)
    for sd in SIMPLEX_DIMS:
        cb = pkg.codebook.simplex_codebook(sd)
        for r in TARGET_SIZES:
            if r > cb.count:
                continue
            for _ in range(SIMPLEX_TARGET_SETS):
                targets = [int(t) for t in rng.choice(cb.count, size=r, replace=False)]
                ops += _cheat_ops(pkg, cb, targets, cb.epsilon, simplex_dim=sd)
    for theta in np.sort(rng.uniform(0.02, math.pi / 2, size=BIT_CHEAT_THETAS)):
        theta = float(theta)
        ops.append(Op(
            f"optimal_bit_cheat theta={theta}",
            lambda theta=theta: pkg.bitwise.optimal_bit_cheat(theta),
            lambda out, theta=theta: oracles.check_bit_cheat(
                theta, out[0].amplitudes, out[1], out[2]),
        ))

    s_bit, s_code = _seeds(seed, 101, 2)
    b = BITWISE_RUN
    ops.append(cli_op(
        pkg, "run bitwise cheat_state",
        ["run", "--protocol", "bitwise", "--theta", str(b["theta"]), "--n", str(b["n"]),
         "--alice", "cheat_state", "--seed", str(s_bit), "--trials", str(b["trials"])],
        lambda rows: oracles.check_bitwise_cheat_run(rows, b["n"], b["theta"], b["trials"]),
        transcripts=scratch / "bitwise",
        replay=_descriptors(pkg, "cheat_state", "honest"),
    ))
    c = CODEBOOK_RUN
    ops.append(cli_op(
        pkg, "run codebook multistring",
        ["run", "--protocol", "codebook", "--dim", str(d), "--count", str(count),
         "--epsilon", str(epsilon), "--alice", f"multistring:r={c['r']}",
         "--seed", str(s_code), "--trials", str(c["trials"])],
        lambda rows: oracles.check_multistring_run(rows, c["r"], epsilon, c["trials"]),
        transcripts=scratch / "codebook",
        replay=_descriptors(pkg, "multistring", "honest", {"r": c["r"]}),
    ))
    return ops


# --- toss -----------------------------------------------------------------------

TOSS_M, TOSS_N = 16, 64
HONEST_TRIALS, TAMPER_TRIALS, BEST_OF_M_TRIALS = 32, 16, 48
DETECTION = dict(values=(2, 3, 4), N=64, fraction=0.01, trials=200)  # rates 1/2, 3/4, 7/8
ADVANTAGE = dict(values=(2, 4, 16), N=64, trials=1000)


def build_toss(pkg, seed: int, scratch: Path) -> list[Op]:
    s_honest, s_tamper, s_best, s_det, s_adv = _seeds(seed, 200, 5)
    base = ["run", "--protocol", "cointoss", "--batches", str(TOSS_M), "--pairs", str(TOSS_N)]
    det, adv = DETECTION, ADVANTAGE
    return [
        cli_op(
            pkg, "run cointoss honest",
            base + ["--seed", str(s_honest), "--trials", str(HONEST_TRIALS)],
            lambda rows: oracles.check_honest_toss_run(rows, TOSS_N, HONEST_TRIALS),
            transcripts=scratch / "honest",
            replay=_descriptors(pkg, "honest", "honest"),
            per_transcript=lambda doc: oracles.check_honest_toss_bits(doc["messages"]),
        ),
        cli_op(
            pkg, "run cointoss tamper",
            base + ["--alice", "tamper", "--seed", str(s_tamper),
                    "--trials", str(TAMPER_TRIALS)],
            lambda rows: oracles.check_tamper_run(rows, TOSS_M, TOSS_N, 1.0, TAMPER_TRIALS),
        ),
        cli_op(
            pkg, "run cointoss best_of_m",
            base + ["--bob", "best_of_m", "--seed", str(s_best),
                    "--trials", str(BEST_OF_M_TRIALS)],
            lambda rows: oracles.check_best_of_m_run(rows, TOSS_M, TOSS_N, BEST_OF_M_TRIALS),
        ),
        cli_op(
            pkg, "sweep detection",
            ["sweep", "--metric", "detection", "--variable", "M",
             "--values", ",".join(map(str, det["values"])), "--pairs", str(det["N"]),
             "--tamper-fraction", str(det["fraction"]), "--seed", str(s_det),
             "--trials", str(det["trials"])],
            lambda rows: oracles.check_detection_sweep(rows, det["N"], det["fraction"],
                                                       det["trials"], det["values"]),
        ),
        cli_op(
            pkg, "sweep advantage",
            ["sweep", "--metric", "advantage", "--variable", "M",
             "--values", ",".join(map(str, adv["values"])), "--pairs", str(adv["N"]),
             "--seed", str(s_adv), "--trials", str(adv["trials"])],
            lambda rows: oracles.check_advantage_sweep(rows, adv["N"], adv["trials"],
                                                       adv["values"]),
        ),
    ]


WORKLOADS = {"ensemble": build_ensemble, "commit": build_commit, "toss": build_toss}
