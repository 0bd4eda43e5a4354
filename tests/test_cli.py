import contextlib
import io
import itertools
import json
import math
import shlex
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mistrustq import bitwise, cli, codebook, cointoss, qmath
from mistrustq.cli import main
from mistrustq.harness import StrategyDescriptor, run_session, serialize


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def record_builds(monkeypatch) -> list:
    """Wrap codebook.random_codebook so the test sees every codebook it builds."""
    built, build = [], codebook.random_codebook

    def recording(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(codebook, "random_codebook", recording)
    return built


class TestBounds:
    def test_right_angle_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--theta", str(math.pi / 2), "--n", "4", "--r2", "1,3"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2  # header + one row per grid point
        header = lines[0].split(",")
        row = dict(zip(header, lines[1].split(",")))
        assert float(row["cheat_bound"]) == pytest.approx(2)
        assert float(row["h2"]) == pytest.approx(0, abs=1e-12)
        assert float(row["gap_n4"]) == pytest.approx(4)
        assert float(row["codebook_bound_r1"]) == 1.0
        # Each qubit's gap is 1 at a right angle, so 2 qubits exceed r = 1.
        assert row["min_n_for_r1"] == "2"

    def test_row_count_matches_grid(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--theta", "0.1,0.3,0.6")
        assert code == 0
        assert len(out.strip().splitlines()) == 4

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--theta", "0.3", "--format", "json")
        rows = json.loads(out)
        assert rows[0]["cheat_bound"] == pytest.approx(1 + math.sin(0.3))

    def test_bad_theta_is_runtime_error(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--theta", "-1.0")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--r2", "0"], "r must"),
            (["--r2", "2,-1"], "r must"),
            (["--epsilon", "nan", "--format", "json"], "epsilon"),
            (["--epsilon", "0"], "epsilon"),
            (["--epsilon", "1.5"], "epsilon"),
        ],
        ids=["r2-0", "r2-negative", "epsilon-nan", "epsilon-0", "epsilon-above-1"],
    )
    def test_bad_codebook_bound_input_runtime_error(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "bounds", "--theta", "0.3", *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("flag", ["--theta", "--n", "--r2"])
    @pytest.mark.parametrize("text", ["", ","])
    def test_empty_list_usage_error(self, capsys, flag, text):
        argv = ["bounds", "--theta", "0.3", flag, text]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {flag}: invalid" in capsys.readouterr().err


class TestRun:
    def test_cointoss_honest_all_complete(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "run", "--protocol", "cointoss", "--batches", "4", "--pairs", "8",
            "--seed", "3", "--trials", "100",
        )
        assert code == 0
        assert "verdict_Completed,100" in out

    def test_bitwise_cheat_state_frequencies(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "run", "--protocol", "bitwise", "--theta", "0.3", "--n", "1",
            "--alice", "cheat_state", "--seed", "4", "--trials", "20000",
            "--format", "json",
        )
        assert code == 0
        rows = {r["key"]: r["value"] for r in json.loads(out)}
        total = rows["accept_freq_claim0"] + rows["accept_freq_claim1"]
        bound = 1 + math.sin(0.3)
        sigma = 2 * math.sqrt(0.25 / 10_000)
        assert abs(total - bound) < 3 * sigma

    def test_multistring_acceptance_matches_exact_mean(self, capsys, monkeypatch):
        # Against the run's one codebook a trial accepts with probability
        # lambda_max(Q_T) / r for a uniform target set T, so the acceptance
        # frequency estimates the mean of that over all C(count, r) sets.
        built = record_builds(monkeypatch)
        trials, r = 500, 2
        code, out, _ = run_cli(
            capsys,
            "run", "--protocol", "codebook", "--alice", f"multistring:r={r}",
            "--seed", "5", "--trials", str(trials), "--format", "json",
        )
        assert code == 0
        [cb] = built
        V = cb.vectors
        expected = np.mean([
            np.linalg.eigvalsh(V[list(T)].T @ V[list(T)].conj())[-1] / r
            for T in itertools.combinations(range(cb.count), r)
        ])
        rows = {row["key"]: row["value"] for row in json.loads(out)}
        freq = rows.get("verdict_Accepted", 0) / trials
        sigma = math.sqrt(expected * (1 - expected) / trials)
        assert abs(freq - expected) < 4 * sigma

    def test_unknown_protocol_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--protocol", "nope", "--seed", "1"])
        assert exc.value.code == 2

    def test_missing_seed_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--protocol", "cointoss"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--protocol", "bitwise", "--theta", ""],
            ["run", "--protocol", "bitwise", "--n", ""],
            ["run", "--protocol", "bitwise", "--n", "2,4"],
            ["run", "--protocol", "bitwise", "--theta", "0.1,0.3"],
            ["sweep", "--metric", "bob_entropy", "--variable", "theta", "--values", "0.3",
             "--n", "2,4"],
            ["sweep", "--metric", "bob_entropy", "--variable", "n", "--values", "2",
             "--theta", ""],
        ],
        ids=["run-empty-theta", "run-empty-n", "run-n-list", "run-theta-list",
             "sweep-n-list", "sweep-empty-theta"],
    )
    def test_scalar_flag_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", "1"])
        assert exc.value.code == 2
        assert "invalid" in capsys.readouterr().err

    def test_unknown_strategy_runtime_error(self, capsys):
        code, _, err = run_cli(
            capsys,
            "run", "--protocol", "cointoss", "--alice", "nope", "--seed", "1",
        )
        assert code == 1
        assert "strategy" in err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--protocol", "bitwise", "--theta", "5", "--alice", "nope"],
             "error: theta 5.0 outside (0, pi/2]\n"),
            (["--protocol", "cointoss", "--batches", "1", "--bob", "nope"],
             "error: M must be >= 2\n"),
        ],
        ids=["bitwise", "cointoss"],
    )
    def test_bad_parameter_wins_over_bad_strategy(self, capsys, argv, message):
        # `run` checks its public input once, before the first session
        # resolves the strategies, as it always did for the codebook.
        code, out, err = run_cli(capsys, "run", *argv, "--seed", "1")
        assert code == 1
        assert out == "" and err == message

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["run", "--protocol", "bitwise", "--trials", "0"], "trials"),
            (["run", "--protocol", "bitwise", "--alice", "cheat_state:foo=1"], "foo"),
            (["run", "--protocol", "cointoss", "--alice", "tamper:fraction=abc"],
             "not a number"),
            (["run", "--protocol", "cointoss", "--alice", "tamper:fraction=2"], "fraction"),
            (["sweep", "--metric", "advantage", "--variable", "M", "--values", "2,4"],
             "--pairs"),
            (["sweep", "--metric", "detection", "--variable", "M", "--values", "2",
              "--tamper-fraction", "0.5"], "--pairs"),
            (["run", "--protocol", "bitwise", "--alice", "cheat_state:reveal_bit=2"],
             "reveal_bit"),
            (["run", "--protocol", "bitwise", "--alice", "cheat_state:reveal_bit=0.5"],
             "reveal_bit"),
            (["run", "--protocol", "codebook", "--dim", "4", "--construction", "simplex",
              "--alice", "multistring:r=9"], "codebook count"),
            (["run", "--protocol", "codebook", "--dim", "4", "--alice", "multistring:r=-1"],
             "r must"),
            (["run", "--protocol", "codebook", "--dim", "4", "--alice", "multistring:r=2.5"],
             "r must"),
            (["run", "--protocol", "codebook", "--dim", "257", "--construction", "simplex",
              "--alice", "multistring:r=258"], "dim 257 exceeds the guard 256"),
            (["sweep", "--metric", "codebook_bound", "--variable", "r", "--values", "0,2",
              "--epsilon", "0.25"], "r must"),
            (["sweep", "--metric", "codebook_bound", "--variable", "epsilon",
              "--values", "0.5,nan", "--r", "2"], "epsilon"),
            (["sweep", "--metric", "advantage", "--variable", "M", "--values", "2.5",
              "--pairs", "4"], "M takes integers"),
            (["sweep", "--metric", "cheat_bound", "--variable", "theta", "--values", "abc"],
             "--values"),
            (["sweep", "--metric", "cheat_bound", "--variable", "foo", "--values", "1,2",
              "--theta", "0.3"], "does not read 'foo'"),
            (["run", "--protocol", "codebook", "--dim", "0"], "d must be >= 1"),
            (["run", "--protocol", "codebook", "--dim", "-1"], "d must be >= 1"),
            (["sweep", "--metric", "advantage", "--variable", "M", "--values", "1e30",
              "--pairs", "2"], "exceeds the guard 1048576"),
            (["run", "--protocol", "cointoss", "--batches", "2", "--pairs", "1048577"],
             "exceeds the guard 1048576"),
            (["run", "--protocol", "bitwise", "--n", "1000001"],
             "n 1000001 exceeds the guard 1000000"),
            (["run", "--protocol", "codebook", "--dim", "257"], "d 257 exceeds the guard 256"),
            (["run", "--protocol", "codebook", "--count", "257"],
             "count 257 exceeds the guard 256"),
            (["run", "--protocol", "cointoss", "--bob", "best_of_m:x=1"], "takes no parameters"),
            (["run", "--protocol", "bitwise", "--alice", "honest:rng=1"],
             "unexpected keyword argument 'rng'"),
            (["run", "--protocol", "codebook", "--construction", "simplex", "--dim", "1025"],
             "d 1025 exceeds the guard 1024"),
            (["run", "--protocol", "cointoss", "--alice", "tamper:fraction=1,fraction=0"],
             "error: strategy parameter fraction given twice\n"),
        ],
        ids=["trials-0", "unknown-param", "non-number", "fraction-2",
             "advantage-no-pairs", "detection-no-pairs", "reveal-bit-2",
             "reveal-bit-fraction", "r-above-count", "r-negative", "r-fraction",
             "dim-above-jacobi-guard", "sweep-codebook-r-0", "sweep-codebook-epsilon-nan",
             "sweep-M-fraction", "sweep-values-not-numbers", "sweep-unused-variable",
             "dim-0", "dim-negative", "sweep-M-above-pair-guard", "pairs-above-pair-guard",
             "n-above-session-guard", "dim-above-codebook-guard",
             "count-above-codebook-guard", "bob-parameter", "alice-positional-name",
             "simplex-dim-above-guard", "parameter-given-twice"],
    )
    def test_bad_input_runtime_error(self, capsys, argv, message):
        code, _, err = run_cli(capsys, *argv, "--seed", "1")
        assert code == 1
        assert err.startswith("error: ") and message in err

    def test_multistring_solves_gram_above_jacobi_guard(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "run", "--protocol", "codebook", "--dim", "257", "--construction", "simplex",
            "--alice", "multistring:r=2", "--seed", "1",
        )
        assert code == 0
        assert out.startswith("key,value\nverdict_")

    def test_multistring_stdout_independent_of_solver(self, capsys, monkeypatch):
        argv = ["run", "--protocol", "codebook", "--dim", "3", "--construction", "simplex",
                "--alice", "multistring:r=3", "--seed", "55", "--trials", "200"]
        _, jacobi, _ = run_cli(capsys, *argv)

        def eigh(H):
            w, V = np.linalg.eigh(H.entries)
            return qmath.Eigen(w[::-1], V[:, ::-1])

        monkeypatch.setattr(qmath, "hermitian_eigen", eigh)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out == jacobi

    def test_simplex_header_records_what_the_session_reads(self, capsys, tmp_path):
        d = tmp_path / "tr"
        code, _, _ = run_cli(
            capsys,
            "run", "--protocol", "codebook", "--dim", "8", "--construction", "simplex",
            "--seed", "36", "--trials", "3", "--transcripts-dir", str(d),
        )
        assert code == 0
        honest = (StrategyDescriptor("alice", "honest"), StrategyDescriptor("bob", "honest"))
        for path in sorted(d.iterdir()):
            data = path.read_bytes()
            header = json.loads(data.splitlines()[0])
            assert header["params"] == {"dim": 8, "construction": "simplex"}
            t = run_session(header["protocol"], header["params"], *honest, header["seed"])
            assert serialize(t) == data

    def test_transcript_files(self, capsys, tmp_path):
        d = tmp_path / "tr"
        code, _, _ = run_cli(
            capsys,
            "run", "--protocol", "cointoss", "--seed", "9", "--trials", "3",
            "--transcripts-dir", str(d),
        )
        assert code == 0
        names = sorted(p.name for p in d.iterdir())
        assert names == [f"CoinToss-9-{i}.jsonl" for i in range(3)]


def read_transcript(path: Path) -> tuple[str, list[dict]]:
    """A transcript file's verdict and messages, read as plain JSON lines."""
    docs = [json.loads(line) for line in path.read_bytes().splitlines()]
    return docs[-1]["verdict"], docs[1:-1]


def leading_zeros(bits: str) -> int:
    return len(bits) - len(bits.lstrip("0"))


class TestRowsFromTranscripts:
    """Every `run` row, recomputed from the run's transcript files alone."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["--protocol", "bitwise", "--n", "3"],
            ["--protocol", "bitwise", "--n", "2", "--alice", "cheat_state"],
            ["--protocol", "codebook", "--alice", "multistring:r=2"],
            ["--protocol", "cointoss"],
            ["--protocol", "cointoss", "--alice", "tamper:fraction=0.25"],
            ["--protocol", "cointoss", "--batches", "8", "--bob", "best_of_m"],
        ],
        ids=["bitwise-honest", "bitwise-cheat-state", "codebook-multistring",
             "cointoss-honest", "cointoss-tamper", "cointoss-best-of-m"],
    )
    def test_rows_mean_what_they_say(self, capsys, tmp_path, argv):
        code, out, _ = run_cli(capsys, "run", *argv, "--seed", "17", "--trials", "40",
                               "--format", "json", "--transcripts-dir", str(tmp_path))
        assert code == 0
        verdicts, accepted, claims = {}, {}, {}
        ones = bits = zeros = completed = 0
        for path in sorted(tmp_path.iterdir()):
            verdict, messages = read_transcript(path)
            verdicts[verdict] = verdicts.get(verdict, 0) + 1
            for m in messages:
                if m["kind"] == "unveil" and "claimed" in m["payload"]:
                    claim = m["payload"]["claimed"][0]
                    claims[claim] = claims.get(claim, 0) + 1
                    accepted[claim] = accepted.get(claim, 0) + (verdict == "Accepted")
                if m["kind"] == "alice_bits":
                    ones += m["payload"]["bits"].count("1")
                    bits += len(m["payload"]["bits"])
                if m["kind"] == "bob_bits":
                    zeros += leading_zeros(m["payload"]["bits"])
                    completed += 1
        assert sum(verdicts.values()) == 40
        expected = [{"key": f"verdict_{v}", "value": c} for v, c in sorted(verdicts.items())]
        expected += [{"key": f"accept_freq_claim{b}", "value": accepted[b] / claims[b]}
                     for b in sorted(claims)]
        if bits:
            expected.append({"key": "bit_one_freq", "value": ones / bits})
        if "best_of_m" in argv:
            expected.append({"key": "mean_advantage_bits", "value": zeros / completed})
        assert json.loads(out) == expected


class TestOneCodebookPerRun:
    def headers(self, capsys, tmp_path, *argv) -> list[dict]:
        d = tmp_path / "tr"
        code, _, _ = run_cli(capsys, "run", "--protocol", "codebook", *argv,
                             "--transcripts-dir", str(d))
        assert code == 0
        return [json.loads(p.read_bytes().splitlines()[0]) for p in sorted(d.iterdir())]

    def test_one_build_per_run(self, capsys, tmp_path, monkeypatch):
        built = record_builds(monkeypatch)
        headers = self.headers(capsys, tmp_path, "--seed", "3", "--trials", "16")
        assert len(built) == 1
        assert len(headers) == 16
        assert len({h["params"]["codebook_seed"] for h in headers}) == 1
        assert len({h["seed"] for h in headers}) == 16

    def test_codebook_seed_follows_run_seed(self, capsys, tmp_path):
        a = self.headers(capsys, tmp_path / "a", "--seed", "3")
        b = self.headers(capsys, tmp_path / "b", "--seed", "4")
        assert a[0]["params"]["codebook_seed"] != b[0]["params"]["codebook_seed"]


class TestSweep:
    def test_cheat_bound_closed_form(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep", "--metric", "cheat_bound", "--variable", "theta",
            "--values", "0.1,0.3,0.6", "--seed", "1",
        )
        assert code == 0
        lines = out.strip().splitlines()[1:]
        for line in lines:
            theta, _, mean, stderr = line.split(",")
            assert float(mean) == 1 + math.sin(float(theta))
            assert float(stderr) == 0.0

    def test_advantage_tracks_log_m(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep", "--metric", "advantage", "--variable", "M",
            "--values", "2,8,64,256", "--pairs", "64",
            "--trials", "300", "--seed", "5",
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        means = [float(r[2]) for r in rows]
        assert means == sorted(means)
        for r in rows:
            assert abs(float(r[2]) - math.log2(int(r[0]))) < 2

    def test_empty_values_invalid(self, capsys):
        code, _, err = run_cli(
            capsys,
            "sweep", "--metric", "cheat_bound", "--variable", "theta",
            "--values", "", "--seed", "1",
        )
        assert code == 1
        assert "values" in err

    @pytest.mark.parametrize(
        "metric,variable,fixed",
        [
            ("advantage", "M", ["--pairs", "2"]),
            ("advantage", "N", ["--batches", "2"]),
            ("bob_entropy", "n", ["--theta", "0.3"]),
            ("codebook_bound", "r", ["--epsilon", "0.25"]),
        ],
        ids=["M", "N", "n", "r"],
    )
    def test_integer_variables(self, capsys, metric, variable, fixed):
        argv = ["sweep", "--metric", metric, "--variable", variable, *fixed, "--seed", "1"]
        code, out, err = run_cli(capsys, *argv, "--values", "2,2.5")
        assert code == 1
        assert out == "" and "integers" in err
        code, out, _ = run_cli(capsys, *argv, "--values", "2.0,4.0")
        assert code == 0
        assert [line.split(",")[0] for line in out.splitlines()] == [variable, "2", "4"]

    def test_spec_invariants(self, capsys):
        code, out, err = run_cli(
            capsys,
            "sweep", "--metric", "advantage", "--variable", "M", "--values", "2",
            "--pairs", "2", "--trials", "0", "--seed", "1",
        )
        assert code == 1
        assert out == "" and err == "error: trials must be >= 1\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--protocol", "bitwise"],
            ["run", "--protocol", "cointoss", "--alice", "tamper"],
            ["sweep", "--metric", "detection", "--variable", "M", "--values", "2",
             "--pairs", "1", "--tamper-fraction", "0.5"],
            ["sweep", "--metric", "advantage", "--variable", "M", "--values", "2",
             "--pairs", "1"],
            ["sweep", "--metric", "cheat_bound", "--variable", "theta", "--values", "0.3"],
        ],
        ids=["run-bitwise", "run-tamper", "sweep-detection", "sweep-advantage",
             "sweep-cheat-bound"],
    )
    @pytest.mark.parametrize("trials", [cointoss.MAX_TRIALS + 1, 10**400], ids=["above", "huge"])
    def test_trials_ceiling(self, capsys, argv, trials):
        # Without it, a run or a detection sweep of 10**400 trials never ended.
        code, out, err = run_cli(capsys, *argv, "--trials", str(trials), "--seed", "1")
        assert code == 1
        assert out == "" and err == f"error: trials {trials} exceeds the guard 67108864\n"

    def test_trials_at_the_ceiling(self, capsys):
        # A closed-form metric only records its trials, so the ceiling itself runs.
        code, out, _ = run_cli(capsys, "sweep", "--metric", "cheat_bound", "--variable",
                               "theta", "--values", "0.3", "--trials", "67108864", "--seed", "1")
        assert code == 0
        assert out.splitlines()[1].split(",")[1] == "67108864"


class TestDeterminism:
    COMMANDS = [
        ["bounds", "--theta", "0.1,0.3", "--n", "2,4", "--r2", "2,4"],
        ["run", "--protocol", "bitwise", "--theta", "0.3", "--n", "2",
         "--seed", "11", "--trials", "50"],
        ["run", "--protocol", "codebook", "--dim", "3",
         "--construction", "simplex", "--seed", "12", "--trials", "20"],
        ["run", "--protocol", "cointoss", "--seed", "13", "--trials", "20",
         "--format", "json"],
        ["sweep", "--metric", "advantage", "--variable", "M", "--values", "2,4",
         "--pairs", "16", "--trials", "50", "--seed", "14"],
    ]

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: a[0] + "-" + a[-1])
    def test_byte_identical_reruns(self, argv, tmp_path):
        outs = []
        for run in range(2):
            out = tmp_path / f"out{run}.txt"
            assert main(argv + ["--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        assert outs[0]

    def test_transcripts_byte_identical(self, tmp_path):
        dirs = []
        for run in range(2):
            d = tmp_path / f"tr{run}"
            argv = ["run", "--protocol", "cointoss", "--seed", "21", "--trials", "5",
                    "--transcripts-dir", str(d), "--out", str(tmp_path / f"s{run}")]
            assert main(argv) == 0
            dirs.append(d)
        for p in sorted(dirs[0].iterdir()):
            q = dirs[1] / p.name
            assert p.read_bytes() == q.read_bytes()


# Edge values for every numeric flag; sizes that pass stay at 16 or below, and
# the only larger ones are one above a size guard, which rejects them before
# anything is allocated, or the large-N values below, which only closed forms
# and guards read.  HUGE is above the float range: float(HUGE) overflows.
# --trials above cointoss.MAX_TRIALS, HUGE included, is refused before any trial.
EDGE = ("0", "-1", "nan", "inf", "-inf", "1e30", "0.5", "2.5", "1", "2", "16")
HUGE = str(10**400)
ABOVE_GUARD = {
    "--n": (bitwise.MAX_SESSION_N + 1,),
    "--dim": (codebook.MAX_CODEBOOK_DIM + 1, codebook.MAX_SIMPLEX_DIM + 1),
    "--count": (codebook.MAX_CODEBOOK_COUNT + 1,),
    "--batches": (cointoss.MAX_PAIRS + 1,),
    "--pairs": (cointoss.MAX_PAIRS + 1,),
    "--values": (cointoss.MAX_PAIRS + 1,),
    "--trials": (cointoss.MAX_TRIALS + 1,),
}
# The large-N regime: angles whose per-qubit gap is tiny, subnormal or 0, an r
# far above 2**53, and sizes above the float range.  Only these flags draw them.
LARGE_N = {
    "--theta": ("1e-8", "1e-300", "5e-324"),
    "--n": (HUGE,),
    "--r": (10**18, HUGE),
    "--r2": (HUGE,),
    "--trials": (HUGE,),
}
LIST_FLAGS = {"bounds": ("--theta", "--n", "--r2"), "run": (), "sweep": ("--values",)}
REQUIRED = {"bounds": ("--theta",), "run": (), "sweep": ("--values",)}
OPTIONAL = {
    "bounds": ("--n", "--r", "--epsilon", "--r2"),
    "run": ("--theta", "--n", "--dim", "--count", "--epsilon", "--batches", "--pairs",
            "--trials"),
    "sweep": ("--trials",) + tuple(flag for flag, _ in cli.SWEEP_FLAGS.values()),
}
STRATEGY_PARAMS = {
    "alice": (("honest", None), ("cheat_state", "reveal_bit"), ("multistring", "r"),
              ("tamper", "fraction"), ("tamper_one_batch", "batch_index"),
              ("honest", "rng"), ("cheat_state", "params"), ("multistring", "cb")),
    "bob": (("honest", None), ("best_of_m", None), ("best_of_m", "x")),
}
STRATEGY_VALUES = EDGE + (HUGE,)
CHOICES = {
    "run": {"--protocol": tuple(cli.PROTOCOL_NAMES), "--construction": ("random", "simplex")},
    "sweep": {"--metric": tuple(cli.SWEEP_METRICS), "--variable": tuple(cli.SWEEP_FLAGS)},
}


@st.composite
def edge_argv(draw):
    command = draw(st.sampled_from(sorted(OPTIONAL)))
    argv = [command]
    for flag, options in CHOICES.get(command, {}).items():
        argv += [flag, draw(st.sampled_from(options))]
    optional = draw(st.lists(st.sampled_from(OPTIONAL[command]), unique=True, max_size=4))
    for flag in REQUIRED[command] + tuple(optional):
        values = EDGE + tuple(str(v) for v in ABOVE_GUARD.get(flag, ()) + LARGE_N.get(flag, ()))
        size = 2 if flag in LIST_FLAGS[command] else 1
        argv += [flag, ",".join(draw(st.lists(st.sampled_from(values), min_size=1,
                                              max_size=size)))]
    if command == "run":
        for party, strategies in STRATEGY_PARAMS.items():
            name, key = draw(st.sampled_from(strategies))
            if key is not None and draw(st.booleans()):
                name += f":{key}={draw(st.sampled_from(STRATEGY_VALUES))}"
            argv += [f"--{party}", name]
    if command != "bounds":
        argv += ["--seed", draw(st.sampled_from(("0", "1", "-1")))]
    return argv


class TestEdgeInput:
    @given(edge_argv())
    @settings(max_examples=150, deadline=None)
    # float(HUGE) overflows; each of these must still end in `error:`.
    @example(["bounds", "--theta", "0.3", "--n", HUGE])
    @example(["bounds", "--theta", "0.3", "--r2", HUGE])
    @example(["sweep", "--metric", "codebook_bound", "--variable", "epsilon",
              "--values", "0.3", "--r", HUGE, "--seed", "1"])
    @example(["sweep", "--metric", "bob_entropy", "--variable", "theta",
              "--values", "0.3", "--n", HUGE, "--seed", "1"])
    @example(["run", "--protocol", "bitwise", "--alice", f"cheat_state:reveal_bit={HUGE}",
              "--seed", "1"])
    @example(["run", "--protocol", "codebook", "--alice", f"multistring:r={HUGE}",
              "--seed", "1"])
    @example(["run", "--protocol", "cointoss",
              "--alice", f"tamper_one_batch:batch_index={HUGE}", "--seed", "1"])
    @example(["run", "--protocol", "cointoss", "--alice", f"tamper:target_bit={HUGE}",
              "--seed", "1"])
    @example(["run", "--protocol", "cointoss", "--alice", f"tamper:fraction={HUGE}",
              "--seed", "1"])
    # Every run and sweep refuses a huge --trials before the first trial.
    @example(["sweep", "--metric", "advantage", "--variable", "M", "--values", "2",
              "--pairs", "1", "--trials", HUGE, "--seed", "1"])
    @example(["sweep", "--metric", "detection", "--variable", "M", "--values", "2",
              "--pairs", "1", "--tamper-fraction", "0.5", "--trials", HUGE, "--seed", "1"])
    @example(["run", "--protocol", "cointoss", "--trials", HUGE, "--seed", "1"])
    @example(["sweep", "--metric", "advantage", "--variable", "M", "--values", "2",
              "--pairs", "1", "--trials", str(10**15), "--seed", "1"])
    def test_exit_code_and_message(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in err.getvalue()
        if code == 1:
            assert err.getvalue().startswith("error:"), argv


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_cli_commands() -> list[list[str]]:
    """The `mistrustq ...` commands of README's CLI block, as argv lists."""
    block = README.read_text().split("## CLI", 1)[1].split("```sh\n", 1)[1]
    lines = block.split("```", 1)[0].replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("mistrustq ")]


class TestReadme:
    def test_cli_commands_exit_0(self, tmp_path, capsys):
        commands = readme_cli_commands()
        assert len(commands) == 5
        for argv in commands:
            argv = [str(tmp_path / "out") if a == "out/" else a for a in argv]
            assert main(argv) == 0, argv
