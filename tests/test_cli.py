import contextlib
import io
import json
import math
import shlex
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mistrustq import bitwise, cli, codebook, cointoss, qmath
from mistrustq.cli import SweepSpec, main, run_sweep
from mistrustq.errors import InvalidSpec
from mistrustq.harness import StrategyDescriptor, run_session, serialize


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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
              "--alice", "multistring:r=258"], "exceeds the Jacobi guard 256"),
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
        ],
        ids=["trials-0", "unknown-param", "non-number", "fraction-2",
             "advantage-no-pairs", "detection-no-pairs", "reveal-bit-2",
             "reveal-bit-fraction", "r-above-count", "r-negative", "r-fraction",
             "dim-above-jacobi-guard", "sweep-codebook-r-0", "sweep-codebook-epsilon-nan",
             "sweep-M-fraction", "sweep-values-not-numbers", "sweep-unused-variable",
             "dim-0", "dim-negative", "sweep-M-above-pair-guard", "pairs-above-pair-guard",
             "n-above-session-guard", "dim-above-codebook-guard",
             "count-above-codebook-guard"],
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

    @pytest.mark.parametrize("variable", ["M", "N", "n", "r"])
    def test_integer_variables(self, variable):
        with pytest.raises(InvalidSpec, match="integers"):
            SweepSpec(variable=variable, values=[2, 2.5], metric="advantage", trials=1,
                      seed=1)
        spec = SweepSpec(variable=variable, values=[2.0, 4.0], metric="advantage",
                         trials=1, seed=1)
        assert spec.values == [2, 4]
        assert all(type(v) is int for v in spec.values)

    def test_spec_invariants(self):
        with pytest.raises(InvalidSpec):
            SweepSpec(variable="M", values=[2], metric="advantage", trials=0, seed=1)
        with pytest.raises(InvalidSpec):
            SweepSpec(
                variable="M", values=[2], metric="advantage", trials=1, seed=1,
                fixed={"M": 4},
            )
        with pytest.raises(InvalidSpec):
            run_sweep(
                SweepSpec(variable="x", values=[1], metric="nope", trials=1, seed=1)
            )


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
# anything is allocated.
EDGE = ("0", "-1", "nan", "inf", "-inf", "1e30", "0.5", "2.5", "1", "2", "16")
ABOVE_GUARD = {
    "--n": bitwise.MAX_SESSION_N + 1,
    "--dim": codebook.MAX_CODEBOOK_DIM + 1,
    "--count": codebook.MAX_CODEBOOK_COUNT + 1,
    "--batches": cointoss.MAX_PAIRS + 1,
    "--pairs": cointoss.MAX_PAIRS + 1,
    "--values": cointoss.MAX_PAIRS + 1,
}
LIST_FLAGS = {"bounds": ("--theta", "--n", "--r2"), "run": (), "sweep": ("--values",)}
REQUIRED = {"bounds": ("--theta",), "run": (), "sweep": ("--values",)}
OPTIONAL = {
    "bounds": ("--n", "--r", "--epsilon", "--r2"),
    "run": ("--theta", "--n", "--dim", "--count", "--epsilon", "--batches", "--pairs",
            "--trials"),
    "sweep": ("--trials", "--theta", "--n", "--r", "--epsilon", "--batches", "--pairs",
              "--tamper-fraction"),
}
STRATEGY_PARAMS = {
    "alice": (("honest", None), ("cheat_state", "reveal_bit"), ("multistring", "r"),
              ("tamper", "fraction"), ("tamper_one_batch", "batch_index")),
    "bob": (("honest", None), ("best_of_m", None)),
}
CHOICES = {
    "run": {"--protocol": tuple(cli.PROTOCOL_NAMES), "--construction": ("random", "simplex")},
    "sweep": {"--metric": tuple(cli.METRIC_PARAMS),
              "--variable": ("theta", "n", "r", "epsilon", "M", "N", "tamper_fraction")},
}


@st.composite
def edge_argv(draw):
    command = draw(st.sampled_from(sorted(OPTIONAL)))
    argv = [command]
    for flag, options in CHOICES.get(command, {}).items():
        argv += [flag, draw(st.sampled_from(options))]
    optional = draw(st.lists(st.sampled_from(OPTIONAL[command]), unique=True, max_size=4))
    for flag in REQUIRED[command] + tuple(optional):
        values = EDGE + ((str(ABOVE_GUARD[flag]),) if flag in ABOVE_GUARD else ())
        size = 2 if flag in LIST_FLAGS[command] else 1
        argv += [flag, ",".join(draw(st.lists(st.sampled_from(values), min_size=1,
                                              max_size=size)))]
    if command == "run":
        for party, strategies in STRATEGY_PARAMS.items():
            name, key = draw(st.sampled_from(strategies))
            if key is not None and draw(st.booleans()):
                name += f":{key}={draw(st.sampled_from(EDGE))}"
            argv += [f"--{party}", name]
    if command != "bounds":
        argv += ["--seed", draw(st.sampled_from(("0", "1", "-1")))]
    return argv


class TestEdgeInput:
    @given(edge_argv())
    @settings(max_examples=150, deadline=None)
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
        assert len(commands) == 4
        for argv in commands:
            argv = [str(tmp_path / "out") if a == "out/" else a for a in argv]
            assert main(argv) == 0, argv
