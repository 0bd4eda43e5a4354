"""Span bookkeeping, and the runner end to end on the cheapest workload."""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import tracing

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def span(sid, name, start, end, parent=None, size=None):
    return [sid, name, start, end, parent, 1, size]


def test_self_time_subtracts_direct_children_only():
    spans = [
        span(0, "cli.main", 0.0, 10.0, size=["run", "--protocol", "codebook", "--trials", "2"]),
        span(1, "harness.run_session", 1.0, 5.0, 0),
        span(2, "codebook.random_codebook", 1.5, 3.5, 1),
        span(3, "qmath.hermitian_eigen", 3.5, 4.0, 1, size=16),
        span(4, "harness.run_session", 5.0, 9.0, 0),
        span(5, "codebook.random_codebook", 5.0, 8.0, 4),
        span(6, "qmath.hermitian_eigen", 8.0, 8.5, 4, size=17),
    ]
    m = {k: v for k, (v, _) in tracing.layer_metrics(spans, rounds=1).items()}
    assert m["cli.main.s"] == pytest.approx(10.0 - 8.0)
    assert m["harness.run_session.s"] == pytest.approx((4.0 - 2.5) + (4.0 - 3.5))
    assert m["codebook.random_codebook.calls"] == 2
    assert m["qmath.hermitian_eigen.small.calls"] == 1
    assert m["qmath.hermitian_eigen.large.calls"] == 1
    assert m["qmath.hermitian_eigen.n3_sum"] == 16**3 + 17**3
    assert m["codebook.builds_per_session"] == 1.0
    assert m["cli.run.codebook.trials_per_s"] == pytest.approx(2 / 10.0)

    halved = tracing.layer_metrics(spans + spans, rounds=2)
    assert halved["codebook.random_codebook.calls"] == (2, "count")


def test_install_wraps_and_uninstall_restores():
    names = {m for m, _, _ in tracing.WRAPPED}
    modules = {m: types.SimpleNamespace() for m in names}
    originals = {}
    for mod, attr, _ in tracing.WRAPPED:
        fn = (lambda *a, _attr=attr: _attr)
        setattr(modules[mod], attr, fn)
        originals[(mod, attr)] = fn
    del modules["cointoss"].bob_best_of_M  # a function a later version may drop

    tracer = tracing.Tracer()
    tracer.install(modules)
    assert tracer.missing == ["cointoss.bob_best_of_M"]
    assert modules["qmath"].born_sample is not originals[("qmath", "born_sample")]
    assert modules["qmath"].born_sample() == "born_sample"
    assert tracer.spans == []  # not recording: no spans
    tracer.recording = True
    modules["cli"].serialize()
    tracer.recording = False
    assert [s[1] for s in tracer.spans] == ["harness.serialize"]
    assert tracer.spans[0][6] == len("serialize")
    tracer.uninstall()
    for (mod, attr), fn in originals.items():
        if (mod, attr) != ("cointoss", "bob_best_of_M"):
            assert getattr(modules[mod], attr) is fn


def copy_checkout(tmp_path, with_src=True):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    if with_src:
        shutil.copytree(ROOT / "src", tmp_path / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def run_bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_fails_without_package_source(tmp_path):
    proc = run_bench(copy_checkout(tmp_path, with_src=False), "toss", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("trace", [0, 1])
def test_toss_reports_every_metric(tmp_path, trace):
    cwd = copy_checkout(tmp_path)
    proc = run_bench(cwd, "toss", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 5
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert (cwd / "perfbench" / "results" / f"toss-seed5-trace{trace}.json").is_file()
    assert not list((cwd / "perfbench" / "results").glob("scratch-*"))
