"""Spans around the package's public functions, recorded from outside it.

Tracer.install replaces module attributes with thin wrappers; nothing under
src/ changes and an untraced run never calls install.  Spans are kept in
memory and written out once, when the run ends.  The per-layer metrics are
computed from the spans: counts and self times (a span's duration minus the
durations of its direct children; spans nest strictly because the workloads
run in one thread).
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

SMALL_EIGEN_DIM = 16  # hermitian_eigen calls at n <= 16 count as small

# (module, attribute, span name).  cli imports run_session and serialize by
# name, so those names are wrapped in cli as well.
WRAPPED = (
    ("qmath", "hermitian_eigen", "qmath.hermitian_eigen"),
    ("qmath", "von_neumann_entropy", "qmath.von_neumann_entropy"),
    ("qmath", "born_sample", "qmath.born_sample"),
    ("bitwise", "bob_ensemble", "bitwise.bob_ensemble"),
    ("bitwise", "optimal_bit_cheat", "bitwise.optimal_bit_cheat"),
    ("bitwise", "verify_unveil", "bitwise.verify_unveil"),
    ("codebook", "random_codebook", "codebook.random_codebook"),
    ("codebook", "optimal_multistring_cheat", "codebook.optimal_multistring_cheat"),
    ("codebook", "bob_info_report", "codebook.bob_info_report"),
    ("cointoss", "prepare_batches", "cointoss.prepare_batches"),
    ("cointoss", "singlet_test", "cointoss.singlet_test"),
    ("cointoss", "generate_bits", "cointoss.generate_bits"),
    ("cointoss", "run_coin_toss", "cointoss.run_coin_toss"),
    ("cointoss", "bob_best_of_M", "cointoss.bob_best_of_M"),
    ("harness", "run_session", "harness.run_session"),
    ("harness", "serialize", "harness.serialize"),
    ("cli", "run_session", "harness.run_session"),
    ("cli", "serialize", "harness.serialize"),
    ("cli", "main", "cli.main"),
)

CALLS = (
    "qmath.born_sample",
    "bitwise.optimal_bit_cheat",
    "bitwise.verify_unveil",
    "codebook.random_codebook",
    "codebook.optimal_multistring_cheat",
    "cointoss.prepare_batches",
    "cointoss.singlet_test",
    "cointoss.generate_bits",
    "cointoss.run_coin_toss",
    "cointoss.bob_best_of_M",
    "harness.run_session",
    "harness.serialize",
    "cli.main",
)
SELF_TIMES = CALLS + (
    "qmath.von_neumann_entropy",
    "bitwise.bob_ensemble",
    "codebook.bob_info_report",
)
CLI_RATES = ("cli.run.bitwise", "cli.run.codebook", "cli.run.cointoss", "cli.sweep")


def _size_of(name: str, args):
    """What a span keeps about its call's arguments, where the metrics need it."""
    if name == "qmath.hermitian_eigen":
        return args[0].dim
    if name == "cli.main":
        return list(args[0])
    return None


class Tracer:
    """Records spans (id, name, start, end, parent, run id, size) in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.recording = False
        self.run_id = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.missing: list[str] = []

    def _wrap(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            sid = len(spans)
            span = [sid, name, 0.0, 0.0, stack[-1] if stack else None, self.run_id,
                    _size_of(name, args)]
            spans.append(span)
            stack.append(sid)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if name == "harness.serialize":
                span[6] = len(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, modules: dict) -> None:
        """Wrap every WRAPPED attribute present in the given modules."""
        for mod_name, attr, span_name in WRAPPED:
            module = modules[mod_name]
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, span_name))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    @contextlib.contextmanager
    def root(self, label: str):
        """Span of one benchmark operation; its spans share a new run id."""
        self.run_id += 1
        span = [len(self.spans), "op:" + label, time.perf_counter(), 0.0, None,
                self.run_id, None]
        self.spans.append(span)
        self._stack.append(span[0])
        try:
            yield
        finally:
            span[3] = time.perf_counter()
            self._stack.pop()

    def write(self, path) -> None:
        keys = ("id", "name", "start", "end", "parent", "run", "size")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def _cli_label(argv: list) -> tuple[str, int]:
    """('cli.run.<protocol>' or 'cli.sweep', trials) for one CLI invocation."""
    opts = dict(zip(argv[1::2], argv[2::2]))
    trials = int(opts.get("--trials", 1))
    if argv[0] == "sweep":
        return "cli.sweep", trials * len([v for v in opts["--values"].split(",") if v])
    return f"cli.run.{opts['--protocol']}", trials


def layer_metrics(spans: list[list], rounds: int) -> dict:
    """Per-round counts and self times, plus CLI rates, from the spans."""
    child_time = defaultdict(float)
    for s in spans:
        if s[4] is not None:
            child_time[s[4]] += s[3] - s[2]
    calls = defaultdict(int)
    self_s = defaultdict(float)
    n3_sum = 0
    serialized = 0
    for s in spans:
        name = s[1]
        own = (s[3] - s[2]) - child_time[s[0]]
        if name == "qmath.hermitian_eigen":
            name += ".small" if s[6] <= SMALL_EIGEN_DIM else ".large"
            n3_sum += s[6] ** 3
        elif name == "harness.serialize":
            serialized += s[6] or 0
        calls[name] += 1
        self_s[name] += own

    by_id = {s[0]: s for s in spans}

    def cli_ancestor(s):
        while s[4] is not None:
            s = by_id[s[4]]
            if s[1] == "cli.main":
                return s
        return None

    rate_trials = defaultdict(int)
    rate_time = defaultdict(float)
    codebook_builds = codebook_sessions = 0
    for s in spans:
        if s[1] == "cli.main":
            label, trials = _cli_label(s[6])
            rate_trials[label] += trials
            rate_time[label] += s[3] - s[2]
        elif s[1] in ("codebook.random_codebook", "harness.run_session"):
            parent = cli_ancestor(s)
            if parent is None or _cli_label(parent[6])[0] != "cli.run.codebook":
                continue
            if s[1] == "codebook.random_codebook":
                codebook_builds += 1
            else:
                codebook_sessions += 1

    def per_round(x):
        q, r = divmod(x, rounds)
        return q if isinstance(x, int) and r == 0 else x / rounds

    out = {}
    for size in ("large", "small"):
        name = f"qmath.hermitian_eigen.{size}"
        out[f"{name}.calls"] = (per_round(calls[name]), "count")
        out[f"{name}.s"] = (self_s[name] / rounds, "s")
    out["qmath.hermitian_eigen.n3_sum"] = (per_round(n3_sum), "count")
    for name in CALLS:
        out[f"{name}.calls"] = (per_round(calls[name]), "count")
    for name in SELF_TIMES:
        out[f"{name}.s"] = (self_s[name] / rounds, "s")
    out["harness.serialize.bytes"] = (per_round(serialized), "B")
    out["codebook.builds_per_session"] = (
        codebook_builds / codebook_sessions if codebook_sessions else 0.0, "ratio")
    for label in CLI_RATES:
        t = rate_time[label]
        out[f"{label}.trials_per_s"] = (rate_trials[label] / t if t > 0 else 0.0, "1/s")
    return out
