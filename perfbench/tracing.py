"""Span tracing of qdpi's layers, installed from outside the package.

``Tracer.install`` replaces every reference to a public function of the qdpi
modules, in every qdpi namespace that holds one, by a wrapper that records a
span (name, start, end, parent). ``numpy.linalg.eigh``, ``eigvalsh`` and
``svd`` are wrapped the same way, and ``SuperOperator.apply`` and
``SuperOperator.__init__`` on the class. ``uninstall`` restores the
originals. Nothing under ``src/qdpi`` changes.

Counts and times are aggregated at the same boundaries while the spans are
recorded. A span's self time is its duration minus the time covered by its
child spans; a layer's self time is the sum over its spans. "Entry" calls
into a group (a layer, the map constructors, the serialize readers, ...)
are the calls made from outside that group, so nested calls count once.
"""

from __future__ import annotations

import inspect
import os
import statistics
import sys
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("cli", "harness", "serialize", "channels", "divergences", "sampling", "linalg")
# Buckets that self time is split into: the qdpi layers, numpy's solvers and
# the benchmark's own glue around each operation.
BUCKETS = LAYERS + ("numpy", "bench")

CONSTRUCTORS = frozenset({
    "from_matrix", "from_kraus", "from_choi", "adjoint", "compose", "gamma_superoperator",
    "identity_map", "transpose_map", "pinching_map", "truncation_map", "reduction_map",
    "depolarizing_map", "halving_map", "counterexample_map", "random_cptp",
    "random_positive_noncp", "damped_cptp", "construct",
})
WRITERS = frozenset({"canonical_json", "save_json", "matrix_to_dict", "channel_to_dict", "encode_extended"})
READERS = frozenset({"load_json", "matrix_from_dict", "channel_from_dict", "decode_extended"})
SUITES = frozenset({
    "counterexample_suite", "randomized_dpi_suite", "norm_contraction_suite", "contraction_battery",
    "step2_suite", "step2_battery", "auxiliary_inequality_suite", "alpha_limit_suite",
    "violation_search",
})
# Report names of the suites, as CheckReport.suite_name gives them.
SUITE_NAMES = (
    "counterexample", "dpi-tp", "dpi-tni", "dpi-trace_match", "norm-contraction", "step2",
    "auxiliary", "violation-search",
)

# (metric, unit) in the order they are reported; BENCHMARK.json lists the same.
METRICS = (
    [(f"{layer}.self_s", "s") for layer in BUCKETS]
    + [
        ("linalg.eigensolver_calls", "count"),
        ("linalg.eigensolver_calls_per_trial", "calls/op"),
        ("linalg.eigensolver_s", "s"),
        ("linalg.require_psd_calls", "count"),
        ("linalg.require_psd_s", "s"),
        ("linalg.svd_calls", "count"),
        ("linalg.power_on_support_calls", "count"),
        ("divergences.calls", "count"),
        ("divergences.eigensolver_calls_per_call", "calls/call"),
        ("channels.construct_calls", "count"),
        ("channels.construct_s", "s"),
        ("channels.choi_eig_calls", "count"),
        ("channels.choi_eig_s", "s"),
        ("channels.superop_bytes", "B"),
        ("channels.apply_calls", "count"),
        ("channels.apply_s", "s"),
        ("sampling.calls", "count"),
        ("sampling.s", "s"),
        ("serialize.write_calls", "count"),
        ("serialize.write_s", "s"),
        ("serialize.read_calls", "count"),
        ("serialize.read_s", "s"),
        ("serialize.bytes_read", "B"),
        ("harness.trials", "count"),
        ("harness.escalations", "count"),
        ("harness.hill_steps", "count"),
    ]
    + [(f"harness.suite_share.{name}", "%") for name in SUITE_NAMES]
    + [
        ("cli.commands", "count"),
        ("cli.command_p50_ms", "ms"),
        ("cli.command_p95_ms", "ms"),
        ("trace.spans", "count"),
        ("trace.wall_s", "s"),
        ("trace.untraced_wall_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.self_sum_s", "s"),
    ]
)


def _map_dim(args, kwargs, superoperator) -> int:
    """Largest Hilbert-space dimension visible in a channels call's arguments."""
    dims = [0]
    for a in (*args, *kwargs.values()):
        if isinstance(a, superoperator):
            dims += [a.dim_in, a.dim_out]
        elif isinstance(a, (int, np.integer)) and not isinstance(a, bool):
            dims.append(int(a))
        elif isinstance(a, (list, tuple)) and a and hasattr(a[0], "shape"):
            dims += list(np.shape(a[0]))
    return max(dims)


class Tracer:
    """Records spans in memory while installed; ``metrics`` summarizes them."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[list] = []  # [span id, child seconds, layer, args, kwargs]
        self.self_s: dict[str, float] = defaultdict(float)
        self.depth: Counter = Counter()
        self.entry_calls: Counter = Counter()
        self.entry_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.inclusive_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.times: dict[str, float] = defaultdict(float)
        self.suite_s: dict[str, float] = defaultdict(float)
        self.command_ms: list[float] = []
        self._restore: list = []
        self._origin = time.perf_counter()

    # -- recording ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _enter(self, name_id: int, layer: str, groups, args, kwargs):
        entries = [g for g in groups if not self.depth[g]]
        for g in groups:
            self.depth[g] += 1
        span = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self.stack[-1][0] if self.stack else -1)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        frame = [span, 0.0, layer, args, kwargs]
        self.stack.append(frame)
        return frame, entries

    def _exit(self, frame, entries, groups, name: str, start: float, end: float) -> float:
        self.stack.pop()
        for g in groups:
            self.depth[g] -= 1
        duration = end - start
        self.self_s[frame[2]] += duration - frame[1]
        if self.stack:
            self.stack[-1][1] += duration
        self.span_start[frame[0]] = start - self._origin
        self.span_end[frame[0]] = end - self._origin
        self.calls[name] += 1
        self.inclusive_s[name] += duration
        for g in entries:
            self.entry_calls[g] += 1
            self.entry_s[g] += duration
        return duration

    def call(self, layer: str, name: str, groups, fn, args, kwargs, on_result=None):
        name_id = self._name_id(name)
        frame, entries = self._enter(name_id, layer, groups, args, kwargs)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            duration = self._exit(frame, entries, groups, name, start, end)
        if on_result is not None:
            on_result(args, result, duration, entries)
        return result

    def op(self, label: str, fn, *args):
        """Root span for one benchmark operation; its self time is the benchmark's glue."""
        return self.call("bench", f"bench.{label}", ("layer:bench",), fn, args, {})

    # -- hooks --------------------------------------------------------------

    def _suite_done(self, args, report, duration, entries):
        if "suite" in entries:
            self.suite_s[report.suite_name] += duration
            self.counts["harness.trials"] += report.trials
            self.counts["harness.escalations"] += report.escalations
            self.counts["harness.hill_steps"] += int(report.config.get("hill_steps", 0))

    def _command_done(self, args, result, duration, entries):
        if "layer:cli" in entries:
            self.command_ms.append(duration * 1e3)

    def _load_done(self, args, result, duration, entries):
        if "read" in entries:
            self.counts["serialize.bytes_read"] += os.path.getsize(args[0])

    # -- installation -------------------------------------------------------

    def _wrap_function(self, layer: str, fname: str, fn):
        groups = [f"layer:{layer}"]
        if layer == "channels" and fname in CONSTRUCTORS:
            groups.append("construct")
        if layer == "serialize" and fname in WRITERS:
            groups.append("write")
        if layer == "serialize" and fname in READERS:
            groups.append("read")
        if layer == "harness" and fname in SUITES:
            groups.append("suite")
        groups = tuple(groups)
        name = f"{layer}.{fname}"
        tracer = self
        on_result = None
        if layer == "harness" and fname in SUITES:
            on_result = self._suite_done
        elif layer == "cli" and fname == "main":
            on_result = self._command_done
        elif layer == "serialize" and fname == "load_json":
            on_result = self._load_done

        def wrapper(*args, **kwargs):
            return tracer.call(layer, name, groups, fn, args, kwargs, on_result)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _wrap_solver(self, fname: str, fn, superoperator):
        tracer = self
        kind = "svd" if fname == "svd" else "eig"
        groups = ("layer:numpy",)
        name = f"numpy.linalg.{fname}"

        def wrapper(a, *args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else None
            in_divergences = tracer.depth["layer:divergences"] > 0
            frame, entries = tracer._enter(tracer._name_id(name), "numpy", groups, (), {})
            start = time.perf_counter()
            try:
                return fn(a, *args, **kwargs)
            finally:
                end = time.perf_counter()
                duration = tracer._exit(frame, entries, groups, name, start, end)
                if kind == "svd":
                    tracer.counts["linalg.svd_calls"] += 1
                else:
                    tracer.counts["linalg.eigensolver_calls"] += 1
                    tracer.times["linalg.eigensolver_s"] += duration
                    if in_divergences:
                        tracer.counts["divergences.eigensolver_calls"] += 1
                    if parent is not None and parent[2] == "channels":
                        if np.shape(a)[-1] > _map_dim(parent[3], parent[4], superoperator):
                            tracer.counts["channels.choi_eig_calls"] += 1
                            tracer.times["channels.choi_eig_s"] += duration

        wrapper.__wrapped__ = fn
        return wrapper

    def _replace(self, old, new, modules) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is old:
                    setattr(module, attr, new)
                    self._restore.append((module, attr, old))

    def install(self, qdpi) -> None:
        """Wrap the public functions of every qdpi layer and numpy's solvers."""
        modules = [m for n, m in sys.modules.items() if n == "qdpi" or n.startswith("qdpi.")]
        for layer in LAYERS:
            module = getattr(qdpi, layer)
            public = getattr(module, "__all__", None) or ["main", "build_parser"]
            for fname in public:
                fn = getattr(module, fname, None)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    self._replace(fn, self._wrap_function(layer, fname, fn), modules)
        superoperator = qdpi.channels.SuperOperator
        for fname in ("eigh", "eigvalsh", "svd"):
            fn = getattr(np.linalg, fname)
            self._replace(fn, self._wrap_solver(fname, fn, superoperator), [np.linalg])

        apply = superoperator.apply
        tracer = self

        def traced_apply(phi, X):
            groups = ("layer:channels", "apply")
            return tracer.call("channels", "channels.apply", groups, apply, (phi, X), {})

        init = superoperator.__init__

        def counted_init(phi, matrix, *args, **kwargs):
            tracer.counts["channels.superop_bytes"] += getattr(matrix, "nbytes", 0)
            init(phi, matrix, *args, **kwargs)

        superoperator.apply = traced_apply
        superoperator.__init__ = counted_init
        self._restore += [(superoperator, "apply", apply), (superoperator, "__init__", init)]

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results ------------------------------------------------------------

    def metrics(self, rounds: int, ops_per_round: float, traced_wall_s: float,
                untraced_wall_s: float) -> dict:
        """Per-round means of every metric in METRICS, as {name: (value, unit)}."""
        n = float(rounds)
        values: dict[str, float] = {}
        for bucket in BUCKETS:
            values[f"{bucket}.self_s"] = self.self_s.get(bucket, 0.0) / n
        eig = self.counts["linalg.eigensolver_calls"] / n
        div_calls = self.entry_calls["layer:divergences"] / n
        harness_s = self.entry_s["layer:harness"]
        values.update({
            "linalg.eigensolver_calls": eig,
            "linalg.eigensolver_calls_per_trial": eig / ops_per_round,
            "linalg.eigensolver_s": self.times["linalg.eigensolver_s"] / n,
            "linalg.require_psd_calls": self.calls["linalg.require_psd"] / n,
            "linalg.require_psd_s": self.inclusive_s["linalg.require_psd"] / n,
            "linalg.svd_calls": self.counts["linalg.svd_calls"] / n,
            "linalg.power_on_support_calls": self.calls["linalg.power_on_support"] / n,
            "divergences.calls": div_calls,
            "divergences.eigensolver_calls_per_call": (
                self.counts["divergences.eigensolver_calls"] / n / div_calls if div_calls else 0.0
            ),
            "channels.construct_calls": self.entry_calls["construct"] / n,
            "channels.construct_s": self.entry_s["construct"] / n,
            "channels.choi_eig_calls": self.counts["channels.choi_eig_calls"] / n,
            "channels.choi_eig_s": self.times["channels.choi_eig_s"] / n,
            "channels.superop_bytes": self.counts["channels.superop_bytes"] / n,
            "channels.apply_calls": self.entry_calls["apply"] / n,
            "channels.apply_s": self.entry_s["apply"] / n,
            "sampling.calls": self.entry_calls["layer:sampling"] / n,
            "sampling.s": self.entry_s["layer:sampling"] / n,
            "serialize.write_calls": self.entry_calls["write"] / n,
            "serialize.write_s": self.entry_s["write"] / n,
            "serialize.read_calls": self.entry_calls["read"] / n,
            "serialize.read_s": self.entry_s["read"] / n,
            "serialize.bytes_read": self.counts["serialize.bytes_read"] / n,
            "harness.trials": self.counts["harness.trials"] / n,
            "harness.escalations": self.counts["harness.escalations"] / n,
            "harness.hill_steps": self.counts["harness.hill_steps"] / n,
        })
        for suite in SUITE_NAMES:
            share = 100.0 * self.suite_s.get(suite, 0.0) / harness_s if harness_s else 0.0
            values[f"harness.suite_share.{suite}"] = share
        cmds = sorted(self.command_ms)
        values["cli.commands"] = len(cmds) / n
        values["cli.command_p50_ms"] = statistics.median(cmds) if cmds else 0.0
        values["cli.command_p95_ms"] = (
            statistics.quantiles(cmds, n=20, method="inclusive")[-1] if len(cmds) > 1 else
            (cmds[0] if cmds else 0.0)
        )
        values["trace.spans"] = len(self.span_name) / n
        values["trace.wall_s"] = traced_wall_s
        values["trace.untraced_wall_s"] = untraced_wall_s
        values["trace.overhead_s"] = traced_wall_s - untraced_wall_s
        values["trace.self_sum_s"] = sum(values[f"{b}.self_s"] for b in BUCKETS)
        return {name: (values[name], unit) for name, unit in METRICS}

    def write(self, path) -> None:
        """Write every recorded span: parallel arrays plus the name table."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start_s=np.frombuffer(self.span_start, dtype=np.float64),
            end_s=np.frombuffer(self.span_end, dtype=np.float64),
        )
