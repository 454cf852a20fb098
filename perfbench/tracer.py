"""Per-layer tracing of one holeburn scenario, from outside the package.

The tracer swaps the module attributes that holeburn looks up at call time
for wrappers that record a span (layer name, start, end, parent span) and
exact work counts, then puts every original back.  Nothing in ``src/`` is
edited.  Counting happens after a span closes and its cost is subtracted
from the tracer's clock, so the tracer's own bookkeeping (notably hashing
generators for ``engine.eig_distinct``) is kept out of every span.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import time
from collections import Counter
from pathlib import Path

import numpy as np

# (module, attribute, span name).  By-value imports are patched where they
# are looked up: runner and sequence imported these names from their home
# modules, so patching only the home module would miss those calls.
PATCHES = (
    ("holeburn.engine", "propagator_batch", "engine.propagator"),
    ("holeburn.engine", "matrix_power_batch", "engine.power"),
    ("scipy.linalg", "expm", "engine.expm"),
    ("holeburn.ensemble", "absorbance", "ensemble.absorbance"),
    ("holeburn.sequence", "readout_scan", "ensemble.readout"),
    ("holeburn.runner", "readout_scan", "ensemble.readout"),
    ("holeburn.runner", "build_ensemble", "ensemble.build"),
    ("holeburn.runner", "compile_sequence", "sequence.compile"),
    ("holeburn.runner", "run", "sequence.run"),
    ("holeburn.runner", "parse_config", "config.parse"),
    ("holeburn.runner", "apply_override", "config.parse"),
    ("holeburn.runner", "residual_metrics", "analysis.metrics"),
    ("holeburn.runner", "run_scenario", "runner.scenario"),
)

# Per-layer metrics taken as counts: identical on every pass of one config.
COUNT_METRICS = (
    "engine.propagator_calls",
    "engine.eig_matrices",
    "engine.eig_distinct",
    "engine.power_calls",
    "engine.squarings",
    "engine.expm_fallbacks",
    "ensemble.readout_calls",
    "ensemble.kernel_evals",
    "ensemble.build_calls",
    "config.parse_calls",
    "sequence.items",
    "sequence.segments",
    "analysis.metrics_calls",
    "runner.files_written",
    "runner.bytes_written",
)


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _count_propagator(tracer, args, kwargs, result):
    mats = np.asarray(_arg(args, kwargs, 0, "matrices"), dtype=float)
    dt = float(_arg(args, kwargs, 1, "dt_ms"))
    if dt == 0.0:  # identity shortcut, no eigendecomposition
        return
    n = mats.shape[0]
    tracer.counts["engine.eig_matrices"] += n
    rows = np.ascontiguousarray(mats.reshape(n, -1))
    distinct = np.unique(rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1]))))
    tracer.eig_keys.update((dt, row.tobytes()) for row in distinct)


def _count_power(tracer, args, kwargs, result):
    props = _arg(args, kwargs, 0, "propagators")
    n = int(_arg(args, kwargs, 1, "n"))
    tracer.counts["engine.squarings"] += n.bit_length() * props.shape[0]


def _count_expm(tracer, args, kwargs, result):
    tracer.counts["engine.expm_fallbacks"] += 1


def _count_absorbance(tracer, args, kwargs, result):
    ens = _arg(args, kwargs, 0, "ens")
    tracer.counts["ensemble.kernel_evals"] += 4 * ens.n_classes


def _count_readout(tracer, args, kwargs, result):
    ens = _arg(args, kwargs, 0, "ens")
    n_points = int(_arg(args, kwargs, 3, "n_points"))
    tracer.counts["ensemble.kernel_evals"] += n_points * 4 * ens.n_classes


def _count_compile(tracer, args, kwargs, result):
    tracer.counts["sequence.items"] += len(result.items)
    tracer.counts["sequence.segments"] += result.n_segments


HOOKS = {
    "engine.propagator": _count_propagator,
    "engine.power": _count_power,
    "engine.expm": _count_expm,
    "ensemble.absorbance": _count_absorbance,
    "ensemble.readout": _count_readout,
    "sequence.compile": _count_compile,
}

# Calls of a span name, reported under this count metric.
CALL_COUNTS = {
    "engine.propagator": "engine.propagator_calls",
    "engine.power": "engine.power_calls",
    "ensemble.readout": "ensemble.readout_calls",
    "ensemble.build": "ensemble.build_calls",
    "config.parse": "config.parse_calls",
    "analysis.metrics": "analysis.metrics_calls",
}


class Tracer:
    """Spans and counts of one traced pass.  Single-threaded use only."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int | None]] = []
        self.counts: Counter = Counter()
        self.eig_keys: set = set()
        self._stack: list[int] = []
        self._paused = 0.0

    def now(self) -> float:
        """Clock that stands still while the tracer does its own bookkeeping."""
        return time.perf_counter() - self._paused

    def wrap(self, name, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            self.spans.append((name, 0.0, 0.0, parent))
            self._stack.append(index)
            start = self.now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.now()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent)
            if hook is not None:
                b0 = time.perf_counter()
                hook(self, args, kwargs, result)
                self._paused += time.perf_counter() - b0
            return result

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Install the wrappers for the duration of the block, then restore."""
        saved = []
        try:
            for module_name, attr, name in PATCHES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def layer_times(self) -> tuple[Counter, Counter, Counter]:
        """Total time, self time and call count per span name."""
        total, child, calls = Counter(), Counter(), Counter()
        for name, start, end, parent in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent is not None:
                child[parent] += end - start
        own = Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            own[name] += (end - start) - child[i]
        return total, own, calls

    def metrics(self) -> dict:
        """Per-layer metrics of this pass (see README for definitions)."""
        total, own, calls = self.layer_times()
        m = {k: 0 for k in COUNT_METRICS}
        m.update(self.counts)
        for span, metric in CALL_COUNTS.items():
            m[metric] = calls[span]
        m["engine.eig_distinct"] = len(self.eig_keys)
        m["engine.eig_useful_ratio"] = (
            m["engine.eig_distinct"] / m["engine.eig_matrices"] if m["engine.eig_matrices"] else 0.0
        )
        m["engine.propagator_s"] = total["engine.propagator"]
        m["engine.power_s"] = total["engine.power"]
        m["ensemble.readout_s"] = total["ensemble.readout"]
        kernel_s = total["ensemble.readout"] + total["ensemble.absorbance"]
        m["ensemble.kernel_evals_per_s"] = m["ensemble.kernel_evals"] / kernel_s if kernel_s else 0.0
        m["ensemble.build_s"] = total["ensemble.build"]
        m["config.parse_s"] = total["config.parse"]
        m["sequence.compile_s"] = total["sequence.compile"]
        m["sequence.run_s"] = total["sequence.run"]
        m["sequence.run_self_s"] = own["sequence.run"]
        m["analysis.metrics_s"] = total["analysis.metrics"]
        m["runner.scenario_s"] = total["runner.scenario"]
        m["runner.self_s"] = own["runner.scenario"]
        return m


def traced_pass(raw: dict, out_dir) -> tuple[dict, dict]:
    """Parse and run one scenario under tracing; returns (manifest, metrics).

    The parse is the workload's own set-up parse, so ``config.parse_*`` is
    never empty, also for scenarios without a sweep.
    """
    import holeburn.config
    import holeburn.runner

    tracer = Tracer()
    with tracer.patched():
        cfg = tracer.wrap("config.parse", holeburn.config.parse_config)(raw)
        manifest = holeburn.runner.run_scenario(cfg, out_dir, threads=1)
    metrics = tracer.metrics()
    # Artifacts only: manifest.json's size varies with its wall_time_s digits.
    written = [Path(out_dir) / name for name in manifest["artifacts"]]
    metrics["runner.files_written"] = len(written)
    metrics["runner.bytes_written"] = sum(p.stat().st_size for p in written)
    return manifest, metrics


def median_metrics(passes: list[dict]) -> dict:
    """Median of each timing over traced passes; counts are taken from the first."""
    return {
        k: v if k in COUNT_METRICS else statistics.median(p[k] for p in passes)
        for k, v in passes[0].items()
    }


def count_mismatches(passes: list[dict], keys=COUNT_METRICS) -> list[str]:
    """Counts that differ between traced passes of one config; [] when none."""
    return [
        f"traced pass {i}: {k} = {p[k]}, pass 0 had {passes[0][k]}"
        for i, p in enumerate(passes[1:], 1)
        for k in keys
        if p[k] != passes[0][k]
    ]
