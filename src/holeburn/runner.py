"""Turn a parsed ExperimentConfig into simulation artifacts on disk.

A scenario is deterministic: the same config always produces byte-identical
spectra, trace, metrics, and sweep files.  The manifest additionally
records wall time, so it is reproducible up to that field.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict
from pathlib import Path

import numpy

from . import __version__
from .analysis import residual_metrics
from .config import ExperimentConfig, apply_override, parse_config, serialize_config
from .ensemble import build_ensemble, hole_area, kernel_key, readout_scan
from .sequence import ReadoutPulse, advance, compile_sequence, run, scan, write_trace_csv

__all__ = ["run_scenario", "run_single", "config_hash"]


def config_hash(cfg: ExperimentConfig) -> str:
    canonical = json.dumps(serialize_config(cfg), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


# Snapshot entries that evolved sweep points may hold before a scan: 8 MiB.
SCAN_BUDGET_ENTRIES = 1 << 20


def _prepare(cfg: ExperimentConfig):
    """The configured ensemble and compiled sequence."""
    ens = build_ensemble(
        cfg.profile,
        cfg.zeeman,
        cfg.rates,
        target_od=cfg.target_od,
        probe_linewidth_MHz=cfg.probe_linewidth_MHz,
    )
    return ens, compile_sequence(cfg.sequence, dt_max_ms=cfg.dt_max_ms)


def run_single(cfg: ExperimentConfig):
    """Execute one configured sequence; returns (ensemble, RunResult)."""
    ens, compiled = _prepare(cfg)
    return ens, run(ens, compiled, calibration=cfg.drive)


def _trace(result, cfg):
    """(delay, hole area) of every readout; empty without a trace window."""
    window = cfg.outputs.trace_window_MHz
    if window is None:
        return []
    return [(r.delay_ms, hole_area(r.spectrum, r.baseline, window)) for r in result.readouts]


def _last_metrics(result, cfg):
    """Residual metrics of the last readout, or None without one."""
    window = cfg.outputs.metrics_window_MHz
    if window is None or not result.readouts:
        return None
    last = result.readouts[-1]
    return residual_metrics(last.spectrum, last.baseline, window)


def run_scenario(cfg: ExperimentConfig, out_dir, threads: int = 1) -> dict:
    """Run a scenario, evolved as the sweep of its points, and write artifacts.

    Returns the manifest, which is also written as manifest.json.  threads
    is accepted for compatibility and has no effect: runs are serial.
    """
    t0 = time.perf_counter()
    sweep = cfg.outputs.sweep
    # A run without a sweep is the one point of its own sweep.
    points = [(None, cfg)]
    if sweep is not None:
        # Every point is parsed before any runs, so a bad value fails first.
        base_raw = serialize_config(cfg)
        points = []
        for value in sweep.values:
            # An integral value goes in as an int, so integer fields accept it
            # and float fields parse it to the same float.
            raw = apply_override(base_raw, sweep.path,
                                 int(value) if float(value).is_integer() else value)
            raw["outputs"] = dict(raw["outputs"], sweep=None)
            points.append((value, parse_config(raw)))

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    artifacts: list[str] = []
    # Points are evolved before they are scanned, so points sharing a readout
    # kernel share its pass; the snapshots wait, with one ensemble per kernel
    # key, until they pass the budget.  A point with byte-equal initial state
    # and generators reuses a pending point's evolution through the memo; its
    # snapshots are that point's arrays, so only a new memo entry counts
    # against the budget, and the memo is emptied with the pending list.
    results, pending, kernels, held, memo = [], [], {}, 0, {}
    for _, sub in points:
        ens, compiled = _prepare(sub)
        entries = len(memo)
        evolution = advance(ens, compiled, sub.drive, memo)
        pending.append((kernels.setdefault(kernel_key(ens), ens), evolution))
        if len(memo) > entries:
            held += sum(s.size for s in evolution.snapshots)
        if held > SCAN_BUDGET_ENTRIES:
            results += scan(pending)
            pending, kernels, held, memo = [], {}, 0, {}
    results += scan(pending)
    # The work counts cover every point; other stats are the last point's.
    stats = dict(results[-1].stats, **{k: sum(r.stats[k] for r in results)
                                       for k in ("n_expm_matrices", "n_kernel_evals")})

    if sweep is not None:
        rows = []
        for (value, sub), result in zip(points, results):
            row = {"value": value}
            trace = _trace(result, sub)
            if trace:
                row["hole_area"] = trace[-1][1]
            metrics = _last_metrics(result, sub)
            if metrics is not None:
                row.update(asdict(metrics))
            rows.append(row)
        cols = list(rows[0].keys())
        with open(out / "sweep.csv", "w") as fh:
            fh.write(",".join(cols) + "\n")
            for row in rows:
                fh.write(",".join(repr(row[c]) for c in cols) + "\n")
        artifacts.append("sweep.csv")
    else:
        (result,) = results
        if cfg.outputs.spectra:
            # One baseline per readout grid, numbered in order of first use;
            # without readouts, the unpumped spectrum on the class grid, read
            # from the initial state the one point's evolution kept.
            bases = list({id(r.baseline): r.baseline for r in result.readouts}.values())
            if not bases:
                n = ens.n_classes
                lo, hi = float(ens.centers_MHz[0]), float(ens.centers_MHz[-1])
                bases = readout_scan(ens, lo, hi, n, evolution.snapshots[:1])
                stats = dict(stats, n_kernel_evals=stats["n_kernel_evals"] + n * 4 * n)
            for i, base in enumerate(bases):
                name = "baseline.csv" if i == 0 else f"baseline_{i}.csv"
                base.to_csv(out / name)
                artifacts.append(name)
            for i, r in enumerate(result.readouts):
                name = f"spectrum_{i:03d}.csv"
                r.spectrum.to_csv(out / name)
                artifacts.append(name)

        trace = _trace(result, cfg)
        if trace:
            write_trace_csv(trace, out / "trace.csv")
            artifacts.append("trace.csv")

        metrics = _last_metrics(result, cfg)
        if metrics is not None:
            with open(out / "metrics.json", "w") as fh:
                fh.write(json.dumps(asdict(metrics), indent=2, sort_keys=True))
            artifacts.append("metrics.json")

    manifest = {
        "config_hash": config_hash(cfg),
        "config": serialize_config(cfg),
        "versions": {
            "holeburn": __version__,
            "numpy": numpy.__version__,
        },
        "wall_time_s": time.perf_counter() - t0,
        "artifacts": artifacts,
        "stats": stats,
        # In spectrum order: run takes the readouts by increasing delay.
        "readout_delays_ms": sorted(
            p.at_delay_ms for p in cfg.sequence if isinstance(p, ReadoutPulse)
        ),
    }
    with open(out / "manifest.json", "w") as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True))
    return manifest
