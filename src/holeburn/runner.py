"""Turn a parsed ExperimentConfig into simulation artifacts on disk.

A scenario is deterministic: the same config always produces byte-identical
spectra, trace, metrics, and sweep files.  The manifest additionally
records wall time, so it is reproducible up to that field.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy

from . import __version__
from .analysis import residual_metrics
# parse_config is not called here; it stays a runner attribute for perfbench/tracer.py
from .config import (ExperimentConfig, _parse_field, apply_override, parse_config,
                     serialize_config)
from .ensemble import build_ensemble, hole_area, readout_scan, readout_stride, write_spectra
from .sequence import ReadoutPulse, advance, compile_sequence, run, scan, write_trace_csv

__all__ = ["run_scenario", "run_single", "config_hash"]


def config_hash(cfg: ExperimentConfig) -> str:
    canonical = json.dumps(serialize_config(cfg), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


# Entries the sweep memo's snapshots and the store's arrays may hold before a scan: 8 MiB.
SCAN_BUDGET_ENTRIES = 1 << 20


def _build(cfg: ExperimentConfig, shared: dict):
    """The ensemble of the config's ensemble fields, built once per distinct fields in shared."""
    key = (cfg.profile, cfg.zeeman, cfg.rates, cfg.target_od, cfg.probe_linewidth_MHz)
    if key not in shared:
        shared[key] = build_ensemble(cfg.profile, cfg.zeeman, cfg.rates,
                                     target_od=cfg.target_od,
                                     probe_linewidth_MHz=cfg.probe_linewidth_MHz)
    return shared[key]


def _prepare(cfg: ExperimentConfig, shared: dict | None = None):
    """The configured ensemble and compiled sequence.

    Through shared, configs whose ensemble fields are equal share one
    build_ensemble call, its target_od calibration included, and configs
    whose sequence and dt_max_ms are equal share one compile_sequence call.
    Each still gets its own populations, which advance mutates; nothing
    mutates a compiled sequence.
    """
    shared = {} if shared is None else shared
    ens = _build(cfg, shared)
    key = (cfg.sequence, cfg.dt_max_ms)
    if key not in shared:
        shared[key] = compile_sequence(cfg.sequence, dt_max_ms=cfg.dt_max_ms)
    return replace(ens, populations=ens.populations.copy()), shared[key]


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


def _sweep_points(cfg: ExperimentConfig) -> list:
    """(value, config) of each point of the config's sweep.

    A point is the config with its sweep cleared and the one top-level field
    the sweep path names parsed again with the value in place; every other
    field is the base config's own object.  A bad value raises the
    ConfigError that parsing the whole overridden config would.
    """
    sweep = cfg.outputs.sweep
    base = replace(cfg, outputs=replace(cfg.outputs, sweep=None))
    base_raw = serialize_config(base)
    top = sweep.path.split(".")[0].split("[")[0]
    # an unknown top-level key is left to apply_override, which names it
    field_raw = {top: base_raw[top]} if top in base_raw else {}
    points = []
    for value in sweep.values:
        # An integral value goes in as an int, so integer fields accept it
        # and float fields parse it to the same float.
        raw = apply_override(field_raw, sweep.path,
                             int(value) if float(value).is_integer() else value)
        points.append((value, replace(base, **{top: _parse_field(top, raw[top])})))
    return points


def run_scenario(cfg: ExperimentConfig, out_dir, threads: int = 1) -> dict:
    """Run a scenario, evolved as the sweep of its points, and write artifacts.

    Returns the manifest, which is also written as manifest.json.  threads
    is accepted for compatibility and has no effect: runs are serial.
    """
    t0 = time.perf_counter()
    sweep = cfg.outputs.sweep
    # A run without a sweep is the one point of its own sweep.  Every point
    # of a sweep is built before any runs, so a bad value fails first.
    points = [(None, cfg)] if sweep is None else _sweep_points(cfg)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    artifacts: list[str] = []
    # Points are evolved before they are scanned, so points sharing a readout
    # kernel share its pass; the snapshots wait, each with its shared build
    # for scan to key, until the memo and the store pass the budget.  The
    # memo holds each pending point's evolution once: a point with byte-equal
    # initial state and generators reuses an earlier one's.  The store holds
    # the drive matrices, pump-off propagators and pump-rate stacks points
    # share; both are emptied with the pending list.  Builds, with their
    # transition tables, and compiles are shared for the whole run.
    results, pending, memo, store, shared = [], [], {}, {}, {}
    for _, sub in points:
        ens, compiled = _prepare(sub, shared)
        evolution = advance(ens, compiled, sub.drive, memo, store)
        pending.append((_build(sub, shared), evolution))
        held = sum(s.size for snapshots, *_ in memo.values() for s in snapshots)
        if held + sum(numpy.size(a) for entry in store.values() for a in entry) \
                > SCAN_BUDGET_ENTRIES:
            results += scan(pending)
            pending, memo, store = [], {}, {}
    results += scan(pending)
    # The work counts cover every point; other stats are the last point's.
    stats = dict(results[-1].stats, **{k: sum(r.stats[k] for r in results)
                                       for k in ("n_expm_matrices", "n_product_rows",
                                                 "n_kernel_evals")})

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
                stats = dict(stats, n_kernel_evals=stats["n_kernel_evals"] + n * 4 * n,
                             readout_q=[readout_stride(ens, lo, hi, n)])
            named = [("baseline.csv" if i == 0 else f"baseline_{i}.csv", base)
                     for i, base in enumerate(bases)]
            named += [(f"spectrum_{i:03d}.csv", r.spectrum) for i, r in enumerate(result.readouts)]
            write_spectra([(out / name, spectrum) for name, spectrum in named])
            artifacts += [name for name, _ in named]

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
