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
import scipy

from . import __version__
from .analysis import residual_metrics
from .config import ExperimentConfig, apply_override, parse_config, serialize_config
from .ensemble import build_ensemble, readout_scan
from .sequence import ReadoutPulse, compile_sequence, run, write_trace_csv

__all__ = ["run_scenario", "run_single", "config_hash"]


def config_hash(cfg: ExperimentConfig) -> str:
    canonical = json.dumps(serialize_config(cfg), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def run_single(cfg: ExperimentConfig):
    """Execute one configured sequence; returns (ensemble, RunResult)."""
    ens = build_ensemble(
        cfg.profile,
        cfg.zeeman,
        cfg.rates,
        target_od=cfg.target_od,
        probe_linewidth_MHz=cfg.probe_linewidth_MHz,
    )
    compiled = compile_sequence(cfg.sequence, dt_max_ms=cfg.dt_max_ms)
    result = run(
        ens,
        compiled,
        calibration=cfg.drive,
        trace_window_MHz=cfg.outputs.trace_window_MHz,
    )
    return ens, result


def _last_metrics(result, cfg):
    """Residual metrics of the last readout, or None without one."""
    window = cfg.outputs.metrics_window_MHz
    if window is None or not result.spectra:
        return None
    _, spec = result.spectra[-1]
    # Baselines are keyed by readout grid; recover the matching one.
    for (f0, f1, n), base in result.baseline.items():
        if n == len(spec.freqs_MHz) and f0 == spec.freqs_MHz[0] and f1 == spec.freqs_MHz[-1]:
            return residual_metrics(spec, base, window)
    return None


def run_scenario(cfg: ExperimentConfig, out_dir, threads: int = 1) -> dict:
    """Run a scenario (with its sweep, if any) and write artifacts.

    Returns the manifest, which is also written as manifest.json.  threads
    is accepted for compatibility and has no effect: runs are serial.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    artifacts: list[str] = []
    stats: dict = {}

    sweep = cfg.outputs.sweep
    if sweep is not None:
        rows = []
        n_eig = 0
        base_raw = serialize_config(cfg)
        for value in sweep.values:
            raw = apply_override(base_raw, sweep.path, value)
            raw["outputs"] = dict(raw["outputs"], sweep=None)
            sub = parse_config(raw)
            _, result = run_single(sub)
            row = {"value": value}
            if result.trace:
                row["hole_area"] = result.trace[-1][1]
            metrics = _last_metrics(result, sub)
            if metrics is not None:
                row.update(asdict(metrics))
            rows.append(row)
            # The eig count covers the whole sweep; other stats are the last point's.
            n_eig += result.stats["n_eig_matrices"]
            stats = dict(result.stats, n_eig_matrices=n_eig)
        if rows:
            cols = list(rows[0].keys())
            with open(out / "sweep.csv", "w") as fh:
                fh.write(",".join(cols) + "\n")
                for row in rows:
                    fh.write(",".join(repr(row[c]) for c in cols) + "\n")
            artifacts.append("sweep.csv")
    else:
        ens, result = run_single(cfg)
        stats = result.stats

        if cfg.outputs.spectra:
            if result.baseline:
                # One baseline per readout grid; index in key order of first use.
                for i, base in enumerate(result.baseline.values()):
                    name = "baseline.csv" if i == 0 else f"baseline_{i}.csv"
                    base.to_csv(out / name)
                    artifacts.append(name)
            else:
                base = readout_scan(
                    ens, float(ens.centers_MHz[0]), float(ens.centers_MHz[-1]),
                    len(ens.centers_MHz),
                )
                base.to_csv(out / "baseline.csv")
                artifacts.append("baseline.csv")
            for i, (delay, spec) in enumerate(result.spectra):
                name = f"spectrum_{i:03d}.csv"
                spec.to_csv(out / name)
                artifacts.append(name)

        if result.trace:
            write_trace_csv(result.trace, out / "trace.csv")
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
            "scipy": scipy.__version__,
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
