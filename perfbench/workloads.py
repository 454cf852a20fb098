"""Benchmark workloads: shipped presets, a seed transform, and the reference check.

Seed 0 runs each preset exactly as shipped.  Any other seed shifts the whole
optical frequency frame (inhomogeneous-line centre, pump centre, readout
windows, trace and metrics windows) by delta = k/64 MHz with k in 1..31, so by
less than one 0.5 MHz class-grid step, and shuffles the sweep-value order.
Both keep each workload's cost and shape: the class grid moves with the pump,
so every pump-to-class detuning, and with it every propagator, stays the same
up to rounding.  That is also what makes the outputs checkable against one
committed reference per workload: spectra come back translated by delta and
sweep rows come back permuted.

delta is a multiple of 2**-6, so adding it to any frequency in this frame is
exact as long as the value stays in its binade; grid points that sit exactly
on a window edge (for example -5.0 against a [-5, 5] window) then stay
exactly on it, and window masks select the same points.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Every reference number is compared as |actual - ref| <= ATOL + RTOL * |ref|.
RTOL = 1e-9
ATOL = 1e-12

# CSV columns that carry an absolute optical frequency and move with delta.
FREQ_COLUMNS = ("freq_MHz",)

# Frequency shift quantum: a power of two, so shifted frequencies stay exact.
SHIFT_QUANTUM_MHZ = 1.0 / 64.0


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "tailoring",
            "fig7_tailoring",
            "engine-bound gated 50 MHz pit: 1.1M eigendecompositions, split tail, largest readout",
        ),
        Workload(
            "pit_sweep",
            "fig6_rf_power",
            "6-point sweep of the 10 MHz pit: repeat blocks and matrix powers, no gating or split tail",
        ),
        Workload(
            "stim_spectrum",
            "fig4_stimulation_spectrum",
            "15-point sweep with an unswept pump: readout-bound, ensemble rebuilt per point",
        ),
    )
}


@dataclass(frozen=True)
class Variant:
    """What a seed did to a preset: the frame shift and the sweep order."""

    seed: int
    shift_MHz: float
    sweep_order: tuple | None


def make_variant(seed: int, n_sweep: int | None) -> Variant:
    if seed == 0:
        order = tuple(range(n_sweep)) if n_sweep else None
        return Variant(0, 0.0, order)
    rng = random.Random(seed)
    shift = rng.randint(1, 31) * SHIFT_QUANTUM_MHZ
    order = None
    if n_sweep:
        order = list(range(n_sweep))
        rng.shuffle(order)
        order = tuple(order)
    return Variant(seed, shift, order)


def _shift_window(window, d):
    return None if window is None else [window[0] + d, window[1] + d]


def workload_config(name: str, seed: int) -> tuple[dict, Variant]:
    """Raw config mapping for a workload at a seed, and how it was derived."""
    from holeburn.presets import preset

    raw = preset(WORKLOADS[name].preset)
    sweep = raw.get("outputs", {}).get("sweep")
    variant = make_variant(seed, len(sweep["values"]) if sweep else None)
    d = variant.shift_MHz
    if d:
        raw["profile"]["center_MHz"] = raw["profile"].get("center_MHz", 0.0) + d
        for pulse in raw["sequence"]:
            if pulse["kind"] == "pump":
                pulse["center_MHz"] += d
            elif pulse["kind"] == "readout":
                pulse["f_start_MHz"] += d
                pulse["f_stop_MHz"] += d
        outputs = raw["outputs"]
        for key in ("trace_window_MHz", "metrics_window_MHz"):
            if key in outputs:
                outputs[key] = _shift_window(outputs[key], d)
    if sweep:
        sweep["values"] = [sweep["values"][i] for i in variant.sweep_order]
    return raw, variant


# ---------------------------------------------------------------- reference


def reference_files(name: str, ref_dir: Path = REFERENCE_DIR) -> list[str]:
    """Artifact names the workload must write (manifest.json aside)."""
    d = ref_dir / name
    if not d.is_dir():
        raise FileNotFoundError(f"no reference outputs in {d}")
    return sorted(p.name for p in d.iterdir() if p.is_file())


def _read_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path.name}: empty file")
    return rows[0], [[float(x) for x in r] for r in rows[1:]]


def _close(actual: float, ref: float) -> bool:
    if math.isinf(ref) or math.isinf(actual):
        return actual == ref
    return abs(actual - ref) <= ATOL + RTOL * abs(ref)


def _compare_table(fname, header, rows, ref_header, ref_rows, shift):
    if header != ref_header:
        return [f"{fname}: header {header} != {ref_header}"]
    if len(rows) != len(ref_rows) or any(len(r) != len(header) for r in rows):
        return [f"{fname}: {len(rows)} rows of {header}, expected {len(ref_rows)}"]
    freq_cols = {i for i, h in enumerate(header) if h in FREQ_COLUMNS}
    errors = []
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        for j, (a, r) in enumerate(zip(row, ref)):
            if j in freq_cols:
                a -= shift
            if not _close(a, r):
                errors.append(f"{fname}: row {i} {header[j]} = {a!r}, reference {r!r}")
                if len(errors) >= 5:
                    return errors
    return errors


def check_outputs(name: str, out_dir, manifest: dict, variant: Variant,
                  ref_dir: Path = REFERENCE_DIR) -> list[str]:
    """Compare a run's artifacts with the committed reference; [] when they match."""
    out_dir = Path(out_dir)
    expected = reference_files(name, ref_dir)
    errors = []
    if sorted(manifest.get("artifacts", [])) != expected:
        errors.append(f"artifacts {manifest.get('artifacts')} != reference {expected}")
    if not (out_dir / "manifest.json").is_file():
        errors.append("manifest.json missing")
    for fname in expected:
        path, ref_path = out_dir / fname, ref_dir / name / fname
        if not path.is_file():
            errors.append(f"{fname} missing")
            continue
        if fname.endswith(".json"):
            got = json.loads(path.read_text())
            ref = json.loads(ref_path.read_text())
            if sorted(got) != sorted(ref):
                errors.append(f"{fname}: keys {sorted(got)} != {sorted(ref)}")
                continue
            errors += [f"{fname}: {k} = {got[k]!r}, reference {ref[k]!r}"
                       for k in ref if not _close(float(got[k]), float(ref[k]))]
            continue
        header, rows = _read_csv(path)
        ref_header, ref_rows = _read_csv(ref_path)
        if fname == "sweep.csv" and header and header[0] == "value":
            # A seed may permute the sweep; rows are matched by swept value.
            rows = sorted(rows, key=lambda r: r[0])
            ref_rows = sorted(ref_rows, key=lambda r: r[0])
        errors += _compare_table(fname, header, rows, ref_header, ref_rows,
                                 variant.shift_MHz)
    return errors

