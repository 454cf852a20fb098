"""Physics numbers of every preset against committed golden values.

``golden/preset_metrics.json`` holds, per preset, the numbers the
demonstration figures are read from: residual-absorption metrics, the fig3
double-exponential decay times, the fig7 pit and peak geometry, every sweep
column, and the mean optical depth of the last written spectrum.  A refactor
must reproduce them to |delta| <= ATOL + RTOL * |ref|; the relative term lets
rounding-order changes through on values near 20 that a flat absolute gate
would refuse.  Regenerate the file only for a change that is meant to move
the physics:

    PYTHONPATH=src python tests/test_golden.py
"""

import csv
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from holeburn.analysis import fit_double_exponential
from holeburn.config import parse_config
from holeburn.presets import preset, preset_names
from holeburn.runner import run_scenario

GOLDEN = Path(__file__).parent / "golden" / "preset_metrics.json"
ATOL = 1e-12
RTOL = 1e-9


def _columns(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return {h: np.array([float(r[i]) for r in rows[1:]]) for i, h in enumerate(rows[0])}


def _tailoring_geometry(spec):
    f, od = spec["freq_MHz"], spec["optical_depth"]
    floor = od[(np.abs(f) > 5.0) & (np.abs(f) < 18.0)].mean()
    center = np.abs(f) <= 5.0
    peak = od[center].max()
    above = f[center & (od >= floor + 0.5 * (peak - floor))]
    left = f[(f < -3.0) & (od >= 0.5)]
    right = f[(f > 3.0) & (od >= 0.5)]
    return {
        "pit_width_MHz": float(right.min() - left.max()),
        "peak_fwhm_MHz": float(above.max() - above.min()),
        "peak_contrast": float((peak - floor) / floor),
    }


def preset_metrics(name, out_dir):
    """Run one preset through run_scenario and read its physics numbers."""
    out = Path(out_dir)
    run_scenario(parse_config(preset(name)), out)
    numbers = {}
    if (out / "metrics.json").exists():
        metrics = json.loads((out / "metrics.json").read_text())
        for key in ("rho1_res", "remaining_total_fraction", "ground_state_ratio"):
            numbers[key] = metrics[key]
    if (out / "trace.csv").exists():
        trace = _columns(out / "trace.csv")
        fit = fit_double_exponential(trace["delay_ms"], trace["hole_area"])
        assert fit.converged
        numbers["tau1_ms"] = fit.parameters["tau1_ms"]
        numbers["tau2_ms"] = fit.parameters["tau2_ms"]
    if (out / "sweep.csv").exists():
        for col, values in _columns(out / "sweep.csv").items():
            numbers[f"sweep.{col}"] = values.tolist()
    spectra = sorted(out.glob("spectrum_*.csv")) or sorted(out.glob("baseline*.csv"))
    if spectra:
        last = _columns(spectra[-1])
        numbers["od_mean"] = float(last["optical_depth"].mean())
        if name == "fig7_tailoring":
            numbers.update(_tailoring_geometry(last))
    return numbers


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_preset(golden):
    assert sorted(golden) == sorted(preset_names())
    assert all(golden[name] for name in golden)


@pytest.mark.parametrize("name", preset_names())
def test_preset_matches_golden(name, golden, tmp_path):
    got = preset_metrics(name, tmp_path)
    ref = golden[name]
    assert sorted(got) == sorted(ref)
    for key, want in ref.items():
        have, want = np.atleast_1d(got[key]), np.atleast_1d(want)
        assert have.shape == want.shape, key
        dev = np.abs(have - want)
        assert np.all(dev <= ATOL + RTOL * np.abs(want)), (key, float(dev.max()))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = {name: preset_metrics(name, Path(tmp) / name) for name in preset_names()}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    sys.exit(0)
