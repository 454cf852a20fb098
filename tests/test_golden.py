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

# The matrices each preset exponentiates (the manifest's n_expm_matrices): 4x4,
# or 5x5 for fig5, whose generators leak into the trap state.  A repeated
# pump-off item or readout gap is exponentiated once per run.
# A change in which classes and steps share a propagator shows here even when
# the outputs stay within tolerance.
N_EXPM = {
    "baseline": 0,
    "fig3_standard_pumping": 1014,
    "fig4_stimulation_spectrum": 8017,
    "fig5_stimulation_rates": 10020,
    "fig6_rf_power": 30572,
    "fig7_tailoring": 1103,
    "rf_pumping": 5097,
    "standard_pumping_pit": 5096,
    "stimulated_pumping": 5097,
}

# The lattice facts each manifest reports: the class step the centres use,
# each readout pass's probe stride q on the class lattice (0 would be the
# dense kernel) and each pumped group's residue count, the stacks of distinct
# pump detunings it exponentiates.  The pit presets step their sweeps 0.2 MHz
# on a 0.5 MHz grid, five residues; fig7 steps 0.5 MHz, one.  A change that
# leaves a lattice fails here, however close its outputs stay.
LATTICE = {
    "baseline": ([1], []),
    "fig3_standard_pumping": ([5], [1]),
    "fig4_stimulation_spectrum": ([5], [1]),
    "fig5_stimulation_rates": ([5], [1]),
    "fig6_rf_power": ([5], [5]),
    "fig7_tailoring": ([10], [1]),
    "rf_pumping": ([5], [5]),
    "standard_pumping_pit": ([5], [5]),
    "stimulated_pumping": ([5], [5]),
}


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
    assert sorted(golden) == sorted(preset_names()) == sorted(N_EXPM) == sorted(LATTICE)
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
    stats = json.loads((tmp_path / "manifest.json").read_text())["stats"]
    assert stats["n_expm_matrices"] == N_EXPM[name]


@pytest.mark.parametrize("name", preset_names())
def test_every_preset_reads_out_and_sweeps_on_the_lattice(name, tmp_path):
    stats = run_scenario(parse_config(preset(name)), tmp_path)["stats"]
    written = json.loads((tmp_path / "manifest.json").read_text())["stats"]
    readout_q, pump_residues = LATTICE[name]
    for got in (stats, written):
        assert (got["class_step_MHz"], got["readout_q"], got["pump_residues"]) \
            == (0.5, readout_q, pump_residues)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = {name: preset_metrics(name, Path(tmp) / name) for name in preset_names()}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    sys.exit(0)
