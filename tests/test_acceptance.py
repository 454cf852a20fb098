"""End-to-end behavior targets.

Each test checks one numbered target and prints a single PASS/FAIL line to
the live terminal (bypassing capture), so a full run reads as a checklist.
The expensive pit scenarios are computed once per module and shared.
"""

import numpy as np
import pytest

from holeburn.analysis import (
    add_noise,
    double_exponential,
    fit_double_exponential,
    fit_exponential_offset,
    fit_linear,
    fit_lorentzian,
    lorentzian,
    residual_metrics,
)
from holeburn.config import parse_config
from holeburn.engine import (
    DriveRates,
    build_rate_matrix,
    ratio_effective,
    ratio_stimulated,
    steady_state,
)
from holeburn.ensemble import hole_area, predicted_features
from holeburn.levels import RateParams, effective_lifetime
from holeburn.presets import PIT_PUMP_RATE_PER_MS, preset
from holeburn.runner import run_single
from holeburn.sequence import (
    PumpPulse,
    ReadoutPulse,
    RFPulse,
    StimulationPulse,
    compile_sequence,
    run,
)
from holeburn.ensemble import InhomogeneousProfile, build_ensemble
from holeburn.levels import ZeemanConfig


def _report(capsys, number, name, ok, detail=""):
    line = f"criterion {number:2d} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    with capsys.disabled():
        print(line)
    assert ok, line


# ------------------------------------------------------------ shared scenarios

def _pit_metrics(raw):
    cfg = parse_config(raw)
    ens, res = run_single(cfg)
    last = res.readouts[-1]
    return residual_metrics(last.spectrum, last.baseline,
                            tuple(cfg.outputs.metrics_window_MHz))


@pytest.fixture(scope="module")
def pits():
    out = {
        "standard": _pit_metrics(preset("standard_pumping_pit")),
        "stim": _pit_metrics(preset("stimulated_pumping")),
        "rf": _pit_metrics(preset("rf_pumping")),
    }
    curve = {
        0.0: out["stim"].remaining_total_fraction,
        10.0: out["rf"].remaining_total_fraction,
    }
    for v in (1.25, 2.5, 5.0, 7.5):
        raw = preset("rf_pumping")
        raw["sequence"][2]["voltage_Vpp"] = v
        curve[v] = _pit_metrics(raw).remaining_total_fraction
    out["voltages"] = sorted(curve)
    out["curve"] = [curve[v] for v in sorted(curve)]
    return out


# -------------------------------------------------------------------- criteria

def test_criterion_01_closed_form_ratios(capsys):
    checks = [
        abs(ratio_stimulated(0.95, 7.0, 100.0) - 71.0) < 1e-12,
        abs(ratio_effective(11.0, 130.0, 0.9) - (1.0 + 2.0 * 130.0 * 0.1 / 11.0)) < 1e-12,
        abs(effective_lifetime(RateParams(t1_ms=11.0, tz_ms=100.0, beta=0.9)) - 110.0)
        < 1e-12,
    ]
    _report(capsys, 1, "closed-form ratios", all(checks))


def test_criterion_02_steady_state_matches_closed_form(capsys):
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        t1 = rng.uniform(1.0, 50.0)
        tz = rng.uniform(10.0, 500.0)
        beta = rng.uniform(0.0, 0.99)
        params = RateParams(t1_ms=t1, tz_ms=tz, beta=beta)
        # saturating pump on the g1 -> e1 line only
        drive = DriveRates(pump_rate=(1e4 / t1, 0.0, 0.0, 0.0))
        st = steady_state(build_rate_matrix(params, drive))
        ratio = st.g2 / st.g1
        expected = ratio_effective(t1, tz, beta)
        worst = max(worst, abs(ratio / expected - 1.0))
    _report(capsys, 2, "steady state vs closed form", worst < 5e-3,
            f"worst rel dev {worst:.2e} over 100 draws")


def test_criterion_03_relaxation_eigenvalues(capsys):
    params = RateParams(t1_ms=11.0, tz_ms=100.0, beta=0.9)
    m = build_rate_matrix(params)
    eig = np.sort(np.linalg.eigvals(m).real)
    expected = np.sort([0.0, -1.0 / 11.0, -1.0 / 11.0, -1.0 / 100.0])
    err = np.abs(eig - expected).max()
    _report(capsys, 3, "no-drive eigenvalues", err < 1e-9, f"max dev {err:.2e}")


def test_criterion_04_hole_antihole_geometry(capsys):
    # field chosen so the ground/excited splitting difference is 60 MHz
    field = 60.0 / (13.996 * 4.0)
    raw = {
        "zeeman": {"field_mT": field},
        "rates": {"t1_ms": 11.0, "tz_ms": 100.0, "beta": 0.9},
        "profile": {"shape": "flat", "grid_span_MHz": 500.0, "grid_step_MHz": 0.25},
        "sequence": [
            {"kind": "pump", "duration_ms": 200.0, "center_MHz": 0.0,
             "power_rate_per_ms": 2.0},
            {"kind": "readout", "f_start_MHz": -250.0, "f_stop_MHz": 250.0,
             "n_points": 2001, "at_delay_ms": 30.0},
        ],
    }
    cfg = parse_config(raw)
    dg, de = cfg.zeeman.delta_g_MHz, cfg.zeeman.delta_e_MHz
    assert abs((dg - de) - 60.0) < 1e-9
    ens, res = run_single(cfg)
    assert ens.n_classes == 2001
    spec, base = res.readouts[-1].spectrum, res.readouts[-1].baseline
    diff = spec.optical_depth - base.optical_depth
    f = spec.freqs_MHz
    step = f[1] - f[0]

    feats = predicted_features(0.0, cfg.zeeman)
    holes = [x.freq_MHz for x in feats if x.kind == "hole"]
    antis = [x.freq_MHz for x in feats if x.kind == "antihole"]
    assert sorted(holes) == [0.0, de]
    assert sorted(antis) == [-dg, -(dg - de)]

    def _extremum(p, sign):
        m = np.abs(f - p) <= 10.0
        idx = np.nonzero(m)[0]
        j = idx[np.argmin(diff[idx])] if sign < 0 else idx[np.argmax(diff[idx])]
        return float(f[j]), float(diff[j])

    ok = True
    details = []
    for p in holes:
        fx, dx = _extremum(p, -1)
        ok &= abs(fx - p) <= step + 1e-9 and dx < 0
        details.append(f"hole {p:+.0f}->{fx:+.2f}")
    # the pit-flanking antiholes sit at +-(dg - de) as well as at -dg
    for p in sorted(antis) + [dg - de]:
        fx, dx = _extremum(p, +1)
        ok &= abs(fx - p) <= step + 1e-9 and dx > 0
        details.append(f"antihole {p:+.0f}->{fx:+.2f}")
    _report(capsys, 4, "hole/antihole geometry", ok, ", ".join(details))


def test_criterion_05_fit_recoveries(capsys):
    t = np.geomspace(0.5, 400.0, 60)
    y = double_exponential(t, 1.0, 11.0, 0.3, 100.0, 0.05)
    p = fit_double_exponential(t, y).parameters
    ok_noiseless = (
        abs(p["tau1_ms"] / 11.0 - 1.0) < 1e-3 and abs(p["tau2_ms"] / 100.0 - 1.0) < 1e-3
    )

    t2 = np.geomspace(0.2, 600.0, 400)
    y2 = add_noise(double_exponential(t2, 1.0, 11.0, 0.5, 100.0, 0.05), 0.01, seed=1234)
    p2 = fit_double_exponential(t2, y2).parameters
    ok_noisy = (
        abs(p2["tau1_ms"] / 11.0 - 1.0) < 0.05 and abs(p2["tau2_ms"] / 100.0 - 1.0) < 0.05
    )

    fgrid = np.linspace(-30000.0, 30000.0, 201)
    yl = lorentzian(fgrid, -0.8, 0.0, 14000.0, 1.0)
    pl = fit_lorentzian(fgrid, yl).parameters
    ok_lorentz = abs(pl["fwhm_MHz"] / 14000.0 - 1.0) < 1e-3

    _report(capsys, 5, "fit recoveries", ok_noiseless and ok_noisy and ok_lorentz,
            f"taus ({p['tau1_ms']:.3f}, {p['tau2_ms']:.2f}), "
            f"noisy ({p2['tau1_ms']:.2f}, {p2['tau2_ms']:.1f}), "
            f"fwhm {pl['fwhm_MHz']:.1f}")


def test_criterion_06_stimulation_rate_linearity(capsys):
    powers = [5.0, 10.0, 20.0]
    rates, offsets = [], []
    for power in powers:
        raw = preset("fig5_stimulation_rates")
        raw["sequence"][1]["power_mW"] = power
        sweep_values = raw["outputs"]["sweep"]["values"]
        raw["outputs"] = {"trace_window_MHz": raw["outputs"]["trace_window_MHz"],
                          "spectra": False}
        taus, areas = [], []
        for v in sweep_values:
            raw_v = dict(raw)
            raw_v["sequence"] = [dict(p) for p in raw["sequence"]]
            raw_v["sequence"][1]["duration_ms"] = v
            cfg = parse_config(raw_v)
            _, res = run_single(cfg)
            taus.append(v - 100.0)
            last = res.readouts[-1]
            areas.append(hole_area(last.spectrum, last.baseline,
                                   cfg.outputs.trace_window_MHz))
        areas = np.asarray(areas) / areas[0]
        fit = fit_exponential_offset(np.asarray(taus), areas)
        rates.append(fit.parameters["rate_per_ms"])
        offsets.append(fit.parameters["offset"])
    lin = fit_linear(np.asarray(powers), np.asarray(rates)).parameters
    ok = lin["r_squared"] > 0.99 and all(abs(o - 0.1) <= 0.02 for o in offsets)
    _report(capsys, 6, "stimulation rate linearity", ok,
            f"rates {[f'{r:.3f}' for r in rates]}, r2 {lin['r_squared']:.5f}, "
            f"offsets {[f'{o:.3f}' for o in offsets]}")


def test_criterion_07_monotone_improvement(capsys, pits):
    rem_std = pits["standard"].remaining_total_fraction
    rem_stim = pits["stim"].remaining_total_fraction
    rem_rf = pits["rf"].remaining_total_fraction
    chain = rem_std > rem_stim > rem_rf

    curve = pits["curve"]
    voltages = pits["voltages"]
    non_increasing = all(b <= a + 1e-9 for a, b in zip(curve, curve[1:]))
    by_v = dict(zip(voltages, curve))
    gain_0_5 = by_v[0.0] - by_v[5.0]
    gain_5_10 = by_v[5.0] - by_v[10.0]
    flattens = gain_5_10 < gain_0_5
    _report(capsys, 7, "monotone improvement", chain and non_increasing and flattens,
            f"std {rem_std:.3f} > stim {rem_stim:.3f} > rf {rem_rf:.3f}; "
            f"gain 0-5V {gain_0_5:.4f} vs 5-10V {gain_5_10:.4f}")


def test_criterion_08_calibration_reproduction(capsys, pits):
    stim = pits["stim"]
    rf = pits["rf"]
    targets_ok = (
        abs(stim.rho1_res - 0.25) <= 0.02
        and abs(stim.ground_state_ratio - 7.0) <= 0.6
        and abs(stim.remaining_total_fraction - 0.125) <= 0.01
        and abs(rf.remaining_total_fraction - 0.08) <= 0.01
    )

    # Calibration search: bisect the pump peak rate to the rho1_res target
    # and require it to land on the committed preset value.
    def rho1(rate):
        raw = preset("stimulated_pumping")
        raw["sequence"][0]["power_rate_per_ms"] = rate
        return _pit_metrics(raw).rho1_res

    lo, hi = 0.8, 3.2
    r_lo, r_hi = rho1(lo), rho1(hi)
    search_ok = r_lo > 0.25 > r_hi
    for _ in range(5):
        mid = 0.5 * (lo + hi)
        if rho1(mid) > 0.25:
            lo = mid
        else:
            hi = mid
    found = 0.5 * (lo + hi)
    committed = preset("stimulated_pumping")["sequence"][0]["power_rate_per_ms"]
    search_ok &= committed == PIT_PUMP_RATE_PER_MS
    search_ok &= abs(found - committed) <= 0.15

    _report(capsys, 8, "calibration reproduction", targets_ok and search_ok,
            f"rho1 {stim.rho1_res:.3f}, ratio {stim.ground_state_ratio:.2f}, "
            f"rf remaining {rf.remaining_total_fraction:.3f}, "
            f"search {found:.3f} vs committed {committed}")


def test_criterion_09_spectral_tailoring(capsys):
    cfg = parse_config(preset("fig7_tailoring"))
    _, res = run_single(cfg)
    assert res.stats["n_sweep_periods"] == 2000
    spec = res.readouts[-1].spectrum
    f, od = spec.freqs_MHz, spec.optical_depth

    floor = od[(np.abs(f) > 5.0) & (np.abs(f) < 18.0)].mean()
    center = np.abs(f) <= 5.0
    peak = od[center].max()
    half = floor + 0.5 * (peak - floor)
    above = f[center & (od >= half)]
    fwhm = above.max() - above.min()

    left = f[(f < -3.0) & (od >= 0.5)]
    right = f[(f > 3.0) & (od >= 0.5)]
    pit_lo = left.max() if len(left) else f[0]
    pit_hi = right.min() if len(right) else f[-1]
    pit_width = pit_hi - pit_lo

    ok = (
        pit_width >= 40.0
        and abs(fwhm - 2.0) <= 1.0
        and (peak - floor) >= 3.0 * floor
    )
    _report(capsys, 9, "spectral tailoring", ok,
            f"pit {pit_width:.1f} MHz, peak fwhm {fwhm:.2f} MHz, "
            f"peak {peak:.3f} vs floor {floor:.3f}")


def test_criterion_10_conservation_and_sum_rule(capsys):
    rng = np.random.default_rng(20240817)
    params = RateParams(t1_ms=11.0, tz_ms=100.0, beta=0.9, persistent_fraction=0.0)
    field = ZeemanConfig(field_mT=1.2)
    prof = InhomogeneousProfile(center_MHz=0.0, shape="flat",
                                grid_span_MHz=120.0, grid_step_MHz=1.0)
    worst_cons = 0.0
    worst_sum = 0.0
    for _ in range(50):
        pulses = []
        dur = float(rng.uniform(5.0, 40.0))
        pump = {
            "start_ms": 0.0,
            "duration_ms": dur,
            "center_MHz": float(rng.uniform(-30.0, 30.0)),
            "power_rate_per_ms": float(rng.uniform(0.5, 5.0)),
        }
        if rng.random() < 0.4:
            pump["sweep_span_MHz"] = float(rng.uniform(5.0, 15.0))
            pump["sweep_period_ms"] = 0.1
        pulses.append(PumpPulse(**pump))
        if rng.random() < 0.5:
            pulses.append(StimulationPulse(start_ms=0.0, duration_ms=dur,
                                           power_mW=float(rng.uniform(5.0, 50.0))))
        if rng.random() < 0.5:
            pulses.append(RFPulse(start_ms=0.0, duration_ms=dur, center_MHz=135.0,
                                  bandwidth_MHz=15.0,
                                  voltage_Vpp=float(rng.uniform(1.0, 10.0))))
        # long delay so the excited state is drained before the scan
        pulses.append(ReadoutPulse(f_start_MHz=-420.0, f_stop_MHz=420.0,
                                   n_points=1681, at_delay_ms=80.0))
        ens = build_ensemble(prof, field, params)
        res = run(ens, compile_sequence(pulses))
        totals = ens.populations.sum(axis=1)
        worst_cons = max(worst_cons, float(np.abs(totals - 1.0).max()))
        spec, base = res.readouts[-1].spectrum, res.readouts[-1].baseline
        before = np.trapezoid(base.optical_depth, base.freqs_MHz)
        after = np.trapezoid(spec.optical_depth, spec.freqs_MHz)
        worst_sum = max(worst_sum, abs(after / before - 1.0))
    ok = worst_cons < 1e-9 and worst_sum < 0.01
    _report(capsys, 10, "conservation and sum rule", ok,
            f"worst conservation {worst_cons:.2e}, worst sum-rule dev {worst_sum:.2%}")
