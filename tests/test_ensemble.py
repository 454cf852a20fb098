import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from holeburn import ensemble
from holeburn.config import parse_config
from holeburn.engine import DriveRates, IonClassState, build_rate_matrix, evolve
from holeburn.ensemble import (
    EnsembleState,
    GridResolutionWarning,
    InhomogeneousProfile,
    Spectrum,
    absorbance,
    build_ensemble,
    hole_area,
    predicted_features,
    readout_scan,
)
from holeburn.errors import ConfigError, GridMismatchError
from holeburn.levels import RateParams, TransitionSet, ZeemanConfig
from holeburn.presets import preset, preset_names
from holeburn.runner import _prepare, run_scenario

COLD = RateParams(t1_ms=11.0, tz_ms=100.0, beta=0.9)
FIELD = ZeemanConfig(field_mT=1.2)


def _flat(span=300.0, step=0.5):
    return InhomogeneousProfile(
        center_MHz=0.0, shape="flat", grid_span_MHz=span, grid_step_MHz=step
    )


def _vec5(st):
    return np.array([st.g1, st.g2, st.e1, st.e2, st.persistent_bleached])


def test_flat_profile_equal_weights():
    ens = build_ensemble(_flat(), FIELD, COLD)
    assert np.allclose(ens.weights, ens.weights[0])


def test_gaussian_profile_halves_at_half_fwhm():
    prof = InhomogeneousProfile(
        center_MHz=0.0, fwhm_MHz=100.0, shape="gaussian",
        grid_span_MHz=300.0, grid_step_MHz=0.5,
    )
    grid = np.linspace(-150.0, 150.0, 601)
    w = prof.weights(grid)
    center = w[np.argmin(np.abs(grid))]
    edge = w[np.argmin(np.abs(grid - 50.0))]
    assert center / edge == pytest.approx(2.0, rel=1e-3)


def test_thermal_center_optical_depth_is_calibrated():
    ens = build_ensemble(_flat(), FIELD, COLD, target_od=1.0)
    assert absorbance(ens, 0.0) == pytest.approx(1.0, rel=1e-9)
    ens2 = build_ensemble(_flat(), FIELD, COLD, target_od=0.4)
    assert absorbance(ens2, 0.0) == pytest.approx(0.4, rel=1e-9)


def test_coarse_grid_warns():
    prof = InhomogeneousProfile(
        center_MHz=0.0, shape="flat", grid_span_MHz=4000.0, grid_step_MHz=100.0
    )
    with pytest.warns(GridResolutionWarning):
        build_ensemble(prof, FIELD, COLD)


def test_the_coarse_grid_warning_reads_the_step_used():
    prof = InhomogeneousProfile(center_MHz=0.0, shape="flat", grid_span_MHz=4000.0,
                                grid_step_MHz=100.0)
    with pytest.warns(GridResolutionWarning, match=r"grid step 100\.0 MHz"):
        build_ensemble(prof, FIELD, COLD)


@pytest.mark.parametrize("span", [500.3, 500.0 + 1e-9, 499.75])
def test_a_span_off_the_grid_step_is_refused(span):
    # np.linspace would take round(span / step) + 1 classes and so another
    # step: 500.3 MHz in steps of 0.5 was 0.4998 MHz, and no pump step fell on it
    with pytest.raises(ValueError, match="grid_span_MHz must be a whole number of grid steps"):
        InhomogeneousProfile(grid_span_MHz=span, grid_step_MHz=0.5)
    raw = dict(preset("fig7_tailoring"), profile={"grid_span_MHz": span})
    with pytest.raises(ConfigError, match="grid_span_MHz") as err:
        parse_config(raw)
    assert err.value.path == "profile.grid_span_MHz"


def test_a_whole_step_span_keeps_its_step():
    # 0.1 is not a float multiple of itself thrice: 30 x 0.1 is 30.000000000000004
    ens = build_ensemble(InhomogeneousProfile(grid_span_MHz=30.0, grid_step_MHz=0.1), FIELD, COLD)
    assert ens.n_classes == 301
    assert np.array_equal(ens.centers_MHz, np.linspace(-15.0, 15.0, 301))


def test_profile_validation():
    with pytest.raises(ValueError):
        InhomogeneousProfile(center_MHz=0.0, shape="flat", grid_span_MHz=1.0, grid_step_MHz=0.5)
    with pytest.raises(ValueError):
        InhomogeneousProfile(center_MHz=0.0, shape="boxcar")


def test_a_replaced_field_derives_its_own_transition_table():
    # stimulated_pumping's 1.2 mT build moved to 2 mT reads out as a fresh 2 mT
    # build with the same rates does, not with the table it was replaced from
    cfg = parse_config(preset("stimulated_pumping"))
    ens = _prepare(cfg)[0]
    moved = replace(ens, config=ZeemanConfig(field_mT=2.0))
    fresh = build_ensemble(cfg.profile, ZeemanConfig(field_mT=2.0), ens.params, target_od=None,
                           probe_linewidth_MHz=cfg.probe_linewidth_MHz)
    assert moved.transition_digest == fresh.transition_digest != ens.transition_digest
    scans = [readout_scan(e, -20.0, 20.0, 81).optical_depth for e in (moved, fresh, ens)]
    assert scans[0].tobytes() == scans[1].tobytes()
    assert np.abs(scans[0] - scans[2]).max() > 0.1


@pytest.mark.parametrize("name", ["transition_freqs", "transition_digest"])
def test_the_transition_table_is_no_argument(name):
    ens = build_ensemble(_flat(20.0, 1.0), FIELD, COLD)
    with pytest.raises(ValueError, match=name):
        replace(ens, **{name: getattr(ens, name)})
    with pytest.raises(TypeError, match=name):
        EnsembleState(FIELD, COLD, ens.centers_MHz, ens.weights, ens.populations,
                      **{name: getattr(ens, name)})


def test_inverted_class_shows_gain():
    ens = build_ensemble(_flat(), FIELD, COLD)
    idx = ens.n_classes // 2
    ens.populations[:] = 0.0
    ens.populations[:, 2] = 0.5
    ens.populations[:, 3] = 0.5
    assert absorbance(ens, ens.centers_MHz[idx]) < 0.0


def test_fully_pumped_class_doubles_other_lines():
    # Isolate a single class (zero every other weight) so the probe sees
    # only that class's four lines, not neighbours stacked on top.
    ens = build_ensemble(_flat(), FIELD, COLD)
    idx = ens.n_classes // 2
    keep = np.zeros_like(ens.weights)
    keep[idx] = ens.weights[idx]
    ens.weights = keep
    base_t1 = absorbance(ens, 0.0)
    base_t3 = absorbance(ens, -FIELD.delta_g_MHz)
    base_t4 = absorbance(ens, -(FIELD.delta_g_MHz - FIELD.delta_e_MHz))
    assert base_t1 > 0
    ens.populations[:, 0] = 0.0
    ens.populations[:, 1] = 1.0
    # g1 emptied: both g1 lines vanish, both g2 lines double.
    assert absorbance(ens, 0.0) == pytest.approx(0.0, abs=1e-3 * base_t1)
    assert absorbance(ens, FIELD.delta_e_MHz) == pytest.approx(0.0, abs=1e-3 * base_t1)
    assert absorbance(ens, -FIELD.delta_g_MHz) == pytest.approx(2.0 * base_t3, rel=1e-3)
    assert absorbance(ens, -(FIELD.delta_g_MHz - FIELD.delta_e_MHz)) == pytest.approx(
        2.0 * base_t4, rel=1e-3)


def test_readout_scan_is_snapshot():
    ens = build_ensemble(_flat(), FIELD, COLD)
    before = ens.populations.copy()
    spec = readout_scan(ens, -20.0, 20.0, 81)
    assert np.array_equal(ens.populations, before)
    assert len(spec.freqs_MHz) == 81
    assert spec.freqs_MHz[0] == -20.0 and spec.freqs_MHz[-1] == 20.0


# Probe grids over 601 classes 0.5 MHz apart: 4001 points 0.1 MHz apart lie on
# the class lattice (5 residues of 801 rows); 3001 points 0.133 MHz apart do not,
# and their kernel spans about 110 blocks; 2001 points 1 kHz apart lie on it with
# q = 500, but with 4 rows per residue they are read out from the kernel too.
LATTICE_GRID = (-200.0, 200.0, 4001)
OFF_LATTICE_GRID = (-200.0, 200.0, 3001)
FINE_GRID = (-1.0, 1.0, 2001)


def test_scan_bytes_do_not_depend_on_the_snapshots_beside_it():
    ens = build_ensemble(_flat(), FIELD, COLD)
    rng = np.random.default_rng(7)
    states = [rng.dirichlet(np.ones(5), size=ens.n_classes) for _ in range(5)]
    ens.populations[:] = states[2]
    for grid in (LATTICE_GRID, OFF_LATTICE_GRID):
        alone = readout_scan(ens, *grid)
        for stack, pos in (([states[2]], 0), (states[1:3], 1), (states, 2)):
            spectra = readout_scan(ens, *grid, stack)
            assert len(spectra) == len(stack)
            assert spectra[pos].optical_depth.tobytes() == alone.optical_depth.tobytes()
            assert np.array_equal(spectra[pos].freqs_MHz, alone.freqs_MHz)
    assert np.array_equal(ens.populations, states[2])


def test_scan_memory_does_not_grow_with_the_grid():
    # no kernel is built whole: 4001 x 2404 entries would be 73 MiB, 2001 x 2404 37 MiB
    ens = build_ensemble(_flat(), FIELD, COLD)
    for grid in (LATTICE_GRID, FINE_GRID):
        tracemalloc.start()
        try:
            readout_scan(ens, *grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, grid


@pytest.mark.parametrize("grid, q", [(LATTICE_GRID, 5), (OFF_LATTICE_GRID, 0), (FINE_GRID, 0)])
def test_the_readout_path_is_chosen_from_the_grids(grid, q):
    ens = build_ensemble(_flat(), FIELD, COLD)
    assert ensemble._probe_stride(ens.centers_MHz, np.linspace(*grid)) == q
    taken, other = ("_lattice_depth", "_dense_depth") if q else ("_dense_depth", "_lattice_depth")
    with mock.patch.object(ensemble, taken, wraps=getattr(ensemble, taken)) as path, \
            mock.patch.object(ensemble, other, side_effect=AssertionError(other)):
        readout_scan(ens, *grid)
    path.assert_called_once()


def test_every_preset_reads_out_on_the_lattice(tmp_path):
    # scans and target_od calibrations alike
    with mock.patch.object(ensemble, "_lattice_depth", wraps=ensemble._lattice_depth) as path, \
            mock.patch.object(ensemble, "_dense_depth", side_effect=AssertionError("dense")):
        for name in preset_names():
            run_scenario(parse_config(preset(name)), tmp_path / name)
            assert path.call_count >= 2, name
            path.reset_mock()


def test_scan_matches_the_direct_lorentzian_sum():
    ens = build_ensemble(_flat(span=60.0, step=0.5), FIELD, COLD)
    rng = np.random.default_rng(3)
    ens.populations[:] = rng.dirichlet(np.ones(5), size=ens.n_classes)
    spec = readout_scan(ens, -80.0, 80.0, 641)
    f0 = ens.transition_freqs
    pops = ens.populations
    diff = pops[:, list(TransitionSet.LOWER)] - pops[:, list(TransitionSet.UPPER)]
    hw2 = (0.5 * ens.probe_linewidth_MHz) ** 2
    expected = [
        ens.params.sigma_scale * sum(
            ens.weights[c] * diff[c, t] * hw2 / ((f - f0[c, t]) ** 2 + hw2)
            for c in range(ens.n_classes) for t in range(4))
        for f in spec.freqs_MHz
    ]
    assert np.allclose(spec.optical_depth, expected, rtol=1e-12, atol=1e-14)


def test_transmission_follows_beer_lambert():
    ens = build_ensemble(_flat(), FIELD, COLD, target_od=1.0)
    spec = readout_scan(ens, -5.0, 5.0, 11)
    mid = np.argmin(np.abs(spec.freqs_MHz))
    assert spec.transmission[mid] == pytest.approx(math.exp(-1.0), rel=1e-6)
    assert np.allclose(spec.transmission, np.exp(-spec.optical_depth), atol=1e-12)


def test_spectrum_invariant_enforced(tmp_path):
    path = tmp_path / "spec.csv"
    path.write_text("freq_MHz,optical_depth,transmission\n0.0,1.0,0.3\n1.0,0.5,0.6\n2.0,0.2,0.9\n")
    with pytest.raises(ValueError):
        Spectrum.from_csv(path)


def test_spectrum_csv_without_rows_is_rejected(tmp_path, recwarn):
    path = tmp_path / "spec.csv"
    path.write_text("freq_MHz,optical_depth,transmission\n")
    with pytest.raises(ValueError, match="^spectrum CSV has no data rows$"):
        Spectrum.from_csv(path)
    assert not recwarn.list


def test_spectrum_csv_roundtrip(tmp_path):
    f = np.linspace(-10.0, 10.0, 41)
    od = 1.0 / (1.0 + f**2)
    spec = Spectrum(freqs_MHz=f, optical_depth=od)
    path = tmp_path / "spec.csv"
    spec.to_csv(path)
    text = path.read_text()
    assert text.splitlines()[0] == "freq_MHz,optical_depth,transmission"
    back = Spectrum.from_csv(path)
    assert np.array_equal(back.freqs_MHz, spec.freqs_MHz)
    assert np.array_equal(back.optical_depth, spec.optical_depth)


def test_spectrum_csv_writes_each_float_as_its_repr(tmp_path):
    awkward = [5e-324, 1.7976931348623157e308, 0.1 + 0.2, -0.0, 1 / 3, 1e-7]
    spec = Spectrum(freqs_MHz=awkward, optical_depth=awkward[::-1])
    path = tmp_path / "spec.csv"
    spec.to_csv(path)
    lines = path.read_text().split("\n")
    assert lines[0] == "freq_MHz,optical_depth,transmission"
    assert lines[1:] == [f"{float(f)!r},{float(od)!r},{float(tr)!r}" for f, od, tr in zip(
        spec.freqs_MHz, spec.optical_depth, spec.transmission)] + [""]


def test_spectra_written_together_match_each_written_alone(tmp_path):
    # two spectra share a grid, one has its own, and -0.0 is not 0.0 in a CSV
    grid = np.linspace(-2.0, 2.0, 9)
    zero = grid.copy()
    zero[4] = -0.0
    specs = [Spectrum(grid, np.arange(9) / 7.0), Spectrum(grid.copy(), np.arange(9) / 3.0),
             Spectrum(grid * 3.0, np.ones(9) / 9.0), Spectrum(zero, np.arange(9) / 7.0)]
    ensemble.write_spectra([(tmp_path / f"{i}.csv", s) for i, s in enumerate(specs)])
    for i, spec in enumerate(specs):
        spec.to_csv(tmp_path / "alone.csv")
        assert (tmp_path / f"{i}.csv").read_bytes() == (tmp_path / "alone.csv").read_bytes()
        rows = zip(spec.freqs_MHz.tolist(), spec.optical_depth.tolist(),
                   spec.transmission.tolist())
        assert (tmp_path / f"{i}.csv").read_text() == "freq_MHz,optical_depth,transmission\n" + (
            "".join(f"{f!r},{od!r},{tr!r}\n" for f, od, tr in rows))
    assert (tmp_path / "3.csv").read_text().count("\n-0.0,") == 1


def test_hole_area_identical_spectra():
    f = np.linspace(-10.0, 10.0, 21)
    od = np.full_like(f, 0.7)
    a = Spectrum(freqs_MHz=f, optical_depth=od)
    b = Spectrum(freqs_MHz=f, optical_depth=od.copy())
    assert hole_area(a, b, (-5.0, 5.0)) == 0.0


def test_hole_area_rectangle():
    # 0.5 ln-unit drop over exactly 10 MHz integrates to 5
    f = np.linspace(-20.0, 20.0, 401)
    base = np.full_like(f, 1.0)
    dug = base.copy()
    dug[np.abs(f) <= 5.0] -= 0.5
    spec = Spectrum(freqs_MHz=f, optical_depth=dug)
    baseline = Spectrum(freqs_MHz=f, optical_depth=base)
    assert hole_area(spec, baseline, (-5.0, 5.0)) == pytest.approx(5.0, rel=1e-12)


def test_hole_area_grid_mismatch():
    a = Spectrum(freqs_MHz=np.array([0.0, 1.0]), optical_depth=np.array([1.0, 1.0]))
    b = Spectrum(freqs_MHz=np.array([0.0, 2.0]), optical_depth=np.array([1.0, 1.0]))
    with pytest.raises(GridMismatchError):
        hole_area(a, b, (0.0, 1.0))


def test_predicted_features_positions():
    b = 60.0 / (13.996 * 4.0)
    cfg = ZeemanConfig(field_mT=b)
    feats = predicted_features(0.0, cfg)
    by_kind = {}
    for ft in feats:
        by_kind.setdefault(ft.kind, []).append(round(ft.freq_MHz, 6))
    assert sorted(by_kind["hole"]) == [0.0, 120.0]
    assert sorted(by_kind["antihole"]) == [-180.0, -60.0]
    assert not any(ft.overlapping for ft in feats)


def test_predicted_features_degenerate_overlap():
    cfg = ZeemanConfig(field_mT=1.0, g_ground=8.0, g_excited=8.0)
    feats = predicted_features(0.0, cfg)
    overlapped = [ft for ft in feats if ft.overlapping]
    assert overlapped, "equal splittings must flag coincident features"


def test_antihole_from_pumped_class():
    # Pump one class on its lowest transition; its spare population must show
    # up at center - (dg - de).
    ens = build_ensemble(_flat(span=600.0), FIELD, COLD)
    drive = DriveRates(pump_rate=(5.0, 0.0, 0.0, 0.0), stim_rate=20.0)
    m = build_rate_matrix(COLD, drive)
    idx = ens.n_classes // 2
    st = IonClassState.thermal()
    st = evolve(st, m, 300.0)
    st = evolve(st, build_rate_matrix(COLD), 60.0)
    ens.populations[idx] = _vec5(st)
    gap = FIELD.delta_g_MHz - FIELD.delta_e_MHz
    assert absorbance(ens, -gap) > absorbance(ens, -gap - 20.0)


def test_spectral_sum_rule_conservative():
    # Holes must balance antiholes once no population is stored in the
    # excited state and nothing leaked.
    prof = _flat(span=200.0, step=0.5)
    ens = build_ensemble(prof, FIELD, COLD)
    f0, f1, n = -420.0, 420.0, 3361
    base = readout_scan(ens, f0, f1, n)
    drive = DriveRates(pump_rate=(2.0, 0.0, 0.0, 0.0))
    m = build_rate_matrix(COLD, drive)
    relax = build_rate_matrix(COLD)
    sel = np.abs(ens.centers_MHz) < 3.0
    for i in np.nonzero(sel)[0]:
        st = IonClassState(*ens.populations[i])
        st = evolve(st, m, 50.0)
        st = evolve(st, relax, 150.0)  # drain the excited state
        ens.populations[i] = _vec5(st)
    after = readout_scan(ens, f0, f1, n)
    total_before = np.trapezoid(base.optical_depth, base.freqs_MHz)
    total_after = np.trapezoid(after.optical_depth, after.freqs_MHz)
    assert total_after == pytest.approx(total_before, rel=0.01)


def test_excess_hole_area_with_stored_excited_population():
    prof = _flat(span=200.0, step=0.5)
    ens = build_ensemble(prof, FIELD, COLD)
    f0, f1, n = -420.0, 420.0, 3361
    base = readout_scan(ens, f0, f1, n)
    drive = DriveRates(pump_rate=(2.0, 0.0, 0.0, 0.0))
    m = build_rate_matrix(COLD, drive)
    sel = np.abs(ens.centers_MHz) < 3.0
    for i in np.nonzero(sel)[0]:
        st = IonClassState(*ens.populations[i])
        ens.populations[i] = _vec5(evolve(st, m, 50.0))
    after = readout_scan(ens, f0, f1, n)
    total_before = np.trapezoid(base.optical_depth, base.freqs_MHz)
    total_after = np.trapezoid(after.optical_depth, after.freqs_MHz)
    # stored excited population removes absorption twice over
    assert total_after < total_before * 0.999


def test_transmission_bounds():
    ens = build_ensemble(_flat(), FIELD, COLD)
    spec = readout_scan(ens, -100.0, 100.0, 401)
    assert np.all(spec.transmission > 0.0)
    assert np.all(spec.transmission <= 1.0)
