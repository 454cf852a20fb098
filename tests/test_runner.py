import csv
import json
from dataclasses import asdict, fields, replace

import numpy as np
import pytest

from holeburn import engine, ensemble, runner, sequence
from holeburn.analysis import residual_metrics
from holeburn.config import ExperimentConfig, apply_override, parse_config, serialize_config
from holeburn.ensemble import Spectrum, hole_area
from holeburn.errors import ConfigError
from holeburn.presets import preset
from holeburn.runner import run_scenario


def _pumped(*readouts, outputs=None):
    return {
        "zeeman": {"field_mT": 1.2},
        "rates": {"t1_ms": 11.0, "tz_ms": 100.0, "beta": 0.9},
        "profile": {"grid_span_MHz": 40.0, "grid_step_MHz": 1.0},
        "sequence": [
            {"kind": "pump", "duration_ms": 10.0, "center_MHz": 0.0,
             "power_rate_per_ms": 2.0},
            *({"kind": "readout", **r} for r in readouts),
        ],
        "outputs": outputs or {},
    }


def test_baselines_follow_readout_grids_in_order_of_first_use(tmp_path):
    # The wide-grid readout is listed first but comes last in delay order,
    # so its grid is the second one used and the metrics must be taken on it.
    wide = {"f_start_MHz": -15.0, "f_stop_MHz": 15.0, "n_points": 61, "at_delay_ms": 5.0}
    narrow = {"f_start_MHz": -5.0, "f_stop_MHz": 5.0, "n_points": 21, "at_delay_ms": 1.0}
    raw = _pumped(wide, narrow, outputs={"metrics_window_MHz": [-2.0, 2.0]})
    manifest = run_scenario(parse_config(raw), tmp_path)

    assert manifest["artifacts"] == [
        "baseline.csv", "baseline_1.csv", "spectrum_000.csv", "spectrum_001.csv",
        "metrics.json",
    ]
    first, second = (Spectrum.from_csv(tmp_path / n) for n in ("baseline.csv", "baseline_1.csv"))
    assert (first.freqs_MHz[0], first.freqs_MHz[-1], len(first.freqs_MHz)) == (-5.0, 5.0, 21)
    assert (second.freqs_MHz[0], second.freqs_MHz[-1], len(second.freqs_MHz)) == (-15.0, 15.0, 61)

    last = Spectrum.from_csv(tmp_path / "spectrum_001.csv")
    expected = residual_metrics(last, second, (-2.0, 2.0))
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    assert metrics == asdict(expected)
    assert metrics["rho1_res"] < 1.0


def _point_sweep(values):
    ro = {"f_start_MHz": -5.0, "f_stop_MHz": 5.0, "n_points": 21, "at_delay_ms": 1.0}
    return _pumped(ro, outputs={"metrics_window_MHz": [-2.0, 2.0],
                                "sweep": {"path": "sequence[1].n_points", "values": values}})


def test_sweep_over_an_integer_field(tmp_path):
    manifest = run_scenario(parse_config(_point_sweep([41, 81])), tmp_path)
    # one kernel pass per point over its 41 classes, summed over the sweep
    assert manifest["stats"]["n_kernel_evals"] == (41 + 81) * 4 * 41
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0].split(",")[0] == "value"
    assert [line.split(",")[0] for line in lines[1:]] == ["41.0", "81.0"]
    # a finer readout grid samples the same pit: the residuals agree closely
    rho1 = [float(line.split(",")[lines[0].split(",").index("rho1_res")])
            for line in lines[1:]]
    assert rho1[0] == pytest.approx(rho1[1], rel=0.05)


def test_sweep_rejects_a_fractional_integer(tmp_path, monkeypatch):
    ran = []
    # advance is what evolves each sweep point
    real_advance = runner.advance
    monkeypatch.setattr(runner, "advance", lambda *args: ran.append(args) or real_advance(*args))
    out = tmp_path / "out"
    with pytest.raises(ConfigError) as err:
        run_scenario(parse_config(_point_sweep([41, 41.5])), out)
    assert err.value.path == "sequence[1].n_points"
    # the bad second value fails before the first point runs or anything is written
    assert ran == []
    assert not out.exists()


_WINDOWS = {"trace_window_MHz": [-3.0, 3.0], "metrics_window_MHz": [-2.0, 2.0]}


def _drive_sweep(path, values):
    ro = {"f_start_MHz": -5.0, "f_stop_MHz": 5.0, "n_points": 21, "at_delay_ms": 1.0}
    return _pumped(ro, outputs={**_WINDOWS, "sweep": {"path": path, "values": values}})


def _single_rows(raw, path, values):
    """sweep.csv lines rebuilt from running each point alone."""
    lines = []
    for value in values:
        point = apply_override(raw, path, value)
        point["outputs"] = dict(point["outputs"], sweep=None)
        _, result = runner.run_single(parse_config(point))
        last = result.readouts[-1]
        area = hole_area(last.spectrum, last.baseline, tuple(_WINDOWS["trace_window_MHz"]))
        metrics = residual_metrics(last.spectrum, last.baseline,
                                   tuple(_WINDOWS["metrics_window_MHz"]))
        lines.append(",".join(map(repr, [float(value), area, *asdict(metrics).values()])))
    return [",".join(["value", "hole_area", *asdict(metrics)])] + lines


def test_sweep_points_share_one_kernel_pass(tmp_path, monkeypatch):
    scanned = []
    real_scan = sequence.readout_scan

    def spy(ens, f_start, f_stop, n_points, snapshots):
        scanned.append(len(snapshots))
        return real_scan(ens, f_start, f_stop, n_points, snapshots)

    monkeypatch.setattr(sequence, "readout_scan", spy)
    path, values = "sequence[0].power_rate_per_ms", [1.0, 2.0, 3.0]
    raw = _drive_sweep(path, values)
    manifest = run_scenario(parse_config(raw), tmp_path)
    # one pass over the 41 classes, counted once for the whole sweep
    assert manifest["stats"]["n_kernel_evals"] == 21 * 4 * 41
    # the three thermal initial states are byte-equal: one baseline row
    assert scanned == [1 + len(values)]
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines == _single_rows(raw, path, values)


def test_sweep_points_with_different_kernels_get_their_own_passes(tmp_path):
    # target_od rescales sigma, so no two points share a kernel
    path, values = "target_od", [0.5, 1.0, 2.0]
    raw = dict(_drive_sweep(path, values), target_od=1.0)
    manifest = run_scenario(parse_config(raw), tmp_path)
    assert manifest["stats"]["n_kernel_evals"] == len(values) * 21 * 4 * 41
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines == _single_rows(raw, path, values)


def test_sweep_scans_flush_past_the_budget(tmp_path, monkeypatch):
    raw = _drive_sweep("sequence[0].power_rate_per_ms", [1.0, 2.0, 3.0, 4.0, 5.0])
    run_scenario(parse_config(raw), tmp_path / "whole")
    # each point holds its initial state and one snapshot: 2 x 41 x 5 entries
    monkeypatch.setattr(runner, "SCAN_BUDGET_ENTRIES", 3 * 41 * 5)
    manifest = run_scenario(parse_config(raw), tmp_path / "flushed")
    # passes over points 1-2, 3-4 and 5
    assert manifest["stats"]["n_kernel_evals"] == 3 * 21 * 4 * 41
    assert ((tmp_path / "flushed" / "sweep.csv").read_bytes()
            == (tmp_path / "whole" / "sweep.csv").read_bytes())


def _spy(monkeypatch, module, name):
    """The argument tuples of every call of module.name, recorded as they are made."""
    calls, real = [], getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


def test_sweep_points_with_equal_ensemble_fields_share_one_build(tmp_path, monkeypatch):
    # fig4 sweeps the stimulation detuning, which the ensemble does not read
    built = _spy(monkeypatch, runner, "build_ensemble")
    cfg = parse_config(preset("fig4_stimulation_spectrum"))
    assert len(cfg.outputs.sweep.values) == 15
    run_scenario(cfg, tmp_path)
    assert len(built) == 1


def test_sweep_points_with_other_rates_get_their_own_builds(tmp_path, monkeypatch):
    # tz_ms is an ensemble field: one build (and target_od calibration) per distinct value
    path, values = "rates.tz_ms", [50.0, 100.0, 50.0, 200.0]
    raw = _drive_sweep(path, values)
    built = _spy(monkeypatch, runner, "build_ensemble")
    run_scenario(parse_config(raw), tmp_path)
    assert [args[2].tz_ms for args in built] == [50.0, 100.0, 200.0]
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines == _single_rows(raw, path, values)
    rows = [line.split(",")[1:] for line in lines[1:]]
    assert rows[0] == rows[2] != rows[1]


_DETUNING = "drive.stim_detuning_MHz"


def _stim_detuning_sweep(values):
    raw = dict(_drive_sweep(_DETUNING, values), drive={"stim_detuning_MHz": 0.0})
    raw["sequence"].insert(1, {"kind": "stimulation", "duration_ms": 10.0, "power_mW": 20.0})
    return raw


def _single_expm(raw, value):
    point = apply_override(raw, _DETUNING, value)
    point["outputs"] = dict(point["outputs"], sweep=None)
    return runner.run_single(parse_config(point))[1].stats["n_expm_matrices"]


def test_sweep_points_with_equal_generators_share_one_evolution(tmp_path):
    # the stimulation rate sees the detuning only through its square, so -d
    # and d build byte-equal generators at one power, and e does not; the
    # 1 ms drive-free gap is the same at every point and exponentiated once
    values = [-3000.0, 3000.0, 7000.0]
    raw = _stim_detuning_sweep(values)
    manifest = run_scenario(parse_config(raw), tmp_path)
    assert manifest["stats"]["n_expm_matrices"] == 2 * _single_expm(raw, values[0]) - 1
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines == _single_rows(raw, _DETUNING, values)
    rows = [line.split(",")[1:] for line in lines[1:]]
    assert rows[0] == rows[1] != rows[2]


def test_no_evolution_is_reused_across_a_scan_flush(tmp_path, monkeypatch):
    raw = _stim_detuning_sweep([-3000.0, 3000.0, 7000.0, -3000.0, 3000.0])
    near, far = _single_expm(raw, 3000.0), _single_expm(raw, 7000.0)
    whole = run_scenario(parse_config(raw), tmp_path / "whole")
    # the drive-free gap is shared by every point: one matrix fewer
    assert whole["stats"]["n_expm_matrices"] == near + far - 1
    # each evolved point holds 2 x 41 x 5 entries and a memo hit holds none;
    # the store's 41 x 4 pump rates, slot start, residue count, gap and two
    # 4 x 4 drive matrices (the pumped item's and the gap's) add 214, and
    # point 3 adds its own drive matrix, so the budget is passed at point 3,
    # not at point 2
    monkeypatch.setattr(runner, "SCAN_BUDGET_ENTRIES", 3 * 41 * 5 + 2 * 16)
    flushed = run_scenario(parse_config(raw), tmp_path / "flushed")
    # the scan empties the memo and the store, so point 4 is evolved again,
    # its gap included, and point 5 reuses it
    assert flushed["stats"]["n_expm_matrices"] == 2 * near + far - 1
    assert ((tmp_path / "flushed" / "sweep.csv").read_bytes()
            == (tmp_path / "whole" / "sweep.csv").read_bytes())


@pytest.mark.parametrize("name, compiles", [
    # fig4 sweeps the stimulation detuning, which the sequence does not hold
    ("fig4_stimulation_spectrum", 1),
    # fig6 sweeps sequence[2].voltage_Vpp: each point has its own sequence
    ("fig6_rf_power", 6),
])
def test_sweep_points_with_equal_sequences_share_one_compile(tmp_path, monkeypatch, name,
                                                             compiles):
    compiled = _spy(monkeypatch, runner, "compile_sequence")
    run_scenario(parse_config(preset(name)), tmp_path)
    assert len(compiled) == compiles


def test_sweep_points_share_one_pump_rate_stack(tmp_path, monkeypatch):
    # the RF voltage changes the drive matrix, not the pump's Lorentzian rates
    profiles = _spy(monkeypatch, engine, "pump_rate_profile")
    run_scenario(parse_config(preset("fig6_rf_power")), tmp_path)
    assert len(profiles) == 1


def test_a_pump_centre_sweep_builds_one_pump_rate_stack_per_value(tmp_path, monkeypatch):
    path, values = "sequence[0].center_MHz", [-1.0, 0.0, 1.0]
    raw = _drive_sweep(path, values)
    profiles = _spy(monkeypatch, engine, "pump_rate_profile")
    run_scenario(parse_config(raw), tmp_path)
    assert len(profiles) == len(values)
    assert (tmp_path / "sweep.csv").read_text().splitlines() == _single_rows(raw, path, values)


def test_equal_readout_gaps_share_one_exponential(tmp_path, monkeypatch):
    # fig3's 17 readouts after one pumped item leave gaps of 13 distinct lengths
    cfg = parse_config(preset("fig3_standard_pumping"))
    calls = _spy(monkeypatch, engine, "propagator_batch")
    manifest = run_scenario(cfg, tmp_path)
    delays = sorted(p.at_delay_ms for p in cfg.sequence if isinstance(p, sequence.ReadoutPulse))
    gaps = {b - a for a, b in zip([0.0] + delays, delays)}
    assert (len(delays), len(gaps)) == (17, 13)
    assert sorted(dt for matrices, dt in calls if len(matrices) == 1) == sorted(gaps)
    assert len(calls) == 1 + len(gaps)
    assert manifest["stats"]["n_expm_matrices"] == 1014


def test_a_sweep_computes_its_kernel_key_once_per_build(tmp_path, monkeypatch):
    # fig4's 15 points share one ensemble build and one scan
    keys = _spy(monkeypatch, sequence, "kernel_key")
    run_scenario(parse_config(preset("fig4_stimulation_spectrum")), tmp_path)
    assert len(keys) == 1


def test_a_sweep_derives_its_transition_table_once_per_build(tmp_path, monkeypatch):
    # fig4's 15 points, its kernel key and its target_od calibration all read
    # the table and digest its one build derived
    derived = _spy(monkeypatch, ensemble, "transition_set")
    run_scenario(parse_config(preset("fig4_stimulation_spectrum")), tmp_path)
    assert len(derived) == 1


def test_a_sweep_builds_each_distinct_drive_matrix_once(tmp_path, monkeypatch):
    # fig4's 15 points group 45 segments and gaps over 9 distinct drives: the
    # stimulation rate at 8 distinct |detuning|s, and no drive in the readout gap
    built = _spy(monkeypatch, engine, "build_rate_matrix")
    run_scenario(parse_config(preset("fig4_stimulation_spectrum")), tmp_path)
    assert len(built) == len({(params, drive) for params, drive in built}) == 9


@pytest.mark.parametrize("name, snapshots", [
    # one thermal initial state, and 8 distinct evolutions of 15 points
    ("fig4_stimulation_spectrum", 1 + 8),
    # one thermal initial state, and 6 points that each evolve their own voltage
    ("fig6_rf_power", 1 + 6),
])
def test_a_sweep_reads_out_its_distinct_snapshots_in_one_pass(tmp_path, monkeypatch, name,
                                                              snapshots):
    scanned = _spy(monkeypatch, sequence, "readout_scan")
    run_scenario(parse_config(preset(name)), tmp_path)
    assert [len(args[4]) for args in scanned] == [snapshots]


def test_an_rf_voltage_sweep_of_a_swept_pit_matches_its_single_runs(tmp_path):
    # a small fig6: the points share the pump-rate stack of the swept pump, the
    # stimulation-only tail and the readout gap, and nothing else
    raw = preset("fig6_rf_power")
    raw["profile"] = {"grid_span_MHz": 24.0, "grid_step_MHz": 0.5}
    raw["sequence"][0]["duration_ms"] = 2.0
    raw["sequence"][1]["duration_ms"] = 3.0
    raw["sequence"][2]["duration_ms"] = 2.0
    path, values = "sequence[2].voltage_Vpp", [0.0, 5.0, 10.0]
    raw["outputs"] = {**_WINDOWS, "sweep": {"path": path, "values": values}}
    manifest = run_scenario(parse_config(raw), tmp_path)
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines == _single_rows(raw, path, values)
    assert len(set(line.split(",", 1)[1] for line in lines[1:])) == len(values)
    singles = []
    for value in values:
        point = apply_override(raw, path, value)
        point["outputs"] = dict(point["outputs"], sweep=None)
        singles.append(runner.run_single(parse_config(point))[1].stats["n_expm_matrices"])
    # every point after the first reuses the tail's and the gap's exponential
    assert manifest["stats"]["n_expm_matrices"] == sum(singles) - 2 * (len(values) - 1)


def test_a_sweep_sums_its_product_rows_over_its_points(tmp_path):
    # each voltage multiplies its own cycle: the stack moves 2 slots per 5 steps
    raw = preset("fig6_rf_power")
    raw["profile"] = {"grid_span_MHz": 24.0, "grid_step_MHz": 0.5}
    path, values = "sequence[2].voltage_Vpp", [0.0, 5.0, 10.0]
    raw["outputs"] = {**_WINDOWS, "sweep": {"path": path, "values": values}}
    manifest = run_scenario(parse_config(raw), tmp_path)
    singles = []
    for value in values:
        point = apply_override(raw, path, value)
        point["outputs"] = dict(point["outputs"], sweep=None)
        singles.append(runner.run_single(parse_config(point))[1].stats["n_product_rows"])
    assert manifest["stats"]["n_product_rows"] == sum(singles) == 3 * singles[0] > 0


def test_spectra_on_one_grid_are_written_as_each_alone(tmp_path):
    # the baseline and both spectra share one readout grid, formatted once
    ro = {"f_start_MHz": -5.0, "f_stop_MHz": 5.0, "n_points": 21}
    raw = _pumped(dict(ro, at_delay_ms=1.0), dict(ro, at_delay_ms=3.0))
    manifest = run_scenario(parse_config(raw), tmp_path / "run")
    result = runner.run_single(parse_config(raw))[1]
    alone = [result.readouts[0].baseline] + [r.spectrum for r in result.readouts]
    assert manifest["artifacts"] == ["baseline.csv", "spectrum_000.csv", "spectrum_001.csv"]
    for name, spec in zip(manifest["artifacts"], alone):
        spec.to_csv(tmp_path / "alone.csv")
        assert (tmp_path / "run" / name).read_bytes() == (tmp_path / "alone.csv").read_bytes()


def _swept(path, values):
    """A config of every section, drive included, that sweeps path through values."""
    ro = {"f_start_MHz": -5.0, "f_stop_MHz": 5.0, "n_points": 21, "at_delay_ms": 1.0}
    raw = dict(_pumped(ro, outputs={"sweep": {"path": path, "values": values}}),
               drive={"stim_detuning_MHz": 0.0}, dt_max_ms=0.5)
    raw["sequence"].append({"kind": "stimulation", "duration_ms": 10.0, "power_mW": 20.0})
    return parse_config(raw)


def _parsed_whole(cfg, value):
    """The point of a sweep value parsed as a whole overridden config, its sweep cleared."""
    raw = serialize_config(cfg)
    raw["outputs"]["sweep"] = None
    return parse_config(apply_override(raw, cfg.outputs.sweep.path,
                                       int(value) if float(value).is_integer() else value))


@pytest.mark.parametrize("path, values, field", [
    ("drive.stim_detuning_MHz", [-2.5, 0.0, 3.0], "drive"),
    ("rates.beta", [0.5, 0.75], "rates"),
    ("profile.grid_step_MHz", [0.5, 2.0], "profile"),
    ("sequence[1].n_points", [41.0, 81.0], "sequence"),
    ("sequence[2].power_mW", [5.0, 12.5], "sequence"),
    ("dt_max_ms", [0.25, 1.0], "dt_max_ms"),
])
def test_a_sweep_point_reparses_only_the_swept_field(path, values, field):
    cfg = _swept(path, values)
    points = runner._sweep_points(cfg)
    assert [value for value, _ in points] == values
    for value, point in points:
        assert point == _parsed_whole(cfg, value)
        for f in fields(ExperimentConfig):
            if f.name not in (field, "outputs"):
                assert getattr(point, f.name) is getattr(cfg, f.name), f.name
        assert point.outputs == replace(cfg.outputs, sweep=None)


@pytest.mark.parametrize("path, value", [
    ("rates.beta", 1.5),
    ("sequence[1].n_points", 41.5),
    ("target_od", -1.0),
    ("dt_max_ms", 0.0),
    ("nope.x", 1.0),
    ("sequence[9].duration_ms", 1.0),
    ("rates..beta", 1.0),
    ("outputs", 1.0),
])
def test_a_bad_sweep_value_fails_as_the_whole_config_would(path, value):
    cfg = _swept(path, [value])
    with pytest.raises(ConfigError) as whole:
        _parsed_whole(cfg, value)
    with pytest.raises(ConfigError) as point:
        runner._sweep_points(cfg)
    assert (point.value.path, point.value.message) == (whole.value.path, whole.value.message)


def test_a_run_equals_the_one_value_sweep_of_itself(tmp_path):
    ro = {"f_start_MHz": -5.0, "f_stop_MHz": 5.0, "n_points": 21}
    raw = _pumped({**ro, "at_delay_ms": 3.0}, {**ro, "at_delay_ms": 1.0}, outputs=_WINDOWS)
    swept = dict(raw, outputs={**_WINDOWS, "sweep": {"path": "sequence[0].power_rate_per_ms",
                                                     "values": [2.0]}})
    manifests = [run_scenario(parse_config(r), tmp_path / name)
                 for name, r in (("run", raw), ("sweep", swept))]
    assert manifests[0]["stats"] == manifests[1]["stats"]
    header, row = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
    metrics = json.loads((tmp_path / "run" / "metrics.json").read_text())
    *_, last = (tmp_path / "run" / "trace.csv").read_text().splitlines()
    assert (dict(zip(header.split(","), map(float, row.split(","))))
            == {"value": 2.0, "hole_area": float(last.split(",")[1]), **metrics})


def test_kernel_evals_count_one_pass_per_grid(tmp_path):
    wide = {"f_start_MHz": -15.0, "f_stop_MHz": 15.0, "n_points": 61}
    narrow = {"f_start_MHz": -5.0, "f_stop_MHz": 5.0, "n_points": 21}
    raw = _pumped({**wide, "at_delay_ms": 5.0}, {**narrow, "at_delay_ms": 1.0},
                  {**narrow, "at_delay_ms": 2.0}, {**narrow, "at_delay_ms": 3.0})
    cfg = parse_config(raw)
    ens, result = runner.run_single(cfg)
    assert len(result.readouts) == 4
    expected = (61 + 21) * 4 * ens.n_classes
    assert result.stats["n_kernel_evals"] == expected
    assert run_scenario(cfg, tmp_path)["stats"]["n_kernel_evals"] == expected


def test_baseline_without_readouts_is_the_unpumped_spectrum(tmp_path):
    # The pump must not show in baseline.csv: it scans the state the run started from.
    pumped = _pumped()
    unpumped = dict(pumped, sequence=[])
    stats = [run_scenario(parse_config(raw), tmp_path / name)["stats"]
             for name, raw in (("pumped", pumped), ("unpumped", unpumped))]
    assert ((tmp_path / "pumped" / "baseline.csv").read_bytes()
            == (tmp_path / "unpumped" / "baseline.csv").read_bytes())
    assert stats[0]["n_kernel_evals"] == stats[1]["n_kernel_evals"] == 41 * 4 * 41


def test_readout_count_on_a_grid_leaves_its_files_unchanged(tmp_path):
    # a grid this fine is where a stacked matrix product would change the bits
    grid = {"f_start_MHz": -10.0, "f_stop_MHz": 10.0, "n_points": 401}
    one = _pumped({**grid, "at_delay_ms": 1.0})
    three = _pumped({**grid, "at_delay_ms": 7.0}, {**grid, "at_delay_ms": 1.0},
                    {**grid, "at_delay_ms": 3.0})
    for name, raw in (("one", one), ("three", three)):
        run_scenario(parse_config(raw), tmp_path / name)
    for name in ("baseline.csv", "spectrum_000.csv"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "three" / name).read_bytes()


def _pit_after(delay_ms):
    raw = preset("stimulated_pumping")
    raw["sequence"][-1]["at_delay_ms"] = delay_ms
    cfg = parse_config(raw)
    last = runner.run_single(cfg)[1].readouts[-1]
    return residual_metrics(last.spectrum, last.baseline, tuple(cfg.outputs.metrics_window_MHz))


@pytest.mark.parametrize("delay_ms", [1e8, 1e12, 1e20])
def test_a_long_readout_delay_keeps_the_relaxed_pit(delay_ms):
    # by 1e6 ms every class has relaxed; squaring a longer delay must neither create
    # population nor lose it to the trap slot
    relaxed, later = _pit_after(1e6), _pit_after(delay_ms)
    assert later.rho1_res == pytest.approx(relaxed.rho1_res, abs=1e-12)
    assert later.ground_state_ratio == pytest.approx(relaxed.ground_state_ratio, abs=1e-12)


def _sweep_after(delay_ms, out_dir):
    raw = preset("fig5_stimulation_rates")
    raw["sequence"][-1]["at_delay_ms"] = delay_ms
    run_scenario(parse_config(raw), out_dir)
    with open(out_dir / "sweep.csv", newline="") as fh:
        return np.array([row[1:] for row in csv.reader(fh)][1:], dtype=float)


@pytest.fixture(scope="module")
def relaxed_fig5_sweep(tmp_path_factory):
    return _sweep_after(1e6, tmp_path_factory.mktemp("relaxed"))


@pytest.mark.parametrize("delay_ms", [1e8, 1e12, 1e15, 1e20])
def test_a_long_readout_delay_keeps_the_persistent_hole(delay_ms, relaxed_fig5_sweep, tmp_path):
    # fig5 leaks into the trap; by 1e6 ms every class has relaxed, and the squarings of a
    # longer delay move its hole areas by about 1e-9 (1.7e-9 at 1e15 ms)
    later = _sweep_after(delay_ms, tmp_path)
    assert later.shape == relaxed_fig5_sweep.shape == (10, 1)
    assert np.abs(later - relaxed_fig5_sweep).max() <= 1e-8


def test_a_fine_sweep_step_puts_nothing_in_the_trap():
    # 10,000 steps per period over 61 classes: no generator leaks, so the cycle product
    # and its 2,000th power must leave the trap slot empty and every row total at 1
    raw = preset("stimulated_pumping")
    raw["dt_max_ms"] = 1e-5
    raw["profile"] = dict(raw["profile"], grid_span_MHz=30.0)
    ens = runner.run_single(parse_config(raw))[0]
    assert ens.n_classes == 61
    assert np.all(ens.populations[:, 4] == 0.0)
    assert np.abs(ens.populations.sum(axis=1) - 1.0).max() <= 1e-15
