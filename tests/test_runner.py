import json
from dataclasses import asdict

import pytest

from holeburn import runner, sequence
from holeburn.analysis import residual_metrics
from holeburn.config import apply_override, parse_config
from holeburn.ensemble import Spectrum, hole_area
from holeburn.errors import ConfigError
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
    # and d build byte-equal generators at one power, and e does not
    values = [-3000.0, 3000.0, 7000.0]
    raw = _stim_detuning_sweep(values)
    manifest = run_scenario(parse_config(raw), tmp_path)
    assert manifest["stats"]["n_expm_matrices"] == 2 * _single_expm(raw, values[0])
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines == _single_rows(raw, _DETUNING, values)
    rows = [line.split(",")[1:] for line in lines[1:]]
    assert rows[0] == rows[1] != rows[2]


def test_no_evolution_is_reused_across_a_scan_flush(tmp_path, monkeypatch):
    raw = _stim_detuning_sweep([-3000.0, 3000.0, 7000.0, -3000.0, 3000.0])
    near, far = _single_expm(raw, 3000.0), _single_expm(raw, 7000.0)
    whole = run_scenario(parse_config(raw), tmp_path / "whole")
    assert whole["stats"]["n_expm_matrices"] == near + far
    # each evolved point holds 2 x 41 x 5 entries and a memo hit holds none,
    # so the budget is passed at point 3, not at point 2
    monkeypatch.setattr(runner, "SCAN_BUDGET_ENTRIES", 3 * 41 * 5)
    flushed = run_scenario(parse_config(raw), tmp_path / "flushed")
    # the scan empties the memo, so point 4 is evolved again and point 5 reuses it
    assert flushed["stats"]["n_expm_matrices"] == 2 * near + far
    assert ((tmp_path / "flushed" / "sweep.csv").read_bytes()
            == (tmp_path / "whole" / "sweep.csv").read_bytes())


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
