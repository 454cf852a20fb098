import json

import numpy as np
import pytest

from holeburn import runner
from holeburn.analysis import exponential_offset
from holeburn.cli import main
from holeburn.presets import preset, preset_names


def test_list_presets(capsys):
    assert main(["list-presets"]) == 0
    out = capsys.readouterr().out
    for name in preset_names():
        assert name in out


def test_run_preset_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "base"
    assert main(["run", "--preset", "baseline", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["artifacts"] == ["baseline.csv"]
    assert (out / "baseline.csv").exists()
    assert manifest["config_hash"]
    assert manifest["stats"]["n_items"] == 0
    # without readouts the baseline is one kernel pass on the class grid
    n = len((out / "baseline.csv").read_text().splitlines()) - 1
    assert manifest["stats"]["n_kernel_evals"] == n * 4 * n
    assert "wrote" in capsys.readouterr().out


def test_run_config_file(tmp_path):
    raw = {
        "zeeman": {"field_mT": 1.2},
        "rates": {"t1_ms": 11.0, "tz_ms": 100.0, "beta": 0.9},
        "profile": {"grid_span_MHz": 60.0, "grid_step_MHz": 1.0},
        "sequence": [
            {"kind": "pump", "duration_ms": 10.0, "center_MHz": 0.0,
             "power_rate_per_ms": 2.0},
            {"kind": "readout", "f_start_MHz": -10.0, "f_stop_MHz": 10.0,
             "n_points": 81, "at_delay_ms": 1.0},
        ],
        "outputs": {"trace_window_MHz": [-4.0, 4.0]},
    }
    cfg_path = tmp_path / "quick.json"
    cfg_path.write_text(json.dumps(raw))
    out = tmp_path / "quick-out"
    assert main(["run", str(cfg_path), "--out", str(out)]) == 0
    assert (out / "trace.csv").exists()
    assert (out / "spectrum_000.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["readout_delays_ms"] == [1.0]


def test_manifest_lists_delays_in_spectrum_order(tmp_path):
    raw = {
        "zeeman": {"field_mT": 1.2},
        "rates": {"t1_ms": 11.0, "tz_ms": 100.0, "beta": 0.9},
        "profile": {"grid_span_MHz": 60.0, "grid_step_MHz": 1.0},
        "sequence": [
            {"kind": "pump", "duration_ms": 10.0, "center_MHz": 0.0,
             "power_rate_per_ms": 2.0},
            {"kind": "readout", "f_start_MHz": -10.0, "f_stop_MHz": 10.0,
             "n_points": 81, "at_delay_ms": 30.0},
            {"kind": "readout", "f_start_MHz": -10.0, "f_stop_MHz": 10.0,
             "n_points": 81, "at_delay_ms": 1.0},
        ],
    }
    cfg_path = tmp_path / "two.json"
    cfg_path.write_text(json.dumps(raw))
    out = tmp_path / "two-out"
    assert main(["run", str(cfg_path), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["readout_delays_ms"] == [1.0, 30.0]
    # the hole is deeper at the 1 ms readout, which spectrum_000.csv must hold
    base, early, late = (
        np.loadtxt(out / name, delimiter=",", skiprows=1)[:, 1]
        for name in ("baseline.csv", "spectrum_000.csv", "spectrum_001.csv")
    )
    assert (base - early).max() > (base - late).max()


def test_run_unknown_preset_fails(tmp_path, capsys):
    assert main(["run", "--preset", "fig99_nope",
                 "--out", str(tmp_path / "x")]) == 1
    # the message itself, not the repr a KeyError gives it
    assert capsys.readouterr().err.strip() == (
        f"error: unknown preset 'fig99_nope'; available: {', '.join(preset_names())}"
    )


def test_run_rejects_infinite_number_with_its_path(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"zeeman": {"field_mT": 1.2}, "profile": {"grid_span_MHz": Infinity},'
                   ' "rates": {"t1_ms": 11.0, "tz_ms": 100.0, "beta": 0.9}, "sequence": []}')
    assert main(["run", str(cfg), "--out", str(tmp_path / "x")]) == 1
    assert "profile.grid_span_MHz" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_run_rejects_a_subnormal_lifetime_with_its_path(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"zeeman": {"field_mT": 1.2}, "profile": {"grid_span_MHz": 60.0},'
                   ' "rates": {"t1_ms": 11.0, "tz_ms": 1e-320, "beta": 0.9}, "sequence": []}')
    assert main(["run", str(cfg), "--out", str(tmp_path / "x")]) == 1
    assert "error: rates.tz_ms: tz_ms" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("period", [1e-12, 1e-11])
def test_run_rejects_a_sweep_step_too_short_to_hold_a_segment(tmp_path, capsys, period):
    raw = preset("stimulated_pumping")
    raw["sequence"][0]["sweep_period_ms"] = period
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    assert main(["run", str(cfg), "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err.startswith("error: swept pump at t = 0.0 ms: sweep step ")


def test_run_reports_an_arithmetic_error(tmp_path, capsys, monkeypatch):
    # NumPy raises a MemoryError for an impossible allocation, such as a class grid
    # of 5e11 classes; it is raised here so that the test allocates nothing
    for exc in (ArithmeticError("propagation produced a NaN or negative population"),
                MemoryError("Unable to allocate 3.64 TiB for an array")):
        def advance(*args, exc=exc):
            raise exc

        monkeypatch.setattr(runner, "advance", advance)
        assert main(["run", "--preset", "stimulated_pumping", "--out", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err == f"error: {exc}\n"


def test_run_requires_exactly_one_source(tmp_path, capsys):
    assert main(["run"]) == 2
    assert main(["run", "cfg.json", "--preset", "baseline"]) == 2
    assert capsys.readouterr().err


def test_argparse_misuse_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["fit", "data.csv", "--model", "spline"])
    assert exc.value.code == 2


def test_outdir_env_fallback(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("HOLEBURN_OUTDIR", str(tmp_path / "envroot"))
    assert main(["run", "--preset", "baseline"]) == 0
    assert (tmp_path / "envroot" / "baseline" / "manifest.json").exists()
    capsys.readouterr()


def test_fit_subcommand(tmp_path, capsys):
    t = np.linspace(0.0, 12.0, 30)
    y = exponential_offset(t, 0.9, 0.35, 0.1)
    csv = tmp_path / "trace.csv"
    with open(csv, "w") as fh:
        fh.write("delay_ms,hole_area\n")
        for a, b in zip(t, y):
            fh.write(f"{a},{b}\n")
    out_json = tmp_path / "fit.json"
    assert main(["fit", str(csv), "--model", "expoffset", "--out", str(out_json)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["model"] == "exponential_offset"
    assert payload["parameters"]["rate_per_ms"] == pytest.approx(0.35, rel=1e-3)
    assert json.loads(out_json.read_text()) == payload


def test_fit_rejects_single_column(tmp_path, capsys):
    csv = tmp_path / "one.csv"
    csv.write_text("x\n1.0\n2.0\n")
    assert main(["fit", str(csv), "--model", "linear"]) == 2
    assert "two columns" in capsys.readouterr().err


def test_fit_rejects_header_only_csv(tmp_path, capsys, recwarn):
    csv = tmp_path / "empty.csv"
    csv.write_text("delay_ms,hole_area\n")
    assert main(["fit", str(csv), "--model", "linear"]) == 1
    assert capsys.readouterr().err.strip() == "fit: CSV has no data rows"
    assert not recwarn.list


def test_runs_are_byte_identical(tmp_path, capsys):
    # fig3 writes a decay trace, the pit preset its baseline and spectrum,
    # fig4 a sweep whose points share their kernel pass, fig6 a sweep whose
    # points share pump-rate stacks and pump-off propagators, fig7 reads out
    # at ten probe points per class step
    for preset in ("fig3_standard_pumping", "standard_pumping_pit", "fig4_stimulation_spectrum",
                   "fig6_rf_power", "fig7_tailoring"):
        a = tmp_path / preset / "a"
        b = tmp_path / preset / "b"
        for out in (a, b):
            assert main(["run", "--preset", preset, "--out", str(out)]) == 0
        ma = json.loads((a / "manifest.json").read_text())
        mb = json.loads((b / "manifest.json").read_text())
        assert sorted(p.name for p in a.iterdir()) == sorted(ma["artifacts"] + ["manifest.json"])
        for name in ma["artifacts"]:
            assert (a / name).read_bytes() == (b / name).read_bytes(), (preset, name)
        # manifests differ only in wall time
        ma.pop("wall_time_s")
        mb.pop("wall_time_s")
        assert ma == mb
    assert (tmp_path / "standard_pumping_pit" / "a" / "spectrum_000.csv").exists()
    capsys.readouterr()
