import json
from dataclasses import asdict

import pytest

from holeburn.analysis import residual_metrics
from holeburn.config import parse_config
from holeburn.ensemble import Spectrum
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
    run_scenario(parse_config(_point_sweep([41, 81])), tmp_path)
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0].split(",")[0] == "value"
    assert [line.split(",")[0] for line in lines[1:]] == ["41.0", "81.0"]
    # a finer readout grid samples the same pit: the residuals agree closely
    rho1 = [float(line.split(",")[lines[0].split(",").index("rho1_res")])
            for line in lines[1:]]
    assert rho1[0] == pytest.approx(rho1[1], rel=0.05)


def test_sweep_rejects_a_fractional_integer(tmp_path):
    with pytest.raises(ConfigError) as err:
        run_scenario(parse_config(_point_sweep([41, 41.5])), tmp_path)
    assert err.value.path == "sequence[1].n_points"
