import json
from dataclasses import fields, is_dataclass

import pytest
import yaml

from holeburn.config import (
    apply_override,
    parse_config,
    parse_config_file,
    serialize_config,
)
from holeburn.errors import ConfigError
from holeburn.presets import preset, preset_names
from holeburn.runner import config_hash, run_scenario


def _minimal():
    return {
        "zeeman": {"field_mT": 1.2},
        "rates": {"t1_ms": 11.0, "tz_ms": 100.0, "beta": 0.9},
        "profile": {},
        "sequence": [],
    }


# -------------------------------------------------------------------- parsing

def test_minimal_config_defaults():
    cfg = parse_config(_minimal())
    assert cfg.zeeman.field_mT == 1.2
    assert cfg.zeeman.g_ground == 12.0
    assert cfg.zeeman.g_excited == 8.0
    assert cfg.rates.beta_z2 == 0.9  # defaults to beta
    assert cfg.profile.shape == "flat"
    assert cfg.profile.grid_span_MHz == 500.0
    assert cfg.sequence == ()
    assert cfg.target_od == 1.0
    assert cfg.probe_linewidth_MHz == 1.0
    assert cfg.dt_max_ms is None
    assert cfg.drive.pump_linewidth_MHz == 1.0
    assert cfg.outputs.spectra is True
    assert cfg.outputs.sweep is None


def test_out_of_range_value_names_section():
    raw = _minimal()
    raw["rates"]["beta"] = 1.2
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert err.value.path == "rates.beta"
    assert "beta" in str(err.value)


def test_unknown_keys_are_rejected_with_path():
    raw = _minimal()
    raw["bogus"] = 1
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert err.value.path == "bogus"

    raw = _minimal()
    raw["zeeman"]["tilt"] = 3.0
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert err.value.path == "zeeman.tilt"


@pytest.mark.parametrize("path", [
    "zeeman.theta_deg", "zeeman.bohr_MHz_per_mT", "sequence[0].sweep_period_ms",
])
def test_keys_no_rate_depends_on_are_unknown(path):
    # The g factors are the effective ones at the field orientation, the Bohr
    # magneton is a constant, and an RF sweep is faster than every rate.
    raw = _minimal()
    raw["sequence"] = [{"kind": "rf", "duration_ms": 1.0, "center_MHz": 110.0,
                        "bandwidth_MHz": 10.0, "voltage_Vpp": 1.0}]
    parse_config(raw)
    section, key = path.split(".")
    (raw["zeeman"] if section == "zeeman" else raw["sequence"][0])[key] = 1.0
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert err.value.path == path
    assert err.value.message == "unknown key"


def test_missing_required_key_path():
    raw = _minimal()
    del raw["rates"]["t1_ms"]
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert err.value.path == "rates.t1_ms"

    raw = _minimal()
    del raw["zeeman"]
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert err.value.path == "zeeman"


def test_type_errors_name_field():
    raw = _minimal()
    raw["rates"]["beta"] = "strong"
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert err.value.path == "rates.beta"

    raw = _minimal()
    raw["sequence"] = [{"kind": "readout", "f_start_MHz": -1.0, "f_stop_MHz": 1.0,
                        "n_points": 10.5, "at_delay_ms": 0.0}]
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert err.value.path == "sequence[0].n_points"

    raw = _minimal()
    raw["outputs"] = {"spectra": "yes"}
    with pytest.raises(ConfigError):
        parse_config(raw)


@pytest.mark.parametrize("path, value", [
    ("profile.grid_span_MHz", float("inf")),
    pytest.param("rates.tz_ms", 10 ** 400, id="rates.tz_ms-too-large-for-a-float"),
    ("rates.tz_ms", float("inf")),
    ("rates.tz_ms", float("-inf")),
    ("drive.stim_detuning_MHz", float("nan")),
    ("zeeman.field_mT", float("nan")),
    ("outputs.sweep.values[1]", float("nan")),
])
def test_non_finite_numbers_name_their_field(path, value):
    raw = dict(_minimal(), profile={"grid_span_MHz": 60.0}, drive={"stim_detuning_MHz": 0.0},
               outputs={"sweep": {"path": "rates.beta", "values": [0.5, 0.7]}})
    parse_config(raw)
    with pytest.raises(ConfigError) as err:
        parse_config(apply_override(raw, path, value))
    assert err.value.path == path
    assert "expected a finite number" in str(err.value)


@pytest.mark.parametrize("key", ["t1_ms", "tz_ms"])
def test_subnormal_lifetime_is_a_config_error(key):
    # 1e-320 is finite, but its inverse, a rate in the generator, is not
    raw = _minimal()
    raw["rates"][key] = 1e-320
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert err.value.path == f"rates.{key}"
    assert key in str(err.value)


def test_negative_readout_delay_is_a_config_error():
    raw = _minimal()
    raw["sequence"] = [
        {"kind": "wait", "duration_ms": 1.0},
        {"kind": "readout", "f_start_MHz": -1.0, "f_stop_MHz": 1.0,
         "n_points": 11, "at_delay_ms": -5.0},
    ]
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert err.value.path == "sequence[1].at_delay_ms"
    assert "at_delay_ms" in str(err.value)


@pytest.mark.parametrize("pulse, key", [
    ({"kind": "readout", "f_start_MHz": -1.0, "f_stop_MHz": 1.0, "n_points": 11,
      "at_delay_ms": 1e300}, "at_delay_ms"),
    ({"kind": "wait", "duration_ms": 1e300}, "duration_ms"),
    ({"kind": "wait", "start_ms": 1e300, "duration_ms": 1.0}, "start_ms"),
])
def test_a_time_too_large_to_count_is_a_config_error(pulse, key):
    # 1e300 ms is finite, but compiling counts times in 1e-12 ms steps
    raw = _minimal()
    raw["sequence"] = [{"kind": "wait", "duration_ms": 1.0}, pulse]
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert err.value.path == f"sequence[1].{key}"
    assert key in str(err.value)


@pytest.mark.parametrize("path, value", [
    ("drive.pump_linewidth_MHz", 1e300),
    ("drive.pump_linewidth_MHz", 1e-300),
    ("drive.stim_response_fwhm_MHz", 1e300),
    ("drive.stim_response_fwhm_MHz", 1e-300),
    ("drive.stim_detuning_MHz", 1e300),
    ("probe_linewidth_MHz", 1e300),
    ("probe_linewidth_MHz", 1e-300),
    ("profile.fwhm_MHz", 1e300),
])
def test_a_width_or_detuning_that_cannot_be_squared_is_a_config_error(path, value, tmp_path):
    # each is finite, but a line shape squares it and overflows, or squares its
    # half and underflows to 0; set alone or swept, it fails before any point runs
    raw = dict(preset("rf_pumping"), profile={"shape": "lorentzian", "fwhm_MHz": 1000.0},
               drive={"pump_linewidth_MHz": 1.0, "stim_response_fwhm_MHz": 14000.0,
                      "stim_detuning_MHz": 0.0})
    parse_config(raw)
    with pytest.raises(ConfigError) as err:
        parse_config(apply_override(raw, path, value))
    assert err.value.path == path
    assert path.split(".")[-1] in err.value.message
    swept = dict(raw, outputs=dict(raw["outputs"], sweep={"path": path, "values": [1.0, value]}))
    with pytest.raises(ConfigError) as err:
        run_scenario(parse_config(swept), tmp_path / "out")
    assert err.value.path == path
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("target_od", [0.0, -1.0])
def test_nonpositive_target_od_is_a_config_error(target_od):
    raw = _minimal()
    raw["target_od"] = target_od
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert err.value.path == "target_od"
    # None keeps the supplied cross-section scale and stays valid
    raw["target_od"] = None
    assert parse_config(raw).target_od is None


def test_pulse_kind_validation():
    raw = _minimal()
    raw["sequence"] = [{"kind": "laser"}]
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert err.value.path == "sequence[0].kind"

    raw["sequence"] = {"kind": "pump"}
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert err.value.path == "sequence"


def test_window_validation():
    raw = _minimal()
    raw["outputs"] = {"trace_window_MHz": [5.0, -5.0]}
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert err.value.path == "outputs.trace_window_MHz"


def test_sweep_validation():
    raw = _minimal()
    raw["outputs"] = {"sweep": {"path": "rates.beta"}}
    with pytest.raises(ConfigError):
        parse_config(raw)
    raw["outputs"] = {"sweep": {"path": "rates.beta", "values": []}}
    with pytest.raises(ConfigError):
        parse_config(raw)


@pytest.mark.parametrize("path", ["outputs.sweep", "outputs.sweep.values[0]",
                                  "outputs.sweep.path"])
def test_a_sweep_of_the_sweep_itself_is_a_config_error(path):
    # every point runs with outputs.sweep removed, so its values would all be the base run
    raw = _minimal()
    raw["outputs"] = {"sweep": {"path": path, "values": [1.0, 2.0]}}
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert err.value.path == "outputs.sweep"
    assert path in err.value.message


# -------------------------------------------------------------------- presets

def test_all_presets_parse():
    assert preset_names()
    for name in preset_names():
        cfg = parse_config(preset(name))
        assert cfg.zeeman.field_mT > 0


def _restated_defaults(raw, parsed, path=""):
    """Paths of the raw leaves whose parsed value equals their field's default."""
    for f in fields(parsed):
        if f.name not in raw:
            continue
        key, value = f"{path}.{f.name}" if path else f.name, getattr(parsed, f.name)
        if is_dataclass(value):
            yield from _restated_defaults(raw[f.name], value, key)
        elif f.name == "sequence":
            for i, (r, pulse) in enumerate(zip(raw[f.name], value)):
                yield from _restated_defaults(r, pulse, f"{key}[{i}]")
        elif value == f.default:
            yield key


def test_presets_state_only_what_differs_from_the_defaults():
    restated = {name: list(_restated_defaults(preset(name), parse_config(preset(name))))
                for name in preset_names()}
    assert restated == {name: [] for name in preset_names()}


def test_preset_returns_a_copy():
    raw = preset("baseline")
    raw["rates"]["t1_ms"] = 1e9
    assert preset("baseline")["rates"]["t1_ms"] != 1e9


def test_unknown_preset():
    with pytest.raises(KeyError):
        preset("fig99_nope")


def test_tailoring_preset_contents():
    cfg = parse_config(preset("fig7_tailoring"))
    pump = cfg.sequence[0]
    assert pump.duration_ms == 200.0
    assert pump.sweep_span_MHz == 50.0
    assert pump.sweep_period_ms == 0.1
    assert pump.gate_gap_MHz == 3.0
    assert cfg.dt_max_ms == 0.001
    assert cfg.probe_linewidth_MHz == 0.5
    assert cfg.drive.pump_linewidth_MHz == 0.25
    assert cfg.outputs.metrics_window_MHz == (-20.0, -5.0)


def test_pit_presets_share_geometry():
    for name in ("stimulated_pumping", "standard_pumping_pit", "rf_pumping"):
        cfg = parse_config(preset(name))
        pump = cfg.sequence[0]
        assert pump.sweep_span_MHz == 10.0
        assert pump.sweep_period_ms == 0.1
        assert cfg.outputs.metrics_window_MHz == (-3.5, 3.5)


# ------------------------------------------------------------------ roundtrip

def test_serialize_parse_roundtrip_for_presets():
    for name in preset_names():
        cfg = parse_config(preset(name))
        again = parse_config(serialize_config(cfg))
        assert again == cfg, name
        assert config_hash(again) == config_hash(cfg)


def test_config_hash_tracks_content():
    cfg_a = parse_config(_minimal())
    raw = _minimal()
    raw["rates"]["beta"] = 0.91
    cfg_b = parse_config(raw)
    assert config_hash(cfg_a) != config_hash(cfg_b)


def test_serialized_config_is_json_and_yaml_safe():
    cfg = parse_config(preset("fig5_stimulation_rates"))
    text = json.dumps(serialize_config(cfg))
    assert parse_config(json.loads(text)) == cfg


# ----------------------------------------------------------------- file input

def test_parse_config_file_json_and_yaml(tmp_path):
    raw = _minimal()
    jpath = tmp_path / "cfg.json"
    jpath.write_text(json.dumps(raw))
    ypath = tmp_path / "cfg.yaml"
    ypath.write_text(yaml.safe_dump(raw))
    assert parse_config_file(jpath) == parse_config_file(ypath) == parse_config(raw)


# ------------------------------------------------------------------ overrides

def test_apply_override_nested_and_indexed():
    raw = preset("fig5_stimulation_rates")
    out = apply_override(raw, "sequence[1].duration_ms", 123.0)
    assert out["sequence"][1]["duration_ms"] == 123.0
    assert raw["sequence"][1]["duration_ms"] == 100.0  # original untouched

    out = apply_override(raw, "rates.beta", 0.5)
    assert out["rates"]["beta"] == 0.5


def test_apply_override_bad_paths():
    raw = _minimal()
    with pytest.raises(ConfigError):
        apply_override(raw, "rates.nope", 1.0)
    with pytest.raises(ConfigError):
        apply_override(raw, "sequence[3].duration_ms", 1.0)
    with pytest.raises(ConfigError):
        apply_override(raw, "rates..beta", 1.0)
