"""Canned scenario configurations.

Each preset is a complete raw config mapping ready for parse_config.  The
figure-numbered names follow the demonstration curves this simulator is
meant to reproduce: hole decay, stimulation spectrum and rates, mixing
power dependence, and spectral tailoring.

Calibration constants below were found by the calibration searches in the
test suite and are committed here so presets reproduce the documented
residual-absorption targets.
"""

from __future__ import annotations

import copy

__all__ = [
    "PRESETS",
    "preset",
    "preset_names",
    "PIT_PUMP_RATE_PER_MS",
    "TAILORING_PUMP_RATE_PER_MS",
    "STANDARD_PUMP_RATE_PER_MS",
]

# Pump peak rate for the 10 MHz swept pit; tuned so stimulated pumping
# leaves a quarter of the initial ground population (rho1_res = 0.25).
PIT_PUMP_RATE_PER_MS = 1.6

# Pump peak rate for unswept standard-pumping demonstrations.
STANDARD_PUMP_RATE_PER_MS = 2.0

# Pump peak rate for the 50 MHz tailoring sweep.  Much larger than the pit
# rate: the sweep dilutes the peak rate by the span-to-linewidth ratio, and
# the pit floor scales inversely with the time-averaged rate.
TAILORING_PUMP_RATE_PER_MS = 60.0

_ZEEMAN = {"field_mT": 1.2}
_RATES_COLD = {"t1_ms": 11.0, "tz_ms": 100.0, "beta": 0.9}
_RATES_HOT = {"t1_ms": 11.0, "tz_ms": 0.5, "beta": 0.9}

_FIG3_DELAYS = [1, 2, 3, 5, 7, 10, 14, 20, 28, 40, 55, 75, 100, 140, 190, 250, 300]


def _readout(f0, f1, n, delay):
    return {
        "kind": "readout",
        "f_start_MHz": f0,
        "f_stop_MHz": f1,
        "n_points": n,
        "at_delay_ms": float(delay),
    }


def _pit_sequence(stim=True, rf_voltage=None, readout_delay=2.8):
    seq = [
        {
            "kind": "pump",
            "duration_ms": 200.0,
            "center_MHz": 0.0,
            "power_rate_per_ms": PIT_PUMP_RATE_PER_MS,
            "sweep_span_MHz": 10.0,
            "sweep_period_ms": 0.1,
        }
    ]
    if stim:
        seq.append({"kind": "stimulation", "duration_ms": 201.0, "power_mW": 50.0})
    if rf_voltage is not None:
        seq.append(
            {
                "kind": "rf",
                "duration_ms": 200.0,
                "center_MHz": 135.0,
                "bandwidth_MHz": 15.0,
                "voltage_Vpp": rf_voltage,
            }
        )
    seq.append(_readout(-15.0, 15.0, 301, readout_delay))
    return seq


def _base(rates, sequence, outputs):
    return {
        "zeeman": dict(_ZEEMAN),
        "rates": dict(rates),
        "profile": {},
        "sequence": sequence,
        "outputs": outputs,
    }


def _build_presets() -> dict:
    p: dict[str, tuple[str, dict]] = {}

    p["baseline"] = (
        "Thermal ensemble, no drive; writes the unpumped spectrum only.",
        _base(_RATES_COLD, [], {}),
    )

    p["fig3_standard_pumping"] = (
        "200 ms unswept pump, hole-area decay trace out to 300 ms.",
        _base(
            _RATES_COLD,
            [
                {
                    "kind": "pump",
                    "duration_ms": 200.0,
                    "center_MHz": 0.0,
                    "power_rate_per_ms": STANDARD_PUMP_RATE_PER_MS,
                },
            ]
            + [_readout(-10.0, 10.0, 201, d) for d in _FIG3_DELAYS],
            {"spectra": False, "trace_window_MHz": [-4.0, 4.0]},
        ),
    )

    p["fig4_stimulation_spectrum"] = (
        "Hole area versus stimulation-laser detuning across the gain line.",
        _base(
            _RATES_HOT,
            [
                {
                    "kind": "pump",
                    "duration_ms": 100.0,
                    "center_MHz": 0.0,
                    "power_rate_per_ms": STANDARD_PUMP_RATE_PER_MS,
                },
                # Weak probe power: the dip in hole area must stay linear
                # in the stimulation rate for the scan to trace the bare
                # Lorentzian response.
                {"kind": "stimulation", "duration_ms": 101.0, "power_mW": 0.01},
                _readout(-8.0, 8.0, 161, 2.5),
            ],
            {
                "spectra": False,
                "trace_window_MHz": [-5.0, 5.0],
                "sweep": {
                    "path": "drive.stim_detuning_MHz",
                    "values": [
                        -28000, -21000, -14000, -10000, -7000, -4500, -2000,
                        0, 2000, 4500, 7000, 10000, 14000, 21000, 28000,
                    ],
                },
            },
        ),
    )

    p["fig5_stimulation_rates"] = (
        "Hole area versus stimulation overhang at fixed power; persistent "
        "offset included.",
        _base(
            dict(_RATES_HOT, persistent_fraction=0.1),
            [
                {
                    "kind": "pump",
                    "duration_ms": 100.0,
                    "center_MHz": 0.0,
                    "power_rate_per_ms": STANDARD_PUMP_RATE_PER_MS,
                },
                {"kind": "stimulation", "duration_ms": 100.0, "power_mW": 10.0},
                _readout(-8.0, 8.0, 161, 2.5),
            ],
            {
                "spectra": False,
                "trace_window_MHz": [-5.0, 5.0],
                "sweep": {
                    "path": "sequence[1].duration_ms",
                    "values": [100.0, 100.1, 100.2, 100.35, 100.5, 100.75,
                               101.0, 101.5, 102.0, 102.5],
                },
            },
        ),
    )

    p["stimulated_pumping"] = (
        "10 MHz pit with stimulated de-excitation; targets rho1_res = 0.25.",
        _base(
            _RATES_COLD,
            _pit_sequence(stim=True),
            {"metrics_window_MHz": [-3.5, 3.5]},
        ),
    )

    p["standard_pumping_pit"] = (
        "Same 10 MHz pit without stimulation; readout after the excited "
        "transient has decayed.",
        _base(
            _RATES_COLD,
            _pit_sequence(stim=False, readout_delay=30.0),
            {"metrics_window_MHz": [-3.5, 3.5]},
        ),
    )

    p["rf_pumping"] = (
        "Stimulated pit plus excited-doublet mixing at full drive; targets "
        "8 % remaining fraction.",
        _base(
            _RATES_COLD,
            _pit_sequence(stim=True, rf_voltage=10.0),
            {"metrics_window_MHz": [-3.5, 3.5]},
        ),
    )

    p["fig6_rf_power"] = (
        "Remaining fraction of the stimulated pit versus mixing drive voltage.",
        _base(
            _RATES_COLD,
            _pit_sequence(stim=True, rf_voltage=10.0),
            {
                "spectra": False,
                "metrics_window_MHz": [-3.5, 3.5],
                "sweep": {
                    "path": "sequence[2].voltage_Vpp",
                    "values": [0.0, 1.25, 2.5, 5.0, 7.5, 10.0],
                },
            },
        ),
    )

    fig7 = _base(
        _RATES_COLD,
        [
            {
                "kind": "pump",
                "duration_ms": 200.0,
                "center_MHz": 0.0,
                "power_rate_per_ms": TAILORING_PUMP_RATE_PER_MS,
                "sweep_span_MHz": 50.0,
                "sweep_period_ms": 0.1,
                "gate_gap_MHz": 3.0,
            },
            {"kind": "stimulation", "duration_ms": 201.0, "power_mW": 50.0},
            {
                "kind": "rf",
                "duration_ms": 200.0,
                "center_MHz": 135.0,
                "bandwidth_MHz": 15.0,
                "voltage_Vpp": 10.0,
            },
            _readout(-45.0, 45.0, 1801, 2.8),
        ],
        {"metrics_window_MHz": [-20.0, -5.0]},
    )
    # The tailoring sweep needs a tight laser line and a fine probe: the
    # preserved peak is only a few sweep steps wide, and pump tails plus the
    # probe kernel both erode its contrast against the pit floor.
    fig7["drive"] = {"pump_linewidth_MHz": 0.25}
    fig7["probe_linewidth_MHz"] = 0.5
    fig7["dt_max_ms"] = 0.001
    p["fig7_tailoring"] = (
        "50 MHz transparency pit with a 2 MHz absorption peak kept at its "
        "center by gating the sweep.",
        fig7,
    )

    return p


PRESETS = _build_presets()


def preset_names() -> list:
    return sorted(PRESETS)


def preset(name: str) -> dict:
    """Deep copy of a preset's raw config mapping."""
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; available: {', '.join(preset_names())}")
    return copy.deepcopy(PRESETS[name][1])
