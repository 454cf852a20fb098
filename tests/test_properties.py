"""Property tests of the config schema, the sequence compiler and the executor.

Examples are derandomized and few, so the file runs in a few seconds and
every run draws the same cases.
"""

import copy
import json
from dataclasses import replace

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from holeburn.config import (  # noqa: E402
    ExperimentConfig,
    OutputSpec,
    SweepSpec,
    apply_override,
    parse_config,
    serialize_config,
)
from holeburn.ensemble import PROFILE_SHAPES, InhomogeneousProfile, build_ensemble  # noqa: E402
from holeburn.errors import ConfigError  # noqa: E402
from holeburn.levels import RateParams, ZeemanConfig  # noqa: E402
from holeburn.presets import preset, preset_names  # noqa: E402
from holeburn.sequence import (  # noqa: E402
    CompiledSequence,
    DriveCalibration,
    DriveSegment,
    PumpPulse,
    ReadoutPulse,
    RFPulse,
    StimulationPulse,
    WaitPulse,
    compile_sequence,
    run,
)

FEW = settings(derandomize=True, max_examples=30, deadline=None)


def _num(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _pos(hi=1e3):
    return _num(1e-3, hi)


_timing = {"start_ms": _num(0.0, 1e3), "duration_ms": _num(0.0, 1e3)}


@st.composite
def _pump(draw):
    span = draw(st.sampled_from([0.0, 10.0, 50.0]))
    return PumpPulse(
        **{k: draw(v) for k, v in _timing.items()},
        center_MHz=draw(_num(-100.0, 100.0)),
        power_rate_per_ms=draw(_num(0.0, 100.0)),
        sweep_span_MHz=span,
        sweep_period_ms=draw(_pos(1.0)) if span else 0.0,
        gate_gap_MHz=draw(_num(0.0, 0.9 * span)),
    )


@st.composite
def _readout(draw):
    lo = draw(_num(-100.0, 100.0))
    return ReadoutPulse(f_start_MHz=lo, f_stop_MHz=lo + draw(_pos(100.0)),
                        n_points=draw(st.integers(2, 1000)), at_delay_ms=draw(_num(0.0, 1e3)))


@st.composite
def _window(draw):
    lo = draw(_num(-100.0, 100.0))
    return (lo, lo + draw(_pos(100.0)))


@st.composite
def _profile(draw):
    step = draw(_pos(2.0))
    return InhomogeneousProfile(
        center_MHz=draw(_num(-100.0, 100.0)),
        fwhm_MHz=draw(_pos(1e4)),
        shape=draw(st.sampled_from(PROFILE_SHAPES)),
        grid_span_MHz=step * draw(_num(10.0, 1e3)),
        grid_step_MHz=step,
    )


_pulses = st.one_of(
    _pump(),
    st.builds(StimulationPulse, **_timing, power_mW=_num(0.0, 100.0)),
    st.builds(RFPulse, **_timing, center_MHz=_num(0.0, 300.0), bandwidth_MHz=_pos(),
              voltage_Vpp=_num(0.0, 10.0)),
    st.builds(WaitPulse, **_timing),
    _readout(),
)

_configs = st.builds(
    ExperimentConfig,
    zeeman=st.builds(ZeemanConfig, field_mT=_num(0.0, 10.0), g_ground=_pos(20.0),
                     g_excited=_pos(20.0)),
    rates=st.builds(RateParams, t1_ms=_pos(), tz_ms=_pos(), beta=_num(0.0, 1.0),
                    beta_z2=st.none() | _num(0.0, 1.0), sigma_scale=_pos(10.0),
                    persistent_fraction=_num(0.0, 0.99), persistent_leak_scale=_num(0.0, 1.0)),
    profile=_profile(),
    sequence=st.lists(_pulses, max_size=5).map(tuple),
    outputs=st.builds(
        OutputSpec, spectra=st.booleans(),
        trace_window_MHz=st.none() | _window(), metrics_window_MHz=st.none() | _window(),
        sweep=st.none() | st.builds(
            SweepSpec, path=st.sampled_from(["rates.beta", "sequence[0].duration_ms"]),
            values=st.lists(_num(-1e3, 1e3), min_size=1, max_size=4).map(tuple)),
    ),
    drive=st.builds(DriveCalibration, pump_linewidth_MHz=_pos(10.0),
                    stim_slope_per_mW_ms=_num(0.0, 1.0), stim_detuning_MHz=_num(-1e4, 1e4),
                    stim_response_fwhm_MHz=_pos(1e5), rf_coupling_per_V2_ms=_num(0.0, 1.0)),
    target_od=st.none() | _pos(10.0),
    probe_linewidth_MHz=_pos(10.0),
    dt_max_ms=st.none() | _pos(1.0),
)


@FEW
@given(_configs)
def test_parse_inverts_serialize(cfg):
    raw = serialize_config(cfg)
    assert parse_config(raw) == cfg
    assert parse_config(json.loads(json.dumps(raw))) == cfg


def _leaf_paths(node, path=""):
    if isinstance(node, dict):
        for key, val in node.items():
            yield from _leaf_paths(val, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for i, val in enumerate(node):
            yield from _leaf_paths(val, f"{path}[{i}]")
    else:
        yield path


# Every leaf of every preset, plus paths that do not resolve.
_OVERRIDES = [
    (name, path) for name in preset_names()
    for path in [*_leaf_paths(preset(name)), "rates.nope", "sequence[99].duration_ms", "a..b"]
]


@FEW
@given(st.sampled_from(_OVERRIDES),
       st.one_of(st.none(), st.floats(), st.integers(), st.text(max_size=3)))
def test_apply_override_leaves_input_untouched(case, value):
    name, path = case
    raw = preset(name)
    before = copy.deepcopy(raw)
    try:
        out = apply_override(raw, path, value)
    except ConfigError:
        out = None
    assert raw == before
    if out is not None:
        assert out is not raw


FIELD = ZeemanConfig(field_mT=1.2)
LEAKY = RateParams(t1_ms=11.0, tz_ms=100.0, beta=0.9, persistent_fraction=0.2)
SMALL = InhomogeneousProfile(center_MHz=0.0, shape="flat", grid_span_MHz=20.0, grid_step_MHz=1.0)


@st.composite
def _constant_segment(draw):
    pumped = draw(st.booleans())
    return DriveSegment(
        t_start_ms=0.0,
        t_end_ms=draw(_num(0.01, 50.0)),
        pump_freq_MHz=draw(_num(-10.0, 10.0)) if pumped else None,
        pump_rate_per_ms=draw(_num(0.0, 5.0)) if pumped else 0.0,
        stim_power_mW=draw(_num(0.0, 50.0)),
        rf_voltage_Vpp=draw(_num(0.0, 10.0)),
        rf_center_MHz=draw(st.sampled_from([FIELD.delta_e_MHz, 300.0])),
        rf_bandwidth_MHz=15.0,
    )


def _evolve(segments):
    ens = build_ensemble(SMALL, FIELD, LEAKY)
    end = segments[-1].t_end_ms
    run(ens, CompiledSequence(items=list(segments), readouts=[], drives_end_ms=end),
        calibration=DriveCalibration(pump_linewidth_MHz=0.5))
    return ens.populations


@settings(derandomize=True, max_examples=20, deadline=None)
@given(_constant_segment(), st.lists(_num(0.01, 0.99), min_size=1, max_size=5, unique=True))
def test_splitting_a_constant_segment_changes_nothing(seg, fractions):
    cuts = sorted(seg.t_end_ms * f for f in fractions)
    edges = [seg.t_start_ms, *cuts, seg.t_end_ms]
    pieces = [replace(seg, t_start_ms=a, t_end_ms=b) for a, b in zip(edges, edges[1:])]
    whole, split = _evolve([seg]), _evolve(pieces)
    assert np.abs(whole - split).max() <= 1e-12
    # the five-slot total, trap bucket included, is conserved
    assert np.abs(split.sum(axis=1) - 1.0).max() <= 1e-12
    assert split.min() >= 0.0


@st.composite
def _pump_on_grid(draw, start_ms, duration_ms):
    """An unswept, swept or gated pump near the centre of the SMALL grid."""
    span = draw(st.sampled_from([0.0, 4.0, 10.0]))
    return PumpPulse(
        start_ms=draw(start_ms), duration_ms=draw(duration_ms),
        center_MHz=draw(_num(-5.0, 5.0)),
        power_rate_per_ms=draw(_num(0.0, 5.0)),
        sweep_span_MHz=span,
        sweep_period_ms=draw(_num(0.05, 1.0)) if span else 0.0,
        gate_gap_MHz=span * draw(st.sampled_from([0.0, 0.3])),
    )


# One pulse builder per drive channel, given strategies for the timing.
_channels = (
    _pump_on_grid,
    lambda **t: st.builds(StimulationPulse, **t, power_mW=_num(0.0, 50.0)),
    lambda **t: st.builds(
        RFPulse, **t, center_MHz=st.sampled_from([FIELD.delta_e_MHz, 300.0]),
        bandwidth_MHz=st.just(15.0), voltage_Vpp=_num(0.0, 10.0)),
)


@st.composite
def _pulse_list(draw):
    """Drive channels of back-to-back pulses, an optional wait and readouts."""
    pulses = []
    for build in _channels:
        t = 0.0
        for _ in range(draw(st.integers(0, 2))):
            start = t + draw(_num(0.0, 5.0))
            pulses.append(draw(build(start_ms=st.just(start), duration_ms=_num(0.0, 10.0))))
            t = start + pulses[-1].duration_ms
    if draw(st.booleans()):
        pulses.append(WaitPulse(start_ms=draw(_num(0.0, 20.0)), duration_ms=draw(_num(0.0, 20.0))))
    for _ in range(draw(st.integers(0, 3))):
        lo = draw(st.sampled_from([-10.0, -4.0]))
        pulses.append(ReadoutPulse(f_start_MHz=lo, f_stop_MHz=-lo,
                                   n_points=draw(st.sampled_from([11, 41])),
                                   at_delay_ms=draw(_num(0.0, 20.0))))
    return draw(st.permutations(pulses))


@FEW
@given(_pulse_list())
def test_whole_sequences_conserve_population(pulses):
    ens = build_ensemble(SMALL, FIELD, LEAKY)
    res = run(ens, compile_sequence(pulses), calibration=DriveCalibration(pump_linewidth_MHz=0.5))
    pops = ens.populations
    # the five-slot total, trap bucket included, is conserved
    assert np.abs(pops.sum(axis=1) - 1.0).max() <= 1e-12
    assert pops.min() >= 0.0
    # every readout, by increasing delay, is paired with a scan on its own grid
    delays = [r.delay_ms for r in res.readouts]
    assert delays == sorted(p.at_delay_ms for p in pulses if isinstance(p, ReadoutPulse))
    for r in res.readouts:
        assert np.array_equal(r.spectrum.freqs_MHz, r.baseline.freqs_MHz)
