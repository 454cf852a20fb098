"""Property tests of the config schema, the sequence compiler and the executor.

Examples are derandomized and few, so the file runs in a few seconds and
every run draws the same cases.
"""

import copy
import json
import math
import tempfile
from dataclasses import asdict, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from holeburn import runner  # noqa: E402
from holeburn.analysis import residual_metrics  # noqa: E402
from holeburn.config import (  # noqa: E402
    ExperimentConfig,
    OutputSpec,
    SweepSpec,
    apply_override,
    parse_config,
    serialize_config,
)
from holeburn.ensemble import (  # noqa: E402
    PROFILE_SHAPES,
    InhomogeneousProfile,
    build_ensemble,
    hole_area,
)
from holeburn.errors import ConfigError  # noqa: E402
from holeburn.levels import RateParams, ZeemanConfig  # noqa: E402
from holeburn.presets import preset, preset_names  # noqa: E402
from holeburn.sequence import (  # noqa: E402
    SWEEP_STEPS_PER_PERIOD,
    CompiledSequence,
    DriveCalibration,
    DriveSegment,
    PumpPulse,
    ReadoutPulse,
    RepeatBlock,
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

_rates = st.builds(RateParams, t1_ms=_pos(), tz_ms=_pos(), beta=_num(0.0, 1.0),
                   beta_z2=st.none() | _num(0.0, 1.0), sigma_scale=_pos(10.0),
                   persistent_fraction=_num(0.0, 0.99), persistent_leak_scale=_num(0.0, 1.0))

_drives = st.builds(DriveCalibration, pump_linewidth_MHz=_pos(10.0),
                    stim_slope_per_mW_ms=_num(0.0, 1.0), stim_detuning_MHz=_num(-1e4, 1e4),
                    stim_response_fwhm_MHz=_pos(1e5), rf_coupling_per_V2_ms=_num(0.0, 1.0))

_configs = st.builds(
    ExperimentConfig,
    zeeman=st.builds(ZeemanConfig, field_mT=_num(0.0, 10.0), g_ground=_pos(20.0),
                     g_excited=_pos(20.0)),
    rates=_rates,
    profile=_profile(),
    sequence=st.lists(_pulses, max_size=5).map(tuple),
    outputs=st.builds(
        OutputSpec, spectra=st.booleans(),
        trace_window_MHz=st.none() | _window(), metrics_window_MHz=st.none() | _window(),
        sweep=st.none() | st.builds(
            SweepSpec, path=st.sampled_from(["rates.beta", "sequence[0].duration_ms"]),
            values=st.lists(_num(-1e3, 1e3), min_size=1, max_size=4).map(tuple)),
    ),
    drive=_drives,
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


def _expected_pump(pumps, seg):
    """A segment's pump (frequency, rate, longest step) from the pulse holding its midpoint.

    Pulse edges hold to 1e-12 ms, as in the compiler, so a pulse shorter
    than that holds no midpoint.  A swept step takes the sawtooth value of
    the pump-grid step that holds the midpoint, is off inside the gate, and
    lasts at most one grid step.
    """
    mid = 0.5 * (seg.t_start_ms + seg.t_end_ms)
    pump = next((p for p in pumps
                 if p.start_ms - 1e-12 <= mid < p.start_ms + p.duration_ms - 1e-12), None)
    if pump is None or pump.power_rate_per_ms == 0.0:
        return None, 0.0, math.inf
    if pump.sweep_span_MHz == 0.0:
        return pump.center_MHz, pump.power_rate_per_ms, math.inf
    n = SWEEP_STEPS_PER_PERIOD
    k = int((mid - pump.start_ms) / pump.sweep_period_ms * n) % n
    offset = pump.sweep_span_MHz * ((k + 0.5) / n - 0.5)
    gated = abs(offset) < pump.gate_gap_MHz / 2.0
    return (None if gated else pump.center_MHz + offset, 0.0 if gated else pump.power_rate_per_ms,
            pump.sweep_period_ms / n)


@FEW
@given(_pulse_list())
def test_compiled_steps_tile_the_drives_on_the_pump_grid(pulses):
    pumps = [p for p in pulses if isinstance(p, PumpPulse) and p.duration_ms > 0]
    comp = compile_sequence(pulses)
    t, segments = 0.0, []
    for item in comp.items:
        cycle = item.segments if isinstance(item, RepeatBlock) else (item,)
        for seg in cycle:
            assert seg.t_start_ms == pytest.approx(t, rel=0, abs=1e-12)
            t = seg.t_end_ms
        if isinstance(item, RepeatBlock):
            period = _expected_pump(pumps, cycle[0])[2] * SWEEP_STEPS_PER_PERIOD
            assert t - cycle[0].t_start_ms == pytest.approx(period, rel=1e-9)
            assert item.count >= 1
            t = cycle[0].t_start_ms + item.count * period
        segments += cycle
    assert t == pytest.approx(comp.drives_end_ms, rel=0, abs=1e-12)

    for seg in segments:
        freq, rate, longest = _expected_pump(pumps, seg)
        assert 1e-12 <= seg.dt_ms <= longest * (1 + 1e-9)
        assert seg.pump_freq_MHz == pytest.approx(freq, rel=0, abs=1e-12)
        assert seg.pump_rate_per_ms == rate


# Numeric paths every drawn scenario has, each with its values and whether
# it also takes their negatives: the stimulation rate sees its detuning only
# through the square, so a +-pair there builds byte-equal generators.
_SWEPT_PATHS = (
    ("drive.stim_detuning_MHz", _num(-1e4, 1e4), True),
    ("profile.center_MHz", _num(-5.0, 5.0), True),
    ("rates.beta", _num(0.0, 1.0), False),
)
_TRACE, _METRICS = (-3.0, 3.0), (-2.0, 2.0)


@st.composite
def _swept_scenario(draw):
    """A raw config on the SMALL grid swept over values that repeat and pair up."""
    path, values, signed = draw(st.sampled_from(_SWEPT_PATHS))
    drawn = draw(st.lists(values, min_size=1, max_size=3))
    pool = drawn + [-v for v in drawn] if signed else drawn
    # one readout at least, so every row has its trace and metrics columns
    last = ReadoutPulse(f_start_MHz=-4.0, f_stop_MHz=4.0, n_points=41,
                        at_delay_ms=draw(_num(0.0, 20.0)))
    sweep = SweepSpec(path, tuple(draw(st.lists(st.sampled_from(pool), min_size=2, max_size=6))))
    cfg = ExperimentConfig(
        zeeman=FIELD, rates=draw(_rates), profile=SMALL,
        sequence=(*draw(_pulse_list()), last),
        outputs=OutputSpec(trace_window_MHz=_TRACE, metrics_window_MHz=_METRICS, sweep=sweep),
        drive=draw(_drives),
    )
    return serialize_config(cfg), path


def _alone(raw, path, value):
    """The sweep.csv row of one point run alone through run_single."""
    point = apply_override(raw, path, value)
    point["outputs"] = dict(point["outputs"], sweep=None)
    _, result = runner.run_single(parse_config(point))
    last = result.readouts[-1]
    area = hole_area(last.spectrum, last.baseline, _TRACE)
    metrics = residual_metrics(last.spectrum, last.baseline, _METRICS)
    return ",".join(map(repr, [float(value), area, *asdict(metrics).values()]))


@FEW
@given(_swept_scenario())
def test_every_sweep_row_equals_its_point_run_alone(scenario):
    raw, path = scenario
    cfg = parse_config(raw)
    alone = [_alone(raw, path, value) for value in cfg.outputs.sweep.values]
    # a small budget holds three populations arrays of the 21 SMALL classes, so
    # evolved points flush every one to three points and memo hits fall on
    # both sides of a flush
    for budget in (runner.SCAN_BUDGET_ENTRIES, 3 * 5 * 21):
        with tempfile.TemporaryDirectory() as out, \
                mock.patch.object(runner, "SCAN_BUDGET_ENTRIES", budget):
            runner.run_scenario(cfg, out)
            rows = (Path(out) / "sweep.csv").read_text().splitlines()[1:]
        assert rows == alone
