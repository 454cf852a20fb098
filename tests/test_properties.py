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

from holeburn import engine, ensemble, runner, sequence  # noqa: E402
from holeburn.analysis import residual_metrics  # noqa: E402
from holeburn.config import (  # noqa: E402
    ExperimentConfig,
    OutputSpec,
    SweepSpec,
    apply_override,
    parse_config,
    serialize_config,
)
from holeburn.engine import DriveRates  # noqa: E402
from holeburn.ensemble import (  # noqa: E402
    PROFILE_SHAPES,
    InhomogeneousProfile,
    build_ensemble,
    hole_area,
)
from holeburn.errors import ConfigError  # noqa: E402
from holeburn.levels import RateParams, TransitionSet, ZeemanConfig  # noqa: E402
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


def _duration(hi):
    # a drive pulse of 2e-12 ms or less would hold no segment midpoint, and is rejected
    return _num(0.0, hi).filter(lambda d: d == 0.0 or d > 2e-12)


_timing = {"start_ms": _num(0.0, 1e3), "duration_ms": _duration(1e3)}


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
        grid_span_MHz=step * draw(st.integers(10, 1000)),
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

def _config_or_none(**fields):
    """The config, or None where its parse-time checks refuse it (a window that misses a
    readout grid)."""
    try:
        return ExperimentConfig(**fields)
    except ConfigError:
        return None


_configs = st.builds(
    _config_or_none,
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
).filter(lambda cfg: cfg is not None)


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
    run(ens, CompiledSequence(items=[RepeatBlock((s,)) for s in segments], readouts=[],
                              drives_end_ms=end),
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
            pulses.append(draw(build(start_ms=st.just(start), duration_ms=_duration(10.0))))
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
        cycle = item.segments
        for seg in cycle:
            assert seg.t_start_ms == pytest.approx(t, rel=0, abs=1e-12)
            t = seg.t_end_ms
        # a block run more than once is whole sweep periods; a head or tail period runs once
        assert item.count >= 1
        if item.count > 1:
            period = _expected_pump(pumps, cycle[0])[2] * SWEEP_STEPS_PER_PERIOD
            assert t - cycle[0].t_start_ms == pytest.approx(period, rel=1e-9)
            t = cycle[0].t_start_ms + item.count * period
        segments += cycle
    assert t == pytest.approx(comp.drives_end_ms, rel=0, abs=1e-12)

    for seg in segments:
        freq, rate, longest = _expected_pump(pumps, seg)
        assert 1e-12 <= seg.dt_ms <= longest * (1 + 1e-9)
        assert seg.pump_freq_MHz == pytest.approx(freq, rel=0, abs=1e-12)
        assert seg.pump_rate_per_ms == rate


_TICK = sequence.TIME_TOL_MS / 2


def _scanned_active(pulses, t):
    """The first pulse active at t by a scan of every pulse, edges shifted by -TIME_TOL_MS."""
    return next((p for p in pulses if p.start_ms - sequence.TIME_TOL_MS <= t
                 < p.start_ms + p.duration_ms - sequence.TIME_TOL_MS), None)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(-1, 4), st.integers(1, 3),
                          st.integers(-3, 3)), max_size=6))
def test_the_active_pulses_are_those_a_scan_of_every_pulse_finds(layout):
    # edges whole milliseconds apart, each moved a few half tolerances: pulses
    # that touch or overlap by less than TIME_TOL_MS, read at times around
    # every edge and at every pulse's middle
    pulses, end = [], 0.0
    for gap, gap_ticks, length, length_ticks in layout:
        start = max(0.0, end + gap + gap_ticks * _TICK)
        pulses.append(StimulationPulse(start_ms=start, duration_ms=length + length_ticks * _TICK,
                                       power_mW=1.0))
        end = start + pulses[-1].duration_ms
    pulses = sequence._channel_pulses(pulses, StimulationPulse)
    times = sorted([p.start_ms + p.duration_ms / 2 for p in pulses]
                   + [edge + k * _TICK for p in pulses
                      for edge in (p.start_ms, p.start_ms + p.duration_ms) for k in range(-4, 5)])
    assert list(sequence._active(pulses, times)) == [_scanned_active(pulses, t) for t in times]


def _sorted_key_index(pump, centers):
    """Sharing by sorted detuning keys, the rule the lattice index reproduces.

    Returns each distinct key's first (row, class) as a flat row-major index,
    and every (row, class)'s distinct-key label.
    """
    keys = np.rint((pump[:, None] - centers) / sequence.DETUNING_KEY_MHZ)
    _, firsts, inverse = np.unique(keys.ravel(), return_index=True, return_inverse=True)
    return firsts, inverse.reshape(keys.shape)


@st.composite
def _pumped_grid(draw):
    """A uniform class grid in a perfbench frame shift, and pump rows on it.

    Rows step as a sweep does (centre + span·((k + 0.5)/N - 0.5)): by 0.2 MHz
    on a 0.5 MHz grid (five residues, fig6), by h from a half-integer offset
    (fig7), by an incommensurate step, or by more than the grid is wide (slot
    gaps); or they are zeros of both signs among lattice points, or one row.
    """
    n = draw(st.integers(11, 401))
    h = draw(st.sampled_from([0.5, 0.25, 1 / 3, 0.1]))
    shift = draw(st.integers(-31, 31)) / 64
    kind = draw(st.sampled_from(["fifths", "half", "incommensurate", "wide", "zeros", "one"]))
    rows = draw(st.integers(1, 60))
    step, center = h, shift + h * draw(st.integers(-n // 2, n // 2))
    if kind == "fifths":
        h, step = 0.5, 0.2
        center = shift + 0.1 * draw(st.integers(-n // 2, n // 2))
    elif kind == "incommensurate":
        step = h * draw(_num(0.05, 3.0))
    elif kind == "wide":
        step = h * draw(st.integers(n // 3, 2 * n))
    prof = InhomogeneousProfile(center_MHz=shift, shape="flat",
                                grid_span_MHz=(n - 1) * h, grid_step_MHz=h)
    ens = build_ensemble(prof, FIELD, LEAKY, target_od=None)
    assert ens.n_classes == n
    if kind == "zeros":
        pool = [0.0, -0.0, h, -h, 2 * h, 0.5 * h]
        pump = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=rows))
    elif kind == "one":
        pump = [shift + draw(_num(-(n + 20) * h, (n + 20) * h))]
    else:
        steps = 2 * rows if kind == "half" else rows
        pump = [center + step * steps * ((k + 0.5) / steps - 0.5) for k in range(rows)]
    return ens, np.array(pump)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(_pumped_grid())
def test_the_lattice_index_shares_as_sorted_keys_do(case):
    ens, pump = case
    n = ens.n_classes
    starts, first, residues = sequence._Propagators(ens, DriveCalibration())._lattice(pump)
    firsts, inverse = _sorted_key_index(pump, ens.centers_MHz)
    assert 1 <= residues <= len(pump)
    # one slot per distinct key, every slot used, and the labels pair one to one
    slots = starts[:, None] + np.arange(n)
    assert len(first) == len(firsts)
    assert np.unique(slots).size == len(first)
    assert np.unique(slots * len(first) + inverse).size == len(first)
    # each detuning is built from the sorted keys' first (row, class)
    row, cls = np.divmod(firsts, n)
    assert np.array_equal(first[starts[row] + cls], row)


# Pump rates as a stack holds them, zeros of both signs among them.
_pump_rate = st.sampled_from([0.0, -0.0]) | _num(0.0, 1e3)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_rates, st.just(0.0) | _num(0.0, 50.0), st.just(0.0) | _num(0.0, 50.0),
       st.lists(st.tuples(*[_pump_rate] * 4), min_size=1, max_size=8), st.integers(1, 600))
def test_a_pumped_generator_has_the_bytes_of_its_whole_drive(params, stim, rf, rows, n):
    # the ensemble path adds a stack of pump rates to one pump-free drive
    # matrix; each row must write what build_rate_matrix writes for its whole
    # drive, alone or in a stack of n rows that repeats the drawn ones
    drive = engine.build_rate_matrix(params, DriveRates(stim_rate=stim, rf_mix_rate=rf))
    stack = engine.add_pump_rates(drive[None], np.resize(np.array(rows), (n, 4)))
    assert stack.shape == (n, *drive.shape)
    for i, row in enumerate(rows):
        whole = engine.build_rate_matrix(params, DriveRates(pump_rate=row, stim_rate=stim,
                                                            rf_mix_rate=rf)).tobytes()
        assert engine.add_pump_rates(drive[None], np.array([row]))[0].tobytes() == whole
        assert all(g.tobytes() == whole for g in stack[i::len(rows)])


@st.composite
def _lattice_readout(draw):
    """An ensemble, a probe grid on its lattice (q = 1..12, start between classes) and snapshots."""
    n = draw(st.integers(11, 301))
    h = draw(st.sampled_from([0.5, 0.25, 1 / 3, 0.1, 1.0]))
    q = draw(st.integers(1, 12))
    prof = InhomogeneousProfile(center_MHz=draw(_num(-50.0, 50.0)), shape="flat",
                                grid_span_MHz=(n - 1) * h, grid_step_MHz=h)
    ens = build_ensemble(prof, FIELD, LEAKY, target_od=None,
                         probe_linewidth_MHz=draw(_num(0.05, 3.0)))
    rows = draw(st.integers(q * q, max(q * q, 400)))
    start = ens.centers_MHz[0] + h * (draw(st.integers(-n, n)) + draw(_num(0.01, 0.99)))
    freqs = np.linspace(start, start + (rows - 1) * h / q, rows)
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    snapshots = [rng.dirichlet(np.ones(5), size=n) for _ in range(draw(st.integers(1, 3)))]
    return ens, freqs, q, snapshots


@FEW
@given(_lattice_readout())
def test_the_lattice_readout_equals_the_dense_kernel(case):
    ens, freqs, q, snapshots = case
    assert ensemble._probe_stride(ens.centers_MHz, freqs) == q
    lattice = ensemble._optical_depth(ens, freqs, snapshots)
    dense = np.empty_like(lattice)
    amps = [ens.weights[:, None] * (p[:, TransitionSet.LOWER] - p[:, TransitionSet.UPPER])
            for p in snapshots]
    hw2 = (0.5 * ens.probe_linewidth_MHz) ** 2
    ensemble._dense_depth(dense, amps, freqs, ens.transition_freqs, hw2)
    # depths of either sign can cancel, so the round-off is bounded by the sum of |terms|
    scale = max(np.abs(a).sum() for a in amps)
    np.testing.assert_allclose(lattice, ens.params.sigma_scale * dense, rtol=1e-12,
                               atol=1e-12 * ens.params.sigma_scale * scale)


def _stochastic(rng, width):
    """A stack of column-stochastic 4x4 matrices, so products keep entries in [0, 1]."""
    m = rng.random((width, 4, 4))
    return m / m.sum(axis=1, keepdims=True)


@st.composite
def _factor_list(draw):
    """(stack, offset) factors and the class count n, as _time_ordered takes them.

    Periodic lists repeat a pattern of p factors G times, each repeat moved by
    delta slots, and keep r < p of them for a partial last group; |delta| > n
    puts a repeat's slots more than n from the last one's.  Aperiodic lists
    draw up to 80 factors from one or two pumped stacks over a narrow or wide
    spread of offsets, so runs on one stack are short or long, with or
    without a shift period.  Both kinds mix in pump-off factors, at the ends
    too.
    """
    n = draw(st.integers(1, 9))
    kind = draw(st.sampled_from(["periodic", "aperiodic"] * 3 + ["single"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shared = [_stochastic(rng, 1) for _ in range(2)]
    if kind == "periodic":
        slot = st.one_of(st.tuples(st.integers(0, 1), st.none()),
                         st.tuples(st.integers(2, 3), st.integers(-5, 5)))
        pattern = draw(st.lists(slot, min_size=1, max_size=6))
        delta = draw(st.integers(-2 * n - 3, 2 * n + 3))
        groups, r = draw(st.integers(2, 6)), draw(st.integers(0, len(pattern) - 1))
        layout = [(i, None if a is None else a + g * delta)
                  for g in range(groups + 1) for i, a in pattern][:groups * len(pattern) + r]
    else:
        size = 1 if kind == "single" else draw(st.integers(2, 80))
        spread, off_share = draw(st.integers(0, 3 * n)), draw(st.sampled_from([0.0, 0.2, 0.6]))
        stacks = rng.integers(2, 2 + draw(st.integers(1, 2)), size)
        layout = [(int(rng.integers(2)), None) if rng.random() < off_share
                  else (int(i), int(rng.integers(-spread, spread + 1))) for i in stacks]
    offsets = [a for _, a in layout if a is not None]
    low, high = min(offsets, default=0), max(offsets, default=0)
    pumped = [_stochastic(rng, high - low + n) for _ in range(2)]
    factors = [(shared[i], None) if a is None else (pumped[i - 2], a - low) for i, a in layout]
    return factors, n, kind


def _counted_product(factors, n):
    """_time_ordered of factors, checked against a plain fold, and its count of 4x4 products.

    The count is checked against one taken from the shapes of every _mul call.
    """
    counted = []
    mul = sequence._mul

    def counting(later, earlier, rows):
        counted.append(math.prod(np.broadcast_shapes(later.shape[:-2], earlier.shape[:-2])))
        return mul(later, earlier, rows)

    with mock.patch.object(sequence, "_mul", counting):
        got, rows = sequence._time_ordered(factors, n)
    ref = np.eye(4)
    for s, a in factors:
        ref = (s if a is None else s[a:a + n]) @ ref
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
    assert rows == sum(counted) <= (len(factors) - 1) * n
    return rows


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_factor_list())
def test_the_shared_product_equals_the_fold(case):
    factors, n, kind = case
    _counted_product(factors, n)
    # each run of pumped factors on one stack has as its shift the smallest
    # p <= K / 2 for which offset k + p is offset k moved by one delta != 0
    i = 0
    while i < len(factors):
        j = i + 1
        while factors[i][1] is not None and j < len(factors) and factors[j][0] is factors[i][0]:
            j += 1
        offsets = [a for _, a in factors[i:j]]
        moves = [{b - a for a, b in zip(offsets, offsets[p:])} for p in range(1, (j - i) // 2 + 1)]
        shifts = [(p, *m) for p, m in enumerate(moves, 1) if len(m) == 1 and m != {0}]
        if j - i > 1:
            assert sequence._shift(offsets) == (shifts[0] if shifts else None)
        i = j


@st.composite
def _window_list(draw):
    """A long run on one pumped stack at a stride of +-1 or +-2 slots, one to three
    shared factors, then a second run on the stack, as long or not, and n from 30 to 200."""
    n = draw(st.integers(30, 200))
    d = draw(st.sampled_from([-2, -1, 1, 2]))
    first = draw(st.integers(12, 60))
    second = draw(st.one_of(st.just(first), st.integers(0, 60)))
    skip = draw(st.integers(-3, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    offsets = [k * d for k in range(first)] + [(first + skip + k) * d for k in range(second)]
    low = min(offsets)
    stack, shared = _stochastic(rng, max(offsets) - low + n), _stochastic(rng, 1)
    pumped = [(stack, a - low) for a in offsets]
    return pumped[:first] + [(shared, None)] * draw(st.integers(1, 3)) + pumped[first:], n


@settings(derandomize=True, max_examples=40, deadline=None)
@given(_window_list())
def test_window_products_equal_the_fold(case):
    factors, n = case
    with mock.patch.object(sequence, "_windows", wraps=sequence._windows) as windows:
        _counted_product(factors, n)
    assert windows.called


# Numeric paths every drawn scenario has, each with its values and whether
# it also takes their negatives: the stimulation rate sees its detuning only
# through the square, so a +-pair there builds byte-equal generators.  The
# last readout's delay ({last} is its index) leaves every drive equal, so its
# points share their drive prefix.
_SWEPT_PATHS = (
    ("drive.stim_detuning_MHz", _num(-1e4, 1e4), True),
    ("profile.center_MHz", _num(-5.0, 5.0), True),
    ("rates.beta", _num(0.0, 1.0), False),
    ("sequence[{last}].at_delay_ms", _num(0.0, 20.0), False),
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
    pulses = draw(_pulse_list())
    path = path.format(last=len(pulses))
    sweep = SweepSpec(path, tuple(draw(st.lists(st.sampled_from(pool), min_size=2, max_size=6))))
    cfg = ExperimentConfig(
        zeeman=FIELD, rates=draw(_rates), profile=SMALL,
        sequence=(*pulses, last),
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
    # three population arrays of the 21 SMALL classes: the store can fill
    # within a point's run.  At one entry more than the store holds after
    # the first point (None), a later point fills it once it stores anything,
    # so points resume from stored prefixes on both sides of a flush.
    held, advance = [], runner.advance

    def spy(*args):
        evolution = advance(*args)
        held.append(args[3].entries)
        return evolution

    for budget in (sequence.STORE_BUDGET_ENTRIES, 3 * 5 * 21, None):
        with tempfile.TemporaryDirectory() as out, mock.patch.object(runner, "advance", spy), \
                mock.patch.object(sequence, "STORE_BUDGET_ENTRIES", budget or held[0] + 1):
            runner.run_scenario(cfg, out)
            rows = (Path(out) / "sweep.csv").read_text().splitlines()[1:]
        assert rows == alone
