import dataclasses
import math
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from holeburn import engine, runner, sequence
from holeburn.config import parse_config
from holeburn.engine import DriveRates, IonClassState
from holeburn.ensemble import InhomogeneousProfile, build_ensemble, hole_area
from holeburn.errors import ConfigError, SequenceError
from holeburn.levels import RateParams, ZeemanConfig
from holeburn.presets import preset
from holeburn.sequence import (
    CompiledSequence,
    DriveCalibration,
    DriveSegment,
    PumpPulse,
    RFPulse,
    ReadoutPulse,
    RepeatBlock,
    StimulationPulse,
    Store,
    WaitPulse,
    compile_sequence,
    run,
    write_trace_csv,
)

COLD = RateParams(t1_ms=11.0, tz_ms=100.0, beta=0.9)
FIELD = ZeemanConfig(field_mT=1.2)


def _ens(span=60.0, step=1.0):
    prof = InhomogeneousProfile(
        center_MHz=0.0, shape="flat", grid_span_MHz=span, grid_step_MHz=step
    )
    return build_ensemble(prof, FIELD, COLD)


# ---------------------------------------------------------------- validation

def test_pulse_timing_validation():
    with pytest.raises(ValueError):
        PumpPulse(start_ms=-1.0, duration_ms=1.0, center_MHz=0.0, power_rate_per_ms=1.0)
    with pytest.raises(ValueError):
        PumpPulse(start_ms=0.0, duration_ms=-1.0, center_MHz=0.0, power_rate_per_ms=1.0)
    with pytest.raises(ValueError):
        PumpPulse(start_ms=0.0, duration_ms=float("nan"), center_MHz=0.0,
                  power_rate_per_ms=1.0)
    with pytest.raises(ValueError):
        PumpPulse(start_ms=0.0, duration_ms=1.0, center_MHz=0.0, power_rate_per_ms=-2.0)


def test_swept_pump_validation():
    with pytest.raises(ValueError):
        PumpPulse(start_ms=0.0, duration_ms=1.0, center_MHz=0.0, power_rate_per_ms=1.0,
                  sweep_span_MHz=10.0)  # missing period
    with pytest.raises(ValueError):
        PumpPulse(start_ms=0.0, duration_ms=1.0, center_MHz=0.0, power_rate_per_ms=1.0,
                  sweep_span_MHz=10.0, sweep_period_ms=0.1, gate_gap_MHz=10.0)


def test_other_pulse_validation():
    with pytest.raises(ValueError):
        StimulationPulse(start_ms=0.0, duration_ms=1.0, power_mW=-5.0)
    with pytest.raises(ValueError):
        RFPulse(start_ms=0.0, duration_ms=1.0, center_MHz=135.0, bandwidth_MHz=0.0,
                voltage_Vpp=5.0)
    with pytest.raises(ValueError):
        ReadoutPulse(f_start_MHz=10.0, f_stop_MHz=-10.0, n_points=101, at_delay_ms=1.0)
    with pytest.raises(ValueError):
        ReadoutPulse(f_start_MHz=-10.0, f_stop_MHz=10.0, n_points=1, at_delay_ms=1.0)


def test_overlapping_pump_pulses_rejected():
    pulses = [
        PumpPulse(start_ms=0.0, duration_ms=10.0, center_MHz=0.0, power_rate_per_ms=1.0),
        PumpPulse(start_ms=5.0, duration_ms=10.0, center_MHz=3.0, power_rate_per_ms=1.0),
    ]
    with pytest.raises(SequenceError):
        compile_sequence(pulses)


def test_back_to_back_pulses_allowed():
    pulses = [
        PumpPulse(start_ms=0.0, duration_ms=10.0, center_MHz=0.0, power_rate_per_ms=1.0),
        PumpPulse(start_ms=10.0, duration_ms=10.0, center_MHz=3.0, power_rate_per_ms=1.0),
    ]
    comp = compile_sequence(pulses)
    assert comp.drives_end_ms == 20.0
    assert comp.n_segments == 2


def test_overlap_check_does_not_depend_on_pulse_order():
    # the shortest pulse a drive may have ends within the 1e-12 ms tolerance of
    # its neighbour's start
    short = StimulationPulse(start_ms=1.0, duration_ms=2.5e-12, power_mW=5.0)
    long = StimulationPulse(start_ms=1.0 + 2e-12, duration_ms=1.0, power_mW=5.0)
    assert compile_sequence([long, short]).items == compile_sequence([short, long]).items


_DRIVES = {
    "pump": ({"center_MHz": 0.0, "power_rate_per_ms": 1.0}, lambda seg: seg.pump_freq_MHz == 0.0),
    "stimulation": ({"power_mW": 5.0}, lambda seg: seg.stim_power_mW == 5.0),
    "rf": ({"center_MHz": 110.0, "bandwidth_MHz": 10.0, "voltage_Vpp": 1.0},
           lambda seg: seg.rf_voltage_Vpp == 1.0),
}


@pytest.mark.parametrize("kind", sorted(_DRIVES))
@pytest.mark.parametrize("duration", [1e-12, 2e-12, 2.5e-12])
def test_a_drive_too_short_to_hold_a_segment_is_a_config_error(kind, duration):
    fields, driven = _DRIVES[kind]
    raw = {"zeeman": {"field_mT": 1.2}, "rates": {"t1_ms": 11.0, "tz_ms": 100.0, "beta": 0.9},
           "profile": {}, "sequence": [{"kind": "wait", "duration_ms": 1.0},
                                       {"kind": kind, "start_ms": 1.0, "duration_ms": duration,
                                        **fields}]}
    if duration <= 2e-12:
        with pytest.raises(ConfigError) as err:
            parse_config(raw)
        assert err.value.path == "sequence[1].duration_ms"
        assert repr(duration) in str(err.value)
    else:
        (seg,) = compile_sequence(parse_config(raw).sequence).items[-1].segments
        assert seg.t_start_ms == 1.0
        assert driven(seg)


def _cap_segments(monkeypatch):
    """Fail a compile that makes 10,000 segments instead of letting it fill memory."""
    made = []

    def capped(*args, **kwargs):
        made.append(None)
        assert len(made) < 10_000, "compile_sequence repeats a step"
        return replace(*args, **kwargs)

    monkeypatch.setattr(sequence, "replace", capped)


@pytest.mark.parametrize("period, dt_max, n_steps", [
    (1e-12, None, None), (1e-11, None, None), (1e-10, 2e-12, None),  # steps of 2e-12 or less
    (1.25e-10, None, 50), (1e-10, 2.5e-12, 40),  # the shortest steps that hold a segment
    (0.1, 1e-11, None),  # 1e10 steps per period, more than MAX_SWEEP_STEPS
])
def test_a_sweep_step_too_short_to_hold_a_segment_is_rejected(monkeypatch, period, dt_max,
                                                              n_steps):
    _cap_segments(monkeypatch)
    pump = PumpPulse(start_ms=3.0, duration_ms=8 * period, center_MHz=0.0,
                     power_rate_per_ms=1.0, sweep_span_MHz=10.0, sweep_period_ms=period)
    if n_steps is None:
        with pytest.raises(SequenceError, match=r"swept pump at t = 3\.0 ms: sweep step"):
            compile_sequence([WaitPulse(duration_ms=3.0), pump], dt_max_ms=dt_max)
        return
    (block,) = compile_sequence([replace(pump, start_ms=0.0)], dt_max_ms=dt_max).items
    assert block.count == 8
    assert len(block.segments) == n_steps
    assert len({seg.pump_freq_MHz for seg in block.segments}) == n_steps


@pytest.mark.parametrize("start, period", [(3.0, 1e-8), (300.0, 1e-3), (1000.0, 1e-6)])
def test_a_late_swept_pump_compiles_every_step_once(monkeypatch, start, period):
    # this late, a step edge rounds by more than 1e-9 of a step; the step index
    # read back from such an edge came out one low, and compiling never ended
    _cap_segments(monkeypatch)
    pump = PumpPulse(start_ms=start, duration_ms=8 * period, center_MHz=0.0,
                     power_rate_per_ms=1.0, sweep_span_MHz=10.0, sweep_period_ms=period)
    comp = compile_sequence([WaitPulse(duration_ms=start), pump])
    wait, *swept = comp.items
    assert wait.segments[0].t_end_ms == start
    assert comp.n_segments - 1 == 8 * 50
    assert all(s.dt_ms > sequence.TIME_TOL_MS for it in swept for s in it.segments)
    assert comp.drives_end_ms == start + 8 * period
    # whole periods counted to TIME_TOL_MS, not to 1e-9 of a period, make one block
    (block,) = swept
    assert block.count == 8 and comp.n_sweep_periods == 8


# ------------------------------------------------------------------- compile

def test_compile_single_constant_pump():
    comp = compile_sequence(
        [PumpPulse(start_ms=0.0, duration_ms=10.0, center_MHz=2.0, power_rate_per_ms=1.5)]
    )
    assert comp.drives_end_ms == 10.0
    (item,) = comp.items
    assert item.count == 1
    (seg,) = item.segments
    assert seg.pump_freq_MHz == 2.0
    assert seg.pump_rate_per_ms == 1.5
    assert seg.stim_power_mW == 0.0


def test_compile_zero_duration_ignored():
    comp = compile_sequence(
        [PumpPulse(start_ms=0.0, duration_ms=0.0, center_MHz=0.0, power_rate_per_ms=1.0)]
    )
    assert comp.items == []
    assert comp.drives_end_ms == 0.0


def test_compile_folds_sweeps_into_repeat_block():
    comp = compile_sequence(
        [PumpPulse(start_ms=0.0, duration_ms=200.0, center_MHz=0.0,
                   power_rate_per_ms=2.0, sweep_span_MHz=10.0, sweep_period_ms=0.1)]
    )
    assert comp.n_sweep_periods == 2000
    (block,) = comp.items
    assert block.count == 2000
    # the block's cycle covers exactly one period
    assert sum(s.dt_ms for s in block.segments) == pytest.approx(0.1, rel=1e-9)


def test_compile_gate_blanks_center_steps():
    comp = compile_sequence(
        [PumpPulse(start_ms=0.0, duration_ms=0.1, center_MHz=0.0, power_rate_per_ms=2.0,
                   sweep_span_MHz=10.0, sweep_period_ms=0.1, gate_gap_MHz=3.0)],
        dt_max_ms=0.001,
    )
    (block,) = comp.items
    segs = block.segments
    gated = [s for s in segs if s.pump_freq_MHz is None]
    lit = [s for s in segs if s.pump_freq_MHz is not None]
    assert gated and lit
    # blanked steps are exactly those whose offset falls inside the gap
    assert all(s.pump_rate_per_ms == 0.0 for s in gated)
    assert all(abs(s.pump_freq_MHz) >= 1.5 for s in lit)
    assert max(abs(s.pump_freq_MHz) for s in lit) <= 5.0


def test_sweep_steps_copy_every_field_but_the_times_and_the_pump():
    # a sentinel per copied field, read from dataclasses.fields, so a field added to
    # DriveSegment later is checked too
    own = {"t_start_ms", "t_end_ms", "pump_freq_MHz", "pump_rate_per_ms"}
    kept = {f.name: object() for f in dataclasses.fields(DriveSegment) if f.name not in own}
    assert len(kept) == 4
    base = DriveSegment(t_start_ms=0.0, t_end_ms=1.0, **kept)
    pump = PumpPulse(duration_ms=1.0, center_MHz=0.0, power_rate_per_ms=2.0,
                     sweep_span_MHz=10.0, sweep_period_ms=0.5, gate_gap_MHz=3.0)
    steps = sequence._sweep_steps(pump, 10, base, 0.0, 1.0)
    assert len(steps) == 20
    assert {s.pump_freq_MHz is None for s in steps} == {True, False}
    for step in steps:
        for name, value in kept.items():
            assert getattr(step, name) is value


def test_compile_stim_overhang_gets_own_segment():
    comp = compile_sequence([
        PumpPulse(start_ms=0.0, duration_ms=10.0, center_MHz=0.0, power_rate_per_ms=1.0),
        StimulationPulse(start_ms=0.0, duration_ms=30.0, power_mW=50.0),
    ])
    assert comp.drives_end_ms == 30.0
    assert len(comp.items) == 2
    first, second = (it.segments[0] for it in comp.items)
    assert first.pump_freq_MHz == 0.0 and first.stim_power_mW == 50.0
    assert second.pump_freq_MHz is None and second.stim_power_mW == 50.0
    assert second.t_start_ms == 10.0 and second.t_end_ms == 30.0


def test_dt_max_bounds_only_the_sweep_step():
    # a constant interval stays whole, since its propagation is exact
    comp = compile_sequence(
        [PumpPulse(start_ms=0.0, duration_ms=10.0, center_MHz=0.0, power_rate_per_ms=1.0)],
        dt_max_ms=1.0,
    )
    assert comp.n_segments == 1
    (seg,) = comp.items[0].segments
    assert (seg.t_start_ms, seg.t_end_ms) == (0.0, 10.0)
    # while a swept pump is still cut into period / dt_max_ms steps
    comp = compile_sequence(
        [PumpPulse(duration_ms=1.0, center_MHz=0.0, power_rate_per_ms=1.0,
                   sweep_span_MHz=10.0, sweep_period_ms=0.1)],
        dt_max_ms=0.01,
    )
    (block,) = comp.items
    assert block.count == 10
    assert len(block.segments) == 10


def test_compile_wait_extends_horizon():
    comp = compile_sequence([
        PumpPulse(start_ms=0.0, duration_ms=5.0, center_MHz=0.0, power_rate_per_ms=1.0),
        WaitPulse(start_ms=5.0, duration_ms=20.0),
    ])
    assert comp.drives_end_ms == 25.0
    (wait,) = comp.items[-1].segments
    assert wait.pump_freq_MHz is None
    assert wait.pump_rate_per_ms == 0.0


def test_a_long_pulse_train_compiles_in_linear_time():
    # each cut finds its channels' active pulses in one pass over them, not a
    # scan of every pulse: 5,000 pulses and 10,000 cuts
    pulses = [PumpPulse(start_ms=2.0 * i, duration_ms=1.0, center_MHz=0.0, power_rate_per_ms=1.6)
              for i in range(5000)]
    t0 = time.perf_counter()
    comp = compile_sequence(pulses)
    assert time.perf_counter() - t0 < 1.0
    assert len(comp.items) == 2 * 5000 - 1
    assert [it.segments[0].pump_freq_MHz for it in comp.items[:3]] == [0.0, None, 0.0]


def test_compile_bad_dt_max():
    with pytest.raises(ValueError):
        compile_sequence([], dt_max_ms=0.0)


# ----------------------------------------------------------------------- run

def test_run_without_drives_returns_baseline():
    ens = _ens()
    ro = ReadoutPulse(f_start_MHz=-20.0, f_stop_MHz=20.0, n_points=81, at_delay_ms=5.0)
    res = run(ens, compile_sequence([ro]))
    assert len(res.readouts) == 1
    (r,) = res.readouts
    assert r.delay_ms == 5.0
    # the thermal state is stationary without drives
    assert np.allclose(r.spectrum.optical_depth, r.baseline.optical_depth, atol=1e-12)


def test_run_is_deterministic():
    seq = [
        PumpPulse(start_ms=0.0, duration_ms=20.0, center_MHz=0.0, power_rate_per_ms=2.0),
        ReadoutPulse(f_start_MHz=-15.0, f_stop_MHz=15.0, n_points=121, at_delay_ms=2.0),
    ]
    comp = compile_sequence(seq)
    r1 = run(_ens(), comp)
    r2 = run(_ens(), comp)
    assert np.array_equal(r1.readouts[0].spectrum.optical_depth,
                          r2.readouts[0].spectrum.optical_depth)


def _split(seg, cuts):
    """seg cut at the given times into back-to-back one-segment items of equal drive."""
    edges = [seg.t_start_ms, *cuts, seg.t_end_ms]
    return [RepeatBlock((replace(seg, t_start_ms=a, t_end_ms=b),))
            for a, b in zip(edges, edges[1:])]


def test_run_constant_segments_refinement_invariant():
    # splitting a constant interval must not change the exact propagation
    seq = [
        PumpPulse(start_ms=0.0, duration_ms=10.0, center_MHz=0.0, power_rate_per_ms=2.0),
        StimulationPulse(start_ms=0.0, duration_ms=10.0, power_mW=20.0),
        ReadoutPulse(f_start_MHz=-15.0, f_stop_MHz=15.0, n_points=121, at_delay_ms=1.0),
    ]
    coarse = compile_sequence(seq)
    ((seg,),) = (it.segments for it in coarse.items)
    fine = replace(coarse, items=_split(seg, [0.5 * k for k in range(1, 20)]))
    assert len(fine.items) == 20
    d = np.abs(run(_ens(), coarse).readouts[0].spectrum.optical_depth
               - run(_ens(), fine).readouts[0].spectrum.optical_depth)
    assert d.max() < 1e-6


def test_run_swept_pump_refinement_converged():
    seq = [
        PumpPulse(start_ms=0.0, duration_ms=20.0, center_MHz=0.0, power_rate_per_ms=2.0,
                  sweep_span_MHz=10.0, sweep_period_ms=0.1),
        ReadoutPulse(f_start_MHz=-15.0, f_stop_MHz=15.0, n_points=121, at_delay_ms=2.0),
    ]
    window = (-8.0, 8.0)
    (ra,) = run(_ens(), compile_sequence(seq)).readouts
    (rb,) = run(_ens(), compile_sequence(seq, dt_max_ms=0.001)).readouts
    a = hole_area(ra.spectrum, ra.baseline, window)
    b = hole_area(rb.spectrum, rb.baseline, window)
    assert a == pytest.approx(b, rel=0.01)


def test_run_stimulation_deepens_depletion():
    # With the de-excitation drive on, each pump cycle recycles quickly
    # instead of parking in the excited state, so the pumped ground level
    # ends up emptier at the same pump power.
    pump = PumpPulse(start_ms=0.0, duration_ms=100.0, center_MHz=0.0,
                     power_rate_per_ms=0.5)
    ro = ReadoutPulse(f_start_MHz=-15.0, f_stop_MHz=15.0, n_points=61, at_delay_ms=10.0)
    e_plain, e_stim = _ens(), _ens()
    run(e_plain, compile_sequence([pump, ro]))
    stim = StimulationPulse(start_ms=0.0, duration_ms=100.0, power_mW=50.0)
    run(e_stim, compile_sequence([pump, stim, ro]))
    idx = e_plain.n_classes // 2
    assert e_plain.centers_MHz[idx] == 0.0
    assert e_stim.populations[idx, 0] < e_plain.populations[idx, 0] - 0.05


def test_run_rf_out_of_band_is_inert():
    seq = [
        PumpPulse(start_ms=0.0, duration_ms=20.0, center_MHz=0.0, power_rate_per_ms=2.0),
        ReadoutPulse(f_start_MHz=-15.0, f_stop_MHz=15.0, n_points=121, at_delay_ms=2.0),
    ]
    # delta_e at 1.2 mT is ~134.4 MHz; an RF band around 300 MHz misses it
    off_band = seq + [RFPulse(start_ms=0.0, duration_ms=20.0, center_MHz=300.0,
                              bandwidth_MHz=15.0, voltage_Vpp=10.0)]
    r_ref = run(_ens(), compile_sequence(seq))
    r_off = run(_ens(), compile_sequence(off_band))
    assert np.allclose(
        r_ref.readouts[0].spectrum.optical_depth,
        r_off.readouts[0].spectrum.optical_depth,
        atol=1e-12,
    )


def test_run_rf_in_band_changes_result():
    seq = [
        PumpPulse(start_ms=0.0, duration_ms=20.0, center_MHz=0.0, power_rate_per_ms=2.0),
        StimulationPulse(start_ms=0.0, duration_ms=20.0, power_mW=50.0),
        ReadoutPulse(f_start_MHz=-15.0, f_stop_MHz=15.0, n_points=121, at_delay_ms=2.0),
    ]
    in_band = seq + [RFPulse(start_ms=0.0, duration_ms=20.0,
                             center_MHz=FIELD.delta_e_MHz, bandwidth_MHz=15.0,
                             voltage_Vpp=10.0)]
    r_ref = run(_ens(), compile_sequence(seq))
    r_rf = run(_ens(), compile_sequence(in_band))
    d = np.abs(r_ref.readouts[0].spectrum.optical_depth
               - r_rf.readouts[0].spectrum.optical_depth)
    assert d.max() > 1e-4


def test_readout_rejects_negative_delay():
    with pytest.raises(ValueError, match="at_delay_ms"):
        ReadoutPulse(f_start_MHz=-5.0, f_stop_MHz=5.0, n_points=11, at_delay_ms=-1.0)
    with pytest.raises(ValueError, match="at_delay_ms"):
        ReadoutPulse(f_start_MHz=-5.0, f_stop_MHz=5.0, n_points=11, at_delay_ms=float("inf"))
    assert ReadoutPulse(f_start_MHz=-5.0, f_stop_MHz=5.0, n_points=11,
                        at_delay_ms=0.0).at_delay_ms == 0.0


def test_run_conserves_population():
    params = RateParams(t1_ms=11.0, tz_ms=100.0, beta=0.9, persistent_fraction=0.0)
    prof = InhomogeneousProfile(center_MHz=0.0, shape="flat",
                                grid_span_MHz=60.0, grid_step_MHz=1.0)
    ens = build_ensemble(prof, FIELD, params)
    seq = [
        PumpPulse(start_ms=0.0, duration_ms=30.0, center_MHz=0.0, power_rate_per_ms=3.0,
                  sweep_span_MHz=10.0, sweep_period_ms=0.1),
        StimulationPulse(start_ms=0.0, duration_ms=30.0, power_mW=50.0),
        RFPulse(start_ms=0.0, duration_ms=30.0, center_MHz=FIELD.delta_e_MHz,
                bandwidth_MHz=15.0, voltage_Vpp=5.0),
        ReadoutPulse(f_start_MHz=-15.0, f_stop_MHz=15.0, n_points=61, at_delay_ms=3.0),
    ]
    run(ens, compile_sequence(seq))
    totals = ens.populations.sum(axis=1)
    assert np.abs(totals - 1.0).max() < 1e-9
    # nothing should be trapped beyond float dust when the leak is off
    assert ens.populations[:, 4].max() < 1e-9


def test_run_trace_and_stats():
    seq = [
        PumpPulse(start_ms=0.0, duration_ms=10.0, center_MHz=0.0, power_rate_per_ms=2.0),
        ReadoutPulse(f_start_MHz=-15.0, f_stop_MHz=15.0, n_points=121, at_delay_ms=1.0),
        ReadoutPulse(f_start_MHz=-15.0, f_stop_MHz=15.0, n_points=121, at_delay_ms=5.0),
    ]
    res = run(_ens(), compile_sequence(seq))
    assert [r.delay_ms for r in res.readouts] == [1.0, 5.0]
    areas = [hole_area(r.spectrum, r.baseline, (-3.0, 3.0)) for r in res.readouts]
    assert all(a > 0 for a in areas)
    # the hole relaxes between the two readouts
    assert areas[1] < areas[0]
    assert res.stats["drives_end_ms"] == 10.0
    assert res.stats["n_items"] == len(compile_sequence(seq).items)
    # one matrix per distinct pump detuning, plus one per readout delay
    assert res.stats["n_expm_matrices"] == _ens().n_classes + 2


def test_run_readouts_share_baseline_key():
    seq = [
        PumpPulse(start_ms=0.0, duration_ms=10.0, center_MHz=0.0, power_rate_per_ms=2.0),
        ReadoutPulse(f_start_MHz=-15.0, f_stop_MHz=15.0, n_points=121, at_delay_ms=1.0),
        ReadoutPulse(f_start_MHz=-15.0, f_stop_MHz=15.0, n_points=121, at_delay_ms=5.0),
        ReadoutPulse(f_start_MHz=-30.0, f_stop_MHz=30.0, n_points=241, at_delay_ms=5.0),
    ]
    res = run(_ens(), compile_sequence(seq))
    narrow_1, narrow_5, wide = res.readouts
    # one baseline object per grid, shared by every readout on it
    assert narrow_1.baseline is narrow_5.baseline
    assert wide.baseline is not narrow_1.baseline
    assert len(wide.baseline.freqs_MHz) == 241
    assert np.array_equal(narrow_1.baseline.freqs_MHz, narrow_1.spectrum.freqs_MHz)


def test_hand_built_readouts_run_in_delay_order():
    seg = DriveSegment(t_start_ms=0.0, t_end_ms=10.0, pump_freq_MHz=0.0, pump_rate_per_ms=2.0)
    late, early = (ReadoutPulse(f_start_MHz=-5.0, f_stop_MHz=5.0, n_points=11, at_delay_ms=d)
                   for d in (5.0, 1.0))
    item = RepeatBlock((seg,))
    both = run(_ens(), CompiledSequence(items=[item], readouts=[late, early], drives_end_ms=10.0))
    alone = run(_ens(), CompiledSequence(items=[item], readouts=[early], drives_end_ms=10.0))
    assert [r.delay_ms for r in both.readouts] == [1.0, 5.0]
    assert np.array_equal(both.readouts[0].spectrum.optical_depth,
                          alone.readouts[0].spectrum.optical_depth)


def test_write_trace_csv(tmp_path):
    path = tmp_path / "trace.csv"
    write_trace_csv([(1.0, 0.5), (2.0, 0.25)], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "delay_ms,hole_area"
    assert lines[1] == "1.0,0.5"
    assert len(lines) == 3


def test_drive_calibration_validation_and_stim_response():
    with pytest.raises(ValueError):
        DriveCalibration(pump_linewidth_MHz=0.0)
    with pytest.raises(ValueError):
        DriveCalibration(stim_slope_per_mW_ms=-1.0)
    cal = DriveCalibration(stim_slope_per_mW_ms=0.35, stim_detuning_MHz=0.0,
                           stim_response_fwhm_MHz=14000.0)
    on_peak = cal.stim_rate(20.0)
    assert on_peak == pytest.approx(7.0, rel=1e-12)
    half = DriveCalibration(stim_slope_per_mW_ms=0.35, stim_detuning_MHz=7000.0,
                            stim_response_fwhm_MHz=14000.0)
    assert half.stim_rate(20.0) == pytest.approx(3.5, rel=1e-12)


# -------------------------------------------------------- shared propagators

NARROW = DriveCalibration(pump_linewidth_MHz=0.25)


def _reference_propagators(ens, cal, item):
    """Per-class propagator of an item, built class by class and step by step."""
    trans = ens.transition_freqs
    out = []
    for i in range(ens.n_classes):
        acc = np.eye(4)
        for seg in item.segments:
            pump = (0.0, 0.0, 0.0, 0.0)
            if seg.pump_freq_MHz is not None:
                pump = tuple(engine.pump_rate_profile(
                    seg.pump_rate_per_ms, cal.pump_linewidth_MHz, seg.pump_freq_MHz - trans[i]))
            stim = cal.stim_rate(seg.stim_power_mW)
            in_band = abs(FIELD.delta_e_MHz - seg.rf_center_MHz) <= seg.rf_bandwidth_MHz / 2.0
            rf = engine.rf_mix_rate(seg.rf_voltage_Vpp, cal.rf_coupling_per_V2_ms)
            drive = DriveRates(pump_rate=pump, stim_rate=stim,
                               rf_mix_rate=rf if in_band else 0.0)
            acc = engine.propagator(engine.build_rate_matrix(ens.params, drive), seg.dt_ms) @ acc
        out.append(np.linalg.matrix_power(acc, item.count))
    return np.array(out)


def _gated_rf_sequence():
    # swept, gated, stimulated and RF-mixed for three periods and a half, then a
    # pump-off stimulation tail split by hand into ten pieces
    comp = compile_sequence([
        PumpPulse(start_ms=0.0, duration_ms=0.35, center_MHz=0.0, power_rate_per_ms=2.0,
                  sweep_span_MHz=10.0, sweep_period_ms=0.1, gate_gap_MHz=3.0),
        StimulationPulse(start_ms=0.0, duration_ms=0.45, power_mW=20.0),
        RFPulse(start_ms=0.0, duration_ms=0.35, center_MHz=FIELD.delta_e_MHz,
                bandwidth_MHz=15.0, voltage_Vpp=5.0),
    ], dt_max_ms=0.01)
    (tail,) = comp.items.pop().segments
    assert tail.pump_freq_MHz is None and tail.dt_ms == pytest.approx(0.1)
    comp.items += _split(tail, [0.35 + 0.01 * k for k in range(1, 10)])
    return comp


def _off_lattice_sequence():
    # 7 steps across 10 MHz from a centre off the 1 MHz class grid: almost
    # no detunings coincide, and none may be merged
    return compile_sequence([
        PumpPulse(start_ms=0.0, duration_ms=0.25, center_MHz=0.013, power_rate_per_ms=2.0,
                  sweep_span_MHz=10.0, sweep_period_ms=0.07),
    ], dt_max_ms=0.01)


def _uneven_cycle():
    # equal drive settings but unequal durations must not share a propagator
    steps = [(0.0, 0.01, 1.0), (0.01, 0.03, 1.0), (0.03, 0.04, None), (0.04, 0.05, 2.0)]
    block = RepeatBlock(segments=tuple(
        DriveSegment(t_start_ms=a, t_end_ms=b, pump_freq_MHz=f,
                     pump_rate_per_ms=2.0 if f is not None else 0.0, stim_power_mW=20.0)
        for a, b, f in steps
    ), count=3)
    return CompiledSequence(items=[block], readouts=[], drives_end_ms=block.dt_ms)


@pytest.mark.parametrize("make", [_gated_rf_sequence, _off_lattice_sequence, _uneven_cycle])
def test_shared_propagators_match_per_class_reference(make):
    comp = make()
    assert any(it.count > 1 for it in comp.items)
    ens = _ens(span=20.0, step=1.0)
    props = sequence._Propagators(ens, NARROW)
    for item in comp.items:
        got = props.propagator(props.groups(item))
        ref = _reference_propagators(ens, NARROW, item)
        assert np.abs(got - ref).max() <= 1e-12


def _count_matrices(monkeypatch):
    counted = []
    batch = engine.propagator_batch

    def counting(matrices, dt_ms):
        counted.append(len(matrices))
        return batch(matrices, dt_ms)

    monkeypatch.setattr(engine, "propagator_batch", counting)
    return counted


def test_pump_off_item_costs_one_matrix(monkeypatch):
    counted = _count_matrices(monkeypatch)
    ens = _ens()
    res = run(ens, compile_sequence([StimulationPulse(start_ms=0.0, duration_ms=5.0,
                                                      power_mW=20.0)]))
    assert ens.n_classes > 1
    assert counted == [1]
    assert res.stats["n_expm_matrices"] == 1


def test_sweep_cycle_costs_one_matrix_per_distinct_detuning(monkeypatch):
    comp = _gated_rf_sequence()
    block = next(it for it in comp.items if it.count > 1)
    ens = _ens(span=20.0, step=1.0)
    counted = _count_matrices(monkeypatch)
    props = sequence._Propagators(ens, NARROW)
    props.propagator(props.groups(block))
    lit = [s.pump_freq_MHz for s in block.segments if s.pump_freq_MHz is not None]
    assert len(lit) < len(block.segments)
    detunings = {round(f - c, 6) for f in lit for c in ens.centers_MHz}
    # one batch for the lit steps, one shared matrix for the gated ones
    assert sorted(counted) == [1, len(detunings)]
    assert len(detunings) < len(lit) * ens.n_classes


def test_a_pumped_item_needs_a_uniform_class_grid():
    ens = _ens(span=20.0, step=1.0)
    centers = ens.centers_MHz.copy()
    centers[7] += 1e-9
    jittered = replace(ens, centers_MHz=centers)
    block = next(it for it in _gated_rf_sequence().items if it.count > 1)
    props = sequence._Propagators(jittered, NARROW)
    with pytest.raises(ValueError, match="centers_MHz"):
        props.propagator(props.groups(block))
    # without the pump no lattice is read
    off = DriveSegment(t_start_ms=0.0, t_end_ms=1.0, stim_power_mW=20.0)
    assert props.propagator(props.groups(RepeatBlock((off,)))).shape == (1, 4, 4)


def test_propagator_memory_of_a_gated_sweep_cycle():
    # fig7's cycle: 94 lit and 6 gated steps over 1,001 classes, 2,000 periods;
    # sorting its 94 x 1,001 detuning keys would peak at 4.4 MiB
    cfg = parse_config(preset("fig7_tailoring"))
    ens, comp = runner._prepare(cfg)
    block = next(it for it in comp.items if it.count > 1)
    lit = sum(s.pump_freq_MHz is not None for s in block.segments)
    assert (lit, len(block.segments) - lit, ens.n_classes, block.count) == (94, 6, 1001, 2000)
    props = sequence._Propagators(ens, cfg.drive)
    grouped = props.groups(block)
    tracemalloc.start()
    try:
        out = props.propagator(grouped)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (1001, 4, 4)
    assert peak < 1.5 * 2**20


def test_propagator_memory_of_an_ungated_sweep_cycle():
    # fig6's cycle: 50 lit steps over 1,001 classes, 2,000 periods; its 5,095
    # detunings peak at 2.07 MiB, as they did under the step-by-step fold, and
    # one more product stack as wide as the exponentials would add 0.62 MiB
    cfg = parse_config(preset("fig6_rf_power"))
    ens, comp = runner._prepare(cfg)
    block = next(it for it in comp.items if it.count > 1)
    assert (len(block.segments), ens.n_classes, block.count) == (50, 1001, 2000)
    props = sequence._Propagators(ens, cfg.drive)
    grouped = props.groups(block)
    tracemalloc.start()
    try:
        out = props.propagator(grouped)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (1001, 4, 4)
    assert peak < 2.5 * 2**20


def _counting_products(monkeypatch):
    """Record each run's shift period and slot shift, and the 4x4 products each _mul call takes."""
    seen = {"periods": [], "rows": 0}
    shift, mul = sequence._shift, sequence._mul

    def shifting(offsets):
        seen["periods"].append(shift(offsets))
        return seen["periods"][-1]

    def counting(later, earlier, rows):
        seen["rows"] += math.prod(np.broadcast_shapes(later.shape[:-2], earlier.shape[:-2]))
        return mul(later, earlier, rows)

    monkeypatch.setattr(sequence, "_shift", shifting)
    monkeypatch.setattr(sequence, "_mul", counting)
    return seen


def _sweep_cycle_rows(monkeypatch, name):
    """Multiply a preset's sweep cycle; return its block, the counts and the builder."""
    cfg = parse_config(preset(name))
    ens, comp = runner._prepare(cfg)
    block = next(it for it in comp.items if it.count > 1)
    props = sequence._Propagators(ens, cfg.drive)
    grouped = props.groups(block)
    seen = _counting_products(monkeypatch)
    props.propagator(grouped)
    return block, seen, props


@pytest.mark.parametrize("name, steps, periods, most_rows", [
    # 0.2 MHz steps on a 0.5 MHz grid: the residues repeat every 5 steps, 2 slots on,
    # and the stack's slots run down as the pump sweeps up
    ("fig6_rf_power", 50, [(5, -2)], 10_000),
    # 0.5 MHz steps on the 0.5 MHz grid: one slot a step, on both sides of the 6
    # gated ones in mid-cycle
    ("fig7_tailoring", 100, [(1, -1), (1, -1)], 20_000),
], ids=["fig6_rf_power", "fig7_tailoring"])
def test_a_sweep_cycle_multiplies_each_layout_once(monkeypatch, name, steps, periods, most_rows):
    block, seen, _ = _sweep_cycle_rows(monkeypatch, name)
    assert len(block.segments) == steps
    assert seen["periods"] == periods
    # the step-by-step fold took (steps - 1) x 1,001: 49,049 and 99,099; the
    # shared product takes 8,104 and 18,382
    assert seen["rows"] <= most_rows


@pytest.mark.parametrize("name, most_rows", [
    ("fig6_rf_power", 6_900),
    ("fig7_tailoring", 5_400),
])
def test_a_sweep_cycle_takes_few_row_products(monkeypatch, name, most_rows):
    _, seen, props = _sweep_cycle_rows(monkeypatch, name)
    # pairwise layout passes took 8,104 and 18,382; fig6's 5-step chunks and then
    # windows 2 slots apart take 6,812, fig7's shared window stack and gate 5,200
    assert seen["rows"] == props.n_rows <= most_rows


def test_a_gated_multi_residue_cycle_is_chunked(monkeypatch):
    # stimulated_pumping's 0.2 MHz steps on a 0.5 MHz grid take 5 residues; a 1 MHz
    # gate cuts each cycle into two runs, each with the 5-step, 2-slot shift
    cfg = preset("stimulated_pumping")
    cfg["sequence"][0]["gate_gap_MHz"] = 1.0
    cycles, time_ordered = [], sequence._time_ordered

    def recording(factors, n):
        cycles.append((factors, n, time_ordered(factors, n)))
        return cycles[-1][2]

    seen = _counting_products(monkeypatch)
    monkeypatch.setattr(sequence, "_time_ordered", recording)
    _, result = runner.run_single(parse_config(cfg))
    assert seen["periods"] == [(5, -2), (5, -2)]
    # the step-by-step fold took 45,049
    assert result.stats["n_product_rows"] <= 22_000
    for factors, n, (got, _) in cycles:
        ref = np.eye(4)
        for s, a in factors:
            ref = (s if a is None else s[a:a + n]) @ ref
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def test_runs_far_apart_share_a_chunk_product_only_where_it_pays():
    # six runs on one class of offsets 0, 2, 1, 3 (2 steps move 1 slot), each 5
    # slots past the last: their shared chunk product would span 27 slots where
    # the step-by-step fold takes one row per product
    rng = np.random.default_rng(0)
    # column-stochastic, so products keep entries in [0, 1]
    stack, shared = (m / m.sum(axis=1, keepdims=True)
                     for m in (rng.random((29, 4, 4)), rng.random((1, 4, 4))))
    factors = [f for g in range(6) for f in [(stack, a + 5 * g) for a in (0, 2, 1, 3)]
               + [(shared, None)]]
    got, rows = sequence._time_ordered(factors, 1)
    ref = np.eye(4)
    for s, a in factors:
        ref = (s if a is None else s[a:a + 1]) @ ref
    np.testing.assert_allclose(got, ref, rtol=1e-13)
    assert rows <= len(factors) - 1


def test_the_period_search_finds_none_in_a_long_aperiodic_list():
    # every step moves one slot but the last: a scan of each candidate p <= K / 2
    # would compare about 3 K^2 / 8 offsets before it gave up
    offsets = list(range(sequence.MAX_SWEEP_STEPS - 1)) + [0]
    assert sequence._shift(offsets) is None
    assert sequence._shift(offsets[:-1]) == (1, 1)


# ---------------------------------------------------------------- stored prefixes

def _prefix_sequence(delays=(2.0, 0.0), center=0.0, power=20.0, duration=0.5):
    return compile_sequence([
        PumpPulse(duration_ms=duration, center_MHz=center, power_rate_per_ms=2.0,
                  sweep_span_MHz=10.0, sweep_period_ms=0.1),
        StimulationPulse(duration_ms=0.6, power_mW=power),
        *(ReadoutPulse(f_start_MHz=-5.0, f_stop_MHz=5.0, n_points=11, at_delay_ms=d)
          for d in delays),
    ])


def _prefix_ens(center=0.0, field=1.2):
    prof = InhomogeneousProfile(
        center_MHz=center, shape="flat", grid_span_MHz=20.0, grid_step_MHz=1.0
    )
    return build_ensemble(prof, ZeemanConfig(field_mT=field), COLD)


def _bytes(evolution):
    return [s.tobytes() for s in evolution.snapshots]


@pytest.mark.parametrize("delays", [(2.0, 0.0), ()])
def test_a_stored_run_matches_a_fresh_advance(delays):
    comp = _prefix_sequence(delays)
    store = Store()
    first = sequence.advance(_prefix_ens(), comp, NARROW, store)
    ens, fresh_ens = _prefix_ens(), _prefix_ens()
    hit = sequence.advance(ens, comp, NARROW, store)
    fresh = sequence.advance(fresh_ens, comp, NARROW)
    assert first.stats["n_expm_matrices"] > 0
    # the whole run is a stored prefix: nothing is exponentiated or multiplied
    assert hit.stats == dict(fresh.stats, n_expm_matrices=0, n_product_rows=0)
    assert _bytes(hit) == _bytes(fresh)
    # the final state is the stored one, also when no readout snapshot holds it,
    # and neither run moves its ensemble
    assert hit.final.tobytes() == fresh.final.tobytes()
    initial = _prefix_ens().populations.tobytes()
    assert hit.final.tobytes() != initial and fresh.final.tobytes() != initial
    assert ens.populations.tobytes() == fresh_ens.populations.tobytes() == initial


def test_advance_leaves_its_ensemble_as_it_found_it():
    ens = _prefix_ens()
    pops, before = ens.populations, ens.populations.tobytes()
    evolution = sequence.advance(ens, _prefix_sequence(), NARROW)
    assert ens.populations is pops and pops.tobytes() == before
    assert evolution.final.tobytes() != before
    # run alone writes the end state back
    run(ens, _prefix_sequence(), NARROW)
    assert ens.populations is pops and pops.tobytes() == evolution.final.tobytes()


def test_a_wait_item_and_an_equal_readout_gap_are_one_step(monkeypatch):
    # a 10 ms pump, then a 1 ms wait and a readout at delay 0, and the same pump
    # read out at delay 1 ms: both runs end on one prefix, so the scan reads
    # the initial state and that one snapshot
    pump = PumpPulse(duration_ms=10.0, center_MHz=0.0, power_rate_per_ms=2.0)

    def readout(delay):
        return ReadoutPulse(f_start_MHz=-5.0, f_stop_MHz=5.0, n_points=11, at_delay_ms=delay)

    waited = compile_sequence([pump, WaitPulse(start_ms=10.0, duration_ms=1.0), readout(0.0)])
    delayed = compile_sequence([pump, readout(1.0)])
    ens, store = _prefix_ens(), Store()
    runs = [(ens, sequence.advance(ens, comp, NARROW, store)) for comp in (waited, delayed)]
    assert runs[0][1].keys == runs[1][1].keys
    assert runs[1][1].stats["n_expm_matrices"] == 0
    scanned, real = [], sequence.readout_scan
    monkeypatch.setattr(sequence, "readout_scan",
                        lambda *args: scanned.append(len(args[-1])) or real(*args))
    first, second = sequence.scan(runs)
    assert scanned == [2]
    assert first.readouts[0].spectrum.optical_depth.tobytes() == \
        second.readouts[0].spectrum.optical_depth.tobytes()


def _two_pumps(delays):
    return compile_sequence([
        PumpPulse(duration_ms=0.5, center_MHz=0.0, power_rate_per_ms=2.0),
        PumpPulse(start_ms=1.0, duration_ms=0.5, center_MHz=3.0, power_rate_per_ms=2.0),
        StimulationPulse(duration_ms=2.0, power_mW=20.0),
        *(ReadoutPulse(f_start_MHz=-5.0, f_stop_MHz=5.0, n_points=11, at_delay_ms=d)
          for d in delays),
    ])


def test_a_run_resumes_before_the_first_snapshot_it_lacks():
    # the first run stores the populations at its one readout, not at the
    # drives' end, which the second run reads first: it resumes from the
    # initial state and applies only stored propagators
    store = Store()
    sequence.advance(_prefix_ens(), _two_pumps((2.0,)), NARROW, store)
    evolved = sequence.advance(_prefix_ens(), _two_pumps((2.0, 0.0)), NARROW, store)
    fresh = sequence.advance(_prefix_ens(), _two_pumps((2.0, 0.0)), NARROW)
    assert evolved.stats == dict(fresh.stats, n_expm_matrices=0, n_product_rows=0)
    # one residue for each unswept pump, the skipped ones included
    assert evolved.stats["pump_residues"] == [1, 1]
    assert _bytes(evolved) == _bytes(fresh)
    assert evolved.final.tobytes() == fresh.final.tobytes()


def test_a_partial_sweep_period_stores_one_population_array():
    # a period and a half of a 50-step sweep: the whole period and the half
    # period are one pumped item each, and no populations between items are
    # stored, only the initial state and the readout's
    comp = _prefix_sequence((1.0,), duration=0.15)
    assert [(len(it.segments), it.count) for it in comp.items] == [(50, 1), (25, 1), (1, 1)]
    store = Store()
    sequence.advance(_prefix_ens(), comp, NARROW, store)
    assert len(store.prefixes) == 2


def test_a_partial_sweep_period_holds_no_propagator_per_step():
    # 0.55 ms of a 100-step, 0.1 ms sweep on standard_pumping_pit's 1,001
    # classes: five periods in one repeat block, then the 50 steps of the half
    # period in one more, so the store holds one 1,001 x 4 x 4 propagator per
    # item, not one per step
    raw = preset("standard_pumping_pit")
    raw["sequence"][0]["duration_ms"] = 0.55
    cfg = parse_config(dict(raw, dt_max_ms=1e-3))
    ens, comp = runner._prepare(cfg)
    assert [(len(it.segments), it.count) for it in comp.items] == [(100, 5), (50, 1)]
    assert ens.n_classes == 1001
    store = Store()
    tracemalloc.start()
    try:
        sequence.advance(ens, comp, cfg.drive, store)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the two items, then the readout gap's one shared matrix
    assert [len(p) for p in store.items.values()] == [ens.n_classes, ens.n_classes, 1]
    # storing every step's propagator would hold 50 of them
    assert peak < 30 * ens.n_classes * 4 * 4 * 8


def test_a_swept_span_compiles_to_at_most_three_items():
    # a 1 ms sweep of 0.1 ms periods cut at 0.234 and 0.734 ms by a stimulation
    # pulse: each of the three spans is a head period, whole periods and a tail
    # period, as far as it has them, each one item of 2 us steps
    comp = compile_sequence([
        PumpPulse(duration_ms=1.0, center_MHz=0.0, power_rate_per_ms=2.0,
                  sweep_span_MHz=10.0, sweep_period_ms=0.1),
        StimulationPulse(start_ms=0.234, duration_ms=0.5, power_mW=20.0),
    ])
    assert [(len(it.segments), it.count) for it in comp.items] == [
        (50, 2), (17, 1), (33, 1), (50, 4), (17, 1), (33, 1), (50, 2)]
    assert comp.n_sweep_periods == 8
    assert comp.n_segments == 500


def test_a_partial_sweep_period_costs_at_most_one_more_cycle():
    # fig7 with 0.05 ms more pump: the tail half period shares the cycle's lattice
    # stack instead of exponentiating a stack per step (48,151 matrices)
    raw = preset("fig7_tailoring")
    raw["sequence"][0]["duration_ms"] = 200.05
    _, result = runner.run_single(parse_config(raw))
    assert result.stats["n_items"] == 3
    assert result.stats["n_expm_matrices"] <= 2 * 1_103


def test_a_partial_sweep_period_keeps_one_pump_rate_stack():
    # half a 0.1 ms period of 1,000 steps on standard_pumping_pit's 1,001 classes is
    # one item and one pump-rate stack: a stack per step held 500 stacks, 15.3 MiB,
    # and put the store at twice its budget after one point
    raw = preset("standard_pumping_pit")
    raw["sequence"][0]["duration_ms"] = 0.05
    cfg = parse_config(dict(raw, dt_max_ms=1e-4))
    ens, comp = runner._prepare(cfg)
    store = Store()
    evolution = sequence.advance(ens, comp, cfg.drive, store)
    assert len(comp.items) == 1 and len(store.pumps) == 1
    assert evolution.stats["n_expm_matrices"] < 51_000
    assert store.entries < sequence.STORE_BUDGET_ENTRIES


def test_a_run_fills_its_store_to_the_budget_and_no_further(monkeypatch):
    # 100 unswept 1 ms pumps 2 ms apart at distinct centres on standard_pumping_pit's
    # 1,001 classes: every pulse builds its own pump rates and propagator, so the
    # store fills within the run, passes the budget by at most its last entry
    # and then stores nothing more, however many pulses are left
    raw = preset("standard_pumping_pit")
    pump = {k: v for k, v in raw["sequence"][0].items() if not k.startswith("sweep_")}
    raw["sequence"][:1] = [dict(pump, start_ms=2.0 * i, duration_ms=1.0, center_MHz=0.01 * i)
                           for i in range(100)]
    cfg = parse_config(raw)
    ens, comp = runner._prepare(cfg)
    whole = sequence.advance(ens, comp, cfg.drive)
    budget = 1 << 16
    monkeypatch.setattr(sequence, "STORE_BUDGET_ENTRIES", budget)
    store = Store()
    bounded = sequence.advance(ens, comp, cfg.drive, store)
    assert store.full
    assert budget <= store.entries < budget + ens.n_classes * 4 * 4
    assert _bytes(bounded) == _bytes(whole)
    assert bounded.final.tobytes() == whole.final.tobytes()
    assert bounded.stats == whole.stats


def _thermal_off_balance():
    ens = _prefix_ens()
    ens.populations[:, :2] = [0.6, 0.4]
    return ens


@pytest.mark.parametrize("ens, comp, cal, repump, again", [
    (_thermal_off_balance(), _prefix_sequence(), NARROW, False, 0),
    (_prefix_ens(center=0.3), _prefix_sequence(), NARROW, True, 0),
    (_prefix_ens(field=1.5), _prefix_sequence(), NARROW, True, 0),
    (_prefix_ens(), _prefix_sequence(), DriveCalibration(pump_linewidth_MHz=0.5), True, 0),
    (_prefix_ens(), _prefix_sequence((2.0, 0.5)), NARROW, None, None),
    (_prefix_ens(), _prefix_sequence(center=0.25), NARROW, True, 0),
    (_prefix_ens(), _prefix_sequence(power=10.0), NARROW, True, 1),
    (_prefix_ens(), _prefix_sequence(duration=0.4), NARROW, True, 1),
], ids=["initial state", "class centres", "transitions", "pump linewidth", "readout delay",
        "pump centre", "stimulation power", "pump duration"])
def test_memo_misses_when_the_run_differs(ens, comp, cal, repump, again, monkeypatch):
    store = Store()
    sequence.advance(_prefix_ens(), _prefix_sequence(), NARROW, store)
    stacks, real = [], engine.propagator_batch
    monkeypatch.setattr(engine, "propagator_batch",
                        lambda g, dt: stacks.append(len(g)) or real(g, dt))
    fresh = sequence.advance(ens, comp, cal)
    pumped, stacks[:] = [n for n in stacks if n > 1], []
    evolved = sequence.advance(ens, comp, cal, store)
    assert _bytes(evolved) == _bytes(fresh)
    assert pumped
    if again is None:
        # the first run stored the drives' end for its readout at delay 0: only
        # the two new gaps, 0.5 and 1.5 ms, are exponentiated
        assert stacks == [1, 1] and evolved.stats["n_expm_matrices"] == 2
    else:
        # the first run stored its pumped item's propagator, keyed by the
        # transitions, pump linewidth and groups, not the initial state, so
        # only a run that differs in one of those exponentiates it again; a
        # pump-off item depends on its drive matrices alone, so only the again
        # ones that differ are
        assert stacks == (pumped if repump else []) + [1] * again
