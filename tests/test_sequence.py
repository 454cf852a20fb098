import dataclasses
import math
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
        items = compile_sequence(parse_config(raw).sequence).items
        assert items[-1].t_start_ms == 1.0
        assert driven(items[-1])


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
    assert wait.t_end_ms == start
    assert comp.n_segments - 1 == 8 * 50
    segments = [s for it in swept for s in (it.segments if isinstance(it, RepeatBlock) else [it])]
    assert all(s.dt_ms > sequence.TIME_TOL_MS for s in segments)
    assert comp.drives_end_ms == start + 8 * period
    # whole periods counted to TIME_TOL_MS, not to 1e-9 of a period, make one block
    (block,) = swept
    assert isinstance(block, RepeatBlock) and block.count == 8


# ------------------------------------------------------------------- compile

def test_compile_single_constant_pump():
    comp = compile_sequence(
        [PumpPulse(start_ms=0.0, duration_ms=10.0, center_MHz=2.0, power_rate_per_ms=1.5)]
    )
    assert comp.drives_end_ms == 10.0
    assert len(comp.items) == 1
    seg = comp.items[0]
    assert isinstance(seg, DriveSegment)
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
    blocks = [it for it in comp.items if isinstance(it, RepeatBlock)]
    assert len(blocks) == 1
    assert blocks[0].count == 2000
    # the block's cycle covers exactly one period
    assert sum(s.dt_ms for s in blocks[0].segments) == pytest.approx(0.1, rel=1e-9)


def test_compile_gate_blanks_center_steps():
    comp = compile_sequence(
        [PumpPulse(start_ms=0.0, duration_ms=0.1, center_MHz=0.0, power_rate_per_ms=2.0,
                   sweep_span_MHz=10.0, sweep_period_ms=0.1, gate_gap_MHz=3.0)],
        dt_max_ms=0.001,
    )
    segs = [it for it in comp.items if isinstance(it, DriveSegment)]
    blocks = [it for it in comp.items if isinstance(it, RepeatBlock)]
    if blocks:
        segs = list(blocks[0].segments)
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
    first, second = comp.items
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
    assert (comp.items[0].t_start_ms, comp.items[0].t_end_ms) == (0.0, 10.0)
    # while a swept pump is still cut into period / dt_max_ms steps
    comp = compile_sequence(
        [PumpPulse(duration_ms=1.0, center_MHz=0.0, power_rate_per_ms=1.0,
                   sweep_span_MHz=10.0, sweep_period_ms=0.1)],
        dt_max_ms=0.01,
    )
    (block,) = comp.items
    assert isinstance(block, RepeatBlock) and block.count == 10
    assert len(block.segments) == 10


def test_compile_wait_extends_horizon():
    comp = compile_sequence([
        PumpPulse(start_ms=0.0, duration_ms=5.0, center_MHz=0.0, power_rate_per_ms=1.0),
        WaitPulse(start_ms=5.0, duration_ms=20.0),
    ])
    assert comp.drives_end_ms == 25.0
    assert comp.items[-1].pump_freq_MHz is None
    assert comp.items[-1].pump_rate_per_ms == 0.0


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
    """seg cut at the given times into back-to-back pieces of equal drive."""
    edges = [seg.t_start_ms, *cuts, seg.t_end_ms]
    return [replace(seg, t_start_ms=a, t_end_ms=b) for a, b in zip(edges, edges[1:])]


def test_run_constant_segments_refinement_invariant():
    # splitting a constant interval must not change the exact propagation
    seq = [
        PumpPulse(start_ms=0.0, duration_ms=10.0, center_MHz=0.0, power_rate_per_ms=2.0),
        StimulationPulse(start_ms=0.0, duration_ms=10.0, power_mW=20.0),
        ReadoutPulse(f_start_MHz=-15.0, f_stop_MHz=15.0, n_points=121, at_delay_ms=1.0),
    ]
    coarse = compile_sequence(seq)
    (seg,) = coarse.items
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
    both = run(_ens(), CompiledSequence(items=[seg], readouts=[late, early], drives_end_ms=10.0))
    alone = run(_ens(), CompiledSequence(items=[seg], readouts=[early], drives_end_ms=10.0))
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
    if isinstance(item, RepeatBlock):
        segments, count = item.segments, item.count
    else:
        segments, count = (item,), 1
    out = []
    for i in range(ens.n_classes):
        acc = np.eye(4)
        for seg in segments:
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
        out.append(np.linalg.matrix_power(acc, count))
    return np.array(out)


def _gated_rf_sequence():
    # swept, gated, stimulated and RF-mixed, then a pump-off stimulation tail
    # split by hand into ten pieces
    comp = compile_sequence([
        PumpPulse(start_ms=0.0, duration_ms=0.35, center_MHz=0.0, power_rate_per_ms=2.0,
                  sweep_span_MHz=10.0, sweep_period_ms=0.1, gate_gap_MHz=3.0),
        StimulationPulse(start_ms=0.0, duration_ms=0.45, power_mW=20.0),
        RFPulse(start_ms=0.0, duration_ms=0.35, center_MHz=FIELD.delta_e_MHz,
                bandwidth_MHz=15.0, voltage_Vpp=5.0),
    ], dt_max_ms=0.01)
    tail = comp.items.pop()
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
    assert any(isinstance(it, RepeatBlock) for it in comp.items)
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
    block = next(it for it in comp.items if isinstance(it, RepeatBlock))
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
    block = next(it for it in _gated_rf_sequence().items if isinstance(it, RepeatBlock))
    props = sequence._Propagators(jittered, NARROW)
    with pytest.raises(ValueError, match="centers_MHz"):
        props.propagator(props.groups(block))
    # without the pump no lattice is read
    off = DriveSegment(t_start_ms=0.0, t_end_ms=1.0, stim_power_mW=20.0)
    assert props.propagator(props.groups(off)).shape == (1, 4, 4)


def test_propagator_memory_of_a_gated_sweep_cycle():
    # fig7's cycle: 94 lit and 6 gated steps over 1,001 classes, 2,000 periods;
    # sorting its 94 x 1,001 detuning keys would peak at 4.4 MiB
    cfg = parse_config(preset("fig7_tailoring"))
    ens, comp = runner._prepare(cfg)
    block = next(it for it in comp.items if isinstance(it, RepeatBlock))
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
    block = next(it for it in comp.items if isinstance(it, RepeatBlock))
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
    """Record each shift period found and the 4x4 products each _mul call takes."""
    seen = {"periods": [], "rows": 0}
    period, mul = sequence._shift_period, sequence._mul

    def shift_period(factors):
        seen["periods"].append(period(factors))
        return seen["periods"][-1]

    def counting(later, earlier, rows):
        seen["rows"] += math.prod(np.broadcast_shapes(later.shape[:-2], earlier.shape[:-2]))
        return mul(later, earlier, rows)

    monkeypatch.setattr(sequence, "_shift_period", shift_period)
    monkeypatch.setattr(sequence, "_mul", counting)
    return seen


def _sweep_cycle_rows(monkeypatch, name):
    """Multiply a preset's sweep cycle; return its block, the counts and the builder."""
    cfg = parse_config(preset(name))
    ens, comp = runner._prepare(cfg)
    block = next(it for it in comp.items if isinstance(it, RepeatBlock))
    props = sequence._Propagators(ens, cfg.drive)
    grouped = props.groups(block)
    seen = _counting_products(monkeypatch)
    props.propagator(grouped)
    return block, seen, props


@pytest.mark.parametrize("name, steps, period, most_rows", [
    # 0.2 MHz steps on a 0.5 MHz grid: the residues repeat every 5 steps, 2 slots on
    ("fig6_rf_power", 50, 5, 10_000),
    # 0.5 MHz steps on the 0.5 MHz grid, the 6 gated ones in mid-cycle
    ("fig7_tailoring", 100, None, 20_000),
])
def test_a_sweep_cycle_multiplies_each_layout_once(monkeypatch, name, steps, period, most_rows):
    block, seen, _ = _sweep_cycle_rows(monkeypatch, name)
    assert len(block.segments) == steps
    assert seen["periods"] == [period]
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
    # windows 2 slots apart take 6,710, fig7's shared window stack and gate 5,149
    assert seen["rows"] == props.n_rows <= most_rows


def test_the_period_search_finds_none_in_a_long_aperiodic_list():
    # every step moves one slot but the last: a scan of each candidate p <= K / 2
    # would compare about 3 K^2 / 8 factors before it gave up
    stack = np.zeros((1, 4, 4))
    factors = [(stack, k) for k in range(sequence.MAX_SWEEP_STEPS - 1)] + [(stack, 0)]
    assert sequence._shift_period(factors) is None
    assert sequence._shift_period(factors[:-1]) == 1


# ---------------------------------------------------------------- point memo

def _memo_sequence(delays=(2.0, 0.0), center=0.0, power=20.0, duration=0.5):
    return compile_sequence([
        PumpPulse(duration_ms=duration, center_MHz=center, power_rate_per_ms=2.0,
                  sweep_span_MHz=10.0, sweep_period_ms=0.1),
        StimulationPulse(duration_ms=0.6, power_mW=power),
        *(ReadoutPulse(f_start_MHz=-5.0, f_stop_MHz=5.0, n_points=11, at_delay_ms=d)
          for d in delays),
    ])


def _memo_ens(center=0.0, field=1.2):
    prof = InhomogeneousProfile(
        center_MHz=center, shape="flat", grid_span_MHz=20.0, grid_step_MHz=1.0
    )
    return build_ensemble(prof, ZeemanConfig(field_mT=field), COLD)


def _bytes(evolution):
    return [s.tobytes() for s in evolution.snapshots]


@pytest.mark.parametrize("delays", [(2.0, 0.0), ()])
def test_memo_hit_matches_a_fresh_advance(delays):
    comp = _memo_sequence(delays)
    memo = {}
    first = sequence.advance(_memo_ens(), comp, NARROW, memo)
    ens, fresh_ens = _memo_ens(), _memo_ens()
    hit = sequence.advance(ens, comp, NARROW, memo)
    fresh = sequence.advance(fresh_ens, comp, NARROW)
    assert first.stats["n_expm_matrices"] > 0
    assert hit.stats == dict(fresh.stats, n_expm_matrices=0, n_product_rows=0)
    assert _bytes(hit) == _bytes(fresh)
    # the final state is copied in, also when no readout snapshot holds it
    assert ens.populations.tobytes() == fresh_ens.populations.tobytes()
    assert ens.populations.tobytes() != _memo_ens().populations.tobytes()


def _thermal_off_balance():
    ens = _memo_ens()
    ens.populations[:, :2] = [0.6, 0.4]
    return ens


@pytest.mark.parametrize("ens, comp, cal", [
    (_thermal_off_balance(), _memo_sequence(), NARROW),
    (_memo_ens(center=0.3), _memo_sequence(), NARROW),
    (_memo_ens(field=1.5), _memo_sequence(), NARROW),
    (_memo_ens(), _memo_sequence(), DriveCalibration(pump_linewidth_MHz=0.5)),
    (_memo_ens(), _memo_sequence((2.0, 0.5)), NARROW),
    (_memo_ens(), _memo_sequence(center=0.25), NARROW),
    (_memo_ens(), _memo_sequence(power=10.0), NARROW),
    (_memo_ens(), _memo_sequence(duration=0.4), NARROW),
], ids=["initial state", "class centres", "transitions", "pump linewidth", "readout delay",
        "pump centre", "stimulation power", "pump duration"])
def test_memo_misses_when_the_run_differs(ens, comp, cal):
    memo = {}
    sequence.advance(_memo_ens(), _memo_sequence(), NARROW, memo)
    fresh_ens = replace(ens, populations=ens.populations.copy())
    fresh = sequence.advance(fresh_ens, comp, cal)
    evolved = sequence.advance(ens, comp, cal, memo)
    assert evolved.stats == fresh.stats
    assert evolved.stats["n_expm_matrices"] > 0
    assert _bytes(evolved) == _bytes(fresh)
    assert len(memo) == 2
