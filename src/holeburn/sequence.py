"""Pulse sequences: timing types, compiler, and ensemble executor.

A sequence is a list of pulses on three drive channels (pump, stimulation,
RF mixing) plus snapshot readouts taken after the drives end.  The compiler
flattens the channels into piecewise-constant drive segments; a repeated
frequency sweep becomes a repeat block so the executor can build the
propagator of one sweep cycle and raise it to the repetition count instead
of stepping through every period.

Sharing propagators between ion classes is exact: a segment's generator
depends on the class only through the detuning of the pump from the class
centre, so every class and sweep step with the same detuning and duration
gets the one propagator computed for that detuning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import engine
from .ensemble import EnsembleState, Spectrum, readout_scan
from .errors import SequenceError

__all__ = [
    "PumpPulse",
    "StimulationPulse",
    "RFPulse",
    "WaitPulse",
    "ReadoutPulse",
    "DriveSegment",
    "RepeatBlock",
    "CompiledSequence",
    "DriveCalibration",
    "Readout",
    "RunResult",
    "compile_sequence",
    "run",
    "write_trace_csv",
]

# Default number of discretisation steps per sweep period.
SWEEP_STEPS_PER_PERIOD = 50

# Pump detunings from the class centre closer than this share a propagator.
# Float rounding of those differences is about 1e-14 MHz on the bundled
# grids; the narrowest pump line is 0.25 MHz wide.
DETUNING_KEY_MHZ = 1e-11

# Segment durations closer than this share a propagator: the steps of one
# sweep cycle differ only by the rounding of their start and end times.
DT_KEY_MS = 1e-12


@dataclass(frozen=True, kw_only=True)
class PumpPulse:
    """Optical pump, optionally swept as a repeating sawtooth.

    Pulses are built by keyword; start_ms defaults to 0 on every timed pulse.

    With sweep_span_MHz > 0 the instantaneous frequency ramps linearly from
    center - span/2 to center + span/2 once per sweep_period_ms.  The pump
    is gated off whenever the instantaneous frequency lies within
    +- gate_gap_MHz / 2 of the sweep center.
    """

    start_ms: float = 0.0
    duration_ms: float
    center_MHz: float
    power_rate_per_ms: float
    sweep_span_MHz: float = 0.0
    sweep_period_ms: float = 0.0
    gate_gap_MHz: float = 0.0

    def __post_init__(self):
        _check_timing(self)
        if self.power_rate_per_ms < 0:
            raise ValueError("power_rate_per_ms must be >= 0")
        if self.sweep_span_MHz < 0:
            raise ValueError("sweep_span_MHz must be >= 0")
        if self.sweep_span_MHz > 0 and self.sweep_period_ms <= 0:
            raise ValueError("swept pump needs sweep_period_ms > 0")
        if self.gate_gap_MHz < 0:
            raise ValueError("gate_gap_MHz must be >= 0")
        if self.gate_gap_MHz > 0 and self.gate_gap_MHz >= self.sweep_span_MHz:
            raise ValueError("gate_gap_MHz must be smaller than sweep_span_MHz")


@dataclass(frozen=True, kw_only=True)
class StimulationPulse:
    """Stimulated de-excitation drive of constant power."""

    start_ms: float = 0.0
    duration_ms: float
    power_mW: float

    def __post_init__(self):
        _check_timing(self)
        if self.power_mW < 0:
            raise ValueError("power_mW must be >= 0")


@dataclass(frozen=True, kw_only=True)
class RFPulse:
    """Excited-doublet mixing drive swept over a frequency band.

    The sweep is much faster than every population timescale, so the drive
    is modelled as a constant mixing rate applied to any class whose excited
    splitting lies inside center +- bandwidth/2; sweep_period_ms is carried
    for documentation.
    """

    start_ms: float = 0.0
    duration_ms: float
    center_MHz: float
    bandwidth_MHz: float
    voltage_Vpp: float
    sweep_period_ms: float = 0.001

    def __post_init__(self):
        _check_timing(self)
        if self.bandwidth_MHz <= 0:
            raise ValueError("bandwidth_MHz must be > 0")
        if self.voltage_Vpp < 0:
            raise ValueError("voltage_Vpp must be >= 0")
        if self.sweep_period_ms <= 0:
            raise ValueError("sweep_period_ms must be > 0")


@dataclass(frozen=True, kw_only=True)
class WaitPulse:
    """Drive-free interval that extends the simulated horizon."""

    start_ms: float = 0.0
    duration_ms: float

    def __post_init__(self):
        _check_timing(self)


@dataclass(frozen=True, kw_only=True)
class ReadoutPulse:
    """Snapshot transmission scan taken at_delay_ms after the drives end."""

    f_start_MHz: float
    f_stop_MHz: float
    n_points: int
    at_delay_ms: float

    def __post_init__(self):
        if not self.f_stop_MHz > self.f_start_MHz:
            raise ValueError("f_stop_MHz must exceed f_start_MHz")
        if self.n_points < 2:
            raise ValueError("n_points must be >= 2")
        if not math.isfinite(self.at_delay_ms) or self.at_delay_ms < 0:
            raise ValueError(f"at_delay_ms must be finite and >= 0, got {self.at_delay_ms}")


Pulse = PumpPulse | StimulationPulse | RFPulse | WaitPulse | ReadoutPulse


def _check_timing(pulse) -> None:
    if not math.isfinite(pulse.start_ms) or pulse.start_ms < 0:
        raise ValueError(f"start_ms must be finite and >= 0, got {pulse.start_ms}")
    if not math.isfinite(pulse.duration_ms) or pulse.duration_ms < 0:
        raise ValueError(f"duration_ms must be finite and >= 0, got {pulse.duration_ms}")


@dataclass(frozen=True)
class DriveSegment:
    """One interval of constant drive settings.

    pump_freq_MHz is None when the pump is off (including gated sweep
    steps).  RF settings are kept on the segment so the executor can decide
    band membership per class.
    """

    t_start_ms: float
    t_end_ms: float
    pump_freq_MHz: float | None = None
    pump_rate_per_ms: float = 0.0
    stim_power_mW: float = 0.0
    rf_voltage_Vpp: float = 0.0
    rf_center_MHz: float = 0.0
    rf_bandwidth_MHz: float = 0.0

    @property
    def dt_ms(self) -> float:
        return self.t_end_ms - self.t_start_ms


@dataclass(frozen=True)
class RepeatBlock:
    """``count`` identical repetitions of a sweep cycle."""

    segments: tuple[DriveSegment, ...]
    count: int

    @property
    def dt_ms(self) -> float:
        return self.count * sum(s.dt_ms for s in self.segments)


@dataclass
class CompiledSequence:
    items: list  # DriveSegment | RepeatBlock, in time order
    readouts: list[ReadoutPulse]
    drives_end_ms: float

    def __post_init__(self):
        # run scans in this order, and the state only moves forward in time
        self.readouts = sorted(self.readouts, key=lambda r: r.at_delay_ms)

    @property
    def n_segments(self) -> int:
        """Unrolled segment count."""
        return sum(
            it.count * len(it.segments) if isinstance(it, RepeatBlock) else 1
            for it in self.items
        )

    @property
    def n_sweep_periods(self) -> int:
        """Full sweep repetitions executed through repeat blocks."""
        return sum(it.count for it in self.items if isinstance(it, RepeatBlock))


@dataclass(frozen=True)
class DriveCalibration:
    """Conversion from pulse settings to rates seen by the rate equations.

    The stimulation response falls off with a wide Lorentzian in the
    stimulating laser's detuning from its gain line; stim_detuning_MHz
    selects the operating point.
    """

    pump_linewidth_MHz: float = 1.0
    stim_slope_per_mW_ms: float = engine.DEFAULT_STIM_SLOPE_PER_MW_MS
    stim_detuning_MHz: float = 0.0
    stim_response_fwhm_MHz: float = 14000.0
    rf_coupling_per_V2_ms: float = engine.DEFAULT_RF_COUPLING_PER_V2_MS

    def __post_init__(self):
        if self.pump_linewidth_MHz <= 0:
            raise ValueError("pump_linewidth_MHz must be > 0")
        if self.stim_response_fwhm_MHz <= 0:
            raise ValueError("stim_response_fwhm_MHz must be > 0")
        if self.stim_slope_per_mW_ms < 0 or self.rf_coupling_per_V2_ms < 0:
            raise ValueError("calibration rates must be >= 0")

    def stim_rate(self, power_mW: float) -> float:
        base = engine.stimulation_rate(power_mW, self.stim_slope_per_mW_ms)
        hw2 = (0.5 * self.stim_response_fwhm_MHz) ** 2
        return base * hw2 / (self.stim_detuning_MHz ** 2 + hw2)


def _channel_pulses(pulses, kind):
    active = [p for p in pulses if isinstance(p, kind) and p.duration_ms > 0]
    active.sort(key=lambda p: p.start_ms)
    for prev, nxt in zip(active, active[1:]):
        if nxt.start_ms < prev.start_ms + prev.duration_ms - 1e-12:
            raise SequenceError(
                f"overlapping {kind.__name__} pulses at t = {nxt.start_ms} ms"
            )
    return active


def _active(pulses, t):
    for p in pulses:
        if p.start_ms - 1e-12 <= t < p.start_ms + p.duration_ms - 1e-12:
            return p
    return None


def _sweep_step(pump: PumpPulse, n_steps: int, i: int, seg: DriveSegment) -> DriveSegment:
    """seg driven by step i of n_steps of the pump's sweep period.

    Step i sits at span * ((i + 0.5) / n_steps - 0.5) from the sweep centre;
    a step within gate_gap_MHz / 2 of the centre is gated off and leaves
    seg's pump off.
    """
    offset = pump.sweep_span_MHz * ((i + 0.5) / n_steps - 0.5)
    if abs(offset) < pump.gate_gap_MHz / 2.0:
        return seg
    return replace(seg, pump_freq_MHz=pump.center_MHz + offset,
                   pump_rate_per_ms=pump.power_rate_per_ms)


def _sweep_cycle(pump: PumpPulse, n_steps: int, base: DriveSegment,
                 t0: float) -> tuple[DriveSegment, ...]:
    """Segments of one full sweep period starting at t0."""
    dt = pump.sweep_period_ms / n_steps
    return tuple(
        _sweep_step(pump, n_steps, i, replace(base, t_start_ms=t0 + i * dt,
                                              t_end_ms=t0 + (i + 1) * dt))
        for i in range(n_steps)
    )


def _emit_partial_sweep(items, pump, base, t0, t1, n_steps):
    """Segments for the part of a sweep lying in [t0, t1), stepping the phase grid."""
    dt = pump.sweep_period_ms / n_steps
    t = t0
    while t < t1 - 1e-12:
        step = math.floor((t - pump.start_ms) / pump.sweep_period_ms * n_steps + 1e-9)
        end = min(pump.start_ms + (step + 1) * dt, t1)
        items.append(_sweep_step(pump, n_steps, step % n_steps,
                                 replace(base, t_start_ms=t, t_end_ms=end)))
        t = end


def compile_sequence(pulses, dt_max_ms: float | None = None) -> CompiledSequence:
    """Flatten a pulse list into time-ordered drive segments.

    Swept pumps are discretised into at most dt_max_ms steps (default one
    fiftieth of the sweep period); whole sweep periods under unchanged
    stimulation and RF settings are folded into repeat blocks.  dt_max_ms
    bounds only the sweep step: a constant interval stays one segment,
    because its propagation is exact whatever its length.
    """
    if dt_max_ms is not None and dt_max_ms <= 0:
        raise ValueError("dt_max_ms must be > 0")

    pumps = _channel_pulses(pulses, PumpPulse)
    stims = _channel_pulses(pulses, StimulationPulse)
    rfs = _channel_pulses(pulses, RFPulse)
    waits = [p for p in pulses if isinstance(p, WaitPulse)]
    readouts = [p for p in pulses if isinstance(p, ReadoutPulse)]

    timed = pumps + stims + rfs + [w for w in waits if w.duration_ms > 0]
    drives_end = max((p.start_ms + p.duration_ms for p in timed), default=0.0)

    cuts = {0.0, drives_end}
    for p in timed:
        cuts.add(p.start_ms)
        cuts.add(p.start_ms + p.duration_ms)
    cuts = sorted(c for c in cuts if 0.0 <= c <= drives_end)

    items: list = []
    for a, b in zip(cuts, cuts[1:]):
        if b - a <= 1e-12:
            continue
        mid = 0.5 * (a + b)
        pump = _active(pumps, mid)
        stim = _active(stims, mid)
        rf = _active(rfs, mid)
        base = DriveSegment(
            t_start_ms=a,
            t_end_ms=b,
            stim_power_mW=stim.power_mW if stim else 0.0,
            rf_voltage_Vpp=rf.voltage_Vpp if rf else 0.0,
            rf_center_MHz=rf.center_MHz if rf else 0.0,
            rf_bandwidth_MHz=rf.bandwidth_MHz if rf else 0.0,
        )

        if pump is None or pump.power_rate_per_ms == 0.0:
            items.append(base)
        elif pump.sweep_span_MHz == 0.0:
            items.append(replace(base, pump_freq_MHz=pump.center_MHz,
                                 pump_rate_per_ms=pump.power_rate_per_ms))
        else:
            period = pump.sweep_period_ms
            dt_eff = dt_max_ms if dt_max_ms is not None else period / SWEEP_STEPS_PER_PERIOD
            n_steps = max(1, int(math.ceil(period / dt_eff - 1e-9)))
            # Align on the pump's own period boundaries inside [a, b).
            k0 = math.ceil((a - pump.start_ms) / period - 1e-9)
            head_end = min(pump.start_ms + k0 * period, b)
            _emit_partial_sweep(items, pump, base, a, head_end, n_steps)
            if head_end < b - 1e-12:
                n_full = int(math.floor((b - head_end) / period + 1e-9))
                if n_full > 0:
                    cycle = _sweep_cycle(pump, n_steps, base, head_end)
                    items.append(RepeatBlock(segments=cycle, count=n_full))
                tail_start = head_end + n_full * period
                _emit_partial_sweep(items, pump, base, tail_start, b, n_steps)

    return CompiledSequence(items=items, readouts=readouts, drives_end_ms=drives_end)


@dataclass(frozen=True)
class Readout:
    """A scan delay_ms after the drives end, with the initial-state scan on its grid."""

    delay_ms: float
    spectrum: Spectrum
    baseline: Spectrum


@dataclass
class RunResult:
    readouts: list[Readout]  # by increasing delay
    stats: dict


class _Propagators:
    """Propagators of drive items, one matrix exponential per distinct generator.

    Without the pump a segment's generator is the same for every class;
    with it, the generator varies only with the pump detuning from the
    class centre.  n_expm counts the 4x4 matrices exponentiated so far.
    """

    def __init__(self, ens: EnsembleState, cal: DriveCalibration):
        self.ens = ens
        self.cal = cal
        self.trans = ens.transition_freqs()
        self.n_expm = 0

    def _expm(self, matrices: np.ndarray, dt_ms: float) -> np.ndarray:
        self.n_expm += len(matrices)
        return engine.propagator_batch(matrices, dt_ms)

    def _drive_matrix(self, seg: DriveSegment) -> np.ndarray:
        """The class-independent part of a segment's generator."""
        stim = self.cal.stim_rate(seg.stim_power_mW)
        in_band = abs(self.ens.config.delta_e_MHz - seg.rf_center_MHz) <= seg.rf_bandwidth_MHz / 2.0
        rf = engine.rf_mix_rate(seg.rf_voltage_Vpp, self.cal.rf_coupling_per_V2_ms) if in_band else 0.0
        drive = engine.DriveRates(stim_rate_e1=stim, stim_rate_e2=stim, rf_mix_rate=rf)
        return engine.build_rate_matrix(self.ens.params, drive)

    def factors(self, item) -> tuple[list, int | None]:
        """Shared propagator factors of an item and its repeat count.

        The factors are one (propagators, index) pair per segment, in time
        order: class i evolves under propagators[index[i]], and an index of
        None means one propagator, shape (1, 4, 4), serves every class.
        Segments whose drive settings are equal and whose durations agree
        to DT_KEY_MS are exponentiated in one batch, one matrix per
        distinct pump detuning.  The count is None for a single segment.
        """
        if isinstance(item, RepeatBlock):
            segments, count = item.segments, item.count
        else:
            segments, count = (item,), None
        groups: dict = {}
        for i, seg in enumerate(segments):
            rate = seg.pump_rate_per_ms if seg.pump_freq_MHz is not None else 0.0
            key = (rate, seg.stim_power_mW, seg.rf_voltage_Vpp, seg.rf_center_MHz,
                   seg.rf_bandwidth_MHz, round(seg.dt_ms / DT_KEY_MS))
            groups.setdefault(key, []).append(i)

        out: list = [None] * len(segments)
        for (rate, *_), members in groups.items():
            first = segments[members[0]]
            drive = self._drive_matrix(first)
            if rate <= 0.0:
                props = self._expm(drive[None], first.dt_ms)
                for i in members:
                    out[i] = (props, None)
                continue
            pump = np.array([segments[i].pump_freq_MHz for i in members])
            keys = np.rint((pump[:, None] - self.ens.centers_MHz) / DETUNING_KEY_MHZ)
            _, firsts, inverse = np.unique(keys.ravel(), return_index=True, return_inverse=True)
            seg_idx, cls_idx = np.divmod(firsts, keys.shape[1])
            det = pump[seg_idx, None] - self.trans[cls_idx]
            g = np.repeat(drive[None], len(det), axis=0)
            engine.add_pump_rates(
                g, engine.pump_rate_profile(rate, self.cal.pump_linewidth_MHz, det)
            )
            props = self._expm(g, first.dt_ms)
            for i, index in zip(members, inverse.reshape(keys.shape)):
                out[i] = (props, index)
        return out, count

    def propagator(self, item) -> np.ndarray:
        """Per-class propagator of one item, shape (n_classes, 4, 4).

        The shape is (1, 4, 4) when every factor is shared by all classes.
        """
        factors, count = self.factors(item)
        acc = None
        for props, index in factors:
            p = props if index is None else props[index]
            acc = p if acc is None else p @ acc
        return acc if count is None else engine.matrix_power_batch(acc, count)


def run(ens: EnsembleState,
        compiled: CompiledSequence,
        calibration: DriveCalibration | None = None) -> RunResult:
    """Execute a compiled sequence on an ensemble (mutated in place).

    Each readout of the sequence scans the spectrum at drives_end +
    at_delay_ms.  Its baseline is the scan of the initial state on the same
    grid, shared by every readout on that grid.  The populations are copied
    before any drive and at each readout delay; once the last readout is
    reached, each grid is scanned in one kernel pass over its baseline and
    its readouts' snapshots.
    """
    cal = calibration or DriveCalibration()
    initial = ens.populations.copy()

    props = _Propagators(ens, cal)
    t = 0.0
    for item in compiled.items:
        engine.apply_batch(props.propagator(item), ens.populations)
        t += item.dt_ms

    snapshots = []
    by_grid: dict = {}
    for i, r in enumerate(compiled.readouts):
        target = compiled.drives_end_ms + r.at_delay_ms
        if target > t + 1e-12:
            gap = DriveSegment(t_start_ms=t, t_end_ms=target)
            engine.apply_batch(props.propagator(gap), ens.populations)
            t = target
        snapshots.append(ens.populations.copy())
        by_grid.setdefault((r.f_start_MHz, r.f_stop_MHz, r.n_points), []).append(i)

    readouts: list = [None] * len(snapshots)
    for grid, members in by_grid.items():
        base, *spectra = readout_scan(ens, *grid, [initial] + [snapshots[i] for i in members])
        for i, spectrum in zip(members, spectra):
            readouts[i] = Readout(compiled.readouts[i].at_delay_ms, spectrum, base)

    stats = {
        "n_items": len(compiled.items),
        "n_segments": compiled.n_segments,
        "n_sweep_periods": compiled.n_sweep_periods,
        "drives_end_ms": compiled.drives_end_ms,
        "n_expm_matrices": props.n_expm,
        "n_kernel_evals": sum(n for *_, n in by_grid) * 4 * ens.n_classes,
    }
    return RunResult(readouts=readouts, stats=stats)


def write_trace_csv(trace, path) -> None:
    with open(path, "w") as fh:
        fh.write("delay_ms,hole_area\n")
        for delay, area in trace:
            fh.write(f"{delay!r},{area!r}\n")
