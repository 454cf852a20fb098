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

import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np

from . import engine
from .ensemble import EnsembleState, Spectrum, kernel_key, readout_scan
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
    "Evolution",
    "compile_sequence",
    "advance",
    "scan",
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
    splitting lies inside center +- bandwidth/2.
    """

    start_ms: float = 0.0
    duration_ms: float
    center_MHz: float
    bandwidth_MHz: float
    voltage_Vpp: float

    def __post_init__(self):
        _check_timing(self)
        if self.bandwidth_MHz <= 0:
            raise ValueError("bandwidth_MHz must be > 0")
        if self.voltage_Vpp < 0:
            raise ValueError("voltage_Vpp must be >= 0")


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
    band membership, once per ensemble, from its excited splitting.
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
    active.sort(key=lambda p: (p.start_ms, p.duration_ms))
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


def _sweep_steps(pump: PumpPulse, n_steps: int, base: DriveSegment,
                 t0: float, t1: float) -> list[DriveSegment]:
    """base driven by the pump's sweep over [t0, t1), one segment per step.

    Steps lie on the pump's own grid of n_steps per sweep period, so a
    segment cut by t0 or t1 covers only part of its step.  Step k sits at
    span * ((k mod n_steps + 0.5) / n_steps - 0.5) from the sweep centre; a
    step within gate_gap_MHz / 2 of the centre is gated off and leaves the
    pump off.
    """
    dt = pump.sweep_period_ms / n_steps
    steps = []
    t = t0
    while t < t1 - 1e-12:
        k = math.floor((t - pump.start_ms) / pump.sweep_period_ms * n_steps + 1e-9)
        seg = replace(base, t_start_ms=t, t_end_ms=min(pump.start_ms + (k + 1) * dt, t1))
        offset = pump.sweep_span_MHz * ((k % n_steps + 0.5) / n_steps - 0.5)
        if abs(offset) >= pump.gate_gap_MHz / 2.0:
            seg = replace(seg, pump_freq_MHz=pump.center_MHz + offset,
                          pump_rate_per_ms=pump.power_rate_per_ms)
        steps.append(seg)
        t = seg.t_end_ms
    return steps


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
            n_full = int(math.floor((b - head_end) / period + 1e-9))
            items += _sweep_steps(pump, n_steps, base, a, head_end)
            if n_full > 0:
                cycle = _sweep_steps(pump, n_steps, base, head_end, head_end + period)
                items.append(RepeatBlock(segments=tuple(cycle), count=n_full))
            items += _sweep_steps(pump, n_steps, base, head_end + n_full * period, b)

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
        drive = engine.DriveRates(stim_rate=stim, rf_mix_rate=rf)
        return engine.build_rate_matrix(self.ens.params, drive)

    def groups(self, item) -> tuple[list, int | None]:
        """An item's segments grouped for shared exponentials, and its repeat count.

        Segments whose drive settings are equal and whose durations agree to
        DT_KEY_MS form one group (drive, rate, dt_ms, members, pump): the
        calibrated drive matrix, the pump rate (0 with the pump off), the
        first member's duration, the member indices in time order and their
        pump frequencies (None with the pump off).  With the class grid and
        pump linewidth these fix the group's generators.  The count is None
        for a single segment.
        """
        if isinstance(item, RepeatBlock):
            segments, count = item.segments, item.count
        else:
            segments, count = (item,), None
        keyed: dict = {}
        for i, seg in enumerate(segments):
            rate = seg.pump_rate_per_ms if seg.pump_freq_MHz is not None else 0.0
            key = (rate, seg.stim_power_mW, seg.rf_voltage_Vpp, seg.rf_center_MHz,
                   seg.rf_bandwidth_MHz, round(seg.dt_ms / DT_KEY_MS))
            keyed.setdefault(key, []).append(i)
        groups = []
        for (rate, *_), members in keyed.items():
            first = segments[members[0]]
            pump = np.array([segments[i].pump_freq_MHz for i in members]) if rate > 0.0 else None
            groups.append((self._drive_matrix(first), rate, first.dt_ms, tuple(members), pump))
        return groups, count

    def factors(self, grouped) -> list:
        """Shared propagator factors of a grouped item, one matrix exponential per group.

        The factors are one (propagators, index) pair per segment, in time
        order: class i evolves under propagators[index[i]], and an index of
        None means one propagator, shape (1, 4, 4), serves every class.  A
        pumped group is exponentiated in one batch, one matrix per distinct
        pump detuning.
        """
        groups, _ = grouped
        out: list = [None] * sum(len(group[3]) for group in groups)
        for drive, rate, dt_ms, members, pump in groups:
            if pump is None:
                props = self._expm(drive[None], dt_ms)
                for i in members:
                    out[i] = (props, None)
                continue
            keys = np.rint((pump[:, None] - self.ens.centers_MHz) / DETUNING_KEY_MHZ)
            _, firsts, inverse = np.unique(keys.ravel(), return_index=True, return_inverse=True)
            seg_idx, cls_idx = np.divmod(firsts, keys.shape[1])
            det = pump[seg_idx, None] - self.trans[cls_idx]
            g = np.repeat(drive[None], len(det), axis=0)
            engine.add_pump_rates(
                g, engine.pump_rate_profile(rate, self.cal.pump_linewidth_MHz, det)
            )
            props = self._expm(g, dt_ms)
            for i, index in zip(members, inverse.reshape(keys.shape)):
                out[i] = (props, index)
        return out

    def propagator(self, grouped) -> np.ndarray:
        """Per-class propagator of a grouped item, shape (n_classes, 4, 4).

        The shape is (1, 4, 4) when every factor is shared by all classes.
        """
        acc = None
        for props, index in self.factors(grouped):
            p = props if index is None else props[index]
            acc = p if acc is None else p @ acc
        count = grouped[1]
        return acc if count is None else engine.matrix_power_batch(acc, count)

    @staticmethod
    def key(grouped) -> tuple:
        """A grouped item as bytes and numbers; equal keys build equal generators."""
        groups, count = grouped
        return (count, *((drive.tobytes(), rate, dt_ms, members,
                          None if pump is None else pump.tobytes())
                         for drive, rate, dt_ms, members, pump in groups))


@dataclass
class Evolution:
    """A run's readouts with its populations before any drive and at each readout."""

    readouts: list[ReadoutPulse]  # by increasing delay
    snapshots: list[np.ndarray]  # the initial state, then one per readout
    stats: dict


def advance(ens: EnsembleState,
            compiled: CompiledSequence,
            calibration: DriveCalibration | None = None,
            memo: dict | None = None) -> Evolution:
    """Evolve an ensemble (mutated in place) to each readout's drives_end + at_delay_ms.

    Every item and readout gap is grouped once; the groups key the run in
    memo and build its propagators.  A run whose initial populations and
    transition frequencies (by their SHA-256 digest), pump linewidth, groups
    and readout gaps equal those of a run already in memo takes that run's
    snapshots and final populations, and exponentiates and applies nothing.
    Without a memo the run is keyed against an empty one.
    """
    cal = calibration or DriveCalibration()
    props = _Propagators(ens, cal)
    items = [props.groups(item) for item in compiled.items]
    t = sum(item.dt_ms for item in compiled.items)
    gaps = []  # per readout, the grouped drive-free segment before its snapshot, or None
    for r in compiled.readouts:
        target = compiled.drives_end_ms + r.at_delay_ms
        gap = None
        if target > t + 1e-12:
            gap = props.groups(DriveSegment(t_start_ms=t, t_end_ms=target))
            t = target
        gaps.append(gap)

    # A digest stands in for the two arrays the size of the class grid, so a
    # key holds no copy of them; the first transition column is the class
    # centre itself.
    arrays = hashlib.sha256(ens.populations)
    arrays.update(props.trans)
    key = (arrays.digest(), cal.pump_linewidth_MHz, tuple(map(_Propagators.key, items)),
           tuple(None if gap is None else _Propagators.key(gap) for gap in gaps))
    memo = {} if memo is None else memo
    if key in memo:
        snapshots, final = memo[key]
        ens.populations[:] = final
    else:
        snapshots = [ens.populations.copy()]
        for grouped in items:
            engine.apply_batch(props.propagator(grouped), ens.populations)
        for gap in gaps:
            if gap is not None:
                engine.apply_batch(props.propagator(gap), ens.populations)
            snapshots.append(ens.populations.copy())
        # with a readout, the last snapshot is the final state
        memo[key] = snapshots, snapshots[-1] if gaps else ens.populations.copy()

    stats = {
        "n_items": len(compiled.items),
        "n_segments": compiled.n_segments,
        "n_sweep_periods": compiled.n_sweep_periods,
        "drives_end_ms": compiled.drives_end_ms,
        "n_expm_matrices": props.n_expm,
    }
    return Evolution(compiled.readouts, snapshots, stats)


def scan(runs: list[tuple[EnsembleState, Evolution]]) -> list[RunResult]:
    """Read out evolved runs, given as (ensemble, Evolution) pairs.

    A readout's baseline is the scan of its run's initial state on its grid.
    Readouts on one grid whose ensembles have equal kernel keys share one
    kernel pass, a readout_scan over their distinct snapshots; a spectrum's
    bytes do not depend on the others in its pass.  A pass's kernel
    evaluations are counted in the stats of the first run that uses it.
    """
    passes: dict = {}  # (kernel key, grid) -> (ensemble, first run, {bytes: (row, snapshot)})
    refs = []  # per run and readout: (pass key, baseline row, spectrum row)
    for r, (ens, evo) in enumerate(runs):
        kernel = kernel_key(ens)
        initial, *snapshots = evo.snapshots
        refs.append([])
        for ro, snapshot in zip(evo.readouts, snapshots):
            key = (kernel, (ro.f_start_MHz, ro.f_stop_MHz, ro.n_points))
            distinct = passes.setdefault(key, (ens, r, {}))[2]
            rows = [distinct.setdefault(s.tobytes(), (len(distinct), s))[0]
                    for s in (initial, snapshot)]
            refs[-1].append((key, *rows))

    spectra, evals = {}, [0] * len(runs)
    for key, (ens, r, distinct) in passes.items():
        spectra[key] = readout_scan(ens, *key[1], [s for _, s in distinct.values()])
        evals[r] += key[1][2] * 4 * ens.n_classes
    return [RunResult([Readout(ro.at_delay_ms, spectra[key][i], spectra[key][b])
                       for ro, (key, b, i) in zip(evo.readouts, ref)],
                      dict(evo.stats, n_kernel_evals=n))
            for (_, evo), ref, n in zip(runs, refs, evals)]


def run(ens: EnsembleState,
        compiled: CompiledSequence,
        calibration: DriveCalibration | None = None) -> RunResult:
    """Execute a compiled sequence on an ensemble (mutated in place): scan its advance."""
    return scan([(ens, advance(ens, compiled, calibration))])[0]


def write_trace_csv(trace, path) -> None:
    with open(path, "w") as fh:
        fh.write("delay_ms,hole_area\n")
        for delay, area in trace:
            fh.write(f"{delay!r},{area!r}\n")
